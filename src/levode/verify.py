"""Built-in verification suite over the reference problem.

Every check row compares a freshly computed quantity against a frozen
reference constant and reports name, group, computed, reference,
tolerance, pass/fail.  Groups: symbolic (exact string equality of
engine output), asymptotic (solution values and dichotomy), error
(bound magnitudes and soundness), continuation (values at the regular
endpoint).  A row with a tolerance takes an override by name; an exact
row, whose tolerance is None, takes none.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .error_ledger import eta_bound, total_error_bound
from .errors import InvalidInput
from .fixtures import CHECK_GROUPS, builtin_hypergeometric, hypergeometric_companion
from .levinson_solver import check_dichotomy, derive_original_system, solution_bundle
from .ode_connector import integrate, linear_system
from .symexpr import RationalFn, SymMatrix
from .system_model import INVERSE_X, Monomial, ProblemSpec
from .transform_engine import EliminationIdentityViolated, run

S1_EXPECTED = [
    ["(-3)/(x^3)", "0", "0"],
    ["(24)/(x^3)", "0", "(-3)/(x^3)"],
    ["0", "0", "(3)/(x^3)"],
]
S2_EXPECTED = [
    ["(-3)/(x^6)", "0", "(6)/(x^6)"],
    ["(252*x^3 + 72)/(x^9)", "0", "(-24)/(5*x^6)"],
    ["0", "0", "(-3)/(x^6)"],
]
LAMBDA1_EXPECTED = ["(x^6 - 3*x^3 - 3)/(x^3)", "1", "(-x^3 + 3)/(x^3)"]
INTEGRAND_K3_EXPECTED = "(-x^6 + 3*x^3 - 3)/(x^6)"

Z33_REFERENCE = 0.09990009993
Y10_REFERENCE = (0.0999600993, -0.009984070, 0.0019920140)
TOTAL_ERROR_REFERENCE = 2.09830422e-8
Y0_REGRESSION = (1.87778537, -1.76303921, 1.99999920)
Y0_FIRST_COMPONENT = 1.87778588
Y0_ENCLOSURE = (
    (1.877772, 1.877799),
    (-1.763049, -1.763030),
    (1.999988, 2.000011),
)

CONTINUATION_RTOL = 1e-10
CONTINUATION_ATOL = 1e-12


@dataclass(frozen=True)
class CheckRow:
    name: str
    group: str
    computed: str
    reference: str
    tolerance: float | None
    passed: bool


class FixtureContext:
    """Caches the pipeline stages shared by the check rows."""

    @cached_property
    def spec(self) -> ProblemSpec:
        return builtin_hypergeometric()

    @cached_property
    def final_state(self):
        return run(self.spec)

    @cached_property
    def eta(self) -> float:
        # the residual's eta alone: the soundness row checks this bound, not
        # the bundle's, which the exponent tail enlarges
        return eta_bound(self.final_state.residual, self.spec)

    @cached_property
    def bundle(self):
        """Z and Y at X of the k = 3 solution, as ``levode solve`` reports them."""
        return solution_bundle(3, self.final_state, self.eta)

    @cached_property
    def companion_system(self):
        """Y' = A(x) Y on [0, 10], A derived from the fixture as
        ``levode solve --target`` derives it."""
        return linear_system(derive_original_system(self.spec), 0, 10)

    @cached_property
    def y_at_0(self) -> tuple[float, ...]:
        return integrate(
            self.companion_system,
            self.bundle.Y_at_X,
            self.spec.X,
            0,
            rtol=CONTINUATION_RTOL,
            atol=CONTINUATION_ATOL,
        )


def _exact(computed, expected):
    """An exact row's result: ``computed`` equal to ``expected``, each shown
    as ``str`` shows it (a list as its repr)."""
    return str(computed), str(expected), computed == expected


def _close(computed, reference, tol):
    """A vector row's result: every component of ``computed`` within
    ``tol`` of ``reference``."""
    diff = max(abs(c - r) for c, r in zip(computed, reference))
    return repr(computed), repr(reference), diff <= tol


def _check_s1(ctx, tol):
    return _exact(ctx.final_state.dominant_terms[0].to_strings(), S1_EXPECTED)


def _check_s2(ctx, tol):
    return _exact(ctx.final_state.dominant_terms[1].to_strings(), S2_EXPECTED)


def _check_lambda1(ctx, tol):
    return _exact([f.to_string() for f in ctx.spec.lambda1_diagonal()], LAMBDA1_EXPECTED)


def _check_integrand_k3(ctx, tol):
    # the factor multiplying rho in the exponent integrand for k = 3
    return _exact(ctx.final_state.diag[2].to_string(), INTEGRAND_K3_EXPECTED)


def _check_annihilation(ctx, tol):
    # Y = (x, 1, 0) solves Y' = A Y: A*Y - Y' is zero
    Y, dY = SymMatrix([["x"], [1], [0]]), SymMatrix([[1], [0], [0]])
    resid = hypergeometric_companion() * Y - dY
    return _exact([e.to_string() for (e,) in resid.entries], ["0", "0", "0"])


def _check_elimination_sample(ctx, tol):
    from .sampling import random_problem

    rng = random.Random(7)
    checked = 0
    for _ in range(5):
        # run() re-checks the identity at every step and raises on a defect
        try:
            run(random_problem(rng))
        except EliminationIdentityViolated:
            return f"defect at spec {checked}", "all defects zero", False
        checked += 1
    return f"{checked} random specs, all defects zero", "all defects zero", True


def _check_z33(ctx, tol):
    computed = ctx.bundle.Z_at_X[2]
    return repr(computed), repr(Z33_REFERENCE), abs(computed - Z33_REFERENCE) <= tol


def _check_y10(ctx, tol):
    return _close(ctx.bundle.Y_at_X, Y10_REFERENCE, tol)


def _check_dichotomy_fixture(ctx, tol):
    report = check_dichotomy(ctx.spec, ctx.final_state.diag)
    return (
        f"{sum(p.ok for p in report.pairs)}/{len(report.pairs)} pairs pass",
        "all pairs pass",
        report.ok,
    )


def _degenerate_spec() -> ProblemSpec:
    zero = RationalFn.const(0)
    return ProblemSpec(
        n=2,
        N=0,
        d_large=(),
        d_small=(Fraction(0), Fraction(0)),
        rho=Monomial(Fraction(1), -1),
        lam=Monomial(Fraction(1), 1),
        phi1_large=(),
        phi1_small=(zero, zero),
        ladder=(),
        E1=SymMatrix.zeros(2),
        a=Fraction(1),
        K=0,
        L=1,
        M=2,
        mode=INVERSE_X,
        X=Fraction(10),
    )


def _check_dichotomy_degenerate(ctx, tol):
    spec = _degenerate_spec()
    report = check_dichotomy(spec, spec.lambda1_diagonal())
    pair = report.pair(1, 2)
    flagged = (not pair.ok) and pair.sign_constant and not pair.integral_divergent
    return (
        f"pair (1,2) ok={pair.ok} sign_constant={pair.sign_constant} "
        f"divergent={pair.integral_divergent}",
        "pair flagged failing: sign constant, integral not divergent",
        flagged,
    )


def _check_total_error(ctx, factor):
    computed = total_error_bound(ctx.final_state.ledger)
    ok = (
        computed >= 0.0
        and TOTAL_ERROR_REFERENCE / factor <= computed <= TOTAL_ERROR_REFERENCE * factor
    )
    return repr(computed), f"within factor {factor} of {TOTAL_ERROR_REFERENCE!r}", ok


def _check_eta_soundness(ctx, tol):
    import mpmath  # loaded only when this check runs

    R = ctx.final_state.residual
    rho = SymMatrix([[ctx.spec.rho_fn]])  # its float table built on the first point

    def norm_at(t) -> float:
        t = float(t)
        rows = R.eval_float(t)
        return abs(rho.eval_float(t)[0][0]) * max(abs(v) for row in rows for v in row)

    # tanh-sinh quadrature over [X, inf), with its own error estimate
    value, err = mpmath.quad(norm_at, [float(ctx.spec.X), mpmath.inf], error=True)
    value, err = float(value), float(err)
    ok = math.isfinite(ctx.eta) and ctx.eta >= value - err
    return (
        f"eta={ctx.eta!r} quadrature={value!r}",
        "closed-form eta at least the quadrature value",
        ok,
    )


def _check_y0_regression(ctx, tol):
    return _close(ctx.y_at_0, Y0_REGRESSION, tol)


def _check_y0_analytic(ctx, tol):
    import mpmath  # loaded only when this check runs

    with mpmath.workdps(30):
        analytic = float(2 * mpmath.power(3, Fraction(-1, 3)) * mpmath.gamma(Fraction(2, 3)))
    computed = ctx.y_at_0[0]
    ok = (
        abs(computed - Y0_FIRST_COMPONENT) <= tol
        and abs(computed - analytic) <= tol
    )
    return repr(computed), f"{Y0_FIRST_COMPONENT!r} (closed form {analytic!r})", ok


def _check_y0_enclosure(ctx, tol):
    ok = all(lo <= c <= hi for c, (lo, hi) in zip(ctx.y_at_0, Y0_ENCLOSURE))
    return repr(ctx.y_at_0), repr(Y0_ENCLOSURE), ok


def _check_exact_propagation(ctx, tol):
    out = integrate(
        ctx.companion_system,
        (10.0, 1.0, 0.0),
        10,
        0,
        rtol=CONTINUATION_RTOL,
        atol=CONTINUATION_ATOL,
    )
    return _close(out, (0.0, 1.0, 0.0), tol)


# (name, group, default tolerance, check): None marks an exact row, which
# takes no override; a check returns (computed, reference, passed)
_CHECKS = (
    ("s1_matrix", "symbolic", None, _check_s1),
    ("s2_matrix", "symbolic", None, _check_s2),
    ("lambda1", "symbolic", None, _check_lambda1),
    ("exponent_integrand_k3", "symbolic", None, _check_integrand_k3),
    ("exact_solution_annihilation", "symbolic", None, _check_annihilation),
    ("elimination_identity_sample", "symbolic", None, _check_elimination_sample),
    ("z33_at_10", "asymptotic", 1e-9, _check_z33),
    ("y_at_10", "asymptotic", 1e-8, _check_y10),
    ("dichotomy_fixture", "asymptotic", None, _check_dichotomy_fixture),
    ("dichotomy_degenerate", "asymptotic", None, _check_dichotomy_degenerate),
    # an allowed factor against the reference bound
    ("total_error", "error", 5.0, _check_total_error),
    ("eta_soundness", "error", None, _check_eta_soundness),
    ("y_at_0_regression", "continuation", 1e-6, _check_y0_regression),
    ("y_at_0_analytic", "continuation", 1e-6, _check_y0_analytic),
    ("y_at_0_enclosure", "continuation", None, _check_y0_enclosure),
    (
        "exact_solution_propagation", "continuation", 10 * CONTINUATION_RTOL,
        _check_exact_propagation,
    ),
)


def run_checks(
    only: str | None = None,
    tolerance_overrides: dict | None = None,
) -> list[CheckRow]:
    """One row per check, of the group ``only`` or of all of them.
    ``tolerance_overrides`` maps a check's name to its tolerance, a number
    or its text, which must be a finite nonnegative number; an exact row
    takes none.  A bad value is refused before an unknown name, and an
    unknown name before an exact row."""
    if only is not None and only not in CHECK_GROUPS:
        raise InvalidInput(f"unknown check group {only!r}; choose from {CHECK_GROUPS}")
    overrides = {}
    for name, value in (tolerance_overrides or {}).items():
        try:
            tol = float(value)
        except (TypeError, ValueError, OverflowError):
            tol = math.nan
        if not math.isfinite(tol):
            raise InvalidInput(
                f"tolerance value for {name!r} is not a finite number: {value!r}"
            )
        if tol < 0:
            raise InvalidInput(f"tolerance value for {name!r} is negative: {value!r}")
        overrides[name] = tol
    defaults = {name: default for name, _, default, _ in _CHECKS}
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise InvalidInput(f"tolerance override for unknown check: {sorted(unknown)}")
    exact = [name for name in overrides if defaults[name] is None]
    if exact:
        raise InvalidInput(f"tolerance override for exact check: {sorted(exact)}")
    ctx = FixtureContext()
    rows: list[CheckRow] = []
    for name, group, default, check in _CHECKS:
        if only is not None and group != only:
            continue
        tol = overrides.get(name, default)
        try:
            computed, reference, passed = check(ctx, tol)
        except Exception as exc:
            computed, reference = f"error: {type(exc).__name__}: {exc}", ""
            passed = False
        rows.append(CheckRow(name, group, computed, reference, tol, passed))
    return rows
