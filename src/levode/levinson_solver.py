"""Asymptotic solution values of the reduced system at a finite point.

Once the perturbation is below accuracy, each diagonal entry of the final
system determines one solution Z_k(x) = {e_k + eta_k} exp(G_k(x)), where
G_k is an antiderivative of rho*(final diagonal entry).  The integrand is
expanded as a finite Laurent sum so G_k stays in closed form: power terms
integrate to powers, the t**-1 term to a logarithm.  Any rational tail
beyond the accuracy cutoff is not integrated symbolically; its absolute
integral over [X, inf) is bounded and charged to the eta budget.

The dichotomy check certifies the separation hypothesis behind the
deviation bound: for every ordered pair of diagonal entries, the real
difference weighted by rho must keep one sign on [X, inf) and have a
divergent integral.  With real rational data this is decided exactly by
root isolation.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from . import poly
from .error_ledger import integral_tail_bound
from .errors import MissingBackTransform, SolutionOverflow
from .symexpr import RationalFn, SymMatrix
from .system_model import ProblemSpec

_PREC = 40


def _context(prec: int) -> decimal.Context:
    """A decimal context of ``prec`` digits, independent of the thread's."""
    return decimal.Context(
        prec=prec,
        rounding=decimal.ROUND_HALF_EVEN,
        Emax=decimal.MAX_EMAX,
        Emin=decimal.MIN_EMIN,
        traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow],
    )


# ln and exp of solution values run here, never in the thread's context
_CTX = _context(_PREC)
# mpmath.nstr(value, 8) rounds its ninth digit half up
_CTX8 = decimal.Context(prec=8, rounding=decimal.ROUND_HALF_UP, Emax=decimal.MAX_EMAX)


def _decimal(q: Fraction, ctx: decimal.Context = _CTX) -> Decimal:
    return ctx.divide(q.numerator, q.denominator)


def _scientific(value: Decimal, shift: int = 0) -> str:
    """value * 10**shift to 8 significant digits, written as mpmath.nstr
    writes a number beyond the float range: ``1.6427925e+1154``."""
    sign, digits, exponent = _CTX8.plus(value).as_tuple()
    text = "".join(map(str, digits)).rstrip("0")
    exponent += len(digits) - 1 + shift
    return f"{'-' if sign else ''}{text[0]}.{text[1:] or '0'}e{exponent:+d}"


def _overflow(what: str, text: str) -> SolutionOverflow:
    return SolutionOverflow(f"{what} = {text} is outside the float range")


@dataclass(frozen=True)
class ExponentData:
    """Closed-form antiderivative data for one solution index (1-based)."""

    k: int
    laurent_terms: tuple[tuple[Fraction, int], ...]
    log_coefficient: Fraction
    tail_budget: Fraction

    def antiderivative_at(self, x, ctx: decimal.Context = _CTX) -> Decimal:
        """G_k(x) in ``ctx``: the power terms summed exactly and rounded
        once, plus the logarithmic term."""
        x = Fraction(x)
        powers = sum(
            (Fraction(c, e + 1) * x ** (e + 1) for c, e in self.laurent_terms),
            Fraction(0),
        )
        total = _decimal(powers, ctx)
        if self.log_coefficient:
            log_term = ctx.multiply(
                _decimal(self.log_coefficient, ctx), ctx.ln(_decimal(x, ctx))
            )
            total = ctx.add(total, log_term)
        return total

    def exp_at(self, x, what: str) -> float:
        """exp(G_k(x)) rounded to a float; SolutionOverflow beyond the
        float range, naming the value as ``what``."""
        g = self.antiderivative_at(x)
        try:
            out = float(_CTX.exp(g))
        except decimal.Overflow:  # beyond even decimal's exponent range
            out = math.inf
        if out < math.inf:
            return out
        # exp(G) = m * 10**e, with G to 40 digits after its integer part
        ctx = _context(_PREC + g.adjusted() + 1)
        g = self.antiderivative_at(x, ctx)
        ln10 = ctx.ln(10)
        e = int(ctx.divide_int(g, ln10))
        m = ctx.exp(ctx.subtract(g, ctx.multiply(e, ln10)))
        raise _overflow(what, _scientific(m, e))


@dataclass(frozen=True)
class SolutionBundle:
    k: int
    Z_at_X: tuple[float, ...]
    Y_at_X: tuple[float, ...] | None
    eta_bound: float
    C: float
    exponent: ExponentData


@dataclass(frozen=True)
class PairResult:
    j: int
    k: int
    sign_constant: bool
    integral_divergent: bool

    @property
    def ok(self) -> bool:
        return self.sign_constant and self.integral_divergent


@dataclass(frozen=True)
class DichotomyReport:
    pairs: tuple[PairResult, ...]

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.pairs)

    def pair(self, j: int, k: int) -> PairResult:
        for p in self.pairs:
            if p.j == j and p.k == k:
                return p
        raise KeyError((j, k))

    def ok_for(self, k: int) -> bool:
        return all(p.ok for p in self.pairs if p.j == k or p.k == k)


def check_dichotomy(spec: ProblemSpec, diag: tuple[RationalFn, ...]) -> DichotomyReport:
    rho = spec.rho_fn
    X = spec.X
    results = []
    for j in range(1, spec.n + 1):
        for k in range(1, spec.n + 1):
            if j == k:
                continue
            F = rho * (diag[j - 1] - diag[k - 1])
            if F.is_zero:
                results.append(PairResult(j, k, True, False))
                continue
            divergent = F.leading_order() >= -1
            if F.has_pole_in(X):
                sign_constant = False
            else:
                changes = poly.count_roots_above(
                    poly.odd_multiplicity_part(F.int_num), X
                )
                sign_constant = changes == 0
            results.append(PairResult(j, k, sign_constant, divergent))
    return DichotomyReport(tuple(results))


def exponent_data(k: int, diag: tuple[RationalFn, ...], spec: ProblemSpec) -> ExponentData:
    integrand = spec.rho_fn * diag[k - 1]
    stop = spec.accuracy_exponent - 1
    terms, tail = integrand.laurent_split(stop)
    log_c = Fraction(0)
    powers = []
    for c, e in terms:
        if e == -1:
            log_c += c
        else:
            powers.append((c, e))
    return ExponentData(
        k=k,
        laurent_terms=tuple(powers),
        log_coefficient=log_c,
        tail_budget=integral_tail_bound(SymMatrix([[tail]]), spec.X),
    )


def asymptotic_value(
    k: int, diag: tuple[RationalFn, ...], spec: ProblemSpec, x_eval
) -> tuple[tuple[float, ...], float]:
    """Value vector of the k-th asymptotic solution, and its size C at X.

    The antiderivative is taken with zero integration constant, which
    normalizes the leading monomial of the solution to unit coefficient.
    """
    return _value_from(exponent_data(k, diag, spec), spec, x_eval)


def _value_from(
    data: ExponentData, spec: ProblemSpec, x_eval
) -> tuple[tuple[float, ...], float]:
    vec = [0.0] * spec.n
    vec[data.k - 1] = data.exp_at(x_eval, f"Z_{data.k}({x_eval})")
    return tuple(vec), data.exp_at(spec.X, f"C = exp(G_{data.k}({spec.X}))")


def back_transform(Z_value, P_history, spec: ProblemSpec, x_eval) -> tuple[float, ...]:
    """T(x) * product of (I + P_m) * Z, evaluated exactly then rounded once."""
    if spec.back_transform is None:
        raise MissingBackTransform(
            "the problem defines no back-transformation matrix T(x)"
        )
    n = spec.n
    x = Fraction(x_eval)
    identity = SymMatrix.identity(n)
    product = spec.back_transform.eval_exact(x)
    for psplit in P_history:
        factor = (identity + psplit.combined).eval_exact(x)
        product = [
            [sum(product[i][t] * factor[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
    out = []
    for i in range(n):
        total = sum(
            (product[i][j] * Fraction(z) for j, z in enumerate(Z_value) if z),
            Fraction(0),
        )
        try:
            out.append(float(total))
        except OverflowError:
            what = f"Y_{i + 1}({x_eval})"
            raise _overflow(what, _scientific(_decimal(total))) from None
    return tuple(out)


def derive_original_system(spec: ProblemSpec) -> SymMatrix:
    """Recover the coefficient matrix of the user's system Y' = A(x) Y.

    With Y = T Z and Z' = rho*(Lambda_1 + R_1) Z, the original matrix is
    (T' + T*rho*(Lambda_1 + R_1)) * inverse(T).
    """
    if spec.back_transform is None:
        raise MissingBackTransform(
            "the problem defines no back-transformation matrix T(x)"
        )
    T = spec.back_transform
    coeff = SymMatrix.diagonal(spec.lambda1_diagonal()) + spec.E1
    for _, rung in spec.ladder:
        coeff = coeff + rung
    B = spec.rho_fn * coeff
    return (T.derivative() + T * B) * T.inverse()


def is_safely_continuable(data: ExponentData) -> bool:
    """False when the solution carries exponential growth toward infinity.

    A positive-coefficient integrand term with nonnegative power makes
    the solution dominant; continuing it backward from X amplifies the
    deviation budget uncontrollably, so callers should refuse.
    """
    return all(not (e >= 0 and c > 0) for c, e in data.laurent_terms)


def solution_bundle(k: int, final_state, eta_resid: float) -> SolutionBundle:
    """Assemble the per-solution report at x = X.

    eta_resid is the deviation bound from the residual perturbation; the
    discarded exponent tail enlarges it to eta + (e**tau - 1)(1 + eta).
    """
    spec = final_state.spec
    data = exponent_data(k, final_state.diag, spec)
    vec, C = _value_from(data, spec, spec.X)
    tau = float(data.tail_budget)
    eta_total = eta_resid + math.expm1(tau) * (1.0 + eta_resid)
    Y = None
    if spec.back_transform is not None:
        Y = back_transform(vec, final_state.history, spec, spec.X)
    return SolutionBundle(
        k=k, Z_at_X=vec, Y_at_X=Y, eta_bound=eta_total, C=C, exponent=data
    )
