"""Asymptotic solution values of the reduced system at a finite point.

Once the perturbation is below accuracy, each diagonal entry of the final
system determines one solution Z_k(x) = {e_k + eta_k} exp(G_k(x)), where
G_k is an antiderivative of rho*(final diagonal entry).  The integrand is
expanded as a finite Laurent sum so G_k stays in closed form: power terms
integrate to powers, the t**-1 term to a logarithm.  Any rational tail
beyond the accuracy cutoff is not integrated symbolically; its absolute
integral over [X, inf) is bounded and charged to the eta budget.

Levinson's form holds on all of [X, inf), so the k-th solution of the
original system at any x >= X is T(x) (I + P_1)(x) ... exp(G_k(x)) e_k,
evaluated as at X, and its deviation is the eta certified at X; below
X it is continued numerically.  ``solve`` is the one path from a reduced
problem to its solution values, which ``levode solve`` and ``verify`` take.

The dichotomy check certifies the separation hypothesis behind the
deviation bound: for every pair of diagonal entries, the real difference
weighted by rho must keep one sign on [X, inf) and have a divergent
integral.  With real rational data this is decided exactly by root
isolation, once per unordered pair: F_kj = -F_jk.
"""

from __future__ import annotations

import decimal
import itertools
import math
from decimal import Decimal
from fractions import Fraction

from . import poly
from .error_ledger import (
    BoundOverflow,
    _to_float,
    eta_bound,
    integral_tail_bound,
    total_error_bound,
)
from .errors import (
    ContinuationRefused,
    DichotomyFailure,
    InvalidInput,
    MissingBackTransform,
    SolutionOverflow,
)
from .ode_connector import DENSE_POINTS, integrate, linear_system, write_dense
from .record import Record
from .symexpr import RationalFn, SymMatrix
from .system_model import ProblemSpec

_PREC = 40

# how ``solve`` obtains Y at a target at or beyond X
FORM_INFO = {"method": "Levinson form"}


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


class ExponentData(Record):
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

    def solution_at(self, x, n: int) -> tuple[float, ...]:
        """Z_k(x) = exp(G_k(x)) e_k in dimension n."""
        value = self.exp_at(x, f"Z_{self.k}({x})")
        return tuple(value if i == self.k - 1 else 0.0 for i in range(n))


class PairResult(Record):
    j: int
    k: int
    sign_constant: bool
    integral_divergent: bool

    @property
    def ok(self) -> bool:
        return self.sign_constant and self.integral_divergent


class DichotomyReport(Record):
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
    """Every ordered pair in row-major order; (k, j) shares the result
    decided for (j, k), j < k."""
    n = spec.n
    decided = {}
    for j, k in itertools.combinations(range(1, n + 1), 2):
        F = spec.rho_fn * (diag[j - 1] - diag[k - 1])
        if F.is_zero:
            decided[j, k] = (True, False)
            continue
        sign_constant = not F.has_pole_in(spec.X) and poly.keeps_sign_above(F.int_num, spec.X)
        decided[j, k] = (sign_constant, F.leading_order() >= -1)
    return DichotomyReport(tuple(
        PairResult(j, k, *decided[min(j, k), max(j, k)])
        for j in range(1, n + 1)
        for k in range(1, n + 1)
        if j != k
    ))


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
    data = exponent_data(k, diag, spec)
    vec = data.solution_at(x_eval, spec.n)
    return vec, data.exp_at(spec.X, f"C = exp(G_{k}({spec.X}))")


def require_index(k: int, spec: ProblemSpec) -> None:
    """``InvalidInput`` unless k names a solution of ``spec``, 1 to n."""
    if not 1 <= k <= spec.n:
        raise InvalidInput(f"k must be in 1..{spec.n}, got {k}")


def require_back_transform(spec: ProblemSpec) -> SymMatrix:
    """The problem's T(x), which every value of Y needs, or
    ``MissingBackTransform`` when it defines none."""
    if spec.back_transform is None:
        raise MissingBackTransform(
            "the problem defines no back-transformation matrix T(x)"
        )
    return spec.back_transform


def back_transform(Z_value, P_history, spec: ProblemSpec, x_eval) -> tuple[float, ...]:
    """T(x) * product of (I + P_m) * Z, evaluated exactly then rounded once."""
    T = require_back_transform(spec)
    n = spec.n
    x = Fraction(x_eval)
    product = T.eval_exact(x)
    for psplit in P_history:
        P = psplit.combined.eval_exact(x)
        product = [
            [product[i][j] + sum(product[i][t] * P[t][j] for t in range(n)) for j in range(n)]
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
    T = require_back_transform(spec)
    coeff = SymMatrix.diagonal(spec.lambda1_diagonal()) + spec.E1
    for _, rung in spec.ladder:
        coeff = coeff + rung
    B = spec.rho_fn * coeff
    return (T.derivative() + T * B) * T.inverse()


class Solution(Record):
    """What ``solve`` certifies.  Y_at_X is None where the problem defines
    no T(x), and Y_at_target is None without a target."""

    Z_at_X: tuple[float, ...]
    Y_at_X: tuple[float, ...] | None
    eta_bound: float
    total_error_bound: float
    tail_budget: float
    exponent: ExponentData
    dichotomy: DichotomyReport
    Y_at_target: tuple[float, ...] | None


def solve(
    final_state, k: int, target=None, *, rtol: float, atol: float, dense_path=None
) -> Solution:
    """The k-th solution (1-based) of the reduced problem ``final_state``
    at X, and at ``target`` if given; ``InvalidInput`` for a k outside 1 to
    n (``require_index``) and ``DichotomyFailure`` where a pair
    with k fails the dichotomy.  The residual's eta is enlarged by the
    exponent tail tau to eta + (e**tau - 1)(1 + eta), or ``BoundOverflow``
    where tau or that sum leaves the float range.  At or beyond X, Y at the
    target is Levinson's form, as at X (``dense_path`` samples
    ``DENSE_POINTS`` points of [X, target]); below X, the RK45 continuation
    of Y(X) at ``rtol`` and ``atol``, or ``ContinuationRefused`` for a
    solution dominant toward infinity."""
    spec = final_state.spec
    require_index(k, spec)
    dichotomy = check_dichotomy(spec, final_state.diag)
    if not dichotomy.ok_for(k):
        # F_kj = -F_jk: each unordered pair is decided once
        bad = [
            f"({p.j},{p.k})" for p in dichotomy.pairs
            if p.j < p.k and k in (p.j, p.k) and not p.ok
        ]
        raise DichotomyFailure(
            f"dichotomy fails for pairs {', '.join(bad)}; the deviation bound "
            "for this solution is not certified"
        )
    eta_resid = eta_bound(final_state.residual, spec)
    data = exponent_data(k, final_state.diag, spec)
    vec = data.solution_at(spec.X, spec.n)
    tau = _to_float(data.tail_budget, f"exponent tail budget of G_{k}")
    try:
        eta_total = eta_resid + math.expm1(tau) * (1.0 + eta_resid)
    except OverflowError:
        eta_total = math.inf
    if eta_total == math.inf:
        raise BoundOverflow(
            f"eta bound with the exponent tail of G_{k} exceeds the float range"
        )
    Y = None
    if spec.back_transform is not None:
        Y = back_transform(vec, final_state.history, spec, spec.X)
    total = total_error_bound(final_state.ledger)

    y_target = None
    if target is not None and target >= spec.X:
        # Levinson's form holds on [X, inf): Y is evaluated there as at X
        xs = [target]
        if dense_path and target > spec.X:
            step = (target - spec.X) / (DENSE_POINTS - 1)
            xs = [spec.X + i * step for i in range(DENSE_POINTS)]
        rows = [
            back_transform(data.solution_at(x, spec.n), final_state.history, spec, x)
            for x in xs
        ]
        if dense_path:
            write_dense(dense_path, xs, rows)
        y_target = rows[-1]
    elif target is not None:
        # a term c*x^e, c > 0 and e >= 0, makes the solution dominant toward
        # infinity: continued backward, it amplifies the deviation budget
        growing = [
            f"{c}*x^{e + 1}/{e + 1}" for c, e in data.laurent_terms if e >= 0 and c > 0
        ]
        if growing:
            raise ContinuationRefused(
                f"solution k={k} grows exponentially toward infinity "
                f"(exponent term {', '.join(growing)}); continuing it backward "
                "from X would amplify the uncertified dominant part, refusing"
            )
        A = derive_original_system(spec)
        y_target = integrate(
            linear_system(A, target, spec.X), Y, spec.X, target,
            rtol=rtol, atol=atol, dense_path=dense_path,
        )
    return Solution(
        Z_at_X=vec,
        Y_at_X=Y,
        eta_bound=eta_total,
        total_error_bound=total,
        tail_budget=tau,
        exponent=data,
        dichotomy=dichotomy,
        Y_at_target=y_target,
    )
