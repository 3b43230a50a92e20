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

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from . import poly
from .error_ledger import integral_tail_bound
from .symexpr import RationalFn, SymMatrix
from .system_model import ProblemSpec

_DPS = 40


class MissingBackTransform(ValueError):
    """The problem carries no back-transformation matrix T(x)."""


class SolutionOverflow(ArithmeticError):
    """A solution value, at the evaluation point or continued, exceeds the
    float range."""


def _finite_float(value, what: str) -> float:
    out = float(value)
    if not math.isfinite(out):
        raise SolutionOverflow(
            f"{what} = {mpmath.nstr(value, 8)} is outside the float range"
        )
    return out


def _to_mpf(value) -> mpmath.mpf:
    if isinstance(value, Fraction):
        return mpmath.mpf(value.numerator) / value.denominator
    return mpmath.mpf(value)


@dataclass(frozen=True)
class ExponentData:
    """Closed-form antiderivative data for one solution index (1-based)."""

    k: int
    laurent_terms: tuple[tuple[Fraction, int], ...]
    log_coefficient: Fraction
    tail_budget: Fraction

    def antiderivative_at(self, x) -> mpmath.mpf:
        with mpmath.workdps(_DPS):
            xm = _to_mpf(x)
            total = mpmath.mpf(0)
            if self.log_coefficient:
                total += _to_mpf(self.log_coefficient) * mpmath.log(xm)
            for c, e in self.laurent_terms:
                total += _to_mpf(Fraction(c, e + 1)) * xm ** (e + 1)
            return total


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
                    poly.odd_multiplicity_part(F.num), X
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
    with mpmath.workdps(_DPS):
        value = mpmath.exp(data.antiderivative_at(x_eval))
        C = mpmath.exp(data.antiderivative_at(spec.X))
    vec = [0.0] * spec.n
    vec[data.k - 1] = _finite_float(value, f"Z_{data.k}({x_eval})")
    return tuple(vec), _finite_float(C, f"C = exp(G_{data.k}({spec.X}))")


def back_transform(Z_value, P_history, spec: ProblemSpec, x_eval) -> tuple[float, ...]:
    """T(x) * product of (I + P_m) * Z, evaluated exactly then rounded."""
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
    with mpmath.workdps(_DPS):
        out = []
        for i in range(n):
            acc = mpmath.mpf(0)
            for j in range(n):
                z = Z_value[j]
                if z:
                    acc += _to_mpf(product[i][j]) * _to_mpf(z)
            out.append(_finite_float(acc, f"Y_{i + 1}({x_eval})"))
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
