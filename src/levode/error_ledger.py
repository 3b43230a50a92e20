"""Rigorous bounds for the committed error and the asymptotic deviation.

The reduction commits errors in stages: the input remainder E_1, then one
truncation matrix per iteration.  Each stage's contribution reaches the
final system conjugated by accumulated factors (I + P_1)...(I + P_j) and
their inverse.  ``total_error_bound`` turns the stored symbolic matrices
into a single number using half-line sup bounds and the max-entry norm.
The norm costs a factor n per matrix product, so inverses are bounded via
the identity inverse(I + P) = I - P*inverse(I + P) rather than by norm
products, which keeps every correction factor at 1 + O(n*norm) instead of
n**2 per stage.

``eta_bound`` bounds the deviation eta of the asymptotic solutions from
the unit coordinate vectors: with I >= integral over [X, inf) of
|rho|*norm(R_M), the bound is I/(1 - n*I).  The integral is bounded in
closed form by C*X**(1-w)/(w-1) where every entry of rho*R_M is O(t**-w)
and C bounds sup |entry|*t**w.

All inputs are exact; both functions evaluate exactly and round only on
return.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ComputationFailed
from .record import Record
from .symexpr import RationalFn, SymMatrix, sup_bound


class ContractionFailure(ComputationFailed, ValueError):
    """A norm that the bound needs below 1/n is too large; X is too small."""


class DivergentIntegral(ComputationFailed, ValueError):
    """The error integral over [X, infinity) does not converge."""


class BoundOverflow(ComputationFailed, OverflowError):
    """An exact bound, or a figure in a message, lies beyond the float range."""


def _to_float(value: Fraction, what: str) -> float:
    """value as a float; a positive value below the float range becomes
    the least positive float, so a positive bound never reports 0."""
    try:
        f = float(value)
    except OverflowError:
        raise BoundOverflow(f"{what} exceeds the float range") from None
    return math.nextafter(0.0, math.inf) if f == 0 and value > 0 else f


class LedgerEntry(Record):
    """Error committed at a stage, without its implicit inverse factor.

    stage 1 is the input remainder; stage j >= 2 holds the truncation
    terms of iteration j - 1, whose left factor inverse(I + P_{j-1}) is
    kept implicit and bounded numerically here.
    """

    stage: int
    matrix: SymMatrix

    @property
    def via_iteration(self) -> int | None:
        """stage - 1, the iteration whose P the implicit factor inverts;
        None at stage 1."""
        return None if self.stage == 1 else self.stage - 1


class ErrorLedger(Record):
    entries: tuple[LedgerEntry, ...]
    p_matrices: tuple[SymMatrix, ...]
    X: Fraction
    n: int


def matrix_norm_bound(mat: SymMatrix, X) -> Fraction:
    """Upper bound for the max-entry norm of mat on [X, infinity)."""
    best = Fraction(0)
    for row in mat.entries:
        for e in row:
            if not e.is_zero:
                best = max(best, sup_bound(e, X))
    return best


def _contraction(weight: Fraction, label: str) -> Fraction:
    """weight, once it is below 1; ContractionFailure naming it otherwise."""
    if weight >= 1:
        raise ContractionFailure(
            f"{label} = {_to_float(weight, label):.3g} >= 1; "
            "move the evaluation point X outward"
        )
    return weight


def _inverse_deviation(p: Fraction, n: int, what: str) -> Fraction:
    """Bound for norm(inverse(I+P) - I) given p >= norm(P)."""
    weight = _contraction(n * p, f"n*norm({what})")
    return weight * (1 + p / (1 - weight))


class LedgerNorms(Record):
    """Everything the ledger bounds, from one pass of sup bounds.

    ``entries`` and ``p_matrices`` hold norm bounds on [X, infinity),
    index for index with the ledger's fields; ``total`` is the value
    ``total_error_bound`` returns.
    """

    entries: tuple[Fraction, ...]
    p_matrices: tuple[Fraction, ...]
    total: float


def bound_ledger(ledger: ErrorLedger) -> LedgerNorms:
    """Bound every ledger entry and P_m once and combine them.

    Each stage contributes alpha * norm(E_j) * (1 + n*s) * (1 + n*D(s)),
    where s bounds the accumulated product norm(P_1 ... up to stage),
    D(s) bounds the deviation of its inverse from I, and alpha covers the
    single implicit inverse factor carried by truncation entries.
    """
    n, X = ledger.n, ledger.X
    identity = SymMatrix.identity(n)
    prefix_norms: list[Fraction] = []
    single_norms: list[Fraction] = []
    acc = identity
    for P in ledger.p_matrices:
        acc = acc * (identity + P)
        prefix_norms.append(matrix_norm_bound(acc - identity, X))
        single_norms.append(matrix_norm_bound(P, X))
    entry_norms = [matrix_norm_bound(entry.matrix, X) for entry in ledger.entries]

    total = Fraction(0)
    for entry, e_norm in zip(ledger.entries, entry_norms):
        if e_norm == 0:
            continue
        cap = min(entry.stage, len(prefix_norms))
        s = prefix_norms[cap - 1] if cap >= 1 else Fraction(0)
        dev = _inverse_deviation(s, n, f"accumulated transform at stage {entry.stage}")
        alpha = Fraction(1)
        if entry.via_iteration is not None:
            q = single_norms[entry.via_iteration - 1]
            alpha = 1 + n * _inverse_deviation(q, n, f"P_{entry.via_iteration}")
        total += alpha * e_norm * (1 + n * s) * (1 + n * dev)
    return LedgerNorms(
        tuple(entry_norms), tuple(single_norms), _to_float(total, "total error bound")
    )


def total_error_bound(ledger: ErrorLedger) -> float:
    """Bound for the max-entry norm of the total committed error on [X, inf)."""
    return bound_ledger(ledger).total


def eta_bound(R_M: SymMatrix, spec) -> float:
    """Bound for the Levinson deviation eta from the final residual R_M.

    The integral of |rho|*norm(R_M) over [X, infinity) must converge;
    ``integral_tail_bound`` decides that from the integrand's own decay
    and raises ``DivergentIntegral`` when it does not.  Since R_M is
    O(x**(-M*a)), a divergent integrand implies M*a <= p_rho + 1, but
    R_M may decay faster than that and converge all the same.
    """
    integral = integral_tail_bound(spec.rho_fn * R_M, spec.X)
    weight = _contraction(spec.n * integral, "n * integral")
    return _to_float(integral / (1 - weight), "eta bound")


def integral_tail_bound(mat: SymMatrix, X) -> Fraction:
    """Exact-rational bound for the integral of norm(mat) over [X, infinity).

    With every entry O(x**-w), the bound is C*X**(1-w)/(w-1) where C
    bounds sup |entry|*x**w.
    """
    lo = mat.max_leading_order()
    if lo is None:
        return Fraction(0)
    if lo >= -1:
        raise DivergentIntegral(
            f"integrand decays like x^{lo}; the integral over [{X}, inf) diverges"
        )
    X = Fraction(X)
    w = -lo
    C = matrix_norm_bound(mat * RationalFn.x_power(w), X)
    return C * X ** (1 - w) / (w - 1)
