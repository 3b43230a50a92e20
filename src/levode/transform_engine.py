"""Repeated linear transformations Z_m = (I + P_m) Z_{m+1}.

Each iteration removes the current dominant perturbation V_{1m} by solving
the commutator equation for P_m, then re-expands the conjugated system in
powers of P_m.  Every product is classified by its decay order: order
between the new dominant scale and the target accuracy feeds a ladder
rung of the next iteration, order at or beyond accuracy goes to an exact
pool, and the geometric-series truncation goes to the error ledger.  The
engine is fully symbolic; nothing is approximated until a bound or a
value is requested.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .error_ledger import ErrorLedger, LedgerEntry
from .errors import ComputationFailed
from .symexpr import RationalFn, SymMatrix
from .system_model import INVERSE_X, ProblemSpec

_EXPANSION_CAP = 64


class DivisionByZeroDenominator(ComputationFailed, ZeroDivisionError):
    """A resonant exponent makes an elimination denominator vanish."""


class EliminationIdentityViolated(ComputationFailed, RuntimeError):
    """The exact re-check of the elimination identity left a nonzero defect."""


class ExpansionCapExceeded(ComputationFailed, RuntimeError):
    """A re-expansion of (I + P)^-1 kept more than _EXPANSION_CAP powers."""


class OrderRegression(ComputationFailed, RuntimeError):
    """A re-expansion term decays slower than the iteration promises."""


@dataclass(frozen=True)
class PSplit:
    """Transformation matrix split by elimination recipe.

    ``scaled`` holds the entries divided by lambda (every entry touching a
    large row or column); ``plain`` holds the lower-right block.
    """

    scaled: SymMatrix
    plain: SymMatrix
    m: int

    @property
    def combined(self) -> SymMatrix:
        return self.scaled + self.plain


@dataclass(frozen=True)
class CommutatorTerms:
    """First-order products of the elimination, grouped by block origin."""

    cross: SymMatrix
    large_with_scaled: SymMatrix
    small_with_scaled: SymMatrix
    small_with_plain: SymMatrix


@dataclass(frozen=True)
class CommittedError:
    """Exactly pooled remainder plus per-stage truncation matrices."""

    exact: SymMatrix
    truncations: tuple[tuple[int, SymMatrix], ...]


@dataclass(frozen=True)
class IterationState:
    m: int
    diag: tuple[RationalFn, ...]
    ladder: tuple[tuple[int, SymMatrix], ...]
    committed: CommittedError
    history: tuple[PSplit, ...]


@dataclass(frozen=True)
class IterationRecord:
    m: int
    psplit: PSplit
    s_next: SymMatrix
    lambda_next: tuple[RationalFn, ...]
    nu_choices: tuple[tuple[str, int], ...]
    bucket_orders: tuple[tuple[int, Fraction], ...]


@dataclass(frozen=True)
class FinalState:
    spec: ProblemSpec
    diag: tuple[RationalFn, ...]
    history: tuple[PSplit, ...]
    dominant_terms: tuple[SymMatrix, ...]
    residual: SymMatrix
    ledger: ErrorLedger
    iterations: tuple[IterationRecord, ...]


def _first_rung(ladder: tuple[tuple[int, SymMatrix], ...], n: int) -> SymMatrix:
    """V_1 of a ladder, or zeros once the ladder has none."""
    v1 = dict(ladder).get(1)
    return SymMatrix.zeros(n) if v1 is None else v1


def initial_state(spec: ProblemSpec) -> IterationState:
    return IterationState(
        m=1,
        diag=spec.lambda1_diagonal(),
        ladder=spec.ladder,
        committed=CommittedError(SymMatrix.zeros(spec.n), ()),
        history=(),
    )


@functools.lru_cache(maxsize=128)
def _p_and_leftover(
    state: IterationState, spec: ProblemSpec
) -> tuple[PSplit, SymMatrix]:
    """Solve the commutator equation entrywise; return P and pooled tails.

    In inverse-x mode the small-small block is eliminated term by term of
    the finite Laurent expansion; the part at or beyond accuracy cannot be
    (and need not be) eliminated, so it is returned for the exact pool.
    """
    n = spec.n
    v1 = _first_rung(state.ladder, n)
    zero = RationalFn.const(0)
    scaled = [[zero] * n for _ in range(n)]
    plain = [[zero] * n for _ in range(n)]
    leftover = [[zero] * n for _ in range(n)]
    lam = spec.lam_fn
    d = spec.d
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            v = v1.entry(i, j)
            if v.is_zero:
                continue
            i_large, j_large = spec.is_large(i), spec.is_large(j)
            if i_large and j_large:
                scaled[i][j] = v / (lam * (d[j] - d[i]))
            elif i_large:
                scaled[i][j] = -v / (lam * d[i])
            elif j_large:
                scaled[i][j] = v / (lam * d[j])
            elif spec.mode == INVERSE_X:
                terms, tail = v.laurent_split(spec.accuracy_exponent)
                acc = zero
                for c, e in terms:
                    den = d[j] - d[i] + e
                    if den == 0:
                        raise DivisionByZeroDenominator(
                            f"eliminating entry ({i + 1},{j + 1}): "
                            f"d_{j + 1} - d_{i + 1} - {-e} = 0"
                        )
                    acc = acc + RationalFn.monomial(c / den, e)
                plain[i][j] = acc
                leftover[i][j] = tail
            else:
                plain[i][j] = v / (d[j] - d[i])
    return (
        PSplit(SymMatrix(tuple(map(tuple, scaled))), SymMatrix(tuple(map(tuple, plain))), state.m),
        SymMatrix(tuple(map(tuple, leftover))),
    )


def compute_P(state: IterationState, spec: ProblemSpec) -> PSplit:
    psplit, _ = _p_and_leftover(state, spec)
    return psplit


def _phi_split(
    state: IterationState, spec: ProblemSpec
) -> tuple[tuple[RationalFn, ...], tuple[RationalFn, ...]]:
    """Diagonal deviation from the leading scale, split large/small."""
    zero = RationalFn.const(0)
    lambda0 = spec.lambda0_diagonal()
    large = []
    small = []
    for i in range(spec.n):
        phi = state.diag[i] - lambda0[i]
        large.append(phi if spec.is_large(i) else zero)
        small.append(phi if not spec.is_large(i) else zero)
    return tuple(large), tuple(small)


@functools.lru_cache(maxsize=128)
def commutator_terms(
    state: IterationState, psplit: PSplit, spec: ProblemSpec
) -> CommutatorTerms:
    n = spec.n
    v1 = _first_rung(state.ladder, n)
    zero = RationalFn.const(0)
    lam_inv = RationalFn.const(1) / spec.lam_fn
    d = spec.d
    cross = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            v = v1.entry(i, j)
            if v.is_zero:
                continue
            i_large, j_large = spec.is_large(i), spec.is_large(j)
            if i_large and not j_large:
                cross[i][j] = lam_inv * (d[j] / d[i]) * v
            elif j_large and not i_large:
                cross[i][j] = lam_inv * (d[i] / d[j]) * v
    cross_m = SymMatrix(tuple(map(tuple, cross)))
    phi_large, phi_small = _phi_split(state, spec)
    qt, q = psplit.scaled, psplit.plain
    terms = CommutatorTerms(
        cross=cross_m,
        large_with_scaled=qt.commutator(phi_large),
        small_with_scaled=qt.commutator(phi_small),
        small_with_plain=q.commutator(phi_small),
    )
    defect = elimination_defect(state, psplit, terms, spec)
    if not defect.is_zero:
        raise EliminationIdentityViolated(
            f"elimination identity violated at iteration {state.m}: "
            f"defect leading order {defect.max_leading_order()}"
        )
    return terms


@functools.lru_cache(maxsize=128)
def elimination_defect(
    state: IterationState,
    psplit: PSplit,
    terms: CommutatorTerms,
    spec: ProblemSpec,
) -> SymMatrix:
    """V1_eff + Lambda_m P - P Lambda_m minus every first-order product.

    Zero for a correct P.  In inverse-x mode the commutator also produces
    the x * Qtilde' compensation and the uneliminated at-accuracy tails
    are excluded from V1.
    """
    _, leftover = _p_and_leftover(state, spec)
    plus = [_first_rung(state.ladder, spec.n), psplit.combined.commutator(state.diag)]
    minus = [
        leftover,
        terms.cross,
        terms.large_with_scaled,
        terms.small_with_scaled,
        terms.small_with_plain,
    ]
    if spec.mode == INVERSE_X:
        rho_inv = RationalFn.const(1) / spec.rho_fn
        minus.append(rho_inv * psplit.plain.derivative())
    return SymMatrix.sum(plus, minus)


def _first_order_products(
    state: IterationState,
    psplit: PSplit,
    terms: CommutatorTerms,
    spec: ProblemSpec,
) -> list[tuple[str, SymMatrix]]:
    """Everything the conjugated system contains beyond the new dominant
    scale, before re-expansion in powers of P.  Deterministic label order.
    """
    rho_inv = RationalFn.const(1) / spec.rho_fn
    out: list[tuple[str, SymMatrix]] = [
        ("Qtilde_deriv", -(rho_inv * psplit.scaled.derivative())),
    ]
    if spec.mode != INVERSE_X:
        out.append(("Q_deriv", -(rho_inv * psplit.plain.derivative())))
    out.extend(
        [
            ("cross", terms.cross),
            ("small_plain", terms.small_with_plain),
            ("large_scaled", terms.large_with_scaled),
            ("small_scaled", terms.small_with_scaled),
        ]
    )
    for j, rung in state.ladder:
        if j >= 2:
            out.append((f"V{j}", rung))
    for j, rung in state.ladder:
        out.append((f"V{j}*Q", rung * psplit.plain))
        out.append((f"V{j}*Qtilde", rung * psplit.scaled))
    return [(label, mat) for label, mat in out if not mat.is_zero]


def iterate(state: IterationState, spec: ProblemSpec) -> IterationState:
    new_state, _ = _iterate(state, spec)
    return new_state


def _iterate(
    state: IterationState, spec: ProblemSpec
) -> tuple[IterationState, IterationRecord]:
    m, M, n, a = state.m, spec.M, spec.n, spec.a
    if m > M - 1:
        raise ValueError(f"reduction already complete after iteration {M - 1}")
    psplit, leftover = _p_and_leftover(state, spec)
    terms = commutator_terms(state, psplit, spec)
    P = psplit.combined

    # each sum is collected as its (plus, minus) terms, (-P)^r * base going
    # to minus for odd r, and formed once below
    pool: tuple[list[SymMatrix], list[SymMatrix]] = ([state.committed.exact, leftover], [])
    truncation: tuple[list[SymMatrix], list[SymMatrix]] = ([], [])
    bucket_terms: dict[int, tuple[list[SymMatrix], list[SymMatrix]]] = {}
    nu_choices: list[tuple[str, int]] = []

    for label, base in _first_order_products(state, psplit, terms, spec):
        # (I+P)^-1 * base expands as sum over r of (-P)^r * base; retain
        # powers until one falls at or beyond accuracy, ledger the rest.
        powers = [base]
        nxt = P * base
        while not nxt.order_at_most(spec.accuracy_exponent):
            powers.append(nxt)
            if len(powers) > _EXPANSION_CAP:
                raise ExpansionCapExceeded(
                    f"expansion of {label} at iteration {m} did not reach accuracy"
                )
            nxt = P * powers[-1]
        nu = len(powers) - 1
        nu_choices.append((label, nu))
        remainder = nxt
        if not remainder.is_zero:
            truncation[(nu + 1) % 2].append(remainder)
        for r, mat in enumerate(powers):
            lo = Fraction(mat.max_leading_order())
            k = math.floor(-lo / a) - m
            if k < 1:
                raise OrderRegression(
                    f"term {label} P^{r} at iteration {m} has leading order "
                    f"x^{lo}, slower than O(x^-{(m + 1) * a})"
                )
            target = bucket_terms.setdefault(k, ([], [])) if k < M - m else pool
            target[r % 2].append(mat)

    buckets = {k: SymMatrix.sum(*parts) for k, parts in bucket_terms.items()}
    s_next = buckets.get(1, SymMatrix.zeros(n))
    new_diag = tuple(
        state.diag[i] + s_next.entry(i, i) for i in range(n)
    )
    new_ladder: list[tuple[int, SymMatrix]] = []
    off = s_next.off_diagonal_part()
    if not off.is_zero:
        new_ladder.append((1, off))
    for k in sorted(buckets):
        if k >= 2 and not buckets[k].is_zero:
            new_ladder.append((k, buckets[k]))
    for j, mat in new_ladder:
        lo = Fraction(mat.max_leading_order())
        if -lo / a < m + j:
            raise OrderRegression(
                f"rung {j} after iteration {m} has leading order x^{lo}, "
                f"slower than O(x^-{(m + j) * a})"
            )

    truncations = state.committed.truncations
    if any(truncation):
        W = SymMatrix.sum(*truncation)
        if not W.is_zero:
            truncations = truncations + ((m + 1, W),)
    record = IterationRecord(
        m=m,
        psplit=psplit,
        s_next=s_next,
        lambda_next=new_diag,
        nu_choices=tuple(nu_choices),
        bucket_orders=tuple(
            (k, Fraction(buckets[k].max_leading_order()))
            for k in sorted(buckets)
            if not buckets[k].is_zero
        ),
    )
    new_state = IterationState(
        m=m + 1,
        diag=new_diag,
        ladder=tuple(new_ladder),
        committed=CommittedError(SymMatrix.sum(*pool), truncations),
        history=state.history + (psplit,),
    )
    return new_state, record


def _dominant_first(spec: ProblemSpec) -> SymMatrix:
    """S_1 as displayed: V_11 plus the decaying diagonal of Phi_1."""
    n = spec.n
    v1 = _first_rung(spec.ladder, n)
    lambda0 = spec.lambda0_diagonal()
    lambda1 = spec.lambda1_diagonal()
    decay = []
    for i in range(n):
        phi = lambda1[i] - lambda0[i]
        decay.append(phi - RationalFn.const(phi.limit_at_infinity()))
    return v1 + SymMatrix.diagonal(tuple(decay))


def run(spec: ProblemSpec) -> FinalState:
    state = initial_state(spec)
    records: list[IterationRecord] = []
    dominant = [_dominant_first(spec)]
    for _ in range(spec.M - 1):
        state, record = _iterate(state, spec)
        records.append(record)
        dominant.append(record.s_next)

    truncations = state.committed.truncations
    residual = SymMatrix.sum(
        [spec.E1, state.committed.exact, *(W for _, W in truncations)]
    )
    entries: list[LedgerEntry] = []
    if not spec.E1.is_zero:
        entries.append(LedgerEntry(stage=1, matrix=spec.E1, via_iteration=None))
    for stage, W in truncations:
        entries.append(LedgerEntry(stage=stage, matrix=W, via_iteration=stage - 1))
    ledger = ErrorLedger(
        entries=tuple(entries),
        p_matrices=tuple(ps.combined for ps in state.history),
        X=spec.X,
        n=spec.n,
    )
    return FinalState(
        spec=spec,
        diag=state.diag,
        history=state.history,
        dominant_terms=tuple(dominant),
        residual=residual,
        ledger=ledger,
        iterations=tuple(records),
    )
