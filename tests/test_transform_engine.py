from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

from levode import (
    OrderRegression,
    RationalFn,
    SymMatrix,
    commutator_terms,
    compute_P,
    elimination_defect,
    initial_state,
    iterate,
    run,
)
from levode.sampling import random_problem
from levode.transform_engine import (
    CommittedError,
    EliminationIdentityViolated,
    IterationState,
    _iterate,
)

F = Fraction


def fn(s: str) -> RationalFn:
    return RationalFn.parse(s)


def entries(mat: SymMatrix) -> dict:
    n = len(mat.entries)
    return {
        (i + 1, j + 1): mat.entry(i, j).to_string()
        for i in range(n)
        for j in range(n)
        if not mat.entry(i, j).is_zero
    }


# -- first iteration, all values hand-checkable -------------------------
#
# The dominant perturbation is 3x^-3 * C with C = ((-1,0,0),(8,0,-1),(0,0,1)),
# diagonal dropped; the large scale is x^3 with d = (1; 1, -1).

def test_transformation_entries(fixture_spec):
    state = initial_state(fixture_spec)
    psplit = compute_P(state, fixture_spec)
    # (2,1): small row, large column: v/(lambda*d_1) = 24x^-3 / x^3
    assert entries(psplit.scaled) == {(2, 1): "(24)/(x^6)"}
    # (2,3): small-small with single term c = -3, s = 3:
    # c/(d_3 - d_2 - 3) = -3/(-5)
    assert entries(psplit.plain) == {(2, 3): "(3)/(5*x^3)"}


def test_commutator_products(fixture_spec):
    state = initial_state(fixture_spec)
    psplit = compute_P(state, fixture_spec)
    terms = commutator_terms(state, psplit, fixture_spec)
    # cross (2,1): lambda^-1 (d_2/d_1) v = x^-3 * 1 * 24x^-3
    assert entries(terms.cross) == {(2, 1): "(24)/(x^6)"}
    # large deviation -3 - 3x^-3 against the scaled entry in column 1:
    # -(24x^-6)(-3 - 3x^-3)
    assert entries(terms.large_with_scaled) == {(2, 1): "(72*x^3 + 72)/(x^9)"}
    assert terms.small_with_scaled.is_zero
    # small deviations (0, 0, 3x^-3) against Q(2,3) = (3/5)x^-3:
    # 0*q - q*3x^-3
    assert entries(terms.small_with_plain) == {(2, 3): "(-9)/(5*x^6)"}


def test_elimination_identity_on_fixture(fixture_spec):
    state = initial_state(fixture_spec)
    psplit = compute_P(state, fixture_spec)
    terms = commutator_terms(state, psplit, fixture_spec)
    assert elimination_defect(state, psplit, terms, fixture_spec).is_zero


@pytest.mark.parametrize(
    "part, i, j", [("scaled", 1, 0), ("scaled", 0, 2), ("plain", 1, 2), ("plain", 2, 1)]
)
def test_elimination_defect_detects_a_wrong_P(fixture_spec, part, i, j):
    state = initial_state(fixture_spec)
    psplit = compute_P(state, fixture_spec)
    terms = commutator_terms(state, psplit, fixture_spec)
    mat = getattr(psplit, part)
    wrong = dataclasses.replace(
        psplit, **{part: mat.with_entry(i, j, mat.entry(i, j) + RationalFn.x_power(-20))}
    )
    assert not elimination_defect(state, wrong, terms, fixture_spec).is_zero
    with pytest.raises(EliminationIdentityViolated):
        commutator_terms(state, wrong, fixture_spec)


def test_first_iteration_output(fixture_spec):
    state = initial_state(fixture_spec)
    nxt, record = _iterate(state, fixture_spec)
    assert record.s_next.to_strings() == [
        ["(-3)/(x^6)", "0", "(6)/(x^6)"],
        ["(252*x^3 + 72)/(x^9)", "0", "(-24)/(5*x^6)"],
        ["0", "0", "(-3)/(x^6)"],
    ]
    assert [f.to_string() for f in nxt.diag] == [
        "(x^9 - 3*x^6 - 3*x^3 - 3)/(x^6)",
        "1",
        "(-x^6 + 3*x^3 - 3)/(x^6)",
    ]
    # every expansion stops at nu = 0 here
    assert all(nu == 0 for _, nu in record.nu_choices)
    # nothing reaches the exact pool in the first iteration
    assert nxt.committed.exact.is_zero
    # the single truncation: products of P with the second rung
    assert len(nxt.committed.truncations) == 1
    stage, W = nxt.committed.truncations[0]
    assert stage == 2
    assert entries(W) == {
        (2, 1): "(72)/(x^12)",
        (2, 3): "(9*x^3 - 720)/(5*x^12)",
    }


def test_second_iteration_reaches_accuracy(fixture_spec):
    state = initial_state(fixture_spec)
    state, _ = _iterate(state, fixture_spec)
    state, record = _iterate(state, fixture_spec)
    assert record.s_next.is_zero  # everything lands at or beyond x^-9
    assert state.ladder == ()
    assert state.committed.exact.max_leading_order() == -9


def test_run_assembles_final_state(fixture_spec, fixture_final):
    fs = fixture_final
    assert len(fs.history) == 2
    assert len(fs.dominant_terms) == fixture_spec.M
    # S_1 as displayed: dominant rung plus the decaying diagonal deviation
    assert fs.dominant_terms[0].to_strings() == [
        ["(-3)/(x^3)", "0", "0"],
        ["(24)/(x^3)", "0", "(-3)/(x^3)"],
        ["0", "0", "(3)/(x^3)"],
    ]
    assert fs.dominant_terms[2].is_zero
    assert fs.residual.max_leading_order() == -9
    stages = [e.stage for e in fs.ledger.entries]
    assert stages == [1, 2, 3]
    assert fs.ledger.entries[0].via_iteration is None
    assert fs.ledger.entries[1].via_iteration == 1


def test_final_diagonal_unchanged_in_last_iteration(fixture_final):
    # the last stage only reshuffles sub-accuracy content
    assert [f.to_string() for f in fixture_final.diag] == [
        "(x^9 - 3*x^6 - 3*x^3 - 3)/(x^6)",
        "1",
        "(-x^6 + 3*x^3 - 3)/(x^6)",
    ]


# -- soundness of the whole reduction -----------------------------------

def test_conjugation_recovers_reduced_system(fixture_spec, fixture_final):
    """Oracle: substituting Z = (I+P_1)(I+P_2) W into the initial system
    must give exactly the claimed final system, up to the residual's own
    declared accuracy.  Checked pointwise from the exact matrices.
    """
    spec, fs = fixture_spec, fixture_final
    identity = SymMatrix.identity(3)
    B = identity
    for psplit in fs.history:
        B = B * (identity + psplit.combined)
    initial = SymMatrix.diagonal(spec.lambda1_diagonal()) + spec.E1
    for _, rung in spec.ladder:
        initial = initial + rung
    rho = spec.rho_fn
    onto = B.inverse() * (rho * initial * B - B.derivative())
    claimed = rho * (SymMatrix.diagonal(fs.diag) + fs.residual)
    diff = onto - claimed
    for t in range(20):
        x = 10.0 + 4.5 * t
        worst = max(
            abs(v) for row in diff.eval_float(x) for v in row
        )
        assert worst < 1e-10


def test_residual_equals_pool_plus_ledger(fixture_spec, fixture_final):
    fs = fixture_final
    total = fixture_spec.E1
    for entry in fs.ledger.entries[1:]:
        total = total + entry.matrix
    # remaining part is the exact pool; orders all at accuracy
    pool = fs.residual - total
    assert Fraction(pool.max_leading_order()) <= fixture_spec.accuracy_exponent


# -- failure modes ------------------------------------------------------

def test_order_regression_detected(fixture_spec):
    # a dominant rung far above its promised order makes re-expansion
    # produce terms slower than the next scale
    slow = SymMatrix.zeros(3).with_entry(1, 0, fn("(1)/(x)"))
    state = IterationState(
        m=1,
        diag=fixture_spec.lambda1_diagonal(),
        ladder=((1, slow),),
        committed=CommittedError(SymMatrix.zeros(3), ()),
        history=(),
    )
    with pytest.raises(OrderRegression):
        iterate(state, fixture_spec)


def test_iterate_beyond_completion_rejected(fixture_spec):
    state = initial_state(fixture_spec)
    for _ in range(fixture_spec.M - 1):
        state = iterate(state, fixture_spec)
    with pytest.raises(ValueError, match="complete"):
        iterate(state, fixture_spec)


# -- properties over random specs ---------------------------------------

def test_random_specs_identity_and_orders():
    rng = random.Random(31)
    for _ in range(30):
        spec = random_problem(rng)
        state = initial_state(spec)
        for _ in range(spec.M - 1):
            psplit = compute_P(state, spec)
            terms = commutator_terms(state, psplit, spec)
            assert elimination_defect(state, psplit, terms, spec).is_zero
            state = iterate(state, spec)
            for j, mat in state.ladder:
                lo = Fraction(mat.max_leading_order())
                assert -lo >= (state.m + j - 1) * spec.a
        assert state.m == spec.M


def test_random_specs_full_run_residual_order():
    rng = random.Random(32)
    for _ in range(15):
        spec = random_problem(rng)
        fs = run(spec)
        lo = fs.residual.max_leading_order()
        if lo is not None:
            assert Fraction(lo) <= spec.accuracy_exponent
        assert len(fs.dominant_terms) == spec.M
