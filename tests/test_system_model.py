from __future__ import annotations

import json
import pickle
import random
from copy import deepcopy
from dataclasses import fields
from fractions import Fraction

import pytest

from levode import (
    INVERSE_X,
    STANDARD,
    InvariantViolation,
    Monomial,
    RationalFn,
    SchemaError,
    SymMatrix,
    load_problem,
    serialize_problem,
    validate,
)
from levode.fixtures import back_transform_matrix, builtin_hypergeometric
from levode.sampling import random_problem
from levode.system_model import ModeError, validate_resonance

F = Fraction


def base_document() -> dict:
    return serialize_problem(builtin_hypergeometric())


# -- loading and round trips -------------------------------------------

def test_round_trip_preserves_everything(fixture_spec):
    doc = serialize_problem(fixture_spec)
    again = load_problem(doc)
    assert again == fixture_spec
    # and the document itself survives a JSON round trip
    assert load_problem(json.loads(json.dumps(doc))) == fixture_spec


def test_round_trip_random_specs():
    import random

    from levode.sampling import random_problem

    rng = random.Random(99)
    for _ in range(25):
        spec = random_problem(rng)
        assert load_problem(serialize_problem(spec)) == spec


def test_missing_field_names_the_field():
    doc = base_document()
    del doc["rho"]
    with pytest.raises(SchemaError, match="rho"):
        load_problem(doc)


def test_missing_K_in_standard_mode():
    doc = base_document()
    doc["mode"] = STANDARD
    doc.pop("K", None)
    with pytest.raises(SchemaError, match="K"):
        load_problem(doc)


def test_bad_matrix_entry_reports_position():
    doc = base_document()
    doc["E1"][0][0] = "not a function"
    with pytest.raises(SchemaError):
        load_problem(doc)


def test_float_rational_rejected():
    doc = base_document()
    doc["a"] = 3.0
    with pytest.raises(SchemaError):
        load_problem(doc)


# -- validation ---------------------------------------------------------

def replace(spec, **kw):
    import dataclasses

    return dataclasses.replace(spec, **kw)


def test_duplicate_diagonal_entries_rejected(fixture_spec):
    bad = replace(fixture_spec, d_small=(F(1), F(1)))
    with pytest.raises(InvariantViolation, match="duplicate"):
        validate(bad)


def test_zero_large_entry_rejected(fixture_spec):
    bad = replace(fixture_spec, d_large=(F(0),))
    with pytest.raises(InvariantViolation, match="zero"):
        validate(bad)


def test_inverse_x_requires_exact_reciprocal(fixture_spec):
    bad = replace(fixture_spec, rho=Monomial(F(2), -1))
    with pytest.raises(InvariantViolation, match="inverse_x"):
        validate(bad)


def test_ladder_order_enforced(fixture_spec):
    slow = SymMatrix.zeros(3).with_entry(0, 1, RationalFn.parse("(1)/(x)"))
    bad = replace(fixture_spec, ladder=((1, slow),))
    with pytest.raises(InvariantViolation):
        validate(bad)


def test_ladder_diagonal_of_first_rung_must_vanish(fixture_spec):
    rung = SymMatrix.zeros(3).with_entry(0, 0, RationalFn.parse("(1)/(x^3)"))
    bad = replace(fixture_spec, ladder=((1, rung),))
    with pytest.raises(InvariantViolation, match=r"V_11"):
        validate(bad)


def test_remainder_order_enforced(fixture_spec):
    coarse = SymMatrix.zeros(3).with_entry(0, 1, RationalFn.parse("(1)/(x^8)"))
    bad = replace(fixture_spec, E1=coarse)
    with pytest.raises(InvariantViolation):
        validate(bad)


def test_M_and_X_bounds(fixture_spec):
    with pytest.raises(InvariantViolation):
        validate(replace(fixture_spec, M=1))
    with pytest.raises(InvariantViolation):
        validate(replace(fixture_spec, X=F(0)))


def test_accuracy_index_above_the_limit_rejected(fixture_spec):
    from levode.system_model import MAX_M

    zero_e1 = replace(fixture_spec, E1=SymMatrix.zeros(fixture_spec.n))
    assert validate(replace(zero_e1, M=MAX_M)).M == MAX_M
    for M in (MAX_M + 1, 10**9):
        with pytest.raises(InvariantViolation, match="exceeds the limit"):
            validate(replace(zero_e1, M=M))


def test_with_X_returns_new_spec(fixture_spec):
    moved = fixture_spec.with_X(F(20))
    assert moved.X == 20
    assert fixture_spec.X == 10
    assert validate(moved) is moved


def test_with_M_at_the_own_M_is_the_identity(fixture_spec):
    rng = random.Random(2024)
    for spec in [fixture_spec] + [random_problem(rng) for _ in range(200)]:
        assert spec.with_M(spec.M) == spec


def test_with_M_folds_the_rungs_past_M_into_E1(fixture_spec):
    (_, V11), (_, V21) = fixture_spec.ladder
    lowered = fixture_spec.with_M(2)
    assert lowered.M == 2
    assert lowered.ladder == ((1, V11),)
    assert lowered.E1 == fixture_spec.E1 + V21
    assert validate(lowered) is lowered


def _derived(spec):
    return (
        spec.rho_fn, spec.lam_fn, spec.rho_inv,
        spec.lambda0_diagonal(), spec.lambda1_diagonal(),
    )


def test_read_constants_leave_a_spec_unchanged():
    read = builtin_hypergeometric()
    constants = _derived(read)
    fresh = builtin_hypergeometric()
    assert read == fresh
    assert hash(read) == hash(fresh)
    assert repr(read) == repr(fresh)
    for copy in (pickle.loads(pickle.dumps(read)), deepcopy(read)):
        assert copy == fresh
        assert _derived(copy) == constants


def test_new_specs_compute_their_constants_afresh():
    spec = builtin_hypergeometric()
    _derived(spec)
    # nothing derived is carried over to a spec built from this one
    assert set(vars(spec.with_X(20))) == {f.name for f in fields(spec)}
    lam = Monomial(F(2), 5)
    other = replace(spec, lam=lam)
    assert other.lam_fn == lam.fn
    assert [f.to_string() for f in other.lambda0_diagonal()] == ["2*x^5", "1", "-1"]
    assert [f.to_string() for f in other.lambda1_diagonal()] == [
        "(2*x^8 - 3*x^3 - 3)/(x^3)", "1", "(-x^3 + 3)/(x^3)",
    ]


def test_read_lambda1_is_the_cached_constant():
    # Lambda_1 is formed once per spec (equality, hash, repr, pickle and
    # deepcopy of a read spec are checked above with the other constants);
    # a spec built from it computes its own
    read = builtin_hypergeometric()
    lam1 = read.lambda1_diagonal()
    assert read.lambda1_diagonal() is lam1
    for other in (read.with_X(20), replace(read, X=F(30))):
        assert "_lambda1" not in vars(other)
        assert other.lambda1_diagonal() == lam1
        assert other.lambda1_diagonal() is not lam1


# -- structure helpers --------------------------------------------------

def test_diagonal_assembly(fixture_spec):
    lam0 = fixture_spec.lambda0_diagonal()
    assert [f.to_string() for f in lam0] == ["x^3", "1", "-1"]
    lam1 = fixture_spec.lambda1_diagonal()
    assert [f.to_string() for f in lam1] == [
        "(x^6 - 3*x^3 - 3)/(x^3)",
        "1",
        "(-x^3 + 3)/(x^3)",
    ]


def test_block_membership(fixture_spec):
    assert fixture_spec.is_large(0)
    assert not fixture_spec.is_large(1)
    assert not fixture_spec.is_large(2)
    assert fixture_spec.d == (F(1), F(1), F(-1))
    assert fixture_spec.accuracy_exponent == -9


def test_fixture_remainder_entries(fixture_spec):
    e1 = fixture_spec.E1
    assert e1.entry(0, 0).to_string() == "(-3)/(x^9 - x^6)"
    assert e1.entry(1, 2).to_string() == "(-21*x^3 - 3)/(x^12 - x^6)"
    assert e1.entry(2, 2).to_string() == "(3)/(x^9 + x^6)"
    nonzero = sum(
        1 for i in range(3) for j in range(3) if not e1.entry(i, j).is_zero
    )
    assert nonzero == 5


def test_back_transform_factors_multiply_out():
    # the change of variables Y = F1 F2 F3 Z as its three factors
    x = RationalFn.x_power(1)
    x3 = RationalFn.x_power(3)
    one = RationalFn.const(1)
    z = RationalFn.const(0)
    f1 = SymMatrix.diagonal([one, one / x, x])
    f2 = SymMatrix([[one, one, one], [x3, one, -one], [x3 - 1, z, 2 / x3]])
    f3 = SymMatrix([[one, z, z], [3 / x3, one, z], [z, z, one]])
    assert f1 * f2 * f3 == back_transform_matrix()


# -- resonance ----------------------------------------------------------

def test_fixture_resonance_clean(fixture_spec):
    report = validate_resonance(fixture_spec)
    assert report.ok
    assert report.sufficient_condition_holds


def test_resonance_hits_detected(fixture_spec):
    degenerate = replace(
        fixture_spec,
        N=0,
        d_large=(),
        d_small=(F(0), F(1), F(3)),
        phi1_large=(),
        phi1_small=(RationalFn.const(0),) * 3,
        a=F(1),
        M=4,
        lam=Monomial(F(1), 1),
        ladder=(),
        E1=SymMatrix.zeros(3),
    )
    report = validate_resonance(degenerate)
    assert not report.ok
    assert not report.sufficient_condition_holds
    hits = {(h.m, h.i, h.j) for h in report.hits}
    assert (1, 1, 2) in hits  # d_2 - d_1 = 1 = 1*a
    assert (2, 2, 3) in hits  # d_3 - d_2 = 2 = 2*a
    assert (3, 1, 3) in hits  # d_3 - d_1 = 3 = 3*a


def test_resonance_requires_inverse_x(fixture_spec):
    standard = replace(
        fixture_spec, mode=STANDARD, K=1, rho=Monomial(F(1), 2)
    )
    with pytest.raises(ModeError):
        validate_resonance(standard)


def test_validate_is_identity_on_good_spec(fixture_spec):
    assert validate(fixture_spec) is fixture_spec
    assert fixture_spec.mode == INVERSE_X
