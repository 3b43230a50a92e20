from __future__ import annotations

from fractions import Fraction

import pytest

from levode import (
    ContractionFailure,
    DivergentIntegral,
    ErrorLedger,
    LedgerEntry,
    RationalFn,
    SymMatrix,
    eta_bound,
    matrix_norm_bound,
    total_error_bound,
)
from levode.error_ledger import integral_tail_bound
from levode.system_model import (
    INVERSE_X,
    STANDARD,
    Monomial,
    ProblemSpec,
    validate,
)


def fn(s: str) -> RationalFn:
    return RationalFn.parse(s)


def tiny_spec(mode: str, rho: Monomial, K: int) -> ProblemSpec:
    return validate(ProblemSpec(
        n=2,
        N=1,
        d_large=(Fraction(1),),
        d_small=(Fraction(0),),
        rho=rho,
        lam=Monomial(Fraction(1), 1),
        phi1_large=(RationalFn.const(1),),
        phi1_small=(RationalFn.const(0),),
        ladder=(),
        E1=SymMatrix.zeros(2),
        a=Fraction(1),
        K=K,
        L=1,
        M=2,
        mode=mode,
        X=Fraction(10),
    ))


def simple(entry: str, X: Fraction, n: int = 2, p: str | None = None) -> ErrorLedger:
    E = SymMatrix.zeros(n).with_entry(0, 1, fn(entry))
    ps = []
    if p is not None:
        ps.append(SymMatrix.zeros(n).with_entry(1, 0, fn(p)))
    return ErrorLedger(
        entries=(LedgerEntry(1, E),),
        p_matrices=tuple(ps),
        X=X,
        n=n,
    )


def test_single_entry_no_transforms_is_exact():
    # with every P zero the bound collapses to the plain norm at X
    ledger = simple("(7)/(x^9)", Fraction(10))
    assert total_error_bound(ledger) == pytest.approx(7e-9, rel=1e-12)


def test_empty_ledger_gives_zero():
    ledger = ErrorLedger(entries=(), p_matrices=(), X=Fraction(10), n=3)
    assert total_error_bound(ledger) == 0.0


def test_transforms_inflate_the_bound():
    bare = total_error_bound(simple("(7)/(x^9)", Fraction(10)))
    wrapped = total_error_bound(simple("(7)/(x^9)", Fraction(10), p="(1)/(x^3)"))
    assert wrapped > bare
    # but only slightly: the deviation is O(1e-3) here
    assert wrapped < bare * 1.02


def test_larger_X_gives_smaller_bound():
    near = total_error_bound(simple("(7)/(x^9)", Fraction(10), p="(1)/(x^3)"))
    far = total_error_bound(simple("(7)/(x^9)", Fraction(100), p="(1)/(x^3)"))
    assert far < near


def test_entry_sum_is_monotone():
    one = simple("(7)/(x^9)", Fraction(10), p="(1)/(x^3)")
    extra = SymMatrix.zeros(2).with_entry(1, 1, fn("(1)/(x^10)"))
    two = ErrorLedger(
        entries=one.entries + (LedgerEntry(2, extra),),
        p_matrices=one.p_matrices,
        X=one.X,
        n=2,
    )
    assert total_error_bound(two) > total_error_bound(one)


def test_transform_too_large_to_invert():
    # n * ||P|| = 2 * 5 at X = 1: the deviation series cannot converge
    ledger = simple("(1)/(x^9)", Fraction(1), p="(5)/(x)")
    with pytest.raises(ContractionFailure):
        total_error_bound(ledger)


def test_fixture_bound_in_band(fixture_final):
    value = total_error_bound(fixture_final.ledger)
    assert 1e-8 < value < 1e-7


def test_matrix_norm_is_max_entry_sup():
    mat = SymMatrix.zeros(2).with_entry(0, 0, fn("(3)/(x^2)")).with_entry(
        1, 0, fn("(-5)/(x^3)")
    )
    # both entries decay, so the sup over [10, inf) sits at 10
    assert matrix_norm_bound(mat, Fraction(10)) == pytest.approx(0.03)


# -- tail integrals -----------------------------------------------------

def test_tail_integral_exact_for_monomial():
    # int_10^inf 3 t^-2 dt = 3/10
    mat = SymMatrix([[fn("(3)/(x^2)")]])
    assert integral_tail_bound(mat, Fraction(10)) == Fraction(3, 10)


def test_tail_integral_rejects_slow_decay():
    with pytest.raises(DivergentIntegral):
        integral_tail_bound(SymMatrix([[fn("(1)/(x)")]]), Fraction(10))


# -- the residual damage estimate ---------------------------------------

def test_eta_zero_for_zero_residual(fixture_spec):
    assert eta_bound(SymMatrix.zeros(3), fixture_spec) == 0.0


def test_eta_fixture_band(fixture_spec, fixture_final, fixture_eta):
    assert 3e-7 < fixture_eta < 5e-7
    # doubling the residual at least doubles the estimate
    doubled = eta_bound(fixture_final.residual + fixture_final.residual,
                        fixture_spec)
    assert doubled >= 2 * fixture_eta


def test_eta_divergent_when_accuracy_too_low():
    # p_rho = 1 and M*a = 2: rho times an O(x^-2) residual only decays
    # like x^-1, so the tail integral cannot converge
    spec = tiny_spec(STANDARD, Monomial(Fraction(1), 1), K=2)
    R = SymMatrix.zeros(2).with_entry(0, 1, fn("(1)/(x^2)"))
    with pytest.raises(DivergentIntegral):
        eta_bound(R, spec)


def test_eta_converges_when_the_residual_beats_its_accuracy():
    # p_rho = 1 and M*a = 2 as above, but R decays like x^-3: rho R decays
    # like x^-2, int_10^inf t^-2 dt = 1/10 and eta = (1/10) / (1 - 2/10)
    spec = tiny_spec(STANDARD, Monomial(Fraction(1), 1), K=2)
    R = SymMatrix.zeros(2).with_entry(0, 1, fn("(1)/(x^3)"))
    assert eta_bound(R, spec) == 0.125


def test_eta_converges_at_minimal_margin():
    spec = tiny_spec(INVERSE_X, Monomial(Fraction(1), -1), K=0)
    R = SymMatrix.zeros(2).with_entry(0, 1, fn("(1)/(x)"))
    # rho R decays like x^-2: int_10^inf t^-2 dt = 1/10, small enough
    value = eta_bound(R, spec)
    assert value == pytest.approx(0.1 / (1 - 0.2), rel=1e-9)


def test_eta_contraction_failure_when_residual_huge():
    spec = tiny_spec(INVERSE_X, Monomial(Fraction(1), -1), K=0)
    R = SymMatrix.zeros(2).with_entry(0, 1, fn("(20)/(x)"))
    with pytest.raises(ContractionFailure):
        eta_bound(R, spec)
