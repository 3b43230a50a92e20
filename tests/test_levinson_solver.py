from __future__ import annotations

import dataclasses
from fractions import Fraction

import mpmath
import pytest

from levode import (
    MissingBackTransform,
    RationalFn,
    SymMatrix,
    asymptotic_value,
    back_transform,
    check_dichotomy,
    derive_original_system,
    exponent_data,
    is_safely_continuable,
    solution_bundle,
)
from levode.fixtures import hypergeometric_companion
from levode.ode_connector import integrate, linear_system
from levode.system_model import INVERSE_X, Monomial, ProblemSpec, validate


def fn(s: str) -> RationalFn:
    return RationalFn.parse(s)


# -- the exponent of each formal solution -------------------------------

def test_exponent_terms_decaying_solution(fixture_spec, fixture_final):
    data = exponent_data(3, fixture_final.diag, fixture_spec)
    assert data.k == 3
    assert data.log_coefficient == -1
    assert data.laurent_terms == ((Fraction(3), -4), (Fraction(-3), -7))
    # every term of the integrand is explicit: no tail to budget
    assert data.tail_budget == 0


def test_exponent_terms_growing_solution(fixture_spec, fixture_final):
    data = exponent_data(1, fixture_final.diag, fixture_spec)
    assert data.log_coefficient == -3
    assert data.laurent_terms == (
        (Fraction(1), 2), (Fraction(-3), -4), (Fraction(-3), -7),
    )


@pytest.mark.parametrize("k", [1, 2, 3])
def test_antiderivative_differentiates_back(k, fixture_spec, fixture_final):
    """The stored antiderivative, differentiated, must reproduce the
    integrand up to the split-off tail."""
    spec = fixture_spec
    data = exponent_data(k, fixture_final.diag, spec)
    integrand = spec.rho_fn * fixture_final.diag[k - 1]
    _, tail = integrand.laurent_split(spec.accuracy_exponent - 1)
    powers = RationalFn.const(0)
    for c, e in data.laurent_terms:
        powers = powers + RationalFn.monomial(Fraction(c, e + 1), e + 1)
    rebuilt = powers.differentiate() + RationalFn.monomial(data.log_coefficient, -1)
    assert rebuilt == integrand - tail


def test_decaying_solution_value_against_closed_form(fixture_spec, fixture_final):
    # G_3(x) = -ln x - x^-3 + x^-6/2 with zero constant, so
    # Z_33(10) = 0.1 * exp(-1e-3 + 5e-7)
    vec, C = asymptotic_value(3, fixture_final.diag, fixture_spec, Fraction(10))
    assert vec[0] == 0.0 and vec[1] == 0.0
    with mpmath.workdps(30):
        expected = float(mpmath.mpf("0.1") * mpmath.exp(
            mpmath.mpf("-0.001") + mpmath.mpf("5e-7")
        ))
    assert vec[2] == pytest.approx(expected, rel=1e-13)
    assert C == vec[2]


@pytest.mark.parametrize("x", [10, 20])
def test_decaying_solution_normalization(x, fixture_spec, fixture_final):
    # x * exp(x^-3 - x^-6/2) * Z_33(x) == 1 exactly, by construction
    vec, _ = asymptotic_value(3, fixture_final.diag, fixture_spec, Fraction(x))
    with mpmath.workdps(30):
        u = mpmath.mpf(x)
        product = vec[2] * u * mpmath.exp(u**-3 - u**-6 / 2)
    assert abs(float(product) - 1.0) < 1e-12


def test_solution_bundle_invariants(fixture_spec, fixture_final, fixture_eta):
    bundle = solution_bundle(3, fixture_final, fixture_eta)
    assert bundle.k == 3
    assert bundle.Z_at_X[2] == bundle.C
    assert bundle.eta_bound >= fixture_eta
    assert bundle.eta_bound < 1e-6
    y = bundle.Y_at_X
    assert y[0] == pytest.approx(0.09996009933218178, rel=1e-12)
    assert y[1] == pytest.approx(-0.009984069933576718, rel=1e-12)
    assert y[2] == pytest.approx(0.001992013986677493, rel=1e-12)


# -- dichotomy screening ------------------------------------------------

def test_fixture_dichotomy_passes(fixture_spec, fixture_final):
    report = check_dichotomy(fixture_spec, fixture_final.diag)
    assert report.ok
    assert len(report.pairs) == 6
    assert all(p.ok for p in report.pairs)
    assert report.ok_for(3)


def test_dichotomy_signs_match_sampling(fixture_spec, fixture_final):
    # independent check: the difference of any two exponent derivatives
    # never changes sign on [X, infinity)
    diag = fixture_final.diag
    report = check_dichotomy(fixture_spec, diag)
    for p in report.pairs:
        F = fixture_spec.rho_fn * (diag[p.j - 1] - diag[p.k - 1])
        signs = set()
        for t in range(50):
            v = F.eval_float(10.0 + t * (190.0 / 49.0))
            signs.add(v > 0 if v != 0 else None)
        assert p.sign_constant == (len(signs) == 1 and None not in signs)


def _flat_spec(X: int) -> ProblemSpec:
    return validate(ProblemSpec(
        n=2,
        N=0,
        d_large=(),
        d_small=(Fraction(0), Fraction(1, 8)),
        rho=Monomial(Fraction(1), -1),
        lam=Monomial(Fraction(1), 3),
        phi1_large=(),
        phi1_small=(RationalFn.const(0), RationalFn.const(0)),
        ladder=(),
        E1=SymMatrix.zeros(2),
        a=Fraction(3),
        K=0,
        L=1,
        M=2,
        mode=INVERSE_X,
        X=Fraction(X),
    ))


def test_dichotomy_root_beyond_X_fails():
    # 2 - 30/x crosses zero at x = 15, inside [10, infinity)
    diag = (fn("(2*x - 30)/(x)"), RationalFn.const(0))
    report = check_dichotomy(_flat_spec(10), diag)
    pair = report.pair(1, 2)
    assert not pair.sign_constant
    assert pair.integral_divergent
    assert not report.ok


def test_dichotomy_root_behind_X_passes():
    diag = (fn("(2*x - 30)/(x)"), RationalFn.const(0))
    report = check_dichotomy(_flat_spec(20), diag)
    assert report.pair(1, 2).sign_constant
    assert report.ok


def test_dichotomy_equal_exponents_fail():
    # identical diagonal entries: the pair integral converges (it is
    # zero), so neither solution dominates the other
    diag = (RationalFn.const(1), RationalFn.const(1))
    report = check_dichotomy(_flat_spec(10), diag)
    pair = report.pair(1, 2)
    assert pair.sign_constant
    assert not pair.integral_divergent
    assert not pair.ok


# -- continuation safety ------------------------------------------------

def test_growing_solution_not_continuable(fixture_spec, fixture_final):
    flags = [
        is_safely_continuable(exponent_data(k, fixture_final.diag, fixture_spec))
        for k in (1, 2, 3)
    ]
    assert flags == [False, True, True]


# -- mapping back to the original variables -----------------------------

def test_back_transform_requires_matrix(fixture_spec, fixture_final):
    bare = dataclasses.replace(fixture_spec, back_transform=None)
    with pytest.raises(MissingBackTransform):
        back_transform((0.0, 0.0, 1.0), fixture_final.history, bare, Fraction(10))


def test_back_transform_identity_cases(fixture_spec, fixture_final):
    ident = dataclasses.replace(
        fixture_spec, back_transform=SymMatrix.identity(3)
    )
    # zero maps to zero through any chain
    assert back_transform((0.0, 0.0, 0.0), fixture_final.history, ident,
                          Fraction(10)) == (0.0, 0.0, 0.0)
    # with no transforms at all, the identity map
    assert back_transform((1.0, 2.0, 3.0), (), ident, Fraction(10)) == (
        1.0, 2.0, 3.0,
    )


def test_derived_system_matches_companion(fixture_spec):
    assert derive_original_system(fixture_spec) == hypergeometric_companion()


def test_reduction_commutes_with_integration(fixture_spec, fixture_final):
    """Oracle for the asymptotic values: take the formal solution at
    x = 40, run it through the exact original first-order system down to
    x = 10, and compare with the formal solution evaluated there.  The
    two agree to roughly the residual's influence, far below 1e-8.
    """
    spec, fs = fixture_spec, fixture_final
    ident = dataclasses.replace(spec, back_transform=SymMatrix.identity(3))

    def z_at(x: int):
        w, _ = asymptotic_value(3, fs.diag, spec, Fraction(x))
        return back_transform(w, fs.history, ident, Fraction(x))

    A = SymMatrix.diagonal(spec.lambda1_diagonal()) + spec.E1
    for _, rung in spec.ladder:
        A = A + rung
    A = spec.rho_fn * A

    system = linear_system(A, Fraction(10), Fraction(40))
    arrived = integrate(system, z_at(40), 40.0, 10.0, rtol=1e-11, atol=1e-14)
    expected = z_at(10)
    for got, want in zip(arrived, expected):
        assert got == pytest.approx(want, abs=1e-8)
