from __future__ import annotations

import dataclasses
import math
import random
import re
from fractions import Fraction

import mpmath
import pytest

from levode import (
    MissingBackTransform,
    RationalFn,
    SymMatrix,
    back_transform,
    check_dichotomy,
    derive_original_system,
    exponent_data,
    solution_bundle,
)
from levode.fixtures import hypergeometric_companion
from levode.levinson_solver import SolutionOverflow, asymptotic_value, growing_terms
from levode.ode_connector import integrate, linear_system
from levode.sampling import random_problem
from levode.system_model import INVERSE_X, Monomial, ProblemSpec, validate
from levode.transform_engine import run


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


@pytest.mark.parametrize("X", [10, Fraction(3, 2)])
def test_dichotomy_is_symmetric_in_the_pair(X, fixture_spec):
    # F_kj = -F_jk; at X = 3/2 the built-in's pair (1,3) fails
    spec = fixture_spec.with_X(X)
    report = check_dichotomy(spec, run(spec).diag)
    assert [(p.j, p.k) for p in report.pairs] == [
        (j, k) for j in (1, 2, 3) for k in (1, 2, 3) if j != k
    ]
    for p in report.pairs:
        assert report.pair(p.k, p.j) == dataclasses.replace(p, j=p.k, k=p.j)
    assert report.ok is (X == 10)


def test_dichotomy_signs_match_sampling(fixture_spec, fixture_final):
    # independent check: the difference of any two exponent derivatives
    # never changes sign on [X, infinity)
    diag = fixture_final.diag
    report = check_dichotomy(fixture_spec, diag)
    for p in report.pairs:
        F = SymMatrix([[fixture_spec.rho_fn * (diag[p.j - 1] - diag[p.k - 1])]])
        signs = set()
        for t in range(50):
            v = F.eval_float(10.0 + t * (190.0 / 49.0))[0][0]
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
    terms = [
        growing_terms(exponent_data(k, fixture_final.diag, fixture_spec))
        for k in (1, 2, 3)
    ]
    assert terms == [((Fraction(1), 2),), (), ()]


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


# -- differential: the decimal evaluation against 40-digit mpmath -------

def _mpf(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def _oracle_float(value):
    """A 40-digit mpmath value as a float, or as mpmath.nstr(value, 8)
    when it is beyond the float range."""
    out = float(value)
    return out if math.isfinite(out) else mpmath.nstr(value, 8)


def _oracle_exp(data, x):
    """exp(G_k(x)), each operation rounded to 40 digits by mpmath."""
    with mpmath.workdps(40):
        xm = _mpf(Fraction(x))
        total = mpmath.mpf(0)
        if data.log_coefficient:
            total += _mpf(data.log_coefficient) * mpmath.log(xm)
        for c, e in data.laurent_terms:
            total += _mpf(Fraction(c, e + 1)) * xm ** (e + 1)
        return _oracle_float(mpmath.exp(total))


def _oracle_back_transform(Z, history, spec, x):
    """T(x) * product of (I + P_m), exact, times Z in 40-digit mpmath."""
    n = spec.n
    product = spec.back_transform.eval_exact(x)
    for psplit in history:
        factor = (SymMatrix.identity(n) + psplit.combined).eval_exact(x)
        product = [
            [sum(product[i][t] * factor[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
    out = []
    with mpmath.workdps(40):
        for row in product:
            acc = mpmath.mpf(0)
            for p, z in zip(row, Z):
                if z:
                    acc += _mpf(p) * mpmath.mpf(z)
            out.append(acc)
    return [_oracle_float(v) for v in out]


def _or_overflow_text(fn, *args):
    """fn(*args), or the value named by the SolutionOverflow it raises."""
    try:
        return fn(*args)
    except SolutionOverflow as exc:
        return re.fullmatch(r".* = (\S+) is outside the float range", str(exc))[1]


def _check_against_oracle(spec, fs, points):
    n = spec.n
    for k in range(1, n + 1):
        data = exponent_data(k, fs.diag, spec)
        for x in (spec.X, *points):
            assert _or_overflow_text(data.exp_at, x, "Z") == _oracle_exp(data, x)
    # solution vectors, and vectors large enough to overflow on the way back
    rng = random.Random(n)
    vectors = [
        tuple(rng.choice((0.0, rng.uniform(-1, 1) * 10 ** rng.randint(-300, 308)))
              for _ in range(n))
        for _ in range(8)
    ]
    vectors += [(1.7e308,) * n, tuple((-1) ** i * 1.7e308 for i in range(n))]
    for k in range(1, n + 1):
        try:
            vectors.append(asymptotic_value(k, fs.diag, spec, spec.X)[0])
        except SolutionOverflow:
            pass
    if spec.back_transform is None:
        spec = dataclasses.replace(spec, back_transform=SymMatrix.identity(n))
    for x in (spec.X, *points):
        for Z in vectors:
            got = _or_overflow_text(back_transform, Z, fs.history, spec, x)
            want = _oracle_back_transform(Z, fs.history, spec, Fraction(x))
            if isinstance(got, str):  # the first component past the float range
                assert got == next(v for v in want if isinstance(v, str))
            else:
                assert list(got) == want


@pytest.mark.parametrize("X", [Fraction(10), Fraction(20), Fraction(11),
                               Fraction(27, 2), Fraction(100), Fraction(1000)])
def test_solution_values_match_mpmath_builtin(X, fixture_spec, fixture_final):
    spec = validate(fixture_spec.with_X(X))
    _check_against_oracle(spec, fixture_final, (X + Fraction(1, 3), 2 * X, Fraction(25, 2)))


def test_solution_values_match_mpmath_random_problems():
    rng = random.Random(2024)
    problems = [random_problem(rng) for _ in range(200)]
    for spec in problems[::10]:
        _check_against_oracle(spec, run(spec), (spec.X + 1, Fraction(7, 3) * spec.X))
