"""Acceptance gate: end-to-end checks with pinned references.

Each test is self-contained against frozen constants; together they
cover the symbolic reduction, the asymptotic values, both error
bounds, the dichotomy screen, and continuation to the regular
endpoint.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import replace
from fractions import Fraction

import mpmath
import pytest
from scipy.integrate import quad

from levode import (
    RationalFn,
    SymMatrix,
    back_transform,
    check_dichotomy,
    derive_original_system,
    eta_bound,
    exponent_data,
    integrate,
    linear_system,
    run,
    total_error_bound,
)
from levode.levinson_solver import asymptotic_value
from levode.transform_engine import (
    commutator_terms,
    compute_P,
    elimination_defect,
    initial_state,
    iterate,
)
from levode.error_ledger import ContractionFailure, DivergentIntegral, bound_ledger
from levode.fixtures import builtin_hypergeometric, hypergeometric_companion
from levode.sampling import random_problem
from levode.system_model import INVERSE_X, Monomial, ProblemSpec, validate

RTOL = 1e-10
ATOL = 1e-12


@pytest.fixture(scope="module")
def y_at_zero(fixture_spec, fixture_final):
    spec, fs = fixture_spec, fixture_final
    vec, _ = asymptotic_value(3, fs.diag, spec, spec.X)
    y_at_X = back_transform(vec, fs.history, spec, spec.X)
    A = derive_original_system(spec)
    system = linear_system(A, Fraction(0), spec.X)
    return integrate(system, y_at_X, float(spec.X), 0.0, rtol=RTOL, atol=ATOL)


def test_dominant_terms_exact_strings():
    start = time.perf_counter()
    spec = builtin_hypergeometric()
    fs = run(spec)
    elapsed = time.perf_counter() - start
    assert fs.dominant_terms[0].to_strings() == [
        ["(-3)/(x^3)", "0", "0"],
        ["(24)/(x^3)", "0", "(-3)/(x^3)"],
        ["0", "0", "(3)/(x^3)"],
    ]
    assert fs.dominant_terms[1].to_strings() == [
        ["(-3)/(x^6)", "0", "(6)/(x^6)"],
        ["(252*x^3 + 72)/(x^9)", "0", "(-24)/(5*x^6)"],
        ["0", "0", "(-3)/(x^6)"],
    ]
    assert elapsed < 1.0


def test_lambda_and_exponent_integrand(fixture_spec, fixture_final):
    assert [f.to_string() for f in fixture_spec.lambda1_diagonal()] == [
        "(x^6 - 3*x^3 - 3)/(x^3)",
        "1",
        "(-x^3 + 3)/(x^3)",
    ]
    # the factor multiplying 1/x in the third exponent's integrand
    assert fixture_final.diag[2].to_string() == "(-x^6 + 3*x^3 - 3)/(x^6)"


def test_z33_value(fixture_spec, fixture_final):
    vec, _ = asymptotic_value(3, fixture_final.diag, fixture_spec, Fraction(10))
    assert vec[0] == pytest.approx(0.0, abs=1e-9)
    assert vec[1] == pytest.approx(0.0, abs=1e-9)
    assert vec[2] == pytest.approx(0.0999000999, abs=1e-9)


def test_y_at_X(fixture_spec, fixture_final):
    vec, _ = asymptotic_value(3, fixture_final.diag, fixture_spec, Fraction(10))
    y = back_transform(vec, fixture_final.history, fixture_spec, Fraction(10))
    reference = (0.0999600993, -0.009984070, 0.0019920140)
    for got, want in zip(y, reference):
        assert got == pytest.approx(want, abs=1e-8)


def test_total_error_bound_band(fixture_final):
    bound = total_error_bound(fixture_final.ledger)
    reference = 2.09830422e-8
    assert bound >= 0.0
    assert reference / 5.0 <= bound <= reference * 5.0


def test_continuation_to_zero(y_at_zero):
    with mpmath.workdps(30):
        analytic = float(2 * mpmath.mpf(3) ** Fraction(-1, 3)
                         * mpmath.gamma(Fraction(2, 3)))
    assert analytic == pytest.approx(1.87778588, abs=5e-8)
    assert y_at_zero[0] == pytest.approx(analytic, abs=1e-6)
    regression = (1.87778537, -1.76303921, 1.99999920)
    for got, want in zip(y_at_zero, regression):
        assert got == pytest.approx(want, abs=1e-6)
    enclosure = (
        (1.877772, 1.877799),
        (-1.763049, -1.763030),
        (1.999988, 2.000011),
    )
    for got, (lo, hi) in zip(y_at_zero, enclosure):
        assert lo <= got <= hi


def test_elimination_identity_random_specs():
    rng = random.Random(2024)
    start = time.perf_counter()
    for _ in range(200):
        spec = random_problem(rng)
        state = initial_state(spec)
        for _ in range(spec.M - 1):
            psplit = compute_P(state, spec)
            terms = commutator_terms(state, psplit, spec)
            assert elimination_defect(state, psplit, terms, spec).is_zero
            state = iterate(state, spec)
            for j, mat in state.ladder:
                lo = mat.max_leading_order()
                assert -Fraction(lo) >= (state.m + j - 1) * spec.a
    assert time.perf_counter() - start < 30.0


SWEEP_DIGEST = "d409c53de7e9691c068a89bda564ca437060bbbf3ee1b94a77ab7c1f2c7c88c3"


def test_random_sweep_canonical_forms_are_pinned():
    # per problem: sha256 of the canonical strings of the diagonal, then of
    # the residual, the dominant terms and the ledger matrices row by row;
    # then sha256 of the per-problem digests in stream order
    def digest(strings):
        return hashlib.sha256("\n".join(strings).encode()).hexdigest()

    rng = random.Random(2024)
    digests = []
    for _ in range(200):
        fs = run(random_problem(rng))
        strings = [f.to_string() for f in fs.diag]
        for m in (fs.residual, *fs.dominant_terms, *(e.matrix for e in fs.ledger.entries)):
            strings += [s for row in m.to_strings() for s in row]
        digests.append(digest(strings))
    assert digest(digests) == SWEEP_DIGEST


CERTIFY_DIGEST = "9ce6abaac22b20745d221313fe5237aca32959a7e0e58e06052b48bc5363c2ab"


def test_random_sweep_bounds_and_screens_are_pinned():
    # per problem: the exact ledger norms (or the class and message of the
    # exception bound_ledger raises), eta_bound's float (or the same for
    # its exception) and every dichotomy pair; then sha256 of the
    # per-problem digests in stream order
    def digest(strings):
        return hashlib.sha256("\n".join(strings).encode()).hexdigest()

    def failure(exc):
        return f"{type(exc).__name__}: {exc}"

    rng = random.Random(2024)
    digests = []
    for _ in range(200):
        spec = random_problem(rng)
        fs = run(spec)
        try:
            norms = bound_ledger(fs.ledger)
            strings = [str(v) for v in norms.entries] + ["|"]
            strings += [str(v) for v in norms.p_matrices]
        except (ContractionFailure, DivergentIntegral) as exc:
            strings = [failure(exc)]
        try:
            strings.append(repr(eta_bound(fs.residual, spec)))
        except (ContractionFailure, DivergentIntegral) as exc:
            strings.append(failure(exc))
        strings += [
            f"{p.j} {p.k} {p.sign_constant} {p.integral_divergent}"
            for p in check_dichotomy(spec, fs.diag).pairs
        ]
        digests.append(digest(strings))
    assert digest(digests) == CERTIFY_DIGEST


def test_high_accuracy_index_certifies_within_budget(fixture_spec):
    # the built-in with a zero E1 at M = 22: its bounds isolate the roots
    # of 360 critical polynomials of degree up to 704, and certifying must
    # stay as cheap as the random sweep keeps the reduction
    spec = validate(replace(fixture_spec, E1=SymMatrix.zeros(fixture_spec.n), M=22))
    fs = run(spec)
    start = time.perf_counter()
    bound_ledger(fs.ledger)
    eta_bound(fs.residual, spec)
    check_dichotomy(spec, fs.diag)
    assert time.perf_counter() - start < 2.0


def test_exact_solution_checks(fixture_spec):
    A = derive_original_system(fixture_spec)
    assert A == hypergeometric_companion()
    # y = x gives Y = (x, 1, 0) with Y' = (1, 0, 0): A Y must equal Y'
    v = [RationalFn.x_power(1), RationalFn.const(1), RationalFn.const(0)]
    image = [
        A.entry(i, 0) * v[0] + A.entry(i, 1) * v[1] + A.entry(i, 2) * v[2]
        for i in range(3)
    ]
    assert image[0] == RationalFn.const(1)
    assert image[1].is_zero
    assert image[2].is_zero
    # and numerically: the polynomial solution propagates unperturbed
    system = linear_system(A, Fraction(0), Fraction(10))
    y = integrate(system, (10.0, 1.0, 0.0), 10.0, 0.0, rtol=RTOL, atol=ATOL)
    assert y[0] == pytest.approx(0.0, abs=10 * RTOL)
    assert y[1] == pytest.approx(1.0, abs=10 * RTOL)
    assert y[2] == pytest.approx(0.0, abs=10 * RTOL)


def test_eta_bound_soundness(fixture_spec, fixture_final, fixture_eta):
    residual = fixture_final.residual
    rho = SymMatrix([[fixture_spec.rho_fn]])

    def weighted_norm(t: float) -> float:
        rows = residual.eval_float(t)
        return abs(rho.eval_float(t)[0][0]) * max(abs(v) for row in rows for v in row)

    value, err = quad(weighted_norm, 10.0, float("inf"), limit=200)
    assert fixture_eta >= value - err
    assert 0.0 < fixture_eta < 1e-6


def test_eta_bound_soundness_where_M_a_does_not_exceed_p_rho_plus_1():
    # stream-2024 problems #44, #55 and #109 (0-based) have M*a = p_rho + 1,
    # yet their residuals decay faster than O(x^(-M*a)) and the integral
    # converges
    rng = random.Random(2024)
    specs = [random_problem(rng) for _ in range(110)]
    for index in (44, 55, 109):
        spec = specs[index]
        assert spec.M * spec.a == spec.rho.exponent + 1
        residual = run(spec).residual
        rho = SymMatrix([[spec.rho_fn]])

        def weighted_norm(t):
            rows = residual.eval_float(float(t))
            return abs(rho.eval_float(float(t))[0][0]) * max(
                abs(v) for row in rows for v in row
            )

        value = mpmath.quad(weighted_norm, [float(spec.X), mpmath.inf])
        assert eta_bound(residual, spec) >= value > 0


def test_dichotomy_checks(fixture_spec, fixture_final):
    report = check_dichotomy(fixture_spec, fixture_final.diag)
    assert report.ok
    assert all(p.ok for p in report.pairs)

    # two exponents with identical leading behavior must be flagged
    degenerate = validate(ProblemSpec(
        n=2,
        N=0,
        d_large=(),
        d_small=(Fraction(0), Fraction(1, 2)),
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
        X=Fraction(10),
    ))
    same = (RationalFn.const(1), RationalFn.const(1))
    bad = check_dichotomy(degenerate, same)
    assert not bad.ok
    assert not bad.pair(1, 2).ok
