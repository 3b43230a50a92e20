from __future__ import annotations

import copy
import math
import pickle
import struct
from fractions import Fraction

import pytest

from levode import poly, symexpr
from levode.symexpr import (
    BoundNotCertified,
    ParseError,
    PoleInDomain,
    RationalFn,
    SymMatrix,
    UnboundedAtInfinity,
    sup_bound,
)

F = Fraction
X = RationalFn.x_power


def fn(s: str) -> RationalFn:
    return RationalFn.parse(s)


# -- arithmetic ---------------------------------------------------------

SAMPLE_POINTS = [F(3), F(10), F(-7, 2), F(1, 5), F(100)]


def check_pointwise(expr: RationalFn, reference):
    """Oracle: symbolic result agrees with direct Fraction arithmetic."""
    for x in SAMPLE_POINTS:
        try:
            want = reference(x)
        except ZeroDivisionError:
            continue
        assert expr.eval_exact(x) == want


def test_field_operations_match_fraction_arithmetic():
    a = fn("(x^2 + 1)/(x - 2)")
    b = fn("(3)/(x + 1)")
    check_pointwise(a + b, lambda x: (x**2 + 1) / (x - 2) + 3 / (x + 1))
    check_pointwise(a - b, lambda x: (x**2 + 1) / (x - 2) - 3 / (x + 1))
    check_pointwise(a * b, lambda x: (x**2 + 1) / (x - 2) * 3 / (x + 1))
    check_pointwise(a / b, lambda x: (x**2 + 1) * (x + 1) / ((x - 2) * 3))
    check_pointwise(-a, lambda x: -(x**2 + 1) / (x - 2))
    check_pointwise(a**3, lambda x: ((x**2 + 1) / (x - 2)) ** 3)
    check_pointwise(a ** (-2), lambda x: ((x - 2) / (x**2 + 1)) ** 2)


def test_reduction_cancels_common_factors():
    top = RationalFn([0, 0, 1]) - RationalFn.const(1)  # x^2 - 1
    bot = RationalFn([1, 1])  # x + 1
    assert top / bot == fn("x - 1")


def _to_sympy(f):
    import sympy

    x = sympy.Symbol("x")
    num = sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(f.num))
    den = sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(f.den))
    return num / den


def _monic_form(expr):
    """sympy's cancelled quotient as Fraction tuples over a monic denominator."""
    import sympy

    x = sympy.Symbol("x")
    num, den = sympy.fraction(sympy.cancel(expr))
    num, den = sympy.Poly(num, x), sympy.Poly(den, x)
    lc = den.LC()
    return tuple(
        poly.trim(F(int(q.p), int(q.q)) for q in (c / lc for c in reversed(p.all_coeffs())))
        for p in (num, den)
    )


def _same(f, g):
    assert f == g
    assert hash(f) == hash(g)
    assert (f.int_num, f.int_den) == (g.int_num, g.int_den)
    assert f.to_string() == g.to_string()


def test_kernel_matches_sympy_cancel():
    """Differential oracle: every result is sympy's cancelled quotient, with
    a monic denominator and Fraction coefficients, whatever route made it;
    it is stored as the jointly primitive integer multiple of that quotient
    with a positive leading denominator coefficient, and printed as such."""
    pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    from hypothesis import assume, given, settings, strategies as st

    x = sympy.Symbol("x")
    near_2_70 = st.integers(2**70 - 3, 2**70 + 3)
    coeff = st.one_of(
        st.fractions(min_value=-9, max_value=9, max_denominator=5), near_2_70
    )
    nonzero = coeff.filter(bool)
    denominators = st.one_of(
        st.just([1]),
        st.integers(1, 5).map(lambda k: [0] * k + [1]),  # x^k
        st.builds(lambda k, c: [0] * k + [c], st.integers(0, 5), nonzero),  # c*x^k
        st.integers(1, 3).map(lambda k: [0] * k + [1, 1]),  # x^k (x + 1)
        st.just([-1, 0, 0, 1]),  # x^3 - 1
        st.just([-7, 0, 3]),  # 3x^2 - 7
        st.just([1, 5, 6]),  # 6x^2 + 5x + 1 = (2x + 1)(3x + 1)
        st.just([2**70 - 1, 2**70]),  # 2^70 x + 2^70 - 1
        st.builds(lambda c: [-c, 0, c + 2], near_2_70),  # (c + 2)x^2 - c
    )
    operand = st.one_of(
        st.just(RationalFn.const(0)),
        st.builds(RationalFn, st.lists(coeff, max_size=5), denominators),
    )

    def check(f, expr):
        assert (f.num, f.den) == _monic_form(expr)
        assert all(type(c) is Fraction for c in f.num + f.den)
        n, d = f.int_num, f.int_den
        assert all(type(c) is int for c in n + d)
        assert math.gcd(*n, *d) == 1 and d[-1] > 0
        assert list(n + d) == poly._primitive_ints(f.num + f.den)
        body = symexpr._format_int_poly(n)
        assert f.to_string() == (body if d == (1,) else f"({body})/({symexpr._format_int_poly(d)})")

    @settings(max_examples=150, deadline=None)
    @given(a=operand, b=operand, k=st.integers(-3, 3), scale=nonzero, lift=st.integers(0, 3))
    def run(a, b, k, scale, lift):
        ea, eb = _to_sympy(a), _to_sympy(b)
        check(a + b, ea + eb)
        check(a - b, ea - eb)
        check(a * b, ea * eb)
        check(-a, -ea)
        check(a.differentiate(), sympy.diff(ea, x))
        _same(a + b, b + a)
        _same(a * b, b * a)
        if not b.is_zero:
            check(a / b, ea / eb)
            _same(a * b / b, a)
        if not (a.is_zero and k < 0):
            check(a**k, ea**k)
        stop = F(k, 2)
        terms, tail = a.laurent_split(stop)
        check(tail, ea - sum(sympy.Rational(c.numerator, c.denominator) * x**e for c, e in terms))
        assert all(e > stop for _, e in terms)
        assert tail.is_zero or tail.leading_order() <= stop
        # the public constructor, fed a scaled and lifted form of a result,
        # lands on the same representation as the arithmetic
        r = a * b + a
        lifted = [poly.shift(tuple(scale * c for c in p), lift) for p in (r.num, r.den)]
        _same(RationalFn(*lifted), r)
        _same(RationalFn([int(c) if c.denominator == 1 else c for c in r.num], r.den), r)

    run()


def test_rational_sum_equals_left_fold_of_binary_add():
    """The n-ary sum, with or without subtracted terms, is the value the
    binary operators reach one term at a time, down to the int pair; and
    it is sympy's cancelled sum."""
    pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    from hypothesis import given, settings, strategies as st

    near_2_70 = st.integers(2**70 - 3, 2**70 + 3)
    coeff = st.one_of(st.integers(-9, 9), near_2_70, near_2_70.map(lambda c: -c))
    nonzero = coeff.filter(bool)
    denominators = st.one_of(
        st.integers(0, 5).map(lambda k: [0] * k + [1]),  # x^k
        st.builds(lambda k, c: [0] * k + [c], st.integers(0, 5), nonzero),  # c*x^k
        st.integers(1, 3).map(lambda k: [0] * k + [1, 1]),  # x^k (x + 1)
        st.just([-7, 0, 3]),  # 3x^2 - 7
    )
    operand = st.one_of(
        st.just(RationalFn.const(0)),
        st.builds(RationalFn, st.lists(coeff, max_size=4), denominators),
    )

    @settings(max_examples=150, deadline=None)
    @given(plus=st.lists(operand, max_size=8), minus=st.lists(operand, max_size=3))
    def run(plus, minus):
        fold = RationalFn.const(0)
        for f in plus:
            fold = fold + f
        _same(symexpr.rational_sum(plus), fold)
        for f in minus:
            fold = fold - f
        total = symexpr.rational_sum(plus, minus)
        _same(total, fold)
        expr = sum(map(_to_sympy, plus), sympy.Integer(0))
        expr -= sum(map(_to_sympy, minus), sympy.Integer(0))
        assert (total.num, total.den) == _monic_form(expr)

    run()


def test_derivative_of_x_power_denominator_matches_quotient_rule():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    near_2_70 = st.integers(2**70 - 3, 2**70 + 3)
    coeff = st.one_of(st.integers(-9, 9), near_2_70)

    @settings(max_examples=100, deadline=None)
    @given(
        num=st.lists(coeff, max_size=6),
        c=st.one_of(st.integers(1, 9), near_2_70),
        k=st.integers(0, 6),
    )
    def run(num, c, k):
        f = RationalFn(num, [0] * k + [c])
        n, d = f.int_num, f.int_den
        # the general rule (n'd - nd')/d^2, normalised
        quotient_rule = symexpr._fn(
            poly.sub(poly.mul(poly.derivative(n), d), poly.mul(n, poly.derivative(d))),
            poly.mul(d, d),
        )
        _same(f.differentiate(), quotient_rule)

    run()


def test_integer_and_fraction_coercion():
    a = fn("(1)/(x)")
    assert a + 1 == fn("(x + 1)/(x)")
    assert 2 * a == fn("(2)/(x)")
    assert 1 - a == fn("(x - 1)/(x)")
    assert (F(1, 2) + a) * 2 == fn("(x + 2)/(x)")


def test_derivative_product_and_quotient_rules():
    a = fn("(x^2 + 1)/(x - 2)")
    b = fn("(3*x)/(x + 1)")
    assert (a * b).differentiate() == a.differentiate() * b + a * b.differentiate()
    q = a / b
    num = a.differentiate() * b - a * b.differentiate()
    assert q.differentiate() == num / (b * b)


def test_zero_division_guard():
    with pytest.raises(ZeroDivisionError):
        fn("x") / RationalFn.const(0)
    with pytest.raises(ZeroDivisionError):
        fn("(1)/(x - 2)").eval_exact(F(2))


# -- structure ----------------------------------------------------------

def test_leading_order_and_limit():
    assert fn("(3*x^2 + 1)/(x^5)").leading_order() == -3
    assert fn("(x^4)/(x + 1)").leading_order() == 3
    assert RationalFn.const(0).leading_order() is None
    assert fn("(2*x + 1)/(x)").limit_at_infinity() == 2
    assert fn("(1)/(x^2)").limit_at_infinity() == 0
    with pytest.raises(UnboundedAtInfinity):
        fn("x^2").limit_at_infinity()


def test_leading_coefficient():
    assert fn("(3*x^2 + 1)/(x^5)").leading_coefficient() == 3
    assert fn("(-21*x^3 - 3)/(x^12 - x^6)").leading_coefficient() == -21


@pytest.mark.parametrize(
    "source,stop,expected_terms",
    [
        ("(1)/(x^2 - 1)", F(-7), [(F(1), -2), (F(1), -4), (F(1), -6)]),
        ("(x + 2)/(x)", F(-3), [(F(1), 0), (F(2), -1)]),
        ("(3)/(x^4)", F(-9), [(F(3), -4)]),
    ],
)
def test_laurent_split_terms(source, stop, expected_terms):
    f = fn(source)
    terms, tail = f.laurent_split(stop)
    assert list(terms) == expected_terms
    # exact reconstruction, and the tail is entirely below the cutoff
    rebuilt = tail
    for c, e in terms:
        rebuilt = rebuilt + RationalFn.monomial(c, e)
    assert rebuilt == f
    if not tail.is_zero:
        assert Fraction(tail.leading_order()) <= stop


def test_laurent_split_zero_and_pure_tail():
    zero = RationalFn.const(0)
    assert zero.laurent_split(F(-5)) == ([], zero)
    f = fn("(1)/(x^9)")
    terms, tail = f.laurent_split(F(-6))
    assert terms == []
    assert tail == f


# -- parsing and formatting --------------------------------------------

ROUND_TRIP = [
    "0",
    "1",
    "-4",
    "x",
    "x^3",
    "(-3)/(x^3)",
    "(252*x^3 + 72)/(x^9)",
    "(-24)/(5*x^6)",
    "(x^6 - 3*x^3 - 3)/(x^3)",
    "(-21*x^3 - 3)/(x^12 - x^6)",
    "(2*x - 1)/(3*x + 5)",
]


@pytest.mark.parametrize("source", ROUND_TRIP)
def test_to_string_parse_round_trip(source):
    f = fn(source)
    assert f.to_string() == source
    assert RationalFn.parse(f.to_string()) == f


def test_parse_rejects_garbage():
    for bad in ["", "x +", "(1/(x)", "y + 1", "x^^2", "1//x"]:
        with pytest.raises(ParseError):
            RationalFn.parse(bad)


def test_canonical_string_is_normalized():
    # same function through different arithmetic routes, same string
    a = fn("(1)/(x)") + fn("(2)/(x^2)")
    b = fn("(x + 2)/(x^2)")
    assert a == b
    assert a.to_string() == b.to_string() == "(x + 2)/(x^2)"


# -- sup bounds ---------------------------------------------------------

def sampled_max(f: RationalFn, X0: Fraction, span: int = 60, count: int = 400):
    """Oracle: dense sampling lower bound for sup |f| on [X0, X0 + span]."""
    best = F(0)
    for i in range(count + 1):
        x = X0 + F(i * span, count)
        best = max(best, abs(f.eval_exact(x)))
    return best


@pytest.mark.parametrize(
    "source,X0",
    [
        ("(3)/(x)", F(10)),
        ("(3)/(x^3)", F(10)),
        ("(252*x^3 + 72)/(x^9)", F(10)),
        ("(x)/(x^2 + 1)", F(1, 2)),  # interior maximum at x = 1
        ("(x^2 - 3*x)/(x^3 + 7)", F(1)),
        ("(2*x + 1)/(x + 3)", F(5)),  # sup attained in the limit
        ("(-21*x^3 - 3)/(x^12 - x^6)", F(10)),
    ],
)
def test_sup_bound_dominates_dense_sampling(source, X0):
    f = fn(source)
    bound = sup_bound(f, X0)
    assert bound >= sampled_max(f, X0)
    limit = abs(f.limit_at_infinity())
    assert bound >= limit


def test_sup_bound_exact_for_monotone_decay():
    assert sup_bound(fn("(3)/(x)"), F(10)) == F(3, 10)
    assert sup_bound(fn("(3)/(x^3)"), F(10)) == F(3, 1000)


def test_sup_bound_interior_maximum_is_tight():
    # sup of x/(x^2+1) on [1/2, inf) is exactly 1/2 at x = 1
    bound = sup_bound(fn("(x)/(x^2 + 1)"), F(1, 2))
    assert F(1, 2) <= bound <= F(1, 2) * F(21, 20)


def test_sup_bound_exact_when_monotone_despite_cancellation():
    # the critical point x**3 = 320/3 lies below 10, so |f| decreases on
    # [10, inf) and the sup is exactly |f(10)| = 8280/(5*10**12)
    assert sup_bound(fn("(9*x^3 - 720)/(5*x^12)"), F(10)) == F(207, 125000000000)


def test_sup_bound_interior_critical_point_within_rel_slack():
    # f' vanishes at x = 27/4, where |f| = 16/729
    bound = sup_bound(fn("(-8*x + 27)/(27*x^2)"), F(5))
    assert F(16, 729) <= bound <= F(16, 729) * F(21, 20)


def test_sup_bound_flat_critical_point_is_no_extremum():
    # crit = 2*x^3*(x - 2)^2*(x + 1): f' vanishes at 2 without changing
    # sign, so |f| decreases on [1, inf) from |f(1)| = 1
    f = fn("(-2*x^3 + 3*x^2 - 2)/(x^4)")
    assert len(poly.isolate_roots(f.differentiate().num, F(1), F(8))) == 1
    assert 1 <= sup_bound(f, F(1)) <= F(21, 20)
    assert sup_bound(f, F(3, 2)) <= abs(f.eval_exact(F(3, 2))) * F(21, 20)


def test_sup_bound_raises_when_it_cannot_certify():
    # the maximum sits at the irrational x = sqrt(2), so no finite
    # refinement meets a zero slack; the bound must say so, not return
    with pytest.raises(BoundNotCertified):
        sup_bound(fn("(x)/(x^2 + 2)"), F(1, 2), rel_slack=F(0))


def test_sup_bound_meets_rel_slack_contract():
    """Oracle: sympy's exact real roots of f' give the true sup."""
    pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    from hypothesis import assume, given, settings, strategies as st

    coeffs = st.lists(st.integers(-20, 20), min_size=1, max_size=5)
    x = sympy.Symbol("x")

    @settings(max_examples=80, deadline=None)
    @given(
        num=coeffs,
        den=coeffs,
        X0=st.sampled_from([F(-2), F(0), F(1, 2), F(1), F(3)]),
        rel_slack=st.sampled_from([F(1, 20), F(1, 1000)]),
    )
    def check(num, den, X0, rel_slack):
        assume(any(den))
        f = RationalFn(num, den)
        assume(not f.is_zero and f.leading_order() <= 0)
        assume(not f.has_pole_in(X0))
        bound = sup_bound(f, X0, rel_slack=rel_slack)

        num_s = sympy.Poly(list(reversed(f.num)), x)
        den_s = sympy.Poly(list(reversed(f.den)), x)
        expr = num_s.as_expr() / den_s.as_expr()
        crit = num_s.diff(x) * den_s - num_s * den_s.diff(x)
        points = [sympy.Rational(X0.numerator, X0.denominator)]
        if crit.degree() > 0:
            points += [r for r in sympy.real_roots(crit) if r > points[0]]
        values = [abs(expr.subs(x, r)).evalf(60) for r in points]
        if num_s.degree() == den_s.degree():
            values.append(abs(num_s.LC() / den_s.LC()))
        true_sup = max(sympy.Float(v, 60) for v in values)
        tol = sympy.Float(10, 60) ** -40
        bound_s = sympy.Rational(bound.numerator, bound.denominator)
        assert true_sup * (1 - tol) <= bound_s
        assert bound_s <= (1 + sympy.Rational(rel_slack.numerator, rel_slack.denominator)) * true_sup * (1 + tol)

    check()


@pytest.mark.parametrize(
    "source,lo,hi,expected",
    [
        ("(1)/(x - 5)", F(5), F(10), True),  # pole at the left end
        ("(1)/(x - 5)", F(0), F(5), True),  # pole at the right end
        ("(1)/(x - 5)", F(0), F(10), True),  # pole strictly inside
        ("(1)/(x - 5)", F(6), F(10), False),
        ("(1)/(x - 5)", F(-3), F(4), False),
        ("(1)/(x - 5)", F(6), None, False),  # half-line beyond the pole
        ("(1)/(x - 5)", F(4), None, True),
        ("(1)/(x - 5)", F(5), None, True),
        ("(x)/(x^2 + 1)", F(-10), None, False),  # no real root
        ("x^3 - 2", F(-10), F(10), False),  # polynomial, no pole anywhere
        ("(1)/(x^3 + x)", F(1), None, False),  # Descartes: no positive root
        ("(1)/(x^3 + x)", F(0), F(1), True),  # ... but a pole at 0
        ("(1)/(x^3 - 2*x^2 + x - 3)", F(2), F(3), True),  # mixed signs, root near 2.17
        ("(1)/(x^3 - 2*x^2 + x - 3)", F(3), None, False),
        ("(1)/(x^3 - 2*x^2 + x - 3)", F(0), F(2), False),
    ],
)
def test_has_pole_in(source, lo, hi, expected):
    assert fn(source).has_pole_in(lo, hi) is expected


def test_sup_bound_rejects_poles_and_growth():
    with pytest.raises(PoleInDomain):
        sup_bound(fn("(1)/(x - 20)"), F(10))
    with pytest.raises(UnboundedAtInfinity):
        sup_bound(fn("x^2"), F(10))


def test_sup_bound_constant_and_zero():
    assert sup_bound(RationalFn.const(-7), F(3)) == 7
    assert sup_bound(RationalFn.const(0), F(3)) == 0


# -- matrices -----------------------------------------------------------

def test_matrix_ring_operations():
    a = SymMatrix(((fn("x"), fn("1")), (fn("0"), fn("(1)/(x)"))))
    b = SymMatrix(((fn("1"), fn("0")), (fn("x"), fn("1"))))
    prod = a * b
    assert prod.entry(0, 0) == fn("2*x")
    assert prod.entry(1, 0) == fn("1")
    assert a + b - b == a
    assert (a * RationalFn.const(2)).entry(0, 0) == fn("2*x")


def test_matrix_commutator_matches_products():
    import random

    rng = random.Random(7)
    pool = [
        "0", "1", "-3", "x", "(1)/(x^2)", "(5)/(3*x^4)", "(x^2 + 1)/(x - 2)",
        "(3*x)/(x^2 + x + 1)", "(x - 7)/(x^3)", "(2)/(x^2 - 3)",
    ]
    for _ in range(40):
        n = rng.randint(1, 4)
        P = SymMatrix([[fn(rng.choice(pool)) for _ in range(n)] for _ in range(n)])
        d = [fn(rng.choice(pool)) for _ in range(n)]
        D = SymMatrix.diagonal(d)
        assert P.commutator(d) == D * P - P * D
    with pytest.raises(ValueError):
        SymMatrix.zeros(2).commutator([fn("1")] * 3)


def test_sparse_matrix_products_match_dense_reference():
    import random

    rng = random.Random(12)
    # mostly zeros; the rest over x^k and over other denominators
    pool = ["0"] * 8 + [
        "1", "-3", "x", "(1)/(x^2)", "(5)/(3*x^4)", "(x - 7)/(x^3)",
        "(x^2 + 1)/(x - 2)", "(3*x)/(x^2 + x + 1)", "(2)/(x^2 - 3)",
    ]

    def random_matrix(rows, cols):
        m = [[fn(rng.choice(pool)) for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.5:
            m[rng.randrange(rows)] = [fn("0")] * cols
        if rng.random() < 0.5:
            j = rng.randrange(cols)
            for row in m:
                row[j] = fn("0")
        return SymMatrix(m)

    for _ in range(60):
        n, k, m = (rng.randint(1, 5) for _ in range(3))
        a, b = random_matrix(n, k), random_matrix(k, m)
        dense = [
            [
                sum((a.entry(i, t) * b.entry(t, j) for t in range(k)), RationalFn.const(0))
                for j in range(m)
            ]
            for i in range(n)
        ]
        assert (a * b).to_strings() == SymMatrix(dense).to_strings()
    assert (SymMatrix.zeros(2, 3) * SymMatrix.identity(3)).is_zero


def test_matrix_sum_of_many_matches_binary_operators():
    a = SymMatrix(((fn("x"), fn("(1)/(x)")), (fn("0"), fn("(x)/(x + 1)"))))
    b = SymMatrix(((fn("(2)/(x^3)"), fn("1")), (fn("(1)/(x^2 - 3)"), fn("0"))))
    c = SymMatrix.identity(2)
    assert SymMatrix.sum([a, b, c]) == a + b + c
    assert SymMatrix.sum([a], [b, c]) == a - b - c
    assert SymMatrix.sum([], [a]) == -a
    assert SymMatrix.sum([a, a], [a, a]).is_zero
    with pytest.raises(ValueError):
        SymMatrix.sum([a, SymMatrix.zeros(3)])


def test_matrix_derivative_is_entrywise():
    a = SymMatrix(((fn("x^2"), fn("(1)/(x)")),
                   (fn("0"), fn("(x)/(x + 1)"))))
    d = a.derivative()
    assert d.entry(0, 0) == fn("2*x")
    assert d.entry(0, 1) == fn("(-1)/(x^2)")
    assert d.entry(1, 1) == fn("(1)/(x^2 + 2*x + 1)")


def test_matrix_inverse():
    a = SymMatrix(((fn("x"), fn("1")), (fn("1"), fn("x"))))
    assert a.inverse().entry(0, 0) == fn("(x)/(x^2 - 1)")
    prod = a * a.inverse()
    assert prod == SymMatrix.identity(2)
    singular = SymMatrix(((fn("x"), fn("x")), (fn("x"), fn("x"))))
    with pytest.raises(ZeroDivisionError):
        singular.inverse()


@pytest.mark.parametrize("n", [5, 6])
def test_matrix_inverse_of_random_matrix(n):
    import random

    rng = random.Random(20 + n)
    pool = ["0"] * 3 + [
        "1", "-3", "x", "(1)/(x^2)", "(5)/(3*x^4)", "(x^2 + 1)/(x - 2)",
        "(3*x)/(x^2 + x + 1)", "(x - 7)/(x^3)", "(2)/(x^2 - 3)",
    ]
    rows = [[fn(rng.choice(pool)) for _ in range(n)] for _ in range(n)]
    rows[0][0] = fn("0")  # the first pivot needs a row swap
    m = SymMatrix(rows)
    inv = m.inverse()
    assert m * inv == inv * m == SymMatrix.identity(n)


def test_matrix_diagonal_split():
    a = SymMatrix(((fn("x"), fn("2")), (fn("3"), fn("4"))))
    assert SymMatrix.diagonal([fn("x"), fn("4")]) + a.off_diagonal_part() == a
    assert a.off_diagonal_part().entry(1, 1).is_zero


@pytest.mark.parametrize(
    "route",
    [copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_ledger_matrices_survive_copy_and_pickle(route, fixture_final):
    for entry in fixture_final.ledger.entries:
        m = entry.matrix
        m.eval_float(10.0)  # fills the float table, which is not carried over
        twin = route(m)
        assert twin == m
        assert twin.to_strings() == m.to_strings()
        assert twin._float_table is None
        f = m.entry(1, 0)
        assert route(f) == f
        assert route(f).to_string() == f.to_string()


def _reference_eval_float(f: RationalFn, x: float) -> float:
    """Horner sums over float(Fraction) coefficients, then one division."""

    def horner(p):
        acc = 0.0
        for c in reversed(p):
            acc = acc * x + float(c)
        return acc

    d = horner(f.den)
    return horner(f.num) / d


def _bits(values):
    return [struct.pack("<d", v) for v in values]


def test_matrix_eval_float_is_bit_identical_to_reference():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    coeff = st.fractions(min_value=-1000, max_value=1000, max_denominator=60)
    polynomial = st.lists(coeff, min_size=1, max_size=5)
    entry = st.one_of(
        st.just(RationalFn.const(0)),
        coeff.map(RationalFn.const),
        polynomial.map(RationalFn),
        st.builds(RationalFn.monomial, coeff, st.integers(-9, -1)),
        st.builds(
            lambda num, den: RationalFn(num) / fn(den),
            polynomial,
            st.sampled_from(
                ["x^3 - 1", "x^2 + x + 1", "3*x^2 - 7", "7*x^4 + 2*x + 1/3", "5*x^9"]
            ),
        ),
    )
    matrix = st.integers(1, 3).flatmap(
        lambda cols: st.lists(
            st.lists(entry, min_size=cols, max_size=cols), min_size=1, max_size=3
        )
    ).map(SymMatrix)
    point = st.builds(
        lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
        st.sampled_from([1.0, -1.0]),
        st.floats(1.0, 10.0, exclude_max=True),
        st.integers(-30, 30),
    )

    @settings(max_examples=300, deadline=None)
    @given(M=matrix, xs=st.lists(point, min_size=1, max_size=4))
    def check(M, xs):
        for _ in range(2):  # the first call builds the float tables
            for x in xs:
                try:
                    want = [_reference_eval_float(e, x) for row in M.entries for e in row]
                except ZeroDivisionError:  # a float pole, e.g. x^3 - 1 at 1.0
                    with pytest.raises(ZeroDivisionError):
                        M.eval_float(x)
                    continue
                got = [v for row in M.eval_float(x) for v in row]
                assert _bits(got) == _bits(want)
                single = [e.eval_float(x) for row in M.entries for e in row]
                assert _bits(single) == _bits(want)

    check()


@pytest.mark.parametrize(
    "M",
    [SymMatrix([["2", "-1/3"], ["0", "7"]]), SymMatrix.zeros(2, 3)],
    ids=["all-constant", "all-zero"],
)
def test_constant_matrix_eval_float_returns_fresh_rows(M):
    first = M.eval_float(1.5)
    want = [[float(e.eval_exact(0)) for e in row] for row in M.entries]
    assert first == want
    first[0][0] = 99.0
    first[-1].append(5.0)
    second = M.eval_float(-2.0)
    assert second == want
    assert all(a is not b for a, b in zip(first, second))


def test_matrix_max_leading_order():
    a = SymMatrix(((fn("(1)/(x^3)"), fn("(5)/(x^9)")),
                   (fn("0"), fn("(1)/(x^6)"))))
    assert a.max_leading_order() == -3
    assert SymMatrix.zeros(2).max_leading_order() is None
    assert a.order_at_most(F(-3))
    assert not a.order_at_most(F(-4))


# -- polynomial layer ---------------------------------------------------

def test_poly_gcd_matches_known_factorizations():
    p = poly.mul(poly.make([-1, 1]), poly.make([2, 0, 1]))
    q = poly.mul(poly.make([-1, 1]), poly.make([5, 1]))
    assert poly.gcd(p, q) == (-1, 1)
    assert poly.gcd(poly.x_power(7), poly.x_power(4)) == poly.x_power(4)
    # on int tuples the gcd and exact quotients stay in Z[x], never a float
    pi, qi = poly.mul((-2, 2), (2, 0, 1)), poly.mul((3, -3), (5, 1))
    assert poly.gcd(pi, qi) == (-1, 1)
    assert poly.gcd(poly.shift((4, 6), 3), (0, 0, 10, 15)) == (0, 0, 2, 3)
    assert poly.divmod_exact(pi, (-1, 1)) == ((4, 0, 2), ())
    assert all(type(c) is int for c in poly.divmod_exact(pi, (-1, 1))[0])
    assert poly.divmod_exact((1, 0, 1), (0, 2)) == ((0, F(1, 2)), (1,))


def test_poly_gcd_with_a_zero_operand_is_the_other_made_primitive():
    cases = [
        (poly.x_power(7), poly.ZERO, poly.x_power(7)),
        (poly.ZERO, (0, 0, 6, -4), (0, 0, -3, 2)),
        (poly.shift((6, 9), 3), poly.ZERO, (0, 0, 0, 2, 3)),
        (poly.ZERO, poly.make([0, F(1, 2), F(3, 4)]), (0, 2, 3)),
        (poly.ZERO, (-5,), (1,)),
    ]
    for p, q, want in cases:
        got = poly.gcd(p, q)
        assert got == want
        assert all(type(c) is int for c in got)
    assert poly.gcd(poly.ZERO, poly.ZERO) == poly.ZERO


def test_poly_squarefree_decomposition_stays_in_integers():
    # (x-1)^2 (x-3)^3 (2x+1), with content -6 and as Fractions
    p = poly.mul(poly.mul((-1, 1), (-1, 1)), (1, 2))
    for _ in range(3):
        p = poly.mul(p, (-3, 1))
    want = [(1, 2), (-1, 1), (-3, 1)]
    for q in (p, poly.scale(p, -6), poly.make(F(c, 7) for c in p)):
        factors = poly.squarefree_decomposition(q)
        assert factors == want
        assert all(type(c) is int for f in factors for c in f)
    part = poly.odd_multiplicity_part(p)
    assert part == poly.mul((1, 2), (-3, 1))
    assert all(type(c) is int for c in part)


def test_poly_root_counting():
    # roots of (x-1)(x-3)(x-5) above various cutoffs
    p = poly.mul(poly.mul(poly.make([-1, 1]), poly.make([-3, 1])), poly.make([-5, 1]))
    assert poly.count_roots_above(p, F(0)) == 3
    assert poly.count_roots_above(p, F(2)) == 2
    assert poly.count_roots_above(p, F(5)) == 0
    assert poly.count_roots_in(p, F(0), F(4)) == 2
    assert poly.count_roots_in(p, F(1), F(3)) == 1  # half-open: excludes 1, includes 3


def test_poly_odd_multiplicity_part():
    # (x-1)^2 (x-3): sign changes only at x = 3
    p = poly.mul(poly.mul(poly.make([-1, 1]), poly.make([-1, 1])), poly.make([-3, 1]))
    part = poly.odd_multiplicity_part(p)
    assert poly.count_roots_above(part, F(0)) == 1
    assert poly.count_roots_above(part, F(2)) == 1


def test_poly_fujiwara_bound_exceeds_every_root():
    cases = [
        ([F(1), F(3), F(5)], poly.ONE),
        ([F(-7), F(1, 2)], poly.make([1, 0, 1])),  # plus the roots +-i
        ([F(1, 1000)], poly.ONE),
        ([F(2)], poly.make([16, 0, 4, 0, 1])),  # x^4 + 4x^2 + 16 has no real root
        ([F(-1000), F(999), F(1, 7)], poly.make([1, 1, 1])),
    ]
    for roots, cofactor in cases:
        p = cofactor
        for r in roots:
            p = poly.mul(p, poly.make([-r, 1]))
        bound = poly.fujiwara_bound(p)
        assert all(abs(r) <= bound for r in roots)
        assert poly.count_roots_above(p, bound) == 0
        assert poly.count_roots_in(p, -bound - 1, bound) == len(set(roots))
    assert poly.fujiwara_bound(poly.make([5])) == 0


def test_poly_isolate_roots_gives_one_root_per_interval():
    p = poly.ONE
    for r in (F(-3), F(1), F(1), F(1001, 1000), F(2), F(4)):  # 1 is a double root
        p = poly.mul(p, poly.make([-r, 1]))
    for a, b in [(F(-10), F(10)), (F(1), F(4)), (F(0), F(2)), (F(5), F(9))]:
        intervals = poly.isolate_roots(p, a, b)
        assert len(intervals) == poly.count_roots_in(p, a, b)
        for lo, hi in intervals:
            assert a <= lo < hi <= b
            assert poly.count_roots_in(p, lo, hi) == 1
        for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
            assert hi <= lo
    # (1, 4] excludes the root at 1 and includes the one at 4
    assert len(poly.isolate_roots(p, F(1), F(4))) == 3


def test_poly_magnitude_range_brackets_values():
    p = poly.make([-720, 0, 0, 9])
    for u, w in [(F(10), F(1)), (F(-2), F(3)), (F(4), F(1, 8))]:
        low, high = poly.magnitude_range(p, u, w)
        for i in range(11):
            assert low <= abs(poly.eval_at(p, u + w * i / 10)) <= high
    assert poly.magnitude_range(p, F(3), F(0)) == (F(477), F(477))
    ints = (-720, 0, 0, 9)
    for u, w in [(F(10), F(1)), (F(4), F(1, 8)), (F(7, 3), F(0))]:
        got = poly.magnitude_range(ints, u, w)
        assert got == poly.magnitude_range(p, u, w)
        assert all(type(v) is Fraction for v in got)
    assert poly.fujiwara_bound(ints) == poly.fujiwara_bound(p)
