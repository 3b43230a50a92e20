from __future__ import annotations

import csv
import math
import random
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from levode import (
    PoleInInterval,
    RationalFn,
    StepSizeUnderflow,
    SymMatrix,
    derive_original_system,
    integrate,
    linear_system,
)
from levode.fixtures import hypergeometric_companion
from levode.levinson_solver import SolutionOverflow
from levode.ode_connector import _DENSE_POINTS, METHOD_INFO, LinearSystem


def const_matrix(rows):
    return SymMatrix([[RationalFn.const(v) for v in row] for row in rows])


def test_method_info_names_the_integrator():
    assert METHOD_INFO["method"] == "RK45"
    assert METHOD_INFO["order"] == 5


def test_equal_endpoints_return_input():
    system = linear_system(const_matrix([[0, 1], [-1, 0]]), Fraction(0), Fraction(5))
    y = integrate(system, (3.0, 4.0), 2.0, 2.0, rtol=1e-10, atol=1e-12)
    assert y == (3.0, 4.0)


def test_polynomial_solution_is_propagated_exactly():
    # y = x solves the underlying third-order equation, so Y = (x, 1, 0)
    # should ride through the companion system untouched
    system = linear_system(hypergeometric_companion(), Fraction(1), Fraction(10))
    y = integrate(system, (10.0, 1.0, 0.0), 10.0, 5.0, rtol=1e-10, atol=1e-12)
    assert y[0] == pytest.approx(5.0, abs=1e-9)
    assert y[1] == pytest.approx(1.0, abs=1e-9)
    assert y[2] == pytest.approx(0.0, abs=1e-9)


def test_propagation_is_linear():
    system = linear_system(hypergeometric_companion(), Fraction(1), Fraction(10))
    a = integrate(system, (1.0, 0.0, 0.0), 10.0, 5.0, rtol=1e-10, atol=1e-12)
    b = integrate(system, (0.0, 1.0, 0.0), 10.0, 5.0, rtol=1e-10, atol=1e-12)
    both = integrate(system, (2.0, 3.0, 0.0), 10.0, 5.0, rtol=1e-10, atol=1e-12)
    scale = max(abs(v) for v in both)
    for i in range(3):
        assert both[i] == pytest.approx(2 * a[i] + 3 * b[i],
                                        abs=10 * 1e-10 * scale)


def test_fifth_order_convergence():
    # one full circle; with tolerances slack the capped step controls
    # the error, which must shrink like h^5 (ratio 32 for halving)
    system = linear_system(const_matrix([[0, 1], [-1, 0]]), Fraction(0), Fraction(7))
    end = 2 * math.pi
    errors = []
    for h in (0.2, 0.1):
        y = integrate(system, (1.0, 0.0), 0.0, end,
                      rtol=1e6, atol=1e6, max_step=h)
        errors.append(max(abs(y[0] - 1.0), abs(y[1])))
    assert errors[0] / errors[1] >= 16.0


def test_pole_rejected_at_construction():
    A = SymMatrix([[RationalFn.parse("(1)/(x - 5)")]])
    with pytest.raises(PoleInInterval, match="entry"):
        linear_system(A, Fraction(0), Fraction(10))


def test_pole_rejected_by_system_constructor():
    # a LinearSystem screens its own domain, so none can be built that
    # the integrator would have to re-screen
    A = SymMatrix([[RationalFn.parse("(1)/(x - 5)")]])
    with pytest.raises(PoleInInterval, match=r"entry \(1,1\) has a pole in \[0, 10\]"):
        LinearSystem(A, (Fraction(0), Fraction(10)))


def test_interval_outside_domain_rejected():
    system = linear_system(const_matrix([[0]]), Fraction(0), Fraction(5))
    with pytest.raises(ValueError, match="domain"):
        integrate(system, (1.0,), 0.0, 6.0, rtol=1e-8, atol=1e-10)


def test_runaway_growth_reported():
    # y' = 1e5 y over [0, 100] overflows any double long before the end
    system = linear_system(const_matrix([[100000]]), Fraction(0), Fraction(100))
    with pytest.raises(StepSizeUnderflow):
        integrate(system, (1.0,), 0.0, 100.0, rtol=1e-10, atol=1e-12)


def test_runaway_growth_emits_no_float_warning():
    system = linear_system(const_matrix([[100000]]), Fraction(0), Fraction(100))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepSizeUnderflow):
            integrate(system, (1.0,), 0.0, 100.0, rtol=1e-10, atol=1e-12)


def test_non_finite_value_reported_as_overflow():
    # y' = y/50 from 1.7e308 passes the largest double near x = 2.79
    system = linear_system(const_matrix([[Fraction(1, 50)]]), Fraction(0), Fraction(100))
    with pytest.raises(SolutionOverflow, match="outside the float range"):
        integrate(system, (1.7e308,), 0.0, 100.0, rtol=1e-3, atol=1e-6)


@pytest.mark.parametrize("rate,x_from,x_to", [("1/100", 0.0, 1.0), ("-1/100", 1.0, 0.0)])
def test_state_at_float_maximum_ends_promptly(rate, x_from, x_to):
    # the state reaches the largest double after 0.43 of the interval;
    # from there only steps too short to change it avoid overflow, and
    # about 1e14 of them would remain
    system = linear_system(SymMatrix([[rate]]), Fraction(0), Fraction(1))
    start = time.perf_counter()
    with pytest.raises(SolutionOverflow, match="outside the float range"):
        integrate(system, (1.79e308,), x_from, x_to, rtol=1e-3, atol=1e-6)
    assert time.perf_counter() - start < 1.0


def test_dense_output_file(tmp_path):
    system = linear_system(const_matrix([[0, 1], [-1, 0]]), Fraction(0), Fraction(7))
    path = tmp_path / "trace.csv"
    y = integrate(system, (1.0, 0.0), 0.0, 2.0, rtol=1e-10, atol=1e-12,
                  dense_path=str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y1", "y2"]
    assert len(rows) == 202
    assert float(rows[1][0]) == 0.0
    assert float(rows[-1][0]) == 2.0
    assert float(rows[-1][1]) == pytest.approx(y[0], rel=1e-12)
    assert float(rows[-1][2]) == pytest.approx(y[1], rel=1e-12)
    # the trace should actually follow the cosine
    mid = rows[101]
    assert float(mid[1]) == pytest.approx(math.cos(float(mid[0])), abs=1e-8)


def test_dense_output_for_empty_interval(tmp_path):
    system = linear_system(const_matrix([[0]]), Fraction(0), Fraction(5))
    path = tmp_path / "point.csv"
    integrate(system, (2.5,), 1.0, 1.0, rtol=1e-8, atol=1e-10,
              dense_path=str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["x", "y1"], ["1.0", "2.5"]]


class CountingMatrix:
    """Forwards to a SymMatrix and counts right-hand-side evaluations."""

    def __init__(self, inner: SymMatrix):
        self.inner = inner
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def eval_float(self, x):
        self.calls += 1
        return self.inner.eval_float(x)


# Y(10) of the k = 3 solution as `levode solve --builtin hypergeom -k 3`
# reports it, and Y(0) from there as evaluating the exact coefficients
# afresh at every stage gave it
Y3_AT_10 = (0.09996009933218178, -0.009984069933576718, 0.001992013986677493)
Y3_AT_0 = (1.8777858808658072, -1.7630399065703817, 2.0000000007168395)


def test_continuation_trajectory_is_pinned(fixture_spec):
    # rounding the coefficients once must leave every RHS value, hence
    # every step the integrator takes, exactly as it was
    A = CountingMatrix(derive_original_system(fixture_spec))
    system = LinearSystem(A, (Fraction(0), Fraction(10)))
    y = integrate(system, Y3_AT_10, 10, 0, rtol=1e-10, atol=1e-12)
    assert A.calls == 6290
    assert y == Y3_AT_0


# -- bit for bit against scipy's RK45 -------------------------------------
# The owned Dormand-Prince loop promises scipy's trajectory exactly: the
# same value at the end, the same number of right-hand-side evaluations,
# the same dense output, and failure where scipy reports failure.

SCIPY_SEED = 2024
SCIPY_CASES = 24


def _random_entry(rng: random.Random) -> RationalFn:
    degree = rng.choice((0, 0, 1, 2))
    coeffs = [Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(degree + 1)]
    return RationalFn(tuple(coeffs), (Fraction(1),))


def _random_case(rng: random.Random):
    n = rng.randint(1, 4)
    A = SymMatrix([[_random_entry(rng) for _ in range(n)] for _ in range(n)])
    a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    b = a + Fraction(rng.randint(1, 8), rng.randint(1, 3))
    x_from, x_to = (a, b) if rng.random() < 0.5 else (b, a)
    y0 = tuple(rng.uniform(-2, 2) for _ in range(n))
    rtol = rng.choice((1e-3, 1e-5, 1e-8, 1e-10))
    atol = rtol * rng.choice((1e-2, 1.0))
    max_step = rng.choice((None, None, 0.05, 0.3))
    return A, x_from, x_to, y0, rtol, atol, max_step


def _reference_rows(A):
    """A(x) as rows of floats without levode's float tables: each entry is
    a Horner sum over float(Fraction) coefficients, then one division."""
    tables = [[(e.num[::-1], e.den[::-1]) for e in row] for row in A.entries]

    def horner(coeffs, x):
        acc = 0.0
        for c in coeffs:
            acc = acc * x + float(c)
        return acc

    return lambda x: [[horner(num, x) / horner(den, x) for num, den in row]
                      for row in tables]


def _scipy_rk45(A, y0, x_from, x_to, rtol, atol, max_step):
    scipy_integrate = pytest.importorskip("scipy.integrate")
    rows = _reference_rows(A)

    def rhs(x, y):
        return np.array(rows(x)) @ y

    with np.errstate(all="ignore"):
        return scipy_integrate.solve_ivp(
            rhs, (float(x_from), float(x_to)), np.asarray(y0, dtype=float),
            method="RK45", rtol=rtol, atol=atol, dense_output=True,
            max_step=np.inf if max_step is None else max_step,
        )


def _dense_rows(path):
    with open(path, newline="") as fh:
        return [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]


def _assert_same_run(A, x_from, x_to, y0, rtol, atol, max_step, path):
    ref = _scipy_rk45(A, y0, x_from, x_to, rtol, atol, max_step)
    counted = CountingMatrix(A)
    system = linear_system(counted, min(x_from, x_to), max(x_from, x_to))
    if not ref.success:
        with pytest.raises(StepSizeUnderflow, match=ref.message):
            integrate(system, y0, x_from, x_to, rtol=rtol, atol=atol, max_step=max_step)
        assert counted.calls == ref.nfev
        return ref
    y = integrate(system, y0, x_from, x_to, rtol=rtol, atol=atol,
                  dense_path=str(path), max_step=max_step)
    assert y == tuple(float(v) for v in ref.y[:, -1])
    assert counted.calls == ref.nfev
    xs = np.linspace(float(x_from), float(x_to), _DENSE_POINTS)
    expected = [[float(x)] + [float(v) for v in ref.sol(x)] for x in xs]
    assert _dense_rows(path) == expected
    return ref


def test_random_systems_match_scipy_bit_for_bit(tmp_path):
    rng = random.Random(SCIPY_SEED)
    rejecting = 0
    for i in range(SCIPY_CASES):
        A, x_from, x_to, y0, rtol, atol, max_step = _random_case(rng)
        ref = _assert_same_run(A, x_from, x_to, y0, rtol, atol, max_step,
                               tmp_path / f"case{i}.csv")
        # 2 evaluations start the run, then 6 per attempted step
        rejecting += ref.nfev > 2 + 6 * (len(ref.t) - 1)
    # the sample must exercise the controller's rejection branch
    assert rejecting >= 5


RATIONAL_SEED = 1998
RATIONAL_CASES = 16
# x^2 + 1, 3x^2 + 7, x^2 + x + 1 and x^4 + 2: no real root, so the
# entries are pole-free on every interval
POLE_FREE = ((1, 0, 1), (7, 0, 3), (1, 1, 1), (2, 0, 0, 0, 1))


def _rational_entry(rng: random.Random) -> RationalFn:
    kind = rng.choice(("zero", "constant", "polynomial", "rational", "rational"))
    if kind == "zero":
        return RationalFn.const(0)
    coeffs = [Fraction(rng.randint(-12, 12), rng.randint(1, 6))
              for _ in range(1 if kind == "constant" else rng.randint(1, 3))]
    if kind != "rational":
        return RationalFn(tuple(coeffs))
    return RationalFn(tuple(coeffs), rng.choice(POLE_FREE))


def test_rational_systems_match_scipy_bit_for_bit(tmp_path):
    # constant entries are filled once and the rest go through Horner with
    # their denominators: the split must leave scipy's trajectory as it is
    rng = random.Random(RATIONAL_SEED)
    kinds = set()
    for i in range(RATIONAL_CASES):
        n = rng.randint(1, 4)
        A = SymMatrix([[_rational_entry(rng) for _ in range(n)] for _ in range(n)])
        kinds |= {(e.den != (1,), len(e.num)) for row in A.entries for e in row}
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        b = a + Fraction(rng.randint(1, 6), rng.randint(1, 3))
        x_from, x_to = (a, b) if rng.random() < 0.5 else (b, a)
        y0 = tuple(rng.uniform(-2, 2) for _ in range(n))
        rtol = rng.choice((1e-4, 1e-7, 1e-10))
        _assert_same_run(A, x_from, x_to, y0, rtol, rtol / 100, None,
                         tmp_path / f"case{i}.csv")
    # zeros, constants, polynomials and rationals all took part
    assert {(False, 0), (False, 1), (True, 1)} <= kinds
    assert any(rational and size > 1 for rational, size in kinds)
    assert any(not rational and size > 1 for rational, size in kinds)


@pytest.mark.parametrize(
    "rows,x_from,x_to,y0",
    [
        ([["100000"]], 0, Fraction(1, 100), 1.0),
        ([["-100000"]], Fraction(1, 100), 0, 1.0),
        ([["0", "1"], ["x^2", "-1"]], 0, 60, 1.0),
        # the first derivative already overflows: a zero initial step
        ([["100000"]], 0, 1, 1.79e308),
    ],
    ids=["growth", "growth-backward", "polynomial-growth", "overflowing-start"],
)
def test_failures_match_scipy(tmp_path, rows, x_from, x_to, y0):
    A = SymMatrix(rows)
    ref = _assert_same_run(A, Fraction(x_from), Fraction(x_to), (y0,) * len(rows),
                           1e-6, 1e-8, None, tmp_path / "fail.csv")
    assert not ref.success
