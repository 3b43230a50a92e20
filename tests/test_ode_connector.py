from __future__ import annotations

import ast
import copy
import csv
import gc
import math
import os
import pickle
import random
import subprocess
import sys
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
from levode.errors import InvalidInput
from levode.fixtures import hypergeometric_companion
from levode.levinson_solver import SolutionOverflow
from levode import ode_connector
from levode.ode_connector import (
    DENSE_POINTS,
    METHOD_INFO,
    LinearSystem,
    StepBudgetExceeded,
)


def const_matrix(rows):
    return SymMatrix([[RationalFn.const(v) for v in row] for row in rows])


def test_method_info_names_the_integrator():
    assert METHOD_INFO["method"] == "RK45"
    assert METHOD_INFO["order"] == 5


def test_equal_endpoints_return_input():
    system = linear_system(const_matrix([[0, 1], [-1, 0]]), Fraction(0), Fraction(5))
    y = integrate(system, (3.0, 4.0), 2.0, 2.0, rtol=1e-10, atol=1e-12)
    assert y == (3.0, 4.0)


def test_initial_value_array_is_left_unchanged():
    # the integrator's state lives in its own buffers, not in the caller's
    system = linear_system(const_matrix([[0, 1], [-1, 0]]), Fraction(0), Fraction(5))
    y0 = np.array([3.0, 4.0])
    integrate(system, y0, 0.0, 2.0, rtol=1e-10, atol=1e-12)
    assert y0.tolist() == [3.0, 4.0]


@pytest.mark.parametrize("x_to", [2.0, 3.0], ids=["equal-endpoints", "interval"])
@pytest.mark.parametrize(
    "y0, options",
    [
        ((math.nan, 4.0), {}),
        ([[3.0, 4.0]], {}),
        ((3.0, 4.0), {"atol": -1.0}),
        ((3.0, 4.0), {"atol": 0.0}),
        ((3.0, 4.0), {"max_step": 0.0}),
        ((3.0, 4.0), {"rtol": 1e-20}),
        ((3.0, 4.0), {"rtol": math.nan}),
        ((3.0, 4.0, 5.0), {}),
    ],
    ids=["nan", "2-d", "atol", "atol-zero", "max_step", "rtol-below-min", "rtol-nan",
         "wrong-length"],
)
def test_invalid_input_rejected_for_every_target(x_to, y0, options):
    # refused before the first right-hand-side evaluation
    A = CountingMatrix(const_matrix([[0, 1], [-1, 0]]))
    system = linear_system(A, Fraction(0), Fraction(5))
    with pytest.raises(ValueError):
        integrate(system, y0, 2.0, x_to, **{"rtol": 1e-10, "atol": 1e-12, **options})
    assert A.calls == 0


def test_non_square_matrix_rejected():
    A = SymMatrix([["0", "1", "x"], ["1", "0", "0"]])
    with pytest.raises(ValueError, match="A must be square, got 2x3"):
        linear_system(A, Fraction(0), Fraction(5))


@pytest.mark.parametrize("lo, hi", [(10**400, 10), (10, -(10**400))], ids=["lo", "hi"])
def test_end_beyond_the_floats_is_invalid_input(lo, hi):
    # the float it would round to does not exist
    with pytest.raises(InvalidInput, match=r"^the end -?1(0+) is beyond the float range$"):
        linear_system(const_matrix([[0]]), lo, hi)


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


def test_step_budget_counts_accepted_steps(monkeypatch):
    # this integration takes 26 accepted steps: a budget of 26 leaves its
    # result as it is without a budget, one of 25 refuses it
    system = linear_system(const_matrix([[0, 1], [-1, 0]]), Fraction(0), Fraction(5))
    args = (system, (1.0, 0.0), 0.0, 5.0)
    options = {"rtol": 1e-6, "atol": 1e-8, "max_step": 0.5}
    free = integrate(*args, **options)
    monkeypatch.setattr(ode_connector, "_MAX_STEPS", 26)
    assert integrate(*args, **options) == free
    monkeypatch.setattr(ode_connector, "_MAX_STEPS", 25)
    with pytest.raises(StepBudgetExceeded, match=r"^the continuation to x = 5\.0 needs more than 25 RK45 steps$"):
        integrate(*args, **options)


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


def test_integrations_leave_no_cyclic_garbage():
    # the stage functions hold their buffers as closure cells: with the
    # collector off, five integrations (one on a fresh system over the same
    # matrix, which reuses its compiled stages) leave nothing for it to find
    A = hypergeometric_companion()
    system = linear_system(A, Fraction(1), Fraction(10))
    args = ((10.0, 1.0, 0.5), 10.0, 5.0)
    integrate(system, *args, rtol=1e-8, atol=1e-10)
    gc.collect()
    gc.disable()
    try:
        for _ in range(4):
            integrate(system, *args, rtol=1e-8, atol=1e-10)
        integrate(linear_system(A, Fraction(1), Fraction(10)), *args, rtol=1e-8, atol=1e-10)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_stages_compile_once_per_matrix(monkeypatch):
    compiled = []

    def counting(A):
        compiled.append(A)
        return compile_stages(A)

    compile_stages = ode_connector._compile_stages
    monkeypatch.setattr(ode_connector, "_compile_stages", counting)
    args = ((10.0, 1.0, 0.5), 10.0, 5.0)
    A = hypergeometric_companion()
    system = linear_system(A, Fraction(1), Fraction(10))
    first = integrate(system, *args, rtol=1e-8, atol=1e-10)
    assert integrate(system, *args, rtol=1e-8, atol=1e-10) == first
    # a system over the same matrix on another domain compiles nothing
    wider = linear_system(A, Fraction(1, 2), Fraction(12))
    assert integrate(wider, *args, rtol=1e-8, atol=1e-10) == first
    assert compiled == [A]
    # a copied or pickled matrix is rebuilt without them, and compiles its own
    routes = (copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m)))
    for route in routes:
        twin = route(A)
        assert twin == A and twin._stages is None
        assert integrate(linear_system(twin, 1, 10), *args, rtol=1e-8, atol=1e-10) == first
        assert compiled[-1] is twin
    assert len(compiled) == 4
    # a system pickles as its matrix does
    twin = pickle.loads(pickle.dumps(system))
    assert twin == system and twin.A._stages is None


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


class StrictMatrix:
    """Lends the RK45 loop only a SymMatrix's ``float_table`` and
    ``eval_float``, recording the point of each evaluation: reading any
    other attribute raises."""

    def __init__(self, inner: SymMatrix):
        self.inner = inner
        self.points = []

    def __getattr__(self, name):
        raise AttributeError(f"the RK45 loop read A.{name}")

    def float_table(self):
        return self.inner.float_table()

    def eval_float(self, x):
        self.points.append(x)
        return self.inner.eval_float(x)


def test_rk45_loop_reads_only_float_table_and_eval_float(fixture_spec):
    # perfbench's CountingMatrix forwards every other attribute and counts
    # RHS evaluations as eval_float calls: the compiled stages and the loop
    # read nothing else from A and evaluate it once per stage, twice to
    # start (at X and for the initial step) and then six times per
    # attempted step
    A = StrictMatrix(derive_original_system(fixture_spec))
    make = ode_connector._compile_stages(A)
    y, _ = ode_connector._dormand_prince(
        A, make, 10.0, 0.0, list(Y3_AT_10), 1e-10, 1e-12, math.inf, False
    )
    assert tuple(y) == Y3_AT_0
    start, points = A.points[:2], A.points[2:]
    assert start[0] == 10.0 > start[1]
    assert len(points) == 6288
    steps = [points[i:i + 6] for i in range(0, len(points), 6)]
    # from t, the nodes t + h/5, t + 3h/10, t + 4h/5, t + 8h/9 and t + h,
    # node 1 twice: for the fifth-order solution and for the last stage
    assert all(s[0] > s[1] > s[2] > s[3] > s[4] == s[5] for s in steps)
    assert steps[-1][5] == 0.0


def test_continuation_trajectory_is_pinned(fixture_spec):
    # rounding the coefficients once must leave every RHS value, hence
    # every step the integrator takes, exactly as it was
    A = CountingMatrix(derive_original_system(fixture_spec))
    system = LinearSystem(A, (Fraction(0), Fraction(10)))
    y = integrate(system, Y3_AT_10, 10, 0, rtol=1e-10, atol=1e-12)
    assert A.calls == 6290
    assert y == Y3_AT_0


def test_a_proxy_over_a_compiled_matrix_counts_every_evaluation(fixture_spec):
    # the stages compiled over the matrix itself, which fill A(x) in
    # without calling eval_float, are made with the proxy's eval_float,
    # which they call once per stage, so the pinned trajectory still
    # counts 6,290 calls
    matrix = derive_original_system(fixture_spec)
    plain = integrate(linear_system(matrix, 0, 10), Y3_AT_10, 10, 0, rtol=1e-10, atol=1e-12)
    assert matrix._stages is not None
    assert plain == Y3_AT_0
    A = CountingMatrix(matrix)
    y = integrate(LinearSystem(A, (Fraction(0), Fraction(10))), Y3_AT_10, 10, 0,
                  rtol=1e-10, atol=1e-12)
    assert A.calls == 6290
    assert y == Y3_AT_0


def test_stages_over_a_matrix_build_no_rows(fixture_spec, monkeypatch):
    # the stages write A(x) into their own array: eval_float is never
    # called on the bare-matrix path
    def refuse(self, x):
        raise AssertionError("the RK45 stages called eval_float")

    monkeypatch.setattr(SymMatrix, "eval_float", refuse)
    A = derive_original_system(fixture_spec)
    y = integrate(linear_system(A, 0, 10), Y3_AT_10, 10, 0, rtol=1e-10, atol=1e-12)
    assert y == Y3_AT_0


# The continuation grid from Y3_AT_10 at X = 10, atol = rtol/100: for each
# (target, rtol), the RHS count and Y(target) as float.hex, recorded before
# the stage loop evaluated A(x) in place
CONTINUATION_GRID = {
    (0, 1e-8): (2618, ("0x1.e0b693608d8aap+0", "-0x1.c356955bc221cp+0", "0x1.0000000accf82p+1")),
    (0, 1e-10): (6290, ("0x1.e0b69353358dcp+0", "-0x1.c3569554433f5p+0", "0x1.000000018a163p+1")),
    (0, 1e-12): (15494, ("0x1.e0b693530d7a2p+0", "-0x1.c35695542f7c1p+0", "0x1.000000016e8a2p+1")),
    ("1/2", 1e-8): (2588, ("0x1.35593ffd6e7f2p+0", "-0x1.f8c4bc5cb374bp-1", "0x1.263ac87d88010p+0")),
    ("1/2", 1e-10): (6212, ("0x1.35593ff845c14p+0", "-0x1.f8c4bc5d335ffp-1", "0x1.263ac87b20664p+0")),
    ("1/2", 1e-12): (15302, ("0x1.35593ff8383abp+0", "-0x1.f8c4bc5d37c79p-1", "0x1.263ac87b19845p+0")),
    (1, 1e-8): (2552, ("0x1.aa97922f4be94p-1", "-0x1.1ebc0fd2ece37p-1", "0x1.36ac5e0291030p-1")),
    (1, 1e-10): (6128, ("0x1.aa97922bfd8e2p-1", "-0x1.1ebc0fd8abadcp-1", "0x1.36ac5e010e76ep-1")),
    (1, 1e-12): (15086, ("0x1.aa97922bf3709p-1", "-0x1.1ebc0fd8bca68p-1", "0x1.36ac5e0108d3ep-1")),
    (2, 1e-8): (2456, ("0x1.eba03a2b3d342p-2", "-0x1.b953b40b79012p-3", "0x1.6c30473b1f79dp-3")),
    (2, 1e-10): (5894, ("0x1.eba03a2af77b8p-2", "-0x1.b953b410565bep-3", "0x1.6c304729a9c62p-3")),
    (2, 1e-12): (14510, ("0x1.eba03a2af6bfbp-2", "-0x1.b953b41063bd9p-3", "0x1.6c30472979b74p-3")),
    (5, 1e-8): (1820, ("0x1.98508253662c1p-3", "-0x1.439fe505f92d5p-5", "0x1.fc61d108cd055p-7")),
    (5, 1e-10): (4322, ("0x1.9850825365784p-3", "-0x1.439fe50690648p-5", "0x1.fc61d0ce1d081p-7")),
    (5, 1e-12): (10598, ("0x1.985082536577ap-3", "-0x1.439fe50691de5p-5", "0x1.fc61d0cd8ad9ap-7")),
}


# each point through a proxy that counts evaluations, and through the bare
# matrix as the CLI and the benchmark integrate it ("matrix-" cases)
@pytest.mark.parametrize("target, rtol, counted", [
    pytest.param(target, rtol, counted, id=f"{'' if counted else 'matrix-'}{target}-{rtol}")
    for target, rtol in CONTINUATION_GRID for counted in (True, False)
])
def test_continuation_grid_is_pinned(fixture_spec, target, rtol, counted):
    calls, want = CONTINUATION_GRID[target, rtol]
    matrix = derive_original_system(fixture_spec)
    A = CountingMatrix(matrix) if counted else matrix
    system = LinearSystem(A, (Fraction(target), Fraction(10)))
    y = integrate(system, Y3_AT_10, 10, Fraction(target), rtol=rtol, atol=rtol / 100)
    if counted:
        assert A.calls == calls
    assert tuple(v.hex() for v in y) == want


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


def _scipy_rk45(A, y0, x_from, x_to, rtol, atol, max_step, states=None):
    """scipy's RK45 run, appending each state it evaluates at to ``states``."""
    scipy_integrate = pytest.importorskip("scipy.integrate")
    rows = _reference_rows(A)

    def rhs(x, y):
        if states is not None:
            states.append(y.tolist())
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
    xs = np.linspace(float(x_from), float(x_to), DENSE_POINTS)
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


# y' = -1e5 y from 1e303 over [0, 1/100]
NAN_INSIDE_A_STEP = ([["-100000"]], 0, Fraction(1, 100), 1e303)


@pytest.mark.parametrize(
    "rows,x_from,x_to,y0",
    [
        ([["100000"]], 0, Fraction(1, 100), 1.0),
        ([["-100000"]], Fraction(1, 100), 0, 1.0),
        ([["0", "1"], ["x^2", "-1"]], 0, 60, 1.0),
        # the first derivative already overflows: a zero initial step
        ([["100000"]], 0, 1, 1.79e308),
        # steps too long for stability overflow the stages, and inf - inf
        # in a stage sum leaves y_new a NaN where y is finite
        NAN_INSIDE_A_STEP,
    ],
    ids=["growth", "growth-backward", "polynomial-growth", "overflowing-start",
         "nan-inside-a-step"],
)
def test_failures_match_scipy(tmp_path, rows, x_from, x_to, y0):
    A = SymMatrix(rows)
    ref = _assert_same_run(A, Fraction(x_from), Fraction(x_to), (y0,) * len(rows),
                           1e-6, 1e-8, None, tmp_path / "fail.csv")
    assert not ref.success


def test_a_step_reaches_a_nan_state_from_a_finite_one():
    # the premise of the nan-inside-a-step case: scipy evaluates its sixth
    # stage, two calls to start and then six per attempted step, at a y_new
    # that holds a NaN, while every state it accepts is finite
    rows, x_from, x_to, y0 = NAN_INSIDE_A_STEP
    states = []
    ref = _scipy_rk45(SymMatrix(rows), (y0,), Fraction(x_from), Fraction(x_to),
                      1e-6, 1e-8, None, states)
    assert any(math.isnan(v) for y_new in states[2 + 5::6] for v in y_new)
    assert np.isfinite(ref.y).all()


@pytest.mark.parametrize("b", [0.0, 1.0, math.inf, math.nan])
@pytest.mark.parametrize("a", [0.0, 1.0, math.inf, math.nan])
def test_error_scale_takes_the_larger_as_numpy_does(a, b):
    # the compiled attempt's lines for one component with |y| = a,
    # |y_new| = b and err = 1: a NaN in either place wins, as in np.maximum
    # (Python's max(1.0, nan) is 1.0), and an infinite scale gives 0
    names = {"abs": abs, "a0": a, "yv": [b], "errv": [1.0], "h": 1.0, "rtol": 1e-6,
             "atol": 1e-8}
    exec("\n".join(ode_connector._error_lines(0)), names)
    want = 1.0 / (1e-8 + np.maximum(np.array([a]), np.array([b])) * 1e-6)
    assert [v.hex() for v in names["errv"]] == [float(v).hex() for v in want]


LARGE_SEED = 58
LARGE_CASES_PER_SIZE = 2


def test_larger_systems_match_scipy_bit_for_bit(tmp_path):
    # the constant entries are written once and the product is one
    # ndarray.dot: beyond 3x3 both must still give scipy's trajectory
    rng = random.Random(LARGE_SEED)
    for n in range(5, 9):
        for case in range(LARGE_CASES_PER_SIZE):
            A = SymMatrix([[_rational_entry(rng) for _ in range(n)] for _ in range(n)])
            assert 0 < len(A.float_table()[1]) < n * n
            a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            b = a + Fraction(rng.randint(1, 4), rng.randint(2, 4))
            x_from, x_to = (a, b) if rng.random() < 0.5 else (b, a)
            y0 = tuple(rng.uniform(-2, 2) for _ in range(n))
            rtol = rng.choice((1e-4, 1e-7, 1e-10))
            _assert_same_run(A, x_from, x_to, y0, rtol, rtol / 100, None,
                             tmp_path / f"n{n}-{case}.csv")
    # and one 10x10 system: the compiled stages unroll 10 components
    A = SymMatrix([[_rational_entry(rng) for _ in range(10)] for _ in range(10)])
    y0 = tuple(rng.uniform(-2, 2) for _ in range(10))
    _assert_same_run(A, Fraction(0), Fraction(1, 2), y0, 1e-7, 1e-9, None,
                     tmp_path / "n10.csv")


@pytest.mark.parametrize(
    "rows,varying",
    [
        ([["-1/2", "1", "0", "0", "0"], ["0", "-1/3", "2", "0", "0"],
          ["0", "0", "0", "1", "0"], ["-1", "0", "0", "0", "1"],
          ["1/5", "0", "-3", "0", "-1"]], 0),
        ([["0", "1", "0"], ["0", "0", "1"], ["-1", "(1)/(x^2 + 1)", "0"]], 1),
        ([["(x - 4)/(4)", "(1)/(x^2 + 1)", "(x)/(8)"],
          ["(x)/(x^2 + 1)", "(-x)/(5)", "(5 - x)/(10)"],
          ["(1 - x)/(x^2 + 2)", "(2)/(x^2 + x + 1)", "(-x^2)/(8)"]], 9),
        ([["(x - 1)/(2)"]], 1),
    ],
    ids=["all-constant", "one-varying", "all-varying", "scalar-varying"],
)
def test_split_extremes_match_scipy_bit_for_bit(tmp_path, rows, varying):
    A = SymMatrix(rows)
    assert len(A.float_table()[1]) == varying
    y0 = tuple(1.0 / (i + 1) for i in range(len(rows)))
    for x_from, x_to in ((0, Fraction(7, 2)), (Fraction(3), Fraction(-1, 2))):
        for rtol in (1e-5, 1e-10):
            _assert_same_run(A, x_from, x_to, y0, rtol, rtol / 100, None,
                             tmp_path / "run.csv")


# Three calls that share a matrix or a process: the companion matrix over
# two domains and a second matrix between them
SHARED_CALLS = {
    "companion-short": ("companion", 10, 5, (10.0, 1.0, 0.5)),
    "rational": ("rational", 1, 6, (1.0, -1.0, 2.0)),
    "companion-long": ("companion", 10, 0, Y3_AT_10),
}
SHARED_MATRICES = {
    "companion": hypergeometric_companion,
    "rational": lambda: SymMatrix([["0", "1", "0"], ["(1)/(x^2 + 1)", "0", "x"],
                                   ["-1", "0", "(-1)/(x)"]]),
}


def _counted_call(name, matrices):
    """The value and the RHS count of one SHARED_CALLS entry."""
    matrix, x_from, x_to, y0 = SHARED_CALLS[name]
    A = CountingMatrix(matrices[matrix])
    system = linear_system(A, min(x_from, x_to), max(x_from, x_to))
    y = integrate(system, y0, x_from, x_to, rtol=1e-10, atol=1e-12)
    return y, A.calls


def test_integrations_share_no_state():
    # each call alone in a fresh interpreter, then all of them alternating
    # twice on the same matrix objects in this one
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import test_ode_connector as t; "
        "print(repr(t._counted_call(sys.argv[2], "
        "{k: f() for k, f in t.SHARED_MATRICES.items()})))"
    )
    alone = {}
    for name in SHARED_CALLS:
        proc = subprocess.run(
            [sys.executable, "-c", script, os.path.dirname(__file__), name],
            capture_output=True, text=True, timeout=120, check=True,
        )
        alone[name] = ast.literal_eval(proc.stdout)
    matrices = {k: f() for k, f in SHARED_MATRICES.items()}
    for _ in range(2):
        for name in SHARED_CALLS:
            assert _counted_call(name, matrices) == alone[name], name
