"""Numeric continuation of the original system Y' = A(x) Y.

The coefficient matrix stays symbolic up to this boundary: its entries are
rounded to floats once per matrix (``SymMatrix.float_table``).  Continuation
targets are regular points, and a ``LinearSystem`` screens its domain for
poles by exact root isolation (``RationalFn.has_pole_in``) when it is built.

The integrator is the Dormand-Prince 5(4) pair (Dormand & Prince 1980,
J. Comput. Appl. Math. 6) with Shampine's quartic dense output (Math.
Comp. 46, 1986), specialised to Y' = A(x) Y.  The stage arithmetic is
compiled once per matrix, on the first integration over it, from its
float table, and kept with the matrix, so every later system over the same
A, whatever its domain, compiles nothing: one straight-line function per
kind of evaluation (the derivative at the start, the initial-step probe
and the six-stage attempt with its error norm), each stage unrolled over
the components and over the entries that vary with x.  Every stage but
the last, whose node is the one before it, writes the entries that vary
straight into the array of the constant ones, by Horner's rule in the
order of operations of ``SymMatrix.eval_float``, and builds no rows.  It
follows scipy's ``RK45`` step for step: the same tableau, initial step selection,
RMS error norm, step-size controller and stage sums, in scipy's order of
float operations, so every trajectory equals ``solve_ivp(method="RK45")``
bit for bit, without importing scipy.  numpy forms only the sums scipy
forms with ``np.dot``; the element-wise arithmetic is Python float
arithmetic, which rounds each operation as numpy does.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import ComputationFailed, SolutionOverflow
from .symexpr import SymMatrix, _entry_lines

METHOD_INFO = {"method": "RK45", "order": 5}
# the smallest rtol the step-size controller can resolve, as scipy's RK45 has it
MIN_RTOL = 100 * sys.float_info.epsilon

DENSE_POINTS = 201
# The most accepted steps one integration may take.  The built-in problem
# stiffens as x goes negative (its x**2 entry): from X = 10, a continuation
# to -100 takes about 120,000 steps and one to -200 about 940,000.  Toward
# -1000 a step costs about 14 us, rejected attempts included (one pinned
# CPU of a shared 2-vCPU Xeon), so a target out of reach is refused after
# about 7.3 s instead of running without end.
_MAX_STEPS = 500_000


class PoleInInterval(ComputationFailed, ValueError):
    """A coefficient entry has a pole inside the integration interval."""


class StepSizeUnderflow(ComputationFailed, RuntimeError):
    """The adaptive integrator failed to meet the tolerance."""


class StepBudgetExceeded(ComputationFailed, RuntimeError):
    """The integration needs more than ``_MAX_STEPS`` accepted steps."""


@dataclass(frozen=True)
class LinearSystem:
    """Y' = A(x) Y on the closed interval ``domain``, free of poles there."""

    A: SymMatrix
    domain: tuple[Fraction, Fraction]

    def __post_init__(self):
        if self.A.rows != self.A.cols:
            raise ValueError(f"A must be square, got {self.A.rows}x{self.A.cols}")
        lo, hi = self.domain
        for i, row in enumerate(self.A.entries):
            for j, entry in enumerate(row):
                if entry.has_pole_in(lo, hi):
                    raise PoleInInterval(
                        f"entry ({i + 1},{j + 1}) has a pole in [{lo}, {hi}]"
                    )


def linear_system(A: SymMatrix, lo, hi) -> LinearSystem:
    lo, hi = sorted((Fraction(lo), Fraction(hi)))
    return LinearSystem(A=A, domain=(lo, hi))


def integrate(
    system: LinearSystem,
    y0,
    x_from,
    x_to,
    rtol: float,
    atol: float,
    dense_path=None,
    max_step=None,
) -> tuple[float, ...]:
    """Value of the solution at x_to; supports decreasing x.

    With dense_path set, writes an evenly spaced (x, components) CSV
    sampled from the integrator's dense output.  An rtol below
    ``MIN_RTOL`` (100 machine epsilons, the least the step-size controller
    resolves) or NaN raises ``ValueError``, as a bad y0 or max_step does,
    and so does an atol that is not positive: with atol > 0 every error
    scale is positive, inf or NaN, so the scaled errors divide as Python
    floats with no zero divisor.  Float overflow inside the integrator
    emits no warning: it ends in ``StepSizeUnderflow``, or in
    ``SolutionOverflow`` once the solution reaches the end of the float
    range.  A target that needs more than ``_MAX_STEPS`` steps raises
    ``StepBudgetExceeded``.
    """
    # imported here so that commands which never integrate skip its load time
    import numpy as np

    lo = Fraction(min(x_from, x_to))
    hi = Fraction(max(x_from, x_to))
    if lo < system.domain[0] or hi > system.domain[1]:
        raise ValueError(
            f"[{lo}, {hi}] leaves the system domain [{system.domain[0]}, {system.domain[1]}]"
        )
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (system.A.cols,) or not np.isfinite(y0).all():
        raise ValueError(f"the initial value must be a finite vector of length {system.A.cols}")
    max_step = math.inf if max_step is None else max_step
    if not max_step > 0:
        raise ValueError("max_step must be positive")
    if not atol > 0:
        raise ValueError("atol must be positive")
    if not rtol >= MIN_RTOL:
        raise ValueError(f"rtol must be at least {MIN_RTOL!r}, got {rtol!r}")
    t0, t_end = float(x_from), float(x_to)
    if t0 == t_end:
        if dense_path is not None:
            write_dense(dense_path, [t0], [tuple(y0)])
        return tuple(float(v) for v in y0)

    A = system.A
    make = A._stages
    if make is None:  # the first integration over A; copies compile their own
        make = _compile_stages(A)
        object.__setattr__(A, "_stages", make)
    with np.errstate(all="ignore"):
        y, steps = _dormand_prince(
            A, make, t0, t_end, y0.tolist(), float(rtol), float(atol),
            max_step, dense_path is not None,
        )
    if dense_path is not None:
        xs = np.linspace(t0, t_end, DENSE_POINTS)
        write_dense(dense_path, xs, _dense_values(steps, xs, t_end > t0))
    return tuple(y)


# The Dormand-Prince 5(4) tableau as scipy's RK45 holds it: nodes C, stage
# weights A (row s feeds stage s), fifth-order weights B, error weights E
# (fifth- minus fourth-order weights, the last one on the FSAL stage) and
# the dense-output coefficients P of Shampine's quartic (optimal c_6).
_C = (0, 1/5, 3/10, 4/5, 8/9, 1)
_A = (
    (),
    (1/5,),
    (3/40, 9/40),
    (44/45, -56/15, 32/9),
    (19372/6561, -25360/2187, 64448/6561, -212/729),
    (9017/3168, -355/33, 46732/5247, 49/176, -5103/18656),
)
_B = (35/384, 0, 500/1113, 125/192, -2187/6784, 11/84)
_E = (-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40)
_P = (
    (1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432),
    (0, 0, 0, 0),
    (0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799),
    (0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072),
    (0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632),
    (0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844),
    (0, 40617522/29380423, -110615467/29380423, 69997945/29380423),
)
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
_ERROR_EXPONENT = -1 / 5  # the embedded error estimate is of order 4
_FLOAT_MAX = sys.float_info.max


def _compile_stages(A):
    """The factory ``make(ev, rtol, atol)`` of one integration's buffers
    and stage functions ``(K, y_new, start, probe, attempt)``, compiled
    from A's float table.  ``integrate`` keeps it in A's ``_stages`` slot,
    so it is compiled once per matrix; each integration passes ``ev``:
    None over a SymMatrix, A's ``eval_float`` over any other A
    (``_dormand_prince``).

    K holds the seven stage derivatives and y_new (a memoryview) the
    fifth-order solution; y is a list of floats.  ``start(t, 0.0, y)``
    sets K[0] = A(t) y, ``probe(t, h, y)`` the initial step's K[1], and
    ``attempt(t, h, y, ay)`` runs the six stages of one step and returns
    its RMS error norm and |y_new|, ay being |y|.  ``stage`` writes every
    stage: numpy's sum ``dot(weights, z)`` as scipy forms it (none for
    K[0], whose sums are 0.0), ``z[i] = z[i] * h + y_i`` per component
    through z's memoryview, ``fill(x)`` at x = t + c * h with the node c
    as its repr (none in stage 6, whose node is stage 5's), ``ev(x)``
    where ev is not None, its value unused, and the product A z, each
    ndarray.dot given its output array by position (a keyword costs numpy
    a parse per call).  ``fill`` writes each entry of A(x) that varies
    straight into A's array, by Horner statements in the order of
    operations of ``SymMatrix.eval_float`` (``symexpr._entry_lines``).
    The attempt ends with the error sum ``K.T E``, the scaled errors of
    ``_error_lines`` and the norm's own formula, the square root of
    ``err.dot(err)``, over sqrt(n).  The stage functions hold their buffers as closure cells,
    and ``make`` leaves the namespace it is compiled in, so an
    integration leaves no reference cycle.
    """
    import numpy as np

    rows, varying = A.float_table()
    n = len(rows)
    ys, ays = ("".join(f"{name}{i}, " for i in range(n)) for name in "ya")
    fill = []
    for i, j, num, den in varying:
        fill += _entry_lines("e", num, den)
        fill.append(f"    flat[{i * n + j}] = e")

    def stage(s, weights, c, out, view, k):
        # k = A(t + c*h) z for z = out = K[:s].T.dot(weights)*h + y, the
        # sums 0.0 where s = 0; stage 6 runs at stage 5's node, so M holds
        # A(t + h) already
        lines, sums = [], ["0.0"] * n
        if s:
            lines.append(f"dot{s}({weights}, {out})")
            sums = [f"{view}[{i}]" for i in range(n)]
        lines += [f"{view}[{i}] = {v} * h + y{i}" for i, v in enumerate(sums)]
        if s < 6:
            lines += [f"x = t + {c!r} * h", "fill(x)"]
        lines += ["if ev is not None:", "    ev(x)", f"prod({out}, {k})"]
        return lines

    attempt = [f"{ays}= ay"]
    for s in range(1, 6):
        attempt += stage(s, f"W{s}", _C[s], "z", "zv", f"k{s}")
    attempt += stage(6, "B", 1, "y_new", "yv", "k6")
    attempt.append("KT.dot(E, err)")
    for i in range(n):
        attempt += _error_lines(i)
    bs = ", ".join(f"b{i}" for i in range(n))
    attempt.append(f"return sqrt(err.dot(err)) / {n ** 0.5!r}, [{bs}]")
    functions = {
        "start(t, h, y)": stage(0, None, 0, "z", "zv", "k0"),
        "probe(t, h, y)": stage(1, "P1", 1, "z", "zv", "k1"),
        "attempt(t, h, y, ay)": attempt,
    }
    lines = [
        "def make(ev, rtol, atol):",
        "    M = array(rows)",
        "    flat = memoryview(M.reshape(-1))",
        "    prod = M.dot",
        f"    K = empty((7, {n}))",
        "    KT = K.T",
        f"    {', '.join(f'k{s}' for s in range(7))} = K",
    ]
    lines += [f"    dot{s} = K[:{s}].T.dot" for s in range(1, 7)]
    lines += [
        f"    z, y_new, err = empty({n}), empty({n}), empty({n})",
        "    zv, yv, errv = memoryview(z), memoryview(y_new), memoryview(err)",
        "    def fill(x):",
    ]
    lines += [f"    {line}" for line in fill or ["    pass"]]
    for signature, body in functions.items():
        lines += [f"    def {signature}:", f"        {ys}= y"]
        lines += [f"        {line}" for line in body]
    lines.append("    return K, yv, start, probe, attempt")
    namespace = {"array": np.array, "empty": np.empty, "rows": rows, "sqrt": math.sqrt,
                 "B": np.array(_B), "E": np.array(_E), "P1": np.array((1.0,))}
    namespace.update((f"W{s}", np.array(_A[s])) for s in range(1, 6))
    exec("\n".join(lines), namespace)
    return namespace.pop("make")


def _error_lines(i: int) -> list[str]:
    """The attempt's lines for component i after the error sum: b_i =
    |y_new_i|, the scale ``max(a_i, b_i) * rtol + atol`` with a_i = |y_i|
    (a NaN in either wins, as in np.maximum) and err_i*h/scale in place;
    the scale is never zero, as atol > 0."""
    return [
        f"b{i} = abs(yv[{i}])",
        f"s = (a{i} if a{i} >= b{i} or a{i} != a{i} else b{i}) * rtol + atol",
        f"r = errv[{i}] * h",
        f"errv[{i}] = r / s",
    ]


def _initial_step(probe, K, t0, y0, t_end, direction, rtol, atol, max_step):
    """First step size by Hairer, Norsett & Wanner, Sec. II.4, from the
    derivative K[0] at (t0, y0); its one more evaluation, ``probe``,
    overwrites K[1]."""
    import numpy as np

    interval_length = abs(t_end - t0)
    scale = [atol + abs(v) * rtol for v in y0]

    def norm(values):
        # a numpy float: dividing it by a zero h0 gives inf or nan, as in
        # scipy, where a Python float raises ZeroDivisionError; every scale
        # is positive, as atol > 0; the norm by numpy's formula, the square
        # root of q.dot(q)
        q = np.array([v / s for v, s in zip(values, scale)])
        return np.float64(math.sqrt(q.dot(q)) / q.size ** 0.5)

    f0 = K[0].tolist()
    d0 = norm(y0)
    d1 = norm(f0)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    probe(t0, h0 * direction, y0)
    d2 = norm([f1 - f for f, f1 in zip(f0, K[1].tolist())]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval_length, max_step)


def _dormand_prince(A, make, t0, t_end, y0, rtol, atol, max_step, dense):
    """y(t_end) of Y' = A(x) Y by adaptive Dormand-Prince 5(4) steps from
    the list of floats y0, and with ``dense`` the accepted steps as
    (t_old, t, y_old, Q) for ``_dense_values``.

    ``make`` is A's stage factory from ``_compile_stages``; its functions
    write A(x) into the stage matrix themselves, and over any A that is
    not a SymMatrix also call its ``eval_float`` once per stage, the last
    included, so a proxy sees scipy's count of evaluations.  An attempted
    step is one call of its ``attempt``: six stages, the last one's sum,
    with the weights B, the fifth-order solution, whose derivative starts
    the next step (first same as last), then the error norm.  numpy forms
    only the sums scipy forms with ``np.dot``: the stage, fifth-order and
    error sums, the product A(x) z and the norm's ``err.dot(err)``.  Summed
    in Python floats they differ from scipy's BLAS products in the last
    bit, and the trajectory with them.  The rest is element-wise, one IEEE
    operation per item, which a Python float rounds as numpy does: the
    state y is a list of floats.  A step size that is not a number raises
    ``StepSizeUnderflow``, where scipy's loop never ends; with atol > 0
    (``integrate`` refuses any other) none is known to arise, so this is
    a guard.  The loop takes at most ``_MAX_STEPS`` accepted steps, then
    raises ``StepBudgetExceeded``.
    """
    import numpy as np

    # the stages fill A(x) in themselves; a proxy that counts evaluations
    # is called through its own eval_float as well
    ev = None if type(A) is SymMatrix else A.eval_float
    K, y_new, start, probe, attempt = make(ev, rtol, atol)
    KT = K.T
    K0, K6 = memoryview(K[0]), memoryview(K[6])
    P = np.array(_P)
    direction = 1.0 if t_end > t0 else -1.0
    toward, nextafter = direction * math.inf, math.nextafter
    t, y = t0, y0
    start(t, 0.0, y)
    h_abs = float(_initial_step(probe, K, t, y, t_end, direction, rtol, atol, max_step))
    ay = [abs(v) for v in y]
    steps = []
    budget = steps_left = _MAX_STEPS
    while direction * (t - t_end) < 0:
        if not steps_left:
            raise StepBudgetExceeded(
                f"the continuation to x = {t_end!r} needs more than {budget} RK45 steps"
            )
        steps_left -= 1
        min_step = 10 * abs(nextafter(t, toward) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            # NaN-safe: every comparison with a NaN step size is false
            if not h_abs >= min_step:
                raise StepSizeUnderflow(
                    "Required step size is less than spacing between numbers."
                    if h_abs < min_step else "The step size is not a number."
                )
            t_new = t + h_abs * direction
            if direction * (t_new - t_end) > 0:
                t_new = t_end
            h = t_new - t
            h_abs = abs(h)
            error_norm, ay_new = attempt(t, h, y, ay)
            if error_norm < 1:
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        if error_norm == 0:
            factor = _MAX_FACTOR
        else:
            factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
        if rejected:
            factor = min(1, factor)
        h_abs *= factor
        # Not in scipy: a component at the largest double stands for any
        # value up to where rounding gives inf, and from there only steps
        # too short to move it avoid overflow, so the loop would crawl on
        # for ~1e14 steps; a non-finite state never becomes finite again
        # (nan < _FLOAT_MAX is false, as inf < _FLOAT_MAX is).
        for v in ay_new:
            if not v < _FLOAT_MAX:
                raise SolutionOverflow(f"Y({t_new!r}) is outside the float range")
        if dense:
            steps.append((t, t_new, y, KT.dot(P)))
        t, y, ay = t_new, y_new.tolist(), ay_new
        K0[:] = K6
    return y, steps


def _dense_values(steps, xs, ascending):
    """The dense output at each x: the quartic of the step whose interval
    holds x, chosen as scipy's ``OdeSolution`` chooses at step ends."""
    import numpy as np

    ts = np.array([steps[0][0]] + [step[1] for step in steps])
    ts_sorted, side = (ts, "left") if ascending else (ts[::-1], "right")
    last = len(steps) - 1
    rows = []
    for x in xs:
        segment = min(max(int(np.searchsorted(ts_sorted, x, side=side)) - 1, 0), last)
        t_old, t, y_old, Q = steps[segment if ascending else last - segment]
        h = t - t_old
        p = np.cumprod(np.tile((x - t_old) / h, 4))
        y = h * np.dot(Q, p)
        y += y_old
        rows.append(tuple(y))
    return rows


def write_dense(path, xs, rows) -> None:
    import csv  # loaded only when a dense CSV is written

    n = len(rows[0]) if rows else 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x"] + [f"y{i + 1}" for i in range(n)])
        for x, row in zip(xs, rows):
            writer.writerow([repr(float(x))] + [repr(float(v)) for v in row])
