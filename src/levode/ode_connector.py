"""Numeric continuation of the original system Y' = A(x) Y.

The coefficient matrix stays symbolic up to this boundary: its entries are
rounded to floats once per matrix (``SymMatrix.float_table``).  Each
``integrate`` call fills one float array with the constant entries once;
every right-hand-side evaluation calls ``SymMatrix.eval_float`` once, which
runs Horner only on the entries that vary with x, writes just those into
the array and forms the product with ``ndarray.dot``.  Continuation targets
are regular points, and a ``LinearSystem`` screens its domain for poles by
an exact root count when it is built, before any numerics start.

The integrator is the Dormand-Prince 5(4) pair (Dormand & Prince 1980,
J. Comput. Appl. Math. 6) with Shampine's quartic dense output (Math.
Comp. 46, 1986).  It follows scipy's ``RK45`` step for step: the same
tableau, initial step selection, RMS error norm, step-size controller and
stage sums, so every trajectory equals ``solve_ivp(method="RK45")`` bit
for bit, without importing scipy.  The stages are computed in place into
one preallocated array, in scipy's order of float operations.
"""

from __future__ import annotations

import csv
import math
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .errors import ComputationFailed, SolutionOverflow
from .symexpr import SymMatrix

METHOD_INFO = {"method": "RK45", "order": 5}
# the smallest rtol the step-size controller can resolve, as scipy's RK45 has it
MIN_RTOL = 100 * sys.float_info.epsilon

_DENSE_POINTS = 201


class PoleInInterval(ComputationFailed, ValueError):
    """A coefficient entry has a pole inside the integration interval."""


class StepSizeUnderflow(ComputationFailed, RuntimeError):
    """The adaptive integrator failed to meet the tolerance."""


@dataclass(frozen=True)
class LinearSystem:
    """Y' = A(x) Y on the closed interval ``domain``, free of poles there."""

    A: SymMatrix
    domain: tuple[Fraction, Fraction]

    def __post_init__(self):
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
    sampled from the integrator's dense output.  Float overflow inside
    the integrator emits no warning: it ends in ``StepSizeUnderflow``, or
    in ``SolutionOverflow`` once the solution reaches the end of the float
    range.
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
    if y0.ndim != 1 or not np.isfinite(y0).all():
        raise ValueError("the initial value must be a finite vector")
    max_step = math.inf if max_step is None else max_step
    if not max_step > 0:
        raise ValueError("max_step must be positive")
    if not atol >= 0:
        raise ValueError("atol must be nonnegative")
    if rtol < MIN_RTOL:
        warnings.warn(f"rtol {rtol!r} is below 100 machine epsilons; using {MIN_RTOL!r}")
        rtol = MIN_RTOL
    t0, t_end = float(x_from), float(x_to)
    if t0 == t_end:
        if dense_path is not None:
            _write_dense(dense_path, [t0], [tuple(y0)])
        return tuple(float(v) for v in y0)

    A = system.A
    rows, varying = A.float_table()
    M = np.array(rows)
    flat = M.reshape(-1)  # a view: each call writes the varying entries
    places = [(i * A.cols + j, i, j) for i, j, *_ in varying]

    def rhs(x, y, out=None):
        values = A.eval_float(x)
        for k, i, j in places:
            flat[k] = values[i][j]
        return M.dot(y, out=out)

    with np.errstate(all="ignore"):
        y, steps = _dormand_prince(
            rhs, t0, t_end, y0, rtol, atol, max_step, dense_path is not None
        )
    if dense_path is not None:
        xs = np.linspace(t0, t_end, _DENSE_POINTS)
        _write_dense(dense_path, xs, _dense_values(steps, xs, t_end > t0))
    return tuple(float(v) for v in y)


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


def _rms(v) -> float:
    """``np.linalg.norm(v) / sqrt(n)`` by the norm's own formula, the
    square root of ``v.dot(v)``, as a Python float (``math.sqrt`` and
    ``np.sqrt`` both round the root correctly)."""
    return math.sqrt(v.dot(v)) / v.size ** 0.5


def _initial_step(fun, t0, y0, f0, t_end, direction, rtol, atol, max_step):
    """First step size by Hairer, Norsett & Wanner, Sec. II.4."""
    import numpy as np

    # the norms are numpy floats: dividing by one that is zero gives inf or
    # nan, as in scipy, where a Python float raises ZeroDivisionError
    interval_length = abs(t_end - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = np.float64(_rms(y0 / scale))
    d1 = np.float64(_rms(f0 / scale))
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * direction * f0
    f1 = fun(t0 + h0 * direction, y1)
    d2 = np.float64(_rms((f1 - f0) / scale)) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval_length, max_step)


def _dormand_prince(fun, t0, t_end, y0, rtol, atol, max_step, dense):
    """y(t_end) by adaptive Dormand-Prince 5(4) steps, and with ``dense``
    the accepted steps as (t_old, t, y_old, Q) for ``_dense_values``.

    ``fun(t, y, out)`` writes the derivative into ``out``.  The stage,
    fifth-order and error sums are ``ndarray.dot`` calls, the BLAS product
    scipy's ``np.dot`` makes: summed in Python floats they differ from
    scipy's in the last bit, and the trajectory with them.  The stages go
    into one preallocated array and the updates run in place, each in
    scipy's order of float operations: y + dot*h is formed as dot, times
    h, plus y, which IEEE commutativity makes the same result.  The
    per-step scalars (error norm, overflow check) are Python floats.
    """
    import numpy as np

    A = [np.array(row) for row in _A]
    B, E, P = np.array(_B), np.array(_E), np.array(_P)
    direction = 1.0 if t_end > t0 else -1.0
    t, y = t0, y0
    K = np.empty((7, y.size))
    KT = K.T
    stages = [(_C[s], K[:s].T, A[s], K[s]) for s in range(1, 6)]
    KT_B = K[:-1].T
    fun(t, y, K[0])  # K[0] holds the derivative at the start of each step
    h_abs = float(_initial_step(fun, t, y, K[0], t_end, direction, rtol, atol, max_step))
    ay = np.abs(y)
    ay_new = np.empty_like(ay)
    scale = np.empty_like(ay)
    steps = []
    while direction * (t - t_end) < 0:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepSizeUnderflow(
                    "Required step size is less than spacing between numbers."
                )
            t_new = t + h_abs * direction
            if direction * (t_new - t_end) > 0:
                t_new = t_end
            h = t_new - t
            h_abs = abs(h)
            for c, KT_s, a, k in stages:
                d = KT_s.dot(a)
                d *= h
                d += y
                fun(t + c * h, d, k)
            y_new = KT_B.dot(B)
            y_new *= h
            y_new += y
            fun(t + h, y_new, K[6])
            np.abs(y_new, out=ay_new)
            np.maximum(ay, ay_new, out=scale)
            scale *= rtol
            scale += atol
            err = KT.dot(E)
            err *= h
            err /= scale
            error_norm = _rms(err)
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
        for v in ay_new.tolist():
            if not v < _FLOAT_MAX:
                raise SolutionOverflow(f"Y({t_new!r}) is outside the float range")
        if dense:
            steps.append((t, t_new, y, KT.dot(P)))
        t, y = t_new, y_new
        ay, ay_new = ay_new, ay
        K[0] = K[6]
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


def _write_dense(path, xs, rows) -> None:
    n = len(rows[0]) if rows else 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x"] + [f"y{i + 1}" for i in range(n)])
        for x, row in zip(xs, rows):
            writer.writerow([repr(float(x))] + [repr(float(v)) for v in row])
