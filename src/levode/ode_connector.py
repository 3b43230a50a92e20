"""Numeric continuation of the original system Y' = A(x) Y.

The coefficient matrix stays symbolic up to this boundary: its entries are
rounded to float Horner tables once per matrix (``SymMatrix.eval_float``),
and every integrator stage evaluates those tables.  Integration
uses an adaptive embedded Runge-Kutta 5(4) pair, which is enough because
continuation targets are regular points and a ``LinearSystem`` screens its
domain for poles by an exact root count when it is built, before any
numerics start.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction

from .levinson_solver import SolutionOverflow
from .symexpr import SymMatrix

METHOD_INFO = {"method": "RK45", "order": 5}

_DENSE_POINTS = 201


class PoleInInterval(ValueError):
    """A coefficient entry has a pole inside the integration interval."""


class StepSizeUnderflow(RuntimeError):
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
    in ``SolutionOverflow`` when the value at x_to is not finite.
    """
    # imported here so that commands which never integrate skip their load time
    import numpy as np
    from scipy.integrate import solve_ivp

    lo = Fraction(min(x_from, x_to))
    hi = Fraction(max(x_from, x_to))
    if lo < system.domain[0] or hi > system.domain[1]:
        raise ValueError(
            f"[{lo}, {hi}] leaves the system domain [{system.domain[0]}, {system.domain[1]}]"
        )
    y0 = np.asarray(y0, dtype=float)
    if x_from == x_to:
        if dense_path is not None:
            _write_dense(dense_path, [float(x_from)], [tuple(y0)])
        return tuple(float(v) for v in y0)

    A = system.A
    # refilled on every call; each product is a fresh array
    M = np.empty((A.rows, A.cols))

    def rhs(x, y):
        M[...] = A.eval_float(x)
        return M @ y

    with np.errstate(all="ignore"):
        sol = solve_ivp(
            rhs,
            (float(x_from), float(x_to)),
            y0,
            method="RK45",
            rtol=rtol,
            atol=atol,
            dense_output=dense_path is not None,
            max_step=np.inf if max_step is None else max_step,
        )
    if not sol.success:
        raise StepSizeUnderflow(sol.message)
    if not np.all(np.isfinite(sol.y[:, -1])):
        raise SolutionOverflow(f"Y({x_to}) is outside the float range")
    if dense_path is not None:
        xs = np.linspace(float(x_from), float(x_to), _DENSE_POINTS)
        _write_dense(dense_path, xs, [tuple(sol.sol(x)) for x in xs])
    return tuple(float(v) for v in sol.y[:, -1])


def _write_dense(path, xs, rows) -> None:
    n = len(rows[0]) if rows else 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x"] + [f"y{i + 1}" for i in range(n)])
        for x, row in zip(xs, rows):
            writer.writerow([repr(float(x))] + [repr(float(v)) for v in row])
