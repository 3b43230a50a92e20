"""Reference values the benchmark checks outputs against.

They are written out here rather than imported from the package, so a
change to the code under test cannot move its own yardstick.  The strings
and numbers are those of the built-in hypergeometric problem (X = 10,
M = 3); the pinned bounds are the values the program printed when this
benchmark was defined, and a bound may tighten but never loosen.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

LAMBDA1 = ["(x^6 - 3*x^3 - 3)/(x^3)", "1", "(-x^3 + 3)/(x^3)"]
S1 = [
    ["(-3)/(x^3)", "0", "0"],
    ["(24)/(x^3)", "0", "(-3)/(x^3)"],
    ["0", "0", "(3)/(x^3)"],
]
S2 = [
    ["(-3)/(x^6)", "0", "(6)/(x^6)"],
    ["(252*x^3 + 72)/(x^9)", "0", "(-24)/(5*x^6)"],
    ["0", "0", "(-3)/(x^6)"],
]

Z33_AT_X = 0.09990009993
Z33_TOL = 1e-9
Y_AT_X = (0.0999600993, -0.009984070, 0.0019920140)
Y_AT_X_TOL = 1e-8
Y0_ENCLOSURE = (
    (1.877772, 1.877799),
    (-1.763049, -1.763030),
    (1.999988, 2.000011),
)
Y0_CLOSED_FORM_TOL = 1e-6

# sha256 over the canonical strings of the 200 acceptance-sweep problems
# (stream seed 2024), combined in stream order; see worker.py
REDUCE_DIGEST = "d409c53de7e9691c068a89bda564ca437060bbbf3ee1b94a77ab7c1f2c7c88c3"

TOTAL_ERROR_BOUND_MAX = 2.3123794485276885e-08
ETA_BOUND_MAX = 3.655551769166571e-07
BOUND_REL_TOL = 1e-12


def y0_closed_form() -> float:
    """First component of the k = 3 solution at x = 0: 2 * 3**(-1/3) * Gamma(2/3)."""
    with mpmath.workdps(30):
        return float(
            2 * mpmath.power(3, Fraction(-1, 3)) * mpmath.gamma(Fraction(2, 3))
        )


def exact_solution(t) -> tuple[float, float, float]:
    """(y, y', y'') of the exact solution y = x of the companion system."""
    return (float(t), 1.0, 0.0)


def exact_solution_tol(rtol: float) -> float:
    return 10 * rtol


def bound_ok(value, pinned: float) -> bool:
    """A finite, positive bound no looser than the pinned value."""
    return (
        isinstance(value, float)
        and 0.0 < value <= pinned * (1 + BOUND_REL_TOL)
    )


def check_transform(lambda1, s1, s2, total) -> list[str]:
    """Mismatches of one transform result against the references."""
    bad = []
    if lambda1 != LAMBDA1:
        bad.append(f"Lambda_1 diagonal {lambda1!r} != {LAMBDA1!r}")
    if s1 != S1:
        bad.append(f"S_1 {s1!r} != {S1!r}")
    if s2 != S2:
        bad.append(f"S_2 {s2!r} != {S2!r}")
    if not bound_ok(total, TOTAL_ERROR_BOUND_MAX):
        bad.append(f"total error bound {total!r} is not in (0, {TOTAL_ERROR_BOUND_MAX!r}]")
    return bad


def check_solve(total, eta, z_at_x, y_at_x, y0, dichotomy_ok) -> list[str]:
    """Mismatches of one `solve -k 3 --target 0` result against the references."""
    bad = []
    if dichotomy_ok is not True:
        bad.append("dichotomy not certified")
    if not bound_ok(total, TOTAL_ERROR_BOUND_MAX):
        bad.append(f"total error bound {total!r} is not in (0, {TOTAL_ERROR_BOUND_MAX!r}]")
    if not bound_ok(eta, ETA_BOUND_MAX):
        bad.append(f"eta bound {eta!r} is not in (0, {ETA_BOUND_MAX!r}]")
    if abs(z_at_x[2] - Z33_AT_X) > Z33_TOL or z_at_x[0] != 0.0 or z_at_x[1] != 0.0:
        bad.append(f"Z(X) = {z_at_x!r}, want (0, 0, {Z33_AT_X!r})")
    if max(abs(a - b) for a, b in zip(y_at_x, Y_AT_X)) > Y_AT_X_TOL:
        bad.append(f"Y(X) = {y_at_x!r}, want {Y_AT_X!r}")
    closed = y0_closed_form()
    if abs(y0[0] - closed) > Y0_CLOSED_FORM_TOL:
        bad.append(f"Y(0)[0] = {y0[0]!r}, closed form {closed!r}")
    if not all(lo <= c <= hi for c, (lo, hi) in zip(y0, Y0_ENCLOSURE)):
        bad.append(f"Y(0) = {y0!r} outside {Y0_ENCLOSURE!r}")
    return bad
