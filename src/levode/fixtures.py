"""Built-in example problem: a third-order generalised hypergeometric equation.

The scalar equation y''' - x^2 y'' - x y' + y = 0 has y0(x) = x as an exact
solution, two entire solutions given by power series in x^3, and solutions
with known behaviour at infinity, so every stage of the pipeline can be
checked against independent values.  A change of variables turns its
companion system Y' = A(x)Y into the half-line form Z' = x^(-1)(Lambda + R)Z
with one lambda = x^3 scaled diagonal entry and two unit-scale entries.
This module ships that problem as a ready-made ProblemSpec, along with the
companion matrix and the change of variables for cross-checks.
"""

from __future__ import annotations

from fractions import Fraction

from .symexpr import RationalFn, SymMatrix
from .system_model import INVERSE_X, Monomial, ProblemSpec, validate

_C1 = ((-1, 0, 0), (8, 0, -1), (0, 0, 1))
_C2 = ((-1, 0, 2), (4, 0, -1), (0, 0, -1))


def _mono(c, e: int) -> RationalFn:
    return RationalFn.monomial(Fraction(c), e)


def builtin_hypergeometric() -> ProblemSpec:
    """The built-in problem, fully validated."""
    x3 = RationalFn.x_power(3)
    x6 = RationalFn.x_power(6)
    one = RationalFn.const(1)

    # ladder rungs: 3*x^-3 * (C1 - dg C1) and 3*x^-6 * C2
    v11 = SymMatrix(
        [
            [_mono(3 * c, -3) if i != j else RationalFn.const(0) for j, c in enumerate(row)]
            for i, row in enumerate(_C1)
        ]
    )
    v21 = SymMatrix([[_mono(3 * c, -6) for c in row] for row in _C2])

    # remainder written exactly as the factored displays, with X = x^3
    inv_xm1 = one / (x3 - 1)
    inv_xp1 = one / (x3 + 1)
    inv_x2m1 = one / (x6 - 1)
    z = RationalFn.const(0)
    e1 = SymMatrix(
        [
            [-3 / x6 * inv_xm1, z, 6 / x6 * inv_x2m1],
            [12 / x6 * inv_xm1, z, -3 / x6 * inv_xm1 - 18 / x3 * inv_x2m1],
            [z, z, 3 / x6 * inv_xp1],
        ]
    )

    spec = ProblemSpec(
        n=3,
        N=1,
        d_large=(Fraction(1),),
        d_small=(Fraction(1), Fraction(-1)),
        rho=Monomial(Fraction(1), -1),
        lam=Monomial(Fraction(1), 3),
        phi1_large=(RationalFn.const(-3) + _mono(-3, -3),),
        phi1_small=(RationalFn.const(0), _mono(3, -3)),
        ladder=((1, v11), (2, v21)),
        E1=e1,
        a=Fraction(3),
        K=0,
        L=1,
        M=3,
        mode=INVERSE_X,
        X=Fraction(10),
        back_transform=back_transform_matrix(),
    )
    return validate(spec)


def back_transform_matrix() -> SymMatrix:
    """The assembled change of variables T(x) with Y = T Z."""
    x = RationalFn.x_power(1)
    one = RationalFn.const(1)
    z = RationalFn.const(0)
    return SymMatrix(
        [
            [one + 3 / x**3, one, one],
            [x**2 + 3 / x**4, one / x, -one / x],
            [x**4 - x, z, 2 / x**2],
        ]
    )


def hypergeometric_companion() -> SymMatrix:
    """Companion matrix of y''' - x^2 y'' - x y' + y = 0 for Y = (y, y', y'')."""
    x = RationalFn.x_power(1)
    one = RationalFn.const(1)
    z = RationalFn.const(0)
    return SymMatrix(
        [
            [z, one, z],
            [z, z, one],
            [-one, x, x * x],
        ]
    )


BUILTINS = {"hypergeom": builtin_hypergeometric}

# the groups of the check suite over the built-in problem (``levode verify
# --only``), kept here so that the command line can offer them without
# loading the suite
CHECK_GROUPS = ("symbolic", "asymptotic", "error", "continuation")
