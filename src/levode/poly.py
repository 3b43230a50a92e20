"""Dense univariate polynomial arithmetic over exact rationals.

A polynomial is an immutable tuple of ``Fraction`` coefficients indexed by
power, with no trailing zeros; the zero polynomial is the empty tuple.  All
operations are exact.  Besides ring arithmetic this module provides the
pieces of real-root machinery the rest of the package relies on: Sturm
chains for counting roots on half-open intervals, Yun's squarefree
decomposition for sign-change analysis, and the Cauchy bound that confines
every real root to a computable interval.
"""

from __future__ import annotations

import math
from fractions import Fraction

Coeffs = tuple[Fraction, ...]

ZERO: Coeffs = ()
ONE: Coeffs = (Fraction(1),)


def make(values) -> Coeffs:
    """Build a polynomial from an iterable of coefficient-like values."""
    return trim(tuple(Fraction(v) for v in values))


def trim(coeffs) -> Coeffs:
    cs = tuple(coeffs)
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return cs[:n]


def is_zero(p: Coeffs) -> bool:
    return not p


def degree(p: Coeffs) -> int:
    """Degree of ``p``; -1 for the zero polynomial."""
    return len(p) - 1


def leading(p: Coeffs) -> Fraction:
    if not p:
        raise ValueError("zero polynomial has no leading coefficient")
    return p[-1]


def constant(c) -> Coeffs:
    c = Fraction(c)
    return (c,) if c else ZERO


def x_power(k: int) -> Coeffs:
    if k < 0:
        raise ValueError("x_power wants a nonnegative exponent")
    return (Fraction(0),) * k + (Fraction(1),)


def add(p: Coeffs, q: Coeffs) -> Coeffs:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return trim(out)


def neg(p: Coeffs) -> Coeffs:
    return tuple(-c for c in p)


def sub(p: Coeffs, q: Coeffs) -> Coeffs:
    return add(p, neg(q))


def mul(p: Coeffs, q: Coeffs) -> Coeffs:
    if not p or not q:
        return ZERO
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return trim(out)


def shift(p: Coeffs, k: int) -> Coeffs:
    """Multiply by x**k."""
    if not p:
        return ZERO
    return (Fraction(0),) * k + p


def divmod_exact(p: Coeffs, q: Coeffs) -> tuple[Coeffs, Coeffs]:
    """Quotient and remainder of polynomial division; ``q`` must be nonzero."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    dq = degree(q)
    lq = leading(q)
    quo = [Fraction(0)] * max(0, len(p) - dq)
    for i in range(len(p) - 1, dq - 1, -1):
        c = rem[i]
        if not c:
            continue
        f = c / lq
        quo[i - dq] = f
        for j, b in enumerate(q):
            rem[i - dq + j] -= f * b
    return trim(quo), trim(rem)


def monic(p: Coeffs) -> Coeffs:
    if not p:
        return ZERO
    lc = leading(p)
    return p if lc == 1 else tuple(c / lc for c in p)


def valuation(p: Coeffs) -> int:
    """Index of the lowest nonzero coefficient (0 for the zero polynomial)."""
    for i, c in enumerate(p):
        if c:
            return i
    return 0


def _primitive_ints(p: Coeffs) -> list[int]:
    """Integer coefficients with content removed and positive leading sign."""
    den = 1
    for c in p:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [c.numerator * (den // c.denominator) for c in p]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    if ints and ints[-1] < 0:
        ints = [-v for v in ints]
    return ints


def _pseudo_rem(f: list[int], g: list[int]) -> list[int]:
    """Integer pseudo-remainder: some power of lc(g) times (f mod g)."""
    dg = len(g) - 1
    lg = g[-1]
    r = list(f)
    while len(r) - 1 >= dg:
        dr = len(r) - 1
        c = r[-1]
        r = [lg * v for v in r]
        for j, b in enumerate(g):
            r[dr - dg + j] -= c * b
        r.pop()
        while r and not r[-1]:
            r.pop()
    return r


def gcd(p: Coeffs, q: Coeffs) -> Coeffs:
    """Monic greatest common divisor via a primitive remainder sequence.

    Working over the integers with content removal after every step avoids
    the coefficient blowup of naive Euclid over the rationals.
    """
    if not p:
        return monic(q)
    if not q:
        return monic(p)
    vp, vq = valuation(p), valuation(q)
    v = min(vp, vq)
    a = _primitive_ints(p[vp:])
    b = _primitive_ints(q[vq:])
    if len(b) > len(a):
        a, b = b, a
    while b:
        r = _pseudo_rem(a, b)
        g = 0
        for c in r:
            g = math.gcd(g, c)
        if g > 1:
            r = [c // g for c in r]
        a, b = b, r
    lc = Fraction(a[-1])
    head = tuple(Fraction(c) / lc for c in a)
    return shift(head, v) if v else head


def derivative(p: Coeffs) -> Coeffs:
    return trim(tuple(p[i] * i for i in range(1, len(p))))


def eval_at(p: Coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def eval_float(p: Coeffs, x: float) -> float:
    acc = 0.0
    for c in reversed(p):
        acc = acc * x + float(c)
    return acc


def abs_sum_at(p: Coeffs, x: Fraction) -> Fraction:
    """Sum of |c_i| * x**i for x >= 0; an upper bound for |p| on [0, x]."""
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + abs(c)
    return acc


def cauchy_root_bound(p: Coeffs) -> Fraction:
    """Every real root of ``p`` has absolute value below this bound."""
    if degree(p) < 1:
        return Fraction(1)
    lc = abs(leading(p))
    worst = max(abs(c) for c in p[:-1])
    return 1 + worst / lc


def squarefree_decomposition(p: Coeffs) -> list[Coeffs]:
    """Yun decomposition: returns [a1, a2, ...] with p ~ prod a_i**i.

    Factors are monic; constant factors are dropped.  Characteristic zero
    only, which is all we have.
    """
    if degree(p) < 1:
        return []
    g = gcd(p, derivative(p))
    if degree(g) == 0:
        return [monic(p)]
    out: list[Coeffs] = []
    w = divmod_exact(p, g)[0]
    y = divmod_exact(derivative(p), g)[0]
    z = sub(y, derivative(w))
    while not is_zero(z):
        h = gcd(w, z)
        out.append(monic(h))
        w = divmod_exact(w, h)[0]
        y = divmod_exact(z, h)[0]
        z = sub(y, derivative(w))
    out.append(monic(w))
    return out


def odd_multiplicity_part(p: Coeffs) -> Coeffs:
    """Product of the factors of odd multiplicity; carries all sign changes."""
    factors = squarefree_decomposition(p)
    out = ONE
    for i, f in enumerate(factors):
        if i % 2 == 0:  # multiplicity i+1 odd
            out = mul(out, f)
    return out


def _sturm_chain(p: Coeffs) -> list[Coeffs]:
    p0 = monic(divmod_exact(p, gcd(p, derivative(p)))[0]) if degree(p) > 0 else p
    chain = [p0, derivative(p0)]
    while degree(chain[-1]) >= 0 and degree(chain[-1]) > -1:
        r = divmod_exact(chain[-2], chain[-1])[1]
        if is_zero(r):
            break
        chain.append(neg(r))
    return chain


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _variations(signs) -> int:
    seq = [s for s in signs if s]
    return sum(1 for a, b in zip(seq, seq[1:]) if a != b)


def _variations_at(chain: list[Coeffs], x: Fraction | None) -> int:
    """Sign variations of the chain at x; ``None`` means +infinity."""
    if x is None:
        return _variations(_sign(leading(q)) if q else 0 for q in chain)
    return _variations(_sign(eval_at(q, x)) for q in chain)


def count_roots_above(p: Coeffs, a: Fraction) -> int:
    """Number of distinct real roots of ``p`` in the open interval (a, inf)."""
    if degree(p) < 1:
        return 0
    chain = _sturm_chain(p)
    return _variations_at(chain, a) - _variations_at(chain, None)


def count_roots_in(p: Coeffs, a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots of ``p`` in the half-open interval (a, b]."""
    if degree(p) < 1:
        return 0
    chain = _sturm_chain(p)
    return _variations_at(chain, a) - _variations_at(chain, b)
