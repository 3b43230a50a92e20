"""Dense univariate polynomial arithmetic over the integers and the rationals.

A polynomial is an immutable tuple of coefficients indexed by power, with
no trailing zeros; the zero polynomial is the empty tuple.  It is an
integer kernel: the ring operations (``add``, ``neg``, ``sub``, ``mul``,
``shift``, ``derivative``) keep a tuple of ints in Z[x], ``divmod_exact``
does too whenever the divisor divides, ``gcd`` returns primitive ints
(exact by Gauss's lemma), and one integer Horner rule evaluates at a
rational point.  ``Fraction``s appear only where values enter or leave:
``make``, points, interval ends and bounds.  Besides ring arithmetic this
module provides the real-root machinery the rest of the package relies
on: one integer Taylor shift, under ``isolate_roots`` (Descartes' rule of
signs with bisection, giving each root a half-open piece of its own; a
root count is the number of pieces, and a sign test reads the sign just
right of each piece), and under magnitude bounds on an interval from the
Taylor coefficients at its left end; and the Fujiwara bound that
confines every root to a disc.
"""

from __future__ import annotations

import math
from fractions import Fraction

Coeffs = tuple[int | Fraction, ...]

ZERO: Coeffs = ()
ONE: Coeffs = (1,)

_MODULUS = 2**61 - 1  # a prime, for the squarefree test


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
    if len(p) == 1 or len(q) == 1:
        # one coefficient a: the loop below would write a*b where b is
        # nonzero and leave the int 0 elsewhere
        a, q = (p[0], q) if len(p) == 1 else (q[0], p)
        return tuple([a * b if b else 0 for b in q])
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return trim(out)


def shift(p: Coeffs, k: int) -> Coeffs:
    """Multiply by x**k."""
    if not p or not k:
        return p
    return (0,) * k + p


def divmod_exact(p: Coeffs, q: Coeffs) -> tuple[Coeffs, Coeffs]:
    """Quotient and remainder of polynomial division; ``q`` must be nonzero.

    Over ints each quotient coefficient is an exact int while the divisor's
    leading coefficient divides it, so a divisor of ``p`` in Z[x] gives an
    integer quotient; otherwise it is a Fraction, never a float.
    """
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    dq = degree(q)
    lq = leading(q)
    quo = [0] * max(0, len(p) - dq)
    for i in range(len(p) - 1, dq - 1, -1):
        c = rem[i]
        if not c:
            continue
        if type(c) is int and type(lq) is int and not c % lq:
            f = c // lq
        else:
            f = Fraction(c, lq)
        quo[i - dq] = f
        for j, b in enumerate(q):
            rem[i - dq + j] -= f * b
    return trim(quo), trim(rem)


def valuation(p: Coeffs) -> int:
    """Index of the lowest nonzero coefficient (0 for the zero polynomial)."""
    for i, c in enumerate(p):
        if c:
            return i
    return 0


def _primitive(ints: list[int]) -> list[int]:
    """Divide out the positive content, keeping every sign."""
    g = math.gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _primitive_ints(p: Coeffs) -> list[int]:
    """Coprime integer coefficients of a positive multiple of ``p``."""
    den = math.lcm(*(c.denominator for c in p))
    return _primitive([c.numerator * (den // c.denominator) for c in p])


def _pseudo_rem(f: list[int], g: list[int]) -> list[int]:
    """Integer pseudo-remainder: a positive multiple of (f mod g)."""
    dg = len(g) - 1
    lg = abs(g[-1])
    sg = 1 if g[-1] > 0 else -1
    r = list(f)
    while len(r) - 1 >= dg:
        dr = len(r) - 1
        c = r[-1] * sg
        r = [lg * v for v in r]
        for j, b in enumerate(g):
            r[dr - dg + j] -= c * b
        r.pop()
        while r and not r[-1]:
            r.pop()
    return r


def gcd(p: Coeffs, q: Coeffs) -> Coeffs:
    """Greatest common divisor as primitive ints with a positive leading
    coefficient, via a primitive remainder sequence; with a zero operand it
    is the other one made so, its power of x kept.

    Working over the integers with content removal after every step avoids
    the coefficient blowup of naive Euclid over the rationals.
    """
    if not p:
        p, q = q, p
    if not p:
        return ZERO
    vp, vq = valuation(p), valuation(q)
    a = _primitive_ints(p[vp:])
    b = _primitive_ints(q[vq:])
    if len(b) > len(a):
        a, b = b, a
    while b:
        a, b = b, _primitive(_pseudo_rem(a, b))
    if a[-1] < 0:
        a = [-c for c in a]
    return shift(tuple(a), min(vp, vq) if q else vp)


def derivative(p: Coeffs) -> Coeffs:
    return trim(tuple(p[i] * i for i in range(1, len(p))))


def _homogeneous_value(p: Coeffs | list[int], num: int, den: int) -> int:
    """den**deg * p(num/den): the integer sum of c_i * num**i * den**(deg - i)."""
    acc = 0
    scale = 1
    for c in reversed(p):
        acc = acc * num + c * scale
        scale *= den
    return acc


def eval_at(p: Coeffs, x: Fraction) -> Fraction:
    """p(x), from the Horner sum over x's numerator and denominator divided once."""
    b = x.denominator
    return Fraction(_homogeneous_value(p, x.numerator, b), b ** max(len(p) - 1, 0))


def float_coeffs(p: Coeffs, lc: int) -> tuple[float, ...]:
    """The coefficients of ``p`` over ``lc`` as floats, highest power first;
    int true division rounds c / lc correctly, as float(Fraction(c, lc))."""
    return tuple(c / lc for c in reversed(p))


def _taylor_shift(ints: list[int], a: int, b: int) -> list[int]:
    """The coefficients in z of R(a + z), where R(y) = b**n * P(y / b) for
    the integer polynomial P of degree n: b**n * P((a + z) / b)."""
    n = len(ints) - 1
    h = [c * b ** (n - i) for i, c in enumerate(ints)]
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            h[j] += a * h[j + 1]
    return h


def magnitude_range(p: Coeffs, u: Fraction, w: Fraction) -> tuple[Fraction, Fraction]:
    """Bounds (low, high) with low <= |p(x)| <= high for every x in [u, u + w].

    Both are |p(u)| -/+ the coefficient motion sum over k >= 1 of
    |p_k| * w**k, where p_k are the Taylor coefficients of p at u, so the
    pair tightens linearly as w shrinks; ``w`` must be nonnegative.  The
    Taylor shift runs on integers: with u = a/b and p = s * P for integer
    P, b**n * p(u + t) = s * R(a + b*t) where R(y) = b**n * P(y/b).
    """
    if not p:
        return Fraction(0), Fraction(0)
    ints = _primitive_ints(p)
    n = len(ints) - 1
    b = u.denominator
    h = _taylor_shift(ints, u.numerator, b)
    step = b * w
    # motion * sd**n = sn * sum over k >= 1 of |h_k| * sn**(k-1) * sd**(n-k)
    sn, sd = step.numerator, step.denominator
    motion = sn * _homogeneous_value([abs(c) for c in h[1:]], sn, sd)
    factor = Fraction(abs(p[-1]), abs(ints[-1]) * b**n * sd**n)
    value = abs(h[0]) * sd**n
    return (value - motion) * factor, (value + motion) * factor


def fujiwara_bound(p: Coeffs) -> Fraction:
    """Every complex root of ``p`` has modulus at most this bound.

    Fujiwara (1916): |z| <= 2 * max over k of |a_(n-k) / a_n|**(1/k), with
    a_0 halved.  Each k-th root is rounded up to a power of two, so the
    bound is rational and at most twice Fujiwara's: with L the least
    integer such that 2**L >= |a_(n-k) / a_n|, taken from the bit lengths
    of the ratio's integer numerator and denominator and one comparison,
    the k-th root is at most 2**ceil(L/k).
    """
    n = degree(p)
    if n < 1:
        return Fraction(0)
    lead = p[n]
    exponents = []
    for k in range(1, n + 1):
        c = p[n - k]
        if not c:
            continue
        num = abs(c.numerator * lead.denominator)
        den = abs(c.denominator * lead.numerator) << (k == n)
        # with b the bit-length difference, 2**(b-1) < num/den < 2**(b+1),
        # so L is b, or b + 1 when 2**b * den < num
        L = num.bit_length() - den.bit_length()
        if den << max(L, 0) < num << max(-L, 0):
            L += 1
        exponents.append(-(-L // k))
    return Fraction(2) ** (max(exponents) + 1) if exponents else Fraction(0)


def _squarefree_part(p: Coeffs) -> list[int]:
    """Primitive ints for p / gcd(p, p'), with x^k split off first and x
    kept once.  The rest is squarefree if coprime to its derivative modulo
    a prime not dividing its leading coefficient (*Modern Computer
    Algebra*, ch. 6); only if that test fails is the exact gcd taken."""
    k = valuation(p)
    ints = _primitive_ints(p[k:])
    dp = derivative(ints)
    f, g = _mod(ints), _mod(dp)
    while g:  # Euclid modulo the prime, on pseudo-remainders
        f, g = g, _mod(_pseudo_rem(f, g))
    if len(f) > 1 or ints[-1] % _MODULUS == 0:
        ints = list(divmod_exact(ints, gcd(ints, dp))[0])
    return [0] * min(k, 1) + ints


def _mod(p) -> list[int]:
    return list(trim(c % _MODULUS for c in p))


def _variations(cs) -> int:
    """Sign changes in the sequence of the nonzero values of ``cs``."""
    seq = [c > 0 for c in cs if c]
    return sum(s != t for s, t in zip(seq, seq[1:]))


def _descartes(ints: list[int], lo: Fraction, hi: Fraction) -> int:
    """Descartes' rule: a bound of the same parity on the roots of P in the
    open (lo, hi), the sign variations of (1 + t)**n * P(lo + (hi - lo) /
    (1 + t)): P shifted to lo, scaled to the width, reversed, shifted by 1."""
    d = math.lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (d // lo.denominator)
    w = hi.numerator * (d // hi.denominator) - a
    h = _taylor_shift(ints, a, d)
    return _variations(_taylor_shift([c * w**k for k, c in enumerate(h)][::-1], 1, 1))


def count_roots_above(p: Coeffs, a: Fraction) -> int:
    """Number of distinct real roots of ``p`` in the open interval (a, inf)."""
    return len(isolate_roots(p, a))


def isolate_roots(
    p: Coeffs, a: Fraction, b: Fraction | None = None
) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals for the distinct real roots of ``p`` in (a, b];
    ``b`` None means (a, inf), which ends at the Fujiwara bound.

    Returns pieces (lo, hi] of the bisection of (a, b] at midpoints, in
    increasing order, each holding exactly one distinct root; a count of
    roots is the number of pieces.  A piece holds the roots of the
    squarefree part P in (lo, hi), and hi when P(hi) = 0; a piece that
    Descartes' rule does not bound by one root is halved (Collins &
    Akritas, 1976), the left half first.
    """
    if b is None:
        b = fujiwara_bound(p)
    if degree(p) < 1 or b <= a:
        return []
    ints = _squarefree_part(p)
    found = []
    todo = [(a, b)]
    while todo:
        lo, hi = todo.pop()
        roots = _descartes(ints, lo, hi) + (eval_at(ints, hi) == 0)
        if roots == 1:
            found.append((lo, hi))
        elif roots > 1:
            mid = (lo + hi) / 2
            todo += [(mid, hi), (lo, mid)]
    return found


def _positive_right_of(p: Coeffs, x: Fraction) -> bool:
    """Whether ``p`` (nonzero) is positive just right of x: the sign of its
    first nonzero Taylor coefficient there, p(x) itself unless that is 0."""
    return next(c for c in _taylor_shift(p, x.numerator, x.denominator) if c) > 0


def keeps_sign_above(p: Coeffs, a: Fraction) -> bool:
    """Whether ``p`` (nonzero) keeps one sign on (a, inf).

    Between consecutive roots p keeps its sign, so it does on (a, inf) iff
    its sign just right of a agrees with its sign just right of each root
    above a; just right of the root in a piece (lo, hi] it is the sign just
    right of hi, as the piece holds no other root.
    """
    positive = _positive_right_of(p, a)
    return all(_positive_right_of(p, hi) == positive for _, hi in isolate_roots(p, a))
