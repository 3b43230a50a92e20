"""Exact rational-function algebra and order-of-magnitude tools.

``RationalFn`` is an immutable reduced quotient of integer polynomials,
stored as one pair of int tuples (N, D): coprime as polynomials, with no
integer content common to all their coefficients, and lc(D) > 0.  Equal
values have equal pairs, so equality, hashing and the canonical string
work on ints alone, as does every reader in the package; ``num`` and
``den`` are monic-Fraction views, built on access, for readers outside
it.

Almost every denominator the reduction meets is c*x**k, and those terms
take the Laurent lane.  A value's ``lane`` is k for such a denominator,
else None, set when the value is made, so a denominator is scanned only
in ``_fn``, the normaliser.  A term in the lane is the triple
(numerator, c, k), and ``_laurent`` makes the value of acc/(c*x**k),
slicing off the common power of x and dividing by gcd(c, content) with
no polynomial gcd.  Products of two such terms (``*`` and matrix
products) form (n_a*n_b, c_a*c_b, k_a + k_b), a derivative is
(x*p' - k*p)/(c*x**(k+1)), and a Laurent split reads its terms off the
numerator.  Sums take one pass per entry: ``rational_sum`` collects the
nonzero terms in one loop, returns a lone one as it is (or negated), and
hands all-Laurent ones to ``_lifted_sum``, which lifts them to
lcm(c)*x**max(k), adds their numerators in one list and normalises once.
``+`` and ``-`` are its two-term case, and a zero operand
short-circuits.  Terms over other denominators are added over their
product and divided by the primitive integer gcd; every polynomial
operation is that of ``poly``, the integer kernel.

``SymMatrix`` is a dense matrix of them with non-commutative products.
Each entry of a product is the sum of its nonzero unreduced products: none
gives zero, one is normalised alone, and all-Laurent ones go to
``_lifted_sum`` directly.  ``SymMatrix.sum`` adds many matrices entry by
entry, and ``SymMatrix.commutator`` forms D*P - P*D for a diagonal D as
(d_i - d_j)*P_ij.  On top of the arithmetic the module provides

* differentiation and the leading power at infinity,
* Laurent expansion at infinity with an exact rational tail,
* a certified supremum bound for |f| on a right half-line from the
  isolated critical points of f, computed in exact arithmetic only
  (no floating point enters the bound),
* a canonical string form and the matching parser,
* float evaluation of a matrix (of one function, as a 1x1 matrix) by
  Horner's rule over the float table built on first use.

Everything downstream (the reduction engine, the error ledger, the
asymptotic evaluator) stores its symbolic state in these two types.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from . import poly
from .errors import ComputationFailed, InvalidInput
from .poly import Coeffs


# The largest degree a parsed polynomial, or a monomial exponent of a
# problem document, may have.  A dense coefficient tuple is built up to
# it, so the cap keeps x^999999999 from allocating a billion entries.
MAX_DEGREE = 1000


class ParseError(InvalidInput):
    """A string did not match the rational-function grammar."""


class PoleInDomain(ComputationFailed, ValueError):
    """The function has a pole on the half-line being bounded."""


class UnboundedAtInfinity(ComputationFailed, ValueError):
    """The function grows at infinity, so no finite sup exists."""


class BoundNotCertified(ComputationFailed, RuntimeError):
    """sup_bound could not bring its bound within rel_slack of an attained value."""


class RationalFn:
    """A reduced ratio of integer polynomials in one variable.

    Stored as the canonical pair ``(int_num, int_den)``: trimmed int tuples,
    coprime as polynomials, with no common integer content and a positive
    leading denominator coefficient; ``lane`` is k when ``int_den`` is
    c*x**k, else None.  ``num`` and ``den`` view the pair as Fractions
    over a monic denominator, for readers outside the package.
    """

    __slots__ = ("int_num", "int_den", "lane")

    def __init__(self, num, den=poly.ONE):
        num, den = _coeffs(num), _coeffs(den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        ints = tuple(poly._primitive_ints(num + den))
        f = _fn(ints[: len(num)], ints[len(num):])
        _set(self, "int_num", f.int_num)
        _set(self, "int_den", f.int_den)
        _set(self, "lane", f.lane)

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("RationalFn is immutable")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return RationalFn, (self.int_num, self.int_den)

    @property
    def num(self) -> Coeffs:
        """The numerator over the monic denominator, as Fractions."""
        lc = self.int_den[-1]
        return tuple(Fraction(c, lc) for c in self.int_num)

    @property
    def den(self) -> Coeffs:
        """The monic denominator, as Fractions."""
        lc = self.int_den[-1]
        return tuple(Fraction(c, lc) for c in self.int_den)

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, c) -> "RationalFn":
        return cls.monomial(c, 0)

    @classmethod
    def x_power(cls, e: int) -> "RationalFn":
        """x**e for any integer e, negative powers going to the denominator."""
        return cls.monomial(1, e)

    @classmethod
    def monomial(cls, c, e: int) -> "RationalFn":
        """c * x**e for any integer e."""
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        if not c:
            return _ZERO
        a, b = c.numerator, c.denominator
        if e >= 0:
            return _pair(poly.shift((a,), e), (b,), 0)
        return _pair((a,), poly.shift((b,), -e), -e)

    # -- predicates and structure -------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.int_num

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RationalFn.const(other)
        if not isinstance(other, RationalFn):
            return NotImplemented
        return self.int_num == other.int_num and self.int_den == other.int_den

    def __hash__(self):
        return hash((self.int_num, self.int_den))

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- ring operations ----------------------------------------------

    @staticmethod
    def _coerce(v):
        if isinstance(v, RationalFn):
            return v
        if isinstance(v, (int, Fraction)):
            return RationalFn.const(v)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.int_num:
            return self
        return rational_sum((self, o))

    __radd__ = __add__

    def __neg__(self):
        return _pair(poly.neg(self.int_num), self.int_den, self.lane)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.int_num:
            return self
        return rational_sum((self,), (o,))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not (self.int_num and o.int_num):
            return _ZERO
        a, b = self.int_den, o.int_den
        n = poly.mul(self.int_num, o.int_num)
        if self.lane is not None and o.lane is not None:
            return _laurent(n, a[-1] * b[-1], self.lane + o.lane)
        return _fn(n, poly.mul(a, b))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division by the zero function")
        return _fn(
            poly.mul(self.int_num, o.int_den), poly.mul(self.int_den, o.int_num)
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return _ONE / self ** (-k)
        out = _ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- calculus and asymptotics -------------------------------------

    def differentiate(self) -> "RationalFn":
        n, d, k = self.int_num, self.int_den, self.lane
        if k is not None:  # (p/(c*x**k))' = (x*p' - k*p)/(c*x**(k+1))
            return _laurent([(i - k) * c for i, c in enumerate(n)], d[-1], k + 1)
        return _fn(
            poly.sub(poly.mul(poly.derivative(n), d), poly.mul(n, poly.derivative(d))),
            poly.mul(d, d),
        )

    def leading_order(self) -> int | None:
        """Exponent e with f ~ c*x^e at infinity; ``None`` for the zero function."""
        if self.is_zero:
            return None
        return len(self.int_num) - len(self.int_den)

    def leading_coefficient(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero function has no leading coefficient")
        return Fraction(self.int_num[-1], self.int_den[-1])

    def limit_at_infinity(self) -> Fraction:
        lo = self.leading_order()
        if lo is None:
            return Fraction(0)
        if lo > 0:
            raise UnboundedAtInfinity("function diverges at infinity")
        return self.leading_coefficient() if lo == 0 else Fraction(0)

    def laurent_split(self, stop_exponent: Fraction) -> tuple[list[tuple[Fraction, int]], "RationalFn"]:
        """Expansion at infinity down to, but excluding, ``stop_exponent``.

        Returns (terms, tail): terms is a list of (coefficient, exponent)
        with exponents strictly above ``stop_exponent`` in decreasing order,
        and tail is the exact rational remainder, every Laurent term of
        which sits at or below ``stop_exponent``.  In the Laurent lane,
        n/(c*x**k), the terms are n_i/c at i - k, read off the numerator,
        and the tail is its low part over the same denominator.
        """
        n, d, k = self.int_num, self.int_den, self.lane
        if k is not None:
            cut = max(0, min(len(n), math.floor(stop_exponent) + k + 1))
            terms = [
                (Fraction(n[i], d[-1]), i - k) for i in range(len(n) - 1, cut - 1, -1) if n[i]
            ]
            return terms, self if cut == len(n) else _laurent(n[:cut], d[-1], k)
        terms = []
        g = self
        while not g.is_zero:
            e = g.leading_order()
            if e <= stop_exponent:
                break
            c = g.leading_coefficient()
            terms.append((c, e))
            g = g - RationalFn.monomial(c, e)
        return terms, g

    # -- evaluation ----------------------------------------------------

    def eval_exact(self, x) -> Fraction:
        x = Fraction(x)
        d = poly.eval_at(self.int_den, x)
        if d == 0:
            raise ZeroDivisionError(f"pole at x = {x}")
        return poly.eval_at(self.int_num, x) / d

    def has_pole_in(self, lo, hi=None) -> bool:
        """True when the denominator vanishes on [lo, hi], or on [lo, inf)
        when ``hi`` is None."""
        den = self.int_den
        if len(den) < 2:
            return False
        lo, hi = Fraction(lo), None if hi is None else Fraction(hi)
        return poly.eval_at(den, lo) == 0 or bool(poly.isolate_roots(den, lo, hi))

    # -- canonical text form -------------------------------------------

    def to_string(self) -> str:
        if self.is_zero:
            return "0"
        num_s = _format_int_poly(self.int_num)
        if self.int_den == poly.ONE:
            return num_s
        return f"({num_s})/({_format_int_poly(self.int_den)})"

    __str__ = to_string

    def __repr__(self):
        return f"RationalFn({self.to_string()!r})"

    @classmethod
    def parse(cls, text: str) -> "RationalFn":
        num_s, den_s = _split_fraction(text)
        num = _parse_int_poly(num_s)
        den = _parse_int_poly(den_s) if den_s is not None else poly.ONE
        if poly.is_zero(den):
            raise ParseError(f"zero denominator in {text!r}")
        return _fn(num, den)


def _coeffs(v) -> Coeffs:
    """A constant or an iterable of coefficient-like values as a polynomial."""
    return poly.constant(v) if isinstance(v, (int, Fraction)) else poly.make(v)


def _x_exponent(den: Coeffs) -> int | None:
    """k when the trimmed ``den`` is c*x**k, else None."""
    k = len(den) - 1
    return k if den.count(0) == k else None


def _laurent(acc, c: int, k: int) -> RationalFn:
    """The RationalFn acc/(c*x**k), for an int sequence ``acc`` (trailing
    zeros allowed), a nonzero int c and k >= 0.

    Such a denominator shares at most x**min(valuation(acc), k) with the
    numerator, which is cancelled by slicing, leaving the lane k - v; the
    common integer content is gcd(c, content(acc)), and dividing by it,
    negated when c < 0, leaves lc(den) > 0.  No x-power tuple is built
    before the result's.
    """
    n = len(acc)
    while n and not acc[n - 1]:
        n -= 1
    if not n:
        return _ZERO
    v = 0
    while v < k and not acc[v]:
        v += 1
    num = acc[v:n]
    g = math.gcd(c, *num)
    if c < 0:
        g = -g
    if g != 1:
        num = [a // g for a in num]
        c //= g
    return _pair(tuple(num), (0,) * (k - v) + (c,), k - v)


_set = object.__setattr__


def _pair(num: Coeffs, den: Coeffs, lane: int | None) -> RationalFn:
    """The RationalFn of canonical pair (num, den) and lane, taken as given."""
    f = object.__new__(RationalFn)
    _set(f, "int_num", num)
    _set(f, "int_den", den)
    _set(f, "lane", lane)
    return f


def _fn(num: Coeffs, den: Coeffs) -> RationalFn:
    """The normaliser: num/den as a RationalFn, for trimmed int tuples, den
    nonzero.

    A denominator that is not c*x**k is divided, with its numerator, by
    their primitive gcd, which can leave c*x**j, so the quotient is
    scanned too.  One of the form c*x**k is then the Laurent lane's
    (``_laurent``); any other has the common integer content divided out
    and the sign that makes lc(den) positive.
    """
    if not num:
        return _ZERO
    k = _x_exponent(den)
    if k is None:
        g = poly.gcd(num, den)
        if len(g) > 1:
            num = poly.divmod_exact(num, g)[0]
            den = poly.divmod_exact(den, g)[0]
            k = _x_exponent(den)
    if k is not None:
        return _laurent(num, den[-1], k)
    c = math.gcd(*num, *den)
    if den[-1] < 0:
        c = -c
    if c != 1:
        num = tuple(v // c for v in num)
        den = tuple(v // c for v in den)
    return _pair(num, den, None)


_ZERO = _pair(poly.ZERO, poly.ONE, 0)
_ONE = _pair(poly.ONE, poly.ONE, 0)


def rational_sum(plus, minus=()) -> RationalFn:
    """The sum of the RationalFns ``plus`` less those of ``minus``,
    normalised once.

    One pass collects the nonzero terms by lane: over c*x**k as a Laurent
    triple, a subtracted one with its sign on c, any other as its pair.
    With fewer than two there is nothing to add; all-Laurent terms go to
    ``_lifted_sum``, mixed ones to ``_sum``.  ``RationalFn.__add__`` and
    ``__sub__`` are the cases of two terms.
    """
    lifted, pairs, last = [], [], None
    for sign, terms in ((1, plus), (-1, minus)):
        for f in terms:
            num = f.int_num
            if num:
                last, last_sign = f, sign
                if f.lane is None:
                    pairs.append((num if sign > 0 else poly.neg(num), f.int_den))
                else:  # a subtracted term's sign goes to c
                    lifted.append((num, sign * f.int_den[-1], f.lane))
    if len(lifted) + len(pairs) < 2:
        return _ZERO if last is None else last if last_sign > 0 else -last
    return _sum(pairs, lifted) if pairs else _lifted_sum(lifted)


def _lifted_sum(lifted) -> RationalFn:
    """The sum of num/(c*x**k) over the nonempty Laurent triples
    (num, c, k) of ``lifted``, c of either sign: every numerator, scaled
    by lcm(c)/c, is added into one list over lcm(c)*x**max(k), which
    ``_laurent`` normalises once."""
    top, lcm, width = 0, 1, 0  # max k, lcm(c), max(len(num) - k)
    for num, c, k in lifted:
        if k > top:
            top = k
        lcm = math.lcm(lcm, c)
        if len(num) - k > width:
            width = len(num) - k
    acc = [0] * (width + top)
    for num, c, k in lifted:
        a = lcm // c
        for i, v in enumerate(num, top - k):
            acc[i] += a * v
    return _laurent(acc, lcm, top)


def _sum(pairs, lifted) -> RationalFn:
    """The sum of the Laurent triples ``lifted`` (``_lifted_sum``) and of
    num/den over the int-tuple ``pairs``, whose denominators are not
    c*x**k; every num and den nonzero, not necessarily reduced.  Each
    pair is added to the running total over the product of the
    denominators."""
    total = _lifted_sum(lifted) if lifted else _ZERO
    for n2, d2 in pairs:
        n1, d1 = total.int_num, total.int_den
        if not n1:
            total = _fn(n2, d2)
        else:
            total = _fn(poly.add(poly.mul(n1, d2), poly.mul(n2, d1)), poly.mul(d1, d2))
    return total


def _format_int_poly(coeffs) -> str:
    terms = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if not c:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            xs = "x" if e == 1 else f"x^{e}"
            body = xs if mag == 1 else f"{mag}*{xs}"
        terms.append((c < 0, body))
    if not terms:
        return "0"
    out = ("-" if terms[0][0] else "") + terms[0][1]
    for negative, body in terms[1:]:
        out += (" - " if negative else " + ") + body
    return out


def _split_fraction(text: str) -> tuple[str, str | None]:
    """The numerator and denominator at the first '/' outside parentheses.
    A side that is a sum outside parentheses is refused, since '/' binds
    tighter than '+' and '-': read as a quotient, "x/4 - 1" would be x/3."""
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced parentheses in {text!r}")
        elif ch == "/" and depth == 0:
            num, den = text[:i], text[i + 1:]
            if _is_sum(num) or _is_sum(den):
                raise ParseError(
                    f"parenthesise a sum on either side of '/' in {text!r}"
                )
            return num, den
    if depth != 0:
        raise ParseError(f"unbalanced parentheses in {text!r}")
    return text, None


def _is_sum(side: str) -> bool:
    """Whether side has a '+' or '-' outside parentheses, past a leading sign."""
    s = side.strip()
    depth = 0
    for ch in s[1:] if s[:1] in ("+", "-") else s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0:
            return True
    return False


def _strip_outer_parens(s: str) -> str:
    s = s.strip()
    while s.startswith("(") and s.endswith(")"):
        depth = 0
        for i, ch in enumerate(s):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and i != len(s) - 1:
                    return s
        s = s[1:-1].strip()
    return s


_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:"
    r"(?P<coeff>\d+)\s*\*?\s*(?P<var1>x(?:\^(?P<exp1>\d+))?)?"
    r"|(?P<var2>x(?:\^(?P<exp2>\d+))?)"
    r")\s*"
)


def _parse_int_poly(text: str) -> Coeffs:
    s = _strip_outer_parens(text)
    if not s:
        raise ParseError("empty polynomial")
    coeffs: dict[int, int] = {}
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos:
            raise ParseError(f"cannot parse polynomial {text!r} near {s[pos:]!r}")
        sign = m.group("sign")
        if sign is None and not first:
            raise ParseError(f"missing sign between terms in {text!r}")
        coeff = m.group("coeff")
        var = m.group("var1") or m.group("var2")
        exp = m.group("exp1") or m.group("exp2")
        if coeff is None and var is None:
            raise ParseError(f"empty term in {text!r}")
        try:
            c = int(coeff) if coeff is not None else 1
            e = 0 if var is None else int(exp) if exp is not None else 1
        except ValueError:  # past int()'s limit on the digits of a string
            raise ParseError("a number has too many digits") from None
        if e > MAX_DEGREE:
            raise ParseError(f"degree {e} exceeds the limit {MAX_DEGREE}")
        coeffs[e] = coeffs.get(e, 0) + (-c if sign == "-" else c)
        pos = m.end()
        first = False
    top = max(coeffs) if coeffs else 0
    return poly.trim(tuple(coeffs.get(i, 0) for i in range(top + 1)))


# -- supremum bound on a half-line ------------------------------------


_MAX_HALVINGS = 200


def _critical_polynomial(f: RationalFn) -> Coeffs:
    """crit = n'd - nd' of f = n/d, whose real roots are f's critical
    points.  For d = c*x**k (f's lane) it is c*x**(k-1)*(x*n' - k*n), whose
    coefficients (j - k)*c*n_j take one pass over n, where the products
    would walk d's k zeros; with k = 0 that is c*n'."""
    n, d, k = f.int_num, f.int_den, f.lane
    if k is None:
        return poly.sub(poly.mul(poly.derivative(n), d), poly.mul(n, poly.derivative(d)))
    c = d[-1]
    terms = poly.trim([(j - k) * c * a for j, a in enumerate(n)])
    return poly.shift(terms, k - 1) if k else terms[1:]


def sup_bound(f: RationalFn, X, *, rel_slack=Fraction(1, 20)) -> Fraction:
    """Certified upper bound for sup of |f| on [X, infinity).

    Raises ``PoleInDomain`` if the denominator vanishes on the half-line and
    ``UnboundedAtInfinity`` if f grows there.  Between consecutive roots of
    the critical-point polynomial crit = n'd - nd' the function is
    monotone, so the sup is the largest of |f(X)|, |limit| and |f| at the
    critical points in (X, inf).  None exceeds the Fujiwara bound B of
    crit; ``poly.isolate_roots`` gives each an interval of (X, B] of its
    own.  With none there the result is exactly max(|f(X)|, |limit|).
    Otherwise each isolating interval is halved, keeping the half where
    crit changes sign, until a bound for |f| on it is within
    ``rel_slack`` of a value |f| attains.  That bound takes numerator and
    denominator each as its value at the left end plus or minus the
    Taylor-coefficient motion across the interval.  All arithmetic is
    exact rational, so the result is tight as well as sound; an interval
    that needs more than ``_MAX_HALVINGS`` halvings raises
    ``BoundNotCertified`` instead of returning a looser value.
    """
    if f.is_zero:
        return Fraction(0)
    lo = f.leading_order()
    if lo > 0:
        raise UnboundedAtInfinity(f"leading power {lo} > 0 on [{X}, inf)")
    X = Fraction(X)
    n, d = f.int_num, f.int_den
    if f.has_pole_in(X):
        raise PoleInDomain(f"denominator vanishes on [{X}, inf)")

    crit = _critical_polynomial(f)
    intervals = poly.isolate_roots(crit, X)
    attained = max(
        [abs(f.eval_exact(X)), abs(f.limit_at_infinity())]
        + [abs(f.eval_exact(v)) for _, v in intervals]
    )
    bounds = Fraction(0)
    for u, v in intervals:
        at_v = poly.eval_at(crit, v)
        if at_v == 0:
            continue  # the critical point is v, already attained
        for _ in range(_MAX_HALVINGS):
            low = poly.magnitude_range(d, u, v - u)[0]
            if low > 0:
                bound = poly.magnitude_range(n, u, v - u)[1] / low
                if bound <= attained * (1 + rel_slack):
                    bounds = max(bounds, bound)
                    break
            mid = (u + v) / 2
            attained = max(attained, abs(f.eval_exact(mid)))
            at_mid = poly.eval_at(crit, mid)
            if at_mid == 0:
                break  # the critical point is mid, now attained
            # a root of even multiplicity is no extremum: crit keeps its
            # sign, the halving closes in on u, and the bound on |f(u)|
            # is met by the values attained at the midpoints
            if (at_mid > 0) == (at_v > 0):
                v = mid
            else:
                u = mid
        else:
            raise BoundNotCertified(
                f"sup_bound cannot certify |{f}| near x = {float(v):.6g} on "
                f"[{X}, inf) within {_MAX_HALVINGS} halvings"
            )
    return max(bounds, attained)


class SymMatrix:
    """Dense matrix of RationalFn entries with exact non-commutative products."""

    # _float_table: what float_table returns, kept from its first call;
    # _stages: the RK45 stage factory ode_connector compiles from it on the
    # first integration over the matrix
    __slots__ = ("rows", "cols", "entries", "_float_table", "_stages")

    def __init__(self, entries):
        rows = tuple(tuple(_as_fn(e) for e in row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("SymMatrix needs at least one row and column")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows in SymMatrix")
        _fill(self, rows)

    def __setattr__(self, *a):
        raise AttributeError("SymMatrix is immutable")

    def __reduce__(self):  # rebuilt through __init__, without the float forms
        return SymMatrix, (self.entries,)

    # -- constructors --------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int | None = None) -> "SymMatrix":
        cols = rows if cols is None else cols
        return _matrix(((_ZERO,) * cols,) * rows)

    @classmethod
    def identity(cls, n: int) -> "SymMatrix":
        return cls.diagonal((_ONE,) * n)

    @classmethod
    def diagonal(cls, values) -> "SymMatrix":
        vals = [_as_fn(v) for v in values]
        n = len(vals)
        return _matrix(
            tuple(tuple(vals[i] if i == j else _ZERO for j in range(n)) for i in range(n))
        )

    # -- structure -----------------------------------------------------

    def entry(self, i: int, j: int) -> RationalFn:
        return self.entries[i][j]

    def with_entry(self, i: int, j: int, value) -> "SymMatrix":
        rows = [list(r) for r in self.entries]
        rows[i][j] = _as_fn(value)
        return _matrix(tuple(map(tuple, rows)))

    @property
    def is_zero(self) -> bool:
        for row in self.entries:
            for e in row:
                if e.int_num:
                    return False
        return True

    def __eq__(self, other):
        if not isinstance(other, SymMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def off_diagonal_part(self) -> "SymMatrix":
        return _matrix(
            tuple(
                tuple(_ZERO if i == j else e for j, e in enumerate(row))
                for i, row in enumerate(self.entries)
            )
        )

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, SymMatrix):
            return NotImplemented
        return SymMatrix.sum((self, other))

    def __sub__(self, other):
        if not isinstance(other, SymMatrix):
            return NotImplemented
        return SymMatrix.sum((self,), (other,))

    def __neg__(self):
        return _matrix(tuple([tuple([-e for e in row]) for row in self.entries]))

    @staticmethod
    def sum(plus, minus=()) -> "SymMatrix":
        """The matrices ``plus`` less the matrices ``minus``, at least one
        matrix in all, of one shape: each entry is one ``rational_sum``,
        and a single matrix is returned as it is, or negated."""
        plus, minus = list(plus), list(minus)
        mats = plus + minus
        for m in mats[1:]:
            mats[0]._match(m)
        if len(mats) == 1:
            return plus[0] if plus else -minus[0]
        k = len(plus)
        rows = zip(*(m.entries for m in mats))
        return _matrix(tuple([tuple([rational_sum(e[:k], e[k:]) for e in zip(*r)]) for r in rows]))

    def commutator(self, diag) -> "SymMatrix":
        """D*self - self*D for D = diagonal(diag): entry (i, j) is
        (d_i - d_j) * self_ij, with no product of full matrices."""
        d = [_as_fn(v) for v in diag]
        if not self.rows == self.cols == len(d):
            raise ValueError("shape mismatch")
        return _matrix(tuple([
            tuple([
                _ZERO if i == j or not e.int_num else (d[i] - d[j]) * e
                for j, e in enumerate(row)
            ])
            for i, row in enumerate(self.entries)
        ]))

    def __mul__(self, other):
        if isinstance(other, SymMatrix):
            if self.cols != other.rows:
                raise ValueError("inner dimension mismatch")
            # each column as its nonzero entries once; a zero row gives zeros
            cols = [
                [(k, b.int_num, b.int_den, b.lane) for k, b in enumerate(col) if b.int_num]
                for col in zip(*other.entries)
            ]
            zero_row = (_ZERO,) * other.cols
            return _matrix(tuple([
                tuple([_dot(row, col) for col in cols])
                if any(a.int_num for a in row)
                else zero_row
                for row in self.entries
            ]))
        f = _as_fn_or_none(other)
        if f is None:
            return NotImplemented
        return _matrix(tuple([tuple([e * f for e in row]) for row in self.entries]))

    def __rmul__(self, other):
        f = _as_fn_or_none(other)
        if f is None:
            return NotImplemented
        return _matrix(tuple([tuple([f * e for e in row]) for row in self.entries]))

    def _match(self, other: "SymMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    # -- calculus, orders, evaluation ---------------------------------

    def derivative(self) -> "SymMatrix":
        return _matrix(tuple([tuple([e.differentiate() for e in row]) for row in self.entries]))

    def max_leading_order(self) -> int | None:
        top = None
        for row in self.entries:
            for e in row:
                if e.int_num:
                    order = len(e.int_num) - len(e.int_den)
                    if top is None or order > top:
                        top = order
        return top

    def order_at_most(self, exponent: Fraction) -> bool:
        """True when every entry is O(x**exponent) at infinity."""
        lo = self.max_leading_order()
        return lo is None or lo <= exponent

    def eval_exact(self, x) -> list[list[Fraction]]:
        x = Fraction(x)
        return [[e.eval_exact(x) for e in row] for row in self.entries]

    def float_table(self):
        """The form ``eval_float`` evaluates, built on the first call: the
        rows with every constant entry's float in place (0.0 where an entry
        varies with x), and ``(i, j, num, den)`` for each entry that varies,
        its numerator and denominator as ``poly.float_coeffs`` over lc(D),
        the denominator None when it is constant.  ``eval_float`` runs
        over this table and the RK45 stages (``ode_connector``) compile
        their functions from it; read the rows, never change them."""
        table = self._float_table
        if table is None:
            rows, varying = [], []
            for i, row in enumerate(self.entries):
                values = []
                for j, e in enumerate(row):
                    num, den = e.int_num, e.int_den
                    lc = den[-1]
                    if len(den) == 1 and len(num) <= 1:
                        values.append(num[0] / lc if num else 0.0)
                        continue
                    values.append(0.0)
                    fden = poly.float_coeffs(den, lc) if len(den) > 1 else None
                    varying.append((i, j, poly.float_coeffs(num, lc), fden))
                rows.append(values)
            table = tuple(rows), tuple(varying)
            _set(self, "_float_table", table)
        return table

    def eval_float(self, x: float) -> list[list[float]]:
        """Entries at x as fresh rows: each entry that varies is num(x) /
        den(x) by Horner's rule over ``float_table``, each sum started from
        0.0 and the division skipped where den is None, in the order of
        operations of the statements the RK45 stages compile
        (``_entry_lines``); the others are the table's constants.  A 1x1
        matrix is the float form of one ``RationalFn``."""
        rows, varying = self.float_table()
        out = [list(row) for row in rows]
        for i, j, num, den in varying:
            e = 0.0
            for c in num:
                e = e * x + c
            if den is not None:
                d = 0.0
                for c in den:
                    d = d * x + c
                e = e / d
            out[i][j] = e
        return out

    def to_strings(self) -> list[list[str]]:
        return [[e.to_string() for e in row] for row in self.entries]

    def __repr__(self):
        body = "; ".join(", ".join(e.to_string() for e in row) for row in self.entries)
        return f"SymMatrix[{body}]"

    # -- inverse -------------------------------------------------------

    def inverse(self) -> "SymMatrix":
        """Gauss-Jordan elimination on [self | I], skipping zero entries:
        each row update ``e - f*q`` is the dot product of (e, -f) with
        (1, q), its product left unreduced for one normalisation."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        rows = [
            list(row) + [_ONE if j == i else _ZERO for j in range(n)]
            for i, row in enumerate(self.entries)
        ]
        one = (0, poly.ONE, poly.ONE, 0)  # the entry 1 of a _dot column
        for c in range(n):
            p = next((r for r in range(c, n) if rows[r][c].int_num), None)
            if p is None:
                raise ZeroDivisionError("matrix is singular as a rational-function matrix")
            pivot = rows[p]
            rows[c], rows[p] = pivot, rows[c]
            nonzero = [j for j in range(c + 1, 2 * n) if pivot[j].int_num]
            d = pivot[c]
            # the pivot row over d, and (1, q) for each of its nonzero
            # entries q, as _dot takes a column
            cols = []
            for j in nonzero:
                q = pivot[j] = pivot[j] / d
                cols.append((one, (1, q.int_num, q.int_den, q.lane)))
            # each row less f times the pivot row; column c is never read again
            for row in rows:
                f = row[c]
                if row is pivot or not f.int_num:
                    continue
                g = -f
                for j, col in zip(nonzero, cols):
                    row[j] = _dot((row[j], g), col)
        return _matrix(tuple(tuple(row[n:]) for row in rows))


def _as_fn(v) -> RationalFn:
    if isinstance(v, RationalFn):
        return v
    if isinstance(v, (int, Fraction)):
        return RationalFn.const(v)
    if isinstance(v, str):
        return RationalFn.parse(v)
    raise TypeError(f"cannot interpret {v!r} as a rational function")


def _as_fn_or_none(v):
    try:
        return _as_fn(v)
    except TypeError:
        return None


def _fill(m: SymMatrix, rows: tuple[tuple[RationalFn, ...], ...]) -> None:
    _set(m, "rows", len(rows))
    _set(m, "cols", len(rows[0]))
    _set(m, "entries", rows)
    _set(m, "_float_table", None)
    _set(m, "_stages", None)


def _matrix(rows: tuple[tuple[RationalFn, ...], ...]) -> SymMatrix:
    """The SymMatrix of ready RationalFn rows: nonempty tuples of one length."""
    m = object.__new__(SymMatrix)
    _fill(m, rows)
    return m


def _entry_lines(name: str, num, den) -> list[str]:
    """Statements, indented once, that leave the float num(x) / den(x) of
    one ``float_table`` entry in ``name``: one per Horner step,
    ``e = 0.0 * x + c0`` then ``e = e * x + c``, the same for the
    denominator ``d`` and one ``e = e / d`` (none where den is None).
    Nested expressions would hit the parser's nesting limit at degrees
    ``MAX_DEGREE`` admits."""
    lines = _horner_lines(name, num)
    if den is not None:
        lines += _horner_lines("d", den)
        lines.append(f"    {name} = {name} / d")
    return lines


def _horner_lines(name: str, coeffs) -> list[str]:
    """Horner's rule for the floats ``coeffs`` (highest power first) as
    statements accumulating into ``name``, starting from 0.0."""
    return [f"    {name} = {name if k else 0.0} * x + {c!r}" for k, c in enumerate(coeffs)]


def _dot(row, col) -> RationalFn:
    """The sum of the products row[k]*b over a column's nonzero entries
    (k, num, den, lane), each left unreduced for one normalisation: two
    c*x**k denominators give the Laurent triple
    (n_a*n_b, c_a*c_b, k_a + k_b), any other pair the product pair, whose
    denominator is then not of that form either.  No product is zero, one
    in the lane is normalised on its own, and all-Laurent products go
    straight to ``_lifted_sum``."""
    lifted, pairs = [], []
    for k, nb, db, kb in col:
        a = row[k]
        if a.int_num:
            if a.lane is None or kb is None:
                pairs.append((poly.mul(a.int_num, nb), poly.mul(a.int_den, db)))
            else:
                lifted.append((poly.mul(a.int_num, nb), a.int_den[-1] * db[-1], a.lane + kb))
    if pairs:
        return _sum(pairs, lifted)
    if len(lifted) > 1:
        return _lifted_sum(lifted)
    return _laurent(*lifted[0]) if lifted else _ZERO
