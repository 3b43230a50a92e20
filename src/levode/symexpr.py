"""Exact rational-function algebra and order-of-magnitude tools.

``RationalFn`` is an immutable reduced quotient of integer polynomials,
stored as one pair of int tuples (N, D): coprime as polynomials, with no
integer content common to all their coefficients, and lc(D) > 0.  Equal
values have equal pairs, so equality, hashing and the canonical string
work on ints alone, as does every reader in the package; ``num`` and
``den`` are monic-Fraction views, built on access, for readers outside
it.  Almost every denominator the reduction meets is c*x**k: such a
quotient is reduced by slicing off the common power of x, with no
polynomial gcd, and differentiates as
(x*p' - k*p)/(c*x**(k+1)).  ``rational_sum`` adds any number of terms:
those over c*x**k are lifted to lcm(c)*x**max(k), their numerators added
in one list and the sum normalised once; ``+`` and ``-`` are its two-term
case, and a zero operand short-circuits.  Other denominators are divided
by the primitive integer gcd; every polynomial operation is that of
``poly``, the integer kernel.  ``SymMatrix`` is a dense matrix of them
with non-commutative products, each entry of a product
one such sum of unreduced products; ``SymMatrix.sum`` adds many matrices
entry by entry, and ``SymMatrix.commutator`` forms D*P - P*D for a
diagonal D as (d_i - d_j)*P_ij.  On top of the arithmetic the module
provides

* differentiation and the leading power at infinity,
* Laurent expansion at infinity with an exact rational tail,
* a certified supremum bound for |f| on a right half-line from the
  Sturm-isolated critical points of f, computed in exact arithmetic only
  (no floating point enters the bound),
* a canonical string form and the matching parser.

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
    leading denominator coefficient.  ``num`` and ``den`` view it as
    Fractions over a monic denominator, for readers outside the package.
    """

    __slots__ = ("int_num", "int_den")

    def __init__(self, num, den=poly.ONE):
        num, den = _coeffs(num), _coeffs(den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        ints = tuple(poly._primitive_ints(num + den))
        _store(self, *_normal(ints[: len(num)], ints[len(num):]))

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
        if type(c) is not int:
            c = Fraction(c)
        if not c:
            return _ZERO
        a, b = c.numerator, c.denominator
        if e >= 0:
            return _pair(poly.shift((a,), e), (b,))
        return _pair((a,), poly.shift((b,), -e))

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
        return _pair(poly.neg(self.int_num), self.int_den)

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
        return _fn(
            poly.mul(self.int_num, o.int_num), poly.mul(self.int_den, o.int_den)
        )

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
        n, d = self.int_num, self.int_den
        k = _x_exponent(d)
        if k is not None:  # (p/(c*x**k))' = (x*p' - k*p)/(c*x**(k+1))
            return _fn(
                poly.trim([(i - k) * c for i, c in enumerate(n)]), poly.shift(d, 1)
            )
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
        which sits at or below ``stop_exponent``.
        """
        terms: list[tuple[Fraction, int]] = []
        g = self
        while not g.is_zero:
            e = g.leading_order()
            if Fraction(e) <= stop_exponent:
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

    def float_table(self) -> float | tuple[tuple[float, ...], tuple[float, ...] | None]:
        """The form ``eval_float`` evaluates.  A constant is its float value,
        which is its Horner value at every finite x (0.0*x + c == c); any
        other function is its numerator and denominator as
        ``poly.float_coeffs`` over lc(D), the denominator None when it is
        constant: the arguments of ``poly.horner_ratio``."""
        num, den = self.int_num, self.int_den
        lc = den[-1]
        if len(den) == 1:
            if len(num) <= 1:
                return num[0] / lc if num else 0.0
            return poly.float_coeffs(num, lc), None
        return poly.float_coeffs(num, lc), poly.float_coeffs(den, lc)

    def eval_float(self, x: float) -> float:
        table = self.float_table()
        return table if type(table) is float else poly.horner_ratio(*table, x)

    def has_pole_in(self, lo, hi=None) -> bool:
        """True when the denominator vanishes on [lo, hi], or on [lo, inf)
        when ``hi`` is None."""
        lo = Fraction(lo)
        den = self.int_den
        if len(den) < 2:
            return False
        if lo > 0 and all(c >= 0 for c in den):
            # no sign change (x**k, x**k*(x + 1), ...): Descartes' rule
            # leaves no positive root, so skip the Sturm count
            return False
        if poly.eval_at(den, lo) == 0:
            return True
        hi = None if hi is None else Fraction(hi)
        return poly.count_roots_in(den, lo, hi) > 0

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
    """k when ``den`` is c*x**k, else None."""
    k = len(den) - 1
    return None if any(den[:k]) else k


def _normal(num: Coeffs, den: Coeffs) -> tuple[Coeffs, Coeffs]:
    """The canonical pair of num/den, for trimmed int tuples, den nonzero.

    A denominator c*x**k shares at most x**min(valuation(num), k) with the
    numerator, which is cancelled by slicing; any other denominator is
    divided, with its numerator, by their primitive gcd.  Then the common
    integer content is divided out and the sign makes lc(den) positive.
    """
    if not num:
        return poly.ZERO, poly.ONE
    k = _x_exponent(den)
    if k is not None:
        v = min(poly.valuation(num), k)
        if v:
            num, den = num[v:], den[v:]
    else:
        g = poly.gcd(num, den)
        if len(g) > 1:
            num = poly.divmod_exact(num, g)[0]
            den = poly.divmod_exact(den, g)[0]
    c = math.gcd(*num, *den)
    if den[-1] < 0:
        c = -c
    if c != 1:
        num = tuple(v // c for v in num)
        den = tuple(v // c for v in den)
    return num, den


_set = object.__setattr__


def _store(f: RationalFn, num: Coeffs, den: Coeffs) -> None:
    _set(f, "int_num", num)
    _set(f, "int_den", den)


def _pair(num: Coeffs, den: Coeffs) -> RationalFn:
    """The RationalFn whose canonical pair is (num, den), taken as given."""
    f = object.__new__(RationalFn)
    _store(f, num, den)
    return f


def _fn(num: Coeffs, den: Coeffs) -> RationalFn:
    """num/den through the normaliser: trimmed int tuples, den nonzero."""
    if not num:
        return _ZERO
    return _pair(*_normal(num, den))


_ZERO = _pair(poly.ZERO, poly.ONE)
_ONE = _pair(poly.ONE, poly.ONE)


def rational_sum(plus, minus=()) -> RationalFn:
    """The sum of the RationalFns ``plus`` less those of ``minus``,
    normalised once.

    Terms over a denominator c*x**k are lifted to lcm(c)*x**max(k) and
    their numerators added in one list; ``RationalFn.__add__`` and
    ``__sub__`` are the cases of two terms.
    """
    pairs = [(f.int_num, f.int_den) for f in plus if f.int_num]
    pairs += [(poly.neg(f.int_num), f.int_den) for f in minus if f.int_num]
    return _pair(*pairs[0]) if len(pairs) == 1 else _sum(pairs)


def _sum(pairs) -> RationalFn:
    """The sum of num/den over int-tuple pairs with nonzero num and den,
    not necessarily reduced.

    Every term whose denominator is c*x**k joins one lifted sum over
    lcm(c)*x**max(k); each other term is then added to the running total
    over the least common multiple of denominators equal up to a constant
    factor, else over the product of the denominators.
    """
    if len(pairs) < 2:
        return _fn(*pairs[0]) if pairs else _ZERO
    lifted, other = [], []
    for num, den in pairs:
        k = _x_exponent(den)
        if k is None:
            other.append((num, den))
        else:
            lifted.append((num, den[-1], k))
    total = _ZERO
    if lifted:
        top = max(k for _, _, k in lifted)
        lcm = math.lcm(*(c for _, c, _ in lifted))
        acc = [0] * max(len(num) + top - k for num, _, k in lifted)
        for num, c, k in lifted:
            a, s = lcm // c, top - k
            for i, v in enumerate(num):
                acc[s + i] += a * v
        total = _fn(poly.trim(acc), poly.shift((lcm,), top))
    for n2, d2 in other:
        n1, d1 = total.int_num, total.int_den
        if not n1:
            total = _fn(n2, d2)
            continue
        if len(d1) == len(d2):
            # denominators equal up to a constant factor (equal ones too):
            # lift both to their least common multiple
            g = math.gcd(d1[-1], d2[-1])
            a1, a2 = d2[-1] // g, d1[-1] // g
            den = poly.scale(d1, a1)
            if den == poly.scale(d2, a2):
                total = _fn(poly.add(poly.scale(n1, a1), poly.scale(n2, a2)), den)
                continue
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
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced parentheses in {text!r}")
        elif ch == "/" and depth == 0:
            return text[:i], text[i + 1:]
    if depth != 0:
        raise ParseError(f"unbalanced parentheses in {text!r}")
    return text, None


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


def sup_bound(f: RationalFn, X, *, rel_slack=Fraction(1, 20)) -> Fraction:
    """Certified upper bound for sup of |f| on [X, infinity).

    Raises ``PoleInDomain`` if the denominator vanishes on the half-line and
    ``UnboundedAtInfinity`` if f grows there.  Between consecutive roots of
    the critical-point polynomial crit = n'd - nd' the function is
    monotone, so the sup is the largest of |f(X)|, |limit| and |f| at the
    critical points in (X, inf).  None exceeds the Fujiwara bound B of
    crit; one Sturm chain isolates each in an interval of (X, B] of its
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

    crit = poly.sub(
        poly.mul(poly.derivative(n), d), poly.mul(n, poly.derivative(d))
    )
    intervals = poly.isolate_roots(crit, X, poly.fujiwara_bound(crit))
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

    # _float_table: what float_table returns, kept from its first call
    __slots__ = ("rows", "cols", "entries", "_float_table")

    def __init__(self, entries):
        rows = tuple(tuple(_as_fn(e) for e in row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("SymMatrix needs at least one row and column")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows in SymMatrix")
        _fill(self, rows)

    def __setattr__(self, *a):
        raise AttributeError("SymMatrix is immutable")

    def __reduce__(self):  # rebuilt through __init__, without _float_table
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
        return all(e.is_zero for row in self.entries for e in row)

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
        return _matrix(tuple(tuple(-e for e in row) for row in self.entries))

    @staticmethod
    def sum(plus, minus=()) -> "SymMatrix":
        """The matrices ``plus`` less the matrices ``minus``, at least one
        matrix in all, of one shape: each entry is one ``rational_sum``."""
        plus, minus = list(plus), list(minus)
        mats = plus + minus
        for m in mats[1:]:
            mats[0]._match(m)
        k = len(plus)
        return _matrix(
            tuple(
                tuple(rational_sum(col[:k], col[k:]) for col in zip(*rows))
                for rows in zip(*(m.entries for m in mats))
            )
        )

    def commutator(self, diag) -> "SymMatrix":
        """D*self - self*D for D = diagonal(diag): entry (i, j) is
        (d_i - d_j) * self_ij, with no product of full matrices."""
        d = [_as_fn(v) for v in diag]
        if not self.rows == self.cols == len(d):
            raise ValueError("shape mismatch")
        return _matrix(
            tuple(
                tuple(
                    _ZERO if i == j or not e.int_num else (d[i] - d[j]) * e
                    for j, e in enumerate(row)
                )
                for i, row in enumerate(self.entries)
            )
        )

    def __mul__(self, other):
        if isinstance(other, SymMatrix):
            if self.cols != other.rows:
                raise ValueError("inner dimension mismatch")
            # each column as its nonzero (k, b) once; a zero row gives zeros
            cols = [
                [(k, b) for k, b in enumerate(col) if b.int_num]
                for col in zip(*other.entries)
            ]
            zero_row = (_ZERO,) * other.cols
            return _matrix(
                tuple(
                    tuple(_dot(row, col) for col in cols)
                    if any(a.int_num for a in row)
                    else zero_row
                    for row in self.entries
                )
            )
        f = _as_fn_or_none(other)
        if f is None:
            return NotImplemented
        return _matrix(tuple(tuple(e * f for e in row) for row in self.entries))

    def __rmul__(self, other):
        f = _as_fn_or_none(other)
        if f is None:
            return NotImplemented
        return _matrix(tuple(tuple(f * e for e in row) for row in self.entries))

    def _match(self, other: "SymMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    # -- calculus, orders, evaluation ---------------------------------

    def derivative(self) -> "SymMatrix":
        return _matrix(
            tuple(tuple(e.differentiate() for e in row) for row in self.entries)
        )

    def max_leading_order(self) -> int | None:
        best: int | None = None
        for row in self.entries:
            for e in row:
                lo = e.leading_order()
                if lo is not None and (best is None or lo > best):
                    best = lo
        return best

    def order_at_most(self, exponent: Fraction) -> bool:
        """True when every entry is O(x**exponent) at infinity."""
        lo = self.max_leading_order()
        return lo is None or Fraction(lo) <= exponent

    def eval_exact(self, x) -> list[list[Fraction]]:
        x = Fraction(x)
        return [[e.eval_exact(x) for e in row] for row in self.entries]

    def float_table(self):
        """The form ``eval_float`` evaluates, built on the first call: the
        rows with every constant entry's float in place (0.0 where an entry
        varies with x), and ``(i, j, num, den)`` for each entry that varies,
        its numerator and denominator as ``RationalFn.float_table`` gives
        them.  The rows are the lists ``eval_float`` copies on each call:
        read them, never change them."""
        table = self._float_table
        if table is None:
            rows, varying = [], []
            for i, row in enumerate(self.entries):
                values = [e.float_table() for e in row]
                for j, v in enumerate(values):
                    if type(v) is not float:
                        varying.append((i, j, *v))
                        values[j] = 0.0
                rows.append(values)
            table = tuple(rows), tuple(varying)
            object.__setattr__(self, "_float_table", table)
        return table

    def eval_float(self, x: float) -> list[list[float]]:
        """Entries at x as fresh rows, each equal to its
        ``RationalFn.eval_float(x)``: the constant rows of ``float_table``
        copied, with Horner run only on the entries that vary with x.
        """
        rows, varying = self._float_table or self.float_table()
        out = [row.copy() for row in rows]
        ratio = poly.horner_ratio
        for i, j, num, den in varying:
            out[i][j] = ratio(num, den, x)
        return out

    def to_strings(self) -> list[list[str]]:
        return [[e.to_string() for e in row] for row in self.entries]

    def __repr__(self):
        body = "; ".join(", ".join(e.to_string() for e in row) for row in self.entries)
        return f"SymMatrix[{body}]"

    # -- inverse -------------------------------------------------------

    def inverse(self) -> "SymMatrix":
        """Gauss-Jordan elimination on [self | I], skipping zero entries."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        rows = [
            list(row) + [_ONE if j == i else _ZERO for j in range(n)]
            for i, row in enumerate(self.entries)
        ]
        for c in range(n):
            p = next((r for r in range(c, n) if rows[r][c].int_num), None)
            if p is None:
                raise ZeroDivisionError("matrix is singular as a rational-function matrix")
            pivot = rows[p]
            rows[c], rows[p] = pivot, rows[c]
            nonzero = [j for j in range(c + 1, 2 * n) if pivot[j].int_num]
            d = pivot[c]
            for j in nonzero:
                pivot[j] = pivot[j] / d
            # each row less f times the pivot row, every entry normalised once;
            # column c is never read again
            for row in rows:
                f = row[c]
                if row is pivot or not f.int_num:
                    continue
                for j in nonzero:
                    e, q = row[j], pivot[j]
                    term = (
                        poly.neg(poly.mul(f.int_num, q.int_num)),
                        poly.mul(f.int_den, q.int_den),
                    )
                    row[j] = _sum([(e.int_num, e.int_den), term] if e.int_num else [term])
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


def _matrix(rows: tuple[tuple[RationalFn, ...], ...]) -> SymMatrix:
    """The SymMatrix of ready RationalFn rows: nonempty tuples of one length."""
    m = object.__new__(SymMatrix)
    _fill(m, rows)
    return m


def _dot(row, col) -> RationalFn:
    """The sum of the products row[k]*b over the nonzero entries (k, b) of a
    column, each left unreduced for one normalisation."""
    pairs = [
        (poly.mul(a.int_num, b.int_num), poly.mul(a.int_den, b.int_den))
        for k, b in col
        if (a := row[k]).int_num
    ]
    return _sum(pairs) if pairs else _ZERO
