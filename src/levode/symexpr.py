"""Exact rational-function algebra and order-of-magnitude tools.

``RationalFn`` is an immutable reduced quotient of polynomials with exact
rational coefficients (monic denominator, gcd cancelled), so equal values
have equal representations.  Almost every denominator the reduction meets
is a power of x: such a quotient is reduced by slicing off the common power
of x, with no polynomial gcd, two of them add by shifting numerators and
multiply by adding exponents, and a zero operand short-circuits.  Other
denominators take the gcd.  ``SymMatrix`` is a dense matrix of them with
non-commutative products.  On top of the arithmetic the module provides

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

import re
from fractions import Fraction

from . import poly
from .poly import Coeffs


class ParseError(ValueError):
    """A string did not match the rational-function grammar."""


class PoleInDomain(ValueError):
    """The function has a pole on the half-line being bounded."""


class UnboundedAtInfinity(ValueError):
    """The function grows at infinity, so no finite sup exists."""


class BoundNotCertified(RuntimeError):
    """sup_bound could not bring its bound within rel_slack of an attained value."""


class RationalFn:
    """A reduced ratio of polynomials in one variable over the rationals."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=poly.ONE):
        num, den = _coeffs(num), _coeffs(den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        self._normalise(num, den)

    def _normalise(self, num: Coeffs, den: Coeffs) -> None:
        """Store num/den in lowest terms with a monic denominator.

        ``num`` and ``den`` are trimmed tuples of Fraction, ``den`` nonzero.
        A denominator c*x**k shares at most x**min(valuation(num), k) with
        the numerator, which is cancelled by slicing; any other denominator
        goes through ``poly.gcd``.
        """
        if not num:
            num, den = poly.ZERO, poly.ONE
        elif _x_exponent(den) is not None:
            v = min(poly.valuation(num), len(den) - 1)
            if v:
                num, den = num[v:], den[v:]
        else:
            g = poly.gcd(num, den)
            if poly.degree(g) > 0:
                num = poly.divmod_exact(num, g)[0]
                den = poly.divmod_exact(den, g)[0]
        lc = den[-1]
        if lc != 1:
            num = tuple(c / lc for c in num)
            den = tuple(c / lc for c in den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("RationalFn is immutable")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return RationalFn, (self.num, self.den)

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
        c = Fraction(c)
        if not c:
            return _ZERO
        if e >= 0:
            return _fn(poly.shift((c,), e), poly.ONE)
        return _fn((c,), poly.x_power(-e))

    # -- predicates and structure -------------------------------------

    @property
    def is_zero(self) -> bool:
        return poly.is_zero(self.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RationalFn.const(other)
        if not isinstance(other, RationalFn):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- ring operations ----------------------------------------------
    # Denominators are monic, so x**k is the only c*x**k form they take.

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
        if not o.num:
            return self
        if not self.num:
            return o
        (n1, d1), (n2, d2) = (self.num, self.den), (o.num, o.den)
        if d1 == d2:
            return _fn(poly.add(n1, n2), d1)
        k1, k2 = _x_exponent(d1), _x_exponent(d2)
        if k1 is not None and k2 is not None:
            k = max(k1, k2)
            num = poly.add(poly.shift(n1, k - k1), poly.shift(n2, k - k2))
            return _fn(num, d1 if k1 > k2 else d2)
        return _fn(poly.add(poly.mul(n1, d2), poly.mul(n2, d1)), poly.mul(d1, d2))

    __radd__ = __add__

    def __neg__(self):
        return _fn(poly.neg(self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not (self.num and o.num):
            return _ZERO
        k1, k2 = _x_exponent(self.den), _x_exponent(o.den)
        if k1 is not None and k2 is not None:
            den = poly.x_power(k1 + k2)
        else:
            den = poly.mul(self.den, o.den)
        return _fn(poly.mul(self.num, o.num), den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division by the zero function")
        return _fn(poly.mul(self.num, o.den), poly.mul(self.den, o.num))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return RationalFn.const(1) / self ** (-k)
        out = RationalFn.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- calculus and asymptotics -------------------------------------

    def differentiate(self) -> "RationalFn":
        n, d = self.num, self.den
        return _fn(
            poly.sub(poly.mul(poly.derivative(n), d), poly.mul(n, poly.derivative(d))),
            poly.mul(d, d),
        )

    def leading_order(self) -> int | None:
        """Exponent e with f ~ c*x^e at infinity; ``None`` for the zero function."""
        if self.is_zero:
            return None
        return poly.degree(self.num) - poly.degree(self.den)

    def leading_coefficient(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero function has no leading coefficient")
        return poly.leading(self.num) / poly.leading(self.den)

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
        d = poly.eval_at(self.den, x)
        if d == 0:
            raise ZeroDivisionError(f"pole at x = {x}")
        return poly.eval_at(self.num, x) / d

    def float_table(self) -> float | tuple[tuple[float, ...], tuple[float, ...] | None]:
        """The form ``eval_float`` evaluates.  A constant is its float value,
        which is its Horner value at every finite x (0.0*x + c == c); any
        other function is its numerator and denominator as
        ``poly.float_coeffs``, the denominator None when it is 1: the
        arguments of ``poly.horner_ratio``."""
        if self.den == poly.ONE and len(self.num) <= 1:
            return float(self.num[0]) if self.num else 0.0
        den = None if self.den == poly.ONE else poly.float_coeffs(self.den)
        return poly.float_coeffs(self.num), den

    def eval_float(self, x: float) -> float:
        table = self.float_table()
        return table if type(table) is float else poly.horner_ratio(*table, x)

    def has_pole_in(self, lo, hi=None) -> bool:
        """True when the denominator vanishes on [lo, hi], or on [lo, inf)
        when ``hi`` is None."""
        lo = Fraction(lo)
        if poly.degree(self.den) < 1:
            return False
        if lo > 0 and all(c >= 0 for c in self.den):
            # no sign change (x**k, x**k*(x + 1), ...): Descartes' rule
            # leaves no positive root, so skip the Sturm count
            return False
        if poly.eval_at(self.den, lo) == 0:
            return True
        hi = None if hi is None else Fraction(hi)
        return poly.count_roots_in(self.den, lo, hi) > 0

    # -- canonical text form -------------------------------------------

    def to_string(self) -> str:
        if self.is_zero:
            return "0"
        ints = poly._primitive_ints(self.num + self.den)
        ni, di = ints[: len(self.num)], ints[len(self.num):]
        num_s = _format_int_poly(ni)
        if len(di) == 1 and di[0] == 1:
            return num_s
        return f"({num_s})/({_format_int_poly(di)})"

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
        return cls(num, den)


def _coeffs(v) -> Coeffs:
    """A constant or an iterable of coefficient-like values as a polynomial."""
    return poly.constant(v) if isinstance(v, (int, Fraction)) else poly.make(v)


def _x_exponent(den: Coeffs) -> int | None:
    """k when ``den`` is c*x**k, else None."""
    k = len(den) - 1
    return None if any(den[:k]) else k


def _fn(num: Coeffs, den: Coeffs) -> RationalFn:
    """num/den through the normaliser: trimmed Fraction tuples, den nonzero."""
    if not num:
        return _ZERO
    f = object.__new__(RationalFn)
    f._normalise(num, den)
    return f


_ZERO = RationalFn(poly.ZERO)


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
    coeffs: dict[int, Fraction] = {}
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
        c = Fraction(int(coeff)) if coeff is not None else Fraction(1)
        if sign == "-":
            c = -c
        e = 0
        if var is not None:
            e = int(exp) if exp is not None else 1
        coeffs[e] = coeffs.get(e, Fraction(0)) + c
        pos = m.end()
        first = False
    top = max(coeffs) if coeffs else 0
    return poly.trim(tuple(coeffs.get(i, Fraction(0)) for i in range(top + 1)))


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
    n, d = f.num, f.den
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

    # _float_table: (rows, varying), built by the first eval_float: the rows
    # with every constant entry's value in place, and (i, j, num, den) for
    # each entry that varies with x
    __slots__ = ("rows", "cols", "entries", "_float_table")

    def __init__(self, entries):
        rows = tuple(tuple(_as_fn(e) for e in row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("SymMatrix needs at least one row and column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows in SymMatrix")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "_float_table", None)

    def __setattr__(self, *a):
        raise AttributeError("SymMatrix is immutable")

    def __reduce__(self):  # rebuilt through __init__, without _float_table
        return SymMatrix, (self.entries,)

    # -- constructors --------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int | None = None) -> "SymMatrix":
        cols = rows if cols is None else cols
        z = RationalFn.const(0)
        return cls([[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "SymMatrix":
        one = RationalFn.const(1)
        z = RationalFn.const(0)
        return cls([[one if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, values) -> "SymMatrix":
        vals = [_as_fn(v) for v in values]
        z = RationalFn.const(0)
        return cls(
            [[vals[i] if i == j else z for j in range(len(vals))] for i in range(len(vals))]
        )

    # -- structure -----------------------------------------------------

    def entry(self, i: int, j: int) -> RationalFn:
        return self.entries[i][j]

    def with_entry(self, i: int, j: int, value) -> "SymMatrix":
        rows = [list(r) for r in self.entries]
        rows[i][j] = _as_fn(value)
        return SymMatrix(rows)

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
        z = RationalFn.const(0)
        return SymMatrix(
            [
                [z if i == j else self.entries[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, SymMatrix):
            return NotImplemented
        self._match(other)
        return SymMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other):
        if not isinstance(other, SymMatrix):
            return NotImplemented
        self._match(other)
        return SymMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __neg__(self):
        return SymMatrix([[-e for e in row] for row in self.entries])

    def __mul__(self, other):
        if isinstance(other, SymMatrix):
            if self.cols != other.rows:
                raise ValueError("inner dimension mismatch")
            cols = list(zip(*other.entries))
            return SymMatrix(
                [
                    [_dot(row, col) for col in cols]
                    for row in self.entries
                ]
            )
        f = _as_fn_or_none(other)
        if f is None:
            return NotImplemented
        return SymMatrix([[e * f for e in row] for row in self.entries])

    def __rmul__(self, other):
        f = _as_fn_or_none(other)
        if f is None:
            return NotImplemented
        return SymMatrix([[f * e for e in row] for row in self.entries])

    def _match(self, other: "SymMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    # -- calculus, orders, evaluation ---------------------------------

    def derivative(self) -> "SymMatrix":
        return SymMatrix([[e.differentiate() for e in row] for row in self.entries])

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

    def eval_float(self, x: float) -> list[list[float]]:
        """Entries at x as fresh rows, each equal to its
        ``RationalFn.eval_float(x)``.

        The first call rounds the coefficients to floats and builds the rows
        of constant entries once; every call copies those rows and runs
        Horner only on the entries that vary with x.
        """
        table = self._float_table
        if table is None:
            rows, varying = [], []
            for i, row in enumerate(self.entries):
                values = [e.float_table() for e in row]
                for j, v in enumerate(values):
                    if type(v) is not float:
                        varying.append((i, j, *v))
                        values[j] = 0.0  # overwritten on every call
                rows.append(values)
            table = rows, tuple(varying)
            object.__setattr__(self, "_float_table", table)
        rows, varying = table
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

    # -- inverse via adjugate (small sizes only) -----------------------

    def det(self) -> RationalFn:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 1:
            return self.entries[0][0]
        total = RationalFn.const(0)
        sign = 1
        for j in range(n):
            minor = SymMatrix(
                [
                    [self.entries[i][k] for k in range(n) if k != j]
                    for i in range(1, n)
                ]
            )
            total = total + RationalFn.const(sign) * self.entries[0][j] * minor.det()
            sign = -sign
        return total

    def inverse(self) -> "SymMatrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        d = self.det()
        if d.is_zero:
            raise ZeroDivisionError("matrix is singular as a rational-function matrix")
        if n == 1:
            return SymMatrix([[RationalFn.const(1) / d]])
        cof = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                minor = SymMatrix(
                    [
                        [self.entries[r][c] for c in range(n) if c != j]
                        for r in range(n) if r != i
                    ]
                )
                s = -1 if (i + j) % 2 else 1
                cof[i][j] = RationalFn.const(s) * minor.det()
        # adjugate is the transposed cofactor matrix
        return SymMatrix([[cof[j][i] / d for j in range(n)] for i in range(n)])


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


def _dot(row, col) -> RationalFn:
    acc = RationalFn.const(0)
    for a, b in zip(row, col):
        if not (a.is_zero or b.is_zero):
            acc = acc + a * b
    return acc
