"""Problem definition, validation, and (de)serialization.

A problem is a linear system Z' = rho(x){Lambda(x) + R(x)}Z on a half-line
[X, infinity).  Lambda is diagonal with two magnitude scales: the first N
entries are lambda(x)*d_k plus a bounded correction, the remaining n - N
are d_k plus a decaying correction.  R is given as a ladder of matrices
V_j of orders O(x**(-j*a)) plus a remainder E1 already at the target
accuracy O(x**(-M*a)).  ``ProblemSpec`` holds all of this exactly;
``load_problem`` builds one from a JSON document and enforces every
structural invariant with a named error.

Two modes are supported.  ``standard`` requires 1/rho = O(x**(1-K*a))
with K >= 1.  ``inverse_x`` is the rho(x) = 1/x case, where the
elimination step divides by d_j - d_i - s per decay exponent s of the
small-block entry it eliminates; the engine raises a resonance when one
of those denominators is zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from .errors import InvalidInput
from .symexpr import MAX_DEGREE, ParseError, RationalFn, SymMatrix

STANDARD = "standard"
INVERSE_X = "inverse_x"

# The largest accuracy index M a problem may ask for.  The reduction makes
# M - 1 iterations, and the degrees of its matrices and of the residual the
# error bounds work on grow with each one.  On the built-in problem with a
# zero E1 (one CPU of a 2-vCPU Xeon host), `levode solve -k 3` takes
# 0.4-0.6 s at M = 30, 0.7-0.9 s at M = 36 and 1.0-1.2 s at M = 40, most of
# it in the reduction and in forming the critical polynomials of sup_bound.
MAX_M = 36


class SchemaError(InvalidInput):
    """The problem document is missing a field or has an ill-typed one."""


class InvariantViolation(InvalidInput):
    """The problem document is well-formed but breaks a structural rule."""


class ModeError(InvalidInput):
    """An operation was invoked in the wrong mode."""


@dataclass(frozen=True)
class Monomial:
    """c * x**e with an exact rational c != 0 and integer e."""

    coefficient: Fraction
    exponent: int

    @property
    def fn(self) -> RationalFn:
        return RationalFn.monomial(self.coefficient, self.exponent)


@dataclass(frozen=True)
class ProblemSpec:
    """A validated problem.  The derived constants (rho_fn, lam_fn, rho_inv,
    Lambda_0 and Lambda_1) are computed on first use and kept on
    the instance.  They are not fields: equality, hash and repr see only
    the problem itself, and a spec built by ``replace`` computes its own."""

    n: int
    N: int
    d_large: tuple[Fraction, ...]
    d_small: tuple[Fraction, ...]
    rho: Monomial
    lam: Monomial
    phi1_large: tuple[RationalFn, ...]
    phi1_small: tuple[RationalFn, ...]
    ladder: tuple[tuple[int, SymMatrix], ...]
    E1: SymMatrix
    a: Fraction
    K: int
    L: int
    M: int
    mode: str
    X: Fraction
    back_transform: SymMatrix | None = None

    # -- derived views -------------------------------------------------

    @property
    def d(self) -> tuple[Fraction, ...]:
        return self.d_large + self.d_small

    def is_large(self, i: int) -> bool:
        """Whether 0-based index i belongs to the lambda-scaled block."""
        return i < self.N

    @property
    def accuracy_exponent(self) -> Fraction:
        return -self.M * self.a

    @cached_property
    def rho_fn(self) -> RationalFn:
        return self.rho.fn

    @cached_property
    def lam_fn(self) -> RationalFn:
        return self.lam.fn

    @cached_property
    def rho_inv(self) -> RationalFn:
        return RationalFn.const(1) / self.rho_fn

    @property
    def phi1(self) -> tuple[RationalFn, ...]:
        return self.phi1_large + self.phi1_small

    @cached_property
    def _lambda0(self) -> tuple[RationalFn, ...]:
        lam = self.lam_fn
        out = []
        for i, di in enumerate(self.d):
            base = RationalFn.const(di)
            out.append(lam * base if self.is_large(i) else base)
        return tuple(out)

    def lambda0_diagonal(self) -> tuple[RationalFn, ...]:
        return self._lambda0

    @cached_property
    def _lambda1(self) -> tuple[RationalFn, ...]:
        return tuple(base + phi for base, phi in zip(self._lambda0, self.phi1))

    def lambda1_diagonal(self) -> tuple[RationalFn, ...]:
        return self._lambda1

    def ladder_rung(self, j: int) -> SymMatrix | None:
        for jj, V in self.ladder:
            if jj == j:
                return V
        return None

    def with_X(self, X) -> "ProblemSpec":
        return replace(self, X=Fraction(X))

    def with_M(self, M: int) -> "ProblemSpec":
        """The problem at accuracy index M: the rungs j < M are kept and
        the rest are folded into E1.  Unvalidated, like ``with_X``."""
        return replace(
            self,
            M=M,
            ladder=tuple((j, V) for j, V in self.ladder if j < M),
            E1=SymMatrix.sum([self.E1, *(V for j, V in self.ladder if j >= M)]),
        )


@dataclass(frozen=True)
class ResonanceHit:
    """m*a equals d_j - d_i for a pair of 1-based small-block indices."""

    m: int
    i: int
    j: int


@dataclass(frozen=True)
class ResonanceReport:
    hits: tuple[ResonanceHit, ...]
    sufficient_condition_holds: bool

    @property
    def ok(self) -> bool:
        return not self.hits


def validate_resonance(spec: ProblemSpec) -> ResonanceReport:
    """List every (m, i, j) with m*a = d_j - d_i over the small block.

    No command runs this screen: the elimination decides a resonance
    itself, from the zero denominator d_j - d_i - s it meets.  The
    ``hits`` are neither necessary nor sufficient for one, since the
    decay exponents s of an entry need not be multiples of a, and a hit
    whose entries are zero divides by nothing.  The sufficient condition
    max(d_j - d_i) < a stays sufficient, because every s >= a.  Raises
    ModeError outside inverse_x mode.
    """
    if spec.mode != INVERSE_X:
        raise ModeError("resonance screening applies to inverse_x mode only")
    hits = []
    small = spec.d_small
    for m in range(1, spec.M):
        for i, di in enumerate(small):
            for j, dj in enumerate(small):
                if i != j and m * spec.a == dj - di:
                    hits.append(ResonanceHit(m, spec.N + i + 1, spec.N + j + 1))
    max_diff = max(
        (dj - di for di in small for dj in small), default=Fraction(0)
    )
    return ResonanceReport(tuple(hits), max_diff < spec.a)


# -- validation --------------------------------------------------------


def _lo(f: RationalFn) -> Fraction | None:
    e = f.leading_order()
    return None if e is None else Fraction(e)


def validate(spec: ProblemSpec) -> ProblemSpec:
    """Check every structural invariant; return the input unchanged."""
    n, N = spec.n, spec.N
    if n < 1:
        raise InvariantViolation("dimension n must be at least 1")
    if not 0 <= N < n:
        raise InvariantViolation(f"large-block size N={N} must satisfy 0 <= N < n={n}")
    if spec.M < 2:
        raise InvariantViolation(f"accuracy index M={spec.M} must be at least 2")
    if spec.M > MAX_M:
        raise InvariantViolation(f"accuracy index M={spec.M} exceeds the limit {MAX_M}")
    if spec.a <= 0:
        raise InvariantViolation("order scale a must be positive")
    if spec.L < 1:
        raise InvariantViolation("L must be a positive integer")
    if spec.X <= 0:
        raise InvariantViolation("evaluation point X must be positive")
    if spec.mode not in (STANDARD, INVERSE_X):
        raise InvariantViolation(f"unknown mode {spec.mode!r}")
    if spec.rho.coefficient == 0 or spec.lam.coefficient == 0:
        raise InvariantViolation("rho and lambda coefficients must be nonzero")

    if len(spec.d_large) != N:
        raise InvariantViolation(f"D_large must have {N} entries")
    if len(spec.d_small) != n - N:
        raise InvariantViolation(f"D_small must have {n - N} entries")
    _check_distinct(spec.d_large, "D_large")
    _check_distinct(spec.d_small, "D_small")
    for idx, di in enumerate(spec.d_large):
        if di == 0:
            raise InvariantViolation(
                f"D_large entry {idx + 1} is zero; large-block eliminations divide by it"
            )

    if spec.mode == INVERSE_X:
        if spec.rho.coefficient != 1 or spec.rho.exponent != -1:
            raise InvariantViolation("inverse_x mode requires rho(x) = 1/x exactly")
    else:
        if spec.K < 1:
            raise InvariantViolation(
                "standard mode requires K >= 1; for rho(x) = 1/x use inverse_x mode"
            )
        # 1/rho = O(x^(1-K*a))
        if -spec.rho.exponent > 1 - spec.K * spec.a:
            raise InvariantViolation(
                f"rho exponent {spec.rho.exponent} too small for K={spec.K}: "
                f"need 1/rho = O(x^(1-K*a)); for rho(x) = 1/x use inverse_x mode"
            )
    if N >= 1 and spec.lam.exponent < spec.L * spec.a:
        raise InvariantViolation(
            f"lambda exponent {spec.lam.exponent} must be at least L*a = {spec.L * spec.a}"
        )

    if len(spec.phi1_large) != N:
        raise InvariantViolation(f"phi1 must provide {N} large-block entries")
    if len(spec.phi1_small) != n - N:
        raise InvariantViolation(f"phi1 must provide {n - N} small-block entries")
    for idx, f in enumerate(spec.phi1_large):
        lo = _lo(f)
        if lo is not None and lo > 0:
            raise InvariantViolation(
                f"phi1 entry {idx + 1} diverges at infinity; it must tend to a constant"
            )
        tail = f - f.limit_at_infinity()
        lo = _lo(tail)
        if lo is not None and lo > -spec.a:
            raise InvariantViolation(
                f"phi1 entry {idx + 1} must be its limit + O(x^(-a)); "
                f"found decay exponent {lo}"
            )
    for idx, f in enumerate(spec.phi1_small):
        lo = _lo(f)
        if lo is not None and lo > -spec.a:
            raise InvariantViolation(
                f"phi1 entry {N + idx + 1} must be O(x^(-a)); found exponent {lo}"
            )

    seen: set[int] = set()
    for j, V in spec.ladder:
        if not 1 <= j <= spec.M - 1:
            raise InvariantViolation(
                f"ladder index j={j} outside 1..M-1 = 1..{spec.M - 1}"
            )
        if j in seen:
            raise InvariantViolation(f"duplicate ladder index j={j}")
        seen.add(j)
        _check_shape(V, n, f"V_{j}1")
        for r in range(n):
            for c in range(n):
                lo = _lo(V.entry(r, c))
                if lo is not None and lo > -j * spec.a:
                    raise InvariantViolation(
                        f"V_{j}1 entry ({r + 1},{c + 1}) has order x^{lo}, "
                        f"larger than O(x^(-{j}a))"
                    )
            if j == 1 and not V.entry(r, r).is_zero:
                raise InvariantViolation(f"dg V_11 nonzero at ({r + 1},{r + 1})")

    _check_shape(spec.E1, n, "E1")
    for r in range(n):
        for c in range(n):
            lo = _lo(spec.E1.entry(r, c))
            if lo is not None and lo > spec.accuracy_exponent:
                raise InvariantViolation(
                    f"E1 entry ({r + 1},{c + 1}) has order x^{lo}, "
                    f"larger than the accuracy O(x^({spec.accuracy_exponent}))"
                )
    if spec.back_transform is not None:
        _check_shape(spec.back_transform, n, "back_transform")

    named_rows = [("phi1", (spec.phi1,)), ("E1", spec.E1.entries)]
    named_rows += [(f"V_{j}1", V.entries) for j, V in spec.ladder]
    if spec.back_transform is not None:
        named_rows.append(("back_transform", spec.back_transform.entries))
    for name, rows in named_rows:
        for row in rows:
            for f in row:
                if f.has_pole_in(spec.X):
                    raise InvariantViolation(
                        f"{name} entry {f.to_string()} has a pole on [{spec.X}, inf)"
                    )
    return spec


def _check_distinct(values: tuple[Fraction, ...], name: str) -> None:
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if values[i] == values[j]:
                raise InvariantViolation(
                    f"duplicate entry in {name} at positions {i + 1} and {j + 1}"
                )


def _check_shape(mat: SymMatrix, n: int, name: str) -> None:
    if mat.rows != n or mat.cols != n:
        raise InvariantViolation(f"{name} must be {n}x{n}")


# -- document parsing --------------------------------------------------

_REQUIRED = (
    "n", "N", "D_large", "D_small", "rho", "lambda",
    "phi1", "ladder", "E1", "a", "L", "M", "mode", "X",
)


def load_problem(document) -> ProblemSpec:
    """Build a validated ProblemSpec from a JSON text or a parsed dict."""
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise SchemaError("problem document must be a JSON object")
    for field in _REQUIRED:
        if field not in document:
            raise SchemaError(f"missing field {field!r}")

    n = _int_field(document, "n")
    N = _int_field(document, "N")
    mode = document["mode"]
    if mode == STANDARD and "K" not in document:
        raise SchemaError("missing field 'K' (required in standard mode)")
    K = _int_field(document, "K") if mode == STANDARD else 0

    spec = ProblemSpec(
        n=n,
        N=N,
        d_large=tuple(_rational(v, "D_large") for v in _list_field(document, "D_large")),
        d_small=tuple(_rational(v, "D_small") for v in _list_field(document, "D_small")),
        rho=_monomial(document["rho"], "rho"),
        lam=_monomial(document["lambda"], "lambda"),
        phi1_large=tuple(
            _fn(v, "phi1") for v in _list_field(document, "phi1")[:N]
        ),
        phi1_small=tuple(
            _fn(v, "phi1") for v in _list_field(document, "phi1")[N:]
        ),
        ladder=_ladder(document["ladder"], n),
        E1=_matrix(document["E1"], "E1"),
        a=_rational(document["a"], "a"),
        K=K,
        L=_int_field(document, "L"),
        M=_int_field(document, "M"),
        mode=mode,
        X=_rational(document["X"], "X"),
        back_transform=(
            _matrix(document["back_transform"], "back_transform")
            if document.get("back_transform") is not None
            else None
        ),
    )
    return validate(spec)


def serialize_problem(spec: ProblemSpec) -> dict:
    """Dict form of a spec; load_problem(json.dumps(...)) round-trips."""
    doc = {
        "n": spec.n,
        "N": spec.N,
        "D_large": [str(v) for v in spec.d_large],
        "D_small": [str(v) for v in spec.d_small],
        "rho": {"coeff": str(spec.rho.coefficient), "exp": spec.rho.exponent},
        "lambda": {"coeff": str(spec.lam.coefficient), "exp": spec.lam.exponent},
        "phi1": [f.to_string() for f in spec.phi1],
        "ladder": [
            {"j": j, "matrix": V.to_strings()} for j, V in spec.ladder
        ],
        "E1": spec.E1.to_strings(),
        "a": str(spec.a),
        "K": spec.K,
        "L": spec.L,
        "M": spec.M,
        "mode": spec.mode,
        "X": str(spec.X),
    }
    if spec.back_transform is not None:
        doc["back_transform"] = spec.back_transform.to_strings()
    return doc


def _int_field(doc: dict, name: str) -> int:
    v = doc[name]
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"field {name!r} must be an integer, got {v!r}")
    return v


def _list_field(doc: dict, name: str) -> list:
    v = doc[name]
    if not isinstance(v, list):
        raise SchemaError(f"field {name!r} must be a list")
    return v


def _rational(v, where: str) -> Fraction:
    if isinstance(v, bool) or isinstance(v, float):
        raise SchemaError(f"{where}: rationals must be integers or 'p/q' strings, got {v!r}")
    try:
        return Fraction(v)
    except (ValueError, TypeError, ZeroDivisionError):
        raise SchemaError(f"{where}: cannot read {v!r} as a rational") from None


def _monomial(v, where: str) -> Monomial:
    if not isinstance(v, dict) or "coeff" not in v or "exp" not in v:
        raise SchemaError(f"{where} must be an object with 'coeff' and 'exp'")
    coeff = _rational(v["coeff"], where)
    exp = _rational(v["exp"], where)
    if exp.denominator != 1:
        raise InvariantViolation(
            f"exponent of {where} must be an integer for the symbolic engine"
        )
    if abs(exp) > MAX_DEGREE:
        raise InvariantViolation(f"exponent of {where} exceeds the limit {MAX_DEGREE}")
    return Monomial(coeff, int(exp))


def _fn(v, where: str) -> RationalFn:
    if not isinstance(v, str):
        raise SchemaError(f"{where}: expected a rational-function string, got {v!r}")
    try:
        return RationalFn.parse(v)
    except ParseError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def _matrix(v, where: str) -> SymMatrix:
    if not isinstance(v, list) or not all(isinstance(row, list) for row in v):
        raise SchemaError(f"{where} must be a matrix (list of rows)")
    if not v or not v[0] or any(len(row) != len(v[0]) for row in v):
        raise SchemaError(f"{where} must have nonempty rows of equal length")
    return SymMatrix([[_fn(e, where) for e in row] for row in v])


def _ladder(v, n: int) -> tuple[tuple[int, SymMatrix], ...]:
    if not isinstance(v, list):
        raise SchemaError("ladder must be a list of {j, matrix} objects")
    rungs = []
    for item in v:
        if not isinstance(item, dict) or "j" not in item or "matrix" not in item:
            raise SchemaError("each ladder item needs 'j' and 'matrix'")
        j = item["j"]
        if isinstance(j, bool) or not isinstance(j, int):
            raise SchemaError(f"ladder index j must be an integer, got {j!r}")
        rungs.append((j, _matrix(item["matrix"], f"V_{j}1")))
    rungs.sort(key=lambda t: t[0])
    return tuple(rungs)
