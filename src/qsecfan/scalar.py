"""Exact arithmetic in Q and in a real quadratic field Q(sqrt(m)).

A scalar is a + b*sqrt(m) with rational a, b and a squarefree integer
m >= 2; values with b == 0 are canonicalized to the rational-only form
(m is dropped).  It is stored as plain integers (p, q, den, m) meaning
(p + q*sqrt(m))/den, with den > 0 and gcd(p, q, den) == 1, so equal
values have equal fields.  The public constructor makes m squarefree
once; arithmetic builds its results straight from integers, and hash()
and to_json() read the integers too, giving the hash and the "p/q" text
of the Fractions a and b without building them.  All
comparisons are exact: the sign of p + q*sqrt(m) is decided by comparing
p^2 against q^2*m with sign bookkeeping, never through floating point.
A single computation may mix rational-only scalars with scalars of one
fixed m, but never two distinct radicals.

For the many sign tests of one vector against another (is chi on the
positive side of a form?), encode() writes a vector as integer
coordinates over a shared denominator, and dot_sign() decides the sign
of a dot product with integer sums and the same comparison, building no
Scalar and taking no gcd.

For the minors a calibration reads, minor_table() writes the rows over
their least common denominator and computes, in one integer pass, the
cofactor normal of every d-1 rows and the bracket of every d rows, as
one integer dot each; MinorTable reads signs and codes off them, and
builds brackets, normals, circuits and basic points (Cramer's rule,
divided once by a conjugate) as Scalars only where they are output.
"""

from __future__ import annotations

import math
import numbers
import re
import sys
from fractions import Fraction as Rational
from itertools import combinations
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import DegenerateInputError, DimensionMismatchError, MixedFieldError

RationalLike = Union[int, str, Rational]

_ZERO = Rational(0)
_HASH_P, _HASH_INF = sys.hash_info.modulus, sys.hash_info.inf
MAX_RADICAND = 2 ** 32  # bounds trial division to sqrt(m) at about 33k steps


def _squarefree_split(m: int) -> tuple[int, int]:
    """Return (s, m') with m = s^2 * m' and m' squarefree."""
    if not 0 < m <= MAX_RADICAND:
        raise ValueError(f"radicand must lie in 1..{MAX_RADICAND}, got {m}")
    s, rest, p = 1, m, 2
    while p * p <= rest:
        while rest % (p * p) == 0:
            rest //= p * p
            s *= p
        p += 1 if p == 2 else 2
    return s, rest


def common_field(m1: int | None, m2: int | None) -> int | None:
    if m1 is None:
        return m2
    if m2 is None or m1 == m2:
        return m1
    raise MixedFieldError(f"cannot mix sqrt({m1}) and sqrt({m2})")


class Scalar:
    """An exact element a + b*sqrt(m) of Q or of a real quadratic field.

    Immutable: the parts are read-only properties, and the integer fields
    (p, q, den, m) of the module docstring are never written after the
    scalar is built.
    """

    __slots__ = ("_p", "_q", "_den", "_m")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0, m: int | None = None):
        if type(a) is int and b == 0:
            self._p, self._q, self._den, self._m = a, 0, 1, None
            return
        a = Rational(a)
        b = Rational(b)
        if b != 0:
            if m is None:
                raise ValueError("irrational part requires a radicand m")
            s, m = _squarefree_split(int(m))
            b *= s
            if m == 1:
                a, b, m = a + b, _ZERO, None
        if b == 0:
            m = None
        da, db = int(a.denominator), int(b.denominator)
        den = da // gcd(da, db) * db
        # a and b are in lowest terms, so gcd(p, q, den) == 1 already
        self._p = int(a.numerator) * (den // da)
        self._q = int(b.numerator) * (den // db)
        self._den = den
        self._m = m

    # -- constructors -------------------------------------------------

    @classmethod
    def sqrt(cls, m: int) -> "Scalar":
        return cls(0, 1, m)

    @classmethod
    def coerce(cls, x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, int):
            return _raw(int(x), 0, 1, None)
        if isinstance(x, numbers.Rational):  # a Fraction, or any other exact rational
            return _raw(int(x.numerator), 0, int(x.denominator), None)
        if isinstance(x, str):
            return cls(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to Scalar")

    # -- parts -----------------------------------------------------------

    @property
    def a(self):
        """The rational part."""
        return Rational(self._p, self._den)

    @property
    def b(self):
        """The coefficient of sqrt(m); zero for a rational scalar."""
        return Rational(self._q, self._den) if self._q else _ZERO

    @property
    def m(self) -> int | None:
        """The squarefree radicand, or None for a rational scalar."""
        return self._m

    # -- predicates ----------------------------------------------------

    def is_rational(self) -> bool:
        return self._m is None

    def is_zero(self) -> bool:
        return self._p == 0 and self._q == 0

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}, decided by integer comparisons."""
        return _sign(self._p, self._q, self._m)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "Scalar":
        if type(other) is not Scalar:
            other = Scalar.coerce(other)
        m = self._m if self._m == other._m else common_field(self._m, other._m)
        d1, d2 = self._den, other._den
        if d1 == d2:
            return _reduced(self._p + other._p, self._q + other._q, d1, m)
        return _reduced(self._p * d2 + other._p * d1, self._q * d2 + other._q * d1, d1 * d2, m)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return _raw(-self._p, -self._q, self._den, self._m)

    def __sub__(self, other) -> "Scalar":
        if type(other) is not Scalar:
            other = Scalar.coerce(other)
        m = self._m if self._m == other._m else common_field(self._m, other._m)
        d1, d2 = self._den, other._den
        if d1 == d2:
            return _reduced(self._p - other._p, self._q - other._q, d1, m)
        return _reduced(self._p * d2 - other._p * d1, self._q * d2 - other._q * d1, d1 * d2, m)

    def __rsub__(self, other) -> "Scalar":
        return (-self) + other

    def __mul__(self, other) -> "Scalar":
        if type(other) is not Scalar:
            other = Scalar.coerce(other)
        m = self._m if self._m == other._m else common_field(self._m, other._m)
        p1, q1, p2, q2 = self._p, self._q, other._p, other._q
        if m is None:
            return _reduced(p1 * p2, 0, self._den * other._den, None)
        return _reduced(p1 * p2 + q1 * q2 * m, p1 * q2 + q1 * p2, self._den * other._den, m)

    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        p, q, den = self._p, self._q, self._den
        if q == 0:
            if p == 0:
                raise DegenerateInputError("inversion of zero")
            return _raw(den, 0, p, None) if p > 0 else _raw(-den, 0, -p, None)
        norm = p * p - q * q * self._m  # nonzero: m squarefree
        return _reduced(den * p, -den * q, norm, self._m)

    def __truediv__(self, other) -> "Scalar":
        return self * Scalar.coerce(other).inv()

    def __rtruediv__(self, other) -> "Scalar":
        return Scalar.coerce(other) * self.inv()

    def __abs__(self) -> "Scalar":
        return -self if self.sign() < 0 else self

    # -- order and identity ---------------------------------------------

    def __eq__(self, other) -> bool:
        if type(other) is not Scalar:
            try:
                other = Scalar.coerce(other)
            except TypeError:
                return NotImplemented
        return (self._p == other._p and self._q == other._q
                and self._den == other._den and self._m == other._m)

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __hash__(self):
        """hash(a) when b == 0, else hash((a, b, m)), with a and b as Fractions."""
        if self._q == 0:
            return _ratio_hash(self._p, self._den)
        return hash((_ratio_hash(self._p, self._den), _ratio_hash(self._q, self._den), self._m))

    def __bool__(self):
        return not self.is_zero()

    # -- output ----------------------------------------------------------

    def __float__(self) -> float:
        a, b = self.a, self.b
        x = float(a.numerator) / float(a.denominator)
        if b != 0:
            x += float(b.numerator) / float(b.denominator) * math.sqrt(self._m)
        return x

    def __repr__(self) -> str:
        if self._q == 0:
            return f"Scalar({self.a})"
        return f"Scalar({self.a} + {self.b}*sqrt({self._m}))"

    def to_json(self) -> dict:
        if self._q == 0:
            return {"a": _ratio_text(self._p, self._den)}
        return {"a": _ratio_text(self._p, self._den), "b": _ratio_text(self._q, self._den),
                "m": self._m}

    @classmethod
    def from_json(cls, data) -> "Scalar":
        """Accept the canonical object form plus int / "p/q" shorthands; a
        float or a boolean is no part of either, nor is a zero denominator,
        and m is absent, null or an integer in 1..MAX_RADICAND whatever b
        is.  An int or a "p" or "p/q" text of ASCII digits with no b is read
        without a Fraction."""
        parts = {"a": data} if isinstance(data, (int, str)) else data
        if not isinstance(parts, dict) or any(type(parts.get(k)) in (bool, float) for k in "abm"):
            raise ValueError(f"not a scalar encoding: {data!r}")
        a, b, m = parts["a"], parts.get("b", 0), parts.get("m")
        if m is not None and not (type(m) is int and 0 < m <= MAX_RADICAND):
            raise ValueError(f"radicand must lie in 1..{MAX_RADICAND}, got {m!r}")
        if b == 0 and (type(a) is int or type(a) is str and _RATIO_TEXT.fullmatch(a)):
            p, _, den = str(a).partition("/")
            return _reduced(int(p), 0, int(den or 1), None)
        try:
            a, b = Rational(a), Rational(b)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in a scalar encoding: {data!r}") from None
        return cls(a, b, m)


_new = object.__new__
_RATIO_TEXT = re.compile(r"-?[0-9]+(/[0-9]*[1-9][0-9]*)?")  # "p" or "p/q", q > 0


def _raw(p: int, q: int, den: int, m: int | None) -> Scalar:
    """The Scalar with fields (p, q, den, m), which must already be canonical."""
    x = _new(Scalar)
    x._p, x._q, x._den, x._m = p, q, den, m
    return x


def _reduced(p: int, q: int, den: int, m: int | None) -> Scalar:
    """The Scalar (p + q*sqrt(m))/den for integers with den != 0 and m
    squarefree (or None when q == 0): fixes den's sign, divides out the
    common factor, and drops m when q == 0."""
    if q == 0:
        m = None
    if den != 1:
        g = gcd(p, q, den)
        if den < 0:
            g = -g
        if g != 1:
            p //= g
            q //= g
            den //= g
    return _raw(p, q, den, m)


def _ratio_hash(p: int, den: int) -> int:
    """hash(Fraction(p, den)) for den > 0, by the numeric-hash rule of the
    Python docs: |p|/den modulo P = sys.hash_info.modulus (sys.hash_info.inf
    when P divides den in lowest terms), with the sign of p and -1 as -2."""
    if den == 1:
        return hash(p)
    g = gcd(p, den)
    p, den = p // g, den // g
    h = _HASH_INF if den % _HASH_P == 0 else hash(hash(abs(p)) * pow(den, -1, _HASH_P))
    return h if p >= 0 else -2 if h == 1 else -h


def _ratio_text(p: int, den: int) -> str:
    """str(Fraction(p, den)) for den > 0: "p" or "p/den" in lowest terms."""
    g = gcd(p, den)
    return str(p // g) if g == den else f"{p // g}/{den // g}"


def _sign(p: int, q: int, m: int | None) -> int:
    """The sign of p + q*sqrt(m) for integers p, q and squarefree m (any
    m when q == 0)."""
    if q == 0:
        return (p > 0) - (p < 0)
    sq = 1 if q > 0 else -1
    if p == 0 or (p > 0) == (q > 0):
        return sq
    # opposite signs: compare |p| with |q|*sqrt(m) via squares, which
    # cannot tie for q != 0 and squarefree m >= 2
    return -sq if p * p > q * q * m else sq


S0 = Scalar(0)
S1 = Scalar(1)


class IntVec(NamedTuple):
    """A vector (x_1, ..., x_k) of Scalars as integers: p_i + q_i*sqrt(m)
    is lam*x_i for one lam > 0 of Q(sqrt(m)), which is not kept (encode's
    is an integer L), so they give the signs of x against any other vector.
    q and m are None only when every entry is rational."""

    p: tuple[int, ...]
    q: tuple[int, ...] | None
    m: int | None

    def __neg__(self) -> "IntVec":
        """encode(-x) for self = encode(x)."""
        return IntVec(tuple(-x for x in self.p),
                      None if self.q is None else tuple(-x for x in self.q), self.m)


def _field_and_den(xs: Sequence[Scalar]) -> tuple[int | None, int]:
    """The one radical of xs (None when all are rational) and the least
    common denominator L of their entries (1 for none); raises
    MixedFieldError when the entries carry two distinct radicals."""
    m = None
    for x in xs:
        if x._m is not None and x._m != m:
            m = common_field(m, x._m)
    return m, lcm(*[x._den for x in xs])


def encode(xs: Sequence[Scalar]) -> IntVec:
    """The IntVec of xs, over the least common denominator L; raises
    MixedFieldError when the entries carry two distinct radicals."""
    m, L = _field_and_den(xs)
    p = tuple(x._p * (L // x._den) for x in xs)
    q = None if m is None else tuple(x._q * (L // x._den) for x in xs)
    return IntVec(p, q, m)


def dot_sign(u: IntVec, v: IntVec) -> int:
    """sign(dot(x, y)) for u = encode(x) and v = encode(y), from integer
    sums: (a + b*sqrt(m)).(c + e*sqrt(m)) = a.c + m*b.e + (a.e + b.c)*sqrt(m).
    Lengths must match (DimensionMismatchError otherwise, as dot raises);
    two distinct radicals raise MixedFieldError, also where every product
    that meets them is zero and dot would return."""
    a, c = u.p, v.p
    if len(a) != len(c):
        raise DimensionMismatchError(f"dot of lengths {len(a)} and {len(c)}")
    p = sum(map(mul, a, c))
    if u.m is None:
        if v.m is None:
            return (p > 0) - (p < 0)
        return _sign(p, sum(map(mul, a, v.q)), v.m)
    if v.m is None:
        return _sign(p, sum(map(mul, u.q, c)), u.m)
    m = u.m if u.m == v.m else common_field(u.m, v.m)
    p += m * sum(map(mul, u.q, v.q))
    return _sign(p, sum(map(mul, a, v.q)) + sum(map(mul, u.q, c)), m)


def divided(pairs: Iterable[tuple[int, int]], den: tuple[int, int], m: int | None) -> tuple[Scalar, ...]:
    """The Scalars (P + Q*sqrt(m)) / den for integer pairs (P, Q) and den = (a, b) != 0 in
    Z[sqrt(m)], one reduction each: times the conjugate a - b*sqrt(m) over the norm if b != 0."""
    a, b = den
    if b:
        pairs = [(P * a - Q * b * m, Q * a - P * b) for P, Q in pairs]
        a = a * a - b * b * m
    return tuple(_reduced(P, Q, a, m) for P, Q in pairs)


class MinorTable(NamedTuple):
    """Every minor of the rows h_1, ..., h_n in Q(sqrt(m))^d that the
    brackets, hyperplane normals and basic points of a calibration read,
    from one integer pass.  The rows are scaled by the least common
    denominator L of their entries to H_j = L h_j in Z[sqrt(m)]^d, and an
    element p + q*sqrt(m) is kept as the pair (p, q), q == 0 when m is None.

    normals[S], for every (d-1)-subset S in lexicographic order, is the
    integer cofactor normal N_S of the rows H_s, s in S: entry t is (-1)^t
    times their minor without column t, so n_S = N_S / L^(d-1).
    brackets[J], for every d-subset J in lexicographic order, is
    D_J = N_{J - J_0} . H_{J_0}, Laplace along the first row of det(H_j, j
    in J), so [J] = D_J / L^d; [()] = 1 when d = 0."""

    d: int
    den: int
    m: int | None
    normals: dict[tuple[int, ...], tuple[tuple[int, int], ...]]
    brackets: dict[tuple[int, ...], tuple[int, int]]

    def chirotope(self) -> dict[tuple[int, ...], int]:
        """sign [J] = sign D_J for every d-subset J, in lexicographic order."""
        return {J: _sign(p, q, self.m) for J, (p, q) in self.brackets.items()}

    def scalar_brackets(self) -> tuple[Scalar, ...]:
        """[J] for every d-subset J, in lexicographic order."""
        return divided(self.brackets.values(), (self.den ** self.d, 0), self.m)

    def normal_codes(self) -> dict[tuple[int, ...], IntVec]:
        """The IntVec N_S of n_S for every (d-1)-subset S with n_S != 0."""
        m = self.m
        return {S: IntVec(tuple(p for p, _ in N), None if m is None else tuple(q for _, q in N), m)
                for S, N in self.normals.items() if any(map(any, N))}

    def circuit(self, S: tuple[int, ...]) -> list[tuple[int, int]]:
        """(-1)^t D_{S - S_t} for t = 0..d: L^d c_S at a (d+1)-subset S."""
        rows = (self.brackets[S[:t] + S[t + 1:]] for t in range(len(S)))
        return [(-p, -q) if t % 2 else (p, q) for t, (p, q) in enumerate(rows)]

    def circuit_code(self, S: tuple[int, ...], n: int) -> IntVec:
        """The IntVec L^d c_S over n columns, zero off S."""
        p, q = [0] * n, [0] * n
        for s, (a, b) in zip(S, self.circuit(S)):
            p[s], q[s] = a, b
        return IntVec(tuple(p), None if self.m is None else tuple(q), self.m)

    def normal(self, S: tuple[int, ...]) -> tuple[Scalar, ...]:
        """n_S for a (d-1)-subset S: n_S . x = det(x, h_s, s in S)."""
        return divided(self.normals[S], (self.den ** (self.d - 1), 0), self.m)

    def basic_point(self, J: tuple[int, ...], b: Sequence[Scalar]) -> tuple[Scalar, ...]:
        """The x with <x, h_j> + b_k = 0 for the k-th j of a d-subset J with
        [J] != 0, given b = (b_k): x = -(1/[J]) sum_k (-1)^k b_k n_{J - J_k}
        (Cramer's rule), in integers as -L sum_k (-1)^k B_k N_{J - J_k} /
        (L_b D_J) with B = L_b b over the least common denominator L_b of b,
        divided once by the conjugate of D_J.  Raises MixedFieldError when b
        and the rows carry two distinct radicals."""
        mb, Lb = _field_and_den(b)
        m = common_field(self.m, mb)
        mm = m or 0
        acc = [[0, 0] for _ in J]
        for k, x in enumerate(b):
            if x._p or x._q:
                s = Lb // x._den if k % 2 == 0 else -(Lb // x._den)
                bp, bq = x._p * s, x._q * s
                for a, (p, q) in zip(acc, self.normals[J[:k] + J[k + 1:]]):
                    a[0] += bp * p + bq * q * mm
                    a[1] += bp * q + bq * p
        p, q = self.brackets[J]
        if p == q == 0:
            raise DegenerateInputError(f"basic point of a singular basis {J}")
        return divided([(-self.den * P, -self.den * Q) for P, Q in acc], (Lb * p, Lb * q), m)


def minor_table(rows: Sequence[Sequence[Scalar]], d: int) -> MinorTable:
    """The MinorTable of rows of length d; raises MixedFieldError when they
    carry two distinct radicals.  The k-minors of the rows S at the columns
    C, for k = 1 .. d-1, are expanded along the first row of S from the
    (k-1)-minors of S - S_0, each level kept only while the next is built."""
    m, L = _field_and_den([x for r in rows for x in r])
    mm = m or 0
    H = [tuple((x._p * (L // x._den), x._q * (L // x._den)) for x in r) for r in rows]
    n = len(H)
    if d == 0:
        return MinorTable(0, L, m, {}, {(): (1, 0)})
    # minors[S][i]: the minor of the rows S at the i-th column set of size
    # |S| in lexicographic order; at[C] is the place of C in that order
    minors, at = {(): ((1, 0),)}, {(): 0}
    for k in range(1, d):
        columns = list(combinations(range(d), k))
        plan = [[(c, t % 2, at[C[:t] + C[t + 1:]]) for t, c in enumerate(C)] for C in columns]
        level = {}
        for S in combinations(range(n), k):
            row, sub, out = H[S[0]], minors[S[1:]], []
            for terms in plan:
                P = Q = 0
                for c, odd, i in terms:
                    a, b = row[c]
                    if a or b:
                        e, f = sub[i]
                        if odd:
                            a, b = -a, -b
                        P += a * e + b * f * mm
                        Q += a * f + b * e
                out.append((P, Q))
            level[S] = tuple(out)
        minors, at = level, {C: i for i, C in enumerate(columns)}
    full = tuple(range(d))
    drop = [(t % 2, at[full[:t] + full[t + 1:]]) for t in range(d)]
    normals = {S: tuple((-M[i][0], -M[i][1]) if odd else M[i] for odd, i in drop)
               for S, M in minors.items()}
    brackets = {}
    for J in combinations(range(n), d):
        P = Q = 0
        for (a, b), (e, f) in zip(H[J[0]], normals[J[1:]]):
            P += a * e + b * f * mm
            Q += a * f + b * e
        brackets[J] = (P, Q)
    return MinorTable(d, L, m, normals, brackets)
