"""Exact feasibility of linear systems by Fourier-Motzkin elimination
over primitive integer rows.

A constraint coeffs . x + const REL 0, REL one of ">=", ">", "==", is
held as the code of (const, coeffs) by scalar.encode, a positive
multiple of it in Z[sqrt(m)], and find_point divides each row by the
rational gcd of its integers.  The last variable x_j is eliminated in
integers: an equality pivot p substitutes into a row r as sign(p_j)
(p_j r - r_j p), else each lower row lo pairs with each upper row up as
(-up_j) lo + lo_j up, strict when either is.  New rows are made
primitive, identical ones merged (GT beats GE) and constant ones checked,
so each level is the projection of the solution set onto x_1..x_j,
strictness included.

The witness is the lexicographic midpoint of the solution set: x_1 the
midpoint of its projection onto x_1 (one past the bound when a side is
open, 0 when both are), x_2 that of the fibre over x_1, and so on.  It
depends on the projections alone, which positive row scaling and merging
leave unchanged.  Scalars are built only in back-substitution, x_j =
-rest / r_j over the rows bounding x_j, so an infeasible system builds none.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .scalar import S0, S1, IntVec, Scalar, _sign, common_field, divided, encode

Vec = tuple[Scalar, ...]

GE = ">="
GT = ">"
EQ = "=="


class Constraint(NamedTuple):
    """coeffs . x + const REL 0, with code the IntVec of (const, coeffs)."""

    code: IntVec
    rel: str


def con(coeffs: Sequence, const, rel: str = GE) -> Constraint:
    if rel not in (GE, GT, EQ):
        raise ValueError(f"unknown relation {rel!r}")
    return Constraint(encode((Scalar.coerce(const), *map(Scalar.coerce, coeffs))), rel)


def ge(coeffs, const=0) -> Constraint:
    return con(coeffs, const, GE)


def gt(coeffs, const=0) -> Constraint:
    return con(coeffs, const, GT)


def eq(coeffs, const=0) -> Constraint:
    return con(coeffs, const, EQ)


def linear(code: IntVec, rel: str) -> Constraint:
    """The constraint x . w REL 0 for code = encode(w), building no Scalar."""
    return Constraint(IntVec((0,) + code.p, None if code.q is None else (0,) + code.q, code.m), rel)


def _sub_z(a, r, b, s):
    row = [a * x - b * y for x, y in zip(r, s)]
    row.pop()
    g = gcd(*row)
    return tuple(x // g for x in row) if g > 1 else tuple(row)


def _ring(m: Optional[int]):
    """(sign, nonzero, sub) on integer rows over Z (m None: an entry is an
    int) or over Z[sqrt(m)] (an entry is a pair (p, q) for p + q*sqrt(m)):
    sub(a, r, b, s) is the primitive row a*r - b*s without its last entry."""
    if m is None:
        return (lambda a: (a > 0) - (a < 0)), bool, _sub_z

    def sub(a, r, b, s):
        (ap, aq), (bp, bq) = a, b
        aqm, bqm = aq * m, bq * m
        row = [(ap * xp + aqm * xq - bp * yp - bqm * yq, ap * xq + aq * xp - bp * yq - bq * yp)
               for (xp, xq), (yp, yq) in zip(r, s)]
        row.pop()
        g = gcd(*(x for e in row for x in e))
        return tuple((x // g, y // g) for x, y in row) if g > 1 else tuple(row)

    return (lambda a: _sign(a[0], a[1], m)), any, sub


def _row(code: IntVec, m: Optional[int]) -> tuple:
    """code as a primitive row of the ring of m."""
    p, q = code.p, code.q
    if m is None:
        g = gcd(*p)
        return tuple(x // g for x in p) if g > 1 else p
    q = q or (0,) * len(p)
    g = gcd(*p, *q)
    return tuple((x // g, y // g) for x, y in zip(p, q)) if g > 1 else tuple(zip(p, q))


def _merged(rows, sign, nonzero) -> Optional[dict]:
    """{(row, rel is EQ): rel} over the (row, rel) pairs, identical rows
    merged (GT beats GE) and rows without variables dropped, or None when
    one of those fails."""
    out = {}
    for row, rel in rows:
        if any(map(nonzero, row[1:])):
            key = (row, rel == EQ)
            if out.get(key) != GT:
                out[key] = rel
            continue
        s = sign(row[0])
        if s < 0 or (s == 0 and rel == GT) or (s > 0 and rel == EQ):
            return None
    return out


def _root(row: tuple, e: IntVec, m: Optional[int]) -> Scalar:
    """x_j = -(r_0 + r_1 x_1 + ... + r_{j-1} x_{j-1}) / r_j for the row
    (r_0, ..., r_j) and e = encode((1, x_1, ..., x_{j-1})), which is
    L (1, x) for an integer L = e.p[0] > 0."""
    if m is None:
        return divided([(-sum(map(mul, row, e.p)), 0)], (row[-1] * e.p[0], 0), None)[0]
    e_q = e.q or (0,) * len(e.p)
    P = sum(p * x + m * q * y for (p, q), x, y in zip(row, e.p, e_q))
    Q = sum(p * y + q * x for (p, q), x, y in zip(row, e.p, e_q))
    a, b = row[-1]
    return divided([(-P, -Q)], (a * e.p[0], b * e.p[0]), m)[0]


def _choose_value(lowers: list[Scalar], uppers: list[Scalar]) -> Scalar:
    """The midpoint of the fibre between x_j's evaluated lower and upper bounds."""
    lo = max(lowers, default=None)
    up = min(uppers, default=None)
    if lo is not None and up is not None:
        return lo if lo == up else (lo + up) / Scalar(2)  # lo == up: a point fibre
    if lo is not None:
        return lo + S1
    if up is not None:
        return up - S1
    return S0


def find_point(cons: Sequence[Constraint], nvars: int) -> Optional[Vec]:
    """An exact point satisfying every constraint, or None if infeasible;
    the witness is the lexicographic midpoint of the module docstring."""
    m = None
    for c in cons:
        if len(c.code.p) != nvars + 1:
            raise ValueError(f"constraint arity {len(c.code.p) - 1} != {nvars}")
        if c.code.m is not None and c.code.m != m:
            m = common_field(m, c.code.m)
    sign, nonzero, sub = _ring(m)
    rows = _merged([(_row(c.code, m), c.rel) for c in cons], sign, nonzero)
    levels = []
    while rows is not None and len(levels) < nvars:
        below, active = [], []
        for (row, _), rel in rows.items():
            s = sign(row[-1])
            if s:
                active.append((row, rel, s))
            else:
                below.append((row[:-1], rel))
        k = next((i for i, (_, rel, _) in enumerate(active) if rel == EQ), None)
        if k is not None:
            p, _, s = active[k]
            below += [(sub(p[-1], r, r[-1], p) if s > 0 else sub(r[-1], p, p[-1], r), rel)
                      for i, (r, rel, _) in enumerate(active) if i != k]
            levels.append(([p], None))
        else:
            lowers = [(r, rel) for r, rel, s in active if s > 0]
            uppers = [(r, rel) for r, rel, s in active if s < 0]
            below += [(sub(lo[-1], up, up[-1], lo), GT if GT in (lrel, urel) else GE)
                      for lo, lrel in lowers for up, urel in uppers]
            levels.append(([r for r, _ in lowers], [r for r, _ in uppers]))
        rows = _merged(below, sign, nonzero)
    if rows is None:
        return None
    xs = []
    for lowers, uppers in reversed(levels):
        e = encode((S1, *xs))
        lo = [_root(r, e, m) for r in lowers]
        xs.append(lo[0] if uppers is None else _choose_value(lo, [_root(r, e, m) for r in uppers]))
    return tuple(xs)


def feasible(cons: Sequence[Constraint], nvars: int) -> bool:
    return find_point(cons, nvars) is not None


def implied_equality(cons: Sequence[Constraint], which: int, nvars: int) -> bool:
    """True when constraint `which` (a >= row) holds with equality on the
    whole solution set of the system."""
    probe = [c._replace(rel=GT) if i == which else c for i, c in enumerate(cons)]
    return not feasible(probe, nvars)
