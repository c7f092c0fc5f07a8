"""H-polytopes with exact vertex enumeration and face dimensions.

A polytope is {x in R^d : <x, normal_i> + offset_i >= 0}.  Its vertices
are the basic points x_J of the d-subsets J of its normals that
basis_scan keeps: the slack of i at x_J is the circuit c_S of S = J + {i}
against the offsets, up to the sign of [J] (Bjorner et al., Oriented
Matroids, ch. 3), both read off the calibration's chirotope and integer
circuit codes; each vertex is solved off its minor table.  A bounded
polytope is the convex hull of its vertices and each face the hull of the
vertices on it, in a graded face lattice (Ziegler, Lectures on Polytopes,
ch. 2), so its face dimensions are read off the tight sets of its
vertices.  An unbounded one is not; its face dimensions come from the
rank of the implicit-equality normals, detected by exact feasibility tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations
from typing import Iterator, Optional, Sequence

from . import lp
from .errors import DimensionMismatchError, InvalidCalibrationError
from .linalg import Calibration, Matrix, Vec, dot, is_zero_vec, rank, vec
from .scalar import IntVec, Scalar, common_field, dot_sign, encode


def incidence_dim(tights: Sequence[frozenset[int]]) -> int:
    """Dimension of the face of a bounded polytope whose vertices have these
    distinct full tight sets, -1 for none.  Each facet of the face is where
    one more constraint is tight, one tight at some of its vertices but not
    all, and the face lattice is graded, so the largest is one dimension down."""
    if len(tights) < 2:
        return len(tights) - 1
    inner = frozenset.intersection(*tights)
    return 1 + incidence_dim(max(([t for t in tights if i in t]
                                  for i in frozenset.union(*tights) - inner), key=len))


@dataclass(frozen=True)
class HPolytope:
    """Intersection of half-spaces <x, normals[i]> + offsets[i] >= 0."""

    ambient_dim: int
    normals: tuple[Vec, ...]
    offsets: tuple[Scalar, ...]

    def __post_init__(self):
        object.__setattr__(self, "normals", tuple(vec(nr) for nr in self.normals))
        object.__setattr__(self, "offsets", tuple(Scalar.coerce(o) for o in self.offsets))
        if len(self.normals) != len(self.offsets):
            raise DimensionMismatchError("normals and offsets count differ")
        if any(len(nr) != self.ambient_dim for nr in self.normals):
            raise DimensionMismatchError("normal length differs from ambient dimension")

    @classmethod
    def from_parameter(cls, calibration, b: Sequence) -> "HPolytope":
        """P_b = {x : <x, h(e_i)> >= -b_i}, bounded iff the columns positively span."""
        bb = vec(b)
        if len(bb) != calibration.n:
            raise DimensionMismatchError("parameter length differs from n")
        P = cls(calibration.d, tuple(calibration.columns), bb)
        object.__setattr__(P, "_calibration", calibration)
        return P

    @property
    def nfacets(self) -> int:
        return len(self.normals)

    def constraints(self) -> list[lp.Constraint]:
        return [lp.ge(nr, o) for nr, o in zip(self.normals, self.offsets)]

    def contains(self, x: Sequence) -> bool:
        xx = vec(x)
        return all((dot(nr, xx) + o).sign() >= 0 for nr, o in zip(self.normals, self.offsets))

    def tight_at(self, x: Sequence) -> frozenset[int]:
        xx = vec(x)
        return frozenset(
            i for i, (nr, o) in enumerate(zip(self.normals, self.offsets))
            if (dot(nr, xx) + o).is_zero()
        )

    def interior_point(self) -> Optional[Vec]:
        return lp.find_point([lp.gt(nr, o) for nr, o in zip(self.normals, self.offsets)],
                             self.ambient_dim)

    def is_empty(self) -> bool:
        return not lp.feasible(self.constraints(), self.ambient_dim)

    def _implicit_equalities(self, extra_eq: Sequence[int] = ()) -> Optional[list[int]]:
        """Indices forced tight on the face where extra_eq are tight.

        Returns None when that face is empty.
        """
        d = self.ambient_dim
        base = [lp.con(nr, o, lp.EQ if i in extra_eq else lp.GE)
                for i, (nr, o) in enumerate(zip(self.normals, self.offsets))]
        if not lp.feasible(base, d):
            return None
        return list(extra_eq) + [i for i in range(self.nfacets)
                                 if i not in extra_eq and lp.implied_equality(base, i, d)]

    def _face_dim_lp(self, tight: Sequence[int]) -> int:
        """face_dim from the implicit equalities; valid for unbounded P."""
        implicit = self._implicit_equalities(tuple(tight))
        if implicit is None:
            return -1
        if not implicit:
            return self.ambient_dim
        return self.ambient_dim - rank(Matrix([self.normals[j] for j in implicit]))

    def dimension(self) -> int:
        """Affine dimension, -1 for the empty set."""
        return self.face_dim(())

    def facet_dim(self, i: int) -> int:
        """Dimension of the face where constraint i is tight (0-based i)."""
        return self.face_dim((i,))

    def face_dim(self, tight: Sequence[int]) -> int:
        """Dimension of the face where all listed constraints are tight:
        the incidence_dim of the vertices on it when P is bounded."""
        tight = tuple(tight)
        n = self.nfacets
        for i in tight:
            if not 0 <= i < n:
                raise IndexError(f"constraint index {i} out of range for {n} constraints")
        if not self.is_bounded():
            return self._face_dim_lp(tight)
        T = frozenset(tight)
        return incidence_dim([t for _, t in self._vertices if T <= t])

    def facet_indices(self) -> list[int]:
        """Constraints that cut a facet: the d tight at a simple vertex, whose
        tangent cone is full and simplicial, and the rest by facet_dim."""
        d = self.ambient_dim
        simple = set().union(*(t for _, t in self._vertices if len(t) == d))
        return [i for i in range(self.nfacets) if i in simple or self.facet_dim(i) == d - 1]

    # _calibration and _vertices are computed once, on first use, and kept
    # in the instance __dict__ by cached_property, outside the dataclass
    # fields, so they take no part in ==, hash, repr or to_json.

    @cached_property
    def _calibration(self) -> Optional[Calibration]:
        """The Calibration of the nonzero normals in order (from_parameter's own),
        or None when their rank is below d: a line lies in the recession cone."""
        normals = tuple(nr for nr in self.normals if not is_zero_vec(nr))
        try:
            return Calibration(self.ambient_dim, len(normals), normals)
        except InvalidCalibrationError:
            return None

    def vertices(self) -> list[tuple[Vec, frozenset[int]]]:
        """All vertices with their full tight-constraint sets, sorted.

        The basis_scan of the nonzero normals against their offsets gives
        every J with [J] != 0 whose basic point lies in P, with the tight
        set there; each distinct tight set is one vertex, solved once, as
        the _basic_point of its first J.
        """
        return list(self._vertices)

    @cached_property
    def _vertices(self) -> tuple[tuple[Vec, frozenset[int]], ...]:
        cal, found = self._calibration, {}
        if cal is None:
            return ()
        zero = {i: o.sign() for i, (nr, o) in enumerate(zip(self.normals, self.offsets)) if is_zero_vec(nr)}
        nonzero = [i for i in range(self.nfacets) if i not in zero]
        offsets = [self.offsets[i] for i in nonzero]
        e = encode(offsets)
        common_field(e.m, cal.field_m)  # offsets and normals share one radical
        if -1 in zero.values():
            return ()
        everywhere = [i for i, sign in zero.items() if sign == 0]
        for J, tight in basis_scan(cal, e):
            tight = frozenset([nonzero[i] for i in tight] + everywhere)
            if tight not in found:
                found[tight] = _basic_point(cal, J, offsets)
        return tuple(sorted((x, tight) for tight, x in found.items()))

    def is_bounded(self) -> bool:
        """True when the recession cone {x : <x, normal_i> >= 0} is {0}: by
        Gale duality, when the nonzero normals positively span R^d."""
        return self._calibration is not None and self._calibration.positively_spanning

    def is_simple(self) -> bool:
        """Every vertex lies on exactly d facets."""
        facets = set(self.facet_indices())
        verts = self._vertices
        return bool(verts) and all(len(t & facets) == self.ambient_dim for _, t in verts)

    def to_json(self) -> dict:
        verts = self.vertices()
        return {
            "ambient_dim": self.ambient_dim,
            "normals": [[x.to_json() for x in nr] for nr in self.normals],
            "offsets": [o.to_json() for o in self.offsets],
            "dimension": self.dimension(),
            "bounded": self.is_bounded(),
            "vertices": [[x.to_json() for x in v] for v, _ in verts],
            "vertex_tight_sets": [sorted(i + 1 for i in t) for _, t in verts],
        }


def virtual_indices(calibration, b: Sequence) -> frozenset[int]:
    """1-based generators whose constraint cuts no facet of P_b: the
    complement of facet_indices (a nonzero column's face has dim <= d-1)."""
    facets = set(HPolytope.from_parameter(calibration, b).facet_indices())
    return frozenset(i + 1 for i in range(calibration.n) if i not in facets)


@cache
def _scan_plan(n: int, d: int) -> tuple:
    """(J, steps) for every 0-based d-subset J of range(n), in bracket
    order, with one step (i, S, k, (-1)^p) per i outside J: S = J + {i},
    k its place among the (d+1)-subsets in lexicographic order and p the
    place of i in S.  Shared by every calibration of shape (n, d)."""
    at = {S: k for k, S in enumerate(combinations(range(n), d + 1))}
    plan = []
    for J in combinations(range(n), d):
        steps = []
        for i in (i for i in range(n) if i not in J):
            p = sum(j < i for j in J)  # i sorts into place p
            S = J[:p] + (i,) + J[p:]
            steps.append((i, S, at[S], -1 if p % 2 else 1))
        plan.append((J, tuple(steps)))
    return tuple(plan)


def basis_scan(calibration, e: IntVec) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """(J, tight) for every 0-based d-subset J with [J] != 0 whose basic
    point x_J = M_J^{-1} (-b_J) lies in P_b, for e = encode(b), in bracket
    order.  [J] times the slack <x_J, h(e_i)> + b_i is (-1)^p c_S . b for
    S = J with i in place p, so its sign is sign([J]) (-1)^p, off the
    chirotope, times one dot_sign of the integer code of c_S against e,
    read once per S and scan: no Scalar is built.  J is kept when no slack
    is negative, read up to the first negative one; tight is J followed by
    the i whose slack is zero."""
    circuits, chirotope = calibration.circuits, calibration.chirotope
    signs = [None] * len(circuits)
    for (J, steps), s in zip(_scan_plan(calibration.n, calibration.d), chirotope.values()):
        if not s:
            continue
        tight = list(J)
        for i, S, k, t in steps:
            sign = signs[k]
            if sign is None:
                sign = signs[k] = dot_sign(circuits[S], e)
            sign *= s * t
            if sign < 0:
                break
            if sign == 0:
                tight.append(i)
        else:
            yield J, tight


def _basic_point(cal: Calibration, J: tuple[int, ...], b) -> Vec:
    """M_J^{-1} (-b_J) for [J] != 0, where <x, h(e_j)> + b_j = 0 for j in J:
    -(1/[J]) sum_k (-1)^k b_{J_k} n_{J - J_k}, in integers off the
    calibration's minor table, one Scalar per coordinate."""
    return cal.minor_table.basic_point(J, [b[j] for j in J])


class VertexOracle:
    """Fast repeated vertex-combinatorics queries for one calibration.

    Classifying a parameter b costs one small matrix-vector product per
    invertible d-subset of constraint normals (their inverses are cached
    on the calibration) plus feasibility dot products.  Intended for
    generic b, where the tight d-subsets are exactly the maximal cones of
    the normal fan.
    """

    def __init__(self, calibration):
        self.calibration = calibration
        self.subsets = tuple(calibration.basis_inverses.items())

    def comb_key(self, b: Sequence) -> frozenset:
        """The set of 1-based tight d-subsets that are vertices of P_b."""
        cal = self.calibration
        bb = vec(b)
        if len(bb) != cal.n:
            raise DimensionMismatchError("parameter length differs from n")
        out = []
        for J, Minv in self.subsets:
            x = Minv.matvec([-bb[j] for j in J])
            ok = True
            for i, (nr, o) in enumerate(zip(cal.columns, bb)):
                if i in J:
                    continue
                if (dot(nr, x) + o).sign() < 0:
                    ok = False
                    break
            if ok:
                out.append(frozenset(j + 1 for j in J))
        return frozenset(out)
