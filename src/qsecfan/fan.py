"""Quantum fans: indexed cone collections over a calibration.

A fan stores its maximal cones as 1-based generator index subsets; all
geometry (containment, faces, convexity) is recomputed from the
calibration columns on demand, through exact feasibility tests or the
facts the calibration caches: normal fans come from the basis_scan of
b against its circuits, and every simplicial cone question (dimension,
membership, facets, star subdivision) from its chirotope and the integer
codes of its hyperplane normals.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cmp_to_key
from itertools import combinations, count
from typing import Iterator, NamedTuple, Optional, Sequence

from . import lp
from .errors import (
    DimensionMismatchError,
    NotAdmissibleError,
    UnsupportedDimensionError,
)
from .linalg import (
    Calibration,
    Matrix,
    Vec,
    det,
    dot,
    facet_normals,
    gale_rows,
    in_cone,
    kernel_basis,
    normalize_direction,
    rank,
    solve,
    vec,
    vscale,
    integer_kernel_rank,
)
from .polytope import HPolytope, basis_scan, incidence_dim
from .scalar import S0, IntVec, Scalar, common_field, dot_sign, encode, minor_table

IndexSet = frozenset


def _cols(cal: Calibration, indices) -> list[Vec]:
    return [cal.column(i) for i in sorted(indices)]


def _basis(sigma) -> tuple[int, ...]:
    """The 0-based sorted indices of a 1-based index set."""
    return tuple(sorted(i - 1 for i in sigma))


def cone_dim(cal: Calibration, sigma) -> int:
    """Rank of the generators, d for d of them with a nonzero bracket."""
    if not sigma:
        return 0
    if len(sigma) == cal.d and _basis(sigma) in cal.inverse_codes:
        return cal.d
    return rank(Matrix(_cols(cal, sigma)))


def cone_is_strongly_convex(cal: Calibration, sigma) -> bool:
    """Exact test by membership: the cone holds a line exactly when it holds
    -h(e_i) for one of its generators, since its lineality space is a face,
    spanned by the generators that lie in it."""
    return not any(cone_contains(cal, sigma, vscale(-1, cal.column(i))) for i in sigma)


def cone_contains(cal: Calibration, sigma, x: Sequence, code: Optional[IntVec] = None) -> bool:
    """Membership of x in Cone(h(e_i), i in sigma), by the rule of in_cone.

    When sigma spans R^d its independent d-subsets J are the invertible
    ones, and the signs of the coordinates M_J^{-T} x of x in basis J are
    read against the calibration's inverse codes; a lower-rank sigma goes
    through in_cone.  code, when given, is encode(x).
    """
    xx = vec(x)
    if len(xx) != cal.d:
        raise DimensionMismatchError(f"vector of length {len(xx)} in a cone of R^{cal.d}")
    codes, e, spans = cal.inverse_codes, code, False
    for J in combinations(_basis(sigma), cal.d):
        columns = codes.get(J)
        if columns is None:
            continue
        e, spans = e or encode(xx), True
        if all(dot_sign(c, e) >= 0 for c in columns):
            return True
    return False if spans else in_cone(_cols(cal, sigma), xx)


def is_face(cal: Calibration, J, sigma) -> bool:
    """J is a face of sigma: a supporting functional vanishes exactly on J."""
    J, sigma = frozenset(J), frozenset(sigma)
    if not J <= sigma:
        return False
    cons = [lp.eq(cal.column(j), 0) for j in sorted(J)]
    cons += [lp.gt(cal.column(j), 0) for j in sorted(sigma - J)]
    return lp.feasible(cons, cal.d)


def faces_of(cal: Calibration, sigma) -> list[IndexSet]:
    """Every face of sigma; each subset when the generators are independent."""
    sigma = frozenset(sigma)
    simplicial = cone_dim(cal, sigma) == len(sigma)
    out = []
    for r in range(len(sigma) + 1):
        for J in combinations(sorted(sigma), r):
            if simplicial or is_face(cal, J, sigma):
                out.append(frozenset(J))
    return out


def facets_of(cal: Calibration, sigma) -> list[IndexSet]:
    """Faces one dimension below sigma."""
    target = cone_dim(cal, sigma) - 1
    return [J for J in faces_of(cal, sigma) if frozenset(J) != frozenset(sigma)
            and cone_dim(cal, J) == target]


@dataclass(frozen=True)
class CombinatorialType:
    """A fan's face poset recorded as index subsets, closed under faces."""

    n: int
    poset: frozenset

    def __post_init__(self):
        object.__setattr__(self, "poset", frozenset(frozenset(s) for s in self.poset))

    @property
    def ground(self) -> frozenset:
        out: set[int] = set()
        for s in self.poset:
            out |= s
        return frozenset(out)

    def maximal_sets(self) -> list[IndexSet]:
        return [s for s in self.poset
                if not any(s < t for t in self.poset)]

    @classmethod
    def s_type(cls, d: int) -> "CombinatorialType":
        """Projective-space type: subsets of {1..d+1} of size at most d."""
        ground = range(1, d + 2)
        sets = [frozenset(J) for r in range(d + 1) for J in combinations(ground, r)]
        return cls(d + 1, frozenset(sets))

    @classmethod
    def c_type(cls, n: int) -> "CombinatorialType":
        """Cycle type: empty set, singletons, cyclically consecutive pairs."""
        sets = [frozenset()]
        sets += [frozenset((i,)) for i in range(1, n + 1)]
        sets += [frozenset((i, i % n + 1)) for i in range(1, n + 1)]
        return cls(n, frozenset(sets))

    def is_isomorphic_to(self, other: "CombinatorialType") -> bool:
        return next(_poset_bijections(self, other), None) is not None

    def to_json(self) -> list:
        return sorted(sorted(s) for s in self.poset)

    def __repr__(self):
        return f"CombinatorialType({self.to_json()})"


def _signature(poset, i: int):
    return tuple(sorted(Counter(len(s) for s in poset if i in s).items()))


def _poset_bijections(t1: CombinatorialType, t2: CombinatorialType) -> Iterator[dict]:
    """All ground bijections mapping t1's poset onto t2's, in lexicographic
    order of the image of the sorted ground set."""
    g1, g2 = sorted(t1.ground), sorted(t2.ground)
    if len(g1) != len(g2) or len(t1.poset) != len(t2.poset):
        return
    if Counter(len(s) for s in t1.poset) != Counter(len(s) for s in t2.poset):
        return
    sig2 = {i: _signature(t2.poset, i) for i in g2}
    sig1 = {i: _signature(t1.poset, i) for i in g1}
    p2 = t2.poset

    def extend(pos: int, perm: dict, used: set) -> Iterator[dict]:
        if pos == len(g1):
            if frozenset(frozenset(perm[i] for i in s) for s in t1.poset) == p2:
                yield dict(perm)
            return
        i = g1[pos]
        for j in g2:
            if j in used or sig1[i] != sig2[j]:
                continue
            perm[i] = j
            used.add(j)
            # prune on poset sets that are now fully mapped
            ok = all(frozenset(perm[x] for x in s) in p2
                     for s in t1.poset if s and s <= set(perm))
            if ok:
                yield from extend(pos + 1, perm, used)
            used.discard(j)
            del perm[i]

    yield from extend(0, {}, set())


def fan_automorphisms(t: CombinatorialType) -> list[dict]:
    """All ground permutations preserving the poset, sorted lexicographically."""
    return list(_poset_bijections(t, t))


@dataclass(frozen=True)
class QuantumFan:
    """(Delta, h, I): maximal cones as index subsets plus the virtual set."""

    calibration: Calibration
    max_cones: tuple
    virtual: frozenset = field(default_factory=frozenset)
    complete: bool = True

    def __post_init__(self):
        cones = tuple(sorted(set(map(frozenset, self.max_cones)), key=sorted))
        object.__setattr__(self, "max_cones", cones)
        object.__setattr__(self, "virtual", frozenset(self.virtual))
        if not self.virtual.union(*cones) <= set(range(1, self.n + 1)):
            raise DimensionMismatchError("generator index must lie in 1..n")

    @property
    def d(self) -> int:
        return self.calibration.d

    @property
    def n(self) -> int:
        return self.calibration.n

    def rays(self) -> list[int]:
        out: set[int] = set()
        for s in self.max_cones:
            out |= s
        return sorted(out)

    def is_simplicial(self) -> bool:
        return all(len(s) == cone_dim(self.calibration, s) for s in self.max_cones)

    def cone_containing(self, x: Sequence) -> Optional[IndexSet]:
        for s in self.max_cones:
            if cone_contains(self.calibration, s, x):
                return s
        return None

    def to_json(self) -> dict:
        return {
            "max_cones": [sorted(s) for s in self.max_cones],
            "virtual": sorted(self.virtual),
            "complete": self.complete,
        }

    @classmethod
    def from_json(cls, cal: Calibration, data: dict) -> "QuantumFan":
        return cls(cal, tuple(frozenset(s) for s in data["max_cones"]),
                   frozenset(data.get("virtual", [])), bool(data.get("complete", True)))


def normal_fan(cal: Calibration, b: Sequence) -> QuantumFan:
    """The normal fan of P_b with its virtual generator set.

    One maximal cone per vertex, generated by the facet-cutting tight
    constraints; generators whose face has dimension below d-1 (or is
    empty) become virtual.  When the columns positively span R^d, P_b is
    the hull of its vertices, whose tight sets the basis_scan of b gives
    (once per basis), so each face dimension is their incidence_dim.
    """
    if not cal.positively_spanning:
        # no P_b is bounded; an empty or thin one is reported as such first
        if HPolytope.from_parameter(cal, b).dimension() != cal.d:
            raise NotAdmissibleError("P_b is empty or lower-dimensional")
        raise NotAdmissibleError("P_b is unbounded, its normal fan is not complete")
    bb = vec(b)
    if len(bb) != cal.n:
        raise DimensionMismatchError("parameter length differs from n")
    e = encode(bb)
    common_field(cal.field_m, e.m)  # b and the columns share one radical
    scan = basis_scan(cal, e)
    return _fan_of_vertices(cal, tuple(dict.fromkeys(frozenset(t) for _, t in scan)))


def _fan_of_vertices(cal: Calibration, tight_sets) -> QuantumFan:
    """normal_fan from the distinct tight sets of the vertices of a bounded
    P_b.  A simple vertex, on exactly d constraints, has a full simplicial
    tangent cone: P_b is then d-dimensional and those d constraints cut
    facets; the other constraints are facets when their incidence_dim is d-1."""
    d = cal.d
    facet_set = set().union(*(t for t in tight_sets if len(t) == d))
    if not facet_set and incidence_dim(tight_sets) != d:
        raise NotAdmissibleError("P_b is empty or lower-dimensional")
    facet_set.update(i for i in set().union(*tight_sets) - facet_set
                     if incidence_dim([t for t in tight_sets if i in t]) == d - 1)
    virtual = frozenset(i + 1 for i in range(cal.n) if i not in facet_set)
    cones = {frozenset(i + 1 for i in tight & facet_set) for tight in tight_sets}
    return QuantumFan(cal, tuple(cones), virtual, complete=True)


def is_admissible_parameter(cal: Calibration, b: Sequence) -> bool:
    P = HPolytope.from_parameter(cal, b)
    return P.dimension() == cal.d and P.is_bounded()


def combinatorial_type(f: QuantumFan) -> CombinatorialType:
    sets: set[IndexSet] = set()
    for sigma in f.max_cones:
        sets.update(faces_of(f.calibration, sigma))
        sets.add(frozenset(sigma))
    return CombinatorialType(f.n, frozenset(sets))


def star_subdivision(f: QuantumFan, i: int) -> QuantumFan:
    """Insert the ray h(e_i): cones containing it are replaced by the joins
    of i with their facets that miss it (on a simplicial cone, the stellar
    rule of _facets_missing); i leaves the virtual set."""
    cal = f.calibration
    v = cal.column(i)
    direction = normalize_direction(v)
    if any(normalize_direction(cal.column(j)) == direction for j in f.rays()):
        # the ray is already present, so inside the support: nothing to subdivide
        return QuantumFan(cal, f.max_cones, f.virtual - {i}, f.complete)
    new_cones, e, inside = [], encode(v), False
    for sigma in f.max_cones:
        facets = _facets_missing(cal, sigma, v, e)
        inside = inside or facets is not None
        new_cones += [sigma] if facets is None else [tau | {i} for tau in facets]
    if not inside:
        raise NotAdmissibleError(f"h(e_{i}) lies outside the fan support")
    return QuantumFan(cal, tuple(new_cones), f.virtual - {i}, f.complete)


def _facets_missing(cal: Calibration, sigma, v: Vec, e) -> Optional[list[IndexSet]]:
    """The facets of sigma that miss v, or None when sigma misses v.  For a
    simplicial sigma these are sigma - {s_k} for each positive coordinate
    of v in basis sigma, the signs read off the inverse codes at e = encode(v)."""
    codes = cal.inverse_codes.get(_basis(sigma))
    if codes is None:
        return [frozenset(t) for t in facets_of(cal, sigma) if not cone_contains(cal, t, v, e)] \
            if cone_contains(cal, sigma, v, e) else None
    signs = [dot_sign(c, e) for c in codes]
    return [sigma - {s} for s, sign in zip(sorted(sigma), signs) if sign > 0] \
        if min(signs) >= 0 else None


# -- planar angular order ------------------------------------------------


def _half(u: Vec) -> int:
    """0 for angles in [0, pi), 1 for [pi, 2pi)."""
    s1 = u[1].sign()
    if s1 > 0 or (s1 == 0 and u[0].sign() > 0):
        return 0
    return 1


def _turn(u: Vec, v: Vec) -> int:
    """The sign of det(u, v) = u0 v1 - u1 v0: one dot_sign of u against (v1, -v0)."""
    return dot_sign(encode(u), encode((v[1], -v[0])))


def angular_compare(u: Vec, v: Vec) -> int:
    hu, hv = _half(u), _half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    return -_turn(u, v)


def sort_rays_by_angle(cal: Calibration, indices) -> list[int]:
    if cal.d != 2:
        raise UnsupportedDimensionError("angular sort needs d = 2")
    return sorted(indices, key=cmp_to_key(
        lambda a, b: angular_compare(cal.column(a), cal.column(b))))


def fan_from_rays(cal: Calibration, ray_indices, virtual=frozenset()) -> QuantumFan:
    """The d = 2 fan whose maximal cones are consecutive angular sectors
    between the given rays, complete exactly when each sector from u to v
    is below pi, det(u, v) > 0."""
    order = sort_rays_by_angle(cal, set(ray_indices))
    if len(order) < 3:
        raise NotAdmissibleError("a complete planar fan needs at least 3 rays")
    pairs = [(order[k], order[(k + 1) % len(order)]) for k in range(len(order))]
    complete = all(_turn(cal.column(u), cal.column(v)) > 0 for u, v in pairs)
    return QuantumFan(cal, tuple(map(frozenset, pairs)), frozenset(virtual), complete=complete)


def common_refinement(f1: QuantumFan, f2: QuantumFan):
    """Coarsest common refinement of two complete fans over one calibration.

    d = 2: angular merge of the ray-index union, returned as a QuantumFan.
    d >= 3: the cones common to both fans, whole (each meets every other
    cone in a proper face), plus the full-dimensional intersections of the
    cones that differ, every cone's extreme rays read off its _cone_hrep by
    _cone_intersection_rays.  Their rays can be no generator column (the
    center of a flipped square cone), so the result is a tuple of geometric
    cones, each a frozenset of normalized extreme-ray vectors.
    """
    if f1.calibration.columns != f2.calibration.columns:
        raise DimensionMismatchError("refinement requires one calibration")
    cal = f1.calibration
    virtual = f1.virtual & f2.virtual
    if cal.d == 2:
        return fan_from_rays(cal, set(f1.rays()) | set(f2.rays()), virtual)
    common = set(f1.max_cones) & set(f2.max_cones)
    cones = {_cone_intersection_rays(_cone_hrep(cal, s)) for s in common}
    hreps2 = [_cone_hrep(cal, s2) for s2 in f2.max_cones if s2 not in common]
    for s1 in set(f1.max_cones) - common:
        h1 = _cone_hrep(cal, s1)
        for h2 in hreps2:
            inter = _cone_intersection_rays(h1 + h2)
            if inter is not None:
                cones.add(inter)
    return tuple(sorted(cones, key=sorted))


def _cone_hrep(cal: Calibration, sigma) -> list[Vec]:
    """Facet normals w (cone = {x : <w,x> >= 0 for all w}) of a
    full-dimensional cone: the hyperplane normals of its (d-1)-subsets of
    generators with every generator on one side, turned to that side."""
    J, table = _basis(sigma), cal.minor_table
    return sorted(facet_normals(map(table.normal, combinations(J, cal.d - 1)), _cols(cal, sigma)))


def _cone_intersection_rays(normals: list[Vec]) -> Optional[frozenset]:
    """Extreme rays of {x : <w,x> >= 0 for all normals} in R^d (the
    intersection of two cones given by their _cone_hrep), or None when
    it is lower-dimensional: the cones are pointed, so their intersection
    is too, its rays are the facet normals of Cone(normals), found among
    the cofactor normals of (d-1)-subsets of them (off their minor_table),
    and it is full-dimensional exactly when they span R^d."""
    d = len(normals[0])
    table = minor_table(normals, d)
    rays = facet_normals(map(table.normal, table.normals), normals)
    if len(rays) < d or rank(Matrix(list(rays))) < d:
        return None
    return rays


def fans_isomorphic(f1: QuantumFan, f2: QuantumFan):
    """First lexicographic witness (L, sigma, tau) with L h(e_i) = h'(e_sigma(i))
    on all fan generators and sigma a poset isomorphism, or None."""
    if (f1.d, f1.n) != (f2.d, f2.n):
        return None
    if len(f1.virtual) != len(f2.virtual):
        return None
    t1, t2 = combinatorial_type(f1), combinatorial_type(f2)
    d = f1.d
    for sigma in _poset_bijections(t1, t2):
        rows = []
        rhs = []
        for i in sorted(sigma):
            hi = f1.calibration.column(i)
            target = f2.calibration.column(sigma[i])
            for r in range(d):
                # unknowns L[r][c] laid out row-major
                row = [S0] * (d * d)
                for c in range(d):
                    row[r * d + c] = hi[c]
                rows.append(row)
                rhs.append(target[r])
        res = solve(Matrix(rows), rhs)
        if res is None:
            continue
        flat = res[0]
        L = Matrix([flat[r * d:(r + 1) * d] for r in range(d)])
        if det(L).is_zero():
            continue
        tau = dict(zip(sorted(f1.virtual), sorted(f2.virtual)))
        return L, sigma, tau
    return None


def s_variety_strata(cal: Calibration, b: Sequence) -> list[IndexSet]:
    """Index sets I with a full-dimensional cone, a point of P_b tight
    exactly on I, and facet-cutting constraints only.  Independent of the
    normal-fan code path, for cross-checking: its dimensions come from the
    implicit-equality LPs, not from the vertices normal_fan reads."""
    P = HPolytope.from_parameter(cal, b)
    d = cal.d
    if not P.is_bounded() or P._face_dim_lp(()) != d:
        raise NotAdmissibleError("parameter is not admissible")
    facet_ok = {i + 1 for i in range(cal.n) if P._face_dim_lp((i,)) == d - 1}
    out = []
    for r in range(1, cal.n + 1):
        for I in combinations(range(1, cal.n + 1), r):
            I = frozenset(I)
            if not I <= facet_ok:
                continue
            if cone_dim(cal, I) != d:
                continue
            cons = []
            for i in range(1, cal.n + 1):
                rel = lp.EQ if i in I else lp.GE
                cons.append(lp.con(cal.column(i), P.offsets[i - 1], rel))
            if lp.feasible(cons, d):
                out.append(I)
    return sorted(out, key=sorted)


class StabilizerProfile(NamedTuple):
    """The group C^a x (C*)^t x Z^z as the triple (a, t, z)."""

    affine_rank: int
    torus_rank: int
    lattice_rank: int


def stabilizer_profiles(cal: Calibration, I) -> tuple[StabilizerProfile, StabilizerProfile, bool]:
    """Stabilizer of the stratum indexed by I under the two constructions.

    The old (torus-quotient) profile comes from the kernel of h restricted
    to Z^I; the new (C^{n-d}-action) profile from the Gale rows indexed by
    the complement.  They agree exactly on simplicial cones.
    """
    I = frozenset(I)
    d, n = cal.d, cal.n
    if not I <= set(range(1, n + 1)):
        raise DimensionMismatchError(f"cone indices must lie in 1..{n}")
    H_I = Matrix.from_columns(_cols(cal, I), nrows=d)
    if rank(H_I) != d:
        raise NotAdmissibleError("stratum cone is not full-dimensional")
    r = len(I) - integer_kernel_rank(H_I)
    profile_old = StabilizerProfile(r - d, len(I) - r, n - d)

    comp = sorted(set(range(1, n + 1)) - I)
    rows = gale_rows(cal)
    K = Matrix([rows[j - 1] for j in comp])  # |comp| x (n-d)
    if comp:
        a_new = (n - d) - rank(K)
        # lattice points inside im(K): kill the left null space exactly
        left_null = kernel_basis(K.transpose())
        if left_null:
            z_new = integer_kernel_rank(Matrix(left_null))
        else:
            z_new = len(comp)
    else:
        a_new = n - d
        z_new = 0
    profile_new = StabilizerProfile(a_new, 0, z_new)
    return profile_old, profile_new, profile_old == profile_new


# -- support functions and fan validation --------------------------------


@dataclass(frozen=True)
class SupportFunction:
    """Piecewise linear phi with phi(x) = <form[sigma], x> on each maximal
    cone; built from the vertices of P_b."""

    fan: QuantumFan
    forms: tuple  # aligned with fan.max_cones

    @classmethod
    def from_parameter(cls, fan: QuantumFan, b: Sequence) -> "SupportFunction":
        cal = fan.calibration
        bb = vec(b)
        forms = []
        for sigma in fan.max_cones:
            A = Matrix([cal.column(i) for i in sorted(sigma)])
            x = solve(A, [-bb[i - 1] for i in sorted(sigma)])
            if x is None:
                raise NotAdmissibleError("no vertex is dual to a maximal cone")
            forms.append(x[0])
        return cls(fan, tuple(forms))

    def value(self, x: Sequence) -> Scalar:
        xx = vec(x)
        for sigma, m in zip(self.fan.max_cones, self.forms):
            if cone_contains(self.fan.calibration, sigma, xx):
                return dot(m, xx)
        raise NotAdmissibleError("point outside the fan support")

    def convexity_flags(self, b: Sequence) -> tuple[bool, bool]:
        """(convex, strictly convex) against phi(h(e_i)) >= -b_i."""
        cal = self.fan.calibration
        bb = vec(b)
        convex = True
        strict = True
        for sigma, m in zip(self.fan.max_cones, self.forms):
            for j in self.fan.rays():
                g = (dot(m, cal.column(j)) + bb[j - 1]).sign()
                if g < 0:
                    convex = strict = False
                elif g == 0 and j not in sigma:
                    strict = False
        return convex, strict


def has_strictly_convex_support(f: QuantumFan) -> bool:
    """Whether some strictly convex piecewise-linear function lives on f.

    Scale invariance lets a unit margin replace strict inequalities.
    """
    cal = f.calibration
    cones = list(f.max_cones)
    d = cal.d
    nv = len(cones) * d
    cons = []
    where = {}
    for ci, sigma in enumerate(cones):
        for j in sigma:
            where.setdefault(j, ci)
    for ci, sigma in enumerate(cones):
        for j in f.rays():
            cj = where[j]
            if ci == cj:
                continue
            row = [S0] * nv
            hj = cal.column(j)
            for c in range(d):
                row[ci * d + c] = row[ci * d + c] + hj[c]
                row[cj * d + c] = row[cj * d + c] - hj[c]
            if j in sigma:
                cons.append(lp.eq(row, 0))
            else:
                cons.append(lp.ge(row, -1))
    return lp.feasible(cons, nv)


def validate_fan(f: QuantumFan) -> dict:
    """Exact structural checks.  Two cones meet in the common face on
    J = s1 & s2 exactly when a hyperplane separates them there: a w with
    <w, h(e_j)> zero on J, positive on the rest of s1 and negative on the
    rest of s2 (the separation lemma), one LP per pair."""
    cal = f.calibration
    return {
        "strongly_convex": all(cone_is_strongly_convex(cal, s) for s in f.max_cones),
        "index_cover": set(f.rays()) == set(range(1, f.n + 1)) - set(f.virtual),
        "intersections_are_faces": all(
            lp.feasible([lp.eq(cal.column(j), 0) for j in sorted(s1 & s2)]
                        + [lp.gt(cal.column(j), 0) for j in sorted(s1 - s2)]
                        + [lp.gt(vscale(-1, cal.column(j)), 0) for j in sorted(s2 - s1)], cal.d)
            for s1, s2 in combinations(f.max_cones, 2)),
    }


def is_complete(f: QuantumFan) -> bool:
    """The maximal cones cover R^d exactly once: each is full-dimensional
    and pointed, each facet (keyed by its generator directions) lies in
    exactly two of them, one on each side of its hyperplane, and one
    generic ray lies in exactly one.  Crossing a facet shared so keeps the
    number of cones holding a generic point, and the points off the
    (d-2)-faces are connected, so that number is 1 everywhere; at d = 1
    the side condition alone makes it so."""
    cal = f.calibration
    if not all(cone_dim(cal, s) == cal.d and cone_is_strongly_convex(cal, s)
               for s in f.max_cones):
        return False
    planes: dict = {}
    sides: dict = {}
    normals = cal.hyperplane_normals
    for sigma in f.max_cones:
        for facet in facets_of(cal, sigma):
            key = frozenset(normalize_direction(cal.column(i)) for i in facet)
            if key not in planes:  # a spanning normal of d - 1 of the facet's generators
                planes[key] = next(normals[S] for S in combinations(_basis(facet), cal.d - 1)
                                   if S in normals)
            off = encode(cal.column(min(sigma - facet)))
            sides.setdefault(key, []).append(dot_sign(planes[key], off))
    if any(sorted(s) != [-1, 1] for s in sides.values()):
        return False
    ray = _generic_ray(cal)
    return sum(cone_contains(cal, s, ray) for s in f.max_cones) == 1


def _generic_ray(cal: Calibration) -> Vec:
    """The first moment-curve point (1, t, ..., t^(d-1)), t = 1, 2, ...,
    off every hyperplane spanned by columns.  Each nonzero normal vanishes
    there at no more than d - 1 values of t, so the search ends within
    (d - 1) C(n, d - 1) + 1 tries."""
    codes = list(cal.hyperplane_normals.values())
    for t in count(1):
        ray = vec([t ** k for k in range(cal.d)])
        e = encode(ray)
        if all(dot_sign(c, e) for c in codes):
            return ray
