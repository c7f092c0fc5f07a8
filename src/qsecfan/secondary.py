"""The secondary fan in chi-space R^(n-d).

Chambers are carved out of the Gale cone by two kinds of linear
inequalities in b (both read in chi as circuits of the columns, see
Calibration.chamber_form): convexity of the piecewise-linear support
function across each pair of adjacent maximal cones, and redundancy of
each virtual generator's constraint.  Walls between chambers either
toggle a virtual generator (divisorial, a star subdivision) or exchange
triangulations of a non-simplicial cone (flipping, described by a signed
circuit).  Walls are read off facet tags and circuits (_wall_of); only the
breadth-first search and the path walk step across them (_step_into).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator, Optional, Sequence

from . import lp
from .errors import (
    DegeneratePathError,
    DimensionMismatchError,
    InvalidCalibrationError,
    NotAdmissibleError,
    OnWallError,
)
from .fan import (
    CombinatorialType,
    QuantumFan,
    _basis,
    _fan_of_vertices,
    combinatorial_type,
    common_refinement,
    cone_contains,
    normal_fan,
    star_subdivision,
)
from .linalg import (
    Calibration,
    Matrix,
    Vec,
    dot,
    gale_rows,
    in_simplicial_cone,
    kernel_basis,
    normalize_direction,
    preimage_at_free,
    vadd,
    vec,
    vscale,
    vsub,
)
from .polytope import basis_scan
from .scalar import IntVec, Rational, S0, S1, Scalar, dot_sign, encode


def _signs_at_least(codes, e: IntVec, lo: int) -> bool:
    """Every encoded form has sign at least lo (0 or 1) at the encoded chi."""
    return all(dot_sign(w, e) >= lo for w in codes)


@dataclass(frozen=True)
class GaleCone:
    """Cone(k^T e_1, ..., k^T e_n) in R^(n-d) with its facet normals; codes
    are the normals encoded for dot_sign, computed when not given."""

    calibration: Calibration
    generators: tuple
    facet_normals: tuple
    codes: tuple = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.codes is None:
            object.__setattr__(self, "codes", tuple(map(encode, self.facet_normals)))

    @property
    def m(self) -> int:
        return self.calibration.n - self.calibration.d

    def contains(self, chi: Sequence) -> bool:
        """The closed cone: the Gale rows span R^(n-d), so the cone is
        full-dimensional and its facet inequalities describe it."""
        return _signs_at_least(self.codes, encode(_chi_vec(self.calibration, chi)), 0)

    def interior_contains(self, chi: Sequence) -> bool:
        return _signs_at_least(self.codes, encode(_chi_vec(self.calibration, chi)), 1)

    def to_json(self) -> dict:
        return {
            "generators": [[x.to_json() for x in g] for g in self.generators],
            "facet_normals": [[x.to_json() for x in w] for w in self.facet_normals],
        }


def _chi_vec(cal: Calibration, chi: Sequence) -> Vec:
    """chi as a Vec, checked to have length n-d."""
    cc, m = vec(chi), cal.n - cal.d
    if len(cc) != m:
        raise DimensionMismatchError(f"chi of length {len(cc)} for a Gale cone in R^{m}")
    return cc


def gale_cone(cal: Calibration) -> GaleCone:
    return GaleCone(cal, cal.gale.rows, cal.gale_facet_normals, cal.gale_facet_codes)


def is_admissible(cal: Calibration, chi: Sequence) -> bool:
    """chi interior to the Gale cone, equivalently dim P_chi = d."""
    return _signs_at_least(cal.gale_facet_codes, encode(_chi_vec(cal, chi)), 1)


def _walls_holding(cal: Calibration, cc: Vec) -> Iterator[list[int]]:
    """The Gale rows (indices) on each wall hyperplane H through chi whose
    cone holds chi.  By Caratheodory chi lies on a cone of fewer than n-d
    rows exactly when some H qualifies: that cone's independent rows extend
    inside the rows to n-d-1 spanning an H, and chi in the cone of the rows
    on H is in the cone of n-d-1 independent ones, since they span H.  For
    n-d = 1, H is {0}."""
    e = encode(cc)
    for w in cal.wall_codes:
        if dot_sign(w, e) == 0:
            on = [i for i, g in enumerate(cal.gale_row_codes) if dot_sign(w, g) == 0]
            rows = [cal.gale.rows[i] for i in on]
            if any(in_simplicial_cone(S, cc) for S in combinations(rows, cal.n - cal.d - 1)):
                yield on


def degenerate_span_witnesses(cal: Calibration, chi: Sequence) -> list[Vec]:
    """Normals of deficient-span generator cones containing chi, read off the
    subsets of fewer than n-d rows on the walls holding chi, each tried once:
    a dependent subset fails, and one of its independent subsets of the same
    span gives the same normals."""
    cc = _chi_vec(cal, chi)
    subsets = {I for on in _walls_holding(cal, cc)
               for r in range(cal.n - cal.d) for I in combinations(on, r)}
    found = set()
    for gens in ([cal.gale.rows[i] for i in I] for I in subsets):
        if in_simplicial_cone(gens, cc):
            found.update(map(normalize_direction, kernel_basis(Matrix(gens))) if gens
                         else [tuple([S0] * len(cc))])
    return sorted(found)


def is_generic(cal: Calibration, chi: Sequence) -> bool:
    """chi is on no cone of fewer than n-d Gale rows: no wall through chi holds it."""
    return next(_walls_holding(cal, _chi_vec(cal, chi)), None) is None


@dataclass(frozen=True)
class ChamberInequality:
    """<normal, chi> >= 0; kind "wall" carries (sigma, sigma', j), kind
    "virtual" carries the virtual generator index.  code is the normal
    encoded for dot_sign."""

    normal: Vec
    kind: str
    payload: tuple
    code: IntVec = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "code", encode(self.normal))


@dataclass(frozen=True)
class FacetRecord:
    normal: Vec            # inward: chamber side has <normal, chi> >= 0
    point: Optional[Vec]   # relative-interior point of the facet
    boundary: bool         # facet of the Gale cone itself, not a wall
    tags: tuple


@dataclass(frozen=True)
class Chamber:
    calibration: Calibration
    inequalities: tuple
    comb: CombinatorialType
    virtual: frozenset
    rep_point: Vec
    fan: QuantumFan

    @property
    def key(self):
        return (self.comb.poset, self.virtual)

    def contains(self, chi: Sequence, strict: bool = True) -> bool:
        e = encode(_chi_vec(self.calibration, chi))
        return _signs_at_least((q.code for q in self.inequalities), e, 1 if strict else 0)

    def unique_normals(self) -> list[tuple[Vec, tuple]]:
        groups: dict[Vec, list] = {}
        for q in self.inequalities:
            groups.setdefault(normalize_direction(q.normal), []).append(q)
        return [(w, tuple(groups[w])) for w in sorted(groups)]

    def facets(self) -> list[FacetRecord]:
        """Irredundant inequalities with a relative-interior facet point."""
        cal = self.calibration
        m = cal.n - cal.d
        interior = [lp.gt(v, 0) for v in cal.gale_facet_normals]
        normals = self.unique_normals()
        out = []
        for w, tags in normals:
            cons = [lp.eq(w, 0)] + [lp.gt(w2, 0) for w2, _ in normals if w2 != w]
            # w . chi = 0 meets the open Gale cone (positive combinations of the
            # spanning rows g), and the facet point is sought there first, unless
            # w (as a tag's code) leaves every g on one side: the facet is boundary
            boundary = not {1, -1} <= {dot_sign(tags[0].code, g) for g in cal.gale_row_codes}
            point = None if boundary else lp.find_point(cons + interior, m)
            point = point or lp.find_point(cons, m)
            if point is None:
                continue  # redundant inequality
            out.append(FacetRecord(w, point, boundary, tags))
        return out

    def to_json(self) -> dict:
        return {
            "inequalities": [
                {"normal": [x.to_json() for x in q.normal], "kind": q.kind,
                 "payload": list(q.payload)}
                for q in self.inequalities
            ],
            "rep_comb": {"poset": self.comb.to_json(), "virtual": sorted(self.virtual)},
            "rep_point": [x.to_json() for x in self.rep_point],
        }


def _chamber_inequality(cal: Calibration, sigma, j: int, kind: str,
                        payload: tuple) -> ChamberInequality:
    """z . chi >= 0 for z . chi = <x_sigma(b), h(e_j)> + b_j, where x_sigma(b)
    is the vertex of P_b dual to the simplicial cone sigma (1-based
    indices): z is the calibration's chamber form."""
    J = _basis(sigma)
    if not cal.chirotope.get(J):
        raise NotAdmissibleError("maximal cone does not span R^d")
    return ChamberInequality(cal.chamber_form(J, j - 1), kind, payload)


def chamber_of(cal: Calibration, chi: Sequence) -> Chamber:
    """The GKZ chamber containing the generic admissible point chi, decided
    by the basis_scan of its preimage b with zeros off the free columns; a
    live chamber with the same basis-scan tight sets lends its fan and
    inequalities."""
    cc = _chi_vec(cal, chi)
    e = encode(cc)
    if not _signs_at_least(cal.gale_facet_codes, e, 1):
        raise NotAdmissibleError("chi is not interior to the Gale cone")
    # P_b is d-dimensional for admissible chi; it is never bounded without
    # positively spanning columns, and with them it is simple exactly when
    # chi is generic
    tight_sets = tuple(frozenset(t) for _, t in basis_scan(cal, encode(preimage_at_free(cal, cc)))) \
        if cal.positively_spanning else None
    if tight_sets is None or any(len(t) > cal.d for t in tight_sets):
        witnesses = degenerate_span_witnesses(cal, cc)
        if witnesses:
            raise OnWallError("chi lies on a degenerate-span cone", witnesses)
        raise NotAdmissibleError("P_b is unbounded, its normal fan is not complete")
    old = cal.live_chambers.get(tight_sets)
    if old is not None:
        ineqs, comb, f = old.inequalities, old.comb, old.fan
    else:
        f = _fan_of_vertices(cal, tight_sets)
        ineqs = []
        for s1, s2 in combinations(f.max_cones, 2):
            if len(s1 & s2) != cal.d - 1:
                continue
            for j in sorted(s2 - s1):
                ineqs.append(_chamber_inequality(cal, s1, j, "wall",
                                                 (tuple(sorted(s1)), tuple(sorted(s2)), j)))
        for i in sorted(f.virtual):
            sigma = f.cone_containing(cal.column(i))
            if sigma is None:
                raise NotAdmissibleError(f"virtual generator {i} outside the fan support")
            ineqs.append(_chamber_inequality(cal, sigma, i, "virtual", (i,)))
        ineqs, comb = tuple(ineqs), combinatorial_type(f)
    ch = Chamber(cal, ineqs, comb, f.virtual, cc, f)
    cal.live_chambers.setdefault(tight_sets, ch)  # keeps old while it lives
    return ch


def _generic_interior_point(cal: Calibration) -> Vec:
    """A perturbed positive combination of the Gale generators, retried
    deterministically until generic."""
    rows = gale_rows(cal)
    m = cal.n - cal.d
    attempts = 200
    not_generic = 0
    for attempt in range(attempts):
        chi = tuple([S0] * m)
        for i, g in enumerate(rows):
            w = Scalar(Rational(97 + 13 * (i + 1) + attempt * (i + 2) ** 2, 97))
            chi = vadd(chi, vscale(w, g))
        admissible = is_admissible(cal, chi)
        if admissible and is_generic(cal, chi):
            return chi
        not_generic += admissible
    raise NotAdmissibleError(
        f"no generic interior point found in {attempts} attempts "
        f"({attempts - not_generic} not admissible, {not_generic} not generic)")


@dataclass
class SecondaryFan:
    chambers: list
    adjacency: dict  # chamber index -> list of (facet normal, neighbor index or None)

    def to_json(self) -> dict:
        return {
            "chambers": [ch.to_json() for ch in self.chambers],
            "adjacency": {
                str(i): [{"normal": [x.to_json() for x in w], "neighbor": nb}
                         for w, nb in lst]
                for i, lst in self.adjacency.items()
            },
        }


def _step_into(cal: Calibration, point: Vec, step: Vec, key, halvings: int):
    """The first chamber at an admissible generic point + eps * step, eps = 1,
    1/2, ..., that is not keyed key and holds point in its closure (else the
    step overshot), or None; with the counts of steps rejected as not
    admissible or not generic, in the chamber keyed key, and overshot."""
    not_generic = same = overshoot = 0
    eps = S1
    for _ in range(halvings):
        cand = vadd(point, vscale(eps, step))
        eps = eps / Scalar(2)
        if not is_admissible(cal, cand) or not is_generic(cal, cand):
            not_generic += 1
            continue
        nch = chamber_of(cal, cand)
        if nch.key == key:
            same += 1
        elif nch.contains(point, strict=False):
            return nch, (not_generic, same, overshoot)
        else:
            overshoot += 1
    return None, (not_generic, same, overshoot)


def _step_beyond(cal: Calibration, ch: Chamber, facet: FacetRecord):
    """A chamber just across the facet, found by walking a shrinking step
    against the facet normal and verifying adjacency."""
    nch, (not_generic, same, overshoot) = _step_into(
        cal, facet.point, vscale(-1, facet.normal), ch.key, 120)
    if nch is None:
        raise DegeneratePathError(
            f"could not step across the chamber facet with normal {facet.normal!r}: "
            f"120 steps rejected ({not_generic} not admissible or not generic, "
            f"{same} in the same chamber, {overshoot} overshot)")
    return nch


def enumerate_chambers(cal: Calibration) -> SecondaryFan:
    """All chambers by breadth-first wall crossing from one generic point."""
    if not cal.is_geometric():
        raise InvalidCalibrationError("chamber enumeration requires a geometric calibration")
    if cal.n == cal.d:
        return SecondaryFan([], {})
    start = chamber_of(cal, _generic_interior_point(cal))
    chambers = [start]
    index_of = {start.key: 0}
    adjacency: dict[int, list] = {}
    queue = [0]
    while queue:
        ci = queue.pop(0)
        ch = chambers[ci]
        links = []
        for facet in ch.facets():
            if facet.boundary:
                links.append((facet.normal, None))
                continue
            nch = _step_beyond(cal, ch, facet)
            if nch.key not in index_of:
                index_of[nch.key] = len(chambers)
                chambers.append(nch)
                queue.append(index_of[nch.key])
            links.append((facet.normal, index_of[nch.key]))
        adjacency[ci] = links
    return SecondaryFan(chambers, adjacency)


@dataclass(frozen=True)
class Wall:
    normal: Vec
    type: str  # "divisorial" | "flipping" | "boundary"
    # flipping (I+, I-): Z - {i}, i in I+, lies in a cone of the current fan
    circuit: Optional[tuple] = None
    virtual_index: Optional[int] = None   # toggled generator for divisorial

    def to_json(self) -> dict:
        out = {"normal": [x.to_json() for x in self.normal], "type": self.type}
        if self.circuit is not None:
            out["circuit"] = [sorted(self.circuit[0]), sorted(self.circuit[1])]
        if self.virtual_index is not None:
            out["virtual_index"] = self.virtual_index
        return out


def _wall_of(ch: Chamber, normal: Vec, boundary: bool, tags: tuple) -> Wall:
    """The wall of ch on a facet, read off one circuit Z = c_S: S is the cone
    of ch's fan holding h(e_i) plus i for the least virtual tag (i,), else
    s1 + {j} for the first wall tag (s1, s2, j); Z's first part holds the i
    with Z - {i} in a cone of ch's fan.  A part {z} inserts or deletes the
    ray z (the lesser z when parallel columns swap); else the wall flips Z."""
    if boundary:
        return Wall(normal, "boundary")
    virtual = min((q.payload[0] for q in tags if q.kind == "virtual"), default=None)
    if virtual is not None:
        S = ch.fan.cone_containing(ch.calibration.column(virtual)) | {virtual}
    else:
        S = next({*q.payload[0], q.payload[2]} for q in tags if q.kind == "wall")
    S = tuple(sorted(i - 1 for i in S))
    signs = [(i + 1, x) for i, x in zip(S, ch.calibration.circuit_signs(S))]
    plus, minus = (frozenset(i for i, s in signs if s == t) for t in (1, -1))
    Z = plus | minus
    if not all(any(Z - {i} <= c for c in ch.fan.max_cones) for i in plus):
        plus, minus = minus, plus
    single = [min(part) for part in (plus, minus) if len(part) == 1]
    if single:
        return Wall(normal, "divisorial", virtual_index=min(single))
    return Wall(normal, "flipping", circuit=(plus, minus))


@dataclass
class WallCrossingReport:
    t_star: Optional[Scalar]
    wall: Optional[Wall]
    fan_minus: Optional[QuantumFan]
    fan_zero: Optional[QuantumFan]
    fan_plus: Optional[QuantumFan]
    index: Optional[tuple]
    checks: dict = field(default_factory=dict)

    @property
    def crossed(self) -> bool:
        return self.wall is not None

    def to_json(self) -> dict:
        return {
            "crossed": self.crossed,
            "t_star": None if self.t_star is None else self.t_star.to_json(),
            "wall": None if self.wall is None else self.wall.to_json(),
            "fan_minus": None if self.fan_minus is None else self.fan_minus.to_json(),
            "fan_zero": None if self.fan_zero is None else self.fan_zero.to_json(),
            "fan_plus": None if self.fan_plus is None else self.fan_plus.to_json(),
            "index": self.index,
            "checks": self.checks,
        }


@dataclass(frozen=True)
class AffinePath:
    """chi(t) = k^T (beta + alpha t) for t in [-1, 1]."""

    beta: Vec
    alpha: Vec

    def __post_init__(self):
        object.__setattr__(self, "beta", vec(self.beta))
        object.__setattr__(self, "alpha", vec(self.alpha))

    def chi(self, cal: Calibration, t) -> Vec:
        t = Scalar.coerce(t)
        b = vadd(self.beta, vscale(t, self.alpha))
        return cal.gale_t.matvec(b)

    def to_json(self) -> dict:
        return {"beta": [x.to_json() for x in self.beta],
                "alpha": [x.to_json() for x in self.alpha]}


@dataclass
class CobordismReport:
    crossings: list
    chamber_keys: list

    def to_json(self) -> dict:
        return {"crossings": [r.to_json() for r in self.crossings],
                "chambers_visited": len(self.chamber_keys)}


def _classify_crossing(cal: Calibration, wall: Wall, chi_star: Vec,
                       f_minus: QuantumFan, f_plus: QuantumFan,
                       t_star: Optional[Scalar]) -> WallCrossingReport:
    """Crossing wall at chi_star from f_minus to f_plus: the checks test the wall's claim."""
    # every preimage of chi_star gives a translate of one P_b, so one fan
    f0 = normal_fan(cal, preimage_at_free(cal, chi_star))
    rays_minus, rays_plus = set(f_minus.rays()), set(f_plus.rays())
    checks: dict = {}
    if wall.type == "flipping":
        checks["rays_equal"] = rays_minus == rays_plus
        checks["on_wall_non_simplicial"] = not f0.is_simplicial()
        sides = _refines(cal, f_minus, f0) and _refines(cal, f_plus, f0)
        checks["sides_refine_on_wall"] = sides
        # each overlay cone lies in a cone of f_minus, so sides implies it
        checks["refinement_inside_on_wall"] = sides or _refines(
            cal, common_refinement(f_minus, f_plus), f0)
        index = None if wall.circuit is None else tuple(map(len, wall.circuit))
    else:
        i = wall.virtual_index
        checks["single_ray_toggled"] = rays_minus ^ rays_plus == {i}
        # the side holding the ray i is the star subdivision of the other at i
        index, coarse, fine = ((1, cal.d), f_minus, f_plus) if i in rays_plus \
            else ((cal.d, 1), f_plus, f_minus)
        sub = star_subdivision(coarse, i)
        checks["star_subdivision"] = set(sub.max_cones) == set(fine.max_cones) \
            and sub.virtual == fine.virtual
    return WallCrossingReport(t_star, wall, f_minus, f0, f_plus, index, checks)


def _refines(cal: Calibration, fine, coarse: QuantumFan) -> bool:
    """Every cone of fine sits inside a maximal cone of coarse, each ray
    encoded once.  fine is a QuantumFan or, as the d >= 3 overlay of
    common_refinement, a tuple of cones given by their rays."""
    if isinstance(fine, QuantumFan):
        fine = ([cal.column(i) for i in s] for s in fine.max_cones)
    return all(any(all(cone_contains(cal, t, r, e) for r, e in rays) for t in coarse.max_cones)
               for rays in ([(r, encode(r)) for r in cone] for cone in fine))


def cobordism_from_path(path: AffinePath, cal: Calibration) -> CobordismReport:
    """Walk chi(t) from t = -1 to t = 1 and report every wall crossed."""
    chi_lo, chi_0, chi_hi = (path.chi(cal, t) for t in (-1, 0, 1))
    for endpoint in (chi_lo, chi_hi):
        if not is_admissible(cal, endpoint) or not is_generic(cal, endpoint):
            raise DegeneratePathError("path endpoint is not admissible and generic")
    t_cur = Scalar(-1)
    ch = chamber_of(cal, chi_lo)
    crossings: list[WallCrossingReport] = []
    keys = [ch.key]
    one = S1
    while True:
        # exact exit times of the current chamber along the path
        candidates = []
        for w, tags in ch.unique_normals():
            a = dot(w, chi_0)
            s = dot(w, chi_hi) - a
            if s.is_zero():
                continue
            t_star = -a / s
            if t_cur < t_star < one:
                candidates.append((t_star, w, tags))
        if not candidates:
            break
        candidates.sort(key=lambda c: c[0])
        t_star, w, tags = candidates[0]
        same = [c for c in candidates if c[0] == t_star]
        if len(same) > 1:
            raise DegeneratePathError("path hits a codimension-2 locus")
        later = [c[0] for c in candidates[1:]]
        gap = min([one - t_star, t_star - t_cur] + [t2 - t_star for t2 in later])
        chi_star = path.chi(cal, t_star)
        # chi is affine in t: chi_star + eps * step = chi(t_star + eps * gap / 2), past w
        step = vscale(gap / Scalar(2), vsub(chi_hi, chi_0))
        nch, (not_generic, _, overshoot) = _step_into(cal, chi_star, step, ch.key, 80)
        if nch is None:
            raise DegeneratePathError(
                f"could not isolate the wall crossing at t_star = {t_star!r} with "
                f"normal {w!r}: 80 steps rejected ({not_generic} not admissible "
                f"or not generic, {overshoot} overshot)")
        crossings.append(_classify_crossing(cal, _wall_of(ch, w, False, tags), chi_star,
                                            ch.fan, nch.fan, t_star))
        ch = nch
        keys.append(ch.key)
        t_cur = t_star
    return CobordismReport(crossings, keys)


def cross_wall(path: AffinePath, cal: Calibration) -> WallCrossingReport:
    """Single-crossing report; paths crossing several walls must be split."""
    rep = cobordism_from_path(path, cal)
    if not rep.crossings:
        return WallCrossingReport(None, None, None, None, None, None,
                                  {"no_crossing": True})
    if len(rep.crossings) > 1:
        raise DegeneratePathError(
            f"path crosses {len(rep.crossings)} walls; split it at the crossing parameters")
    return rep.crossings[0]


def classify_wall(ch: Chamber, facet: FacetRecord) -> Wall:
    """Divisorial or flipping nature of a chamber facet (or the boundary
    marker when the facet lies on the Gale cone's own boundary), read off
    its tags."""
    return _wall_of(ch, facet.normal, facet.boundary, facet.tags)
