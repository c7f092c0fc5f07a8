"""The normal fan read off the tight sets of vertices, the vertex-based
genericity in chamber_of and the sign-based boundary test of
Chamber.facets against the affine_dim, is_generic and three-LP rules
they replaced."""

import dataclasses
import random

import pytest

from qsecfan import (
    DegeneratePathError,
    DimensionMismatchError,
    NotAdmissibleError,
    OnWallError,
    Rational,
    chamber_of,
    cobordism_from_path,
    enumerate_chambers,
    gale_cone,
    is_admissible,
    is_generic,
    normal_fan,
)
from qsecfan import lp
from qsecfan.linalg import dot, preimage_of_chi, vec, vscale
from qsecfan.secondary import ChamberInequality

from conftest import cal_of, random_generic_chi, segment, special_points
from reference_geometry import (
    chamber_facets_3lp,
    chamber_of_is_generic,
    normal_fan_affine,
    vertices_of_dict,
)


@pytest.fixture(scope="module")
def references(qex, qex_t1, p2, fig5, frustum, exc4):
    return [qex, qex_t1, p2, fig5, frustum, exc4]


def outcome(fn, *args):
    """A comparable summary of a result, or of the error raised with the
    witnesses an OnWallError carries."""
    try:
        got = fn(*args)
    except (NotAdmissibleError, OnWallError, DimensionMismatchError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "equalities", None)
    if hasattr(got, "max_cones"):
        return got.max_cones, got.virtual, got.complete
    return got, got.to_json()


def assert_same_fan(cal, b):
    got = outcome(normal_fan, cal, b)
    assert got == outcome(normal_fan_affine, cal, b)
    return got


def tight_only_at_non_simple(cal, b):
    """Constraints tight at some vertex of P_b but at no simple one: the
    only ones whose facet test still runs incidence_dim."""
    verts = vertices_of_dict(cal, b)
    simple = set().union(*(t for _, t in verts if len(t) == cal.d))
    return set().union(*(t for _, t in verts)) - simple


def test_normal_fan_matches_the_affine_rule_on_reference_instances(references):
    rng = random.Random(81)
    kinds = set()
    for cal in references:
        params = [vec([1] * cal.n), vec([0] * cal.n)]
        params += [vec([rng.randint(-3, 3) for _ in range(cal.n)]) for _ in range(30)]
        params += [vec([Rational(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(cal.n)])
                   for _ in range(10)]
        for b in params:
            kinds.add(assert_same_fan(cal, b)[0])
    assert {"NotAdmissibleError"} < kinds


def test_normal_fan_matches_the_affine_rule_on_the_pool(instance_pool):
    for cal, _, b in instance_pool:
        assert assert_same_fan(cal, b)[0] != "NotAdmissibleError"
        # a generic parameter: every vertex simple, no incidence_dim at all
        assert not tight_only_at_non_simple(cal, b)


def on_wall_points(cal, rng, paths):
    """chi* of every crossing along random segments, and the Gale rows."""
    pts = [vscale(rng.randint(1, 4), g) for g in cal.gale.rows]
    for _ in range(paths):
        chi_a = random_generic_chi(rng, cal, tries=60)
        chi_b = random_generic_chi(rng, cal, tries=60)
        if chi_a is None or chi_b is None:
            continue
        path = segment(cal, chi_a, chi_b)
        try:
            rep = cobordism_from_path(path, cal)
        except DegeneratePathError:
            continue
        pts += [path.chi(cal, c.t_star) for c in rep.crossings]
    return pts


def test_normal_fan_matches_the_affine_rule_at_non_simple_vertices(references,
                                                                   instance_pool):
    rng = random.Random(82)
    cals = references + [c for c, _, _ in instance_pool if c.n - c.d <= 3][:30]
    non_simple = decided = 0
    facet_outcomes = set()
    for cal in cals:
        for chi in on_wall_points(cal, rng, 3):
            b = preimage_of_chi(cal, chi)
            got = assert_same_fan(cal, b)
            if got[0] in ("NotAdmissibleError", "DimensionMismatchError"):
                continue
            verts = vertices_of_dict(cal, b)
            non_simple += any(len(t) > cal.d for _, t in verts)
            left = tight_only_at_non_simple(cal, b)
            decided += bool(left)
            facet_outcomes |= {i + 1 in got[1] for i in left}
    assert non_simple > 100 and decided > 0
    # incidence_dim found both facets and virtual generators among them
    assert facet_outcomes == {True, False}


def test_a_constraint_tight_at_non_simple_vertices_alone_can_cut_a_facet():
    """The unit square with its bottom corners touched by x + y >= 0 and
    -x + y >= -1: each corner lies on three constraints, so only
    incidence_dim finds that the bottom edge y >= 0 cuts a facet and that
    the two touching constraints are virtual."""
    cal = cal_of(2, [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, 1)])
    b = vec([0, 1, 0, 1, 0, 1])
    cones, virtual, _ = assert_same_fan(cal, b)
    assert tight_only_at_non_simple(cal, b) == {2, 4, 5}
    assert virtual == frozenset({5, 6})
    assert frozenset({1, 3}) in cones and frozenset({2, 3}) in cones


def chambers_of(cal, rng):
    """Every chamber of a geometric calibration; the chambers at the
    special points of one that enumerate_chambers refuses."""
    if cal.is_geometric():
        return enumerate_chambers(cal).chambers
    return [chamber_of(cal, chi) for chi in special_points(cal, rng)
            if is_admissible(cal, chi) and is_generic(cal, chi)]


def test_facet_records_match_three_lps(qex, fig5, frustum, exc4, instance_pool):
    rng = random.Random(84)
    cals = [qex, fig5, frustum, exc4] + [c for c, _, _ in instance_pool if c.n - c.d <= 3]
    kinds = {"boundary": 0, "wall": 0, "redundant": 0}
    for cal in cals:
        for ch in chambers_of(cal, rng):
            got = ch.facets()
            assert got == chamber_facets_3lp(ch)
            kinds["redundant"] += len(ch.unique_normals()) - len(got)
            for rec in got:
                kinds["boundary" if rec.boundary else "wall"] += 1
    assert min(kinds.values()) > 0


def test_facet_point_falls_back_outside_the_open_gale_cone(qex):
    """No enumerated chamber has a wall whose facet misses the open Gale
    cone, so one is built: the region beyond a Gale facet, cut by a
    hyperplane through the open Gale cone."""
    gc = gale_cone(qex)
    outside = vscale(-1, gc.facet_normals[0])
    cut = next(w for w in (vec([1, -1]), vec([1, -2]), vec([2, -1]))
               if {dot(w, g).sign() for g in gc.generators} >= {1, -1})
    ch = dataclasses.replace(chamber_of(qex, vec([1, 1])), inequalities=(
        ChamberInequality(outside, "virtual", (1,)), ChamberInequality(cut, "virtual", (2,))))
    got = ch.facets()
    assert got == chamber_facets_3lp(ch)
    wall = next(rec for rec in got if not rec.boundary)
    assert not gc.contains(wall.point)
    cons = [lp.eq(wall.normal, 0)] + [lp.gt(q.normal, 0) for q in ch.inequalities
                                      if q.normal != wall.normal]
    assert lp.find_point(cons + [lp.gt(v, 0) for v in gc.facet_normals], 2) is None


def test_chamber_of_matches_the_is_generic_rule(references, instance_pool):
    rng = random.Random(83)
    cals = references + [c for c, _, _ in instance_pool if c.n - c.d <= 3][:40]
    kinds = set()
    for cal in cals:
        pts = special_points(cal, rng) + on_wall_points(cal, rng, 1)
        for chi in pts:
            got = outcome(chamber_of, cal, chi)
            assert got == outcome(chamber_of_is_generic, cal, chi)
            kinds.add(got[0] if isinstance(got[0], str) else "Chamber")
    assert kinds == {"Chamber", "NotAdmissibleError", "OnWallError"}


def test_chamber_of_matches_on_non_positively_spanning_calibrations():
    orthant = cal_of(2, [(1, 0), (0, 1), (1, 1)])
    strip = cal_of(2, [(1, 0), (-1, 0), (0, 1)])
    messages = set()
    for cal in (orthant, strip):
        assert not cal.positively_spanning
        for chi in ([-2], [-1], [0], [1], [3], [1, 1]):
            got = outcome(chamber_of, cal, vec(chi))
            assert got == outcome(chamber_of_is_generic, cal, vec(chi))
            messages.add(got[1])
    assert {"chi lies on a degenerate-span cone",
            "P_b is unbounded, its normal fan is not complete"} <= messages
