"""The degree-one completeness rule of is_complete and the
separating-hyperplane check of validate_fan against the planar and d = 3
rules they replaced, on the pool, its fans with a cone dropped and random
cone sets; both rules and the overlay of common_refinement at d = 1, 4
and 5, where nothing replaced them."""

import random
from functools import reduce

import pytest

from qsecfan import (
    QuantumFan,
    common_refinement,
    enumerate_chambers,
    is_complete,
    normal_fan,
    validate_fan,
)
from qsecfan.fan import fan_from_rays
from qsecfan.linalg import vadd
from qsecfan.secondary import _classify_crossing, _refines, _step_beyond, classify_wall

from conftest import cal_of, random_calibration, random_instance
from reference_geometry import (
    cone_contains_dot,
    facets_paired,
    intersections_are_faces_lp,
    tiles_circle,
)

UNIT_3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
TETRAHEDRON = [frozenset(s) for s in ({1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4})]


def dropped(f):
    """f without its first maximal cone."""
    return QuantumFan(f.calibration, f.max_cones[1:], f.virtual, False)


def random_cone_sets(rng, cal, count):
    """Fans of 1..2n random cones of d or d + 1 generators each."""
    d, n = cal.d, cal.n
    return [QuantumFan(cal, tuple(frozenset(rng.sample(range(1, n + 1), rng.choice([d, d, d + 1])))
                                  for _ in range(rng.randint(1, 2 * n))))
            for _ in range(count)]


def covered_twice(f):
    """A cone whose generator sum, a point of its interior, lies in another
    maximal cone too: in a fan two maximal cones meet in a proper face of
    each, so this shows f is no fan."""
    cal, cones = f.calibration, list(f.max_cones)
    for k, sigma in enumerate(cones):
        point = reduce(vadd, (cal.column(i) for i in sigma))
        if any(cone_contains_dot(cal, tau, point) for tau in cones[:k] + cones[k + 1:]):
            return True
    return False


@pytest.fixture(scope="module")
def planar_fans(instance_pool):
    """At each d = 2 pool calibration: the normal fan and the fan of all
    rays, each also with a cone dropped, the fan of a random subset of
    at least 3 rays, and random cone sets."""
    rng = random.Random(26)
    out = []
    for cal, _, b in instance_pool:
        if cal.d != 2:
            continue
        f, g = normal_fan(cal, b), fan_from_rays(cal, range(1, cal.n + 1))
        some = rng.sample(range(1, cal.n + 1), rng.randint(3, cal.n))
        out += [f, dropped(f), g, dropped(g), fan_from_rays(cal, some)]
        out += random_cone_sets(rng, cal, 4)
    return out


@pytest.fixture(scope="module")
def spatial_fans(instance_pool):
    """The normal fan of each d = 3 pool calibration and its fan with a
    cone dropped."""
    out = []
    for cal, _, b in instance_pool:
        if cal.d == 3:
            f = normal_fan(cal, b)
            out += [f, dropped(f)]
    return out


def test_planar_rule_matches_the_sectors(planar_fans):
    outcomes = [is_complete(f) for f in planar_fans]
    assert outcomes == [tiles_circle(f.calibration, f) for f in planar_fans]
    assert 150 < sum(outcomes) < len(outcomes) - 300


def test_spatial_rule_matches_the_pairing_on_fans(spatial_fans):
    outcomes = [is_complete(f) for f in spatial_fans]
    assert outcomes == [facets_paired(f) for f in spatial_fans]
    assert outcomes == [True, False] * (len(spatial_fans) // 2)
    assert len(spatial_fans) > 150


def test_the_pairing_differs_only_on_a_double_cover():
    """Where the d = 3 pairing and the degree-one rule disagree on random
    cone sets, the pairing calls a set complete that covers some point
    twice, and so is no fan."""
    rng = random.Random(30)
    differ = checked = 0
    while checked < 300:
        cal = random_calibration(rng, 3, rng.randint(5, 7))
        if cal is None:
            continue
        for f in random_cone_sets(rng, cal, 3):
            checked += 1
            if is_complete(f) != facets_paired(f):
                assert facets_paired(f) and covered_twice(f)
                differ += 1
    assert differ > 0


@pytest.mark.parametrize("columns, cones", [
    (UNIT_3, TETRAHEDRON),
    (UNIT_3 + [tuple(-x for x in c) for c in UNIT_3],
     TETRAHEDRON + [frozenset(i + 4 for i in s) for s in TETRAHEDRON]),
])
def test_a_tetrahedron_boundary_off_the_origin_is_not_complete(columns, cones):
    """The four cones cover the positive octant twice and miss the rest;
    each facet lies in two of them, so the pairing rule accepts it, and
    two disjoint such boundaries on one calibration the same."""
    f = QuantumFan(cal_of(3, columns), tuple(cones))
    assert facets_paired(f) and covered_twice(f)
    assert not is_complete(f)
    report = validate_fan(f)
    assert not report["intersections_are_faces"]
    assert intersections_are_faces_lp(f)  # each s1 & s2 is a face of both
    assert report["strongly_convex"] and report["index_cover"]


def test_separating_hyperplanes_match_the_face_check(instance_pool, planar_fans):
    """On the pool's normal fans the two checks agree; on any cone set the
    separation check is the stricter one."""
    for cal, _, b in instance_pool:
        f = normal_fan(cal, b)
        assert validate_fan(f)["intersections_are_faces"]
        assert intersections_are_faces_lp(f)
    strict = 0
    for f in planar_fans:
        got, face_lp = validate_fan(f)["intersections_are_faces"], intersections_are_faces_lp(f)
        assert face_lp or not got
        strict += got != face_lp
    assert strict > 0


@pytest.mark.parametrize("rays, complete", [
    ([1, 2], True), ([2, 3], True), ([1, 3], False), ([1], False), ([1, 2, 3], False),
    ([], False),
])
def test_a_line_is_covered_by_two_opposite_rays(rays, complete):
    cal = cal_of(1, [(1,), (-2,), (3,)])
    assert is_complete(QuantumFan(cal, tuple(frozenset({i}) for i in rays))) == complete


def test_cones_that_hold_a_line_are_no_fan():
    """The upper and lower half-planes cover the plane once, each on the
    other's side of their shared line, but they are not pointed."""
    cal = cal_of(2, [(1, 0), (0, 1), (-1, 0), (0, -1)])
    halves = QuantumFan(cal, (frozenset({1, 2, 3}), frozenset({1, 3, 4})))
    assert not is_complete(halves) and not tiles_circle(cal, halves)
    assert is_complete(QuantumFan(cal, tuple(frozenset({i, i % 4 + 1}) for i in range(1, 5))))


@pytest.fixture(scope="module")
def high_dimensional_fans():
    """The normal fans of random (4, 6..7) and (5, 7..8) instances."""
    rng = random.Random(28)
    out = []
    for d, count in ((4, 8), (5, 4)):
        while sum(f.d == d for f in out) < count:
            inst = random_instance(rng, d, d + rng.randint(2, 3), irrational=rng.random() < 0.3)
            if inst is not None:
                cal, _, b = inst
                out.append(normal_fan(cal, b))
    return out


def test_high_dimensional_normal_fans_are_complete(high_dimensional_fans):
    for f in high_dimensional_fans:
        assert is_complete(f)
        assert not is_complete(dropped(f))
        assert validate_fan(f) == {"strongly_convex": True, "index_cover": True,
                                   "intersections_are_faces": True}


@pytest.mark.parametrize("seed", [3, 5])
def test_flip_overlays_refine_both_sides_at_d_4(seed):
    """Every wall between chambers of a random (4, 6) and (4, 7) instance,
    crossed from both sides: at a flip the overlay lies in both fans and
    the report carries its check."""
    rng = random.Random(seed)
    cal = random_calibration(rng, 4, rng.choice([6, 7]))
    flips = 0
    for ch in enumerate_chambers(cal).chambers:
        for facet in ch.facets():
            if facet.boundary:
                continue
            other = _step_beyond(cal, ch, facet)
            rep = _classify_crossing(cal, classify_wall(ch, facet), facet.point, ch.fan,
                                     other.fan, None)
            if rep.wall.type == "flipping":
                flips += 1
                overlay = common_refinement(ch.fan, other.fan)
                assert _refines(cal, overlay, ch.fan) and _refines(cal, overlay, other.fan)
                assert rep.checks["refinement_inside_on_wall"]
    assert flips >= 4
