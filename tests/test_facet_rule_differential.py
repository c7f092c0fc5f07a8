"""linalg.facet_normals and the bracket rule of Calibration.positively_spanning
against the routes they replaced: the Gale-rank and Fourier-Motzkin tests
of positive spanning (reference_geometry.positively_spanning_gale and
positively_spanning_fm) and the sign loop of the d = 3 cone intersection
(reference_geometry.cone_intersection_rays_cross)."""

import json
import random
from itertools import combinations
from pathlib import Path

import pytest

from qsecfan import (
    Calibration,
    DimensionMismatchError,
    HPolytope,
    InvalidCalibrationError,
    Scalar,
    chamber_of,
    is_admissible,
    normal_fan,
)
from qsecfan.fan import _cone_hrep, _cone_intersection_rays, cone_dim
from qsecfan.linalg import facet_normals, vec

from conftest import SQ2, unconstrained_calibration
from reference_geometry import (
    cone_hrep_ref,
    cone_intersection_rays_cross,
    cone_intersection_rays_fm,
    positively_spanning_fm,
    positively_spanning_gale,
)

GOLDEN = json.loads((Path(__file__).resolve().parent.parent
                     / "perfbench" / "data" / "golden.json").read_text())


def faces_calibrations():
    return [Calibration.from_json(inst["calibration"]) for inst in GOLDEN["faces"]["instances"]]


def paths_instances():
    """(calibration, b) of both ends of every recorded paths pair."""
    return [(Calibration.from_json(end["calibration"]), [Scalar.from_json(x) for x in end["b"]])
            for pair in GOLDEN["paths"]["pairs"] for end in pair]


def assert_same_spanning(cal):
    got = cal.positively_spanning
    assert got == positively_spanning_gale(cal) == positively_spanning_fm(cal), cal.to_json()
    return got


def cut(cal):
    """cal without its last d columns, or None when they do not span."""
    try:
        return Calibration(cal.d, cal.n - cal.d, cal.columns[:-cal.d])
    except InvalidCalibrationError:
        return None


def test_positively_spanning_matches_on_references_and_the_pool(
        qex, qex_t1, p2, fig5, frustum, exc4, instance_pool):
    cals = [qex, qex_t1, p2, fig5, frustum, exc4] + [c for c, _, _ in instance_pool]
    assert all(assert_same_spanning(cal) for cal in cals)
    # without their last d columns the pool's columns need not span: both answers
    assert {assert_same_spanning(c) for c in map(cut, cals) if c is not None} == {True, False}


def test_positively_spanning_matches_on_the_faces_and_paths_calibrations():
    faces = faces_calibrations()
    paths = [cal for cal, _ in paths_instances()]
    assert (len(faces), len(paths)) == (48, 56)
    assert all(assert_same_spanning(cal) for cal in faces + paths)
    assert {cal.n - cal.d for cal in faces} >= {2, 3, 4, 5}


def test_positively_spanning_matches_on_unconstrained_column_sets():
    rng = random.Random(20261020)
    seen = {}
    for d in (1, 2, 3, 4):
        for m in range(6 if d < 4 else 3):
            for kind in ("free", "half", "coloop") if d > 1 else ("free", "half"):
                for _ in range(3):
                    cal = None
                    while cal is None:
                        cal = unconstrained_calibration(rng, d, m, kind, rng.random() < 0.5)
                    seen.setdefault((d, m), set()).add(assert_same_spanning(cal))
    assert all(False in answers for answers in seen.values())
    assert {dm for dm, answers in seen.items() if True in answers} >= {
        (1, 1), (1, 5), (2, 2), (2, 5), (3, 2), (3, 5), (4, 1), (4, 2)}


def test_positively_spanning_in_dimension_zero():
    """R^0 is the cone of no columns (the Gale route answered False)."""
    assert Calibration(0, 0, ()).positively_spanning
    assert HPolytope(0, (), ()).is_bounded()


def test_is_admissible_checks_the_length_of_chi_first():
    """n-d = 4: a chi of the wrong length raises, one of length 4 answers."""
    cal = Calibration(1, 5, ((1,), (2,), (-1,), (-3,), (5,)))
    for route in (is_admissible, chamber_of):
        with pytest.raises(DimensionMismatchError):
            route(cal, vec([1] * 5))
    assert is_admissible(cal, vec([1] * 4)) is True
    ch = chamber_of(cal, vec([1] * 4))
    assert ch.fan.max_cones == (frozenset({1}), frozenset({4}))
    assert ch.virtual == {2, 3, 5}


def test_facet_normals_in_r1():
    assert facet_normals([vec([1])], [vec([2]), vec([3])]) == {vec([1])}
    assert facet_normals([vec([3])], [vec([-2])]) == {vec([-1])}
    assert facet_normals([vec([1])], [vec([2]), vec([-1])]) == frozenset()


def test_facet_normals_of_a_half_plane():
    vectors = [vec([1, 0]), vec([0, 1]), vec([-1, 0])]
    assert facet_normals([vec([0, 2]), vec([3, 0])], vectors) == {vec([0, 1])}


def test_facet_normals_of_a_simplicial_cone():
    a, b, c = vec([1, 0, 0]), vec([1, 1, 0]), vec([1, 1, 1])
    candidates = [vec([0, 0, 1]), vec([0, -1, 1]), vec([1, -1, 0])]
    assert facet_normals(candidates, [a, b, c]) == {
        vec([0, 0, 1]), vec([0, 1, -1]), vec([1, -1, 0])}


def test_facet_normals_of_irrational_vectors():
    vectors = [vec([1, 0]), vec([1, SQ2])]
    got = facet_normals([vec([0, 1]), vec([-SQ2, 1])], vectors)
    assert got == {vec([0, 1]), vec([1, -SQ2 / 2])}


def test_facet_normals_skip_a_zero_candidate():
    vectors = [vec([1, 0]), vec([0, 1])]
    assert facet_normals([vec([0, 0]), vec([2, 0]), vec([0, 5])], vectors) == {
        vec([1, 0]), vec([0, 1])}
    assert facet_normals([vec([0, 0])], vectors) == frozenset()


def test_d3_cones_of_the_paths_pool_match_the_sign_loops():
    """Every pair of full-dimensional cones of one d = 3 paths calibration:
    the simplicial ones and the maximal cones of the fan at the recorded b."""
    pairs = 0
    for cal, b in paths_instances():
        if cal.d != 3:
            continue
        cones = {frozenset(J) for J in combinations(range(1, cal.n + 1), 3)
                 if cone_dim(cal, J) == 3}
        cones |= set(normal_fan(cal, b).max_cones)
        hreps = {s: _cone_hrep(cal, s) for s in cones}
        for s, h in hreps.items():
            assert h == cone_hrep_ref(cal, s)
        for s1, s2 in combinations(sorted(cones, key=sorted), 2):
            normals = hreps[s1] + hreps[s2]
            assert _cone_intersection_rays(normals) == cone_intersection_rays_cross(normals)
            pairs += 1
        # the FM route on the pairs of the recorded fan
        for s1, s2 in combinations(normal_fan(cal, b).max_cones, 2):
            normals = hreps[s1] + hreps[s2]
            assert _cone_intersection_rays(normals) == cone_intersection_rays_fm(normals)
    assert pairs > 1000
