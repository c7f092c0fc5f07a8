"""The second tests of three primitives against the single helpers that
replaced them: "same ray" and "opposite ray" by equal normalized
directions (fan._collinear_positive and projective._negative_multiple
with their dots and minors, kept in tests/reference_geometry.py), and
pointedness by cone membership (the Fourier-Motzkin test of
cone_is_strongly_convex), on the instance pool, the reference
calibrations and irrational sets with parallel and opposite columns."""

from itertools import combinations, product

import pytest

from qsecfan.fan import cone_is_strongly_convex
from qsecfan.linalg import normalize_direction
from qsecfan.projective import _negative_multiple

from conftest import SQ2, cal_of
from reference_geometry import (
    collinear_positive_dot,
    cone_is_strongly_convex_lp,
    negative_multiple_minors,
)


@pytest.fixture(scope="module")
def calibrations(qex, qex_t1, p2, fig5, exc4, frustum, corank4, instance_pool):
    """The references, the pool, and two sqrt(2) sets whose columns come
    in parallel and opposite pairs (2 and -sqrt(2) times column 1, and
    -(1 + sqrt(2)) times column 4 in d = 3)."""
    parallel3 = cal_of(3, [(1, 0, SQ2), (2, 0, 2 * SQ2), (-SQ2, 0, -2), (0, 1, 1),
                           (0, -1 - SQ2, -1 - SQ2), (1 + SQ2, 1, 0), (-1, -1, 1)])
    parallel2 = cal_of(2, [(1, SQ2), (SQ2, 2), (-1, -SQ2), (0, 1), (0, -3), (1 - SQ2, 1)])
    return [qex, qex_t1, p2, fig5, exc4, frustum, corank4, parallel3, parallel2] + \
        [cal for cal, _, _ in instance_pool]


def test_ray_directions_match_the_dot_and_minor_tests(calibrations):
    kinds = set()
    for cal in calibrations:
        for u, v in product(cal.columns, repeat=2):
            same = normalize_direction(u) == normalize_direction(v)
            assert same == collinear_positive_dot(u, v)
            assert _negative_multiple(u, v) == negative_multiple_minors(u, v)
            kinds.add((same, _negative_multiple(u, v)))
    assert kinds == {(True, False), (False, True), (False, False)}


def test_pointedness_by_membership_matches_the_lp(calibrations):
    """Every cone of at most d + 2 generators, lower-rank and dependent
    ones included."""
    seen = set()
    for cal in calibrations:
        for r in range(cal.d + 3):
            for sigma in combinations(range(1, cal.n + 1), r):
                got = cone_is_strongly_convex(cal, sigma)
                assert got == cone_is_strongly_convex_lp(cal, sigma)
                seen.add((got, r > cal.d))
    assert seen == {(True, False), (False, False), (True, True), (False, True)}
