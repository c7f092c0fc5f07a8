"""chamber_of, which reads admissibility, the vertices of P_b and strict
containment off the signs of the calibration's encoded chi-space forms,
against the route it replaced: b = P chi, vertices_of and the simplicity
check on their tight sets, kept as reference_geometry.chamber_of_vertices."""

import random

from qsecfan import (
    DimensionMismatchError,
    NotAdmissibleError,
    OnWallError,
    chamber_of,
    enumerate_chambers,
)
from qsecfan.linalg import vec

from conftest import special_points
from reference_geometry import chamber_of_vertices


def outcome(cal, chi, route):
    """The chamber with its JSON, or the error raised with the witnesses
    an OnWallError carries."""
    try:
        ch = route(cal, chi)
    except (NotAdmissibleError, OnWallError, DimensionMismatchError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "equalities", None)
    return ch, ch.to_json()


def assert_same_outcome(cal, chi):
    """Equal chambers (inequalities, comb, virtual, rep_point, fan) or the
    same error; returns the kind of outcome."""
    got = outcome(cal, chi, chamber_of)
    assert got == outcome(cal, chi, chamber_of_vertices)
    return got[0] if isinstance(got[0], str) else "Chamber"


def wall_points(cal):
    """The facet points of every chamber: on a wall (or on the Gale cone's
    boundary), so each vertex there that the wall flips is not simple."""
    return [rec.point for ch in enumerate_chambers(cal).chambers for rec in ch.facets()]


def test_same_chambers_and_errors_on_reference_instances(qex, qex_t1, p2, fig5,
                                                         frustum, exc4):
    rng = random.Random(91)
    kinds = {}
    for cal in (qex, qex_t1, p2, fig5, frustum, exc4):
        pts = special_points(cal, rng) + [vec([1] * (cal.n - cal.d + 1))]
        if cal.is_geometric():
            pts += wall_points(cal)
        for chi in pts:
            kind = assert_same_outcome(cal, chi)
            kinds[kind] = kinds.get(kind, 0) + 1
    assert set(kinds) == {"Chamber", "NotAdmissibleError", "OnWallError",
                          "DimensionMismatchError"}
    assert kinds["OnWallError"] > 50


def test_same_chambers_on_the_pool(instance_pool):
    """Every pool instance, n-d = 2 to 6, gives a chamber at its parameter.
    Special points are sampled on the first 60 instances with n-d <= 3 and
    on the first three instances of each n-d > 3, from a second seed, so
    the draws of the first stay as they were."""
    rng, wide_rng = random.Random(92), random.Random(93)
    kinds, wide = set(), {}
    for k, (cal, chi, _) in enumerate(instance_pool):
        assert assert_same_outcome(cal, chi) == "Chamber"
        m = cal.n - cal.d
        if k < 60 and m <= 3:
            kinds |= {assert_same_outcome(cal, p) for p in special_points(cal, rng)}
        elif m > 3 and len(wide.setdefault(m, [])) < 3:
            wide[m].append({assert_same_outcome(cal, p) for p in special_points(cal, wide_rng)})
    every = {"Chamber", "NotAdmissibleError", "OnWallError"}
    assert kinds == every
    no_wall = every - {"OnWallError"}
    assert wide == {4: [every] * 3, 5: [every] * 3, 6: [no_wall, no_wall, every]}
