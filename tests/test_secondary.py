"""Chambers, walls, and wall crossings of the parameter space."""

import dataclasses
import random

import pytest

from qsecfan import (
    AffinePath,
    CombinatorialType,
    DegeneratePathError,
    DimensionMismatchError,
    NotAdmissibleError,
    OnWallError,
    Rational,
    Scalar,
    chamber_of,
    classify_wall,
    cobordism_from_path,
    cross_wall,
    enumerate_chambers,
    gale_cone,
    is_admissible,
    is_generic,
)
from qsecfan.linalg import preimage_of_chi, vadd, vec, vscale
from qsecfan import linalg, secondary
from qsecfan.secondary import degenerate_span_witnesses

from conftest import SQ2, special_points
from reference_geometry import is_generic_lp

S = Scalar.coerce


def test_gale_cone_membership(qex):
    gc = gale_cone(qex)
    assert gc.contains(vec([1, 1]))
    assert gc.interior_contains(vec([1, 1]))
    assert gc.contains(vec([1, 0]))  # boundary generator
    assert not gc.interior_contains(vec([1, 0]))
    assert not gc.contains(vec([-1, 1]))
    assert is_admissible(qex, vec([1, 1]))
    assert not is_admissible(qex, vec([1, 0]))


def test_gale_cone_rejects_a_wrong_length(qex, fig5):
    for cal, chi in ((qex, [1, 1, 5]), (qex, [1]), (fig5, [1, 1]), (fig5, [1, 1, 1, 1])):
        gc, m = gale_cone(cal), cal.n - cal.d
        for test in (gc.contains, gc.interior_contains):
            with pytest.raises(DimensionMismatchError,
                               match=rf"chi of length {len(chi)} for a Gale cone in R\^{m}"):
                test(vec(chi))


def test_genericity_rejects_a_wrong_length(p2, qex):
    """n-d = 1 (p2) and n-d = 2 (qex), chi too short and too long."""
    for cal, chi in ((p2, []), (p2, [1, 2]), (qex, [1]), (qex, [1, 1, 1])):
        m = cal.n - cal.d
        for test in (is_generic, degenerate_span_witnesses):
            with pytest.raises(DimensionMismatchError,
                               match=rf"chi of length {len(chi)} for a Gale cone in R\^{m}"):
                test(cal, vec(chi))


def test_chamber_contains_rejects_a_wrong_length(qex, fig5, p2):
    """Chamber.contains checks the length itself, so a chamber without
    inequalities rejects a wrong chi too."""
    for cal, chi in ((qex, [1, 1, 5]), (qex, [1]), (fig5, [1, 1]), (p2, [1, 1])):
        ch = enumerate_chambers(cal).chambers[0]
        m = cal.n - cal.d
        for c in (ch, dataclasses.replace(ch, inequalities=())):
            for strict in (True, False):
                with pytest.raises(DimensionMismatchError,
                                   match=rf"chi of length {len(chi)} for a Gale cone in R\^{m}"):
                    c.contains(vec(chi), strict=strict)


def test_genericity(qex):
    assert is_generic(qex, vec([1, 1]))
    # a point on a single Gale generator spans a degenerate cone
    chi = vec([SQ2, 1])
    assert not is_generic(qex, chi)
    assert degenerate_span_witnesses(qex, chi)


def test_chamber_of_middle(qex):
    ch = chamber_of(qex, vec([1, 1]))
    assert ch.comb.is_isomorphic_to(CombinatorialType.c_type(4))
    assert ch.virtual == frozenset()
    assert ch.contains(vec([1, 1]))
    assert not ch.contains(vec([3, 1]))


def test_chamber_of_side_chambers(qex):
    # between the ray (1,0) and the generator (sqrt2,1): constraint 3 redundant
    lo = chamber_of(qex, vec([3, 1]))
    assert lo.virtual == frozenset({3})
    assert lo.comb.is_isomorphic_to(CombinatorialType.s_type(2))
    hi = chamber_of(qex, vec([1, 3]))
    assert hi.virtual == frozenset({4})


def test_chamber_of_rejects_bad_points(qex):
    with pytest.raises(NotAdmissibleError):
        chamber_of(qex, vec([-1, -1]))
    with pytest.raises(OnWallError):
        chamber_of(qex, vec([SQ2, 1]))


def test_enumerate_chambers_reference(qex):
    sf = enumerate_chambers(qex)
    assert len(sf.chambers) == 3
    virtuals = sorted(sorted(ch.virtual) for ch in sf.chambers)
    assert virtuals == [[], [3], [4]]


def test_enumerate_chambers_p2(p2):
    sf = enumerate_chambers(p2)
    assert len(sf.chambers) == 1
    ch = sf.chambers[0]
    assert ch.comb.is_isomorphic_to(CombinatorialType.s_type(2))
    assert ch.virtual == frozenset()


def test_enumerate_chambers_fig5(fig5):
    sf = enumerate_chambers(fig5)
    assert len(sf.chambers) == 11
    census = sorted((len(ch.comb.maximal_sets()), len(ch.virtual))
                    for ch in sf.chambers)
    assert census == [(3, 2)] * 5 + [(4, 1)] * 5 + [(5, 0)]


def test_chamber_facets_and_boundary(qex):
    sf = enumerate_chambers(qex)
    side = next(ch for ch in sf.chambers if ch.virtual == frozenset({3}))
    facets = side.facets()
    kinds = sorted(f.boundary for f in facets)
    # one facet on the Gale cone boundary, one interior wall
    assert kinds == [False, True]
    wall_facet = next(f for f in facets if not f.boundary)
    wall = classify_wall(side, wall_facet)
    assert wall.type == "divisorial"
    assert wall.virtual_index == 3
    bd = next(f for f in facets if f.boundary)
    assert classify_wall(side, bd).type == "boundary"


def test_cross_wall_divisorial(qex):
    path = AffinePath(vec([1, 1, 0, 1]), vec([0, 0, 2, 0]))
    rep = cross_wall(path, qex)
    assert rep.crossed
    assert rep.wall.type == "divisorial"
    assert rep.index == (1, 2)
    assert rep.checks["single_ray_toggled"]
    assert rep.checks["star_subdivision"]


def test_blow_down_index(qex):
    # shrinking b_3 loses ray 3: a (2,1) crossing at an irrational time
    path = AffinePath(vec([1, 1, 0, 1]), vec([0, 0, -1, 0]))
    rep = cross_wall(path, qex)
    assert rep.wall.type == "divisorial"
    assert rep.index == (2, 1)
    assert rep.fan_minus.rays() == [1, 2, 3, 4]
    assert rep.fan_plus.rays() == [1, 2, 3]
    assert rep.fan_plus.virtual == frozenset({4})


def test_cobordism_two_crossings(qex):
    path = AffinePath(vec([1, 1, 1, 1]), vec([1, 1, -2, 0]))
    rep = cobordism_from_path(path, qex)
    assert len(rep.crossings) == 2
    assert [c.wall.type for c in rep.crossings] == ["divisorial", "divisorial"]
    assert len(rep.chamber_keys) == 3
    with pytest.raises(DegeneratePathError):
        cross_wall(path, qex)


def test_no_crossing_path(qex):
    path = AffinePath(vec([1, 1, 1, 1]), vec([Rational(1, 10), 0, 0, 0]))
    rep = cross_wall(path, qex)
    assert not rep.crossed
    assert rep.checks == {"no_crossing": True}


def test_degenerate_endpoint_rejected(qex):
    # the endpoint at t = 1 sits exactly on a wall
    b_on_wall = preimage_of_chi(qex, vec([SQ2, 1]))
    path = AffinePath(vscale(Rational(1, 2), vadd(preimage_of_chi(qex, vec([1, 1])), b_on_wall)),
                      vscale(Rational(1, 2), vadd(b_on_wall, vscale(-1, preimage_of_chi(qex, vec([1, 1]))))))
    with pytest.raises(DegeneratePathError):
        cobordism_from_path(path, qex)


def test_flipping_wall_d3(frustum):
    sf = enumerate_chambers(frustum)
    found = None
    for ch in sf.chambers:
        for f in ch.facets():
            if f.boundary:
                continue
            wall = classify_wall(ch, f)
            if wall.type == "flipping":
                found = wall
                break
        if found:
            break
    assert found is not None
    sides = {frozenset(found.circuit[0]), frozenset(found.circuit[1])}
    assert sides == {frozenset({1, 3}), frozenset({2, 4})}


def test_flipping_crossing_checks(frustum):
    sf = enumerate_chambers(frustum)
    pair = None
    for ch in sf.chambers:
        for f in ch.facets():
            if not f.boundary and classify_wall(ch, f).type == "flipping":
                pair = (ch, f)
                break
        if pair:
            break
    ch, f = pair
    # build a short path through the facet's relative-interior point
    other = None
    from qsecfan.secondary import _step_beyond
    other = _step_beyond(frustum, ch, f)
    b_lo = preimage_of_chi(frustum, ch.rep_point)
    b_hi = preimage_of_chi(frustum, other.rep_point)
    beta = vscale(Rational(1, 2), vadd(b_lo, b_hi))
    alpha = vscale(Rational(1, 2), vadd(b_hi, vscale(-1, b_lo)))
    rep = cross_wall(AffinePath(beta, alpha), frustum)
    assert rep.wall.type == "flipping"
    assert rep.index == (2, 2)
    assert rep.checks["rays_equal"]
    assert rep.checks["on_wall_non_simplicial"]
    assert rep.checks["sides_refine_on_wall"]
    assert rep.checks["refinement_inside_on_wall"]


def counting_builds(monkeypatch):
    """A list that gets the name of each chamber_of and normal_fan call of secondary."""
    calls = []
    for name in ("chamber_of", "normal_fan"):
        def counted(*args, _name=name, _f=getattr(secondary, name)):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(secondary, name, counted)
    return calls


def test_classify_wall_builds_no_chamber_and_no_fan(frustum, fig5, monkeypatch):
    """Each wall is read off its facet's tags: no step across the facet,
    so no neighbour chamber and no on-wall fan."""
    facets = [(ch, f) for cal in (frustum, fig5)
              for ch in enumerate_chambers(cal).chambers for f in ch.facets()]
    calls = counting_builds(monkeypatch)
    walls = [classify_wall(ch, f) for ch, f in facets]
    assert calls == []
    assert {w.type for w in walls} == {"boundary", "divisorial", "flipping"}
    # the counters see a step across a facet
    ch, f = next((ch, f) for ch, f in facets if not f.boundary)
    secondary._step_beyond(ch.calibration, ch, f)
    assert "chamber_of" in calls


def test_chamber_json_round_trip_shape(qex):
    ch = chamber_of(qex, vec([1, 1]))
    data = ch.to_json()
    assert data["rep_comb"]["virtual"] == []
    assert len(data["inequalities"]) >= 2


def test_step_beyond_reports_the_rejected_steps(qex, monkeypatch):
    side = chamber_of(qex, vec([3, 1]))
    facet = next(f for f in side.facets() if not f.boundary)
    monkeypatch.setattr(secondary, "is_generic", lambda cal, chi: False)
    with pytest.raises(DegeneratePathError) as exc:
        secondary._step_beyond(qex, side, facet)
    msg = str(exc.value)
    assert f"normal {facet.normal!r}" in msg
    assert ("120 steps rejected (120 not admissible or not generic, "
            "0 in the same chamber, 0 overshot)") in msg


def test_cobordism_reports_the_rejected_steps_at_a_crossing(qex, monkeypatch):
    path = AffinePath(vec([1, 1, 0, 1]), vec([0, 0, 2, 0]))
    crossing = cobordism_from_path(path, qex).crossings[0]
    endpoints = {path.chi(qex, -1), path.chi(qex, 1)}
    monkeypatch.setattr(secondary, "is_generic", lambda cal, chi: chi in endpoints)
    with pytest.raises(DegeneratePathError) as exc:
        cobordism_from_path(path, qex)
    msg = str(exc.value)
    assert (f"at t_star = {crossing.t_star!r} with normal {crossing.wall.normal!r}: "
            "80 steps rejected (80 not admissible or not generic, 0 overshot)") in msg


def test_generic_interior_point_reports_its_attempts(qex, monkeypatch):
    monkeypatch.setattr(secondary, "is_generic", lambda cal, chi: False)
    with pytest.raises(NotAdmissibleError) as exc:
        secondary._generic_interior_point(qex)
    assert str(exc.value) == ("no generic interior point found in 200 attempts "
                              "(0 not admissible, 200 not generic)")
    # every other attempt outside the Gale cone: the counts split
    calls = []
    monkeypatch.setattr(secondary, "is_admissible",
                        lambda cal, chi: calls.append(chi) or len(calls) % 2 == 0)
    with pytest.raises(NotAdmissibleError) as exc:
        secondary._generic_interior_point(qex)
    assert str(exc.value).endswith("(100 not admissible, 100 not generic)")
    assert len(calls) == 200


def test_is_generic_ranks_nothing(p2, qex, fig5, corank4, monkeypatch):
    """The rows on a wall through chi span it, so their rank is n-d-1 and
    is_generic tries their (n-d-1)-subsets without computing it."""
    rng = random.Random(5)
    cases = [(cal, chi) for cal in (p2, qex, fig5, corank4) for chi in special_points(cal, rng)]
    expected = [is_generic_lp(cal, chi) for cal, chi in cases]
    assert True in expected and False in expected
    ranks = []
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda M: ranks.append(M) or rank(M))
    assert [is_generic(cal, chi) for cal, chi in cases] == expected
    assert ranks == []
