"""The wall-crossing checks read off sign vectors (the stellar rule of
star_subdivision, the overlay of common_refinement with its common cones
taken whole, the refinement test on rays encoded once, the overlay check
read off the side checks) against the routes they replaced, on the pool,
the reference fans and random calibrations of the criterion 11 shapes."""

import random

import pytest

from qsecfan import (
    DegeneratePathError,
    NotAdmissibleError,
    QuantumFan,
    cobordism_from_path,
    common_refinement,
    enumerate_chambers,
    normal_fan,
    path_to_projective,
    star_subdivision,
)
from qsecfan import secondary
from qsecfan.fan import _facets_missing, facets_of
from qsecfan.scalar import encode
from qsecfan.secondary import _classify_crossing, _refines

from conftest import cal_of, random_calibration, random_generic_chi, segment
from reference_geometry import (
    classify_crossing_ref,
    common_refinement_pairs,
    cone_contains_dot,
    refines_dot,
    star_subdivision_facets,
)

CRITERION_11_SHAPES = [(2, 4)] * 8 + [(3, 5)] * 4 + [(2, 5)] * 5 + [(3, 6)] * 3


def outcome(f, i, subdivide):
    try:
        g = subdivide(f, i)
    except NotAdmissibleError as exc:
        return str(exc)
    return repr((g.max_cones, g.virtual, g.complete))


def facets_missing_ref(cal, sigma, v):
    if not cone_contains_dot(cal, sigma, v):
        return None
    return [frozenset(tau) for tau in facets_of(cal, sigma) if not cone_contains_dot(cal, tau, v)]


def in_order(facets):
    return None if facets is None else sorted(map(sorted, facets))


@pytest.fixture(scope="module")
def fans(qex, fig5, frustum, instance_pool):
    """The chamber fans of the references and the pool's normal fans."""
    out = [ch.fan for cal in (qex, fig5, frustum) for ch in enumerate_chambers(cal).chambers]
    return out + [normal_fan(cal, b) for cal, _, b in instance_pool]


def test_star_subdivision_matches_the_facet_route(fans):
    seen = set()
    for f in fans:
        cal = f.calibration
        for i in range(1, cal.n + 1):
            got = outcome(f, i, star_subdivision)
            assert got == outcome(f, i, star_subdivision_facets)
            seen.add(got.startswith("("))
    assert seen == {True}


def test_star_subdivision_never_asks_for_the_cone_containing_the_ray(fans, monkeypatch):
    """One membership pass: the cones that hold h(e_i) are found by
    _facets_missing alone, with no pre-scan through cone_containing."""
    def no_scan(self, x):
        raise AssertionError("star_subdivision called QuantumFan.cone_containing")

    expected = [outcome(f, i, star_subdivision_facets) for f in fans for i in range(1, f.n + 1)]
    monkeypatch.setattr(QuantumFan, "cone_containing", no_scan)
    assert [outcome(f, i, star_subdivision) for f in fans for i in range(1, f.n + 1)] == expected


def test_a_ray_outside_a_non_complete_fan_is_rejected():
    """A simplicial cone and a square-pyramid cone: a ray inside either
    subdivides it, a ray present by direction only leaves the virtual set,
    and a ray in neither is outside the support, as on the facet route."""
    cal = cal_of(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (-1, -1, -1), (2, 0, 0),
                     (1, 1, -1), (1, -1, -1), (-1, -1, -2), (-1, 1, -2), (0, 0, -1)],
                 virtual={4, 5, 6, 11})
    f = QuantumFan(cal, [{1, 2, 3}, {7, 8, 9, 10}], {4, 5, 6, 11}, complete=False)
    for i in (4, 5, 6, 11):
        assert outcome(f, i, star_subdivision) == outcome(f, i, star_subdivision_facets)
    with pytest.raises(NotAdmissibleError, match=r"^h\(e_5\) lies outside the fan support$"):
        star_subdivision(f, 5)
    assert star_subdivision(f, 6) == QuantumFan(cal, f.max_cones, {4, 5, 11}, complete=False)
    pyramid = frozenset({7, 8, 9, 10})
    assert set(star_subdivision(f, 4).max_cones) == {
        pyramid, frozenset({1, 2, 4}), frozenset({1, 3, 4}), frozenset({2, 3, 4})}
    assert set(star_subdivision(f, 11).max_cones) == {frozenset({1, 2, 3})} | {
        frozenset(s) for s in ({7, 8, 11}, {8, 9, 11}, {9, 10, 11}, {7, 10, 11})}


def test_star_subdivision_of_a_non_simplicial_cone_skips_the_facet_holding_the_ray():
    """A square-pyramid cone with h(e_5) inside its facet {1, 2}, completed
    by simplicial cones on h(e_6): the pyramid keeps the facet route, and
    only its three facets that miss h(e_5) are joined to 5."""
    cal = cal_of(3, [(1, 1, 1), (1, -1, 1), (-1, -1, 1), (-1, 1, 1), (1, 0, 1), (0, 0, -1)],
                 virtual={5})
    f = QuantumFan(cal, [{1, 2, 3, 4}, {1, 2, 6}, {2, 3, 6}, {3, 4, 6}, {1, 4, 6}], {5})
    assert not f.is_simplicial()
    got = star_subdivision(f, 5)
    assert set(got.max_cones) == {frozenset(s) for s in (
        {1, 4, 5}, {2, 3, 5}, {3, 4, 5}, {1, 5, 6}, {2, 5, 6}, {2, 3, 6}, {3, 4, 6}, {1, 4, 6})}
    assert got.is_simplicial() and not got.virtual
    assert outcome(f, 5, star_subdivision) == outcome(f, 5, star_subdivision_facets)


def test_star_subdivision_matches_the_facet_route_on_the_on_wall_fans(crossings):
    """The on-wall fans of the crossings, whose flipped cones are not
    simplicial, at every generator."""
    non_simplicial = 0
    for _, _, c in crossings:
        f = c.fan_zero
        non_simplicial += not f.is_simplicial()
        for i in range(1, f.n + 1):
            assert outcome(f, i, star_subdivision) == outcome(f, i, star_subdivision_facets)
    assert non_simplicial >= 5


def test_the_stellar_rule_matches_the_facet_route_on_every_simplicial_cone(fans):
    kinds = set()
    for f in fans:
        cal = f.calibration
        for sigma in f.max_cones:
            if tuple(sorted(i - 1 for i in sigma)) not in cal.inverse_codes:
                continue
            for i in range(1, cal.n + 1):
                v = cal.column(i)
                got = in_order(_facets_missing(cal, sigma, v, encode(v)))
                assert got == in_order(facets_missing_ref(cal, sigma, v))
                kinds.add(None if got is None else len(got))
    assert {None, 1, 2, 3} <= kinds


def path_crossings(cal, path):
    """(calibration, path, report) of each wall the path crosses."""
    try:
        rep = cobordism_from_path(path, cal)
    except DegeneratePathError:
        return []
    return [(cal, path, c) for c in rep.crossings]


def random_path_crossings(cal, rng, count):
    out = []
    for _ in range(count):
        chi_a = random_generic_chi(rng, cal, tries=60)
        chi_b = random_generic_chi(rng, cal, tries=60)
        if chi_a is not None and chi_b is not None:
            out += path_crossings(cal, segment(cal, chi_a, chi_b))
    return out


@pytest.fixture(scope="module")
def crossings(frustum, exc4, instance_pool):
    """The crossings of path_to_projective and of random paths on the d = 3
    pool instances with n - d <= 3, the frustum and exc4, and random paths
    on calibrations of the criterion 11 shapes."""
    rng = random.Random(21)
    out = random_path_crossings(frustum, rng, 6)
    for cal, _, b in [(exc4, None, (1, 1, 1, 1))] + instance_pool:
        if cal.d == 3 and cal.n - cal.d > 3:
            continue
        try:
            rep = path_to_projective(cal, b)
        except (NotAdmissibleError, DegeneratePathError):
            continue
        if rep.cobordism is not None:
            work = cal if rep.target_calibration is None else rep.target_calibration
            out += [(work, rep.chi_path, c) for c in rep.cobordism.crossings]
        if cal.d == 3:
            out += random_path_crossings(cal, rng, 1)
    for d, n in CRITERION_11_SHAPES:
        cal = None
        while cal is None:
            cal = random_calibration(rng, d, n, irrational=rng.random() < 0.5, geometric=True)
        out += random_path_crossings(cal, rng, 2)
    return out


def same_report(got, want):
    """Equal wall, index and checks, and the same bytes of JSON."""
    return (repr(got.wall), got.index, got.checks, got.to_json()) == \
        (repr(want.wall), want.index, want.checks, want.to_json())


def test_crossing_reports_match_the_replaced_checks(crossings):
    kinds = set()
    for cal, path, c in crossings:
        want = classify_crossing_ref(cal, c.wall.normal, path.chi(cal, c.t_star),
                                     c.fan_minus, c.fan_plus, c.t_star)
        assert same_report(c, want)
        kinds.add((cal.d, c.wall.type))
    assert kinds == {(2, "divisorial"), (3, "divisorial"), (3, "flipping")}


def counting_overlays(monkeypatch):
    """A list that gets one entry per common_refinement call of secondary."""
    calls = []

    def counted(f1, f2):
        calls.append((f1, f2))
        return common_refinement(f1, f2)

    monkeypatch.setattr(secondary, "common_refinement", counted)
    return calls


def test_the_overlay_is_built_only_when_a_side_check_fails(crossings, monkeypatch):
    """Each overlay cone lies in a cone of fan_minus, so when both sides
    refine the on-wall fan the overlay check is read off that."""
    calls = counting_overlays(monkeypatch)
    flips = 0
    for cal, path, c in crossings:
        before = len(calls)
        rep = _classify_crossing(cal, c.wall, path.chi(cal, c.t_star),
                                 c.fan_minus, c.fan_plus, c.t_star)
        built = len(calls) - before
        assert built == (rep.checks.get("sides_refine_on_wall") is False)
        flips += rep.wall.type == "flipping" and cal.d == 3
    assert flips >= 5 and calls == []


def test_planted_reports_where_a_side_check_fails_match_the_replaced_checks(
        corank4, monkeypatch):
    """At a wall point of a chamber, the fans of two distinct chambers with
    the same rays (neither need refine the on-wall fan): the overlay is
    built exactly when a side check fails, and every report is the one
    the old routes give, which always build the overlay."""
    cal = corank4
    by_rays = {}
    for ch in enumerate_chambers(cal).chambers:
        by_rays.setdefault(tuple(ch.fan.rays()), []).append(ch)
    calls = counting_overlays(monkeypatch)
    sides = []
    for group in by_rays.values():
        first = group[0]
        facet = next((f for f in first.facets() if not f.boundary), None)
        if facet is None:
            continue
        for other in group[1:3]:
            want = classify_crossing_ref(cal, facet.normal, facet.point, first.fan, other.fan, None)
            before = len(calls)
            got = _classify_crossing(cal, want.wall, facet.point, first.fan, other.fan, None)
            sides.append(got.checks["sides_refine_on_wall"])
            assert len(calls) - before == (not sides[-1])
            assert same_report(got, want)
    assert False in sides and len(calls) == sides.count(False)


def written(refinement):
    """The refinement with each cone's rays listed in order: a frozenset's
    repr lists its members in an order that need not follow their values."""
    if isinstance(refinement, tuple):
        return repr([sorted(cone) for cone in refinement])
    return repr(([sorted(s) for s in refinement.max_cones], sorted(refinement.virtual)))


def test_common_refinement_matches_the_pairwise_route(crossings):
    """Both orders of every crossed pair, and each fan met with itself."""
    flips = 0
    for _, _, c in crossings:
        f1, f2 = c.fan_minus, c.fan_plus
        flips += f1.rays() == f2.rays() and f1.d == 3
        for g1, g2 in ((f1, f2), (f2, f1), (f1, f1)):
            got, want = common_refinement(g1, g2), common_refinement_pairs(g1, g2)
            assert got == want and written(got) == written(want)
    assert flips >= 5


def test_refines_matches_the_per_cone_encoding(crossings):
    """Each side, the on-wall fan and the d = 3 overlay against each fan of
    the crossing, both ways round."""
    outcomes = set()
    for cal, _, c in crossings[::3]:
        fans = [c.fan_minus, c.fan_zero, c.fan_plus]
        fine = fans + ([common_refinement(c.fan_minus, c.fan_plus)] if cal.d == 3 else [])
        for f in fine:
            for coarse in fans:
                got = _refines(cal, f, coarse)
                assert got == refines_dot(cal, f, coarse)
                outcomes.add(got)
    assert outcomes == {True, False}
