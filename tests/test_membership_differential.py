"""Cone membership by basis coordinates, positive-spanning certificates
from kernels and vertex enumeration by Cramer's rule deduplicated by
tight sets, against the LP, rref and dict-based references they
replaced."""

import random
from itertools import combinations

import pytest

from qsecfan import (
    Calibration,
    HPolytope,
    NotAdmissibleError,
    Rational,
    gale_cone,
    normal_fan,
    projective_certificate,
)
from qsecfan import linalg
from qsecfan.fan import cone_contains, facets_of
from qsecfan.linalg import Matrix, gale_rows, in_cone, solve_unique, vadd, vec, vscale, vsub
from qsecfan.projective import _perturbation_targets
from qsecfan.scalar import S0

from conftest import SQ2, cal_of, faces_pool, random_calibration, special_points
from reference_geometry import (
    _in_cone,
    cone_contains_lp,
    hpolytope_vertices_dict,
    projective_certificate_lp,
    solve_unique_via_solve,
    vertices_of_dict,
)
from test_acceptance import random_standard_plane_calibration


@pytest.fixture(scope="module")
def references(qex, qex_t1, p2, fig5, frustum, exc4):
    return [qex, qex_t1, p2, fig5, frustum, exc4]


def reference_parameters(cal, rng):
    """Generic and non-generic parameters: all ones, zero, small integers
    (often several constraints through one vertex) and rationals."""
    params = [vec([1] * cal.n), vec([0] * cal.n)]
    params += [vec([rng.randint(-3, 3) for _ in range(cal.n)]) for _ in range(30)]
    params += [vec([Rational(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(cal.n)])
               for _ in range(10)]
    return params


def fans_of(cal, params):
    out = []
    for b in params:
        try:
            out.append(normal_fan(cal, b))
        except NotAdmissibleError:
            continue
    return out


def column_sum(cal, sigma):
    total = vec([0] * cal.d)
    for i in sorted(sigma):
        total = vadd(total, cal.column(i))
    return total


def assert_cone_contains_matches_lp(cal, f, extra=()):
    """Every maximal cone and every facet of one, at the columns, 0, the
    given points, a relative-interior point of each cone and of each
    facet, and for each facet tau of sigma the points sum(tau) +- h(e_j),
    j in sigma - tau, which leave the span of tau.  Returns the answers."""
    common = list(cal.columns) + [vec([0] * cal.d)] + list(extra)
    seen = []
    for sigma in f.max_cones:
        probes = [(sigma, x) for x in common + [column_sum(cal, sigma)]]
        for tau in facets_of(cal, sigma):
            inner = column_sum(cal, tau)
            local = [inner]
            for j in sorted(sigma - tau):
                local += [vadd(inner, cal.column(j)), vsub(inner, cal.column(j))]
            probes += [(tau, x) for x in common + local] + [(sigma, x) for x in local]
        for cone, x in probes:
            got = cone_contains(cal, cone, x)
            assert got == cone_contains_lp(cal, cone, x), (sorted(cone), x)
            seen.append(got)
    return seen


def test_cone_contains_matches_lp_on_reference_instances(references):
    rng = random.Random(41)
    answers, non_simplicial = set(), 0
    for cal in references:
        extra = [vscale(-1, c) for c in cal.columns]
        extra += [vadd(u, v) for u, v in combinations(cal.columns, 2)]
        extra += [vsub(u, v) for u, v in combinations(cal.columns, 2)]
        for f in fans_of(cal, reference_parameters(cal, rng)):
            non_simplicial += not f.is_simplicial()
            answers.update(assert_cone_contains_matches_lp(cal, f, extra))
    assert answers == {True, False}
    assert non_simplicial


def test_cone_contains_matches_lp_on_non_generic_parameters(frustum, qex_t1):
    apex = normal_fan(frustum, vec([1, 1, 1, 1, 1]))
    assert frozenset({1, 2, 3, 4}) in apex.max_cones
    assert_cone_contains_matches_lp(frustum, apex)
    assert_cone_contains_matches_lp(qex_t1, normal_fan(qex_t1, vec([0, 0, 1, 1])))
    # lower-rank cones: an edge, a ray and the empty cone
    for sigma in [{1, 3}, {1, 2}, {5}, set()]:
        for x in list(frustum.columns) + [vec([0, 0, 0]), vec([1, 1, 2]), vec([0, 0, 1])]:
            assert cone_contains(frustum, sigma, x) == cone_contains_lp(frustum, sigma, x)


def test_cone_contains_matches_lp_on_the_pool(instance_pool):
    for cal, chi, b in instance_pool:
        assert_cone_contains_matches_lp(cal, normal_fan(cal, b))


def scanned_subsets(cal):
    """Every subset of fewer than n-d Gale rows: those the LP witness scan
    tests, a superset of those degenerate_span_witnesses tests at any chi."""
    rows = gale_rows(cal)
    return [[rows[i] for i in I]
            for r in range(cal.n - cal.d) for I in combinations(range(cal.n), r)]


def test_in_cone_matches_lp_on_gale_subsets(references):
    rng = random.Random(42)
    answers = set()
    for cal in references:
        m = cal.n - cal.d
        points = special_points(cal, rng)
        for gens in scanned_subsets(cal):
            for chi in points:
                got = in_cone(gens, chi)
                assert got == _in_cone(gens, chi, m), (gens, chi)
                answers.add((len(gens), got))
        gc = gale_cone(cal)
        for chi in points + [vscale(-1, chi) for chi in points]:
            assert gc.contains(chi) == _in_cone(list(gc.generators), chi, m), chi
    # the empty cone and cones on one or two rows, each both ways
    assert {(0, True), (0, False), (1, True), (1, False), (2, True), (2, False)} <= answers


def test_in_cone_matches_lp_on_the_pool(instance_pool):
    rng = random.Random(43)
    for cal, chi, _ in instance_pool[:60]:
        rows = gale_rows(cal)
        m = cal.n - cal.d
        on_plane = tuple([S0] * m)
        for i in rng.sample(range(cal.n), m - 1):
            on_plane = vadd(on_plane, vscale(rng.randint(-3, 3) or 1, rows[i]))
        points = [chi, on_plane, vscale(rng.randint(1, 5), rows[rng.randrange(cal.n)])]
        for gens in scanned_subsets(cal):
            for x in points:
                assert in_cone(gens, x) == _in_cone(gens, x, m)
        gc = gale_cone(cal)
        for x in points + [vscale(-1, x) for x in points]:
            assert gc.contains(x) == _in_cone(list(gc.generators), x, m)


def criterion_9_calibrations(qex, p2, fig5, exc4):
    """The calibrations criterion 9 certifies or refutes, drawn from the
    same random.Random(9) sequence: its random configurations (the
    uncertified ones too), the exceptional family and the 1000 standard
    plane configurations."""
    rng = random.Random(9)
    out, certified = [qex, p2, fig5, exc4], 3
    while certified < 13:
        cal = random_calibration(rng, rng.choice([2, 3]), rng.randint(4, 7),
                                 irrational=rng.random() < 0.5)
        if cal is None:
            continue
        out.append(cal)
        certified += projective_certificate_lp(cal) is not None
    for _ in range(1000):  # the sampled parameters of the converse check
        for _ in range(4):
            rng.randint(-20, 20), rng.randint(1, 4)
    counts = {3: 0, 5: 0, 6: 0}
    while min(counts.values()) == 0 or sum(counts.values()) < 1000:
        n = rng.choice([3, 5, 6])
        out.append(random_standard_plane_calibration(rng, n))
        counts[n] += 1
    for _ in range(25):
        a, c = rng.randint(1, 6), rng.randint(1, 6)
        out.append(cal_of(2, [(1, 0), (0, 1), (-a, 0), (0, -c)]))
    return out


def assert_same_certificate(cal):
    got, ref = projective_certificate(cal), projective_certificate_lp(cal)
    if ref is None:
        assert got is None
        return False
    assert got.indices == ref.indices and got.weights == ref.weights
    assert got.to_json() == ref.to_json()
    return True


def test_projective_certificate_matches_lp(references, qex, p2, fig5, exc4):
    cals = list(references) + list(_perturbation_targets(exc4))
    cals += [cal_of(2, [(1, 0), (0, 1), (-1, 0), (0, -1)]),     # 0 on a segment
             cal_of(2, [(1, 0), (2, 0), (-1, 0), (0, 1)]),      # rank-1 subsets
             cal_of(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 1)])]
    cals += criterion_9_calibrations(qex, p2, fig5, exc4)
    outcomes = {assert_same_certificate(cal) for cal in cals}
    assert outcomes == {True, False}


def assert_same_vertices(P, cal=None):
    verts = P.vertices()
    assert verts == hpolytope_vertices_dict(P)
    if cal is not None:
        assert vertices_of_dict(cal, P.offsets) == verts
    return verts


def test_vertices_match_the_dict_loop(references, instance_pool):
    rng = random.Random(44)
    crowded = 0
    for cal in references:
        for b in reference_parameters(cal, rng):
            verts = assert_same_vertices(HPolytope.from_parameter(cal, b), cal)
            crowded += any(len(t) > cal.d for _, t in verts)
    for cal, _, b in instance_pool:
        assert_same_vertices(HPolytope.from_parameter(cal, b), cal)
    assert crowded  # vertices with more than d tight constraints occurred


def test_vertices_match_the_dict_loop_on_degenerate_polytopes(frustum, qex_t1):
    apex = assert_same_vertices(HPolytope.from_parameter(frustum, vec([1] * 5)), frustum)
    assert any(t == frozenset({0, 1, 2, 3}) for _, t in apex)
    assert_same_vertices(HPolytope.from_parameter(qex_t1, vec([0, 0, 1, 1])), qex_t1)
    square = ((1, 0), (-1, 0), (0, 1), (0, -1))
    triangle = ((1, 0), (0, 1), (-1, -1))
    pyramid = ((0, 0, 1), (-1, 0, -1), (1, 0, -1), (0, -1, -1), (0, 1, -1))
    for d, normals, offsets in [
        (2, square, (0, -2, 0, 1)),                      # empty
        (2, square, (0, 0, 0, 0)),                       # a point on four constraints
        (2, triangle + ((1, 0), (2, 0)), (0, 0, 1, 0, 0)),  # duplicate facets
        (2, triangle + ((-1, 0),), (0, 0, 1, 1)),        # redundant through a vertex
        (3, pyramid, (0, 1, 1, 1, 1)),                   # apex on four facets
        (2, ((1, 0), (0, 1), (1, 1)), (0, 0, -1)),       # unbounded
    ]:
        assert_same_vertices(HPolytope(d, normals, offsets))


def test_vertices_match_the_dict_loop_on_the_faces_pool():
    for cal, b in faces_pool():
        verts = assert_same_vertices(HPolytope.from_parameter(cal, b), cal)
        assert verts
        # built directly, the polytope asks its own Calibration of the same columns
        assert HPolytope(cal.d, cal.columns, b).vertices() == verts


def test_vertices_match_the_dict_loop_on_sqrt2_parameters():
    """Q(sqrt(2)) columns with rational, irrational and non-generic b."""
    rng = random.Random(46)
    crowded, cals = 0, []
    while len(cals) < 6:
        cal = random_calibration(rng, rng.choice([2, 3]), rng.randint(4, 6), irrational=True)
        if cal is not None and cal.field_m == 2:
            cals.append(cal)
    for cal in cals:
        params = [vec([1] * cal.n), vec([0] * cal.n)]
        params += [vec([rng.randint(-2, 2) + rng.randint(-1, 1) * SQ2 for _ in range(cal.n)])
                   for _ in range(12)]
        for b in params:
            verts = assert_same_vertices(HPolytope.from_parameter(cal, b), cal)
            crowded += any(len(t) > cal.d for _, t in verts)
    assert crowded


TRIANGLE = ((1, 0), (0, 1), (-1, -1))


@pytest.mark.parametrize("d, normals, offsets, count", [
    (2, TRIANGLE + ((0, 0),), (1, 1, 1, -1), 0),                   # a zero normal, offset -1: empty
    (2, TRIANGLE + ((0, 0),), (1, 1, 1, 0), 3),                    # ... offset 0: tight everywhere
    (2, TRIANGLE + ((0, 0),), (1, 1, 1, 1), 3),                    # ... offset 1: no cut
    (2, ((0, 0),) + TRIANGLE + ((0, 0),), (0, 1, 1, 1, 2), 3),     # zero normals around the rest
    (2, ((1, 0), (-1, 0), (2, 0)), (1, 1, 1), 0),                  # rank 1 < d: a strip
    (2, ((0, 0), (0, 0)), (1, 0), 0),                              # rank 0: the plane
    (3, ((1, 0, 0), (0, 1, 0), (-1, -1, 0)), (1, 1, 1), 0),        # rank 2 < d: a prism
    (0, (), (), 1),                                                # R^0: one point
    (0, ((),), (-1,), 0),                                          # R^0, empty
    (0, ((), ()), (1, 0), 1),                                      # R^0, one tight zero row
    (2, ((1, 0), (0, 1), (-SQ2, -1)), (1, 1, 1), 3),               # a Q(sqrt 2) triangle
    (2, ((1, 0), (0, 1), (-SQ2, -1), (-1, -SQ2)), (SQ2, 1, 1, 1), 4),
    (3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -SQ2, -1)), (1, 0, SQ2, 2), 4),
])
def test_vertices_match_the_dict_loop_on_polytopes_built_directly(d, normals, offsets, count):
    assert len(assert_same_vertices(HPolytope(d, normals, offsets))) == count


@pytest.fixture
def rref_calls(monkeypatch):
    """A list that gets one entry per linalg.rref call."""
    calls = []
    rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda M: calls.append(M) or rref(M))
    return calls


# The vertex test, basis_scan, reads the circuit table, built from the
# brackets with no elimination; chamber forms are counted where they are built.
CACHED_ELIMINATION = ("basis_inverses", "inverse_codes", "hyperplane_normals")


def test_a_parameter_polytope_reads_its_facts_off_its_calibration(calibrations_built,
                                                                  rref_calls, fig5,
                                                                  monkeypatch):
    """is_bounded, vertices, facet_indices and face_dim of a P_b build no
    Calibration, fill none of the calibration's inverse tables, build no
    chamber form, and is_bounded and vertices run no row reduction."""
    forms = []
    chamber_form = Calibration.chamber_form
    monkeypatch.setattr(Calibration, "chamber_form",
                        lambda self, J, j: forms.append(J) or chamber_form(self, J, j))
    params = [(fig5.columns, [1] * fig5.n), (((1, 0), (0, 1), (-1, 1)), (1, 1, 1))]
    params += [(cal.columns, b) for cal, b in faces_pool()[:6]]
    for columns, b in params:
        cal = Calibration(len(columns[0]), len(columns), columns)
        del calibrations_built[:]
        P = HPolytope.from_parameter(cal, b)
        assert P._calibration is cal
        del rref_calls[:]
        P.is_bounded()
        verts = P.vertices()
        assert rref_calls == []
        assert verts == hpolytope_vertices_dict(P)
        P.facet_indices()
        P.face_dim((0,))
        assert calibrations_built == []
        assert [name for name in CACHED_ELIMINATION if name in vars(cal)] == []
        assert forms == []


ASKS = {
    "is_bounded": HPolytope.is_bounded,
    "vertices": HPolytope.vertices,
    "facet_indices": HPolytope.facet_indices,
    "face_dim": lambda P: P.face_dim((0,)),
    "is_simple": HPolytope.is_simple,
    "to_json": HPolytope.to_json,
}


@pytest.mark.parametrize("facts", [("is_bounded",), ("vertices",), ("facet_indices",),
                                   ("face_dim",), tuple(ASKS)])
@pytest.mark.parametrize("d, normals, offsets", [
    (2, TRIANGLE, (1, 1, 1)),                           # bounded
    (2, ((1, 0), (0, 1), (1, 1)), (0, 0, 1)),           # unbounded
    (2, TRIANGLE + ((0, 0),), (1, 1, 1, 0)),            # a zero normal
    (2, ((1, 0), (-1, 0)), (1, 1)),                     # rank below d
])
def test_a_polytope_built_directly_builds_one_calibration(calibrations_built, facts,
                                                          d, normals, offsets):
    P = HPolytope(d, normals, offsets)
    del calibrations_built[:]
    for fact in facts:
        ASKS[fact](P)
    assert len(calibrations_built) == 1


def test_solve_unique_matches_solve():
    rng = random.Random(45)
    outcomes = set()
    for _ in range(300):
        nr, nc = rng.randint(1, 4), rng.randint(1, 3)
        M = Matrix([[rng.randint(-2, 2) for _ in range(nc)] for _ in range(nr)])
        rhs = vec([rng.randint(-3, 3) for _ in range(nr)])
        got = solve_unique(M, rhs)
        assert got == solve_unique_via_solve(M, rhs)
        outcomes.add(got is None)
    assert outcomes == {True, False}
