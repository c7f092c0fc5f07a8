"""The vertex-based normal fan, the vertex-based face dimensions of a
bounded HPolytope and the wall-hyperplane genericity against their
Fourier-Motzkin and LP-only references, and the facts a Calibration
caches for them."""

import random
from collections import Counter
from collections.abc import Mapping
from functools import reduce
from itertools import combinations

import pytest

from qsecfan import (
    Calibration,
    DimensionMismatchError,
    HPolytope,
    NotAdmissibleError,
    OnWallError,
    Rational,
    Scalar,
    chamber_of,
    is_admissible,
    is_generic,
    normal_fan,
)
from qsecfan import secondary
from qsecfan.fan import faces_of, is_face
from qsecfan.linalg import (
    Matrix,
    dot,
    gale_rows,
    in_simplicial_cone,
    kernel_basis,
    vadd,
    vec,
    vscale,
)

from conftest import cal_of, random_calibration, random_generic_chi, special_points
from reference_geometry import (
    _in_cone,
    degenerate_span_witnesses_lp,
    dimension_lp,
    face_dim_lp,
    gale_facet_normals_subsets,
    is_generic_lp,
    normal_fan_fm,
)

S = Scalar.coerce


def fan_or_error(fn, cal, b):
    """A comparable summary of a normal fan, or of the error raised."""
    try:
        f = fn(cal, b)
    except (NotAdmissibleError, DimensionMismatchError) as exc:
        return type(exc).__name__, str(exc)
    return f.max_cones, f.virtual, f.complete


def assert_same_fan(cal, b):
    got = fan_or_error(normal_fan, cal, b)
    assert got == fan_or_error(normal_fan_fm, cal, b)
    return got


@pytest.fixture(scope="module")
def references(qex, qex_t1, p2, fig5, frustum, exc4):
    return [qex, qex_t1, p2, fig5, frustum, exc4]


def test_normal_fan_matches_fm_on_reference_instances(references):
    rng = random.Random(31)
    kinds = set()
    for cal in references:
        params = [vec([1] * cal.n), vec([0] * cal.n)]
        params += [vec([rng.randint(-3, 3) for _ in range(cal.n)]) for _ in range(30)]
        params += [vec([Rational(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(cal.n)])
                   for _ in range(10)]
        for b in params:
            kinds.add(assert_same_fan(cal, b)[0])
    # both fans and errors occurred
    assert {"NotAdmissibleError"} < kinds


def test_normal_fan_matches_fm_on_the_pool(instance_pool):
    for cal, chi, b in instance_pool:
        got = assert_same_fan(cal, b)
        assert got[0] != "NotAdmissibleError"


def test_normal_fan_non_generic_parameters(frustum, qex_t1):
    # the apex of the pyramid lies on four facets
    apex = assert_same_fan(frustum, vec([1, 1, 1, 1, 1]))
    assert frozenset({1, 2, 3, 4}) in apex[0]
    # constraint 4 cuts no edge: a virtual generator with an empty face
    assert assert_same_fan(qex_t1, vec([0, 0, 1, 1]))[1] == frozenset({4})
    # constraint 4 touches the triangle at one vertex: virtual, face a point
    tangent = cal_of(2, [(1, 0), (0, 1), (-1, -1), (1, 1)])
    cones, virtual, _ = assert_same_fan(tangent, vec([1, 1, 1, 2]))
    assert virtual == frozenset({4})
    assert set(cones) == {frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3})}


def test_normal_fan_empty_and_lower_dimensional(p2):
    square = cal_of(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
    for cal, b in [(p2, [0, 0, 0]), (p2, [-1, -1, -1]), (square, [1, 1, 0, 0]),
                   (square, [0, 0, 0, 0]), (square, [1, -2, 1, 1])]:
        got = assert_same_fan(cal, vec(b))
        assert got == ("NotAdmissibleError", "P_b is empty or lower-dimensional")


def test_normal_fan_with_a_nontrivial_recession_cone():
    orthant = cal_of(2, [(1, 0), (0, 1), (1, 1)])
    strip = cal_of(2, [(1, 0), (-1, 0), (0, 1)])
    assert not orthant.positively_spanning and not strip.positively_spanning
    unbounded = ("NotAdmissibleError", "P_b is unbounded, its normal fan is not complete")
    thin = ("NotAdmissibleError", "P_b is empty or lower-dimensional")
    assert assert_same_fan(orthant, vec([1, 1, 1])) == unbounded
    assert assert_same_fan(strip, vec([1, 1, 0])) == unbounded
    assert assert_same_fan(strip, vec([-1, -1, 0])) == thin   # empty
    assert assert_same_fan(strip, vec([0, 0, 0])) == thin     # a ray
    # the length check comes first on either kind of calibration
    for cal in (orthant, cal_of(2, [(1, 0), (0, 1), (-1, -1)])):
        assert assert_same_fan(cal, vec([1, 1]))[0] == "DimensionMismatchError"


def test_faces_of_simplicial_cones_match_the_lp(references):
    for cal in references:
        f = normal_fan(cal, vec([1] * cal.n))
        for sigma in f.max_cones:
            expected = [frozenset(J) for r in range(len(sigma) + 1)
                        for J in combinations(sorted(sigma), r) if is_face(cal, J, sigma)]
            assert faces_of(cal, sigma) == expected


def assert_faces_match_lp(P):
    """face_dim on every T of at most d+1 constraints, dimension,
    facet_indices and is_simple agree with the LP reference."""
    d = P.ambient_dim
    assert P.dimension() == dimension_lp(P)
    for r in range(d + 2):
        for T in combinations(range(P.nfacets), r):
            assert P.face_dim(T) == face_dim_lp(P, T), T
    facets = [i for i in range(P.nfacets) if face_dim_lp(P, (i,)) == d - 1]
    assert P.facet_indices() == facets
    verts = P.vertices()
    assert P.is_simple() == (bool(verts) and all(len(t & set(facets)) == d for _, t in verts))


def test_face_dims_match_lp_on_the_pool(instance_pool):
    for cal, chi, b in instance_pool:
        P = HPolytope.from_parameter(cal, b)
        assert P.is_bounded()
        assert_faces_match_lp(P)


def test_face_dims_match_lp_on_reference_instances(references):
    rng = random.Random(37)
    dims = set()
    for cal in references:
        params = [vec([1] * cal.n), vec([0] * cal.n)]
        params += [vec([rng.randint(-2, 3) for _ in range(cal.n)]) for _ in range(4)]
        for b in params:
            P = HPolytope.from_parameter(cal, b)
            assert_faces_match_lp(P)
            dims.add(P.dimension())
    # empty, a point and full-dimensional polytopes occurred
    assert {-1, 0, 2, 3} <= dims


def test_face_dims_match_lp_on_degenerate_polytopes():
    square = ((1, 0), (-1, 0), (0, 1), (0, -1))
    triangle = ((1, 0), (0, 1), (-1, -1))
    pyramid = ((0, 0, 1), (-1, 0, -1), (1, 0, -1), (0, -1, -1), (0, 1, -1))
    cases = [
        (2, square, (0, -2, 0, 1), -1),                           # bounded and empty
        (2, square, (0, 1, 0, 0), 1),                             # a segment
        (2, square, (0, 0, 0, 0), 0),                             # a point
        (2, triangle + ((-1, 0),), (0, 0, 1, 5), 2),              # redundant, far away
        (2, triangle + ((-1, 0),), (0, 0, 1, 1), 2),              # redundant, through a vertex
        (2, triangle + ((1, 0), (2, 0)), (0, 0, 1, 0, 0), 2),     # duplicates of a facet
        (3, pyramid, (0, 1, 1, 1, 1), 3),                         # apex on four facets
    ]
    for d, normals, offsets, dim in cases:
        P = HPolytope(d, normals, offsets)
        assert P.is_bounded() and P.dimension() == dim
        assert_faces_match_lp(P)
    # the LP path on both sides when P is unbounded
    assert_faces_match_lp(HPolytope(2, ((1, 0), (0, 1), (1, 1)), (0, 0, -1)))


def test_is_generic_matches_lp_on_special_points(references):
    rng = random.Random(32)
    outcomes = set()
    for cal in references:
        for chi in special_points(cal, rng):
            g = is_generic(cal, chi)
            assert g == is_generic_lp(cal, chi)
            zero_sign = any(dot(w, chi).is_zero() for w in cal.wall_normals)
            outcomes.add((g, zero_sign))
    # a zero sign occurred both at generic and at non-generic points
    assert {(True, True), (False, True), (True, False)} <= outcomes


def test_is_generic_with_one_gale_dimension(p2):
    assert p2.n - p2.d == 1 and p2.wall_normals == ((S(1),),)
    for x, generic in [(1, True), (Rational(1, 3), True), (0, False), (-2, True)]:
        assert is_generic(p2, vec([x])) == is_generic_lp(p2, vec([x])) == generic


def test_is_generic_matches_lp_on_the_pool(instance_pool):
    rng = random.Random(33)
    for cal, chi, _ in instance_pool[:60]:
        rows = gale_rows(cal)
        m = cal.n - cal.d
        assert is_generic(cal, chi) and is_generic_lp(cal, chi)
        on_plane = tuple([S(0)] * m)
        for i in rng.sample(range(cal.n), m - 1):
            on_plane = vadd(on_plane, vscale(rng.randint(-3, 3) or 1, rows[i]))
        assert is_generic(cal, on_plane) == is_generic_lp(cal, on_plane)


def row_sums(cal, k):
    """The sums of every k Gale rows."""
    rows = gale_rows(cal)
    return [reduce(vadd, (rows[i] for i in I)) for I in combinations(range(cal.n), k)]


def test_on_wall_error_carries_the_lp_witnesses(qex, fig5, frustum, corank4):
    """n-d = 2 and 3 at special points; n-d = 4 at sums of three Gale rows,
    27 of which are admissible and on a wall."""
    rng = random.Random(35)
    points = [(cal, special_points(cal, rng)) for cal in (qex, fig5, frustum)]
    points.append((corank4, row_sums(corank4, 3)))
    for cal, pts in points:
        on_wall = [chi for chi in pts if is_admissible(cal, chi) and not is_generic_lp(cal, chi)]
        assert on_wall
        for chi in on_wall:
            with pytest.raises(OnWallError) as exc:
                chamber_of(cal, chi)
            assert list(exc.value.equalities) == degenerate_span_witnesses_lp(cal, chi)


def walls_through(cal, chi):
    """The indices of the Gale rows on each wall hyperplane through chi."""
    rows = gale_rows(cal)
    return [[i for i, g in enumerate(rows) if dot(w, g).is_zero()]
            for w in cal.wall_normals if dot(w, chi).is_zero()]


def test_witnesses_test_only_cones_on_the_walls_through_chi(corank4, monkeypatch):
    """Beyond the wall tests of _walls_holding, one in_simplicial_cone call
    per distinct subset of fewer than n-d of the Gale rows on the wall
    hyperplanes through chi whose rows' cone holds chi (by the LP), none
    elsewhere; a scan over every such subset of the seven rows makes 64 at
    every point."""
    cal, m, rows = corank4, corank4.n - corank4.d, gale_rows(corank4)
    calls = []
    monkeypatch.setattr(secondary, "in_simplicial_cone",
                        lambda gens, x: calls.append(gens) or in_simplicial_cone(gens, x))
    counts = []
    for chi in row_sums(cal, 3) + row_sums(cal, 4):
        subsets = {I for on in walls_through(cal, chi) if _in_cone([rows[i] for i in on], chi, m)
                   for r in range(m) for I in combinations(on, r)}
        calls.clear()
        list(secondary._walls_holding(cal, chi))
        wall_tests = len(calls)
        calls.clear()
        secondary.degenerate_span_witnesses(cal, chi)
        assert len(calls) == wall_tests + len(subsets)
        counts.append(len(subsets))
    assert 0 in counts and 0 < max(counts) < 64


def test_is_generic_builds_no_witness(corank4, monkeypatch):
    """At every sum of two, three or four Gale rows, is_generic runs no
    kernel and, on each wall hyperplane through chi, at most one
    in_simplicial_cone per n-d-1 of the Gale rows on it."""
    counts = Counter()
    for name, fn in (("kernel_basis", kernel_basis), ("in_simplicial_cone", in_simplicial_cone)):
        monkeypatch.setattr(secondary, name,
                            lambda *a, name=name, fn=fn: counts.update([name]) or fn(*a))
    m = corank4.n - corank4.d
    outcomes = set()
    for chi in row_sums(corank4, 2) + row_sums(corank4, 3) + row_sums(corank4, 4):
        counts.clear()
        outcomes.add(is_generic(corank4, chi))
        assert counts["kernel_basis"] == 0
        assert counts["in_simplicial_cone"] <= sum(
            len(list(combinations(on, m - 1))) for on in walls_through(corank4, chi))
    assert outcomes == {True, False}


def test_gale_facet_normals_match_the_subset_scan(references, instance_pool):
    """The facets read off the wall normals against the kernel of every
    (n-d-1)-subset of Gale rows, for n-d = 1 to 5, rational and not."""
    rng = random.Random(37)
    cals = references + [c for c, _, _ in instance_pool if c.n - c.d <= 3]
    while len(cals) < 600:
        d = rng.randint(1, 3)
        cal = random_calibration(rng, d, d + rng.randint(1, 3), irrational=rng.random() < 0.5)
        if cal is not None:
            cals.append(cal)
    while len(cals) < 640:
        d, m = rng.randint(1, 3), rng.randint(4, 5)
        cal = random_calibration(rng, d, d + m, irrational=rng.random() < 0.5)
        if cal is not None:
            cals.append(cal)
    for cal in cals:
        assert cal.gale_facet_normals == gale_facet_normals_subsets(cal)
    assert {c.n - c.d for c in cals} == {1, 2, 3, 4, 5}
    assert all(any(c.field_m for c in cals if c.n - c.d == m) for m in (3, 4, 5))
    too_big = cal_of(2, [(1, 0), (0, 1), (-1, -1), (1, 1), (2, 1), (1, 2)])
    assert too_big.gale_facet_normals == gale_facet_normals_subsets(too_big)


def fig5_copy():
    return cal_of(2, [(1, 0), (0, 1), (-3, 1), (1, -3), (-2, -1)])


def size_of(value):
    """A matrix's shape, a flag or a position itself, a table's sizes entry
    by entry, else the length."""
    if isinstance(value, Matrix):
        return (value.nrows, value.ncols)
    if isinstance(value, (bool, int)):
        return value
    if isinstance(value, Mapping):
        return {key: size_of(entry) for key, entry in value.items()}
    return len(value)


def cached_sizes(cal):
    """Size of every cached fact, by attribute name; of live_chambers, its
    number of entries."""
    fields = set(Calibration.__dataclass_fields__)
    return {name: len(value) if name == "live_chambers" else size_of(value)
            for name, value in vars(cal).items() if name not in fields}


def test_cached_facts_stay_out_of_equality_and_json():
    a, b = fig5_copy(), fig5_copy()
    snapshot = (a.to_json(), repr(a), hash(a))
    assert a == b and (b.to_json(), repr(b), hash(b)) == snapshot
    chamber_of(a, random_generic_chi(random.Random(36), a))
    assert cached_sizes(a) and not cached_sizes(b)
    assert a == b and b == a
    assert (a.to_json(), repr(a), hash(a)) == snapshot
    assert Calibration.from_json(a.to_json()) == a


def test_cached_facts_do_not_grow_with_queries():
    cal = fig5_copy()
    rng = random.Random(34)
    points = set()
    while len(points) < 50:
        points.add(random_generic_chi(rng, cal))
    points = sorted(points)
    results = [chamber_of(cal, points[0])]
    sizes = cached_sizes(cal)
    assert set(sizes) == {"gale", "free_columns", "gale_facet_normals",
                          "gale_facet_codes", "wall_normals", "wall_codes",
                          "positively_spanning", "chirotope", "hyperplane_normals",
                          "inverse_codes", "circuits", "live_chambers", "minor_table"}
    for chi in points[1:]:
        results.append(chamber_of(cal, chi))
        # one entry per distinct chamber the test keeps alive, at most
        assert 1 <= len(cal.live_chambers) <= len({ch.key for ch in results})
    assert len(results) == 50 and len(cal.live_chambers) < 50
    now = cached_sizes(cal)
    assert now.pop("live_chambers") > 0
    assert now == {name: size for name, size in sizes.items() if name != "live_chambers"}
    del results
    assert len(cal.live_chambers) == 0
