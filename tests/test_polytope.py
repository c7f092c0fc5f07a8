"""Vertex enumeration, face dimensions, and the fast vertex oracle."""

import pytest

from qsecfan import (Calibration, DimensionMismatchError, HPolytope, NotAdmissibleError, Rational,
                     Scalar, VertexOracle, normal_fan, virtual_indices)
from qsecfan.linalg import vec

from conftest import SQ2

S = Scalar.coerce


def unit_square():
    return HPolytope(2, ((1, 0), (0, 1), (-1, 0), (0, -1)), (0, 0, 1, 1))


def test_square_vertices():
    P = unit_square()
    verts = [v for v, _ in P.vertices()]
    assert set(verts) == {(S(0), S(0)), (S(0), S(1)), (S(1), S(0)), (S(1), S(1))}
    assert P.dimension() == 2
    assert P.is_bounded()
    assert P.is_simple()
    assert P.facet_indices() == [0, 1, 2, 3]


def test_redundant_constraint_is_not_a_facet():
    P = HPolytope(2, ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)), (0, 0, 1, 1, 5))
    assert P.facet_indices() == [0, 1, 2, 3]
    assert P.facet_dim(4) == -1  # the face it cuts is empty


def test_lower_dimensional_and_empty():
    # segment: x >= 0, x <= 1, y = 0
    P = HPolytope(2, ((1, 0), (-1, 0), (0, 1), (0, -1)), (0, 1, 0, 0))
    assert P.dimension() == 1
    empty = HPolytope(1, ((1,), (-1,)), (0, -1))
    assert empty.is_empty()
    assert empty.dimension() == -1


def test_unbounded():
    P = HPolytope(2, ((1, 0), (0, 1)), (0, 0))
    assert not P.is_bounded()
    assert P.dimension() == 2
    assert P.vertices() == [((S(0), S(0)), frozenset({0, 1}))]


def test_half_line_pointing_down_is_unbounded():
    """x <= 0 recedes along x = -1, the direction a probe of x = +1 misses."""
    assert not HPolytope(1, ((-1,),), (0,)).is_bounded()


def test_cut_corner_recedes_into_the_negative_quadrant():
    """{x1 <= 1, x2 <= 1, x1 + x2 <= 1} is an unbounded 2-dimensional region
    with three edges, so no face dimension comes from its two vertices."""
    P = HPolytope(2, ((-1, 0), (0, -1), (-1, -1)), (1, 1, 1))
    assert not P.is_bounded()
    assert P.dimension() == 2
    assert [P.facet_dim(i) for i in range(3)] == [1, 1, 1]


def test_columns_in_a_closed_half_plane_do_not_positively_span():
    cal = Calibration(2, 3, ((-1, 0), (0, -1), (-1, -1)))
    assert not cal.positively_spanning
    with pytest.raises(NotAdmissibleError, match="P_b is unbounded"):
        normal_fan(cal, vec([1, 1, 1]))


def test_irrational_vertex_coordinates(qex):
    b = vec([1, 1, 1, 1])
    P = HPolytope.from_parameter(qex, b)
    verts = {v for v, _ in P.vertices()}
    # the facets of columns 3 and 4 meet at an exact sqrt(2)-point
    assert (SQ2 - S(1), SQ2 - S(1)) in verts
    assert P.is_bounded() and P.is_simple()


def test_virtual_indices(qex, qex_t1):
    assert virtual_indices(qex, vec([1, 1, 1, 1])) == frozenset()
    # at this parameter of the deformed calibration constraint 4 is redundant
    assert virtual_indices(qex_t1, vec([0, 0, 1, 1])) == frozenset({4})
    P = HPolytope.from_parameter(qex_t1, vec([0, 0, 1, 1]))
    assert P.facet_dim(3) == -1


def test_non_simple_vertex():
    # square pyramid: the apex lies on four facets
    P = HPolytope(3, ((0, 0, 1), (-1, 0, -1), (1, 0, -1), (0, -1, -1), (0, 1, -1)),
                  (0, 1, 1, 1, 1))
    apex = next(t for v, t in P.vertices() if v == (S(0), S(0), S(1)))
    assert len(apex) == 4
    assert not P.is_simple()


def test_tight_constraint_on_non_facet_does_not_break_simplicity():
    # a redundant constraint through a vertex is ignored by is_simple
    P = HPolytope(2, ((1, 0), (0, 1), (1, 1), (-1, -1)), (0, 0, 0, 1))
    assert P.facet_dim(2) < 1
    assert P.is_simple()


def test_vertex_oracle_matches_enumeration(qex, fig5):
    for cal in (qex, fig5):
        oracle = VertexOracle(cal)
        for b in (vec([1] * cal.n), vec([Rational(i + 1, 3) for i in range(cal.n)])):
            P = HPolytope.from_parameter(cal, b)
            expected = set()
            for _, tight in P.vertices():
                expected.add(frozenset(i + 1 for i in tight))
            assert oracle.comb_key(b) == expected


def test_normal_fan_rejects_a_wrong_parameter_length(p2):
    assert len(normal_fan(p2, vec([1, 1, 1])).max_cones) == 3
    for b in ([1, 1], [1, 1, 1, 1]):
        with pytest.raises(DimensionMismatchError, match="parameter length differs from n"):
            normal_fan(p2, vec(b))


def test_comb_key_rejects_a_wrong_parameter_length(p2):
    oracle = VertexOracle(p2)
    assert len(oracle.comb_key(vec([1, 1, 1]))) == 3
    for b in ([1, 1], [1, 1, 1, 1]):
        with pytest.raises(DimensionMismatchError, match="parameter length differs from n"):
            oracle.comb_key(vec(b))


def test_face_dim_of_vertex_tight_set():
    P = unit_square()
    for v, tight in P.vertices():
        assert P.face_dim(sorted(tight)) == 0


def test_json_shape():
    data = unit_square().to_json()
    assert data["dimension"] == 2 and data["bounded"]
    assert len(data["vertices"]) == 4


def test_constraint_index_out_of_range():
    # the triangle x, y >= 0, x + y <= 1 with x <= 5 redundant as constraint 3
    triangle = HPolytope(2, ((1, 0), (0, 1), (-1, -1), (-1, 0)), (0, 0, 1, 5))
    orthant = HPolytope(2, ((1, 0), (0, 1)), (0, 0))
    assert triangle.facet_dim(3) == -1
    for P in (triangle, orthant):
        n = P.nfacets
        for i in (-1, n):
            message = f"constraint index {i} out of range for {n} constraints"
            with pytest.raises(IndexError, match=message):
                P.facet_dim(i)
            with pytest.raises(IndexError, match=message):
                P.face_dim((0, i))


def test_cached_vertices_stay_out_of_equality_and_json():
    a, b = unit_square(), unit_square()
    fields = set(HPolytope.__dataclass_fields__)
    assert set(vars(a)) == fields
    assert a == b and (hash(a), repr(a)) == (hash(b), repr(b))
    verts = a.vertices()
    assert a.is_bounded() and set(vars(a)) > fields and set(vars(b)) == fields
    assert a == b and b == a and len({a, b}) == 1
    assert (hash(a), repr(a)) == (hash(b), repr(b))
    assert a.to_json() == unit_square().to_json()
    # the returned list is the caller's own
    verts.append(verts[0])
    verts[0] = ((S(7), S(7)), frozenset())
    assert a.vertices() == unit_square().vertices()
