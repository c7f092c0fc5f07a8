"""Normal fans, combinatorial types, subdivisions, isomorphisms, strata,
and stabilizer profiles."""

import pytest

from qsecfan import (
    CombinatorialType,
    NotAdmissibleError,
    QuantumFan,
    Scalar,
    combinatorial_type,
    common_refinement,
    fan_automorphisms,
    fans_isomorphic,
    has_strictly_convex_support,
    is_admissible_parameter,
    is_complete,
    normal_fan,
    s_variety_strata,
    stabilizer_profiles,
    star_subdivision,
    validate_fan,
)
from qsecfan.errors import DimensionMismatchError
from qsecfan.fan import SupportFunction, cone_contains, fan_from_rays
from qsecfan.linalg import vec

from conftest import SQ2, cal_of

S = Scalar.coerce


def test_normal_fan_of_square_like_parameter(qex):
    f = normal_fan(qex, vec([1, 1, 1, 1]))
    assert set(f.max_cones) == {frozenset({1, 2}), frozenset({2, 3}),
                                frozenset({3, 4}), frozenset({4, 1})}
    assert f.virtual == frozenset()
    assert f.is_simplicial()
    assert is_complete(f)
    t = combinatorial_type(f)
    assert t.is_isomorphic_to(CombinatorialType.c_type(4))


def test_normal_fan_with_virtual_generator(qex_t1):
    f = normal_fan(qex_t1, vec([0, 0, 1, 1]))
    assert set(f.max_cones) == {frozenset({1, 2}), frozenset({2, 3}),
                                frozenset({3, 1})}
    assert f.virtual == frozenset({4})
    assert combinatorial_type(f).is_isomorphic_to(CombinatorialType.s_type(2))


def test_non_admissible_parameter_raises(p2):
    with pytest.raises(NotAdmissibleError):
        normal_fan(p2, vec([0, 0, 0]))  # the polytope is a single point
    assert not is_admissible_parameter(p2, vec([0, 0, 0]))
    assert is_admissible_parameter(p2, vec([1, 1, 1]))


def test_s_and_c_types():
    s2 = CombinatorialType.s_type(2)
    c4 = CombinatorialType.c_type(4)
    assert not s2.is_isomorphic_to(c4)
    assert s2.is_isomorphic_to(CombinatorialType.c_type(3))
    assert len(fan_automorphisms(s2)) == 6
    assert len(fan_automorphisms(c4)) == 8
    assert len(fan_automorphisms(CombinatorialType.c_type(5))) == 10


def test_cone_contains_rejects_a_wrong_length(qex, frustum):
    # a full-rank, a lower-rank and the empty cone
    for cal, sigma in ((qex, {1, 2}), (qex, {1}), (qex, set()), (frustum, {1, 2, 3, 4})):
        for x in ([1, 1, -7, 0][:cal.d + 1], [1]):
            with pytest.raises(DimensionMismatchError,
                               match=rf"vector of length {len(x)} in a cone of R\^{cal.d}"):
                cone_contains(cal, sigma, vec(x))


def test_star_subdivision_inserts_ray(p2):
    cal = cal_of(2, [(1, 0), (0, 1), (-1, -1), (1, 1)])
    f = QuantumFan(cal, (frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 1})),
                   frozenset({4}), True)
    sub = star_subdivision(f, 4)
    assert set(sub.max_cones) == {frozenset({1, 4}), frozenset({4, 2}),
                                  frozenset({2, 3}), frozenset({3, 1})}
    assert sub.virtual == frozenset()
    # subdividing along a ray that is already present changes nothing
    again = star_subdivision(sub, 4)
    assert set(again.max_cones) == set(sub.max_cones)


def test_fans_isomorphic_identity_and_relabel(qex):
    f = normal_fan(qex, vec([1, 1, 1, 1]))
    w = fans_isomorphic(f, f)
    assert w is not None
    # a cyclically relabelled copy is isomorphic through a linear map
    cal2 = cal_of(2, [(0, 1), (-SQ2, -1), (-1, -SQ2), (1, 0)])
    f2 = normal_fan(cal2, vec([1, 1, 1, 1]))
    assert fans_isomorphic(f, f2) is not None


def test_fans_not_isomorphic_after_scaling(qex):
    f = normal_fan(qex, vec([1, 1, 1, 1]))
    # scaling one column changes the calibration, not just the fan support
    cal2 = qex.with_columns(tuple(
        tuple(x * S(2) for x in c) if i == 2 else c
        for i, c in enumerate(qex.columns)))
    f2 = normal_fan(cal2, vec([1, 1, 1, 1]))
    assert fans_isomorphic(f, f2) is None


def test_common_refinement_plane(fig5):
    full = fan_from_rays(fig5, range(1, 6))
    coarse = fan_from_rays(fig5, (1, 2, 3, 4), virtual=frozenset({5}))
    r = common_refinement(full, coarse)
    assert isinstance(r, QuantumFan)
    assert set(r.max_cones) == set(full.max_cones)
    # refining a fan with itself is the identity
    again = common_refinement(coarse, coarse)
    assert set(again.max_cones) == set(coarse.max_cones)


def test_strata_match_fan(qex, fig5):
    for cal in (qex, fig5):
        b = vec([1] * cal.n)
        f = normal_fan(cal, b)
        assert set(s_variety_strata(cal, b)) == set(f.max_cones)


def test_support_function_convexity(qex):
    f = normal_fan(qex, vec([1, 1, 1, 1]))
    sf = SupportFunction.from_parameter(f, vec([1, 1, 1, 1]))
    convex, strictly = sf.convexity_flags(vec([1, 1, 1, 1]))
    assert convex and strictly
    assert has_strictly_convex_support(f)
    assert sf.value(vec([1, 0])) == S(-1)


def test_validate_fan(qex):
    f = normal_fan(qex, vec([1, 1, 1, 1]))
    report = validate_fan(f)
    assert all(report.values())


def test_incomplete_fan_detected(p2):
    cal = p2
    half = QuantumFan(cal, (frozenset({1, 2}),), frozenset(), False)
    assert not is_complete(half)
    full = normal_fan(cal, vec([1, 1, 1]))
    assert is_complete(full)


def test_is_complete_d3(frustum):
    f = normal_fan(frustum, vec([1, 1, 1, 1, 1]))
    assert is_complete(f)


def test_stabilizer_profiles_dichotomy():
    # one irrational coordinate kills the torus factor of the old profile
    irr = cal_of(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (SQ2, -1, 1)])
    old, new, iso = stabilizer_profiles(irr, frozenset({1, 2, 3, 4}))
    assert tuple(old) == (1, 0, 1)
    assert tuple(new) == (1, 0, 0)
    assert not iso

    rat = cal_of(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 1)])
    old, new, iso = stabilizer_profiles(rat, frozenset({1, 2, 3, 4}))
    assert old.torus_rank == 1
    assert tuple(new) == (1, 0, 0)
    assert not iso


def test_stabilizer_profiles_simplicial_cone_isomorphic(qex):
    old, new, iso = stabilizer_profiles(qex, frozenset({1, 2}))
    assert iso
    assert old == new


def test_fan_from_rays_orders_the_circle(fig5):
    f = fan_from_rays(fig5, range(1, 6))
    assert len(f.max_cones) == 5
    assert is_complete(f)


def test_a_cone_listed_twice_is_kept_once(p2):
    """Delta is a set of cones, so a repeated cone is one cone, in the fan,
    its JSON and every check."""
    f = QuantumFan(p2, ({1, 2}, {1, 2}, {2, 3}, {1, 3}))
    assert f == QuantumFan(p2, ({1, 2}, {2, 3}, {1, 3}))
    assert f.to_json()["max_cones"] == [[1, 2], [1, 3], [2, 3]]
    assert all(validate_fan(f).values()) and is_complete(f)
    assert QuantumFan.from_json(p2, {"max_cones": [[1, 2], [2, 1]]}).max_cones == \
        (frozenset({1, 2}),)


@pytest.mark.parametrize("rays, complete", [
    ((1, 2, 3), False),     # in a half-plane: one sector above pi
    ((1, 2, 4), False),     # rays 2 and 4 opposite and consecutive: a sector of pi
    ((2, 3, 4), False),     # the same from the other side
    ((1, 3, 4), True),
    ((1, 2, 3, 4), True),
])
def test_fan_from_rays_is_complete_exactly_when_every_sector_is_below_pi(rays, complete):
    cal = cal_of(2, [(1, 0), (0, 1), (-1, 1), (0, -1)])
    f = fan_from_rays(cal, rays)
    assert f.complete is complete is is_complete(f)
    assert f.to_json()["complete"] is complete


@pytest.mark.parametrize("cone", [[0, 1], [1, 9], [-1, 2], [1, 2, 5]])
def test_stabilizer_profiles_reject_indices_outside_1_to_n(cone):
    """Index 0 once read column n through negative indexing, and 9 ran
    off the end of the columns of the unit square (n = 4)."""
    square = cal_of(2, [(1, 0), (0, 1), (-1, 0), (0, -1)])
    with pytest.raises(DimensionMismatchError, match=r"1\.\.4"):
        stabilizer_profiles(square, frozenset(cone))
    assert stabilizer_profiles(square, frozenset({1, 2}))[2]  # a simplicial cone


@pytest.mark.parametrize("i", [0, -1, 5])
def test_star_subdivision_rejects_a_generator_index_outside_1_to_n(i):
    """Index 0 once read column n through negative indexing and put a
    generator 0 into the cones; 5 ran off the end of the columns (n = 4)."""
    cal = cal_of(2, [(1, 0), (0, 1), (-1, -1), (1, 1)])
    f = normal_fan(cal, vec([0, 0, 1, 5]))
    with pytest.raises(DimensionMismatchError, match=r"generator index must lie in 1\.\.n"):
        star_subdivision(f, i)
    assert all(0 < j <= 4 for sigma in star_subdivision(f, 4).max_cones for j in sigma)


@pytest.mark.parametrize("rays", [[0, 1, 2, 3], [1, 2, 3, 5]])
def test_fan_from_rays_rejects_a_generator_index_outside_1_to_n(rays):
    cal = cal_of(2, [(1, 0), (0, 1), (-1, -1), (1, 1)])
    with pytest.raises(DimensionMismatchError, match=r"generator index must lie in 1\.\.n"):
        fan_from_rays(cal, rays)


@pytest.mark.parametrize("doc", [
    {"max_cones": [[1, 2], [1, 3], [2, 3]], "virtual": [0, 9]},
    {"max_cones": [[1, 2], [1, 3], [2, 3]], "virtual": [5]},
    {"max_cones": [[1, 2], [1, 7], [2, 3]]},
    {"max_cones": [[0, 1], [1, 3], [2, 3]]},
])
def test_quantum_fan_rejects_a_generator_index_outside_1_to_n(doc):
    """A fan once kept virtual {0, 9} or a cone [1, 7] on n = 4 columns,
    and validate_fan reported only index_cover: False."""
    cal = cal_of(2, [(1, 0), (0, 1), (-1, -1), (1, 1)])
    with pytest.raises(DimensionMismatchError, match=r"generator index must lie in 1\.\.n"):
        QuantumFan.from_json(cal, doc)
    f = QuantumFan.from_json(cal, {"max_cones": [[1, 2], [1, 3], [2, 3]], "virtual": [4]})
    assert f.virtual == {4} and validate_fan(f)["index_cover"]
