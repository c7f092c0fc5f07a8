"""The d = 3 overlay of flipped cones only, its LP-free cone intersection,
the sparse chi-space rewrite and the basis-inverse cone dimension
against the references they replaced."""

import random
from itertools import combinations

import pytest

from qsecfan import (
    DegeneratePathError,
    NotAdmissibleError,
    cobordism_from_path,
    common_refinement,
    enumerate_chambers,
    normal_fan,
    path_to_projective,
)
from qsecfan import lp
from qsecfan.fan import _cone_hrep, _cone_intersection_rays, cone_dim
from qsecfan.linalg import Matrix, normalize_direction, rank, vec
from qsecfan.scalar import S0, S1
from qsecfan.secondary import _step_beyond

from conftest import random_generic_chi, segment
from reference_geometry import (
    b_space_inequality,
    common_refinement_fm,
    cone_hrep_ref,
    cone_intersection_rays_fm,
    to_chi_space,
    to_chi_space_matvec,
)


def crossing_pairs(cal, paths):
    """(calibration, f_minus, f_plus) of every wall crossed along the paths."""
    out = []
    for path in paths:
        try:
            rep = cobordism_from_path(path, cal)
        except DegeneratePathError:
            continue
        out += [(cal, c.fan_minus, c.fan_plus) for c in rep.crossings]
    return out


def random_paths(cal, rng, count):
    out = []
    for _ in range(count):
        chi_a = random_generic_chi(rng, cal, tries=60)
        chi_b = random_generic_chi(rng, cal, tries=60)
        if chi_a is not None and chi_b is not None:
            out.append(segment(cal, chi_a, chi_b))
    return out


def projective_pairs(cal, b):
    """The crossings path_to_projective walks, on its own calibration."""
    try:
        rep = path_to_projective(cal, b)
    except (NotAdmissibleError, DegeneratePathError):
        return []
    if rep.cobordism is None:
        return []
    work = cal if rep.target_calibration is None else rep.target_calibration
    return [(work, c.fan_minus, c.fan_plus) for c in rep.cobordism.crossings]


@pytest.fixture(scope="module")
def references(qex, qex_t1, p2, fig5, frustum, exc4):
    return [qex, qex_t1, p2, fig5, frustum, exc4]


@pytest.fixture(scope="module")
def frustum_pairs(frustum):
    """Every neighbouring pair of frustum chambers, crossed along the
    segment between their representative points, plus random paths."""
    sf = enumerate_chambers(frustum)
    paths = []
    for ch in sf.chambers:
        for facet in ch.facets():
            if not facet.boundary:
                other = _step_beyond(frustum, ch, facet)
                paths.append(segment(frustum, ch.rep_point, other.rep_point))
    return crossing_pairs(frustum, paths + random_paths(frustum, random.Random(61), 6))


@pytest.fixture(scope="module")
def pool_pairs(instance_pool):
    """Crossings along path_to_projective and one random path of every
    d = 3 pool instance with n - d <= 3: beyond that the Fourier-Motzkin
    overlay it is compared with grows too slow for Tier-1."""
    rng = random.Random(62)
    out = []
    for cal, chi, b in instance_pool:
        if cal.d != 3 or cal.n - cal.d > 3:
            continue
        out += projective_pairs(cal, b)
        other = random_generic_chi(rng, cal, tries=60)
        if other is not None:
            out += crossing_pairs(cal, [segment(cal, chi, other)])
    return out


def is_flip(f_minus, f_plus):
    return f_minus.rays() == f_plus.rays()


def assert_refinement_matches_fm(pairs):
    """Both orders of every pair, and every fan met with itself."""
    fans = {}
    for _, f1, f2 in pairs:
        want = common_refinement_fm(f1, f2)
        assert common_refinement(f1, f2) == want
        assert common_refinement(f2, f1) == want
        fans.update({(f.calibration, f.max_cones): f for f in (f1, f2)})
    for f in fans.values():
        assert common_refinement(f, f) == common_refinement_fm(f, f)


def test_frustum_flip_overlay_matches_fm(frustum, frustum_pairs):
    flips = [p for p in frustum_pairs if is_flip(p[1], p[2])]
    assert flips
    assert_refinement_matches_fm(frustum_pairs)
    # the flipped square cone is cut at its center, which is no column
    columns = {normalize_direction(c) for c in frustum.columns}
    for _, f1, f2 in flips:
        new_rays = set().union(*common_refinement(f1, f2)) - columns
        assert new_rays == {normalize_direction(vec([0, 0, 1]))}


def test_overlay_runs_no_lp(frustum_pairs, pool_pairs, monkeypatch):
    def no_lp(*args):
        raise AssertionError("common_refinement ran an LP")

    monkeypatch.setattr(lp, "find_point", no_lp)
    monkeypatch.setattr(lp, "feasible", no_lp)
    for _, f1, f2 in frustum_pairs + pool_pairs:
        common_refinement(f1, f2)


def test_exc4_path_overlay_matches_fm(exc4):
    pairs = projective_pairs(exc4, vec([1, 1, 1, 1]))
    for target in {cal for cal, _, _ in pairs}:
        pairs += crossing_pairs(target, random_paths(target, random.Random(63), 4))
    assert pairs
    assert_refinement_matches_fm(pairs)


def test_pool_overlay_matches_fm(pool_pairs):
    assert sum(is_flip(f1, f2) for _, f1, f2 in pool_pairs) >= 5
    assert_refinement_matches_fm(pool_pairs)


def test_cone_intersections_match_fm(frustum_pairs, pool_pairs):
    """Every pair of maximal cones of the crossed fans: from one fan (they
    meet in a facet, a ray or only 0) and across the two sides."""
    shared = set()
    for cal, f1, f2 in frustum_pairs + pool_pairs[:40]:
        hreps = {s: _cone_hrep(cal, s) for s in set(f1.max_cones) | set(f2.max_cones)}
        for s, h in hreps.items():
            assert h == cone_hrep_ref(cal, s)
        for f in (f1, f2):
            for s1, s2 in combinations(f.max_cones, 2):
                assert _cone_intersection_rays(hreps[s1] + hreps[s2]) is None
                assert cone_intersection_rays_fm(hreps[s1] + hreps[s2]) is None
                shared.add(len(s1 & s2))
        for s1 in f1.max_cones:
            for s2 in f2.max_cones:
                normals = hreps[s1] + hreps[s2]
                assert _cone_intersection_rays(normals) == cone_intersection_rays_fm(normals)
    assert {0, 1, 2} <= shared


def test_cone_intersection_of_a_cone_with_itself_is_its_rays(frustum):
    f = normal_fan(frustum, vec([1, 1, 1, 1, 1]))
    square = next(s for s in f.max_cones if len(s) == 4)
    rays = _cone_intersection_rays(_cone_hrep(frustum, square))
    assert rays == frozenset(normalize_direction(frustum.column(i)) for i in square)


def test_to_chi_space_matches_matvec_on_the_pool(instance_pool):
    """Every maximal cone sigma of the pool's normal fans and every j, and
    the unit vectors, which lie off im k = ker h since no column is zero."""
    checked = 0
    for cal, _, b in instance_pool:
        f = normal_fan(cal, b)
        for sigma in f.max_cones:
            for j in range(1, cal.n + 1):
                c_b = b_space_inequality(cal, sigma, j)
                assert to_chi_space(cal, c_b) == to_chi_space_matvec(cal, c_b)
                checked += 1
        for i in range(cal.n):
            e_i = tuple(S1 if k == i else S0 for k in range(cal.n))
            with pytest.raises(NotAdmissibleError) as got:
                to_chi_space(cal, e_i)
            with pytest.raises(NotAdmissibleError) as want:
                to_chi_space_matvec(cal, e_i)
            assert str(got.value) == str(want.value)
    assert checked > 5000


def test_cone_dim_matches_rank_on_every_subset(instance_pool, references):
    for cal in references + [c for c, _, _ in instance_pool[:80]]:
        for r in range(cal.n + 1):
            for sigma in combinations(range(1, cal.n + 1), r):
                want = rank(Matrix([cal.column(i) for i in sigma])) if sigma else 0
                assert cone_dim(cal, frozenset(sigma)) == want

