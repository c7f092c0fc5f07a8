"""HPolytope's facets, virtual generators and boundedness, read off what a
P_b already holds (its calibration's positive spanning and the tight sets
of its simple vertices), against the routes they replaced: one facet_dim
probe per constraint (reference_geometry.facet_indices_probe and
virtual_indices_probe), a second Calibration after a rank test
(is_bounded_rank) and the Fourier-Motzkin recession probes
(is_bounded_fm)."""

import random

import pytest

from qsecfan import (
    Calibration,
    HPolytope,
    NotAdmissibleError,
    normal_fan,
    virtual_indices,
)
from qsecfan.linalg import vec

from conftest import SQ2, faces_pool, unconstrained_calibration
from reference_geometry import (
    facet_indices_probe,
    is_bounded_fm,
    is_bounded_rank,
    virtual_indices_probe,
)

def assert_same_facts(P):
    """Facets and boundedness of P agree with every reference; returns
    (bounded, whether some constraint was left to facet_dim by a simple
    vertex, so the facet_dim fallback ran after the simple-vertex rule)."""
    bounded = P.is_bounded()
    assert bounded == is_bounded_rank(P) == is_bounded_fm(P), (P.ambient_dim, P.normals)
    assert P.facet_indices() == facet_indices_probe(P), (P.normals, P.offsets)
    simple = set().union(*(t for _, t in P.vertices() if len(t) == P.ambient_dim))
    return bounded, bool(simple) and len(simple) < P.nfacets


def assert_same_virtual(cal, b):
    got = virtual_indices(cal, b)
    assert got == virtual_indices_probe(cal, b), (cal, b)
    return got


def test_facts_match_on_the_faces_pool_and_the_instance_pool(instance_pool):
    params = faces_pool() + [(cal, b) for cal, _, b in instance_pool]
    for cal, b in params:
        assert assert_same_facts(HPolytope.from_parameter(cal, b))[0]
        assert_same_virtual(cal, b)
    # without their last d columns the pool's normals need not span: both answers
    cut = [HPolytope(cal.d, cal.columns[:-cal.d], b[:-cal.d]) for cal, _, b in instance_pool]
    assert {assert_same_facts(P)[0] for P in cut} == {True, False}


def test_facts_match_on_unconstrained_column_sets():
    """Column sets that need not positively span: unbounded P_b run the
    facet_dim LPs for every constraint no simple vertex settles."""
    rng = random.Random(20261021)
    seen, virtual = set(), set()
    for d in (1, 2, 3):
        for m in range(4):
            for kind in ("free", "half", "coloop") if d > 1 else ("free", "half"):
                cal = None
                while cal is None:
                    cal = unconstrained_calibration(rng, d, m, kind, rng.random() < 0.5)
                for _ in range(2):
                    b = vec(rng.randint(-2, 6) for _ in range(cal.n))
                    seen.add(assert_same_facts(HPolytope.from_parameter(cal, b)))
                    virtual.add(bool(assert_same_virtual(cal, b)))
    assert {(False, True), (True, False), (False, False)} <= seen
    assert virtual == {True, False}


@pytest.mark.parametrize("d, normals, offsets", [
    (2, ((1, 0), (-1, 0), (0, 1), (0, -1)), (1, 1, 0, 0)),          # a segment in R^2
    (2, ((1, 0), (0, 1), (-1, -1), (0, 0)), (1, 1, 1, 1)),          # a zero normal
    (2, ((1, 0), (0, 1), (-1, -1), (0, 0)), (1, 1, 1, -1)),         # ... making P empty
    (1, ((0,),), (1,)),                                             # only a zero normal
    (0, (), ()),                                                    # R^0
    (0, ((),), (-1,)),                                              # R^0, empty
    (0, ((),), (0,)),                                               # R^0, one tight zero row
    (2, ((1, 0), (-1, 0), (2, 0)), (1, 1, 1)),                      # rank 1 < d: a strip
    (3, ((1, 0, 0), (0, 1, 0), (-1, -1, 0)), (1, 1, 1)),            # rank 2 < d: a prism
    (2, ((1, 0), (0, 1), (1, 1)), (0, 0, 1)),                       # a quadrant, redundant cut
    (2, ((1, 0), (0, 1), (1, 1)), (0, 0, 0)),                       # a quadrant, cut at the apex
    (2, ((1, 0), (0, 1), (-SQ2, -1), (-SQ2, -1)), (1, 1, 1, 1)),   # a repeated facet
])
def test_facts_match_on_polytopes_built_directly(d, normals, offsets):
    assert_same_facts(HPolytope(d, normals, offsets))


def test_a_parameter_polytope_is_bounded_by_its_calibration(calibrations_built, fig5):
    cal = Calibration(fig5.d, fig5.n, fig5.columns)
    half = Calibration(2, 3, ((1, 0), (0, 1), (-1, 1)))
    del calibrations_built[:]
    assert HPolytope.from_parameter(cal, vec([1] * cal.n)).is_bounded()
    assert not HPolytope.from_parameter(half, vec([1] * half.n)).is_bounded()
    assert calibrations_built == []
    # built directly, a polytope still asks a Calibration of its normals
    assert HPolytope(2, half.columns, (1, 1, 1)).is_bounded() is False
    assert len(calibrations_built) == 1


def test_normal_fan_builds_a_polytope_only_on_its_error_path(monkeypatch, fig5):
    built = []
    post_init = HPolytope.__post_init__
    monkeypatch.setattr(HPolytope, "__post_init__", lambda P: built.append(P) or post_init(P))
    assert len(normal_fan(fig5, vec([1] * fig5.n)).max_cones) == 5
    assert built == []
    half = Calibration(2, 3, ((1, 0), (0, 1), (-1, 1)))
    with pytest.raises(NotAdmissibleError, match="unbounded"):
        normal_fan(half, vec([1, 1, 1]))
    assert len(built) == 1
