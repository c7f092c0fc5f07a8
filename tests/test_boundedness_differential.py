"""HPolytope.is_bounded, read off Gale duality, against the Fourier-Motzkin
recession probes it replaced (reference_geometry.is_bounded_fm); and the
face dimensions, normal fans and chambers of column sets that need not
positively span against their Fourier-Motzkin and vertex references."""

import json
import random
from itertools import combinations
from pathlib import Path

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
    normal_fan,
)
from qsecfan.linalg import vec

from conftest import SQ2, special_points, unconstrained_calibration
from reference_geometry import (
    chamber_of_vertices,
    dimension_lp,
    face_dim_lp,
    is_bounded_fm,
    normal_fan_fm,
)

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "golden.json"


def assert_same_boundedness(P):
    got = P.is_bounded()
    assert got == is_bounded_fm(P), (P.ambient_dim, P.normals)
    return got


@pytest.fixture(scope="module")
def unconstrained():
    """One calibration per d in 1..3, m = n - d in 0..4, kind and field."""
    rng = random.Random(20261019)
    cals = []
    for d in (1, 2, 3):
        for m in range(5):
            for kind in ("free", "half", "coloop") if d > 1 else ("free", "half"):
                for irrational in (False, True):
                    cal = None
                    while cal is None:
                        cal = unconstrained_calibration(rng, d, m, kind, irrational)
                    cals.append(cal)
    return cals


def seeded_offsets(rng, cal, count):
    """The all-ones offsets and count seeded rational ones."""
    return [vec([1] * cal.n)] + [
        vec([Rational(rng.randint(-6, 9), rng.randint(1, 3)) for _ in range(cal.n)])
        for _ in range(count)]


def test_is_bounded_matches_fm_on_the_faces_pool_and_the_instance_pool(instance_pool):
    faces = json.loads(GOLDEN.read_text())["faces"]["instances"]
    assert len(faces) == 48
    polytopes = [HPolytope.from_parameter(Calibration.from_json(inst["calibration"]),
                                          [Scalar.from_json(x) for x in inst["b"]])
                 for inst in faces]
    polytopes += [HPolytope.from_parameter(cal, b) for cal, _, b in instance_pool]
    assert all(assert_same_boundedness(P) for P in polytopes)
    # without their last d columns the pool's normals need not span: both answers
    cut = [HPolytope(cal.d, cal.columns[:-cal.d], b[:-cal.d]) for cal, _, b in instance_pool]
    assert {assert_same_boundedness(P) for P in cut} == {True, False}


def test_is_bounded_matches_fm_on_unconstrained_column_sets(unconstrained):
    rng = random.Random(43)
    seen = set()
    for cal in unconstrained:
        for b in seeded_offsets(rng, cal, 2):
            seen.add(assert_same_boundedness(HPolytope.from_parameter(cal, b)))
    assert seen == {True, False}


@pytest.mark.parametrize("d, normals, offsets, bounded", [
    (2, ((1, 0), (0, 1), (-1, -1), (0, 0)), (1, 1, 1, 1), True),    # a zero normal
    (2, ((1, 0), (0, 1), (-1, -1), (0, 0)), (1, 1, 1, -1), True),   # ... making P empty
    (1, ((0,),), (1,), False),                                      # only a zero normal
    (2, ((1, 0), (-1, 0), (2, 0)), (1, 1, 1), False),               # rank 1 < d: a strip
    (3, ((1, 0, 0), (0, 1, 0), (-1, -1, 0)), (1, 1, 1), False),     # rank 2 < d: a prism
    (2, (), (), False),                                             # no constraint at all
    (1, ((1,),), (0,), False),                                      # x >= 0
    (1, ((-1,),), (0,), False),                                     # x <= 0
    (1, ((1,), (-1,)), (0, 1), True),                               # a segment
    (2, ((1, 0), (0, 1), (-SQ2, -1)), (1, 1, 1), True),             # irrational, spanning
    (2, ((1, 0), (0, 1), (-SQ2, 1)), (1, 1, 1), False),             # irrational, in y >= 0
    (3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -SQ2, -1)), (1, 1, 1, 1), True),
    (0, (), (), True),                                              # R^0
    (0, ((),), (-1,), True),                                        # R^0, empty
])
def test_is_bounded_matches_fm_on_edge_cases(d, normals, offsets, bounded):
    assert assert_same_boundedness(HPolytope(d, normals, offsets)) == bounded


def test_face_dims_match_lp_on_unconstrained_column_sets(unconstrained):
    """dimension and face_dim of every T of at most two constraints and of
    every vertex tight set, bounded or not, empty or not."""
    rng = random.Random(47)
    shapes, kinds = set(), set()
    for cal in unconstrained:
        for b in seeded_offsets(rng, cal, 1):
            P = HPolytope.from_parameter(cal, b)
            kinds.add(P.is_bounded())
            dim = P.dimension()
            assert dim == dimension_lp(P)
            shapes.add("empty" if dim < 0 else "full" if dim == cal.d else "thin")
            Ts = [T for r in range(3) for T in combinations(range(cal.n), r)]
            for T in Ts + [tuple(sorted(t)) for _, t in P.vertices()]:
                assert P.face_dim(T) == face_dim_lp(P, T), (cal, b, T)
    assert kinds == {True, False}
    assert {"empty", "full"} <= shapes


def fan_or_error(fn, cal, b):
    try:
        f = fn(cal, b)
    except (NotAdmissibleError, DimensionMismatchError) as exc:
        return type(exc).__name__, str(exc)
    return f.max_cones, f.virtual, f.complete


def test_normal_fan_matches_fm_on_unconstrained_column_sets(unconstrained):
    rng = random.Random(53)
    outcomes = set()
    for cal in unconstrained:
        for b in seeded_offsets(rng, cal, 2) + [vec([1] * (cal.n + 1))]:
            got = fan_or_error(normal_fan, cal, b)
            assert got == fan_or_error(normal_fan_fm, cal, b), (cal, b)
            outcomes.add(got[1] if isinstance(got[0], str) else "fan")
    assert outcomes == {"fan", "P_b is empty or lower-dimensional",
                        "P_b is unbounded, its normal fan is not complete",
                        "parameter length differs from n"}


def chamber_or_error(route, cal, chi):
    try:
        ch = route(cal, chi)
    except (NotAdmissibleError, OnWallError, DimensionMismatchError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "equalities", None)
    return ch, ch.to_json()


def test_chamber_of_matches_vertices_on_unconstrained_column_sets(unconstrained):
    rng = random.Random(59)
    kinds = set()
    for cal in unconstrained:
        m = cal.n - cal.d
        for chi in special_points(cal, rng)[:12] + [vec([1] * (m + 1))]:
            got = chamber_or_error(chamber_of, cal, chi)
            assert got == chamber_or_error(chamber_of_vertices, cal, chi), (cal, chi)
            kinds.add(got[0] if isinstance(got[0], str) else "Chamber")
    assert kinds == {"Chamber", "NotAdmissibleError", "OnWallError",
                     "DimensionMismatchError"}
