"""Face dimensions read off vertex tight sets (incidence_dim), vertices
kept by the signs of lifted minors and the normal fan from basis-scan
tight sets, against the affine_dim, Scalar slack-pass and
vertex-coordinate routes they replaced; and pins that the new routes
solve no discarded vertex and run no row reduction."""

import random
import re
from itertools import chain, combinations

import pytest

from qsecfan import HPolytope, MixedFieldError, NotAdmissibleError, Rational, Scalar, normal_fan
from qsecfan import fan, linalg, polytope
from qsecfan.errors import DimensionMismatchError, InvalidCalibrationError, OnWallError
from qsecfan.linalg import vec
from qsecfan.polytope import incidence_dim

from conftest import SQ2, cal_of, faces_pool
from reference_geometry import (
    affine_dim,
    hpolytope_vertices_dict,
    hpolytope_vertices_slack,
    normal_fan_affine,
    vertices_of,
    vertices_of_dict,
)


@pytest.fixture(scope="module")
def references(qex, qex_t1, p2, fig5, frustum, exc4):
    return [qex, qex_t1, p2, fig5, frustum, exc4]


def outcome(fn, *args):
    """A comparable summary of a result, or the type and text of the error."""
    try:
        got = fn(*args)
    except (NotAdmissibleError, OnWallError, DimensionMismatchError, MixedFieldError) as exc:
        return type(exc).__name__, str(exc)
    if hasattr(got, "max_cones"):
        return got.max_cones, got.virtual, got.complete
    return repr(list(got))


def small_parameters(cal, rng, count):
    """All ones, zero, and small integers and rationals: often several
    constraints through one vertex, sometimes an empty or thin P_b."""
    params = [vec([1] * cal.n), vec([0] * cal.n)]
    params += [vec([rng.randint(-3, 3) for _ in range(cal.n)]) for _ in range(count)]
    params += [vec([Rational(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(cal.n)])
               for _ in range(count // 3)]
    return params


def entry(rng, irrational):
    return Scalar(rng.randint(-2, 2), rng.randint(-1, 1), 2) if irrational else \
        Scalar(rng.randint(-2, 2))


def random_polytope(rng, d):
    """A random H-polytope in R^d: small integer or sqrt(2) normals, often
    closed off by minus their sum; sometimes a hyperplane pair (thin), a
    contradicting pair (empty) or zero normals with offsets -1, 0 or 1."""
    irrational = rng.random() < 0.3
    normals = [[entry(rng, irrational and rng.random() < 0.5) for _ in range(d)]
               for _ in range(rng.randint(d, d + 3))]
    if rng.random() < 0.8:
        normals.append([-sum(col, Scalar(0)) for col in zip(*normals)])
    offsets = [entry(rng, irrational and rng.random() < 0.3) + 1 for _ in normals]
    shape = rng.choice(["plain", "plain", "thin", "empty", "zero"])
    if shape in ("thin", "empty"):
        k = rng.randrange(len(normals))
        normals.append([-x for x in normals[k]])
        offsets.append(-offsets[k] - (shape == "empty"))
    if shape == "zero":
        for _ in range(rng.randint(1, 2)):
            normals.append([Scalar(0)] * d)
            offsets.append(Scalar(rng.choice([-1, 0, 0, 1])))
    return HPolytope(d, tuple(map(tuple, normals)), tuple(offsets))


def random_polytopes(seed, count):
    rng = random.Random(seed)
    return [random_polytope(rng, rng.choice([1, 2, 2, 3, 3, 4])) for _ in range(count)]


def parameter_polytopes(references, instance_pool, rng):
    out = [HPolytope.from_parameter(cal, b) for cal, b in faces_pool()]
    out += [HPolytope.from_parameter(cal, b) for cal, _, b in instance_pool[::4]]
    for cal in references:
        out += [HPolytope.from_parameter(cal, b) for b in small_parameters(cal, rng, 12)]
    return out


def assert_same_faces(P):
    """Vertices against the dict loop and the slack pass; on bounded P,
    every face dimension with at most three tight constraints against
    the affine dimension of the vertices on it."""
    verts = P.vertices()
    assert verts == hpolytope_vertices_dict(P)
    assert repr(verts) == repr(list(hpolytope_vertices_slack(P)))
    if not P.is_bounded():
        return verts, None
    for T in chain.from_iterable(combinations(range(P.nfacets), r) for r in range(4)):
        on = [(v, t) for v, t in verts if set(T) <= t]
        want = affine_dim([v for v, _ in on])
        assert incidence_dim([t for _, t in on]) == want
        assert P.face_dim(T) == want
    return verts, P.dimension()


def test_faces_match_the_affine_rule_on_parameter_polytopes(references, instance_pool):
    kinds = set()
    for P in parameter_polytopes(references, instance_pool, random.Random(25)):
        verts, dim = assert_same_faces(P)
        kinds.add((dim, any(len(t) > P.ambient_dim for _, t in verts)))
    assert {(2, True), (3, True), (3, False), (-1, False)} <= kinds
    assert any(dim is not None and 0 <= dim < 2 for dim, _ in kinds)


def test_faces_match_the_affine_rule_on_random_polytopes():
    kinds = set()
    for P in random_polytopes(26, 400):
        verts, dim = assert_same_faces(P)
        if dim is not None:
            non_simple = any(len(t) > P.ambient_dim for _, t in verts)
            zero = any(all(x.is_zero() for x in nr) for nr in P.normals)
            kinds.add((P.ambient_dim, dim == P.ambient_dim, non_simple, zero))
    assert {d for d, *_ in kinds} == {1, 2, 3, 4}
    assert {full for _, full, _, _ in kinds} == {True, False}
    assert {non_simple for *_, non_simple, _ in kinds} == {True, False}
    assert {zero for *_, zero in kinds} == {True, False}


def test_incidence_dim_of_no_and_one_vertex():
    assert incidence_dim([]) == -1
    assert incidence_dim([frozenset({0, 1})]) == 0
    # a square's four corners, and two adjacent ones: an edge
    square = [frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 0})]
    assert incidence_dim(square) == 2 and incidence_dim(square[:2]) == 1


def test_normal_fan_matches_the_affine_rule(references, instance_pool):
    rng = random.Random(27)
    params = [(cal, b) for cal, b in faces_pool()]
    params += [(cal, b) for cal, _, b in instance_pool]
    params += [(cal, b) for cal in references for b in small_parameters(cal, rng, 30)]
    kinds = set()
    for cal, b in params:
        got = outcome(normal_fan, cal, b)
        assert got == outcome(normal_fan_affine, cal, b)
        non_simple = cal.positively_spanning and got[0] != "NotAdmissibleError" and \
            any(len(t) > cal.d for _, t in vertices_of_dict(cal, b))
        kinds.add((got[0] == "NotAdmissibleError", non_simple))
    assert kinds == {(True, False), (False, False), (False, True)}


def radical_entry(rng, m):
    return Scalar(rng.randint(-2, 2), rng.randint(-1, 1) if rng.random() < 0.4 else 0, m)


def mixed_radical_polytopes():
    """Offsets in Q(sqrt 3) against Q(sqrt 2) normals and the reverse, and
    a zero normal whose offset carries the other radical."""
    sq3, rng = Scalar.sqrt(3), random.Random(31)
    tri = ((1, 0), (0, 1), (-SQ2, -1))
    out = [(2, tri, (1, 1, sq3)), (2, tri, (sq3, 0, 0)), (2, tri, (0, 0, 0)),
           (2, ((1, 0), (0, 1), (-1, -1)), (SQ2, sq3, 1)),
           (2, ((1, 0), (0, 1), (-1, -sq3)), (SQ2, 1, 1)),
           (2, ((1, 0), (0, 1), (-1, -sq3), (0, 0)), (1, 1, 1, SQ2)),
           (3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -SQ2, -1)), (1, sq3, 1, 2))]
    for _ in range(150):
        d, (mh, mb) = rng.choice([2, 3]), rng.choice([(2, 3), (3, 2)])
        normals = [[radical_entry(rng, mh) for _ in range(d)] for _ in range(rng.randint(d, d + 2))]
        normals.append([-sum(col, Scalar(0)) for col in zip(*normals)])
        out.append((d, tuple(map(tuple, normals)),
                    tuple(radical_entry(rng, mb) + 1 for _ in normals)))
    return out


def same_up_to_radical_order(got, want):
    """Equal outcomes, or MixedFieldErrors naming the same two radicals: the
    slack arithmetic of the old routes named first whichever it met first."""
    if got == want or not got[0] == want[0] == "MixedFieldError":
        return got == want
    return sorted(re.findall(r"sqrt\(\d+\)", got[1])) == sorted(re.findall(r"sqrt\(\d+\)", want[1]))


def test_mixed_radicals_give_the_same_result_or_error():
    outcomes, exact = set(), 0
    for d, normals, offsets in mixed_radical_polytopes():
        got = outcome(HPolytope.vertices, HPolytope(d, normals, offsets))
        want = outcome(hpolytope_vertices_slack, HPolytope(d, normals, offsets))
        assert same_up_to_radical_order(got, want)
        outcomes.add(got[0] if isinstance(got, tuple) else "vertices")
        exact += got == want
    rng = random.Random(32)
    for _ in range(100):
        d, (mh, mb) = rng.choice([2, 3]), rng.choice([(2, 3), (3, 2)])
        cols = [[radical_entry(rng, mh) for _ in range(d)] for _ in range(rng.randint(d, d + 2))]
        cols.append([-sum(col, Scalar(0)) for col in zip(*cols)])
        try:
            cal = cal_of(d, cols)
        except InvalidCalibrationError:
            continue
        b = vec([radical_entry(rng, mb) + 1 for _ in range(cal.n)])
        got = outcome(normal_fan, cal, b)
        assert same_up_to_radical_order(got, outcome(normal_fan_affine, cal, b))
        outcomes.add(got[0] if isinstance(got[0], str) else "fan")
    assert outcomes == {"MixedFieldError", "NotAdmissibleError", "vertices", "fan"}
    assert exact > 100


# -- design pins -------------------------------------------------------------


@pytest.fixture
def calls(monkeypatch):
    """Counts of _basic_point, rank and rref calls, by name."""
    counts = {"_basic_point": 0, "rank": 0, "rref": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(polytope, "_basic_point", counted("_basic_point", polytope._basic_point))
    rank = counted("rank", linalg.rank)
    for module in (linalg, polytope, fan):
        monkeypatch.setattr(module, "rank", rank)
    monkeypatch.setattr(linalg, "rref", counted("rref", linalg.rref))
    return counts


def non_simple_parameters(references):
    """Admissible parameters with a vertex on more than d constraints."""
    rng = random.Random(28)
    out = []
    for cal in references:
        for b in small_parameters(cal, rng, 30):
            try:
                verts = vertices_of(cal, b)
                normal_fan(cal, b)
            except NotAdmissibleError:
                continue
            if any(len(t) > cal.d for _, t in verts):
                out.append((cal, b))
    assert len({id(cal) for cal, _ in out}) >= 2
    return out


def test_normal_fan_solves_no_vertex_and_runs_no_rank(references, calls):
    params = non_simple_parameters(references) + faces_pool()[:12]
    for cal, b in params:
        normal_fan(cal, b)  # fills the calibration's tables
        calls.update(dict.fromkeys(calls, 0))
        normal_fan(cal, b)
        assert calls == {"_basic_point": 0, "rank": 0, "rref": 0}


def test_a_bounded_face_dim_runs_no_rref(references, calls):
    polytopes = [HPolytope.from_parameter(cal, b)
                 for cal, b in non_simple_parameters(references) + faces_pool()[:12]]
    polytopes += [P for P in random_polytopes(29, 60) if P.is_bounded()]
    for P in polytopes:
        P.vertices()
        calls["rref"] = 0
        for T in chain.from_iterable(combinations(range(P.nfacets), r) for r in range(3)):
            P.face_dim(T)
        P.facet_indices()
        assert calls["rref"] == 0


def test_vertices_solves_each_vertex_it_returns_once(references, calls):
    polytopes = [HPolytope.from_parameter(cal, b)
                 for cal, b in non_simple_parameters(references) + faces_pool()]
    polytopes += random_polytopes(30, 80)
    for P in polytopes:
        P.is_bounded()
        calls["_basic_point"] = 0
        count = len(P.vertices())
        assert calls["_basic_point"] == count
