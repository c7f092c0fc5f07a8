"""The per-calibration tables built from exact minors (brackets, inverses
and their codes from the hyperplane normals, circuit chamber forms,
Gale-duality positive spanning, wall normals from signed minors,
sign-coded cone membership, bracket cone dimensions and vertices from
the hyperplane normals) against the routes they replaced, entry by
entry, on the references, the pool, the benchmark's golden calibrations
and unconstrained column sets."""

import json
import random
from functools import reduce
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest

from qsecfan import (
    Calibration,
    DimensionMismatchError,
    HPolytope,
    NotAdmissibleError,
    chamber_of,
    enumerate_chambers,
    normal_fan,
)
from qsecfan.cli import _sample_census
from qsecfan.fan import cone_contains, cone_dim
from qsecfan.linalg import (
    Matrix,
    is_zero_vec,
    normalize_direction,
    preimage_at_free,
    preimage_matrix,
    rank,
    vadd,
    vec,
    vscale,
)
from qsecfan.scalar import Scalar, encode

from conftest import assert_codes_fit_forms, decode, forms_of, unconstrained_calibration
from reference_geometry import (
    basis_inverses_rref,
    chamber_forms_cramer,
    chamber_forms_preimage,
    cone_contains_dot,
    gale_facet_normals_subsets,
    positively_spanning_fm,
    sample_census_oracle,
    vertices_of_dict,
    wall_normals_kernel,
)

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "golden.json"


def golden_calibrations():
    """Every distinct calibration in the benchmark's golden file."""
    found = {}

    def walk(node):
        if isinstance(node, dict):
            if "calibration" in node:
                found.setdefault(json.dumps(node["calibration"], sort_keys=True),
                                 node["calibration"])
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    walk(json.loads(GOLDEN.read_text()))
    return [Calibration.from_json(doc) for doc in found.values()]


@pytest.fixture(scope="module")
def references(qex, qex_t1, p2, fig5, frustum, exc4):
    return [qex, qex_t1, p2, fig5, frustum, exc4]


@pytest.fixture(scope="module")
def unconstrained():
    """Two calibrations per d in 1..3, m = n - d in 0..4, kind and field."""
    rng = random.Random(20261018)
    cals = []
    for d in (1, 2, 3):
        for m in range(5):
            for kind in ("free", "half", "coloop") if d > 1 else ("free", "half"):
                for irrational in (False, True) * 2:
                    cal = None
                    while cal is None:
                        cal = unconstrained_calibration(rng, d, m, kind, irrational)
                    cals.append(cal)
    return cals


def by_entry(forms):
    return [(J, list(row.items())) for J, row in forms.items()]


def assert_tables_match(cal):
    """Each minor-built table against its replaced route, by repr.  With
    n = d the preimage matrix is k itself (n x 0), and the circuits of both
    routes are empty."""
    inverses = basis_inverses_rref(cal)
    assert repr(list(cal.basis_inverses.items())) == repr(list(inverses.items()))
    nonzero = [J for J, b in zip(combinations(range(cal.n), cal.d), cal.brackets)
               if not b.is_zero()]
    assert nonzero == list(inverses)
    forms = by_entry(forms_of(cal))
    assert repr(forms) == repr(by_entry(chamber_forms_preimage(cal)))
    assert repr(forms) == repr(by_entry(chamber_forms_cramer(cal)))
    assert_codes_fit_forms(cal)
    if cal.n == cal.d:
        assert forms == [(J, []) for J in inverses]
    assert repr(cal.wall_normals) == repr(wall_normals_kernel(cal))
    assert cal.positively_spanning == positively_spanning_fm(cal)
    assert list(cal.inverse_codes) == list(inverses)
    for J, codes in cal.inverse_codes.items():
        assert [normalize_direction(decode(c)) for c in codes] == \
            [normalize_direction(decode(encode(inverses[J].column(k)))) for k in range(cal.d)]


def test_tables_match_the_replaced_routes(references, instance_pool):
    golden = golden_calibrations()
    assert len(golden) > 100
    for cal in references + [c for c, _, _ in instance_pool] + golden:
        assert_tables_match(cal)


def test_tables_match_on_unconstrained_column_sets(unconstrained):
    seen = set()
    for cal in unconstrained:
        assert_tables_match(cal)
        m = cal.n - cal.d
        assert cal.gale_facet_normals == gale_facet_normals_subsets(cal)
        zero_row = m > 0 and any(is_zero_vec(g) for g in cal.gale.rows)
        seen.add((m, cal.positively_spanning, zero_row))
    assert {m for m, _, _ in seen} == set(range(5))
    assert {(m, True) for m in range(1, 5)} <= {(m, s) for m, s, _ in seen}
    assert {(m, False) for m in range(5)} <= {(m, s) for m, s, _ in seen}
    assert {m for m, _, zero_row in seen if zero_row} == set(range(1, 5))


def membership_probes(cal, rng):
    """Columns, their negatives, the column sum and small random vectors."""
    cols = list(cal.columns)
    probes = cols + [vscale(-1, c) for c in cols]
    probes.append(reduce(vadd, cols))
    probes += [vec([rng.randint(-2, 2) for _ in range(cal.d)]) for _ in range(3)]
    return probes


def test_cone_contains_matches_scalar_dot(references, instance_pool, unconstrained):
    rng = random.Random(49)
    cals = references + [c for c, _, _ in instance_pool] + golden_calibrations()
    outcomes = set()
    for cal in cals + unconstrained:
        probes = membership_probes(cal, rng)
        for r in (cal.d - 1, cal.d, cal.d + 1):
            subsets = list(combinations(range(1, cal.n + 1), r)) if r > 0 else []
            for sigma in rng.sample(subsets, min(len(subsets), 3)):
                for x in probes:
                    got = cone_contains(cal, sigma, x)
                    assert got == cone_contains_dot(cal, sigma, x)
                    # a precomputed code answers alike, on the facets and
                    # lower-rank subsets (r = d - 1) too
                    assert cone_contains(cal, sigma, x, encode(x)) == got
                    outcomes.add((r == cal.d, got))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}
    with pytest.raises(DimensionMismatchError):
        cone_contains(references[0], {1, 2}, vec([1]))


def fan_or_error(cal, b):
    try:
        f = normal_fan(cal, b)
    except NotAdmissibleError as exc:
        return type(exc).__name__, str(exc)
    return f.max_cones, f.virtual, f.complete


def chamber_points(chambers):
    for ch in chambers:
        yield ch.calibration, ch.rep_point
        for facet in ch.facets():
            yield ch.calibration, facet.point


def test_fan_at_the_free_column_preimage_matches_p_chi(qex, fig5, frustum, instance_pool):
    """Every preimage of chi gives a translate of one P_b, so one fan."""
    chambers = [ch for cal in (qex, fig5, frustum) for ch in enumerate_chambers(cal).chambers]
    chambers += [chamber_of(cal, chi) for cal, chi, _ in instance_pool]
    kinds = set()
    for cal, chi in chamber_points(chambers):
        b = preimage_at_free(cal, chi)
        assert cal.gale_t.matvec(b) == chi
        got = fan_or_error(cal, b)
        assert got == fan_or_error(cal, preimage_matrix(cal).matvec(chi))
        kinds.add(got[0] if isinstance(got[0], str) else "fan")
    assert kinds == {"fan", "NotAdmissibleError"}
    with pytest.raises(DimensionMismatchError):
        preimage_at_free(qex, vec([1]))


def test_sample_census_matches_the_vertex_oracle(references, instance_pool, corank4):
    cals = references + [c for c, _, _ in instance_pool if c.n - c.d <= 3][:20] + [corank4]
    for seed, cal in enumerate(cals):
        sf = SimpleNamespace(chambers=[None] * 3)
        assert _sample_census(cal, sf, 40, seed) == sample_census_oracle(cal, sf, 40, seed)


def test_cone_dim_matches_rank(references, instance_pool, unconstrained):
    """Every index set of up to d + 1 generators: d-sets by their bracket."""
    golden = golden_calibrations()
    for cal in references + [c for c, _, _ in instance_pool] + golden + unconstrained:
        for r in range(min(cal.d + 1, cal.n) + 1):
            for sigma in combinations(range(1, cal.n + 1), r):
                want = rank(Matrix([cal.column(i) for i in sigma])) if sigma else 0
                assert cone_dim(cal, frozenset(sigma)) == want


def test_parameter_vertices_match_the_inverse_route(references, instance_pool, unconstrained):
    """P_b's vertices, kept by the signs of lifted minors and solved from
    the hyperplane normals, against the basis inverses, at the pool's
    parameters and at small random ones, bounded or not; also at zeros in
    b, which the normals route skips."""
    rng = random.Random(50)
    params = [(cal, b) for cal, _, b in instance_pool]
    for cal in references + golden_calibrations()[:60] + unconstrained:
        for _ in range(2):
            params.append((cal, vec([Scalar(rng.randint(-2, 3), rng.randint(0, 1), 2)
                                     if cal.field_m == 2 else rng.randint(-2, 3)
                                     for _ in range(cal.n)])))
    kinds = set()
    for cal, b in params:
        got = HPolytope.from_parameter(cal, b).vertices()
        assert repr(got) == repr(vertices_of_dict(cal, b))
        kinds.add((bool(got), cal.positively_spanning))
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}
