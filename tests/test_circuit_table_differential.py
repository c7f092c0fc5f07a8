"""The chirotope and the integer circuit codes of a calibration, and the
readers of both (chamber forms and the codes of chamber inequalities,
wall normals, the vertex test of basis_scan, projective certificates,
positive spanning and the walls of classify_wall), against the routes
they replaced: the Scalar circuit table that Calibration.circuits held
(circuit_table_scalar, with the total-cyclicity scan over it) and the older routes that rebuilt each circuit from the
brackets or the Gale rows.  Run on the references, the pool, sqrt(2)
column sets, the unconstrained kinds, n - d = 1, n = d and d = 0, zero
brackets among them.  Each circuit is also checked to lie in ker h, to
be k times its entries at the free columns, and to have a code over all
n columns, zero off S.  No Scalar is built while the chirotope, the
codes, positive spanning and the vertex test run."""

import json
import random
from itertools import combinations

import pytest

from qsecfan import Calibration, Scalar, chamber_of, classify_wall, projective_certificate
from qsecfan import scalar
from qsecfan.linalg import is_zero_vec, normalize_direction, vadd, vec, vscale
from qsecfan.polytope import basis_scan
from qsecfan.scalar import dot_sign, encode

from conftest import (
    assert_codes_fit_forms,
    decode,
    forms_of,
    random_calibration,
    unconstrained_calibration,
)
from reference_geometry import (
    chamber_codes_brackets,
    chamber_form_brackets,
    circuit_table_scalar,
    lifted_sign_brackets,
    positively_spanning_circuits,
    positively_spanning_sides,
    projective_certificate_brackets,
    wall_normals_cofactor,
)


def certificate_json(cert):
    return json.dumps(None if cert is None else cert.to_json())


def random_parameter(rng, cal):
    """A small b over the calibration's field, with zeros."""
    return vec([Scalar(rng.randint(-2, 3), rng.randint(0, 1), 2) if cal.field_m == 2
                else rng.randint(-2, 3) for _ in range(cal.n)])


def assert_circuits_match(cal, rng, seen):
    """Every reader of the chirotope and the codes against its replaced
    route, by repr; seen gets the zero brackets met."""
    d, n = cal.d, cal.n
    table, minors = circuit_table_scalar(cal), cal.minor_table
    assert list(cal.chirotope.items()) == \
        [(J, b.sign()) for J, b in zip(combinations(range(n), d), cal.brackets)]
    if 0 in cal.chirotope.values():
        seen.add("zero bracket")
    assert list(cal.circuits) == list(table) == list(combinations(range(n), d + 1))
    for S, (entries, _) in table.items():
        assert repr(scalar.divided(minors.circuit(S), (minors.den ** d, 0), minors.m)) == repr(entries)
        assert cal.circuit_signs(S) == tuple(x.sign() for x in entries)
        c = [Scalar(0)] * n
        for s, x in zip(S, entries):
            c[s] = x
        zero = (Scalar(0),) * d
        h_c = zero
        for s in S:
            h_c = vadd(h_c, vscale(c[s], cal.columns[s]))
        assert h_c == zero
        assert cal.gale.matvec(cal._at_free(S, entries)) == tuple(c)
        code = cal.circuits[S]
        assert [x.is_zero() for x in decode(code)] == [x.is_zero() for x in c]
        if not is_zero_vec(entries):
            assert normalize_direction(decode(code)) == normalize_direction(c)
    forms, want = forms_of(cal), chamber_codes_brackets(cal)
    assert [(J, list(row)) for J, row in forms.items()] == [(J, list(row)) for J, row in want.items()]
    for J, row in forms.items():
        for j, z in row.items():
            assert repr(z) == repr(chamber_form_brackets(cal, J, j))
            assert normalize_direction(decode(want[J][j])) == normalize_direction(z)
    assert_codes_fit_forms(cal)
    assert repr(cal.wall_normals) == repr(wall_normals_cofactor(cal))
    assert cal.positively_spanning == positively_spanning_sides(cal) == \
        positively_spanning_circuits(cal)
    assert certificate_json(projective_certificate(cal)) == \
        certificate_json(projective_certificate_brackets(cal))
    for _ in range(2):
        e = encode(random_parameter(rng, cal))
        for S, code in cal.circuits.items():
            assert dot_sign(code, e) == lifted_sign_brackets(cal, e, S) == dot_sign(table[S][1], e)


@pytest.fixture(scope="module")
def references(qex, qex_t1, p2, fig5, frustum, exc4, corank4):
    return [qex, qex_t1, p2, fig5, frustum, exc4, corank4]


def test_circuit_table_matches_on_references_and_the_pool(references, instance_pool):
    rng, seen = random.Random(2701), set()
    for cal in references + [c for c, _, _ in instance_pool]:
        assert_circuits_match(cal, rng, seen)
    assert "zero bracket" in seen


def test_circuit_table_matches_on_sqrt2_column_sets():
    """Three sets with sqrt(2) entries per d in 1..4 and n - d in 2..4: the
    d + 1 fixed columns of random_calibration leave none to tilt at
    n - d = 1, which the unconstrained sets cover."""
    rng, seen = random.Random(2702), set()
    for d in (1, 2, 3, 4):
        for m in (2, 3, 4):
            found = 0
            while found < 3:
                cal = random_calibration(rng, d, d + m, irrational=True)
                if cal is None or cal.field_m is None:
                    continue
                found += 1
                assert_circuits_match(cal, rng, seen)
    assert "zero bracket" in seen


def test_circuit_table_matches_on_unconstrained_column_sets():
    """The free, half and coloop kinds at n - d = 0..4, n - d = 1 and n = d
    among them, spanning and not, with and without certificates."""
    rng, seen = random.Random(2703), set()
    kinds = set()
    for d in (1, 2, 3, 4):
        for m in range(5 if d < 4 else 3):
            for kind in ("free", "half", "coloop") if d > 1 else ("free", "half"):
                for irrational in (False, True):
                    cal = None
                    while cal is None:
                        cal = unconstrained_calibration(rng, d, m, kind, irrational)
                    assert_circuits_match(cal, rng, seen)
                    kinds.add((m, cal.positively_spanning,
                               projective_certificate(cal) is not None))
    assert {m for m, _, _ in kinds} == set(range(5))
    assert {(m, True, True) for m in range(1, 5)} <= kinds
    assert {(m, False, False) for m in range(5)} <= kinds
    assert "zero bracket" in seen


def test_circuit_table_at_n_equal_d_and_d_zero():
    """n = d has no (d+1)-subsets: no circuits, no walls, no certificate,
    and the columns of a basis do not span positively; d = 0 has no
    columns, which span R^0, and one bracket [()] = 1."""
    rng = random.Random(2704)
    for d in (1, 2, 3):
        cal = Calibration(d, d, tuple(tuple(int(i == j) - int(i == j + 1) for i in range(d))
                                      for j in range(d)))
        assert cal.circuits == {} and cal.wall_normals == ()
        assert not cal.positively_spanning
        assert_circuits_match(cal, rng, set())
    zero = Calibration(0, 0, ())
    assert zero.circuits == {} and zero.positively_spanning and dict(zero.chirotope) == {(): 1}
    assert_circuits_match(zero, rng, set())


def test_a_circuit_with_zero_entries_covers_only_its_support():
    """Columns 1 and 3 are opposite and column 2 is off their line: the only
    positive circuits are supported on {1, 3}, so column 2 lies in none, and
    c_{1,2,3} vanishes at column 2."""
    cal = Calibration(2, 3, ((1, 0), (0, 1), (-1, 0)))
    signs = cal.circuit_signs((0, 1, 2))
    assert signs[1] == 0 and signs[0] == signs[2] != 0
    assert cal.circuits[(0, 1, 2)].p[1] == 0
    assert not cal.positively_spanning and not positively_spanning_sides(cal)
    spanning = Calibration(2, 4, ((1, 0), (0, 1), (-1, 0), (0, -1)))
    assert spanning.positively_spanning and positively_spanning_sides(spanning)
    assert projective_certificate(spanning) is None


def test_walls_read_the_same_circuit_signs_as_the_scalar_table(instance_pool, monkeypatch):
    """classify_wall on every facet of each pool chamber, with the signs of
    its circuit read off the chirotope and then off the Scalar table."""
    pairs = [(ch, f) for ch in (chamber_of(cal, chi) for cal, chi, _ in instance_pool)
             for f in ch.facets()]
    got = [classify_wall(ch, f).to_json() for ch, f in pairs]
    tables = {}

    def scalar_signs(cal, S):
        if cal not in tables:
            tables[cal] = circuit_table_scalar(cal)
        return tuple(x.sign() for x in tables[cal][S][0])

    monkeypatch.setattr(Calibration, "circuit_signs", scalar_signs)
    assert [classify_wall(ch, f).to_json() for ch, f in pairs] == got
    assert {w["type"] for w in got} == {"boundary", "divisorial", "flipping"}


BUILDERS = ("_raw", "_reduced")


def test_the_signs_and_codes_build_no_scalar(monkeypatch, qex, frustum):
    """On fresh calibrations the chirotope, the circuit and normal codes,
    the inverse codes, positive spanning and a full basis_scan, with
    rational and sqrt(2) b, build no Scalar: Scalar.__init__,
    scalar._raw and scalar._reduced never run."""
    cals = [cal.with_columns(cal.columns) for cal in (qex, frustum)]
    params = [[encode(vec(Scalar(k + 1, k % 2, 2) if irrational else k + 1 for k in range(cal.n)))
               for irrational in (False, True)] for cal in cals]
    calls = []
    init = Scalar.__init__
    monkeypatch.setattr(Scalar, "__init__", lambda self, *args, **kwargs:
                        calls.append("__init__") or init(self, *args, **kwargs))
    for name in BUILDERS:
        build = getattr(scalar, name)
        monkeypatch.setattr(scalar, name, lambda *args, build=build, name=name:
                            calls.append(name) or build(*args))
    scans = []
    for cal, es in zip(cals, params):
        assert cal.chirotope and cal.circuits and cal.hyperplane_normals and cal.inverse_codes
        assert cal.positively_spanning
        scans += [list(basis_scan(cal, e)) for e in es]
    assert calls == [] and len(scans) == 4 and all(scans)
    total = Scalar(1) + Scalar(2)
    assert calls == ["__init__", "__init__", "_reduced", "_raw"] and total == 3
