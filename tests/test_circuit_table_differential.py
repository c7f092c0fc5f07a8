"""Calibration.circuits, the one table of circuits c_S, and its readers
(chamber forms and the codes of chamber inequalities, wall normals, the
lifted signs of basis_scan, projective certificates and positive
spanning) against the routes they replaced, which rebuilt each circuit
from the brackets or the Gale rows: on the references, the pool, sqrt(2)
column sets, the unconstrained kinds, n - d = 1 and n = d.  Each circuit
is also checked to lie in ker h, to be k times its entries at the free
columns, and to have a code over all n columns, zero off S."""

import random
from itertools import combinations

import pytest

from qsecfan import Calibration, Scalar, projective_certificate
from qsecfan.linalg import is_zero_vec, normalize_direction, vadd, vec, vscale
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
    lifted_sign_brackets,
    positively_spanning_sides,
    projective_certificate_brackets,
    wall_normals_cofactor,
)


def certificate_json(cert):
    return None if cert is None else cert.to_json()


def random_parameter(rng, cal):
    """A small b over the calibration's field, with zeros."""
    return vec([Scalar(rng.randint(-2, 3), rng.randint(0, 1), 2) if cal.field_m == 2
                else rng.randint(-2, 3) for _ in range(cal.n)])


def assert_circuits_match(cal, rng):
    """Every reader of the table against its replaced route, by repr."""
    d, n = cal.d, cal.n
    assert list(cal.circuits) == list(combinations(range(n), d + 1))
    for S, (entries, code) in cal.circuits.items():
        c = [Scalar(0)] * n
        for s, x in zip(S, entries):
            c[s] = x
        zero = (Scalar(0),) * d
        h_c = zero
        for s in S:
            h_c = vadd(h_c, vscale(c[s], cal.columns[s]))
        assert h_c == zero
        assert cal.gale.matvec(cal._at_free(S, entries, Scalar(0))) == tuple(c)
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
    assert cal.positively_spanning == positively_spanning_sides(cal)
    assert certificate_json(projective_certificate(cal)) == \
        certificate_json(projective_certificate_brackets(cal))
    for _ in range(2):
        e = encode(random_parameter(rng, cal))
        for S in cal.circuits:
            assert dot_sign(cal.circuits[S][1], e) == lifted_sign_brackets(cal, e, S)


@pytest.fixture(scope="module")
def references(qex, qex_t1, p2, fig5, frustum, exc4, corank4):
    return [qex, qex_t1, p2, fig5, frustum, exc4, corank4]


def test_circuit_table_matches_on_references_and_the_pool(references, instance_pool):
    rng = random.Random(2701)
    for cal in references + [c for c, _, _ in instance_pool]:
        assert_circuits_match(cal, rng)


def test_circuit_table_matches_on_sqrt2_column_sets():
    """Three sets with sqrt(2) entries per d in 1..4 and n - d in 2..4: the
    d + 1 fixed columns of random_calibration leave none to tilt at
    n - d = 1, which the unconstrained sets cover."""
    rng = random.Random(2702)
    for d in (1, 2, 3, 4):
        for m in (2, 3, 4):
            found = 0
            while found < 3:
                cal = random_calibration(rng, d, d + m, irrational=True)
                if cal is None or cal.field_m is None:
                    continue
                found += 1
                assert_circuits_match(cal, rng)


def test_circuit_table_matches_on_unconstrained_column_sets():
    """The free, half and coloop kinds at n - d = 0..4, n - d = 1 and n = d
    among them, spanning and not, with and without certificates."""
    rng = random.Random(2703)
    kinds = set()
    for d in (1, 2, 3, 4):
        for m in range(5 if d < 4 else 3):
            for kind in ("free", "half", "coloop") if d > 1 else ("free", "half"):
                for irrational in (False, True):
                    cal = None
                    while cal is None:
                        cal = unconstrained_calibration(rng, d, m, kind, irrational)
                    assert_circuits_match(cal, rng)
                    kinds.add((m, cal.positively_spanning,
                               projective_certificate(cal) is not None))
    assert {m for m, _, _ in kinds} == set(range(5))
    assert {(m, True, True) for m in range(1, 5)} <= kinds
    assert {(m, False, False) for m in range(5)} <= kinds


def test_circuit_table_at_n_equal_d_and_d_zero():
    """n = d has no (d+1)-subsets: no circuits, no walls, no certificate,
    and the columns of a basis do not span positively; d = 0 has no
    columns, which span R^0."""
    rng = random.Random(2704)
    for d in (1, 2, 3):
        cal = Calibration(d, d, tuple(tuple(int(i == j) - int(i == j + 1) for i in range(d))
                                      for j in range(d)))
        assert cal.circuits == {} and cal.wall_normals == ()
        assert not cal.positively_spanning
        assert_circuits_match(cal, rng)
    zero = Calibration(0, 0, ())
    assert zero.circuits == {} and zero.positively_spanning


def test_a_circuit_with_zero_entries_covers_only_its_support():
    """Columns 1 and 3 are opposite and column 2 is off their line: the only
    positive circuits are supported on {1, 3}, so column 2 lies in none, and
    c_{1,2,3} vanishes at column 2."""
    cal = Calibration(2, 3, ((1, 0), (0, 1), (-1, 0)))
    entries, _ = cal.circuits[(0, 1, 2)]
    assert entries[1].is_zero() and entries[0].sign() == entries[2].sign() != 0
    assert not cal.positively_spanning and not positively_spanning_sides(cal)
    spanning = Calibration(2, 4, ((1, 0), (0, 1), (-1, 0), (0, -1)))
    assert spanning.positively_spanning and positively_spanning_sides(spanning)
    assert projective_certificate(spanning) is None
