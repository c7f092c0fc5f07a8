"""The chamber forms a Calibration gives, the chamber inequalities with
their codes and the vertex slacks read from them against the per-call
chain they replaced, and genericity with its witnesses against the LP
scan."""

import random
from itertools import combinations

import pytest

from qsecfan import NotAdmissibleError, chamber_of, is_admissible, is_generic
from qsecfan.linalg import dot, is_zero_vec, vadd, vec
from qsecfan.scalar import dot_sign, encode
from qsecfan.secondary import _chamber_inequality, degenerate_span_witnesses

from conftest import assert_codes_fit_forms, forms_of, special_points
from reference_geometry import (
    b_space_inequality,
    chamber_forms_cramer,
    degenerate_span_witnesses_lp,
    is_generic_lp,
    to_chi_space,
)


@pytest.fixture(scope="module")
def references(qex, qex_t1, p2, fig5, frustum, exc4):
    return [qex, qex_t1, p2, fig5, frustum, exc4]


def assert_tables_match_the_chain(cal):
    """Every d-subset J: an invertible one has one chamber form and its
    inequality per j outside J, the form equal to the reference chain and
    to the Cramer table (which checks h c = 0 per entry), the inequality's
    code its encoding; a singular one has none and raises the reference's
    error."""
    n, d = cal.n, cal.d
    cramer, forms = chamber_forms_cramer(cal), forms_of(cal)
    assert list(forms) == list(cal.basis_inverses) == list(cramer)
    checked = 0
    for J in combinations(range(n), d):
        sigma = frozenset(k + 1 for k in J)
        outside = [i for i in range(n) if i not in J]
        if J not in cal.basis_inverses:
            with pytest.raises(NotAdmissibleError) as want:
                b_space_inequality(cal, sigma, outside[0] + 1)
            with pytest.raises(NotAdmissibleError) as got:
                _chamber_inequality(cal, sigma, outside[0] + 1, "wall", ())
            assert str(got.value) == str(want.value)
            continue
        assert list(forms[J]) == outside == list(cramer[J])
        for j in outside:
            z = forms[J][j]
            assert repr(z) == repr(cramer[J][j])
            assert z == to_chi_space(cal, b_space_inequality(cal, sigma, j + 1))
            q = _chamber_inequality(cal, sigma, j + 1, "wall", ())
            assert q.normal == z and q.code == encode(z)
            checked += 1
    assert_codes_fit_forms(cal)
    return checked


def test_tables_match_the_chain_on_every_basis(references, instance_pool):
    checked = sum(assert_tables_match_the_chain(cal)
                  for cal in references + [c for c, _, _ in instance_pool])
    assert checked > 10000


def test_singular_subsets_occur(exc4, frustum):
    """exc4 has collinear columns and frustum four coplanar ones, so both
    have singular d-subsets for the test above to reach."""
    for cal in (exc4, frustum):
        assert len(cal.basis_inverses) < len(list(combinations(range(cal.n), cal.d)))


def test_chamber_forms_give_the_slack_at_each_basic_point(instance_pool):
    """z(J, i) . k^T b is <x_J, h(e_i)> + b_i at x_J = M_J^{-1} (-b_J), for
    every J, feasible or not, and every i outside J: at the pool's b = P chi
    and at translates b + h^T x, which lie outside im P and have the same
    chi but other basic points."""
    rng = random.Random(48)
    translates = 0
    for cal, chi, b in instance_pool:
        x = vec([rng.randint(-5, 5) for _ in range(cal.d)])
        b2 = vadd(b, tuple(dot(x, h) for h in cal.columns))
        if not is_zero_vec(x):
            assert not is_zero_vec(cal.matrix().matvec(b2))  # h b2 = h h^T x != 0
            translates += 1
        for bb in (b, b2):
            assert cal.gale_t.matvec(bb) == chi
            for J, forms in forms_of(cal).items():
                xJ = cal.basis_inverses[J].matvec([-bb[k] for k in J])
                for i, z in forms.items():
                    assert dot(z, chi) == dot(xJ, cal.column(i + 1)) + bb[i]
    assert translates > 150


def test_chamber_inequalities_match_the_chain(references, instance_pool):
    """Each wall and virtual inequality of chamber_of against the chain
    run on its payload, for every n-d of the pool; its code is the encoded
    normal, positive at the chamber's representative point."""
    rng = random.Random(46)
    chambers = [chamber_of(cal, chi) for cal, chi, _ in instance_pool]
    for cal in references:
        chambers += [chamber_of(cal, chi) for chi in special_points(cal, rng)
                     if is_admissible(cal, chi) and is_generic(cal, chi)]
    kinds = set()
    for ch in chambers:
        cal = ch.calibration
        for q in ch.inequalities:
            if q.kind == "wall":
                sigma, _, j = q.payload
            else:
                (j,) = q.payload
                sigma = ch.fan.cone_containing(cal.column(j))
            assert q.normal == to_chi_space(cal, b_space_inequality(cal, sigma, j))
            assert q.code == encode(q.normal)
            assert dot_sign(q.code, encode(ch.rep_point)) == dot(q.normal, ch.rep_point).sign() == 1
            kinds.add(q.kind)
    assert kinds == {"wall", "virtual"}


def test_is_generic_matches_the_scan(references, instance_pool, corank4):
    """Genericity and the witnesses read off the wall hyperplanes through
    chi against the LP scan over every cone on fewer than n-d Gale rows,
    at points on and off the hyperplanes, inside and outside the Gale cone;
    n-d = 4 on the fixed (3, 7) instance."""
    rng = random.Random(47)
    outcomes = set()
    cals = references + [c for c, _, _ in instance_pool if c.n - c.d <= 3][:40] + [corank4]
    for cal in cals:
        for chi in special_points(cal, rng):
            g = is_generic(cal, chi)
            assert g == is_generic_lp(cal, chi)
            assert degenerate_span_witnesses(cal, chi) == degenerate_span_witnesses_lp(cal, chi)
            zero_sign = any(dot(w, chi).is_zero() for w in cal.wall_normals)
            outcomes.add((g, zero_sign))
    assert {(True, True), (False, True), (True, False)} <= outcomes
