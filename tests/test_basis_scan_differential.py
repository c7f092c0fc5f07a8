"""polytope.basis_scan of b, the one per-basis vertex test, against the
chi-space scan it replaced (reference_geometry.basis_scan_chi over the
chamber codes of chamber_codes_brackets) at chi = k^T b: the same (J,
tight) sequence.  Run on the references with corank4, the instance pool,
sqrt(2) column sets with d = 1..4 and the unconstrained kinds (not
positively spanning, n - d = 0..4), at generic b, at b with zero entries
and at degenerate b whose vertices are not simple; each kind is asserted
met."""

import random

import pytest

from qsecfan import Scalar
from qsecfan.linalg import dot, vadd, vec
from qsecfan.polytope import basis_scan
from qsecfan.scalar import encode

from conftest import random_calibration, unconstrained_calibration
from reference_geometry import basis_scan_chi, chamber_codes_brackets


def sparse_parameter(rng, cal):
    """A small b over the calibration's field, about a third of it zero."""
    def entry():
        if rng.random() < 0.35:
            return Scalar(0)
        q = rng.randint(-1, 1) if cal.field_m == 2 else 0
        return Scalar(rng.randint(-3, 3), q, 2)
    return vec(entry() for _ in range(cal.n))


def degenerate_parameter(rng, cal):
    """b = r - h^T x for a random integer x and r >= 0 zero on at least
    d + 1 columns: x lies in P_b with all of them tight, so it is a vertex
    that is not simple whenever they span R^d."""
    x = vec(rng.randint(-2, 2) for _ in range(cal.d))
    tight = set(rng.sample(range(cal.n), min(cal.n, cal.d + 1 + rng.randint(0, 1))))
    return vec(Scalar(0 if i in tight else rng.randint(1, 3)) - dot(x, h)
               for i, h in enumerate(cal.columns))


def parameters(rng, cal, b=None):
    """The given b and a translate b + h^T y with the same chi, when b is
    given, then a sparse and a degenerate b."""
    found = []
    if b is not None:
        y = vec(rng.randint(-2, 2) for _ in range(cal.d))
        found += [b, vadd(b, tuple(dot(y, h) for h in cal.columns))]
    return found + [sparse_parameter(rng, cal), degenerate_parameter(rng, cal)]


def assert_scans_agree(cal, bs, seen):
    """basis_scan(cal, encode(b)) == the chi-space scan at chi = k^T b for
    each b, recording in seen which kinds of b and scan were met."""
    codes = chamber_codes_brackets(cal)
    for b in bs:
        got = list(basis_scan(cal, encode(b)))
        assert got == list(basis_scan_chi(codes, encode(cal.gale_t.matvec(b))))
        seen.add("zero b_i" if any(x.is_zero() for x in b) else "no zero b_i")
        seen.add("non-simple" if any(len(t) > cal.d for _, t in got) else
                 "simple" if got else "no vertex")


@pytest.fixture(scope="module")
def references(qex, qex_t1, p2, fig5, frustum, exc4, corank4):
    return [qex, qex_t1, p2, fig5, frustum, exc4, corank4]


def test_scan_matches_on_references_and_the_pool(references, instance_pool):
    rng, seen = random.Random(3001), set()
    for cal in references:
        assert_scans_agree(cal, parameters(rng, cal), seen)
    for cal, _, b in instance_pool:
        assert_scans_agree(cal, parameters(rng, cal, b), seen)
    assert seen == {"zero b_i", "no zero b_i", "non-simple", "simple", "no vertex"}


def test_scan_matches_on_sqrt2_column_sets():
    """Three sets with sqrt(2) entries per d in 1..4 and n - d in 2..4: the
    d + 1 fixed columns of random_calibration leave none to tilt at
    n - d = 1, which the unconstrained sets cover."""
    rng, seen, met = random.Random(3002), set(), set()
    for d in (1, 2, 3, 4):
        for m in (2, 3, 4):
            found = 0
            while found < 3:
                cal = random_calibration(rng, d, d + m, irrational=True)
                if cal is None or cal.field_m is None:
                    continue
                found += 1
                assert_scans_agree(cal, parameters(rng, cal), seen)
                met.add(d)
    assert met == {1, 2, 3, 4}
    assert {"zero b_i", "non-simple", "simple"} <= seen


def test_scan_matches_on_unconstrained_column_sets():
    """The free, half and coloop kinds at n - d = 0..4, rational and
    sqrt(2), among them columns that do not span positively at every n - d."""
    rng, seen, unspanning = random.Random(3003), set(), set()
    for d in (1, 2, 3, 4):
        for m in range(5 if d < 4 else 3):
            for kind in ("free", "half", "coloop") if d > 1 else ("free", "half"):
                for irrational in (False, True):
                    cal = None
                    while cal is None:
                        cal = unconstrained_calibration(rng, d, m, kind, irrational)
                    assert_scans_agree(cal, parameters(rng, cal), seen)
                    if not cal.positively_spanning:
                        unspanning.add(m)
    assert unspanning == set(range(5))
    assert {"zero b_i", "non-simple", "simple", "no vertex"} <= seen
