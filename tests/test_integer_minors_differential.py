"""The integer minor table (scalar.minor_table, held by
Calibration.minor_table) and its readers against the Scalar routes they
replaced, by repr: the brackets against Laplace minors, the hyperplane
normals and their codes against cofactor normals, and every basic point
and HPolytope.vertices() against the Scalar basic point.  Run on the
references with corank4, the pool, the benchmark's golden calibrations,
unconstrained column sets and sqrt(2) column sets with d = 1..4; d = 0,
d = 1, n = d, zero brackets and zero b_j are asserted present.  The
kernels themselves are checked on random matrices against the Scalar
Laplace minor and cofactor_normal of reference_geometry, and against
solve_unique."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsecfan import Calibration, HPolytope, Scalar
from qsecfan.errors import DegenerateInputError, MixedFieldError
from qsecfan.linalg import Matrix, det, is_zero_vec, normalize_direction, solve_unique, vec
from qsecfan.polytope import _basic_point
from qsecfan.scalar import divided, minor_table

from conftest import decode, random_calibration, unconstrained_calibration
from reference_geometry import (
    basic_point_normals,
    brackets_laplace,
    cofactor_normal,
    hpolytope_vertices_slack,
    hyperplane_normals_cofactor,
    minor,
)
from test_minor_tables_differential import golden_calibrations


def random_parameter(rng, cal):
    """A small b over the calibration's field, a third of it zero."""
    m = cal.field_m

    def entry():
        if rng.random() < 1 / 3:
            return Scalar(0)
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        return Scalar(a, rng.randint(-1, 1), m) if m else Scalar(a)

    return tuple(entry() for _ in range(cal.n))


def assert_minors_match(cal, rng, seen):
    """The table's readers against the Scalar routes, by repr; seen gets
    the shapes and zeros met."""
    d, n = cal.d, cal.n
    assert repr(cal.brackets) == repr(brackets_laplace(cal))
    # there are no (d-1)-subsets at d = 0
    want = hyperplane_normals_cofactor(cal) if d else {}
    table = cal.minor_table
    assert repr([(S, table.normal(S)) for S in table.normals]) == \
        repr([(S, w) for S, (w, _) in want.items()])
    # the codes: the integer N_S, a positive multiple of each nonzero n_S
    codes = cal.hyperplane_normals
    assert list(codes) == [S for S, (w, _) in want.items() if not is_zero_vec(w)]
    assert all(normalize_direction(decode(codes[S])) == normalize_direction(want[S][0])
               for S in codes)
    seen.update({"zero normal"} if len(codes) < len(want) else ())
    seen.update({("d", d), ("n = d", n == d)})
    for _ in range(2):
        b = random_parameter(rng, cal)
        for J, bracket in zip(combinations(range(n), d), cal.brackets):
            if bracket.is_zero():
                seen.add("zero bracket")
                continue
            assert repr(_basic_point(cal, J, b)) == repr(basic_point_normals(cal, J, bracket, b))
            if any(b[j].is_zero() for j in J):
                seen.add("zero b_j")
        P = HPolytope.from_parameter(cal, b)
        assert repr(P.vertices()) == repr(list(hpolytope_vertices_slack(P)))
        seen.add(("vertices", bool(P.vertices())))


@pytest.fixture(scope="module")
def references(qex, qex_t1, p2, fig5, frustum, exc4, corank4):
    return [qex, qex_t1, p2, fig5, frustum, exc4, corank4]


def test_minor_table_matches_on_references_pool_and_golden(references, instance_pool):
    rng, seen = random.Random(2901), set()
    golden = golden_calibrations()
    assert len(golden) > 100
    for cal in references + [c for c, _, _ in instance_pool] + golden:
        assert_minors_match(cal, rng, seen)
    assert {"zero bracket", "zero normal", "zero b_j", ("vertices", True)} <= seen


def test_minor_table_matches_on_unconstrained_and_sqrt2_column_sets():
    """d = 0 (the empty calibration), the free, half and coloop kinds at
    n - d = 0..3 for d = 1..4, and three sqrt(2) sets per d = 1..4."""
    rng, seen = random.Random(2902), set()
    cals = [Calibration(0, 0, ())]
    for d in (1, 2, 3, 4):
        for m in range(4):
            for kind in ("free", "half", "coloop") if d > 1 else ("free", "half"):
                for irrational in (False, True):
                    cal = None
                    while cal is None:
                        cal = unconstrained_calibration(rng, d, m, kind, irrational)
                    cals.append(cal)
        found = 0
        while found < 3:
            cal = random_calibration(rng, d, d + 2, irrational=True)
            if cal is not None and cal.field_m is not None:
                cals.append(cal)
                found += 1
    for cal in cals:
        assert_minors_match(cal, rng, seen)
    assert {("d", d) for d in range(5)} <= seen
    assert {("n = d", True), "zero bracket", "zero b_j", ("vertices", True),
            ("vertices", False)} <= seen
    assert cals[0].brackets == (Scalar(1),) and dict(cals[0].hyperplane_normals) == {}


ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
              "__truediv__", "__rtruediv__", "inv")


def test_the_table_readers_do_no_scalar_arithmetic(monkeypatch, qex, frustum):
    """Brackets, hyperplane normals and basic points each build their
    Scalars once from integers: no Scalar operation runs."""
    cals = [cal.with_columns(cal.columns) for cal in (qex, frustum)]
    params = [vec([Scalar(k + 1, k % 2, 2) for k in range(cal.n)]) for cal in cals]
    calls = []
    for name in ARITHMETIC:
        op = getattr(Scalar, name)
        monkeypatch.setattr(Scalar, name, lambda *args, op=op, name=name: calls.append(name) or op(*args))
    for cal, b in zip(cals, params):
        assert cal.hyperplane_normals and cal.brackets
        for J, bracket in zip(combinations(range(cal.n), cal.d), cal.brackets):
            if not bracket.is_zero():
                _basic_point(cal, J, b)
    assert calls == []
    assert Scalar(1) + Scalar(2) == Scalar(3) and calls == ["__add__"]


# -- the kernels on random matrices ------------------------------------------

RADICANDS = (None, 2, 3)


def entries(m):
    """Rationals with mixed denominators, over Q(sqrt(m)) when m is set;
    zero often."""
    part = st.builds(Fraction, st.integers(min_value=-6, max_value=6),
                     st.integers(min_value=1, max_value=12))
    if m is None:
        return part.map(Scalar)
    return st.tuples(part, st.one_of(st.just(0), part)).map(lambda ab: Scalar(*ab, m))


def matrices(k, extra=0):
    """(k + extra) x k matrices and a k-vector over one field."""
    return st.sampled_from(RADICANDS).flatmap(lambda m: st.tuples(
        st.lists(st.lists(entries(m), min_size=k, max_size=k), min_size=k + extra,
                 max_size=k + extra).map(lambda rows: [tuple(r) for r in rows]),
        st.lists(entries(m), min_size=k, max_size=k)))


sizes = st.integers(min_value=0, max_value=4)


@given(sizes, st.integers(min_value=0, max_value=2), st.data())
def test_brackets_and_normals_match_the_scalar_minors(k, extra, data):
    rows, _ = data.draw(matrices(k, extra))
    table = minor_table(rows, k)
    assert repr(table.scalar_brackets()) == \
        repr(tuple(minor([rows[j] for j in J]) for J in combinations(range(len(rows)), k)))
    if k:
        for S in combinations(range(len(rows)), k - 1):
            assert repr(table.normal(S)) == repr(cofactor_normal([rows[s] for s in S], k))


@given(sizes, st.data())
def test_basic_point_matches_solve_unique(k, data):
    rows, b = data.draw(matrices(k))
    J = tuple(range(k))
    want = solve_unique(Matrix(rows), [-x for x in b])
    assert repr(det(Matrix(rows))) == repr(minor(rows))
    if minor(rows).is_zero():
        assert want is None
        with pytest.raises(DegenerateInputError):
            minor_table(rows, k).basic_point(J, b)
    else:
        assert repr(minor_table(rows, k).basic_point(J, b)) == repr(want)


pairs = st.tuples(st.integers(-9, 9), st.integers(-9, 9))


@given(st.sampled_from(RADICANDS), st.lists(pairs, max_size=4), pairs)
def test_divided_matches_scalar_division(m, numerators, den):
    """divided's one reduction per entry gives the Scalars that division does."""
    if m is None:
        numerators, den = [(p, 0) for p, _ in numerators], (den[0], 0)
    if den == (0, 0):
        return
    at = [Scalar(p, q, m) if q else Scalar(p) for p, q in numerators]
    scale = (Scalar(den[0], den[1], m) if den[1] else Scalar(den[0])).inv()
    assert repr(divided(numerators, den, m)) == repr(tuple(scale * x for x in at))


@given(st.integers(min_value=1, max_value=4), st.data())
def test_two_radicals_raise(k, data):
    """A sqrt(5) entry among rows over Q(sqrt(2)) or Q(sqrt(3)) fails the
    table; rows over Q(sqrt(5)) and a sqrt(2) in b fail the basic point."""
    rows, b = data.draw(matrices(k))
    rows[0] = (Scalar(0, 1, 5),) + rows[0][1:]
    if any(x.m not in (None, 5) for r in rows for x in r):
        with pytest.raises(MixedFieldError):
            minor_table(rows, k)
        return
    b[0] = Scalar(0, 1, 2)
    with pytest.raises(MixedFieldError):
        minor_table(rows, k).basic_point(tuple(range(k)), b)
