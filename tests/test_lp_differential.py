"""lp.find_point, Fourier-Motzkin elimination over primitive integer rows,
against the Scalar elimination it replaced (reference_geometry's
fm_find_point): a repr-equal witness, or None on both sides.  Random
systems over Q, Q(sqrt 2) and Q(sqrt 3) with GE, GT and EQ rows, constant
and all-zero rows, nvars 0-5, parallel GE/GT rows, duplicate EQ rows and
rows that are irrational multiples of each other, infeasible ones among
them; then every system find_point meets while the enumerate benchmark's
golden instances, the pool and two seeded (2, 7) instances are
enumerated, the pool's chambers give their facets, and the bodies of
criteria 2 and 8 run.  No Scalar is
built while Chamber.facets builds its rows, nor by a facet system that
turns out infeasible."""

import json
import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

import test_acceptance as acceptance
from qsecfan import Calibration, Rational, Scalar, chamber_of, enumerate_chambers, lp, scalar
from qsecfan.secondary import Chamber

from conftest import GOLDEN, random_calibration
from reference_geometry import fm_find_point, scalar_con, scalar_constraint

KINDS = ("row", "zero", "multiple", "irrational multiple", "duplicate", "negated")


def random_system(rng):
    """(field, nvars, rows, kinds) with rows of (coeffs, const, rel)."""
    m = rng.choice((None, 2, 3))
    nvars = rng.randint(0, 5)

    def entry():
        a = rng.randint(-3, 3)
        if m and rng.random() < 0.4:
            return Scalar(a, rng.randint(-2, 2), m)
        return Scalar(Rational(a, rng.choice((1, 1, 2, 3))))

    rows, kinds = [], []
    for _ in range(rng.randint(0, 7 if nvars < 5 else 6)):
        kind = rng.choice(KINDS) if rows else "row"
        if kind == "irrational multiple" and m is None:
            kind = "multiple"
        if kind in ("row", "zero"):
            coeffs = [entry() if kind == "row" and rng.random() < 0.8 else Scalar(0)
                      for _ in range(nvars)]
            rows.append((coeffs, entry(), rng.choice((lp.GE, lp.GT, lp.EQ))))
        else:
            coeffs, const, rel = rng.choice(rows)
            if kind == "multiple":
                f = Scalar(Rational(rng.randint(1, 6), rng.randint(1, 3)))
                rel = rng.choice((lp.GE, lp.GT, rel))
            elif kind == "irrational multiple":
                f = Scalar(rng.randint(0, 2), 1, m)
            else:
                f = Scalar(1 if kind == "duplicate" else -rng.randint(1, 3))
            rows.append(([f * a for a in coeffs], f * const, rel))
        kinds.append(kind)
    return m, nvars, rows, kinds


def same_witness(rows, nvars):
    """find_point on rows against fm_find_point; the new witness."""
    got = lp.find_point([lp.con(*r) for r in rows], nvars)
    assert repr(got) == repr(fm_find_point([scalar_con(*r) for r in rows], nvars)), rows
    return got


@settings(deadline=None, max_examples=300)
@given(st.randoms(use_true_random=False))
def test_find_point_matches_the_scalar_elimination(rng):
    _, nvars, rows, _ = random_system(rng)
    same_witness(rows, nvars)


def test_the_random_systems_meet_every_kind():
    rng = random.Random(32)
    kinds, fields, sizes, rels, infeasible = Counter(), set(), set(), set(), Counter()
    for _ in range(1500):
        m, nvars, rows, drawn = random_system(rng)
        infeasible[same_witness(rows, nvars) is None] += 1
        kinds.update(drawn)
        kinds["duplicate EQ"] += any(kind == "duplicate" and rel == lp.EQ
                                     for (_, _, rel), kind in zip(rows, drawn))
        kinds["no rows"] += not rows
        fields.add(m)
        sizes.add(nvars)
        rels.update(rel for _, _, rel in rows)
    assert all(kinds[kind] > 20 for kind in (*KINDS, "duplicate EQ", "no rows"))
    assert fields == {None, 2, 3} and sizes == set(range(6)) and rels == {lp.GE, lp.GT, lp.EQ}
    assert infeasible[True] > 200 and infeasible[False] > 200


def recorded(run):
    """run() with every lp.find_point call recorded as (cons, nvars, witness)."""
    calls = []
    find = lp.find_point

    def record(cons, nvars):
        out = find(cons, nvars)
        calls.append((list(cons), nvars, out))
        return out

    lp.find_point = record
    try:
        run()
    finally:
        lp.find_point = find
    return calls


def assert_replayed(calls):
    for cons, nvars, out in calls:
        assert repr(fm_find_point([scalar_constraint(c) for c in cons], nvars)) == repr(out)


def test_enumerations_replay_on_the_scalar_elimination(instance_pool):
    """The golden enumerate instances, two seeded (2, 7) instances (n - d =
    5, rational and sqrt(2)), the pool's geometric instances with n - d <= 3
    and the facets of every pool chamber; enumerating the rest of the pool
    (n - d up to 6) takes minutes."""
    golden = [Calibration.from_json(inst["calibration"])
              for inst in json.loads(GOLDEN.read_text())["enumerate"]["instances"]]
    seeded = [random_calibration(random.Random(seed), 2, 7, irrational=seed == 1, geometric=True)
              for seed in (1, 3)]
    assert [cal.field_m for cal in seeded] == [2, None]
    cals = golden + seeded + [cal for cal, _, _ in instance_pool
                              if cal.n - cal.d <= 3 and cal.is_geometric()]
    calls = recorded(lambda: ([enumerate_chambers(cal) for cal in cals],
                              [chamber_of(cal, chi).facets() for cal, chi, _ in instance_pool]))
    assert len(calls) > 4000
    assert {n for _, n, _ in calls} == {2, 3, 4, 5, 6}
    assert any(out is None for _, _, out in calls)
    assert_replayed(calls)


def test_criterion_2_and_8_systems_replay_on_the_scalar_elimination(instance_pool, qex, p2,
                                                                    fig5, frustum):
    calls = recorded(lambda: (
        acceptance.test_criterion_2_admissibility_equivalences(qex, p2, fig5, frustum),
        acceptance.test_criterion_8_strata(instance_pool, qex, fig5, frustum)))
    assert len(calls) > 1000 and any(out is None for _, _, out in calls)
    assert_replayed(calls)


def test_facet_rows_and_infeasible_facet_systems_build_no_scalar(monkeypatch, fig5, frustum):
    """Counting Scalar.__init__, scalar._raw and scalar._reduced: none runs
    between the end of unique_normals and the first find_point of a
    chamber's facets, between two find_point calls, or inside a find_point
    that returns None."""
    seeded = random_calibration(random.Random(3), 2, 7, geometric=True)
    chambers = [ch for cal in (fig5, frustum, seeded) for ch in enumerate_chambers(cal).chambers]
    built = []
    init = Scalar.__init__
    monkeypatch.setattr(Scalar, "__init__", lambda self, *args, **kwargs:
                        built.append("__init__") or init(self, *args, **kwargs))
    for name in ("_raw", "_reduced"):
        build = getattr(scalar, name)
        monkeypatch.setattr(scalar, name, lambda *args, build=build, name=name:
                            built.append(name) or build(*args))
    normals, find = Chamber.unique_normals, lp.find_point
    outcomes = Counter()

    def unique_normals(self):
        out = normals(self)
        built.clear()
        return out

    def find_point(cons, nvars):
        assert built == []
        out = find(cons, nvars)
        outcomes[out is None] += 1
        assert out is not None or built == []
        built.clear()
        return out

    monkeypatch.setattr(Chamber, "unique_normals", unique_normals)
    monkeypatch.setattr(lp, "find_point", find_point)
    assert all(ch.facets() for ch in chambers)
    assert outcomes[True] > 20 and outcomes[False] > 100
