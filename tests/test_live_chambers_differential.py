"""chamber_of, which lends a chamber still alive on its calibration to every
later point with the same basis scan, against chamber_of on a twin
Calibration that holds no live chamber: every call, hit or miss, in the
chamber BFS and the path walk too, with byte-equal to_json and equal
error kinds, messages and payloads."""

import json
import random
from collections import Counter

import pytest

from qsecfan import Calibration, DegeneratePathError, QsecfanError, secondary

from conftest import random_calibration, random_generic_chi, segment, special_points


def error_of(exc):
    return type(exc).__name__, str(exc), getattr(exc, "equalities", None)


@pytest.fixture
def calls(monkeypatch):
    """A Counter of hits, misses and errors; every secondary.chamber_of call
    is checked against its twin first."""
    chamber_of, twins, counts = secondary.chamber_of, {}, Counter()

    def checked(cal, chi):
        twin = twins.setdefault(cal, Calibration(cal.d, cal.n, cal.columns, cal.virtual))
        vars(twin).pop("live_chambers", None)
        try:
            want = chamber_of(twin, chi)
        except QsecfanError as exc:
            with pytest.raises(QsecfanError) as got:
                chamber_of(cal, chi)
            assert error_of(got.value) == error_of(exc)
            counts["error"] += 1
            raise
        got = chamber_of(cal, chi)
        counts["miss" if any(ch is got for ch in cal.live_chambers.values()) else "hit"] += 1
        assert got == want
        assert json.dumps(got.to_json()) == json.dumps(want.to_json())
        assert [q.code for q in got.inequalities] == [q.code for q in want.inequalities]
        return got

    monkeypatch.setattr(secondary, "chamber_of", checked)
    return counts


def query(cal, points):
    """chamber_of at each point, twice; the chambers are kept alive."""
    kept = []
    for chi in points + points:
        try:
            kept.append(secondary.chamber_of(cal, chi))
        except QsecfanError:
            pass
    return kept


def walk(cal):
    """The BFS, then the path walk from the first chamber to the last."""
    sf = secondary.enumerate_chambers(cal)
    first, last = sf.chambers[0].rep_point, sf.chambers[-1].rep_point
    try:
        secondary.cobordism_from_path(segment(cal, first, last), cal)
    except DegeneratePathError:
        pass
    return sf


def test_chamber_of_matches_a_twin_on_the_references(calls, qex, qex_t1, p2, fig5,
                                                     frustum, exc4):
    rng = random.Random(17)
    kept = []
    for cal in (qex, qex_t1, p2, fig5, frustum, exc4):
        if cal.is_geometric():
            kept.append(walk(cal))
        kept += query(cal, special_points(cal, rng))
    assert min(calls["hit"], calls["miss"], calls["error"]) > 20


def test_chamber_of_matches_a_twin_on_the_pool(calls, instance_pool):
    rng = random.Random(18)
    kept = []
    for cal, chi, _ in instance_pool:
        kept += query(cal, [chi] + [random_generic_chi(rng, cal, tries=20) or chi
                                    for _ in range(2)])
    assert calls["hit"] >= 600 and calls["miss"] >= 200 and calls["error"] == 0


def test_chamber_of_matches_a_twin_on_the_criterion_11_shapes(calls):
    rng = random.Random(11)
    kept = []
    for d, n in [(2, 4)] * 8 + [(3, 5)] * 4 + [(2, 5)] * 5 + [(3, 6)] * 3:
        cal = None
        while cal is None:
            cal = random_calibration(rng, d, n, irrational=rng.random() < 0.5, geometric=True)
        kept.append(walk(cal))
    assert calls["hit"] > 100 and calls["miss"] > 100
