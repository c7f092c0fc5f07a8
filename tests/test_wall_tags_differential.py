"""classify_wall, read off a facet's tags and the calibration's circuits,
against the stepping rule it replaced (classify_wall_stepping: step
across the facet, compare the two fans, take a flipping circuit off the
on-wall fan) on every facet of the reference fans, of the pool's
chambers and of seeded random fans with sqrt(2) entries at d = 2..4; and
each crossing of the paths benchmark pool against the replaced report."""

import json
import random
from collections import Counter

from qsecfan import (
    Calibration,
    Scalar,
    chamber_of,
    classify_wall,
    enumerate_chambers,
    path_to_projective,
)
from qsecfan.linalg import vec

from conftest import GOLDEN, random_calibration
from reference_geometry import classify_crossing_ref, classify_wall_stepping


def fan_facets(cal):
    return [(ch, f) for ch in enumerate_chambers(cal).chambers for f in ch.facets()]


def seeded_facets():
    """Every facet of two fans for each d = 2..4 and n - d = 2, 3, each
    drawn with sqrt(2) entries at even odds, and the number drawn so."""
    rng, out, irrational = random.Random(31), [], 0
    for d in (2, 3, 4):
        for m in (2, 3, 2, 3):
            cal = None
            while cal is None:
                cal = random_calibration(rng, d, d + m, irrational=rng.random() < 0.5,
                                         geometric=True)
            irrational += cal.field_m is not None
            out += fan_facets(cal)
    return out, irrational


def compare(pairs, seen):
    """Assert the two rules agree on each (chamber, facet) and count the
    cases the tag rule must get right."""
    for ch, facet in pairs:
        got, want = classify_wall(ch, facet), classify_wall_stepping(ch, facet)
        assert got == want and got.to_json() == want.to_json()
        seen[got.type] += 1
        circuits = {frozenset((*q.payload[0], q.payload[2])) for q in facet.tags if q.kind == "wall"}
        virtual = [q.payload[0] for q in facet.tags if q.kind == "virtual"]
        seen["several S"] += len(circuits) > 1
        # a virtual generator parallel to a ray: the two swap, the lesser is the index
        seen["parallel swap"] += bool(virtual) and got.virtual_index != min(virtual)
        seen["wall tag, divisorial"] += got.type == "divisorial" and \
            all(q.kind == "wall" for q in facet.tags)
        seen["|Z| < d + 1"] += got.type == "flipping" and \
            sum(map(len, got.circuit)) < ch.calibration.d + 1


def test_tags_give_the_stepped_wall_on_the_reference_fans(qex, fig5, frustum, corank4):
    seen = Counter()
    for cal in (qex, fig5, frustum, corank4):
        compare(fan_facets(cal), seen)
    assert seen["several S"] and seen["wall tag, divisorial"]
    assert seen["flipping"] and seen["boundary"]


def test_tags_give_the_stepped_wall_on_the_pool(instance_pool):
    seen = Counter()
    for cal, chi, _ in instance_pool:
        ch = chamber_of(cal, chi)
        compare([(ch, f) for f in ch.facets()], seen)
    assert seen["several S"] and seen["wall tag, divisorial"] and seen["flipping"]
    assert seen["parallel swap"]


def test_tags_give_the_stepped_wall_on_seeded_sqrt2_fans():
    """At d = 4 some circuits on a wall have fewer than d + 1 elements, so
    the rule orients them by cones containing Z - {i}, not equal to it."""
    seen = Counter()
    pairs, irrational = seeded_facets()
    assert irrational >= 4
    compare(pairs, seen)
    assert seen["several S"] and seen["|Z| < d + 1"] and seen["wall tag, divisorial"]


def paths_pool():
    pairs = json.loads(GOLDEN.read_text())["paths"]["pairs"]
    return [(Calibration.from_json(end["calibration"]), vec(Scalar.from_json(x) for x in end["b"]))
            for pair in pairs for end in pair]


def test_path_crossings_match_the_replaced_report_on_the_paths_pool():
    kinds = Counter()
    for cal, b in paths_pool():
        rep = path_to_projective(cal, b)
        if rep.cobordism is None:
            continue
        work = cal if rep.target_calibration is None else rep.target_calibration
        for c in rep.cobordism.crossings:
            want = classify_crossing_ref(work, c.wall.normal, rep.chi_path.chi(work, c.t_star),
                                         c.fan_minus, c.fan_plus, c.t_star)
            assert (c.wall, c.index) == (want.wall, want.index)
            kinds[c.wall.type] += 1
    assert sum(kinds.values()) == 85 and kinds["divisorial"] and kinds["flipping"]
