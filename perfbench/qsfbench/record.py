"""Build the input pool of every workload and record its golden digests.

The pool comes from the benchmark's own generator under fixed pool seeds;
each op is run once at the current commit and its canonical output
hashed.  Chamber counts of the reference instances and the census class
counts are asserted while recording.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

from qsecfan import VertexOracle, enumerate_chambers, path_to_projective
from qsecfan.errors import QsecfanError
from qsecfan.linalg import gale_rows, preimage_matrix

from . import workloads as W
from .generate import (
    arrangement_normals,
    census_chi,
    derived_rng,
    instance_pool,
    random_calibration,
    random_instance,
    reference_calibrations,
)
from .source import GOLDEN
from .tracer import Tracer

REFERENCE_CHAMBERS = {"qex": 3, "fig5": 11, "frustum": 2}

# (name, d, n, irrational, radicand, max_entry).  The (3, 6) instance keeps
# entries in {-1, 0, 1}: with wider entries one enumeration takes 30-60 s,
# longer than a whole run.
ENUMERATE_STRATA = [
    ("g25_q", 2, 5, False, 2, 4),
    ("g35_q", 3, 5, False, 2, 4),
    ("g35_r2", 3, 5, True, 2, 4),
    ("g36_q", 3, 6, False, 2, 1),
    ("g24_r3", 2, 4, True, 3, 4),
    ("g35_r5", 3, 5, True, 5, 4),
    ("g24_r2", 2, 4, True, 2, 4),
    ("g35_r3", 3, 5, True, 3, 4),
    ("g35_r5b", 3, 5, True, 5, 4),
    ("g25_q2", 2, 5, False, 2, 2),
]

# An odd number of calibrations with equal sample counts puts the median op
# inside one calibration's latencies rather than on the gap between two.
CENSUS_STRATA = [
    ("c24_r2", 2, 4, True, 2, 4),
    ("c25_q", 2, 5, False, 2, 4),
    ("c35_r2", 3, 5, True, 2, 4),
    ("c36_q", 3, 6, False, 2, 1),
    ("c25_r3", 2, 5, True, 3, 4),
    ("c35_r5", 3, 5, True, 5, 4),
    ("c24_r5", 2, 4, True, 5, 4),
]
CENSUS_RECORD_SAMPLES = 10000

FACES_POOL = 48
PATHS_POOL = 56


def _log(msg):
    print(msg, file=sys.stderr, flush=True)


def _work(fn, *args):
    """``fn(*args)`` and the Scalars it constructed: a measure of its cost
    that, unlike its time, is the same on every machine."""
    with Tracer() as tr:
        span = tr.begin_op()
        try:
            result = fn(*args)
        finally:
            tr.end_op(span)
    return result, tr.scalar_inits


def _stratum_calibration(purpose, name, d, n, irrational, radicand, max_entry):
    rng = derived_rng("pool", purpose, name)
    while True:
        cal = random_calibration(rng, d, n, irrational=irrational, max_entry=max_entry,
                                 geometric=True, radicand=radicand)
        if cal is not None and (cal.field_m is not None) == irrational:
            return cal


def record_enumerate():
    wl = W.Enumerate({}, tempfile.mkdtemp(prefix="qsfbench-record-"))
    instances = list(reference_calibrations().items())
    for name, d, n, irr, rad, me in ENUMERATE_STRATA:
        instances.append((name, _stratum_calibration("enumerate", name, d, n, irr, rad, me)))
    src = os.path.join(wl.workdir, "in.json")
    dst = os.path.join(wl.workdir, "out.json")
    out = []
    for i, (name, cal) in enumerate(instances):
        with open(src, "w") as fh:
            json.dump({"calibration": cal.to_json()}, fh)
        rc, scalars = _work(wl.run, W.Op(name, (i, src, dst)))
        if rc != 0:
            raise RuntimeError(f"enumerate {name} exited {rc}")
        with open(dst, "rb") as fh:
            data = fh.read()
        chambers = len(json.loads(data)["chambers"])
        if chambers != REFERENCE_CHAMBERS.get(name, chambers):
            raise RuntimeError(f"{name} has {chambers} chambers, "
                               f"expected {REFERENCE_CHAMBERS[name]}")
        out.append({"name": name, "calibration": cal.to_json(), "chambers": chambers,
                    "sha256": W.sha256_bytes(data), "scalars": scalars})
        _log(f"enumerate {name}: {chambers} chambers, {scalars} Scalars")
    shutil.rmtree(wl.workdir)
    return {"instances": out}


def record_census():
    out = []
    for name, d, n, irr, rad, me in CENSUS_STRATA:
        cal = _stratum_calibration("census", name, d, n, irr, rad, me)
        t0 = time.perf_counter()
        chambers = len(enumerate_chambers(cal).chambers)
        t_enum = time.perf_counter() - t0
        normals = arrangement_normals(cal)
        oracle = VertexOracle(cal)
        pm = preimage_matrix(cal)
        rows = gale_rows(cal)
        rng = derived_rng("pool", "census-record", name)
        cells, skipped = {}, 0
        t0 = time.perf_counter()
        for _ in range(CENSUS_RECORD_SAMPLES):
            chi = census_chi(rng, rows)
            sig = W.signs(normals, chi)
            if 0 in sig:
                skipped += 1
                continue
            key = W.sign_string(sig)
            if key not in cells:
                cells[key] = W.digest(W.comb_key_json(oracle.comb_key(pm.matvec(chi))))
        classes = sorted(set(cells.values()))
        _log(f"census {name}: {chambers} chambers ({t_enum:.1f} s), {len(cells)} cells, "
             f"{len(classes)} classes, {skipped} on-wall samples, "
             f"{time.perf_counter() - t0:.1f} s")
        if len(classes) != chambers:
            raise RuntimeError(f"census {name}: {len(classes)} classes != {chambers} chambers")
        out.append({"name": name, "calibration": cal.to_json(), "chambers": chambers,
                    "cells": cells, "classes": classes,
                    "map_sha256": W.digest(cells)})
    return {"calibrations": out}


def record_faces():
    rng = derived_rng("pool", "faces")
    out = []
    for i, (cal, _chi, b) in enumerate(instance_pool(rng, FACES_POOL, radicands=(2, 3, 5))):
        report, scalars = _work(W.face_report, cal, b)
        if not W.duality_holds(report, cal.d):
            raise RuntimeError(f"faces pool{i}: duality check fails")
        out.append({"calibration": cal.to_json(), "b": [x.to_json() for x in b],
                    "sha256": W.digest(W.canonical_face_report(report)),
                    "scalars": scalars})
        _log(f"faces pool{i}: d={cal.d} n={cal.n} m={cal.field_m} {scalars} Scalars")
    return {"instances": out}


def record_paths():
    rng = derived_rng("pool", "paths")
    found, rejected = [], 0
    while len(found) < PATHS_POOL:
        d = rng.choice([2, 3])
        n = d + rng.choice([2, 3])
        irr = rng.random() < 0.5
        inst = random_instance(rng, d, n, irrational=irr, radicand=rng.choice([2, 3, 5]))
        if inst is None:
            continue
        cal, _chi, b = inst
        try:
            report, scalars = _work(path_to_projective, cal, b)
        except QsecfanError as exc:
            rejected += 1
            _log(f"paths candidate rejected: {type(exc).__name__}")
            continue
        found.append({"calibration": cal.to_json(), "b": [x.to_json() for x in b],
                      "sha256": W.digest(report.to_json()), "found": report.found,
                      "scalars": scalars})
        _log(f"paths #{len(found)}: d={d} n={n} found={report.found} {scalars} Scalars")
    # pairs of neighbours in cost order, so every seed's pick costs about the same
    found.sort(key=lambda r: r["scalars"])
    pairs = [found[i:i + 2] for i in range(0, len(found), 2)]
    _log(f"paths: {len(pairs)} pairs, {rejected} rejected")
    return {"pairs": pairs}


RECORDERS = {"enumerate": record_enumerate, "census": record_census,
             "faces": record_faces, "paths": record_paths}


def main(argv):
    argparse.ArgumentParser(description="record the benchmark pool and golden digests"
                            ).parse_args(argv)
    golden = {name: record() for name, record in RECORDERS.items()}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return 0
