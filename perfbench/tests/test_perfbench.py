"""Tests of the benchmark harness itself, on tiny slices of each workload."""

import argparse
import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from qsfbench.source import GOLDEN, import_qsecfan  # noqa: E402

import_qsecfan()

from qsfbench import layers, main, workloads  # noqa: E402
from qsfbench.gauge import Gauge  # noqa: E402
from qsfbench.loop import Loop  # noqa: E402
from qsfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from qsfbench.tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def tiny(golden, name):
    """A one-or-two-op slice of a workload's golden section."""
    g = copy.deepcopy(golden[name])
    if name == "enumerate":
        g["instances"] = [i for i in g["instances"] if i["name"] == "qex"]
    elif name == "census":
        g["calibrations"] = g["calibrations"][:1]
    elif name == "faces":
        g["instances"] = sorted(g["instances"], key=lambda i: i["scalars"])[:2]
    else:
        g["pairs"] = g["pairs"][:1]
    return g


def make(golden, name, tmp_path):
    wl = workloads.WORKLOADS[name](tiny(golden, name), str(tmp_path / name))
    if name == "census":
        wl.samples_per_calibration = 3
    return wl


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_emits_every_metric_with_unit(golden, name, tmp_path):
    wl = make(golden, name, tmp_path)
    args = argparse.Namespace(seed=3, seconds=0.0, trace=0)
    loop, metrics, _ = main.end_to_end(args, wl, 0.01)
    assert loop.failed == 0 and loop.durations
    assert {k: v["unit"] for k, v in metrics.items()} == {n: u for n, u, _ in END_TO_END}
    assert all(v["value"] > 0 for v in metrics.values())
    loop, metrics, _ = layers.traced_run(args, wl, str(tmp_path))
    assert loop.failed == 0
    assert {k: v["unit"] for k, v in metrics.items()} == {n: u for n, u, _ in PER_LAYER}


def test_gauge_tags_samples_and_restores_the_alarm():
    import signal
    import time
    previous = signal.getsignal(signal.SIGALRM)
    with Gauge() as gauge:
        gauge.phase = "start-up"
        gauge.sample()
        gauge.phase = "op"
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:  # the timer samples meanwhile
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    phases = [p for p, _ in gauge.samples]
    assert phases[0] == "start-up" and phases.count("op") >= 3 and gauge.stolen > 0
    op = [v for p, v in gauge.samples if p == "op"]
    assert gauge.speed("op") == pytest.approx(sum(op) / len(op))
    assert gauge.speed("absent") == pytest.approx(
        sum(v for _, v in gauge.samples) / len(gauge.samples))
    gauge._sampling = True  # as when the timer fires inside a sample
    count = len(gauge.samples)
    gauge.sample()
    assert len(gauge.samples) == count


def test_corrupted_golden_digest_counts_as_failed_op(golden, tmp_path):
    wl = make(golden, "faces", tmp_path)
    ops = wl.build(5, 0)
    clean = Loop(wl)
    clean.run_pass(ops)
    assert clean.failed == 0
    wl.golden["instances"][ops[0].data[0]]["sha256"] = "0" * 64
    bad = Loop(wl)
    bad.run_pass(wl.build(5, 0))
    assert bad.failed == 1 and len(bad.durations) == len(ops)


def test_corrupted_enumerate_digest_counts_as_failed_op(golden, tmp_path):
    wl = make(golden, "enumerate", tmp_path)
    wl.golden["instances"][0]["sha256"] = "f" * 64
    loop = Loop(wl)
    loop.run_pass(wl.build(1, 0))
    assert loop.failed == 1


def _attributes():
    import qsecfan  # noqa: F401
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] not in ("qsecfan", "qsfbench"):
            continue
        for key, value in vars(mod).items():
            snap[(name, key)] = value
            if isinstance(value, type) and value.__module__.startswith(("qsecfan", "qsfbench")):
                for attr, member in vars(value).items():
                    snap[(name, key, attr)] = member
    return snap


def test_removing_wrappers_restores_every_attribute():
    import qsecfan.linalg
    before = _attributes()
    original = qsecfan.linalg.rref
    with Tracer() as tr:
        assert qsecfan.linalg.rref is not original
        assert sys.modules["qsecfan.fan"].rank is not before[("qsecfan.fan", "rank")]
        assert workloads.preimage_matrix is not before[("qsfbench.workloads", "preimage_matrix")]
        assert not tr.missing
    after = _attributes()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_fig5_takes_61_chamber_of_calls_for_11_chambers():
    from qsfbench.generate import reference_calibrations
    from qsecfan import enumerate_chambers
    fig5 = reference_calibrations()["fig5"]
    with Tracer() as tr:
        span = tr.begin_op()
        sf = enumerate_chambers(fig5)
        tr.end_op(span)
        enumerate_chambers(fig5)  # outside an op: not counted
    assert len(sf.chambers) == 11
    assert tr.count("secondary.chamber_of") == 61


def test_traced_counts_repeat_exactly(golden, tmp_path):
    counts = []
    for k in range(2):
        wl = make(golden, "paths", tmp_path / str(k))
        args = argparse.Namespace(seed=7, seconds=0.0, trace=1)
        _, metrics, _ = layers.traced_run(args, wl, str(tmp_path))
        counts.append({n: v["value"] for n, v in metrics.items()
                       if v["unit"] in ("calls/op", "calls/chamber", "rows/call")})
    assert counts[0] == counts[1]


def test_census_has_no_lp_calls_and_traces_its_own_linalg_calls(golden, tmp_path):
    wl = make(golden, "census", tmp_path)
    args = argparse.Namespace(seed=2, seconds=0.0, trace=1)
    _, metrics, _ = layers.traced_run(args, wl, str(tmp_path))
    assert metrics["lp.find_point_calls_per_op"]["value"] == 0
    # one preimage_matrix per calibration, called from the benchmark's op
    assert metrics["linalg.preimage_matrix_calls_per_op"]["value"] == 1 / 3
    assert metrics["linalg.self_share"]["value"] > 0


def test_census_sample_on_a_wall_counts_as_failed_op(golden, tmp_path):
    wl = make(golden, "census", tmp_path)
    ops = wl.build(4, 0)
    ci, ctx, chi, first = ops[0].data
    ops[0] = workloads.Op(ops[0].label, (ci, ctx, tuple(x * 0 for x in chi), first))
    loop = Loop(wl)
    loop.run_pass(ops)
    assert loop.failed == 1 and len(loop.durations) == len(ops)


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    with open(os.path.join(BENCH, "layer_map.json")) as fh:
        assert list(json.load(fh)["per_layer"]) == [name for name, _, _ in PER_LAYER]


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "faces", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
