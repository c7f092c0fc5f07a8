"""Run one workload: set it up, run it as a closed loop with one caller,
check every output, and print the metrics.

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a traced pass.
setup_s and ops_per_s are in nominal seconds: wall time scaled by the
host's speed, which a gauge samples throughout the run (gauge.py).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import time

from . import layers
from .gauge import Gauge
from .loop import Loop
from .metrics import metric
from .source import GOLDEN, OUT_DIR
from .workloads import WORKLOADS

# The inputs are built this many times and the median build counts
# toward setup_s; the process start-up before them happens once.
SETUP_REPEATS = 3
# Gauge samples taken before the builds: the start-up's host speed.
STARTUP_SAMPLES = 8


def tail_latency(durations):
    """(percentile, value) of the highest percentile with at least ten ops
    beyond it, or None when there are too few ops for it to lie above
    the median."""
    n = len(durations)
    if n < 21:
        return None
    ordered = sorted(durations)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def measure(wl, seed, seconds, gauge):
    """Build the first pass's inputs SETUP_REPEATS times, then run whole
    passes until another pass would end past ``seconds``.  Inputs of
    later passes are built between passes, outside the op timing.  The
    gauge's samples are tagged "start-up" before the builds and ("build",
    k) during build k.  Returns the loop, the number of passes and the
    build times."""
    builds = []
    ops = None
    gauge.phase = "start-up"
    for _ in range(STARTUP_SAMPLES):
        gauge.sample()
    for k in range(SETUP_REPEATS):
        # Each build is freed before the next one, so that peak memory
        # does not depend on how many builds or passes fit in a run.
        ops = None
        gc.collect()
        gauge.phase = ("build", k)
        t0 = gauge.clock()
        ops = wl.build(seed, 0)
        builds.append(gauge.clock() - t0)
    gauge.phase = None
    loop = Loop(wl, gauge=gauge)
    start = time.perf_counter()
    pass_index = 0
    while True:
        t_pass = time.perf_counter()
        loop.run_pass(ops)
        last = time.perf_counter() - t_pass
        if time.perf_counter() - start + last > seconds:
            break
        pass_index += 1
        ops = None
        gc.collect()
        ops = wl.build(seed, pass_index)
    return loop, pass_index + 1, builds


def end_to_end(args, wl, t_ready):
    """``t_ready``: seconds from process start until qsecfan was imported
    and the golden file read.  setup_s and ops_per_s are in nominal
    seconds (see gauge.py); their wall-clock values are printed beside
    them, and the op latencies are wall-clock."""
    with Gauge() as gauge:
        loop, passes, builds = measure(wl, args.seed, args.seconds, gauge)
    setup_wall = t_ready + statistics.median(builds)
    setup_s = t_ready * gauge.speed("start-up") + statistics.median(
        b * gauge.speed(("build", k)) for k, b in enumerate(builds))
    d = loop.durations
    busy = sum(d)
    ops_per_s = len(d) / (busy * gauge.speed("op"))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": metric("setup_s", setup_s),
        "ops_per_s": metric("ops_per_s", ops_per_s),
        "peak_rss_mb": metric("peak_rss_mb", rss_mb),
    }
    tail = tail_latency(d)
    lines = [
        f"workload {wl.name}: seed {args.seed}, {len(d)} ops in {passes} pass(es), "
        f"closed loop, 1 caller, {busy:.2f} s busy; host speed {gauge.speed('op'):.3f} "
        f"of nominal in ops, {gauge.speed('start-up'):.3f} at start-up, "
        f"{len(gauge.samples)} gauge samples",
        f"  setup_s      {setup_s:.4f} s nominal, {setup_wall:.4f} s wall  (process "
        f"start-up {t_ready:.4f} s + median of {len(builds)} input builds "
        f"{statistics.median(builds):.4f} s)",
        f"  ops_per_s    {ops_per_s:.4f} 1/s nominal, {len(d) / busy:.4f} 1/s wall",
        f"  op_p50_ms    {statistics.median(d) * 1e3:.3f} ms",
        ("  op_tail_ms   n/a (fewer than 21 ops)" if tail is None else
         f"  op_tail_ms   {tail[1] * 1e3:.3f} ms  (p{tail[0]:.1f} of {len(d)} ops)"),
        f"  error_rate   {loop.failed / len(d):.4f}  ({loop.failed} of {len(d)} ops failed)",
        f"  peak_rss_mb  {rss_mb:.2f} MB",
    ]
    return loop, metrics, lines


def main(argv, t0):
    """``t0`` is the clock reading taken when the process started."""
    ap = argparse.ArgumentParser(description="qsecfan benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(GOLDEN) as fh:
        golden = json.load(fh)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    wl = WORKLOADS[args.workload](golden[args.workload], workdir)
    t_ready = time.perf_counter() - t0
    try:
        if args.trace:
            loop, metrics, lines = layers.traced_run(args, wl)
        else:
            loop, metrics, lines = end_to_end(args, wl, t_ready)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in lines:
        print(line)
    attempted = len(loop.durations)
    print(json.dumps({"correct": loop.failed == 0, "attempted": attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0
