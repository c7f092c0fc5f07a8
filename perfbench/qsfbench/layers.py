"""The traced run: per-layer metrics of one pass, and the scalar probe."""

from __future__ import annotations

import json
import os
import statistics
import time

from qsecfan.linalg import gale_rows

from .loop import Loop
from .metrics import PER_LAYER, metric
from .source import OUT_DIR
from .tracer import LAYERS, Tracer

PROBE_PAIRS = 2000
PROBE_ROUNDS = 5


def _operands(calibrations):
    """Rational and irrational (grouped by radicand) scalars taken from the
    calibrations' columns and Gale rows."""
    rational, irrational = [], {}
    for cal in calibrations:
        for vector in list(cal.columns) + gale_rows(cal):
            for x in vector:
                if x.is_zero():
                    continue
                if x.is_rational():
                    rational.append(x)
                else:
                    irrational.setdefault(x.m, []).append(x)
    return rational, irrational


def _pairs(values, count):
    n = len(values)
    return [(values[i % n], values[(7 * i + 3) % n]) for i in range(count)]


def _per_op_us(fn, items):
    rounds = []
    for _ in range(PROBE_ROUNDS):
        t0 = time.perf_counter()
        for item in items:
            fn(item)
        rounds.append((time.perf_counter() - t0) / len(items) * 1e6)
    return statistics.median(rounds)


def scalar_probe(calibrations) -> dict:
    """Microbenchmark of Scalar arithmetic on the workload's own operands."""
    rational, irrational = _operands(calibrations)
    rat_pairs = _pairs(rational, PROBE_PAIRS) if rational else []
    irr_pairs = []
    for group in irrational.values():
        irr_pairs += _pairs(group, max(1, PROBE_PAIRS * len(group) //
                                       sum(map(len, irrational.values()))))
    irr = [x for x, _ in irr_pairs]
    probes = {
        "scalar.mul_rat_us": (lambda p: p[0] * p[1], rat_pairs),
        "scalar.add_rat_us": (lambda p: p[0] + p[1], rat_pairs),
        "scalar.mul_irr_us": (lambda p: p[0] * p[1], irr_pairs),
        "scalar.add_irr_us": (lambda p: p[0] + p[1], irr_pairs),
        "scalar.sign_irr_us": (lambda x: x.sign(), irr),
        "scalar.inv_irr_us": (lambda x: x.inv(), irr),
    }
    return {name: (_per_op_us(fn, items) if items else 0.0)
            for name, (fn, items) in probes.items()}


def layer_metrics(tr: Tracer, loop: Loop, overhead: float, probe: dict) -> dict:
    ops = len(loop.durations)
    total = sum(loop.durations)
    chambers = sum(f.get("chambers", 0) for _, _, f, _ in loop.facts)
    self_s = tr.layer_self_seconds()
    fp_calls = tr.count("lp.find_point")
    values = dict(probe)
    values.update({
        "scalar.new_per_op": tr.scalar_inits / ops,
        "linalg.rref_calls_per_op": tr.count("linalg.rref") / ops,
        "linalg.rref_us": tr.mean_seconds("linalg.rref") * 1e6,
        "linalg.gale_transform_calls_per_op": tr.count("linalg.gale_transform") / ops,
        "linalg.preimage_matrix_calls_per_op": tr.count("linalg.preimage_matrix") / ops,
        "lp.find_point_calls_per_op": fp_calls / ops,
        "lp.find_point_us": tr.mean_seconds("lp.find_point") * 1e6,
        "lp.rows_per_call": tr.lp_rows / fp_calls if fp_calls else 0.0,
        "lp.infeasible_ratio": tr.lp_infeasible / fp_calls if fp_calls else 0.0,
        "polytope.face_dim_calls_per_op": tr.count("polytope.HPolytope.face_dim") / ops,
        "polytope.vertices_us": tr.mean_seconds("polytope.HPolytope.vertices") * 1e6,
        "polytope.comb_key_us": tr.mean_seconds("polytope.VertexOracle.comb_key") * 1e6,
        "polytope.oracle_build_ms": tr.mean_seconds("polytope.VertexOracle.__init__") * 1e3,
        "fan.normal_fan_calls_per_op": tr.count("fan.normal_fan") / ops,
        "fan.normal_fan_us": tr.mean_seconds("fan.normal_fan") * 1e6,
        "secondary.chamber_of_per_chamber":
            tr.count("secondary.chamber_of") / chambers if chambers else 0.0,
        "secondary.chamber_of_us": tr.mean_seconds("secondary.chamber_of") * 1e6,
        "secondary.is_generic_calls_per_op": tr.count("secondary.is_generic") / ops,
        "secondary.is_generic_us": tr.mean_seconds("secondary.is_generic") * 1e6,
        "secondary.gale_cone_calls_per_op": tr.count("secondary.gale_cone") / ops,
        "projective.certificate_us":
            tr.mean_seconds("projective.projective_certificate") * 1e6,
        "cli.self_ms_per_op": self_s["cli"] / ops * 1e3,
        "trace.overhead_ratio": overhead,
    })
    for layer in ("linalg", "lp", "polytope", "fan", "secondary", "projective"):
        values[f"{layer}.self_share"] = self_s[layer] / total
    return {name: metric(name, values[name]) for name, _, _ in PER_LAYER}


def traced_run(args, wl, out_dir=OUT_DIR):
    """One untraced and one traced pass over the same inputs (fresh
    objects for each), then the scalar probe.  Spans go to ``out_dir``."""
    plain = Loop(wl)
    plain.run_pass(wl.build(args.seed, 0))
    ops = wl.build(args.seed, 0)
    with Tracer() as tr:
        traced = Loop(wl, tr)
        traced.run_pass(ops)
    # Both passes run the same inputs in the same order; the median of the
    # per-op ratios ignores a host stall that hits a few ops of one pass.
    overhead = statistics.median(t / p for t, p in zip(traced.durations, plain.durations))
    probe = scalar_probe(wl.calibrations(ops))
    metrics = layer_metrics(tr, traced, overhead, probe)

    self_s = tr.layer_self_seconds()
    total = sum(traced.durations)
    lines = [f"workload {wl.name} traced: seed {args.seed}, {len(traced.durations)} ops, "
             f"{total:.2f} s traced vs {sum(plain.durations):.2f} s untraced, "
             f"{len(tr.span_fid)} spans"]
    lines.append("  self time share: " + ", ".join(
        f"{layer} {self_s[layer] / total:.3f}" for layer in LAYERS))
    if tr.missing:
        lines.append("  not traced (absent): " + ", ".join(tr.missing))
    for label, ok, facts, (chamber_of, find_point) in traced.facts:
        if "chambers" in facts and wl.name == "enumerate":
            lines.append(f"  {label}: {facts['chambers']} chambers, {chamber_of} chamber_of "
                         f"calls, {find_point} find_point calls")
    for name, _, _ in PER_LAYER:
        lines.append(f"  {name:40s} {metrics[name]['value']:.6g} {metrics[name]['unit']}")

    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{wl.name}-seed{args.seed}.json")
    dump = tr.dump()
    dump["ops"] = [{"label": label, "ok": ok, "facts": facts,
                    "chamber_of": deltas[0], "find_point": deltas[1]}
                   for label, ok, facts, deltas in traced.facts]
    with open(path, "w") as fh:
        json.dump(dump, fh)
    lines.append(f"  spans written to {path}")

    plain.durations += traced.durations
    plain.failed += traced.failed
    return plain, metrics, lines
