"""Names, units and directions of every reported metric."""

# (name, unit, better).  op_p50_ms, op_tail_ms and error_rate are printed
# but not gated: the op mixes have multimodal latencies, so their median
# jumps between modes from run to run, and an error rate reads 0.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

PER_LAYER = [
    ("scalar.mul_rat_us", "us", "lower"),
    ("scalar.mul_irr_us", "us", "lower"),
    ("scalar.add_rat_us", "us", "lower"),
    ("scalar.add_irr_us", "us", "lower"),
    ("scalar.sign_irr_us", "us", "lower"),
    ("scalar.inv_irr_us", "us", "lower"),
    ("scalar.new_per_op", "calls/op", "lower"),
    ("linalg.rref_calls_per_op", "calls/op", "lower"),
    ("linalg.rref_us", "us", "lower"),
    ("linalg.gale_transform_calls_per_op", "calls/op", "lower"),
    ("linalg.preimage_matrix_calls_per_op", "calls/op", "lower"),
    ("linalg.self_share", "ratio", "lower"),
    ("lp.find_point_calls_per_op", "calls/op", "lower"),
    ("lp.find_point_us", "us", "lower"),
    ("lp.rows_per_call", "rows/call", "lower"),
    ("lp.infeasible_ratio", "ratio", "lower"),
    ("lp.self_share", "ratio", "lower"),
    ("polytope.face_dim_calls_per_op", "calls/op", "lower"),
    ("polytope.vertices_us", "us", "lower"),
    ("polytope.comb_key_us", "us", "lower"),
    ("polytope.oracle_build_ms", "ms", "lower"),
    ("polytope.self_share", "ratio", "lower"),
    ("fan.normal_fan_calls_per_op", "calls/op", "lower"),
    ("fan.normal_fan_us", "us", "lower"),
    ("fan.self_share", "ratio", "lower"),
    ("secondary.chamber_of_per_chamber", "calls/chamber", "lower"),
    ("secondary.chamber_of_us", "us", "lower"),
    ("secondary.is_generic_calls_per_op", "calls/op", "lower"),
    ("secondary.is_generic_us", "us", "lower"),
    ("secondary.gale_cone_calls_per_op", "calls/op", "lower"),
    ("secondary.self_share", "ratio", "lower"),
    ("projective.certificate_us", "us", "lower"),
    ("projective.self_share", "ratio", "lower"),
    ("cli.self_ms_per_op", "ms/op", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def metric(name, value) -> dict:
    return {"value": value, "unit": UNITS[name]}
