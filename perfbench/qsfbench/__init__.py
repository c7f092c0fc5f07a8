"""Benchmark harness for qsecfan: seeded workloads, golden checks, tracing."""
