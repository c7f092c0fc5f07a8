"""The closed loop that runs and checks ops."""

from __future__ import annotations

import sys
import time
import traceback

PER_OP_COUNTS = ("secondary.chamber_of", "lp.find_point")


class Loop:
    """Closed loop with a single caller: each op starts when the previous
    one has finished and been checked.  Only the op itself is timed; with
    a gauge, by its clock, and the gauge's samples taken meanwhile are
    tagged "op"."""

    def __init__(self, wl, tracer=None, gauge=None):
        self.wl = wl
        self.tracer = tracer
        self.gauge = gauge
        self.durations = []
        self.failed = 0
        self.facts = []  # per traced op: (label, ok, facts, PER_OP_COUNTS deltas)

    def _counts(self):
        return [self.tracer.count(name) for name in PER_OP_COUNTS]

    def run_pass(self, ops):
        tr, gauge = self.tracer, self.gauge
        clock = gauge.clock if gauge else time.perf_counter
        for op in ops:
            before = self._counts() if tr else None
            span = tr.begin_op() if tr else None
            if gauge:
                gauge.phase = "op"
            t0 = clock()
            try:
                result = self.wl.run(op)
            except Exception as exc:  # a failed op is counted, not fatal
                result = exc
            self.durations.append(clock() - t0)
            if gauge:
                gauge.phase = None
            if tr:
                tr.end_op(span)
            ok, facts = self._check(op, result)
            self.failed += not ok
            if tr:  # untraced runs keep no per-op record, so memory stays flat
                deltas = [b - a for a, b in zip(before, self._counts())]
                self.facts.append((op.label, ok, facts, deltas))

    def _check(self, op, result):
        if not isinstance(result, Exception):
            try:
                ok, facts = self.wl.check(op, result)
            except Exception as exc:
                result = exc
            else:
                if not ok:
                    print(f"op {op.label}: output differs from the golden one",
                          file=sys.stderr)
                return ok, facts
        print(f"op {op.label} failed: {type(result).__name__}: {result}", file=sys.stderr)
        traceback.print_exception(result, file=sys.stderr)
        return False, {}
