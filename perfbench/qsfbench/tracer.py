"""Per-layer tracing from outside the package.

``Tracer`` replaces qsecfan's public functions and methods by timing
wrappers at every binding site (modules import ``rref``, ``normal_fan``
and others by name, so patching one module is not enough), and puts the
originals back on exit.  Every wrapped call made while an op runs
updates its function's call count and inclusive time; calls made while
the benchmark checks an output are not counted.  A call that enters a
different layer from its caller also records a span (function, parent
span, start, end) in memory; a layer's self time is its spans' time
minus their child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

BENCH = "bench"
LAYERS = (BENCH, "cli", "secondary", "projective", "fan", "polytope", "lp", "linalg")

# Public functions and methods traced per layer (module name = layer).
TRACED = {
    "linalg": ["dot", "rref", "rank", "det", "kernel_basis", "solve", "solve_unique",
               "integer_kernel_rank", "gale_transform", "gale_rows", "preimage_matrix",
               "preimage_of_chi", "chi_of_b", "Matrix.matvec", "Matrix.__mul__",
               "Matrix.transpose", "Calibration.__post_init__"],
    "lp": ["find_point", "feasible", "implied_equality"],
    "polytope": ["HPolytope.contains", "HPolytope.tight_at", "HPolytope.interior_point",
                 "HPolytope.is_empty", "HPolytope.dimension", "HPolytope.facet_dim",
                 "HPolytope.face_dim", "HPolytope.facet_indices", "HPolytope.vertices",
                 "HPolytope.is_bounded", "HPolytope.is_simple", "virtual_indices",
                 "VertexOracle.__init__", "VertexOracle.comb_key"],
    "fan": ["normal_fan", "is_admissible_parameter", "combinatorial_type", "star_subdivision",
            "common_refinement", "fan_from_rays", "sort_rays_by_angle", "fans_isomorphic",
            "cone_dim", "cone_is_strongly_convex", "cone_contains", "is_face", "faces_of",
            "facets_of", "is_complete", "s_variety_strata", "stabilizer_profiles",
            "validate_fan", "has_strictly_convex_support", "QuantumFan.is_simplicial",
            "QuantumFan.cone_containing"],
    "secondary": ["gale_cone", "is_admissible", "degenerate_span_witnesses", "is_generic",
                  "chamber_of", "enumerate_chambers", "cobordism_from_path", "cross_wall",
                  "classify_wall", "Chamber.facets", "Chamber.contains", "GaleCone.contains",
                  "GaleCone.interior_contains"],
    "projective": ["projective_certificate", "simplex_parameter", "classify_dim2",
                   "path_to_projective"],
    "cli": ["main"],
}

OP = "op"  # the benchmark's root span around one op


def _binding_sites():
    """qsecfan's modules and the benchmark's own, which import qsecfan
    functions by name too."""
    return {name: mod for name, mod in sys.modules.items()
            if mod is not None and name.split(".")[0] in ("qsecfan", "qsfbench")}


class Tracer:
    """Context manager: wrappers are installed on enter, removed on exit."""

    def __init__(self):
        self.names = [OP]
        self.layer_of = [LAYERS.index(BENCH)]
        self.calls = [0]
        self.incl = [0.0]
        self.depth = [0]
        self.scalar_inits = 0
        self.lp_rows = 0
        self.lp_infeasible = 0
        self.missing = []
        self.span_fid = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._span_stack = [-1]
        self._layer_stack = [LAYERS.index(BENCH)]
        self._restore = []  # (owner, attribute, original)

    # -- installation -----------------------------------------------------

    def __enter__(self):
        mods = _binding_sites()
        for layer, names in TRACED.items():
            mod = mods.get(f"qsecfan.{layer}")
            for dotted in names:
                owner_name, _, attr = dotted.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                fn = None if owner is None else vars(owner).get(attr)
                if not callable(fn):
                    self.missing.append(f"{layer}.{dotted}")
                    continue
                fid = self._register(f"{layer}.{dotted}", layer)
                hook = self._lp_hook if dotted == "find_point" else None
                wrapper = self._wrap(fn, fid, LAYERS.index(layer), hook)
                if owner_name:
                    self._replace(owner, attr, wrapper)
                else:
                    for m in mods.values():
                        for key, value in list(vars(m).items()):
                            if value is fn:
                                self._replace(m, key, wrapper)
        scalar = mods["qsecfan.scalar"].Scalar
        self._replace(scalar, "__init__", self._count_inits(scalar.__init__))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def _replace(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _register(self, name, layer):
        self.names.append(name)
        self.layer_of.append(LAYERS.index(layer))
        self.calls.append(0)
        self.incl.append(0.0)
        self.depth.append(0)
        return len(self.names) - 1

    def _lp_hook(self, args, result):
        self.lp_rows += len(args[0])
        self.lp_infeasible += result is None

    def _count_inits(self, init):
        tracer = self
        span_stack = self._span_stack

        @functools.wraps(init)
        def counted(self, *args, **kwargs):
            if len(span_stack) > 1:
                tracer.scalar_inits += 1
            return init(self, *args, **kwargs)
        return counted

    def _wrap(self, fn, fid, layer, hook):
        calls, incl, depth = self.calls, self.incl, self.depth
        span_stack, layer_stack = self._span_stack, self._layer_stack
        s_fid, s_parent = self.span_fid, self.span_parent
        s_start, s_end = self.span_start, self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if len(span_stack) == 1:  # outside every op
                return fn(*args, **kwargs)
            calls[fid] += 1
            outer = depth[fid] == 0
            depth[fid] += 1
            boundary = layer_stack[-1] != layer
            if boundary:
                idx = len(s_fid)
                s_fid.append(fid)
                s_parent.append(span_stack[-1])
                s_start.append(0.0)
                s_end.append(0.0)
                span_stack.append(idx)
                layer_stack.append(layer)
            t0 = clock()
            if boundary:
                s_start[idx] = t0
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                depth[fid] -= 1
                if outer:
                    incl[fid] += t1 - t0
                if boundary:
                    s_end[idx] = t1
                    span_stack.pop()
                    layer_stack.pop()
            if hook is not None:
                hook(args, result)
            return result
        return wrapper

    # -- op spans -----------------------------------------------------------

    def begin_op(self):
        idx = len(self.span_fid)
        self.span_fid.append(0)
        self.span_parent.append(-1)
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self._span_stack.append(idx)
        self._layer_stack.append(self.layer_of[0])
        self.calls[0] += 1
        return idx

    def end_op(self, idx):
        self.span_end[idx] = time.perf_counter()
        self._span_stack.pop()
        self._layer_stack.pop()
        self.incl[0] += self.span_end[idx] - self.span_start[idx]

    # -- results ------------------------------------------------------------

    def fid(self, name) -> int | None:
        try:
            return self.names.index(name)
        except ValueError:
            return None

    def count(self, name) -> int:
        f = self.fid(name)
        return 0 if f is None else self.calls[f]

    def mean_seconds(self, name) -> float:
        """Mean inclusive time per call; 0.0 when the function never ran."""
        f = self.fid(name)
        if f is None or self.calls[f] == 0:
            return 0.0
        return self.incl[f] / self.calls[f]

    def layer_self_seconds(self) -> dict:
        """Self time per layer: span time minus the time of child spans."""
        n = len(self.span_fid)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        out = dict.fromkeys(LAYERS, 0.0)
        for i in range(n):
            layer = LAYERS[self.layer_of[self.span_fid[i]]]
            out[layer] += self.span_end[i] - self.span_start[i] - child[i]
        return out

    def dump(self) -> dict:
        """Spans and per-function totals, for writing out after the run."""
        base = self.span_start[0] if len(self.span_start) else 0.0
        return {
            "layers": list(LAYERS),
            "functions": [{"name": n, "layer": LAYERS[lay], "calls": c, "incl_s": t}
                          for n, lay, c, t in zip(self.names, self.layer_of,
                                                  self.calls, self.incl)],
            "spans": {
                "function": list(self.span_fid),
                "parent": list(self.span_parent),
                "start_us": [round((t - base) * 1e6, 1) for t in self.span_start],
                "dur_us": [round((e - s) * 1e6, 1)
                           for s, e in zip(self.span_start, self.span_end)],
            },
            "scalar_inits": self.scalar_inits,
            "missing": self.missing,
        }
