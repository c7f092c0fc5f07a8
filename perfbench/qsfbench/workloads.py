"""The four workloads.  Each one builds the inputs of a pass from the
seed (untimed set-up), runs one op at a time (the timed part) and checks
every op's output against the golden digests recorded at the seed
commit (untimed)."""

from __future__ import annotations

import hashlib
import json
import os
from itertools import combinations

from qsecfan import Calibration, HPolytope, Scalar, VertexOracle, path_to_projective
from qsecfan import cli
from qsecfan.linalg import dot, gale_rows, preimage_matrix, vec

from .generate import arrangement_normals, census_chi, derived_rng, permutation


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(obj) -> str:
    return sha256_bytes(canonical(obj).encode())


class Op:
    """One unit of timed work: ``label`` names its input for reports."""

    __slots__ = ("label", "data")

    def __init__(self, label, data):
        self.label = label
        self.data = data


class Workload:
    """Base class; ``golden`` is this workload's section of golden.json."""

    name = ""

    def __init__(self, golden: dict, workdir: str):
        self.golden = golden
        self.workdir = workdir

    def build(self, seed: int, pass_index: int) -> list:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, result) -> tuple[bool, dict]:
        """(output matches the golden one, facts such as chambers seen)."""
        raise NotImplementedError

    def calibrations(self, ops) -> list:
        """The calibrations behind a pass, as operands for the scalar probe."""
        raise NotImplementedError


# -- enumerate -------------------------------------------------------------


class Enumerate(Workload):
    """op = one ``qsecfan chambers`` CLI call, in process, file to file.

    The instances are fixed and the seed only sets their order: a run
    holds thirteen enumerations, and relabelled copies of one
    calibration differ in cost by up to 2x, which no run this short
    could average out."""

    name = "enumerate"

    def build(self, seed, pass_index):
        rng = derived_rng(seed, pass_index, "enumerate")
        order = list(range(len(self.golden["instances"])))
        rng.shuffle(order)
        os.makedirs(self.workdir, exist_ok=True)
        ops = []
        for i in order:
            inst = self.golden["instances"][i]
            src = os.path.join(self.workdir, f"p{pass_index}-{i}-in.json")
            dst = os.path.join(self.workdir, f"p{pass_index}-{i}-out.json")
            with open(src, "w") as fh:
                json.dump({"calibration": inst["calibration"]}, fh)
            ops.append(Op(inst["name"], (i, src, dst)))
        return ops

    def run(self, op):
        _, src, dst = op.data
        return cli.main(["chambers", "--input", src, "--output", dst])

    def check(self, op, result):
        i, _, dst = op.data
        inst = self.golden["instances"][i]
        if result != 0:
            return False, {}
        with open(dst, "rb") as fh:
            data = fh.read()
        chambers = len(json.loads(data)["chambers"])
        ok = sha256_bytes(data) == inst["sha256"] and chambers == inst["chambers"]
        return ok, {"chambers": chambers}

    def calibrations(self, ops):
        return [Calibration.from_json(self.golden["instances"][op.data[0]]["calibration"])
                for op in ops]


# -- census ----------------------------------------------------------------


class CensusContext:
    """Per-calibration state; the first op of the calibration fills it."""

    __slots__ = ("cal", "normals", "oracle", "pm")

    def __init__(self, cal):
        self.cal = cal
        self.normals = self.oracle = self.pm = None


def signs(normals, chi) -> tuple:
    """Sign of chi against each arrangement hyperplane."""
    return tuple(dot(w, chi).sign() for w in normals)


def sign_string(sig) -> str:
    return "".join("+" if s > 0 else "-" if s < 0 else "0" for s in sig)


def comb_key_json(key) -> list:
    return sorted(sorted(s) for s in key)


class Census(Workload):
    """op = classify one pre-generated generic chi: its sign vector against
    the wall arrangement, then the vertex-combinatorics key of its
    preimage.  Samples on an arrangement hyperplane are dropped while the
    pass is built."""

    name = "census"
    samples_per_calibration = 450

    def build(self, seed, pass_index):
        rng = derived_rng(seed, pass_index, "census")
        per_cal = self.samples_per_calibration
        order = list(range(len(self.golden["calibrations"])))
        rng.shuffle(order)
        ops = []
        for ci in order:
            entry = self.golden["calibrations"][ci]
            ctx = CensusContext(Calibration.from_json(entry["calibration"]))
            rows = gale_rows(ctx.cal)
            normals = arrangement_normals(ctx.cal)
            generic, on_wall = [], []
            while len(generic) < per_cal and len(generic) + len(on_wall) < 2 * per_cal:
                chi = census_chi(rng, rows)
                (on_wall if 0 in signs(normals, chi) else generic).append(chi)
            # Samples on a wall are about 1 in 2000.  If a sign bug puts most
            # of them there, they run anyway and fail, so the pass keeps its size.
            chis = generic + on_wall[:per_cal - len(generic)]
            for s, chi in enumerate(chis):
                ops.append(Op(entry["name"], (ci, ctx, chi, s == 0)))
        return ops

    def run(self, op):
        _, ctx, chi, first = op.data
        if first:
            ctx.normals = arrangement_normals(ctx.cal)
            ctx.oracle = VertexOracle(ctx.cal)
            ctx.pm = preimage_matrix(ctx.cal)
        sig = signs(ctx.normals, chi)
        if 0 in sig:
            return sig, None
        return sig, ctx.oracle.comb_key(ctx.pm.matvec(chi))

    def check(self, op, result):
        ci = op.data[0]
        entry = self.golden["calibrations"][ci]
        sig, key = result
        if key is None:  # the chi of every op is generic
            return False, {}
        kd = digest(comb_key_json(key))
        cell = entry["cells"].get(sign_string(sig))
        if cell is not None:
            return cell == kd, {}
        # a cell the recording never sampled still maps to a known class
        return kd in entry["classes"], {}

    def calibrations(self, ops):
        seen = {}
        for op in ops:
            seen.setdefault(op.data[0], op.data[1].cal)
        return list(seen.values())


# -- faces -----------------------------------------------------------------


def face_report(cal, b):
    """The full face report of P_b, as criterion 1 computes it."""
    P = HPolytope.from_parameter(cal, b)
    d = cal.d
    bounded = P.is_bounded()
    dimension = P.dimension()
    verts = P.vertices()
    facets = P.facet_indices()
    candidates = {frozenset()} | {frozenset([i]) for i in facets}
    candidates |= {frozenset(t) for _, t in verts}
    if d == 3:
        candidates |= {frozenset(p) for p in combinations(sorted(facets), 2)}
    faces = {T: P.face_dim(sorted(T)) for T in candidates}
    return {"bounded": bounded, "dimension": dimension, "vertices": verts,
            "facets": facets, "faces": faces}


def canonical_face_report(report, perm=None, shift=None) -> dict:
    """The report in the original constraint order and coordinates: index
    j of the permuted instance is constraint perm[j] of the original, and
    its polytope is the original translated by -shift."""
    n_map = (lambda j: j) if perm is None else (lambda j: perm[j])
    verts = []
    for v, tight in report["vertices"]:
        if shift is not None:
            v = tuple(x + s for x, s in zip(v, shift))
        verts.append([[x.to_json() for x in v], sorted(n_map(j) for j in tight)])
    verts.sort(key=canonical)
    faces = sorted(([sorted(n_map(j) for j in T), q] for T, q in report["faces"].items()),
                   key=canonical)
    return {"bounded": report["bounded"], "dimension": report["dimension"],
            "facets": sorted(n_map(j) for j in report["facets"]),
            "vertices": verts, "faces": faces}


def duality_holds(report, d) -> bool:
    """Empty tight set: dimension d; a facet: d-1; a vertex tight set: 0."""
    faces = report["faces"]
    if not report["bounded"] or report["dimension"] != d or faces[frozenset()] != d:
        return False
    if any(faces[frozenset([i])] != d - 1 for i in report["facets"]):
        return False
    return all(faces[frozenset(t)] == 0 for _, t in report["vertices"])


class Faces(Workload):
    """op = the full face report of one bounded P_b.  Each pass relabels
    the constraints and translates the polytope by seeded amounts; the
    report, mapped back, must equal the recorded one."""

    name = "faces"

    def build(self, seed, pass_index):
        rng = derived_rng(seed, pass_index, "faces")
        order = list(range(len(self.golden["instances"])))
        rng.shuffle(order)
        ops = []
        for i in order:
            inst = self.golden["instances"][i]
            base = Calibration.from_json(inst["calibration"])
            b = vec(Scalar.from_json(x) for x in inst["b"])
            perm = permutation(rng, base.n)
            shift = vec(rng.randint(-2, 2) for _ in range(base.d))
            cols = tuple(base.columns[p] for p in perm)
            cal = Calibration(base.d, base.n, cols, frozenset())
            bb = tuple(b[p] + dot(shift, base.columns[p]) for p in perm)
            ops.append(Op(f"pool{i}", (i, cal, bb, perm, shift)))
        return ops

    def run(self, op):
        _, cal, b, _, _ = op.data
        return face_report(cal, b)

    def check(self, op, report):
        i, cal, _, perm, shift = op.data
        ok = duality_holds(report, cal.d)
        ok = ok and digest(canonical_face_report(report, perm, shift)) == \
            self.golden["instances"][i]["sha256"]
        return ok, {}

    def calibrations(self, ops):
        return [op.data[1] for op in ops]


# -- paths -----------------------------------------------------------------


class Paths(Workload):
    """op = one ``path_to_projective(cal, b)``.  The recorded instances
    come in pairs of similar cost; the seed picks one of each pair."""

    name = "paths"

    def build(self, seed, pass_index):
        rng = derived_rng(seed, pass_index, "paths")
        picks = [(pi, rng.randrange(len(pair))) for pi, pair in enumerate(self.golden["pairs"])]
        rng.shuffle(picks)
        ops = []
        for pi, k in picks:
            inst = self.golden["pairs"][pi][k]
            cal = Calibration.from_json(inst["calibration"])
            b = vec(Scalar.from_json(x) for x in inst["b"])
            ops.append(Op(f"pair{pi}#{k}", (pi, k, cal, b)))
        return ops

    def run(self, op):
        _, _, cal, b = op.data
        return path_to_projective(cal, b)

    def check(self, op, report):
        pi, k, _, _ = op.data
        ok = digest(report.to_json()) == self.golden["pairs"][pi][k]["sha256"]
        visited = 0 if report.cobordism is None else len(report.cobordism.chamber_keys)
        return ok, {"chambers": visited}

    def calibrations(self, ops):
        return [op.data[2] for op in ops]


WORKLOADS = {w.name: w for w in (Enumerate, Census, Faces, Paths)}
