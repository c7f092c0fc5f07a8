"""Command-line surface: JSON in, JSON or SVG out.

Exit codes: 0 success, 2 invalid input, 3 infeasible or degenerate
geometry.  Diagnostics go to stderr; results go to --output or stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
from typing import Optional, Sequence

from .errors import (
    DegenerateInputError,
    DegeneratePathError,
    NotAdmissibleError,
    OnWallError,
    QsecfanError,
)
from .fan import combinatorial_type, normal_fan, stabilizer_profiles
from .linalg import Calibration, Vec, gale_rows, gale_transform, preimage_at_free, vadd, vec, vscale
from .polytope import HPolytope, basis_scan
from .projective import classify_dim2, path_to_projective, projective_certificate
from .scalar import Rational, Scalar, encode
from .secondary import (
    AffinePath,
    _chi_vec,
    chamber_of,
    cobordism_from_path,
    cross_wall,
    enumerate_chambers,
    gale_cone,
    is_generic,
)

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_DEGENERATE = 3


def _vec_from_json(xs) -> Vec:
    if type(xs) is not list:
        raise TypeError(f"a vector must be a JSON array, not {type(xs).__name__}")
    return tuple(Scalar.from_json(x) for x in xs)


def _load_document(path: Optional[str]) -> dict:
    if path is None or path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _calibration(doc: dict) -> Calibration:
    if "calibration" not in doc:
        raise KeyError("input document needs a 'calibration' object")
    return Calibration.from_json(doc["calibration"])


def _parse_path_flag(text: str) -> AffinePath:
    """--path "b1,b2,...;a1,a2,..." with rational entries."""
    try:
        beta_s, alpha_s = text.split(";")
        beta = [Scalar(Rational(v.strip())) for v in beta_s.split(",")]
        alpha = [Scalar(Rational(v.strip())) for v in alpha_s.split(",")]
    except Exception as exc:
        raise ValueError(f"malformed --path value: {exc}")
    return AffinePath(tuple(beta), tuple(alpha))


def _path_from(doc: dict, args) -> AffinePath:
    if args.path:
        return _parse_path_flag(args.path)
    if "path" in doc:
        return AffinePath(_vec_from_json(doc["path"]["beta"]),
                          _vec_from_json(doc["path"]["alpha"]))
    raise KeyError("provide --path or a 'path' object in the input")


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


_escape = json.encoder.encode_basestring_ascii


def _json_text(x, pad: str = "\n") -> str:
    """json.dumps(x, sort_keys=True, indent=2) for the documents the commands
    build (str keys; str, int, bool, None, list, tuple and dict values),
    without the pure-Python encoder json.dumps runs when indent is set.
    pad is the newline and indent of x's own line."""
    if isinstance(x, str):
        return _escape(x)
    if x is None or x is True or x is False:
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    inner = pad + "  "
    if isinstance(x, dict):
        if not x:
            return "{}"
        items = [_escape(k) + ": " + _json_text(v, inner) for k, v in sorted(x.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        return "[" + inner + ("," + inner).join([_json_text(v, inner) for v in x]) + pad + "]"
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _dump(args, payload: dict) -> None:
    _emit(args, _json_text(payload))


# -- SVG ------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


class SvgCanvas:
    """Minimal SVG 1.1 writer mapping a rational viewport to size x size pixels."""

    size = 400

    def __init__(self, xmin, ymin, xmax, ymax):
        if not (xmax > xmin and ymax > ymin):
            raise DegenerateInputError("degenerate plot viewport")
        self.xmin, self.ymin, self.xmax, self.ymax = xmin, ymin, xmax, ymax
        self.parts: list[str] = []

    def _map(self, x: float, y: float) -> tuple[float, float]:
        sx = self.size / (self.xmax - self.xmin)
        sy = self.size / (self.ymax - self.ymin)
        return (x - self.xmin) * sx, (self.ymax - y) * sy

    def line(self, p, q, dashed=False, width=1.5, color="black"):
        (x1, y1), (x2, y2) = self._map(*p), self._map(*q)
        dash = ' stroke-dasharray="6,4"' if dashed else ""
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}"'
            f' stroke="{color}" stroke-width="{_fmt(width)}"{dash} />')

    def polygon(self, pts, fill="#cfe2ff"):
        mapped = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in (self._map(*p) for p in pts))
        self.parts.append(f'<polygon points="{mapped}" fill="{fill}" stroke="black" />')

    def dot(self, p, r=4, color="crimson"):
        x, y = self._map(*p)
        self.parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{r}" fill="{color}" />')

    def render(self) -> str:
        head = ('<?xml version="1.0" encoding="UTF-8"?>\n'
                '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                f'width="{self.size}" height="{self.size}" '
                f'viewBox="0 0 {self.size} {self.size}">')
        return head + "\n" + "\n".join(self.parts) + "\n</svg>\n"


def _unit(v: Sequence[Scalar]) -> tuple[float, float]:
    x, y = float(v[0]), float(v[1])
    norm = math.hypot(x, y)
    if norm == 0:
        raise DegenerateInputError("zero direction in plot")
    return x / norm, y / norm


def _plot_polytope(cal: Calibration, b) -> str:
    P = HPolytope.from_parameter(cal, b)
    if cal.d != 2:
        raise DegenerateInputError("polytope plots need d = 2")
    if not P.is_bounded():
        raise NotAdmissibleError("P_b is unbounded, it is not the hull of its vertices")
    verts = [(float(v[0]), float(v[1])) for v, _ in P.vertices()]
    if len(verts) < 3:
        raise NotAdmissibleError("nothing to plot: fewer than 3 vertices")
    cx = sum(x for x, _ in verts) / len(verts)
    cy = sum(y for _, y in verts) / len(verts)
    verts.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
    xs = [x for x, _ in verts]
    ys = [y for _, y in verts]
    pad = 0.2 * max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
    cv = SvgCanvas(min(xs) - pad, min(ys) - pad, max(xs) + pad, max(ys) + pad)
    cv.polygon(verts)
    return cv.render()


def _plot_fan(cal: Calibration, b) -> str:
    if cal.d != 2:
        raise DegenerateInputError("fan plots need d = 2")
    f = normal_fan(cal, b)
    cv = SvgCanvas(-1.3, -1.3, 1.3, 1.3)
    for i in range(1, cal.n + 1):
        ux, uy = _unit(cal.column(i))
        dashed = i in f.virtual
        cv.line((0.0, 0.0), (ux, uy), dashed=dashed)
    return cv.render()


def _plot_secondary(cal: Calibration, mark=None) -> str:
    if cal.n - cal.d != 2:
        raise DegenerateInputError("secondary-fan plots need n - d = 2")
    if mark is not None:
        mark = _chi_vec(cal, mark)
    sf = enumerate_chambers(cal)
    cv = SvgCanvas(-1.3, -1.3, 1.3, 1.3)
    for g in gale_rows(cal):
        ux, uy = _unit(g)
        cv.line((0.0, 0.0), (ux, uy), color="#888888")
    drawn = set()
    for links in sf.adjacency.values():
        for w, _nb in links:
            # the wall is the ray where <w, chi> = 0 inside the Gale cone
            ray = (w[1], -w[0])
            for cand in (ray, tuple(-x for x in vec(ray))):
                if gale_cone(cal).contains(cand):
                    key = _unit(cand)
                    if key not in drawn:
                        drawn.add(key)
                        cv.line((0.0, 0.0), key, width=2.0)
    for ch in sf.chambers:
        cv.dot(_unit(ch.rep_point), r=3, color="#2a6")
    if mark is not None:
        cv.dot(_unit(mark))
    return cv.render()


# -- subcommands ----------------------------------------------------------


def _cmd_gale(doc, args) -> dict:
    cal = _calibration(doc)
    k = gale_transform(cal)
    gc = gale_cone(cal)
    return {
        "k_columns": [[x.to_json() for x in c] for c in k.columns()],
        "generators": [[x.to_json() for x in g] for g in gc.generators],
        "gale_cone": gc.to_json(),
    }


def _cmd_fan(doc, args) -> dict:
    cal = _calibration(doc)
    b = _vec_from_json(doc["b"])
    f = normal_fan(cal, b)
    t = combinatorial_type(f)
    return {"fan": f.to_json(), "combinatorial_type": t.to_json()}


def _cmd_chamber(doc, args) -> dict:
    cal = _calibration(doc)
    chi = _vec_from_json(doc["chi"])
    return {"chamber": chamber_of(cal, chi).to_json()}


def _cmd_chambers(doc, args) -> dict:
    if args.samples < 0:
        raise ValueError(f"--samples must be nonnegative, got {args.samples}")
    cal = _calibration(doc)
    sf = enumerate_chambers(cal)
    out = sf.to_json()
    if args.samples:
        out["sample_census"] = _sample_census(cal, sf, args.samples, args.seed)
    return out


def _sample_census(cal: Calibration, sf, samples: int, seed: int) -> dict:
    """Random generic points classified by polytope combinatorics; the
    number of distinct classes cross-checks the enumerated chamber count.
    Weights on the Gale rows span six orders of magnitude to reach thin chambers."""
    rng = random.Random(seed)
    rows = gale_rows(cal)
    keys = set()
    kept = 0
    while kept < samples:
        chi = tuple([Scalar(0)] * (cal.n - cal.d))
        for g in rows:
            w = rng.randint(1, 99) * 10 ** rng.randint(0, 5)
            chi = vadd(chi, vscale(w, g))
        if not is_generic(cal, chi):
            continue
        kept += 1
        # basis_scan keeps J when the basic point x_J lies in P_b, the same
        # J for every b with k^T b = chi: here chi at the free columns
        e = encode(preimage_at_free(cal, chi))
        keys.add(frozenset(frozenset(j + 1 for j in J) for J, _ in basis_scan(cal, e)))
    return {"samples": samples, "distinct_classes": len(keys),
            "chambers": len(sf.chambers),
            "match": len(keys) == len(sf.chambers)}


def _cmd_wall_cross(doc, args) -> dict:
    cal = _calibration(doc)
    return {"report": cross_wall(_path_from(doc, args), cal).to_json()}


def _cmd_cobordism(doc, args) -> dict:
    cal = _calibration(doc)
    return {"report": cobordism_from_path(_path_from(doc, args), cal).to_json()}


def _cmd_project_link(doc, args) -> dict:
    cal = _calibration(doc)
    cert = projective_certificate(cal)
    out = {"certificate": None if cert is None else cert.to_json()}
    if cal.d == 2 and cal.is_standard():
        out["classification"] = classify_dim2(cal)
    if "b" in doc:
        out["path"] = path_to_projective(cal, _vec_from_json(doc["b"])).to_json()
    return out


def _cmd_stabilizers(doc, args) -> dict:
    cal = _calibration(doc)
    cone = doc["cone"]
    if type(cone) is not list or any(type(i) is not int for i in cone):
        raise ValueError("cone must be a list of integer indices")
    old, new, iso = stabilizer_profiles(cal, cone)
    return {
        "cone": sorted(set(cone)),
        "profile_old": {"affine_rank": old.affine_rank, "torus_rank": old.torus_rank,
                        "lattice_rank": old.lattice_rank},
        "profile_new": {"affine_rank": new.affine_rank, "torus_rank": new.torus_rank,
                        "lattice_rank": new.lattice_rank},
        "isomorphic": iso,
    }


def _cmd_plot(doc, args) -> str:
    cal = _calibration(doc)
    kind = args.kind or doc.get("plot", {}).get("kind")
    if kind == "polytope":
        return _plot_polytope(cal, _vec_from_json(doc["b"]))
    if kind == "fan":
        return _plot_fan(cal, _vec_from_json(doc["b"]))
    if kind == "secondary":
        mark = _vec_from_json(doc["chi"]) if "chi" in doc else None
        return _plot_secondary(cal, mark)
    raise ValueError(f"unknown plot kind {kind!r}")


_COMMANDS = {
    "gale": _cmd_gale,
    "fan": _cmd_fan,
    "chamber": _cmd_chamber,
    "chambers": _cmd_chambers,
    "wall-cross": _cmd_wall_cross,
    "cobordism": _cmd_cobordism,
    "project-link": _cmd_project_link,
    "stabilizers": _cmd_stabilizers,
}

_SVG_KINDS = {"chambers": "secondary", "fan": "fan"}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qsecfan",
        description="Exact secondary fans of quantum vector configurations.")
    p.add_argument("command", choices=sorted(_COMMANDS) + ["plot"])
    p.add_argument("--input", default=None, help="input JSON document (default stdin)")
    p.add_argument("--output", default=None, help="output file (default stdout)")
    p.add_argument("--format", choices=["json", "svg"], default="json")
    p.add_argument("--path", default=None, help='affine path "b1,..,bn;a1,..,an"')
    p.add_argument("--kind", choices=["polytope", "fan", "secondary"], default=None)
    p.add_argument("--samples", type=int, default=0, help="sampling cross-check count")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of build_parser, built once per process and reused by main."""
    return build_parser()


def main(argv: Optional[list] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        doc = _load_document(args.input)
        if args.command == "plot" or args.format == "svg":
            # chambers and fan draw their own kind, the rest --kind or the document's
            args.kind = _SVG_KINDS.get(args.command, args.kind)
            _emit(args, _cmd_plot(doc, args))
            return EXIT_OK
        _dump(args, _COMMANDS[args.command](doc, args))
        return EXIT_OK
    except (NotAdmissibleError, OnWallError, DegeneratePathError,
            DegenerateInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (QsecfanError, KeyError, ValueError, TypeError,
            json.JSONDecodeError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
