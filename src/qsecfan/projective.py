"""Linkability to projective space.

A calibration is linkable when some (d+1)-subset of generator columns
positively spans R^d, i.e. the origin is interior to their convex hull;
the witnessing barycentric weights certify that some parameter b turns
P_b into a d-simplex.  For d = 2 the certified calibrations are exactly
the admissible cycle-type ones, except one explicit n = 4 family.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from .errors import (
    DegenerateInputError,
    NotAdmissibleError,
    QsecfanError,
    UnsupportedDimensionError,
)
from .fan import (
    CombinatorialType,
    combinatorial_type,
    fan_from_rays,
    is_complete,
    normal_fan,
)
from .linalg import (
    Calibration,
    Vec,
    dot,
    normalize_direction,
    vadd,
    vec,
    vscale,
    vsub,
)
from .polytope import HPolytope
from .scalar import Rational, S1, Scalar, divided
from .secondary import (
    AffinePath,
    CobordismReport,
    cobordism_from_path,
    is_admissible,
    is_generic,
)

SEGMENT_STEPS = 8  # sampled steps of a calibration segment, reported as segment_steps


@dataclass(frozen=True)
class ProjectiveCertificate:
    """Barycentric weights putting 0 inside Conv(h(e_i), i in indices)."""

    indices: tuple
    weights: tuple

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(self.indices))
        object.__setattr__(self, "weights", vec(self.weights))

    def to_json(self) -> dict:
        return {"indices": list(self.indices),
                "weights": [w.to_json() for w in self.weights]}


def projective_certificate(cal: Calibration) -> Optional[ProjectiveCertificate]:
    """First lexicographic (d+1)-subset whose columns positively span R^d.

    Positive spanning needs strictly positive weights and full rank;
    boundary weights would only witness a lower-dimensional or unbounded
    "simplex", which is why they are excluded here.  The circuit c_I spans
    the dependences of the columns I and is zero when rank < d.
    """
    for I in combinations(range(cal.n), cal.d + 1):
        if set(cal.circuit_signs(I)) in ({1}, {-1}):
            dep = cal.minor_table.circuit(I)  # L^d c_I, over its sum
            return ProjectiveCertificate(tuple(i + 1 for i in I),
                                         divided(dep, tuple(map(sum, zip(*dep))), cal.minor_table.m))
    return None


def simplex_parameter(cal: Calibration, cert: ProjectiveCertificate) -> Vec:
    """A parameter b whose polytope is the simplex cut by the certificate's
    constraints at offset 1, every other constraint strictly redundant."""
    d = cal.d
    I = set(cert.indices)
    if len(I) != d + 1 or any(w.sign() < 0 for w in cert.weights):
        raise DegenerateInputError("certificate must have d+1 nonnegative weights")
    simplex = HPolytope(d, tuple(cal.column(i) for i in sorted(I)),
                        tuple([S1] * (d + 1)))
    if simplex.dimension() != d or not simplex.is_bounded():
        raise DegenerateInputError("certificate weights cut a degenerate simplex")
    verts = [v for v, _ in simplex.vertices()]
    b = []
    for j in range(1, cal.n + 1):
        if j in I:
            b.append(S1)
        else:
            hj = cal.column(j)
            worst = max(-dot(v, hj) for v in verts)
            b.append(S1 + worst)
    return tuple(b)


def classify_dim2(cal: Calibration) -> str:
    """"projective-linkable", "exceptional-n4", or "invalid" for standard
    cycle-type calibrations in the plane."""
    if cal.d != 2:
        raise UnsupportedDimensionError("classification is specific to d = 2")
    if not cal.is_standard():
        return "invalid"
    # rays must be pairwise distinct as rays; opposite directions are fine
    dirs = {normalize_direction(c) for c in cal.columns}
    if len(dirs) != cal.n:
        return "invalid"
    try:
        f = fan_from_rays(cal, range(1, cal.n + 1))
    except NotAdmissibleError:
        return "invalid"
    if not is_complete(f):
        return "invalid"
    if cal.n == 4 and _negative_multiple(cal.column(3), cal.column(1)) \
            and _negative_multiple(cal.column(4), cal.column(2)):
        return "exceptional-n4"
    if projective_certificate(cal) is not None:
        return "projective-linkable"
    return "invalid"


def _negative_multiple(u: Vec, v: Vec) -> bool:
    """u = c v with c < 0, for nonzero u and v."""
    return normalize_direction(u) == normalize_direction(vscale(-1, v))


@dataclass
class ProjectivePathReport:
    found: bool
    already_projective: bool = False
    reason: Optional[str] = None
    target_calibration: Optional[Calibration] = None
    segment_steps: Optional[int] = None
    chi_path: Optional[AffinePath] = None
    cobordism: Optional[CobordismReport] = None
    certificate: Optional[ProjectiveCertificate] = None

    def to_json(self) -> dict:
        return {
            "found": self.found,
            "already_projective": self.already_projective,
            "reason": self.reason,
            "target_calibration": None if self.target_calibration is None
            else self.target_calibration.to_json(),
            "segment_steps": self.segment_steps,
            "chi_path": None if self.chi_path is None else self.chi_path.to_json(),
            "cobordism": None if self.cobordism is None else self.cobordism.to_json(),
            "certificate": None if self.certificate is None
            else self.certificate.to_json(),
        }


def _segment_is_validated(cal: Calibration, target: Calibration, b: Sequence) -> bool:
    """Straight-line calibration homotopy keeps the fan combinatorics of b
    at each of SEGMENT_STEPS sampled steps (and stays a valid geometric
    calibration)."""
    b = vec(b)
    try:
        ref = normal_fan(cal, b)
    except NotAdmissibleError:
        return False
    ref_key = (combinatorial_type(ref).poset, ref.virtual)
    for k in range(1, SEGMENT_STEPS + 1):
        t = Scalar(Rational(k, SEGMENT_STEPS))
        cols = [vadd(c0, vscale(t, vsub(c1, c0)))
                for c0, c1 in zip(cal.columns, target.columns)]
        try:
            ct = Calibration(cal.d, cal.n, tuple(cols), cal.virtual)
            ft = normal_fan(ct, b)
        except QsecfanError:
            return False
        if (combinatorial_type(ft).poset, ft.virtual) != ref_key:
            return False
    return True


def _perturbation_targets(cal: Calibration):
    """Deterministic small rational nudges of the non-standard columns."""
    deltas = [Rational(s, q) for q in (3, 5, 7) for s in (-1, 1, -2, 2)]
    for j in range(cal.d + 1, cal.n + 1):
        for coord in range(cal.d):
            for delta in deltas:
                cols = list(cal.columns)
                col = list(cols[j - 1])
                col[coord] = col[coord] + Scalar(delta)
                cols[j - 1] = tuple(col)
                try:
                    yield Calibration(cal.d, cal.n, tuple(cols), cal.virtual)
                except QsecfanError:
                    continue


def _chi_segment(cal: Calibration, b_from: Vec, b_to: Vec):
    beta = vscale(Rational(1, 2), vadd(b_from, b_to))
    alpha = vscale(Rational(1, 2), vsub(b_to, b_from))
    return AffinePath(beta, alpha)


def path_to_projective(cal: Calibration, b: Sequence) -> ProjectivePathReport:
    """Two-phase verified path: an optional straight-line calibration
    segment toward a certified configuration, then an affine chi-path into
    the simplex chamber.  Failing validation yields an honest not-found
    report rather than an error."""
    b = vec(b)
    f = normal_fan(cal, b)
    if not f.is_simplicial():
        raise NotAdmissibleError("starting fan must be simplicial")
    s_d = CombinatorialType.s_type(cal.d)
    if combinatorial_type(f).is_isomorphic_to(s_d):
        return ProjectivePathReport(found=True, already_projective=True)
    cert = projective_certificate(cal)
    work_cal, seg_steps = cal, None
    if cert is None:
        for target in _perturbation_targets(cal):
            cert = projective_certificate(target)
            if cert is None:
                continue
            if _segment_is_validated(cal, target, b):
                work_cal, seg_steps = target, SEGMENT_STEPS
                break
            cert = None
        if cert is None:
            return ProjectivePathReport(found=False,
                                        reason="no validated calibration segment")
    b_target = simplex_parameter(work_cal, cert)
    path = _chi_segment(work_cal, b, b_target)
    for endpoint in (path.chi(work_cal, -1), path.chi(work_cal, 1)):
        if not (is_admissible(work_cal, endpoint) and is_generic(work_cal, endpoint)):
            return ProjectivePathReport(found=False, certificate=cert,
                                        target_calibration=None if seg_steps is None else work_cal,
                                        reason="chi endpoint is not generic")
    cob = cobordism_from_path(path, work_cal)
    return ProjectivePathReport(
        found=True,
        target_calibration=None if seg_steps is None else work_cal,
        segment_steps=seg_steps,
        chi_path=path,
        cobordism=cob,
        certificate=cert,
    )
