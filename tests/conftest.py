"""Shared fixtures: reference calibrations and random-instance helpers."""

import json
import random
from itertools import combinations
from pathlib import Path

import pytest

from qsecfan import AffinePath, Calibration, InvalidCalibrationError, Rational, Scalar
from qsecfan.linalg import dot, gale_rows, normalize_direction, preimage_of_chi, vadd, vec, vscale
from qsecfan.scalar import IntVec, _field_and_den, dot_sign, encode
from qsecfan.secondary import _chamber_inequality, is_generic

SQ2 = Scalar.sqrt(2)
S0 = Scalar(0)
S1 = Scalar(1)
GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "golden.json"


def cal_of(d, rows_as_columns, virtual=()):
    cols = tuple(tuple(Scalar.coerce(x) for x in c) for c in rows_as_columns)
    return Calibration(d, len(cols), cols, frozenset(virtual))


@pytest.fixture(scope="session")
def qex():
    """Plane configuration with two sqrt(2)-tilted columns; its parameter
    space splits into three chambers."""
    return cal_of(2, [(1, 0), (0, 1), (-SQ2, -1), (-1, -SQ2)])


@pytest.fixture(scope="session")
def qex_t1():
    """Deformation of qex where the fourth column is a scaled reflection."""
    return cal_of(2, [(1, 0), (0, 1), (-SQ2, -1),
                      (Rational(-2, 3), Rational(-2, 3) * SQ2)])


@pytest.fixture(scope="session")
def p2():
    """The projective-plane configuration: three columns summing to zero."""
    return cal_of(2, [(1, 0), (0, 1), (-1, -1)])


@pytest.fixture(scope="session")
def fig5():
    """Five columns in the plane whose secondary fan has eleven chambers."""
    return cal_of(2, [(1, 0), (0, 1), (-3, 1), (1, -3), (-2, -1)])


@pytest.fixture(scope="session")
def exc4():
    """The exceptional planar family: columns 3 and 4 are negative
    multiples of columns 1 and 2."""
    return cal_of(2, [(1, 0), (0, 1), (-2, 0), (0, -3)])


@pytest.fixture(scope="session")
def frustum():
    """d = 3 configuration over a square; its secondary fan contains a
    flipping wall (the two triangulations of the square cone)."""
    return cal_of(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (0, 0, -1)])


@pytest.fixture(scope="session")
def corank4():
    """A fixed (3, 7) configuration, n - d = 4: 76 chambers, many of them thin."""
    return cal_of(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1),
                      (1, 2, -1), (2, -1, 1), (-1, 1, 2)])


def random_calibration(rng, d, n, irrational=False, max_entry=4, geometric=False):
    """A random positively-spanning configuration: the standard basis, the
    all-minus-one column, and random nonzero extra columns."""
    cols = [[S1 if i == j else S0 for i in range(d)] for j in range(d)]
    cols.append([-S1] * d)
    while len(cols) < n:
        c = [Scalar(rng.randint(-max_entry, max_entry)) for _ in range(d)]
        if irrational and rng.random() < 0.5:
            j = rng.randrange(d)
            c[j] = c[j] + Scalar(0, rng.randint(-2, 2), 2)
        if all(x.is_zero() for x in c):
            continue
        if tuple(c) in {tuple(x) for x in cols}:
            continue
        cols.append(c)
    rng.shuffle(cols)
    try:
        cal = Calibration(d, n, tuple(tuple(c) for c in cols), frozenset())
    except Exception:
        return None
    if geometric and not cal.is_geometric():
        return None
    return cal


def unconstrained_calibration(rng, d, m, kind, irrational=False):
    """A calibration of n = d + m random nonzero columns with no spanning
    constraint, or None when the draw has rank below d.  kind "free" draws
    entries in [-3, 3]; "half" keeps every column in the closed half-space
    s * x_r >= 0, so the columns never positively span; "coloop" (d >= 2)
    puts every column but the last on the hyperplane x_r = 0, so the last
    is a coloop and its Gale row is zero."""
    r, s = rng.randrange(d), rng.choice((1, -1))
    cols = []
    while len(cols) < d + m:
        c = [Scalar(rng.randint(-3, 3)) for _ in range(d)]
        if irrational and rng.random() < 0.5:
            j = rng.randrange(d)
            c[j] = c[j] + Scalar(0, rng.choice((-1, 1)), 2)
        if kind == "half" and c[r].sign() * s < 0:
            c[r] = -c[r]
        if kind == "coloop" and len(cols) < d + m - 1:
            c[r] = S0
        if not all(x.is_zero() for x in c):
            cols.append(c)
    try:
        return Calibration(d, d + m, tuple(map(tuple, cols)), frozenset())
    except InvalidCalibrationError:
        return None


def random_generic_chi(rng, cal, tries=200):
    """A random generic interior point of the Gale cone, or None."""
    rows = gale_rows(cal)
    for _ in range(tries):
        chi = tuple([S0] * (cal.n - cal.d))
        for g in rows:
            w = Scalar(Rational(rng.randint(1, 9973), 997))
            chi = vadd(chi, vscale(w, g))
        if is_generic(cal, chi):
            return chi
    return None


def segment(cal, chi_a, chi_b):
    """The affine path from chi_a at t = -1 to chi_b at t = 1, through
    their minimum-norm preimages."""
    b_a, b_b = preimage_of_chi(cal, chi_a), preimage_of_chi(cal, chi_b)
    return AffinePath(vscale(Rational(1, 2), vadd(b_a, b_b)),
                      vscale(Rational(1, 2), vadd(b_b, vscale(-1, b_a))))


def special_points(cal, rng):
    """chi = 0, points on Gale rays, on the hyperplanes spanned by n-d-1
    rows (inside and outside their cone), and random generic points."""
    rows = gale_rows(cal)
    m = cal.n - cal.d
    pts = [tuple([S0] * m)]
    pts += [vscale(rng.randint(1, 5), r) for r in rows]
    for I in combinations(range(cal.n), max(m - 1, 1)):
        for signs in ((1, 1), (1, -1), (-1, 1)):
            chi = tuple([S0] * m)
            for i, s in zip(I, signs):
                chi = vadd(chi, vscale(s * rng.randint(1, 4), rows[i]))
            pts.append(chi)
    for _ in range(5):
        chi = random_generic_chi(rng, cal, tries=20)
        if chi is not None:
            pts.append(chi)
    return pts


def arrangement_normals(cal):
    """Normals of every hyperplane spanned by an (n-d-1)-subset of Gale
    rows.  All walls of the secondary fan lie inside these hyperplanes,
    so a sample with no zero sign is generic and its sign vector
    determines its chamber."""
    from itertools import combinations

    from qsecfan.linalg import Matrix, kernel_basis, vscale

    m = cal.n - cal.d
    rows = gale_rows(cal)
    normals, seen = [], set()
    for I in combinations(range(cal.n), m - 1):
        K = kernel_basis(Matrix([rows[i] for i in I]))
        if len(K) != 1:
            continue
        w = K[0]
        if tuple(w) in seen or tuple(vscale(-1, w)) in seen:
            continue
        seen.add(tuple(w))
        normals.append(w)
    return normals


def census_classes(cal, rng, samples):
    """Number of distinct vertex-combinatorics classes among random
    generic points, classified exactly via sign vectors and the vertex
    oracle.  Heavy-tailed weights reach thin chambers near the rays.  Each
    chi is summed in integers off the Gale rows, encoded once over their
    least common denominator L, and signed against the encoded arrangement
    normals by dot_sign; a Scalar chi is built only for a new cell."""
    from qsecfan.polytope import VertexOracle
    from qsecfan.linalg import preimage_matrix

    n, m = cal.n, cal.n - cal.d
    entries = [x for g in gale_rows(cal) for x in g]
    rows, (_, L) = encode(entries), _field_and_den(entries)
    normals = [encode(w) for w in arrangement_normals(cal)]
    oracle = VertexOracle(cal)
    pm = preimage_matrix(cal)
    cells = {}
    kept = 0
    while kept < samples:
        p, q = [0] * m, [0] * m
        for i in range(n):
            w = rng.randint(1, 99) * 10 ** rng.randint(0, 5)
            for k in range(m):
                p[k] += w * rows.p[i * m + k]
                if rows.q:
                    q[k] += w * rows.q[i * m + k]
        chi = IntVec(tuple(p), None if rows.m is None else tuple(q), rows.m)
        sig = tuple(dot_sign(w, chi) for w in normals)
        if 0 in sig:
            continue
        kept += 1
        if sig not in cells:
            point = tuple(Scalar(Rational(a, L), Rational(b, L), rows.m) for a, b in zip(p, q))
            cells[sig] = oracle.comb_key(pm.matvec(point))
    return len(set(cells.values()))


def decode(code):
    """The vector of Scalars p_i + q_i sqrt(m) an IntVec holds: a positive
    multiple of the vector it encodes."""
    if code.m is None:
        return vec(code.p)
    return tuple(Scalar(p, q, code.m) for p, q in zip(code.p, code.q))


def forms_of(cal):
    """Calibration.chamber_form at every (J, j) with [J] != 0 and j outside J,
    by J in lexicographic order and then j in increasing order."""
    return {J: {j: cal.chamber_form(J, j) for j in range(cal.n) if j not in J}
            for J, s in cal.chirotope.items() if s}


def assert_codes_fit_forms(cal):
    """The chamber inequality of each (J, j) has the chamber form as its
    normal and a code with the form's sign at each Gale row, an exact
    positive multiple of the form: equal directions after normalize_direction."""
    rows = [(g, encode(g)) for g in cal.gale.rows]
    for J, forms in forms_of(cal).items():
        for j, z in forms.items():
            q = _chamber_inequality(cal, frozenset(k + 1 for k in J), j + 1, "wall", ())
            assert q.normal == z
            assert normalize_direction(decode(q.code)) == normalize_direction(z)
            assert [dot_sign(q.code, e) for _, e in rows] == [dot(z, g).sign() for g, _ in rows]


@pytest.fixture
def calibrations_built(monkeypatch):
    """A list that gets one entry per Calibration constructed."""
    built = []
    post_init = Calibration.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Calibration, "__post_init__", counted)
    return built


def faces_pool():
    """The benchmark's 48 faces calibrations, each with its parameter b."""
    faces = json.loads(GOLDEN.read_text())["faces"]["instances"]
    assert len(faces) == 48
    return [(Calibration.from_json(inst["calibration"]), vec(Scalar.from_json(x) for x in inst["b"]))
            for inst in faces]


def random_instance(rng, d, n, irrational=False):
    """(calibration, chi, b) with chi generic interior, or None."""
    cal = random_calibration(rng, d, n, irrational=irrational)
    if cal is None:
        return None
    chi = random_generic_chi(rng, cal)
    if chi is None:
        return None
    return cal, chi, preimage_of_chi(cal, chi)


@pytest.fixture(scope="session")
def instance_pool():
    """200 random bounded admissible instances, d in {2,3}, n <= 8,
    rational and sqrt(2) entries mixed, each with a generic parameter."""
    rng = random.Random(20240817)
    pool = []
    while len(pool) < 200:
        d = rng.choice([2, 3])
        n = rng.randint(d + 2, 8)
        inst = random_instance(rng, d, n, irrational=rng.random() < 0.5)
        if inst is not None:
            pool.append(inst)
    return pool
