"""Seeded input generator owned by the benchmark.

A private copy of the random-instance logic of the test suite
(``random_calibration``, ``random_generic_chi``, the instance pool and
the census sampler), so that edits to the tests cannot shift the
benchmark's inputs.  Every function takes its ``random.Random`` from the
caller; the same seed always yields the same inputs.
"""

from __future__ import annotations

import random
from itertools import combinations

from qsecfan import Calibration, Rational, Scalar
from qsecfan.linalg import Matrix, gale_rows, kernel_basis, preimage_of_chi, vadd, vscale
from qsecfan.secondary import is_generic

S0 = Scalar(0)
S1 = Scalar(1)


def cal_of(d, columns, virtual=()):
    cols = tuple(tuple(Scalar.coerce(x) for x in c) for c in columns)
    return Calibration(d, len(cols), cols, frozenset(virtual))


def reference_calibrations() -> dict:
    """The three published reference instances, with 3, 11 and 2 chambers."""
    sq2 = Scalar.sqrt(2)
    return {
        "qex": cal_of(2, [(1, 0), (0, 1), (-sq2, -1), (-1, -sq2)]),
        "fig5": cal_of(2, [(1, 0), (0, 1), (-3, 1), (1, -3), (-2, -1)]),
        "frustum": cal_of(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (0, 0, -1)]),
    }


def random_calibration(rng, d, n, irrational=False, max_entry=4, geometric=False,
                       radicand=2):
    """A random positively-spanning configuration: the standard basis, the
    all-minus-one column, and random nonzero extra columns.  Irrational
    entries live in Q(sqrt(radicand))."""
    cols = [[S1 if i == j else S0 for i in range(d)] for j in range(d)]
    cols.append([-S1] * d)
    while len(cols) < n:
        c = [Scalar(rng.randint(-max_entry, max_entry)) for _ in range(d)]
        if irrational and rng.random() < 0.5:
            j = rng.randrange(d)
            c[j] = c[j] + Scalar(0, rng.randint(-2, 2), radicand)
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


def random_instance(rng, d, n, irrational=False, radicand=2):
    """(calibration, chi, b) with chi generic interior, or None."""
    cal = random_calibration(rng, d, n, irrational=irrational, radicand=radicand)
    if cal is None:
        return None
    chi = random_generic_chi(rng, cal)
    if chi is None:
        return None
    return cal, chi, preimage_of_chi(cal, chi)


def instance_pool(rng, size, radicands=(2,)):
    """Bounded admissible instances with d in {2,3} and n <= 8, rational
    and irrational entries mixed, each with a generic parameter."""
    pool = []
    while len(pool) < size:
        d = rng.choice([2, 3])
        n = rng.randint(d + 2, 8)
        irrational = rng.random() < 0.5
        radicand = rng.choice(radicands) if irrational else 2
        inst = random_instance(rng, d, n, irrational=irrational, radicand=radicand)
        if inst is not None:
            pool.append(inst)
    return pool


def arrangement_normals(cal):
    """Normals of every hyperplane spanned by an (n-d-1)-subset of Gale
    rows.  Every wall of the secondary fan lies in one of them, so a
    point with no zero sign is generic and its sign vector fixes its
    chamber."""
    m = cal.n - cal.d
    rows = gale_rows(cal)
    normals, seen = [], set()
    for idx in combinations(range(cal.n), m - 1):
        basis = kernel_basis(Matrix([rows[i] for i in idx]))
        if len(basis) != 1:
            continue
        w = basis[0]
        if tuple(w) in seen or tuple(vscale(-1, w)) in seen:
            continue
        seen.add(tuple(w))
        normals.append(w)
    return normals


def census_chi(rng, rows):
    """A positive combination of the Gale rows with heavy-tailed weights,
    which reaches thin chambers near the rays."""
    chi = tuple([S0] * len(rows[0]))
    for g in rows:
        w = rng.randint(1, 99) * 10 ** rng.randint(0, 5)
        chi = vadd(chi, vscale(Scalar(w), g))
    return chi


def permutation(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return p


def derived_rng(*parts) -> random.Random:
    """An independent stream for one (seed, pass, purpose) combination."""
    return random.Random("/".join(str(p) for p in parts))
