"""Reference implementations kept for differential tests.

``face_dim_lp`` and ``dimension_lp`` are the face dimensions HPolytope
computed for every polytope before it read bounded ones off their
vertices: the rank of the implicit equalities that one Fourier-Motzkin
feasibility test per constraint finds.  ``normal_fan_fm`` is the
Fourier-Motzkin normal fan that qsecfan used before the vertex-based
one: one ``face_dim_lp`` probe per constraint, then ``dimension_lp`` and
``is_bounded``.  ``is_generic_lp`` is the LP-only genericity test: a
Caratheodory scan over every cone on fewer than n-d Gale rows.  All are
copied unchanged apart from their names, their ``self`` argument and
their imports, and none reads the facts cached on a Calibration.
"""

from itertools import combinations

from qsecfan import lp
from qsecfan.errors import NotAdmissibleError
from qsecfan.fan import QuantumFan
from qsecfan.linalg import Matrix, kernel_basis, is_zero_vec, normalize_direction, rank, vec
from qsecfan.polytope import HPolytope
from qsecfan.scalar import S0, S1


def dimension_lp(P):
    """Affine dimension, -1 for the empty set."""
    implicit = P._implicit_equalities()
    if implicit is None:
        return -1
    if not implicit:
        return P.ambient_dim
    return P.ambient_dim - rank(Matrix([P.normals[i] for i in implicit]))


def face_dim_lp(P, tight):
    """Dimension of the face where all listed constraints are tight."""
    implicit = P._implicit_equalities(tuple(tight))
    if implicit is None:
        return -1
    if not implicit:
        return P.ambient_dim
    return P.ambient_dim - rank(Matrix([P.normals[j] for j in implicit]))


def normal_fan_fm(cal, b):
    """The normal fan of P_b with its virtual generator set.

    One maximal cone per vertex, generated by the facet-cutting tight
    constraints; generators whose face has dimension below d-1 (or is
    empty) become virtual.
    """
    P = HPolytope.from_parameter(cal, b)
    d = cal.d
    fdims = [face_dim_lp(P, (i,)) for i in range(cal.n)]
    if dimension_lp(P) != d:
        raise NotAdmissibleError("P_b is empty or lower-dimensional")
    if not P.is_bounded():
        raise NotAdmissibleError("P_b is unbounded, its normal fan is not complete")
    facet_set = {i for i in range(cal.n) if fdims[i] == d - 1}
    virtual = frozenset(i + 1 for i in range(cal.n) if fdims[i] < d - 1)
    cones = set()
    for _, tight in P.vertices():
        cones.add(frozenset(i + 1 for i in tight & facet_set))
    return QuantumFan(cal, tuple(cones), virtual, complete=True)


def _in_cone(gens, x, m):
    """x in Cone(gens) inside R^m."""
    if not gens:
        return is_zero_vec(x)
    k = len(gens)
    cons = [lp.ge([S1 if j == i else S0 for j in range(k)], 0) for i in range(k)]
    for coord in range(m):
        cons.append(lp.eq([g[coord] for g in gens], -x[coord]))
    return lp.feasible(cons, k)


def _gale_rows(cal):
    """k^T(e_i) from a fresh kernel basis, not the cached Gale transform."""
    return list(Matrix.from_columns(kernel_basis(cal.matrix()), nrows=cal.n).rows)


def degenerate_span_witnesses_lp(cal, chi):
    """Normals of deficient-span generator cones containing chi."""
    rows = _gale_rows(cal)
    m = cal.n - cal.d
    cc = vec(chi)
    found = []
    for r in range(m):
        for I in combinations(range(cal.n), r):
            gens = [rows[i] for i in I]
            if not _in_cone(gens, cc, m):
                continue
            if gens:
                for w in kernel_basis(Matrix(gens)):
                    found.append(normalize_direction(w))
            else:
                found.append(tuple([S0] * m))
    return sorted(set(found))


def is_generic_lp(cal, chi):
    return not degenerate_span_witnesses_lp(cal, chi)
