"""Reference implementations kept for differential tests.

``face_dim_lp`` and ``dimension_lp`` are the face dimensions HPolytope
computed for every polytope before it read bounded ones off their
vertices: the rank of the implicit equalities that one Fourier-Motzkin
feasibility test per constraint finds.  ``normal_fan_fm`` is the
Fourier-Motzkin normal fan that qsecfan used before the vertex-based
one: one ``face_dim_lp`` probe per constraint, then ``dimension_lp`` and
``is_bounded``.  ``is_generic_lp`` is the LP-only genericity test: a
Caratheodory scan over every cone on fewer than n-d Gale rows;
``_in_cone`` is its Fourier-Motzkin membership test, which
``GaleCone.contains`` also ran.  ``cone_contains_lp`` and
``projective_certificate_lp`` are the LP cone membership and the LP
positive-spanning certificate that ``fan`` and ``projective`` used
before both were read off basis coordinates and kernels.
``hpolytope_vertices_dict`` and ``vertices_of_dict`` are the vertex
enumerations that deduplicated vertices in a dict keyed by the vertex,
the first through ``solve_unique_via_solve``, the ``solve_unique`` that
ran two eliminations.  All are copied unchanged apart from their names,
their ``self`` argument and their imports, and none but
``vertices_of_dict`` reads the facts cached on a Calibration.

``common_refinement_fm`` is the d = 3 overlay that intersected every pair
of maximal cones, each through ``cone_intersection_rays_fm``: a
Fourier-Motzkin test that the intersection has interior points, then the
kernels of facet-normal pairs; ``cone_hrep_ref`` is its facet-normal
routine.  ``to_chi_space_matvec`` is the chi-space rewrite that ran the
full matvec with P^T and certified invariance by k z == c_b; it reads
P^T as the transpose of the cached preimage matrix.

``b_space_inequality`` and ``to_chi_space`` are the two steps
``chamber_of`` ran per inequality before it read the Calibration's
cached ``chamber_forms``: the b-coefficients of the slack of j at the
vertex dual to sigma, from the cached basis inverse, then their sparse
rewrite through the rows of the cached preimage matrix, certified by
h c_b == 0.

``normal_fan_affine``, ``chamber_facets_3lp`` and ``chamber_of_is_generic``
are the rules read off simple vertices and Gale-row signs replaced: the
normal fan that ran ``affine_dim`` on the vertices of every constraint
(and on all vertices for dim P_b), the three Fourier-Motzkin systems of
``Chamber.facets`` per normal (irredundancy, a meeting with the open Gale
cone, a facet point inside it) and the ``chamber_of`` that ran
``is_generic`` and then ``normal_fan_affine``.  They are copied the same
way and read the cached facts their originals read.

``chamber_of_vertices`` is the ``chamber_of`` that the signs of the
encoded chamber forms at chi replaced: b = P chi, then ``vertices_of``
and the simplicity check on their tight sets, then the fan of those
vertices, with each inequality's form looked up by ``_chamber_form``.
Its chambers encode their inequality normals on construction, as the
forms come without codes.  It calls ``vertices_of_dict`` in place of
``vertices_of``, which now runs the chamber-code scan of ``chamber_of``
itself; both return the same list.

``gale_facet_normals_subsets`` is the Gale-cone facet enumeration that
``Calibration.gale_facet_normals`` ran before it took its candidates from
the wall normals: one kernel per (n-d-1)-subset of Gale rows.
"""

from itertools import combinations

from qsecfan import lp
from qsecfan.errors import (
    DimensionMismatchError,
    NotAdmissibleError,
    OnWallError,
    UnsupportedDimensionError,
)
from qsecfan.fan import (
    QuantumFan,
    _cols,
    _fan_of_vertices,
    combinatorial_type,
    fan_from_rays,
    normal_fan,
)
from qsecfan.linalg import (
    Matrix,
    dot,
    kernel_basis,
    is_zero_vec,
    normalize_direction,
    preimage_matrix,
    rank,
    solve,
    vadd,
    vec,
    vscale,
)
from qsecfan.polytope import HPolytope, affine_dim, vertices_of
from qsecfan.projective import ProjectiveCertificate
from qsecfan.scalar import S0, S1
from qsecfan.secondary import (
    Chamber,
    ChamberInequality,
    FacetRecord,
    degenerate_span_witnesses,
    gale_cone,
    is_admissible,
    is_generic,
)


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


def cone_contains_lp(cal, sigma, x):
    """Membership of x in Cone(h(e_i), i in sigma)."""
    gens = _cols(cal, sigma)
    xx = vec(x)
    if not gens:
        return is_zero_vec(xx)
    k = len(gens)
    cons = [lp.ge([S1 if j == i else S0 for j in range(k)], 0) for i in range(k)]
    for coord in range(cal.d):
        cons.append(lp.eq([g[coord] for g in gens], -xx[coord]))
    return lp.feasible(cons, k)


def projective_certificate_lp(cal):
    """First lexicographic (d+1)-subset whose columns positively span R^d.

    Positive spanning needs strictly positive weights and full rank;
    boundary weights would only witness a lower-dimensional or unbounded
    "simplex", which is why they are excluded here.
    """
    d, n = cal.d, cal.n
    for I in combinations(range(1, n + 1), d + 1):
        gens = [cal.column(i) for i in I]
        if rank(Matrix(gens)) != d:
            continue
        k = d + 1
        cons = [lp.gt([S1 if j == i else S0 for j in range(k)], 0) for i in range(k)]
        cons.append(lp.eq([1] * k, -1))
        for coord in range(d):
            cons.append(lp.eq([g[coord] for g in gens], 0))
        lam = lp.find_point(cons, k)
        if lam is not None:
            return ProjectiveCertificate(I, lam)
    return None


def solve_unique_via_solve(M, rhs):
    res = solve(M, rhs)
    if res is None or res[1]:
        return None
    return res[0]


def hpolytope_vertices_dict(P):
    """HPolytope.vertices: a dict keyed by the vertex, each candidate
    checked by contains and then tight_at."""
    d = P.ambient_dim
    seen = {}
    for subset in combinations(range(P.nfacets), d):
        M = Matrix([P.normals[i] for i in subset])
        x = solve_unique_via_solve(M, [-P.offsets[i] for i in subset])
        if x is None or x in seen or not P.contains(x):
            continue
        seen[x] = P.tight_at(x)
    return list(sorted(seen.items()))


def vertices_of_dict(calibration, b):
    """polytope.vertices_of: the same dict, on the cached basis inverses."""
    bb = vec(b)
    cols = calibration.columns
    seen = {}
    for J, Minv in calibration.basis_inverses.items():
        x = Minv.matvec([-bb[j] for j in J])
        if x in seen:
            continue
        slack = [dot(nr, x) + o for nr, o in zip(cols, bb)]
        if all(s.sign() >= 0 for s in slack):
            seen[x] = frozenset(i for i, s in enumerate(slack) if s.is_zero())
    return sorted(seen.items())


def common_refinement_fm(f1, f2):
    """Coarsest common refinement of two complete fans over one calibration.

    d = 2: angular merge of the ray-index union, returned as a QuantumFan.
    d = 3: pairwise full-dimensional cone intersections; the overlay can
    create rays that are no generator column (the center of a flipped
    square cone), so the result is a tuple of geometric cones, each a
    frozenset of normalized extreme-ray vectors.
    """
    if f1.calibration.columns != f2.calibration.columns:
        raise DimensionMismatchError("refinement requires one calibration")
    cal = f1.calibration
    virtual = f1.virtual & f2.virtual
    if cal.d == 2:
        return fan_from_rays(cal, set(f1.rays()) | set(f2.rays()), virtual)
    if cal.d != 3:
        raise UnsupportedDimensionError("refinement implemented for d <= 3")
    hreps2 = [cone_hrep_ref(cal, s2) for s2 in f2.max_cones]
    cones = set()
    for s1 in f1.max_cones:
        h1 = cone_hrep_ref(cal, s1)
        for h2 in hreps2:
            inter = cone_intersection_rays_fm(h1 + h2)
            if inter is not None:
                cones.add(inter)
    return tuple(sorted(cones, key=sorted))


def cone_hrep_ref(cal, sigma):
    """Facet normals w (cone = {x : <w,x> >= 0 for all w}) of a
    full-dimensional cone in d = 3."""
    gens = _cols(cal, sigma)
    normals = []
    for g1, g2 in combinations(gens, 2):
        w = (g1[1] * g2[2] - g1[2] * g2[1],
             g1[2] * g2[0] - g1[0] * g2[2],
             g1[0] * g2[1] - g1[1] * g2[0])
        if is_zero_vec(w):
            continue
        signs = {dot(w, g).sign() for g in gens}
        if 1 in signs and -1 in signs:
            continue
        if -1 in signs:
            w = vscale(-1, w)
        normals.append(normalize_direction(w))
    return sorted(set(normals))


def cone_intersection_rays_fm(normals):
    """Extreme rays of {x : <w,x> >= 0 for all normals} in d = 3 (the
    intersection of two cones given by their _cone_hrep), or None when
    it is lower-dimensional."""
    cons = [lp.ge(w, 0) for w in normals]
    if lp.find_point([lp.con(c.coeffs, c.const, lp.GT) for c in cons], 3) is None:
        return None
    # extreme rays: intersections of facet-normal pairs lying in the cone
    rays = set()
    for c1, c2 in combinations(cons, 2):
        kern = kernel_basis(Matrix([c1.coeffs, c2.coeffs]))
        if len(kern) != 1:
            continue
        for r in (kern[0], vscale(-1, kern[0])):
            if all(dot(c.coeffs, r).sign() >= 0 for c in cons):
                rays.add(normalize_direction(r))
    return frozenset(rays)


def to_chi_space_matvec(cal, c_b):
    """Rewrite c . b as z . chi, where z = P^T c_b; k z == c_b certifies
    that c . b is invariant under ker(k^T)."""
    z = cal.preimage.transpose().matvec(c_b)
    if cal.gale.matvec(z) != c_b:
        raise NotAdmissibleError("inequality is not invariant under ker(k^T)")
    return z


def b_space_inequality(cal, sigma, j):
    """Coefficients c with c . b = <x_sigma(b), h(e_j)> + b_j.

    The vertex dual to sigma is x = -M^{-1} b_sigma, where M has rows
    h(e_k), k in sigma; so <x, h(e_j)> = -y . b_sigma with y = M^{-T} h(e_j).
    """
    idx = sorted(sigma)
    Minv = cal.basis_inverses.get(tuple(i - 1 for i in idx))
    if Minv is None:
        raise NotAdmissibleError("maximal cone does not span R^d")
    hj = cal.column(j)
    c = [S0] * cal.n
    c[j - 1] = S1
    for k_pos, k_idx in enumerate(idx):
        c[k_idx - 1] = c[k_idx - 1] - dot(Minv.column(k_pos), hj)
    return tuple(c)


def to_chi_space(cal, c_b):
    """Rewrite c . b as z . chi, z = P^T c_b summed over the nonzero c_i.
    h c_b == 0 certifies invariance under ker(k^T): c_b then lies in
    im k = ker h, onto which k P^T projects, so k z == c_b."""
    z = (S0,) * (cal.n - cal.d)
    hc = (S0,) * cal.d
    for i, c in enumerate(c_b):
        if not c.is_zero():
            z = vadd(z, vscale(c, cal.preimage.rows[i]))
            hc = vadd(hc, vscale(c, cal.columns[i]))
    if not is_zero_vec(hc):
        raise NotAdmissibleError("inequality is not invariant under ker(k^T)")
    return z


def normal_fan_affine(cal, b):
    """The normal fan of P_b with its virtual generator set.

    One maximal cone per vertex, generated by the facet-cutting tight
    constraints; generators whose face has dimension below d-1 (or is
    empty) become virtual.  When the columns positively span R^d, P_b is
    the convex hull of its vertices, so the dimension of P_b and of each
    face is the affine dimension of the vertices on it.
    """
    P = HPolytope.from_parameter(cal, b)
    d = cal.d
    if not cal.positively_spanning:
        # no P_b is bounded; an empty or thin one is reported as such first
        if P.dimension() != d:
            raise NotAdmissibleError("P_b is empty or lower-dimensional")
        raise NotAdmissibleError("P_b is unbounded, its normal fan is not complete")
    verts = vertices_of(cal, P.offsets)
    if affine_dim([v for v, _ in verts]) != d:
        raise NotAdmissibleError("P_b is empty or lower-dimensional")
    facet_set = {i for i in range(cal.n)
                 if affine_dim([v for v, tight in verts if i in tight]) == d - 1}
    virtual = frozenset(i + 1 for i in range(cal.n) if i not in facet_set)
    cones = {frozenset(i + 1 for i in tight & facet_set) for _, tight in verts}
    return QuantumFan(cal, tuple(cones), virtual, complete=True)


def chamber_facets_3lp(ch):
    """Irredundant inequalities with a relative-interior facet point."""
    cal = ch.calibration
    m = cal.n - cal.d
    gc = gale_cone(cal)
    normals = ch.unique_normals()
    out = []
    for w, tags in normals:
        cons = [lp.eq(w, 0)]
        for w2, _ in normals:
            if w2 != w:
                cons.append(lp.gt(w2, 0))
        point = lp.find_point(cons, m)
        if point is None:
            continue  # redundant inequality
        # a wall must meet the open Gale cone; otherwise the facet is
        # part of the admissibility boundary
        interior_cons = cons[:1] + [lp.gt(v, 0) for v in gc.facet_normals]
        boundary = lp.find_point(interior_cons, m) is None
        if not boundary:
            # move the facet point into the open Gale cone if needed
            point = lp.find_point(cons + [lp.gt(v, 0) for v in gc.facet_normals], m) or point
        out.append(FacetRecord(w, point, boundary, tags))
    return out


def chamber_of_is_generic(cal, chi):
    """The GKZ chamber containing the generic admissible point chi."""
    cc = vec(chi)
    if not is_admissible(cal, cc):
        raise NotAdmissibleError("chi is not interior to the Gale cone")
    if not is_generic(cal, cc):
        raise OnWallError("chi lies on a degenerate-span cone",
                          degenerate_span_witnesses(cal, cc))
    b = preimage_matrix(cal).matvec(cc)
    f = normal_fan_affine(cal, b)
    ineqs = []
    cones = sorted(f.max_cones, key=sorted)
    for s1, s2 in combinations(cones, 2):
        shared = s1 & s2
        if len(shared) != cal.d - 1:
            continue
        for j in sorted(s2 - s1):
            ineqs.append(ChamberInequality(_chamber_form(cal, s1, j), "wall",
                                           (tuple(sorted(s1)), tuple(sorted(s2)), j)))
    for i in sorted(f.virtual):
        sigma = f.cone_containing(cal.column(i))
        if sigma is None:
            raise NotAdmissibleError(f"virtual generator {i} outside the fan support")
        ineqs.append(ChamberInequality(_chamber_form(cal, sigma, i), "virtual", (i,)))
    ch = Chamber(cal, tuple(ineqs), combinatorial_type(f), f.virtual, cc, f)
    if not ch.contains(cc, strict=True):
        raise OnWallError("chi sits on a chamber wall",
                          [q.normal for q in ineqs if dot(q.normal, cc).is_zero()])
    return ch


def _chamber_form(cal, sigma, j):
    """z with z . chi = <x_sigma(b), h(e_j)> + b_j, where x_sigma(b) is the
    vertex of P_b dual to the simplicial cone sigma (1-based indices)."""
    forms = cal.chamber_forms.get(tuple(sorted(i - 1 for i in sigma)))
    if forms is None:
        raise NotAdmissibleError("maximal cone does not span R^d")
    return forms[j - 1]


def chamber_of_vertices(cal, chi):
    """The GKZ chamber containing the generic admissible point chi."""
    cc = vec(chi)
    if not is_admissible(cal, cc):
        raise NotAdmissibleError("chi is not interior to the Gale cone")
    b = preimage_matrix(cal).matvec(cc)
    # with positively spanning columns chi is generic iff P_b is simple
    verts = vertices_of_dict(cal, b) if cal.positively_spanning else None
    generic = is_generic(cal, cc) if verts is None else all(len(t) == cal.d for _, t in verts)
    if not generic:
        raise OnWallError("chi lies on a degenerate-span cone",
                          degenerate_span_witnesses(cal, cc))
    f = normal_fan(cal, b) if verts is None else _fan_of_vertices(cal, verts)
    ineqs = []
    cones = sorted(f.max_cones, key=sorted)
    for s1, s2 in combinations(cones, 2):
        shared = s1 & s2
        if len(shared) != cal.d - 1:
            continue
        for j in sorted(s2 - s1):
            ineqs.append(ChamberInequality(_chamber_form(cal, s1, j), "wall",
                                           (tuple(sorted(s1)), tuple(sorted(s2)), j)))
    for i in sorted(f.virtual):
        sigma = f.cone_containing(cal.column(i))
        if sigma is None:
            raise NotAdmissibleError(f"virtual generator {i} outside the fan support")
        ineqs.append(ChamberInequality(_chamber_form(cal, sigma, i), "virtual", (i,)))
    ch = Chamber(cal, tuple(ineqs), combinatorial_type(f), f.virtual, cc, f)
    if not ch.contains(cc, strict=True):
        raise OnWallError("chi sits on a chamber wall",
                          [q.normal for q in ineqs if dot(q.normal, cc).is_zero()])
    return ch


def gale_facet_normals_subsets(cal):
    """Inward facet normals of the Gale cone, sorted, for n-d <= 3.

    Every facet contains n-d-1 independent Gale rows, so candidates are
    kernel directions of (n-d-1)-subsets, kept when all rows land on
    one side.
    """
    m = cal.n - cal.d
    if m == 0:
        return ()
    if m > 3:
        raise UnsupportedDimensionError("facet enumeration implemented for n-d <= 3")
    gens = cal.gale.rows
    normals = set()
    for sub in combinations(gens, m - 1):
        kern = kernel_basis(Matrix(sub)) if sub else \
            [tuple([S1])]  # m == 1: the only direction
        if len(kern) != 1:
            continue
        w = kern[0]
        signs = {dot(w, g).sign() for g in gens}
        if 1 in signs and -1 in signs:
            continue
        if -1 in signs:
            w = vscale(-1, w)
        normals.add(normalize_direction(w))
    return tuple(sorted(normals))
