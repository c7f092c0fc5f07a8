"""Reference implementations kept for differential tests.

``face_dim_lp`` and ``dimension_lp`` are the face dimensions HPolytope
computed for every polytope before it read bounded ones off their
vertices: the rank of the implicit equalities that one Fourier-Motzkin
feasibility test per constraint finds.  ``normal_fan_fm`` is the
Fourier-Motzkin normal fan that qsecfan used before the vertex-based
one: one ``face_dim_lp`` probe per constraint, then ``dimension_lp`` and
``is_bounded_fm``, the 2d Fourier-Motzkin recession probes that
``HPolytope.is_bounded`` ran before it read boundedness off Gale
duality.  ``degenerate_span_witnesses_lp`` is the Caratheodory scan
over every cone on fewer than n-d Gale rows that
``degenerate_span_witnesses`` ran, with ``in_cone``, before it read the
walls through chi, and ``is_generic_lp`` the LP-only genericity test,
its emptiness; ``_in_cone`` is their Fourier-Motzkin membership test,
which ``GaleCone.contains`` also ran.  ``cone_contains_lp`` and
``projective_certificate_lp`` are the LP cone membership and the LP
positive-spanning certificate that ``fan`` and ``projective`` used
before both were read off basis coordinates and kernels.
``hpolytope_vertices_dict`` and ``vertices_of_dict`` are the vertex
enumerations that deduplicated vertices in a dict keyed by the vertex,
the first through ``solve_unique_via_solve``, the ``solve_unique`` that
ran two eliminations.  All are copied unchanged apart from their names,
their ``self`` argument and their imports, and none but
``vertices_of_dict`` reads the facts cached on a Calibration.

``affine_dim``, ``vertices_of`` and ``hpolytope_vertices_slack`` (with
its ``_add_vertex``) are the routes that vertex tight sets and the signs
of lifted minors replaced: the affine dimension of a set of vertices, by
``rank``, which gave every face dimension of a bounded polytope and of
P_b in the normal fan; P_b's vertices from the ``basis_scan``, now of
b, each solved for its coordinates, which the normal fan read; and
``HPolytope``'s vertices, every candidate solved and then checked by a
Scalar slack pass.  They are copied the same way and read the cached
facts their originals read.  The two reference routes that called the
normal fan's builder with (vertex, tight set) pairs now pass the tight
sets alone.

``common_refinement_fm`` is the d = 3 overlay that intersected every pair
of maximal cones, each through ``cone_intersection_rays_fm``: a
Fourier-Motzkin test that the intersection has interior points, then the
kernels of facet-normal pairs; ``cone_hrep_ref`` is its facet-normal
routine.  ``to_chi_space_matvec`` is the chi-space rewrite that ran the
full matvec with P^T and certified invariance by k z == c_b; it reads
P^T as the transpose of the cached preimage matrix.

``b_space_inequality`` and ``to_chi_space`` are the two steps
``chamber_of`` ran per inequality before it read the Calibration's
chamber forms: the b-coefficients of the slack of j at the
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
``vertices_of``, which now runs the ``basis_scan`` of ``chamber_of``
itself; both return the same list.

``gale_facet_normals_subsets`` is the Gale-cone facet enumeration that
``Calibration.gale_facet_normals`` ran before it took its candidates from
the wall normals: one kernel per (n-d-1)-subset of Gale rows, and the
candidate (1,) for the empty subset when n-d = 1.  Unlike the original
it runs for every n-d, as the rule it checks does.

``basis_inverses_rref``, ``chamber_forms_preimage``,
``positively_spanning_fm``, ``wall_normals_kernel`` and
``cone_contains_dot`` are the routes that exact minors and sign codes
replaced: one rref inverse per d-subset, the chamber forms pushed through
the preimage matrix P = k (k^T k)^{-1}, the Fourier-Motzkin recession
probes of ``is_bounded_fm`` on the columns, one kernel per
(n-d-1)-subset of Gale rows (with the facet scan's (1,) for n-d = 1),
and cone membership by Scalar ``dot`` against the inverse columns.  They
read no cached fact but the Gale transform, and P and ``basis_inverses``
(``chamber_forms_preimage`` and ``cone_contains_dot``, as their originals
did).  ``sample_census_oracle`` is the ``chambers
--samples`` census that classified each sample by
``VertexOracle.comb_key`` at b = P chi; it draws the same heavy-tailed
weights as ``cli._sample_census``.

``chamber_forms_cramer`` is the Scalar table ``Calibration.chamber_forms``
that the bracket-coded ``chamber_codes`` and the per-inequality
``Calibration.chamber_form`` replaced: every z(J, j) by Cramer's rule,
each certified by h c = 0 as the table was built.

``positively_spanning_gale`` and ``cone_intersection_rays_cross`` are the
routes that ``linalg.facet_normals`` and the bracket rule of
``Calibration.positively_spanning`` replaced: positive spanning as a
pointed Gale cone (no zero Gale row, facet normals of full rank) for
n-d <= 3 and one Fourier-Motzkin feasibility test of the strict Gale rows
beyond, which reads the cached Gale transform and Gale facet normals;
and the d = 3 cone intersection that kept each cross product of two
normals, and its negative, with every normal on one side of it.

``facet_indices_probe``, ``virtual_indices_probe`` and
``is_bounded_rank`` are the routes that the facts a P_b already holds
replaced: one ``facet_dim`` probe per constraint for the facets and
again for the virtual generators, and boundedness from a second
Calibration of the nonzero normals, after a rank test and a d = 0
branch, even when P_b came from a calibration that knew the answer.

``collinear_positive_dot``, ``negative_multiple_minors`` and
``cone_is_strongly_convex_lp`` are the second tests of three primitives
that ``normalize_direction`` and cone membership replaced: "same ray"
by equal directions and a positive dot (``fan._collinear_positive``),
"opposite ray" by every 2x2 minor and a negative dot
(``projective._negative_multiple``), and pointedness as one
Fourier-Motzkin feasibility test of <w, h(e_i)> > 0 over the generators
(``fan.cone_is_strongly_convex``).

``star_subdivision_facets``, ``common_refinement_pairs``,
``refines_dot`` and ``classify_crossing_ref`` are the wall-crossing
checks that the signs of the inverse codes and the hyperplane normals of
the calibration replaced: the star subdivision that tested every facet
of every cone holding the new ray, the d = 3 overlay that intersected
the facet normals (from cross products, by ``cone_hrep_ref``) of every
cone, common ones included, the refinement test that encoded a ray once
per coarse cone, and the crossing classification built on them, with
the on-wall fan from ``vertices_of_dict``.  Cone membership goes through
``cone_contains_dot`` and the simplicial test through ``rank``.

``tiles_circle`` (with its ``_sector_bounds``) and ``facets_paired`` are
the two completeness rules that the degree-one rule of ``is_complete``
replaced: at d = 2 the angular sectors chained end to start around the
origin, at d = 3 every facet, keyed by its generator directions, lying
in exactly two maximal cones.  ``intersections_are_faces_lp`` is the
check ``validate_fan`` ran before one separating-hyperplane LP per pair
of cones: two ``is_face`` LPs on the index set s1 & s2.

``chamber_form_brackets`` (with ``_circuit_brackets``),
``chamber_codes_brackets``, ``wall_normals_cofactor``,
``lifted_sign_brackets``, ``projective_certificate_brackets`` and
``positively_spanning_sides`` are the routes that each built its own
circuits before all were read off ``Calibration.circuits``: the chamber
forms and codes from the brackets of each (J, j), d + 1 per circuit; the
wall normals as Scalar cofactor minors of n-d-1 Gale rows; the lifted
minor D(S) from the bracket codes at S - S_t; the certificate's
dependence written out from the brackets; and positive spanning as a
scan of the sides of every d-1 columns.  They are copied the same way,
and read ``encode(brackets)`` where their originals read the cached
``bracket_code``.

``brackets_laplace``, ``hyperplane_normals_cofactor`` and
``basic_point_normals`` are the Scalar routes that the integer minor
table of ``Calibration.minor_table`` replaced: every bracket by
``minor`` (Laplace expansion, recursive beyond size 3), every
hyperplane normal by ``cofactor_normal``, and ``polytope._basic_point``
as a chain of Scalar products and sums over the hyperplane normals,
scaled by -1/[J].  The reference ``vertices_of`` and
``hpolytope_vertices_slack`` solve through ``basic_point_normals``, so
a mixed-radical error they raise is the Scalar route's own.

``classify_wall_stepping`` (with ``_wall_from_rays`` and
``_wall_circuit``) is the wall rule that reading a facet's tags
and ``Calibration.circuits`` replaced: it stepped across the facet to
the neighbour chamber, called the wall divisorial at the least ray of
the two fans that only one side has, and otherwise flipping with the
``kernel_basis`` dependence of the first non-simplicial cone of the
on-wall fan, the side triangulating the current fan listed first.
``classify_crossing_ref`` reads its wall the same way.

``minor`` and ``cofactor_normal`` are the Scalar Laplace engine that
``linalg`` kept beside the minor table for ``det``, the planar turns of
``angular_compare`` and ``fan_from_rays`` and the cofactor normals of
``_cone_intersection_rays``, until each read the table or one
``dot_sign``.  ``basis_scan_chi`` is the vertex test ``basis_scan`` ran
in chi-space, over the per-calibration table ``chamber_codes`` of the
sign([J]) (-1)^p codes of (c_S)_F, before it signed each c_S against b
itself; it takes that table as ``chamber_codes_brackets`` builds it.

``circuit_table_scalar`` is ``Calibration.circuits`` before it held only
integer codes: the Scalar entries of every c_S, the signed Scalar
brackets, beside codes read off ``encode(brackets)`` by sign flips.
``positively_spanning_circuits`` is the total-cyclicity scan that read
the signs of that table, before it read the chirotope.

``fm_find_point`` is the Fourier-Motzkin elimination ``lp.find_point``
ran on Scalar constraints (``scalar_con``) before it eliminated over
primitive integer rows: it divided by a Scalar at every pairing and
merged no rows.  ``scalar_constraint`` writes an ``lp.Constraint`` with
the Scalars of its code, a positive multiple of its (const, coeffs);
``evaluate`` and ``satisfies`` read a constraint at a point.
"""

import random
from collections import Counter
from itertools import combinations
from typing import NamedTuple, Optional

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
    _cone_intersection_rays,
    _fan_of_vertices,
    combinatorial_type,
    facets_of,
    fan_from_rays,
    is_face,
    normal_fan,
)
from qsecfan.linalg import (
    Calibration,
    Matrix,
    dot,
    gale_rows,
    in_cone,
    inverse,
    kernel_basis,
    is_zero_vec,
    normalize_direction,
    preimage_at_free,
    preimage_matrix,
    vsub,
    rank,
    solve,
    vadd,
    vec,
    vscale,
)
from qsecfan.polytope import HPolytope, VertexOracle, basis_scan
from qsecfan.projective import ProjectiveCertificate
from qsecfan.scalar import S0, S1, IntVec, Scalar, dot_sign, encode
from qsecfan.secondary import (
    Chamber,
    ChamberInequality,
    FacetRecord,
    Wall,
    WallCrossingReport,
    _step_beyond,
    degenerate_span_witnesses,
    gale_cone,
    is_admissible,
    is_generic,
)

from conftest import decode


def _bracket_index(cal):
    """The position of [K] in cal.brackets, by 0-based d-subset K: the
    Calibration.bracket_index the routes below read."""
    return {K: t for t, K in enumerate(combinations(range(cal.n), cal.d))}


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
    if not is_bounded_fm(P):
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


def affine_dim(points):
    """Dimension of the affine hull of the points, -1 for none."""
    if len(points) < 2:
        return len(points) - 1
    return rank(Matrix([vsub(p, points[0]) for p in points[1:]]))


def vertices_of(calibration, b):
    """HPolytope.from_parameter(calibration, b).vertices(), read off the
    basis_scan of b; a kept J is solved only when its vertex is
    not yet known, as its basic_point_normals."""
    bb = vec(b)
    if len(bb) != calibration.n:
        raise DimensionMismatchError("parameter length differs from n")
    at, brackets = _bracket_index(calibration), calibration.brackets
    found = []
    for J, tight in basis_scan(calibration, encode(bb)):
        if not any(t.issuperset(J) for _, t in found):
            found.append((basic_point_normals(calibration, J, brackets[at[J]], bb), frozenset(tight)))
    return sorted(found)


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


def hpolytope_vertices_slack(P):
    """HPolytope._vertices: every candidate J solved as its basic_point_normals,
    then kept by a Scalar slack pass over every constraint."""
    cal, found = P._calibration, []
    if cal is None:
        return ()
    nonzero = [i for i, nr in enumerate(P.normals) if not is_zero_vec(nr)]
    offsets = [P.offsets[i] for i in nonzero]
    for J, bracket in zip(combinations(range(len(nonzero)), P.ambient_dim), cal.brackets):
        if not (bracket.is_zero() or any(t.issuperset([nonzero[j] for j in J]) for _, t in found)):
            _add_vertex(found, basic_point_normals(cal, J, bracket, offsets), P.normals, P.offsets)
    return tuple(sorted(found))


def _add_vertex(found, x, normals, offsets):
    """Append (x, tight set) to found when x satisfies every constraint;
    one slack pass that stops at the first negative slack."""
    tight = []
    for i, (nr, o) in enumerate(zip(normals, offsets)):
        sign = (dot(nr, x) + o).sign()
        if sign < 0:
            return
        if sign == 0:
            tight.append(i)
    found.append((x, frozenset(tight)))


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
    if lp.find_point([lp.gt(w, 0) for w in normals], 3) is None:
        return None
    # extreme rays: intersections of facet-normal pairs lying in the cone
    rays = set()
    for w1, w2 in combinations(normals, 2):
        kern = kernel_basis(Matrix([w1, w2]))
        if len(kern) != 1:
            continue
        for r in (kern[0], vscale(-1, kern[0])):
            if all(dot(w, r).sign() >= 0 for w in normals):
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
    J = tuple(sorted(i - 1 for i in sigma))
    if J not in cal.basis_inverses:
        raise NotAdmissibleError("maximal cone does not span R^d")
    return cal.chamber_form(J, j - 1)


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
    f = normal_fan(cal, b) if verts is None else _fan_of_vertices(cal, [t for _, t in verts])
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
    """Inward facet normals of the Gale cone, sorted.

    Every facet contains n-d-1 independent Gale rows, so candidates are
    kernel directions of (n-d-1)-subsets, kept when all rows land on
    one side.
    """
    m = cal.n - cal.d
    if m == 0:
        return ()
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


def basis_inverses_rref(cal):
    """M_J^{-1} for every 0-based d-subset J (in lexicographic order)
    whose columns are independent, where M_J has rows h(e_j), j in J."""
    out = {}
    for J in combinations(range(cal.n), cal.d):
        inv = inverse(Matrix([cal.columns[j] for j in J]))
        if inv is not None:
            out[J] = inv
    return out


def chamber_forms_preimage(cal):
    """z(J, j) = P_j - sum_k y_k P_{J_k} with y = M_J^{-T} h(e_j), by J in
    basis_inverses and then by j outside J in increasing order; the
    b-coefficients c satisfy h c = h(e_j) - M_J^T y = 0, checked per entry."""
    P, m, out = preimage_matrix(cal).rows, cal.n - cal.d, {}
    for J, Minv in cal.basis_inverses.items():
        Minv_t = Minv.transpose()
        PJ = Matrix.from_columns([P[k] for k in J], nrows=m)
        HJ = Matrix.from_columns([cal.columns[k] for k in J], nrows=cal.d)
        ys = {j: Minv_t.matvec(h) for j, h in enumerate(cal.columns) if j not in J}
        if any(HJ.matvec(y) != cal.columns[j] for j, y in ys.items()):
            raise NotAdmissibleError("inequality is not invariant under ker(k^T)")
        out[J] = {j: vsub(P[j], PJ.matvec(y)) for j, y in ys.items()}
    return out


def chamber_forms_cramer(cal):
    """z(J, j), by J in basis_inverses and then by j outside J in increasing
    order: the circuit c = e_j - sum_k y_k e_{J_k} read at the free columns F,
    with y = M_J^{-T} h(e_j), y_k = [J with J_k -> j] / [J] by Cramer's rule.
    h c = 0 is checked per entry, so c = k c_F and z . k^T b = c . b."""
    d, F, out = cal.d, cal.free_columns, {}
    bracket = dict(zip(combinations(range(cal.n), d), cal.brackets))
    for J in cal.basis_inverses:
        scale = bracket[J].inv()
        HJ = Matrix.from_columns([cal.columns[k] for k in J], nrows=d)
        forms = {}
        for j in (j for j in range(cal.n) if j not in J):
            y = []
            for k in range(d):
                rest = J[:k] + J[k + 1:]
                p = sum(i < j for i in rest)  # j sorts into place p
                yk = scale * bracket[rest[:p] + (j,) + rest[p:]]
                y.append(-yk if (k - p) % 2 else yk)
            if HJ.matvec(y) != cal.columns[j]:
                raise NotAdmissibleError("inequality is not invariant under ker(k^T)")
            forms[j] = tuple(S1 if f == j else -y[J.index(f)] if f in J else S0 for f in F)
        out[J] = forms
    return out


def is_bounded_fm(P):
    """True when the recession cone {x : <x, normal_i> >= 0} is {0}."""
    rows = [lp.ge(nr, 0) for nr in P.normals]
    d = P.ambient_dim
    unit = [0] * d
    for j in range(d):
        for s in (1, -1):
            unit[j] = s  # probe s * x_j = 1
            if lp.feasible(rows + [lp.eq(unit, -1)], d):
                return False
        unit[j] = 0
    return True


def positively_spanning_fm(cal):
    """The columns positively span R^d: the recession cone
    {x : <x, h(e_i)> >= 0} of every P_b is {0}."""
    return is_bounded_fm(HPolytope(cal.d, cal.columns, (S0,) * cal.n))


def positively_spanning_gale(cal):
    """The columns positively span R^d, so every P_b is bounded: some
    w has g . w > 0 for every Gale row g (k w > 0 lies in ker h).  For
    n-d <= 3: no Gale row is zero and the Gale cone is pointed, its
    facet normals spanning R^(n-d); beyond, one feasibility test."""
    m = cal.n - cal.d
    if m > 3:
        return lp.feasible([lp.gt(g) for g in cal.gale.rows], m)
    return (m >= 1 and not any(is_zero_vec(g) for g in cal.gale.rows)
            and rank(Matrix(cal.gale_facet_normals)) == m)


def _cross3(u, v):
    """u x v, which spans the kernel of the rows u, v when it is nonzero."""
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def cone_intersection_rays_cross(normals):
    """Extreme rays of {x : <w,x> >= 0 for all normals} in d = 3 (the
    intersection of two cones given by their _cone_hrep), or None when
    it is lower-dimensional: the cones are pointed, so their intersection
    is too, and it is full-dimensional exactly when its rays span R^3."""
    codes = [encode(w) for w in normals]
    rays = set()
    for w1, w2 in combinations(normals, 2):
        r = _cross3(w1, w2)
        if is_zero_vec(r):
            continue
        e = encode(r)
        signs = {dot_sign(c, e) for c in codes}
        if -1 not in signs:
            rays.add(normalize_direction(r))
        if 1 not in signs:
            rays.add(normalize_direction(vscale(-1, r)))
    if len(rays) < 3 or rank(Matrix(list(rays))) < 3:
        return None
    return frozenset(rays)


def wall_normals_kernel(cal):
    """One normal per hyperplane spanned by n-d-1 Gale rows; for n-d = 1
    the normal (1,) of the hyperplane {0}, as in gale_facet_normals_subsets."""
    m = cal.n - cal.d
    if m == 0:
        return ()
    normals, seen = [], set()
    for sub in combinations(cal.gale.rows, m - 1):
        kern = kernel_basis(Matrix(sub)) if sub else [tuple([S1])]
        if len(kern) != 1:
            continue
        w = normalize_direction(kern[0])
        if w not in seen:
            seen.add(w)
            normals.append(w)
    return tuple(normals)


def cone_contains_dot(cal, sigma, x):
    """Membership of x in Cone(h(e_i), i in sigma), by the rule of in_cone."""
    xx = vec(x)
    if len(xx) != cal.d:
        raise DimensionMismatchError(f"vector of length {len(xx)} in a cone of R^{cal.d}")
    inverses = cal.basis_inverses
    spans = False
    for J in combinations(sorted(i - 1 for i in sigma), cal.d):
        Minv = inverses.get(J)
        if Minv is None:
            continue
        spans = True
        if all(dot(Minv.column(k), xx).sign() >= 0 for k in range(cal.d)):
            return True
    return False if spans else in_cone(_cols(cal, sigma), xx)


def sample_census_oracle(cal, sf, samples, seed):
    """Random generic points classified by polytope combinatorics; the
    number of distinct classes cross-checks the enumerated chamber count."""
    rng = random.Random(seed)
    rows = gale_rows(cal)
    oracle = VertexOracle(cal)
    pm = preimage_matrix(cal)
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
        keys.add(oracle.comb_key(pm.matvec(chi)))
    return {"samples": samples, "distinct_classes": len(keys),
            "chambers": len(sf.chambers),
            "match": len(keys) == len(sf.chambers)}


def facet_indices_probe(P):
    d = P.ambient_dim
    return [i for i in range(P.nfacets) if P.facet_dim(i) == d - 1]


def virtual_indices_probe(calibration, b):
    """1-based generators whose constraint does not cut a facet of P_b."""
    P = HPolytope.from_parameter(calibration, b)
    d = calibration.d
    return frozenset(i + 1 for i in range(calibration.n) if P.facet_dim(i) < d - 1)


def is_bounded_rank(P):
    d = P.ambient_dim
    if d == 0:
        return True
    normals = tuple(nr for nr in P.normals if not is_zero_vec(nr))
    if rank(Matrix(normals)) < d:
        return False  # a line lies in the recession cone
    return Calibration(d, len(normals), normals).positively_spanning


def collinear_positive_dot(u, v):
    return normalize_direction(u) == normalize_direction(v) and dot(u, v).sign() > 0


def negative_multiple_minors(u, v):
    """u = c v with c < 0."""
    cross_ok = all(
        (u[i] * v[j] - u[j] * v[i]).is_zero()
        for i in range(len(u)) for j in range(i + 1, len(u))
    )
    return cross_ok and dot(u, v).sign() < 0


def cone_is_strongly_convex_lp(cal, sigma):
    """Exact test: some w has <w, h(e_i)> > 0 for every generator of sigma."""
    if not sigma:
        return True
    cons = [lp.gt(cal.column(i), 0) for i in sorted(sigma)]
    return lp.feasible(cons, cal.d)


def star_subdivision_facets(f, i):
    """Insert the ray h(e_i): cones containing it are replaced by the joins
    of i with their i-free facets; i leaves the virtual set."""
    cal = f.calibration
    v = cal.column(i)
    if not any(cone_contains_dot(cal, s, v) for s in f.max_cones):
        raise NotAdmissibleError(f"h(e_{i}) lies outside the fan support")
    for j in f.rays():
        if collinear_positive_dot(cal.column(j), v):
            # the ray is already present: nothing to subdivide
            return QuantumFan(cal, f.max_cones, f.virtual - {i}, f.complete)
    new_cones = []
    for sigma in f.max_cones:
        if not cone_contains_dot(cal, sigma, v):
            new_cones.append(sigma)
            continue
        for tau in facets_of(cal, sigma):
            if not cone_contains_dot(cal, tau, v):
                new_cones.append(frozenset(tau) | {i})
    return QuantumFan(cal, tuple(new_cones), f.virtual - {i}, f.complete)


def common_refinement_pairs(f1, f2):
    """Coarsest common refinement of two complete fans over one calibration:
    for d = 3 the cones common to both fans through the intersection of
    their own facet normals, plus the full-dimensional intersections of
    the cones that differ."""
    if f1.calibration.columns != f2.calibration.columns:
        raise DimensionMismatchError("refinement requires one calibration")
    cal = f1.calibration
    virtual = f1.virtual & f2.virtual
    if cal.d == 2:
        return fan_from_rays(cal, set(f1.rays()) | set(f2.rays()), virtual)
    if cal.d != 3:
        raise UnsupportedDimensionError("refinement implemented for d <= 3")
    common = set(f1.max_cones) & set(f2.max_cones)
    cones = {_cone_intersection_rays(cone_hrep_ref(cal, s)) for s in common}
    hreps2 = [cone_hrep_ref(cal, s2) for s2 in f2.max_cones if s2 not in common]
    for s1 in set(f1.max_cones) - common:
        h1 = cone_hrep_ref(cal, s1)
        for h2 in hreps2:
            inter = _cone_intersection_rays(h1 + h2)
            if inter is not None:
                cones.add(inter)
    return tuple(sorted(cones, key=sorted))


def refines_dot(cal, fine, coarse):
    """Every cone of fine sits inside a maximal cone of coarse."""
    if isinstance(fine, QuantumFan):
        fine = ([cal.column(i) for i in s] for s in fine.max_cones)
    return all(any(all(cone_contains_dot(cal, t, r) for r in rays) for t in coarse.max_cones)
               for rays in fine)


def _wall_circuit(cal, f0, f_minus):
    """Signed circuit of the first non-simplicial on-wall cone, with the
    side triangulating f_minus listed first."""
    idx = None
    for tau in sorted(f0.max_cones, key=sorted):
        if len(tau) > cal.d:
            idx = sorted(tau)
            break
    if idx is None:
        return None
    # dependence among the generators of tau
    kern = kernel_basis(Matrix.from_columns([cal.column(i) for i in idx], nrows=cal.d))
    if not kern:
        return None
    lam = kern[0]
    plus = frozenset(idx[p] for p, v in enumerate(lam) if v.sign() > 0)
    minus = frozenset(idx[p] for p, v in enumerate(lam) if v.sign() < 0)
    cones_minus = set(f_minus.max_cones)
    tau_set = frozenset(idx)
    if all((tau_set - {i}) in cones_minus for i in plus):
        return plus, minus
    return minus, plus


def _wall_from_rays(cal, normal, f0, f_minus, f_plus):
    """Flipping when both sides have the same rays, with the circuit of the
    on-wall fan f0; else divisorial at the least ray only one side has."""
    rays_minus, rays_plus = set(f_minus.rays()), set(f_plus.rays())
    if rays_minus == rays_plus:
        return Wall(normal, "flipping", circuit=_wall_circuit(cal, f0, f_minus))
    return Wall(normal, "divisorial", virtual_index=min(rays_minus ^ rays_plus))


def classify_wall_stepping(ch, facet):
    """The wall of a chamber facet found by stepping across it to the
    neighbour chamber and comparing the two fans and the on-wall fan."""
    if facet.boundary:
        return Wall(facet.normal, "boundary")
    cal = ch.calibration
    nch = _step_beyond(cal, ch, facet)
    f0 = normal_fan(cal, preimage_at_free(cal, facet.point))
    return _wall_from_rays(cal, facet.normal, f0, ch.fan, nch.fan)


def classify_crossing_ref(cal, normal, chi_star, f_minus, f_plus, t_star):
    """The report of the crossing of the wall with this normal at chi_star."""
    b = preimage_at_free(cal, chi_star)
    if not cal.positively_spanning:
        raise NotAdmissibleError("P_b is unbounded, its normal fan is not complete")
    f0 = _fan_of_vertices(cal, [t for _, t in vertices_of_dict(cal, b)])
    rays_minus, rays_plus = set(f_minus.rays()), set(f_plus.rays())
    wall = _wall_from_rays(cal, normal, f0, f_minus, f_plus)
    checks = {}
    if wall.type == "flipping":
        checks["rays_equal"] = True
        checks["on_wall_non_simplicial"] = not all(
            len(s) == rank(Matrix(_cols(cal, s))) for s in f0.max_cones)
        checks["sides_refine_on_wall"] = refines_dot(cal, f_minus, f0) and \
            refines_dot(cal, f_plus, f0)
        if cal.d <= 3:
            checks["refinement_inside_on_wall"] = refines_dot(
                cal, common_refinement_pairs(f_minus, f_plus), f0)
        index = None
        if wall.circuit is not None:
            index = (len(wall.circuit[0]), len(wall.circuit[1]))
    else:
        toggled = rays_minus ^ rays_plus
        i = wall.virtual_index
        checks["single_ray_toggled"] = len(toggled) == 1
        if i in rays_plus:
            index = (1, cal.d)
            sub = star_subdivision_facets(f_minus, i)
            checks["star_subdivision"] = set(sub.max_cones) == set(f_plus.max_cones) \
                and sub.virtual == f_plus.virtual
        else:
            index = (cal.d, 1)
            sub = star_subdivision_facets(f_plus, i)
            checks["star_subdivision"] = set(sub.max_cones) == set(f_minus.max_cones) \
                and sub.virtual == f_minus.virtual
    return WallCrossingReport(t_star, wall, f_minus, f0, f_plus, index, checks)


def _sector_bounds(cal, sigma):
    """Extreme rays (a, b) of a planar cone, oriented so the cone sweeps
    counterclockwise from a to b; None when the cone is not a proper sector."""
    gens = [normalize_direction(cal.column(i)) for i in sorted(sigma)]
    for a in gens:
        for b in gens:
            if minor((a, b)).sign() <= 0:
                continue
            if all(minor((a, g)).sign() >= 0 and minor((g, b)).sign() >= 0 for g in gens):
                return a, b
    return None


def tiles_circle(cal, f):
    """Planar completeness: the sectors chain end-to-start around 0."""
    sectors = {}
    for sigma in f.max_cones:
        bounds = _sector_bounds(cal, sigma)
        if bounds is None:
            return False
        u, v = bounds
        if u in sectors:
            return False
        sectors[u] = v
    if not sectors:
        return False
    start = next(iter(sectors))
    cur, steps = start, 0
    while steps < len(sectors):
        cur = sectors.get(cur)
        if cur is None:
            return False
        steps += 1
        if cur == start:
            return steps == len(sectors)
    return False


def facets_paired(f):
    """d = 3 completeness: every facet of every maximal cone is shared by
    exactly one other maximal cone."""
    cal = f.calibration
    seen = Counter()
    for sigma in f.max_cones:
        for facet in facets_of(cal, sigma):
            key = frozenset(normalize_direction(cal.column(i)) for i in facet)
            seen[key] += 1
    return bool(seen) and all(v == 2 for v in seen.values())


def intersections_are_faces_lp(f):
    """Every s1 & s2 of two maximal cones is a face of both, by is_face."""
    cal = f.calibration
    return all(is_face(cal, s1 & s2, s1) and is_face(cal, s1 & s2, s2)
               for s1, s2 in combinations(f.max_cones, 2))


def _circuit_brackets(cal, J, j):
    """(sign, K) with [J] c_f = sign [K] at each free column f, for the
    circuit c of chamber_form: [J] at f = j, -[J] y_k at f = J_k."""
    for f in cal.free_columns:
        if f not in J:
            yield int(f == j), J
            continue
        k = J.index(f)
        rest = J[:k] + J[k + 1:]
        p = sum(i < j for i in rest)  # j sorts into place p
        yield (1 if (k - p) % 2 else -1), rest[:p] + (j,) + rest[p:]


def chamber_form_brackets(cal, J, j):
    """z(J, j) for a 0-based d-subset J with [J] != 0 and j outside J, each
    entry a bracket [K] over [J], by the signs of _circuit_brackets."""
    at, brackets = _bracket_index(cal), cal.brackets
    scale = brackets[at[J]].inv()
    return tuple(S0 if not c else scale * brackets[at[K]] if c > 0
                 else -(scale * brackets[at[K]]) for c, K in _circuit_brackets(cal, J, j))


def chamber_codes_brackets(cal):
    """sign([J]) [J] z(J, j), by J with [J] != 0 and then j outside J, in
    increasing order: the signed brackets of each circuit, read off
    encode(brackets) by sign flips."""
    enc, at, out = encode(cal.brackets), _bracket_index(cal), {}
    for J, bracket in zip(at, cal.brackets):
        if bracket.is_zero():
            continue
        codes = out[J] = {}
        for j in (j for j in range(cal.n) if j not in J):
            terms = [(bracket.sign() * c, at[K]) for c, K in _circuit_brackets(cal, J, j)]
            p, q = (None if v is None else tuple(c * v[u] for c, u in terms) for v in (enc.p, enc.q))
            codes[j] = IntVec(p, q, enc.m)
    return out


def basis_scan_chi(codes, e):
    """polytope.basis_scan in chi-space, over a chamber-code table such as
    chamber_codes_brackets(cal), for e = encode(chi): (J, tight) for every J
    of the table whose codes all have sign >= 0 at chi, read up to the first
    negative one; tight is J followed by the j whose sign is zero."""
    for J, row in codes.items():
        tight = list(J)
        for j, z in row.items():
            sign = dot_sign(z, e)
            if sign < 0:
                break
            if sign == 0:
                tight.append(j)
        else:
            yield J, tight


def wall_normals_cofactor(cal):
    """One normal per hyperplane spanned by n-d-1 Gale rows: their signed
    minors (-1)^t det(rows without column t), turned so that the last
    nonzero entry is positive, normalized; (1,) for n-d = 1, () for n = d."""
    m = cal.n - cal.d
    if m == 0:
        return ()
    normals, seen = [], set()
    for sub in combinations(cal.gale.rows, m - 1):
        w = cofactor_normal(sub, m)
        last = next((x for x in reversed(w) if not x.is_zero()), None)
        if last is None:
            continue
        w = normalize_direction(w if last.sign() > 0 else vscale(-1, w))
        if w not in seen:
            seen.add(w)
            normals.append(w)
    return tuple(normals)


def lifted_sign_brackets(cal, e, S):
    """The sign of D(S) = sum_t (-1)^t b_{S_t} [S - S_t] for e = encode(b),
    from the bracket codes at the d-subsets S - S_t."""
    at, br = _bracket_index(cal), encode(cal.brackets)
    rows = [at[S[:t] + S[t + 1:]] for t in range(len(S))]
    brackets = (None if v is None else tuple(v[r] for r in rows) for v in (br.p, br.q))
    b_S = (None if v is None else tuple(-v[s] if t % 2 else v[s] for t, s in enumerate(S))
           for v in (e.p, e.q))
    return dot_sign(IntVec(*brackets, br.m), IntVec(*b_S, e.m))


def projective_certificate_brackets(cal):
    """First lexicographic (d+1)-subset whose columns positively span R^d,
    its dependence written out from the brackets."""
    d, n, at = cal.d, cal.n, _bracket_index(cal)
    for I in combinations(range(n), d + 1):
        # sum_t (-1)^t [I - I_t] h(e_{I_t}) = 0 spans the dependences, and is
        # zero exactly when rank < d: at most one of them sums to 1
        dep = [(-1) ** t * cal.brackets[at[I[:t] + I[t + 1:]]] for t in range(d + 1)]
        total = sum(dep, S0)
        if total.is_zero():
            continue
        lam = vscale(total.inv(), dep)
        if all(w.sign() > 0 for w in lam):
            return ProjectiveCertificate(tuple(i + 1 for i in I), lam)
    return None


def positively_spanning_sides(cal):
    """Cone(h) = R^d: no d-1 columns S that span a hyperplane have every
    column on one side of it.  Column i lies on the side
    sign([S with i]) (-1)^(#S after i), read off the brackets; S spans no
    hyperplane when all of these are 0."""
    if cal.d == 0:
        return True  # R^0 is the cone of no columns
    sign = dict(zip(combinations(range(cal.n), cal.d), (b.sign() for b in cal.brackets)))
    for S in combinations(range(cal.n), cal.d - 1):
        sides = set()
        for i in (i for i in range(cal.n) if i not in S):
            p = sum(s < i for s in S)  # i sorts into place p
            sides.add(sign[S[:p] + (i,) + S[p:]] * (-1) ** (cal.d - 1 - p))
        if len(sides - {0}) == 1:
            return False
    return True


def minor(rows):
    """The determinant of the square matrix with these rows, by Laplace
    expansion along the first row: a closed form up to size 3, exact for
    any size, with no division."""
    if len(rows) <= 1:
        return rows[0][0] if rows else S1
    if len(rows) == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    acc = S0
    for c, x in enumerate(rows[0]):
        if not x.is_zero():
            term = x * minor([r[:c] + r[c + 1:] for r in rows[1:]])
            acc = acc - term if c % 2 else acc + term
    return acc


def cofactor_normal(rows, k):
    """The normal w of the hyperplane that k - 1 rows of length k span,
    with w . x = det(x, rows): entry t is (-1)^t times the minor of the
    rows without column t.  Zero when the rows are dependent; (1,) when
    k = 1 and there are no rows."""
    return tuple(-x if t % 2 else x for t, x in
                 enumerate(minor([r[:t] + r[t + 1:] for r in rows]) for t in range(k)))


def brackets_laplace(cal):
    """[J] = det M_J for every 0-based d-subset J, in lexicographic
    order, where M_J has rows h(e_j), j in J."""
    return tuple(minor([cal.columns[j] for j in J])
                 for J in combinations(range(cal.n), cal.d))


def hyperplane_normals_cofactor(cal):
    """(n_S, its code for scalar.dot_sign) for every 0-based (d-1)-subset S
    of columns, in lexicographic order: n_S . x = det(x, h(e_s), s in S),
    zero when S is dependent."""
    normals = {S: cofactor_normal([cal.columns[s] for s in S], cal.d)
               for S in combinations(range(cal.n), cal.d - 1)}
    return {S: (w, encode(w)) for S, w in normals.items()}


def basic_point_normals(cal, J, bracket, b):
    """M_J^{-1} (-b_J) for [J] = bracket != 0, where <x, h(e_j)> + b_j = 0
    for j in J: -(1/[J]) sum_k (-1)^k b_{J_k} n_{J - J_k}, read off the
    calibration's hyperplane normals, a zero b_j skipped."""
    acc = (S0,) * cal.d
    for k, j in enumerate(J):
        if not b[j].is_zero():
            c = -b[j] if k % 2 else b[j]
            acc = tuple(a + c * w for a, w in zip(acc, cal.minor_table.normal(J[:k] + J[k + 1:])))
    scale = -bracket.inv()
    return tuple(scale * a for a in acc)


def circuit_table_scalar(cal):
    """(c_S at S, its code over all n columns for scalar.dot_sign, zero
    off S) for every 0-based (d+1)-subset S of columns, in lexicographic
    order: the circuit c_S = sum_t (-1)^t [S - S_t] e_{S_t}, zero when S
    spans no R^d.  The codes are encode(brackets) read by sign flips, over
    one shared denominator."""
    at, brackets, n = _bracket_index(cal), cal.brackets, cal.n
    enc, out = encode(brackets), {}

    def signed(v, rows):
        return None if v is None else tuple(-v[r] if t % 2 else v[r] for t, r in enumerate(rows))

    def placed(v, S):
        if v is None:
            return None
        c = [0] * n
        for s, x in zip(S, v):
            c[s] = x
        return tuple(c)

    for S in combinations(range(n), cal.d + 1):
        rows = [at[S[:t] + S[t + 1:]] for t in range(len(S))]
        code = IntVec(placed(signed(enc.p, rows), S), placed(signed(enc.q, rows), S), enc.m)
        out[S] = (signed(brackets, rows), code)
    return out


def positively_spanning_circuits(cal):
    """Cone(h) = R^d: every column lies in the support of a circuit c_S
    whose nonzero entries share one sign, the scan stopping once every
    column is covered."""
    covered = set()
    for S, (entries, _) in circuit_table_scalar(cal).items():
        if not {1, -1} <= {x.sign() for x in entries}:
            covered.update(s for s, x in zip(S, entries) if not x.is_zero())
            if len(covered) == cal.n:
                return True
    return len(covered) == cal.n


class _ScalarConstraint(NamedTuple):
    coeffs: tuple
    const: Scalar
    rel: str


def scalar_con(coeffs, const=0, rel=lp.GE):
    """coeffs . x + const REL 0 with Scalar entries."""
    return _ScalarConstraint(tuple(map(Scalar.coerce, coeffs)), Scalar.coerce(const), rel)


def scalar_constraint(c):
    """The lp.Constraint c with the Scalars of its code (a positive
    multiple of its const and coeffs)."""
    xs = decode(c.code)
    return _ScalarConstraint(tuple(xs[1:]), xs[0], c.rel)


def evaluate(c, x):
    acc = c.const
    for a, v in zip(c.coeffs, x):
        acc = acc + a * v
    return acc


def satisfies(c, x):
    """Whether x satisfies c, an lp.Constraint or a scalar_con."""
    if isinstance(c, lp.Constraint):
        c = scalar_constraint(c)
    s = evaluate(c, x).sign()
    if c.rel == lp.EQ:
        return s == 0
    if c.rel == lp.GT:
        return s > 0
    return s >= 0


def _drop_var(c, j):
    return c.coeffs[:j] + c.coeffs[j + 1:]


def _substituted(c, j, pivot):
    """Eliminate x_j from c using the equality pivot (pivot.coeffs[j] != 0)."""
    f = c.coeffs[j] / pivot.coeffs[j]
    coeffs = tuple(a - f * b for a, b in zip(_drop_var(c, j), _drop_var(pivot, j)))
    return _ScalarConstraint(coeffs, c.const - f * pivot.const, c.rel)


def _choose_value(lowers, uppers):
    lo = max((v for v, _ in lowers), default=None)
    up = min((v for v, _ in uppers), default=None)
    if lo is not None and up is not None:
        if lo == up:
            return lo
        return (lo + up) / Scalar(2)
    if lo is not None:
        return lo + Scalar(1)
    if up is not None:
        return up - Scalar(1)
    return S0


def _solve(cons, nvars):
    live = []
    for c in cons:
        if all(a.is_zero() for a in c.coeffs):
            if not satisfies(c, ()):
                return None
        else:
            live.append(c)
    if nvars == 0:
        return []
    j = nvars - 1
    zero = [c for c in live if c.coeffs[j].is_zero()]
    active = [c for c in live if not c.coeffs[j].is_zero()]
    pivot = next((c for c in active if c.rel == lp.EQ), None)
    if pivot is not None:
        reduced = zero + [_substituted(c, j, pivot) for c in active if c is not pivot]
        sol = _solve(reduced, nvars - 1)
        if sol is None:
            return None
        rest = evaluate(_ScalarConstraint(_drop_var(pivot, j), pivot.const, lp.EQ), sol)
        sol.append(-rest / pivot.coeffs[j])
        return sol
    lowers = [c for c in active if c.coeffs[j].sign() > 0]
    uppers = [c for c in active if c.coeffs[j].sign() < 0]
    combined = list(zero)
    for lo in lowers:
        for up in uppers:
            fl, fu = lo.coeffs[j].inv(), (-up.coeffs[j]).inv()
            coeffs = tuple(fl * a + fu * b for a, b in zip(_drop_var(lo, j), _drop_var(up, j)))
            const = fl * lo.const + fu * up.const
            rel = lp.GT if lp.GT in (lo.rel, up.rel) else lp.GE
            combined.append(_ScalarConstraint(coeffs, const, rel))
    sol = _solve(combined, nvars - 1)
    if sol is None:
        return None

    def bound(c):
        rest = evaluate(_ScalarConstraint(_drop_var(c, j), c.const, c.rel), sol)
        return -rest / c.coeffs[j], c.rel == lp.GT

    sol.append(_choose_value([bound(c) for c in lowers], [bound(c) for c in uppers]))
    return sol


def fm_find_point(cons, nvars) -> Optional[tuple]:
    """An exact point satisfying every scalar_con, or None if infeasible."""
    for c in cons:
        if len(c.coeffs) != nvars:
            raise ValueError(f"constraint arity {len(c.coeffs)} != {nvars}")
    sol = _solve(list(cons), nvars)
    return None if sol is None else tuple(sol)
