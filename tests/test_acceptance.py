"""Acceptance gate: exact property suites and reference reproductions.

Every check is exact (tolerance zero); the timed suites assert their
wall-clock budgets.
"""

import json
import random
import time
import xml.dom.minidom
from itertools import combinations

from qsecfan import (
    CombinatorialType,
    HPolytope,
    NotAdmissibleError,
    Rational,
    Scalar,
    VertexOracle,
    chamber_of,
    classify_dim2,
    cobordism_from_path,
    combinatorial_type,
    enumerate_chambers,
    gale_cone,
    is_generic,
    normal_fan,
    projective_certificate,
    s_variety_strata,
    simplex_parameter,
    stabilizer_profiles,
    virtual_indices,
)
from qsecfan import lp
from qsecfan.cli import main as cli_main
from qsecfan.fan import fan_from_rays, is_complete
from qsecfan.linalg import (
    Matrix,
    dot,
    gale_rows,
    gale_transform,
    preimage_matrix,
    preimage_of_chi,
    rank,
    vadd,
    vec,
    vscale,
)
from qsecfan.secondary import AffinePath, DegeneratePathError

from conftest import (
    SQ2,
    cal_of,
    census_classes,
    random_calibration,
    random_generic_chi,
    segment,
)

S = Scalar.coerce
S0 = Scalar(0)
S1 = Scalar(1)


def relative_interior_tight_facets(P, T):
    """Facets tight at a relative-interior point of the face where the
    constraints T are tight, or None when that face is empty."""
    implicit = P._implicit_equalities(tuple(T))
    if implicit is None:
        return None
    cons = []
    for i in range(P.nfacets):
        if i in implicit:
            cons.append(lp.eq(P.normals[i], P.offsets[i]))
        else:
            cons.append(lp.gt(P.normals[i], P.offsets[i]))
    x = lp.find_point(cons, P.ambient_dim)
    if x is None:
        return None
    return P.tight_at(x)


def test_criterion_1_face_duality(instance_pool):
    t0 = time.monotonic()
    faces_checked = 0
    for cal, chi, b in instance_pool:
        P = HPolytope.from_parameter(cal, b)
        assert P.is_bounded() and P.dimension() == cal.d
        d = cal.d
        facets = set(P.facet_indices())
        candidates = {frozenset()} | {frozenset([i]) for i in facets}
        for _, tight in P.vertices():
            candidates.add(frozenset(tight))
        if d == 3:
            for i, j in combinations(sorted(facets), 2):
                candidates.add(frozenset([i, j]))
        for T in candidates:
            q = P.face_dim(sorted(T))
            if q < 0:
                continue
            tight = relative_interior_tight_facets(P, T)
            assert tight is not None
            tight &= facets
            sigma_dim = rank(Matrix([P.normals[i] for i in tight])) if tight else 0
            assert q + sigma_dim == d
            faces_checked += 1
    elapsed = time.monotonic() - t0
    assert faces_checked > 2000
    assert elapsed <= 60.0


def test_criterion_2_admissibility_equivalences(qex, p2, fig5, frustum):
    rng = random.Random(2)
    extra = None
    while extra is None:
        extra = random_calibration(rng, 3, 6, irrational=True)
    for cal in (qex, p2, fig5, frustum, extra):
        gc = gale_cone(cal)
        m = cal.n - cal.d
        full_dim_checked = 0
        for k in range(1000):
            chi = vec([Rational(rng.randint(-40, 40), rng.randint(1, 5))
                       for _ in range(m)])
            b = preimage_of_chi(cal, chi)
            P = HPolytope.from_parameter(cal, b)
            # emptiness vs cone membership, two independent code paths
            assert (not P.is_empty()) == gc.contains(chi)
            # full dimension vs interior membership
            assert (P.interior_point() is not None) == gc.interior_contains(chi)
            if k < 50:
                assert (P.dimension() == cal.d) == gc.interior_contains(chi)
                full_dim_checked += 1
        assert full_dim_checked == 50


def test_criterion_3_generic_iff_simplicial_iff_simple(qex, fig5, frustum):
    rng = random.Random(3)
    cals = [qex, fig5, frustum]
    while len(cals) < 6:
        d = rng.choice([2, 3])
        c = random_calibration(rng, d, rng.randint(d + 2, d + 3),
                               irrational=True)
        if c is not None:
            cals.append(c)
    for cal in cals:
        rows = gale_rows(cal)
        m = cal.n - cal.d
        gc = gale_cone(cal)
        samples = []
        for _ in range(30):
            chi = random_generic_chi(rng, cal, tries=50)
            if chi is not None:
                samples.append(chi)
        # deliberately non-generic points on degenerate-span cones
        for size in range(1, m):
            for I in combinations(range(cal.n), size):
                chi = tuple([S0] * m)
                for i in I:
                    chi = vadd(chi, vscale(Scalar(rng.randint(1, 7)), rows[i]))
                if gc.interior_contains(chi):
                    samples.append(chi)
        assert any(not is_generic(cal, chi) for chi in samples)
        for chi in samples:
            b = preimage_of_chi(cal, chi)
            P = HPolytope.from_parameter(cal, b)
            f = normal_fan(cal, b)
            g = is_generic(cal, chi)
            # the simplicity side of the equivalence: P simple, full
            # dimensional, and every constraint cuts a facet or is
            # strictly redundant (a constraint tangent at a vertex, as
            # happens on a divisorial wall, breaks genericity while
            # leaving the polytope simple)
            facet_ok = all(P.facet_dim(i) in (-1, cal.d - 1)
                           for i in range(cal.n))
            simple_side = (P.is_simple() and P.dimension() == cal.d
                           and facet_ok)
            assert g == simple_side
            if g:
                assert f.is_simplicial()
            if not f.is_simplicial():
                assert not g


def test_criterion_4_gkz_product_split(qex, qex_t1, fig5):
    rng = random.Random(4)
    for cal in (qex, qex_t1, fig5):
        sf = enumerate_chambers(cal)
        rows = gale_rows(cal)
        oracle = VertexOracle(cal)
        pm = preimage_matrix(cal)
        for ch in sf.chambers:
            # product structure: one factor per virtual generator, and the
            # chamber is invariant under pushing along those Gale rows
            virtual_payloads = {q.payload[0] for q in ch.inequalities
                                if q.kind == "virtual"}
            assert virtual_payloads == set(ch.virtual)
            assert {q.kind for q in ch.inequalities} <= {"wall", "virtual"}
            for i in sorted(ch.virtual):
                for q in ch.inequalities:
                    assert dot(q.normal, rows[i - 1]).sign() >= 0
            # 100 interior samples reproduce the representative combinatorics
            rep_key = oracle.comb_key(pm.matvec(ch.rep_point))
            got = 0
            while got < 100:
                chi = ch.rep_point
                eps = Scalar(Rational(1, rng.randint(2, 64)))
                for g in rows:
                    chi = vadd(chi, vscale(eps * Scalar(Rational(rng.randint(-9, 9), 10)), g))
                if not ch.contains(chi):
                    continue
                got += 1
                assert oracle.comb_key(pm.matvec(chi)) == rep_key


def test_criterion_5_reference_instance_reproduction(qex, qex_t1):
    t0 = time.monotonic()
    k = gale_transform(qex)
    prod = qex.matrix() * k
    assert all(x.is_zero() for row in prod.rows for x in row)
    gens = {tuple(g) for g in gale_rows(qex)}
    assert gens == {(SQ2, S1), (S1, SQ2), (S1, S0), (S0, S1)}
    sf = enumerate_chambers(qex)
    assert len(sf.chambers) == 3
    middle = chamber_of(qex, vec([1, 1]))
    assert middle.comb.is_isomorphic_to(CombinatorialType.c_type(4))
    assert middle.virtual == frozenset()
    # the deformed calibration puts the same point in a simplex chamber
    ch = chamber_of(qex_t1, vec([1, 1]))
    assert ch.comb.is_isomorphic_to(CombinatorialType.s_type(2))
    assert ch.virtual == frozenset({4})
    assert time.monotonic() - t0 <= 5.0


def test_criterion_6_five_column_sequence(fig5, tmp_path):
    sf = enumerate_chambers(fig5)
    assert len(sf.chambers) == 11
    c4 = CombinatorialType.c_type(4)
    s2 = CombinatorialType.s_type(2)
    hirzebruch = [ch for ch in sf.chambers
                  if len(ch.virtual) == 1 and ch.comb.is_isomorphic_to(c4)]
    blowups = [ch for ch in sf.chambers
               if not ch.virtual and ch.comb.is_isomorphic_to(
                   CombinatorialType.c_type(5))]
    planes = [ch for ch in sf.chambers
              if len(ch.virtual) == 2 and ch.comb.is_isomorphic_to(s2)]
    assert len(hirzebruch) == 5 and len(blowups) == 1 and len(planes) == 5
    sequence = [hirzebruch[0], blowups[0], hirzebruch[1], planes[0]]
    doc_cal = fig5.to_json()
    for idx, ch in enumerate(sequence):
        b = preimage_of_chi(fig5, ch.rep_point)
        assert virtual_indices(fig5, b) == ch.virtual
        doc = {"calibration": doc_cal, "b": [x.to_json() for x in b]}
        src = tmp_path / f"step{idx}.json"
        src.write_text(json.dumps(doc))
        out = tmp_path / f"step{idx}.svg"
        assert cli_main(["plot", "--kind", "fan", "--input", str(src),
                         "--output", str(out)]) == 0
        text = out.read_text()
        dom = xml.dom.minidom.parseString(text)
        assert dom.documentElement.tagName == "svg"
        dashed = text.count("stroke-dasharray")
        assert dashed == len(ch.virtual)


def collect_crossings(cal, rng, tries=6):
    """Wall crossings along random paths between two generic parameters."""
    out = []
    for _ in range(tries):
        chi_a = random_generic_chi(rng, cal, tries=60)
        chi_b = random_generic_chi(rng, cal, tries=60)
        if chi_a is None or chi_b is None:
            continue
        b_a, b_b = preimage_of_chi(cal, chi_a), preimage_of_chi(cal, chi_b)
        beta = vscale(Rational(1, 2), vadd(b_a, b_b))
        alpha = vscale(Rational(1, 2), vadd(b_b, vscale(-1, b_a)))
        try:
            rep = cobordism_from_path(AffinePath(beta, alpha), cal)
        except DegeneratePathError:
            continue
        out.extend(rep.crossings)
        if out:
            return out
    return out


def test_criterion_7_wall_theorems(qex, fig5, frustum):
    rng = random.Random(7)
    crossings = []
    crossings += collect_crossings(qex, rng)
    crossings += collect_crossings(fig5, rng)
    crossings += collect_crossings(frustum, rng)
    instances = 0
    while instances < 50:
        cal = random_calibration(rng, 3, rng.choice([5, 6]),
                                 irrational=rng.random() < 0.5, geometric=True)
        if cal is None:
            continue
        instances += 1
        crossings += collect_crossings(cal, rng, tries=3)
    assert len(crossings) >= 30
    flips = divisorials = 0
    for rep in crossings:
        if rep.wall.type == "flipping":
            flips += 1
            assert rep.checks["rays_equal"]
            assert rep.checks["on_wall_non_simplicial"]
            assert rep.checks["sides_refine_on_wall"]
            assert rep.checks["refinement_inside_on_wall"]
        else:
            divisorials += 1
            assert rep.wall.type == "divisorial"
            assert rep.checks["single_ray_toggled"]
            assert rep.checks["star_subdivision"]
            assert rep.index in ((1, rep.fan_minus.d), (rep.fan_minus.d, 1))
    assert divisorials > 0


def test_criterion_8_strata(instance_pool, qex, fig5, frustum):
    for cal, chi, b in instance_pool:
        f = normal_fan(cal, b)
        assert set(s_variety_strata(cal, b)) == set(f.max_cones)
    # translation invariance along the image of the transposed calibration
    rng = random.Random(8)
    for cal, chi, b in instance_pool[:10] + [
            (c, None, vec([1] * c.n)) for c in (qex, fig5, frustum)]:
        base = set(s_variety_strata(cal, b))
        ht = cal.matrix().transpose()
        for _ in range(20):
            mvec = vec([Rational(rng.randint(-30, 30), rng.randint(1, 4))
                        for _ in range(cal.d)])
            shifted = vadd(vec(b), ht.matvec(mvec))
            assert set(s_variety_strata(cal, shifted)) == base


def random_standard_plane_calibration(rng, n):
    from qsecfan.linalg import normalize_direction
    while True:
        cols = [(S1, S0), (S0, S1)]
        while len(cols) < n:
            c = (Scalar(rng.randint(-5, 5)), Scalar(rng.randint(-5, 5)))
            if c[0].is_zero() and c[1].is_zero():
                continue
            cols.append(c)
        try:
            cal = cal_of(2, cols)
        except Exception:
            continue
        dirs = {normalize_direction(c) for c in cal.columns}
        if len(dirs) != n:
            continue
        try:
            f = fan_from_rays(cal, range(1, n + 1))
        except NotAdmissibleError:
            continue
        if is_complete(f):
            return cal


def test_criterion_9_projective_linkability(qex, p2, fig5, exc4):
    s2 = CombinatorialType.s_type(2)
    # forward: every certificate yields a simplex parameter
    rng = random.Random(9)
    certified = [qex, p2, fig5]
    while len(certified) < 13:
        cal = random_calibration(rng, rng.choice([2, 3]), rng.randint(4, 7),
                                 irrational=rng.random() < 0.5)
        if cal is None:
            continue
        cert = projective_certificate(cal)
        if cert is None:
            continue
        certified.append(cal)
    for cal in certified:
        cert = projective_certificate(cal)
        assert cert is not None
        b = simplex_parameter(cal, cert)
        f = normal_fan(cal, b)
        assert combinatorial_type(f).is_isomorphic_to(
            CombinatorialType.s_type(cal.d))
    # converse sampling: the uncertified family never yields a simplex
    assert projective_certificate(exc4) is None
    admissible_seen = 0
    for _ in range(1000):
        b = vec([Rational(rng.randint(-20, 20), rng.randint(1, 4))
                 for _ in range(4)])
        try:
            f = normal_fan(exc4, b)
        except NotAdmissibleError:
            continue
        admissible_seen += 1
        assert not combinatorial_type(f).is_isomorphic_to(s2)
    assert admissible_seen > 100
    # planar classification: n != 4 cycle calibrations are all certified
    counts = {3: 0, 5: 0, 6: 0}
    while min(counts.values()) == 0 or sum(counts.values()) < 1000:
        n = rng.choice([3, 5, 6])
        cal = random_standard_plane_calibration(rng, n)
        assert classify_dim2(cal) == "projective-linkable"
        counts[n] += 1
    # the exceptional n = 4 family is admissible yet uncertified
    for _ in range(25):
        a, c = rng.randint(1, 6), rng.randint(1, 6)
        fam = cal_of(2, [(1, 0), (0, 1), (-a, 0), (0, -c)])
        assert classify_dim2(fam) == "exceptional-n4"
        assert projective_certificate(fam) is None


def test_criterion_10_stabilizer_profiles():
    rng = random.Random(10)
    instances = 0
    while instances < 100:
        d = rng.choice([2, 3])
        cal = random_calibration(rng, d, rng.randint(d + 1, 7),
                                 irrational=rng.random() < 0.5)
        if cal is None:
            continue
        instances += 1
        for size in range(d, cal.n + 1):
            for I in combinations(range(1, cal.n + 1), size):
                if rank(Matrix([cal.column(i) for i in I])) != d:
                    continue
                old, new, iso = stabilizer_profiles(cal, frozenset(I))
                assert iso == (len(I) == d)
                assert iso == (old == new)
    # reference dichotomy: one irrational coordinate removes the torus factor
    irr = cal_of(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (SQ2, -1, 1)])
    old, new, iso = stabilizer_profiles(irr, frozenset({1, 2, 3, 4}))
    assert tuple(old) == (1, 0, 1) and tuple(new) == (1, 0, 0) and not iso
    rat = cal_of(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 1)])
    old, new, iso = stabilizer_profiles(rat, frozenset({1, 2, 3, 4}))
    assert old.torus_rank == 1 and not iso


def test_criterion_11_bfs_vs_sampling_census():
    rng = random.Random(11)
    t0 = time.monotonic()
    shapes = [(2, 4)] * 8 + [(3, 5)] * 4 + [(2, 5)] * 5 + [(3, 6)] * 3
    done = 0
    for d, n in shapes:
        cal = None
        while cal is None:
            cal = random_calibration(rng, d, n, irrational=rng.random() < 0.5,
                                     geometric=True)
        sf = enumerate_chambers(cal)
        classes = census_classes(cal, rng, 10000)
        assert classes == len(sf.chambers)
        done += 1
    assert done == 20
    assert time.monotonic() - t0 <= 120.0


def test_criterion_11_beyond_n_minus_d_3():
    """Criterion 11 at n-d = 4 and 5, where every chamber facet costs one
    Fourier-Motzkin system in more variables: about 25 s in all."""
    rng = random.Random(16)
    t0 = time.monotonic()
    counts = []
    for d, n in [(2, 6)] * 3 + [(3, 7)] * 2 + [(2, 7)]:
        cal = None
        while cal is None:
            cal = random_calibration(rng, d, n, irrational=rng.random() < 0.5,
                                     geometric=True)
        sf = enumerate_chambers(cal)
        assert census_classes(cal, rng, 10000) == len(sf.chambers)
        counts.append((n - d, cal.field_m, len(sf.chambers)))
    assert counts == [(4, 2, 21), (4, 2, 15), (4, 2, 15), (4, 2, 41), (4, None, 46), (5, 2, 63)]
    assert time.monotonic() - t0 <= 60.0


def test_secondary_fan_with_n_minus_d_4(corank4):
    """A fixed (3, 7) calibration: every rep_point lies in its own chamber,
    adjacency is symmetric, and a path across seven walls of both kinds
    passes every wall-crossing check, each step between BFS neighbours."""
    cal = corank4
    sf = enumerate_chambers(cal)
    assert len(sf.chambers) == 76
    index_of = {ch.key: i for i, ch in enumerate(sf.chambers)}
    assert all(index_of[chamber_of(cal, ch.rep_point).key] == i
               for i, ch in enumerate(sf.chambers))
    neighbours = {i: {nb for _, nb in links if nb is not None}
                  for i, links in sf.adjacency.items()}
    assert all(i in neighbours[j] for i in neighbours for j in neighbours[i])
    first, last = sf.chambers[0], sf.chambers[74]
    rep = cobordism_from_path(segment(cal, first.rep_point, last.rep_point), cal)
    assert [r.wall.type for r in rep.crossings] == ["flipping"] * 5 + ["divisorial"] * 2
    assert all(all(r.checks.values()) for r in rep.crossings)
    walk = [index_of[key] for key in rep.chamber_keys]
    assert walk[0] == 0 and walk[-1] == 74
    assert all(b in neighbours[a] for a, b in zip(walk, walk[1:]))
