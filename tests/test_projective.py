"""Linkability certificates, the planar classification, and verified
paths into the simplex chamber."""

import pytest

from qsecfan import (
    CombinatorialType,
    NotAdmissibleError,
    Scalar,
    UnsupportedDimensionError,
    classify_dim2,
    combinatorial_type,
    normal_fan,
    path_to_projective,
    projective_certificate,
    simplex_parameter,
    virtual_indices,
)
from qsecfan import projective
from qsecfan.linalg import vec

from conftest import cal_of

S = Scalar.coerce


def test_certificate_p2(p2):
    cert = projective_certificate(p2)
    assert cert is not None
    assert cert.indices == (1, 2, 3)
    assert all(w.sign() > 0 for w in cert.weights)
    total = sum(cert.weights, S(0))
    assert total == S(1)
    for coord in range(2):
        s = sum((w * p2.column(i)[coord] for w, i in zip(cert.weights, cert.indices)), S(0))
        assert s.is_zero()


def test_certificate_weights_positive_span(qex, fig5):
    for cal in (qex, fig5):
        cert = projective_certificate(cal)
        assert cert is not None
        for coord in range(cal.d):
            s = sum((w * cal.column(i)[coord]
                     for w, i in zip(cert.weights, cert.indices)), S(0))
            assert s.is_zero()


def test_exceptional_family_has_no_certificate(exc4):
    assert projective_certificate(exc4) is None


def test_simplex_parameter_gives_simplex(qex, p2, fig5):
    for cal in (qex, p2, fig5):
        cert = projective_certificate(cal)
        b = simplex_parameter(cal, cert)
        f = normal_fan(cal, b)
        assert combinatorial_type(f).is_isomorphic_to(CombinatorialType.s_type(cal.d))
        # every generator outside the certificate is virtual at b
        assert virtual_indices(cal, b) == frozenset(range(1, cal.n + 1)) - set(cert.indices)


def test_classify_dim2(p2, qex, fig5, exc4):
    assert classify_dim2(p2) == "projective-linkable"
    assert classify_dim2(qex) == "projective-linkable"
    assert classify_dim2(fig5) == "projective-linkable"
    assert classify_dim2(exc4) == "exceptional-n4"
    # repeated ray directions are rejected
    bad = cal_of(2, [(1, 0), (0, 1), (2, 0), (-1, -1)])
    assert classify_dim2(bad) == "invalid"
    # not standard
    assert classify_dim2(cal_of(2, [(0, 1), (1, 0), (-1, -1)])) == "invalid"
    with pytest.raises(UnsupportedDimensionError):
        classify_dim2(cal_of(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]))


def test_path_already_projective(p2):
    rep = path_to_projective(p2, vec([1, 1, 1]))
    assert rep.found and rep.already_projective


def test_path_from_square_chamber(qex):
    rep = path_to_projective(qex, vec([1, 1, 1, 1]))
    assert rep.found and not rep.already_projective
    assert rep.cobordism is not None
    assert len(rep.cobordism.crossings) >= 1
    # the path ends in the simplex chamber of the certificate
    from qsecfan.linalg import preimage_of_chi
    end_b = preimage_of_chi(qex, rep.chi_path.chi(qex, 1))
    f_end = normal_fan(qex, end_b)
    assert combinatorial_type(f_end).is_isomorphic_to(CombinatorialType.s_type(2))


def test_path_exceptional_needs_calibration_segment(exc4):
    rep = path_to_projective(exc4, vec([1, 1, 1, 1]))
    assert rep.found
    assert rep.target_calibration is not None
    assert rep.segment_steps is not None
    assert projective_certificate(rep.target_calibration) is not None
    assert rep.cobordism is not None


def test_segment_validation_lets_a_bug_through(exc4, monkeypatch):
    """Only the package's own errors mean "this segment fails"; a bug in
    normal_fan along the segment propagates."""
    real = projective.normal_fan

    def broken_off_exc4(cal, b):
        if cal != exc4:
            raise RuntimeError("bug in normal_fan")
        return real(cal, b)

    monkeypatch.setattr(projective, "normal_fan", broken_off_exc4)
    with pytest.raises(RuntimeError, match="bug in normal_fan"):
        path_to_projective(exc4, vec([1, 1, 1, 1]))


def test_perturbation_targets_let_a_bug_through(exc4, monkeypatch):
    def broken(*args):
        raise RuntimeError("bug in Calibration")

    monkeypatch.setattr(projective, "Calibration", broken)
    with pytest.raises(RuntimeError, match="bug in Calibration"):
        next(projective._perturbation_targets(exc4))


def test_path_requires_simplicial_start(frustum):
    # pick a parameter on a flipping wall: the fan there is not simplicial
    from qsecfan.secondary import enumerate_chambers
    sf = enumerate_chambers(frustum)
    ch = sf.chambers[0]
    wall_facet = next(f for f in ch.facets() if not f.boundary)
    from qsecfan.linalg import preimage_of_chi
    b0 = preimage_of_chi(frustum, wall_facet.point)
    f0 = normal_fan(frustum, b0)
    if not f0.is_simplicial():
        with pytest.raises(NotAdmissibleError):
            path_to_projective(frustum, b0)
