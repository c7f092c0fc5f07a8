"""Exact matrices, Gale transforms, and calibration validation."""

import pytest

from qsecfan import Calibration, Matrix, Rational, Scalar
from qsecfan.errors import DimensionMismatchError, InvalidCalibrationError, MixedFieldError
from qsecfan.linalg import (
    chi_of_b,
    det,
    gale_rows,
    gale_transform,
    in_cone,
    integer_kernel_rank,
    kernel_basis,
    normalize_direction,
    preimage_matrix,
    preimage_of_chi,
    rank,
    rref,
    solve,
    solve_unique,
    vadd,
    vec,
    vsub,
)

from conftest import SQ2, cal_of

S = Scalar.coerce


def test_rref_pivots():
    M = Matrix([[0, 1, 2], [1, 2, 3], [2, 4, 6]])
    R, pivots = rref(M)
    assert pivots == (0, 1)
    assert rank(M) == 2


def test_det():
    assert det(Matrix([[1, 2], [3, 4]])) == S(-2)
    assert det(Matrix([[SQ2, 1], [1, SQ2]])) == S(1)
    assert det(Matrix([[1, 1], [1, 1]])).is_zero()
    assert det(Matrix([])) == S(1)
    # two radicals raise even where every product that meets them is zero
    with pytest.raises(MixedFieldError):
        det(Matrix([[SQ2, Scalar.sqrt(3)], [0, 0]]))


def test_kernel_basis_orthogonal_to_rows():
    M = Matrix([[1, 0, SQ2, 1], [0, 1, 1, SQ2]])
    K = kernel_basis(M)
    assert len(K) == 2
    for k in K:
        for row in M.rows:
            s = sum((a * b for a, b in zip(row, k)), S(0))
            assert s.is_zero()


def test_solve_and_solve_unique():
    M = Matrix([[1, 1], [1, -1]])
    x = solve_unique(M, [S(2), S(0)])
    assert x == (S(1), S(1))
    assert solve_unique(Matrix([[1, 1], [2, 2]]), [S(1), S(3)]) is None
    sol = solve(Matrix([[1, 1]]), [S(1)])
    assert sol is not None
    particular, kern = sol
    assert particular[0] + particular[1] == S(1)
    assert len(kern) == 1


def test_integer_kernel_rank():
    # rational single row (1, -1, 1): integer kernel has rank 2
    assert integer_kernel_rank(Matrix([[1, -1, 1]])) == 2
    # irrational row (sqrt2, -1, 1): integer relations force the sqrt2
    # coordinate to vanish, leaving rank 1
    assert integer_kernel_rank(Matrix([[SQ2, -1, 1]])) == 1


def test_normalize_direction():
    assert normalize_direction(vec([0, -3])) == (S(0), S(-1))
    assert normalize_direction(vec([2, 4])) == (S(1), S(2))


def test_calibration_validation():
    with pytest.raises(InvalidCalibrationError):
        cal_of(2, [(1, 0), (2, 0), (3, 0)])  # rank 1
    with pytest.raises(InvalidCalibrationError):
        cal_of(2, [(1, 0), (0, 1), (0, 0)])  # zero column
    with pytest.raises(InvalidCalibrationError):
        Calibration(2, 3, ((S(1), S(0)), (S(0), S(1)), (S(-1), S(-1))),
                    frozenset({5}))  # virtual index out of range


def test_calibration_flags(qex, exc4):
    assert qex.is_geometric()
    assert qex.is_standard()
    assert not exc4.is_geometric()  # column 3 is opposite to column 1
    assert exc4.is_standard()


def test_gale_transform_annihilates(qex, fig5, frustum):
    for cal in (qex, fig5, frustum):
        k = gale_transform(cal)
        prod = cal.matrix() * k
        assert all(x.is_zero() for row in prod.rows for x in row)
        assert rank(k) == cal.n - cal.d


def test_gale_generators_of_reference_instance(qex):
    gens = {tuple(g) for g in gale_rows(qex)}
    assert gens == {(SQ2, S(1)), (S(1), SQ2), (S(1), S(0)), (S(0), S(1))}


def test_preimage_round_trip(qex, fig5):
    for cal in (qex, fig5):
        chi = vec([1, 2][: cal.n - cal.d] or [1])
        chi = vec([Rational(i + 1, 2) for i in range(cal.n - cal.d)])
        b = preimage_of_chi(cal, chi)
        assert chi_of_b(cal, b) == chi
        pm = preimage_matrix(cal)
        assert pm.matvec(chi) == b


def test_preimage_of_chi_when_n_equals_d():
    # k is n x 0; a Matrix has no 0 x n shape for k^T, so P is k itself
    cal = Calibration(2, 2, ((1, 0), (0, 1)))
    assert preimage_of_chi(cal, ()) == (S(0), S(0))
    pm = preimage_matrix(cal)
    assert (pm.nrows, pm.ncols) == (2, 0)
    assert chi_of_b(cal, vec([3, -1])) == ()


def test_preimage_of_chi_rejects_a_wrong_length(qex, fig5):
    for cal, chi in ((qex, [1, 2, 3]), (fig5, [1, 2]), (fig5, [])):
        with pytest.raises(DimensionMismatchError,
                           match="chi has wrong length for this calibration"):
            preimage_of_chi(cal, vec(chi))


def test_calibration_column_is_one_based(fig5):
    assert fig5.column(1) == fig5.columns[0] and fig5.column(fig5.n) == fig5.columns[-1]
    for i in (0, -1, fig5.n + 1):
        with pytest.raises(DimensionMismatchError, match=r"generator index must lie in 1\.\.n"):
            fig5.column(i)


def test_in_cone():
    quadrant = [vec([1, 0]), vec([0, 1]), vec([1, 1])]
    assert in_cone(quadrant, vec([2, 3])) and in_cone(quadrant, vec([0, 5]))
    assert not in_cone(quadrant, vec([-1, 3]))
    ray = [vec([1, 1]), vec([2, 2])]
    assert in_cone(ray, vec([3, 3])) and not in_cone(ray, vec([-1, -1]))
    assert not in_cone(ray, vec([1, 2]))  # outside the span
    assert in_cone([], vec([0, 0])) and not in_cone([], vec([0, 1]))


def test_in_cone_rejects_a_wrong_length():
    gens = [vec([1, 0]), vec([0, 1])]
    for x in ([1, 1, -7], [1]):
        with pytest.raises(DimensionMismatchError,
                           match=rf"vector of length {len(x)} in a cone of R\^2"):
            in_cone(gens, vec(x))


def test_vadd_and_vsub_reject_a_length_mismatch():
    """Both once zipped to the shorter length and returned a truncated sum."""
    for fn, u, v in ((vadd, [1, 2], [3]), (vsub, [1], [3, 4]), (vadd, [], [1])):
        with pytest.raises(DimensionMismatchError,
                           match=rf"{fn.__name__} of lengths {len(u)} and {len(v)}"):
            fn(vec(u), vec(v))
    assert vadd(vec([1, 2]), vec([3, 4])) == vec([4, 6])
    assert vsub(vec([1]), vec([3])) == vec([-2])
    assert vadd((), ()) == ()


def test_calibration_json_round_trip(qex, frustum):
    for cal in (qex, frustum):
        assert Calibration.from_json(cal.to_json()) == cal
