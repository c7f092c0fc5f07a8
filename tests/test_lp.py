"""Exact feasibility and witness extraction for linear constraint systems."""

import pytest

from qsecfan import MixedFieldError, Rational, Scalar
from qsecfan.lp import con, eq, feasible, find_point, ge, gt, implied_equality
from qsecfan.scalar import S1

from reference_geometry import evaluate, satisfies, scalar_con

SQ2 = Scalar.sqrt(2)
SQ3 = Scalar.sqrt(3)


def test_square_interior_point():
    cons = [ge([1, 0]), ge([0, 1]), ge([-1, 0], 1), ge([0, -1], 1)]
    x = find_point(cons, 2)
    assert x is not None
    assert all(satisfies(c, x) for c in cons)


def test_strict_constraints_excluded_from_witness():
    cons = [gt([1, 0]), gt([0, 1]), eq([1, 1], -1)]
    x = find_point(cons, 2)
    assert x is not None
    assert x[0].sign() > 0 and x[1].sign() > 0
    assert (x[0] + x[1]) == S1


def test_infeasible_strict():
    # x > 0 and x < 0
    assert find_point([gt([1]), gt([-1])], 1) is None
    assert not feasible([gt([1]), gt([-1])], 1)


def test_empty_interior_but_feasible():
    # x >= 0 and x <= 0 meet only at 0
    cons = [ge([1]), ge([-1])]
    assert feasible(cons, 1)
    assert find_point([gt([1]), ge([-1])], 1) is None


def test_irrational_threshold():
    # x >= sqrt(2), x <= 3/2: witness must land in the gap exactly
    cons = [ge([1], -SQ2), ge([-1], Rational(3, 2))]
    x = find_point(cons, 1)
    assert x is not None
    assert x[0] >= SQ2 and x[0] <= Scalar(Rational(3, 2))


def test_equality_substitution():
    cons = [eq([1, 1, 1], -6), eq([1, -1, 0], 0), ge([0, 0, 1], -2)]
    x = find_point(cons, 3)
    assert x is not None
    assert x[0] == x[1]
    assert x[0] + x[1] + x[2] == Scalar(6)
    assert x[2] >= Scalar(2)


def test_implied_equality():
    # on the face x + y = 1, x >= 1, y >= 0: y = 0 is forced
    cons = [eq([1, 1], -1), ge([1, 0], -1), ge([0, 1], 0)]
    assert implied_equality(cons, 2, 2)
    assert not implied_equality([ge([1, 0]), ge([0, 1])], 0, 2)


def test_zero_variables():
    assert feasible([ge([], 1)], 0)
    assert not feasible([ge([], -1)], 0)
    assert find_point([], 0) == ()


def test_evaluate():
    c = scalar_con([2, -1], 3)
    assert evaluate(c, (Scalar(1), Scalar(4))) == Scalar(1)


def test_strict_row_beats_its_parallel_non_strict_row():
    # x > 0 and 2x >= 0 are one primitive row; x <= 0 then leaves 0 > 0
    assert find_point([gt([1]), ge([2]), ge([-1])], 1) is None
    assert find_point([ge([2]), gt([1])], 1) == (S1,)
    assert find_point([ge([2]), ge([-1])], 1) == (Scalar(0),)


def test_point_fibre():
    # x >= 1 and 2x <= 2 meet at x = 1 only; y is then the midpoint of [0, 1]
    cons = [ge([1, 0], -1), ge([-2, 0], 2), ge([0, 1]), ge([-1, -1], 2)]
    assert find_point(cons, 2) == (S1, Scalar(Rational(1, 2)))
    # on x + y = 1 with x, y >= 0, x is the midpoint and y its point fibre
    assert find_point([eq([1, 1], -1), ge([1, 0]), ge([0, 1])], 2) == (
        Scalar(Rational(1, 2)), Scalar(Rational(1, 2)))


def test_constant_rows_at_zero_variables():
    assert find_point([gt([], 0)], 0) is None
    assert find_point([ge([], 0), eq([], 0), gt([], SQ2)], 0) == ()
    assert find_point([eq([], -SQ2)], 0) is None


def test_two_radicals_raise():
    with pytest.raises(MixedFieldError):
        find_point([ge([SQ2]), ge([-SQ3], 1)], 1)
    # also where no product meets both radicals, as encode and dot_sign do
    with pytest.raises(MixedFieldError):
        find_point([ge([SQ2, 0]), ge([0, SQ3])], 2)
    with pytest.raises(MixedFieldError):
        ge([SQ2, SQ3])


def test_arity_and_relation_are_checked():
    with pytest.raises(ValueError, match="arity 2 != 1"):
        find_point([ge([1, 0])], 1)
    with pytest.raises(ValueError, match="arity 0 != 1"):
        find_point([ge([1]), ge([])], 1)
    with pytest.raises(ValueError, match="unknown relation"):
        con([1], 0, "<=")
