"""Field axioms, exact sign and order, and JSON round-trips for Scalar."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsecfan import Rational, Scalar
from qsecfan.errors import MixedFieldError

rationals = st.builds(Rational,
                      st.integers(min_value=-10**6, max_value=10**6),
                      st.integers(min_value=1, max_value=10**4))


def scalars(m):
    return st.tuples(rationals, rationals).map(lambda t: Scalar(t[0], t[1], m))


both = st.one_of(scalars(2), scalars(3), scalars(5))


@given(scalars(2), scalars(2), scalars(2))
def test_field_axioms(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + Scalar(0) == x
    assert x * Scalar(1) == x
    assert x - x == Scalar(0)


@given(scalars(2))
def test_inverse(x):
    if not x.is_zero():
        assert x * x.inv() == Scalar(1)
        assert (Scalar(1) / x) * x == Scalar(1)


@given(scalars(2), scalars(2))
def test_order_consistent_with_floats(x, y):
    if x < y:
        assert float(x) <= float(y) + 1e-9
    if x == y:
        assert not (x < y) and not (y < x)
    assert (x < y) or (x == y) or (y < x)


@given(scalars(2))
def test_sign_matches_comparison(x):
    s = x.sign()
    assert s in (-1, 0, 1)
    assert (s > 0) == (x > Scalar(0))
    assert (s == 0) == x.is_zero()
    assert (-x).sign() == -s


@given(scalars(2))
def test_abs(x):
    assert abs(x).sign() >= 0
    assert abs(x) == (x if x.sign() >= 0 else -x)


def test_sqrt_squares_back():
    for m in (2, 3, 5, 7):
        assert Scalar.sqrt(m) * Scalar.sqrt(m) == Scalar(m)
        assert Scalar.sqrt(m) > Scalar(0)


def test_perfect_square_radicand_is_rational():
    assert Scalar(0, 1, 4) == Scalar(2)
    assert Scalar(0, 1, 9).is_rational()
    # a square factor moves out of the radical
    assert Scalar(0, 1, 8) == Scalar(0, 2, 2)


def test_mixed_fields_rejected():
    with pytest.raises(MixedFieldError):
        Scalar(0, 1, 2) + Scalar(0, 1, 3)
    # rational values mix with any field
    assert Scalar(3) + Scalar(0, 1, 5) == Scalar(3, 1, 5)


def test_zero_radical_part_canonicalizes_to_rational():
    x = Scalar(1, 1, 2) - Scalar(0, 1, 2)
    assert x.is_rational()
    assert x == Scalar(1)


@given(both)
def test_json_round_trip(x):
    assert Scalar.from_json(x.to_json()) == x


def test_from_json_accepts_plain_forms():
    assert Scalar.from_json(3) == Scalar(3)
    assert Scalar.from_json("2/7") == Scalar(Rational(2, 7))
    assert Scalar.from_json({"a": "0", "b": "1", "m": 2}) == Scalar.sqrt(2)


@pytest.mark.parametrize("data", [
    {"a": 0.1}, {"a": 1.0}, {"a": True}, {"a": "1", "b": 0.5, "m": 2},
    {"a": "0", "b": False, "m": 2}, {"a": "0", "b": "1", "m": 2.0}, {"a": "0", "b": "1", "m": True},
    True, False, 0.1, 1e0])
def test_from_json_rejects_floats_and_booleans(data):
    """{"a": 0.1} once read the binary double 3602879701896397/36028797018963968
    and true read 1."""
    with pytest.raises(ValueError, match="not a scalar encoding"):
        Scalar.from_json(data)


@given(scalars(2), scalars(2))
def test_hash_respects_equality(x, y):
    if x == y:
        assert hash(x) == hash(y)


def test_sign_near_tie():
    # 99/70 is a convergent of sqrt(2); the difference is tiny but nonzero
    assert (Scalar(Rational(99, 70)) - Scalar.sqrt(2)).sign() == 1
    assert (Scalar(Rational(140, 99)) - Scalar.sqrt(2)).sign() == -1
