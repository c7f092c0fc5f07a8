"""Differential test: the integer sign kernel (scalar.encode and
scalar.dot_sign) against dot(u, v).sign(), which builds a reduced Scalar
for every product and partial sum."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsecfan import Rational, Scalar
from qsecfan.errors import DimensionMismatchError, MixedFieldError
from qsecfan.linalg import dot
from qsecfan.scalar import IntVec, dot_sign, encode

RADICANDS = (2, 3, 5)

parts = st.one_of(
    st.just(0),
    st.integers(min_value=-60, max_value=60),
    st.builds(Rational,
              st.integers(min_value=-10**12, max_value=10**12),
              st.integers(min_value=1, max_value=10**9)))


def entries(m):
    """Rational entries, zeros and entries of Q(sqrt(m)), mixed."""
    rational = st.builds(Scalar, parts)
    return st.one_of(st.just(Scalar(0)), rational, st.builds(Scalar, parts, parts, st.just(m)))


def vectors(m, size):
    return st.lists(entries(m), min_size=size, max_size=size)


def pair_in(m):
    return st.integers(min_value=0, max_value=6).flatmap(
        lambda k: st.tuples(vectors(m, k), vectors(m, k)))


same_field_pairs = st.sampled_from(RADICANDS).flatmap(pair_in)


def assert_positive_multiple(xs, code):
    """code holds (p_i + q_i*sqrt(m)) = L*x_i for one rational L > 0."""
    assert isinstance(code, IntVec) and len(code.p) == len(xs)
    assert code.m == next((x.m for x in xs if x.m is not None), None)
    ratios = set()
    for x, p, q in zip(xs, code.p, code.q or [0] * len(xs)):
        y = Scalar(p, q, code.m) if q else Scalar(p)
        if x.is_zero():
            assert y.is_zero()
        else:
            ratios.add(y / x)
    assert len(ratios) <= 1 and all(r.is_rational() and r.sign() > 0 for r in ratios)


@given(same_field_pairs)
def test_sign_matches_dot(pair):
    u, v = pair
    eu, ev = encode(u), encode(v)
    assert_positive_multiple(u, eu)
    assert_positive_multiple(v, ev)
    want = dot(u, v).sign()
    assert dot_sign(eu, ev) == want == dot_sign(ev, eu)
    assert dot_sign(encode([-x for x in u]), ev) == -want
    # a rational vector against one of Q(sqrt(m))
    r = [Scalar(x.a) for x in u]
    assert encode(r).m is None
    assert dot_sign(encode(r), ev) == dot(r, v).sign() == dot_sign(ev, encode(r))


@given(st.sampled_from(RADICANDS).flatmap(
    lambda m: st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda t: t[0] != t[1])
    .flatmap(lambda t: st.tuples(vectors(m, t[0]), vectors(m, t[1])))))
def test_length_mismatch_raises_like_dot(pair):
    """Also where a zip over the integers would truncate the longer
    vector and return a sign."""
    u, v = pair
    with pytest.raises(DimensionMismatchError) as want:
        dot(u, v)
    with pytest.raises(DimensionMismatchError) as got:
        dot_sign(encode(u), encode(v))
    assert str(got.value) == str(want.value)


@given(st.sampled_from([(2, 3), (3, 5), (5, 2)]).flatmap(
    lambda ms: st.integers(min_value=0, max_value=4).flatmap(
        lambda k: st.tuples(st.just(ms), vectors(ms[0], k), vectors(ms[1], k),
                            parts.filter(bool), parts.filter(bool)))))
def test_two_radicals_raise_like_dot(case):
    """Leading entries carrying sqrt(m1) and sqrt(m2) make dot raise on
    its first product; the kernel raises too."""
    (m1, m2), u, v, b1, b2 = case
    u = [Scalar(0, b1, m1)] + u
    v = [Scalar(0, b2, m2)] + v
    with pytest.raises(MixedFieldError):
        dot(u, v)
    with pytest.raises(MixedFieldError):
        dot_sign(encode(u), encode(v))


def test_one_vector_with_two_radicals_does_not_encode():
    with pytest.raises(MixedFieldError):
        encode([Scalar(0, 1, 2), Scalar(0, 1, 3)])
