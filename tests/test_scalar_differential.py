"""Differential test: the integer-backed Scalar against the Fraction-pair
Scalar it replaced, kept in tests/fraction_scalar.py as the reference."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

import fraction_scalar as ref
from qsecfan import Rational, Scalar, scalar
from qsecfan.errors import DegenerateInputError, MixedFieldError

RADICANDS = (2, 3, 5)

parts = st.one_of(
    st.integers(min_value=-60, max_value=60),
    st.builds(Rational,
              st.integers(min_value=-10**6, max_value=10**6),
              st.integers(min_value=1, max_value=10**4)))


def specs(m):
    """Constructor arguments (a, b, m); b == 0 (a rational scalar) often."""
    return st.tuples(parts, st.one_of(st.just(0), parts), st.just(m))


one = st.sampled_from(RADICANDS).flatmap(specs)
two = st.sampled_from(RADICANDS).flatmap(lambda m: st.tuples(specs(m), specs(m)))


def same(x, r):
    """x (new class) and r (reference) are the same value, seen every way."""
    assert (x.a, x.b, x.m) == (r.a, r.b, r.m)
    assert (type(x.a), type(x.b)) == (type(r.a), type(r.b))
    assert x.is_rational() == r.is_rational() and x.is_zero() == r.is_zero()
    assert x.sign() == r.sign()
    assert hash(x) == hash(r)
    assert float(x) == float(r)
    assert repr(x) == repr(r)
    assert json.dumps(x.to_json()) == json.dumps(r.to_json())
    same_parts(Scalar.from_json(x.to_json()), ref.Scalar.from_json(r.to_json()))


def same_parts(x, r):
    assert (x.a, x.b, x.m) == (r.a, r.b, r.m)


@given(two)
def test_arithmetic_and_order_match(pair):
    s1, s2 = pair
    x, y = Scalar(*s1), Scalar(*s2)
    rx, ry = ref.Scalar(*s1), ref.Scalar(*s2)
    same(x, rx)
    same(y, ry)
    same(x + y, rx + ry)
    same(x - y, rx - ry)
    same(x * y, rx * ry)
    same(-x, -rx)
    same(abs(x), abs(rx))
    if ry.is_zero():
        with pytest.raises(DegenerateInputError):
            y.inv()
        with pytest.raises(DegenerateInputError):
            x / y
    else:
        same(y.inv(), ry.inv())
        same(x / y, rx / ry)
    assert (x == y) == (rx == ry)
    assert (x != y) == (rx != ry)
    assert (x < y) == (rx < ry)
    assert (x <= y) == (rx <= ry)
    assert (x > y) == (rx > ry)
    assert (x >= y) == (rx >= ry)


@given(one, parts)
def test_plain_operands_match(s, c):
    x, rx = Scalar(*s), ref.Scalar(*s)
    same(Scalar.coerce(c), ref.Scalar.coerce(c))
    same(x + c, rx + c)
    same(c + x, c + rx)
    same(x - c, rx - c)
    same(c - x, c - rx)
    same(x * c, rx * c)
    same(c * x, c * rx)
    if c != 0:
        same(x / c, rx / c)
    if not rx.is_zero():
        same(c / x, c / rx)
    assert (x == c) == (rx == c)
    assert (x < c) == (rx < c)
    assert (x >= c) == (rx >= c)


@given(parts, parts, st.sampled_from(RADICANDS), st.integers(min_value=1, max_value=7))
def test_constructor_canonicalisation_matches(a, b, m, k):
    # a square factor k^2 moves out of the radical; a perfect square
    # radicand k^2 makes the value rational
    same(Scalar(a, b, m * k * k), ref.Scalar(a, b, m * k * k))
    same(Scalar(a, b, k * k), ref.Scalar(a, b, k * k))


def test_constructor_canonicalisation_examples():
    assert Scalar(0, 1, 8) == Scalar(0, 2, 2)
    same(Scalar(0, 1, 8), ref.Scalar(0, 1, 8))
    for m, root in ((4, 2), (9, 3)):
        assert Scalar(0, 1, m).is_rational() and Scalar(0, 1, m) == Scalar(root)
        same(Scalar(0, 1, m), ref.Scalar(0, 1, m))
    for m in RADICANDS:
        x = Scalar(1, 1, m) - Scalar(0, 1, m)
        assert x.m is None and x == Scalar(1)
        same(x, ref.Scalar(1, 1, m) - ref.Scalar(0, 1, m))
        same(Scalar(3, 0, m), ref.Scalar(3, 0, m))


def test_coerce_matches_on_int_subclasses_and_strings():
    for c in (True, False, "2/7", "-3", Rational(6, 4)):
        same(Scalar.coerce(c), ref.Scalar.coerce(c))
    for bad in (1.5, None):
        with pytest.raises(TypeError):
            Scalar.coerce(bad)
        with pytest.raises(TypeError):
            ref.Scalar.coerce(bad)


def test_mixed_fields_raise_in_both():
    for cls in (Scalar, ref.Scalar):
        x, y = cls(1, 1, 2), cls(0, 1, 3)
        for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x < y):
            with pytest.raises(MixedFieldError):
                op()


P61 = 2**61 - 1  # sys.hash_info.modulus on 64-bit builds


@pytest.mark.parametrize("a, b", [
    (-1, 0), (-1, 1), (1, -1), (-1, -1), (Rational(-1, 2), Rational(-1, 2)),
    # denominators that are multiples of the hash modulus
    (Rational(1, P61), 0), (Rational(-3, 2 * P61), 0), (Rational(P61 + 1, 2 * P61), 0),
    (1, Rational(1, P61)), (Rational(-5, 7 * P61), Rational(2, 3 * P61)),
    # p or q sharing a factor with the common denominator
    (Rational(1, 2), Rational(1, 3)), (Rational(5, 6), Rational(1, 10)),
    (Rational(1, 6), Rational(-1, 4)), (0, Rational(7, 12)), (Rational(3, 4), 2),
])
@pytest.mark.parametrize("m", RADICANDS)
def test_hash_edge_cases_match(a, b, m):
    x, r = Scalar(a, b, m), ref.Scalar(a, b, m)
    same(x, r)
    assert hash(x) == hash((r.a, r.b, r.m) if r.b else r.a)


def test_minus_one_hashes_to_minus_two():
    """hash() never returns -1, which CPython keeps for errors."""
    assert hash(Scalar(-1)) == hash(ref.Scalar(-1)) == hash(-1) == -2


def from_json_via_fractions(data):
    """Scalar.from_json as it read every entry: a Fraction for a and for b,
    then the constructor, which builds both again; m is checked first, and
    a zero denominator is invalid input."""
    parts = {"a": data} if isinstance(data, (int, str)) else data
    if not isinstance(parts, dict) or any(type(parts.get(k)) in (bool, float) for k in "abm"):
        raise ValueError(f"not a scalar encoding: {data!r}")
    a, b, m = parts["a"], parts.get("b", 0), parts.get("m")
    if m is not None and not (type(m) is int and 0 < m <= scalar.MAX_RADICAND):
        raise ValueError(f"radicand must lie in 1..{scalar.MAX_RADICAND}, got {m!r}")
    try:
        a, b = Rational(a), Rational(b)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in a scalar encoding: {data!r}") from None
    return Scalar(a, b, m)


def read(parse, data):
    """repr of the parsed scalar, or the type and text of what it raised."""
    try:
        return repr(parse(data))
    except Exception as exc:  # the rejections are compared, whatever they are
        return type(exc).__name__, str(exc)


digits = st.integers(min_value=-10**30, max_value=10**30)
texts = st.one_of(
    digits.map(str),
    st.tuples(digits, st.integers(min_value=-5, max_value=10**12)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(["+3", " 4", "5 ", "1.5", "-2e3", "1_000", "3/0", "0/7", "-0", "007/014",
                     "٣", "3/٤", "", "/", "2/", "x", "1/2/3", "- 1"]),
    st.text(alphabet="0123456789-+/. e_", max_size=8))
entries = st.one_of(digits, texts, st.booleans(), st.floats(allow_nan=False), st.none(),
                    st.just([1]))
objects = st.fixed_dictionaries({"a": entries}, optional={
    "b": st.one_of(st.just(0), st.just("0"), entries),
    "m": st.one_of(st.integers(min_value=-3, max_value=10**15),
                   st.sampled_from(["2", "12", "x", "", None, [2], 2.0, True]))})


@given(st.one_of(entries, objects, st.fixed_dictionaries({"b": entries})))
def test_from_json_matches_the_fraction_route(data):
    """Plain ints and "p/q" texts are read straight into the integer fields;
    every value and every rejection is the one the Fraction route gives."""
    assert read(Scalar.from_json, data) == read(from_json_via_fractions, data)


@given(st.integers(min_value=1, max_value=scalar.MAX_RADICAND),
       st.integers(min_value=scalar.MAX_RADICAND + 1, max_value=10**15))
def test_radicands_above_the_bound_are_rejected(m, big):
    """Trial division to sqrt(m) is bounded: m = 10^12 + 39 once took 0.18 s
    to factor; a radicand up to the bound is factored as before."""
    same(Scalar.from_json({"a": 1, "b": "1/2", "m": m}), ref.Scalar(1, Rational(1, 2), m))
    for build in (lambda: Scalar.from_json({"a": 1, "b": "1/2", "m": big}),
                  lambda: Scalar(0, 1, big), lambda: Scalar.sqrt(big)):
        with pytest.raises(ValueError, match="radicand must lie in 1..4294967296"):
            build()


def test_from_json_builds_no_fraction_for_a_rational_entry(monkeypatch):
    cases = (3, -12, "4", "-6/8", "007/014", {"a": "1/3"}, {"a": 5, "b": 0, "m": 2})

    def no_fraction(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(scalar, "Rational", no_fraction)
    got = [Scalar.from_json(data) for data in cases]
    monkeypatch.undo()
    assert [repr(x) for x in got] == [read(from_json_via_fractions, data) for data in cases]
