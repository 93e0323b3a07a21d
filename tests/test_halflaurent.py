"""Ring axioms, the bar involution and exact division for HalfLaurent."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from almostchar.halflaurent import (
    ONE,
    U,
    ZERO,
    HalfLaurent,
    _from_clean,
    half_power,
    hl_exact_div,
    u_power,
)

coeffs = st.builds(
    Fraction,
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=1, max_value=8),
)
polys = st.builds(
    HalfLaurent,
    st.lists(st.tuples(st.integers(min_value=-10, max_value=10), coeffs), max_size=6),
)


@given(polys, polys, polys)
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x
    assert x * ONE == x
    assert x - x == ZERO


@given(polys, polys)
def test_bar_is_a_ring_homomorphism(x, y):
    assert (x * y).bar() == x.bar() * y.bar()
    assert (x + y).bar() == x.bar() + y.bar()


@given(polys)
def test_bar_is_an_involution(x):
    assert x.bar().bar() == x


def test_bar_on_generators():
    # u^(1/2) maps to -u^(-1/2), and that makes U a fixed point of bar
    assert half_power(1).bar() == half_power(-1, -1)
    assert U.bar() == U
    assert ONE.bar() == ONE


@given(polys, polys)
def test_eval_one_is_multiplicative_and_additive(x, y):
    assert (x * y).eval_one() == x.eval_one() * y.eval_one()
    assert (x + y).eval_one() == x.eval_one() + y.eval_one()


def test_eval_one_examples():
    assert U.eval_one() == 0
    assert u_power(3, 5).eval_one() == 5
    assert ZERO.eval_one() == 0


@given(polys, polys)
def test_product_divides_exactly(x, y):
    if y.is_zero():
        return
    assert hl_exact_div(x * y, y) == x


def test_division_failures():
    with pytest.raises(ValueError):
        hl_exact_div(half_power(1) + ONE, U)
    with pytest.raises(ZeroDivisionError):
        hl_exact_div(ONE, ZERO)
    assert hl_exact_div(ZERO, U) == ZERO


def test_division_creates_an_exact_fraction():
    q = hl_exact_div(u_power(1), half_power(0, 2))
    assert q.terms == {2: Fraction(1, 2)}
    assert type(q.terms[2]) is Fraction


def test_division_by_units():
    # every monomial is invertible in the Laurent ring
    x = u_power(2, 3) + half_power(-5, Fraction(1, 2))
    q = hl_exact_div(x, half_power(3, -2))
    assert q * half_power(3, -2) == x


def test_u_squared_identity():
    assert U * U == u_power(1) - 2 * ONE + u_power(-1)


@given(polys)
def test_json_roundtrip(x):
    assert HalfLaurent.from_json_obj(x.to_json_obj()) == x


def test_json_encoding_is_sorted_and_reduced():
    x = HalfLaurent([(3, Fraction(2, 4)), (-1, 7), (3, Fraction(1, 2))])
    obj = x.to_json_obj()
    assert obj == {
        "terms": [
            {"halfexp": -1, "num": 7, "den": 1},
            {"halfexp": 3, "num": 1, "den": 1},
        ]
    }


def test_zero_terms_are_dropped():
    assert HalfLaurent([(2, 1), (2, -1)]) == ZERO
    assert not HalfLaurent([(5, 0)])


@pytest.mark.parametrize(
    "terms",
    [
        [(0, 0.1)],  # a float would be stored as its binary expansion
        [(1, "1/3")],  # a string would be parsed
        [(0, True)],
        [(0.5, 1)],  # a float exponent would be truncated to 0
        [(True, 1)],
        [(Fraction(2), 1)],
        {2.0: 1},
    ],
)
def test_constructor_refuses_non_exact_input(terms):
    with pytest.raises(TypeError):
        HalfLaurent(terms)


def test_monomial_builders_refuse_non_exact_input():
    with pytest.raises(TypeError):
        u_power(1, 0.1)
    with pytest.raises(TypeError):
        half_power(0.5)


def test_exact_builders_still_construct():
    x = HalfLaurent.from_json_obj({"terms": [{"halfexp": 2, "num": 6, "den": 2}]})
    assert x.terms == {2: 3} and type(x.terms[2]) is int
    q = hl_exact_div(u_power(1) - ONE, half_power(1) - ONE)
    assert q == half_power(1) + ONE and all(type(c) is int for c in q.terms.values())
    assert (Fraction(1, 3) * u_power(1)).terms == {2: Fraction(1, 3)}
    assert (u_power(1) * Fraction(4, 2)).terms == {2: 2}


def test_scalar_multiplication_and_pow():
    x = u_power(1) + ONE
    assert 2 * x == x + x
    assert Fraction(1, 2) * (x + x) == x
    assert x ** 0 == ONE
    assert x ** 3 == x * x * x
    with pytest.raises(ValueError):
        x ** -1


@pytest.mark.parametrize("flag", [True, False])
def test_scalar_multiplication_refuses_a_bool(flag):
    for x in (u_power(1), U, ZERO):
        with pytest.raises(TypeError):
            flag * x
        with pytest.raises(TypeError):
            x * flag


@pytest.mark.parametrize("scalar", [1, 0, Fraction(1, 2), True, 1.0])
def test_adding_a_scalar_is_a_type_error_in_either_order(scalar):
    # a scalar multiplies a polynomial but is never added to one: write
    # x + scalar * ONE
    for x in (u_power(1), U, ZERO):
        with pytest.raises(TypeError):
            x + scalar
        with pytest.raises(TypeError):
            scalar + x
        with pytest.raises(TypeError):
            x - scalar
        with pytest.raises(TypeError):
            scalar - x


@pytest.mark.parametrize("power", [True, False, 1.0, 2.5, Fraction(2), "2"])
def test_pow_refuses_an_exponent_that_is_not_an_int(power):
    for x in (u_power(1), U, ZERO):
        with pytest.raises(TypeError):
            x ** power


def test_hashable_and_usable_as_dict_key():
    table = {U: "strip factor", ONE: "unit"}
    assert table[HalfLaurent([(1, 1), (-1, -1)])] == "strip factor"


@given(
    st.dictionaries(st.integers(min_value=-10, max_value=10), coeffs, max_size=7).flatmap(
        lambda d: st.tuples(st.permutations(list(d.items())), st.permutations(list(d.items())))
    )
)
def test_value_does_not_depend_on_term_order(orders):
    first, second = orders
    x, y = HalfLaurent(first), HalfLaurent(second)
    # reduced terms in the second order, handed over as the trace engine does
    fused = _from_clean({k: x.terms[k] for k, _ in second if k in x.terms})
    memo = {("entry", 1): x}  # stored as a memo value, before any hash
    table = {memo[("entry", 1)]: "value"}
    assert table[y] == table[fused] == "value"
    for z in (y, fused):
        assert x == z and hash(x) == hash(z)
        assert x.to_json_obj() == z.to_json_obj()
        assert (repr(x), str(x)) == (repr(z), str(z))
        assert list(x.terms) == list(z.terms) == sorted(z.terms)
    assert {x, y, fused} == {x}


@settings(max_examples=30)
@given(polys)
def test_str_of_nonzero_is_nonempty(x):
    assert str(x)
    assert str(ZERO) == "0"


@pytest.mark.parametrize(
    "halfexp, text",
    [
        (-3, "u^{-3/2}"),
        (-2, "u^-1"),
        (-1, "u^-1/2"),
        (0, "1"),
        (1, "u^1/2"),
        (2, "u"),
        (3, "u^{3/2}"),
    ],
)
def test_str_of_monomials(halfexp, text):
    assert str(half_power(halfexp)) == text
    assert str(half_power(halfexp, -3)) == ("-3*" + text if halfexp else "-3")
