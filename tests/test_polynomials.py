"""Exact polynomial ring and parser tests."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinecurv.polynomials import (
    Polynomial,
    PolynomialParseError,
    parse_polynomial,
    polynomial_to_string,
    variable_names,
)


def test_constructors():
    z = Polynomial.zero(2)
    assert z.is_zero and z.nvars == 2
    c = Polynomial.constant(Fraction(3, 2), 2)
    assert c.constant_term() == Fraction(3, 2)
    x = Polynomial.variable(0, 2)
    assert x.degree() == 1
    with pytest.raises(ValueError):
        Polynomial.variable(2, 2)


def test_arithmetic_oracle():
    # (x1 + x2)^2 expanded by hand
    x1 = Polynomial.variable(0, 2)
    x2 = Polynomial.variable(1, 2)
    sq = (x1 + x2) ** 2
    assert sq == x1 * x1 + 2 * x1 * x2 + x2 * x2
    assert sq((Fraction(1, 3), Fraction(2, 3))) == Fraction(1)
    assert sq.degree() == 2


def test_diff():
    x1 = Polynomial.variable(0, 2)
    x2 = Polynomial.variable(1, 2)
    p = x1 * x1 * x2 + 3 * x2
    assert p.diff(0) == 2 * x1 * x2
    assert p.diff(1) == x1 * x1 + Polynomial.constant(3, 2)
    assert p.diff(0).diff(1) == 2 * x1


def test_exact_evaluation():
    x1 = Polynomial.variable(0, 1)
    p = x1 ** 3 - x1
    v = p((Fraction(1, 7),))
    assert v == Fraction(1, 343) - Fraction(1, 7)
    assert isinstance(v, Fraction)


def test_embed():
    x1 = Polynomial.variable(0, 1)
    p = (x1 + 1) ** 2
    q = p.embed(3)
    assert q.nvars == 3
    assert q((Fraction(2), Fraction(99), Fraction(-5))) == 9
    with pytest.raises(ValueError):
        p.embed(0)


def test_mixed_number_coefficients():
    x = Polynomial.variable(0, 1)
    p = Fraction(1, 2) * x + 1
    assert p((Fraction(3),)) == Fraction(5, 2)
    assert (p - p).is_zero


def test_variable_names():
    assert variable_names(2) == ("x1", "x2")
    assert variable_names(2, 2) == ("x1", "x2", "y1", "y2")


def test_to_string_formats():
    x1 = Polynomial.variable(0, 2)
    x2 = Polynomial.variable(1, 2)
    assert polynomial_to_string(Polynomial.zero(2)) == "0"
    assert polynomial_to_string(Polynomial.constant(Fraction(-3, 4), 2)) == "-3/4"
    p = Fraction(3, 2) * x1 ** 2 * x2 - x2 + 1
    s = polynomial_to_string(p)
    assert s == "3/2*x1^2*x2 - x2 + 1"


def test_parse_round_trip_handwritten():
    for text in ("x1^2 - 2*x1*x2 + 1", "-x2 + 3/4", "0", "(x1 + 1)*(x1 - 1)"):
        p = parse_polynomial(text, 2)
        assert parse_polynomial(polynomial_to_string(p), 2) == p


def test_parse_errors_with_position():
    with pytest.raises(PolynomialParseError) as err:
        parse_polynomial("x1 + ", 2)
    assert err.value.position == 5
    with pytest.raises(PolynomialParseError):
        parse_polynomial("x3", 2)  # unknown variable at 2 vars
    with pytest.raises(PolynomialParseError):
        parse_polynomial("x1^-2", 2)  # exponents are nonnegative integers
    with pytest.raises(PolynomialParseError):
        parse_polynomial("1/0", 2)
    with pytest.raises(PolynomialParseError):
        parse_polynomial("x1 $ x2", 2)


def test_parse_fiber_variables():
    p = parse_polynomial("y1*x2 - y2^2", 2, fiber_vars=2)
    assert p.nvars == 4
    vals = (Fraction(0), Fraction(3), Fraction(5), Fraction(2))
    assert p(vals) == 15 - 4


# -- ring axioms under random inputs --------------------------------------

coeffs = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
).filter(lambda f: f != 0)


@st.composite
def polys(draw, nvars=2):
    n_terms = draw(st.integers(min_value=0, max_value=4))
    p = Polynomial.zero(nvars)
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(min_value=0, max_value=3)) for _ in range(nvars))
        term = Polynomial.constant(draw(coeffs), nvars)
        for idx, e in enumerate(exps):
            term = term * Polynomial.variable(idx, nvars) ** e
        p = p + term
    return p


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r
    assert (p - p).is_zero


@settings(max_examples=60, deadline=None)
@given(polys())
def test_string_round_trip(p):
    assert parse_polynomial(polynomial_to_string(p), 2) == p


@settings(max_examples=40, deadline=None)
@given(polys(), st.fractions(min_value=-3, max_value=3, max_denominator=5),
       st.fractions(min_value=-3, max_value=3, max_denominator=5))
def test_evaluation_is_ring_map(p, a, b):
    q = p * p + p
    point = (a, b)
    assert q(point) == p(point) * p(point) + p(point)


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_diff_leibniz(p, q):
    assert (p * q).diff(0) == p.diff(0) * q + p * q.diff(0)


# -- canonical form -------------------------------------------------------
#
# __eq__ and __hash__ compare the stored term dicts, so every result must
# store no zero coefficient.


def assert_canonical(p):
    for exps, coeff in p.terms():
        assert len(exps) == p.nvars
        assert isinstance(coeff, Fraction) and coeff != 0


@settings(max_examples=80, deadline=None)
@given(polys(), polys(), st.integers(min_value=0, max_value=1),
       st.integers(min_value=0, max_value=3), coeffs)
def test_results_store_no_zero_coefficient(p, q, index, n, c):
    for r in (p + q, p - q, q - p, -p, p * q, c * p, p + c, c - p,
              p.diff(index), p.embed(4), p ** n, (p - q) * (p + q)):
        assert_canonical(r)
    assert p - p == Polynomial.zero(2)
    assert hash(p - p) == hash(Polynomial.zero(2))
    assert p * Polynomial.zero(2) == Polynomial.zero(2)


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_equal_polynomials_hash_equal(p, q):
    routes = [
        ((p + q) - q, p),
        ((p + q) * (p - q), p * p - q * q),
        ((p * q).diff(0), p.diff(0) * q + p * q.diff(0)),
        ((p - q).embed(3), p.embed(3) - q.embed(3)),
        (p ** 2 - p * p + q, q),
    ]
    for a, b in routes:
        assert a == b
        assert hash(a) == hash(b)


def test_public_constructor_still_validates():
    p = Polynomial(2, {(1, 0): 2, (0, 1): 0, (0, 0): "1/2"})
    assert dict(p.terms()) == {(1, 0): Fraction(2), (0, 0): Fraction(1, 2)}
    with pytest.raises(ValueError):
        Polynomial(2, {(1,): 1})
    with pytest.raises(ValueError):
        Polynomial(2, {(1, -1): 1})
    with pytest.raises(TypeError):
        Polynomial(2, {(1, 0): 0.5})


# -- exponent fields ------------------------------------------------------
#
# A packed monomial gives each variable a 16-bit field whose top bit is a
# guard, so exponents up to 2^15 - 1 are held and anything larger raises
# ValueError instead of carrying into the next variable's field.

TOP = 2**15 - 1


def test_the_largest_exponent_is_held():
    p = Polynomial(2, {(TOP, 0): Fraction(1, 3)})
    assert p.terms() == [((TOP, 0), Fraction(1, 3))]
    assert p.degree() == TOP
    x1 = Polynomial.variable(0, 2)
    assert Polynomial(2, {(TOP - 1, 0): Fraction(1, 3)}) * x1 == p
    assert (p * Polynomial.variable(1, 2)).terms() == [((TOP, 1), Fraction(1, 3))]
    assert parse_polynomial("x2^%d" % TOP, 2) == Polynomial(2, {(0, TOP): 1})


def test_one_past_the_largest_exponent_raises_value_error():
    x1, x2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    top = Polynomial(2, {(TOP, 0): 1})
    with pytest.raises(ValueError, match="exponent 32768 exceeds 32767"):
        Polynomial(2, {(TOP + 1, 0): 1})
    with pytest.raises(ValueError, match="exponent 32768 exceeds"):
        top * x1  # a silent carry would give x2
    with pytest.raises(ValueError, match="exponent 32768 exceeds"):
        (x2 + 1) * top * (x1 - x2)
    with pytest.raises(ValueError, match="exponent 65534 exceeds"):
        top ** 2
    with pytest.raises(ValueError, match="exponent 32768 exceeds"):
        x1 ** (TOP + 1)
    with pytest.raises(ValueError, match="exponent 32768 exceeds"):
        parse_polynomial("x1^32768", 2)
    with pytest.raises(ValueError, match="exponent 1000000 exceeds"):
        parse_polynomial("3*x2^1000000", 2)


@pytest.mark.parametrize("term", [
    Polynomial(3, {(1, 0, 2): Fraction(-2, 3)}),
    Polynomial(3, {(0, 5, 0): 7}),
    Polynomial.constant(Fraction(-5, 4), 3),
    Polynomial.variable(2, 3),
])
def test_a_one_term_power_is_the_repeated_product(term):
    product = Polynomial.constant(1, 3)
    for n in range(7):
        power = term ** n
        assert power == product and hash(power) == hash(product)
        assert power.terms() == product.terms() and power.den == product.den
        product = product * term


def test_a_one_term_power_checks_every_field_before_packing():
    p = Polynomial(3, {(1, TOP // 3, 2): Fraction(1, 2)})
    assert (p ** 3).terms() == [((3, TOP - 1, 6), Fraction(1, 8))]
    with pytest.raises(ValueError, match="exponent 43688 exceeds 32767"):
        p ** 4
    # key * 7 would carry from the middle field into the last one
    with pytest.raises(ValueError, match="exponent 76454 exceeds 32767"):
        p ** 7
    x1 = Polynomial.variable(0, 2)
    assert x1 ** TOP == Polynomial(2, {(TOP, 0): 1})
    with pytest.raises(ValueError, match="exponent 32768 exceeds"):
        (Fraction(1, 3) * x1) ** (TOP + 1)


def test_diff_and_embed_at_the_top_field():
    # the last variable's field is the top one of the packed int
    p = Polynomial(3, {(1, 0, TOP): Fraction(2, 3), (0, 0, 1): 1})
    assert p.diff(2) == Polynomial(3, {(1, 0, TOP - 1): Fraction(2 * TOP, 3), (0, 0, 0): 1})
    assert p.diff(0) == Polynomial(3, {(0, 0, TOP): Fraction(2, 3)})
    q = p.embed(5)
    assert dict(q.terms()) == {(1, 0, TOP, 0, 0): Fraction(2, 3), (0, 0, 1, 0, 0): 1}
    assert q.diff(2) == p.diff(2).embed(5)
    assert (q * Polynomial.variable(3, 5)).diff(3) == q
    with pytest.raises(ValueError, match="exponent 32768 exceeds"):
        q * Polynomial.variable(2, 5)
