import numpy as np
import pytest
from fractions import Fraction
from math import atan2, pi

from hypothesis import assume, given, settings, strategies as st

from oscillab.poly import (
    ParseError, Polynomial, circle_zeros, multiple_real_roots, parse, real_root_multiplicity,
    real_roots,
)


def test_parse_basic():
    p = parse("x1^2 + 3*x2", 2)
    assert p.terms == {(2, 0): Fraction(1), (0, 1): Fraction(3)}


def test_parse_rational_and_decimal_coefficients():
    p = parse("1/2*x1 + 0.25*x2", 2)
    assert p.terms == {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 4)}


def test_parse_parentheses_and_expansion():
    p = parse("(x1 - x2)^2", 2)
    assert p.terms == {(2, 0): Fraction(1), (1, 1): Fraction(-2), (0, 2): Fraction(1)}


def test_parse_unary_minus():
    p = parse("-x1 + x2", 2)
    assert p.terms[(1, 0)] == -1


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse("x1 + @", 2)
    assert exc.value.position in (4, 5)  # scanner may point at the space before '@'
    with pytest.raises(ParseError):
        parse("x3", 2)          # variable out of range
    with pytest.raises(ParseError):
        parse("x1^(1/2)", 2)    # fractional exponent
    with pytest.raises(ParseError):
        parse("x1 + ", 2)


def test_cancellation_removes_terms():
    p = parse("x1 - x1", 1)
    assert p.is_zero()


def test_ring_ops():
    x1 = Polynomial.variable(2, 1)
    x2 = Polynomial.variable(2, 2)
    p = (x1 + x2) * (x1 - x2)
    assert p == parse("x1^2 - x2^2", 2)
    assert (x1 + x2) ** 3 == parse("x1^3 + 3*x1^2*x2 + 3*x1*x2^2 + x2^3", 2)


def test_partial_derivative():
    p = parse("x1^3*x2 + x2^2", 2)
    assert p.partial(1) == parse("3*x1^2*x2", 2)
    assert p.partial(2) == parse("x1^3 + 2*x2", 2)


def test_evaluate_scalar_and_array():
    p = parse("x1^2 + 2*x2", 2)
    assert p.evaluate([3.0, 4.0]) == pytest.approx(17.0)
    xs = np.array([0.0, 1.0, 2.0])
    out = p.evaluate([xs, xs])
    assert np.allclose(out, xs**2 + 2 * xs)


def test_homogeneous_degree():
    assert parse("x1^4 + x2^4", 2).homogeneous_degree() == 4
    assert parse("x1^2 + x2^4", 2).homogeneous_degree() is None
    with pytest.raises(ValueError):
        Polynomial.zero(2).homogeneous_degree()


def test_restrict_to_weights():
    p = parse("x1^2 + x2^4 + x1*x2^3", 2)
    face = p.restrict_to_weights([Fraction(1, 2), Fraction(1, 4)], 1)
    assert face == parse("x1^2 + x2^4", 2)
    with pytest.raises(ValueError):
        p.restrict_to_weights([Fraction(1), Fraction(1)], 1)  # terms below level


def test_axis_parts():
    parts, const = parse("3*x1^2 - x1^4 + 2/3 + 5*x3", 3).axis_parts()
    assert parts == [parse("3*x1^2 - x1^4", 1), Polynomial.zero(1), parse("5*x1", 1)]
    assert const == Fraction(2, 3)
    assert parse("x1^2 + x2^2", 2).axis_parts()[1] == 0
    assert parse("x1^2 + x1*x2 + x2^4", 2).axis_parts() is None


def test_real_roots_of_known_polynomials():
    # 2 x^3 (2 + 3 x^2): a triple root at 0 and two imaginary ones
    assert real_roots(parse("4*x1^3 + 6*x1^5", 1)) == [0.0]
    assert real_roots(parse("x1^2 - 2", 1)) == [-np.sqrt(2.0), np.sqrt(2.0)]
    assert real_roots(parse("(x1 - 1)^3*(x1 + 3)^2*(3*x1 - 1)", 1)) == [-3.0, 1 / 3, 1.0]
    # no real roots, on the whole line or on an interval
    assert real_roots(parse("x1^2 + 1", 1)) == []
    assert real_roots(parse("x1^2 - 2", 1), -1, 1) == []
    assert real_roots(parse("7", 1)) == []


def test_multiple_real_roots():
    assert multiple_real_roots(parse("(x1 - 1)^3*(x1 + 3)^2*(3*x1 - 1)", 1)) == [-3.0, 1.0]
    assert multiple_real_roots(parse("x1^3*(x1^2 - 2)^2", 1)) == [-np.sqrt(2.0), 0.0, np.sqrt(2.0)]
    # squarefree, or repeated only over C
    assert multiple_real_roots(parse("x1^3 - x1", 1)) == []
    assert multiple_real_roots(parse("(x1^2 + 1)^2", 1)) == []
    assert multiple_real_roots(parse("7", 1)) == []


def test_real_root_multiplicity():
    assert real_root_multiplicity(parse("(x1 - 1)^3*(x1 + 3)^2*(3*x1 - 1)", 1)) == 3
    assert real_root_multiplicity(parse("x1^3 - x1", 1)) == 1
    # a multiplicity over C only does not count
    assert real_root_multiplicity(parse("(x1^2 + 1)^4*(x1 - 2)^2", 1)) == 2
    assert real_root_multiplicity(parse("(x1^2 + 1)^2", 1)) == 0
    assert real_root_multiplicity(parse("7", 1)) == 0


def test_real_roots_at_the_interval_ends():
    p = parse("2*x1 - 1/2*x1^3", 1)  # roots -2, 0, 2
    assert real_roots(p, -2, 2) == [-2.0, 0.0, 2.0]
    assert real_roots(p, 0, 2) == [0.0, 2.0]
    assert real_roots(p, -2, -2) == [-2.0]
    assert real_roots(p, -1.5, 1.5) == [0.0]


def test_real_roots_validation():
    with pytest.raises(ValueError):
        real_roots(Polynomial.zero(1))
    with pytest.raises(ValueError):
        real_roots(parse("x1 + x2", 2))
    with pytest.raises(ValueError):
        real_roots(parse("x1", 1), 1, -1)


def test_circle_zeros():
    assert circle_zeros(parse("x1^2 + x2^2", 2)) == []
    assert circle_zeros(parse("x1^4 + x1^2*x2^2 + x2^4", 2)) == []
    assert circle_zeros(parse("x1^2 - x2^2", 2)) == pytest.approx(
        [pi / 4, 3 * pi / 4, 5 * pi / 4, 7 * pi / 4], rel=1e-15)
    # a double real line: no sign change, but two zeros
    assert circle_zeros(parse("(x1 - 3*x2)^2*(x1^2 + x2^2)", 2)) == pytest.approx(
        [atan2(1, 3), atan2(1, 3) + pi], rel=1e-15)
    # the line x2 = 0 shows only as f(1, 0) = 0
    assert circle_zeros(parse("x2^2*(x1^2 + x2^2)", 2)) == [0.0, pi]
    assert circle_zeros(parse("x1*x2", 2)) == [0.0, pi / 2, pi, 3 * pi / 2]
    with pytest.raises(ValueError):
        circle_zeros(parse("x1^2 + x2^2 + x3^2", 3))
    with pytest.raises(ValueError):
        circle_zeros(parse("x1^2 + x2^4", 2))


@given(st.lists(st.integers(-20, 20), min_size=2, max_size=7))
@settings(max_examples=80, deadline=None)
def test_real_roots_match_numpy_on_squarefree_integer_polynomials(coeffs):
    # coeffs run lowest degree first; numpy.roots wants the highest first
    assume(coeffs[-1] != 0)
    z = np.roots(coeffs[::-1])
    # roots at least 1e-3 apart: squarefree, and each complex pair has
    # |imag| >= 5e-4, so numpy's real roots are the ones with imag == 0
    assume(all(abs(a - b) >= 1e-3 for i, a in enumerate(z) for b in z[i + 1 :]))
    expected = np.sort(z[z.imag == 0].real)
    p = Polynomial(1, {(k,): c for k, c in enumerate(coeffs)})
    got = real_roots(p)
    assert len(got) == len(expected)
    assert np.allclose(got, expected, rtol=1e-8, atol=1e-10)
    assert got == sorted(got)


def test_substitute_one():
    p = parse("x1^4 + x2^4", 2)
    assert p.substitute_one(1) == parse("1 + x1^4", 1)
    assert p.substitute_one(2) == parse("x1^4 + 1", 1)


def test_str_is_parseable_normal_form():
    p = parse("x2^4 + 2*x1*x2 - 1/3", 2)
    assert parse(str(p), 2) == p


@st.composite
def polynomials(draw, n=2, max_terms=5, max_exp=4):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        exp = tuple(draw(st.integers(0, max_exp)) for _ in range(n))
        coeff = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 5)))
        terms[exp] = coeff
    return Polynomial(n, terms)


@given(polynomials())
@settings(max_examples=60, deadline=None)
def test_text_round_trip(p):
    assert parse(str(p), p.n) == p


@given(polynomials(), st.lists(st.floats(-2, 2), min_size=2, max_size=2))
@settings(max_examples=60, deadline=None)
def test_gradient_matches_central_differences(p, point):
    h = 1e-6
    grad = [p.partial(i).evaluate(point) for i in (1, 2)]
    for i in range(2):
        lo = list(point)
        hi = list(point)
        lo[i] -= h
        hi[i] += h
        fd = (p.evaluate(hi) - p.evaluate(lo)) / (2 * h)
        assert grad[i] == pytest.approx(fd, abs=1e-4, rel=1e-4)


@given(polynomials(), polynomials())
@settings(max_examples=40, deadline=None)
def test_product_evaluation_homomorphism(p, q):
    point = [0.7, -1.3]
    assert (p * q).evaluate(point) == pytest.approx(
        p.evaluate(point) * q.evaluate(point), rel=1e-9, abs=1e-9
    )
