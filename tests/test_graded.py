from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylalg import (
    GradedForm,
    MalformedInputError,
    NotHomogeneousError,
    ONE,
    UndefinedOnZeroError,
    X,
    XYPolynomial,
    Y,
    Z,
    ZERO,
    evaluate_at_element,
    from_graded_form,
    from_terms,
    homogeneous_components,
    is_homogeneous,
    mul,
    power,
    to_graded_form,
)
from weylalg.oracle import act, oracle_equal, poly_from_coeffs, x_power

from conftest import weyl_elements

xy_polys = st.builds(
    XYPolynomial,
    st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=6), max_size=9),
)


class TestTupleType:
    """An XYPolynomial is the tuple of its coefficients, with a polynomial's operators."""

    @settings(max_examples=60, deadline=None)
    @given(xy_polys)
    def test_equals_its_plain_tuple(self, f):
        plain = tuple(f)
        assert f == plain and plain == f and hash(f) == hash(plain)
        assert all(type(c) is Fraction for c in f) and (not f or f[-1])

    def test_equality_hash_and_truth_come_from_the_tuple(self):
        assert not {"__eq__", "__hash__", "__bool__"} & set(vars(XYPolynomial))
        assert XYPolynomial([1, 0, 0]) == (1,) and len(XYPolynomial([0, 0])) == 0
        assert not XYPolynomial() and XYPolynomial([0, 1])
        assert XYPolynomial([1]) < XYPolynomial([1, 1]) < XYPolynomial([2])

    def test_a_constant_is_not_a_number(self):
        assert XYPolynomial([3]) != 3 and XYPolynomial() != 0
        assert XYPolynomial([3]) == (3,)

    def test_operators_add_and_scale(self):
        f, g = XYPolynomial([1, 2]), XYPolynomial([0, 0, 3])
        assert 3 * f == f * 3 == (3, 6)
        assert f + g == g + f == (1, 2, 3) and f - g == (1, 2, -3)
        # a plain tuple is a polynomial too: it adds, and is not concatenated
        assert f + (1, 1) == (1, 1) + f == (2, 3) and (0, 1) * f == (0, 1, 2)
        assert all(type(h) is XYPolynomial for h in (3 * f, f * 3, f + g, f - g, (1, 1) + f))
        with pytest.raises(TypeError):
            f * 1.5

    @settings(max_examples=60, deadline=None)
    @given(xy_polys, xy_polys, st.fractions(max_denominator=9))
    def test_operators_act_on_coefficients(self, f, g, c):
        n = max(len(f), len(g))
        assert f + g == XYPolynomial(f.coefficient(m) + g.coefficient(m) for m in range(n))
        assert c * f == f * c == XYPolynomial(c * v for v in f)
        assert f - g + g == f


class TestHomogeneousComponents:
    def test_two_pieces(self):
        assert homogeneous_components(X + power(Y, 2)) == {1: X, -2: power(Y, 2)}

    def test_single_piece(self):
        e = mul(X, Y) + 1
        assert homogeneous_components(e) == {0: e}

    def test_zero(self):
        assert homogeneous_components(ZERO) == {}


class TestIsHomogeneous:
    def test_monomial(self):
        assert is_homogeneous(from_terms([(2, 1, 1)]))

    def test_mixed(self):
        assert not is_homogeneous(X + power(Y, 2))

    def test_one_diagonal(self):
        assert is_homogeneous(from_terms([(4, 2, 1), (3, 1, 2)]))

    def test_zero_rejected(self):
        with pytest.raises(UndefinedOnZeroError):
            is_homogeneous(ZERO)


class TestToGradedForm:
    def test_x2y(self):
        assert to_graded_form(from_terms([(2, 1, 1)])) == GradedForm(1, Z)

    def test_x2y2(self):
        got = to_graded_form(from_terms([(2, 2, 1)]))
        assert got == GradedForm(0, Z * Z - Z)
        assert oracle_equal(from_graded_form(got), from_terms([(2, 2, 1)]))

    def test_y(self):
        assert to_graded_form(Y) == GradedForm(-1, XYPolynomial([1]))

    def test_not_homogeneous(self):
        with pytest.raises(NotHomogeneousError):
            to_graded_form(X + Y)


class TestFromGradedForm:
    def test_x2y(self):
        assert from_graded_form(GradedForm(1, Z)) == from_terms([(2, 1, 1)])

    def test_constant(self):
        assert from_graded_form(GradedForm(0, XYPolynomial([1]))) == ONE

    def test_square_of_x2y(self):
        got = from_graded_form(GradedForm(2, Z * (Z + 1)))
        expected = from_terms([(4, 2, 1), (3, 1, 2)])
        assert got == expected
        assert oracle_equal(got, power(from_terms([(2, 1, 1)]), 2))

    def test_zero_poly_rejected(self):
        with pytest.raises(MalformedInputError):
            GradedForm(1, XYPolynomial())


class TestShift:
    def test_linear(self):
        assert Z.shift(3) == Z + 3

    def test_identity(self):
        f = XYPolynomial([1, Fraction(-2, 3), 0, 5])
        assert f.shift(0) == f

    def test_square(self):
        assert (Z * Z).shift(1) == Z * Z + 2 * Z + 1


def test_falling_factorial_law():
    prod = XYPolynomial([1])
    assert from_graded_form(GradedForm(0, prod)) == ONE
    for a in range(1, 11):
        prod = prod * (Z - (a - 1))
        assert from_graded_form(GradedForm(0, prod)) == mul(power(X, a), power(Y, a))


@settings(max_examples=80, deadline=None)
@given(xy_polys.filter(bool), st.integers(min_value=-5, max_value=5))
def test_graded_form_roundtrip(f, grade):
    form = GradedForm(grade, f)
    back = to_graded_form(from_graded_form(form))
    assert back == form


@settings(max_examples=80, deadline=None)
@given(xy_polys.filter(bool), st.integers(min_value=-6, max_value=6))
def test_graded_form_acts_on_x_powers(f, grade):
    """Through the differential-operator action, which shares no code with the conversions.

    X^g f(XY) sends x^n to f(n) x^(n+g), and f(XY) Y^s sends x^n to
    n (n-1) ... (n-s+1) f(n-s) x^(n-s); n = 0 .. deg f + s reaches every
    Y exponent of the element.
    """
    element = from_graded_form(GradedForm(grade, f))
    s = max(-grade, 0)
    for n in range(f.degree + s + 1):
        value = prod(range(n - s + 1, n + 1)) * f(n - s)
        expected = poly_from_coeffs([0] * (n + grade) + [value])
        assert act(element, x_power(n)) == expected


@settings(max_examples=80, deadline=None)
@given(
    xy_polys,
    st.fractions(min_value=-5, max_value=5, max_denominator=5),
    st.lists(st.fractions(min_value=-7, max_value=7, max_denominator=7), min_size=1, max_size=4),
)
def test_shift_evaluates_at_the_shifted_point(f, s, points):
    g = f.shift(s)
    for z in points:
        assert g(z) == f(z + s)


@settings(max_examples=60, deadline=None)
@given(weyl_elements(nonzero=True))
def test_components_sum_back(p):
    total = ZERO
    for g, component in homogeneous_components(p).items():
        assert is_homogeneous(component)
        assert to_graded_form(component).grade == g
        total = total + component
    assert total == p


@settings(max_examples=60, deadline=None)
@given(
    st.builds(
        XYPolynomial,
        st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=4), max_size=9),
    ).filter(bool),
    st.integers(min_value=0, max_value=6),
)
def test_shift_identities_as_elements(f, j):
    fxy = from_graded_form(GradedForm(0, f))
    shifted = from_graded_form(GradedForm(0, f.shift(j)))
    # f(XY) X^j = X^j f(XY + j)
    assert mul(fxy, power(X, j)) == mul(power(X, j), shifted)
    # Y^j f(XY) = f(XY + j) Y^j
    assert mul(power(Y, j), fxy) == mul(shifted, power(Y, j))


@settings(max_examples=60, deadline=None)
@given(weyl_elements(nonzero=True), weyl_elements(nonzero=True))
def test_product_of_homogeneous_is_homogeneous(a, b):
    for ga, ca in homogeneous_components(a).items():
        for gb, cb in homogeneous_components(b).items():
            prod = mul(ca, cb)
            assert is_homogeneous(prod)
            assert to_graded_form(prod).grade == ga + gb


def test_evaluate_at_element():
    f = Z * Z - 3
    s = X + power(Y, 2)
    assert evaluate_at_element(f, s) == mul(s, s) - 3
    assert evaluate_at_element(XYPolynomial(), s) == ZERO


def horner_by_fractions(f, s):
    """f(s) by acc = acc*s + c on elements: a Fraction after every step."""
    acc = ZERO
    for c in reversed(f):
        acc = mul(acc, s) + c
    return acc


@settings(max_examples=60, deadline=None)
@given(xy_polys, weyl_elements())
def test_evaluate_at_element_is_the_fraction_horner_scheme(f, s):
    assert evaluate_at_element(f, s) == horner_by_fractions(f, s)


def test_evaluate_at_element_with_fractions():
    f = XYPolynomial([Fraction(1, 2), Fraction(-3, 7), 0, Fraction(5, 4)])
    s = Fraction(1, 3) * X + Fraction(1, 2) * Y + Fraction(1, 5)
    assert evaluate_at_element(f, s) == horner_by_fractions(f, s)
    assert evaluate_at_element(f, Fraction(2, 3) * ONE) == f(Fraction(2, 3))
    assert evaluate_at_element(f, ZERO) == Fraction(1, 2)
