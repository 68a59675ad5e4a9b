from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylalg import (
    MalformedInputError,
    ONE,
    UndefinedOnZeroError,
    X,
    Y,
    ZERO,
    add,
    commutator,
    from_terms,
    mul,
    power,
    scalar_mul,
    total_degree,
    transpose,
)
from weylalg.oracle import act, max_y_exponent, oracle_mul_check, x_power

from conftest import weyl_elements


class TestFromTerms:
    def test_cancellation(self):
        assert from_terms([(1, 0, 1), (1, 0, -1)]) == ZERO

    def test_coefficient_addition(self):
        assert from_terms([(0, 0, 2), (0, 0, Fraction(1, 2))]) == from_terms(
            [(0, 0, Fraction(5, 2))]
        )

    def test_single_term(self):
        e = from_terms([(2, 1, 1)])
        assert dict(e.terms) == {(2, 1): Fraction(1)}

    def test_negative_exponent_rejected(self):
        with pytest.raises(MalformedInputError):
            from_terms([(-1, 0, 1)])
        with pytest.raises(MalformedInputError):
            from_terms([(0, -2, 1)])


class TestAdd:
    def test_inverse(self):
        assert add(X, -X) == ZERO

    def test_disjoint(self):
        assert add(X, Y) == from_terms([(1, 0, 1), (0, 1, 1)])

    def test_overlap(self):
        xy = mul(X, Y)
        assert add(xy + 1, xy - 1) == 2 * xy


class TestScalarMul:
    def test_zero(self):
        assert scalar_mul(0, from_terms([(2, 1, 1)])) == ZERO

    def test_one(self):
        e = from_terms([(1, 2, Fraction(3, 4)), (0, 0, -2)])
        assert scalar_mul(1, e) == e

    def test_half(self):
        assert scalar_mul(Fraction(1, 2), 2 * X) == X


class TestMul:
    def test_defining_relation(self):
        assert mul(Y, X) == mul(X, Y) + 1

    def test_unit(self):
        e = from_terms([(3, 2, Fraction(-5, 3)), (0, 1, 1)])
        assert mul(e, ONE) == e
        assert mul(ONE, e) == e

    def test_y2_x2(self):
        # two lowering corrections: 1!*C(2,1)*C(2,1) = 4 and 2!*C(2,2)*C(2,2) = 2
        expected = from_terms([(2, 2, 1), (1, 1, 4), (0, 0, 2)])
        assert mul(power(Y, 2), power(X, 2)) == expected
        assert oracle_mul_check(power(Y, 2), power(X, 2))


class TestCommutator:
    def test_y_with_x_cubed(self):
        assert commutator(Y, power(X, 3)) == 3 * power(X, 2)

    def test_self(self):
        e = from_terms([(2, 3, 1), (1, 0, Fraction(1, 2))])
        assert commutator(e, e) == ZERO

    def test_y2_x2(self):
        assert commutator(power(Y, 2), power(X, 2)) == 4 * mul(X, Y) + 2


class TestIntegerKernels:
    def test_zero_operand(self):
        e = from_terms([(2, 3, Fraction(-5, 7)), (0, 1, 1)])
        assert mul(ZERO, e) == ZERO and mul(e, ZERO) == ZERO
        assert commutator(ZERO, e) == ZERO and commutator(e, ZERO) == ZERO

    def test_scalar_operand(self):
        e = from_terms([(2, 3, Fraction(-5, 7)), (0, 1, 1)])
        c = from_terms([(0, 0, Fraction(3, 2))])
        assert mul(c, e) == scalar_mul(Fraction(3, 2), e) == mul(e, c)
        assert commutator(c, e) == ZERO and commutator(e, c) == ZERO

    def test_element_commutes_with_itself_and_its_square(self):
        p = from_terms([(3, 1, Fraction(2, 3)), (0, 2, Fraction(-1, 4)), (1, 0, 5)])
        assert commutator(p, p) == ZERO
        assert commutator(p, power(p, 2)) == ZERO

    def test_result_coefficients_are_canonical(self):
        product = mul(scalar_mul(Fraction(1, 2), X), scalar_mul(Fraction(2, 3), Y))
        expected = from_terms([(1, 1, Fraction(1, 3))])
        assert dict(product.terms) == dict(expected.terms)
        assert all(type(c) is Fraction for c in product.terms.values())
        assert hash(product) == hash(expected)

    def test_coprime_denominators(self):
        a = from_terms([(1, 0, Fraction(1, 4)), (0, 0, Fraction(1, 9))])
        b = from_terms([(0, 1, Fraction(1, 9)), (0, 0, Fraction(1, 4))])
        assert mul(a, b) == from_terms(
            [(1, 1, Fraction(1, 36)), (1, 0, Fraction(1, 16)), (0, 1, Fraction(1, 81)),
             (0, 0, Fraction(1, 36))]
        )
        assert oracle_mul_check(a, b) and oracle_mul_check(b, a)
        assert commutator(a, b) == from_terms([(0, 0, Fraction(-1, 36))])


class TestPower:
    def test_monomial(self):
        assert power(X, 3) == from_terms([(3, 0, 1)])

    def test_zeroth(self):
        assert power(from_terms([(4, 4, -7)]), 0) == ONE

    def test_x2y_squared(self):
        p = from_terms([(2, 1, 1)])
        expected = from_terms([(4, 2, 1), (3, 1, 2)])
        assert power(p, 2) == expected
        assert oracle_mul_check(p, p)

    def test_negative_rejected(self):
        with pytest.raises(MalformedInputError):
            power(X, -1)


class TestTotalDegree:
    def test_values(self):
        assert total_degree(from_terms([(2, 1, 1)])) == 3
        assert total_degree(ONE) == 0
        assert total_degree(from_terms([(4, 2, 1), (3, 1, 2)])) == 6

    def test_zero_rejected(self):
        with pytest.raises(UndefinedOnZeroError):
            total_degree(ZERO)


@settings(max_examples=60, deadline=None)
@given(weyl_elements(), weyl_elements(), weyl_elements())
def test_associativity(a, b, c):
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


@settings(max_examples=60, deadline=None)
@given(weyl_elements(), weyl_elements(), weyl_elements())
def test_distributivity(a, b, c):
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert mul(add(a, b), c) == add(mul(a, c), mul(b, c))


@settings(max_examples=60, deadline=None)
@given(
    weyl_elements(),
    weyl_elements(),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
)
def test_bilinearity_in_scalars(a, b, c):
    assert mul(scalar_mul(c, a), b) == scalar_mul(c, mul(a, b))
    assert mul(a, scalar_mul(c, b)) == scalar_mul(c, mul(a, b))


@settings(max_examples=40, deadline=None)
@given(weyl_elements(), weyl_elements(), weyl_elements())
def test_jacobi_identity(a, b, c):
    total = add(
        add(commutator(a, commutator(b, c)), commutator(b, commutator(c, a))),
        commutator(c, commutator(a, b)),
    )
    assert total == ZERO


@settings(max_examples=60, deadline=None)
@given(weyl_elements(), weyl_elements())
def test_transpose_is_an_involutive_anti_automorphism(a, b):
    assert transpose(transpose(a)) == a
    assert transpose(mul(a, b)) == mul(transpose(b), transpose(a))
    assert (transpose(X), transpose(Y)) == (Y, X)


@settings(max_examples=60, deadline=None)
@given(weyl_elements(), weyl_elements())
def test_product_matches_operator_composition(a, b):
    assert oracle_mul_check(a, b)


def _poly_add(p, q):
    out = [Fraction(0)] * max(len(p), len(q))
    for k, v in enumerate(p):
        out[k] += v
    for k, v in enumerate(q):
        out[k] += v
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _poly_sub(p, q):
    return _poly_add(p, tuple(-v for v in q))


@settings(max_examples=60, deadline=None)
@given(weyl_elements(), weyl_elements())
def test_commutator_matches_operator_bracket(a, b):
    # the actions on x^0 .. x^N determine an element of Y degree at most N
    bracket = commutator(a, b)
    for n in range(max_y_exponent(a) + max_y_exponent(b) + 1):
        p = x_power(n)
        assert act(bracket, p) == _poly_sub(act(a, act(b, p)), act(b, act(a, p)))


@settings(max_examples=40, deadline=None)
@given(weyl_elements(), weyl_elements(), st.integers(min_value=0, max_value=5))
def test_action_is_additive(a, b, n):
    p = x_power(n)
    assert act(add(a, b), p) == _poly_add(act(a, p), act(b, p))
