from fractions import Fraction
from math import factorial

import hypothesis.strategies as st
from hypothesis import given, settings

from weylalg import ONE, WeylElement, X, Y, from_terms, mul, power
from weylalg.oracle import (
    act,
    max_y_exponent,
    oracle_equal,
    oracle_mul_check,
    poly_from_coeffs,
    x_power,
)

from conftest import weyl_elements


class TestAct:
    def test_differentiation(self):
        assert act(Y, x_power(3)) == poly_from_coeffs([0, 0, 3])

    def test_euler_operator(self):
        xy = mul(X, Y)
        for n in range(6):
            assert act(xy, x_power(n)) == poly_from_coeffs([0] * n + [n])

    def test_composition_matches_normal_form(self):
        left = mul(power(Y, 2), power(X, 2))
        # acting with the normal form and composing the factor actions agree
        composed = act(power(Y, 2), act(power(X, 2), x_power(2)))
        assert act(left, x_power(2)) == composed == poly_from_coeffs([0, 0, 12])


def _act_per_term(a: WeylElement, p) -> tuple[Fraction, ...]:
    """Reference action: each term differentiates p again, j times."""
    acc: dict[int, Fraction] = {}
    for (i, j), c in a.terms.items():
        q = p
        for _ in range(j):
            q = tuple(Fraction(n) * v for n, v in enumerate(q))[1:]
        for n, v in enumerate(q):
            if v:
                acc[n + i] = acc.get(n + i, Fraction(0)) + c * v
    return poly_from_coeffs([acc.get(n, 0) for n in range(max(acc, default=-1) + 1)])


@settings(max_examples=80, deadline=None)
@given(
    weyl_elements(max_exp=12, max_terms=6),
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=9), max_size=16),
)
def test_act_matches_per_term_differentiation(a, coeffs):
    p = poly_from_coeffs(coeffs)
    assert act(a, p) == _act_per_term(a, p)


class TestOracleEqual:
    def test_defining_relation(self):
        assert oracle_equal(mul(Y, X), mul(X, Y) + 1)

    def test_distinct(self):
        assert not oracle_equal(X, Y)

    def test_zero(self):
        assert oracle_equal(from_terms([]), from_terms([(0, 0, 0)]))


class TestOracleMulCheck:
    def test_y2_x2(self):
        assert oracle_mul_check(power(Y, 2), power(X, 2))

    def test_with_unit(self):
        assert oracle_mul_check(ONE, from_terms([(3, 2, Fraction(1, 3))]))

    def test_mixed(self):
        assert oracle_mul_check(mul(power(X, 3), power(Y, 2)), mul(power(Y, 4), X))


@settings(max_examples=80, deadline=None)
@given(weyl_elements(nonzero=True))
def test_faithfulness_at_cutoff(a):
    cut = max_y_exponent(a)
    assert any(act(a, x_power(n)) for n in range(cut + 1))


def _reconstruct(a: WeylElement) -> WeylElement:
    """Rebuild an element from its actions on x^0 .. x^maxY alone.

    act(X^i Y^j, x^n) = n!/(n-j)! x^(n-j+i) vanishes for j > n, so the
    action on x^n exposes the row j = n once rows j < n are subtracted.
    """
    cut = max_y_exponent(a)
    known: list[tuple[int, int, Fraction]] = []
    for n in range(cut + 1):
        image = act(a, x_power(n))
        partial = act(from_terms(known), x_power(n))
        residue = list(image)
        for k, v in enumerate(partial):
            if k < len(residue):
                residue[k] -= v
            elif v:
                residue.extend([Fraction(0)] * (k - len(residue)) + [-v])
        # what is left is sum_i a_{i,n} n! x^i
        for i, v in enumerate(residue):
            if v:
                known.append((i, n, v / factorial(n)))
    return from_terms(known)


@settings(max_examples=60, deadline=None)
@given(weyl_elements())
def test_coefficients_reconstruct_from_actions(a):
    assert _reconstruct(a) == a
