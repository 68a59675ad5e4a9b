from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylalg import (
    InternalInconsistencyError,
    MalformedInputError,
    ONE,
    UndefinedOnZeroError,
    X,
    Y,
    ZERO,
    add,
    centralizer_basis,
    commutator,
    from_terms,
    mul,
    power,
    scalar_mul,
    total_degree,
    transpose,
)
from weylalg.centralizer import _packed
from weylalg.cli import _parse_script, main, parse_element
from weylalg.core import _commutator_direct, _mul_direct, _read_back, _sampled, _sampled_pays
from weylalg.derivation import dixmier_pair_from_script
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


# The sampled kernel, called directly: the dispatch sends small operands to
# the monomial rule, so the public functions never reach it here.

_DENOMINATORS = st.sampled_from([1, 2, 3, 4, 5, 7, 9, 11, 13])


@st.composite
def graded_operands(draw):
    """Elements whose grades i - j are all negative, all nonnegative, or mixed."""
    grades = draw(st.sampled_from(["negative", "nonnegative", "mixed"]))
    terms = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        i, j = draw(st.integers(0, 6)), draw(st.integers(0, 6))
        if grades == "negative" and i >= j:
            i, j = j, i + 1
        elif grades == "nonnegative" and i < j:
            i, j = j, i
        num = draw(st.integers(-9, 9).filter(bool))
        terms.append((i, j, Fraction(num, draw(_DENOMINATORS))))
    return from_terms(terms)


EDGE_OPERANDS = [
    ZERO,
    ONE,
    from_terms([(0, 0, Fraction(-3, 2))]),
    X,
    Y,
    from_terms([(3, 5, Fraction(-2, 7))]),
    from_terms([(0, 4, Fraction(1, 3)), (2, 3, Fraction(5, 11)), (0, 1, 1)]),  # grades < 0 only
    from_terms([(4, 0, 2), (1, 1, Fraction(1, 4)), (0, 0, Fraction(1, 9))]),
]


def _assert_kernels_agree(a, b):
    assert _sampled(a, b, False) == _mul_direct(a, b)
    assert _sampled(a, b, True) == _commutator_direct(a, b)


@settings(max_examples=150, deadline=None)
@given(graded_operands(), graded_operands())
def test_sampled_kernel_matches_monomial_rule(a, b):
    _assert_kernels_agree(a, b)


@pytest.mark.parametrize("a", EDGE_OPERANDS)
@pytest.mark.parametrize("b", EDGE_OPERANDS)
def test_sampled_kernel_on_zero_scalars_and_monomials(a, b):
    _assert_kernels_agree(a, b)


@settings(max_examples=60, deadline=None)
@given(graded_operands(), graded_operands())
def test_sampled_kernel_matches_operator_composition(a, b):
    product, bracket = _sampled(a, b, False), _sampled(a, b, True)
    for n in range(max_y_exponent(a) + max_y_exponent(b) + 1):
        p = x_power(n)
        ab, ba = act(a, act(b, p)), act(b, act(a, p))
        assert act(product, p) == ab
        assert act(bracket, p) == _poly_sub(ab, ba)


def test_gen_pair_witness_is_one_on_both_kernels():
    script = _parse_script("addY:Y^3; addX:X^3; addY:Y^3; addX:X^2")
    pair = dixmier_pair_from_script(script)
    p, q = pair.p, pair.q
    assert (total_degree(p), len(p.terms), len(q.terms)) == (54, 679, 67)
    assert _sampled(q, p, True) == ONE
    assert _commutator_direct(q, p) == ONE
    assert _sampled_pays(q, p, True)


def test_dispatch_keeps_small_operands_and_the_reverification_on_the_monomial_rule():
    dense = power(X + Y + 1, 14), power(X - 2 * Y + 3, 14)
    assert _sampled_pays(*dense, False) and _sampled_pays(*dense, True)
    assert not _sampled_pays(power(X + Y + 1, 5), power(X - 2 * Y + 3, 5), False)  # 21 x 21 terms
    dixmier_l = parse_element("(Y^2 + X^3 + 1)^2 + 2*X")
    basis = centralizer_basis(dixmier_l, 36)
    assert max(len(e.terms) for e in basis.elements()) * len(dixmier_l.terms) >= 1000
    assert not any(_sampled_pays(dixmier_l, e, True) for e in basis.elements())
    # the re-verification makes one packed call on the union of the supports:
    # 8 x 359 term pairs against 8 x 1101 for one call per element
    packed, _ = _packed(dixmier_l, basis.elements())
    assert sum(len(e.terms) for e in basis.elements()) == 1101
    assert len(dixmier_l.terms) * len(packed.terms) == 8 * 359
    assert not _sampled_pays(dixmier_l, packed, True)


class TestReadBack:
    def test_exact(self):
        # X^2 Y^2 sends x^n to n (n - 1) x^n; Y sends x^n to n x^(n - 1)
        assert _read_back({0: [0, 0, 2], -1: [0, 1]}) == {(2, 2): 1, (0, 1): 1}

    def test_inexact_difference_is_an_error(self):
        with pytest.raises(InternalInconsistencyError):
            _read_back({0: [0, 0, 3]})  # Delta^2 = 3 is not a multiple of 2!

    def test_negative_exponent_is_an_error(self):
        with pytest.raises(InternalInconsistencyError):
            _read_back({-1: [5]})  # would be X^-1

    def test_corrupted_sample_exits_3(self, capsys, monkeypatch):
        left, right = "(X+Y+1)^12", "(X-2*Y+3)^12"
        assert _sampled_pays(parse_element(left), parse_element(right), True)

        def corrupted(samples):
            copy = {g: list(values) for g, values in samples.items()}
            values = max(copy.values(), key=len)
            values[-1] += 1
            return _read_back(copy)

        monkeypatch.setattr("weylalg.core._read_back", corrupted)
        assert main(["comm", left, right]) == 3
        assert "internal inconsistency" in capsys.readouterr().err
