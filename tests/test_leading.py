import contextlib
import io
import json
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import weylalg.centralizer
from weylalg import (
    ONE,
    UndefinedOnZeroError,
    WrongSectorError,
    X,
    Y,
    ZERO,
    aligned,
    centralizer_basis,
    commutator,
    diag_degree,
    from_terms,
    is_monic,
    is_x_dominant,
    leading_coeff,
    leading_data,
    leading_form,
    leading_term,
    leading_weight,
    mul,
    newton_edges,
    power,
    primitive_direction,
    support,
    total_degree,
    weighted_degree,
)
from weylalg.cli import _parse_script, format_element, main
from weylalg.derivation import dixmier_pair_from_script

from conftest import monomials_upto, swap_exponents, weyl_elements

X2Y = from_terms([(2, 1, 1)])
TWO_DIAG = from_terms([(4, 2, 1), (3, 1, 2)])
# Dixmier's L = (Y^2 + X^3 + 1)^2 + 2X and the automorphism image P6 of X
DIXMIER_L = power(power(Y, 2) + power(X, 3) + 1, 2) + 2 * X
P6 = X + power(Y + power(X, 2), 3)


class TestDiagDegree:
    def test_single_term(self):
        assert diag_degree(X2Y) == 1

    def test_grade_zero(self):
        assert diag_degree(mul(X, Y) + 1) == 0

    def test_two_terms_same_diagonal(self):
        assert diag_degree(TWO_DIAG) == 2

    def test_zero_rejected(self):
        with pytest.raises(UndefinedOnZeroError):
            diag_degree(ZERO)
        with pytest.raises(UndefinedOnZeroError):
            weighted_degree(ZERO, (-1, 1))


class TestSupport:
    def test_zero(self):
        assert support(ZERO) == frozenset()

    def test_xy_plus_one(self):
        assert support(mul(X, Y) + 1) == {(1, 1), (0, 0)}

    def test_two_terms(self):
        assert support(TWO_DIAG) == {(4, 2), (3, 1)}


class TestLeadingForm:
    def test_whole_element(self):
        e = mul(X, Y) + 1
        assert leading_form(e) == e

    def test_proper_subset(self):
        e = X2Y + Y
        assert leading_form(e) == X2Y

    def test_two_terms_on_diagonal(self):
        assert leading_form(TWO_DIAG) == TWO_DIAG

    def test_zero_rejected(self):
        with pytest.raises(UndefinedOnZeroError):
            leading_form(ZERO)


class TestLeadingWeight:
    def test_single(self):
        assert leading_weight(X2Y) == (2, 1)

    def test_takes_highest_x(self):
        assert leading_weight(mul(X, Y) + 1) == (1, 1)

    def test_two_terms(self):
        assert leading_weight(TWO_DIAG) == (4, 2)


class TestLeadingTermAndCoeff:
    def test_term(self):
        assert leading_term(TWO_DIAG) == from_terms([(4, 2, 1)])

    def test_coeff(self):
        assert leading_coeff(2 * power(X, 3) * Y) == 2

    def test_monic(self):
        assert is_monic(X2Y)
        assert not is_monic(2 * X2Y)


class TestAligned:
    def test_same_ray(self):
        assert aligned(X2Y, from_terms([(4, 2, 1)]))

    def test_different_ray(self):
        assert not aligned(X2Y, from_terms([(3, 1, 1)]))

    def test_reflexive(self):
        e = TWO_DIAG + Y
        assert aligned(e, e)


class TestSectors:
    def test_x(self):
        assert is_x_dominant(X)

    def test_diagonal_is_not_dominant(self):
        assert not is_x_dominant(mul(X, Y))

    def test_mixed(self):
        assert is_x_dominant(X + power(Y, 2))

    def test_mirror(self):
        # y-dominant: x-dominant once the exponents are swapped
        assert is_x_dominant(swap_exponents(Y))
        assert not is_x_dominant(swap_exponents(mul(X, Y)))


class TestPrimitiveDirection:
    def test_already_primitive(self):
        assert primitive_direction(X2Y) == ((2, 1), 1)

    def test_reduction(self):
        assert primitive_direction(from_terms([(4, 2, 1)])) == ((2, 1), 2)

    def test_pure_power(self):
        assert primitive_direction(power(X, 3)) == ((1, 0), 3)

    def test_wrong_sector(self):
        with pytest.raises(WrongSectorError):
            primitive_direction(mul(X, Y))
        with pytest.raises(WrongSectorError):
            primitive_direction(Y)

    def test_mirror(self):
        # a y-dominant element has the swapped direction of its swapped element
        assert primitive_direction(swap_exponents(from_terms([(1, 2, 1)]))) == ((2, 1), 1)
        assert primitive_direction(swap_exponents(power(Y, 3))) == ((1, 0), 3)
        assert centralizer_basis(from_terms([(1, 2, 1)]), 3).direction == (1, 2)
        assert centralizer_basis(power(Y, 3), 3).direction == (0, 1)


def test_leading_data_bundle():
    data = leading_data(TWO_DIAG + Y)
    assert data.diag == 2
    assert data.weight == (4, 2)
    assert data.form == TWO_DIAG
    assert data.term == from_terms([(4, 2, 1)])
    assert data.coeff == 1
    assert data.monic


@settings(max_examples=80, deadline=None)
@given(weyl_elements(nonzero=True), weyl_elements(nonzero=True))
def test_multiplicativity(p, q):
    pq = mul(p, q)
    assert diag_degree(pq) == diag_degree(p) + diag_degree(q)
    wp, wq = leading_weight(p), leading_weight(q)
    assert leading_weight(pq) == (wp[0] + wq[0], wp[1] + wq[1])
    assert leading_form(pq) == mul(leading_form(p), leading_form(q))
    assert leading_term(pq) == leading_term(mul(leading_term(p), leading_term(q)))
    assert leading_coeff(pq) == leading_coeff(p) * leading_coeff(q)


@settings(max_examples=120, deadline=None)
@given(weyl_elements(nonzero=True), weyl_elements(nonzero=True))
def test_nonaligned_commutator_weight(p, q):
    if aligned(p, q):
        return
    c = commutator(p, q)
    assert c != ZERO
    wp, wq = leading_weight(p), leading_weight(q)
    assert leading_weight(c) == (wp[0] + wq[0] - 1, wp[1] + wq[1] - 1)


@settings(max_examples=120, deadline=None)
@given(weyl_elements(nonzero=True), weyl_elements(nonzero=True))
def test_commuting_leading_forms_are_aligned(p, q):
    if commutator(leading_form(p), leading_form(q)) == ZERO:
        assert aligned(p, q)


@settings(max_examples=80, deadline=None)
@given(weyl_elements(nonzero=True))
def test_leading_form_is_idempotent_for_weight_data(p):
    assert leading_weight(leading_form(p)) == leading_weight(p)
    assert diag_degree(leading_form(p)) == diag_degree(p)


def _cli_stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@settings(max_examples=80, deadline=None)
@given(weyl_elements(nonzero=True))
def test_mirror_quantities_are_the_swapped_plain_ones(p):
    # `weylalg leading` reports the mirror quantities: the plain ones of the
    # element with X and Y exponents exchanged, mapped back
    swapped = swap_exponents(p)
    expr = format_element(p)
    data = json.loads(_cli_stdout(["leading", "--json", "--", expr]))
    assert data["diag_degree_mirror"] == diag_degree(swapped)
    i, j = leading_weight(swapped)
    assert data["weight_mirror"] == {"i": j, "j": i}
    mirror_form = format_element(swap_exponents(leading_form(swapped)))
    assert f"mirror leading form: {mirror_form}" in _cli_stdout(["leading", "--", expr]).splitlines()


@settings(max_examples=80, deadline=None)
@given(weyl_elements(nonzero=True))
def test_nonpositive_both_ways_means_diagonal(p):
    # an element dominated in neither direction is supported on the diagonal
    if diag_degree(p) <= 0 and weighted_degree(p, (-1, 1)) <= 0:
        assert diag_degree(p) == 0 and weighted_degree(p, (-1, 1)) == 0
        assert all(i == j for i, j in p.terms)


class TestWeightedDegree:
    def test_diagonal_is_the_one_minus_one_case(self):
        assert weighted_degree(TWO_DIAG, (1, -1)) == diag_degree(TWO_DIAG) == 2

    def test_other_weights(self):
        assert weighted_degree(TWO_DIAG, (1, 1)) == 6
        assert weighted_degree(DIXMIER_L, (2, 3)) == 12
        assert weighted_degree(DIXMIER_L, (-1, 0)) == 0

    def test_zero_rejected(self):
        with pytest.raises(UndefinedOnZeroError):
            weighted_degree(ZERO, (1, 1))


class TestNewtonEdges:
    def test_dixmier_l(self):
        # hull (0, 0), (6, 0), (0, 4); X^3 Y^2 lies on the edge from X^6 to Y^4,
        # and the edges along the axes face rho + sigma < 0
        assert newton_edges(DIXMIER_L) == [((-1, 1), 4), ((1, -1), 6), ((2, 3), 12)]

    def test_p6(self):
        # hull (0, 0), (6, 0), (0, 3)
        assert newton_edges(P6) == [((-1, 1), 3), ((1, -1), 6), ((1, 2), 6)]

    def test_segment(self):
        # the hull of (1, 0) and the origin has the normals (0, 1) and (0, -1);
        # only the first has rho + sigma >= 0
        assert newton_edges(X) == [((-1, 1), 0), ((0, 1), 0), ((1, -1), 1)]
        assert newton_edges(power(X, 3) + X) == [((-1, 1), 0), ((0, 1), 0), ((1, -1), 3)]
        # on the diagonal both normals of the segment are the diagonal ones
        assert newton_edges(mul(X, Y) + 1) == [((-1, 1), 0), ((1, -1), 0)]

    def test_edge_facing_the_mirror_side(self):
        # hull (0, 0), (5, 1), (1, 3), (0, 2): the edge from XY^3 to Y^2 is (-1, 1)
        p = from_terms([(0, 2, 1), (1, 3, 1), (5, 1, 1)])
        assert newton_edges(p) == [((-1, 1), 2), ((1, -1), 4), ((1, 2), 7)]

    def test_scalar(self):
        assert newton_edges(2 * ONE) == [((-1, 1), 0), ((1, -1), 0)]

    def test_zero_rejected(self):
        with pytest.raises(UndefinedOnZeroError):
            newton_edges(ZERO)

    @settings(max_examples=80, deadline=None)
    @given(weyl_elements(nonzero=True))
    def test_support_values_bound_the_support_and_origin(self, p):
        for (rho, sigma), h in newton_edges(p):
            assert rho + sigma >= 0
            assert h == max([0] + [rho * i + sigma * j for i, j in p.terms])


def full_triangle_basis(p, bound):
    """centralizer_basis over every monomial up to the bound, not just the polygon."""
    with mock.patch.object(
        weylalg.centralizer,
        "_newton_columns",
        lambda q, b: monomials_upto(b),
    ):
        return centralizer_basis(p, bound)


def assert_basis_in_scaled_polygon(p, bound):
    """Each element at ray level l lies in (l / l_P) N(P) and has degree (l / l_P) deg P."""
    basis = full_triangle_basis(p, bound)
    _, level_p = primitive_direction(p)
    edges = newton_edges(p)
    for level in basis.levels:
        element = basis.by_level[level]
        for weight, h in edges:
            assert level_p * weighted_degree(element, weight) <= level * h
        assert level_p * total_degree(element) == level * total_degree(p)


class TestCentralizerInsideScaledPolygon:
    @pytest.mark.parametrize(
        "p, bound",
        [
            (DIXMIER_L, 24),
            (P6, 24),
            (X + power(Y, 2), 12),
            (power(X, 3) + power(Y, 2) + mul(X, Y), 12),
            (dixmier_pair_from_script(_parse_script("addY:Y^2; addX:X^3")).p, 18),
            (dixmier_pair_from_script(_parse_script("fourier; addX:X^2; addY:Y^2")).p, 12),
        ],
    )
    def test_named(self, p, bound):
        assert_basis_in_scaled_polygon(p, bound)

    @settings(max_examples=40, deadline=None)
    @given(weyl_elements(max_exp=3, max_terms=4, nonzero=True), st.integers(0, 5))
    def test_x_dominant(self, p, extra):
        assume(is_x_dominant(p))
        assert_basis_in_scaled_polygon(p, total_degree(p) + extra)
