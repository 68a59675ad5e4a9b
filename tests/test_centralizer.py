import json
import random
from contextlib import nullcontext
from dataclasses import replace
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import weylalg.centralizer
import weylalg.core
from weylalg import (
    BoundError,
    CentralizerBasis,
    ComponentKind,
    DixmierPair,
    GradedForm,
    InternalInconsistencyError,
    MalformedInputError,
    MembershipError,
    NotHomogeneousError,
    ONE,
    ScriptLimits,
    WrongSectorError,
    X,
    XYPolynomial,
    Y,
    Z,
    ZERO,
    centralizer_basis,
    check_dixmier_pair,
    commutator,
    decompose,
    diag_degree,
    dixmier_pair_from_script,
    expand_in_basis,
    from_graded_form,
    from_terms,
    homogeneous_centralizer_component,
    is_monomial_algebra_embedding,
    is_x_dominant,
    leading_form,
    leading_term,
    mul,
    no_partner_check,
    power,
    primitive_direction,
    random_script,
    ray_degree,
    recompose,
    to_graded_form,
    total_degree,
    transpose,
    weighted_degree,
)
from weylalg.centralizer import (
    _ad_matrix_rows,
    _ad_rows,
    _mirror_side,
    _newton_columns,
    _order_key,
    _packed,
    _rref_by_leading,
)
from weylalg.cli import _parse_script, basis_to_json, format_element, main, parse_element
from weylalg.core import _factors, _integer_form
from weylalg.leading import in_xy_subalgebra
from weylalg.linalg import sparse_kernel

from conftest import _coeffs, monomials_upto, sector_script_pairs, triangle_columns, weyl_elements

X2Y = from_terms([(2, 1, 1)])
X3Y = from_terms([(3, 1, 1)])
XY2 = from_terms([(1, 2, 1)])
XY = mul(X, Y)
# Dixmier's L = (Y^2 + X^3 + 1)^2 + 2X, a period-2 centralizer
DIXMIER_L = power(power(Y, 2) + power(X, 3) + 1, 2) + 2 * X


def commutator_kernel(p, candidates: list) -> list:
    """Kernel of [p, -] on the span of the candidates, by the exact commutator."""
    from math import lcm

    images = [commutator(p, c) for c in candidates]
    targets = sorted({t for image in images for t in image.terms})
    rows = []
    for t in targets:
        entries = {ci: images[ci].coefficient(*t) for ci in range(len(candidates))}
        denom = lcm(*(v.denominator for v in entries.values() if v)) if any(entries.values()) else 1
        rows.append({ci: int(v * denom) for ci, v in entries.items() if v})
    kernel = sparse_kernel(rows, len(candidates))
    out = []
    for vec in kernel:
        elem = ZERO
        for ci, v in vec.items():
            elem = elem + v * candidates[ci]
        out.append(elem)
    return out


def brute_force_component(p, grade: int, degree_cap: int) -> list:
    """Kernel of [p, -] on the monomial basis of one homogeneity degree.

    Independent of the descent: it spans the candidate
    space with monomials X^(m+grade) Y^m (or X^m Y^(m-grade)) up to the
    polynomial degree cap and row-reduces the exact commutator matrix.
    """
    candidates = []
    for m in range(degree_cap + 1):
        if grade >= 0:
            candidates.append(from_terms([(m + grade, m, 1)]))
        else:
            candidates.append(from_terms([(m, m - grade, 1)]))
    return commutator_kernel(p, candidates)


def assert_matches_brute_force(p, grade: int) -> None:
    """The component of p at `grade` is the kernel that brute force finds."""
    cap = 2 * to_graded_form(p).poly.degree * abs(grade) + 4
    brute = brute_force_component(p, grade, cap)
    assert len(brute) <= 1 or diag_degree(p) == 0
    result = homogeneous_centralizer_component(p, grade)
    if result.kind is ComponentKind.LINE:
        assert len(brute) == 1
        element = from_graded_form(result.generator)
        assert result.generator.poly.leading_coeff == 1
        # same line: the brute vector is a scalar multiple
        mono = next(iter(brute[0].terms))
        ratio = brute[0].coefficient(*mono) / element.coefficient(*mono)
        assert ratio and brute[0] == ratio * element
    elif result.kind is ComponentKind.EMPTY:
        assert brute == []
    else:
        # every candidate commutes: the kernel is the whole space
        assert len(brute) == cap + 1


@st.composite
def homogeneous_elements(draw):
    """Nonzero elements on one diagonal of either sign, with fractional coefficients."""
    d = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    terms = draw(st.lists(st.tuples(st.integers(0, 3), _coeffs), min_size=1, max_size=3, unique_by=lambda t: t[0]))
    return from_terms([(m + d, m, c) if d > 0 else (m, m - d, c) for m, c in terms])


def corrupted_component_descent(offset: int):
    """A `_ray_descent` that adds `offset` to the numerators of each vector at the last column.

    The homogeneous solver's columns run down one diagonal from its ray
    point, so the last one is off the ray and on the solved diagonal.
    """
    descent = weylalg.centralizer._ray_descent

    def corrupting(rows, columns, lead, direction, floor):
        vectors = descent(rows, columns, lead, direction, floor)
        for vec, _ in vectors:
            vec[columns[-1]] = vec.get(columns[-1], 0) + offset
        return vectors

    return corrupting


H = parse_element("X^4*Y^2 + X^3*Y + 2*X^2")
H_Y = parse_element("X^2*Y^4 + X*Y^3 + 2*Y^2")
P6 = parse_element("X + (Y + X^2)^3")
DIXMIER_L_FOURIER = parse_element("(X^2 + Y^3 + 1)^2 + 2*Y")


class TestHomogeneousComponent:
    def test_x2y_grade_two_line(self):
        result = homogeneous_centralizer_component(X2Y, 2)
        assert result.kind is ComponentKind.LINE
        assert result.generator == GradedForm(2, Z * (Z + 1))
        element = from_graded_form(result.generator)
        assert element == power(X2Y, 2)
        assert commutator(X2Y, element) == ZERO

    def test_xy_squared_grade_zero_is_everything(self):
        result = homogeneous_centralizer_component(power(XY, 2), 0)
        assert result.kind is ComponentKind.XY_POLYNOMIALS

    def test_x3y_grade_one_empty(self):
        result = homogeneous_centralizer_component(X3Y, 1)
        assert result.kind is ComponentKind.EMPTY
        # independent confirmation by brute force over a generous degree cap
        assert brute_force_component(X3Y, 1, 6) == []

    def test_grade_zero_is_constants_for_dominant_input(self):
        result = homogeneous_centralizer_component(X2Y, 0)
        assert result.kind is ComponentKind.LINE
        assert from_graded_form(result.generator) == ONE

    def test_negative_grade_empty_for_x_dominant(self):
        assert homogeneous_centralizer_component(X2Y, -1).kind is ComponentKind.EMPTY

    def test_mirror_side(self):
        result = homogeneous_centralizer_component(XY2, -2)
        assert result.kind is ComponentKind.LINE
        assert from_graded_form(result.generator) == power(XY2, 2)
        assert homogeneous_centralizer_component(XY2, 1).kind is ComponentKind.EMPTY

    def test_contract_errors(self):
        with pytest.raises(WrongSectorError):
            homogeneous_centralizer_component(ZERO, 0)
        with pytest.raises(NotHomogeneousError):
            homogeneous_centralizer_component(X + Y, 0)
        with pytest.raises(WrongSectorError):
            homogeneous_centralizer_component(2 * ONE, 0)

    @pytest.mark.parametrize(
        "p", [XY, power(XY, 2), power(X, 2), power(X, 3), X2Y, X3Y, XY2]
    )
    def test_agrees_with_brute_force(self, p):
        for grade in range(-8, 9):
            assert_matches_brute_force(p, grade)

    @settings(max_examples=200, deadline=None)
    @given(homogeneous_elements(), st.integers(-8, 8))
    def test_agrees_with_brute_force_on_random_elements(self, p, grade):
        assert_matches_brute_force(p, grade)

    @pytest.mark.parametrize("p, grade", [(H, 4), (transpose(H), -4)], ids=["x-sector", "y-sector"])
    def test_corrupted_generator_raises(self, p, grade, monkeypatch):
        assert homogeneous_centralizer_component(p, grade).kind is ComponentKind.LINE
        monkeypatch.setattr(weylalg.centralizer, "_ray_descent", corrupted_component_descent(1))
        with pytest.raises(InternalInconsistencyError, match="does not commute"):
            homogeneous_centralizer_component(p, grade)

    def test_corrupted_generator_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(weylalg.centralizer, "_ray_descent", corrupted_component_descent(1))
        assert main(["homog-centralizer", "X^4*Y^2 + X^3*Y + 2*X^2", "--j", "4"]) == 3
        assert "internal inconsistency" in capsys.readouterr().err

    @pytest.mark.parametrize("p, grade", [(H, 4), (transpose(H), -4)], ids=["x-sector", "y-sector"])
    def test_descends_on_q_without_a_side_probe(self, p, grade, monkeypatch):
        """A homogeneous q is its own side: the solver never asks `_mirror_side`."""
        monkeypatch.setattr(weylalg.centralizer, "_mirror_side", mock.Mock(side_effect=AssertionError))
        assert homogeneous_centralizer_component(p, grade).kind is ComponentKind.LINE


@pytest.mark.parametrize("value", [2.0, 2.5, Fraction(2), "2", None])
@pytest.mark.parametrize(
    "solve",
    [
        lambda bound: centralizer_basis(X, bound),
        lambda bound: check_dixmier_pair(DixmierPair(X, Y), bound),
        lambda grade: homogeneous_centralizer_component(H, grade),
        lambda bound: no_partner_check(XY, bound),
    ],
    ids=["centralizer_basis", "check_dixmier_pair", "homogeneous_component", "no_partner_check"],
)
def test_bound_or_grade_that_is_not_an_integer_is_malformed(solve, value):
    with pytest.raises(MalformedInputError, match="must be an integer"):
        solve(value)


class TestCentralizerBasis:
    def test_x_squared(self):
        basis = centralizer_basis(power(X, 2), 6)
        assert basis.levels == tuple(range(7))
        assert (basis.sector, basis.direction) == ("x", (1, 0))
        assert basis.level_gcd == 1
        assert basis.period == 1
        assert all(basis.by_level[l] == power(X, l) for l in basis.levels)
        assert basis.picks == (X,)
        assert not basis.truncated

    def test_x2y_is_powers(self):
        basis = centralizer_basis(X2Y, 9)
        assert basis.levels == (0, 1, 2, 3)
        assert basis.direction == (2, 1)
        assert all(basis.by_level[l] == power(X2Y, l) for l in basis.levels)

    def test_main_example_spans_powers(self):
        p = X + power(Y, 2)
        basis = centralizer_basis(p, 6)
        assert basis.dimension == 4
        for m in range(4):
            assert expand_in_basis(basis, power(p, m)) is not None

    def test_mirror_sector(self):
        basis = centralizer_basis(XY2, 9)
        assert basis.sector == "y"
        assert basis.direction == (1, 2)
        assert basis.levels == (0, 1, 2, 3)
        assert all(expand_in_basis(basis, power(XY2, m)) is not None for m in range(4))

    def test_every_member_commutes(self):
        p = X + power(Y, 2)
        basis = centralizer_basis(p, 8)
        for elem in basis.elements():
            assert commutator(p, elem) == ZERO

    def test_basis_laws(self):
        for p, bound in [(power(X, 2), 8), (X2Y, 9), (X + power(Y, 2), 6)]:
            basis = centralizer_basis(p, bound)
            assert basis.by_level[0] == ONE
            di, dj = basis.direction
            for l in basis.levels:
                assert leading_term(basis.by_level[l]) == from_terms([(l * di, l * dj, 1)])
            for l in basis.levels:
                for h in basis.levels:
                    if l + h in basis.by_level:
                        assert mul(
                            leading_form(basis.by_level[l]), leading_form(basis.by_level[h])
                        ) == leading_form(basis.by_level[l + h])

    def test_wrong_sector(self):
        with pytest.raises(WrongSectorError):
            centralizer_basis(XY, 6)
        with pytest.raises(WrongSectorError):
            centralizer_basis(ZERO, 6)
        with pytest.raises(WrongSectorError):
            centralizer_basis(power(XY, 2) + XY, 8)

    def test_bound_too_small(self):
        with pytest.raises(BoundError):
            centralizer_basis(power(X, 3), 2)

    def test_equal_bases_hash_alike(self):
        first, second = centralizer_basis(DIXMIER_L, 9), centralizer_basis(DIXMIER_L, 9)
        assert first == second
        assert hash(first) == hash(second)
        assert (first.levels, first.period) == ((0, 6, 9), 2)

    def test_dixmier_l_at_bound_sixty(self):
        # about 10 s with the whole-matrix elimination; well under 1 s with the descent
        basis = centralizer_basis(DIXMIER_L, 60)
        assert basis.levels == (0, 6, 9) + tuple(range(12, 61, 3))
        assert (basis.level_gcd, basis.period) == (3, 2)
        assert not basis.truncated

    def test_agreement_with_homogeneous_solver(self):
        for p in [X2Y, X3Y, power(X, 3)]:
            bound = 9
            basis = centralizer_basis(p, bound)
            step = diag_degree(p)
            direction_step = basis.direction[0] - basis.direction[1]
            for l in basis.levels:
                grade = l * direction_step
                component = homogeneous_centralizer_component(p, grade)
                assert component.kind is ComponentKind.LINE
                assert from_graded_form(component.generator) == basis.by_level[l]
            # grades reachable in the bound but absent from the basis are empty
            # or their generator is too large for the bound
            for grade in range(1, 2 * step + 1):
                if grade % direction_step:
                    component = homogeneous_centralizer_component(p, grade)
                    if component.kind is ComponentKind.LINE:
                        gen = from_graded_form(component.generator)
                        assert total_degree(gen) > bound



def canonical(p):
    """The element the solver works on: p in the x sector, transpose(p) in the y sector."""
    return p if diag_degree(p) > 0 else transpose(p)


def mirror_usable(q) -> bool:
    """transpose(q) is x-dominant."""
    return is_x_dominant(transpose(q))


def chosen_side(p, bound: int) -> str:
    q = canonical(p)
    return "mirror" if _mirror_side(q, _newton_columns(q, bound), primitive_direction(q)[0]) else "plain"


def on_side(side: str):
    """Patch the side choice: always the plain side, or always the mirror side."""
    return mock.patch.object(weylalg.centralizer, "_mirror_side", lambda q, columns, direction: side == "mirror")


SIDES = ["plain", "mirror"]


def corrupted_descent(offsets: dict[int, int]):
    """A `_ray_descent` that gives vector n the coefficient offsets[n] at one off-ray monomial.

    The monomial is the first column of the region, off the ray, below the
    leading term of every corrupted vector and outside their supports, so the
    vectors still pass the solver's leading-term checks and only the exact
    re-verification can tell.
    """
    descent = weylalg.centralizer._ray_descent

    def corrupting(rows, columns, lead, direction, floor):
        vectors = descent(rows, columns, lead, direction, floor)
        chosen = [vectors[n][0] for n in offsets]
        floor = min(_order_key(max(vec, key=_order_key)) for vec in chosen)
        di, dj = direction
        spot = next(
            (a, b)
            for a, b in columns
            if a * dj != b * di
            and _order_key((a, b)) < floor
            and all((a, b) not in vec for vec in chosen)
        )
        for n, c in offsets.items():
            vec, den = vectors[n]
            vec[spot] = c * den
        return vectors

    return corrupting


DIXMIER_L_MIRROR = transpose(DIXMIER_L)
CORRUPTIONS = {"one vector": {-1: 1}, "two opposite": {-1: 3, -2: -3}}


class TestReverificationCatchesCorruption:
    """The packed re-verification raises on a basis the solver got wrong, on either kernel."""

    @pytest.mark.parametrize("sampled", [True, False], ids=["sampled", "monomial-rule"])
    @pytest.mark.parametrize("corruption", list(CORRUPTIONS))
    @pytest.mark.parametrize("p", [DIXMIER_L, DIXMIER_L_MIRROR], ids=["x-sector", "y-sector"])
    def test_corrupted_basis_raises(self, p, corruption, sampled, monkeypatch):
        assert centralizer_basis(p, 18).dimension >= 3
        monkeypatch.setattr(weylalg.centralizer, "_ray_descent", corrupted_descent(CORRUPTIONS[corruption]))
        monkeypatch.setattr(weylalg.core, "_sampled_pays", lambda a, b, bracket: sampled)
        with pytest.raises(InternalInconsistencyError, match="does not commute"):
            centralizer_basis(p, 18)

    def test_corrupted_basis_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(weylalg.centralizer, "_ray_descent", corrupted_descent(CORRUPTIONS["one vector"]))
        assert main(["centralizer", "(Y^2 + X^3 + 1)^2 + 2*X", "--max-total-degree", "18"]) == 3
        assert "internal inconsistency" in capsys.readouterr().err

    @pytest.mark.parametrize("corruption", list(CORRUPTIONS))
    @pytest.mark.parametrize("p", [DIXMIER_L, DIXMIER_L_MIRROR], ids=["x-sector", "y-sector"])
    @pytest.mark.parametrize("side", SIDES)
    def test_corrupted_basis_raises_on_each_side(self, side, p, corruption, monkeypatch):
        """On the mirror side the corrupted vector goes through the change of basis first."""
        monkeypatch.setattr(weylalg.centralizer, "_ray_descent", corrupted_descent(CORRUPTIONS[corruption]))
        with on_side(side), pytest.raises(InternalInconsistencyError, match="does not commute"):
            centralizer_basis(p, 18)

    @pytest.mark.parametrize("side", SIDES)
    def test_corrupted_basis_exits_3_on_each_side(self, side, capsys, monkeypatch):
        monkeypatch.setattr(weylalg.centralizer, "_ray_descent", corrupted_descent(CORRUPTIONS["one vector"]))
        with on_side(side):
            assert main(["centralizer", "(Y^2 + X^3 + 1)^2 + 2*X", "--max-total-degree", "18"]) == 3
        assert "internal inconsistency" in capsys.readouterr().err

    @pytest.mark.parametrize("p", [DIXMIER_L, DIXMIER_L_MIRROR], ids=["x-sector", "y-sector"])
    def test_duplicated_mirror_vector_raises(self, p, monkeypatch):
        """A mirror vector given twice leaves the change of basis one pivot short."""
        descent = weylalg.centralizer._ray_descent

        def duplicating(*args):
            vectors = descent(*args)
            vectors[-1] = (dict(vectors[-2][0]), vectors[-2][1])
            return vectors

        monkeypatch.setattr(weylalg.centralizer, "_ray_descent", duplicating)
        with on_side("mirror"), pytest.raises(InternalInconsistencyError, match="linearly dependent"):
            centralizer_basis(p, 18)


@st.composite
def packing_cases(draw):
    """P and nonzero elements: powers of P, alone or mixed with arbitrary elements."""
    p = draw(weyl_elements(max_exp=4, max_terms=4, nonzero=True))
    elems = [power(p, m) for m in draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))]
    elems += draw(st.lists(weyl_elements(max_exp=4, max_terms=4, nonzero=True), max_size=3))
    return p, draw(st.permutations(elems))


class TestPackingLemma:
    @settings(max_examples=60, deadline=None)
    @given(packing_cases())
    @example((power(Y, 3), [power(X, 3)]))  # _factors(3, 3) = (1, 9, 18, 6) peaks at i = 2
    @example((X * power(Y, 3), [ONE, power(X, 3) * Y, power(X, 2)]))
    @example((DIXMIER_L, centralizer_basis(DIXMIER_L, 18).elements()))
    @example((DIXMIER_L, centralizer_basis(DIXMIER_L, 18).elements() + [X]))
    def test_digits_within_bound_and_zero_exactly_when_all_commute(self, case):
        p, elems = case
        packed, bound = _packed(p, [_integer_form(e)[0] for e in elems])
        _, d_p = _integer_form(p)
        brackets = [commutator(p, e) for e in elems]
        for e, bracket in zip(elems, brackets):
            scale = d_p * _integer_form(e)[1]
            assert all(abs(c * scale) <= bound for c in bracket.terms.values())
        assert (commutator(p, packed) == ZERO) == all(b == ZERO for b in brackets)


def ad_rows_by_columns(p, columns):
    """The ad rows assembled column by column, each entry by the commutator rule.

    The reference for the shift assembly of `_ad_matrix_rows`: every term of
    p against every column, over the lowering terms i >= 1.  A target whose
    contributions all cancel keeps an empty row here.
    """
    p_terms, _ = _integer_form(p)
    by_target = {}
    for idx, (a, b) in enumerate(columns):
        for (k, j), c in p_terms.items():
            pq, qp = _factors(j, a), _factors(b, k)
            npq, nqp = len(pq), len(qp)
            for i in range(1, max(npq, nqp)):
                w = (pq[i] if i < npq else 0) - (qp[i] if i < nqp else 0)
                if not w:
                    continue
                target = (k + a - i, j + b - i)
                row = by_target.setdefault(target, {})
                s = row.get(idx, 0) + c * w
                if s:
                    row[idx] = s
                else:
                    del row[idx]
    ordered = sorted(by_target, key=_order_key, reverse=True)
    return [by_target[m] for m in ordered], ordered


def integer_form(vec):
    """(numerators, denominator) of a vector of Fractions, over the lcm of its denominators."""
    den = lcm(*(v.denominator for v in vec.values()))
    return {m: v.numerator * (den // v.denominator) for m, v in vec.items()}, den


def full_elimination(rows, columns, lead, direction, floor):
    """The kernel by sparse elimination of the whole ad matrix.

    Stands in for the ray descent, with its signature, so centralizer_basis
    runs the earlier path: sparse_kernel over the assembled rows, reduced
    by _rref_by_leading, as integer forms.  It reads every row and never
    stops.
    """
    rows = [row for row, _ in rows]
    kernel = _rref_by_leading(
        [{columns[idx]: v for idx, v in vec.items()} for vec in sparse_kernel(rows, len(columns))]
    )
    return [integer_form(vec) for vec in kernel]


def ad_stream_by_columns(p, columns):
    """The (row, target) stream of `ad_rows_by_columns`, for `_ad_rows`."""
    return zip(*ad_rows_by_columns(p, columns))


def full_triangle(p, bound):
    """Every monomial up to the bound, in place of the Newton-polygon region."""
    return monomials_upto(bound)


def assert_same_as_full_elimination(p, bound, side=None):
    """The solver against the earlier path: no polygon cut, no shifts, no descent.

    `side` forces the side the solver takes; by default it chooses.  The
    reference always eliminates on the plain side, so it needs no change
    of basis.
    """
    with on_side(side) if side else nullcontext():
        descent = json.dumps(basis_to_json(centralizer_basis(p, bound)))
    with mock.patch.object(weylalg.centralizer, "_ray_descent", full_elimination), \
            mock.patch.object(weylalg.centralizer, "_newton_columns", full_triangle), \
            mock.patch.object(weylalg.centralizer, "_ad_rows", ad_stream_by_columns), \
            on_side("plain"):
        reference = json.dumps(basis_to_json(centralizer_basis(p, bound)))
    assert descent == reference


@st.composite
def sector_elements(draw, sector):
    """Elements of one sector: a term above the main diagonal on that side.

    In the x sector the other terms are arbitrary; in the y sector they keep
    X^i Y^j with i <= j, so the element is not x-dominant.  The other terms
    never sit on that term's monomial, so it cannot cancel.
    """
    a, r = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    rest = draw(weyl_elements(max_exp=3, max_terms=3))
    c = draw(_coeffs)
    top = (a + r, a) if sector == "x" else (a, a + r)
    keep = [(i, j, v) for (i, j), v in rest.terms.items() if (i, j) != top and (sector == "x" or i <= j)]
    return from_terms(keep + [(*top, c)])


def mirror_reference(p, bound: int) -> CentralizerBasis:
    """The y-sector basis of p, computed without transposing anything.

    The kernel of the exact commutator over every monomial up to the bound,
    brought to reduced echelon form in the mirror order (j - i first, then
    the Y exponent); the direction is read off the leading terms, and the
    basis must derive the same one from p.
    """
    monomials = [(a, b) for a in range(bound + 1) for b in range(bound + 1 - a)]
    kernel = commutator_kernel(p, [from_terms([(a, b, 1)]) for a, b in monomials])

    def mirror_key(m):
        return (m[1] - m[0], m[1])

    by_lead = {}
    for elem in kernel:
        for lead, prow in by_lead.items():
            elem = elem - elem.coefficient(*lead) * prow
        if not elem:
            continue
        lead = max(elem.terms, key=mirror_key)
        elem = (1 / elem.terms[lead]) * elem
        by_lead = {m: prow - prow.coefficient(*lead) * elem for m, prow in by_lead.items()}
        by_lead[lead] = elem
    i, j = max(by_lead, key=mirror_key)
    g = gcd(i, j)
    direction = (i // g, j // g)
    by_level = {}
    for lead, elem in by_lead.items():
        level = lead[1] // direction[1]
        assert lead == (level * direction[0], level * direction[1])
        by_level[level] = elem
    basis = CentralizerBasis(element=p, bound=bound, levels=tuple(sorted(by_level)), by_level=by_level)
    assert basis.direction == direction
    return basis


PRIMES = (2, 3, 5, 7, 11, 13, 17)


@st.composite
def coprime_denominators(draw, sector):
    """A sector element whose coefficients have distinct prime denominators."""
    p = draw(sector_elements(sector))
    nums = st.integers(-9, 9).filter(bool)
    return from_terms([(i, j, Fraction(draw(nums), PRIMES[k])) for k, (i, j) in enumerate(p.terms)])


def assembly_elements():
    """x-dominant elements and transposed y-dominant ones, as the solver assembles them."""
    return st.one_of(
        sector_elements("x"),
        sector_elements("y").map(transpose),
        coprime_denominators("x"),
        coprime_denominators("y").map(transpose),
    )


def without_empty_rows(rows, targets):
    kept = [(row, t) for row, t in zip(rows, targets) if row]
    return [row for row, _ in kept], [t for _, t in kept]


class TestAssemblyByShifts:
    """[P, X^a Y^b] = [P, X^a] Y^b + X^a [P, Y^b] against the column-by-column rule."""

    @settings(max_examples=100, deadline=None)
    @given(assembly_elements(), st.integers(0, 4), st.booleans())
    def test_rows_equal_per_column_rows(self, p, extra, in_polygon):
        bound = total_degree(p) + extra
        columns = _newton_columns(p, bound) if in_polygon else monomials_upto(bound)
        # the shift assembly makes no row for a target whose entries all cancel
        assert _ad_matrix_rows(p, columns) == without_empty_rows(*ad_rows_by_columns(p, columns))

    @settings(max_examples=40, deadline=None)
    @given(assembly_elements(), st.integers(0, 3), st.randoms(use_true_random=False))
    def test_columns_are_scaled_commutators(self, p, extra, rnd):
        columns = _newton_columns(p, total_degree(p) + extra)
        rows, targets = _ad_matrix_rows(p, columns)
        scale = lcm(*(c.denominator for c in p.terms.values()))
        for idx in rnd.sample(range(len(columns)), min(5, len(columns))):
            image = commutator(p, from_terms([(*columns[idx], 1)]))
            assert {t: row[idx] for row, t in zip(rows, targets) if idx in row} == {
                m: c * scale for m, c in image.terms.items()
            }

    def test_dixmier_l_columns(self):
        columns = _newton_columns(DIXMIER_L, 36)
        assert _ad_matrix_rows(DIXMIER_L, columns) == without_empty_rows(
            *ad_rows_by_columns(DIXMIER_L, columns)
        )

    def test_stream_merges_columns_on_demand(self, monkeypatch):
        """The first row, on the top diagonal, needs only the columns whose
        top diagonal reaches it, so most brackets are never formed."""
        columns = _newton_columns(DIXMIER_L, 36)
        formed = []
        bracket_sums = weylalg.centralizer._bracket_sums

        def counting(ta, tb):
            formed.append(tb)
            return bracket_sums(ta, tb)

        monkeypatch.setattr(weylalg.centralizer, "_bracket_sums", counting)
        rows, targets = _ad_matrix_rows(DIXMIER_L, columns)
        every = len(formed)
        formed.clear()
        assert next(_ad_rows(DIXMIER_L, columns)) == (rows[0], targets[0])
        assert 0 < len(formed) < every / 4

    def test_stopped_check_forms_only_the_diagonals_it_reads(self, monkeypatch):
        """The degree-27 pair's descent stops after 121 rows, and the stream
        forms the brackets of the diagonals of those rows only: fewer than
        half of those the whole stream forms on the same columns."""
        p = dixmier_pair_from_script(_parse_script("addY:Y^3; addX:X^3; addY:Y^3")).p
        bracket_sums = weylalg.centralizer._bracket_sums
        ad_rows = weylalg.centralizer._ad_rows
        descent = weylalg.centralizer._ray_descent
        formed, streams, read = [], [], []

        def counting(ta, tb):
            formed.append(tb)
            return bracket_sums(ta, tb)

        def recording(side, columns):
            streams.append((side, columns))
            return ad_rows(side, columns)

        def reading(rows, *args):
            def counted():
                for item in rows:
                    read.append(item)
                    yield item

            return descent(counted(), *args)

        monkeypatch.setattr(weylalg.centralizer, "_bracket_sums", counting)
        monkeypatch.setattr(weylalg.centralizer, "_ad_rows", recording)
        monkeypatch.setattr(weylalg.centralizer, "_ray_descent", reading)
        assert centralizer_basis(p, 27).dimension == 27 // total_degree(p) + 1
        stopped = len(formed)
        assert len(streams) == 1 and len(read) == 121
        formed.clear()
        rows, _ = _ad_matrix_rows(*streams[0])
        assert len(rows) == 459
        assert 0 < stopped < len(formed) / 2

    def test_stream_forms_no_bracket_that_must_vanish(self, monkeypatch):
        """[P_d, X^a] is 0 unless a > 0 and P_d has a Y, and [P_d, Y^b] unless
        b > 0 and P_d has an X.  On L at bound 24 the stream forms 120
        brackets, none of them 0; one per column and piece would be 252."""
        bracket_sums = weylalg.centralizer._bracket_sums
        nonzero = []

        def counting(ta, tb):
            sums = bracket_sums(ta, tb)
            nonzero.append(any(sums.values()))
            return sums

        monkeypatch.setattr(weylalg.centralizer, "_bracket_sums", counting)
        assert centralizer_basis(DIXMIER_L, 24).dimension == 8
        assert len(nonzero) == 120 and all(nonzero)

    def test_columns_out_of_order_raise(self):
        columns = _newton_columns(DIXMIER_L, 12)[::-1]
        with pytest.raises(InternalInconsistencyError, match="descending order of their diagonal"):
            _ad_matrix_rows(DIXMIER_L, columns)


class TestYSectorAgainstMirrorReference:
    """The solver reaches the y sector through the transpose; this reference does not."""

    @settings(max_examples=40, deadline=None)
    @given(sector_elements("y"), st.integers(0, 3))
    def test_y_dominant(self, p, extra):
        assume(diag_degree(p) <= 0 < weighted_degree(p, (-1, 1)))
        bound = total_degree(p) + extra
        solved = centralizer_basis(p, bound)
        assert solved.sector == "y"
        assert json.dumps(basis_to_json(solved)) == json.dumps(
            basis_to_json(mirror_reference(p, bound))
        )

    def test_homogeneous_y(self):
        p = parse_element("X^2*Y^4 + X*Y^3 + 2*Y^2")
        assert json.dumps(basis_to_json(centralizer_basis(p, 18))) == json.dumps(
            basis_to_json(mirror_reference(p, 18))
        )


@st.composite
def off_axis_leads(draw):
    """A leading term X^(a+r) Y^a with a >= 1, such as X^2 Y, above every other diagonal."""
    a, r = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    rest = draw(weyl_elements(max_exp=3, max_terms=3))
    rest = from_terms([(i, j, v) for (i, j), v in rest.terms.items() if i - j < r])
    return rest + from_terms([(a + r, a, draw(_coeffs))])


class TestDescentAgainstFullElimination:
    @settings(max_examples=60, deadline=None)
    @given(sector_elements("x"), st.integers(0, 5))
    def test_x_dominant(self, p, extra):
        assume(diag_degree(p) > 0)
        assert_same_as_full_elimination(p, total_degree(p) + extra)

    @settings(max_examples=60, deadline=None)
    @given(sector_elements("y"), st.integers(0, 5))
    def test_y_dominant(self, p, extra):
        assume(diag_degree(p) <= 0 < weighted_degree(p, (-1, 1)))
        assert centralizer_basis(p, total_degree(p)).sector == "y"
        assert_same_as_full_elimination(p, total_degree(p) + extra)

    @settings(max_examples=40, deadline=None)
    @given(off_axis_leads(), st.integers(0, 5))
    def test_direction_off_the_x_axis(self, p, extra):
        assert centralizer_basis(p, total_degree(p)).direction[1] > 0
        assert_same_as_full_elimination(p, total_degree(p) + extra)

    @pytest.mark.parametrize(
        "script, bound",
        [
            ("addY:Y^3", 12),
            ("addY:Y^2; addX:X^2", 12),
            ("fourier; addY:Y^3; addX:X^3", 9),
            ("fourier; addX:X^2; addY:Y^2", 12),
            ("addY:Y^2; addX:X^3", 18),
        ],
    )
    def test_script_pairs(self, script, bound):
        assert_same_as_full_elimination(dixmier_pair_from_script(_parse_script(script)).p, bound)

    @pytest.mark.parametrize(
        "text", ["(Y^2 + X^3 + 1)^2 + 2*X", "(X^2 + Y^3 + 1)^2 + 2*Y", "X + (Y + X^2)^3"]
    )
    def test_dixmier_examples(self, text):
        assert_same_as_full_elimination(parse_element(text), 18)


@st.composite
def dixmier_family(draw):
    """(Y^2 + X^3 + c)^2 + a X; c = 1, a = 2 is Dixmier's L, of period 2."""
    c, a = draw(st.sampled_from([(1, 2), (Fraction(1, 2), 2), (1, Fraction(-3, 4)), (0, 1)]))
    return power(power(Y, 2) + power(X, 3) + c, 2) + a * X


@st.composite
def monomial_leading_forms(draw):
    """A single term on the top diagonal of either sector, and lower terms below it."""
    a, r = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    rest = draw(weyl_elements(max_exp=3, max_terms=3))
    rest = from_terms([(i, j, v) for (i, j), v in rest.terms.items() if i - j < r])
    p = rest + from_terms([(a + r, a, draw(_coeffs))])
    return p if draw(st.booleans()) else transpose(p)


@st.composite
def script_pairs(draw):
    """First or second element of a random automorphism-script pair."""
    limits = ScriptLimits(max_len=3, max_poly_degree=2, coeff_bound=2, max_total_degree=8)
    pair = dixmier_pair_from_script(random_script(random.Random(draw(st.integers(0, 10**6))), limits))
    return pair.p if draw(st.booleans()) else pair.q


class TestPolygonAgainstFullTriangle:
    """The region cut rests on a theorem; here it is checked against no cut at all."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.one_of(
            sector_elements("x"),
            sector_elements("y"),
            dixmier_family(),
            monomial_leading_forms(),
            script_pairs(),
        ),
        st.integers(0, 6),
    )
    def test_same_basis(self, p, extra):
        assume(not in_xy_subalgebra(p))
        assert_same_as_full_elimination(p, total_degree(p) + extra)

    def test_dixmier_l_period_two(self):
        assert_same_as_full_elimination(DIXMIER_L, 27)


PAIR18 = "addY:Y^2+Y; addX:X^3-2*X; addY:Y^3+1"


class TestEachSideAgainstFullElimination:
    """Each side forced, against plain-side elimination of the whole triangle.

    The mirror side runs the descent on the transpose and rebases its
    vectors; it is only forced where it is usable.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            sector_elements("x"),
            sector_elements("y"),
            monomial_leading_forms(),
            dixmier_family(),
            script_pairs(),
        ),
        st.integers(0, 6),
    )
    @pytest.mark.parametrize("side", SIDES)
    def test_same_basis(self, side, p, extra):
        assume(not in_xy_subalgebra(p))
        assume(side == "plain" or mirror_usable(canonical(p)))
        assert_same_as_full_elimination(p, total_degree(p) + extra, side)

    @pytest.mark.parametrize(
        "script, bound",
        [
            ("addY:Y^2; addX:X^2", 12),
            ("fourier; addY:Y^3; addX:X^3", 9),
            ("fourier; addX:X^2; addY:Y^2", 12),
            ("fourier; addX:X^3; addY:Y^2", 18),
        ],
    )
    @pytest.mark.parametrize("side", SIDES)
    def test_script_pairs(self, side, script, bound):
        p = dixmier_pair_from_script(_parse_script(script)).p
        assert mirror_usable(canonical(p))
        assert_same_as_full_elimination(p, bound, side)


class TestSideChoice:
    """The mirror side is taken when usable and its ray holds fewer points of the region."""

    @pytest.mark.parametrize("text", ["(Y^2 + X^3 + 1)^2 + 2*X", "X + (Y + X^2)^3"], ids=["L", "P6"])
    def test_mirror_at_36(self, text):
        assert chosen_side(parse_element(text), 36) == "mirror"

    def test_pair18_stays_plain(self):
        p = dixmier_pair_from_script(_parse_script(PAIR18)).p
        assert mirror_usable(canonical(p))
        assert chosen_side(p, 54) == "plain"

    def test_homogeneous_stays_plain(self):
        assert not mirror_usable(H)
        assert chosen_side(H, 30) == "plain"

    def test_non_monomial_mirror_form_takes_mirror(self):
        # the lowest diagonal holds Y^2 + X Y^3; the mirror ray, through X Y^3,
        # has fewer points of the region than the plain ray X^a
        q = parse_element("X^3 + Y^2 + X*Y^3")
        columns = _newton_columns(q, 12)
        assert sum(b == 3 * a for a, b in columns) < sum(b == 0 for a, b in columns)
        assert len(leading_form(transpose(q)).terms) == 2
        assert mirror_usable(q)
        assert chosen_side(q, 12) == "mirror"
        assert_same_as_full_elimination(q, 12)


def descent_with_floor(move):
    """A `_ray_descent` that runs with move(floor) in place of the floor it is given."""
    descent = weylalg.centralizer._ray_descent

    def moved(rows, columns, lead, direction, floor):
        return descent(rows, columns, lead, direction, move(floor))

    return moved


class ReadRow(dict):
    """A row of the ad matrix that records whether the descent read it.

    A read is any access to its entries: iteration, `items`, `get` or
    indexing.
    """

    read = False

    def __iter__(self):
        self.read = True
        return super().__iter__()

    def items(self):
        self.read = True
        return super().items()

    def get(self, *args):
        self.read = True
        return super().get(*args)

    def __getitem__(self, key):
        self.read = True
        return super().__getitem__(key)


def floor_and_unread_rows(p, bound):
    """(floor, rows the descent left unread, dimension) of `centralizer_basis(p, bound)`."""
    descent = weylalg.centralizer._ray_descent
    seen = {}

    def reading(rows, columns, lead, direction, floor):
        rows = [(ReadRow(row), target) for row, target in rows]
        vectors = descent(rows, columns, lead, direction, floor)
        seen.update(floor=floor, unread=sum(not row.read for row, _ in rows))
        return vectors

    with mock.patch.object(weylalg.centralizer, "_ray_descent", reading):
        dimension = centralizer_basis(p, bound).dimension
    return seen["floor"], seen["unread"], dimension


# an x-sector Dixmier pair whose descent stops early at bound 18, and the
# y-sector element of the golden `centralizer y sector` case.  A Dixmier pair
# with P in the y sector has P = aY + c, whose region is its ray alone, so
# the descent there stops before its first row.
FLOOR_PAIR = dixmier_pair_from_script(_parse_script("addY:Y^2; addX:X^3"))
FLOOR_Y = parse_element("X*Y^2 + Y^3 + Y")
FLOOR_CASES = [(FLOOR_PAIR.p, 18), (FLOOR_Y, 12)]


class TestDescentFloor:
    """The descent stops once its kernel is down to the powers of P, and reads no further row."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            sector_elements("x"),
            sector_elements("y"),
            monomial_leading_forms(),
            dixmier_family(),
            script_pairs(),
            sector_script_pairs().map(lambda pair: pair.p),
        ),
        st.integers(0, 12),
    )
    @example(p=P6, extra=12)
    @example(p=H_Y, extra=6)
    @pytest.mark.parametrize("side", SIDES)
    def test_same_basis_without_the_floor(self, side, p, extra):
        """The basis taken from the powers is the one the full descent solves for."""
        assume(not in_xy_subalgebra(p))
        assume(side == "plain" or mirror_usable(canonical(p)))
        bound = total_degree(p) + extra
        with on_side(side):
            basis = centralizer_basis(p, bound)
            with mock.patch.object(weylalg.centralizer, "_ray_descent", descent_with_floor(lambda floor: 0)):
                reference = centralizer_basis(p, bound)
        assert json.dumps(basis_to_json(basis)) == json.dumps(basis_to_json(reference))
        # the floor is a lower bound: the powers of p up to the bound
        assert basis.dimension >= bound // total_degree(p) + 1

    @pytest.mark.parametrize(
        "source, bound, floor, skips",
        [
            ("(Y^2 + X^3 + 1)^2 + 2*X", 36, 7, False),  # dimension 12
            ("X + (Y + X^2)^3", 36, 7, True),
            (PAIR18, 54, 4, True),
        ],
        ids=["L", "P6", "pair18"],
    )
    def test_rows_left_unread_only_at_the_floor(self, source, bound, floor, skips):
        p = dixmier_pair_from_script(_parse_script(source)).p if ":" in source else parse_element(source)
        for q in (p, transpose(p)):
            solved_floor, unread, dimension = floor_and_unread_rows(q, bound)
            assert solved_floor == floor
            assert bool(unread) == skips == (dimension == floor)

    @pytest.mark.parametrize("p, bound", FLOOR_CASES, ids=["x-sector", "y-sector"])
    def test_floor_above_the_kernel_raises(self, p, bound, monkeypatch):
        """The descent stops one dimension above the powers of P."""
        assert is_x_dominant(p) == (p is FLOOR_PAIR.p)
        powers = bound // total_degree(p) + 1
        monkeypatch.setattr(weylalg.centralizer, "_ray_descent", descent_with_floor(lambda floor: floor + 1))
        with pytest.raises(InternalInconsistencyError, match=f"stopped at dimension {powers + 1}, where the {powers} powers"):
            centralizer_basis(p, bound)

    @pytest.mark.parametrize(
        "argv, message",
        [
            # both stop the descent at the floor, one dimension above the
            # powers of P
            (
                ["check-dixmier", format_element(FLOOR_PAIR.p), format_element(FLOOR_PAIR.q)]
                + ["--max-total-degree", "18"],
                "the descent stopped at dimension 5, where the 4 powers",
            ),
            (
                ["centralizer", format_element(FLOOR_Y), "--max-total-degree", "12"],
                "the descent stopped at dimension 6, where the 5 powers",
            ),
        ],
        ids=["x-sector pair", "y-sector"],
    )
    def test_floor_above_the_kernel_exits_3(self, argv, message, capsys, monkeypatch):
        monkeypatch.setattr(weylalg.centralizer, "_ray_descent", descent_with_floor(lambda floor: floor + 1))
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal inconsistency: ") and message in err


def packed_calls(p, bound) -> tuple[int, int]:
    """(calls of the commutator `centralizer_basis` makes, dimension of its basis)."""
    spy = mock.Mock(wraps=weylalg.centralizer.commutator)
    with mock.patch.object(weylalg.centralizer, "commutator", spy):
        dimension = centralizer_basis(p, bound).dimension
    return spy.call_count, dimension


class TestCertificateByDimension:
    """The packed commutator runs exactly when the basis is above the floor of the powers of P."""

    @pytest.mark.parametrize(
        "p, bound, above",
        [
            (DIXMIER_L, 18, True),
            (DIXMIER_L, 36, True),
            (DIXMIER_L_MIRROR, 36, True),
            (DIXMIER_L_FOURIER, 24, True),
            (DIXMIER_L, 6, False),  # L's first element outside k[L] has degree 9
            (P6, 36, False),
            (H, 30, False),
            (H_Y, 30, False),
        ],
        ids=["L@18", "L@36", "L-mirror@36", "L-fourier@24", "L@6", "P6@36", "H@30", "H-y@30"],
    )
    def test_named(self, p, bound, above):
        calls, dimension = packed_calls(p, bound)
        floor = bound // total_degree(p) + 1
        assert (dimension > floor) == above
        assert calls == (1 if above else 0)

    @settings(max_examples=30, deadline=None)
    @given(sector_script_pairs(), st.integers(0, 9))
    def test_script_pairs_run_none(self, pair, extra):
        bound = total_degree(pair.p) + extra
        assert packed_calls(pair.p, bound) == (0, bound // total_degree(pair.p) + 1)


def descent_returns(p, bound) -> list[tuple[list | int, int]]:
    """(what `_ray_descent` returned, its floor) for each call `centralizer_basis` makes."""
    descent, seen = weylalg.centralizer._ray_descent, []

    def recording(rows, columns, lead, direction, floor):
        out = descent(rows, columns, lead, direction, floor)
        seen.append((out, floor))
        return out

    with mock.patch.object(weylalg.centralizer, "_ray_descent", recording):
        centralizer_basis(p, bound)
    return seen


def assert_stopped_or_above(p, bound):
    """The descent returns a count at most its floor, or more vectors than the floor.

    So a list of at most floor vectors in `centralizer_basis` comes only from
    a descent that lost a vector, which the powers catch
    (`test_derivation.py::TestPowerCertificate`).
    """
    returns = descent_returns(p, bound)
    assert len(returns) == 1
    for out, floor in returns:
        assert out <= floor if isinstance(out, int) else len(out) > floor


class TestDescentReturn:
    @pytest.mark.parametrize(
        "p, bound",
        [(DIXMIER_L, 6), (DIXMIER_L, 36), (DIXMIER_L_MIRROR, 36), (P6, 36), (P6, 60)],
        ids=["L@6", "L@36", "L-mirror@36", "P6@36", "P6@60"],
    )
    def test_named(self, p, bound):
        assert_stopped_or_above(p, bound)

    @settings(max_examples=30, deadline=None)
    @given(sector_script_pairs(), st.integers(0, 9))
    def test_script_pairs(self, pair, extra):
        assert_stopped_or_above(pair.p, total_degree(pair.p) + extra)


class TestRegionByIntervals:
    """`_newton_columns` cuts one interval per X exponent; the reference tests every monomial of the triangle."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(sector_elements("x"), sector_elements("y"), monomial_leading_forms(), dixmier_family()),
        st.integers(0, 6),
    )
    @pytest.mark.parametrize("side", SIDES)
    def test_same_columns_as_the_triangle(self, side, p, extra):
        assume(not in_xy_subalgebra(p))
        q = canonical(p) if side == "plain" else transpose(canonical(p))
        bound = total_degree(q) + extra
        columns = _newton_columns(q, bound)
        assert columns == triangle_columns(q, bound)
        # the region of transpose(q) is the transpose of the region of q
        mirrored = sorted(((b, a) for a, b in columns), key=_order_key, reverse=True)
        assert mirrored == _newton_columns(transpose(q), bound)

    @pytest.mark.parametrize("p", [DIXMIER_L, P6, H, DIXMIER_L_FOURIER], ids=["L", "P6", "H", "L-fourier"])
    def test_named_at_36(self, p):
        q = canonical(p)
        assert _newton_columns(q, 36) == triangle_columns(q, 36)


class TestRayDegree:
    def test_constant(self):
        basis = centralizer_basis(power(X, 2), 6)
        assert ray_degree(ONE, basis) == 0

    def test_x_cubed(self):
        basis = centralizer_basis(power(X, 2), 6)
        assert ray_degree(power(X, 3), basis) == 3

    def test_x2y_squared(self):
        basis = centralizer_basis(X2Y, 9)
        assert ray_degree(power(X2Y, 2), basis) == 2

    def test_membership_error(self):
        basis = centralizer_basis(power(X, 2), 6)
        with pytest.raises(MembershipError):
            ray_degree(Y, basis)
        with pytest.raises(MembershipError):
            ray_degree(ZERO, basis)


def expand_by_fractions(basis, q):
    """The expansion rebuilt in Fractions: sum c_l S_l as an element, compared with q."""
    coords = {}
    rebuilt = ZERO
    for l in basis.levels:
        c = q.coefficient(*basis.ray_point(l))
        if c:
            coords[l] = c
            rebuilt = rebuilt + c * basis.by_level[l]
    return coords if rebuilt == q else None


def off_ray(basis, m) -> bool:
    di, dj = basis.direction
    return m[0] * dj != m[1] * di


@st.composite
def expansion_cases(draw):
    """(basis, q, inside): q in the span, or moved out of it by one off-ray change."""
    p = draw(st.one_of(sector_elements("x"), sector_elements("y"), dixmier_family(), script_pairs()))
    assume(not in_xy_subalgebra(p))
    basis = centralizer_basis(p, total_degree(p) + draw(st.integers(0, 4)))
    coeffs = draw(st.lists(st.one_of(st.just(0), _coeffs), min_size=basis.dimension, max_size=basis.dimension))
    q = ZERO
    for c, e in zip(coeffs, basis.elements()):
        q = q + c * e
    change = draw(st.sampled_from(["none", "extra off-ray term", "wrong coefficient"]))
    if change == "extra off-ray term":
        a, b = draw(st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda m: off_ray(basis, m)))
        assume(a + b and (a, b) not in q.support())
        q = q + from_terms([(a, b, draw(_coeffs))])
    elif change == "wrong coefficient":
        spots = sorted(m for m in q.support() if off_ray(basis, m))
        assume(spots)
        a, b = draw(st.sampled_from(spots))
        q = q + from_terms([(a, b, draw(_coeffs))])
    return basis, q, change == "none"


class TestIntegerExpansion:
    """`expand_in_basis` in integers agrees with the rebuild in Fractions."""

    @settings(max_examples=150, deadline=None)
    @given(expansion_cases())
    def test_agrees_with_fraction_rebuild(self, case):
        basis, q, inside = case
        coords = expand_in_basis(basis, q)
        assert coords == expand_by_fractions(basis, q)
        assert (coords is not None) == inside

    @pytest.mark.parametrize("bound", [9, 18])
    def test_zero_and_fractional_combinations(self, bound):
        basis = centralizer_basis(DIXMIER_L - Fraction(1, 3) * X, bound)
        assert expand_in_basis(basis, ZERO) == expand_by_fractions(basis, ZERO) == {}
        q = ZERO
        for n, l in enumerate(basis.levels):
            q = q + Fraction(2 * n - 3, 7 + n) * basis.by_level[l]
            assert expand_in_basis(basis, q) == expand_by_fractions(basis, q) == {
                k: Fraction(2 * m - 3, 7 + m) for m, k in enumerate(basis.levels[: n + 1])
            }
        assert expand_in_basis(basis, q + Fraction(1, 5) * Y) is None

    def test_term_count_decides_a_missing_term(self):
        # q is the leading term of a basis vector alone: every term of q
        # matches the rebuilt vector, which has more terms
        basis = centralizer_basis(DIXMIER_L, 18)
        for l in basis.levels[1:]:
            lead = from_terms([(*basis.ray_point(l), 1)])
            assert len(basis.by_level[l].terms) > 1
            assert expand_in_basis(basis, lead) is None is expand_by_fractions(basis, lead)
            assert expand_in_basis(basis, basis.by_level[l]) == {l: 1}


class TestDecompose:
    def test_constant(self):
        basis = centralizer_basis(power(X, 2), 6)
        assert decompose(ONE, basis) == [XYPolynomial([1])]

    def test_polynomial_readback(self):
        basis = centralizer_basis(power(X, 2), 6)
        parts = decompose(power(X, 3) + 2 * X, basis)
        assert parts == [XYPolynomial([0, 2, 0, 1])]

    def test_power_minus_constant(self):
        p = X + power(Y, 2)
        basis = centralizer_basis(p, 6)
        parts = decompose(power(p, 2) - 3, basis)
        assert parts == [Z * Z - 3]

    def test_recompose_roundtrip(self):
        p = X + power(Y, 2)
        basis = centralizer_basis(p, 8)
        element = power(p, 3) - Fraction(1, 2) * power(p, 2) + 5
        parts = decompose(element, basis)
        assert recompose(parts, basis) == element

    def test_uniqueness_under_shift(self):
        basis = centralizer_basis(power(X, 2), 8)
        element = power(X, 3) + 2 * X
        parts = decompose(element, basis)
        shifted = decompose(element + mul(basis.picks[0], element), basis)
        assert shifted == [(1 + Z) * parts[0]]

    def test_membership_error(self):
        basis = centralizer_basis(power(X, 2), 6)
        with pytest.raises(MembershipError):
            decompose(Y, basis)

    def test_basis_of_the_constants_round_trips(self):
        # it has no picks, and S_0 is 1 both ways
        basis = CentralizerBasis(element=X, bound=0, levels=(0,), by_level={0: ONE})
        parts = decompose(3 * ONE, basis)
        assert parts == [XYPolynomial([3])]
        assert recompose(parts, basis) == 3 * ONE


class TestDecomposeSyntheticPeriodTwo:
    """Period two on real structure: Dixmier's L, whose basis at bound 9 is 1, L - 1, S.

    The picks are S0 = L - 1 at level 6 (the basis is reduced, so it has
    no constant term) and S at level 9, the pick of the odd residue class;
    the levels follow the monoid generated by 6 and 9.
    """

    def test_structure_is_derived_from_the_levels(self):
        basis = centralizer_basis(DIXMIER_L, 9)
        assert basis.levels == (0, 6, 9)
        assert (basis.level_gcd, basis.period, basis.pick_levels) == (3, 2, (6, 9))
        assert basis.picks == (DIXMIER_L - 1, basis.by_level[9])
        assert basis.ray_degrees == {0: 0, 6: 2, 9: 3}
        assert not basis.truncated

    def test_even_power(self):
        basis = centralizer_basis(DIXMIER_L, 9)
        parts = decompose(DIXMIER_L - 5, basis)
        assert parts == [Z - 4, XYPolynomial()]

    def test_odd_power(self):
        basis = centralizer_basis(DIXMIER_L, 9)
        parts = decompose(basis.picks[1], basis)
        assert parts == [XYPolynomial(), XYPolynomial([1])]

    def test_mixture(self):
        basis = centralizer_basis(DIXMIER_L, 9)
        s0, s = basis.picks
        element = s - 4 * s0 + Fraction(1, 3)
        parts = decompose(element, basis)
        assert recompose(parts, basis) == element
        assert parts == [XYPolynomial([Fraction(1, 3), -4]), XYPolynomial([1])]

    def test_higher_products(self):
        # S0^3 and S0 S reach levels 18 and 15, so the basis needs bound 18
        basis = centralizer_basis(DIXMIER_L, 18)
        s0, s = basis.picks
        assert decompose(power(s0, 3), basis) == [Z ** 3, XYPolynomial()]
        assert decompose(mul(s0, s), basis) == [XYPolynomial(), Z]
        element = mul(s0, s) - 2 * power(s0, 2) + s
        parts = decompose(element, basis)
        assert recompose(parts, basis) == element
        assert parts == [XYPolynomial([0, 0, -2]), Z + 1]


def corrupts_product(change):
    """A `_product` whose integer sums pass through `change`: a fault of the program, not of the input."""
    product = weylalg.centralizer._product
    return lambda ta, tb: change(product(ta, tb))


def adds_x(sums):
    # off by X, which leaves the span of L's centralizer
    return {**sums, (1, 0): sums.get((1, 0), 0) + 1}


def doubled(sums):
    # still in the span, but 2 at its leading level
    return {m: 2 * v for m, v in sums.items()}


class TestDecomposeFaults:
    """q is expanded once; a product of the table that leaves the span or is not monic is an internal fault."""

    def test_expands_once(self, monkeypatch):
        basis = centralizer_basis(DIXMIER_L, 18)
        s0, s = basis.picks
        spy = mock.Mock(wraps=expand_in_basis)
        monkeypatch.setattr(weylalg.centralizer, "expand_in_basis", spy)
        assert decompose(mul(s0, s) - 2 * power(s0, 2) + s, basis) == [XYPolynomial([0, 0, -2]), Z + 1]
        assert spy.call_count == 1

    def test_corrupted_product_raises(self, monkeypatch):
        # level 12 is S_0^2, the first product the table forms; levels 0, 6 and 9 are basis vectors
        basis = centralizer_basis(DIXMIER_L, 18)
        monkeypatch.setattr(weylalg.centralizer, "_product", corrupts_product(adds_x))
        assert decompose(basis.by_level[9], basis) == [XYPolynomial(), XYPolynomial([1])]
        with pytest.raises(InternalInconsistencyError, match="at level 12"):
            decompose(basis.by_level[12], basis)

    def test_product_that_is_not_monic_raises(self, monkeypatch):
        basis = centralizer_basis(DIXMIER_L, 18)
        coords = expand_in_basis(basis, 2 * power(basis.picks[0], 2))  # in the span, 2 at the top
        assert max(coords) == 12 and coords[12] == 2
        monkeypatch.setattr(weylalg.centralizer, "_product", corrupts_product(doubled))
        with pytest.raises(InternalInconsistencyError, match="at level 12"):
            decompose(basis.by_level[12], basis)

    def test_corrupted_product_exits_3(self, capsys, monkeypatch):
        element = format_element(centralizer_basis(DIXMIER_L, 18).by_level[12])
        monkeypatch.setattr(weylalg.centralizer, "_product", corrupts_product(adds_x))
        argv = ["decompose", element, "--basis-of", "(Y^2 + X^3 + 1)^2 + 2*X", "--max-total-degree", "18"]
        assert main(argv) == 3
        assert "internal inconsistency: the product at level 12 is not monic" in capsys.readouterr().err

    def test_membership_is_checked_before_truncation(self):
        # levels 0, 3, 4: period 3, and no level of degree 2 mod 3
        by_level = {0: ONE, 3: power(X, 3), 4: power(X, 4)}
        basis = CentralizerBasis(element=X, bound=4, levels=(0, 3, 4), by_level=by_level)
        assert basis.truncated
        with pytest.raises(MembershipError):
            decompose(Y, basis)
        with pytest.raises(BoundError):
            decompose(power(X, 3), basis)


class TestRecompose:
    """One part per residue class: L's basis at bound 18 has period 2."""

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_wrong_number_of_parts_is_malformed(self, count):
        basis = centralizer_basis(DIXMIER_L, 18)
        assert basis.period == 2
        with pytest.raises(MalformedInputError, match=f"takes 2 parts, one per residue class, got {count}"):
            recompose([Z + 1] * count, basis)


def residual_decompose(q, basis):
    """`decompose` by subtracting leading products from the residual, with `mul` and `power`.

    The reference for the table: each step matches the leading ray
    coefficient with S_0^m S_r of the same degree, formed from scratch.
    """
    period, s0 = basis.period, basis.picks[0] if basis.picks else ONE
    coeffs = [{} for _ in range(period)]
    levels = list(basis.levels)
    residual = q
    while residual:
        while not residual.coefficient(*basis.ray_point(levels[-1])):
            levels.pop()
        level = levels.pop()
        lam = residual.coefficient(*basis.ray_point(level))
        deg = basis.ray_degrees[level]
        residue = deg % period
        m = (deg - (basis.ray_degrees[basis.pick_levels[residue]] if residue else 0)) // period
        coeffs[residue][m] = lam
        factor = power(s0, m)
        if residue:
            factor = mul(factor, basis.picks[residue])
        residual = residual - lam * factor
    return [XYPolynomial([acc.get(m, 0) for m in range(max(acc, default=-1) + 1)]) for acc in coeffs]


@cache
def table_basis(name):
    """(basis, {level: (r, m, S_0^m S_r by `mul` and `power`)}) for one of the round-trip bases."""
    p, bound = {
        "L@18": (DIXMIER_L, 18),
        "L@30": (DIXMIER_L, 30),
        "P6@36": (P6, 36),
        "L-fourier@24": (DIXMIER_L_FOURIER, 24),
        "H_Y@30": (H_Y, 30),
    }[name]
    basis = centralizer_basis(p, bound)
    s0, n = basis.picks[0], basis.period
    products = {}
    for l in basis.levels:
        deg = basis.ray_degrees[l]
        r = deg % n
        m = (deg - (basis.ray_degrees[basis.pick_levels[r]] if r else 0)) // n
        products[l] = (r, m, mul(power(s0, m), basis.picks[r]) if r else power(s0, m))
    return basis, products


class TestProductTable:
    """`decompose` solves against a lazy table of the products S_0^m S_r, one table per basis."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_round_trip_against_the_residual_loop(self, data):
        # L's Fourier image leads at X^4, on its top diagonal, so its basis is
        # in the x sector, with picks at levels 4 and 6; H_Y's is in the y sector
        name = data.draw(st.sampled_from(["L@18", "L@30", "P6@36", "L-fourier@24", "H_Y@30"]))
        basis, products = table_basis(name)
        assert (basis.sector, basis.period) == {"P6@36": ("x", 1), "H_Y@30": ("y", 1)}.get(name, ("x", 2))
        coeffs = data.draw(st.dictionaries(st.sampled_from(basis.levels), _coeffs, max_size=len(basis.levels)))
        q, expected = ZERO, [{} for _ in range(basis.period)]
        for l, c in coeffs.items():
            r, m, product = products[l]
            q, expected[r][m] = q + c * product, c
        fresh = data.draw(st.booleans())  # a copy by the constructor starts with an empty table
        parts = decompose(q, replace(basis) if fresh else basis)
        assert parts == residual_decompose(q, basis)
        assert parts == [XYPolynomial([acc.get(m, 0) for m in range(max(acc, default=-1) + 1)]) for acc in expected]
        assert recompose(parts, basis) == q

    def test_low_element_on_a_high_basis_forms_no_product(self, monkeypatch):
        basis = centralizer_basis(DIXMIER_L, 60)
        spy = mock.Mock(wraps=weylalg.centralizer._product)
        monkeypatch.setattr(weylalg.centralizer, "_product", spy)
        assert decompose(basis.by_level[9], basis) == [XYPolynomial(), XYPolynomial([1])]
        assert spy.call_count == 0

    def test_each_product_is_formed_once_per_basis(self, monkeypatch):
        basis = centralizer_basis(DIXMIER_L, 30)
        s0, s = basis.picks
        assert basis.levels == (0, 6, 9, 12, 15, 18, 21, 24, 27, 30) and basis.pick_levels == (6, 9)
        spy = mock.Mock(wraps=weylalg.centralizer._product)
        monkeypatch.setattr(weylalg.centralizer, "_product", spy)
        calls = []
        for q in (power(s, 2) + s0, mul(s0, s), power(s0, 4) - mul(s0, s), power(s, 2)):
            parts = decompose(q, basis)
            assert recompose(parts, basis) == q
            calls.append(spy.call_count)
        # leading at levels 18, 15, 24 and 18: the first call forms the products at
        # levels 12, 15 and 18, the third those at 21 and 24, and the others none
        assert calls == [3, 3, 5, 5]
        decompose(power(s0, 4) - mul(s0, s), replace(basis))
        assert spy.call_count == 10


class TestMonomialAlgebraEmbedding:
    def test_x2y(self):
        assert is_monomial_algebra_embedding(centralizer_basis(X2Y, 9))

    def test_x_squared(self):
        assert is_monomial_algebra_embedding(centralizer_basis(power(X, 2), 8))

    def test_diagonal_pattern(self):
        # for XY the centralizer is the polynomials in XY; the level-l basis
        # element (XY)^l multiplies monomially by construction
        levels = tuple(range(5))
        by_level = {l: power(XY, l) for l in levels}
        basis = CentralizerBasis(
            element=XY,
            bound=8,
            levels=levels,
            by_level=by_level,
        )
        assert is_monomial_algebra_embedding(basis)

    def test_rejects_inhomogeneous(self):
        basis = centralizer_basis(X + power(Y, 2), 6)
        with pytest.raises(NotHomogeneousError):
            is_monomial_algebra_embedding(basis)
