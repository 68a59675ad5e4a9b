import random
from fractions import Fraction
from itertools import count

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import weylalg.centralizer
from weylalg import (
    BoundEscapeError,
    CentralizerBasis,
    DixmierPair,
    ElementaryAutomorphism,
    ImpossiblePairError,
    InternalInconsistencyError,
    MalformedInputError,
    NotDixmierPairError,
    ONE,
    ScriptLimits,
    WrongSectorError,
    X,
    XYPolynomial,
    Y,
    ZERO,
    ad,
    apply_script,
    centralizer_basis,
    check_dixmier_pair,
    commutator,
    derivation_report,
    dixmier_pair,
    dixmier_pair_from_script,
    evaluate_at_element,
    expand_in_basis,
    from_terms,
    is_dixmier_pair,
    is_x_dominant,
    mul,
    no_partner_check,
    power,
    random_script,
    ray_degree,
    total_degree,
)

from weylalg.centralizer import _ad_matrix_rows, _monomials_upto, _order_key
from weylalg.cli import format_element, main
from weylalg.linalg import sparse_solvable
from weylalg.oracle import act, max_y_exponent, x_power

from conftest import weyl_elements

XY = mul(X, Y)
P_SHIFTED = X + power(Y, 2)


def apply_by_products(auto: ElementaryAutomorphism, a):
    """The image of a by substitution, with general products.

    Each term X^i Y^j of a goes to image_x^i * image_y^j; the powers of each
    image are built once by `mul`, and the terms are summed in Fractions.
    """
    if auto.kind == "addY":
        image_x, image_y = X + auto.poly, Y
    elif auto.kind == "addX":
        image_x, image_y = X, Y + auto.poly
    else:
        image_x, image_y = Y, -X
    xs, ys = [ONE], [ONE]
    for i, j in a.terms:
        while len(xs) <= i:
            xs.append(mul(xs[-1], image_x))
        while len(ys) <= j:
            ys.append(mul(ys[-1], image_y))
    return from_terms(
        (x, y, c * v)
        for (i, j), c in a.terms.items()
        for (x, y), v in mul(xs[i], ys[j]).terms.items()
    )


_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@st.composite
def automorphisms(draw, max_degree: int = 3):
    kind = draw(st.sampled_from(["addY", "addX", "fourier"]))
    if kind == "fourier":
        return ElementaryAutomorphism("fourier")
    coeffs = enumerate(draw(st.lists(_fractions, max_size=max_degree + 1)))
    terms = [(0, k, c) if kind == "addY" else (k, 0, c) for k, c in coeffs]
    return ElementaryAutomorphism(kind, from_terms(terms))


# zero, scalars, small elements, and sparse elements with high X or Y exponents
_apply_inputs = st.one_of(
    st.just(ZERO),
    _fractions.map(lambda c: from_terms([(0, 0, c)])),
    weyl_elements(),
    weyl_elements(max_exp=12, max_terms=3),
)


def partner_free_by_elimination(p, bound: int) -> bool:
    """No q of total degree <= bound has [q, p] = 1, decided by linear algebra.

    The ad matrix of p over every monomial up to the bound, with the
    right-hand side -1 of [p, q] = -1 appended as the last column, goes
    through `sparse_solvable`; `_ad_matrix_rows` scales p by the lcm of its
    denominators, which leaves solvability unchanged.
    """
    columns = _monomials_upto(bound)
    ncols = len(columns)
    rows, targets = _ad_matrix_rows(p, columns)
    rows = [dict(r) for r in rows]
    if (0, 0) in targets:
        rows[targets.index((0, 0))][ncols] = -1
    else:
        rows.append({ncols: -1})
    return not sparse_solvable(rows, ncols)


class TestIsDixmierPair:
    def test_generators(self):
        assert is_dixmier_pair(X, Y)

    def test_shifted(self):
        assert is_dixmier_pair(P_SHIFTED, Y)

    def test_failing(self):
        assert not is_dixmier_pair(X, X)

    def test_factory_validates(self):
        pair = dixmier_pair(P_SHIFTED, Y)
        assert pair.witness == ONE
        with pytest.raises(NotDixmierPairError):
            dixmier_pair(X, X)


class TestAd:
    def test_lowers_powers_of_x(self):
        for m in range(1, 6):
            assert ad(Y, power(X, m)) == m * power(X, m - 1)

    def test_kills_constants(self):
        assert ad(from_terms([(2, 3, 5)]), ONE) == ZERO

    def test_leibniz_on_square(self):
        assert ad(Y, power(P_SHIFTED, 2)) == 2 * P_SHIFTED


@settings(max_examples=40, deadline=None)
@given(weyl_elements(), weyl_elements(), weyl_elements())
def test_leibniz_rule(q, r, s):
    left = ad(q, mul(r, s))
    right = mul(ad(q, r), s) + mul(r, ad(q, s))
    assert left == right


class TestDerivationReport:
    def test_plain_generators(self):
        pair = dixmier_pair(X, Y)
        basis = centralizer_basis(X, 6)
        report = derivation_report(pair, basis)
        assert report.nonzero_picks == (0,)
        assert report.degrees == {0: (1, 0)}
        assert report.constant_drop == -1
        assert report.kernel_dim == 1
        assert not report.degenerate

    def test_shifted(self):
        pair = dixmier_pair(P_SHIFTED, Y)
        basis = centralizer_basis(P_SHIFTED, 6)
        report = derivation_report(pair, basis)
        assert report.constant_drop == -1
        assert report.kernel_dim == 1

    def test_degenerate_truncation(self):
        pair = dixmier_pair(X, Y)
        basis = CentralizerBasis(
            element=X,
            bound=0,
            direction=(1, 0),
            levels=(0,),
            by_level={0: ONE},
        )
        report = derivation_report(pair, basis)
        assert report.degenerate
        assert report.nonzero_picks == ()
        assert report.constant_drop is None
        assert report.kernel_dim == 1

    def test_bound_escape(self):
        pair = dixmier_pair(X, Y)
        basis = CentralizerBasis(
            element=X,
            bound=1,
            direction=(1, 0),
            levels=(0, 3),
            by_level={0: ONE, 3: power(X, 3)},
        )
        # the image [Y, X^3] = 3 X^2 has total degree 2, the basis bound is 1
        with pytest.raises(BoundEscapeError, match=r"total degree 2, above the basis bound 1;"):
            derivation_report(pair, basis)

    def test_image_outside_span_is_inconsistent(self):
        pair = dixmier_pair(X, Y)
        basis = CentralizerBasis(
            element=X,
            bound=6,
            direction=(1, 0),
            levels=(0, 3),
            by_level={0: ONE, 3: power(X, 3)},
        )
        with pytest.raises(InternalInconsistencyError):
            derivation_report(pair, basis)

    def test_wrong_basis_rejected(self):
        pair = dixmier_pair(X, Y)
        basis = centralizer_basis(P_SHIFTED, 6)
        with pytest.raises(MalformedInputError):
            derivation_report(pair, basis)


class TestCheckDixmierPair:
    def test_generators(self):
        report = check_dixmier_pair(dixmier_pair(X, Y), 5)
        assert report.holds
        assert report.centralizer_dim == report.powers_dim == 6

    def test_shifted(self):
        report = check_dixmier_pair(dixmier_pair(P_SHIFTED, Y), 6)
        assert report.holds
        assert report.centralizer_dim == 4

    def test_composed_automorphism_image(self):
        script = [
            ElementaryAutomorphism("addY", power(Y, 2)),
            ElementaryAutomorphism("addX", power(X, 2)),
        ]
        pair = dixmier_pair_from_script(script)
        report = check_dixmier_pair(pair, 3 * total_degree(pair.p))
        assert report.holds

    def test_impossible_pair(self):
        fake = DixmierPair(p=XY, q=X, witness=commutator(X, XY))
        with pytest.raises(ImpossiblePairError):
            check_dixmier_pair(fake, 6)

    def test_forged_witness_rejected(self):
        fake = DixmierPair(p=X, q=X, witness=ONE)
        with pytest.raises(NotDixmierPairError):
            check_dixmier_pair(fake, 4)


# (pair, bound): an x-sector pair with deg P = 6, and a y-sector pair with
# fractional coefficients, whose P = Y - 1/2 has a ray level in its region
# for every power up to the bound
CERTIFIED_PAIRS = [
    (
        dixmier_pair_from_script(
            [ElementaryAutomorphism("addY", power(Y, 2)), ElementaryAutomorphism("addX", power(X, 3))]
        ),
        18,
    ),
    (
        dixmier_pair_from_script(
            [
                ElementaryAutomorphism("addY", from_terms([(0, 0, Fraction(-1, 2))])),
                ElementaryAutomorphism("fourier"),
                ElementaryAutomorphism("addY", power(Y, 3) - Fraction(1, 3) * Y),
            ]
        ),
        6,
    ),
]
CERTIFIED_IDS = ["x-sector", "y-sector"]


def _lead_key(vec):
    return _order_key(max(vec, key=_order_key))


def _drop_top(q, columns, direction, vectors):
    top = max(vectors, key=_lead_key)
    return [vec for vec in vectors if vec is not top]


def _off_ray_term(q, columns, direction, vectors):
    # Y^k lies below the leading term of every vector of positive level,
    # and off the ray, since the ray of an x-dominant q has di >= 1
    top = max(vectors, key=_lead_key)
    k = next(k for k in count(1) if (0, k) not in top)
    top[0, k] = Fraction(1, 7)
    return vectors


def _free_ray_vector(q, columns, direction, vectors):
    """Append X^a Y^b + Y, monic at a ray level (a, b) that no vector has and
    where every power of q up to the bound has coefficient 0: the highest
    such level in the region, or the level above the top vector when the
    region has none.  The powers still expand exactly, so only the packed
    check can tell that the vector does not commute with q."""
    di, dj = direction
    leads = {max(vec, key=_order_key) for vec in vectors}
    powers = [power(q, m) for m in range(len(vectors))]
    free = [
        (a, b)
        for a, b in columns
        if a * dj == b * di
        and (a, b) not in leads
        and not any(power_m.coefficient(a, b) for power_m in powers)
    ]
    level = max(free, key=_order_key)[0] // di if free else max(a // di for a, _ in leads) + 1
    return vectors + [{(level * di, level * dj): Fraction(1), (0, 1): Fraction(1)}]


def corrupted_kernel(change):
    """A `_reduced_kernel` whose output in q's coordinates goes through `change`."""
    kernel = weylalg.centralizer._reduced_kernel

    def corrupting(q, columns, direction, floor):
        return change(q, columns, direction, kernel(q, columns, direction, floor))

    return corrupting


# corruption -> the message of the route that must catch it
CERTIFICATE_ROUTES = {
    "dropped vector": (_drop_top, "a power of p is missing"),
    "off-ray term": (_off_ray_term, "a power of p is missing"),
    "free ray vector": (_free_ray_vector, "does not commute"),
}


def _check_dixmier_argv(pair, bound):
    return ["check-dixmier", format_element(pair.p), format_element(pair.q), "--max-total-degree", str(bound)]


class TestPowerCertificate:
    """`check_dixmier_pair` certifies its basis by the powers of P, or by the packed check."""

    @pytest.mark.parametrize("corruption", list(CERTIFICATE_ROUTES))
    @pytest.mark.parametrize("pair, bound", CERTIFIED_PAIRS, ids=CERTIFIED_IDS)
    def test_corrupted_descent_raises(self, pair, bound, corruption, monkeypatch):
        change, message = CERTIFICATE_ROUTES[corruption]
        monkeypatch.setattr(weylalg.centralizer, "_reduced_kernel", corrupted_kernel(change))
        with pytest.raises(InternalInconsistencyError, match=message):
            check_dixmier_pair(pair, bound)

    @pytest.mark.parametrize("corruption", list(CERTIFICATE_ROUTES))
    @pytest.mark.parametrize("pair, bound", CERTIFIED_PAIRS, ids=CERTIFIED_IDS)
    def test_corrupted_descent_exits_3(self, pair, bound, corruption, capsys, monkeypatch):
        change, message = CERTIFICATE_ROUTES[corruption]
        monkeypatch.setattr(weylalg.centralizer, "_reduced_kernel", corrupted_kernel(change))
        assert main(_check_dixmier_argv(pair, bound)) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal inconsistency: ") and message in err

    @pytest.mark.parametrize("pair, bound", CERTIFIED_PAIRS, ids=CERTIFIED_IDS)
    def test_true_pair_runs_no_packed_commutator(self, pair, bound, monkeypatch):
        calls = []
        commutator_ = weylalg.centralizer.commutator

        def spy(a, b):
            calls.append((a, b))
            return commutator_(a, b)

        monkeypatch.setattr(weylalg.centralizer, "commutator", spy)
        assert check_dixmier_pair(pair, bound).holds
        assert calls == []
        # the spy sees the packed check of the public solver
        centralizer_basis(pair.p, bound)
        assert len(calls) == 1

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32), sector=st.sampled_from("xy"), extra=st.integers(0, 12))
    def test_certified_basis_is_the_centralizer_basis(self, seed, sector, extra):
        rng = random.Random(seed)
        pair = dixmier_pair_from_script(random_script(rng))
        while is_x_dominant(pair.p) != (sector == "x"):
            pair = dixmier_pair_from_script(random_script(rng))
        bound = total_degree(pair.p) + extra
        basis = check_dixmier_pair(pair, bound).basis
        reference = centralizer_basis(pair.p, bound)
        assert basis.sector == sector
        assert basis.levels == reference.levels
        assert dict(basis.by_level) == dict(reference.by_level)


class TestNoPartner:
    def test_xy(self):
        assert no_partner_check(XY, 8)

    def test_xy_squared(self):
        assert no_partner_check(power(XY, 2), 8)

    def test_constant(self):
        assert no_partner_check(ONE, 4)

    def test_rejects_off_diagonal(self):
        with pytest.raises(WrongSectorError):
            no_partner_check(X, 4)

    @pytest.mark.parametrize(
        "p",
        [ONE, XY, power(XY, 2), power(XY, 3) + 2 * XY + 5, Fraction(2, 3) * power(XY, 2) - Fraction(1, 7)],
    )
    @pytest.mark.parametrize("bound", [0, 1, 7, 40])
    def test_agrees_with_elimination(self, p, bound):
        assert no_partner_check(p, bound) == partner_free_by_elimination(p, bound)

    def test_elimination_reference_finds_partners(self):
        # [Y, X] = 1 and [Y + X^2, X + (Y + X^2)^2] = 1: the reference can say no
        assert not partner_free_by_elimination(X, 1)
        assert not partner_free_by_elimination(X + power(Y + power(X, 2), 2), 4)


class TestElementaryAutomorphisms:
    def test_add_y_polynomial_to_x(self):
        auto = ElementaryAutomorphism("addY", power(Y, 2))
        assert auto.apply(X) == X + power(Y, 2)
        assert auto.apply(Y) == Y

    def test_fourier(self):
        auto = ElementaryAutomorphism("fourier")
        assert auto.apply(X) == Y
        assert auto.apply(Y) == -X

    def test_add_x_polynomial_to_y(self):
        auto = ElementaryAutomorphism("addX", power(X, 2))
        assert auto.apply(X + power(Y, 2)) == X + power(Y + power(X, 2), 2)

    def test_relation_preserved(self):
        rng = random.Random(5)
        for _ in range(5):
            script = random_script(rng)
            image_x = apply_script(script, X)
            image_y = apply_script(script, Y)
            assert commutator(image_y, image_x) == ONE

    def test_kind_validation(self):
        with pytest.raises(MalformedInputError):
            ElementaryAutomorphism("addY", X)
        with pytest.raises(MalformedInputError):
            ElementaryAutomorphism("addX", Y)
        with pytest.raises(MalformedInputError):
            ElementaryAutomorphism("fourier", X)

    def test_is_algebra_map(self):
        auto = ElementaryAutomorphism("addX", power(X, 3) - X)
        a = mul(X, Y) + power(Y, 2)
        b = X + 2
        assert auto.apply(mul(a, b)) == mul(auto.apply(a), auto.apply(b))


ADD_Y_FRACTIONAL = ElementaryAutomorphism("addY", Fraction(1, 3) * power(Y, 2) - Fraction(1, 2))
ADD_X_FRACTIONAL = ElementaryAutomorphism("addX", Fraction(2, 5) * power(X, 3) + Fraction(3, 7) * X)


@settings(max_examples=150, deadline=None)
@given(automorphisms(), _apply_inputs)
@example(ADD_Y_FRACTIONAL, from_terms([(9, 2, Fraction(5, 4)), (0, 3, Fraction(-2, 9)), (1, 0, 1)]))
@example(ADD_X_FRACTIONAL, from_terms([(2, 11, Fraction(7, 6)), (4, 0, Fraction(1, 5))]))
@example(ElementaryAutomorphism("fourier"), from_terms([(7, 5, Fraction(3, 2)), (4, 9, -1), (0, 0, 2)]))
@example(ADD_Y_FRACTIONAL, ZERO)
@example(ADD_X_FRACTIONAL, from_terms([(0, 0, Fraction(-4, 3))]))
def test_apply_matches_products(auto, a):
    assert auto.apply(a) == apply_by_products(auto, a)


@settings(max_examples=60, deadline=None)
@given(automorphisms(max_degree=2), weyl_elements(max_exp=3), weyl_elements(max_exp=3))
@example(ADD_Y_FRACTIONAL, from_terms([(2, 1, Fraction(1, 2))]), from_terms([(1, 3, Fraction(2, 3))]))
@example(ElementaryAutomorphism("fourier"), from_terms([(0, 3, 1)]), from_terms([(3, 1, -2)]))
def test_apply_is_multiplicative(auto, a, b):
    # phi(ab) against the composed actions of phi(a) and phi(b) on x^n, with
    # no normal-form product on the right side
    left, fa, fb = auto.apply(mul(a, b)), auto.apply(a), auto.apply(b)
    cut = max(max_y_exponent(left), max_y_exponent(fa) + max_y_exponent(fb))
    for n in range(cut + 1):
        assert act(left, x_power(n)) == act(fa, act(fb, x_power(n)))


class TestPairFromScript:
    def test_empty_script(self):
        assert dixmier_pair_from_script([]) == DixmierPair(X, Y, ONE)

    def test_single_step(self):
        pair = dixmier_pair_from_script([ElementaryAutomorphism("addY", power(Y, 2))])
        assert (pair.p, pair.q) == (X + power(Y, 2), Y)

    def test_two_steps(self):
        pair = dixmier_pair_from_script(
            [
                ElementaryAutomorphism("addY", power(Y, 2)),
                ElementaryAutomorphism("addX", power(X, 2)),
            ]
        )
        assert pair.p == X + power(Y + power(X, 2), 2)
        assert pair.q == Y + power(X, 2)

    @pytest.mark.parametrize("field", ["max_len", "max_poly_degree", "coeff_bound", "max_total_degree"])
    @pytest.mark.parametrize("value", [0, -1, 1.5])
    def test_limits_rejected(self, field, value):
        # at 0 random_script would raise from randrange or never return
        with pytest.raises(MalformedInputError, match=f"ScriptLimits.{field} must be a positive"):
            ScriptLimits(**{field: value})

    def test_smallest_limits(self):
        # every polynomial is linear, so every pair has degree 1 and the first
        # script drawn is taken
        script = random_script(random.Random(0), ScriptLimits(1, 1, 1, 1))
        assert len(script) == 1
        assert total_degree(dixmier_pair_from_script(script).p) == 1

    def test_random_scripts_respect_cap(self):
        rng = random.Random(11)
        limits = ScriptLimits()
        for _ in range(8):
            script = random_script(rng, limits)
            assert len(script) <= limits.max_len
            pair = dixmier_pair_from_script(script)
            assert total_degree(pair.p) <= limits.max_total_degree


class TestDerivationLaws:
    def test_stability(self):
        # images of basis vectors under [q, -] stay in the computed span
        pair = dixmier_pair(P_SHIFTED, Y)
        basis = centralizer_basis(P_SHIFTED, 8)
        for elem in basis.elements():
            image = ad(pair.q, elem)
            if image:
                assert expand_in_basis(basis, image) is not None

    def test_chain_rule(self):
        pair = dixmier_pair(P_SHIFTED, Y)
        basis = centralizer_basis(P_SHIFTED, 8)
        s = basis.picks[0]
        rng = random.Random(3)
        for _ in range(10):
            t = XYPolynomial([Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))])
            value = evaluate_at_element(t, s)
            left = ad(pair.q, value)
            right = mul(evaluate_at_element(t.derivative(), s), ad(pair.q, s))
            assert left == right

    def test_degree_formula(self):
        pair = dixmier_pair(P_SHIFTED, Y)
        basis = centralizer_basis(P_SHIFTED, 8)
        report = derivation_report(pair, basis)
        drop = report.constant_drop
        rng = random.Random(9)
        for _ in range(10):
            coeffs = {l: rng.randint(-3, 3) for l in basis.levels}
            element = ZERO
            for l, c in coeffs.items():
                element = element + c * basis.by_level[l]
            if element.is_scalar():
                continue
            image = ad(pair.q, element)
            assert ray_degree(image, basis) == ray_degree(element, basis) + drop

    def test_sampled_pairs_have_period_one(self):
        # [q, p] = 1 forces C(p) = k[p] (Dixmier), so every sampled pair
        # holds and its centralizer has period 1
        rng = random.Random(2)
        for _ in range(6):
            pair = dixmier_pair_from_script(random_script(rng))
            report = check_dixmier_pair(pair, 2 * total_degree(pair.p))
            assert report.holds
            assert report.basis.period == 1
