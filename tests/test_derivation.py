import dataclasses
import json
import random
from fractions import Fraction
from itertools import count
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import weylalg.centralizer
import weylalg.derivation
from weylalg import (
    BoundEscapeError,
    CentralizerBasis,
    DerivationReport,
    DixmierPair,
    ElementaryAutomorphism,
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

from weylalg.centralizer import _ad_matrix_rows, _order_key
from weylalg.cli import _parse_script, basis_to_json, format_element, main, parse_element
from weylalg.linalg import sparse_solvable
from weylalg.oracle import act, max_y_exponent, x_power

from conftest import monomials_upto, sector_script_pairs, weyl_elements

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
    columns = monomials_upto(bound)
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

    def test_check_validates(self):
        assert check_dixmier_pair(DixmierPair(P_SHIFTED, Y), 4).holds
        with pytest.raises(NotDixmierPairError):
            check_dixmier_pair(DixmierPair(X, X), 4)


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
        pair = DixmierPair(X, Y)
        basis = centralizer_basis(X, 6)
        report = derivation_report(pair, basis)
        assert report.nonzero_picks == (0,)
        assert report.degrees == {0: (1, 0)}
        assert report.constant_drop == -1
        assert report.kernel_dim == 1
        assert not report.degenerate

    def test_shifted(self):
        pair = DixmierPair(P_SHIFTED, Y)
        basis = centralizer_basis(P_SHIFTED, 6)
        report = derivation_report(pair, basis)
        assert report.constant_drop == -1
        assert report.kernel_dim == 1

    def test_degenerate_truncation(self):
        pair = DixmierPair(X, Y)
        basis = CentralizerBasis(
            element=X,
            bound=0,
            levels=(0,),
            by_level={0: ONE},
        )
        report = derivation_report(pair, basis)
        assert report.degenerate
        assert report.nonzero_picks == ()
        assert report.constant_drop is None
        assert report.kernel_dim == 1

    def test_bound_escape(self):
        pair = DixmierPair(X, Y)
        basis = CentralizerBasis(
            element=X,
            bound=1,
            levels=(0, 3),
            by_level={0: ONE, 3: power(X, 3)},
        )
        # the image [Y, X^3] = 3 X^2 has total degree 2, the basis bound is 1
        with pytest.raises(BoundEscapeError, match=r"total degree 2, above the basis bound 1;"):
            derivation_report(pair, basis)

    def test_image_outside_span_is_inconsistent(self):
        pair = DixmierPair(X, Y)
        basis = CentralizerBasis(
            element=X,
            bound=6,
            levels=(0, 3),
            by_level={0: ONE, 3: power(X, 3)},
        )
        with pytest.raises(InternalInconsistencyError):
            derivation_report(pair, basis)

    @pytest.mark.parametrize("copy", [False, True], ids=["solver", "constructor-copy"])
    @pytest.mark.parametrize(
        "p, q, bound",
        [(parse_element("(Y^2 + X^3 + 1)^2 + 2*X"), Y, 18), (P_SHIFTED, X, 6), (X, power(Y, 5), 3)],
        ids=["L-Y", "shifted-X", "X-Y5-above-the-bound"],
    )
    def test_non_pair_image_outside_span_is_not_a_pair(self, p, q, bound, copy):
        """A caller's non-pair is its own error, not an internal fault or a
        bound to raise, on any basis."""
        basis = centralizer_basis(p, bound)
        with pytest.raises(NotDixmierPairError):
            derivation_report(DixmierPair(p, q), unmarked(basis) if copy else basis)

    def test_wrong_basis_rejected(self):
        pair = DixmierPair(X, Y)
        basis = centralizer_basis(P_SHIFTED, 6)
        with pytest.raises(MalformedInputError):
            derivation_report(pair, basis)


class TestCheckDixmierPair:
    def test_generators(self):
        report = check_dixmier_pair(DixmierPair(X, Y), 5)
        assert report.holds
        assert report.centralizer_dim == report.powers_dim == 6

    def test_shifted(self):
        report = check_dixmier_pair(DixmierPair(P_SHIFTED, Y), 6)
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
        # no q has [q, P] = 1 for P in k[XY]: the one commutator rejects it
        with pytest.raises(NotDixmierPairError):
            check_dixmier_pair(DixmierPair(XY, X), 6)

    def test_forged_pair_rejected(self):
        # [-Y, P] = -1: a commutator that is a nonzero scalar is not enough
        with pytest.raises(NotDixmierPairError):
            check_dixmier_pair(DixmierPair(P_SHIFTED, -Y), 4)

    def test_hypothesis_is_one_commutator(self):
        p, q = P_SHIFTED + 1, Y
        with mock.patch.object(weylalg.derivation, "commutator", wraps=commutator) as spy:
            pair = DixmierPair(p, q)
            assert spy.call_count == 0
            check_dixmier_pair(pair, 6)
        assert spy.call_args_list == [mock.call(q, p)]

    def test_cli_forms_the_hypothesis_once(self, capsys):
        # the basis is certified by the powers, so the derivation report
        # reads the pair's cached check and forms no commutator of its own
        p, q = P_SHIFTED + 1, Y
        with mock.patch.object(weylalg.derivation, "commutator", wraps=commutator) as spy:
            assert main(["check-dixmier", format_element(p), format_element(q), "--max-total-degree", "6"]) == 0
        assert spy.call_args_list == [mock.call(q, p)]
        assert "dixmier pair: true\n" in capsys.readouterr().out


# in the y sector P is aY + c, and almost every script that gives one has a
# fourier step; x-sector pairs come from scripts with and without one
@settings(max_examples=40, deadline=None)
@given(sector_script_pairs())
def test_only_the_true_pair_passes_the_check(pair):
    p, q = pair.p, pair.q
    assert check_dixmier_pair(DixmierPair(p, q), total_degree(p)).holds
    # the hypothesis is checked before the solve, so even a bound the solve
    # would refuse gets the pair error
    for fake in (DixmierPair(q, p), DixmierPair(p, 2 * q)):
        with pytest.raises(NotDixmierPairError):
            check_dixmier_pair(fake, 0)


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


def _lead_key(form):
    return _order_key(max(form[0], key=_order_key))


def _drop_top(q, columns, direction, vectors):
    top = max(vectors, key=_lead_key)
    return [form for form in vectors if form is not top]


def _off_ray_term(q, columns, direction, vectors):
    # Y^k lies below the leading term of every vector of positive level,
    # and off the ray, since the ray of an x-dominant q has di >= 1
    top, _ = max(vectors, key=_lead_key)
    k = next(k for k in count(1) if (0, k) not in top)
    top[0, k] = 1
    return vectors


def _free_ray_vector(q, columns, direction, vectors):
    """Append X^a Y^b + Y, monic at a ray level (a, b) that no vector has and
    where every power of q up to the bound has coefficient 0: the highest
    such level in the region, or the level above the top vector when the
    region has none.  The powers still expand exactly, so only the packed
    check can tell that the vector does not commute with q."""
    di, dj = direction
    leads = {max(vec, key=_order_key) for vec, _ in vectors}
    powers = [power(q, m) for m in range(len(vectors))]
    free = [
        (a, b)
        for a, b in columns
        if a * dj == b * di
        and (a, b) not in leads
        and not any(power_m.coefficient(a, b) for power_m in powers)
    ]
    level = max(free, key=_order_key)[0] // di if free else max(a // di for a, _ in leads) + 1
    return vectors + [({(level * di, level * dj): 1, (0, 1): 1}, 1)]


def corrupted_kernel(change):
    """A `_reduced_kernel` whose output in q's coordinates goes through `change`.

    It runs with the floor forced to 0, so the descent never stops and
    returns its vectors, which `centralizer_basis` then certifies by the
    expansions of the powers, or by the packed check when there are more
    vectors than powers.
    """
    kernel = weylalg.centralizer._reduced_kernel

    def corrupting(q, columns, direction, floor):
        return change(q, columns, direction, kernel(q, columns, direction, 0))

    return corrupting


# corruption -> the message of the route that must catch it
CERTIFICATE_ROUTES = {
    "dropped vector": (_drop_top, "a power of p is missing"),
    "off-ray term": (_off_ray_term, "a power of p is missing"),
    "free ray vector": (_free_ray_vector, "does not commute"),
}


def _check_dixmier_argv(pair, bound):
    return ["check-dixmier", format_element(pair.p), format_element(pair.q), "--max-total-degree", str(bound)]


def recorded_descent(seen: dict):
    """A `_ray_descent` that records what it read and whether it stopped.

    `read` counts the rows it took from the stream, `total` the rows the
    stream holds, drained after the descent returns.
    """
    descent = weylalg.centralizer._ray_descent

    def recording(rows, columns, lead, direction, floor):
        rows, read = iter(rows), []

        def counted():
            for item in rows:
                read.append(item)
                yield item

        out = descent(counted(), columns, lead, direction, floor)
        seen.update(stopped=isinstance(out, int), read=len(read), total=len(read) + sum(1 for _ in rows))
        return out

    return recording


def stopped_at(shift: int):
    """A `_ray_descent` that reports the dimension it stopped at moved by `shift`."""
    descent = weylalg.centralizer._ray_descent

    def moved(*args):
        out = descent(*args)
        return out + shift if isinstance(out, int) else out

    return moved


def reduced_then(change):
    """A `_rebased` whose output goes through `change`."""
    rebased = weylalg.centralizer._rebased

    def changed(vectors, direction):
        return change(rebased(vectors, direction))

    return changed


def _drop_last(vectors):
    return vectors[:-1]


def _off_ray_above_the_top(vectors):
    # X^(a+1) Y^(b+1) is on the diagonal of the top lead X^a Y^b, above it
    # in the order, and off the ray, which for an x-dominant q has di > dj
    top, _ = vectors[-1]
    a, b = max(top, key=_order_key)
    top[a + 1, b + 1] = 1
    return vectors


# fault of the stopped path -> (patched name, replacement, message that must catch it)
STOP_FAULTS = {
    "stops one dimension early": ("_ray_descent", lambda: stopped_at(1), "the descent stopped at dimension"),
    "stops one dimension late": ("_ray_descent", lambda: stopped_at(-1), "the descent stopped at dimension"),
    "reduction drops a vector": ("_rebased", lambda: reduced_then(_drop_last), "reduce to"),
    "reduction adds an off-ray term": (
        "_rebased",
        lambda: reduced_then(_off_ray_above_the_top),
        "not monic with its own leading term",
    ),
}


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
        # the public solver certifies a basis at the floor by the powers too
        centralizer_basis(pair.p, bound)
        assert calls == []

    def test_y_sector_certified_pair_stops_before_any_row(self):
        """P = aY + c, so q = transpose(P) = aX + c, whose region is its ray
        alone: the bound + 1 ray levels are the floor from the start, and the
        descent returns before it takes a row from the stream."""
        pair, bound = CERTIFIED_PAIRS[1]
        assert total_degree(pair.p) == 1 and not is_x_dominant(pair.p)
        seen = {}
        with mock.patch.object(weylalg.centralizer, "_ray_descent", recorded_descent(seen)):
            assert check_dixmier_pair(pair, bound).holds
        assert seen["stopped"] and seen["read"] == seen["total"] == 0

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32), sector=st.sampled_from("xy"), extra=st.integers(0, 12))
    def test_certified_basis_is_the_centralizer_basis(self, seed, sector, extra):
        """The descent stops at the powers' floor on every pair, and the
        reduced powers are the basis `centralizer_basis` solves for."""
        rng = random.Random(seed)
        pair = dixmier_pair_from_script(random_script(rng))
        while is_x_dominant(pair.p) != (sector == "x"):
            pair = dixmier_pair_from_script(random_script(rng))
        bound = total_degree(pair.p) + extra
        seen = {}
        with mock.patch.object(weylalg.centralizer, "_ray_descent", recorded_descent(seen)):
            basis = check_dixmier_pair(pair, bound).basis
        assert seen["stopped"]
        reference = centralizer_basis(pair.p, bound)
        assert basis.sector == sector
        assert basis.levels == reference.levels
        assert dict(basis.by_level) == dict(reference.by_level)
        assert json.dumps(basis_to_json(basis)) == json.dumps(basis_to_json(reference))


def unmarked(basis: CentralizerBasis) -> CentralizerBasis:
    """The same basis built by the constructor, without the powers' mark."""
    return CentralizerBasis(
        element=basis.element, bound=basis.bound, levels=basis.levels, by_level=basis.by_level
    )


class TestClosedFormReport:
    """`derivation_report` on a basis certified by the powers forms no commutator."""

    @settings(max_examples=40, deadline=None)
    @given(pair=sector_script_pairs(), data=st.data())
    def test_closed_form_is_the_general_report(self, pair, data):
        deg = total_degree(pair.p)
        basis = centralizer_basis(pair.p, data.draw(st.integers(deg, 3 * deg), label="bound"))
        copy = unmarked(basis)
        with mock.patch.object(weylalg.derivation, "commutator", wraps=commutator) as spy:
            closed = derivation_report(pair, basis)
            assert spy.call_count == 0
            # the general path forms one image per basis vector
            assert derivation_report(pair, copy) == closed
            assert spy.call_count == basis.dimension
        assert closed == DerivationReport(degrees={0: (1, 0)}, constant_drop=-1, kernel_dim=1, degenerate=False)

    @pytest.mark.parametrize("pair, bound", CERTIFIED_PAIRS, ids=CERTIFIED_IDS)
    def test_forged_pair_gets_no_closed_form(self, pair, bound):
        basis = check_dixmier_pair(pair, bound).basis
        forged = dataclasses.replace(pair, q=2 * pair.q)
        with pytest.raises(NotDixmierPairError):
            derivation_report(forged, basis)
        # without the mark the general path measures [2q, -] as before
        assert derivation_report(forged, unmarked(basis)).constant_drop == -1

    @pytest.mark.parametrize(
        "script, bound",
        [
            ("addY:Y^3; addX:X^3; addY:Y^3", 27),
            ("fourier; addY:Y^3-Y; addX:X^2+1", 60),
            ("addY:Y^2+Y; addX:X^3-2*X; addY:Y^3+1", 54),
        ],
        ids=["y3x3y3", "fourier2", "pair18"],
    )
    def test_one_commutator_from_script_to_report(self, script, bound):
        steps = _parse_script(script)
        counts = []
        with mock.patch.object(weylalg.derivation, "commutator", wraps=commutator) as spy:
            pair = dixmier_pair_from_script(steps)
            counts.append(spy.call_count)
            basis = check_dixmier_pair(pair, bound).basis
            counts.append(spy.call_count - sum(counts))
            derivation_report(pair, basis)
            counts.append(spy.call_count - sum(counts))
        assert counts == [1, 0, 0]
        assert spy.call_args_list == [mock.call(pair.q, pair.p)]


class TestStoppedDescent:
    """`check_dixmier_pair` stops the descent at the powers' floor and reduces the powers."""

    @pytest.mark.parametrize(
        "script, bound, read, total",
        [
            ("addY:Y^3; addX:X^3; addY:Y^3", 27, 121, 459),
            ("addY:Y^2; addX:X^3; addY:Y^2", 24, 108, 306),
            ("addY:Y^2+Y; addX:X^3-2*X; addY:Y^3+1", 54, 216, 828),
            ("fourier; addY:Y^3-Y; addX:X^2+1", 60, 0, 930),  # 31 ray levels, 31 powers
        ],
        ids=["y3x3y3", "y2x3y2", "pair18", "fourier2"],
    )
    def test_rows_below_the_floor_are_not_read(self, script, bound, read, total):
        seen = {}
        pair = dixmier_pair_from_script(_parse_script(script))
        with mock.patch.object(weylalg.centralizer, "_ray_descent", recorded_descent(seen)):
            assert check_dixmier_pair(pair, bound).holds
        assert seen == {"stopped": True, "read": read, "total": total}

    @pytest.mark.parametrize("fault", list(STOP_FAULTS))
    @pytest.mark.parametrize("pair, bound", CERTIFIED_PAIRS, ids=CERTIFIED_IDS)
    def test_fault_raises(self, pair, bound, fault, monkeypatch):
        name, replacement, message = STOP_FAULTS[fault]
        monkeypatch.setattr(weylalg.centralizer, name, replacement())
        with pytest.raises(InternalInconsistencyError, match=message):
            check_dixmier_pair(pair, bound)

    @pytest.mark.parametrize("fault", list(STOP_FAULTS))
    @pytest.mark.parametrize("pair, bound", CERTIFIED_PAIRS, ids=CERTIFIED_IDS)
    def test_fault_exits_3(self, pair, bound, fault, capsys, monkeypatch):
        name, replacement, message = STOP_FAULTS[fault]
        monkeypatch.setattr(weylalg.centralizer, name, replacement())
        assert main(_check_dixmier_argv(pair, bound)) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal inconsistency: ") and message in err


def _scaled_top(vectors):
    # the top reduced power over twice its denominator: no longer monic
    top, den = vectors[-1]
    vectors[-1] = (top, 2 * den)
    return vectors


def _tail_scaled_top(vectors):
    # the top reduced power with every term below its lead doubled: still
    # monic, but outside the span of the powers
    top, den = vectors[-1]
    lead = max(top, key=_order_key)
    vectors[-1] = ({m: v if m == lead else 2 * v for m, v in top.items()}, den)
    return vectors


# fault of the reduction of the powers -> (change, message that must catch it)
REDUCTION_FAULTS = {
    "dropped vector": (_drop_last, "reduce to"),
    "off-ray term above the top lead": (_off_ray_above_the_top, "not monic with its own leading term"),
    "power scaled wrongly": (_scaled_top, "not monic with its own leading term"),
    "power's tail scaled wrongly": (_tail_scaled_top, "a power of p is missing"),
}
# elements whose `centralizer_basis` stops at the floor: X + (Y + X^2)^3 at 36
# with 7 powers, and the y-sector X^2 Y^4 + X Y^3 + 2 Y^2 at 30 with 6
STOPPED_ELEMENTS = [("X + (Y + X^2)^3", 36), ("X^2*Y^4 + X*Y^3 + 2*Y^2", 30)]


class TestStoppedCentralizer:
    """On the `centralizer` path a fault in the reduction of the powers raises, and exits 3."""

    @pytest.mark.parametrize("fault", list(REDUCTION_FAULTS))
    @pytest.mark.parametrize("text, bound", STOPPED_ELEMENTS, ids=["x-sector", "y-sector"])
    def test_fault_raises(self, text, bound, fault, monkeypatch):
        p = parse_element(text)
        assert is_x_dominant(p) == (text == STOPPED_ELEMENTS[0][0])
        change, message = REDUCTION_FAULTS[fault]
        monkeypatch.setattr(weylalg.centralizer, "_rebased", reduced_then(change))
        with pytest.raises(InternalInconsistencyError, match=message):
            centralizer_basis(p, bound)

    @pytest.mark.parametrize("fault", list(REDUCTION_FAULTS))
    @pytest.mark.parametrize("text, bound", STOPPED_ELEMENTS, ids=["x-sector", "y-sector"])
    def test_fault_exits_3(self, text, bound, fault, capsys, monkeypatch):
        change, message = REDUCTION_FAULTS[fault]
        monkeypatch.setattr(weylalg.centralizer, "_rebased", reduced_then(change))
        assert main(["centralizer", text, "--max-total-degree", str(bound)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal inconsistency: ") and message in err


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
        assert dixmier_pair_from_script([]) == DixmierPair(X, Y)

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
        pair = DixmierPair(P_SHIFTED, Y)
        basis = centralizer_basis(P_SHIFTED, 8)
        for elem in basis.elements():
            image = ad(pair.q, elem)
            if image:
                assert expand_in_basis(basis, image) is not None

    def test_chain_rule(self):
        pair = DixmierPair(P_SHIFTED, Y)
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
        pair = DixmierPair(P_SHIFTED, Y)
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
