"""Each output check accepts a correct result and rejects a corrupted one.

Small inputs keep this fast; the checks are the ones the benchmark runs.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
import weylalg as wl  # noqa: E402

L = wl.parse_element(workloads.DIXMIER_L)


def rng():
    return random.Random(7)


def perturbed(e, monomial, delta=Fraction(1, 3)):
    terms = dict(e.terms)
    terms[monomial] = terms.get(monomial, 0) + delta
    return wl.from_terms((i, j, c) for (i, j), c in terms.items())


def with_level(basis, level, element):
    by_level = dict(basis.by_level)
    by_level[level] = element
    return dataclasses.replace(basis, by_level=by_level)


def basis_text(basis):
    return json.dumps(wl.cli.basis_to_json(basis))


@pytest.fixture(scope="module")
def basis_l():
    return wl.centralizer_basis(L, 15)


def test_basis_accepts_the_computed_basis(basis_l):
    checks.basis(wl, basis_l, basis_text(basis_l), rng(), levels=checks.dixmier_levels(15))


def test_basis_rejects_a_dropped_vector(basis_l):
    levels = basis_l.levels[:-1]
    dropped = dataclasses.replace(
        basis_l, levels=levels, by_level={l: basis_l.by_level[l] for l in levels}
    )
    with pytest.raises(checks.CheckError, match="theory"):
        checks.basis(wl, dropped, basis_text(dropped), rng(), levels=checks.dixmier_levels(15))


def test_basis_rejects_a_perturbed_coefficient(basis_l):
    top = basis_l.levels[-1]
    element = basis_l.by_level[top]
    off_ray = next(m for m in element.terms if m != basis_l.ray_point(top))
    bad = with_level(basis_l, top, perturbed(element, off_ray))
    with pytest.raises(checks.CheckError, match="commute"):
        checks.basis(wl, bad, basis_text(bad), rng())


def test_basis_rejects_an_added_constant(basis_l):
    # an added constant still commutes; only the reduced form catches it
    top = basis_l.levels[-1]
    bad = with_level(basis_l, top, perturbed(basis_l.by_level[top], (0, 0)))
    with pytest.raises(checks.CheckError, match="reduced"):
        checks.basis(wl, bad, basis_text(bad), rng())


def test_basis_rejects_text_that_differs_from_the_result(basis_l):
    data = json.loads(basis_text(basis_l))
    data["basis"][1]["element"]["terms"][0]["coeff"] = "2/1"
    with pytest.raises(checks.CheckError, match="JSON"):
        checks.basis(wl, basis_l, json.dumps(data), rng())


def test_homogeneous_agreement():
    h = wl.parse_element(workloads.HOMOGENEOUS_X)
    basis = wl.centralizer_basis(h, 12)
    checks.homogeneous_agreement(wl, basis)
    top = basis.levels[-1]
    bad = with_level(basis, top, 2 * basis.by_level[top])
    with pytest.raises(checks.CheckError, match="graded solver"):
        checks.homogeneous_agreement(wl, bad)


def pair_results(script="addY:Y^2; addX:X^2", bound=8):
    pair = wl.dixmier_pair_from_script(workloads.parse_script(wl, script))
    report = wl.check_dixmier_pair(pair, bound)
    return pair, report, wl.derivation_report(pair, report.basis)


def test_pair_report_accepts_a_true_pair():
    pair, report, deriv = pair_results()
    checks.pair_report(wl, pair, report, deriv, 8, rng())


def test_pair_report_rejects_a_perturbed_partner():
    pair, report, deriv = pair_results()
    bad = dataclasses.replace(pair, q=perturbed(pair.q, (1, 1)))
    with pytest.raises(checks.CheckError, match=r"\[Q, P\]"):
        checks.pair_report(wl, bad, report, deriv, 8, rng())


def test_pair_report_rejects_a_wrong_dimension_or_derivation():
    pair, report, deriv = pair_results()
    with pytest.raises(checks.CheckError, match="dimension"):
        checks.pair_report(wl, pair, dataclasses.replace(report, centralizer_dim=4), deriv, 8, rng())
    with pytest.raises(checks.CheckError, match="drop"):
        checks.pair_report(wl, pair, report, dataclasses.replace(deriv, constant_drop=-2), 8, rng())
    with pytest.raises(checks.CheckError, match="kernel"):
        checks.pair_report(wl, pair, report, dataclasses.replace(deriv, kernel_dim=2), 8, rng())


def test_product_power_and_commutator():
    a, b = wl.parse_element("X + Y + 1"), wl.parse_element("X - 2*Y + 3")
    a3, b3 = wl.power(a, 3), wl.power(b, 3)
    checks.power(wl, a3, a, 3, rng())
    checks.product(wl, wl.mul(a3, b3), a3, b3, rng())
    checks.commutator(wl, wl.commutator(a3, b3), a3, b3, rng())
    with pytest.raises(checks.CheckError):
        checks.power(wl, perturbed(a3, (1, 1)), a, 3, rng())
    with pytest.raises(checks.CheckError):
        checks.product(wl, perturbed(wl.mul(a3, b3), (2, 3)), a3, b3, rng())
    with pytest.raises(checks.CheckError):
        checks.commutator(wl, perturbed(wl.commutator(a3, b3), (0, 0)), a3, b3, rng())


def test_graded_round_trip():
    e = wl.power(wl.parse_element("X + Y + 1"), 4)
    components = wl.homogeneous_components(e)
    checks.graded(wl, e, components)
    with pytest.raises(checks.CheckError, match="sum"):
        checks.graded(wl, perturbed(e, (1, 0)), components)


def test_decomposition_round_trip():
    basis = wl.centralizer_basis(L, 18)
    s0, s1 = basis.picks
    q = wl.mul(s1, s1)
    parts = wl.decompose(q, basis)
    checks.decomposition(wl, q, parts, wl.recompose(parts, basis), basis, rng())
    bad = [parts[0] + 1] + parts[1:]
    with pytest.raises(checks.CheckError, match="recompose"):
        checks.decomposition(wl, q, bad, wl.recompose(bad, basis), basis, rng())


def test_parsed_back_rejects_a_misprint():
    e = wl.parse_element("3*X^2*Y - 1/2")
    checks.parsed_back(wl, wl.format_element(e), e)
    with pytest.raises(checks.CheckError):
        checks.parsed_back(wl, "3*X^2*Y - 1/3", e)


def test_every_workload_builds_and_its_first_small_job_checks():
    for name in workloads.BUILDERS:
        jobs = workloads.build(name, wl, seed=3)
        assert {job.tier for job in jobs} == {"small", "large"}
        job = min((j for j in jobs if j.tier == "small"), key=lambda j: len(j.name))
        text, result = job.run()
        job.check(wl, text, result, rng())
