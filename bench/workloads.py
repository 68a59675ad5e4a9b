"""The three workloads: inputs, timed jobs and the check of each job's output.

A job is one operation of a closed loop with one caller.  It starts from
parsed input, calls the same public functions as the CLI subcommand it
stands for, and ends with that subcommand's canonical text or JSON output.
`build` parses every input with `cli.parse_element` and builds every
automorphism script; it is part of the timed set-up.  Jobs look functions
up on their modules when they run, so the tracer's in-place wrappers see
every call.

Inputs are fixed except the random pairs of `pairs`, drawn with
`random_script` from the seed, and the random test polynomials of the
checks.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import checks

# Dixmier's example L = (Y^2 + X^3 + 1)^2 + 2X, whose centralizer has period 2,
# its image under the Fourier automorphism X -> Y, Y -> -X, and the
# automorphism image P6 of X, whose centralizer is k[P6].
DIXMIER_L = "(Y^2 + X^3 + 1)^2 + 2*X"
DIXMIER_L_FOURIER = "(X^2 + Y^3 + 1)^2 + 2*Y"
P6 = "X + (Y + X^2)^3"
# homogeneous elements of diagonal degree 2 and -2
HOMOGENEOUS_X = "X^4*Y^2 + X^3*Y + 2*X^2"
HOMOGENEOUS_Y = "X^2*Y^4 + X*Y^3 + 2*Y^2"
NO_PARTNER = "X^3*Y^3 + 2*X*Y + 5"

# (script, bound, repeats): bounds are 2 to 4 times the degree of P
PAIR_SCRIPTS_SMALL = [
    ("addY:Y^3", 12, 5),
    ("addY:Y^2; addX:X^2", 12, 5),
    ("fourier; addY:Y^3; addX:X^3", 9, 5),
    ("addY:Y^2; addX:X^3", 18, 5),
    ("addY:Y^2; addX:X^3; addY:Y^2", 24, 2),
]
PAIR_LARGE = ("addY:Y^3; addX:X^3; addY:Y^3", 27)
GEN_PAIR_LARGE = "addY:Y^3; addX:X^3; addY:Y^3; addX:X^2"
# random_script pairs of degree at most 4, checked at 3 times their degree:
# small enough that the seed moves small_s by well under a percent
RANDOM_PAIRS = 3
RANDOM_LIMITS = dict(max_len=2, max_poly_degree=2, coeff_bound=3, max_total_degree=4)

DENSE_LEFT = "X + Y + 1"
DENSE_RIGHT = "X - 2*Y + 3"


@dataclass(frozen=True)
class Job:
    """One timed operation.

    `run` returns (canonical output text, structured result); `check`
    receives (wl, text, result, rng) and raises checks.CheckError.
    `seeded` marks jobs whose input depends on the seed.  `repeats` is how
    many times one round runs the job; short jobs repeat so that their
    median rests on enough samples.
    """

    name: str
    tier: str
    run: Callable[[], tuple[str, Any]]
    check: Callable[..., None]
    seeded: bool = False
    repeats: int = 1


def parse_script(wl, text: str) -> list:
    """Build an automorphism script from the CLI's `kind:polynomial; ...` form."""
    steps = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if chunk == "fourier":
            steps.append(wl.ElementaryAutomorphism("fourier"))
        else:
            kind, poly = chunk.split(":", 1)
            steps.append(wl.ElementaryAutomorphism(kind.strip(), wl.cli.parse_element(poly)))
    return steps


def build(workload: str, wl, seed: int) -> list[Job]:
    """Parse the workload's inputs and return its jobs in loop order."""
    return BUILDERS[workload](wl, random.Random(seed))


def _parsed(wl, line: str, prefix: str, element) -> None:
    checks.parsed_back(wl, line.removeprefix(prefix), element)


# ---------------------------------------------------------------------------
# solve: centralizer_basis across sectors and bounds, and the no-partner check


def _centralizer(wl, name: str, tier: str, p, bound: int, check: Callable, repeats=1) -> Job:
    C, cli = wl.centralizer, wl.cli

    def run():
        basis = C.centralizer_basis(p, bound)
        return json.dumps(cli.basis_to_json(basis), indent=2), basis

    return Job(name, tier, run, check, repeats=repeats)


def _solve(wl, rng: random.Random) -> list[Job]:
    parse = wl.cli.parse_element
    L, LF, p6 = parse(DIXMIER_L), parse(DIXMIER_L_FOURIER), parse(P6)
    hx, hy, diag = parse(HOMOGENEOUS_X), parse(HOMOGENEOUS_Y), parse(NO_PARTNER)

    def levels(theory, bound):
        return lambda wl, text, b, rng: checks.basis(wl, b, text, rng, levels=theory(bound))

    def dixmier(bound):
        return levels(checks.dixmier_levels, bound)

    def powers_only(bound):
        return lambda wl, text, b, rng: checks.basis(wl, b, text, rng, dimension=bound // 6 + 1)

    def homogeneous(wl, text, b, rng):
        checks.basis(wl, b, text, rng)
        checks.homogeneous_agreement(wl, b)

    D = wl.derivation

    def no_partner():
        found = D.no_partner_check(diag, 40)
        return f"no partner up to degree 40: {'true' if found else 'false'}", found

    def no_partner_check(wl, text, found, rng):
        checks.require(found is True, "no_partner_check found a partner for a polynomial in XY")

    return [
        _centralizer(wl, "L@24", "small", L, 24, dixmier(24), 2),
        _centralizer(wl, "P6@24", "small", p6, 24, powers_only(24), 2),
        _centralizer(wl, "L-fourier@24", "small", LF, 24, levels(checks.dixmier_fourier_levels, 24), 2),
        _centralizer(wl, "H@30", "small", hx, 30, homogeneous, 3),
        _centralizer(wl, "H-y@30", "small", hy, 30, homogeneous, 3),
        Job("no-partner@40", "small", no_partner, no_partner_check, repeats=3),
        _centralizer(wl, "L@36", "large", L, 36, dixmier(36)),
        _centralizer(wl, "P6@36", "large", p6, 36, powers_only(36)),
    ]


# ---------------------------------------------------------------------------
# pairs: Dixmier pairs from automorphism scripts, checked end to end


def _check_dixmier(wl, name: str, tier: str, script: list, bound: int, seeded=False, repeats=1) -> Job:
    D, cli = wl.derivation, wl.cli

    def run():
        pair = D.dixmier_pair_from_script(script)
        report = D.check_dixmier_pair(pair, bound)
        deriv = D.derivation_report(pair, report.basis)
        lines = [
            f"P = {cli.format_element(pair.p)}",
            f"Q = {cli.format_element(pair.q)}",
            "dixmier pair: true",
            f"centralizer dimension: {report.centralizer_dim}",
            f"powers dimension: {report.powers_dim}",
            f"centralizer equals polynomials in P: {'true' if report.holds else 'false'}",
            f"derivation nonzero picks: {list(deriv.nonzero_picks)}",
            f"constant degree drop: {deriv.constant_drop}",
            f"derivation kernel dimension: {deriv.kernel_dim}",
        ]
        return "\n".join(lines), (pair, report, deriv)

    def check(wl, text, result, rng):
        pair, report, deriv = result
        lines = text.split("\n")
        _parsed(wl, lines[0], "P = ", pair.p)
        _parsed(wl, lines[1], "Q = ", pair.q)
        checks.pair_report(wl, pair, report, deriv, bound, rng)

    return Job(name, tier, run, check, seeded, repeats)


def _gen_pair(wl, name: str, script: list) -> Job:
    D, cli = wl.derivation, wl.cli

    def run():
        pair = D.dixmier_pair_from_script(script)
        return f"P = {cli.format_element(pair.p)}\nQ = {cli.format_element(pair.q)}", pair

    def check(wl, text, pair, rng):
        p_line, q_line = text.split("\n")
        _parsed(wl, p_line, "P = ", pair.p)
        _parsed(wl, q_line, "Q = ", pair.q)
        checks.unit_commutator(wl, pair.p, pair.q, rng)

    return Job(name, "large", run, check)


def _pairs(wl, rng: random.Random) -> list[Job]:
    jobs = [
        _check_dixmier(wl, f"check[{text}]@{bound}", "small", parse_script(wl, text), bound, repeats=r)
        for text, bound, r in PAIR_SCRIPTS_SMALL
    ]
    limits = wl.ScriptLimits(**RANDOM_LIMITS)
    for k in range(RANDOM_PAIRS):
        script = wl.random_script(rng, limits)
        degree = wl.total_degree(wl.dixmier_pair_from_script(script).p)
        jobs.append(_check_dixmier(wl, f"random{k}", "small", script, 3 * degree, True, 5))
    text, bound = PAIR_LARGE
    jobs.append(_check_dixmier(wl, f"check[{text}]@{bound}", "large", parse_script(wl, text), bound))
    jobs.append(_gen_pair(wl, f"gen-pair[{GEN_PAIR_LARGE}]", parse_script(wl, GEN_PAIR_LARGE)))
    return jobs


# ---------------------------------------------------------------------------
# algebra: products, graded coordinates, the homogeneous solver, decompose


def _algebra(wl, rng: random.Random) -> list[Job]:
    parse = wl.cli.parse_element
    left, right = parse(DENSE_LEFT), parse(DENSE_RIGHT)
    L, hx, hy = parse(DIXMIER_L), parse(HOMOGENEOUS_X), parse(HOMOGENEOUS_Y)
    core, cli, C, G = wl.core, wl.cli, wl.centralizer, wl.graded

    def power_job(base, n):
        def run():
            result = core.power(base, n)
            return cli.format_element(result), result

        def check(wl, text, result, rng):
            checks.parsed_back(wl, text, result)
            checks.power(wl, result, base, n, rng)

        return run, check

    def grade_job(base, n):
        # the `grade` subcommand on a dense power
        def run():
            element = core.power(base, n)
            components = G.homogeneous_components(element)
            lines = [
                f"grade {g}: {cli.format_graded_form(G.to_graded_form(c))} = {cli.format_element(c)}"
                for g, c in components.items()
            ]
            return "\n".join(lines), (element, components)

        def check(wl, text, result, rng):
            element, components = result
            checks.power(wl, element, base, n, rng)
            checks.graded(wl, element, components)
            for line, c in zip(text.split("\n"), components.values()):
                checks.parsed_back(wl, line.split(" = ", 1)[1], c)

        return run, check

    def homogeneous_job(p, grades):
        # the `homog-centralizer` subcommand over a range of grades
        def run():
            components = {j: C.homogeneous_centralizer_component(p, j) for j in grades}
            lines = []
            for j, comp in components.items():
                if comp.kind is wl.ComponentKind.LINE:
                    lines.append(f"grade {j}: {cli.format_graded_form(comp.generator)}")
                else:
                    lines.append(f"grade {j}: {comp.kind.value}")
            return "\n".join(lines), components

        def check(wl, text, components, rng):
            checks.homogeneous_lines(wl, p, components, rng)

        return run, check

    def decompose_job():
        # `decompose` over the basis of L at bound 18, computed inside the job
        def run():
            basis = C.centralizer_basis(L, 18)
            s0, s1 = basis.picks
            out, results = [], []
            for q in (core.mul(s1, s1), core.mul(s0, s1), core.power(s0, 3) - 3 * s1 + 2):
                parts = C.decompose(q, basis)
                back = C.recompose(parts, basis)
                out.append(" | ".join(cli.format_xy_polynomial(t) for t in parts))
                results.append((q, parts, back))
            return "\n".join(out), (basis, results)

        def check(wl, text, result, rng):
            basis, results = result
            checks.basis(wl, basis, None, rng, levels=checks.dixmier_levels(18))
            for q, parts, back in results:
                checks.decomposition(wl, q, parts, back, basis, rng)

        return run, check

    def product_job(n):
        def run():
            a, b = core.power(left, n), core.power(right, n)
            result = core.mul(a, b)
            return cli.format_element(result), (result, a, b)

        def check(wl, text, result, rng):
            product, a, b = result
            checks.parsed_back(wl, text, product)
            checks.power(wl, a, left, n, rng)
            checks.power(wl, b, right, n, rng)
            checks.product(wl, product, a, b, rng)

        return run, check

    def commutator_job(n):
        def run():
            a, b = core.power(left, n), core.power(right, n)
            result = core.commutator(a, b)
            return json.dumps(cli.element_to_json(result), indent=2), (result, a, b)

        def check(wl, text, result, rng):
            comm, a, b = result
            written = wl.from_terms(
                (t["i"], t["j"], Fraction(t["coeff"])) for t in json.loads(text)["terms"]
            )
            checks.require(written == comm, "JSON output differs from the commutator")
            checks.commutator(wl, comm, a, b, rng)

        return run, check

    specs = [
        ("pow[X-2Y+3]^16", "small", power_job(right, 16)),
        ("grade[X+Y+1]^12", "small", grade_job(left, 12)),
        ("homog[H]0..12", "small", homogeneous_job(hx, range(0, 13))),
        ("homog[H-y]-12..0", "small", homogeneous_job(hy, range(-12, 1))),
        ("decompose[L]@18", "small", decompose_job()),
        ("mul[14x14]", "large", product_job(14)),
        ("comm[10x10]", "large", commutator_job(10)),
    ]
    return [Job(name, tier, run, check, repeats=3) for name, tier, (run, check) in specs]


BUILDERS = {"solve": _solve, "pairs": _pairs, "algebra": _algebra}
