"""Independent checks of job outputs.

Every check compares a result with a property the mathematics guarantees or
with an independent computation, never with stored output.  Commutation is
checked through the differential-operator action `weylalg.oracle.act`,
which does not use the normal-form product `mul`: X acts on Q[x] as
multiplication by x and Y as d/dx, and two elements are compared by their
action on a seeded random test polynomial whose degree exceeds every Y
exponent involved (a lower degree would let high Y powers act as zero).
Checking every basis vector this way is slow (31 s for the basis of
Dixmier's L at bound 42 through `oracle_mul_check`), so the vectors are
folded into one random integer combination first; a single vector that
does not commute makes the combination fail, except with negligible
probability.

Each function takes the imported `weylalg` package as `wl` and raises
CheckError on the first violated property.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import Iterable


class CheckError(Exception):
    """An output violated a property it must have."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _max_y(elements) -> int:
    return max((j for e in elements for _, j in e.terms), default=0)


def _test_poly(wl, rng: random.Random, cutoff: int):
    coeffs = [rng.randint(-9, 9) for _ in range(cutoff + 2)] + [rng.randint(1, 9)]
    return wl.oracle.poly_from_coeffs(coeffs)


def _combination(wl, elements, rng: random.Random):
    acc: dict[tuple[int, int], Fraction] = {}
    for e in elements:
        r = rng.randint(1, 1 << 30)
        for m, c in e.terms.items():
            acc[m] = acc.get(m, 0) + r * c
    return wl.from_terms((i, j, c) for (i, j), c in acc.items())


def _sub(a, b) -> tuple:
    n = max(len(a), len(b))
    pad = lambda v: tuple(v) + (0,) * (n - len(v))
    diff = [x - y for x, y in zip(pad(a), pad(b))]
    while diff and not diff[-1]:
        diff.pop()
    return tuple(diff)


def commute(wl, p, elements: Iterable, rng: random.Random) -> None:
    """Every element commutes with p, through the oracle action."""
    elements = list(elements)
    v = _combination(wl, elements, rng)
    act = wl.oracle.act
    f = _test_poly(wl, rng, _max_y([v, p]))
    require(act(v, act(p, f)) == act(p, act(v, f)), "an element does not commute with P")


def unit_commutator(wl, p, q, rng: random.Random) -> None:
    """[q, p] = 1, through the oracle action."""
    act = wl.oracle.act
    f = _test_poly(wl, rng, _max_y([p, q]))
    require(_sub(act(q, act(p, f)), act(p, act(q, f))) == f, "[Q, P] is not 1")


def product(wl, result, left, right, rng: random.Random) -> None:
    """result = left * right, through the oracle action."""
    act = wl.oracle.act
    f = _test_poly(wl, rng, _max_y([result, left, right]))
    require(act(result, f) == act(left, act(right, f)), "product does not act as the composite")


def power(wl, result, base, n: int, rng: random.Random) -> None:
    """result = base^n, through the oracle action."""
    act = wl.oracle.act
    f = _test_poly(wl, rng, _max_y([result, base]))
    g = f
    for _ in range(n):
        g = act(base, g)
    require(act(result, f) == g, "power does not act as the iterated action")


def commutator(wl, result, a, b, rng: random.Random) -> None:
    """result = [a, b], through the oracle action."""
    act = wl.oracle.act
    f = _test_poly(wl, rng, _max_y([result, a, b]))
    expected = _sub(act(a, act(b, f)), act(b, act(a, f)))
    require(act(result, f) == expected, "commutator does not act as ab - ba")


def parsed_back(wl, text: str, element) -> None:
    """Printed output parses back to the element it was printed from."""
    require(wl.cli.parse_element(text) == element, f"printed form does not parse back: {text[:60]}")


def round_trip(wl, elements: Iterable) -> None:
    """parse_element(format_element(e)) == e for every element."""
    for e in elements:
        parsed_back(wl, wl.cli.format_element(e), e)


def json_elements(wl, text: str) -> list:
    """The basis elements written in `basis_to_json` output, read back exactly."""
    data = json.loads(text)
    return [
        wl.from_terms(
            (t["i"], t["j"], Fraction(t["coeff"])) for t in entry["element"]["terms"]
        )
        for entry in data["basis"]
    ]


def basis(wl, result, text: str | None, rng: random.Random, *, levels=None, dimension=None) -> None:
    """A centralizer basis: as printed (when `text` is given), reduced,
    commuting, and of the size theory predicts.

    Reduced means what makes the basis unique for its bound: the vector of
    level l is monic at its ray point and vanishes at every other ray point.
    """
    elements = result.elements()
    if text is not None:
        require(json_elements(wl, text) == elements, "JSON output differs from the basis")
    ray = {l: result.ray_point(l) for l in result.levels}
    for l, e in zip(result.levels, elements):
        for h, point in ray.items():
            want = 1 if h == l else 0
            require(e.coefficient(*point) == want, f"basis is not reduced at level {l}")
        require(wl.total_degree(e) <= result.bound, f"level {l} exceeds the bound")
    if levels is not None:
        require(list(result.levels) == sorted(levels), f"levels {result.levels} differ from theory")
    if dimension is not None:
        require(len(elements) == dimension, f"dimension {len(elements)}, theory says {dimension}")
    commute(wl, result.element, elements, rng)
    round_trip(wl, elements)


def dixmier_levels(bound: int) -> set[int]:
    """Levels of the centralizer of L = (Y^2 + X^3 + 1)^2 + 2X up to the bound.

    The basis vector of level l leads with X^l and has total degree l.
    """
    return {l for l in (0, 6, 9) if l <= bound} | set(range(12, bound + 1, 3))


def dixmier_fourier_levels(bound: int) -> set[int]:
    """Levels of the centralizer of the Fourier image of L up to the bound.

    The automorphism keeps total degree.  The image of L leads with X^4
    where L leads with X^6, so the solver (which puts the image in the x
    sector) finds the image of L's level-l vector at level 2l/3.
    """
    return {2 * l // 3 for l in dixmier_levels(bound)}


def homogeneous_agreement(wl, result) -> None:
    """A homogeneous element's basis matches the graded solver grade by grade."""
    p = result.element
    expected = set()
    for grade in range(-result.bound, result.bound + 1):
        comp = wl.homogeneous_centralizer_component(p, grade)
        if comp.kind is wl.ComponentKind.LINE:
            e = wl.from_graded_form(comp.generator)
            if wl.total_degree(e) <= result.bound:
                expected.add(e)
    require(set(result.elements()) == expected, "basis differs from the graded solver")


def pair_report(wl, pair, report, deriv, bound: int, rng: random.Random) -> None:
    """check_dixmier_pair and derivation_report agree with the paper's theorem."""
    unit_commutator(wl, pair.p, pair.q, rng)
    dim = bound // wl.total_degree(pair.p) + 1
    require(report.holds, "centralizer is larger than the polynomials in P")
    require(report.centralizer_dim == dim == report.powers_dim, "pair dimension differs from theory")
    require(deriv.constant_drop == -1, f"derivation drop {deriv.constant_drop}, expected -1")
    require(deriv.kernel_dim == 1, f"derivation kernel dimension {deriv.kernel_dim}, expected 1")
    basis(wl, report.basis, None, rng, dimension=dim)
    round_trip(wl, [pair.p, pair.q])


def graded(wl, element, components: dict) -> None:
    """Components sum to the element and each survives to/from graded form."""
    total: dict = {}
    for grade, c in components.items():
        require({i - j for i, j in c.terms} == {grade}, f"component {grade} is not homogeneous")
        form = wl.to_graded_form(c)
        require(form.grade == grade and wl.from_graded_form(form) == c, "graded round trip failed")
        for m, v in c.terms.items():
            total[m] = total.get(m, 0) + v
    require(total == dict(element.terms), "components do not sum to the element")


def homogeneous_lines(wl, p, components: dict, rng: random.Random) -> None:
    """Each generator found by the graded solver is homogeneous and commutes with p."""
    elements = []
    for grade, comp in components.items():
        if comp.kind is wl.ComponentKind.LINE:
            require(comp.generator.grade == grade, f"generator of grade {grade} has another grade")
            elements.append(wl.from_graded_form(comp.generator))
    require(elements, "no generator found")
    commute(wl, p, elements, rng)


def decomposition(wl, q, parts, recomposed, basis_result, rng: random.Random) -> None:
    """recompose(decompose(q)) == q, and q lies in the centralizer."""
    require(recomposed == q, "recompose(decompose(q)) differs from q")
    require(len(parts) == basis_result.period, "one coefficient polynomial per residue class")
    commute(wl, basis_result.element, [q], rng)
