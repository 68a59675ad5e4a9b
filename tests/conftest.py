import random
from fractions import Fraction

import hypothesis.strategies as st

from weylalg import (
    ScriptLimits,
    WeylElement,
    dixmier_pair_from_script,
    from_terms,
    is_x_dominant,
    newton_edges,
    random_script,
    total_degree,
)
from weylalg.centralizer import _order_key


def random_element(
    rng: random.Random,
    max_exp: int = 6,
    max_terms: int = 5,
    coeff_num: int = 9,
    coeff_den: int = 9,
    nonzero: bool = False,
) -> WeylElement:
    """Uniform small element for the counted acceptance suites."""
    while True:
        n = rng.randint(1 if nonzero else 0, max_terms)
        terms = []
        for _ in range(n):
            num = rng.randint(-coeff_num, coeff_num)
            den = rng.randint(1, coeff_den)
            terms.append((rng.randint(0, max_exp), rng.randint(0, max_exp), Fraction(num, den)))
        element = from_terms(terms)
        if not nonzero or element:
            return element


def swap_exponents(a: WeylElement) -> WeylElement:
    """Exchange the X and Y exponents of every term (a support operation)."""
    return from_terms([(j, i, c) for (i, j), c in a.terms.items()])


_coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)


@st.composite
def weyl_elements(draw, max_exp: int = 4, max_terms: int = 4, nonzero: bool = False):
    terms = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=max_exp),
                st.integers(min_value=0, max_value=max_exp),
                _coeffs,
            ),
            min_size=1 if nonzero else 0,
            max_size=max_terms,
        )
    )
    element = from_terms(terms)
    if nonzero and not element:
        # collapsed by cancellation; fall back to the first monomial alone
        i, j, c = terms[0]
        element = from_terms([(i, j, c)])
    return element


def monomials_upto(bound: int):
    """Every monomial of total degree at most `bound`, in the solver's column order."""
    monos = [(a, b) for a in range(bound + 1) for b in range(bound + 1 - a)]
    monos.sort(key=_order_key, reverse=True)
    return monos


def triangle_columns(p: WeylElement, bound: int):
    """The region (bound / deg p) N(p), each monomial of the triangle tested against every edge.

    The reference for `centralizer._newton_columns`, which cuts the region
    by one integer interval per X exponent.
    """
    deg = total_degree(p)
    edges = newton_edges(p)
    return [
        (a, b)
        for a, b in monomials_upto(bound)
        if all(deg * (rho * a + sigma * b) <= bound * h for (rho, sigma), h in edges)
    ]


@st.composite
def sector_script_pairs(draw):
    """The pair of a random automorphism script, with P in the drawn sector."""
    rng, sector = random.Random(draw(st.integers(0, 2**32))), draw(st.sampled_from("xy"))
    limits = ScriptLimits(max_len=3, max_poly_degree=3, coeff_bound=3, max_total_degree=9)
    pair = dixmier_pair_from_script(random_script(rng, limits))
    while is_x_dominant(pair.p) != (sector == "x"):
        pair = dixmier_pair_from_script(random_script(rng, limits))
    return pair
