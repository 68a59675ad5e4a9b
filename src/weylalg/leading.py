"""Leading-form calculus along the diagonal grading, and Newton polygons.

A monomial X^i Y^j sits on diagonal i - j; this grades the algebra, since
the normal-ordering corrections lower both exponents together.  For a
nonzero element the diagonal degree is the largest diagonal met by its
support, the leading form collects the terms on that diagonal, and the
leading weight is the exponent pair of the highest-X term among them.

The diagonal degree is the case (1, -1) of the (rho, sigma)-weighted
degree, the largest rho i + sigma j over the support.  The Newton polygon
N(p) is the convex hull of the support and the origin; `newton_edges`
lists the outward normals of its edges that have rho + sigma >= 0, the
weights along which the leading forms of commuting elements are
proportional powers of each other (Dixmier).

The mirror quantities, with the roles of X and Y exchanged, are the plain
ones of `core.transpose(p)`.

All operations reject the zero element, for which none of this is defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .core import Monomial, WeylElement
from .errors import UndefinedOnZeroError, WrongSectorError

Weight = tuple[int, int]


def _require_nonzero(p: WeylElement, what: str) -> None:
    if not p:
        raise UndefinedOnZeroError(f"{what} is undefined on the zero element")


def support(p: WeylElement) -> frozenset[Monomial]:
    """Exponent pairs with nonzero coefficient; empty for 0."""
    return p.support()


def weighted_degree(p: WeylElement, weight: Weight) -> int:
    """max(rho i + sigma j) over the support, for the weight (rho, sigma)."""
    _require_nonzero(p, "weighted degree")
    rho, sigma = weight
    return max(rho * i + sigma * j for i, j in p.terms)


def diag_degree(p: WeylElement) -> int:
    """max(i - j) over the support: the weighted degree for (1, -1)."""
    return weighted_degree(p, (1, -1))


def leading_form(p: WeylElement) -> WeylElement:
    """Sum of the terms on the highest diagonal."""
    d = diag_degree(p)
    return WeylElement._raw({m: c for m, c in p.terms.items() if m[0] - m[1] == d})


def leading_weight(p: WeylElement) -> Weight:
    """Exponent pair of the highest-X term on the leading diagonal."""
    d = diag_degree(p)
    return max((m for m in p.terms if m[0] - m[1] == d), key=lambda m: m[0])


def leading_term(p: WeylElement) -> WeylElement:
    """The single term at the leading weight."""
    w = leading_weight(p)
    return WeylElement._raw({w: p.terms[w]})


def leading_coeff(p: WeylElement) -> Fraction:
    return p.terms[leading_weight(p)]


def is_monic(p: WeylElement) -> bool:
    return leading_coeff(p) == 1


def aligned(p: WeylElement, q: WeylElement) -> bool:
    """True when the leading weights lie on one ray from the origin."""
    _require_nonzero(q, "alignment")
    k, j = leading_weight(p)
    l, m = leading_weight(q)
    return k * m == j * l


def is_x_dominant(p: WeylElement) -> bool:
    """True when the diagonal degree is positive."""
    return diag_degree(p) > 0


def in_xy_subalgebra(p: WeylElement) -> bool:
    """True when p lies in k[XY]: every term is X^i Y^i (true for 0).

    These are exactly the elements that are neither x- nor y-dominant.
    """
    return all(i == j for i, j in p.terms)


def _convex_hull(points: set[Monomial]) -> list[Monomial]:
    """Vertices of the hull, counterclockwise, without collinear points.

    A segment gives its two ends, and a single point itself.
    """
    pts = sorted(points)
    if len(pts) < 3:
        return pts

    def chain(seq: list[Monomial]) -> list[Monomial]:
        out: list[Monomial] = []
        for c in seq:
            while len(out) >= 2:
                (ax, ay), (bx, by) = out[-2], out[-1]
                if (bx - ax) * (c[1] - ay) - (by - ay) * (c[0] - ax) > 0:
                    break
                out.pop()
            out.append(c)
        return out

    return chain(pts)[:-1] + chain(pts[::-1])[:-1]


def newton_edges(p: WeylElement) -> list[tuple[Weight, int]]:
    """Edges of the Newton polygon N(p) facing rho + sigma >= 0, with support values.

    Each pair is a primitive outward normal (rho, sigma) of an edge of the
    hull of the support and the origin, with h the largest rho i + sigma j
    on N(p).  A hull that is a segment has one edge on each side.  The
    diagonal normals (1, -1) and (-1, 1) are always included, edge or not.
    Sorted by normal.
    """
    _require_nonzero(p, "Newton polygon")
    hull = _convex_hull(set(p.terms) | {(0, 0)})
    normals = {(1, -1), (-1, 1)}
    if len(hull) > 1:
        for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]):
            g = gcd(x1 - x0, y1 - y0)
            rho, sigma = (y1 - y0) // g, (x0 - x1) // g
            if rho + sigma >= 0:
                normals.add((rho, sigma))
    return sorted((w, max(weighted_degree(p, w), 0)) for w in normals)


def primitive_direction(p: WeylElement) -> tuple[Weight, int]:
    """Write the leading weight as r * (i, j) with gcd(i, j) = 1 and r > 0.

    Only defined on x-dominant elements, whose leading weight is not (0, 0).
    """
    if not is_x_dominant(p):
        raise WrongSectorError("primitive direction requires an x-dominant element")
    i0, j0 = leading_weight(p)
    r = gcd(i0, j0)
    return (i0 // r, j0 // r), r


@dataclass(frozen=True)
class LeadingData:
    """All leading-form data of one nonzero element."""

    diag: int
    weight: Weight
    form: WeylElement
    term: WeylElement
    coeff: Fraction
    monic: bool


def leading_data(p: WeylElement) -> LeadingData:
    _require_nonzero(p, "leading data")
    return LeadingData(
        diag=diag_degree(p),
        weight=leading_weight(p),
        form=leading_form(p),
        term=leading_term(p),
        coeff=leading_coeff(p),
        monic=is_monic(p),
    )
