"""Commutator derivations on centralizers, and pair generation.

When [Q, P] = 1 the Jacobi identity gives [P, [Q, R]] = [Q, [P, R]], so
R -> [Q, R] maps the centralizer of P into itself and acts there as a
derivation.  This module measures that derivation on a computed basis
(degree drops, kernel) and checks that the centralizer of P is exactly the
polynomial algebra generated by P up to the chosen degree bound.

Pairs with [Q, P] = 1 are produced as images of (X, Y) under composites of
elementary automorphisms, which preserve the defining relation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Sequence

from .core import ONE, WeylElement, X, Y, commutator, from_terms, mul, total_degree
from .centralizer import CentralizerBasis, centralizer_basis, expand_in_basis
from .errors import (
    BoundEscapeError,
    ImpossiblePairError,
    InternalInconsistencyError,
    MalformedInputError,
    NotDixmierPairError,
    WrongSectorError,
)
from .leading import in_xy_subalgebra
from .linalg import dense_kernel


@dataclass(frozen=True)
class DixmierPair:
    """Elements with [q, p] = 1; `witness` stores the computed commutator."""

    p: WeylElement
    q: WeylElement
    witness: WeylElement


def is_dixmier_pair(p: WeylElement, q: WeylElement) -> bool:
    return commutator(q, p) == ONE


def dixmier_pair(p: WeylElement, q: WeylElement) -> DixmierPair:
    """Validated constructor; raises when the commutator is not 1."""
    witness = commutator(q, p)
    if witness != ONE:
        raise NotDixmierPairError("[q, p] is not 1")
    return DixmierPair(p=p, q=q, witness=witness)


def ad(q: WeylElement, r: WeylElement) -> WeylElement:
    """The adjoint action [q, r]; a derivation in r by the Leibniz rule."""
    return commutator(q, r)


@dataclass(frozen=True)
class DerivationReport:
    """Effect of the derivation [q, -] on a centralizer basis.

    `nonzero_picks` lists the residues r whose pick has a nonzero image;
    `degrees` maps each such r to (degree of pick, degree of image).  The
    difference image - pick degree is the same for every listed residue and
    is reported once as `constant_drop`.  `kernel_dim` is the dimension of
    the kernel of the derivation on the whole computed span.  `degenerate`
    marks a truncated basis that cannot support the measurements.
    """

    nonzero_picks: tuple[int, ...]
    degrees: dict[int, tuple[int, int]]
    constant_drop: int | None
    kernel_dim: int
    degenerate: bool


def _image_coordinates(
    basis: CentralizerBasis, image: WeylElement
) -> dict[int, Fraction]:
    degree = total_degree(image)
    if degree > basis.bound:
        raise BoundEscapeError(
            f"derivation image has total degree {degree}, above the basis bound "
            f"{basis.bound}; recompute with a bound of at least {degree}"
        )
    coords = expand_in_basis(basis, image)
    if coords is None:
        raise InternalInconsistencyError(
            "derivation image is not in the computed centralizer span"
        )
    return coords


def derivation_report(pair: DixmierPair, basis: CentralizerBasis) -> DerivationReport:
    """Measure [pair.q, -] on the basis computed for pair.p."""
    if basis.element != pair.p:
        raise MalformedInputError("basis was not computed for the first element of the pair")
    degenerate = len(basis.levels) <= 1 or not basis.picks

    nonzero: list[int] = []
    degrees: dict[int, tuple[int, int]] = {}
    drops: set[int] = set()
    for residue, pick in enumerate(basis.picks):
        if pick is None:
            degenerate = True
            continue
        image = ad(pair.q, pick)
        if not image:
            continue
        coords = _image_coordinates(basis, image)
        pick_deg = basis.ray_degrees[basis.pick_levels[residue]]
        image_deg = basis.ray_degrees[max(coords)] if coords else 0
        nonzero.append(residue)
        degrees[residue] = (pick_deg, image_deg)
        drops.add(image_deg - pick_deg)
    if len(drops) > 1:
        raise InternalInconsistencyError("degree drop differs between picks")
    constant_drop = drops.pop() if drops else None

    # kernel of the derivation on the computed span
    cols: list[dict[int, Fraction]] = []
    for level in basis.levels:
        image = ad(pair.q, basis.by_level[level])
        cols.append(_image_coordinates(basis, image) if image else {})
    matrix = [
        [cols[ci].get(target, Fraction(0)) for ci in range(len(cols))]
        for target in basis.levels
    ]
    kernel_dim = len(dense_kernel(matrix)) if matrix else 0
    return DerivationReport(
        nonzero_picks=tuple(nonzero),
        degrees=degrees,
        constant_drop=constant_drop,
        kernel_dim=kernel_dim,
        degenerate=degenerate,
    )


@dataclass(frozen=True)
class PairCheckReport:
    """Comparison of a centralizer span with the span of powers of p."""

    holds: bool
    centralizer_dim: int
    powers_dim: int
    basis: CentralizerBasis


def check_dixmier_pair(pair: DixmierPair, bound: int) -> PairCheckReport:
    """Does the centralizer of pair.p equal the polynomials in pair.p, up to bound?

    The power span is always contained in the computed kernel, so the check
    reduces to comparing dimensions.
    """
    p, q = pair.p, pair.q
    if in_xy_subalgebra(p):
        raise ImpossiblePairError(
            "element is a polynomial in XY; nothing has commutator 1 with it"
        )
    if commutator(q, p) != ONE:
        raise NotDixmierPairError("[q, p] is not 1")
    basis = centralizer_basis(p, bound)
    powers_dim = bound // total_degree(p) + 1
    p_m = ONE
    for m in range(powers_dim):
        if m:
            p_m = mul(p_m, p)
        if expand_in_basis(basis, p_m) is None:
            raise InternalInconsistencyError("a power of p is missing from its centralizer")
    return PairCheckReport(
        holds=basis.dimension == powers_dim,
        centralizer_dim=basis.dimension,
        powers_dim=powers_dim,
        basis=basis,
    )


def no_partner_check(p: WeylElement, bound: int) -> bool:
    """True when no q of total degree <= bound satisfies [q, p] = 1.

    Defined for p in k[XY] (every term X^i Y^i), where the answer is true
    at every bound, so none is computed.  Proof: p lies on diagonal 0, so
    [p, -] maps each diagonal i - j to itself, and the diagonal-0 part of
    [p, q] is [p, q0], with q0 the diagonal-0 part of q.  But q0 lies in
    k[XY] too, which is commutative, so [p, q0] = 0, while [p, q] = -1
    would need it to be -1.
    """
    if not in_xy_subalgebra(p):
        raise WrongSectorError("no-partner check is defined on polynomials in XY only")
    return True


AutomorphismKind = Literal["addY", "addX", "fourier"]


class ElementaryAutomorphism:
    """One generator of the tame automorphism group.

    addY p:  X -> X + p(Y), Y -> Y      (p a polynomial in Y alone)
    addX p:  X -> X,        Y -> Y + p(X)
    fourier: X -> Y,        Y -> -X

    The defining relation is preserved; this is verified on construction by
    checking that the images of Y and X still have commutator 1.
    """

    __slots__ = ("kind", "poly", "image_x", "image_y")

    def __init__(self, kind: AutomorphismKind, poly: WeylElement | None = None):
        if kind == "addY":
            if poly is None or any(i for i, _ in poly.terms):
                raise MalformedInputError("addY requires a polynomial in Y alone")
            image_x, image_y = X + poly, Y
        elif kind == "addX":
            if poly is None or any(j for _, j in poly.terms):
                raise MalformedInputError("addX requires a polynomial in X alone")
            image_x, image_y = X, Y + poly
        elif kind == "fourier":
            if poly is not None:
                raise MalformedInputError("fourier takes no polynomial")
            image_x, image_y = Y, -X
        else:
            raise MalformedInputError(f"unknown automorphism kind {kind!r}")
        if commutator(image_y, image_x) != ONE:
            raise InternalInconsistencyError("automorphism images break the relation")
        self.kind = kind
        self.poly = poly
        self.image_x = image_x
        self.image_y = image_y

    def apply(self, a: WeylElement) -> WeylElement:
        """Substitute the images into the normal form of a.

        The powers of each image are built once, each from the previous
        one, and the images of all terms are summed in one accumulator.
        """
        xs, ys = [ONE], [ONE]
        for i, j in a.terms:
            while len(xs) <= i:
                xs.append(mul(xs[-1], self.image_x))
            while len(ys) <= j:
                ys.append(mul(ys[-1], self.image_y))
        return from_terms(
            (x, y, c * v)
            for (i, j), c in a.terms.items()
            for (x, y), v in mul(xs[i], ys[j]).terms.items()
        )

    def __repr__(self) -> str:
        if self.kind == "fourier":
            return "ElementaryAutomorphism(fourier)"
        return f"ElementaryAutomorphism({self.kind}, {self.poly!r})"


def apply_script(script: Sequence[ElementaryAutomorphism], a: WeylElement) -> WeylElement:
    for step in script:
        a = step.apply(a)
    return a


def dixmier_pair_from_script(script: Sequence[ElementaryAutomorphism]) -> DixmierPair:
    """The image of (X, Y) under the composite automorphism."""
    p = apply_script(script, X)
    q = apply_script(script, Y)
    witness = commutator(q, p)
    if witness != ONE:
        raise InternalInconsistencyError("automorphism image of (X, Y) broke the relation")
    return DixmierPair(p=p, q=q, witness=witness)


@dataclass(frozen=True)
class ScriptLimits:
    """Sampling limits that keep generated pairs at desk scale."""

    max_len: int = 3
    max_poly_degree: int = 3
    coeff_bound: int = 3
    max_total_degree: int = 12


def random_script(
    rng: random.Random, limits: ScriptLimits = ScriptLimits()
) -> list[ElementaryAutomorphism]:
    """Sample a script whose pair stays within the configured degree cap."""

    def one_poly(variable: Literal["x", "y"]) -> WeylElement:
        while True:
            deg = rng.randint(1, limits.max_poly_degree)
            coeffs = [rng.randint(-limits.coeff_bound, limits.coeff_bound) for _ in range(deg + 1)]
            if not any(coeffs):
                continue
            if variable == "y":
                return from_terms([(0, e, c) for e, c in enumerate(coeffs)])
            return from_terms([(e, 0, c) for e, c in enumerate(coeffs)])

    while True:
        script = []
        for _ in range(rng.randint(1, limits.max_len)):
            kind = rng.choice(["addY", "addX", "fourier"])
            if kind == "addY":
                script.append(ElementaryAutomorphism("addY", one_poly("y")))
            elif kind == "addX":
                script.append(ElementaryAutomorphism("addX", one_poly("x")))
            else:
                script.append(ElementaryAutomorphism("fourier"))
        pair = dixmier_pair_from_script(script)
        if total_degree(pair.p) <= limits.max_total_degree:
            return script
