"""Commutator derivations on centralizers, and pair generation.

When [Q, P] = 1 the Jacobi identity gives [P, [Q, R]] = [Q, [P, R]], so
R -> [Q, R] maps the centralizer of P into itself and acts there as a
derivation.  This module measures that derivation on a computed basis
(degree drops, kernel) and checks that the centralizer of P is exactly the
polynomial algebra generated by P up to the chosen degree bound.

The hypothesis [Q, P] = 1 is one exact commutator, cached on the pair
object: `dixmier_pair_from_script`, `check_dixmier_pair` and
`derivation_report` all read that one check, and a `DixmierPair` is not
checked when it is built.  No pair has P in k[XY]: [-, P] keeps each
diagonal, so the diagonal-0 part of [Q, P] is [Q0, P] = 0, Q0 lying in the
commutative k[XY] (the proof is in `no_partner_check`), and such a P fails
the commutator like any non-pair.

Pairs with [Q, P] = 1 are produced as images of (X, Y) under composites of
elementary automorphisms, which preserve the defining relation.  Each one
fixes a generator, so `ElementaryAutomorphism.apply` forms no general
product: the image of a term is a power of the image that moves, built
once in integers by a two-term step, with one exponent shifted, or for
fourier one row of normal-ordering factors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache, cached_property
from typing import Literal, Sequence

from .core import Monomial, ONE, WeylElement, X, Y, commutator, from_terms, total_degree
from .core import _factors, _integer_form, _over, transpose
from .centralizer import CentralizerBasis, centralizer_basis, expand_in_basis
from .errors import (
    BoundEscapeError,
    InternalInconsistencyError,
    MalformedInputError,
    NotDixmierPairError,
    WrongSectorError,
)
from .leading import in_xy_subalgebra
from .linalg import dense_kernel


@dataclass(frozen=True)
class DixmierPair:
    """Elements meant to satisfy [q, p] = 1, checked once per object (`_holds`)."""

    p: WeylElement
    q: WeylElement

    @cached_property
    def _holds(self) -> bool:
        return is_dixmier_pair(self.p, self.q)


def is_dixmier_pair(p: WeylElement, q: WeylElement) -> bool:
    return commutator(q, p) == ONE


def ad(q: WeylElement, r: WeylElement) -> WeylElement:
    """The adjoint action [q, r]; a derivation in r by the Leibniz rule."""
    return commutator(q, r)


@dataclass(frozen=True)
class DerivationReport:
    """Effect of the derivation [q, -] on a centralizer basis.

    `degrees` maps each residue r whose pick has a nonzero image to
    (degree of pick, degree of image), and `nonzero_picks` lists those r.  The
    difference image - pick degree is the same for every listed residue and
    is reported once as `constant_drop`.  `kernel_dim` is the dimension of
    the kernel of the derivation on the whole computed span.  `degenerate`
    marks a truncated basis that cannot support the measurements.  A basis
    certified by the powers has a closed form (see `derivation_report`).
    """

    degrees: dict[int, tuple[int, int]]
    constant_drop: int | None
    kernel_dim: int
    degenerate: bool

    @property
    def nonzero_picks(self) -> tuple[int, ...]:
        return tuple(self.degrees)


def _image_coordinates(pair: DixmierPair, basis: CentralizerBasis, image: WeylElement) -> dict[int, Fraction]:
    # an image above the bound or outside the span means a non-pair when [q, p] = 1 fails
    degree = total_degree(image)
    coords = expand_in_basis(basis, image) if degree <= basis.bound else None
    if coords is not None:
        return coords
    if not pair._holds:
        raise NotDixmierPairError("[q, p] is not 1")
    if degree > basis.bound:
        raise BoundEscapeError(
            f"derivation image has total degree {degree}, above the basis bound "
            f"{basis.bound}; recompute with a bound of at least {degree}"
        )
    raise InternalInconsistencyError("derivation image is not in the computed centralizer span")


def derivation_report(pair: DixmierPair, basis: CentralizerBasis) -> DerivationReport:
    """Measure [pair.q, -] on the basis computed for pair.p.

    On a basis that `centralizer_basis` certified by the powers of p, the
    report has a closed form once the pair's cached [q, p] = 1 holds
    (`NotDixmierPairError` otherwise).  The basis spans k[p] up to the
    bound with n + 1 >= 2 levels (bound >= deg p); its only pick, at level
    l_p, is p / lc + c, so [q, pick] = 1 / lc, of ray degree 0; and [q, -]
    sends p^k to k p^(k-1), so in characteristic 0 its kernel is the
    constants.  Other bases (built by the constructor, or above the floor,
    as a counterexample's would be) get one commutator per vector, and an
    image outside their span is `NotDixmierPairError` on a non-pair.
    """
    if basis.element != pair.p:
        raise MalformedInputError("basis was not computed for the first element of the pair")
    if basis.__dict__.get("_by_powers"):
        if not pair._holds:
            raise NotDixmierPairError("[q, p] is not 1")
        return DerivationReport(degrees={0: (1, 0)}, constant_drop=-1, kernel_dim=1, degenerate=False)

    @cache
    def image(level: int) -> tuple[WeylElement, dict[int, Fraction]]:
        # [q, S] of the basis element S at a level, and its coordinates
        out = ad(pair.q, basis.by_level[level])
        return out, (_image_coordinates(pair, basis, out) if out else {})

    degrees: dict[int, tuple[int, int]] = {}
    drops: set[int] = set()
    for residue, level in enumerate(basis.pick_levels):
        if level is None or not image(level)[0]:
            continue
        coords = image(level)[1]
        pick_deg = basis.ray_degrees[level]
        image_deg = basis.ray_degrees[max(coords)]
        degrees[residue] = (pick_deg, image_deg)
        drops.add(image_deg - pick_deg)
    if len(drops) > 1:
        raise InternalInconsistencyError("degree drop differs between picks")
    constant_drop = drops.pop() if drops else None

    # kernel of the derivation on the computed span
    cols = [image(level)[1] for level in basis.levels]
    matrix = [
        [cols[ci].get(target, Fraction(0)) for ci in range(len(cols))]
        for target in basis.levels
    ]
    kernel_dim = len(dense_kernel(matrix))
    return DerivationReport(
        degrees=degrees,
        constant_drop=constant_drop,
        kernel_dim=kernel_dim,
        degenerate=len(basis.levels) <= 1 or basis.truncated,
    )


@dataclass(frozen=True)
class PairCheckReport:
    """Comparison of a centralizer span with the span of powers of p.

    `basis` is the reduced centralizer basis of p up to the bound, from
    `centralizer_basis` and certified by it whether `holds` is true or
    false: by the powers of p when it has as many vectors as there are
    powers, and by exact multiplication when it has more.  It is made only
    for a pair that passed [q, p] = 1.  `centralizer_dim` repeats
    `basis.dimension`; it is stored so that the benchmark's checks can be
    tested on a report whose dimension is wrong.
    """

    basis: CentralizerBasis
    centralizer_dim: int

    @property
    def powers_dim(self) -> int:
        return self.basis.bound // total_degree(self.basis.element) + 1

    @property
    def holds(self) -> bool:
        return self.basis.dimension == self.powers_dim


def check_dixmier_pair(pair: DixmierPair, bound: int) -> PairCheckReport:
    """Does the centralizer of pair.p equal the polynomials in pair.p, up to bound?

    The hypothesis [q, p] = 1 is checked first, by the cached commutator,
    and `NotDixmierPairError` raised when it fails.  A p in k[XY] always
    fails it, so every p that reaches the solve has a dominant generator.

    The n + 1 powers 1, p, ..., p^n with n = bound // deg p are linearly
    independent elements of the centralizer, and `centralizer_basis` stops
    its descent once the kernel is down to their span, takes its basis from
    them and certifies it by rebuilding each of them exactly; a basis of
    more vectors it certifies by the packed check (its docstring holds the
    proofs).  So the answer is whether the basis has n + 1 vectors, and by
    the paper's theorem it is true on every Dixmier pair.  With more, the
    answer is false, and the basis is verified by exact multiplication.
    """
    if not pair._holds:
        raise NotDixmierPairError("[q, p] is not 1")
    basis = centralizer_basis(pair.p, bound)
    return PairCheckReport(basis=basis, centralizer_dim=basis.dimension)


def no_partner_check(p: WeylElement, bound: int) -> bool:
    """True when no q of total degree <= bound satisfies [q, p] = 1.

    Defined for p in k[XY] (every term X^i Y^i), where the answer is true
    at every bound, so none is computed.  Proof: p lies on diagonal 0, so
    [p, -] maps each diagonal i - j to itself, and the diagonal-0 part of
    [p, q] is [p, q0], with q0 the diagonal-0 part of q.  But q0 lies in
    k[XY] too, which is commutative, so [p, q0] = 0, while [p, q] = -1
    would need it to be -1.
    """
    if not isinstance(bound, int):
        raise MalformedInputError(f"bound must be an integer, got {bound!r}")
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

    __slots__ = ("kind", "poly")

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

    def apply(self, a: WeylElement) -> WeylElement:
        """The image of a, formed with no general product.

        addY sends X^i Y^j to A^i Y^j with A = X + p(Y).  With d the
        denominator of p, the powers of dA are built once, in integers, each
        from the last by X^x Y^y * X = X^(x+1) Y^y + y X^x Y^(y-1), and Y^j
        only shifts their Y exponents.  addX is addY conjugated by
        `transpose`: X^i Y^j goes to X^i B^j with B = Y + p(X), whose powers
        follow Y * X^x Y^y = X^x Y^(y+1) + x X^(x-1) Y^y, and X^i shifts
        their X exponents.  fourier sends X^i Y^j to (-1)^j Y^i X^j,
        normal-ordered from the `_factors(i, j)` row.  Every term is summed
        as an integer over one denominator, and Fractions are built once.
        """
        if self.kind == "fourier":
            return _fourier(a)
        if self.kind == "addY":
            return _add_y(self.poly, a)
        return transpose(_add_y(transpose(self.poly), transpose(a)))

    def __repr__(self) -> str:
        if self.kind == "fourier":
            return "ElementaryAutomorphism(fourier)"
        return f"ElementaryAutomorphism({self.kind}, {self.poly!r})"


def _add_y(p: WeylElement, a: WeylElement) -> WeylElement:
    """The image of a under X -> X + p(Y), Y -> Y (see `ElementaryAutomorphism.apply`).

    With p = sum_k e_k Y^k / d over integers, dA = dX + sum_k e_k Y^k, and
    a term n/d_a X^i Y^j adds n d^(m-i) (dA)^i Y^j over the one denominator
    d_a d^m, with m the largest X exponent of a.
    """
    ta, da = _integer_form(a)
    tp, d = _integer_form(p)
    ys = [(k, e) for (_, k), e in tp.items()]  # the terms e_k Y^k of dp
    top = max((i for i, _ in ta), default=0)
    powers = [{(0, 0): 1}]
    for _ in range(top):
        step: dict[Monomial, int] = {}
        get = step.get
        for (x, y), c in powers[-1].items():
            dc = d * c
            key = (x + 1, y)
            step[key] = get(key, 0) + dc
            if y:
                key = (x, y - 1)
                step[key] = get(key, 0) + y * dc
            for k, e in ys:
                key = (x, y + k)
                step[key] = get(key, 0) + c * e
        powers.append(step)
    sums: dict[Monomial, int] = {}
    get = sums.get
    for (i, j), n in ta.items():
        scale = n * d ** (top - i)
        for (x, y), c in powers[i].items():
            key = (x, y + j)
            sums[key] = get(key, 0) + scale * c
    return _over(sums, da * d**top)


def _fourier(a: WeylElement) -> WeylElement:
    """The image of a under X -> Y, Y -> -X.

    X^i Y^j goes to (-1)^j Y^i X^j = (-1)^j sum_k f_k X^(j-k) Y^(i-k), with
    f = _factors(i, j) the normal-ordering row of Y^i X^j.
    """
    ta, da = _integer_form(a)
    sums: dict[Monomial, int] = {}
    get = sums.get
    for (i, j), n in ta.items():
        if j & 1:
            n = -n
        for k, f in enumerate(_factors(i, j)):
            key = (j - k, i - k)
            sums[key] = get(key, 0) + n * f
    return _over(sums, da)


def apply_script(script: Sequence[ElementaryAutomorphism], a: WeylElement) -> WeylElement:
    for step in script:
        a = step.apply(a)
    return a


def dixmier_pair_from_script(script: Sequence[ElementaryAutomorphism]) -> DixmierPair:
    """The image of (X, Y) under the composite automorphism."""
    pair = DixmierPair(apply_script(script, X), apply_script(script, Y))
    if not pair._holds:
        raise InternalInconsistencyError("automorphism image of (X, Y) broke the relation")
    return pair


@dataclass(frozen=True)
class ScriptLimits:
    """Sampling limits that keep generated pairs at desk scale.

    Every limit is a positive integer.  At 0 `random_script` has no length
    or polynomial degree to draw, draws only zero polynomials (coeff_bound),
    or rejects every script, since the image of X is never a scalar
    (max_total_degree).
    """

    max_len: int = 3
    max_poly_degree: int = 3
    coeff_bound: int = 3
    max_total_degree: int = 12

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not isinstance(value, int) or value < 1:
                raise MalformedInputError(
                    f"ScriptLimits.{field.name} must be a positive integer, got {value!r}"
                )


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
