"""Centralizer computation up to a total-degree bound.

One solver lives here: the kernel of Q -> [P, Q] on a set of monomials,
assembled by exponent shifts and found by a descent along the primitive
ray.  `centralizer_basis` runs it on a region of the Newton polygon and
`homogeneous_centralizer_component` on one diagonal.

For an element P of positive diagonal degree, `centralizer_basis` finds
the kernel on the monomials of total degree at most D that lie in
(D / deg P) N(P), where N(P) is the Newton polygon, the convex hull of
the support of P and the origin.  That region is complete by
Dixmier's theorem (Dixmier 1968, used throughout by Guccione, Guccione and
Valqui): for commuting P and Q and every weight (rho, sigma) with
rho + sigma >= 0, the (rho, sigma)-leading forms satisfy
l(P)^a ~ l(Q)^b.  So an element of C(P) at ray level l has total degree
(l / l_P) deg P and its support inside (l / l_P) N(P), l_P being the
level of P; since N(P) holds the origin, these polygons grow with l, and
all of them up to the bound lie in (D / deg P) N(P).  The region is the
set of monomials with deg(P) (rho a + sigma b) <= D h for every edge of
`leading.newton_edges`, so it is cut with integers only.

The commutator matrix is assembled by exponent shifts: in
[P, X^a Y^b] = [P, X^a] Y^b + X^a [P, Y^b] the outer factors only raise
exponents, so each column merges two brackets formed once per a and b,
by the loop of `core` that the monomial-rule `commutator` runs too.

The kernel is found by a descent in the diagonal-major order (diagonal
first, then the X exponent).  With (i0, j0) the leading weight of P, the
top term of [P, X^a Y^b] sits at (a + i0 - 1, b + j0 - 1) with coefficient
c0 (j0 a - i0 b), which vanishes exactly on the primitive ray.  So, from
the highest target down, each row of the commutator matrix either solves
one new off-ray monomial from those already solved, or constrains the
coefficients at the ray points, which are the parameters; a row whose
monomial lies outside the region is a constraint too.  Each constraint
is eliminated as it arrives, solved for its smallest level, and put at
once into the earlier relations, so every relation is over the levels
without one.  Those levels are the free columns of the constraint system
under ascending levels: the leading ray levels.  Reading each solved
monomial off at the free levels gives the basis in reduced echelon form
under the same order: every vector is monic with a distinct leading term
on the ray, and the basis is unique for the given bound.

The constraint rows stop counting at a floor.  The powers 1, P, ..., P^n
with n = D // deg P commute with P, lie in the region and have distinct
total degrees, so the kernel has dimension at least n + 1.  The rows seen
so far cut out a space that holds the kernel, one dimension per level
without a relation; once those levels are n + 1, the two are equal, and
every later constraint row holds on that space already.  The descent
skips them, which is most of its rows on a Dixmier pair, where C(P) is
k[P] by the paper's theorem and the kernel has exactly n + 1 vectors.
The relations it keeps span the same space, so the basis is the same.

A homogeneous P of diagonal degree r > 0 is X^r f(XY), and [P, -] maps
diagonal g to diagonal g + r, so its centralizer splits into components,
one per diagonal.  Diagonal g >= 0 meets the primitive ray (di, dj) in
one point when di - dj divides g, at level g / (di - dj), and in none
otherwise.  The descent over the monomials of the diagonal up to that
point has that single parameter: it returns one vector, monic at the ray
point, or none, so a component is a line or empty; at g = 0 it is the
constants.

There is one sector, and there are two sides.  The transpose
X^i Y^j -> X^j Y^i (`core.transpose`) is an anti-automorphism, so
C(P) = transpose(C(transpose(P))), and it maps the mirror order (j - i
first, then the Y exponent) onto the plain one.  The sector fixes the
canonical order: an x-dominant P is solved as q = P, a y-dominant one as
q = transpose(P), whose basis is then transposed back with the direction
swapped; the homogeneous solver uses the same identity on X^g f(XY).  The
side is the element the descent runs on: q, or transpose(q), which sweeps
q from its lowest diagonal with its parameters on the mirror ray.
Dixmier's theorem holds for (-1, 1) as for (1, -1), so both sides see the
same region: N(transpose q) is the transpose of N(q), and its edge normals
are those of N(q) with rho and sigma exchanged, so the region of
transpose(q) is the transpose of the region of q, and both rays are
counted on the one region in O(columns).  The mirror side is taken when
transpose(q) is x-dominant (never for a homogeneous q) and its ray holds
strictly fewer points of the region: the descent asks no more of
transpose(q) than of q on the plain side.  Dixmier's L and
X + (Y + X^2)^3 take it; on the latter the descent's pivots
c0 (j0 a - i0 b) are -3b there against -6b on the plain side, and its
intermediate coefficients stay near the size of the answer instead of
growing along the chains.  The mirror side's vectors,
transposed back, span the same kernel, reduced in the mirror order, and
`_rebased` brings them to q's order by one integer change of basis.  The
result is the unique reduced basis: the leading term of a kernel element
in q's order is its highest nonzero ray point, so the pivot levels of a
Gauss-Jordan elimination over the ray coordinates, by descending level,
are the leading levels, and for each of them exactly one element of the
span is 1 there and 0 at the others.

Everything returned is re-verified to commute with the caller's P by
actual multiplication; the linear algebra is never trusted on its own,
and neither is the floor.  `centralizer_basis` runs the packed check below
on every basis, so the `centralizer` and `decompose` subcommands get it.
`check_dixmier_pair` solves without it and certifies by the powers of P
instead, which it forms and expands in the basis anyway: when the basis
has as many vectors as there are powers up to the bound, the two spans
are equal and every vector is a polynomial in P (its docstring holds the
proof); otherwise it runs the packed check too.  A floor set too high
leaves the descent with vectors outside the kernel, and one of the two
checks raises on them.  The homogeneous components are each checked by
one commutator, and their descent has floor 0.
The packed check is one exact commutator [P, Z], through the dispatch of
`commutator`, with the basis packed as Z = sum_k 2^(k s) d_k S_k, where
d_k S_k is the k-th element over the lcm of its denominators.  Each
coefficient of [d_P P, d_k S_k] is at most a bound B, the product of the
1-norms of the two operands and the largest lowering factor they meet;
with 2^(s-1) > B the k-th digit of a coefficient of [d_P P, Z] cannot be
cancelled by the others, so [P, Z] = 0 exactly when every [P, S_k] = 0
(`_packed` holds the proof).  Z lives on the union of the supports, so
the product runs over |P| |supp Z| term pairs instead of
|P| sum_k |supp S_k|.

Completeness, that nothing outside the region is missed, rests on the
theorem above.

All results are exact relative to the bound D: the structure constants
(level set, its gcd, the period, the canonical picks) describe the
truncated centralizer, and a degenerate truncation is flagged so callers
can raise D.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from types import MappingProxyType
from typing import Literal, Mapping

from .core import Monomial, ONE, WeylElement, commutator, mul, power, total_degree, transpose
from .core import _bracket_sums, _factors, _integer_terms
from .errors import (
    BoundError,
    InternalInconsistencyError,
    MembershipError,
    NotHomogeneousError,
    WrongSectorError,
)
from .graded import (
    GradedForm,
    XYPolynomial,
    evaluate_at_element,
    from_graded_form,
    is_homogeneous,
    to_graded_form,
)
from .leading import (
    Weight,
    diag_degree,
    in_xy_subalgebra,
    is_x_dominant,
    leading_weight,
    newton_edges,
    primitive_direction,
)

Sector = Literal["x", "y"]


class ComponentKind(Enum):
    EMPTY = "empty"
    LINE = "line"
    XY_POLYNOMIALS = "xy-polynomials"


@dataclass(frozen=True)
class CentralizerComponent:
    """Centralizer piece in one homogeneity degree: nothing, a line, or k[XY]."""

    kind: ComponentKind
    generator: GradedForm | None = None


def homogeneous_centralizer_component(p: WeylElement, grade: int) -> CentralizerComponent:
    """Solve for the centralizer of a homogeneous non-scalar p in one grade.

    For diagonal degree r > 0 the descent runs on q = p at step = grade,
    otherwise on transpose(p) at -grade.  Diagonal `step` holds a ray point
    only when di - dj divides it, and the columns are its monomials up to
    that point; the generator is the descent's one vector in graded form.
    At step 0 the one column (0, 0) meets no row, and the descent returns
    1.  The descent runs on q itself, with the direction already found.
    """
    if not p:
        raise WrongSectorError("the centralizer of 0 is the whole algebra")
    if not is_homogeneous(p):
        raise NotHomogeneousError("the component solver requires a homogeneous element")
    if p.is_scalar():
        raise WrongSectorError("the centralizer of a scalar is the whole algebra")
    r = diag_degree(p)
    if r == 0:
        # p is a non-constant polynomial in XY; its centralizer is all of k[XY]
        if grade == 0:
            return CentralizerComponent(ComponentKind.XY_POLYNOMIALS)
        return CentralizerComponent(ComponentKind.EMPTY)
    # transpose(X^g f(XY)) = f(XY) Y^g: for r < 0 the component at `grade` is
    # the transpose of the one of transpose(p) at -grade, with the same f
    q, step = (p, grade) if r > 0 else (transpose(p), -grade)
    if step < 0:
        return CentralizerComponent(ComponentKind.EMPTY)
    direction = primitive_direction(q)[0]
    di, dj = direction
    level, off = divmod(step, di - dj)
    if off:
        return CentralizerComponent(ComponentKind.EMPTY)
    # the monomials of diagonal `step` up to its only ray point
    columns = [(level * di - m, level * dj - m) for m in range(level * dj + 1)]
    rows, targets = _ad_matrix_rows(q, columns)
    kernel = _ray_descent(rows, targets, columns, leading_weight(q), direction, 0)
    if not kernel:
        return CentralizerComponent(ComponentKind.EMPTY)
    form = GradedForm(grade, to_graded_form(WeylElement._raw(kernel[0])).poly)
    if commutator(p, from_graded_form(form)):
        raise InternalInconsistencyError("claimed homogeneous generator does not commute")
    return CentralizerComponent(ComponentKind.LINE, form)


@dataclass(frozen=True)
class CentralizerBasis:
    """The centralizer of `element`, exactly, up to total degree `bound`.

    Basis vectors are indexed by their level l on the primitive ray:
    the leading term of by_level[l] is the monomial direction * l, monic.
    `levels` lists them ascending.  Everything else is derived from these
    two, and all but `sector` is cached: `sector` is "x" when direction
    (i, j) has i > j, `level_gcd` is the gcd of the nonzero levels, `period`
    the least nonzero normalized degree, and `picks` holds, per residue
    class of the normalized degree modulo the period, the basis element of
    least degree in that class (None when the class is not reached within
    the bound, which also sets `truncated`).

    `by_level` is stored read-only.  It is left out of the hash, since
    `element` and `bound` determine it, so the basis is hashable.
    """

    element: WeylElement
    bound: int
    direction: Weight
    levels: tuple[int, ...]
    by_level: Mapping[int, WeylElement] = field(hash=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "by_level", MappingProxyType(dict(self.by_level)))

    @property
    def sector(self) -> Sector:
        return "y" if self.direction[1] > self.direction[0] else "x"

    @cached_property
    def level_gcd(self) -> int:
        return gcd(*self.levels) or 1

    @cached_property
    def period(self) -> int:
        return min((l for l in self.levels if l), default=self.level_gcd) // self.level_gcd

    @cached_property
    def ray_degrees(self) -> Mapping[int, int]:
        return MappingProxyType({l: l // self.level_gcd for l in self.levels})

    @cached_property
    def pick_levels(self) -> tuple[int | None, ...]:
        """The least level in each residue class; empty without a nonzero level."""
        if not any(self.levels):
            return ()
        d, n = self.level_gcd, self.period
        return tuple(
            min((l for l in self.levels if l and l // d % n == r), default=None)
            for r in range(n)
        )

    @cached_property
    def picks(self) -> tuple[WeylElement | None, ...]:
        return tuple(None if l is None else self.by_level[l] for l in self.pick_levels)

    @cached_property
    def truncated(self) -> bool:
        return not self.pick_levels or None in self.pick_levels

    @cached_property
    def _integer_forms(self) -> Mapping[int, tuple[int, list[tuple[int, int, int]]]]:
        # level -> (d, [(i, j, n)]) with by_level[l] = sum n/d X^i Y^j
        return MappingProxyType({l: _integer_terms(e) for l, e in self.by_level.items()})

    @property
    def dimension(self) -> int:
        return len(self.levels)

    def ray_point(self, level: int) -> Monomial:
        return (level * self.direction[0], level * self.direction[1])

    def elements(self) -> list[WeylElement]:
        return [self.by_level[l] for l in self.levels]


def _order_key(m: Monomial) -> tuple[int, int]:
    # diagonal-major: the diagonal i - j first, then the X exponent
    return (m[0] - m[1], m[0])


def _monomials_upto(bound: int) -> list[Monomial]:
    monos = [(a, b) for a in range(bound + 1) for b in range(bound + 1 - a)]
    monos.sort(key=_order_key, reverse=True)
    return monos


def _newton_columns(p: WeylElement, bound: int) -> list[Monomial]:
    """The monomials of `_monomials_upto(bound)` inside (bound / deg p) N(p)."""
    deg = total_degree(p)
    edges = newton_edges(p)
    return [
        (a, b)
        for a, b in _monomials_upto(bound)
        if all(deg * (rho * a + sigma * b) <= bound * h for (rho, sigma), h in edges)
    ]


def _ad_matrix_rows(
    p: WeylElement, columns: list[Monomial]
) -> tuple[list[dict[int, int]], list[Monomial]]:
    """Sparse rows of Q -> [P, Q] on the given column monomials, scaled to integers.

    Returns the rows and the target monomial of each row; rows are sorted
    by their target, highest in the order first, and none is empty.  Each
    column merges two shifted brackets (module docstring), [P, X^a] and
    [P, Y^b], formed once per a and b by the bracket rule of `core`,
    `_bracket_sums`.
    """
    _, p_terms = _integer_terms(p)
    with_x = {a: _bracket_sums(p_terms, [(a, 0, 1)]).items() for a in {a for a, _ in columns}}
    with_y = {b: _bracket_sums(p_terms, [(0, b, 1)]).items() for b in {b for _, b in columns}}
    by_target: dict[Monomial, dict[int, int]] = {}
    for idx, (a, b) in enumerate(columns):
        col = {(x, y + b): v for (x, y), v in with_x[a]}
        for (x, y), v in with_y[b]:
            col[x + a, y] = col.get((x + a, y), 0) + v
        for key, v in col.items():
            if v:
                by_target.setdefault(key, {})[idx] = v
    ordered = sorted(by_target, key=_order_key, reverse=True)
    return [by_target[m] for m in ordered], ordered


def _ray_descent(
    rows: list[dict[int, int]],
    targets: list[Monomial],
    columns: list[Monomial],
    lead: Weight,
    direction: Weight,
    floor: int,
) -> list[dict[Monomial, Fraction]]:
    """Kernel of the ad rows by forward substitution over the ray parameters.

    Parameter l is the coefficient t_l at the ray point l * direction.  A
    constraint row is eliminated on arrival: with the relations found so
    far put in, it is solved for its smallest level p, and t_p is put at
    once into every earlier relation that holds it, so each relation is
    over levels without a relation.  Solved columns keep the form they
    were solved in and take the relations when a row combines them; at the
    end every column takes them, and each free level's basis vector is
    read off.  A row that meets an unsolved column, or a column left
    unsolved, contradicts the structure in the module docstring and
    raises.

    `floor` is a lower bound on the dimension of the kernel.  The levels
    without a relation span a space that holds the kernel, so when they
    are down to `floor` the two are equal, and a constraint row that comes
    later is skipped unread: it holds on the kernel, and no relation it
    could add is missing.  Pivot rows still run, so every column is
    solved.  The skipped rows need no check of their own, because the
    caller verifies the result by exact multiplication: a floor above the
    true dimension leaves vectors that do not commute, and that check
    raises on them.
    """
    i0, j0 = lead
    di, dj = direction
    index = {m: idx for idx, m in enumerate(columns)}
    # column index -> (integer vector over the levels, positive denominator)
    solved: dict[int, tuple[dict[int, int], int]] = {}
    free: dict[int, dict[Monomial, Fraction]] = {}  # level -> basis vector
    for idx, (a, b) in enumerate(columns):
        if a * dj == b * di:
            level = a // di
            free[level], solved[idx] = {}, ({level: 1}, 1)
    ray = set(solved)
    # level -> t_level over the levels without a relation
    relations: dict[int, tuple[dict[int, int], int]] = {}

    def reduced(vec: dict[int, int], den: int) -> tuple[dict[int, int], int]:
        # vec / den over the levels without a relation, and over its content
        # when one was put in
        levels = [l for l in vec if l in relations]
        if not levels:
            return vec, den
        s = lcm(*(relations[l][1] for l in levels))
        out = {l: s * v for l, v in vec.items() if l not in relations}
        for p in levels:
            expr, d = relations[p]
            f = vec[p] * (s // d)
            for l, v in expr.items():
                out[l] = out.get(l, 0) + f * v
        g = gcd(den * s, *out.values())
        return {l: v // g for l, v in out.items() if v}, den * s // g

    for row, (x, y) in zip(rows, targets):
        col = index.get((x - i0 + 1, y - j0 + 1))
        if col in ray:
            col = None  # the top term of a ray column vanishes: a constraint row
        if col is None and len(free) - len(relations) <= floor:
            continue  # the kernel is already cut down to the floor
        if any(c not in solved for c in row if c != col):
            raise InternalInconsistencyError("descent row meets a column that is not solved yet")
        den = lcm(*(solved[c][1] for c in row if c != col))
        acc: dict[int, int] = {}
        for c, v in row.items():
            if c == col:
                continue
            vec, d = solved[c]
            scale = v * (den // d)
            for l, u in vec.items():
                acc[l] = acc.get(l, 0) + scale * u
        acc, den = reduced({l: u for l, u in acc.items() if u}, den)
        if col is not None:
            pivot = row.get(col)
            if not pivot:
                raise InternalInconsistencyError("descent pivot is missing from its row")
            den *= -pivot
            g = gcd(den, *acc.values()) * (1 if den > 0 else -1)
            solved[col] = ({l: u // g for l, u in acc.items()}, den // g)
        elif acc:
            p = min(acc)
            g = gcd(*acc.values()) * (1 if acc[p] > 0 else -1)
            relations[p] = ({l: -v // g for l, v in acc.items() if l != p}, acc[p] // g)
            for l, (expr, d) in relations.items():
                if p in expr:
                    relations[l] = reduced(expr, d)
    if len(solved) != len(columns):
        raise InternalInconsistencyError("descent left a column unsolved")
    for idx, (vec, den) in solved.items():
        vec, den = reduced(vec, den)
        for l, u in vec.items():
            free[l][columns[idx]] = Fraction(u, den)
    return [free[l] for l in sorted(free) if l not in relations]


def _subtract_multiple(target: dict[Monomial, Fraction], ratio: Fraction, row: dict[Monomial, Fraction]) -> None:
    for m, v in row.items():
        s = target.get(m, Fraction(0)) - ratio * v
        if s:
            target[m] = s
        else:
            target.pop(m, None)


def _rref_by_leading(vectors: list[dict[Monomial, Fraction]]) -> list[dict[Monomial, Fraction]]:
    """Reduced echelon form of a list of element vectors, leading terms by the order.

    Not on the solve path, where the descent's vectors are already reduced;
    the tests use it to reduce the kernel of the whole ad matrix.
    """
    by_lead: dict[Monomial, dict[Monomial, Fraction]] = {}
    for vec in vectors:
        cur = dict(vec)
        # clear every existing pivot position; pivot rows are mutually
        # reduced, so a single pass cannot reintroduce a cleared position
        for lead, prow in by_lead.items():
            ratio = cur.get(lead)
            if ratio:
                _subtract_multiple(cur, ratio, prow)
        if not cur:
            continue
        lead = max(cur, key=_order_key)
        lc = cur[lead]
        cur = {m: v / lc for m, v in cur.items()}
        for prow in by_lead.values():
            ratio = prow.get(lead)
            if ratio:
                _subtract_multiple(prow, ratio, cur)
        by_lead[lead] = cur
    return [by_lead[lead] for lead in sorted(by_lead, key=_order_key, reverse=True)]


def _packed(p: WeylElement, elems: list[WeylElement]) -> tuple[WeylElement, int]:
    """(Z, B) with Z = sum_k 2^(k s) d_k S_k: [p, Z] = 0 exactly when all [p, S_k] = 0.

    d_k S_k is S_k in integer form (`core._integer_terms`).  By the monomial
    rule each term pair of d_P P and d_k S_k adds to a coefficient of their
    bracket at most once: the product of its two coefficients times a
    difference of two lowering factors in [0, F].  So every coefficient is
    at most B = |d_P P|_1 max_k |d_k S_k|_1 F in absolute value, where F is
    the largest entry of the rows _factors(maxY(P), maxX(S_k)) and
    _factors(maxY(S_k), maxX(P)) over all k.  The entries grow with both
    arguments, so the largest exponents give F, but a row's maximum is not
    always its last entry: _factors(3, 3) = (1, 9, 18, 6).  With
    2^(s-1) > B, each coefficient of [d_P P, Z] is sum_k 2^(k s) c_k with
    every |c_k| < 2^(s-1), and its lowest nonzero digit c_k leaves it
    nonzero modulo 2^((k+1) s).  So [p, Z] = [d_P P, Z] / d_P is 0 exactly
    when every digit is 0.
    """
    _, p_terms = _integer_terms(p)
    forms = [_integer_terms(e)[1] for e in elems]
    x_s, y_s = (max(t[n] for terms in forms for t in terms) for n in (0, 1))
    x_p, y_p = (max(t[n] for t in p_terms) for n in (0, 1))
    f = max(_factors(y_p, x_s) + _factors(y_s, x_p))
    bound = sum(abs(c) for *_, c in p_terms) * max(sum(abs(c) for *_, c in t) for t in forms) * f
    s = bound.bit_length() + 1
    acc: dict[Monomial, int] = {}
    for k, terms in enumerate(forms):
        for i, j, c in terms:
            acc[i, j] = acc.get((i, j), 0) + (c << k * s)
    return WeylElement._raw({m: Fraction(v) for m, v in acc.items() if v}), bound


def _mirror_side(q: WeylElement, columns: list[Monomial], direction: Weight) -> bool:
    """Whether the descent runs on transpose(q) rather than on q.

    That side is usable when transpose(q) is x-dominant, and it is taken
    when its ray holds strictly fewer points of the region.  Both rays are
    counted on q's region, whose transpose is the region of transpose(q).
    """
    m = transpose(q)
    if not is_x_dominant(m):
        return False
    (mi, mj), _ = primitive_direction(m)
    di, dj = direction
    plain = sum(1 for a, b in columns if a * dj == b * di)
    return sum(1 for a, b in columns if b * mj == a * mi) < plain


def _rebased(vectors: list[dict[Monomial, Fraction]], direction: Weight) -> list[dict[Monomial, Fraction]]:
    """The span of the vectors in reduced echelon form along the ray of `direction`.

    Each vector is taken in integer form, and its coefficients at the ray
    points make one row of a k x levels matrix, which carries the row's
    combination of the vectors.  Fraction-free Gauss-Jordan on it, columns
    by descending level, leaves one pivot per leading level; the vector of
    that level is its row's integer combination over the pivot, so it is
    monic on its own ray point and 0 on the other leading ones.
    """
    di, dj = direction
    forms, rows = [], []
    for n, vec in enumerate(vectors):
        den = lcm(*(v.denominator for v in vec.values()))
        forms.append({m: v.numerator * (den // v.denominator) for m, v in vec.items()})
        ray = {a // di: v for (a, b), v in forms[-1].items() if a * dj == b * di}
        rows.append((ray, {n: 1}))
    pivots: dict[int, int] = {}  # leading level -> its row
    for level in sorted({l for ray, _ in rows for l in ray}, reverse=True):
        used = set(pivots.values())
        n = next((n for n, (ray, _) in enumerate(rows) if n not in used and ray.get(level)), None)
        if n is None:
            continue
        pivots[level] = n
        p_ray, p_comb = rows[n]
        a = p_ray[level]
        for r, (ray, comb) in enumerate(rows):
            b = ray.get(level)
            if r != n and b:
                ray = {l: a * ray.get(l, 0) - b * p_ray.get(l, 0) for l in ray.keys() | p_ray.keys()}
                comb = {k: a * comb.get(k, 0) - b * p_comb.get(k, 0) for k in comb.keys() | p_comb.keys()}
                g = gcd(*ray.values(), *comb.values())
                rows[r] = ({l: v // g for l, v in ray.items() if v}, {k: v // g for k, v in comb.items() if v})
    if len(pivots) != len(vectors):
        raise InternalInconsistencyError("the descent's vectors are linearly dependent")
    out = []
    for level in sorted(pivots):
        ray, comb = rows[pivots[level]]
        acc: dict[Monomial, int] = {}
        for n, c in comb.items():
            for m, v in forms[n].items():
                acc[m] = acc.get(m, 0) + c * v
        out.append({m: Fraction(v, ray[level]) for m, v in acc.items() if v})
    return out


def _reduced_kernel(
    q: WeylElement, columns: list[Monomial], direction: Weight, floor: int
) -> list[dict[Monomial, Fraction]]:
    """The kernel of [q, -] on the columns, reduced along q's ray `direction`.

    `floor` is a lower bound on its dimension, passed to the descent.  On
    the mirror side the descent runs on transpose(q) over the transposed
    region, whose kernel has the same dimension, and its vectors,
    transposed back, are rebased onto q's ray.
    """
    mirror = _mirror_side(q, columns, direction)
    side = transpose(q) if mirror else q
    if mirror:
        columns = sorted(((b, a) for a, b in columns), key=_order_key, reverse=True)
    rows, targets = _ad_matrix_rows(side, columns)
    vectors = _ray_descent(rows, targets, columns, leading_weight(side), primitive_direction(side)[0], floor)
    if not mirror:
        return vectors
    return _rebased([{(b, a): v for (a, b), v in vec.items()} for vec in vectors], direction)


def centralizer_basis(p: WeylElement, bound: int) -> CentralizerBasis:
    """All elements commuting with p of total degree at most `bound`."""
    basis = _solve(p, bound)
    _packed_check(basis)
    return basis


def _packed_check(basis: CentralizerBasis) -> None:
    """Raise unless every basis vector commutes with the basis element exactly."""
    p = basis.element
    if commutator(p, _packed(p, list(basis.by_level.values()))[0]):
        raise InternalInconsistencyError("kernel vector does not commute exactly")


def _solve(p: WeylElement, bound: int) -> CentralizerBasis:
    """The reduced basis of `centralizer_basis`, before the packed check.

    Every vector is checked to be monic with its own leading term on the
    ray, at a level no other vector has, and the constants are checked to
    be the vector at level 0; whether the vectors commute with p is left to
    the caller.
    """
    if in_xy_subalgebra(p):
        raise WrongSectorError(
            "element has no dominant generator: its centralizer is k[XY] "
            "(or the whole algebra for a scalar)"
        )
    if bound < total_degree(p):
        raise BoundError(
            f"bound {bound} is below the total degree {total_degree(p)} of the element"
        )
    # C(p) = transpose(C(transpose(p))), and transpose maps the mirror order
    # onto the plain one, so a y-dominant p is solved in the x sector
    x_sector = is_x_dominant(p)
    q = p if x_sector else transpose(p)
    direction, _ = primitive_direction(q)
    columns = _newton_columns(q, bound)

    di, dj = direction
    by_level: dict[int, WeylElement] = {}
    # 1, q, ..., q^n with n = bound // deg q lie in the region and are
    # linearly independent: the floor of the descent
    for vec in _reduced_kernel(q, columns, direction, bound // total_degree(q) + 1):
        lead = max(vec, key=_order_key)
        level = lead[0] // di
        if lead != (level * di, level * dj) or vec[lead] != 1 or level in by_level:
            raise InternalInconsistencyError(
                "kernel vector is not monic with its own leading term on the primitive ray"
            )
        by_level[level] = WeylElement._raw(vec)
    if by_level.get(0) != ONE:
        raise InternalInconsistencyError("the constants are missing from the kernel")
    if not x_sector:
        by_level = {l: transpose(e) for l, e in by_level.items()}
        direction = (dj, di)
    return CentralizerBasis(
        element=p,
        bound=bound,
        direction=direction,
        levels=tuple(sorted(by_level)),
        by_level=by_level,
    )


def expand_in_basis(basis: CentralizerBasis, q: WeylElement) -> dict[int, Fraction] | None:
    """Coordinates of q in the basis, or None when q is outside the span.

    The basis is leading-reduced, so the coordinate at level l is just the
    coefficient c_l = n_l / e_l of q at the ray monomial of level l.  The
    sum of the c_l S_l is rebuilt in integers: with S_l = T_l / d_l in
    integer form and E the lcm of the e_l d_l, it is
    sum_l n_l (E / (e_l d_l)) T_l over E.  q is in the span exactly when
    that sum has as many nonzero terms as q and matches each of them, which
    is compared by cross-multiplication, with no Fraction formed.
    """
    coords = {}
    for l in basis.levels:
        c = q.coefficient(*basis.ray_point(l))
        if c:
            coords[l] = c
    forms = basis._integer_forms
    scales = {l: c.denominator * forms[l][0] for l, c in coords.items()}
    den = lcm(*scales.values())
    sums: dict[Monomial, int] = {}
    get = sums.get
    for l, c in coords.items():
        f = c.numerator * (den // scales[l])
        for i, j, n in forms[l][1]:
            sums[i, j] = get((i, j), 0) + f * n
    terms = q.terms
    if sum(1 for v in sums.values() if v) != len(terms):
        return None
    if any(c.numerator * den != get(m, 0) * c.denominator for m, c in terms.items()):
        return None
    return coords


def ray_degree(q: WeylElement, basis: CentralizerBasis) -> int:
    """Degree of a centralizer element: its ray level over the level gcd."""
    if not q:
        raise MembershipError("the zero element has no ray degree")
    coords = expand_in_basis(basis, q)
    if coords is None:
        raise MembershipError("element is not in the computed centralizer span")
    return basis.ray_degrees[max(coords)]


def decompose(q: WeylElement, basis: CentralizerBasis) -> list[XYPolynomial]:
    """Write q as T_0(S_0) + T_1(S_0) S_1 + ... over the canonical picks.

    S_0 is picks[0] and S_r is picks[r]; the returned list holds the
    polynomials T_0 .. T_{period-1}.  Each step matches the leading ray
    coefficient with the unique monic product S_0^m S_r of the same degree,
    where S_r is the constant 1 for residue 0; this lowers the degree
    strictly.

    Only q is expanded, to test membership.  The basis is reduced, so the
    leading coordinate of a residual in the span is its coefficient at the
    highest basis ray point where it is nonzero, below the level just
    eliminated.  The loop stops only on an exact 0; a residual left with no
    such coefficient means a product left the span, an internal fault.
    """
    if expand_in_basis(basis, q) is None:
        raise MembershipError("element is not in the computed centralizer span")
    period = basis.period
    if basis.picks and any(s is None for s in basis.picks):
        raise BoundError("basis is truncated: some residue classes have no pick")
    s0 = basis.picks[0] if basis.picks else ONE  # a basis of the constants has no S_0
    coeffs: list[dict[int, Fraction]] = [dict() for _ in range(period)]
    levels = list(basis.levels)  # the levels below the last one eliminated
    residual = q
    while residual:
        while levels and not residual.coefficient(*basis.ray_point(levels[-1])):
            levels.pop()
        if not levels:
            raise InternalInconsistencyError("leading elimination left the computed centralizer span")
        level = levels.pop()
        lam = residual.coefficient(*basis.ray_point(level))
        deg = basis.ray_degrees[level]
        residue = deg % period
        pick_level = basis.pick_levels[residue] if residue else 0  # residue 0 counts from 1
        m = (deg - basis.ray_degrees[pick_level]) // period
        if m < 0:
            raise InternalInconsistencyError(
                "pick degree exceeds the degree of its residue class member"
            )
        coeffs[residue][m] = lam  # each level gives its own (residue, m)
        factor = power(s0, m)
        if residue:
            factor = mul(factor, basis.picks[residue])
        residual = residual - lam * factor
    return [XYPolynomial([acc.get(m, 0) for m in range(max(acc, default=-1) + 1)]) for acc in coeffs]


def recompose(parts: list[XYPolynomial], basis: CentralizerBasis) -> WeylElement:
    """Inverse of decompose: T_0(S_0) + sum of T_r(S_0) * S_r."""
    s0 = basis.picks[0]
    out = evaluate_at_element(parts[0], s0)
    for r in range(1, len(parts)):
        out = out + mul(evaluate_at_element(parts[r], s0), basis.picks[r])
    return out


def is_monomial_algebra_embedding(basis: CentralizerBasis) -> bool:
    """For homogeneous input: do the basis elements multiply by adding levels?

    When true, level l -> Z^l embeds the centralizer into the polynomial
    ring as a monomial algebra.
    """
    if not is_homogeneous(basis.element):
        raise NotHomogeneousError("monomial-algebra embedding requires a homogeneous element")
    for l in basis.levels:
        for h in basis.levels:
            if l + h in basis.by_level:
                if mul(basis.by_level[l], basis.by_level[h]) != basis.by_level[l + h]:
                    return False
    return True
