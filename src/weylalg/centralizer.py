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
exponents, so each column is made of brackets of the diagonal pieces
P_d of P (its terms with i - j = d) against X^a and Y^b, formed once per
piece and a or b by the loop of `core` that the monomial-rule
`commutator` runs too.  [P_d, X^a Y^b] lies on diagonal d + (a - b)
alone, so the rows of target diagonal g are the pieces P_d against the
columns on diagonal g - d.  They are merged one target diagonal at a
time, from the top, when the descent asks for them: a descent that stops
early forms and merges nothing below the last diagonal it read.

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

Every solve stops at a floor.  The powers 1, P, ..., P^n, n = D // deg P,
commute with P, lie in the region and have distinct total degrees, so
the kernel has dimension at least n + 1.  The rows seen so far cut out a
space that holds the kernel, one dimension per level without a relation;
once those levels are n + 1, the two are equal, and the descent returns,
reading no further row.  The basis is then the powers
in reduced echelon form along the ray, which is unique, so it is the one
the whole descent would give; `_rebased` forms it by a triangular
reduction, since P^k leads at level k l_P.  The floor is reached
whenever C(P) = k[P] in the region: on every Dixmier pair, by the
paper's theorem, and on X + (Y + X^2)^3.  Dixmier's L, whose centralizer
is larger, solves every column from bound 9 on.  The homogeneous
solver's floor is 0: a grade whose one parameter gets a relation ends
there, empty.

Coefficients stay integers from the descent to the basis.  The descent
returns each vector as an integer form, the package's one `core.Form`:
numerators by monomial over one positive denominator.  `_rebased` and
`_packed` take such forms, and the powers of P are formed in them by
`core._product`, the kernel choice of `mul`.  Fractions are built once, for
the basis elements, and the basis keeps the forms for `expand_in_basis`.

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
`_rebased` brings them to q's order.  The result is the unique reduced
basis: the leading term of a kernel element in q's order is its highest
nonzero ray point, and for each leading level exactly one element of the
span is 1 there and 0 at the others.  An element of C(q) at level l on
either ray has total degree proportional to l, so the mirror vectors,
of distinct mirror levels, lead at distinct levels of q's ray too, and
the change of basis is triangular, as for the powers.

Everything returned is certified by exact multiplication; the linear
algebra is never trusted on its own, and neither is the floor.  Which
certificate a basis gets depends on its dimension against the n + 1
powers of P (`centralizer_basis` holds the proofs).  A basis at the
floor, which is every stopped descent, is certified by the powers: each
is rebuilt exactly from the basis, so every vector is a polynomial in P.
A basis above it, such as L's, gets the packed check below; one below it
cannot rebuild every power, and raises.  A descent that stops at another
dimension than the number of powers raises too, so a floor set too high
exits 3.  `check_dixmier_pair` and the `centralizer` and `decompose`
subcommands all go through `centralizer_basis` and get the same
certificate.  The homogeneous components are each checked by one
commutator.
The packed check is one exact commutator [P, Z], through the dispatch of
`commutator`, with the basis packed as Z = sum_k 2^(k s) T_k, where
T_k are the numerators of the k-th vector's integer form.  Each
coefficient of [d_P P, T_k] is at most a bound B, the product of the
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
from typing import Iterable, Iterator, Literal, Mapping

from .core import Form, Monomial, ONE, WeylElement, commutator, mul, total_degree, transpose
from .core import _bracket_sums, _factors, _integer_form, _nonzero, _over, _product
from .errors import (
    BoundError,
    InternalInconsistencyError,
    MalformedInputError,
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
    1.  Its floor is 0, so a grade whose one parameter gets a relation ends
    there, empty.  The descent runs on q itself, with the direction already
    found.
    """
    if not isinstance(grade, int):
        raise MalformedInputError(f"grade must be an integer, got {grade!r}")
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
    kernel = _ray_descent(_ad_rows(q, columns), columns, leading_weight(q), direction, 0)
    if not kernel:
        return CentralizerComponent(ComponentKind.EMPTY)
    form = GradedForm(grade, to_graded_form(_over(*kernel[0])).poly)
    if commutator(p, from_graded_form(form)):
        raise InternalInconsistencyError("claimed homogeneous generator does not commute")
    return CentralizerComponent(ComponentKind.LINE, form)


@dataclass(frozen=True)
class CentralizerBasis:
    """The centralizer of `element`, exactly, up to total degree `bound`.

    Basis vectors are indexed by their level l on the primitive ray:
    the leading term of by_level[l] is the monomial direction * l, monic.
    `levels` lists them ascending.  Everything else is derived from these
    two and `element`, and all but `sector` is cached: `direction` is the
    `primitive_direction` of the element, or in the y sector that of its
    transpose with i and j swapped, `sector` is "x" when direction (i, j)
    has i > j, `level_gcd` is the gcd of the nonzero levels, `period`
    the least nonzero normalized degree, and `picks` holds, per residue
    class of the normalized degree modulo the period, the basis element of
    least degree in that class (None when the class is not reached within
    the bound, which also sets `truncated`).

    `by_level` is stored read-only.  It is left out of the hash, since
    `element` and `bound` determine it, so the basis is hashable.
    """

    element: WeylElement
    bound: int
    levels: tuple[int, ...]
    by_level: Mapping[int, WeylElement] = field(hash=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "by_level", MappingProxyType(dict(self.by_level)))

    @cached_property
    def direction(self) -> Weight:
        if is_x_dominant(self.element):
            return primitive_direction(self.element)[0]
        (i, j), _ = primitive_direction(transpose(self.element))
        return (j, i)

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
    def _integer_forms(self) -> Mapping[int, Form]:
        # level -> the integer form of by_level[l], filled by `centralizer_basis`
        return MappingProxyType({l: _integer_form(e) for l, e in self.by_level.items()})

    @cached_property
    def _products(self) -> tuple[dict[int, tuple[int, int, Mapping[int, Fraction]]], dict[int, Form]]:
        # the lazy table of `decompose`, and the integer form of the last product of each class
        return {}, {}

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


def _lowest(acc: dict, den: int) -> tuple[dict, int]:
    """acc / den in lowest terms: over a positive denominator, with no zero entry."""
    g = gcd(den, *acc.values()) * (1 if den > 0 else -1)
    return {k: v // g for k, v in acc.items() if v}, den // g


def _combination(parts: list[tuple[int, Mapping[Monomial, int], int]]) -> Form:
    """(sums, s): the sum of c T / e over the parts (c, T, e) is sums / s, s the lcm of the e.

    Cancelled sums stay 0; no parts give ({}, 1).
    """
    s = lcm(*(e for _, _, e in parts))
    sums: dict[Monomial, int] = {}
    get = sums.get
    for c, t, e in parts:
        f = c * (s // e)
        for m, v in t.items():
            sums[m] = get(m, 0) + f * v
    return sums, s


def _newton_columns(p: WeylElement, bound: int) -> list[Monomial]:
    """The monomials of total degree <= bound inside (bound / deg p) N(p), in the order.

    For each X exponent a, an edge ((rho, sigma), h) keeps the b with
    deg (rho a + sigma b) <= bound h, an interval that one floor division
    bounds from above (sigma > 0) or below (sigma < 0), or keeps whole or
    empty (sigma = 0).
    """
    deg = total_degree(p)
    edges = newton_edges(p)
    monos = []
    for a in range(bound + 1):
        lo, hi = 0, bound - a
        for (rho, sigma), h in edges:
            rest, step = bound * h - deg * rho * a, deg * sigma
            if step > 0:
                hi = min(hi, rest // step)
            elif step < 0:
                lo = max(lo, -(-rest // step))  # the ceiling of rest / step
            elif rest < 0:
                hi = -1
        monos.extend((a, b) for b in range(lo, hi + 1))
    monos.sort(key=_order_key, reverse=True)
    return monos


def _ad_rows(p: WeylElement, columns: list[Monomial]) -> Iterator[tuple[dict[int, int], Monomial]]:
    """Sparse rows of Q -> [P, Q] on the given column monomials, scaled to integers.

    Yields (row, target) by target, highest in the order first; no row is
    empty.  The columns must come in descending order of their diagonal,
    as every solver lists them.  The rows are built one target diagonal g
    at a time, from the top, when the consumer asks for it: for each
    diagonal piece P_d of P, every column (a, b) on diagonal g - d adds
    [P_d, X^a] Y^b + X^a [P_d, Y^b], its only entries on g (module
    docstring).  Each bracket is formed on first use by the bracket rule
    of `core`, `_bracket_sums`, and kept for the rest of the stream, so a
    full stream forms every entry once, and a consumer that stops early
    forms nothing below the last diagonal it read.
    """
    pieces: dict[int, dict[Monomial, int]] = {}  # d -> the numerators of P_d
    for (i, j), v in _integer_form(p)[0].items():
        pieces.setdefault(i - j, {})[(i, j)] = v
    by_diagonal: dict[int, list[tuple[int, int, int]]] = {}  # a - b -> [(index, a, b)]
    for idx, (a, b) in enumerate(columns):
        if idx and a - b > columns[idx - 1][0] - columns[idx - 1][1]:
            raise InternalInconsistencyError("columns are not in descending order of their diagonal")
        by_diagonal.setdefault(a - b, []).append((idx, a, b))
    if not (pieces and by_diagonal):
        return
    # d -> a -> [P_d, X^a] and d -> b -> [P_d, Y^b], each as its nonzero terms (x, value), formed
    # only when a > 0 and P_d has a Y, or b > 0 and it has an X; by ascending d, columns come in by index
    shifts = [(d, t, {}, {}, any(j for _, j in t), any(i for i, _ in t)) for d, t in sorted(pieces.items())]
    for g in range(max(by_diagonal) + max(pieces), min(by_diagonal) + min(pieces) - 1, -1):
        rows: dict[int, dict[int, int]] = {}  # X exponent -> row
        for d, terms, with_x, with_y, has_y, has_x in shifts:
            for idx, a, b in by_diagonal.get(g - d, ()):
                xs = with_x.get(a)
                if xs is None:
                    brackets = _bracket_sums(terms, {(a, 0): 1}) if a and has_y else {}
                    xs = with_x[a] = [(x, v) for (x, _), v in brackets.items() if v]
                ys = with_y.get(b)
                if ys is None:
                    brackets = _bracket_sums(terms, {(0, b): 1}) if b and has_x else {}
                    ys = with_y[b] = [(x, v) for (x, _), v in brackets.items() if v]
                # [P_d, X^a] Y^b keeps the X exponent; X^a [P_d, Y^b] raises it by a
                for x, v in xs:
                    row = rows.get(x)
                    if row is None:
                        rows[x] = {idx: v}
                    else:
                        row[idx] = v
                for x, v in ys:
                    row = rows.get(x + a)
                    if row is None:
                        rows[x + a] = {idx: v}
                    else:
                        s = row.get(idx, 0) + v
                        if s:
                            row[idx] = s
                        else:
                            del row[idx]
        # the nonempty rows of diagonal g and their targets, by descending X exponent
        for x in sorted(rows, reverse=True):
            if rows[x]:
                yield rows[x], (x, x - g)


def _ad_matrix_rows(
    p: WeylElement, columns: list[Monomial]
) -> tuple[list[dict[int, int]], list[Monomial]]:
    """The rows of `_ad_rows` and their targets, as two lists."""
    merged = list(_ad_rows(p, columns))
    return [row for row, _ in merged], [target for _, target in merged]


def _ray_descent(
    rows: Iterable[tuple[dict[int, int], Monomial]],
    columns: list[Monomial],
    lead: Weight,
    direction: Weight,
    floor: int,
) -> list[Form] | int:
    """Kernel of the ad rows by forward substitution over the ray parameters.

    `rows` yields (row, target) as `_ad_rows` does.  Parameter l is the
    coefficient t_l at the ray point l * direction.  A constraint row is
    eliminated on arrival: with the relations found so far put in, it is
    solved for its smallest level p, and t_p is put at once into every
    earlier relation that holds it, so each relation is over levels
    without a relation.  Solved columns keep the form they were solved in
    and take the relations when a row combines them.  A row is combined in
    one pass over its entries, over a running denominator, the lcm of the
    denominators met so far: a column's denominator that does not divide
    it scales the sum up.  At the end every column takes the relations,
    and each free level's basis vector is read off as an integer form
    over the lcm of the denominators its columns carry.  A row that meets
    an unsolved column, or a column left unsolved, contradicts the
    structure in the module docstring and raises.

    `floor` is a lower bound on the dimension of the kernel.  The rows read
    so far cut out a space V that holds the kernel, of one dimension per
    level without a relation, so when those levels are down to `floor`, V
    is the kernel: the descent returns their number at once and reads no
    further row, and the caller, who holds `floor` independent kernel
    elements, takes their span.  That needs no check here.  A floor above
    the true dimension can stop the descent at a dimension the caller's
    elements cannot fill, and the caller raises.
    """
    i0, j0 = lead
    di, dj = direction
    index = {m: idx for idx, m in enumerate(columns)}
    # column index -> (integer vector over the levels, positive denominator)
    solved: dict[int, tuple[dict[int, int], int]] = {}
    free: dict[int, dict[Monomial, int]] = {}  # level -> numerators of its basis vector
    for idx, (a, b) in enumerate(columns):
        if a * dj == b * di:
            level = a // di
            free[level], solved[idx] = {}, ({level: 1}, 1)
    ray = set(solved)
    if len(free) <= floor:
        return len(free)
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
        return _lowest(out, den * s)

    for row, (x, y) in rows:
        col = index.get((x - i0 + 1, y - j0 + 1))
        if col in ray:
            col = None  # the top term of a ray column vanishes: a constraint row
        den, acc = 1, {}  # the lcm of the denominators so far, and the sum over it
        for c, v in row.items():
            if c == col:
                continue
            entry = solved.get(c)
            if entry is None:
                raise InternalInconsistencyError("descent row meets a column that is not solved yet")
            vec, d = entry
            if den % d:
                f = d // gcd(den, d)
                den *= f
                for l in acc:
                    acc[l] *= f
            scale = v * (den // d)
            for l, u in vec.items():
                acc[l] = acc.get(l, 0) + scale * u
        acc, den = reduced({l: u for l, u in acc.items() if u}, den)
        if col is not None:
            pivot = row.get(col)
            if not pivot:
                raise InternalInconsistencyError("descent pivot is missing from its row")
            solved[col] = _lowest(acc, -den * pivot)
        elif acc:
            p = min(acc)
            relations[p] = _lowest({l: -v for l, v in acc.items() if l != p}, acc[p])
            for l, (expr, d) in relations.items():
                if p in expr:
                    relations[l] = reduced(expr, d)
            if len(free) - len(relations) <= floor:
                return len(free) - len(relations)
    if len(solved) != len(columns):
        raise InternalInconsistencyError("descent left a column unsolved")
    final = [(columns[idx], *reduced(vec, den)) for idx, (vec, den) in solved.items()]
    dens: dict[int, set[int]] = {l: set() for l in free if l not in relations}
    for _, vec, den in final:
        for l in vec:
            dens[l].add(den)
    common = {l: lcm(*ds) for l, ds in dens.items()}
    for m, vec, den in final:
        for l, u in vec.items():
            free[l][m] = u * (common[l] // den)
    return [(free[l], common[l]) for l in sorted(common)]


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


def _packed(p: WeylElement, forms: list[Mapping[Monomial, int]]) -> tuple[WeylElement, int]:
    """(Z, B) with Z = sum_k 2^(k s) T_k: [p, Z] = 0 exactly when all [p, T_k] = 0.

    T_k are the numerators of the integer form of a vector S_k = T_k / e_k,
    so [p, T_k] = 0 exactly when [p, S_k] = 0.  By the monomial rule each
    term pair of d_P P and T_k adds to a coefficient of their bracket at
    most once: the product of its two coefficients times a difference of
    two lowering factors in [0, F].  So every coefficient is at most
    B = |d_P P|_1 max_k |T_k|_1 F in absolute value, where F is the
    largest entry of the rows _factors(maxY(P), maxX(T_k)) and
    _factors(maxY(T_k), maxX(P)) over all k.  The entries grow with both
    arguments, so the largest exponents give F, but a row's maximum is not
    always its last entry: _factors(3, 3) = (1, 9, 18, 6).  With
    2^(s-1) > B, each coefficient of [d_P P, Z] is sum_k 2^(k s) c_k with
    every |c_k| < 2^(s-1), and its lowest nonzero digit c_k leaves it
    nonzero modulo 2^((k+1) s).  So [p, Z] = [d_P P, Z] / d_P is 0 exactly
    when every digit is 0.
    """
    p_terms = _integer_form(p)[0]
    x_s, y_s = (max(m[n] for form in forms for m in form) for n in (0, 1))
    x_p, y_p = (max(m[n] for m in p_terms) for n in (0, 1))
    f = max(_factors(y_p, x_s) + _factors(y_s, x_p))
    bound = sum(map(abs, p_terms.values())) * max(sum(map(abs, form.values())) for form in forms) * f
    s = bound.bit_length() + 1
    return _over(*_combination([(1 << k * s, form, 1) for k, form in enumerate(forms)])), bound


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


def _transposed(form: Form) -> Form:
    return {(j, i): v for (i, j), v in form[0].items()}, form[1]


def _rebased(vectors: list[Form], direction: Weight) -> list[Form]:
    """Kernel vectors in reduced echelon form along the ray of `direction`.

    The leading term of a kernel vector is its highest nonzero ray point,
    and kernel vectors of distinct total degrees lead at distinct levels
    (module docstring).  The vectors given are such: the mirror side's
    vectors, monic at distinct levels of the mirror ray, or the powers of
    P.  So the reduction is triangular.  By ascending leading level, each
    vector V, minus c_l S_l for every reduced vector S_l below it, with c_l
    the coefficient of V at level l, and over its own leading coefficient,
    is monic on its own ray point and 0 on the other leading ones: each S_l
    is 1 at level l and 0 at the other leading levels, and nothing below V
    reaches a level above it.  The vectors come and go as integer forms,
    and only the numerators of those given are read.  Two vectors that
    lead at one level are not independent kernel vectors, and raise.
    """
    di, dj = direction
    forms = []  # (leading level, numerators, their ray coefficients by level)
    for form, _ in vectors:
        ray = {a // di: v for (a, b), v in form.items() if a * dj == b * di}
        if not ray:
            raise InternalInconsistencyError("a kernel vector has no term on the primitive ray")
        forms.append((max(ray), form, ray))
    forms.sort(key=lambda f: f[0])
    out: list[tuple[int, dict[Monomial, int], int]] = []  # (level, T, e): S = T / e
    for level, form, ray in forms:
        if out and out[-1][0] == level:
            raise InternalInconsistencyError("two vectors lead at one ray level: they are linearly dependent")
        acc, s = _combination([(1, form, 1), *((-ray[l], t, e) for l, t, e in out if l in ray)])
        out.append((level, *_lowest(acc, s * ray[level])))
    return [(t, e) for _, t, e in out]


def _reduced_kernel(q: WeylElement, columns: list[Monomial], direction: Weight, floor: int) -> list[Form] | int:
    """The kernel of [q, -] on the columns, reduced along q's ray `direction`.

    `floor` is passed to the descent, and a stopped descent's dimension is
    returned as it is.  On the mirror side the descent runs on transpose(q)
    over the transposed region, whose kernel has the same dimension, and
    its vectors, transposed back, are rebased onto q's ray.
    """
    mirror = _mirror_side(q, columns, direction)
    side = transpose(q) if mirror else q
    if mirror:
        columns = sorted(((b, a) for a, b in columns), key=_order_key, reverse=True)
    rows = _ad_rows(side, columns)
    kernel = _ray_descent(rows, columns, leading_weight(side), primitive_direction(side)[0], floor)
    if not mirror or isinstance(kernel, int):
        return kernel
    return _rebased([_transposed(form) for form in kernel], direction)


def _powers(q: WeylElement, n: int) -> list[Form]:
    """1, q, ..., q^n as integer forms, each the last times q by `core._product`."""
    terms, d = _integer_form(q)
    out: list[Form] = [({(0, 0): 1}, 1)]
    for _ in range(n):
        form, e = out[-1]
        out.append((_nonzero(_product(form, terms)), e * d))
    return out


def centralizer_basis(p: WeylElement, bound: int) -> CentralizerBasis:
    """All elements commuting with p of total degree at most `bound`.

    The solve runs on q = p, or on q = transpose(p) in the y sector.  The
    powers 1, q, ..., q^n with n = bound // deg q have the distinct total
    degrees m deg q, lie in the region and commute with q, so the kernel
    has dimension at least n + 1, the floor of the descent.  When the
    descent stops there, the rows it read cut out a space V that holds the
    kernel, and n + 1 <= dim ker <= dim V = n + 1, so V is the span of the
    powers, and the basis is their unique reduced echelon form (`_rebased`).
    A stop at another dimension, or powers that reduce to another number
    of vectors, raise.

    The certificate: a basis of at most n + 1 vectors must rebuild every
    power exactly (`expand_in_basis`, in integers).  Then the n + 1 powers
    lie in its span, of dimension at most n + 1, so the two spans are one
    and every vector is a polynomial in q; fewer vectors raise.  A basis of
    more vectors gets the packed check: one exact commutator of p with the
    packed vectors (`_packed`).  A correct descent that reads every row
    returns more than n + 1 vectors, so at most n + 1 come from one that
    lost a vector, and the powers catch it.  Every vector must also be
    monic with its own leading term on the ray, and the constants the
    vector at level 0.
    A basis certified by the powers gets a private mark, which gives
    `derivation_report` its closed form (a copy by the constructor has none).
    """
    if not isinstance(bound, int):
        raise MalformedInputError(f"bound must be an integer, got {bound!r}")
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
    floor = bound // total_degree(q) + 1
    kernel = _reduced_kernel(q, _newton_columns(q, bound), direction, floor)
    powers = _powers(q, floor - 1) if isinstance(kernel, int) or len(kernel) <= floor else None
    if isinstance(kernel, int):
        vectors = _rebased(powers, direction)
        if not kernel == len(vectors) == floor:
            raise InternalInconsistencyError(
                f"the descent stopped at dimension {kernel}, where the {floor} "
                f"powers of the element reduce to {len(vectors)} vectors"
            )
        kernel = vectors
    di, dj = direction
    forms: dict[int, Form] = {}
    for t, e in kernel:
        lead = max(t, key=_order_key)
        level = lead[0] // di
        if lead != (level * di, level * dj) or t[lead] != e or level in forms:
            raise InternalInconsistencyError(
                "kernel vector is not monic with its own leading term on the primitive ray"
            )
        forms[level] = (t, e)
    if not x_sector:
        forms = {l: _transposed(form) for l, form in forms.items()}
        powers = powers and [_transposed(form) for form in powers]
    basis = CentralizerBasis(
        element=p,
        bound=bound,
        levels=tuple(sorted(forms)),
        by_level={l: _over(*form) for l, form in forms.items()},
    )
    if basis.by_level.get(0) != ONE:
        raise InternalInconsistencyError("the constants are missing from the kernel")
    basis.__dict__["_integer_forms"] = MappingProxyType(forms)  # the cached property, from the solve
    if powers is None:
        if commutator(p, _packed(p, [t for t, _ in forms.values()])[0]):
            raise InternalInconsistencyError("kernel vector does not commute exactly")
    elif any(_expansion(basis, *form) is None for form in powers):
        raise InternalInconsistencyError("a power of p is missing from its centralizer")
    else:
        basis.__dict__["_by_powers"] = True  # the mark `derivation_report` reads
    return basis


def expand_in_basis(basis: CentralizerBasis, q: WeylElement) -> dict[int, Fraction] | None:
    """Coordinates of q in the basis, or None when q is outside the span."""
    return _expansion(basis, *_integer_form(q))


def _expansion(basis: CentralizerBasis, terms: Mapping[Monomial, int], den: int) -> dict[int, Fraction] | None:
    """`expand_in_basis` of the element terms / den, in integers.

    The basis is leading-reduced, so the coordinate at level l is the
    coefficient n_l / den at its ray point.  With S_l = T_l / e_l and E the
    lcm of the e_l, the element is in the span exactly when
    sum_l n_l (E / e_l) T_l is E times `terms`, term for term.
    """
    coords = {}
    for l in basis.levels:
        n = terms.get(basis.ray_point(l))
        if n:
            coords[l] = n
    sums, e = _combination([(n, *basis._integer_forms[l]) for l, n in coords.items()])
    if sum(1 for v in sums.values() if v) != len(terms):
        return None
    if any(n * e != sums.get(m, 0) for m, n in terms.items()):
        return None
    return {l: Fraction(n, den) for l, n in coords.items()}


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

    S_0 is picks[0], or 1 on a basis of the constants, which has no picks,
    S_r is picks[r] and 1 for r = 0, and the list holds T_0 .. T_{period-1}.
    Each level l of the basis is that of one product P_l = S_0^m S_r, r its
    degree modulo the period.  A lazy table of the basis, empty in a copy by
    the constructor, holds level -> (r, m, coordinates of P_l), filled upward
    only to q's leading level.  P_l is the basis vector B_l at 0 and at the
    picks, else S_0 times the last product of its class by `core._product`,
    expanded exactly (`_expansion`) and checked: 1 at l and no coordinate above.

    Exactness: q = sum_l c_l B_l exactly (`expand_in_basis`), and each
    P_l = sum_k M_kl B_k exactly, with M_ll = 1 and M_kl = 0 for k > l.  M is
    unitriangular, so back substitution from the top gives the unique t with
    q = sum_l t_l P_l, in rationals; T_r collects t_l Z^m over the class r.
    """
    coords = expand_in_basis(basis, q)
    if coords is None:
        raise MembershipError("element is not in the computed centralizer span")
    if basis.picks and any(s is None for s in basis.picks):
        raise BoundError("basis is truncated: some residue classes have no pick")
    table, last = basis._products
    period, top = basis.period, max(coords, default=0)
    for l in basis.levels[len(table) :]:
        if l > top:
            break
        deg = basis.ray_degrees[l]
        r = deg % period
        m = (deg - (basis.ray_degrees[basis.pick_levels[r]] if r else 0)) // period
        if m < 0:
            raise InternalInconsistencyError("pick degree exceeds the degree of its residue class member")
        if l == 0 or l in basis.pick_levels:
            last[r], column = basis._integer_forms[l], {l: 1}
        else:
            (s, d), (t, e) = basis._integer_forms[basis.pick_levels[0]], last[r]
            last[r] = t, e = _nonzero(_product(s, t)), d * e
            column = _expansion(basis, t, e)
            if column is None or column.get(l) != 1 or max(column) != l:
                raise InternalInconsistencyError(f"the product at level {l} is not monic in the computed span")
        table[l] = (r, m, column)
    parts: list[dict[int, Fraction]] = [{} for _ in range(period)]
    for l in reversed(table):
        c = coords.get(l)
        if c:
            r, m, column = table[l]
            parts[r][m] = c
            for k, v in column.items():
                coords[k] = coords.get(k, 0) - c * v
    return [XYPolynomial([acc.get(m, 0) for m in range(max(acc, default=-1) + 1)]) for acc in parts]


def recompose(parts: list[XYPolynomial], basis: CentralizerBasis) -> WeylElement:
    """Inverse of decompose: T_0(S_0) + sum of T_r(S_0) * S_r, one part per residue class."""
    if len(parts) != basis.period:
        raise MalformedInputError(f"recompose takes {basis.period} parts, one per residue class, got {len(parts)}")
    s0 = basis.picks[0] if basis.picks else ONE
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
