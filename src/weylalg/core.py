"""Exact normal-form arithmetic in the first Weyl algebra over the rationals.

The algebra is generated by X and Y subject to the exchange relation
Y*X = X*Y + 1.  Every element has a unique normal form

    sum of a_ij * X^i * Y^j        (all X factors to the left of all Y),

stored sparsely as a map {(i, j): a_ij} with nonzero Fraction coefficients.
Products of normal words are normal-ordered with

    X^k Y^j * X^l Y^m = sum_i  i! * C(j,i) * C(l,i) * X^{k+l-i} Y^{j+m-i},

where i runs from 0 to min(j, l): choosing i of the j middle Y factors and
i of the l middle X factors, there are i! ways to pair them off, and each
pairing lowers both exponents by one.  `_factors(j, l)` caches the row of
these lowering factors.

`mul` and `commutator` run on integers.  Each operand is scaled once to
its integer form, the package's one `Form` (T, d): the numerators T by
monomial over d, the lcm of its denominators (`_integer_form`; `_over` is
its inverse).  The kernels take numerator maps, the products are summed as
plain ints per monomial, and each output coefficient is divided by the
product of the two denominators once, at the end.  In the
commutator, the monomial rule for a*b and for b*a lands on the same
monomial for the same i, and the i = 0 terms are both the bare product of
the coefficients, so

    [X^k Y^j, X^l Y^m] = sum_{i >= 1} (f(j,l,i) - f(m,k,i)) * X^{k+l-i} Y^{j+m-i}

with f the lowering factor; the i = 0 terms, which cancel, are never formed.
That loop, `_bracket_sums`, is the one bracket rule of the package: the
centralizer's matrix assembly runs it on the diagonal pieces of P against
X^a and Y^b.  Every term pair there is one-sided: with m = 0 or k = 0,
f(m,k,i) is 0 for i >= 1 (its row is (1,)), and with l = 0 or j = 0 so is
f(j,l,i).  Such a pair loops over the other row alone, whose entries are
positive, and skips the padded difference a dense pair forms for every i.

The second kernel, `_sampled_sums`, works through the action on Q[x] (X is
multiplication by x, Y is d/dx).  There

    X^i Y^j x^n = n (n-1) ... (n-j+1) x^(n+i-j),

so the grade-g part of a (its terms with i - j = g) sends x^n to
w_g(n) x^(n+g), where w_g(n) = sum_j a_(j+g, j) n (n-1) ... (n-j+1) is a
polynomial in n with Delta^j w_g(0) = j! a_(j+g, j).  Products compose:

    (ab)_g(n) = sum_h a_(g-h)(n + h) b_h(n),

and b_h(n) = 0 for n < -h.  w_g of the result has degree at most
max(deg a_k + deg b_h) over k + h = g, so that many samples plus one fix
it.  The tables of a_k and b_h are summed up from their forward differences
(Newton's forward formula: additions only), the samples are multiplied and
summed per grade (for the commutator, ab - ba in one pass), and the result
is read back once: the coefficient of X^(j+g) Y^j is Delta^j w_g(0) / j!.
That division is exact, so a remainder, or a nonzero value for j + g < 0,
raises InternalInconsistencyError.  The integers and the denominators are
those of the normal-ordering kernels.  On dense operands of degree D this
costs O(D^3) against O(D^5) for the monomial rule.

`mul` and `commutator` choose a kernel per call; `_product` makes the
choice of `mul` for operands already in integer form, and the centralizer
forms the powers of P with it, with no Fraction in between.  With na, nb
the term counts, fewer than 1000 term pairs go straight to the monomial
rule, so small operands pay O(1) for the choice.  Otherwise the monomial
rule is estimated at na nb (1 + L), with L the smaller of the mean Y
exponent of the left factor and the mean X exponent of the right one (for
the commutator the larger of the two orders), and sampling at
(1 or 2) |grades a| |grades b| (M + 1) + G (M + 1)^2 / 2, with M the sum
of the largest Y exponents and G the number of grades of the result.
Sampling runs when its estimate is below 2.0 times the other.  The ratio
was calibrated on 61 operand pairs of 1000 term pairs or more: every such
call in one round of the benchmark's three workloads, dense powers of
linear and quadratic elements, and random sparse elements with up to 150
terms.  Below an estimate ratio of 1.5, sampling was faster on all 11
pairs, by 1.1 to 14 times; between 1.5 and 4 it was faster on 18 of 25,
by at most 2.2 times, and up to 1.4 times slower on the rest; above 4 it
was slower on 20 of 25.  At 2.0 the centralizer's packed re-verification,
one call of L against its packed basis at bounds 36 to 60, stays on the
monomial rule; a basis at the floor of the powers of P, such as that of
X + (Y + X^2)^3, makes no such call.  Process times (CPython 3.11, one
core of a shared virtual machine):

    operands (terms)                              monomial, s    sampled, s
    [Q, P] of the degree-54 gen-pair (67 x 679)   0.14-0.21      0.020-0.029
    (X+Y+1)^14 (X-2Y+3)^14 (120 x 120)            0.026-0.041    0.008-0.011
    [(X+Y+1)^20, (X-2Y+3)^20] (231 x 231)         0.23-0.31      0.018-0.034
    [L, packed basis] at bound 36 (8 x 359)       0.0091-0.0095  0.0092

The monomial rule stays: it is also the bracket rule of the centralizer's
matrix assembly, it is cheaper on small and lopsided operands, and the
tests compare the two kernels with each other and with the independent
action of `oracle.py`.

`power` squares repeatedly over the dispatching `mul`.

`transpose` swaps the two exponents of every term.  It is the
anti-automorphism that exchanges X and Y, and the rest of the package uses
it to reduce every statement about Y-heavy elements to the X-heavy case.

Elements are immutable and hashable, so values can be shared freely.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial, lcm
from operator import add as add_int, mul as mul_int, sub as sub_int
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import InternalInconsistencyError, MalformedInputError, UndefinedOnZeroError

Monomial = tuple[int, int]
Coefficient = Fraction | int
Form = tuple[dict[Monomial, int], int]  # (T, d): sum of T[(i, j)] / d X^i Y^j, d > 0

_ZERO = Fraction(0)

# Dispatch constants of `mul` and `commutator`, calibrated in the module docstring.
_DIRECT_PAIRS = 1000
_SAMPLED_RATIO = 2.0


@cache
def _factors(j: int, l: int) -> tuple[int, ...]:
    # entry i: the number of ways i of j Y's absorb i of l X's
    return tuple(factorial(i) * comb(j, i) * comb(l, i) for i in range(min(j, l) + 1))


class WeylElement:
    """An element of the algebra in canonical normal form."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Iterable[tuple[int, int, Coefficient]] = ()):
        acc: dict[Monomial, Fraction] = {}
        for i, j, c in terms:
            if i < 0 or j < 0:
                raise MalformedInputError(f"negative exponent in term X^{i}*Y^{j}")
            c = Fraction(c)
            if not c:
                continue
            key = (i, j)
            s = acc.get(key, _ZERO) + c
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
        self._terms = acc
        self._hash: int | None = None

    @classmethod
    def _raw(cls, terms: dict[Monomial, Fraction]) -> "WeylElement":
        # trusted constructor: terms must already be canonical
        out = cls.__new__(cls)
        out._terms = terms
        out._hash = None
        return out

    @property
    def terms(self) -> Mapping[Monomial, Fraction]:
        """Read-only view of the term map."""
        return MappingProxyType(self._terms)

    def coefficient(self, i: int, j: int) -> Fraction:
        return self._terms.get((i, j), _ZERO)

    def support(self) -> frozenset[Monomial]:
        return frozenset(self._terms)

    def is_scalar(self) -> bool:
        """True for 0 and for nonzero multiples of 1."""
        return not self._terms or set(self._terms) == {(0, 0)}

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, WeylElement):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == ({} if not other else {(0, 0): Fraction(other)})
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            # a scalar equals its number, so it hashes like it
            t = self._terms
            self._hash = hash(t.get((0, 0), 0)) if self.is_scalar() else hash(frozenset(t.items()))
        return self._hash

    def __add__(self, other: "WeylElement | Coefficient") -> "WeylElement":
        if isinstance(other, (int, Fraction)):
            other = WeylElement([(0, 0, other)])
        if not isinstance(other, WeylElement):
            return NotImplemented
        return add(self, other)

    def __radd__(self, other: Coefficient) -> "WeylElement":
        return self.__add__(other)

    def __neg__(self) -> "WeylElement":
        return WeylElement._raw({k: -v for k, v in self._terms.items()})

    def __sub__(self, other: "WeylElement | Coefficient") -> "WeylElement":
        if isinstance(other, (int, Fraction)):
            other = WeylElement([(0, 0, other)])
        if not isinstance(other, WeylElement):
            return NotImplemented
        return add(self, -other)

    def __rsub__(self, other: Coefficient) -> "WeylElement":
        return (-self).__add__(other)

    def __mul__(self, other: "WeylElement | Coefficient") -> "WeylElement":
        if isinstance(other, WeylElement):
            return mul(self, other)
        if isinstance(other, (int, Fraction)):
            return scalar_mul(other, self)
        return NotImplemented

    def __rmul__(self, other: Coefficient) -> "WeylElement":
        if isinstance(other, (int, Fraction)):
            return scalar_mul(other, self)
        return NotImplemented

    def __pow__(self, n: int) -> "WeylElement":
        return power(self, n)

    def __repr__(self) -> str:
        if not self._terms:
            return "WeylElement(0)"
        order = sorted(self._terms, key=lambda m: (-(m[0] + m[1]), -m[0]))
        inner = ", ".join(f"({i},{j}): {self._terms[(i, j)]}" for i, j in order)
        return "WeylElement{" + inner + "}"


def from_terms(terms: Iterable[tuple[int, int, Coefficient]]) -> WeylElement:
    """Canonical element from (x exponent, y exponent, coefficient) triples.

    Duplicate monomials are combined; zero coefficients are dropped.
    """
    return WeylElement(terms)


def add(a: WeylElement, b: WeylElement) -> WeylElement:
    out = dict(a._terms)
    for key, v in b._terms.items():
        s = out.get(key, _ZERO) + v
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return WeylElement._raw(out)


def scalar_mul(c: Coefficient, a: WeylElement) -> WeylElement:
    c = Fraction(c)
    if not c:
        return ZERO
    return WeylElement._raw({k: c * v for k, v in a._terms.items()})


def _integer_form(a: WeylElement) -> Form:
    """(T, d) with d the lcm of the denominators and a = sum T[(i, j)] / d X^i Y^j, in a fresh dict."""
    d = lcm(*(c.denominator for c in a._terms.values()))
    return {m: c.numerator * (d // c.denominator) for m, c in a._terms.items()}, d


def _over(sums: dict[Monomial, int], den: int) -> WeylElement:
    # integer sums over a common denominator, back to canonical Fractions
    return WeylElement._raw({key: Fraction(v, den) for key, v in sums.items() if v})


def _product_sums(ta: Mapping[Monomial, int], tb: Mapping[Monomial, int]) -> dict[Monomial, int]:
    """a*b over integer numerators, by the monomial rule; cancelled sums stay 0."""
    sums: dict[Monomial, int] = {}
    get, items_b = sums.get, tb.items()
    for (k, j), ca in ta.items():
        for (l, m), cb in items_b:
            c = ca * cb
            x, y = k + l, j + m
            for i, f in enumerate(_factors(j, l)):
                key = (x - i, y - i)
                sums[key] = get(key, 0) + c * f
    return sums


def _bracket_sums(ta: Mapping[Monomial, int], tb: Mapping[Monomial, int]) -> dict[Monomial, int]:
    """[a, b] over integer numerators, by the lowering terms i >= 1; cancelled sums stay 0."""
    sums: dict[Monomial, int] = {}
    get, items_b = sums.get, tb.items()
    for (k, j), ca in ta.items():
        for (l, m), cb in items_b:
            ab, ba = _factors(j, l), _factors(m, k)
            nab, nba = len(ab), len(ba)
            if nab == nba == 1:
                continue  # the two monomials commute
            c = ca * cb
            x, y = k + l, j + m
            if nab == 1 or nba == 1:
                # one row is (1,): only the other lowers, by positive factors
                c, f = (c, ab) if nba == 1 else (-c, ba)
                for i in range(1, len(f)):
                    key = (x - i, y - i)
                    sums[key] = get(key, 0) + c * f[i]
                continue
            for i in range(1, max(nab, nba)):
                w = (ab[i] if i < nab else 0) - (ba[i] if i < nba else 0)
                if w:
                    key = (x - i, y - i)
                    sums[key] = get(key, 0) + c * w
    return sums


def _differences(terms: Mapping[Monomial, int]) -> dict[int, list[int]]:
    """{g: [Delta^0 w_g(0), ..., Delta^J w_g(0)]} for integer numerators.

    X^(j+g) Y^j sends x^n to n (n-1) ... (n-j+1) x^(n+g), whose j-th
    forward difference at n = 0 is j! and whose others there are 0.
    """
    diffs: dict[int, dict[int, int]] = {}
    for (i, j), c in terms.items():
        diffs.setdefault(i - j, {})[j] = c * factorial(j)
    return {g: [row.get(j, 0) for j in range(max(row) + 1)] for g, row in diffs.items()}


def _values(d: list[int], width: int) -> list[int]:
    # Newton's forward formula, summed up with additions only: w(0), ..., w(width - 1)
    values = []
    for _ in range(width):
        values.append(d[0])
        d = [*map(add_int, d, d[1:]), d[-1]]
    return values


def _read_back(samples: dict[int, list[int]]) -> dict[Monomial, int]:
    """{(j + g, j): Delta^j w_g(0) / j!} from the samples w_g(0), w_g(1), ... of each g.

    The division must be exact and nothing may land on a negative exponent;
    anything else means the samples are wrong.
    """
    sums: dict[Monomial, int] = {}
    for g, values in samples.items():
        fact = 1
        for j in range(len(values)):
            if j:
                fact *= j
                values = [*map(sub_int, values[1:], values[:-1])]
            q, r = divmod(values[0], fact)
            if r or (q and j + g < 0):
                raise InternalInconsistencyError(
                    f"sampled product: Delta^{j} w_{g}(0) is not {j}! times a coefficient"
                )
            if q:
                sums[(j + g, j)] = q
    return sums


def _sampled_sums(ta: Mapping[Monomial, int], tb: Mapping[Monomial, int], bracket: bool) -> dict[Monomial, int]:
    """a*b, or [a, b] when `bracket`, over integer numerators, through the action on x^0, x^1, ..."""
    if not (ta and tb):
        return {}
    fa, fb = _differences(ta), _differences(tb)
    # the result's w_g has degree below size[g], the most deg a_k + deg b_h + 1 over k + h = g
    size: dict[int, int] = {}
    for k, dk in fa.items():
        for h, dh in fb.items():
            size[k + h] = max(size.get(k + h, 0), len(dk) + len(dh) - 1)
    va = {k: _values(d, max(size[k + h] + max(h, 0) for h in fb)) for k, d in fa.items()}
    vb = {h: _values(d, max(size[k + h] + max(k, 0) for k in fa)) for h, d in fb.items()}
    samples = {g: [0] * m for g, m in size.items()}

    def compose(left, right, op):
        # (left right)_g(n) = sum_h left_(g-h)(n + h) right_h(n); 0 for n < -h or n < -g
        for h, rv in right.items():
            for k, lv in left.items():
                s = samples[k + h]
                m, n0 = len(s), max(0, -h, -k - h)
                s[n0:] = map(op, s[n0:], map(mul_int, lv[n0 + h : m + h], rv[n0:m]))

    compose(va, vb, add_int)
    if bracket:
        compose(vb, va, sub_int)
    return _read_back(samples)


def _sampled_pays(ta: Mapping[Monomial, int], tb: Mapping[Monomial, int], bracket: bool) -> bool:
    """True when the cost estimate favours sampling over the monomial rule, on integer numerators."""
    na, nb = len(ta), len(tb)
    if na * nb < _DIRECT_PAIRS:
        return False
    xa = sum(i for i, _ in ta) / na
    ya = sum(j for _, j in ta) / na
    xb = sum(i for i, _ in tb) / nb
    yb = sum(j for _, j in tb) / nb
    lowering = max(min(ya, xb), min(yb, xa)) if bracket else min(ya, xb)
    grades_a = {i - j for i, j in ta}
    grades_b = {i - j for i, j in tb}
    grades = max(grades_a) + max(grades_b) - min(grades_a) - min(grades_b) + 1
    top = max(j for _, j in ta) + max(j for _, j in tb) + 1
    sampled = (1 + bracket) * len(grades_a) * len(grades_b) * top + grades * top * top / 2
    return sampled < _SAMPLED_RATIO * na * nb * (1 + lowering)


def _product(ta: Mapping[Monomial, int], tb: Mapping[Monomial, int]) -> dict[Monomial, int]:
    """The integer sums of a*b over integer numerators, by the kernel `mul` chooses."""
    return _sampled_sums(ta, tb, False) if _sampled_pays(ta, tb, False) else _product_sums(ta, tb)


def mul(a: WeylElement, b: WeylElement) -> WeylElement:
    """Normal-ordered product, by the monomial rule or by sampling: the cheaper estimate."""
    ta, da = _integer_form(a)
    tb, db = _integer_form(b)
    return _over(_product(ta, tb), da * db)


def commutator(a: WeylElement, b: WeylElement) -> WeylElement:
    """[a, b] = a*b - b*a, by the lowering terms i >= 1 or by sampling: the cheaper estimate."""
    ta, da = _integer_form(a)
    tb, db = _integer_form(b)
    sums = _sampled_sums(ta, tb, True) if _sampled_pays(ta, tb, True) else _bracket_sums(ta, tb)
    return _over(sums, da * db)


def transpose(a: WeylElement) -> WeylElement:
    """The anti-automorphism X^i Y^j -> X^j Y^i, which swaps X and Y.

    It reverses products, transpose(a*b) = transpose(b)*transpose(a), and
    maps Y*X - X*Y to itself, so it respects the defining relation.
    """
    return WeylElement._raw({(j, i): c for (i, j), c in a._terms.items()})


def power(a: WeylElement, n: int) -> WeylElement:
    if not isinstance(n, int) or n < 0:
        raise MalformedInputError(f"exponent must be a nonnegative integer, got {n!r}")
    out = ONE
    while n:
        if n & 1:
            out = mul(out, a)
        n >>= 1
        if n:
            a = mul(a, a)
    return out


def total_degree(a: WeylElement) -> int:
    """Largest i + j over the support."""
    if not a._terms:
        raise UndefinedOnZeroError("total degree is undefined on the zero element")
    return max(i + j for i, j in a._terms)


ZERO = WeylElement()
ONE = WeylElement([(0, 0, 1)])
X = WeylElement([(1, 0, 1)])
Y = WeylElement([(0, 1, 1)])
