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
integer numerators over the lcm of its denominators, the products are
summed as plain ints per monomial, and each output coefficient is divided
by the product of the two denominators once, at the end.  In the
commutator, the monomial rule for a*b and for b*a lands on the same
monomial for the same i, and the i = 0 terms are both the bare product of
the coefficients, so

    [X^k Y^j, X^l Y^m] = sum_{i >= 1} (f(j,l,i) - f(m,k,i)) * X^{k+l-i} Y^{j+m-i}

with f the lowering factor; the i = 0 terms, which cancel, are never formed.

`transpose` swaps the two exponents of every term.  It is the
anti-automorphism that exchanges X and Y, and the rest of the package uses
it to reduce every statement about Y-heavy elements to the X-heavy case.

Elements are immutable and hashable, so values can be shared freely.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial, lcm
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import MalformedInputError, UndefinedOnZeroError

Monomial = tuple[int, int]
Coefficient = Fraction | int

_ZERO = Fraction(0)


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

    def is_zero(self) -> bool:
        return not self._terms

    def is_scalar(self) -> bool:
        """True for 0 and for nonzero multiples of 1."""
        return not self._terms or set(self._terms) == {(0, 0)}

    def constant_term(self) -> Fraction:
        return self._terms.get((0, 0), _ZERO)

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
            self._hash = hash(frozenset(self._terms.items()))
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


def _integer_terms(a: WeylElement) -> tuple[int, list[tuple[int, int, int]]]:
    """(d, [(i, j, n)]) with d the lcm of the denominators and a = sum n/d X^i Y^j."""
    d = lcm(*(c.denominator for c in a._terms.values()))
    return d, [(i, j, c.numerator * (d // c.denominator)) for (i, j), c in a._terms.items()]


def _over(sums: dict[Monomial, int], den: int) -> WeylElement:
    # integer sums over a common denominator, back to canonical Fractions
    return WeylElement._raw({key: Fraction(v, den) for key, v in sums.items() if v})


def mul(a: WeylElement, b: WeylElement) -> WeylElement:
    """Normal-ordered product, extended bilinearly from the monomial rule."""
    da, ta = _integer_terms(a)
    db, tb = _integer_terms(b)
    sums: dict[Monomial, int] = {}
    get = sums.get
    for k, j, ca in ta:
        for l, m, cb in tb:
            c = ca * cb
            x, y = k + l, j + m
            for i, f in enumerate(_factors(j, l)):
                key = (x - i, y - i)
                sums[key] = get(key, 0) + c * f
    return _over(sums, da * db)


def commutator(a: WeylElement, b: WeylElement) -> WeylElement:
    """[a, b] = a*b - b*a, summed over the lowering terms i >= 1 only."""
    da, ta = _integer_terms(a)
    db, tb = _integer_terms(b)
    sums: dict[Monomial, int] = {}
    get = sums.get
    for k, j, ca in ta:
        for l, m, cb in tb:
            ab, ba = _factors(j, l), _factors(m, k)
            nab, nba = len(ab), len(ba)
            if nab == nba == 1:
                continue  # the two monomials commute
            c = ca * cb
            x, y = k + l, j + m
            for i in range(1, max(nab, nba)):
                w = (ab[i] if i < nab else 0) - (ba[i] if i < nba else 0)
                if w:
                    key = (x - i, y - i)
                    sums[key] = get(key, 0) + c * w
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
    for _ in range(n):
        out = mul(out, a)
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
