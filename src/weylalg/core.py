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

and b_h(n) = 0 for 0 <= n < -h.  w_g of the result has degree below
size[g], the most deg a_k + deg b_h + 1 over k + h = g, so the samples
n < N = max size[g] fix it.  One integer per sample carries every grade:
with t the gcd of the grade differences of both operands (Q of the
degree-81 gen-pair has t = 4), k0 and h0 their lowest grades, s-bit digits,

    A(m) = sum_k a_k(m) 2^(s (k-k0)/t),   S(n) = sum_h b_h(n) A(n+h) 2^(s (h-h0)/t),

digit p of S(n) is (ab)_g(n) at g = k0 + h0 + t p; the commutator
subtracts a_k(n) B(n + k) 2^(s (k - k0) / t) in the same pass.  A and B
come from their packed forward differences by Newton's forward formula,
the scalars b_h(n) and a_k(n) are digits of B(n) and A(n), and digit p of
Delta^j S(0) is j! times the coefficient of X^(j+g) Y^j; a remainder, or
a nonzero digit at j + g < 0 or j >= size[g], raises
InternalInconsistencyError.  Each product is a scalar times one packed
row, linear in the row, unlike the Kronecker products of two packed
polynomials in ROADMAP's *Not pursued*.  Digits are balanced, in
[-2^(s-1), 2^(s-1)), hence unique, and adding 2^(s-1) to each makes them
the bytes of a nonnegative integer (`_unpack`).  The width: by Newton's
formula w(m) = sum_i C(m, i) Delta^i w(0), |a_k(m)| <= M_a = max_k sum_i
C(W_a - 1, i) |Delta^i a_k(0)| for m < W_a, the number of values A(m)
read; likewise M_b.  A digit of S(n) sums at most (1 + bracket)
min(G_a, G_b) products a_k b_h, G the numbers of grades, and one of
Delta^j S(0) = sum_i (-1)^(j-i) C(j, i) S(i) is at most 2^j times the
largest, j < N.  So 2^(s-1) > 2^(N-1) (1 + bracket) min(G_a, G_b) M_a M_b
(> M_a, M_b) recovers every digit read.  Each digit is as wide as the
widest: dense products above degree about 28 lose to one value list per
grade (squaring (X+Y+1)^50 takes about twice as long); the benchmark forms
none.  Dense operands of degree D cost O(D^2) products of a scalar and a
row of O(D) digits, against O(D^5) for the monomial rule.

`mul` and `commutator` choose a kernel per call; `_product` makes the
choice of `mul` for operands already in integer form.  `power`,
`graded.evaluate_at_element`, the powers of P and the products of
`decompose` chain it with one division at the end (`_nonzero` drops the
cancelled sums between steps, so each step sees the support, and the
kernel, that `mul` would).  With na, nb
the term counts, fewer than 1000 term pairs go straight to the monomial
rule, so small operands pay O(1) for the choice.  Otherwise the monomial
rule is estimated at na nb (1 + L), with L the smaller of the mean Y
exponent of the left factor and the mean X exponent of the right one (for
the commutator the larger of the two orders), and sampling at
(1 or 2) |grades a| |grades b| (M + 1) + G (M + 1)^2 / 2, with M the sum
of the largest Y exponents and G the number of grades of the result.
Sampling runs when its estimate is below 2.0 times the other.  That is
the cost of one value list per grade, calibrated on 61 operand pairs; it
stays, so every call keeps its kernel (ROADMAP item 6 recalibrates it).
Process times, five runs each (CPython 3.11, one core of a shared VM);
sampled, the 1034-bit coefficients of L's packed basis need 1144-bit digits:

    operands (terms)                              monomial, s    sampled, s
    [Q, P] of the degree-54 gen-pair (67 x 679)   0.087-0.095    0.0093-0.0098
    (X+Y+1)^14 (X-2Y+3)^14 (120 x 120)            0.017-0.019    0.0022-0.0024
    [(X+Y+1)^20, (X-2Y+3)^20] (231 x 231)         0.13-0.15      0.011
    [L, packed basis] at bound 36 (8 x 359)       0.0034-0.0036  0.021-0.022

The monomial rule stays: it is also the bracket rule of the centralizer's
matrix assembly, it is cheaper on small and lopsided operands, and the
tests compare the two kernels with each other and with the independent
action of `oracle.py`.

`transpose` swaps the two exponents of every term.  It is the
anti-automorphism that exchanges X and Y, and the rest of the package uses
it to reduce every statement about Y-heavy elements to the X-heavy case.

Elements are immutable and hashable, so values can be shared freely.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import repeat
from math import comb, factorial, gcd, lcm
from operator import add as add_int, lshift, mul as mul_int, sub as sub_int
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


def _unpack(value: int, width: int, count: int) -> list[int]:
    """The `count` balanced digits of `value` in base 2^width, lowest first; they must express it."""
    size, half = width // 8, 1 << width - 1
    value += int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")  # half in every digit
    if value < 0 or value >> width * count:
        raise InternalInconsistencyError("sampled product: a digit is out of its range")
    raw = value.to_bytes(size * count, "little")
    return [int.from_bytes(raw[p : p + size], "little") - half for p in range(0, size * count, size)]


def _read_back(samples: list[int], step: int, width: int, size: dict[int, int]) -> dict[Monomial, int]:
    """{(j + g, j): Delta^j w_g(0) / j!} from digit p of Delta^j S(0), g = min(size) + step p, checked."""
    low, top = min(size), [-1] * len(samples)  # j -> the last digit with size[g] > j
    for g in sorted(size):
        top[: size[g]] = [(g - low) // step] * size[g]
    sums: dict[Monomial, int] = {}
    fact = 1
    for j in range(len(samples)):
        if j:
            fact *= j
            samples = [*map(sub_int, samples[1:], samples[:-1])]
        first = max(0, -((j + low) // step))  # the first digit with g >= -j
        if samples[0] & (1 << width * first) - 1:
            raise InternalInconsistencyError(f"sampled product: Delta^{j} lands on a negative exponent")
        # the digits from the first to the last that may be nonzero; _unpack checks that none is above
        digits = _unpack(samples[0] >> width * first, width, max(top[j] + 1 - first, 0))
        for p, digit in enumerate(digits, first):
            if digit:
                g = low + step * p
                q, r = divmod(digit, fact)
                if r or j >= size.get(g, 0):
                    raise InternalInconsistencyError(
                        f"sampled product: Delta^{j} w_{g}(0) is not {j}! times a coefficient"
                    )
                sums[(j + g, j)] = q
    return sums


def _sampled_sums(ta: Mapping[Monomial, int], tb: Mapping[Monomial, int], bracket: bool) -> dict[Monomial, int]:
    """a*b, or [a, b] when `bracket`, over integer numerators, from packed samples of the action on x^n."""
    if not (ta and tb):
        return {}
    fa, fb = _differences(ta), _differences(tb)
    size: dict[int, int] = {}
    for k, dk in fa.items():
        for h, dh in fb.items():
            size[k + h] = max(size.get(k + h, 0), len(dk) + len(dh) - 1)
    n = max(size.values())
    step = gcd(*(k - min(fa) for k in fa), *(h - min(fb) for h in fb)) or 1

    def most(diffs, count):  # M_a or M_b of the module docstring; no row is longer than count
        row = [comb(count - 1, i) for i in range(count)]
        return max(sum(map(mul_int, map(abs, d), row)) for d in diffs.values())

    wa, wb = n + max(max(fb), 0), n + max(max(fa), 0) if bracket else n
    bound = (1 + bracket) * min(len(fa), len(fb)) * most(fa, wa) * most(fb, wb) << n - 1
    width = (bound.bit_length() + 8) // 8 * 8  # 2^(width - 1) > bound, in whole bytes
    samples = [0] * n

    def packed(diffs, count):  # A(0), ..., A(count - 1) by Newton's forward formula, additions only
        low, d = min(diffs), [0] * max(map(len, diffs.values()))
        for k, row in diffs.items():
            for j, c in enumerate(row):
                d[j] += c << width * ((k - low) // step)
        for _ in range(count):
            yield d[0]
            d = [*map(add_int, d, d[1:]), d[-1]]

    def compose(left, values, grades, op):
        # S(m) op= sum_h r_h(m) left(m + h) 2^(width (h - min h) / step), r_h the digits of values
        low = min(grades)
        columns = [*zip(*(_unpack(v, width, (max(grades) - low) // step + 1) for v in values[:n]))]
        for h in grades:
            p, start = (h - low) // step, max(0, -h)
            products = map(mul_int, columns[p][start:], left[start + h : n + h])
            samples[start:] = map(op, samples[start:], map(lshift, products, repeat(width * p)))

    va, vb = [*packed(fa, wa)], [*packed(fb, wb)]
    compose(va, vb, fb, add_int)
    if bracket:
        compose(vb, va, fa, sub_int)
    return _read_back(samples, step, width, size)


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


def _nonzero(sums: dict[Monomial, int]) -> dict[Monomial, int]:
    """The sums without their cancelled entries: the numerators of a chain's next step."""
    return {m: v for m, v in sums.items() if v}


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
    """a^n by repeated squaring on the integer form, with one division at the end."""
    if not isinstance(n, int) or n < 0:
        raise MalformedInputError(f"exponent must be a nonnegative integer, got {n!r}")
    terms, d = _integer_form(a)
    out, e = {(0, 0): 1}, 1
    while n:
        if n & 1:
            out, e = _nonzero(_product(out, terms)), e * d
        n >>= 1
        if n:
            terms, d = _nonzero(_product(terms, terms)), d * d
    return _over(out, e)


def total_degree(a: WeylElement) -> int:
    """Largest i + j over the support."""
    if not a._terms:
        raise UndefinedOnZeroError("total degree is undefined on the zero element")
    return max(i + j for i, j in a._terms)


ZERO = WeylElement()
ONE = WeylElement([(0, 0, 1)])
X = WeylElement([(1, 0, 1)])
Y = WeylElement([(0, 1, 1)])
