"""The diagonal grading and shifted-polynomial coordinates.

The homogeneous piece of degree g consists of the elements supported on the
single diagonal i - j = g.  Such an element factors through the product XY:

    g >= 0:   X^g * f(XY)          g < 0:   f(XY) * Y^(-g)

for a unique polynomial f.  The bridge between monomial exponents and the
polynomial coordinate is the falling-factorial identity

    X^a Y^a = (Z)_a = Z(Z - 1)(Z - 2) ... (Z - a + 1),    Z = XY.

Both directions run it as Horner's scheme on integers over the common
denominator: to f by f <- f * (Z - a) + c_a for a from the top down, with c_a
the coefficient of the term with min(i, j) = a; back by v <- Z * v + f_m for
m from the top down, in the basis (Z)_a, where Z (Z)_a = (Z)_(a+1) + a (Z)_a.
Either costs O(a^2) integer operations, with no tables and no algebra products.

XYPolynomial is the one univariate polynomial type of the package: a dense
polynomial over Fraction, stored as the tuple of its coefficients.  Here its
variable is Z, standing for the product XY; the oracle (`oracle.py`) reads
the same type in x, the variable its operators act on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable

from .core import Coefficient, WeylElement, _integer_form, _nonzero, _over, _product
from .errors import MalformedInputError, NotHomogeneousError
from .leading import diag_degree, _require_nonzero


class XYPolynomial(tuple):
    """Polynomial with exact rational coefficients: the tuple of them, ascending.

    Trailing zeros are trimmed, so equality, hashing and truth are those of
    the tuple, and a polynomial equals the plain tuple of its coefficients.
    A number or a plain tuple is taken as a polynomial in `+`, `-` and `*`.
    """

    __slots__ = ()

    def __new__(cls, coeffs: Iterable[Coefficient] = ()) -> "XYPolynomial":
        out = [Fraction(c) for c in coeffs]
        while out and not out[-1]:
            out.pop()
        return super().__new__(cls, out)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self) - 1

    @property
    def leading_coeff(self) -> Fraction:
        return self[-1] if self else Fraction(0)

    def coefficient(self, m: int) -> Fraction:
        return self[m] if 0 <= m < len(self) else Fraction(0)

    def __add__(self, other: "XYPolynomial | Coefficient") -> "XYPolynomial":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        n = max(len(self), len(other))
        return XYPolynomial([self.coefficient(m) + other.coefficient(m) for m in range(n)])

    __radd__ = __add__

    def __neg__(self) -> "XYPolynomial":
        return XYPolynomial([-c for c in self])

    def __sub__(self, other: "XYPolynomial | Coefficient") -> "XYPolynomial":
        other = _as_poly(other)
        return NotImplemented if other is None else self + -other

    def __mul__(self, other: "XYPolynomial | Coefficient") -> "XYPolynomial":
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        out = [Fraction(0)] * (len(self) + len(other) - 1)
        for m, a in enumerate(self):
            for n, b in enumerate(other):
                out[m + n] += a * b
        return XYPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "XYPolynomial":
        if n < 0:
            raise MalformedInputError("polynomial power must be nonnegative")
        out = XYPolynomial([1])
        for _ in range(n):
            out = out * self
        return out

    def shift(self, s: Coefficient) -> "XYPolynomial":
        """f(Z + s), expanded in the monomial basis by Horner's scheme."""
        s = Fraction(s)
        out: list[Fraction] = []
        for c in reversed(self):
            # out <- out * (Z + s) + c
            out = [x + s * y for x, y in zip([0, *out], [*out, 0])]
            out[0] += c
        return XYPolynomial(out)

    def derivative(self) -> "XYPolynomial":
        return XYPolynomial([m * c for m, c in enumerate(self)][1:])

    def __call__(self, value: Coefficient) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self):
            acc = acc * Fraction(value) + c
        return acc

    def __repr__(self) -> str:
        return f"XYPolynomial({[str(c) for c in self]})"


def _as_poly(other: object) -> XYPolynomial | None:
    # a number is a constant and a tuple its coefficients, so that no
    # operator falls back to tuple concatenation or repetition
    if isinstance(other, (int, Fraction)):
        other = (other,)
    return XYPolynomial(other) if isinstance(other, tuple) else None


Z = XYPolynomial([0, 1])


@dataclass(frozen=True)
class GradedForm:
    """A homogeneous element as X^grade * poly(XY), or poly(XY) * Y^(-grade).

    The polynomial sits on the left of the Y block when grade < 0.
    """

    grade: int
    poly: XYPolynomial

    def __post_init__(self) -> None:
        if not self.poly:
            raise MalformedInputError("graded form requires a nonzero polynomial")


def homogeneous_components(p: WeylElement) -> dict[int, WeylElement]:
    """Split into diagonal components; the empty map for 0."""
    buckets: dict[int, dict] = {}
    for (i, j), c in p.terms.items():
        buckets.setdefault(i - j, {})[(i, j)] = c
    return {g: WeylElement._raw(t) for g, t in sorted(buckets.items())}


def is_homogeneous(p: WeylElement) -> bool:
    _require_nonzero(p, "homogeneity")
    diags = {i - j for i, j in p.terms}
    return len(diags) == 1


def to_graded_form(h: WeylElement) -> GradedForm:
    """Factor a homogeneous element through the product XY."""
    _require_nonzero(h, "graded form")
    if not is_homogeneous(h):
        raise NotHomogeneousError("only homogeneous elements factor through XY")
    terms, d = _integer_form(h)
    c = {min(m): n for m, n in terms.items()}
    f: list[int] = []
    for a in range(max(c), -1, -1):
        # f <- f * (Z - a) + c_a
        f = [x - a * y for x, y in zip([0, *f], [*f, 0])]
        f[0] += c.get(a, 0)
    return GradedForm(diag_degree(h), XYPolynomial(Fraction(n, d) for n in f))


def from_graded_form(form: GradedForm) -> WeylElement:
    """Expand back into canonical normal form; inverse of to_graded_form."""
    f = form.poly
    d = lcm(*(c.denominator for c in f))
    v: list[int] = []
    for c in reversed(f):
        # v <- Z * v + c, with v_a the coefficient of (Z)_a
        v = [x + a * y for a, (x, y) in enumerate(zip([0, *v], [*v, 0]))]
        v[0] += c.numerator * (d // c.denominator)
    g = form.grade
    return _over({(a + g, a) if g >= 0 else (a, a - g): n for a, n in enumerate(v)}, d)


def evaluate_at_element(f: XYPolynomial, s: WeylElement) -> WeylElement:
    """f(s) inside the algebra, by Horner's scheme on the integer form T / d of s.

    The accumulator is A / e, e = D d^k after k steps A <- A T (`core._product`),
    D the lcm of the denominators of f, so a coefficient c adds the integer c e.
    """
    terms, d = _integer_form(s)
    acc, e = {}, lcm(*(c.denominator for c in f))
    for c in reversed(f):
        if acc:
            acc, e = _product(acc, terms), e * d
        acc[(0, 0)] = acc.get((0, 0), 0) + c.numerator * (e // c.denominator)
        acc = _nonzero(acc)
    return _over(acc, e)
