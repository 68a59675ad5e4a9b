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

XYPolynomial is a dense univariate polynomial over Fraction in a formal
variable Z standing for the product XY.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable

from .core import Coefficient, WeylElement, _integer_terms, _over, mul
from .errors import MalformedInputError, NotHomogeneousError
from .leading import diag_degree, _require_nonzero


class XYPolynomial:
    """Polynomial in Z with exact rational coefficients, ascending storage."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Coefficient] = ()):
        out = [Fraction(c) for c in coeffs]
        while out and not out[-1]:
            out.pop()
        self._coeffs = tuple(out)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self._coeffs) - 1

    @property
    def leading_coeff(self) -> Fraction:
        if not self._coeffs:
            return Fraction(0)
        return self._coeffs[-1]

    def coefficient(self, m: int) -> Fraction:
        if 0 <= m < len(self._coeffs):
            return self._coeffs[m]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, XYPolynomial):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self._coeffs == XYPolynomial([other])._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __add__(self, other: "XYPolynomial | Coefficient") -> "XYPolynomial":
        if isinstance(other, (int, Fraction)):
            other = XYPolynomial([other])
        if not isinstance(other, XYPolynomial):
            return NotImplemented
        n = max(len(self._coeffs), len(other._coeffs))
        return XYPolynomial(
            [self.coefficient(m) + other.coefficient(m) for m in range(n)]
        )

    def __radd__(self, other: Coefficient) -> "XYPolynomial":
        return self.__add__(other)

    def __neg__(self) -> "XYPolynomial":
        return XYPolynomial([-c for c in self._coeffs])

    def __sub__(self, other: "XYPolynomial | Coefficient") -> "XYPolynomial":
        if isinstance(other, (int, Fraction)):
            other = XYPolynomial([other])
        if not isinstance(other, XYPolynomial):
            return NotImplemented
        return self.__add__(-other)

    def __mul__(self, other: "XYPolynomial | Coefficient") -> "XYPolynomial":
        if isinstance(other, (int, Fraction)):
            return XYPolynomial([c * Fraction(other) for c in self._coeffs])
        if not isinstance(other, XYPolynomial):
            return NotImplemented
        if not self or not other:
            return XYPolynomial()
        out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
        for m, a in enumerate(self._coeffs):
            if not a:
                continue
            for n, b in enumerate(other._coeffs):
                if b:
                    out[m + n] += a * b
        return XYPolynomial(out)

    def __rmul__(self, other: Coefficient) -> "XYPolynomial":
        return self.__mul__(other)

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
        for c in reversed(self._coeffs):
            # out <- out * (Z + s) + c
            out = [x + s * y for x, y in zip([0, *out], [*out, 0])]
            out[0] += c
        return XYPolynomial(out)

    def derivative(self) -> "XYPolynomial":
        return XYPolynomial([m * c for m, c in enumerate(self._coeffs)][1:])

    def __call__(self, value: Coefficient) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * Fraction(value) + c
        return acc

    def __repr__(self) -> str:
        return f"XYPolynomial({[str(c) for c in self._coeffs]})"


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
    d, terms = _integer_terms(h)
    c = {min(i, j): n for i, j, n in terms}
    f: list[int] = []
    for a in range(max(c), -1, -1):
        # f <- f * (Z - a) + c_a
        f = [x - a * y for x, y in zip([0, *f], [*f, 0])]
        f[0] += c.get(a, 0)
    return GradedForm(diag_degree(h), XYPolynomial(Fraction(n, d) for n in f))


def from_graded_form(form: GradedForm) -> WeylElement:
    """Expand back into canonical normal form; inverse of to_graded_form."""
    coeffs = form.poly.coeffs
    d = lcm(*(c.denominator for c in coeffs))
    v: list[int] = []
    for c in reversed(coeffs):
        # v <- Z * v + c, with v_a the coefficient of (Z)_a
        v = [x + a * y for a, (x, y) in enumerate(zip([0, *v], [*v, 0]))]
        v[0] += c.numerator * (d // c.denominator)
    g = form.grade
    return _over({(a + g, a) if g >= 0 else (a, a - g): n for a, n in enumerate(v)}, d)


def evaluate_at_element(f: XYPolynomial, s: WeylElement) -> WeylElement:
    """f(s) inside the algebra, by Horner's scheme."""
    acc = WeylElement()
    for c in reversed(f.coeffs):
        acc = mul(acc, s) + c
    return acc
