"""Independent verification channel through differential operators.

X acts on the polynomial ring Q[x] as multiplication by x, and Y acts as
d/dx; this is a faithful representation because d/dx(x*p) - x*d/dx(p) = p.
The action never touches the normal-form product, so agreement between
`mul` and composed actions is a genuinely independent check.  Each call
forms every derivative of its polynomial that the element needs once.

A polynomial is a tuple of Fraction coefficients, ascending in degree,
with trailing zeros trimmed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .core import Coefficient, WeylElement

PolyVector = tuple[Fraction, ...]


def poly_from_coeffs(coeffs: Iterable[Coefficient]) -> PolyVector:
    out = [Fraction(c) for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def x_power(n: int) -> PolyVector:
    """The basis polynomial x^n."""
    return poly_from_coeffs([0] * n + [1])


def act(a: WeylElement, p: PolyVector) -> PolyVector:
    """Apply sum a_ij x^i (d/dx)^j to p, exactly, from p, p', ..., p^(max j)."""
    derivatives = [p]
    for _ in range(max_y_exponent(a)):
        derivatives.append(tuple(n * c for n, c in enumerate(derivatives[-1]))[1:])
    acc: dict[int, Fraction] = {}
    for (i, j), c in a.terms.items():
        for n, v in enumerate(derivatives[j]):
            if v:
                key = n + i
                acc[key] = acc.get(key, Fraction(0)) + c * v
    if not acc:
        return ()
    out = [Fraction(0)] * (max(acc) + 1)
    for n, v in acc.items():
        out[n] = v
    return poly_from_coeffs(out)


def max_y_exponent(a: WeylElement) -> int:
    return max((j for _, j in a.terms), default=0)


def oracle_equal(a: WeylElement, b: WeylElement) -> bool:
    """Compare actions on x^0 .. x^N with N = max Y exponent of either side.

    This cutoff suffices: act(X^i Y^j, x^n) vanishes for j > n, so the
    action on x^n exposes exactly the coefficients with j <= n, and each new
    n adds the j = n row; by induction on n all coefficients are determined.
    """
    cut = max(max_y_exponent(a), max_y_exponent(b))
    return all(act(a, x_power(n)) == act(b, x_power(n)) for n in range(cut + 1))


def oracle_mul_check(a: WeylElement, b: WeylElement) -> bool:
    """True when the normal-form product acts as the composition of actions."""
    from .core import mul

    ab = mul(a, b)
    cut = max_y_exponent(a) + max_y_exponent(b)
    for n in range(cut + 1):
        p = x_power(n)
        if act(ab, p) != act(a, act(b, p)):
            return False
    return True
