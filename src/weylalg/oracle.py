"""Independent verification channel through differential operators.

X acts on the polynomial ring Q[x] as multiplication by x, and Y acts as
d/dx; this is a faithful representation because d/dx(x*p) - x*d/dx(p) = p.
The action never touches the normal-form product, so agreement between
`mul` and composed actions is a genuinely independent check.  It is taken
term by term in closed form, X^i Y^j x^n = n!/(n-j)! x^(n-j+i), and summed
in integers over one denominator, so no derivative is formed.

A polynomial is a tuple of Fraction coefficients, ascending in degree,
with trailing zeros trimmed.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, perm
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
    """Apply sum a_ij x^i (d/dx)^j to p, exactly.

    With a = sum c_ij / d X^i Y^j and p = sum v_n / e x^n over integers,
    the term pair (i, j), n with j <= n adds c_ij v_n n!/(n-j)! at
    x^(n-j+i), and the sums are over d e.
    """
    d = lcm(*(c.denominator for c in a.terms.values()))
    e = lcm(*(v.denominator for v in p))
    terms = [(i, j, c.numerator * (d // c.denominator)) for (i, j), c in a.terms.items()]
    acc: dict[int, int] = {}
    for n, v in enumerate(p):
        if not v:
            continue
        v = v.numerator * (e // v.denominator)
        for i, j, c in terms:
            if j <= n:
                key = n - j + i
                acc[key] = acc.get(key, 0) + c * v * perm(n, j)
    return poly_from_coeffs(Fraction(acc.get(n, 0), d * e) for n in range(max(acc, default=-1) + 1))


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
