"""Independent verification channel through differential operators.

X acts on the polynomial ring Q[x] as multiplication by x, and Y acts as
d/dx; this is a faithful representation because d/dx(x*p) - x*d/dx(p) = p.
The action never touches the normal-form product, so agreement between
`mul` and composed actions is a genuinely independent check.  It is taken
term by term in closed form, X^i Y^j x^n = n!/(n-j)! x^(n-j+i), and summed
in integers over one denominator, so no derivative is formed.

A polynomial in x is an `XYPolynomial`, the package's one univariate
type, read here in x rather than in Z = XY: the tuple of its Fraction
coefficients, ascending in degree, with trailing zeros trimmed.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, perm

from .core import Form, WeylElement, _integer_form
from .graded import XYPolynomial

poly_from_coeffs = XYPolynomial  # an older name, which `bench/checks.py` builds test polynomials by


def x_power(n: int) -> XYPolynomial:
    """The basis polynomial x^n."""
    return XYPolynomial([0] * n + [1])


def act(a: WeylElement, p: XYPolynomial) -> XYPolynomial:
    """Apply sum a_ij x^i (d/dx)^j to p, exactly.

    With a = sum c_ij / d X^i Y^j and p = sum v_n / e x^n over integers,
    the term pair (i, j), n with j <= n adds c_ij v_n n!/(n-j)! at
    x^(n-j+i), and the sums are over d e.
    """
    return _act(_integer_form(a), p)


def _act(form: Form, p: XYPolynomial) -> XYPolynomial:
    # `act` of the element whose integer form (`core._integer_form`) is `form`
    terms, d = form
    e = lcm(*(v.denominator for v in p))
    acc: dict[int, int] = {}
    for n, v in enumerate(p):
        if not v:
            continue
        v = v.numerator * (e // v.denominator)
        for (i, j), c in terms.items():
            if j <= n:
                key = n - j + i
                acc[key] = acc.get(key, 0) + c * v * perm(n, j)
    return XYPolynomial(Fraction(acc.get(n, 0), d * e) for n in range(max(acc, default=-1) + 1))


def max_y_exponent(a: WeylElement) -> int:
    return max((j for _, j in a.terms), default=0)


def oracle_equal(a: WeylElement, b: WeylElement) -> bool:
    """Compare actions on x^0 .. x^N with N = max Y exponent of either side.

    This cutoff suffices: act(X^i Y^j, x^n) vanishes for j > n, so the
    action on x^n exposes exactly the coefficients with j <= n, and each new
    n adds the j = n row; by induction on n all coefficients are determined.
    Each side's integer form is taken once.
    """
    cut = max(max_y_exponent(a), max_y_exponent(b))
    fa, fb = _integer_form(a), _integer_form(b)
    return all(_act(fa, x_power(n)) == _act(fb, x_power(n)) for n in range(cut + 1))


def oracle_mul_check(a: WeylElement, b: WeylElement) -> bool:
    """True when the normal-form product acts as the composition of actions."""
    from .core import mul

    ab = mul(a, b)
    cut = max_y_exponent(a) + max_y_exponent(b)
    fa, fb, fab = _integer_form(a), _integer_form(b), _integer_form(ab)
    for n in range(cut + 1):
        p = x_power(n)
        if _act(fab, p) != _act(fa, _act(fb, p)):
            return False
    return True
