"""Command-line interface: expression parser, canonical printer, JSON.

Grammar for element expressions (whitespace is free):

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := '-' factor
              | rational
              | ('X' | 'Y') ('^' natural)?
              | '(' expr ')' ('^' natural)?
    rational := natural ('/' natural)?

Juxtaposition is not multiplication; '*' is mandatory.  Exponents are
nonnegative integer literals.  A natural is a string of ASCII digits, at
most as long as Python's integer-string limit (`sys.get_int_max_str_digits`,
4300 by default); a longer one is a contract error.

A `gen-pair` script is a list of steps separated by ';': `addY:poly`,
`addX:poly` or `fourier`, with whitespace free around each.  Empty steps
are skipped, and `ElementaryAutomorphism` validates each step, so a
malformed one is a contract error: `addY:Y^2;;fourier;` is two steps.

On the command line an expression that starts with '-' must follow '--',
which ends the options: `weylalg normalize -- -X+Y`.  Otherwise argparse
reads it as an option and the call is a usage error.

The canonical printer sorts terms by total degree descending, then X
exponent descending, elides unit coefficients and zero exponents, and
prints 0 for the zero element; parsing the result reproduces the element.
Rational coefficients travel through JSON as exact "num/den" strings.

Size limits; past one, SizeLimitError (exit 2):

- exponents: MAX_EXPONENT;
- total degree, checked before computing: MAX_DEGREE for every power and
  product that the parser, `mul`, `comm`, `pow` and `oracle-check --mul`
  form, for a `homog-centralizer` component (|j| deg(P) / |diag(P)|) and
  for a `gen-pair` script (the product of its step degrees);
- coefficients of those powers and products: MAX_COEFF_BITS bits, so they
  print within the default limit of 4300 digits;
- nesting of parentheses and unary minus: MAX_NESTING;
- `--max-total-degree`: MAX_BOUND.

At the caps, `pow "X+Y+1" 100` takes 0.54 to 0.72 s (median 0.59 s),
the `gen-pair` of 'addY:Y^2+Y; addX:X^2-X; addY:Y^5+1; addX:X^5+X'
(degree 100, 818 terms) 0.38 to 0.55 s (median 0.42 s) and 21 MB, and
the centralizer of Dixmier's L at bound 100 takes 1.07 to 1.20 s (median
1.12 s) and 60 MB, that of X + (Y + X^2)^3 0.67 to 1.12 s (median
0.71 s) and 37 MB (process time and peak RSS, as ru_maxrss, of the whole
CLI call, the centralizers with `--json`, ten runs, one core of a shared
2-vCPU virtual machine, CPython 3.11); the solver's cost also grows with
the number of terms of P and with the share of the triangle that its
Newton polygon covers.  `oracle-check` of two degree-100 elements
("(X+Y)^100" with itself) takes 0.74 to 0.97 s (median 0.81 s) and
22 MB, and `oracle-check --mul "(X+Y)^50" "(X-Y)^50"` 1.81 to 2.66 s
(median 1.97 s), measured the same way.  Powers are formed by
repeated squaring, and every power formed on the way is checked against
the coefficient limit.

Exit codes: 0 success, 1 when the computation reports false or empty,
2 for usage, syntax, or contract errors, 3 for an internal inconsistency
(a guaranteed identity failed, which is always a bug).  A reader that
closes standard output before the command has written it all, as
`weylalg pow "X+Y+1" 60 | head -c 10` does, gets exit code 2 and one
error line.  `main` returns the code and raises nothing, argparse usage
errors included.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .centralizer import (
    CentralizerBasis,
    ComponentKind,
    centralizer_basis,
    decompose,
    homogeneous_centralizer_component,
)
from .core import ONE, WeylElement, X, Y, commutator, mul, total_degree, transpose
from .derivation import (
    DixmierPair,
    ElementaryAutomorphism,
    check_dixmier_pair,
    derivation_report,
    dixmier_pair_from_script,
)
from .errors import (
    ExprSyntaxError,
    InternalInconsistencyError,
    MalformedInputError,
    NotDixmierPairError,
    SizeLimitError,
    WeylError,
)
from .graded import GradedForm, XYPolynomial, from_graded_form, homogeneous_components, to_graded_form
from .leading import LeadingData, diag_degree, leading_data
from .oracle import oracle_equal, oracle_mul_check

# ---------------------------------------------------------------------------
# size limits

MAX_EXPONENT = 1000
MAX_DEGREE = 100
MAX_COEFF_BITS = 14284  # below 2^14284 an integer has at most 4300 digits
MAX_BOUND = 100
MAX_NESTING = 100


def _degree(a: WeylElement) -> int:
    return total_degree(a) if a else 0


def _check_coefficients(a: WeylElement) -> WeylElement:
    for c in a.terms.values():
        if max(c.numerator.bit_length(), c.denominator.bit_length()) > MAX_COEFF_BITS:
            raise SizeLimitError(f"a coefficient exceeds the limit of {MAX_COEFF_BITS} bits")
    return a


def _check_degree(degree: int, what: str) -> None:
    if degree > MAX_DEGREE:
        raise SizeLimitError(f"{what} of total degree {degree} exceeds the limit of {MAX_DEGREE}")


def _product(a: WeylElement, b: WeylElement) -> WeylElement:
    """a * b within the degree and coefficient limits."""
    _check_degree(_degree(a) + _degree(b), "product")
    return _check_coefficients(mul(a, b))


def _power(a: WeylElement, n: int) -> WeylElement:
    """a^n within the exponent, degree and coefficient limits."""
    if n > MAX_EXPONENT:
        raise SizeLimitError(f"exponent {n} exceeds the limit of {MAX_EXPONENT}")
    _check_degree(_degree(a) * n, "power")
    # by squaring, as core.power, with every power formed on the way checked
    out = ONE
    while n:
        if n & 1:
            out = _check_coefficients(mul(out, a))
        n >>= 1
        if n:
            a = _check_coefficients(mul(a, a))
    return out


def _bound(value: int) -> int:
    if value > MAX_BOUND:
        raise SizeLimitError(f"bound {value} exceeds the limit of {MAX_BOUND}")
    return value


# ---------------------------------------------------------------------------
# tokenizer and parser


@dataclass(frozen=True)
class _Token:
    kind: str  # NUMBER, NAME, OP, EOF
    text: str
    line: int
    column: int


# one token, or one character for which `str.isspace` is true, which is skipped
_SCANNER = re.compile(r"(?P<NUMBER>[0-9]+)|(?P<NAME>[XY])|(?P<OP>[-+*^()/])|\s")


def _tokenize(text: str) -> list[_Token]:
    """The tokens of `text`, each at its line and column; only '\\n' ends a line."""
    tokens = []
    for line, row in enumerate(text.split("\n"), 1):
        pos = 0
        while pos < len(row):
            match = _SCANNER.match(row, pos)
            if match is None:
                raise ExprSyntaxError(f"unexpected character {row[pos]!r}", line, pos + 1)
            if match.lastgroup:
                tokens.append(_Token(match.lastgroup, match.group(), line, pos + 1))
            pos = match.end()
    tokens.append(_Token("EOF", "", line, len(row) + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def accept(self, ops: str) -> _Token | None:
        """The next token, consumed, when it is one of the operators `ops`."""
        tok = self.tokens[self.pos]
        # the EOF token's text is "", which is in every string
        if tok.kind == "OP" and tok.text in ops:
            self.pos += 1
            return tok
        return None

    def natural(self, expected: str) -> tuple[_Token, int]:
        """The next token, consumed, and its value.  It must be a NUMBER, else
        a syntax error says `expected`, within Python's integer-string limit."""
        tok = self.peek()
        if tok.kind != "NUMBER":
            raise ExprSyntaxError(expected, tok.line, tok.column)
        limit = sys.get_int_max_str_digits()
        if limit and len(tok.text) > limit:
            raise MalformedInputError(
                f"number of {len(tok.text)} digits at line {tok.line}, column {tok.column} "
                f"exceeds the limit of {limit} digits"
            )
        self.pos += 1
        return tok, int(tok.text)

    def parse(self) -> WeylElement:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "EOF":
            raise ExprSyntaxError(f"unexpected {tok.text!r}", tok.line, tok.column)
        return value

    def expr(self) -> WeylElement:
        value = self.term()
        while tok := self.accept("+-"):
            rhs = self.term()
            value = value + rhs if tok.text == "+" else value - rhs
        return value

    def term(self) -> WeylElement:
        value = self.factor()
        while self.accept("*"):
            value = _product(value, self.factor())
        return value

    def factor(self) -> WeylElement:
        # unary minus and parentheses recurse: stop well before Python's own limit
        self.depth += 1
        try:
            if self.depth > MAX_NESTING:
                tok = self.peek()
                raise SizeLimitError(
                    f"nesting deeper than {MAX_NESTING} at line {tok.line}, column {tok.column}"
                )
            return self._factor()
        finally:
            self.depth -= 1

    def _factor(self) -> WeylElement:
        if self.accept("-"):
            return -self.factor()
        if self.accept("("):
            value = self.expr()
            if not self.accept(")"):
                tok = self.peek()
                raise ExprSyntaxError("expected ')'", tok.line, tok.column)
            return _power(value, self.exponent())
        tok = self.peek()
        if tok.kind == "NAME":
            self.pos += 1
            return _power(X if tok.text == "X" else Y, self.exponent())
        _, num = self.natural(
            f"expected a rational, X, Y, or parenthesis, got {tok.text or 'end of input'!r}"
        )
        if not self.accept("/"):
            return WeylElement([(0, 0, num)])
        den_tok, den = self.natural("expected a denominator")
        if den == 0:
            raise MalformedInputError(
                f"zero denominator at line {den_tok.line}, column {den_tok.column}"
            )
        return WeylElement([(0, 0, Fraction(num, den))])

    def exponent(self) -> int:
        if not self.accept("^"):
            return 1
        if tok := self.accept("-"):
            raise MalformedInputError(
                f"negative exponent at line {tok.line}, column {tok.column}"
            )
        return self.natural("expected a nonnegative integer exponent")[1]


def parse_element(text: str) -> WeylElement:
    """Parse the surface syntax into a canonical element."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# canonical printers


def _print_order(terms) -> list:
    return sorted(terms, key=lambda m: (-(m[0] + m[1]), -m[0]))


def _number_text(c: Fraction) -> str:
    """str(c), with a coefficient too long to print as a size-limit error."""
    try:
        return str(c)
    except ValueError:  # beyond Python's integer-string limit
        raise SizeLimitError("a coefficient of the result is too long to print") from None


def _term_body(i: int, j: int, c: Fraction, x: str = "X") -> str:
    """c x^i Y^j for c > 0, with a unit coefficient and zero exponents elided."""
    parts = []
    if c != 1 or (i == 0 and j == 0):
        parts.append(_number_text(c))
    if i:
        parts.append(x if i == 1 else f"{x}^{i}")
    if j:
        parts.append("Y" if j == 1 else f"Y^{j}")
    return "*".join(parts)


def _signed_sum(terms) -> str:
    """Join (c, text of |c|'s term) pairs with their signs; 0 for none."""
    pieces = []
    for c, body in terms:
        if pieces:
            pieces.append(" + " if c > 0 else " - ")
        elif c < 0:
            pieces.append("-")
        pieces.append(body)
    return "".join(pieces) if pieces else "0"


def format_element(a: WeylElement) -> str:
    """Canonical text form; parsing it reproduces the element exactly."""
    terms = a.terms
    return _signed_sum((terms[m], _term_body(m[0], m[1], abs(terms[m]))) for m in _print_order(terms))


def format_xy_polynomial(f: XYPolynomial) -> str:
    """Canonical text form in Z = X*Y, highest power first."""
    return _signed_sum((c, _term_body(m, 0, abs(c), "Z")) for m, c in reversed(list(enumerate(f))) if c)


def format_graded_form(g: GradedForm) -> str:
    """Render X^j * (f) for grade j >= 0, and (f) * Y^(-j) for j < 0."""
    body = f"({format_xy_polynomial(g.poly)})"
    if g.grade > 0:
        return f"{_term_body(g.grade, 0, 1)} * {body}"
    if g.grade < 0:
        return f"{body} * {_term_body(0, -g.grade, 1)}"
    return body


# ---------------------------------------------------------------------------
# JSON serialization


def _coeff_str(c: Fraction) -> str:
    return f"{_number_text(c.numerator)}/{_number_text(c.denominator)}"


def element_to_json(a: WeylElement) -> dict[str, Any]:
    return {
        "terms": [
            {"i": m[0], "j": m[1], "coeff": _coeff_str(a.terms[m])}
            for m in _print_order(a.terms)
        ]
    }


def leading_to_json(data: LeadingData, mirror: LeadingData) -> dict[str, Any]:
    """`mirror` is the leading data of the transposed element."""
    return {
        "diag_degree": data.diag,
        "diag_degree_mirror": mirror.diag,
        "weight": {"i": data.weight[0], "j": data.weight[1]},
        "weight_mirror": {"i": mirror.weight[1], "j": mirror.weight[0]},
        "leading_form": element_to_json(data.form),
        "leading_term": element_to_json(data.term),
        "leading_coeff": _coeff_str(data.coeff),
        "monic": data.monic,
    }


def basis_to_json(basis: CentralizerBasis) -> dict[str, Any]:
    return {
        "element": element_to_json(basis.element),
        "bound": basis.bound,
        "sector": basis.sector,
        "direction": {"i": basis.direction[0], "j": basis.direction[1]},
        "levels": list(basis.levels),
        "level_gcd": basis.level_gcd,
        "period": basis.period,
        "basis": [
            {
                "level": l,
                "ray_degree": basis.ray_degrees[l],
                "element": element_to_json(basis.by_level[l]),
            }
            for l in basis.levels
        ],
        "picks": [
            None
            if pick is None
            else {
                "residue": r,
                "level": basis.pick_levels[r],
                "element": element_to_json(pick),
            }
            for r, pick in enumerate(basis.picks)
        ],
        "truncated": basis.truncated,
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_normalize(args) -> int:
    a = parse_element(args.expr)
    if args.json:
        print(json.dumps(element_to_json(a), indent=2))
    else:
        print(format_element(a))
    return 0


def _cmd_mul(args) -> int:
    print(format_element(_product(parse_element(args.a), parse_element(args.b))))
    return 0


def _cmd_comm(args) -> int:
    a, b = parse_element(args.a), parse_element(args.b)
    _check_degree(_degree(a) + _degree(b), "commutator")
    print(format_element(commutator(a, b)))
    return 0


def _cmd_pow(args) -> int:
    print(format_element(_power(parse_element(args.a), args.n)))
    return 0


def _cmd_leading(args) -> int:
    p = parse_element(args.expr)
    # the mirror quantities are the plain ones of transpose(p), mapped back
    data, mirror = leading_data(p), leading_data(transpose(p))
    if args.json:
        print(json.dumps(leading_to_json(data, mirror), indent=2))
        return 0
    print(f"diag degree: {data.diag}")
    print(f"mirror diag degree: {mirror.diag}")
    print(f"weight: ({data.weight[0]}, {data.weight[1]})")
    print(f"mirror weight: ({mirror.weight[1]}, {mirror.weight[0]})")
    print(f"leading form: {format_element(data.form)}")
    print(f"mirror leading form: {format_element(transpose(mirror.form))}")
    print(f"leading term: {format_element(data.term)}")
    print(f"leading coeff: {_number_text(data.coeff)}")
    print(f"monic: {'true' if data.monic else 'false'}")
    return 0


def _cmd_grade(args) -> int:
    a = parse_element(args.expr)
    components = homogeneous_components(a)
    if not components:
        print("0")
        return 0
    for g, component in components.items():
        form = to_graded_form(component)
        print(f"grade {g}: {format_graded_form(form)} = {format_element(component)}")
    return 0


def _cmd_homog_centralizer(args) -> int:
    p = parse_element(args.expr)
    r = diag_degree(p) if p else 0
    if args.j * r > 0:
        _check_degree(abs(args.j) * total_degree(p) // abs(r), "component")
    component = homogeneous_centralizer_component(p, args.j)
    if component.kind is ComponentKind.EMPTY:
        print(f"component at grade {args.j}: empty")
        return 1
    if component.kind is ComponentKind.XY_POLYNOMIALS:
        print(f"component at grade {args.j}: all polynomials in X*Y")
        return 0
    print(f"component at grade {args.j}: line")
    print(f"generator: {format_graded_form(component.generator)}")
    print(f"element: {format_element(from_graded_form(component.generator))}")
    return 0


def _cmd_centralizer(args) -> int:
    basis = centralizer_basis(parse_element(args.expr), _bound(args.max_total_degree))
    if args.json:
        print(json.dumps(basis_to_json(basis), indent=2))
        return 0
    print(f"sector: {basis.sector}")
    print(f"direction: ({basis.direction[0]}, {basis.direction[1]})")
    print(f"levels: {list(basis.levels)}")
    print(f"level gcd: {basis.level_gcd}")
    print(f"period: {basis.period}")
    for l in basis.levels:
        print(f"basis level {l} (degree {basis.ray_degrees[l]}): {format_element(basis.by_level[l])}")
    for r, pick in enumerate(basis.picks):
        if pick is None:
            print(f"pick {r}: missing (truncated)")
        else:
            print(f"pick {r} (level {basis.pick_levels[r]}): {format_element(pick)}")
    print(f"truncated: {'true' if basis.truncated else 'false'}")
    return 0


def _cmd_decompose(args) -> int:
    basis = centralizer_basis(parse_element(args.basis_of), _bound(args.max_total_degree))
    element = parse_element(args.expr)
    parts = decompose(element, basis)
    # the top term of T_r(S_0) S_r has degree deg(T_r) period + deg(S_r),
    # with the constant 1 in place of S_r for residue 0
    pick_degrees = [0] + [basis.ray_degrees[l] for l in basis.pick_levels[1:]]
    degrees = [part.degree * basis.period + pick_degrees[r] for r, part in enumerate(parts) if part]
    print(f"degree: {max(degrees, default=0)}")
    for r, pick in enumerate(basis.picks):
        print(f"pick {r}: {format_element(pick)}")
    for r, part in enumerate(parts):
        print(f"coefficient {r}: {format_xy_polynomial(part)}")
    return 0


def _cmd_check_dixmier(args) -> int:
    bound = _bound(args.max_total_degree)
    p = parse_element(args.p)
    q = parse_element(args.q)
    pair = DixmierPair(p, q)
    try:
        report = check_dixmier_pair(pair, bound)
    except NotDixmierPairError:
        print("dixmier pair: false")
        return 1
    print("dixmier pair: true")
    print(f"centralizer dimension: {report.centralizer_dim}")
    print(f"powers dimension: {report.powers_dim}")
    print(f"centralizer equals polynomials in P: {'true' if report.holds else 'false'}")
    deriv = derivation_report(pair, report.basis)
    print(f"derivation nonzero picks: {list(deriv.nonzero_picks)}")
    print(f"constant degree drop: {deriv.constant_drop}")
    print(f"derivation kernel dimension: {deriv.kernel_dim}")
    return 0 if report.holds else 1


def _parse_script(text: str) -> list[ElementaryAutomorphism]:
    """The steps of a script, each checked by `ElementaryAutomorphism`."""
    steps = []
    for chunk in text.split(";"):
        if chunk.strip():
            kind, colon, poly = chunk.partition(":")
            steps.append(ElementaryAutomorphism(kind.strip(), parse_element(poly) if colon else None))
    return steps


def _cmd_gen_pair(args) -> int:
    script = _parse_script(args.script)
    # each step multiplies the total degree by at most the degree of its polynomial
    degree = 1
    for step in script:
        if step.poly:
            degree *= max(1, total_degree(step.poly))
            _check_degree(degree, "script image")
    pair = dixmier_pair_from_script(script)
    print(f"P = {format_element(pair.p)}")
    print(f"Q = {format_element(pair.q)}")
    return 0


def _cmd_oracle_check(args) -> int:
    a = parse_element(args.a)
    b = parse_element(args.b)
    if args.mul:
        _check_degree(_degree(a) + _degree(b), "product")
        ok = oracle_mul_check(a, b)
        print(f"product action law: {'true' if ok else 'false'}")
    else:
        ok = oracle_equal(a, b)
        print(f"equal: {'true' if ok else 'false'}")
    return 0 if ok else 1


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylalg",
        description="Exact computation in the first Weyl algebra over the rationals.  "
        "Put '--' before an expression that starts with '-': normalize -- -X+Y.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="canonical normal form of an expression")
    p.add_argument("expr")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("mul", help="product of two expressions")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_mul)

    p = sub.add_parser("comm", help="commutator of two expressions")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_comm)

    p = sub.add_parser("pow", help="nonnegative power of an expression")
    p.add_argument("a")
    p.add_argument("n", type=_nonnegative_int)
    p.set_defaults(func=_cmd_pow)

    p = sub.add_parser("leading", help="leading-form data of a nonzero expression")
    p.add_argument("expr")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_leading)

    p = sub.add_parser("grade", help="homogeneous components with XY factorizations")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_grade)

    p = sub.add_parser("homog-centralizer", help="centralizer component of a homogeneous element")
    p.add_argument("expr")
    p.add_argument("--j", type=int, required=True, help="homogeneity degree to solve in")
    p.set_defaults(func=_cmd_homog_centralizer)

    p = sub.add_parser("centralizer", help="centralizer basis up to a total-degree bound")
    p.add_argument("expr")
    p.add_argument("--max-total-degree", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_centralizer)

    p = sub.add_parser("decompose", help="write an element over the canonical picks")
    p.add_argument("expr")
    p.add_argument("--basis-of", required=True)
    p.add_argument("--max-total-degree", type=int, required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("check-dixmier", help="verify the centralizer of P is the polynomials in P")
    p.add_argument("p")
    p.add_argument("q")
    p.add_argument("--max-total-degree", type=int, required=True)
    p.set_defaults(func=_cmd_check_dixmier)

    p = sub.add_parser("gen-pair", help="pair from an automorphism script, e.g. 'addY:Y^2;fourier'")
    p.add_argument("--script", required=True)
    p.set_defaults(func=_cmd_gen_pair)

    p = sub.add_parser("oracle-check", help="differential-operator comparison of two expressions")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--mul", action="store_true", help="check the product action law instead")
    p.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 for a usage error
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that left early fails here, not at exit
        return code
    except BrokenPipeError:
        # what is still buffered goes to os.devnull, so that the
        # interpreter's final flush does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: standard output was closed early", file=sys.stderr)
        return 2
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except WeylError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
