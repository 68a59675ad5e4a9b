import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weylalg
from weylalg import (
    ExprSyntaxError,
    MalformedInputError,
    X,
    Y,
    ZERO,
    centralizer_basis,
    dixmier_pair_from_script,
    from_terms,
    mul,
    power,
    ray_degree,
)
from weylalg.cli import (
    MAX_BOUND,
    MAX_COEFF_BITS,
    MAX_DEGREE,
    MAX_EXPONENT,
    MAX_NESTING,
    _SCANNER,
    _parse_script,
    _tokenize,
    element_to_json,
    format_element,
    format_graded_form,
    format_xy_polynomial,
    main,
    parse_element,
)
from weylalg.graded import GradedForm, XYPolynomial, Z, evaluate_at_element

from conftest import random_element, weyl_elements

# Dixmier's L, whose basis has period 2: its decompositions use both residues
DIXMIER_L = power(power(Y, 2) + power(X, 3) + 1, 2) + 2 * X


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestParse:
    def test_defining_relation(self):
        assert parse_element("Y*X") == mul(X, Y) + 1

    def test_cancellation(self):
        assert parse_element("X^2*Y - X^2*Y") == ZERO

    def test_parenthesized_square(self):
        expected = from_terms([(2, 0, 1), (1, 2, 2), (0, 4, 1), (0, 1, 2)])
        assert parse_element("(X+Y^2)^2") == expected

    def test_rationals_and_unary_minus(self):
        assert parse_element("-3/4*X + 1/2") == from_terms(
            [(1, 0, Fraction(-3, 4)), (0, 0, Fraction(1, 2))]
        )
        assert parse_element("-X") == -X

    def test_noncommutative_order_preserved(self):
        assert parse_element("Y*X") != parse_element("X*Y")

    def test_syntax_error_has_position(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse_element("X + * Y")
        assert info.value.line == 1
        assert info.value.column == 5

    def test_unexpected_character(self):
        with pytest.raises(ExprSyntaxError):
            parse_element("X + z")

    def test_negative_exponent(self):
        with pytest.raises(MalformedInputError):
            parse_element("X^-1")

    def test_zero_denominator(self):
        with pytest.raises(MalformedInputError):
            parse_element("1/0")

    def test_juxtaposition_is_not_multiplication(self):
        with pytest.raises(ExprSyntaxError):
            parse_element("2 X")

    @pytest.mark.parametrize(
        "text, line, column, message",
        [
            ("X\n+ z", 2, 3, "unexpected character 'z'"),
            ("X +\r\n* Y", 2, 1, "got '*'"),
            ("X\r\n+ z", 2, 3, "unexpected character 'z'"),
            ("X +\tz", 1, 5, "unexpected character 'z'"),
            ("X +\u2028z", 1, 5, "unexpected character 'z'"),
            ("X\t\u00a0\u2028+ * Y", 1, 7, "got '*'"),
            ("X +", 1, 4, "got 'end of input'"),
            ("X +\n", 2, 1, "got 'end of input'"),
            ("(X", 1, 3, "expected ')'"),
            ("X\n  ^\u00b2", 2, 4, "unexpected character '\u00b2'"),
        ],
        ids=["second line", "crlf", "crlf char", "tab", "u2028", "spaces", "eof", "eof line 2",
             "unclosed", "superscript"],
    )
    def test_error_position(self, text, line, column, message):
        with pytest.raises(ExprSyntaxError) as info:
            parse_element(text)
        assert (info.value.line, info.value.column) == (line, column)
        assert str(info.value).endswith(message)


_TOKEN_TEXT = st.text(alphabet="XY0123456789+-*/^() \t\r\n\u00a0\u2028\x0b\x1c", max_size=40)


@settings(max_examples=300, deadline=None)
@given(_TOKEN_TEXT)
def test_tokens_sit_at_their_positions(text):
    """Each token's text starts at its (line, column), with only '\\n'
    ending a line, and the tokens spell the input without its whitespace."""
    *tokens, eof = _tokenize(text)
    rows = text.split("\n")
    for tok in tokens:
        assert rows[tok.line - 1][tok.column - 1:].startswith(tok.text)
    assert "".join(tok.text for tok in tokens) == "".join(ch for ch in text if not ch.isspace())
    assert (eof.kind, eof.text, eof.line, eof.column) == ("EOF", "", len(rows), len(rows[-1]) + 1)


def test_scanner_skips_exactly_the_whitespace():
    """Over every code point, the scanner's pattern skips a character
    exactly when str.isspace() is true; any other is a token or an error."""
    every = "".join(map(chr, range(0x110000)))
    skipped = "".join(m.group() for m in _SCANNER.finditer(every) if m.lastgroup is None)
    assert skipped == "".join(ch for ch in every if ch.isspace())
    assert [tok.kind for tok in _tokenize(skipped)] == ["EOF"]


class TestFormat:
    def test_xy_plus_one(self):
        assert format_element(from_terms([(1, 1, 1), (0, 0, 1)])) == "X*Y + 1"

    def test_zero(self):
        assert format_element(ZERO) == "0"

    def test_sorted_with_coefficients(self):
        assert format_element(from_terms([(4, 2, 1), (3, 1, 2)])) == "X^4*Y^2 + 2*X^3*Y"

    def test_negative_leading(self):
        assert format_element(from_terms([(1, 0, -1), (0, 0, Fraction(1, 2))])) == "-X + 1/2"

    def test_xy_polynomial(self):
        assert format_xy_polynomial(Z * Z - Z) == "Z^2 - Z"
        assert format_xy_polynomial(XYPolynomial()) == "0"
        assert format_xy_polynomial(XYPolynomial([Fraction(-1, 2), 0, 3])) == "3*Z^2 - 1/2"

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=7), max_size=7))
    def test_xy_polynomial_roundtrip(self, coeffs):
        f = XYPolynomial(coeffs)
        text = format_xy_polynomial(f).replace("Z", "(X*Y)")
        assert parse_element(text) == evaluate_at_element(f, mul(X, Y))

    def test_graded_form_sides(self):
        assert format_graded_form(GradedForm(2, Z + 1)) == "X^2 * (Z + 1)"
        assert format_graded_form(GradedForm(0, Z)) == "(Z)"
        assert format_graded_form(GradedForm(-2, Z)) == "(Z) * Y^2"


@settings(max_examples=150, deadline=None)
@given(weyl_elements(max_exp=6, max_terms=6))
def test_parse_print_roundtrip(a):
    assert parse_element(format_element(a)) == a


def test_json_schema_snapshot():
    element = parse_element("Y*X")
    assert element_to_json(element) == {
        "terms": [
            {"i": 1, "j": 1, "coeff": "1/1"},
            {"i": 0, "j": 0, "coeff": "1/1"},
        ]
    }


def test_json_coefficients_are_exact_strings():
    element = from_terms([(2, 0, Fraction(-5, 3))])
    assert element_to_json(element) == {"terms": [{"i": 2, "j": 0, "coeff": "-5/3"}]}


class TestSubcommands:
    def test_normalize(self, capsys):
        code, out, _ = run_cli(["normalize", "Y*X"], capsys)
        assert code == 0
        assert out == "X*Y + 1\n"

    def test_normalize_json(self, capsys):
        code, out, _ = run_cli(["normalize", "Y*X", "--json"], capsys)
        assert code == 0
        assert json.loads(out) == {
            "terms": [
                {"i": 1, "j": 1, "coeff": "1/1"},
                {"i": 0, "j": 0, "coeff": "1/1"},
            ]
        }

    def test_mul(self, capsys):
        code, out, _ = run_cli(["mul", "Y^2", "X^2"], capsys)
        assert code == 0
        assert out == "X^2*Y^2 + 4*X*Y + 2\n"

    def test_comm(self, capsys):
        code, out, _ = run_cli(["comm", "Y", "X^3"], capsys)
        assert code == 0
        assert out == "3*X^2\n"

    def test_pow(self, capsys):
        code, out, _ = run_cli(["pow", "X^2*Y", "2"], capsys)
        assert code == 0
        assert out == "X^4*Y^2 + 2*X^3*Y\n"

    def test_leading(self, capsys):
        code, out, _ = run_cli(["leading", "X^4*Y^2 + 2*X^3*Y"], capsys)
        assert code == 0
        assert "diag degree: 2" in out
        assert "weight: (4, 2)" in out
        assert "leading term: X^4*Y^2" in out
        assert "monic: true" in out

    def test_leading_json(self, capsys):
        code, out, _ = run_cli(["leading", "2*X^3*Y", "--json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["weight"] == {"i": 3, "j": 1}
        assert data["leading_coeff"] == "2/1"
        assert data["monic"] is False

    def test_grade(self, capsys):
        code, out, _ = run_cli(["grade", "X + Y^2"], capsys)
        assert code == 0
        assert out == "grade -2: (1) * Y^2 = Y^2\ngrade 1: X * (1) = X\n"

    def test_homog_centralizer_line(self, capsys):
        code, out, _ = run_cli(["homog-centralizer", "X^2*Y", "--j", "2"], capsys)
        assert code == 0
        assert out == (
            "component at grade 2: line\n"
            "generator: X^2 * (Z^2 + Z)\n"
            "element: X^4*Y^2 + 2*X^3*Y\n"
        )

    def test_homog_centralizer_empty_exits_one(self, capsys):
        code, out, _ = run_cli(["homog-centralizer", "X^3*Y", "--j", "1"], capsys)
        assert code == 1
        assert out == "component at grade 1: empty\n"

    def test_homog_centralizer_diagonal(self, capsys):
        code, out, _ = run_cli(["homog-centralizer", "X*Y", "--j", "0"], capsys)
        assert code == 0
        assert out == "component at grade 0: all polynomials in X*Y\n"

    def test_centralizer_snapshot(self, capsys):
        code, out, _ = run_cli(["centralizer", "X^2", "--max-total-degree", "4"], capsys)
        assert code == 0
        assert out == (
            "sector: x\n"
            "direction: (1, 0)\n"
            "levels: [0, 1, 2, 3, 4]\n"
            "level gcd: 1\n"
            "period: 1\n"
            "basis level 0 (degree 0): 1\n"
            "basis level 1 (degree 1): X\n"
            "basis level 2 (degree 2): X^2\n"
            "basis level 3 (degree 3): X^3\n"
            "basis level 4 (degree 4): X^4\n"
            "pick 0 (level 1): X\n"
            "truncated: false\n"
        )

    def test_centralizer_json(self, capsys):
        code, out, _ = run_cli(
            ["centralizer", "X^2", "--max-total-degree", "4", "--json"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["levels"] == [0, 1, 2, 3, 4]
        assert data["level_gcd"] == 1
        assert data["period"] == 1
        assert data["direction"] == {"i": 1, "j": 0}
        assert data["basis"][1]["element"] == {"terms": [{"i": 1, "j": 0, "coeff": "1/1"}]}
        assert data["picks"][0]["level"] == 1
        assert data["truncated"] is False

    def test_decompose(self, capsys):
        code, out, _ = run_cli(
            ["decompose", "X^3 + 2*X", "--basis-of", "X^2", "--max-total-degree", "6"],
            capsys,
        )
        assert code == 0
        assert out == "degree: 3\npick 0: X\ncoefficient 0: Z^3 + 2*Z\n"

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=8, max_size=8))
    def test_decompose_degree_is_the_ray_degree(self, coeffs):
        # the CLI reads the degree off the decomposition; ray_degree expands
        basis = centralizer_basis(DIXMIER_L, 24)
        element = ZERO
        for c, e in zip(coeffs, basis.elements()):
            element = element + c * e
        # the element follows `--`, so that a single negative term such as
        # -1/2 is not read as an option
        argv = ["decompose", "--basis-of", format_element(DIXMIER_L), "--max-total-degree", "24", "--", format_element(element)]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0
        expected = ray_degree(element, basis) if element else 0
        assert out.getvalue().splitlines()[0] == f"degree: {expected}"

    def test_check_dixmier_snapshot(self, capsys):
        code, out, _ = run_cli(
            ["check-dixmier", "X+Y^2", "Y", "--max-total-degree", "6"], capsys
        )
        assert code == 0
        assert out == (
            "dixmier pair: true\n"
            "centralizer dimension: 4\n"
            "powers dimension: 4\n"
            "centralizer equals polynomials in P: true\n"
            "derivation nonzero picks: [0]\n"
            "constant degree drop: -1\n"
            "derivation kernel dimension: 1\n"
        )

    def test_check_dixmier_false_exits_one(self, capsys):
        code, out, _ = run_cli(["check-dixmier", "X", "X", "--max-total-degree", "4"], capsys)
        assert code == 1
        assert out == "dixmier pair: false\n"

    def test_gen_pair(self, capsys):
        code, out, _ = run_cli(["gen-pair", "--script", "addY:Y^2;addX:X^2"], capsys)
        assert code == 0
        assert out == "P = X^4 + 2*X^2*Y + Y^2 + 3*X\nQ = X^2 + Y\n"

    def test_gen_pair_fourier(self, capsys):
        code, out, _ = run_cli(["gen-pair", "--script", "fourier"], capsys)
        assert code == 0
        assert out == "P = Y\nQ = -X\n"

    def test_gen_pair_skips_empty_steps(self, capsys):
        code, out, _ = run_cli(["gen-pair", "--script", "addY:Y^2;;fourier;"], capsys)
        assert code == 0
        assert out == "P = X^2 + Y\nQ = -X\n"

    def test_oracle_check(self, capsys):
        code, out, _ = run_cli(["oracle-check", "Y*X", "X*Y + 1"], capsys)
        assert code == 0
        assert out == "equal: true\n"

    def test_oracle_check_false(self, capsys):
        code, out, _ = run_cli(["oracle-check", "X", "Y"], capsys)
        assert code == 1
        assert out == "equal: false\n"

    def test_oracle_check_mul(self, capsys):
        code, out, _ = run_cli(["oracle-check", "Y^2", "X^2", "--mul"], capsys)
        assert code == 0
        assert out == "product action law: true\n"


class TestExitCodes:
    def test_parse_error_is_two(self, capsys):
        code, _, err = run_cli(["normalize", "X +"], capsys)
        assert code == 2
        assert "syntax error" in err

    def test_contract_error_is_two(self, capsys):
        code, _, err = run_cli(["centralizer", "X*Y", "--max-total-degree", "6"], capsys)
        assert code == 2
        assert "error" in err

    def test_usage_error_is_two(self, capsys):
        code, _, _ = run_cli(["centralizer", "X^2"], capsys)
        assert code == 2

    def test_unknown_command_is_two(self, capsys):
        code, _, _ = run_cli(["frobnicate"], capsys)
        assert code == 2

    @pytest.mark.parametrize("text", ["1" * 5000, "X^" + "1" * 5000, "1/" + "1" * 5000])
    def test_huge_literal_is_two(self, capsys, text):
        code, _, err = run_cli(["normalize", text], capsys)
        assert code == 2
        assert "exceeds the limit of" in err

    def test_non_ascii_digit_is_two(self, capsys):
        code, _, err = run_cli(["normalize", "X^\u00b2"], capsys)
        assert code == 2
        assert "syntax error" in err

    @pytest.mark.parametrize(
        "script, message",
        [
            ("fourier:X", "fourier takes no polynomial"),
            ("addY", "addY requires a polynomial in Y alone"),
            ("foo:X", "unknown automorphism kind 'foo'"),
            ("addX Y", "unknown automorphism kind 'addX Y'"),
        ],
    )
    def test_malformed_script_step_is_two(self, capsys, script, message):
        with pytest.raises(MalformedInputError, match=message):
            _parse_script(script)
        assert run_cli(["gen-pair", "--script", script], capsys) == (2, "", f"error: {message}\n")

    def test_leading_minus_after_double_dash(self, capsys):
        # without "--" argparse reads "-X+Y" as an option
        assert run_cli(["normalize", "-X+Y"], capsys)[0] == 2
        assert run_cli(["normalize", "--", "-X+Y"], capsys) == (0, "-X + Y\n", "")
        assert run_cli(["mul", "--", "X", "-Y"], capsys) == (0, "-X*Y\n", "")


# stdout and exit code of `main`, recorded once and compared byte for byte;
# a change to any of them is a change of the command-line contract
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[case["id"] for case in GOLDEN])
def test_golden_output(case, capsys):
    code, out, _ = run_cli(case["argv"], capsys)
    assert (code, out) == (case["exit"], case["stdout"])


# the environment of a `python -m` run that imports this package
_SRC = str(Path(weylalg.__file__).parents[1])
_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}


def _python_dash_m(*argv: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `python -m argv...` on this package."""
    done = subprocess.run(
        [sys.executable, "-m", *argv], capture_output=True, text=True, env=_ENV, timeout=60,
    )
    return done.returncode, done.stdout, done.stderr


def test_python_dash_m_entry_point():
    """`python -m weylalg` runs `main` and leaves stderr empty."""
    assert _python_dash_m("weylalg", "normalize", "Y*X") == (0, "X*Y + 1\n", "")


def test_python_dash_m_cli_module():
    """`python -m weylalg.cli` leaves stderr empty: importing the package
    does not import `weylalg.cli`, so runpy does not warn that it is loaded
    twice."""
    assert _python_dash_m("weylalg.cli", "mul", "X", "Y") == (0, "X*Y\n", "")


def test_stdout_closed_early_exits_two_without_traceback():
    """A reader that leaves after 10 bytes of the 356 KB line of
    `pow "X+Y+1" 100`, far past the pipe buffer, as `head -c 10` does."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "weylalg", "pow", "X+Y+1", "100"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_ENV,
    )
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert head == b"X^100 + 10"
    assert "Traceback" not in err
    assert err.count("error:") <= 1


# sha256 of `centralizer --json` stdout at the scale the solver targets,
# recorded from the per-column assembly and the sparse_kernel descent that
# the shift assembly and the elimination on arrival replaced; the outputs
# (621 KB for L) are too large for cli_golden.json
SOLVER_SCALE_DIGESTS = [
    ("(Y^2 + X^3 + 1)^2 + 2*X", 60, "a22b083f606e4aa783f5ce60b1096aa6e47c06b37cf83a7b7c88a54a65aab0fb"),
    ("X + (Y + X^2)^3", 60, "093e6627aa4b78126c64682d15d5934c010fd501058617fd41d39adbef79b611"),
    ("addY:Y^2+Y; addX:X^3-2*X; addY:Y^3+1", 54, "e45ce7fc8f5f5a34ebb36e8156fa2cd8d900e7c1dc67cffdab222a180334fb16"),
    ("(Y^2 + X^3 + 1)^2 + 2*X", 100, "d9cadef192be53858ecf5efc9209d86d26933a875a88a66fb735db23bfb856f5"),
    ("X + (Y + X^2)^3", 100, "c6615465ae31285e7ea39591215524106f2b5544bef10d51fe6d9f70a704894a"),
]


@pytest.mark.parametrize(
    "source, bound, digest", SOLVER_SCALE_DIGESTS, ids=["L@60", "P6@60", "pair@54", "L@100", "P6@100"]
)
def test_centralizer_json_at_solver_scale(source, bound, digest, capsys):
    """A source with a ':' is a script, whose P is solved."""
    if ":" in source:
        source = format_element(dixmier_pair_from_script(_parse_script(source)).p)
    code, out, _ = run_cli(["centralizer", source, "--max-total-degree", str(bound), "--json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _nested(depth: int) -> str:
    return "(" * (depth - 1) + "X" + ")" * (depth - 1)


class TestSizeLimits:
    """Each cap at its edge: the largest allowed size runs, one more exits 2."""

    @pytest.mark.parametrize(
        "allowed, refused",
        [
            (["normalize", f"(1)^{MAX_EXPONENT}"], ["normalize", f"(1)^{MAX_EXPONENT + 1}"]),
            (["pow", "1", str(MAX_EXPONENT)], ["pow", "1", str(MAX_EXPONENT + 1)]),
            (["pow", "X+Y", str(MAX_DEGREE)], ["pow", "X+Y", "100000"]),
            (["normalize", f"X^{MAX_DEGREE}"], ["normalize", f"X^{MAX_DEGREE + 1}"]),
            (["normalize", f"(X*Y)^{MAX_DEGREE // 2}"], ["normalize", f"(X*Y)^{MAX_DEGREE // 2}*X"]),
            (["mul", "X^50", "Y^50"], ["mul", "X^50", "Y^51"]),
            (["comm", "X^50", "Y^50"], ["comm", "X^50", "Y^51"]),
            (["pow", "X", str(MAX_DEGREE)], ["pow", "X", str(MAX_DEGREE + 1)]),
            (["normalize", _nested(MAX_NESTING)], ["normalize", _nested(MAX_NESTING + 1)]),
            (
                ["centralizer", "X", "--max-total-degree", str(MAX_BOUND)],
                ["centralizer", "X", "--max-total-degree", str(MAX_BOUND + 1)],
            ),
            (
                ["homog-centralizer", "X^2", "--j", str(MAX_DEGREE)],
                ["homog-centralizer", "X^2", "--j", str(MAX_DEGREE + 1)],
            ),
            (
                ["gen-pair", "--script", "addY:Y^10; addX:X^10"],
                ["gen-pair", "--script", "addY:Y^10; addX:X^11"],
            ),
            (["oracle-check", "--mul", "X^50", "Y^50"], ["oracle-check", "--mul", "X^50", "Y^51"]),
        ],
    )
    def test_edge(self, capsys, allowed, refused):
        code, _, _ = run_cli(allowed, capsys)
        assert code == 0
        code, _, err = run_cli(refused, capsys)
        assert code == 2
        assert "exceeds the limit" in err or "nesting deeper" in err

    def test_coefficient_bits(self, capsys):
        # 2^(MAX_COEFF_BITS - 1) has exactly MAX_COEFF_BITS bits
        hundreds, rest = divmod(MAX_COEFF_BITS - 1, 100)
        code, _, _ = run_cli(["normalize", f"((2)^100)^{hundreds}*(2)^{rest}"], capsys)
        assert code == 0
        code, _, err = run_cli(["normalize", f"((2)^100)^{hundreds}*(2)^{rest + 1}"], capsys)
        assert code == 2
        assert f"limit of {MAX_COEFF_BITS} bits" in err

    def test_unprintable_result_is_two(self, capsys):
        big = "((10)^999)^4"
        code, _, err = run_cli(["comm", f"{big}*X", f"{big}*Y"], capsys)
        assert code == 2
        assert "too long to print" in err

    def test_huge_numeric_option_is_two(self, capsys):
        code, _, _ = run_cli(["pow", "X", "9" * 5000], capsys)
        assert code == 2
        code, _, _ = run_cli(["homog-centralizer", "X^2", "--j", "9" * 30], capsys)
        assert code == 2


_VALID_EXPR = st.recursive(
    st.sampled_from(["X", "Y", "0", "1", "2", "3/2"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*"), inner).map("".join),
        st.tuples(inner, st.integers(0, 6)).map(lambda t: f"({t[0]})^{t[1]}"),
        inner.map(lambda e: f"-({e})"),
    ),
    max_leaves=6,
)
_EXPR = st.one_of(
    _VALID_EXPR, st.text(alphabet="XY0123456789+-*/^() ", max_size=16), st.text(max_size=8)
)
_INT = st.one_of(
    st.integers(-3, 30).map(str), st.integers(MAX_BOUND + 1, 10**30).map(str), st.text(max_size=5)
)
_SCRIPT = st.one_of(st.text(alphabet="addXY:^0123456789;fourier ", max_size=24), st.text(max_size=8))


@st.composite
def cli_argv(draw):
    """A subcommand with arbitrary text in every argument."""
    command = draw(
        st.sampled_from(
            ["normalize", "mul", "comm", "pow", "leading", "grade", "homog-centralizer",
             "centralizer", "decompose", "check-dixmier", "gen-pair", "oracle-check", "other"]
        )
    )
    flag = lambda name: [name] if draw(st.booleans()) else []
    if command in ("normalize", "leading", "grade"):
        return [command, draw(_EXPR)] + (flag("--json") if command != "grade" else [])
    if command in ("mul", "comm", "oracle-check"):
        return [command, draw(_EXPR), draw(_EXPR)] + (flag("--mul") if command == "oracle-check" else [])
    if command == "pow":
        return [command, draw(_EXPR), draw(_INT)]
    if command == "homog-centralizer":
        return [command, draw(_EXPR), "--j", draw(_INT)]
    if command == "centralizer":
        return [command, draw(_EXPR), "--max-total-degree", draw(_INT)] + flag("--json")
    if command == "decompose":
        return [command, draw(_EXPR), "--basis-of", draw(_EXPR), "--max-total-degree", draw(_INT)]
    if command == "check-dixmier":
        return [command, draw(_EXPR), draw(_EXPR), "--max-total-degree", draw(_INT)]
    if command == "gen-pair":
        return [command, "--script", draw(_SCRIPT)]
    return draw(st.lists(st.text(max_size=8), max_size=4))


@settings(max_examples=300, deadline=None)
@given(cli_argv())
def test_main_exit_code_contract(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3)


def test_roundtrip_on_seeded_sample():
    rng = random.Random(424242)
    for _ in range(100):
        element = random_element(rng)
        assert parse_element(format_element(element)) == element
