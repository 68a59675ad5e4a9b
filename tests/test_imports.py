"""Every imported name in src/ and tests/ is used.

No linter runs on this repository, so this stdlib-only scan is the check
for unused imports.  A name counts as used when it appears as an
identifier anywhere in the module, or inside a string annotation.  The
package's `__init__.py` only re-exports, so it is not scanned.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
REEXPORTS = ROOT / "src" / "weylalg" / "__init__.py"


def _imported(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _referenced(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for note in _annotations(tree):
        for node in ast.walk(note) if note is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _referenced(ast.parse(node.value, mode="eval"))
    return used


def unused_imports(source: str) -> list[tuple[str, int]]:
    """(name, line) of each imported name that the module never references."""
    tree = ast.parse(source)
    used = _referenced(tree)
    return sorted((name, line) for name, line in _imported(tree).items() if name not in used)


def _modules() -> list[Path]:
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    return [path for path in paths if path != REEXPORTS]


@pytest.mark.parametrize("path", _modules(), ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_an_unused_import():
    source = "from fractions import Fraction\nimport math\nfrom typing import Iterable\n"
    source += "def f(x: 'Iterable[int]'):\n    return math.pi\n"
    assert unused_imports(source) == [("Fraction", 1)]
