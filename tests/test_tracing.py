"""The benchmark's per-layer tracer still fits the package.

`bench/tracing.py` patches the functions named in `SPANS` by module and
attribute name, so a rename or a removed function in `weylalg` breaks
`bench/run.py --trace 1`; these tests catch that in the main suite.
"""

import sys
from pathlib import Path

import weylalg
from weylalg.cli import parse_element

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402

DIXMIER_L = parse_element("(Y^2 + X^3 + 1)^2 + 2*X")


def _owner(module: str, attr: str):
    owner = getattr(weylalg, module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _package_namespaces() -> dict[str, dict]:
    """A copy of the namespace of every weylalg module and class."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "weylalg" or name.startswith("weylalg.")):
            continue
        out[name] = dict(vars(module))
        for key, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == name:
                out[f"{name}.{key}"] = dict(vars(value))
    return out


def test_every_span_resolves():
    for module, attr, _, _ in tracing.SPANS:
        owner, name = _owner(module, attr)
        assert callable(getattr(owner, name, None)), f"{module}.{attr}"


def test_install_then_uninstall_restores_every_function():
    before = _package_namespaces()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module, attr, _, _ in tracing.SPANS:
            owner, name = _owner(module, attr)
            assert hasattr(vars(owner)[name], "__wrapped__"), f"{module}.{attr}"
        # through the package: the name bound in this module is not patched.
        # Dixmier's L at 9 has 3 basis vectors, above the floor of its 2
        # powers, in either sector
        weylalg.centralizer_basis(DIXMIER_L, 9)
        weylalg.centralizer_basis(weylalg.transpose(DIXMIER_L), 9)
    finally:
        tracer.uninstall()
    assert tracer.stats["centralizer.basis"][0] == 2
    # one packed re-verification per basis above the floor
    assert tracer.stats["centralizer.verify"][0] == 2
    after = _package_namespaces()
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        changed = [k for k, v in namespace.items() if after[name].get(k) is not v]
        assert not changed, f"{name}: {changed}"
