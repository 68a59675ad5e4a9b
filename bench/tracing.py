"""Per-layer tracing by wrapping the program's functions in place.

`Tracer.install` replaces each traced function with a wrapper in every
`weylalg` module that binds it (`from .core import mul` binds `mul` in each
importing module, so patching `core` alone would miss most calls), and
`uninstall` puts the originals back.  The one exception is
`centralizer.verify`: it wraps `commutator` only where the solvers look it
up, in `weylalg.centralizer`, so it measures the exact re-verification of
their results and nothing else.

Spans are timed in process time, like the jobs (see refclock.py).  Spans
nest.  A span's self time is its duration minus the spans it
encloses; its inclusive time counts only the outermost call of the same
name, so recursion-free nesting of one name (`format_element` inside
`basis_to_json`) is not counted twice.  Counters run after the span has
been timed, and their cost is taken out of every enclosing span, so the
work counts do not inflate the times.  The wrappers themselves still cost
a little on every call; the benchmark reports that as the tracing overhead.
"""

from __future__ import annotations

import sys
from time import process_time

# (module, attribute, span name, patched in every module that binds it)
SPANS = [
    ("linalg", "sparse_kernel", "linalg.sparse_kernel", True),
    ("linalg", "sparse_solvable", "linalg.sparse_solvable", True),
    ("linalg", "dense_kernel", "linalg.dense_kernel", True),
    ("centralizer", "centralizer_basis", "centralizer.basis", True),
    ("centralizer", "_ad_matrix_rows", "centralizer.assembly", True),
    ("centralizer", "_rref_by_leading", "centralizer.rref", True),
    ("centralizer", "commutator", "centralizer.verify", False),
    ("centralizer", "homogeneous_centralizer_component", "centralizer.homogeneous", True),
    ("centralizer", "expand_in_basis", "centralizer.expand", True),
    ("centralizer", "decompose", "centralizer.decompose", True),
    ("derivation", "ElementaryAutomorphism.apply", "derivation.apply", True),
    ("derivation", "check_dixmier_pair", "derivation.check", True),
    ("derivation", "derivation_report", "derivation.report", True),
    ("derivation", "no_partner_check", "derivation.no_partner", True),
    ("core", "mul", "core.mul", True),
    ("core", "power", "core.power", True),
    ("graded", "to_graded_form", "graded.to_graded_form", True),
    ("graded", "from_graded_form", "graded.from_graded_form", True),
    ("graded", "evaluate_at_element", "graded.evaluate", True),
    ("cli", "parse_element", "cli.parse", True),
    ("cli", "format_element", "cli.format", True),
    ("cli", "format_xy_polynomial", "cli.format", True),
    ("cli", "format_graded_form", "cli.format", True),
    ("cli", "element_to_json", "cli.format", True),
    ("cli", "basis_to_json", "cli.format", True),
]

SPAN_NAMES = {span for _, _, span, _ in SPANS}

# Per-layer metrics: (name, unit).  A name ending in .self_s reads the span's
# self time, .s its inclusive time, .calls its call count; any other name is
# a counter.
LAYER_METRICS = [
    ("linalg.sparse_kernel.self_s", "s"),
    ("linalg.sparse_kernel.calls", "count"),
    ("linalg.sparse_solvable.self_s", "s"),
    ("linalg.dense_kernel.self_s", "s"),
    ("linalg.dense_kernel.calls", "count"),
    ("linalg.rows", "count"),
    ("linalg.cols", "count"),
    ("linalg.nnz", "count"),
    ("linalg.kernel_dim", "count"),
    ("linalg.coeff_bits_max", "bits"),
    ("centralizer.basis.s", "s"),
    ("centralizer.basis.calls", "count"),
    ("centralizer.assembly.s", "s"),
    ("centralizer.rref.s", "s"),
    ("centralizer.verify.s", "s"),
    ("centralizer.homogeneous.s", "s"),
    ("centralizer.expand.s", "s"),
    ("centralizer.decompose.s", "s"),
    ("derivation.apply.s", "s"),
    ("derivation.apply.calls", "count"),
    ("derivation.check.self_s", "s"),
    ("derivation.report.s", "s"),
    ("derivation.no_partner.s", "s"),
    ("core.mul.self_s", "s"),
    ("core.mul.calls", "count"),
    ("core.mul.term_pairs", "count"),
    ("core.power.calls", "count"),
    ("graded.to_graded_form.self_s", "s"),
    ("graded.from_graded_form.self_s", "s"),
    ("graded.evaluate.self_s", "s"),
    ("cli.parse.self_s", "s"),
    ("cli.format.self_s", "s"),
]


def _count_matrix(counts: dict, rows, ncols: int) -> None:
    counts["linalg.rows"] = counts.get("linalg.rows", 0) + len(rows)
    counts["linalg.cols"] = counts.get("linalg.cols", 0) + ncols
    counts["linalg.nnz"] = counts.get("linalg.nnz", 0) + sum(len(r) for r in rows)


def _count_sparse_kernel(counts: dict, args, result) -> None:
    _count_matrix(counts, args[0], args[1])
    counts["linalg.kernel_dim"] = counts.get("linalg.kernel_dim", 0) + len(result)
    bits = counts.get("linalg.coeff_bits_max", 0)
    for vec in result:
        for v in vec.values():
            bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
    counts["linalg.coeff_bits_max"] = bits


def _count_sparse_solvable(counts: dict, args, result) -> None:
    _count_matrix(counts, args[0], args[1])


def _count_mul(counts: dict, args, result) -> None:
    counts["core.mul.term_pairs"] = (
        counts.get("core.mul.term_pairs", 0) + len(args[0].terms) * len(args[1].terms)
    )


COUNTERS = {
    "linalg.sparse_kernel": _count_sparse_kernel,
    "linalg.sparse_solvable": _count_sparse_solvable,
    "core.mul": _count_mul,
}


class Tracer:
    """Span and counter collection for the imported `weylalg` package."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds, inclusive seconds]
        self.counts: dict[str, int] = {}
        self.edges: dict[tuple[str, str], list] = {}  # (parent, child) -> [calls, seconds]
        self._stack: list[list] = []  # [name, child seconds, excluded seconds]
        self._depth: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    def _modules(self):
        return [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "weylalg" or name.startswith("weylalg."))
        ]

    def _wrap(self, name: str, fn):
        stats, counts, edges = self.stats, self.counts, self.edges
        stack, depth = self._stack, self._depth
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            frame = [name, 0.0, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            t0 = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = process_time() - t0 - frame[2]
                stack.pop()
                depth[name] -= 1
                s = stats.setdefault(name, [0, 0.0, 0.0])
                s[0] += 1
                s[1] += dt - frame[1]
                if not depth[name]:
                    s[2] += dt
                edge = edges.setdefault((parent[0] if parent else "", name), [0, 0.0])
                edge[0] += 1
                edge[1] += dt
                if parent is not None:
                    parent[1] += dt
            if counter is not None:
                c0 = process_time()
                counter(counts, args, result)
                self.exclude(process_time() - c0)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {m.__name__.rsplit(".", 1)[-1]: m for m in self._modules()}
        for module_name, attr, span, everywhere in SPANS:
            owner = modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, method, self._wrap(span, vars(cls)[method]))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span, original)
            targets = self._modules() if everywhere else [owner]
            for m in targets:
                for key, value in list(vars(m).items()):
                    if value is original and (everywhere or key == attr):
                        self._patch(m, key, wrapper)

    def _patch(self, target, key: str, value) -> None:
        self._patches.append((target, key, vars(target)[key]))
        setattr(target, key, value)

    def exclude(self, seconds: float) -> None:
        """Take time spent outside the program out of every open span."""
        for frame in self._stack:
            frame[2] += seconds

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    def take(self) -> dict[str, float]:
        """Per-layer metric values since the last take, then reset."""
        out: dict[str, float] = {}
        for metric, _ in LAYER_METRICS:
            base, _, field = metric.rpartition(".")
            if field in ("self_s", "s", "calls") and base in SPAN_NAMES:
                s = self.stats.get(base, [0, 0.0, 0.0])
                out[metric] = {"calls": s[0], "self_s": s[1], "s": s[2]}[field]
            else:
                out[metric] = self.counts.get(metric, 0)
        self.stats.clear()
        self.counts.clear()
        return out
