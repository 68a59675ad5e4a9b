"""Benchmark for weylalg: one workload, one process, one thread.

    python3 bench/run.py --workload solve|pairs|algebra --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src/`.
The run times `SETUPS` fresh set-ups (import of weylalg with new module
objects, parsing every input, building every automorphism script), then
loops over the workload's jobs in whole rounds until the next round would
pass `--seconds`.  Round 0 is the check round: every output is checked
independently (see checks.py) and its times are not used.  Later rounds
compare each output byte for byte with the checked one.  Every span is
reported in reference-adjusted seconds (see refclock.py).

With `--trace 0` the last line of standard output is a JSON object holding
the end-to-end metrics: setup_s (median set-up), small_s and large_s (sums
of the per-job median times of each tier) and peak_rss_mb.  With
`--trace 1` the timed rounds alternate between traced and untraced, and the
JSON holds the per-layer metrics (medians over traced rounds) plus the
tracing overhead.  Results and traces are also written under bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
import refclock
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
FINGERPRINTS = BENCH_DIR / "fingerprints.json"
SETUPS = 15
# a stdlib module weylalg imports is loaded once per process, so it is
# loaded before the first set-up to make every set-up do the same work
STDLIB_USED = ("argparse", "dataclasses", "enum", "fractions", "functools", "json", "math", "random", "typing")


def fingerprint(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def import_weylalg():
    """Import weylalg from the checkout's src/ with fresh module objects."""
    for name in [n for n in sys.modules if n == "weylalg" or n.startswith("weylalg.")]:
        del sys.modules[name]
    return importlib.import_module("weylalg")


def set_up(clock: refclock.Clock, workload: str, seed: int):
    """Time SETUPS set-ups; return (adjusted times, package, jobs) of the last."""

    def once():
        wl = import_weylalg()
        return wl, workloads.build(workload, wl, seed)

    times = []
    for _ in range(SETUPS):
        span, _, (wl, jobs) = timed(clock, once)
        times.append(span)
    if Path(wl.__file__).resolve().parent != SRC / "weylalg":
        raise ImportError(f"weylalg was imported from {wl.__file__}, not from {SRC}")
    return times, wl, jobs


def timed(clock: refclock.Clock, call):
    """clock.timed(call), starting from a collected heap."""
    gc.collect()
    return clock.timed(call)


def add_layers(total: dict, sample: dict, factor: float) -> None:
    for metric, unit in tracing.LAYER_METRICS:
        value = sample[metric] * factor if unit == "s" else sample[metric]
        if metric == "linalg.coeff_bits_max":
            total[metric] = max(total.get(metric, 0), value)
        else:
            total[metric] = total.get(metric, 0) + value


class Run:
    """State of one benchmark run: outputs, times and failures per job."""

    def __init__(self, clock: refclock.Clock, workload: str, wl, jobs, seed: int, tracer):
        self.clock, self.workload, self.wl, self.jobs, self.seed = clock, workload, wl, jobs, seed
        self.tracer = tracer
        self.checked: dict[str, str] = {}
        self.times: dict[str, list[float]] = {job.name: [] for job in jobs}
        self.process_times: dict[str, list[float]] = {job.name: [] for job in jobs}
        self.round_totals: dict[bool, list[float]] = {False: [], True: []}
        self.layers: list[dict[str, float]] = []
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.timing = False

    def fail_check(self, job, message: str) -> None:
        self.correct = False
        print(f"check failed: {job.name}: {message}", flush=True)

    def round(self, index: int, traced: bool) -> None:
        """One pass over every job; round 0 checks, later rounds time."""
        self.timing = index > 0
        total = 0.0
        layer: dict[str, float] = {}
        if traced:
            self.tracer.install()
            self.clock.on_sample = self.tracer.exclude
            # parsing happens in set-up, so a traced rebuild of the inputs
            # supplies cli.parse; the rest of that sample is set-up work
            _, factor, _ = timed(self.clock, lambda: workloads.build(self.workload, self.wl, self.seed))
            layer["cli.parse.self_s"] = self.tracer.take()["cli.parse.self_s"] * factor
        try:
            for job in self.jobs:
                for repeat in range(job.repeats):
                    total += self.attempt(job, index == 0 and repeat == 0, traced, layer)
        finally:
            if traced:
                self.tracer.uninstall()
                self.clock.on_sample = None
        if self.timing:
            self.round_totals[traced].append(total)
            if traced:
                self.layers.append(layer)

    def attempt(self, job, check: bool, traced: bool, layer: dict) -> float:
        """Run the job once; check or compare its output; return its adjusted time."""
        self.attempted += 1
        try:
            span, factor, (text, result) = timed(self.clock, job.run)
        except Exception:
            self.failed += 1
            print(f"job failed: {job.name}", flush=True)
            traceback.print_exc()
            return 0.0
        finally:
            sample = self.tracer.take() if traced else None
        if sample is not None:
            add_layers(layer, sample, factor)
        if check:
            self.check(job, text, result)
        elif text != self.checked.get(job.name):
            self.fail_check(job, "output differs from its checked output")
        elif self.timing and not traced:
            self.times[job.name].append(span)
            self.process_times[job.name].append(span / factor)
        return span

    def check(self, job, text: str, result) -> None:
        rng = workloads.random.Random(f"{self.seed}:{job.name}")
        try:
            job.check(self.wl, text, result, rng)
        except checks.CheckError as exc:
            self.fail_check(job, str(exc))
            return
        self.checked[job.name] = text


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def load_fingerprints() -> dict:
    try:
        return json.loads(FINGERPRINTS.read_text())
    except FileNotFoundError:
        return {}


def report(run: Run, setups: list[float], trace: bool) -> dict:
    """Print the per-job summary; return the metrics of the result line."""
    known = load_fingerprints().get(run.workload, {})
    print(f"workload {run.workload}: seed {run.seed}, {len(run.jobs)} jobs per round")
    for job in run.jobs:
        text = run.checked.get(job.name)
        fp = fingerprint(text) if text is not None else "-"
        if job.seeded:
            status = "seeded"
        elif job.name not in known:
            status = "not in fingerprints.json"
        else:
            status = "same as fingerprints.json" if known[job.name] == fp else "differs from fingerprints.json"
        times = run.times[job.name]
        process = median(run.process_times[job.name])
        print(f"  {job.tier:5} {job.name:46} {median(times):8.4f} s (process {process:8.4f} s)"
              f" over {len(times)}  fingerprint {fp} ({status})")
    for tier in ("small", "large"):
        process = sum(median(run.process_times[j.name]) for j in run.jobs if j.tier == tier)
        print(f"  {tier}_s in process seconds, not adjusted: {process:.4f} s")
    if not trace:
        metrics = {
            "setup_s": (median(setups), "s"),
            "small_s": (sum(median(run.times[j.name]) for j in run.jobs if j.tier == "small"), "s"),
            "large_s": (sum(median(run.times[j.name]) for j in run.jobs if j.tier == "large"), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = {
            name: (median([layer.get(name, 0) for layer in run.layers]), unit)
            for name, unit in tracing.LAYER_METRICS
        }
        untraced = median(run.round_totals[False])
        traced = median(run.round_totals[True])
        metrics["trace.untraced_round_s"] = (untraced, "s")
        metrics["trace.traced_round_s"] = (traced, "s")
        metrics["trace.overhead_s"] = (traced - untraced, "s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34} {value:.6g} {unit}")
    print(f"  attempted {run.attempted}, failed {run.failed}, correct {'true' if run.correct else 'false'}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def write_out(name: str, data) -> None:
    try:
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / name).write_text(json.dumps(data, indent=1) + "\n")
    except OSError as exc:
        print(f"could not write {name}: {exc}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "weylalg" / "__init__.py").is_file():
        print(f"no weylalg sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for name in STDLIB_USED:
        importlib.import_module(name)

    clock = refclock.Clock()
    setups, wl, jobs = set_up(clock, args.workload, args.seed)
    trace = bool(args.trace)
    run = Run(clock, args.workload, wl, jobs, args.seed, tracing.Tracer() if trace else None)
    deadline = perf_counter() + args.seconds
    min_rounds = 3 if trace else 2
    durations: list[float] = []
    index = 0
    while True:
        t0 = perf_counter()
        run.round(index, traced=trace and index % 2 == 1)
        durations.append(perf_counter() - t0)
        index += 1
        # the next round is like the last one of the same kind
        estimate = durations[-2] if trace and len(durations) >= 2 else durations[-1]
        if index >= min_rounds and perf_counter() + estimate > deadline:
            break

    metrics = report(run, setups, trace)
    result = {"correct": run.correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    jobs = {name: {"adjusted_s": run.times[name], "process_s": run.process_times[name]} for name in run.times}
    write_out(f"result-{tag}.json", {**result, "setups_s": setups, "jobs": jobs})
    if trace:
        edges = [
            {"parent": parent, "span": span, "calls": calls, "process_s": seconds}
            for (parent, span), (calls, seconds) in sorted(run.tracer.edges.items())
        ]
        write_out(f"trace-{tag}.json", {"rounds": run.layers, "edges": edges})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
