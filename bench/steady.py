"""Steadiness check: run each workload N times and report each metric's spread.

    python3 bench/steady.py --runs 10 [--workloads solve pairs] [--first-seed 1]
                            [--seconds S] [--against OLD.json]

Runs `bench/run.py` one process at a time, each run with its own seed, and
prints for every metric its median, quartiles (`statistics.quantiles`,
n=4) and spread = (q3 - q1) / median.  An end-to-end metric whose spread
exceeds its bound in BENCHMARK.json is flagged; so is a workload whose
share of failed operations differs between runs.  With --against, each
median is also compared with the same metric's median in an earlier
result file, and flagged when it is worse by more than the bound.
Results go to bench/out/steady-<time>.json.  Exit code 1 when anything
is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--against", type=Path, help="an earlier steady result to compare medians with")
    args = parser.parse_args(argv)
    earlier = json.loads(args.against.read_text())["summary"] if args.against else {}

    flagged = 0
    results: dict[str, list] = {}
    summary: dict[str, dict] = {}
    for workload in args.workloads:
        runs = []
        for k in range(args.runs):
            t0 = time.perf_counter()
            runs.append(run_once(workload, args.first_seed + k, args.seconds))
            print(f"{workload} seed {args.first_seed + k}: {time.perf_counter() - t0:.1f} s wall", flush=True)
        results[workload] = runs
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{workload}: {len(runs)} runs, failed share {sorted(shares)}, "
              f"correct {all(r['correct'] for r in runs)}")
        if len(shares) > 1 or not all(r["correct"] for r in runs):
            flagged += 1
            print("  FLAG: failed share differs between runs, or a run was not correct")
        summary[workload] = {}
        for name in runs[0]["metrics"]:
            s = summarize([r["metrics"][name]["value"] for r in runs])
            summary[workload][name] = s
            line = (f"  {name:32} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                    f"  spread {100 * s['spread']:.1f}%")
            if name in bounds:
                line += f" (bound {100 * bounds[name]:.0f}%)"
                if s["spread"] > bounds[name]:
                    flagged += 1
                    line += "  FLAG: spread over bound"
                old = earlier.get(workload, {}).get(name)
                if old:
                    change = (s["median"] - old["median"]) / old["median"]
                    worse = change if better[name] == "lower" else -change
                    line += f"  vs earlier {100 * change:+.1f}%"
                    if worse > bounds[name]:
                        flagged += 1
                        line += "  FLAG: worse than earlier by more than bound"
            print(line)
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps({"args": {k: str(v) for k, v in vars(args).items()},
                                "summary": summary, "runs": results}, indent=1) + "\n")
    print(f"\nwrote {path.relative_to(ROOT)}; {flagged} flag(s)")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
