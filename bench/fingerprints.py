"""Regenerate bench/fingerprints.json.

    python3 bench/fingerprints.py

Runs every job whose input does not depend on the seed once, untimed, and
records a hash of its canonical output.  `run.py` prints each job's hash
next to the recorded one, so a refactor can show that its outputs did not
change.  The hashes are not a correctness gate: the checks in checks.py
are.  Regenerate the file only when a change is meant to alter outputs.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    wl = run.import_weylalg()
    table = {}
    for workload in sorted(workloads.BUILDERS):
        table[workload] = {}
        for job in workloads.build(workload, wl, seed=0):
            if job.seeded:
                continue
            text, _ = job.run()
            table[workload][job.name] = run.fingerprint(text)
            print(f"{workload:8} {job.name:48} {table[workload][job.name]}", flush=True)
    run.FINGERPRINTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {run.FINGERPRINTS.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
