#!/usr/bin/env python3
"""Record the outputs run.py checks (mean_auc, edges, objective) per workload and seed.

    python3 perfbench/record.py --seeds 0 23 [--workloads NAME ...] [--jobs 2]

Runs ``run.py --trace 0 --seconds 0`` for every workload and seed in the
inclusive range and merges the ``outputs`` line of each run into
perfbench/expected.json.  Recorded values are what the commit being run
computes; record at the commit whose outputs later commits must reproduce.
Runs in parallel when --jobs > 1, so their timings are not used.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def outputs(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("outputs ")]
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no outputs line\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    failed = [ln for ln in proc.stdout.splitlines()
              if "check FAIL" in ln and "_matches_record" not in ln]
    if failed:
        raise RuntimeError(f"{workload} seed {seed}: " + "; ".join(failed))
    print(f"{workload} seed {seed}: {lines[0][8:]} (correct={result['correct']})", flush=True)
    return json.loads(lines[0][len("outputs "):])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs=2, required=True, metavar=("FIRST", "LAST"))
    ap.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS), default=list(WORKLOADS))
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()
    jobs = [(w, s) for w in args.workloads for s in range(args.seeds[0], args.seeds[1] + 1)]
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        results = list(pool.map(lambda job: outputs(*job), jobs))
    path = HERE / "expected.json"
    expected = json.loads(path.read_text(encoding="utf-8"))
    for (workload, seed), out in zip(jobs, results):
        expected.setdefault(workload, {})[str(seed)] = out
    for workload in expected:
        expected[workload] = dict(sorted(expected[workload].items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
