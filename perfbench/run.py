#!/usr/bin/env python3
"""multigrank benchmark: one workload per run, end to end or layer by layer.

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root (or any checkout of it).  The program is run
from ``src/`` of that checkout; nothing is installed.  Workloads:

- ``cli_desk``: the README walkthrough as fresh ``python -m multigrank``
  processes at N=200 (gen; then pool, train, rank, eval).
- ``offline_n2000``: pool build and 5 training iterations at N=2000.
- ``online_n1000``: a closed-loop stream of 100 ``rank_online`` queries,
  one client, against a trained model at N=1000.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (spans recorded by perfbench/tracing.py around calls
into multigrank) plus the tracing overhead.  Each run checks its outputs
against perfbench/expected.json and exits nonzero when a check fails.  The
last stdout line is the JSON result.  ``--smoke`` runs every workload at tiny
N, traced and untraced, to check the harness itself in seconds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import layer_metrics, load_dumps

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
TIME_LIMIT_S = 170.0

_DATA = {"classes": 5, "dim": 32, "spread": 1.0, "separation": 5.0,
         "k_values": [5, 10], "sigma_multipliers": [0.5, 1.0, 2.0]}

# per_class includes the queries carved out of each class
WORKLOADS = {
    "cli_desk": dict(_DATA, per_class=40, queries_per_class=2, query_reps=30, setup_repeats=3),
    "offline_n2000": dict(_DATA, mode="offline", per_class=402, queries_per_class=2, iters=5,
                          query_reps=3, setup_repeats=3),
    "online_n1000": dict(_DATA, mode="online", per_class=220, queries_per_class=20,
                         setup_repeats=1),
}

SMOKE = {
    "cli_desk": dict(per_class=10, dim=8, query_reps=1, setup_repeats=1),
    "offline_n2000": dict(per_class=14, dim=8, iters=2, setup_repeats=1),
    "online_n1000": dict(per_class=14, dim=8, queries_per_class=4),
}

# end-to-end metrics in the JSON result (BENCHMARK.json end_to_end), then the
# ones only printed: on a shared 2-vCPU host whose speed drifts by up to 1.5x,
# they spread too widely from run to run to hold a bound (short single-process
# walls on cli_desk; the median of a latency mix that is bimodal there)
E2E_UNITS = {"setup_s": "s", "pipeline_s": "s", "query_p90_ms": "ms", "mean_auc": "auc",
             "peak_rss_mb": "MB"}
PRINTED_UNITS = {"query_p50_ms": "ms", "pool_s": "s", "train_s": "s", "queries_per_s": "1/s",
                 "query_samples": "count"}

# layers that must show work on each workload; a zero means a call site moved
_QUERY_LAYERS = [
    "cli.import_s", "dataset.fingerprint_s", "dataset.fingerprint_calls", "graphs.spec_grid_s",
    "graphs.knn_s", "graphs.build.gaussian_s", "graphs.build.dot_product_s",
    "graphs.build.cosine_s", "graphs.build.jaccard_s", "graphs.build.tanimoto_s",
    "graphs.edges", "graphs.extend_s", "graphs.edge_weight_calls", "ranker.combine_s",
    "ranker.solve_s", "ranker.solve_n", "ranker.rank_online_self_s", "evaluation.auc_s",
]
_TRAIN_LAYERS = [
    "dataset.relevance_s", "dataset.relevance_mb", "ranker.train_iters", "ranker.f_update_s",
    "ranker.smoothness_s", "ranker.weights_s", "ranker.f_update_rhs_cols",
]
_CLI_LAYERS = [
    "cli.gen_s", "cli.pool_s", "cli.train_s", "cli.rank_s", "cli.eval_s", "dataset.load_s",
    "graphs.save_pool_s", "graphs.load_pool_s", "graphs.pool_file_mb", "ranker.grank_online_s",
    "evaluation.evaluate_self_s", "evaluation.roc_curve_s",
]
NONZERO_LAYERS = {
    "cli_desk": _QUERY_LAYERS + _TRAIN_LAYERS + _CLI_LAYERS,
    "offline_n2000": _QUERY_LAYERS + _TRAIN_LAYERS,
    "online_n1000": _QUERY_LAYERS + _TRAIN_LAYERS,
}

# outputs checked against perfbench/expected.json, recorded by perfbench/record.py
OUTPUT_KEYS = ("mean_auc", "edges", "objective")
AUC_ABS_TOL = 1e-4
OBJECTIVE_REL_TOL = 1e-6


class Failed(Exception):
    """A step of the workload could not complete; the run is not correct."""


class Bench:
    """State of one benchmark run: settings, child processes, ops and checks."""

    def __init__(self, workload, seed, seconds, trace, smoke):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.smoke = smoke
        self.p = dict(WORKLOADS[workload], **(SMOKE[workload] if smoke else {}))
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.dir = WORK / f"{workload}-s{seed}-t{trace}{'-smoke' if smoke else ''}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.env = child_env()
        self.attempted = 0
        self.failures = []
        self.checks = []
        self._logs = 0

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    def spawn(self, argv, label):
        """Run a child to completion; returns (exit code, wall seconds, start time)."""
        self._logs += 1
        log = self.dir / f"{self._logs:02d}-{label}.log"
        with open(log, "w", encoding="utf-8") as fh:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=fh,
                                    stderr=subprocess.STDOUT)
            try:
                rc = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise Failed(f"{label}: time limit of {TIME_LIMIT_S:.0f} s reached") from None
            wall = time.monotonic() - t0
        if rc != 0:
            tail = log.read_text(encoding="utf-8", errors="replace").splitlines()[-15:]
            print(f"perfbench: {label} exited {rc}; log {log}:", *tail, sep="\n  ",
                  file=sys.stderr)
        return rc, wall, t0

    def cli(self, argv, label, traced):
        """One CLI command as one operation; a nonzero exit fails the run."""
        self.attempted += 1
        if traced:
            cmd = [sys.executable, str(HERE / "traced_cli.py"),
                   str(self.dir / f"{label}.spans.json"), *argv]
        else:
            cmd = [sys.executable, "-m", "multigrank", *argv]
        rc, wall, _ = self.spawn(cmd, label)
        self.check(f"{label}_exit_0", rc == 0, f"exit {rc}")
        if rc != 0:
            self.failures.append(label)
            raise Failed(f"{label} exited {rc}")
        return wall

    def worker(self, mode, label, params, trace=0, setup_only=False):
        out = self.dir / f"{label}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), mode, "--params", json.dumps(params),
               "--seed", str(self.seed), "--seconds", str(self.seconds), "--trace", str(trace),
               "--out", str(out)]
        if setup_only:
            cmd.append("--setup-only")
        rc, _, t_spawn = self.spawn(cmd, label)
        if not out.exists():
            self.attempted += 1
            self.failures.append(label)
            raise Failed(f"{label} wrote no result (exit {rc})")
        res = json.loads(out.read_text(encoding="utf-8"))
        self.attempted += res["ops"]
        self.failures.extend(f.splitlines()[0] for f in res["op_failures"])
        self.checks.extend(tuple(c) for c in res["checks"])
        if rc != 0:
            raise Failed(f"{label} exited {rc}")
        res["setup_s"] = res["t_first"] - t_spawn if "t_first" in res else None
        return res


def child_env():
    """Environment of every child: program from src/, BLAS threads fixed at nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def _cli_steps(d):
    data = ["--dataset", f"{d}/database.csv", "--pool", f"{d}/pool.json"]
    model = data + ["--model", f"{d}/model.json"]
    return [
        ("pool", ["pool", "--out", str(d)] + data),
        ("train", ["train", "--out", str(d)] + model + ["--level", "1"]),
        ("rank", ["rank", "--out", f"{d}/ranks"] + model + ["--queries", f"{d}/queries.csv"]),
        ("eval", ["eval", "--out", f"{d}/eval"] + model
         + ["--queries", f"{d}/queries.csv", "--level", "1"]),
    ]


def run_cli_desk(b):
    p, d = b.p, b.dir / "data"
    gen = ["gen", "--out", str(d), "--classes", str(p["classes"]), "--per-class",
           str(p["per_class"]), "--dim", str(p["dim"]), "--separation", str(p["separation"]),
           "--queries-per-class", str(p["queries_per_class"]), "--seed", str(b.seed)]
    setups = [b.cli(gen, "gen", b.trace) for _ in range(1 if b.trace else p["setup_repeats"])]

    passes = []
    if b.trace:
        # each command untraced and traced back to back, in ABBA order so that drift cancels
        untraced, traced = {}, {}
        for i, (cmd, argv) in enumerate(_cli_steps(d)):
            for on in ((False, True), (True, False))[i % 2]:
                (traced if on else untraced)[cmd] = b.cli(argv, f"{'t' if on else 'u'}-{cmd}", on)
        passes.append(untraced)
    else:
        start = time.monotonic()
        while not passes or time.monotonic() - start < b.seconds:
            passes.append({cmd: b.cli(argv, f"p{len(passes)}-{cmd}", False)
                           for cmd, argv in _cli_steps(d)})
    r = {"setup_s": setups, "pass_s": [sum(x.values()) for x in passes],
         "pool_s": [x["pool"] for x in passes], "train_s": [x["train"] for x in passes]}
    if b.trace:
        r["traced_pass_s"] = sum(traced.values())
        r["untraced_pass_s"] = r["pass_s"][0]
    r["pool_file_mb"] = (d / "pool.json").stat().st_size / 1e6

    q = b.worker("cli_queries", "queries", {"dir": str(d), "query_reps": p["query_reps"]})
    report = json.loads((d / "eval" / "multig_report.json").read_text(encoding="utf-8"))
    trace = json.loads((d / "model.json").read_text(encoding="utf-8"))["objective_trace"]
    b.check("eval_auc_equals_ranked_auc", abs(report["mean_auc"] - q["mean_auc"]) <= 1e-12,
            f"eval {report['mean_auc']!r}, rank_online {q['mean_auc']!r}")
    r.update(query_ms=q["query_ms"], query_wall_s=q["query_wall_s"], mean_auc=report["mean_auc"],
             edges=q["edges"], objective_trace=trace, machine=q["machine"])
    return r


def run_inprocess(b):
    p = b.p
    repeats = 1 if b.trace else p["setup_repeats"]
    setups = [b.worker(p["mode"], f"setup{i}", p, setup_only=True)["setup_s"]
              for i in range(repeats - 1)]
    r = b.worker(p["mode"], p["mode"], p, trace=b.trace)
    r["setup_s"] = setups + [r["setup_s"]]
    return r


def end_to_end(r):
    """Every end-to-end figure of one run; E2E_UNITS names the ones in the result."""
    ms = r["query_ms"]
    return {
        "setup_s": statistics.median(r["setup_s"]),
        "pipeline_s": statistics.median(r["pass_s"]),
        "query_p90_ms": p90(ms),
        "mean_auc": r["mean_auc"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "query_p50_ms": statistics.median(ms),
        "pool_s": statistics.median(r["pool_s"]),
        "train_s": statistics.median(r["train_s"]),
        "queries_per_s": len(ms) / r["query_wall_s"],
        "query_samples": len(ms),
    }


def traced_layers(b, r):
    dumps = sorted(str(f) for f in b.dir.glob("*.spans.json"))
    m = layer_metrics(*load_dumps(dumps))
    if "pool_file_mb" in r:
        m["graphs.pool_file_mb"] = r["pool_file_mb"]
    m["trace.overhead_s"] = r["traced_pass_s"] - r["untraced_pass_s"]
    m["trace.overhead_pct"] = 100.0 * m["trace.overhead_s"] / r["untraced_pass_s"]
    zero = [name for name in NONZERO_LAYERS[b.workload] if not m[name]]
    b.check("traced_layers_nonzero", not zero,
            "all layers recorded" if not zero else "zero: " + ", ".join(zero))
    return m


def check_expected(b, r):
    """Outputs must match what the seed commit computed for this workload and seed."""
    if b.smoke:
        return
    exp = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    rec = exp.get(b.workload, {}).get(str(b.seed))
    if rec is None:
        print(f"note: no recorded outputs for {b.workload} seed {b.seed}; "
              "checking invariants only", file=sys.stderr)
        return
    b.check("mean_auc_matches_record", abs(r["mean_auc"] - rec["mean_auc"]) <= AUC_ABS_TOL,
            f"{r['mean_auc']!r} vs recorded {rec['mean_auc']!r}")
    b.check("edges_match_record", r["edges"] == rec["edges"],
            f"{r['edges']} vs recorded {rec['edges']}")
    if "objective" in rec:
        b.check("objective_matches_record",
                abs(r["objective"] - rec["objective"]) <= OBJECTIVE_REL_TOL * abs(rec["objective"]),
                f"{r['objective']!r} vs recorded {rec['objective']!r}")


def run_one(workload, seed, seconds, trace, smoke=False):
    """Run one workload; returns (result dict for the last line, report lines)."""
    b = Bench(workload, seed, seconds, trace, smoke)
    lines = [f"perfbench workload={workload} seed={seed} seconds={seconds} trace={trace}"
             + (" smoke" if smoke else "")]
    metrics, r = {}, None
    try:
        r = run_cli_desk(b) if workload == "cli_desk" else run_inprocess(b)
        mean_auc = r["mean_auc"]
        b.check("mean_auc_in_range", 0.5 < mean_auc <= 1.0, repr(mean_auc))
        objective = r.get("objective_trace")
        if objective:
            b.check("objective_non_increasing",
                    all(y <= x + 1e-9 * abs(x) for x, y in zip(objective, objective[1:])),
                    f"{len(objective)} iterations")
            r["objective"] = objective[-1]
        check_expected(b, r)
        if trace:
            metrics = traced_layers(b, r)
        else:
            metrics = end_to_end(r)
            b.check("metrics_finite", all(math.isfinite(v) for v in metrics.values()))
    except Failed as exc:
        b.check("workload_completed", False, str(exc))
    failed_checks = [c for c in b.checks if not c[1]]
    attempted = b.attempted + len(b.checks)
    failed = len(b.failures) + len(failed_checks)
    machine = dict((r or {}).get("machine", {}), seed=seed,
                   blas_threads_env=b.env["OPENBLAS_NUM_THREADS"])
    lines.append("machine " + json.dumps(machine, sort_keys=True))
    if r is not None:
        lines.append("outputs " + json.dumps({k: r[k] for k in OUTPUT_KEYS if k in r}))
    for name, value in metrics.items():
        printed_only = " (printed only)" if name in PRINTED_UNITS else ""
        lines.append(f"  {name:<28} {value:>14.6g} {_unit(name)}{printed_only}")
    lines.append(f"  {'error_rate':<28} {failed / attempted if attempted else 1.0:>14.6g} "
                 f"({failed}/{attempted})")
    for name, ok, detail in b.checks:
        lines.append(f"  check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    result = {
        "correct": failed == 0 and r is not None,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": _unit(name)}
            for name, value in metrics.items() if name not in PRINTED_UNITS
        },
    }
    return result, lines


def _unit(name):
    if name in E2E_UNITS or name in PRINTED_UNITS:
        return {**E2E_UNITS, **PRINTED_UNITS}[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_pct"):
        return "%"
    return "count"


def smoke():
    """Every workload at tiny N, both modes; results must match BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = [{m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")]
    ok = [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    if not ok:
        print("smoke: BENCHMARK.json workloads differ from run.py WORKLOADS")
    for workload in WORKLOADS:
        for trace in (0, 1):
            t0 = time.monotonic()
            result, lines = run_one(workload, 0, 0.0, trace, smoke=True)
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            good = result["correct"] and units == declared[trace]
            ok &= good
            print(f"smoke {workload:<14} trace={trace} {'ok' if good else 'FAILED'} "
                  f"({time.monotonic() - t0:.1f} s)")
            if not good:
                print("\n".join(lines))
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="every workload at tiny N")
    args = ap.parse_args()
    if not (ROOT / "src" / "multigrank" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'multigrank'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required (or --smoke)")
    result, lines = run_one(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
