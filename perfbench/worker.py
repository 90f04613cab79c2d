"""In-process part of a perfbench workload; run in a fresh process by run.py.

    python3 perfbench/worker.py MODE --params JSON --seed S --seconds T --trace 0|1 --out FILE

MODE is ``offline``, ``online`` or ``cli_queries``.  The worker writes one
JSON result to FILE (and, when traced, its spans next to it); run.py turns
that into metrics and checks.  Every call into multigrank goes through a
module attribute (``ranker.rank_online``, not ``rank_online``) so that the
tracer's wrappers see it.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent


def machine_record() -> dict:
    """Interpreter, numpy/scipy and BLAS description of this process."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads[Path(lib).name] = fn()
                    break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads or os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


class Run:
    """Mutable record of one worker invocation, written out as its result."""

    def __init__(self, args, tracer):
        self.args = args
        self.params = json.loads(args.params)
        self.tracer = tracer
        self.out = {"ops": 0, "op_failures": [], "checks": []}

    def op(self, label, fn, *a, **kw):
        """One counted operation; exceptions are recorded and re-raised."""
        self.out["ops"] += 1
        if self.tracer is not None:
            self.tracer.op = label
        try:
            return fn(*a, **kw)
        except Exception:
            self.out["op_failures"].append(f"{label}: {traceback.format_exc(limit=3)}")
            raise

    def check(self, name, ok, detail=""):
        self.out["checks"].append([name, bool(ok), detail])

    def traced(self, on: bool):
        """Switch the wrappers on or off; no-op in an untraced run."""
        if self.tracer is None or on == self.tracer.installed:
            return
        if on:
            self.tracer.install()
        else:
            self.tracer.uninstall()


def _data(p, seed):
    from multigrank import dataset

    full = dataset.generate_synthetic(
        p["classes"], p["per_class"], p["dim"], p["spread"], p["separation"], seed
    )
    return dataset.split_queries(full, p["queries_per_class"], "disjoint")


def _relevant_masks(db, queries):
    import numpy as np

    labels = np.array([rec.label[0] for rec in db.records])
    return [labels == q.label[0] for q in queries.records]


def _pool(p, db):
    from multigrank import graphs

    specs = graphs.default_spec_grid(
        db, k_values=tuple(p["k_values"]), sigma_multipliers=tuple(p["sigma_multipliers"])
    )
    return graphs.build_pool(db, specs)


def _edges(pool) -> int:
    return sum(int(g.weights.nnz) // 2 for g in pool.graphs)


def _queries(run, model, pool, db, queries, reps):
    """Closed loop, one client: each query is sent when the previous returns.

    In a traced run every query runs twice, untraced and traced, in
    alternating order so that drift cancels; the difference of the two sums
    is the tracing overhead.  Returns untraced latencies (ms), the first
    repetition's rankings, the loop's wall time and the traced seconds.
    """
    from multigrank import ranker

    modes = [(False, True), (True, False)] if run.tracer is not None else [(False,)]
    ms, ranked, traced_s = [], [], 0.0
    t0 = time.perf_counter()
    for rep in range(reps):
        for i, q in enumerate(queries.records):
            for on in modes[i % len(modes)]:
                run.traced(on)
                a = time.perf_counter()
                try:
                    r = run.op(f"query:{q.id}", ranker.rank_online, model, pool, db,
                               q.features, query_id=q.id)
                except Exception:
                    continue
                dt = time.perf_counter() - a
                if on:
                    traced_s += dt
                    continue
                ms.append(dt * 1e3)
                if rep == 0:
                    ranked.append(r)
    return ms, ranked, time.perf_counter() - t0, traced_s


def _score(run, ranked, db, queries):
    """Mean level-1 AUC of the stored rankings, plus a permutation check."""
    from multigrank import evaluation

    run.traced(True)
    masks = _relevant_masks(db, queries)
    perm_ok = all(sorted(r.order.tolist()) == list(range(db.n)) for r in ranked)
    run.check("rankings_are_permutations", perm_ok and len(ranked) == queries.n,
              f"{len(ranked)}/{queries.n} rankings")
    aucs = [evaluation.auc_from_scores(r.scores, m) for r, m in zip(ranked, masks)]
    return sum(aucs) / len(aucs) if aucs else float("nan")


def offline(run):
    """Timed phase: default grid + pool build, then relevance + training."""
    from multigrank import dataset, ranker

    p, a = run.params, run.args
    db, queries = _data(p, a.seed)
    run.out["t_first"] = time.monotonic()
    if a.setup_only:
        return

    def build(on):
        run.traced(on)
        t0 = time.perf_counter()
        pool = run.op("pool", _pool, p, db)
        return pool, time.perf_counter() - t0

    def train(pool, on):
        run.traced(on)
        t0 = time.perf_counter()
        rel = run.op("relevance", dataset.relevance_matrix, db, 1)
        model = run.op("train", ranker.train_offline, pool, rel,
                       ranker.HyperParams(max_iters=p["iters"]))
        return model, time.perf_counter() - t0

    passes = []
    if run.tracer is None:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < a.seconds:
            pool, pool_s = build(False)
            model, train_s = train(pool, False)
            passes.append((pool_s, train_s))
    else:
        # untraced and traced back to back, in ABBA order so that drift cancels
        pool, pool_s = build(False)
        pool_t = build(True)[1]
        train_t = train(pool, True)[1]
        model, train_s = train(pool, False)
        passes.append((pool_s, train_s))
        run.out.update(untraced_pass_s=pool_s + train_s, traced_pass_s=pool_t + train_t)
    run.out["pool_s"] = [x[0] for x in passes]
    run.out["train_s"] = [x[1] for x in passes]
    run.out["pass_s"] = [x[0] + x[1] for x in passes]
    run.out["edges"] = _edges(pool)
    run.out["objective_trace"] = model.objective_trace
    ms, ranked, wall, _ = _queries(run, model, pool, db, queries, p["query_reps"])
    run.out.update(query_ms=ms, query_wall_s=wall, mean_auc=_score(run, ranked, db, queries))


def online(run):
    """Setup builds and trains the model; the timed phase is the query stream."""
    from multigrank import dataset, ranker

    p, a = run.params, run.args
    db, queries = _data(p, a.seed)
    t0 = time.perf_counter()
    pool = run.op("pool", _pool, p, db)
    run.out["pool_s"] = [time.perf_counter() - t0]
    t0 = time.perf_counter()
    rel = run.op("relevance", dataset.relevance_matrix, db, 1)
    model = run.op("train", ranker.train_offline, pool, rel, ranker.HyperParams())
    run.out["train_s"] = [time.perf_counter() - t0]
    run.out["objective_trace"] = model.objective_trace
    run.out["edges"] = _edges(pool)
    first = queries.records[0]
    run.op("warmup", ranker.rank_online, model, pool, db, first.features, query_id=first.id)
    run.out["t_first"] = time.monotonic()
    if a.setup_only:
        return

    passes, ms_all, ranked = [], [], None
    start = time.perf_counter()
    while not passes or (run.tracer is None and time.perf_counter() - start < a.seconds):
        ms, r, wall, traced_s = _queries(run, model, pool, db, queries, 1)
        passes.append(wall)
        ms_all.extend(ms)
        ranked = ranked or r
    if run.tracer is not None:
        run.out.update(untraced_pass_s=sum(ms_all) / 1e3, traced_pass_s=traced_s)
    run.out.update(pass_s=passes, query_ms=ms_all, query_wall_s=sum(passes),
                   mean_auc=_score(run, ranked, db, queries))


def cli_queries(run):
    """Query latency against the artifacts the CLI pipeline wrote (untraced)."""
    from multigrank import dataset, graphs, ranker

    p = run.params
    d = Path(p["dir"])
    db = dataset.load_dataset(d / "database.csv")
    queries = dataset.load_dataset(d / "queries.csv")
    pool = graphs.load_pool(d / "pool.json")
    model = ranker.load_model(d / "model.json")
    run.out["edges"] = _edges(pool)
    ms, ranked, wall, _ = _queries(run, model, pool, db, queries, p["query_reps"])
    run.out.update(query_ms=ms, query_wall_s=wall, mean_auc=_score(run, ranked, db, queries))


MODES = {"offline": offline, "online": online, "cli_queries": cli_queries}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=sorted(MODES))
    ap.add_argument("--params", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    t0 = time.perf_counter()
    import multigrank  # noqa: F401  (timed: cli.import_s)
    import_s = time.perf_counter() - t0
    if not Path(multigrank.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported multigrank from {multigrank.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.import_s = import_s
        tracer.install()
    run = Run(args, tracer)
    status = 0
    try:
        MODES[args.mode](run)
    except Exception:
        traceback.print_exc()
        status = 1
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(args.out + ".spans.json")
    run.out["machine"] = machine_record()
    import resource

    run.out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(run.out, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
