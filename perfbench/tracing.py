"""Spans and counters recorded around calls into multigrank, from outside it.

A Tracer swaps each public function, in the module namespace where its caller
looks it up, for a wrapper that records a span (name, start, end, parent span,
operation id, attributes).  ``edge_weight`` is called a few thousand times per
query, so it gets a call counter instead of a span.  Spans stay in memory and
are written out once, when the traced process ends.

Only the standard library is used here: the orchestrator imports this module
to aggregate span files without importing numpy or multigrank.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time


def _scheme(args, kwargs, result):
    spec = kwargs.get("spec", args[1] if len(args) > 1 else None)
    return {"scheme": spec.scheme}


def _pool_edges(args, kwargs, result):
    # undirected edges: each stored once per direction, no diagonal
    return {"edges": sum(int(g.weights.nnz) // 2 for g in result.graphs)}


def _array_mb(args, kwargs, result):
    nbytes = sum(int(v.nbytes) for v in vars(result).values() if hasattr(v, "nbytes"))
    return {"mb": nbytes / 1e6}


def _rhs_cols(args, kwargs, result):
    rhs = kwargs.get("Y", args[2] if len(args) > 2 else None)
    rhs = getattr(rhs, "entries", rhs)
    shape = getattr(rhs, "shape", ())
    return {"cols": int(shape[1]) if len(shape) == 2 else 1}


def _solve_n(args, kwargs, result):
    return {"n": int(len(result))}


def _train_iters(args, kwargs, result):
    return {"iters": len(result.objective_trace)}


# span name -> (call sites as (module, attribute), attribute extractor or None)
SPAN_SITES = {
    "dataset.load": ([("multigrank.cli", "load_dataset")], None),
    "dataset.relevance": (
        [("multigrank.cli", "relevance_matrix"), ("multigrank.dataset", "relevance_matrix")],
        _array_mb,
    ),
    "dataset.fingerprint": (
        [
            ("multigrank.cli", "dataset_fingerprint"),
            ("multigrank.graphs", "dataset_fingerprint"),
            ("multigrank.ranker", "dataset_fingerprint"),
        ],
        None,
    ),
    "graphs.spec_grid": ([("multigrank.graphs", "default_spec_grid")], None),
    "graphs.build_pool": ([("multigrank.graphs", "build_pool")], _pool_edges),
    "graphs.build": ([("multigrank.graphs", "build_graph")], _scheme),
    "graphs.knn": ([("multigrank.graphs", "knn_neighbors")], None),
    "graphs.extend": ([("multigrank.ranker", "extend_graph")], None),
    "graphs.save_pool": ([("multigrank.graphs", "save_pool")], None),
    "graphs.load_pool": ([("multigrank.graphs", "load_pool")], None),
    "ranker.train": ([("multigrank.ranker", "train_offline")], _train_iters),
    "ranker.f_update": ([("multigrank.ranker", "offline_f_update")], _rhs_cols),
    "ranker.smoothness": ([("multigrank.ranker", "smoothness_terms")], None),
    "ranker.weights": ([("multigrank.ranker", "minimize_weights")], None),
    "ranker.combine": ([("multigrank.ranker", "combine_laplacians")], None),
    "ranker.solve": ([("multigrank.ranker", "grank_solve")], _solve_n),
    "ranker.rank_online": ([("multigrank.ranker", "rank_online")], None),
    "ranker.grank_online": ([("multigrank.ranker", "grank_online")], None),
    "ranker.pairwise": ([("multigrank.ranker", "rank_pairwise_baseline")], None),
    "evaluation.evaluate": ([("multigrank.evaluation", "evaluate_queries")], None),
    "evaluation.roc_curve": ([("multigrank.evaluation", "roc_curve")], None),
    "evaluation.auc": ([("multigrank.evaluation", "auc_from_scores")], None),
}

COUNTER_SITES = {
    "graphs.edge_weight_calls": [("multigrank.graphs", "edge_weight")],
}

SCHEMES = ("gaussian", "dot_product", "cosine", "jaccard", "tanimoto")

# per-layer metric names, in report order; see perfbench/metrics.json
LAYER_METRICS = (
    ["cli.import_s"]
    + [f"cli.{cmd}_s" for cmd in ("gen", "pool", "train", "rank", "eval")]
    + ["dataset.load_s", "dataset.relevance_s", "dataset.relevance_mb",
       "dataset.fingerprint_s", "dataset.fingerprint_calls",
       "graphs.spec_grid_s", "graphs.knn_s"]
    + [f"graphs.build.{scheme}_s" for scheme in SCHEMES]
    + ["graphs.edges", "graphs.extend_s", "graphs.edge_weight_calls",
       "graphs.save_pool_s", "graphs.load_pool_s", "graphs.pool_file_mb",
       "ranker.train_iters", "ranker.f_update_s", "ranker.smoothness_s", "ranker.weights_s",
       "ranker.f_update_rhs_cols", "ranker.combine_s", "ranker.solve_s", "ranker.solve_n",
       "ranker.rank_online_self_s", "ranker.grank_online_s",
       "evaluation.evaluate_self_s", "evaluation.roc_curve_s", "evaluation.auc_s",
       "trace.overhead_s", "trace.overhead_pct"]
)


class Tracer:
    """In-memory span and counter recorder for one process."""

    def __init__(self):
        self.spans = []  # [id, name, start, end, parent id, op, attrs]
        self.counters = {name: 0 for name in COUNTER_SITES}
        self.import_s = None
        self.op = "setup"
        self._stack = []
        self._saved = []

    def span(self, name, fn, attrs_of=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            record = [len(spans), name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            spans.append(record)
            stack.append(record[0])
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                stack.pop()
            if attrs_of is not None:
                record[6] = attrs_of(args, kwargs, result)
            return result

        return wrapper

    def counter(self, name, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self):
        """Wrap every call site; raise if any named function no longer exists."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        plan = []
        for name, (sites, attrs_of) in SPAN_SITES.items():
            plan.extend((mod, attr, lambda f, n=name, a=attrs_of: self.span(n, f, a))
                        for mod, attr in sites)
        for name, sites in COUNTER_SITES.items():
            plan.extend((mod, attr, lambda f, n=name: self.counter(n, f)) for mod, attr in sites)
        missing = []
        resolved = []
        for mod_name, attr, make in plan:
            module = importlib.import_module(mod_name)
            original = getattr(module, attr, None)
            if not callable(original):
                missing.append(f"{mod_name}.{attr}")
            else:
                resolved.append((module, attr, original, make))
        if missing:
            raise LookupError(
                "perfbench tracing: wrapped function(s) no longer exist: "
                + ", ".join(missing)
                + " (update SPAN_SITES / COUNTER_SITES in perfbench/tracing.py)"
            )
        for module, attr, original, make in resolved:
            setattr(module, attr, make(original))
            self._saved.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters, "import_s": self.import_s},
                      fh)


def load_dumps(paths):
    """Merge span files; span ids are made unique across processes."""
    spans, counters, imports = [], {name: 0 for name in COUNTER_SITES}, []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        base = len(spans)
        for sid, name, start, end, parent, op, attrs in doc["spans"]:
            spans.append([base + sid, name, start, end,
                          None if parent is None else base + parent, op, attrs])
        for name, count in doc["counters"].items():
            counters[name] = counters.get(name, 0) + count
        if doc["import_s"] is not None:
            imports.append(doc["import_s"])
    return spans, counters, imports


def layer_metrics(spans, counters, imports):
    """Per-layer figures from merged spans: totals over the traced run.

    ``*_s`` metrics are inclusive seconds, except ``*_self_s`` (duration minus
    the time direct child spans cover).  Counts are totals.
    """
    by_id = {s[0]: s for s in spans}
    child_time = {}
    for sid, _name, start, end, parent, _op, _attrs in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)

    def dur(s):
        return s[3] - s[2]

    def named(name):
        return [s for s in spans if s[1] == name]

    def total(name):
        return sum(dur(s) for s in named(name))

    def self_total(name):
        return sum(dur(s) - child_time.get(s[0], 0.0) for s in named(name))

    def attr_values(name, key):
        return [s[6][key] for s in named(name) if s[6]]

    def under_query(s):
        parent = s[4]
        while parent is not None:
            p = by_id[parent]
            if p[1] in ("ranker.rank_online", "ranker.grank_online"):
                return True
            parent = p[4]
        return False

    m = {name: 0.0 for name in LAYER_METRICS}
    m["cli.import_s"] = statistics.median(imports) if imports else 0.0
    for cmd in ("gen", "pool", "train", "rank", "eval"):
        m[f"cli.{cmd}_s"] = sum(dur(s) for s in named("cli.main") if s[6]["cmd"] == cmd)
    m["dataset.load_s"] = total("dataset.load")
    m["dataset.relevance_s"] = total("dataset.relevance")
    m["dataset.relevance_mb"] = max(attr_values("dataset.relevance", "mb"), default=0.0)
    m["dataset.fingerprint_s"] = total("dataset.fingerprint")
    m["dataset.fingerprint_calls"] = len(named("dataset.fingerprint"))
    m["graphs.spec_grid_s"] = total("graphs.spec_grid")
    m["graphs.knn_s"] = total("graphs.knn")
    for scheme in SCHEMES:
        m[f"graphs.build.{scheme}_s"] = sum(
            dur(s) for s in named("graphs.build") if s[6]["scheme"] == scheme
        )
    m["graphs.edges"] = sum(attr_values("graphs.build_pool", "edges"))
    m["graphs.extend_s"] = total("graphs.extend")
    m["graphs.edge_weight_calls"] = counters.get("graphs.edge_weight_calls", 0)
    m["graphs.save_pool_s"] = total("graphs.save_pool")
    m["graphs.load_pool_s"] = total("graphs.load_pool")
    m["ranker.train_iters"] = sum(attr_values("ranker.train", "iters"))
    m["ranker.f_update_s"] = total("ranker.f_update")
    m["ranker.smoothness_s"] = total("ranker.smoothness")
    m["ranker.weights_s"] = total("ranker.weights")
    m["ranker.f_update_rhs_cols"] = max(attr_values("ranker.f_update", "cols"), default=0)
    m["ranker.combine_s"] = sum(dur(s) for s in named("ranker.combine") if under_query(s))
    m["ranker.solve_s"] = total("ranker.solve")
    m["ranker.solve_n"] = max(attr_values("ranker.solve", "n"), default=0)
    m["ranker.rank_online_self_s"] = self_total("ranker.rank_online")
    m["ranker.grank_online_s"] = total("ranker.grank_online")
    m["evaluation.evaluate_self_s"] = self_total("evaluation.evaluate")
    m["evaluation.roc_curve_s"] = total("evaluation.roc_curve")
    m["evaluation.auc_s"] = total("evaluation.auc")
    return m
