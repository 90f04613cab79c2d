"""Command-line pipeline: gen | pool | train | rank | eval.

Every command reads an optional JSON config (``--config``) whose keys mirror
RunConfig; explicit flags win over the config file, which wins over defaults.
Exit codes: 0 success, 1 validation error, 2 numerical failure, 3 I/O error.
Each command imports the modules it runs when it starts, so ``gen`` loads
numpy alone and no command loads scipy.linalg before its first query.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

from .dataset import (
    dataset_fingerprint,
    generate_synthetic,
    json_fits,
    load_dataset,
    relevance_matrix,
    save_dataset,
    split_queries,
)
from .specs import SCHEMES


@dataclass
class RunConfig:
    """Paths, graph grid, hyperparameters and protocol knobs for one run."""

    dataset: str | None = None
    queries: str | None = None
    pool: str | None = None
    model: str | None = None
    out: str = "out"
    schemes: tuple[str, ...] = SCHEMES
    k_values: tuple[int, ...] = (5, 10)
    sigma_multipliers: tuple[float, ...] = (0.5, 1.0, 2.0)
    alpha: float = 1.0
    beta: float = 1.0
    iters: int = 20
    ridge: float = 1e-8
    tol: float = 0.0
    level: int = 1
    query_mode: str = "disjoint"
    seed: int = 0
    classes: int = 5
    per_class: int = 40
    dim: int = 32
    spread: float = 1.0
    separation: float = 10.0
    queries_per_class: int = 2
    baseline: str = "multig"
    graph_index: int = 0


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}
_CONFIG_TYPES = typing.get_type_hints(RunConfig)
_CONFIG_TYPE_NAMES = {f.name: f.type for f in dataclasses.fields(RunConfig)}
_SEQUENCE_FIELDS = ("schemes", "k_values", "sigma_multipliers")


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1, not argparse's default 2
        raise _UsageError(message)


def _require(value, name: str):
    if value is None:
        raise ValueError(f"missing required option/config key: {name}")
    return value


def _safe_name(raw: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", raw)


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_checked_pool(cfg: RunConfig, ds):
    from . import graphs

    pool = graphs.load_pool(_require(cfg.pool, "pool"))
    if pool.fingerprint != dataset_fingerprint(ds):
        raise ValueError(
            f"pool fingerprint {pool.fingerprint} does not match dataset "
            f"{_require(cfg.dataset, 'dataset')}"
        )
    return pool


def _load_checked_model(cfg: RunConfig, ds):
    """The checked pool and the model trained on it."""
    from . import ranker

    pool = _load_checked_pool(cfg, ds)
    model = ranker.load_model(_require(cfg.model, "model"))
    if model.pool_fingerprint != pool.fingerprint:
        raise ValueError("model fingerprint does not match pool")
    return pool, model


def cmd_gen(cfg: RunConfig) -> None:
    """Generate a synthetic database plus a query set in the chosen mode."""
    out = _out_dir(cfg)
    extra = cfg.queries_per_class if cfg.query_mode == "disjoint" else 0
    full = generate_synthetic(
        cfg.classes, cfg.per_class + extra, cfg.dim, cfg.spread, cfg.separation, cfg.seed
    )
    database, queries = split_queries(full, cfg.queries_per_class, cfg.query_mode, cfg.seed)
    db_path = out / "database.csv"
    q_path = out / "queries.csv"
    save_dataset(database, db_path)
    save_dataset(queries, q_path)
    print(f"database: {database.n} records, dim {database.dim} -> {db_path}")
    print(f"queries:  {queries.n} records ({cfg.query_mode}) -> {q_path}")


def cmd_pool(cfg: RunConfig) -> None:
    """Build the candidate graph pool over the spec grid and persist it."""
    from . import graphs

    ds = load_dataset(_require(cfg.dataset, "dataset"))
    specs = graphs.default_spec_grid(ds, cfg.schemes, cfg.k_values, cfg.sigma_multipliers)
    pool = graphs.build_pool(ds, specs)
    path = Path(cfg.pool) if cfg.pool else _out_dir(cfg) / "pool.json"
    graphs.save_pool(pool, path)
    print(f"pool: {pool.m} graphs over {pool.n} items (fingerprint {pool.fingerprint}) -> {path}")


def cmd_train(cfg: RunConfig) -> None:
    """Learn graph weights offline and persist the model."""
    from . import ranker

    ds = load_dataset(_require(cfg.dataset, "dataset"))
    pool = _load_checked_pool(cfg, ds)
    relevance = relevance_matrix(ds, cfg.level)
    params = ranker.HyperParams(
        alpha=cfg.alpha, beta=cfg.beta, max_iters=cfg.iters, ridge=cfg.ridge, tol=cfg.tol
    )
    model = ranker.train_offline(pool, relevance, params)
    path = Path(cfg.model) if cfg.model else _out_dir(cfg) / "model.json"
    ranker.save_model(model, path)
    for it, obj in enumerate(model.objective_trace, start=1):
        print(f"iter {it:3d}  objective {obj!r}")
    print("mu " + " ".join(repr(float(v)) for v in model.weights.mu))
    print(f"model -> {path}")


def _make_arm(baseline: str, graph_index: int, ds, pool, model):
    """The ranking arm ``query -> RankedList``; grank ranks on graph ``graph_index``."""
    from . import ranker

    if baseline == "multig":
        return lambda q: ranker.rank_online(model, pool, ds, q.features, model.params, q.id)
    if baseline == "grank":
        return lambda q: ranker.grank_online(
            pool, graph_index, ds, q.features, model.params, q.id
        )
    if baseline == "pairwise":
        return lambda q: ranker.rank_pairwise_baseline(ds, q.features, q.id)
    raise ValueError(f"unknown baseline {baseline!r}")


def cmd_rank(cfg: RunConfig) -> None:
    """Rank the database against every query; one TSV per query."""
    from . import ranker

    ds = load_dataset(_require(cfg.dataset, "dataset"))
    queries = load_dataset(_require(cfg.queries, "queries"))
    names = {}
    for query in queries.records:
        name = f"rank_{_safe_name(query.id)}.tsv"
        if name in names:
            raise ValueError(f"query ids {names[name]!r} and {query.id!r} both write {name}")
        names[name] = query.id
    pool = model = None
    if cfg.baseline != "pairwise":
        pool, model = _load_checked_model(cfg, ds)
    arm = _make_arm(cfg.baseline, cfg.graph_index, ds, pool, model)
    out = _out_dir(cfg)
    for name, query in zip(names, queries.records):
        ranker.write_ranked_tsv(arm(query), out / name)
    print(f"ranked {queries.n} queries ({cfg.baseline}) -> {out}")


def cmd_eval(cfg: RunConfig) -> None:
    """Evaluate all arms over the query set; reports, curves and a summary table."""
    from . import evaluation

    ds = load_dataset(_require(cfg.dataset, "dataset"))
    queries = load_dataset(_require(cfg.queries, "queries"))
    pool, model = _load_checked_model(cfg, ds)
    out = _out_dir(cfg)

    def evaluate(baseline, graph_index=0):
        arm = _make_arm(baseline, graph_index, ds, pool, model)
        return evaluation.evaluate_queries(arm, ds, queries, cfg.level)

    multig = evaluate("multig")
    best_idx, best_report = 0, None
    for idx in range(pool.m):
        report = evaluate("grank", idx)
        if best_report is None or report.mean_auc > best_report.mean_auc:
            best_idx, best_report = idx, report
    pairwise = evaluate("pairwise")

    arms = [("multig", multig), (f"grank[g{best_idx}]", best_report), ("pairwise", pairwise)]
    for name, report in arms:
        stem = name.split("[")[0]
        evaluation.save_report(report, out / f"{stem}_report.json")
        evaluation.write_curve_csv(report.roc, out / f"{stem}_roc.csv", "fpr", "tpr")
        evaluation.write_curve_csv(report.pr, out / f"{stem}_pr.csv", "recall", "precision")
        evaluation.write_curves_svg(
            [("roc", report.roc), ("recall-precision", report.pr)],
            out / f"{stem}_curves.svg",
            title=name,
        )
    lines = [f"{'arm':<12}  {'mean_auc':>9}  {'queries':>7}  {'skipped':>7}"]
    for name, report in arms:
        lines.append(
            f"{name:<12}  {report.mean_auc:>9.4f}  {len(report.per_query):>7d}  {report.skipped:>7d}"
        )
    table = "\n".join(lines)
    (out / "comparison.txt").write_text(table + "\n", encoding="utf-8")
    print(table)


_COMMANDS = {
    "gen": cmd_gen,
    "pool": cmd_pool,
    "train": cmd_train,
    "rank": cmd_rank,
    "eval": cmd_eval,
}


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--seed", type=int)
    common.add_argument("--out", help="output directory (default: out)")

    parser = _Parser(prog="multigrank", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gen", parents=[common], help="generate synthetic database + queries")
    p.add_argument("--classes", type=int)
    p.add_argument("--per-class", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--spread", type=float)
    p.add_argument("--separation", type=float)
    p.add_argument("--queries-per-class", type=int)
    p.add_argument("--query-mode", choices=("disjoint", "overlapping"))

    p = sub.add_parser("pool", parents=[common], help="build the candidate graph pool")
    p.add_argument("--dataset")
    p.add_argument("--pool", help="output pool file (default: <out>/pool.json)")
    p.add_argument("--schemes", nargs="+", choices=SCHEMES)
    p.add_argument("--k", nargs="+", type=int, dest="k_values")
    p.add_argument("--sigma-multipliers", nargs="+", type=float)

    p = sub.add_parser("train", parents=[common], help="learn graph weights offline")
    p.add_argument("--dataset")
    p.add_argument("--pool")
    p.add_argument("--model", help="output model file (default: <out>/model.json)")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--iters", type=int)
    p.add_argument("--ridge", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--level", type=int)

    p = sub.add_parser("rank", parents=[common], help="rank the database per query")
    p.add_argument("--dataset")
    p.add_argument("--pool")
    p.add_argument("--model")
    p.add_argument("--queries")
    p.add_argument("--baseline", choices=("multig", "grank", "pairwise"))
    p.add_argument("--graph", type=int, dest="graph_index", help="graph index for the grank arm")

    p = sub.add_parser("eval", parents=[common], help="evaluate all ranking arms")
    p.add_argument("--dataset")
    p.add_argument("--pool")
    p.add_argument("--model")
    p.add_argument("--queries")
    p.add_argument("--level", type=int)

    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    raw = vars(args)
    if raw.get("config"):
        with open(raw["config"], encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(doc) - _CONFIG_FIELDS)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        for key, value in doc.items():
            if not json_fits(value, _CONFIG_TYPES[key]):
                raise ValueError(
                    f"config key {key!r}: expected {_CONFIG_TYPE_NAMES[key]}, "
                    f"got {json.dumps(value)}"
                )
        cfg = dataclasses.replace(cfg, **doc)
    overrides = {k: v for k, v in raw.items() if k in _CONFIG_FIELDS and v is not None}
    cfg = dataclasses.replace(cfg, **overrides)
    for name in _SEQUENCE_FIELDS:
        setattr(cfg, name, tuple(getattr(cfg, name)))
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    if getattr(args, "command", None) is None:
        parser.print_help(sys.stderr)
        return 1
    try:
        _COMMANDS[args.command](_merge_config(args))
    except RuntimeError as exc:
        # only the ranker raises SingularSystemError: a command that raised
        # one has loaded it already
        from .ranker import SingularSystemError

        if not isinstance(exc, SingularSystemError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
