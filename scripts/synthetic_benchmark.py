#!/usr/bin/env python3
"""Synthetic benchmark: multi-graph ranking vs single-graph and pairwise arms.

Generates labeled Gaussian blobs, learns graph weights offline, then scores
held-out queries with every arm.  Reports mean AUC per arm, averaged over
seeds, for each separation in the sweep.

    python3 scripts/synthetic_benchmark.py --seeds 3 --separations 2 6 10
"""

import argparse
import time

import numpy as np

from multigrank.dataset import generate_synthetic, relevance_matrix, split_queries
from multigrank.evaluation import evaluate_queries
from multigrank.graphs import build_pool, default_spec_grid
from multigrank.ranker import (
    grank_online,
    rank_online,
    rank_pairwise_baseline,
    train_offline,
)
from multigrank.specs import K_VALUES, SCHEMES, HyperParams


def run_once(seed, separation, args):
    full = generate_synthetic(
        args.classes, args.per_class + args.queries_per_class, args.dim,
        args.spread, separation, seed,
    )
    db, queries = split_queries(full, args.queries_per_class, "disjoint")
    pool = build_pool(
        db, default_spec_grid(db, SCHEMES, tuple(args.k), tuple(args.sigma_multipliers))
    )
    params = HyperParams(alpha=args.alpha, beta=args.beta, max_iters=args.iters)
    model = train_offline(pool, relevance_matrix(db, 1), params)

    multig = evaluate_queries(
        lambda q: rank_online(model, pool, db, q.features, query_id=q.id),
        db, queries, 1,
    ).mean_auc
    singles = [
        evaluate_queries(
            lambda q, i=i: grank_online(pool, i, db, q.features, params, q.id),
            db, queries, 1,
        ).mean_auc
        for i in range(pool.m)
    ]
    pairwise = evaluate_queries(
        lambda q: rank_pairwise_baseline(db, q.features, q.id), db, queries, 1
    ).mean_auc
    return multig, max(singles), min(singles), pairwise, model.weights.mu


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--classes", type=int, default=5)
    ap.add_argument("--per-class", type=int, default=40)
    ap.add_argument("--dim", type=int, default=32)
    ap.add_argument("--spread", type=float, default=1.0)
    ap.add_argument("--separations", type=float, nargs="+", default=[2.0, 4.0, 8.0])
    ap.add_argument("--queries-per-class", type=int, default=2)
    ap.add_argument("--k", type=int, nargs="+", default=list(K_VALUES))
    ap.add_argument("--sigma-multipliers", type=float, nargs="+", default=[1.0])
    ap.add_argument("--alpha", type=float, default=HyperParams.alpha)
    ap.add_argument("--beta", type=float, default=HyperParams.beta)
    ap.add_argument("--iters", type=int, default=HyperParams.max_iters)
    ap.add_argument("--seeds", type=int, default=3)
    args = ap.parse_args()

    print(f"{'separation':>10}  {'multig':>8}  {'best single':>11}  {'worst single':>12}  {'pairwise':>8}")
    for sep in args.separations:
        start = time.perf_counter()
        rows = [run_once(seed, sep, args) for seed in range(args.seeds)]
        multig, best, worst, pairwise = (float(np.mean([r[i] for r in rows])) for i in range(4))
        elapsed = time.perf_counter() - start
        print(f"{sep:>10.2f}  {multig:>8.4f}  {best:>11.4f}  {worst:>12.4f}  {pairwise:>8.4f}"
              f"   ({elapsed:.1f}s, {args.seeds} seeds)")
        top = np.argsort(-rows[-1][4])[:3]
        print(f"{'':>10}  heaviest graphs (last seed): "
              + ", ".join(f"g{i}={rows[-1][4][i]:.3f}" for i in top))


if __name__ == "__main__":
    main()
