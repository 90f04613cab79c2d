"""Acceptance suite: one test per shipped exit criterion.

Each test pins its tolerance inline and prints a ``[PASS] criterion N`` line
on success (run with ``pytest -s tests/test_acceptance.py`` to see them).
"""

import time

import numpy as np

from helpers import dataset_from_arrays, extended_laplacian_oracle, laplacian_oracle, random_labels

from multigrank import cli
from multigrank.dataset import (
    Dataset,
    DomainRecord,
    generate_synthetic,
    relevance_matrix,
    split_queries,
)
from multigrank.evaluation import auc, evaluate_queries, roc_curve
from multigrank.graphs import (
    SCHEMES,
    GraphPool,
    GraphSpec,
    build_graph,
    build_pool,
    default_spec_grid,
    median_pairwise_distance,
)
from multigrank.ranker import (
    GraphWeights,
    HyperParams,
    RankModel,
    grank_online,
    grank_solve,
    make_ranked,
    minimize_weights,
    offline_f_update,
    rank_online,
    rank_pairwise_baseline,
    train_offline,
)
from multigrank.ranker import _database_system


def _passed(num: int, note: str) -> None:
    print(f"[PASS] criterion {num}: {note}")


def _random_specs(rng, n, m):
    specs = []
    for _ in range(m):
        scheme = str(rng.choice(SCHEMES))
        k = int(rng.integers(2, min(5, n - 1) + 1))
        sigma = float(rng.uniform(0.3, 2.0)) if scheme == "gaussian" else None
        specs.append(GraphSpec(scheme, k, sigma))
    return specs


def test_criterion_1_full_scale_reference_status():
    # The published full-scale AUC comparisons need an external structural
    # database and its precomputed feature file, neither shipped here; they
    # stay reference points.  Criteria 2-8 are the property-based stand-ins,
    # and the three comparison arms they exercise are all available:
    ds = generate_synthetic(2, 6, 4, 1.0, 8.0, 0)
    pool = build_pool(ds, [GraphSpec("gaussian", 2, 1.0)])
    model = train_offline(pool, relevance_matrix(ds, 1), HyperParams(max_iters=2))
    x0 = ds.records[0].features
    for arm in (
        rank_online(model, pool, ds, x0),
        grank_online(pool, 0, ds, x0, model.params),
        rank_pairwise_baseline(ds, x0),
    ):
        assert len(arm.order) == ds.n
    _passed(1, "full-scale numbers are reference-only; property substitutes cover the arms")


def test_criterion_2_solver_oracle_equivalence():
    rng = np.random.default_rng(1234)
    start = time.perf_counter()
    ridge = 1e-6
    for _ in range(50):
        n = int(rng.integers(4, 13))
        m = int(rng.integers(1, 5))
        X = rng.uniform(0.05, 1.0, size=(n, 3))
        ds = dataset_from_arrays(X, random_labels(rng, n, 2))
        pool = build_pool(ds, _random_specs(rng, n, m))
        mu = rng.dirichlet(np.ones(m))
        alpha = float(rng.uniform(0.1, 2.0))
        laps = [laplacian_oracle(g.weights).toarray() for g in pool.graphs]
        L = sum(w * lap for w, lap in zip(mu, laps))

        u = (rng.random(n) < 0.5).astype(float)
        u[int(rng.integers(n))] = 1.0
        y = rng.normal(size=n)
        f = grank_solve(L, u, y, alpha, ridge=ridge)
        oracle = np.linalg.inv(np.diag(u + ridge) + alpha * L) @ (u * y)
        assert np.linalg.norm(f - oracle) / np.linalg.norm(oracle) <= 1e-8

        Y = relevance_matrix(ds, 1).entries
        F = offline_f_update(pool, GraphWeights(mu), Y, alpha)
        oracle_f = np.linalg.inv(np.eye(n) + alpha * L) @ Y
        assert np.linalg.norm(F - oracle_f) / np.linalg.norm(oracle_f) <= 1e-8

        params = HyperParams(alpha=alpha, ridge=ridge)
        model = RankModel(GraphWeights(mu), params, pool.fingerprint, [])
        x0 = rng.uniform(0.05, 1.0, size=3)
        ranked = rank_online(model, pool, ds, x0)
        L_ext = extended_laplacian_oracle(pool.graphs, mu, ds, x0)
        u_ext = np.zeros(n + 1)
        u_ext[0] = 1.0
        oracle_ext = np.linalg.inv(np.diag(u_ext + ridge) + alpha * L_ext) @ u_ext
        assert (
            np.linalg.norm(ranked.scores - oracle_ext[1:]) / np.linalg.norm(oracle_ext[1:])
            <= 1e-8
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passed(2, f"50 instances vs dense-inverse oracle within 1e-8 in {elapsed:.2f}s")


def test_criterion_3_qp_grid_oracle():
    rng = np.random.default_rng(99)
    start = time.perf_counter()
    ticks = 1000
    idx = np.arange(ticks + 1)
    ii, jj = np.meshgrid(idx, idx, indexing="ij")
    keep = ii + jj <= ticks
    grid = np.stack([ii[keep], jj[keep], ticks - ii[keep] - jj[keep]], axis=1) / ticks
    grid_sq = np.einsum("ij,ij->i", grid, grid)
    for _ in range(100):
        scale = float(rng.choice([0.1, 1.0, 10.0, 1e3]))
        e = rng.normal(scale=scale, size=3)
        alpha = float(10.0 ** rng.uniform(-2, 2))
        beta = float(10.0 ** rng.uniform(-2, 2))
        mu = minimize_weights(e, alpha, beta).mu
        assert mu.min() >= -1e-10 and abs(mu.sum() - 1.0) <= 1e-10
        best = grid[np.argmin(alpha * (grid @ e) + beta * grid_sq)]
        assert np.abs(mu - best).max() <= 2e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(3, f"100 weight updates vs 1e-3 grid search within 2e-3 in {elapsed:.2f}s")


def test_criterion_4_training_objective_monotone():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(15, 61))
        m = int(rng.integers(1, 7))
        X = rng.uniform(0.05, 1.0, size=(n, 5))
        ds = dataset_from_arrays(X, random_labels(rng, n, int(rng.integers(2, 5))))
        pool = build_pool(ds, _random_specs(rng, n, m))
        params = HyperParams(
            alpha=float(10.0 ** rng.uniform(-1, 1)),
            beta=float(10.0 ** rng.uniform(-1, 1)),
            max_iters=15,
        )
        model = train_offline(pool, relevance_matrix(ds, 1), params)
        trace = np.array(model.objective_trace)
        assert (np.diff(trace) <= 1e-9).all()
    _passed(4, "20 random training runs have non-increasing objective traces (slack 1e-9)")


def test_criterion_5_laplacian_invariants():
    rng = np.random.default_rng(5)
    for scheme in SCHEMES:
        for n in (12, 30):
            X = rng.uniform(0.0, 1.0, size=(n, 6))
            k = int(rng.integers(2, 7))
            sigma = float(rng.uniform(0.3, 1.5)) if scheme == "gaussian" else None
            pool = build_pool(dataset_from_arrays(X), [GraphSpec(scheme, k, sigma)])
            W = pool.graphs[0].weights.toarray()
            assert np.array_equal(W, W.T)
            assert np.array_equal(np.diag(W), np.zeros(n))
            # the Laplacian the library forms: the database system at shift 0
            L = _database_system(pool, np.ones(1), 1.0, 0.0)[0].toarray()
            assert np.linalg.eigvalsh(L).min() >= -1e-10
            assert np.abs(L @ np.ones(n)).max() <= 1e-12
            for _ in range(3):
                f = rng.normal(size=n)
                direct = f @ L @ f
                double_sum = 0.5 * sum(
                    W[i, j] * (f[i] - f[j]) ** 2 for i in range(n) for j in range(n)
                )
                assert abs(direct - double_sum) <= 1e-10
    _passed(5, "all five schemes: symmetric zero-diagonal W, PSD L, exact row sums")


def test_criterion_6_desk_scale_ranking_quality():
    start = time.perf_counter()
    for seed in range(5):
        full = generate_synthetic(5, 42, 32, 1.0, 10.0, seed)
        db, queries = split_queries(full, 2, "disjoint")
        assert db.n == 200  # 40 per class once the queries are carved out
        specs = default_spec_grid(db, SCHEMES, (5, 10), (1.0,))
        pool = build_pool(db, specs)
        relevance = relevance_matrix(db, 1)
        params = HyperParams()
        model = train_offline(pool, relevance, params)

        multig = evaluate_queries(
            lambda q: rank_online(model, pool, db, q.features, query_id=q.id),
            db, queries, 1,
        )
        assert multig.mean_auc >= 0.95

        worst = min(
            evaluate_queries(
                lambda q, i=i: grank_online(pool, i, db, q.features, params, q.id),
                db, queries, 1,
            ).mean_auc
            for i in range(pool.m)
        )
        assert multig.mean_auc >= worst

        rng = np.random.default_rng(seed + 1000)
        perm = rng.permutation(db.n)
        shuffled = Dataset.from_records(
            DomainRecord(rec.id, rec.label, db.records[perm[i]].features)
            for i, rec in enumerate(db.records)
        )
        adv_sigma = median_pairwise_distance(db.feature_matrix)
        adversarial = build_graph(shuffled, GraphSpec("gaussian", 5, adv_sigma))
        pool_adv = GraphPool(pool.graphs + (adversarial,), pool.fingerprint, pool.dim)
        model_adv = train_offline(pool_adv, relevance, params)
        assert model_adv.weights.mu[-1] < 1.0 / pool_adv.m
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passed(6, f"5 seeds: mean AUC >= 0.95, beats worst single graph, "
               f"adversarial graph downweighted ({elapsed:.1f}s)")


def pair_count_auc(scores, mask):
    pos = scores[mask]
    neg = scores[~mask]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def test_criterion_7_auc_equals_pair_statistic():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(5, 31))
        scores = rng.normal(size=n)
        mask = np.zeros(n, dtype=bool)
        mask[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = True
        ids = tuple(f"x{i}" for i in range(n))
        trapezoid = auc(roc_curve(make_ranked("q", scores, ids), mask))
        assert abs(trapezoid - pair_count_auc(scores, mask)) <= 1e-12

    means = []
    for _ in range(200):
        scores = rng.normal(size=40)
        mask = np.zeros(40, dtype=bool)
        mask[:15] = True
        ids = tuple(f"x{i}" for i in range(40))
        means.append(auc(roc_curve(make_ranked("q", scores, ids), mask)))
    assert 0.45 <= float(np.mean(means)) <= 0.55
    _passed(7, "trapezoid == pair statistic to 1e-12; random scores average near 0.5")


def test_criterion_8_metric_identities_and_relevance_depth():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(4, 20))
        ids = tuple(f"x{i}" for i in range(n))
        p = int(rng.integers(1, n))
        mask = np.isin(np.arange(n), rng.choice(n, size=p, replace=False))
        curve = roc_curve(make_ranked("q", rng.normal(size=n), ids), mask)
        # tpr is the recall TP / p, and precision is TP / k at every k >= 1
        k = np.arange(1, n + 1)
        np.testing.assert_allclose(curve.precision[1:] * k, curve.tpr[1:] * p, rtol=0, atol=1e-12)
        assert (curve.fpr[0], curve.tpr[0]) == (0.0, 0.0)
        assert (curve.fpr[-1], curve.tpr[-1]) == (1.0, 1.0)

    # nested labels: relevant sets can only shrink as the depth grows
    base = generate_synthetic(3, 12, 4, 1.0, 8.0, 0)
    nested = Dataset.from_records(
        DomainRecord(rec.id, (rec.label[0], f"{rec.label[0]}.{i % 3}"), rec.features)
        for i, rec in enumerate(base.records)
    )
    shallow = relevance_matrix(nested, 1).entries.sum(axis=0)
    deep = relevance_matrix(nested, 2).entries.sum(axis=0)
    assert (shallow >= deep).all()
    assert (shallow > deep).any()
    _passed(8, "precision*k == tpr*p everywhere, exact ROC endpoints, "
               "deeper labels shrink relevance")


def _run_cli_pipeline(base):
    out = base / "out"
    db = out / "database.csv"
    queries = out / "queries.csv"
    pool = out / "pool.json"
    model = out / "model.json"
    steps = [
        ["gen", "--out", str(out), "--classes", "3", "--per-class", "8", "--dim", "6",
         "--separation", "9.0", "--seed", "13"],
        ["pool", "--out", str(out), "--dataset", str(db), "--pool", str(pool),
         "--k", "3", "--sigma-multipliers", "1.0"],
        ["train", "--out", str(out), "--dataset", str(db), "--pool", str(pool),
         "--model", str(model), "--iters", "4"],
        ["rank", "--out", str(out / "ranks"), "--dataset", str(db), "--pool", str(pool),
         "--model", str(model), "--queries", str(queries)],
        ["eval", "--out", str(out / "eval"), "--dataset", str(db), "--pool", str(pool),
         "--model", str(model), "--queries", str(queries)],
    ]
    for argv in steps:
        assert cli.main(argv) == 0
    return {
        str(path.relative_to(out)): path.read_bytes()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def test_criterion_9_cli_byte_determinism(tmp_path):
    first = _run_cli_pipeline(tmp_path / "a")
    second = _run_cli_pipeline(tmp_path / "b")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"output differs across runs: {name}"
    _passed(9, f"all five commands byte-stable across reruns ({len(first)} files compared)")
