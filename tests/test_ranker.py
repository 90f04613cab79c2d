import dataclasses
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    dataset_from_arrays,
    dense_relevance,
    extended_laplacian_oracle,
    knn_graph,
    laplacian_oracle,
    objective_oracle,
    query_edges,
    random_labels,
    ranked_top_ids,
    selection_solve_oracle,
)

import multigrank
from multigrank.dataset import (
    Dataset,
    DomainRecord,
    generate_synthetic,
    relevance_matrix,
)
from multigrank.graphs import (
    SCHEMES,
    BaseGraph,
    GraphPool,
    GraphSpec,
    build_pool,
    load_pool,
    save_pool,
)
from multigrank.ranker import (
    GraphWeights,
    HyperParams,
    RankModel,
    SingularSystemError,
    combine_laplacians,
    grank_online,
    grank_solve,
    load_model,
    make_ranked,
    minimize_weights,
    offline_f_update,
    rank_online,
    rank_pairwise_baseline,
    save_model,
    smoothness_terms,
    train_offline,
    write_ranked_tsv,
)
from multigrank.ranker import QueryStar, _database_system, _frozen_factor


def small_pool(seed=0, n_classes=2, per_class=5, dim=3, m_specs=None):
    ds = generate_synthetic(n_classes, per_class, dim, 1.0, 6.0, seed)
    specs = m_specs or [GraphSpec("gaussian", 2, 1.5), GraphSpec("cosine", 2)]
    return ds, build_pool(ds, specs)


class TestGrankSolve:
    """The online solve on the direct path: a query's star plus a frozen
    database block held without its inverse."""

    def test_two_node_hand_solve(self):
        # one database node joined to the query by W = 1, alpha = 1:
        # [[2, -1], [-1, 1]] f = (1, 0)
        star = QueryStar(np.array([0]), np.array([1.0]), 1.0, 1)
        f = grank_solve(star, (sp.csr_matrix((1, 1)), None), 1.0, 0.0)
        assert np.allclose(f, [1.0, 1.0], atol=1e-12)

    def test_matches_dense_inverse(self):
        # the inverse path, and the direct path without the inverse
        rng = np.random.default_rng(0)
        ds = dataset_from_arrays(rng.uniform(0.1, 1, size=(6, 3)))
        pool = build_pool(ds, [GraphSpec("gaussian", 2, 1.0)])
        x0 = rng.uniform(0.1, 1, size=3)
        star = combine_laplacians([query_edges(pool.graphs[0], ds, x0)], np.ones(1), ds.n)
        alpha, ridge = 0.7, 1e-6
        L = extended_laplacian_oracle(pool.graphs, np.ones(1), ds, x0)
        e0 = np.eye(ds.n + 1)[0]
        oracle = np.linalg.inv(np.diag(e0 + ridge) + alpha * L) @ e0
        K, inv = _frozen_factor(pool, np.ones(1), alpha, ridge)
        assert inv is not None
        for frozen in ((K, inv), (K, None)):
            f = grank_solve(star, frozen, alpha, ridge)
            assert np.linalg.norm(f - oracle) / np.linalg.norm(oracle) <= 1e-8

    def test_singular_names_remedy(self):
        # two exact 2-node components, the query and database node 0, and
        # database nodes 1 and 2: the query reaches only the first
        star = QueryStar(np.array([0]), np.array([1.0]), 1.0, 3)
        L_db = sp.csr_matrix(np.array([[0.0, 0, 0], [0, 1, -1], [0, -1, 1]]))
        with pytest.raises(SingularSystemError, match="ridge"):
            grank_solve(star, (L_db, None), 1.0, 0.0)
        f = grank_solve(star, ((L_db + 1e-8 * sp.eye(3)).tocsr(), None), 1.0, 1e-8)
        assert np.allclose(f[:2], 1.0, atol=1e-6) and np.allclose(f[2:], 0.0)

    def test_residual_contract(self):
        rng = np.random.default_rng(5)
        ds = dataset_from_arrays(rng.uniform(0.1, 1, size=(9, 3)))
        pool = build_pool(ds, [GraphSpec("gaussian", 3, 1.0)])
        x0 = rng.uniform(0.1, 1, size=3)
        star = combine_laplacians([query_edges(pool.graphs[0], ds, x0)], np.ones(1), ds.n)
        alpha, ridge = 2.0, 1e-8
        K, _ = _database_system(pool, np.ones(1), alpha, ridge)
        f = grank_solve(star, (K, None), alpha, ridge)
        L = extended_laplacian_oracle(pool.graphs, np.ones(1), ds, x0)
        e0 = np.eye(ds.n + 1)[0]
        A = np.diag(e0 + ridge) + alpha * L
        assert np.linalg.norm(A @ f - e0) / np.linalg.norm(e0) <= 1e-8


class TestFUpdate:
    def test_alpha_zero_returns_relevance(self):
        ds, pool = small_pool()
        Y = dense_relevance(relevance_matrix(ds, 1))
        mu = GraphWeights(np.array([0.5, 0.5]))
        F = offline_f_update(pool, mu, Y, alpha=0.0)
        assert np.array_equal(F, Y)

    def test_single_graph_equals_columnwise_grank(self):
        ds, pool = small_pool(m_specs=[GraphSpec("gaussian", 3, 1.0)])
        Y = dense_relevance(relevance_matrix(ds, 1))
        F = offline_f_update(pool, GraphWeights(np.array([1.0])), Y, alpha=0.9)
        L = laplacian_oracle(pool.graphs[0].weights)
        u = np.ones(ds.n)
        for q in range(ds.n):
            col = selection_solve_oracle(L, u, Y[:, q], alpha=0.9)
            assert np.allclose(F[:, q], col, atol=1e-10)

    def test_matches_dense_inverse(self):
        rng = np.random.default_rng(1)
        ds = dataset_from_arrays(rng.uniform(0.1, 1, size=(8, 3)))
        pool = build_pool(
            ds,
            [GraphSpec("gaussian", 2, 0.8), GraphSpec("cosine", 3), GraphSpec("tanimoto", 2)],
        )
        mu = GraphWeights(np.array([0.2, 0.5, 0.3]))
        Y = dense_relevance(relevance_matrix(
            dataset_from_arrays(rng.normal(size=(8, 2)), ["a"] * 4 + ["b"] * 4), 1))
        alpha = 1.3
        F = offline_f_update(pool, mu, Y, alpha)
        A = np.eye(8) + alpha * sum(
            w * laplacian_oracle(g.weights).toarray() for w, g in zip(mu.mu, pool.graphs)
        )
        oracle = np.linalg.inv(A) @ Y
        assert np.linalg.norm(F - oracle) / np.linalg.norm(oracle) <= 1e-8

    def test_cg_path_agrees_with_dense(self):
        ds, pool = small_pool(per_class=8)
        Y = dense_relevance(relevance_matrix(ds, 1))
        mu = GraphWeights(np.array([0.4, 0.6]))
        A = np.eye(ds.n) + sum(w * laplacian_oracle(g.weights).toarray()
                               for w, g in zip(mu.mu, pool.graphs))
        oracle = np.linalg.inv(A) @ Y
        rng = np.random.default_rng(2)
        for x0 in (None, np.zeros((ds.n, ds.n)), oracle, rng.normal(size=(ds.n, ds.n))):
            F = offline_f_update(pool, mu, Y, 1.0, x0=x0)
            assert np.linalg.norm(F - oracle) / np.linalg.norm(oracle) <= 1e-8

    def test_converged_start_takes_no_steps(self, monkeypatch):
        import multigrank.ranker as ranker

        ds, pool = small_pool(per_class=8)
        Z = dense_relevance(relevance_matrix(ds, 1))[:, [0, -1]]
        mu = GraphWeights(np.array([0.4, 0.6]))
        steps = []
        solve = ranker._block_cg

        def counted(*args):
            X, taken = solve(*args)
            steps.append(taken)
            return X, taken

        monkeypatch.setattr(ranker, "_block_cg", counted)
        G = offline_f_update(pool, mu, Z, 1.0)
        again = offline_f_update(pool, mu, Z, 1.0, x0=G)
        assert steps[0] > 0 and steps[1] == 0
        assert np.array_equal(again, G)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_non_finite_system_raises(self, alpha):
        ds, pool = small_pool()
        with pytest.raises(SingularSystemError):
            offline_f_update(pool, GraphWeights(np.array([0.5, 0.5])),
                             dense_relevance(relevance_matrix(ds, 1)), alpha)

    def test_zero_column_is_solved_by_zero(self):
        ds, pool = small_pool()
        Z = np.zeros((ds.n, 2))
        Z[0, 1] = 1.0
        F = offline_f_update(pool, GraphWeights(np.array([0.5, 0.5])), Z, 1.0,
                             x0=np.ones((ds.n, 2)))
        assert np.array_equal(F[:, 0], np.zeros(ds.n)) and F[0, 1] > 0

    def test_vector_relevance_keeps_its_shape(self):
        ds, pool = small_pool()
        mu = GraphWeights(np.array([0.5, 0.5]))
        Y = dense_relevance(relevance_matrix(ds, 1))
        F = offline_f_update(pool, mu, Y[:, 0], 1.0)
        assert F.shape == (ds.n,)
        assert np.array_equal(F, offline_f_update(pool, mu, Y[:, :1], 1.0)[:, 0])

    @pytest.mark.parametrize("shape", [(20,), (5, 2), (10, 2, 1), ()])
    def test_relevance_of_another_shape_raises(self, shape):
        ds, pool = small_pool()
        with pytest.raises(ValueError, match=rf"shape {re.escape(str(shape))}.*\(10,\) or \(10, c\)"):
            offline_f_update(pool, GraphWeights(np.array([0.5, 0.5])), np.ones(shape), 1.0)

    @pytest.mark.parametrize("x0", [0.0, np.zeros(10), np.zeros((10, 3)), np.zeros((20, 1))])
    def test_start_of_another_shape_raises(self, x0):
        ds, pool = small_pool()
        shape = re.escape(str(np.shape(x0)))
        with pytest.raises(ValueError, match=rf"x0 has shape {shape}.*shape \(10, 2\)"):
            offline_f_update(pool, GraphWeights(np.array([0.5, 0.5])), np.ones((10, 2)), 1.0,
                             x0=x0)


def grid_minimizer(e, alpha, beta, step=1e-3):
    """Brute-force search over the simplex grid for M=3."""
    ticks = int(round(1.0 / step))
    i = np.arange(ticks + 1)
    ii, jj = np.meshgrid(i, i, indexing="ij")
    keep = ii + jj <= ticks
    pts = np.stack([ii[keep], jj[keep], ticks - ii[keep] - jj[keep]], axis=1) / ticks
    vals = alpha * (pts @ e) + beta * np.einsum("ij,ij->i", pts, pts)
    return pts[np.argmin(vals)]


class TestMuUpdate:
    def test_equal_terms_give_uniform(self):
        ds, pool = small_pool()
        F = np.zeros((ds.n, ds.n))  # all smoothness terms vanish
        mu = minimize_weights(smoothness_terms(pool, F), alpha=1.0, beta=1.0)
        assert np.allclose(mu.mu, 0.5, atol=1e-12)

    def test_mass_moves_to_smooth_graph(self):
        mu = minimize_weights(np.array([0.0, 1e6]), alpha=1.0, beta=1.0)
        assert mu.mu[0] > 0.99

    def test_matches_grid_search(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            e = rng.normal(scale=rng.choice([0.1, 1.0, 10.0]), size=3)
            alpha = float(rng.uniform(0.1, 5.0))
            beta = float(rng.uniform(0.1, 5.0))
            mu = minimize_weights(e, alpha, beta).mu
            grid = grid_minimizer(e, alpha, beta)
            assert np.abs(mu - grid).max() <= 2e-3

    @given(
        e=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=6),
        alpha=st.floats(1e-2, 1e2),
        beta=st.floats(1e-2, 1e2),
    )
    @settings(max_examples=100, deadline=None)
    def test_simplex_constraints_always_hold(self, e, alpha, beta):
        mu = minimize_weights(np.array(e), alpha, beta).mu
        assert mu.min() >= 0.0
        assert abs(mu.sum() - 1.0) <= 1e-10

    @given(
        e=st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=5),
        c=st.floats(-100.0, 100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariant_to_constant_shift(self, e, c):
        e = np.array(e)
        a = minimize_weights(e, 1.0, 1.0).mu
        b = minimize_weights(e + c, 1.0, 1.0).mu
        assert np.abs(a - b).max() <= 1e-9


class TestTrainOffline:
    def test_single_graph_forces_unit_weight(self):
        ds, pool = small_pool(m_specs=[GraphSpec("gaussian", 2, 1.0)])
        model = train_offline(pool, relevance_matrix(ds, 1), HyperParams(max_iters=4))
        assert np.array_equal(model.weights.mu, [1.0])

    def test_adversarial_graph_downweighted(self):
        ds = generate_synthetic(3, 8, 4, 1.0, 9.0, 2)
        rng = np.random.default_rng(0)
        perm = rng.permutation(ds.n)
        shuffled = Dataset.from_records(
            [
                DomainRecord(rec.id, rec.label, ds.records[perm[i]].features)
                for i, rec in enumerate(ds.records)
            ]
        )
        spec = GraphSpec("gaussian", 3, 2.0)
        pool = GraphPool(
            graphs=(knn_graph(ds, spec), knn_graph(shuffled, spec)),
            dataset_fingerprint="test",
            dim=ds.dim,
        )
        model = train_offline(pool, relevance_matrix(ds, 1), HyperParams(max_iters=10))
        assert model.weights.mu[0] > model.weights.mu[1]

    def test_objective_trace_non_increasing(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            n = int(rng.integers(8, 20))
            X = rng.uniform(0.1, 1.0, size=(n, 4))
            labels = ["a" if i % 2 else "b" for i in range(n)]
            ds = dataset_from_arrays(X, labels)
            pool = build_pool(ds, [GraphSpec("gaussian", 2, 0.7), GraphSpec("dot_product", 3)])
            params = HyperParams(alpha=float(rng.uniform(0.2, 3)), beta=float(rng.uniform(0.2, 3)), max_iters=8)
            model = train_offline(pool, relevance_matrix(ds, 1), params)
            diffs = np.diff(model.objective_trace)
            assert (diffs <= 1e-9).all()

    def test_trace_matches_objective_function(self):
        ds, pool = small_pool()
        Y = relevance_matrix(ds, 1)
        params = HyperParams(max_iters=3)
        model = train_offline(pool, Y, params)
        Y = dense_relevance(Y)
        F = offline_f_update(pool, model.weights, Y, params.alpha)
        # trace entries are objective values; recomputing at the final weights
        # reproduces the last entry once F is re-solved for those weights
        obj = objective_oracle(pool, F, Y, model.weights, params.alpha, params.beta)
        assert obj <= model.objective_trace[-1] + 1e-9

    def test_ill_conditioned_training_names_the_bound(self):
        # dot-product weights of ~1e7 with alpha = 100 spread the spectrum of
        # I + alpha L to ~1e10: nonsingular, but past a 1e-8 residual in float64
        base = generate_synthetic(2, 6, 3, 1.0, 4.0, 0)
        ds = dataset_from_arrays(np.abs(base.feature_matrix) * 1e3,
                                 [rec.label[0] for rec in base.records])
        pool = build_pool(ds, [GraphSpec("dot_product", 3)])
        with pytest.raises(SingularSystemError, match="training solve") as err:
            train_offline(pool, relevance_matrix(ds, 1), HyperParams(alpha=100.0, max_iters=2))
        message = str(err.value)
        assert "ridge" not in message
        assert "relative residual" in message
        bound = 1.0 + 2.0 * 100.0 * laplacian_oracle(pool.graphs[0].weights).diagonal().max()
        assert f"1 + 2 alpha d_max = {bound:.3g}" in message

    @pytest.mark.parametrize("make", [dense_relevance, lambda rel: rel.gid],
                             ids=["entries", "gid"])
    def test_relevance_must_be_a_relevance_matrix(self, make):
        ds, pool = small_pool()
        with pytest.raises(TypeError, match="RelevanceMatrix"):
            train_offline(pool, make(relevance_matrix(ds, 1)), HyperParams(max_iters=2))

    def test_early_stop_requires_positive_tol(self):
        ds, pool = small_pool(seed=4)
        Y = relevance_matrix(ds, 1)
        full = train_offline(pool, Y, HyperParams(max_iters=6, tol=0.0))
        assert len(full.objective_trace) == 6
        stopped = train_offline(pool, Y, HyperParams(max_iters=6, tol=1e-12))
        assert len(stopped.objective_trace) <= 6


def reference_train(pool, Y, params):
    """The N-column training loop: solve, smooth and score every column of Y."""
    mu = GraphWeights(np.full(pool.m, 1.0 / pool.m))
    trace = []
    for _ in range(params.max_iters):
        F = offline_f_update(pool, mu, Y, params.alpha)
        e = smoothness_terms(pool, F)
        mu = minimize_weights(e, params.alpha, params.beta)
        resid = F - Y
        trace.append(float(
            np.sum(resid * resid) + params.alpha * (e @ mu.mu) + params.beta * (mu.mu @ mu.mu)
        ))
    return mu, trace


def class_indicator(rel):
    """The N x C one-hot class indicator behind a RelevanceMatrix, from its gid."""
    return (rel.gid[:, None] == np.arange(rel.gid.max() + 1)).astype(np.float64)


class TestCollapsedTraining:
    """Training on the C distinct relevance columns equals training on all N."""

    @given(
        labels=st.lists(st.integers(0, 4), min_size=4, max_size=12),
        seed=st.integers(0, 2**16),
        alpha=st.floats(0.1, 3.0),
        beta=st.floats(0.1, 3.0),
        m=st.integers(2, 3),
    )
    @example(labels=[0] * 6, seed=0, alpha=1.0, beta=1.0, m=2)
    @example(labels=list(range(7)), seed=1, alpha=0.5, beta=2.0, m=3)
    @example(labels=[0, 0, 1, 0, 2, 2, 0, 0], seed=2, alpha=2.0, beta=0.3, m=3)
    @settings(max_examples=40, deadline=None)
    def test_matches_n_column_reference(self, labels, seed, alpha, beta, m):
        rng = np.random.default_rng(seed)
        n = len(labels)
        ds = dataset_from_arrays(rng.uniform(0.05, 1.0, size=(n, 3)), [f"g{c}" for c in labels])
        specs = [
            GraphSpec(s, int(rng.integers(1, n)), 0.8 if s == "gaussian" else None)
            for s in rng.choice(SCHEMES, size=m)
        ]
        pool = build_pool(ds, specs)
        Y = relevance_matrix(ds, 1)
        params = HyperParams(alpha=alpha, beta=beta, max_iters=4)

        model = train_offline(pool, Y, params)
        mu, trace = reference_train(pool, dense_relevance(Y), params)
        assert len(model.objective_trace) == len(trace)
        assert np.allclose(model.objective_trace, trace, rtol=1e-12, atol=0.0)
        assert np.abs(model.weights.mu - mu.mu).max() <= 1e-12

        F = offline_f_update(pool, model.weights, dense_relevance(Y), alpha)
        A = np.eye(n) + alpha * sum(
            w * laplacian_oracle(g.weights).toarray() for w, g in zip(model.weights.mu, pool.graphs)
        )
        oracle = np.linalg.inv(A) @ dense_relevance(Y)
        assert F.shape == (n, n)
        assert np.linalg.norm(F - oracle) / np.linalg.norm(oracle) <= 1e-8

    def test_training_never_densifies(self, monkeypatch):
        ds, pool = small_pool(n_classes=3)
        Y = relevance_matrix(ds, 1)

        def refuse(*args, **kwargs):
            raise AssertionError("dense solve or Laplacian built during training")

        monkeypatch.setattr(BaseGraph, "weights", property(refuse))
        model = train_offline(pool, Y, HyperParams(max_iters=3))
        offline_f_update(pool, model.weights, class_indicator(Y), alpha=1.0)


class TestRankOnline:
    def test_queries_build_no_graph(self, monkeypatch):
        # the query path reads the frozen block and the query's own edges:
        # no extended graph, and no Laplacian of a pooled graph
        specs = [GraphSpec("gaussian", 2, 1.5), GraphSpec("dot_product", 4),
                 GraphSpec("cosine", 3), GraphSpec("gaussian", 3, 0.8)]
        ds, pool = small_pool(n_classes=3, m_specs=specs)
        model = train_offline(pool, relevance_matrix(ds, 1), HyperParams(max_iters=3))
        uniform = RankModel(GraphWeights(np.full(pool.m, 1.0 / pool.m)), model.params,
                            pool.fingerprint, [])
        x0 = ds.records[2].features + 0.05
        expected = [rank_online(model, pool, ds, x0).scores,
                    rank_online(uniform, pool, ds, x0).scores,
                    grank_online(pool, 1, ds, x0, model.params).scores]

        def refuse(*args, **kwargs):
            raise AssertionError("a graph or Laplacian built, or a direct solve, at query time")

        fresh = GraphPool(pool.graphs, pool.dataset_fingerprint, pool.dim)
        monkeypatch.setattr(BaseGraph, "weights", property(refuse))
        refuse_direct_solve(monkeypatch)
        for p in (pool, fresh):
            got = [rank_online(model, p, ds, x0).scores,
                   rank_online(uniform, p, ds, x0).scores,
                   grank_online(p, 1, ds, x0, model.params).scores]
            for a, b in zip(got, expected):
                assert np.array_equal(a, b)

    def test_duplicate_query_top_class(self):
        ds, pool = small_pool(seed=7, per_class=8)
        model = train_offline(pool, relevance_matrix(ds, 1), HyperParams(max_iters=5))
        query = ds.records[3]
        ranked = rank_online(model, pool, ds, query.features, query_id=query.id)
        top = next(rec for rec in ds.records if rec.id == ranked_top_ids(ranked, 1)[0])
        assert top.label == query.label

    def test_vanishing_alpha_zeroes_database_scores(self):
        # the known entry sits on the query only; database scores scale like
        # alpha/ridge, so they vanish as alpha -> 0 at fixed ridge
        ds, pool = small_pool()
        model = train_offline(pool, relevance_matrix(ds, 1), HyperParams(max_iters=2))
        model = dataclasses.replace(model, params=HyperParams(alpha=1e-12, ridge=1e-5))
        ranked = rank_online(model, pool, ds, ds.records[0].features)
        assert np.abs(ranked.scores).max() <= 1e-6

    def test_matches_dense_inverse_of_extended_system(self):
        ds = dataset_from_arrays(
            [[0.1, 0.2], [0.3, 0.1], [0.8, 0.9], [0.9, 0.8], [0.45, 0.5]]
        )
        pool = build_pool(ds, [GraphSpec("gaussian", 2, 0.5), GraphSpec("tanimoto", 2)])
        weights = GraphWeights(np.array([0.3, 0.7]))
        params = HyperParams(alpha=0.8, ridge=1e-9)
        model = RankModel(weights, params, pool.fingerprint, [])
        x0 = np.array([0.2, 0.2])
        ranked = rank_online(model, pool, ds, x0)
        L = extended_laplacian_oracle(pool.graphs, weights.mu, ds, x0)
        u = np.zeros(6)
        u[0] = 1.0
        oracle = np.linalg.inv(np.diag(u + params.ridge) + params.alpha * L) @ u
        assert np.linalg.norm(ranked.scores - oracle[1:]) / np.linalg.norm(oracle[1:]) <= 1e-8

    def test_scale_consistency_alpha_vs_weights(self):
        # dot-product weights scale exactly by 1/4 when features halve, and
        # powers of two keep alpha*L bit-identical under alpha -> 4*alpha
        rng = np.random.default_rng(8)
        X = rng.uniform(0.1, 1.0, size=(10, 3))
        x0 = rng.uniform(0.1, 1.0, size=3)
        spec = [GraphSpec("dot_product", 3)]
        ds_a = dataset_from_arrays(X)
        ds_b = dataset_from_arrays(0.5 * X)
        pool_a, pool_b = build_pool(ds_a, spec), build_pool(ds_b, spec)
        mu = GraphWeights(np.array([1.0]))
        model_a = RankModel(mu, HyperParams(alpha=0.3, ridge=1e-8), pool_a.fingerprint, [])
        model_b = RankModel(mu, HyperParams(alpha=1.2, ridge=1e-8), pool_b.fingerprint, [])
        f_a = rank_online(model_a, pool_a, ds_a, x0).scores
        f_b = rank_online(model_b, pool_b, ds_b, 0.5 * x0).scores
        assert np.abs(f_a - f_b).max() <= 1e-9

    def test_query_id_is_keyword_only(self):
        ds, pool = small_pool()
        model = train_offline(pool, relevance_matrix(ds, 1), HyperParams(max_iters=2))
        with pytest.raises(TypeError):
            rank_online(model, pool, ds, ds.records[0].features, "q")

    def test_fingerprint_mismatch_rejected(self):
        ds, pool = small_pool()
        other, other_pool = small_pool(seed=99)
        model = train_offline(pool, relevance_matrix(ds, 1), HyperParams(max_iters=2))
        with pytest.raises(ValueError, match="fingerprint"):
            rank_online(model, other_pool, other, other.records[0].features)
        with pytest.raises(ValueError, match="fingerprint"):
            rank_online(model, pool, other, other.records[0].features)

    def test_model_of_reordered_specs_rejected(self):
        # one dataset, the same two graphs in the other order: the pool's
        # fingerprint covers the spec order, so the model's weights cannot
        # land on the wrong graphs
        ds, pool = small_pool(m_specs=[GraphSpec("gaussian", 2, 1.5), GraphSpec("cosine", 2)])
        swapped = build_pool(ds, [GraphSpec("cosine", 2), GraphSpec("gaussian", 2, 1.5)])
        assert swapped.dataset_fingerprint == pool.dataset_fingerprint
        model = train_offline(pool, relevance_matrix(ds, 1), HyperParams(max_iters=2))
        with pytest.raises(ValueError, match="trained against pool .*fingerprint mismatch"):
            rank_online(model, swapped, ds, ds.records[0].features)

    def test_graph_count_mismatch_rejected(self):
        specs = [GraphSpec("gaussian", 2, 1.5), GraphSpec("cosine", 2), GraphSpec("tanimoto", 2)]
        ds, pool = small_pool(m_specs=specs)
        model = RankModel(GraphWeights(np.array([0.5, 0.5])), HyperParams(), pool.fingerprint, [])
        with pytest.raises(ValueError, match="2 graph weights but the pool has 3 graphs"):
            rank_online(model, pool, ds, ds.records[0].features)

    def test_grank_online_single_graph(self):
        ds, pool = small_pool()
        params = HyperParams()
        ranked = grank_online(pool, 1, ds, ds.records[0].features, params)
        solo_pool = GraphPool((pool.graphs[1],), pool.dataset_fingerprint, pool.dim)
        model = RankModel(GraphWeights(np.array([1.0])), params, solo_pool.fingerprint, [])
        expected = rank_online(model, solo_pool, ds, ds.records[0].features)
        assert np.array_equal(ranked.scores, expected.scores)
        with pytest.raises(ValueError, match="index"):
            grank_online(pool, 5, ds, ds.records[0].features, params)


def two_cluster_dataset(rng, sizes):
    """Two clusters on disjoint coordinate pairs: under every scheme a node's
    nearest neighbors lie in its own cluster, so kNN graphs never join them."""
    n_a, n_b = sizes
    X = np.zeros((n_a + n_b, 4))
    X[:n_a, :2] = rng.uniform(5.0, 6.0, size=(n_a, 2))
    X[n_a:, 2:] = rng.uniform(5.0, 6.0, size=(n_b, 2))
    return dataset_from_arrays(X, ["a"] * n_a + ["b"] * n_b)


def cluster_query(rng, cluster):
    x0 = np.zeros(4)
    x0[2 * cluster : 2 * cluster + 2] = rng.uniform(5.0, 6.0, size=2)
    return x0


def random_specs(rng, m, k_max):
    return [
        GraphSpec(str(s), int(rng.integers(1, k_max + 1)),
                  float(rng.uniform(0.5, 2.0)) if s == "gaussian" else None)
        for s in rng.choice(SCHEMES, size=m)
    ]


def weights_with_zeros(rng, m):
    """Random simplex weights with at least one exact zero and one nonzero."""
    mu = rng.dirichlet(np.ones(m))
    mu[rng.permutation(m)[: int(rng.integers(1, m))]] = 0.0
    return GraphWeights(mu / mu.sum())


def extended_laplacian(pool, mu, ds, x0):
    """Combined extended Laplacian over every pooled graph, zero weights
    included, as CSR: the oracle's, not the ranker's, build."""
    return sp.csr_matrix(extended_laplacian_oracle(pool.graphs, mu, ds, x0))


def query_selector(n):
    u = np.zeros(n + 1)
    u[0] = 1.0
    return u


def refuse_direct_solve(monkeypatch):
    import multigrank.ranker as ranker

    def refuse(*args, **kwargs):
        raise AssertionError("conjugate gradients called; the frozen factor was not used")

    monkeypatch.setattr(ranker, "_block_cg", refuse)


class TestFrozenFactor:
    """Online ranking from the cached factor of the frozen database block."""

    @given(
        seed=st.integers(0, 2**16),
        sizes=st.tuples(st.integers(3, 8), st.integers(3, 8)),
        m=st.integers(2, 4),
        ridge=st.sampled_from([1e-8, 1e-6, 1e-3]),
        alpha=st.floats(0.1, 3.0),
        cluster=st.integers(0, 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_on_disconnected_graphs(self, seed, sizes, m, ridge, alpha, cluster):
        rng = np.random.default_rng(seed)
        ds = two_cluster_dataset(rng, sizes)
        pool = build_pool(ds, random_specs(rng, m, min(sizes) - 1))
        mu = weights_with_zeros(rng, m)
        model = RankModel(mu, HyperParams(alpha=alpha, ridge=ridge), pool.fingerprint, [])
        x0 = cluster_query(rng, cluster)
        with pytest.MonkeyPatch.context() as patch:
            refuse_direct_solve(patch)
            ranked = rank_online(model, pool, ds, x0)
        u = query_selector(ds.n)
        A = np.diag(u + ridge) + alpha * extended_laplacian(pool, mu.mu, ds, x0).toarray()
        oracle = np.linalg.inv(A) @ u
        assert np.linalg.norm(ranked.scores - oracle[1:]) / np.linalg.norm(oracle[1:]) <= 1e-8

    def test_ridge_zero_takes_the_direct_path(self):
        rng = np.random.default_rng(4)
        ds = two_cluster_dataset(rng, (5, 6))
        pool = build_pool(ds, random_specs(rng, 3, 4))
        model = RankModel(weights_with_zeros(rng, 3), HyperParams(ridge=0.0), pool.fingerprint, [])
        with pytest.raises(SingularSystemError, match="ridge"):
            rank_online(model, pool, ds, cluster_query(rng, 0))

        one = two_cluster_dataset(rng, (7, 0))
        # k = N - 1: every graph is complete, so every extended graph is connected
        pool = build_pool(one, [GraphSpec(s, 6, 1.0 if s == "gaussian" else None)
                                for s in SCHEMES])
        mu = weights_with_zeros(rng, len(SCHEMES))
        model = RankModel(mu, HyperParams(alpha=0.7, ridge=0.0), pool.fingerprint, [])
        x0 = cluster_query(rng, 0)
        u = query_selector(one.n)
        K, inv = _frozen_factor(pool, mu.mu, 0.7, 0.0)
        assert inv is None
        star = combine_laplacians([query_edges(g, one, x0) for g in pool.graphs], mu.mu, one.n)
        direct = grank_solve(star, (K, None), 0.7, 0.0)
        assert np.array_equal(rank_online(model, pool, one, x0).scores, direct[1:])
        oracle = selection_solve_oracle(extended_laplacian(pool, mu.mu, one, x0), u, u, 0.7)
        assert np.linalg.norm(direct - oracle) / np.linalg.norm(oracle) <= 1e-8

    def test_cache_follows_weights_and_params(self, monkeypatch):
        rng = np.random.default_rng(11)
        ds = two_cluster_dataset(rng, (8, 0))
        specs = [GraphSpec("gaussian", 7, 1.0), GraphSpec("cosine", 7), GraphSpec("tanimoto", 7)]
        pool = build_pool(ds, specs)
        fp = pool.fingerprint
        params = HyperParams()
        model_a = RankModel(GraphWeights(np.array([0.5, 0.5, 0.0])), params, fp, [])
        model_b = RankModel(GraphWeights(np.array([0.2, 0.8, 0.0])), params, fp, [])
        model_alpha = dataclasses.replace(model_a, params=HyperParams(alpha=0.3))
        model_ridge = dataclasses.replace(model_a, params=HyperParams(ridge=1e-3))
        # each arm differs from another in one of: weights, alpha, ridge, active graphs
        arms = [
            lambda p, x: rank_online(model_a, p, ds, x),
            lambda p, x: rank_online(model_b, p, ds, x),
            lambda p, x: rank_online(model_alpha, p, ds, x),
            lambda p, x: rank_online(model_ridge, p, ds, x),
            lambda p, x: grank_online(p, 2, ds, x, params),
            lambda p, x: grank_online(p, 0, ds, x, params),
        ]
        queries = [cluster_query(rng, 0) for _ in range(3)]
        expected = [[arm(GraphPool(pool.graphs, pool.dataset_fingerprint, pool.dim), x).scores
                     for x in queries] for arm in arms]

        def arrays_in(value):
            if isinstance(value, tuple):
                return [a for v in value for a in arrays_in(v)]
            return [value] if isinstance(value, np.ndarray) else []

        def factors_held():
            return sum(a.shape == (ds.n, ds.n) for v in vars(pool).values() for a in arrays_in(v))

        arms[0](pool, queries[0])
        refuse_direct_solve(monkeypatch)
        for _ in range(2):
            for i, x in enumerate(queries):
                for a in rng.permutation(len(arms)):
                    assert np.array_equal(arms[a](pool, x).scores, expected[a][i])
                    assert factors_held() == 1

    def test_all_default_graphs_at_realistic_size(self):
        # uniform weights over the 14-graph default grid: the database block
        # couples every scheme's edges, as weights spread over many graphs do
        from multigrank.graphs import default_spec_grid

        ds = generate_synthetic(4, 100, 8, 1.0, 5.0, 3)
        pool = build_pool(ds, default_spec_grid(ds))
        mu = GraphWeights(np.full(pool.m, 1.0 / pool.m))
        params = HyperParams(alpha=1.0, ridge=1e-8)
        model = RankModel(mu, params, pool.fingerprint, [])
        rng = np.random.default_rng(3)
        queries = [ds.records[5].features, ds.records[250].features + 0.1,
                   rng.uniform(0.0, 6.0, size=ds.dim)]
        u = query_selector(ds.n)
        with pytest.MonkeyPatch.context() as patch:
            refuse_direct_solve(patch)
            for x0 in queries:
                ranked = rank_online(model, pool, ds, x0)
                L = extended_laplacian(pool, mu.mu, ds, x0).toarray()
                oracle = np.linalg.inv(np.diag(u + params.ridge) + params.alpha * L) @ u
                err = np.linalg.norm(ranked.scores - oracle[1:]) / np.linalg.norm(oracle[1:])
                assert err <= 1e-8

    def test_inverse_columns_on_both_sides_of_the_diagonal(self):
        ds = generate_synthetic(3, 10, 4, 1.0, 4.0, 6)
        pool = build_pool(ds, [GraphSpec("gaussian", 4, 2.0), GraphSpec("cosine", 3)])
        mu, alpha, ridge = np.array([0.3, 0.7]), 0.9, 1e-3
        L_db = sum(m * laplacian_oracle(g.weights).toarray() for m, g in zip(mu, pool.graphs))
        K = alpha * L_db + ridge * np.eye(ds.n)
        _, inv = _frozen_factor(pool, mu, alpha, ridge)
        # first, last and middle rows, unsorted, so each column has entries
        # both above and below the diagonal
        T = np.array([ds.n - 1, 0, ds.n // 2, 7])
        oracle = np.linalg.inv(K)[:, T]
        assert np.array_equal(inv, inv.T)
        Q = inv[:, T]
        assert np.abs(Q - oracle).max() <= 1e-10 * np.abs(oracle).max()


def test_inverse_path_queries_build_no_sparse_matrix():
    # once the frozen factor is held, each query's star stays plain arrays:
    # with the sparse constructors refused, the multi-graph and single-graph
    # arms still rank, by the inverse path, to the scores they gave before
    import multigrank.ranker as ranker
    from multigrank.graphs import default_spec_grid

    ds = generate_synthetic(3, 20, 4, 1.0, 4.0, 1)
    pool = build_pool(ds, default_spec_grid(ds))
    params = HyperParams()
    model = RankModel(GraphWeights(np.full(pool.m, 1.0 / pool.m)), params, pool.fingerprint, [])
    arms = [lambda x: rank_online(model, pool, ds, x),
            lambda x: grank_online(pool, 5, ds, x, params)]
    queries = [ds.records[3].features + 0.1, ds.records[40].features,
               np.full(ds.dim, float(ds.feature_matrix.mean()))]

    def refuse(*args, **kwargs):
        raise AssertionError("sparse matrix built for a query")

    for arm in arms:
        expected = [arm(x0).scores for x0 in queries]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ranker.sp, "csr_matrix", refuse)
            patch.setattr(ranker.sp, "block_diag", refuse)
            refuse_direct_solve(patch)
            for x0, scores in zip(queries, expected):
                assert np.array_equal(arm(x0).scores, scores)


def test_uniform_weights_online_scores_golden(tmp_path):
    # sha256 of the concatenated rank_online scores under uniform weights over
    # the default grid (numpy 2.4.6, scipy 1.17.1, x86-64): each query's star
    # sums 14 graphs' edges over four measures.  The scores depend on the BLAS
    # thread count through the LAPACK inverse, so they are computed in a
    # fresh process on one thread.
    code = """
import hashlib
import numpy as np
from multigrank.dataset import generate_synthetic, split_queries
from multigrank.graphs import build_pool, default_spec_grid
from multigrank.ranker import GraphWeights, HyperParams, RankModel, rank_online
db, queries = split_queries(generate_synthetic(5, 41, 32, 1.0, 6.0, 7), 1, "disjoint")
pool = build_pool(db, default_spec_grid(db))
mu = GraphWeights(np.full(pool.m, 1.0 / pool.m))
model = RankModel(mu, HyperParams(), pool.fingerprint, [])
h = hashlib.sha256()
for rec in queries.records:
    h.update(rank_online(model, pool, db, rec.features).scores.tobytes())
print(pool.m, db.n, h.hexdigest())
"""
    env = dict(os.environ, PYTHONPATH=str(Path(multigrank.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "14", "200", "14a9ac5b5def38adaaa37c8875a33f1c82c3f5fa3033e9ee8b3956160fcf0bf4"
    ]


def offset_clusters():
    """60 rows in two 4-d clusters 100 apart; a gaussian k=3, sigma=1 graph
    leaves them two components."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 4))
    X[30:] += 100.0
    ds = dataset_from_arrays(X, ["a"] * 30 + ["b"] * 30)
    return ds, build_pool(ds, [GraphSpec("gaussian", 3, 1.0)])


def test_uniform_weights_select_once_per_measure(monkeypatch):
    # the default grid's 14 graphs share four selection measures
    import multigrank.ranker as ranker
    from multigrank.graphs import default_spec_grid

    ds = generate_synthetic(3, 10, 4, 1.0, 4.0, 2)
    pool = build_pool(ds, default_spec_grid(ds))
    model = RankModel(GraphWeights(np.full(pool.m, 1.0 / pool.m)), HyperParams(),
                      pool.fingerprint, [])
    x0 = ds.records[4].features + 0.1
    # each graph selecting its own neighbours gives the same scores
    mu = model.weights.mu
    star = combine_laplacians([query_edges(g, ds, x0) for g in pool.graphs], mu, ds.n)
    alone = grank_solve(star, _frozen_factor(pool, mu, 1.0, 1e-8), 1.0, 1e-8)
    widths = []
    select = ranker.query_neighbors

    def counted(ds, x0, spec):
        widths.append(spec.k)
        return select(ds, x0, spec)

    monkeypatch.setattr(ranker, "query_neighbors", counted)
    assert np.array_equal(rank_online(model, pool, ds, x0).scores, alone[1:])
    assert pool.m == 14 and widths == [10] * 4


def test_ridge_zero_ignores_edges_of_graphs_of_weight_zero():
    # a wide graph of weight 0 joins the two clusters: its edges are in the
    # pool's edge table, at weight 0 under a one-hot mu, and must not count
    from scipy.sparse.csgraph import connected_components

    ds, narrow = offset_clusters()
    pool = build_pool(ds, [narrow.graphs[0].spec, GraphSpec("gaussian", 40, 1000.0)])
    table = pool.edge_table
    pattern = sp.csr_matrix((np.ones(table.i.size), (table.i, table.j)), shape=(ds.n, ds.n))
    assert connected_components(pattern, directed=False)[0] == 1
    for mu in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        K, _ = _frozen_factor(pool, mu, 1.0, 0.0)
        assert connected_components(K != 0, directed=False)[0] == 1 + mu[0]
    params = HyperParams(ridge=0.0)
    model = RankModel(GraphWeights(np.array([1.0, 0.0])), params, pool.fingerprint, [])
    for x0 in (ds.records[0].features, ds.records[-1].features):
        with pytest.raises(SingularSystemError, match="ridge"):
            rank_online(model, pool, ds, x0)
        with pytest.raises(SingularSystemError, match="ridge"):
            grank_online(pool, 0, ds, x0, params)
        assert np.isfinite(grank_online(pool, 1, ds, x0, params).scores).all()


def test_ridge_zero_raises_for_a_component_without_the_query():
    # Cholesky meets a tiny positive pivot here, not a zero one, so only the
    # component check makes this raise
    ds, pool = offset_clusters()
    model = RankModel(GraphWeights(np.array([1.0])), HyperParams(ridge=0.0), pool.fingerprint, [])
    with pytest.raises(SingularSystemError, match="ridge"):
        rank_online(model, pool, ds, ds.records[0].features)


class TestConjugateGradientPath:
    """Online ranking on the direct path, block conjugate gradients: lowering
    INVERSE_LIMIT below N + 1 keeps the pool from inverting its database
    block, so every query is solved there."""

    @pytest.fixture
    def cg_calls(self, monkeypatch):
        import multigrank.ranker as ranker

        calls = []
        solve = ranker._block_cg

        def counted(*args):
            calls.append(args[2].shape)
            return solve(*args)

        monkeypatch.setattr(ranker, "INVERSE_LIMIT", 8)
        monkeypatch.setattr(ranker, "_block_cg", counted)
        return calls

    def connected_pool(self):
        ds = generate_synthetic(3, 20, 4, 1.0, 2.0, 5)
        return ds, build_pool(ds, [GraphSpec("gaussian", 5, 2.0), GraphSpec("cosine", 5),
                                   GraphSpec("jaccard", 4)])

    @pytest.mark.parametrize("make_pool", ["connected", "two_cluster"])
    def test_matches_dense_inverse_oracle(self, cg_calls, make_pool):
        ds, pool = self.connected_pool() if make_pool == "connected" else offset_clusters()
        mu = GraphWeights(np.full(pool.m, 1.0 / pool.m))
        params = HyperParams(alpha=0.8, ridge=1e-8)
        model = RankModel(mu, params, pool.fingerprint, [])
        u = query_selector(ds.n)
        for x0 in (ds.records[0].features, ds.records[-1].features + 0.1):
            ranked = rank_online(model, pool, ds, x0)
            L = extended_laplacian(pool, mu.mu, ds, x0).toarray()
            oracle = np.linalg.inv(np.diag(u + params.ridge) + params.alpha * L) @ u
            err = np.linalg.norm(ranked.scores - oracle[1:]) / np.linalg.norm(oracle[1:])
            assert err <= 1e-8
        assert cg_calls == [(ds.n, 1)] * 2

    def test_ridge_zero_raises_on_disconnected_pool(self, cg_calls):
        ds, pool = offset_clusters()
        model = RankModel(GraphWeights(np.array([1.0])), HyperParams(ridge=0.0),
                          pool.fingerprint, [])
        with pytest.raises(SingularSystemError, match="ridge"):
            rank_online(model, pool, ds, ds.records[0].features)

    @pytest.mark.parametrize("ridge", [0.0, 1e-8])
    def test_direct_path_makes_no_lapack_call(self, monkeypatch, ridge):
        # the ranker imports lapack where it inverts, so the routines
        # themselves are replaced, wherever they are looked up from
        from scipy.linalg import lapack

        def refuse(name):
            def call(*args, **kwargs):
                raise AssertionError(f"lapack.{name} called on the direct path")

            return call

        for name in ("dpotrf", "dpotri"):
            monkeypatch.setattr(lapack, name, refuse(name))
        ds, pool = self.connected_pool()
        mu = np.array([0.2, 0.5, 0.3])
        u = query_selector(ds.n)
        # the frozen block without its inverse, as ridge 0 and large N give it
        K, _ = _database_system(pool, mu, 0.8, ridge)
        for x0 in (ds.records[3].features, ds.records[-1].features + 0.2):
            oracle = selection_solve_oracle(extended_laplacian(pool, mu, ds, x0), u, u, 0.8, ridge)
            star = combine_laplacians([query_edges(g, ds, x0) for g in pool.graphs], mu, ds.n)
            f = grank_solve(star, (K, None), 0.8, ridge)
            assert np.linalg.norm(f - oracle) / np.linalg.norm(oracle) <= 1e-8

    def test_inverse_result_failing_the_check_is_solved_by_cg(self, monkeypatch):
        # an inverse held for other weights gives a Woodbury result that fails
        # the residual check; the query is then solved again by conjugate
        # gradients on B, to the bytes of a solve with no inverse at all
        import multigrank.ranker as ranker

        ds, pool = self.connected_pool()
        mu, alpha, ridge = np.array([0.2, 0.5, 0.3]), 0.8, 1e-8
        K, _ = _frozen_factor(pool, mu, alpha, ridge)
        _, stale = _frozen_factor(pool, np.array([0.6, 0.0, 0.4]), alpha, ridge)
        assert stale is not None
        calls = []
        solve = ranker._block_cg

        def counted(*args):
            calls.append(args[2].shape)
            return solve(*args)

        monkeypatch.setattr(ranker, "_block_cg", counted)
        u = query_selector(ds.n)
        for x0 in (ds.records[3].features, ds.records[-1].features + 0.2):
            star = combine_laplacians([query_edges(g, ds, x0) for g in pool.graphs], mu, ds.n)
            calls.clear()
            f = grank_solve(star, (K, stale), alpha, ridge)
            assert calls == [(ds.n, 1)]
            assert f.tobytes() == grank_solve(star, (K, None), alpha, ridge).tobytes()
            oracle = selection_solve_oracle(extended_laplacian(pool, mu, ds, x0), u, u, alpha,
                                            ridge)
            assert np.linalg.norm(f - oracle) / np.linalg.norm(oracle) <= 1e-8

    def test_chain_graph_within_the_step_cap(self, monkeypatch):
        # a path graph is CG's slow case: its spectrum spreads as 1/N^2, and
        # at ridge 0 the exact scores are all ones, since L 1 = 0
        import multigrank.ranker as ranker

        n = 400 + 1  # the query, joined to one end of a path database of 400
        steps = []
        solve = ranker._block_cg

        def counted(*args):
            X, taken = solve(*args)
            steps.append(taken)
            return X, taken

        monkeypatch.setattr(ranker, "_block_cg", counted)
        W = sp.diags([np.ones(n - 2), np.ones(n - 2)], [-1, 1], format="csr")
        L_db = (sp.diags(np.asarray(W.sum(axis=1)).ravel()) - W).tocsr()
        star = QueryStar(np.array([0]), np.array([1.0]), 1.0, n - 1)
        f = grank_solve(star, (L_db, None), 1.0, 0.0)
        assert len(steps) == 1 and steps[0] < 20 * n
        assert np.abs(f - 1.0).max() <= 1e-10


class TestPairwiseBaseline:
    def test_duplicate_query_ranks_first(self):
        ds = dataset_from_arrays([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        ranked = rank_pairwise_baseline(ds, np.array([0.5, 0.5]))
        assert ranked_top_ids(ranked, 1) == ("r1",)
        assert ranked.scores[1] == pytest.approx(1.0)

    def test_orthogonal_query_gives_zero_scores_index_order(self):
        ds = dataset_from_arrays([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
        ranked = rank_pairwise_baseline(ds, np.array([0.0, 1.0, 0.0]))
        assert np.array_equal(ranked.scores, np.zeros(3))
        assert ranked.order.tolist() == [0, 1, 2]

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(7, 4))
        x0 = rng.normal(size=4)
        ranked = rank_pairwise_baseline(dataset_from_arrays(X), x0)
        for i in range(7):
            manual = float(X[i] @ x0 / (np.linalg.norm(X[i]) * np.linalg.norm(x0)))
            assert ranked.scores[i] == pytest.approx(manual, abs=1e-12)

    def test_zero_query_rejected(self):
        ds = dataset_from_arrays(np.eye(2))
        with pytest.raises(ValueError, match="zero query"):
            rank_pairwise_baseline(ds, np.zeros(2))


def test_make_ranked_tie_break():
    ranked = make_ranked("q", [1.0, 2.0, 1.0, 2.0], ["a", "b", "c", "d"])
    assert ranked.order.tolist() == [1, 3, 0, 2]
    with pytest.raises(ValueError, match="finite"):
        make_ranked("q", [np.nan, 1.0], ["a", "b"])


def test_write_ranked_tsv(tmp_path):
    ranked = make_ranked("q", [0.5, 2.0, 1.0], ["a", "b", "c"])
    path = tmp_path / "out.tsv"
    write_ranked_tsv(ranked, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "rank\tid\tscore"
    assert lines[1] == "1\tb\t2.0"
    assert lines[3] == "3\ta\t0.5"


def test_model_round_trip(tmp_path):
    ds, pool = small_pool()
    model = train_offline(pool, relevance_matrix(ds, 1), HyperParams(max_iters=3, tol=1e-3))
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert np.array_equal(back.weights.mu, model.weights.mu)
    assert back.params == HyperParams(
        alpha=model.params.alpha,
        beta=model.params.beta,
        max_iters=model.params.max_iters,
        ridge=model.params.ridge,
        tol=1e-3,
    )
    assert back.pool_fingerprint == model.pool_fingerprint
    assert back.objective_trace == model.objective_trace


_ROUND_TRIP_SPECS = [
    GraphSpec("gaussian", 2, 0.7), GraphSpec("gaussian", 3, 2.0), GraphSpec("dot_product", 2),
    GraphSpec("cosine", 3), GraphSpec("jaccard", 2), GraphSpec("tanimoto", 3),
]


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(6, 14),
    dim=st.integers(1, 4),
    specs=st.lists(st.sampled_from(_ROUND_TRIP_SPECS), min_size=1, max_size=4, unique=True),
    alpha=st.floats(0.1, 10.0),
    ridge=st.sampled_from([1e-8, 1e-3, 1.0]),
)
@settings(max_examples=30, deadline=None)
def test_save_load_keeps_rankings_bit_for_bit(seed, n, dim, specs, alpha, ridge):
    rng = np.random.default_rng(seed)
    ds = dataset_from_arrays(rng.uniform(0.1, 3.0, size=(n, dim)), random_labels(rng, n, 3))
    pool = build_pool(ds, specs)
    params = HyperParams(alpha=alpha, ridge=ridge, max_iters=3)
    model = train_offline(pool, relevance_matrix(ds, 1), params)
    with tempfile.TemporaryDirectory() as tmp:
        save_pool(pool, f"{tmp}/pool.bin")
        save_model(model, f"{tmp}/model.json")
        pool_back, model_back = load_pool(f"{tmp}/pool.bin"), load_model(f"{tmp}/model.json")
    for x0 in (*rng.uniform(0.1, 3.0, size=(3, dim)), ds.records[0].features):
        pairs = [(rank_online(model, pool, ds, x0), rank_online(model_back, pool_back, ds, x0))]
        pairs += [(grank_online(pool, g, ds, x0, params),
                   grank_online(pool_back, g, ds, x0, model_back.params)) for g in range(pool.m)]
        for before, after in pairs:
            assert before.scores.tobytes() == after.scores.tobytes()


@pytest.mark.parametrize("value", [2.5, 2.0, True, "3"])
def test_hyperparams_max_iters_must_be_integer(value):
    with pytest.raises(ValueError, match="max_iters must be an integer"):
        HyperParams(max_iters=value)


def test_hyperparams_accept_numpy_integer_iters():
    assert HyperParams(max_iters=np.int64(3)).max_iters == 3


@pytest.mark.parametrize("value", [2.7, 2.0, True, "2", None])
def test_load_model_rejects_non_integer_iters(tmp_path, value):
    ds, pool = small_pool()
    model = train_offline(pool, relevance_matrix(ds, 1), HyperParams(max_iters=2))
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["T"] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="T must be an integer"):
        load_model(path)


def _without(key):
    def edit(doc):
        del doc[key]
        return doc
    return edit


def _with(key, value):
    def edit(doc):
        doc[key] = value
        return doc
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_without("alpha"), r"missing field 'alpha'"),
        (_with("alpha", [1]), r"alpha must be a number, got \[1\]"),
        (_with("ridge", "1e-8"), r"ridge must be a number, got '1e-8'"),
        (_with("beta", True), r"beta must be a number, got True"),
        (lambda doc: [doc], r"expected a JSON object, got list"),
        (_with("mu", ["0.5", "0.5"]), r"mu must be a list of numbers"),
        (_with("mu", [float("nan"), 1.0]), r"simplex"),
        (_with("pool_fingerprint", 7), r"pool_fingerprint must be a string, got 7"),
        (_with("objective_trace", "1.0"), r"objective_trace must be a list of numbers, got '1.0'"),
        (_with("alpha", 10**400), r"alpha must be a number, got 10{400}$"),
        (_with("version", 1), r"unsupported model file version 1: this release reads version 2"),
        (_without("tol"), r"missing field 'tol'"),
    ],
)
def test_load_model_rejects_malformed_fields(tmp_path, edit, message):
    ds, pool = small_pool()
    model = train_offline(pool, relevance_matrix(ds, 1), HyperParams(max_iters=2))
    path = tmp_path / "model.json"
    save_model(model, path)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(ValueError, match=message):
        load_model(path)


def test_hyperparams_validation():
    for bad in (
        dict(alpha=0.0),
        dict(beta=-1.0),
        dict(max_iters=0),
        dict(ridge=-1e-9),
        dict(tol=-1.0),
    ):
        with pytest.raises(ValueError):
            HyperParams(**bad)


@pytest.mark.parametrize("field", ["alpha", "beta", "ridge", "tol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_hyperparams_reject_non_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        HyperParams(**{field: value})


def test_graph_weights_validation():
    with pytest.raises(ValueError, match="simplex"):
        GraphWeights(np.array([0.6, 0.6]))
    with pytest.raises(ValueError, match="simplex"):
        GraphWeights(np.array([1.2, -0.2]))


@st.composite
def overlapping_pools(draw):
    """Pools of random symmetric graphs over a shared candidate edge set: each
    graph keeps a random subset of it, so graphs share some edges and not
    others."""
    n = draw(st.integers(2, 10))
    m = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    upper = np.triu(rng.random((n, n)) < 0.6, k=1)
    graphs = []
    for _ in range(m):
        i, j = np.nonzero(upper & (rng.random((n, n)) < 0.7))
        w = rng.uniform(0.1, 2.0, size=i.size)
        graphs.append(BaseGraph(GraphSpec("cosine", 1), n, i, j, w))
    return GraphPool(tuple(graphs), "test", 1), rng


@given(drawn=overlapping_pools(), cols=st.sampled_from(["one", "C", "N"]))
@settings(max_examples=80, deadline=None)
def test_smoothness_terms_equal_dense_traces(drawn, cols):
    pool, rng = drawn
    width = {"one": 1, "C": 3, "N": pool.n}[cols]
    F = rng.normal(size=(pool.n, width))
    e = smoothness_terms(pool, F)
    for m, g in enumerate(pool.graphs):
        manual = np.trace(F.T @ laplacian_oracle(g.weights).toarray() @ F)
        assert abs(e[m] - manual) <= 1e-12 * abs(manual)
    assert np.array_equal(smoothness_terms(pool, F[:, 0]), smoothness_terms(pool, F[:, :1]))


def test_smoothness_terms_match_quadratic_forms():
    ds, pool = small_pool()
    rng = np.random.default_rng(0)
    F = rng.normal(size=(ds.n, ds.n))
    e = smoothness_terms(pool, F)
    for m, g in enumerate(pool.graphs):
        manual = np.trace(F.T @ laplacian_oracle(g.weights).toarray() @ F)
        assert e[m] == pytest.approx(manual, rel=1e-10)
