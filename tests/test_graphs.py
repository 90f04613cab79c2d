import contextlib
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    dataset_from_arrays,
    extend_graph_oracle,
    knn_graph,
    knn_graph_oracle,
    laplacian_oracle,
    median_pairwise_distance_oracle,
    pool_v1_text,
    query_edges,
    read_pool_file,
    star_laplacian_dense,
    write_pool_file,
)

import multigrank.graphs as graphs
from multigrank.dataset import generate_synthetic
from multigrank.graphs import (
    SCHEMES,
    BaseGraph,
    GraphPool,
    GraphSpec,
    build_graph,
    build_pool,
    default_spec_grid,
    edge_weight,
    extend_graph,
    knn_edges,
    knn_neighbors,
    load_pool,
    median_pairwise_distance,
    query_neighbors,
    save_pool,
    share_per_measure,
)
from multigrank.ranker import _database_system, combine_laplacians


def spec_for(scheme, k, sigma=1.0):
    return GraphSpec(scheme, k, sigma if scheme == "gaussian" else None)


def closeness_oracle(x_i, x_j, scheme):
    """Independent per-pair selection measure; larger means closer."""
    if scheme in ("gaussian", "dot_product"):
        return -sum((a - b) ** 2 for a, b in zip(x_i, x_j))
    if scheme == "cosine":
        ni = math.sqrt(sum(a * a for a in x_i))
        nj = math.sqrt(sum(b * b for b in x_j))
        return sum(a * b for a, b in zip(x_i, x_j)) / (ni * nj)
    if scheme == "jaccard":
        return sum(min(a, b) for a, b in zip(x_i, x_j)) / sum(
            max(a, b) for a, b in zip(x_i, x_j)
        )
    dot = sum(a * b for a, b in zip(x_i, x_j))
    return dot / (sum(a * a for a in x_i) + sum(b * b for b in x_j) - dot)


def rounded_closeness(x_i, x_j, scheme):
    """The selection measure as the library rounds each pair.

    Near-ties between the quotients of cosine, tanimoto and jaccard resolve by
    rounding, which the scalar edge_weight call reproduces bit for bit (see
    test_broadcast_forms_match_scalar_calls).  Squared distances follow the
    independent oracle: exact for rows a few ulps apart, and elsewhere with
    gaps far above their rounding.
    """
    if scheme in ("cosine", "tanimoto", "jaccard"):
        return edge_weight(x_i, x_j, spec_for(scheme, 1))
    return closeness_oracle(x_i, x_j, scheme)


def neighbors_oracle(X, scheme, k, closeness=closeness_oracle):
    """Exhaustive all-pairs scan with the tie-break rule spelled out."""
    n = len(X)
    out = []
    for i in range(n):
        cands = [(-closeness(X[i], X[j], scheme), j) for j in range(n) if j != i]
        cands.sort()
        out.append([j for _, j in cands[:k]])
    return out


def assert_same_graph(graph, oracle):
    """Equal spec, node count, and edge and weight bytes and dtypes."""
    assert graph.spec == oracle.spec and graph.n == oracle.n
    for name in ("i", "j", "w"):
        got, want = getattr(graph, name), getattr(oracle, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def outcome(call):
    """The call's result, or the message of the ValueError it raised."""
    try:
        return call()
    except ValueError as exc:
        return str(exc)


def default_golden_dataset():
    """N=37, d=4: repeated rows and small-integer rows that tie."""
    base = generate_synthetic(3, 8, 4, 1.0, 6.0, 0).feature_matrix
    X = np.vstack([base, base[[0, 3, 3, 10, 17]], np.round(base[:8]) + 1.0])
    return dataset_from_arrays(X, [f"c{i % 3}" for i in range(len(X))])


def benchmark_golden_dataset():
    """N=600, d=32: many row blocks per selection, real gaps between keys."""
    return generate_synthetic(5, 120, 32, 1.0, 5.0, 0)


class TestKnn:
    def test_collinear_points(self):
        ds = dataset_from_arrays([[0.0], [1.0], [10.0]])
        nbrs, _ = knn_neighbors(ds, spec_for("gaussian", 1))
        assert nbrs.ravel().tolist() == [1, 0, 1]

    def test_duplicate_tie_breaks_to_lowest_index(self):
        ds = dataset_from_arrays([[5.0, 5.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        nbrs, _ = knn_neighbors(ds, spec_for("gaussian", 1))
        # node 3's duplicates are 1 and 2: the tie resolves to 1
        assert nbrs[3, 0] == 1
        assert nbrs[1, 0] == 2 and nbrs[2, 0] == 1

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_matches_exhaustive_scan(self, scheme):
        rng = np.random.default_rng(7)
        X = rng.uniform(0.1, 1.0, size=(10, 4))
        # second input repeats rows, so ties must resolve to the lowest index
        for points in (X, X[[0, 1, 0, 2, 1, 0, 3, 4, 2, 5]]):
            spec = spec_for(scheme, 3)
            nbrs, keys = knn_neighbors(dataset_from_arrays(points), spec)
            assert nbrs.tolist() == neighbors_oracle(points, scheme, 3)
            # each neighbour's key is its pair's negated closeness, in pair form
            rows = np.repeat(np.arange(len(points)), 3)
            pair_keys = -graphs._closeness(points[rows], points[nbrs.ravel()], spec)
            assert keys.shape == nbrs.shape and keys.tobytes() == pair_keys.tobytes()

    def test_k_out_of_range(self):
        ds = dataset_from_arrays(np.eye(3))
        with pytest.raises(ValueError, match="out of range"):
            knn_neighbors(ds, spec_for("gaussian", 3))

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_prefixes_match_exhaustive_scan_with_ties(self, data):
        # few distinct small-integer rows, repeated: ties at the k-th value
        # are common, and every prefix must still follow the index tie-break
        dim = data.draw(st.integers(1, 3))
        row = st.lists(st.integers(0, 3), min_size=dim, max_size=dim)
        distinct = np.array(data.draw(st.lists(row, min_size=1, max_size=6)), dtype=float)
        distinct[~distinct.any(axis=1), 0] = 1.0  # cosine rejects zero vectors
        picks = data.draw(st.lists(st.integers(0, len(distinct) - 1), min_size=3, max_size=14))
        X = distinct[picks]
        n = len(X)
        k_max = data.draw(st.integers(1, n - 1))
        ds = dataset_from_arrays(X)
        for scheme in SCHEMES:
            nbrs, _ = knn_neighbors(ds, spec_for(scheme, k_max))
            oracle = neighbors_oracle(X, scheme, k_max)
            for k in range(1, k_max + 1):
                assert nbrs[:, :k].tolist() == [r[:k] for r in oracle]

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_adversarial_near_ties_match_exhaustive_scan(self, data):
        # selection keys whose gaps sit at or below the rounding error of the
        # cheap filter keys, so a filter margin set too small drops a true
        # neighbour: rows a few ulps apart, a large common offset with small
        # spread, large and tiny norms, exact duplicates and all-zero rows
        case = data.draw(st.sampled_from(["ulp", "offset", "norm", "duplicate"]))
        dim = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(3, 12))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if case == "ulp":
            base = rng.uniform(1.25, 1.75, size=dim)
            X = base + rng.integers(-3, 4, size=(n, dim)) * np.spacing(base)
        elif case == "offset":
            X = data.draw(st.sampled_from([1e6, 1e7, 1e8])) + rng.uniform(0, 1, (n, dim))
        elif case == "norm":
            scale = data.draw(st.sampled_from([1e-150, 1e-100, 1e100, 1e150]))
            X = scale * (1.0 + 1e-8 * rng.uniform(0, 1, (n, dim)))
        else:
            distinct = rng.uniform(0.5, 2.0, (data.draw(st.integers(1, 3)), dim))
            distinct[: data.draw(st.integers(0, len(distinct)))] = 0.0
            X = distinct[rng.integers(0, len(distinct), n)]
        ds = dataset_from_arrays(X)
        for scheme in SCHEMES:
            if scheme == "cosine" and not X.any(axis=1).all():
                continue
            oracle = neighbors_oracle(X, scheme, n - 1, rounded_closeness)
            for k in range(1, n):
                nbrs, _ = knn_neighbors(ds, spec_for(scheme, k))
                assert nbrs.tolist() == [r[:k] for r in oracle], (scheme, k)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_float32_jaccard_filter_matches_exhaustive_scan(self, data):
        # the jaccard filter keys are float32: rows whose keys differ only
        # below float32 resolution, features on both sides of its safe range
        # [2^-100, 2^100] (tiny nonzero values, values near 2^+-100), and
        # sparse rows with all-zero ones
        case = data.draw(st.sampled_from(["resolution", "range", "sparse"]))
        dim = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(3, 12))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if case == "resolution":
            base = rng.uniform(1.0, 2.0, size=dim)
            X = base * (1.0 + rng.integers(-4, 5, size=(n, dim)) * 2.0**-30)
        elif case == "range":
            levels = [5e-324, 1e-40, 2.0**-101, 2.0**-100, 2.0**-99, 1.0,
                      2.0**99, 2.0**100, 2.0**101, 1e300]
            picks = data.draw(st.lists(st.sampled_from(levels), min_size=1, max_size=3))
            X = rng.choice(picks, size=(n, dim)) * rng.uniform(1.0, 1.5, (n, dim))
            X[rng.random((n, dim)) < 0.3] = 0.0
        else:
            X = rng.uniform(0.0, 1.0, (n, dim)) * (rng.random((n, dim)) < 0.25)
        ds = dataset_from_arrays(X)
        oracle = neighbors_oracle(X, "jaccard", n - 1, rounded_closeness)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(1, n):
                nbrs, _ = knn_neighbors(ds, spec_for("jaccard", k))
                assert nbrs.tolist() == [r[:k] for r in oracle], k

    def test_zero_rows_score_zero_and_tie_by_index(self):
        # a zero row scores 0 against every row under tanimoto and jaccard,
        # so its neighbours are the lowest indices; an all-zero dataset ties
        # every pair of every measure but cosine
        X = np.array([[0.0, 0.0], [1.0, 2.0], [0.0, 0.0], [2.0, 1.0], [0.0, 0.0]])
        ds = dataset_from_arrays(X)
        for scheme in ("tanimoto", "jaccard"):
            assert knn_neighbors(ds, spec_for(scheme, 4))[0].tolist() == [
                [1, 2, 3, 4], [3, 0, 2, 4], [0, 1, 3, 4], [1, 0, 2, 4], [0, 1, 2, 3]
            ]
            graph = build_pool(ds, [spec_for(scheme, 4)]).graphs[0]
            assert graph.weights[0, 2] == graph.weights[0, 1] == 0.0
            # zero-weight edges stay edges
            assert {(0, 1), (0, 2)} <= set(zip(graph.i.tolist(), graph.j.tolist()))
        zeros = dataset_from_arrays(np.zeros((5, 3)))
        for scheme in ("gaussian", "dot_product", "tanimoto", "jaccard"):
            for k in range(1, 5):
                assert knn_neighbors(zeros, spec_for(scheme, k))[0].tolist() == [
                    [j for j in range(5) if j != i][:k] for i in range(5)
                ]

    @pytest.mark.parametrize(
        "scheme, X, message",
        [
            ("cosine", [[1.0, 2.0], [0.0, 0.0], [2.0, 1.0]], "zero vector"),
            ("jaccard", [[1.0, 2.0], [0.5, -1.0], [2.0, 1.0]], "nonnegative"),
        ],
    )
    def test_unscorable_features_rejected(self, scheme, X, message):
        ds = dataset_from_arrays(X)
        with pytest.raises(ValueError, match=message):
            knn_neighbors(ds, spec_for(scheme, 1))
        with pytest.raises(ValueError, match=message):
            build_pool(ds, [spec_for("gaussian", 1), spec_for(scheme, 1)])


class TestCloseness:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_symmetric_bit_for_bit(self, scheme, data):
        # build_pool reads a pair selected from both ends by either end's key:
        # the pair form must give both orders the same bits; rows repeat, and
        # zero rows and zero features are common
        dim = data.draw(st.integers(1, 12))
        lo = 0.0 if scheme == "jaccard" else -1e100
        entry = st.one_of(st.just(0.0), st.floats(max(lo, -10.0), 10.0), st.floats(lo, 1e100))
        distinct = np.array(data.draw(
            st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=1, max_size=5)))
        if data.draw(st.booleans()):
            distinct[0] = 0.0
        if scheme == "cosine":
            # cosine rejects rows whose squared norm is 0, or underflows to it
            distinct[np.einsum("ij,ij->i", distinct, distinct) == 0, 0] = 1.0
        n = data.draw(st.integers(1, 8))
        picks = st.lists(st.integers(0, len(distinct) - 1), min_size=n, max_size=n)
        A, B = distinct[data.draw(picks)], distinct[data.draw(picks)]
        spec = spec_for(scheme, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            ab = graphs._closeness(A, B, spec)
            ba = graphs._closeness(B, A, spec)
        assert ab.dtype == ba.dtype and ab.tobytes() == ba.tobytes()


class TestEdgeWeight:
    def test_gaussian_identical_points(self):
        x = np.array([2.0, -1.0, 3.0])
        assert edge_weight(x, x, spec_for("gaussian", 1, 0.37)) == 1.0

    def test_cosine_scale_invariant_and_dot_orthogonal(self):
        x = np.array([1.0, 2.0])
        assert edge_weight(x, 3.5 * x, spec_for("cosine", 1)) == pytest.approx(1.0)
        assert edge_weight(np.array([1.0, 0.0]), np.array([0.0, 1.0]), spec_for("dot_product", 1)) == 0.0

    def test_tanimoto_and_jaccard_hand_values(self):
        ones = np.array([1.0, 1.0])
        assert edge_weight(ones, ones, spec_for("tanimoto", 1)) == 1.0
        # min/max generalization: sum(min)=0, sum(max)=2
        assert edge_weight(np.array([1.0, 0.0]), np.array([0.0, 1.0]), spec_for("jaccard", 1)) == 0.0

    def test_cosine_zero_vector(self):
        with pytest.raises(ValueError, match="zero vector"):
            edge_weight(np.zeros(2), np.ones(2), spec_for("cosine", 1))

    def test_jaccard_negative_entries(self):
        with pytest.raises(ValueError, match="nonnegative"):
            edge_weight(np.array([-1.0, 2.0]), np.ones(2), spec_for("jaccard", 1))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            edge_weight(np.ones(2), np.ones(3), spec_for("gaussian", 1))

    @pytest.mark.parametrize("scheme", SCHEMES)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_symmetric_in_arguments(self, scheme, data):
        dim = data.draw(st.integers(1, 5))
        vec = st.lists(st.floats(0.01, 10.0), min_size=dim, max_size=dim)
        x_i = np.array(data.draw(vec))
        x_j = np.array(data.draw(vec))
        spec = spec_for(scheme, 1)
        assert edge_weight(x_i, x_j, spec) == edge_weight(x_j, x_i, spec)


    @pytest.mark.parametrize("scheme", SCHEMES)
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_broadcast_forms_match_scalar_calls(self, scheme, data):
        dim = data.draw(st.integers(1, 12))
        n = data.draw(st.integers(1, 5))
        entry = st.one_of(st.just(0.0), st.floats(-1.0, 10.0))
        matrix = st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=n, max_size=n)
        A = np.array(data.draw(matrix))
        B = np.array(data.draw(matrix))
        x = A[0]
        spec = spec_for(scheme, 1)
        forms = [
            (lambda: edge_weight(x, B, spec), [(x, b) for b in B]),
            (lambda: edge_weight(A, B, spec), list(zip(A, B))),
        ]
        for form, pairs in forms:
            scalar = [outcome(lambda p=p: edge_weight(*p, spec)) for p in pairs]
            errors = {r for r in scalar if isinstance(r, str)}
            got = outcome(form)
            if errors:
                # zero vectors (cosine) or negative features (jaccard)
                assert {got} == errors
            else:
                assert got.tobytes() == np.array(scalar).tobytes()
        mismatch = outcome(lambda: edge_weight(x, np.ones(dim + 1), spec))
        assert outcome(lambda: edge_weight(x, np.ones((n, dim + 1)), spec)) == mismatch
        assert outcome(lambda: edge_weight(A, np.ones((n, dim + 1)), spec)) == mismatch


class TestGraphSpec:
    def test_gaussian_requires_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            GraphSpec("gaussian", 3)
        with pytest.raises(ValueError, match="sigma"):
            GraphSpec("gaussian", 3, -1.0)

    def test_sigma_rejected_elsewhere(self):
        with pytest.raises(ValueError, match="sigma"):
            GraphSpec("cosine", 3, 1.0)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            GraphSpec("euclid", 3)

    @pytest.mark.parametrize("k", [2.5, 2.0, True, "3", None])
    def test_k_must_be_an_integer(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            GraphSpec("cosine", k)

    def test_numpy_integer_k_accepted(self):
        assert GraphSpec("cosine", np.int64(3)) == GraphSpec("cosine", 3)

    def test_numpy_real_sigma_accepted(self):
        assert GraphSpec("gaussian", 3, np.float32(0.5)) == GraphSpec("gaussian", 3, 0.5)

    @pytest.mark.parametrize("sigma", [math.inf, -math.inf, math.nan, "x", True])
    def test_gaussian_sigma_must_be_finite(self, sigma):
        with pytest.raises(ValueError, match="finite sigma"):
            GraphSpec("gaussian", 3, sigma)


def quad_form_oracle(W, f):
    n = W.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += W[i, j] * (f[i] - f[j]) ** 2
    return 0.5 * total


class TestBuildGraph:
    def test_two_nodes_flat_kernel(self):
        ds = dataset_from_arrays([[0.0], [1.0]])
        g = knn_graph(ds, GraphSpec("gaussian", 1, 1e12))
        assert np.array_equal(g.weights.toarray(), [[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(laplacian_oracle(g.weights).toarray(), [[1.0, -1.0], [-1.0, 1.0]])

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_invariants_on_random_data(self, scheme):
        rng = np.random.default_rng(11)
        X = rng.uniform(0.05, 1.0, size=(14, 5))
        g = knn_graph(dataset_from_arrays(X), spec_for(scheme, 4, sigma=0.8))
        W = g.weights.toarray()
        assert np.array_equal(W, W.T)
        assert np.array_equal(np.diag(W), np.zeros(14))
        assert W.min() >= 0
        L = laplacian_oracle(g.weights).toarray()
        assert np.abs(L @ np.ones(14)).max() <= 1e-12
        assert np.linalg.eigvalsh(L).min() >= -1e-10
        # union rule only adds edges on top of each node's own k
        assert ((W != 0).sum(axis=1) >= 4).all()

    def test_quadratic_form_matches_double_sum(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(0.1, 1.0, size=(8, 3))
        g = knn_graph(dataset_from_arrays(X), spec_for("gaussian", 3, sigma=0.5))
        W = g.weights.toarray()
        L = laplacian_oracle(g.weights).toarray()
        for _ in range(5):
            f = rng.normal(size=8)
            assert abs(f @ L @ f - quad_form_oracle(W, f)) <= 1e-10

    def test_given_neighbors_must_match_spec(self):
        ds = dataset_from_arrays(np.arange(8.0)[:, None])
        spec = spec_for("gaussian", 3)
        scanned = np.array(neighbors_oracle(ds.feature_matrix, "gaussian", 3))
        assert_same_graph(build_graph(ds, spec, knn_edges(ds, spec)),
                          knn_graph_oracle(ds, spec, scanned))
        # edges of a narrower selection, of another measure or over another
        # node count do not hold the spec's
        for other, data in [(spec_for("gaussian", 2), ds), (spec_for("tanimoto", 3), ds),
                            (spec, dataset_from_arrays(np.arange(9.0)[:, None]))]:
            with pytest.raises(ValueError, match="do not hold"):
                build_graph(ds, spec, knn_edges(data, other))

    def test_knn_edges_rank_is_first_position_from_either_end(self):
        # neighbours by distance: 0 -> 1 2 3, 1 -> 0 2 3, 2 -> 1 0 3, 3 -> 2 1 0
        ds = dataset_from_arrays([[0.0], [1.0], [3.0], [7.0]])
        edges = knn_edges(ds, spec_for("gaussian", 3))
        assert list(zip(edges.i.tolist(), edges.j.tolist())) == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
        ]
        assert edges.rank.tolist() == [0, 1, 2, 0, 1, 0]
        assert edges.key.tolist() == [1.0, 9.0, 49.0, 4.0, 36.0, 16.0]
        for k, pairs in [(1, [(0, 1), (1, 2), (2, 3)]), (2, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])]:
            graph = build_graph(ds, spec_for("gaussian", k), edges)
            assert list(zip(graph.i.tolist(), graph.j.tolist())) == pairs

    def test_nonnegative_quadratic_form(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(0.1, 1.0, size=(12, 4))
        for scheme in SCHEMES:
            g = knn_graph(dataset_from_arrays(X), spec_for(scheme, 3))
            L = laplacian_oracle(g.weights).toarray()
            for _ in range(200):
                f = rng.normal(size=12)
                assert f @ L @ f >= -1e-10


class TestPool:
    def test_single_spec(self):
        ds = generate_synthetic(2, 4, 3, 1.0, 4.0, 0)
        pool = build_pool(ds, [spec_for("cosine", 2)])
        assert pool.m == 1 and pool.n == 8

    def test_grid_counts(self):
        ds = generate_synthetic(2, 5, 3, 1.0, 4.0, 0)
        # one sigma: every scheme crossed with three k values
        assert len(default_spec_grid(ds, SCHEMES, (2, 3, 4), (1.0,))) == 15
        # three sigmas apply to gaussian only: 4*2 + 1*2*3
        assert len(default_spec_grid(ds, SCHEMES, (2, 3), (0.5, 1.0, 2.0))) == 14

    def test_grid_without_gaussian_skips_the_scale(self, monkeypatch):
        import multigrank.graphs as graphs

        def refuse(X):
            raise AssertionError("kernel scale computed for a grid with no gaussian spec")

        monkeypatch.setattr(graphs, "median_pairwise_distance", refuse)
        ds = generate_synthetic(2, 5, 3, 1.0, 4.0, 0)
        assert default_spec_grid(ds, ("cosine", "jaccard"), (2, 3)) == [
            GraphSpec("cosine", 2), GraphSpec("cosine", 3),
            GraphSpec("jaccard", 2), GraphSpec("jaccard", 3),
        ]

    def test_fingerprint_binds_dataset(self):
        a = generate_synthetic(2, 4, 3, 1.0, 4.0, 0)
        b = generate_synthetic(2, 4, 3, 1.0, 4.0, 1)
        spec = [spec_for("gaussian", 2)]
        assert build_pool(a, spec).fingerprint != build_pool(b, spec).fingerprint

    def test_empty_specs(self):
        ds = generate_synthetic(2, 4, 3, 1.0, 4.0, 0)
        with pytest.raises(ValueError, match="empty"):
            build_pool(ds, [])

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_shared_selection_matches_per_spec_builds(self, data):
        # build_pool selects once per measure at the largest k and slices;
        # each graph must equal the one its spec builds alone
        picks = data.draw(st.lists(st.integers(0, 5), min_size=8, max_size=16))
        X = np.round(generate_synthetic(2, 3, 2, 1.0, 3.0, 0).feature_matrix)[picks] + 1.0
        k_values = tuple(data.draw(st.lists(st.integers(1, len(X) - 1), min_size=1, max_size=3)))
        ds = dataset_from_arrays(X)
        specs = default_spec_grid(ds, SCHEMES, k_values, (0.5, 2.0))
        pool = build_pool(ds, specs)
        for spec, graph in zip(specs, pool.graphs):
            alone = knn_graph_oracle(ds, spec)
            assert_same_graph(graph, alone)
            assert (graph.weights != alone.weights).nnz == 0
            assert np.array_equal(graph.weights.indices, alone.weights.indices)

    @pytest.mark.parametrize("case", ["default_golden", "benchmark_golden", "ties", "negative"])
    def test_pool_graphs_match_per_spec_assembly(self, case):
        # every graph's edges and weight bytes equal the per-spec assembly:
        # its own selection's union, weighed by edge_weight over the rows;
        # several k per measure, so most specs take a share below the widest
        rng = np.random.default_rng(3)
        k_values, schemes = (5, 10), SCHEMES
        if case == "default_golden":
            ds = default_golden_dataset()
        elif case == "benchmark_golden":
            ds = benchmark_golden_dataset()
        elif case == "ties":
            # few distinct small-integer rows, repeated: tied keys everywhere
            distinct = rng.integers(0, 3, size=(6, 3)).astype(float)
            distinct[~distinct.any(axis=1), 0] = 1.0
            ds = dataset_from_arrays(distinct[rng.integers(0, 6, 30)])
            k_values = (1, 3, 4, 8)
        else:
            # features of both signs: dot_product, cosine and tanimoto weights
            # clamp at 0 on wide graphs
            ds = dataset_from_arrays(rng.normal(size=(40, 3)))
            k_values, schemes = (2, 9, 25), ("gaussian", "dot_product", "cosine", "tanimoto")
        specs = default_spec_grid(ds, schemes, k_values)
        pool = build_pool(ds, specs)
        assert [g.spec for g in pool.graphs] == specs
        clamped = set()
        for spec, graph in zip(specs, pool.graphs):
            assert_same_graph(graph, knn_graph_oracle(ds, spec))
            X = ds.feature_matrix
            if (edge_weight(X[graph.i], X[graph.j], spec) < 0).any():
                clamped.add(spec.scheme)
        assert clamped == ({"dot_product", "cosine", "tanimoto"} if case == "negative" else set())

    def test_default_pool_bytes_golden(self, tmp_path):
        # sha256 of the version 1 text when every spec ran its own full stable
        # argsort (numpy 2.4.6, x86-64), rendered from today's arrays, and of
        # the version 2 file; rows repeat and small-integer rows tie, so any
        # change to the tie-break or the k slicing shows here
        ds = default_golden_dataset()
        pool = build_pool(ds, default_spec_grid(ds))
        assert hashlib.sha256(pool_v1_text(pool).encode()).hexdigest() == (
            "62297abdfa4860fa8830497cd90ff42f0169887ec2094c0bb78f0d1b7135283e"
        )
        path = tmp_path / "pool.bin"
        save_pool(pool, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "d824f61cd02379f5fa06222d4d8938930201b8ef8d4bd1fa6b060b1813f0c52c"
        )

    def test_benchmark_scale_pool_bytes_golden(self, tmp_path):
        # sha256 of the version 1 text written by the exhaustive neighbour
        # scan (numpy 2.4.6, x86-64) at N=600, d=32, the default grid, rendered
        # from today's arrays, and of the version 2 file: every measure's
        # selection runs on many row blocks with real gaps between keys
        ds = benchmark_golden_dataset()
        pool = build_pool(ds, default_spec_grid(ds))
        assert hashlib.sha256(pool_v1_text(pool).encode()).hexdigest() == (
            "92115eca7ebd82f07c385adc9c446b18e835a1e300c4e2c60a6a4cdc629d0bee"
        )
        path = tmp_path / "pool.bin"
        save_pool(pool, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "6488eb5b5bd49288e2c31f5a7e30d69f758b5e0066209b95b1f7ccec55171c3d"
        )

    def test_round_trip(self, tmp_path):
        # a graph with no edge included; the format is read from the bytes,
        # whatever the file's suffix
        ds = generate_synthetic(3, 5, 4, 1.0, 6.0, 3)
        pool = build_pool(ds, default_spec_grid(ds, k_values=(3,), sigma_multipliers=(1.0, 2.0)))
        no_edges = np.empty(0, dtype=np.int64)
        lonely = BaseGraph(spec_for("tanimoto", 1), ds.n, no_edges, no_edges, np.empty(0))
        pool = GraphPool(pool.graphs[:2] + (lonely,) + pool.graphs[2:],
                         pool.dataset_fingerprint, pool.dim)
        for name in ("pool.bin", "pool.json"):
            save_pool(pool, tmp_path / name)
            back = load_pool(tmp_path / name)
            assert (back.m, back.dim, back.dataset_fingerprint, back.fingerprint) == (
                pool.m, pool.dim, pool.dataset_fingerprint, pool.fingerprint)
            for g_old, g_new in zip(pool.graphs, back.graphs):
                assert g_old.spec == g_new.spec
                assert np.array_equal(g_old.weights.toarray(), g_new.weights.toarray())
                for name in ("i", "j", "w"):
                    old, new = getattr(g_old, name), getattr(g_new, name)
                    assert old.dtype == new.dtype and old.tobytes() == new.tobytes()

    def test_streamed_bytes_match_one_document(self, tmp_path):
        # the arrays are written one at a time; the file is the header line
        # and every graph's i, j and w, a graph with no edge included, as one
        # document assembled at once would hold them
        ds = generate_synthetic(2, 4, 3, 1.0, 4.0, 1)
        pool = build_pool(ds, [spec_for("gaussian", 1), spec_for("cosine", 2),
                               spec_for("jaccard", 3)])
        no_edges = np.empty(0, dtype=np.int64)
        lonely = BaseGraph(spec_for("tanimoto", 1), ds.n, no_edges, no_edges, np.empty(0))
        pool = GraphPool(pool.graphs[:2] + (lonely,) + pool.graphs[2:],
                         pool.dataset_fingerprint, pool.dim)
        head = {"version": 2, "M": pool.m, "N": pool.n, "d": pool.dim,
                "dataset_fingerprint": pool.dataset_fingerprint, "fingerprint": pool.fingerprint,
                "graphs": [{"spec": {"scheme": g.spec.scheme, "k": g.spec.k,
                                     "sigma": g.spec.sigma}, "nnz": int(g.i.size)}
                           for g in pool.graphs]}
        body = b"".join(g.i.astype("<i8").tobytes() + g.j.astype("<i8").tobytes()
                        + g.w.astype("<f8").tobytes() for g in pool.graphs)
        save_pool(pool, tmp_path / "pool.bin")
        assert (tmp_path / "pool.bin").read_bytes() == json.dumps(head).encode() + b"\n" + body
        assert [g.i.size for g in load_pool(tmp_path / "pool.bin").graphs] == [
            g.i.size for g in pool.graphs]

    def test_save_holds_one_block_of_triplets(self, tmp_path):
        # 83k edges at N=1000, 2.0 MB as arrays: the arrays are written as
        # they are held, with no copy of them, let alone of the whole file
        ds = generate_synthetic(5, 200, 32, 1.0, 5.0, 0)
        pool = build_pool(ds, default_spec_grid(ds))
        assert pool.fingerprint  # hashed on first use, not part of the write
        tracemalloc.start()
        try:
            save_pool(pool, tmp_path / "pool.bin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * sum(a.nbytes for g in pool.graphs for a in (g.i, g.j, g.w))

    def test_fingerprint_binds_specs_and_edges(self):
        # the dataset's fingerprint, the spec order and every edge byte count
        ds = generate_synthetic(2, 5, 3, 1.0, 4.0, 0)
        specs = [spec_for("gaussian", 2), spec_for("cosine", 3)]
        pool = build_pool(ds, specs)
        assert pool.fingerprint != pool.dataset_fingerprint
        assert build_pool(ds, specs).fingerprint == pool.fingerprint
        assert build_pool(ds, specs[::-1]).fingerprint != pool.fingerprint
        g = pool.graphs[1]
        nudged = BaseGraph(g.spec, g.n, g.i, g.j, g.w + np.eye(1, g.w.size)[0] * 2.0**-40)
        variants = [GraphPool((pool.graphs[0], nudged), pool.dataset_fingerprint, pool.dim),
                    GraphPool(pool.graphs, "another dataset", pool.dim),
                    GraphPool(pool.graphs, pool.dataset_fingerprint, pool.dim + 1),
                    GraphPool(pool.graphs[:1], pool.dataset_fingerprint, pool.dim)]
        assert len({pool.fingerprint} | {v.fingerprint for v in variants}) == 5

    def test_load_peak_stays_near_the_array_bytes(self, tmp_path):
        # 83k edges at N=1000 take 2.0 MB as arrays; reading and checking
        # them adds a few bytes per edge of one graph, not a Python object
        # per number (the JSON triplets of version 1 peaked near 9x)
        ds = generate_synthetic(5, 200, 32, 1.0, 5.0, 0)
        path = tmp_path / "pool.bin"
        save_pool(build_pool(ds, default_spec_grid(ds)), path)
        tracemalloc.start()
        try:
            pool = load_pool(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = sum(a.nbytes for g in pool.graphs for a in (g.i, g.j, g.w))
        assert arrays > 1.9e6
        assert peak < 1.25 * arrays

    def test_file_stores_upper_triplets(self, tmp_path):
        ds = generate_synthetic(2, 4, 3, 1.0, 4.0, 0)
        pool = build_pool(ds, [spec_for("gaussian", 2), spec_for("jaccard", 3)])
        save_pool(pool, tmp_path / "pool.bin")
        head, edges = read_pool_file(tmp_path / "pool.bin")
        assert head == {"version": 2, "M": 2, "N": ds.n, "d": ds.dim,
                        "dataset_fingerprint": pool.dataset_fingerprint,
                        "fingerprint": pool.fingerprint,
                        "graphs": [{"spec": {"scheme": g.spec.scheme, "k": g.spec.k,
                                             "sigma": g.spec.sigma}, "nnz": int(g.i.size)}
                                   for g in pool.graphs]}
        for graph, (i, j, w) in zip(pool.graphs, edges):
            assert (i < j).all() and np.array_equal(i, graph.i) and np.array_equal(j, graph.j)
            assert w.tobytes() == graph.w.tobytes()

    def test_load_reads_a_pipe(self, tmp_path):
        # the body is measured from the bytes read, not from the file system
        ds = generate_synthetic(2, 5, 3, 1.0, 4.0, 0)
        pool = build_pool(ds, [spec_for("gaussian", 2), spec_for("cosine", 3)])
        save_pool(pool, tmp_path / "pool.bin")
        code = "from multigrank.graphs import load_pool; print(load_pool('/dev/stdin').fingerprint)"
        env = dict(os.environ, PYTHONPATH=str(Path(graphs.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              input=(tmp_path / "pool.bin").read_bytes())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.decode().split() == [pool.fingerprint]

    def test_version_1_file_is_refused(self, tmp_path):
        ds = generate_synthetic(2, 5, 3, 1.0, 4.0, 0)
        path = tmp_path / "pool.json"
        path.write_text(pool_v1_text(build_pool(ds, [spec_for("cosine", 3)])))
        with pytest.raises(ValueError, match=r"unsupported pool file version 1: .*version 2"):
            load_pool(path)


def _corrupt_negative_weight(head, edges):
    edges[0][2][0] = -0.5


def _corrupt_nan_weight(head, edges):
    edges[1][2][2] = np.nan


def _corrupt_self_loop(head, edges):
    edges[0][1][1] = edges[0][0][1]


def _corrupt_lower_triangle(head, edges):
    i, j, _ = edges[1]
    i[0], j[0] = j[0], i[0]


def _corrupt_index_past_n(head, edges):
    edges[0][1][-1] = head["N"]


def _corrupt_duplicate_edge(head, edges):
    for array in edges[0]:
        array[1] = array[0]


def _corrupt_unsorted_edges(head, edges):
    for array in edges[1]:
        array[[0, 1]] = array[[1, 0]]


def _corrupt_truncated_body(head, edges):
    edges[1][2] = edges[1][2][:-1]


def _corrupt_trailing_bytes(head, edges):
    return b"\0" * 8


def _corrupt_nnz_too_large(head, edges):
    head["graphs"][0]["nnz"] += 1


def _corrupt_nnz_too_small(head, edges):
    head["graphs"][1]["nnz"] -= 1


def _corrupt_negative_nnz(head, edges):
    head["graphs"][1]["nnz"] = -1


def _corrupt_fingerprint(head, edges):
    head["fingerprint"] = "0" * 16


def _corrupt_changed_weight(head, edges):
    edges[1][2][0] += 0.25


def _corrupt_n(head, edges):
    head["N"] += 1


def _corrupt_d(head, edges):
    head["d"] -= 1


def _corrupt_version_1(head, edges):
    head["version"] = 1


def _corrupt_numeric_dataset_fingerprint(head, edges):
    head["dataset_fingerprint"] = 7


def _corrupt_graph_count(head, edges):
    head["M"] = 99


def _corrupt_k_past_n(head, edges):
    head["graphs"][1]["spec"]["k"] = head["N"]


def _corrupt_fractional_k(head, edges):
    head["graphs"][0]["spec"]["k"] = 2.7


def _corrupt_string_k(head, edges):
    head["graphs"][1]["spec"]["k"] = "3"


def _corrupt_string_sigma(head, edges):
    head["graphs"][0]["spec"]["sigma"] = "x"


def _corrupt_missing_n(head, edges):
    del head["N"]


def _corrupt_missing_spec(head, edges):
    del head["graphs"][1]["spec"]


def _corrupt_no_graphs(head, edges):
    head["M"], head["graphs"] = 0, []


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_corrupt_negative_weight, r"graph 0 triplet .*-0\.5.*finite and >= 0"),
        (_corrupt_nan_weight, r"graph 1 triplet .*nan.*finite and >= 0"),
        (_corrupt_self_loop, r"graph 0 triplet .*0 <= i < j < N"),
        (_corrupt_lower_triangle, r"graph 1 triplet .*0 <= i < j < N"),
        (_corrupt_index_past_n, r"graph 0 triplet .*0 <= i < j < N=10"),
        (_corrupt_duplicate_edge, r"graph 0 triplet .*more than once"),
        (_corrupt_unsorted_edges,
         r"graph 1 triplet 1 \[\d+, \d+, [\d.e-]+\]: edges must be sorted row-major"),
        (_corrupt_truncated_body, r"nnz \[13, 19\] ask for 768 body bytes, but the file holds 760$"),
        (_corrupt_trailing_bytes, r"nnz \[13, 19\] ask for 768 body bytes, but the file holds 776$"),
        (_corrupt_nnz_too_large, r"nnz \[14, 19\] ask for 792 body bytes, but the file holds 768$"),
        (_corrupt_nnz_too_small, r"nnz \[13, 18\] ask for 744 body bytes, but the file holds 768$"),
        (_corrupt_negative_nnz, r"nnz \[13, -1\] ask for 288 body bytes, but the file holds 768$"),
        (_corrupt_fingerprint, r"fingerprint 0{16} does not match the dataset fingerprint, N, d,"),
        (_corrupt_changed_weight,
         r"fingerprint [0-9a-f]{16} does not match the dataset fingerprint, N, d,"),
        (_corrupt_n, r"fingerprint [0-9a-f]{16} does not match the dataset fingerprint, N, d,"),
        (_corrupt_d, r"fingerprint [0-9a-f]{16} does not match the dataset fingerprint, N, d,"),
        (_corrupt_version_1, r"unsupported pool file version 1: this release reads version 2"),
        (_corrupt_numeric_dataset_fingerprint, r"dataset_fingerprint must be a string, got 7$"),
        (_corrupt_graph_count, r"header M=99 but 2 graphs"),
        (_corrupt_k_past_n, r"graph 1 spec k=10 exceeds N-1=9"),
        (_corrupt_fractional_k, r"graph 0 spec: k must be an integer, got 2\.7"),
        (_corrupt_string_k, r"graph 1 spec: k must be an integer, got '3'"),
        (_corrupt_string_sigma, r"graph 0 spec: sigma must be a number or null, got 'x'"),
        (_corrupt_missing_n, r"pool file corrupt: missing field 'N'"),
        (_corrupt_missing_spec, r"graph 1: missing field 'spec'"),
        (_corrupt_no_graphs, r"pool file corrupt: no graphs stored"),
    ],
)
def test_load_pool_rejects_corrupt_file(tmp_path, corrupt, message):
    ds = generate_synthetic(2, 5, 3, 1.0, 4.0, 0)
    path = tmp_path / "pool.bin"
    save_pool(build_pool(ds, [spec_for("gaussian", 2), spec_for("cosine", 3)]), path)
    head, edges = read_pool_file(path)
    tail = corrupt(head, edges)
    write_pool_file(path, head, edges, tail or b"")
    with pytest.raises(ValueError, match=message):
        load_pool(path)


def query_star(graph, ds, x0):
    """The query's star in one graph, as ``combine_laplacians`` holds it."""
    return combine_laplacians([query_edges(graph, ds, x0)], np.ones(1), graph.n)


class TestExtend:
    def _setup(self):
        ds = generate_synthetic(2, 6, 3, 1.0, 8.0, 5)
        g = knn_graph(ds, spec_for("gaussian", 3, sigma=2.0))
        return ds, g

    def test_duplicate_query_gets_unit_weight(self):
        ds, g = self._setup()
        target = 1  # database point x_1
        x0 = ds.records[target].features
        nbrs, w = query_edges(g, ds, x0)
        assert w[nbrs.tolist().index(target)] == 1.0
        W = extend_graph_oracle(g, ds, x0).toarray()
        assert W[0, target + 1] == 1.0 and W[target + 1, 0] == 1.0

    def test_laplacian_invariants(self):
        # the query's edges plus the frozen database block: the extended Laplacian
        ds, g = self._setup()
        L = star_laplacian_dense(query_star(g, ds, np.full(3, 0.5)))
        L[1:, 1:] += laplacian_oracle(g.weights).toarray()
        assert np.abs(L @ np.ones(g.n + 1)).max() <= 1e-12
        assert np.linalg.eigvalsh(L).min() >= -1e-10

    def test_database_block_frozen(self):
        # the rebuilt (N+1)-node graph may rewire old neighbors; the extension
        # must not, so only its row/column 0 is allowed to differ
        ds, g = self._setup()
        x0 = ds.feature_matrix.mean(axis=0)
        L = star_laplacian_dense(query_star(g, ds, x0))
        block = L[1:, 1:]
        assert np.array_equal(block, np.diag(np.diag(block)))
        ext = extend_graph_oracle(g, ds, x0)
        assert np.array_equal(ext.toarray()[1:, 1:], g.weights.toarray())
        row0 = -L[0]
        row0[0] = 0.0
        assert (row0 != 0).sum() == g.spec.k
        assert np.array_equal(row0, ext.toarray()[0])
        for j in np.nonzero(row0)[0]:
            expected = max(edge_weight(x0, ds.records[j - 1].features, g.spec), 0.0)
            assert row0[j] == expected

    def test_dimension_mismatch(self):
        ds, g = self._setup()
        with pytest.raises(ValueError, match="dimension"):
            extend_graph(g, ds, np.ones(5), np.arange(3))

    def test_query_neighbors_break_ties_by_index(self):
        # the query's three nearest points are copies of 3.0; the next four
        # tie at 1.0, so k=5 takes their two lowest indices
        X = np.array([[3.0], [1.0], [0.0], [1.0], [3.0], [1.0], [3.0], [1.0]])
        ds = dataset_from_arrays(X)
        g = knn_graph(ds, spec_for("gaussian", 5, sigma=2.0))
        nbrs, _ = query_edges(g, ds, np.array([2.4]))
        assert sorted(nbrs) == [0, 1, 3, 4, 6]

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_shared_selection_matches_per_graph(self, data):
        # one query selection per measure at the widest k, whose first k are
        # each graph's own selection bit for bit, extends each graph as its
        # own selection does; small-integer rows and queries tie often
        picks = data.draw(st.lists(st.integers(0, 5), min_size=3, max_size=14))
        X = np.round(generate_synthetic(2, 3, 2, 1.0, 3.0, 0).feature_matrix)[picks] + 1.0
        ds = dataset_from_arrays(X)
        k_values = tuple(data.draw(st.lists(st.integers(1, ds.n), min_size=1, max_size=3)))
        specs = data.draw(st.permutations(default_spec_grid(ds, SCHEMES, k_values, (0.5, 2.0))))
        if data.draw(st.booleans()):
            x0 = X[data.draw(st.integers(0, ds.n - 1))]
        else:
            x0 = np.array(data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=2)), float)
        shared = share_per_measure(specs, lambda spec: query_neighbors(ds, x0, spec))
        for spec, (shared_spec, selected) in zip(specs, shared):
            assert shared_spec is spec
            own = query_neighbors(ds, x0, spec)
            nbrs = selected[: spec.k]
            assert nbrs.dtype == own.dtype and nbrs.tobytes() == own.tobytes()
            keys = [-rounded_closeness(x0, x, spec.scheme) for x in X]
            assert own.tolist() == np.argsort(keys, kind="stable")[: spec.k].tolist()
            no_edges = np.empty(0, dtype=np.int64)
            graph = BaseGraph(spec, ds.n, no_edges, no_edges, np.empty(0))
            for a, b in zip(extend_graph(graph, ds, x0, selected), query_edges(graph, ds, x0)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def arbitrary_graph(rng, n, spec):
    """A graph of any edge set a BaseGraph may hold: random edges i < j with
    explicit zero weights, and a node with no edge."""
    lonely = rng.integers(n)
    chosen = np.triu(rng.random((n, n)) < 0.6, k=1)
    chosen[lonely] = chosen[:, lonely] = False
    i, j = np.nonzero(chosen)
    w = rng.choice([0.0, 0.0, 0.5, 1.0, 2.0, 1e-3], size=i.size) * rng.uniform(0.5, 2.0, i.size)
    return BaseGraph(spec, n, i, j, w)


def assert_query_row_matches(graph, ds, x0):
    """extend_graph's edges, and the query's star combine_laplacians builds
    from them, against the extended graph's coordinate-format build: the
    star's neighbours, weights and degree bit for bit against the query row,
    and the database rows to rounding."""
    nbrs, w = query_edges(graph, ds, x0)
    oracle = extend_graph_oracle(graph, ds, x0)
    row = oracle.getrow(0)
    assert np.array_equal(nbrs + 1, row.indices) and w.tobytes() == row.data.tobytes()
    star = query_star(graph, ds, x0)
    full = laplacian_oracle(oracle)
    row0 = full.getrow(0)
    assert star.T.dtype.kind == "i" and np.array_equal(star.T + 1, row0.indices[1:])
    assert row0.indices[0] == 0 and star.n == graph.n
    assert (-star.w).tobytes() == row0.data[1:].tobytes()
    assert np.float64(star.degree).tobytes() == row0.data[:1].tobytes()
    assert star.degree == (oracle @ np.ones(graph.n + 1))[0]
    L = star_laplacian_dense(star)
    L[1:, 1:] += laplacian_oracle(graph.weights).toarray()
    assert np.abs(L - full.toarray()).max() <= 1e-14 * np.abs(full.toarray()).max()


class TestCsrAssembly:
    """combine_laplacians holds the query's star as arrays, which is all the
    online solve reads; they must equal the query row of the sparse-format
    build of the extended graph's Laplacian bit for bit, and the database
    system at one-hot weights must equal D - W."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12), scheme=st.sampled_from(SCHEMES))
    @settings(max_examples=200, deadline=None)
    def test_extend_and_laplacian_match_sparse_builds(self, seed, n, scheme):
        rng = np.random.default_rng(seed)
        ds = dataset_from_arrays(rng.uniform(0.1, 1.0, size=(n, 3)))
        graph = arbitrary_graph(rng, n, spec_for(scheme, int(rng.integers(1, n + 1))))
        # half the time a copy of a database point
        x0 = ds.feature_matrix[rng.integers(n)] if rng.random() < 0.5 else rng.uniform(0.1, 1.0, 3)
        assert_query_row_matches(graph, ds, x0)

    def test_pool_graphs_match_sparse_builds(self):
        ds = generate_synthetic(3, 20, 4, 1.0, 4.0, 3)
        pool = build_pool(ds, default_spec_grid(ds))
        for m, graph in enumerate(pool.graphs):
            L = _database_system(pool, np.eye(pool.m)[m], 1.0, 0.0)[0].toarray()
            oracle = laplacian_oracle(graph.weights).toarray()
            assert np.abs(L - oracle).max() <= 1e-14 * np.abs(oracle).max()
            for x0 in (ds.feature_matrix[7], np.full(4, 0.25)):
                assert_query_row_matches(graph, ds, x0)


def test_median_pairwise_distance_hand_case():
    X = np.array([[0.0], [1.0], [3.0]])
    # pairwise distances 1, 3, 2 -> median 2
    assert median_pairwise_distance(X) == 2.0


class TestMedianPairwiseDistance:
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_per_row_oracle(self, data):
        # even and odd pair counts, duplicate and all-identical rows, large
        # common offsets, norms beyond 2^+-900 (the infinite margin), and
        # near-tied distances under one far row, whose filter values reorder
        # them; small blocks, buckets and keep limits drive the multi-block,
        # multi-pass and split-rank paths on small inputs
        case = data.draw(st.sampled_from(
            ["uniform", "duplicate", "identical", "offset", "norm", "outlier"]
        ))
        n = data.draw(st.sampled_from([2, 3]) | st.integers(4, 40))
        dim = data.draw(st.integers(1, 5))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if case == "uniform":
            X = rng.uniform(-1.0, 1.0, (n, dim))
        elif case == "duplicate":
            distinct = rng.uniform(0.0, 1.0, (data.draw(st.integers(1, 3)), dim))
            X = distinct[rng.integers(0, len(distinct), n)]
        elif case == "identical":
            X = np.tile(rng.uniform(0.0, 1.0, dim), (n, 1))
        elif case == "offset":
            X = data.draw(st.sampled_from([1e6, 1e7, 1e8])) + rng.uniform(0, 1, (n, dim))
        elif case == "norm":
            scale = data.draw(st.sampled_from([1e-160, 1e-100, 1e100, 1e160]))
            X = scale * rng.uniform(0.5, 1.0, (n, dim))
        else:
            X = rng.integers(0, 3, (n, dim)) + 1e-9 * rng.uniform(0, 1, (n, dim))
            X[rng.integers(n)] = data.draw(st.sampled_from([1e6, 1e7, 1e8]))
        small = mock.patch.multiple(
            graphs, _KEY_ELEMS=64, _PAIR_ELEMS=64, _MEDIAN_BINS=4, _KEEP_VALUES=8
        )
        # the far row's near ties need narrow windows to reach a bucket edge
        with small if case == "outlier" or data.draw(st.booleans()) else contextlib.nullcontext():
            assert median_pairwise_distance(X) == median_pairwise_distance_oracle(X)

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_beyond_bounded_range_counts_exact_values(self, scale):
        X = scale * np.random.default_rng(3).uniform(0.5, 1.0, (300, 4))
        centred = X - X.mean(axis=0)
        norms = np.einsum("ij,ij->i", centred, centred)
        assert np.isinf(graphs._filter_margin(norms, 4, by_norm=True)).all()
        assert median_pairwise_distance(X) == median_pairwise_distance_oracle(X)

    def test_identical_rows_give_zero_and_unit_scale(self):
        X = np.full((50, 3), 0.1)
        assert median_pairwise_distance(X) == 0.0
        grid = default_spec_grid(dataset_from_arrays(X))
        assert {spec.sigma for spec in grid if spec.scheme == "gaussian"} == {0.5, 1.0, 2.0}

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="at least 2 points"):
            median_pairwise_distance(np.zeros((1, 3)))

    def test_no_buffer_of_all_pairs(self):
        # the per-row oracle holds N(N-1)/2 squared distances: 36 MB at
        # N=3000; numpy reports its array data to tracemalloc
        X = np.array(generate_synthetic(5, 600, 32, 1.0, 5.0, 0).feature_matrix)
        tracemalloc.start()
        try:
            median_pairwise_distance(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 36e6 / 4
