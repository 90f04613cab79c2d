import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dataset_from_arrays

from multigrank.dataset import generate_synthetic
from multigrank.graphs import (
    SCHEMES,
    BaseGraph,
    GraphSpec,
    build_graph,
    build_pool,
    default_spec_grid,
    edge_weight,
    extend_graph,
    knn_neighbors,
    load_pool,
    median_pairwise_distance,
    save_pool,
)


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


def neighbors_oracle(X, scheme, k):
    """Exhaustive all-pairs scan with the tie-break rule spelled out."""
    n = len(X)
    out = []
    for i in range(n):
        cands = [(-closeness_oracle(X[i], X[j], scheme), j) for j in range(n) if j != i]
        cands.sort()
        out.append([j for _, j in cands[:k]])
    return out


def outcome(call):
    """The call's result, or the message of the ValueError it raised."""
    try:
        return call()
    except ValueError as exc:
        return str(exc)


class TestKnn:
    def test_collinear_points(self):
        ds = dataset_from_arrays([[0.0], [1.0], [10.0]])
        nbrs = knn_neighbors(ds, spec_for("gaussian", 1))
        assert nbrs.ravel().tolist() == [1, 0, 1]

    def test_duplicate_tie_breaks_to_lowest_index(self):
        ds = dataset_from_arrays([[5.0, 5.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        nbrs = knn_neighbors(ds, spec_for("gaussian", 1))
        # node 3's duplicates are 1 and 2: the tie resolves to 1
        assert nbrs[3, 0] == 1
        assert nbrs[1, 0] == 2 and nbrs[2, 0] == 1

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_matches_exhaustive_scan(self, scheme):
        rng = np.random.default_rng(7)
        X = rng.uniform(0.1, 1.0, size=(10, 4))
        # second input repeats rows, so ties must resolve to the lowest index
        for points in (X, X[[0, 1, 0, 2, 1, 0, 3, 4, 2, 5]]):
            nbrs = knn_neighbors(dataset_from_arrays(points), spec_for(scheme, 3))
            assert nbrs.tolist() == neighbors_oracle(points, scheme, 3)

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
            nbrs = knn_neighbors(ds, spec_for(scheme, k_max))
            oracle = neighbors_oracle(X, scheme, k_max)
            for k in range(1, k_max + 1):
                assert nbrs[:, :k].tolist() == [r[:k] for r in oracle]


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
        g = build_graph(ds, GraphSpec("gaussian", 1, 1e12))
        assert np.array_equal(g.weights.toarray(), [[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(g.laplacian().toarray(), [[1.0, -1.0], [-1.0, 1.0]])

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_invariants_on_random_data(self, scheme):
        rng = np.random.default_rng(11)
        X = rng.uniform(0.05, 1.0, size=(14, 5))
        g = build_graph(dataset_from_arrays(X), spec_for(scheme, 4, sigma=0.8))
        W = g.weights.toarray()
        assert np.array_equal(W, W.T)
        assert np.array_equal(np.diag(W), np.zeros(14))
        assert W.min() >= 0
        L = g.laplacian().toarray()
        assert np.abs(L @ np.ones(14)).max() <= 1e-12
        assert np.linalg.eigvalsh(L).min() >= -1e-10
        # union rule only adds edges on top of each node's own k
        assert ((W != 0).sum(axis=1) >= 4).all()

    def test_quadratic_form_matches_double_sum(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(0.1, 1.0, size=(8, 3))
        g = build_graph(dataset_from_arrays(X), spec_for("gaussian", 3, sigma=0.5))
        L = g.laplacian().toarray()
        W = g.weights.toarray()
        for _ in range(5):
            f = rng.normal(size=8)
            assert abs(f @ L @ f - quad_form_oracle(W, f)) <= 1e-10

    def test_given_neighbors_must_match_spec(self):
        ds = dataset_from_arrays(np.arange(8.0)[:, None])
        spec = spec_for("gaussian", 3)
        nbrs = knn_neighbors(ds, spec)
        assert np.array_equal(
            build_graph(ds, spec, nbrs).weights.toarray(), build_graph(ds, spec).weights.toarray()
        )
        with pytest.raises(ValueError, match="shape"):
            build_graph(ds, spec, nbrs[:, :2])

    def test_nonnegative_quadratic_form(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(0.1, 1.0, size=(12, 4))
        for scheme in SCHEMES:
            L = build_graph(dataset_from_arrays(X), spec_for(scheme, 3)).laplacian().toarray()
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
            alone = build_graph(ds, spec).weights
            assert graph.spec == spec
            assert (graph.weights != alone).nnz == 0
            assert np.array_equal(graph.weights.indices, alone.indices)

    def test_default_pool_bytes_golden(self, tmp_path):
        # sha256 of the bytes written when every spec ran its own full stable
        # argsort (numpy 2.4.6, x86-64); rows repeat and small-integer rows
        # tie, so any change to the tie-break or the k slicing shows here
        base = generate_synthetic(3, 8, 4, 1.0, 6.0, 0).feature_matrix
        X = np.vstack([base, base[[0, 3, 3, 10, 17]], np.round(base[:8]) + 1.0])
        ds = dataset_from_arrays(X, [f"c{i % 3}" for i in range(len(X))])
        path = tmp_path / "pool.json"
        save_pool(build_pool(ds, default_spec_grid(ds)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "62297abdfa4860fa8830497cd90ff42f0169887ec2094c0bb78f0d1b7135283e"
        )

    def test_round_trip(self, tmp_path):
        ds = generate_synthetic(3, 5, 4, 1.0, 6.0, 3)
        pool = build_pool(ds, default_spec_grid(ds, k_values=(3,), sigma_multipliers=(1.0, 2.0)))
        path = tmp_path / "pool.json"
        save_pool(pool, path)
        back = load_pool(path)
        assert back.m == pool.m and back.fingerprint == pool.fingerprint and back.dim == pool.dim
        for g_old, g_new in zip(pool.graphs, back.graphs):
            assert g_old.spec == g_new.spec
            assert np.array_equal(g_old.weights.toarray(), g_new.weights.toarray())
            assert np.allclose(g_old.degrees, g_new.degrees, atol=1e-15)

    def test_file_stores_upper_triplets(self, tmp_path):
        import json

        ds = generate_synthetic(2, 4, 3, 1.0, 4.0, 0)
        pool = build_pool(ds, [spec_for("gaussian", 2)])
        save_pool(pool, tmp_path / "pool.json")
        doc = json.loads((tmp_path / "pool.json").read_text())
        assert {"version", "M", "N", "d", "fingerprint", "graphs"} <= set(doc)
        for entry in doc["graphs"]:
            assert entry["nnz"] == len(entry["triplets"])
            assert all(i < j for i, j, _ in entry["triplets"])


def _corrupt_negative_weight(doc):
    doc["graphs"][0]["triplets"][0][2] = -0.5


def _corrupt_nan_weight(doc):
    doc["graphs"][1]["triplets"][2][2] = float("nan")


def _corrupt_self_loop(doc):
    doc["graphs"][0]["triplets"][1][1] = doc["graphs"][0]["triplets"][1][0]


def _corrupt_lower_triangle(doc):
    i, j, _ = doc["graphs"][1]["triplets"][0]
    doc["graphs"][1]["triplets"][0][:2] = [j, i]


def _corrupt_index_past_n(doc):
    doc["graphs"][0]["triplets"][-1][1] = doc["N"]


def _corrupt_fractional_index(doc):
    doc["graphs"][1]["triplets"][3][0] += 0.5


def _corrupt_duplicate_edge(doc):
    trip = doc["graphs"][0]["triplets"]
    trip[-1] = list(trip[0])


def _corrupt_graph_count(doc):
    doc["M"] = 99


def _corrupt_short_triplet(doc):
    doc["graphs"][1]["triplets"][2] = doc["graphs"][1]["triplets"][2][:2]


def _corrupt_k_past_n(doc):
    doc["graphs"][1]["spec"]["k"] = doc["N"]


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_corrupt_negative_weight, r"graph 0 triplet .*-0\.5.*finite and >= 0"),
        (_corrupt_nan_weight, r"graph 1 triplet .*nan.*finite and >= 0"),
        (_corrupt_self_loop, r"graph 0 triplet .*0 <= i < j < N"),
        (_corrupt_lower_triangle, r"graph 1 triplet .*0 <= i < j < N"),
        (_corrupt_index_past_n, r"graph 0 triplet .*0 <= i < j < N=10"),
        (_corrupt_fractional_index, r"graph 1 triplet .*\.5, .*must be integers"),
        (_corrupt_duplicate_edge, r"graph 0 triplet .*more than once"),
        (_corrupt_graph_count, r"header M=99 but 2 graphs"),
        (_corrupt_short_triplet, r"graph 1 triplet \[\d+, \d+\]: expected \[i, j, weight\]"),
        (_corrupt_k_past_n, r"graph 1 spec k=10 exceeds N-1=9"),
    ],
)
def test_load_pool_rejects_corrupt_file(tmp_path, corrupt, message):
    import json

    ds = generate_synthetic(2, 5, 3, 1.0, 4.0, 0)
    path = tmp_path / "pool.json"
    save_pool(build_pool(ds, [spec_for("gaussian", 2), spec_for("cosine", 3)]), path)
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        load_pool(path)


class TestExtend:
    def _setup(self):
        ds = generate_synthetic(2, 6, 3, 1.0, 8.0, 5)
        g = build_graph(ds, spec_for("gaussian", 3, sigma=2.0))
        return ds, g

    def test_duplicate_query_gets_unit_weight(self):
        ds, g = self._setup()
        target = 1  # database point x_1
        ext = extend_graph(g, ds, ds.records[target].features)
        W = ext.weights.toarray()
        assert W[0, target + 1] == 1.0 and W[target + 1, 0] == 1.0

    def test_laplacian_invariants(self):
        ds, g = self._setup()
        ext = extend_graph(g, ds, np.full(3, 0.5))
        L = ext.laplacian().toarray()
        assert np.abs(L @ np.ones(ext.n)).max() <= 1e-12
        assert np.linalg.eigvalsh(L).min() >= -1e-10

    def test_database_block_frozen(self):
        # the rebuilt (N+1)-node graph may rewire old neighbors; the extension
        # must not, so only its row/column 0 is allowed to differ
        ds, g = self._setup()
        x0 = ds.feature_matrix.mean(axis=0)
        ext = extend_graph(g, ds, x0)
        assert np.array_equal(ext.weights.toarray()[1:, 1:], g.weights.toarray())
        row0 = ext.weights.toarray()[0]
        assert (row0 != 0).sum() == g.spec.k
        for j in np.nonzero(row0)[0]:
            expected = max(edge_weight(x0, ds.records[j - 1].features, g.spec), 0.0)
            assert row0[j] == expected

    def test_dimension_mismatch(self):
        ds, g = self._setup()
        with pytest.raises(ValueError, match="dimension"):
            extend_graph(g, ds, np.ones(5))

    def test_query_neighbors_break_ties_by_index(self):
        # the query's three nearest points are copies of 3.0; the next four
        # tie at 1.0, so k=5 takes their two lowest indices
        X = np.array([[3.0], [1.0], [0.0], [1.0], [3.0], [1.0], [3.0], [1.0]])
        ds = dataset_from_arrays(X)
        g = build_graph(ds, spec_for("gaussian", 5, sigma=2.0))
        ext = extend_graph(g, ds, np.array([2.4]))
        assert sorted(ext.weights.getrow(0).indices - 1) == [0, 1, 3, 4, 6]


def test_median_pairwise_distance_hand_case():
    X = np.array([[0.0], [1.0], [3.0]])
    # pairwise distances 1, 3, 2 -> median 2
    assert median_pairwise_distance(X) == 2.0


def test_from_weights_matches_build():
    ds = generate_synthetic(2, 4, 3, 1.0, 4.0, 2)
    g = build_graph(ds, spec_for("gaussian", 2))
    clone = BaseGraph.from_weights(g.spec, g.weights.toarray())
    assert np.array_equal(clone.weights.toarray(), g.weights.toarray())
    assert np.allclose(clone.degrees, g.degrees, atol=1e-15)
