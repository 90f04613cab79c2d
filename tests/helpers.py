"""Small builders and oracles shared across test modules."""

import json

import numpy as np
import scipy.sparse as sp

from multigrank.dataset import Dataset, DomainRecord
from multigrank.graphs import (
    BaseGraph,
    _closeness,
    _sq_dist,
    build_graph,
    edge_weight,
    extend_graph,
    knn_edges,
    knn_neighbors,
    query_neighbors,
)


def dataset_from_arrays(points, labels=None) -> Dataset:
    """Dataset with ids r0, r1, ... from a point array and optional label strings."""
    points = np.asarray(points, dtype=np.float64)
    if labels is None:
        labels = ["x"] * len(points)
    records = [
        DomainRecord(f"r{i}", tuple(str(lab).split("/")), points[i].copy())
        for i, lab in enumerate(labels)
    ]
    return Dataset.from_records(records)


def dense_relevance(rel) -> np.ndarray:
    """The N x N binary matrix a RelevanceMatrix stands for: 1 where two
    records share a group id (symmetric, unit diagonal)."""
    return (rel.gid[:, None] == rel.gid[None, :]).astype(np.float64)


def random_labels(rng, n, n_classes) -> list:
    """Random class labels guaranteeing at least two distinct classes."""
    labels = [f"g{rng.integers(n_classes)}" for _ in range(n)]
    if len(set(labels)) < 2:
        labels[0] = "g_extra"
    return labels


def knn_graph(ds, spec):
    """The spec's graph over the dataset, from its own ``knn_edges``."""
    return build_graph(ds, spec, knn_edges(ds, spec))


def knn_graph_oracle(ds, spec, neighbors=None) -> BaseGraph:
    """The spec's graph assembled on its own: the union of its (N, k)
    neighbour array (by default its own ``knn_neighbors``), each edge once
    as i < j, weighed by ``edge_weight`` over the gathered rows and clamped
    at 0."""
    X = ds.feature_matrix
    n = X.shape[0]
    if neighbors is None:
        neighbors = knn_neighbors(ds, spec)[0]
    rows = np.repeat(np.arange(n, dtype=np.int64), spec.k)
    cols = np.ravel(neighbors)
    i, j = np.divmod(np.unique(np.minimum(rows, cols) * n + np.maximum(rows, cols)), n)
    return BaseGraph(spec, n, i, j, np.maximum(edge_weight(X[i], X[j], spec), 0.0))


def _first_k(keys: np.ndarray, k: int) -> np.ndarray:
    """Columns of the k smallest keys in each row, ordered by (key, column):
    the first k columns of a stable argsort of the whole row, NaN last."""
    return np.argsort(keys, axis=1, kind="stable")[:, :k]


def query_edges(graph, ds, x0):
    """The query's edges in one graph, from its own ``query_neighbors``."""
    return extend_graph(graph, ds, x0, query_neighbors(ds, x0, graph.spec))


def ranked_top_ids(ranked, k) -> tuple:
    """Ids of the first k items of a ranking, best first."""
    return tuple(ranked.item_ids[i] for i in ranked.order[:k])


def trapezoid_auc(curve) -> float:
    """Trapezoidal area under a ROC curve's points."""
    return float(np.trapezoid(curve.tpr, curve.fpr))


def selection_solve_oracle(L, u, y, alpha, ridge=0.0) -> np.ndarray:
    """Dense solve of ``(diag(u + ridge) + alpha L) f = u * y``: the scores of
    graph-regularized ranking with the entries marked by ``u`` known."""
    L = L.toarray() if sp.issparse(L) else np.asarray(L, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    return np.linalg.solve(np.diag(u + ridge) + alpha * L, u * np.asarray(y, dtype=np.float64))


def objective_oracle(pool, F, Y, mu, alpha, beta) -> float:
    """The joint training objective from dense Laplacians of the pooled graphs:
    ``||F - Y||^2 + alpha sum_m mu_m Tr(F' L_m F) + beta ||mu||^2``."""
    F = np.asarray(F, dtype=np.float64).reshape(pool.n, -1)
    Y = np.asarray(Y, dtype=np.float64).reshape(pool.n, -1)
    rough = [np.trace(F.T @ laplacian_oracle(g.weights).toarray() @ F) for g in pool.graphs]
    return float(np.sum((F - Y) ** 2) + alpha * (np.asarray(rough) @ mu.mu)
                 + beta * (mu.mu @ mu.mu))


def laplacian_oracle(W) -> sp.csr_matrix:
    """L = D - W as CSR, from a sparse weight matrix W, with degrees W @ 1."""
    return (sp.diags(W @ np.ones(W.shape[0])) - W).tocsr()


def extend_graph_oracle(graph, ds, x0) -> sp.csr_matrix:
    """Query extension by a coordinate-format build of the whole (N+1)^2
    weight matrix: the graph with the query as node 0, joined to its k
    nearest database nodes, and the database block unchanged."""
    X = ds.feature_matrix
    x0 = np.asarray(x0, dtype=np.float64).ravel()
    nbrs = _first_k(-_closeness(x0, X, graph.spec)[None, :], graph.spec.k)[0]
    w = np.maximum(edge_weight(x0, X[nbrs], graph.spec), 0.0)
    base = graph.weights.tocoo()
    n1 = graph.n + 1
    rows = np.concatenate([np.zeros(len(nbrs), dtype=int), nbrs + 1, base.row + 1])
    cols = np.concatenate([nbrs + 1, np.zeros(len(nbrs), dtype=int), base.col + 1])
    vals = np.concatenate([w, w, base.data])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n1, n1))


def extended_laplacian_oracle(graphs, mu, ds, x0) -> np.ndarray:
    """Dense sum of ``mu_m`` times each graph's extended Laplacian, built by
    ``extend_graph_oracle``; graphs of weight 0 included."""
    return sum(w * laplacian_oracle(extend_graph_oracle(g, ds, x0)).toarray()
               for w, g in zip(mu, graphs))


def star_laplacian_dense(star) -> np.ndarray:
    """The (n+1)^2 Laplacian of a query's star, dense, from its arrays: the
    degree at (0, 0), ``-w`` at (0, T+1) and (T+1, 0), ``w`` at (T+1, T+1)."""
    L = np.zeros((star.n + 1, star.n + 1))
    L[0, 0] = star.degree
    L[0, star.T + 1] = L[star.T + 1, 0] = -star.w
    L[star.T + 1, star.T + 1] = star.w
    return L


def median_pairwise_distance_oracle(X) -> float:
    """Median distance over all pairs from a buffer of every squared distance,
    filled row by row with ``_sq_dist``, as ``np.median`` finishes it."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    d2 = np.empty(n * (n - 1) // 2)
    pos = 0
    for i in range(n - 1):
        d2[pos : pos + n - 1 - i] = _sq_dist(X[i + 1 :], X[i])
        pos += n - 1 - i
    return float(np.median(np.sqrt(d2, out=d2), overwrite_input=True))


def pool_v1_text(pool) -> str:
    """The pool as earlier releases wrote it (file version 1): ``json.dumps``
    of one document, the header and each graph's ``[i, j, w]`` triplets, with
    the dataset's fingerprint standing as the pool's."""
    doc = {"version": 1, "M": pool.m, "N": pool.n, "d": pool.dim,
           "fingerprint": pool.dataset_fingerprint,
           "graphs": [{"spec": {"scheme": g.spec.scheme, "k": g.spec.k, "sigma": g.spec.sigma},
                       "nnz": int(g.i.size),
                       "triplets": [[int(a), int(b), float(c)] for a, b, c in zip(g.i, g.j, g.w)]}
                      for g in pool.graphs]}
    return json.dumps(doc) + "\n"


def read_pool_file(path):
    """A version 2 pool file, read by its layout alone: the header line as a
    dict, and each graph's ``[i, j, w]`` as writable arrays."""
    with open(path, "rb") as fh:
        head = json.loads(fh.readline())
        body = fh.read()
    edges, at = [], 0
    for entry in head["graphs"]:
        arrays = []
        for dtype in ("<i8", "<i8", "<f8"):
            arrays.append(np.frombuffer(body, dtype, entry["nnz"], at).copy())
            at += 8 * entry["nnz"]
        edges.append(arrays)
    assert at == len(body)
    return head, edges


def write_pool_file(path, head, edges, tail=b"") -> None:
    """Write a header and edge arrays in the version 2 layout, then ``tail``,
    as they stand: nothing is checked or made to agree."""
    with open(path, "wb") as fh:
        fh.write(json.dumps(head).encode() + b"\n")
        for arrays in edges:
            for array in arrays:
                fh.write(array.tobytes())
        fh.write(tail)
