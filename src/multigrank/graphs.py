"""k-NN graphs over a dataset under five weighting schemes.

Each graph stores a sparse symmetric weight matrix W with zero diagonal, its
degree vector, and exposes the Laplacian L = D - W on demand.  Edges follow
the union rule: (i, j) is an edge iff j is among i's k nearest or vice versa.
Negative similarities (possible for dot_product and cosine) are clamped to 0
at assembly time so L stays positive semi-definite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .dataset import Dataset, dataset_fingerprint

SCHEMES = ("gaussian", "dot_product", "cosine", "jaccard", "tanimoto")


@dataclass(frozen=True)
class GraphSpec:
    """A weighting scheme plus its parameters; realized against a dataset."""

    scheme: str
    k: int
    sigma: float | None = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.scheme == "gaussian":
            if self.sigma is None or not self.sigma > 0:
                raise ValueError("gaussian scheme requires sigma > 0")
        elif self.sigma is not None:
            raise ValueError(f"sigma does not apply to the {self.scheme!r} scheme")


@dataclass(eq=False)
class BaseGraph:
    """One realized kNN graph: sparse symmetric weights and degree vector."""

    spec: GraphSpec
    weights: sp.csr_matrix
    degrees: np.ndarray

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def laplacian(self) -> sp.csr_matrix:
        """L = D - W, materialized on demand."""
        return (sp.diags(self.degrees) - self.weights).tocsr()

    @classmethod
    def from_weights(cls, spec: GraphSpec, weights) -> "BaseGraph":
        """Wrap an explicit (sparse or dense) symmetric weight matrix."""
        w = sp.csr_matrix(weights)
        return cls(spec=spec, weights=w, degrees=w @ np.ones(w.shape[0]))


@dataclass(eq=False)
class GraphPool:
    """Ordered candidate graphs over one dataset, bound by its fingerprint."""

    graphs: tuple[BaseGraph, ...]
    fingerprint: str
    dim: int

    @property
    def m(self) -> int:
        return len(self.graphs)

    @property
    def n(self) -> int:
        return self.graphs[0].n


# elements per row block of the (rows, N, d) broadcast in knn_neighbors
_BLOCK_ELEMS = 1 << 21


def _dot(a, b) -> np.ndarray:
    return np.einsum("...i,...i->...", a, b)


def _sq_dist(a, b) -> np.ndarray:
    # explicit differences rather than the gram trick: exact zeros for
    # duplicate points, so ties resolve by index as promised
    diff = a - b
    return _dot(diff, diff)


def _ratio(num, den) -> np.ndarray:
    # 0 where the denominator vanishes, which needs both vectors at 0
    return np.divide(num, den, out=np.zeros(np.shape(num)), where=den != 0)


def edge_weight(x_i, x_j, spec: GraphSpec):
    """Similarity under the spec's weighting scheme, broadcast over leading axes.

    The last axis holds the features.  Two vectors give a float, a vector
    against an (n, d) matrix gives an (n,) row, and two (n, d) arrays give the
    n pairwise weights.  Each element equals the scalar call on its pair.
    """
    x_i = np.asarray(x_i, dtype=np.float64)
    x_j = np.asarray(x_j, dtype=np.float64)
    if x_i.shape[-1:] != x_j.shape[-1:]:
        raise ValueError("edge_weight: vectors have different dimensions")
    if spec.scheme == "gaussian":
        w = np.exp(-_sq_dist(x_i, x_j) / (2.0 * spec.sigma**2))
    elif spec.scheme == "jaccard":
        if (x_i < 0).any() or (x_j < 0).any():
            raise ValueError("jaccard requires nonnegative features")
        w = _ratio(np.minimum(x_i, x_j).sum(axis=-1), np.maximum(x_i, x_j).sum(axis=-1))
    else:
        dot = _dot(x_i, x_j)
        if spec.scheme == "dot_product":
            w = dot
        elif spec.scheme == "cosine":
            ni = np.sqrt(_dot(x_i, x_i))
            nj = np.sqrt(_dot(x_j, x_j))
            if (ni == 0.0).any() or (nj == 0.0).any():
                raise ValueError("zero vector under cosine similarity")
            w = dot / (ni * nj)
        else:  # tanimoto
            w = _ratio(dot, _dot(x_i, x_i) + _dot(x_j, x_j) - dot)
    return float(w) if np.ndim(w) == 0 else w


def _measure(spec: GraphSpec) -> str:
    """Name of the spec's neighbor-selection measure; specs that share it
    select the same neighbors at equal k, whatever their sigma."""
    return "sq_distance" if spec.scheme in ("gaussian", "dot_product") else spec.scheme


def _closeness(a, b, spec: GraphSpec) -> np.ndarray:
    """Neighbor-selection measure, larger means closer: the edge weight, except
    negative squared distance for gaussian (same order) and dot_product."""
    if _measure(spec) == "sq_distance":
        return -_sq_dist(a, b)
    return edge_weight(a, b, spec)


def _first_k(keys: np.ndarray, k: int) -> np.ndarray:
    """Columns of the k smallest keys in each row, ordered by (key, column).

    Equal to the first k columns of a stable argsort, ties included, without
    sorting whole rows: only the candidates up to each row's k-th value are
    sorted.  NaN keys sort last, as in argsort.
    """
    kth = np.partition(keys, k - 1, axis=1)[:, k - 1 : k]
    rows, cols = np.nonzero(~(keys > kth))
    # cols ascend within each row, and lexsort is stable: (row, key, column)
    order = np.lexsort((keys[rows, cols], rows))
    starts = np.searchsorted(rows, np.arange(keys.shape[0]))
    return cols[order][starts[:, None] + np.arange(k)]


def _symmetric_graph(spec: GraphSpec, n: int, rows, cols, vals) -> BaseGraph:
    """Graph whose W holds each upper-triangle triplet at (i, j) and (j, i)."""
    weights = sp.csr_matrix(
        (np.concatenate([vals, vals]), (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
        shape=(n, n),
    )
    return BaseGraph.from_weights(spec, weights)


def knn_neighbors(ds: Dataset, spec: GraphSpec) -> np.ndarray:
    """Indices of each node's k nearest neighbors under the spec's measure.

    Returns an (N, k) array, closest first, self excluded, ties broken by
    lower node index, so the first k' < k columns are the answer for k'.
    Rows are scored in blocks; no N x N array is formed.
    """
    X = ds.feature_matrix
    n, d = X.shape
    if spec.k > n - 1:
        raise ValueError(f"k={spec.k} out of range for {n} nodes")
    step = max(1, _BLOCK_ELEMS // (n * max(d, 1)))
    out = np.empty((n, spec.k), dtype=np.intp)
    for start in range(0, n, step):
        rows = np.arange(start, min(start + step, n))
        closeness = _closeness(X[rows, None, :], X[None, :, :], spec)
        closeness[rows - start, rows] = -np.inf
        out[rows] = _first_k(-closeness, spec.k)
    return out


def build_graph(ds: Dataset, spec: GraphSpec, neighbors=None) -> BaseGraph:
    """Realize a spec against a dataset: union-symmetrized kNN weight matrix.

    ``neighbors`` is the spec's (N, k) neighbor array when already selected,
    as ``build_pool`` does; by default it comes from ``knn_neighbors``.
    """
    X = ds.feature_matrix
    n = X.shape[0]
    if neighbors is None:
        neighbors = knn_neighbors(ds, spec)
    elif np.shape(neighbors) != (n, spec.k):
        raise ValueError(
            f"neighbors have shape {np.shape(neighbors)}, expected {(n, spec.k)}"
        )
    rows = np.repeat(np.arange(n), spec.k)
    cols = np.ravel(neighbors)
    # each union edge once, as i < j: weighing it once keeps W exactly symmetric
    i, j = np.divmod(np.unique(np.minimum(rows, cols) * n + np.maximum(rows, cols)), n)
    vals = np.maximum(edge_weight(X[i], X[j], spec), 0.0)
    return _symmetric_graph(spec, n, i, j, vals)


def build_pool(ds: Dataset, specs) -> GraphPool:
    """Build all candidate graphs, in spec order, bound to the dataset.

    Neighbors are selected once per selection measure, at the largest k any
    spec of that measure asks for; each spec takes its first k columns.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("cannot build a pool from an empty spec list")
    widest = {}
    for spec in specs:
        measure = _measure(spec)
        if measure not in widest or spec.k > widest[measure].k:
            widest[measure] = spec
    selected = {}
    graphs = []
    for spec in specs:
        measure = _measure(spec)
        if measure not in selected:
            selected[measure] = knn_neighbors(ds, widest[measure])
        graphs.append(build_graph(ds, spec, selected[measure][:, : spec.k]))
    return GraphPool(graphs=tuple(graphs), fingerprint=dataset_fingerprint(ds), dim=ds.dim)


def extend_graph(graph: BaseGraph, ds: Dataset, x0) -> BaseGraph:
    """Extend a database graph with a query as node 0.

    The database block of W is frozen by contract: only row/column 0 is new,
    holding weights between the query and its k nearest database nodes under
    the graph's own spec.  Database indices shift up by one.
    """
    X = ds.feature_matrix
    x0 = np.asarray(x0, dtype=np.float64).ravel()
    if x0.shape[0] != X.shape[1]:
        raise ValueError(
            f"query has dimension {x0.shape[0]}, dataset has dimension {X.shape[1]}"
        )
    if graph.n != X.shape[0]:
        raise ValueError("graph and dataset have different node counts")
    nbrs = _first_k(-_closeness(x0, X, graph.spec)[None, :], graph.spec.k)[0]
    w = np.maximum(edge_weight(x0, X[nbrs], graph.spec), 0.0)
    base = graph.weights.tocoo()
    n1 = graph.n + 1
    rows = np.concatenate([np.zeros(len(nbrs), dtype=int), nbrs + 1, base.row + 1])
    cols = np.concatenate([nbrs + 1, np.zeros(len(nbrs), dtype=int), base.col + 1])
    vals = np.concatenate([w, w, base.data])
    return BaseGraph.from_weights(graph.spec, sp.csr_matrix((vals, (rows, cols)), shape=(n1, n1)))


def median_pairwise_distance(X: np.ndarray) -> float:
    """Median Euclidean distance over all point pairs (data-driven kernel scale)."""
    n = X.shape[0]
    d2 = np.empty(n * (n - 1) // 2)
    pos = 0
    for i in range(n - 1):
        d2[pos : pos + n - 1 - i] = _sq_dist(X[i + 1 :], X[i])
        pos += n - 1 - i
    return float(np.median(np.sqrt(d2, out=d2), overwrite_input=True))


def default_spec_grid(
    ds: Dataset,
    schemes=SCHEMES,
    k_values=(5, 10),
    sigma_multipliers=(0.5, 1.0, 2.0),
) -> list[GraphSpec]:
    """Candidate grid: every scheme crossed with k; gaussian also crossed with
    a sigma grid scaled by the dataset's median pairwise distance."""
    scale = median_pairwise_distance(ds.feature_matrix)
    if scale <= 0:
        scale = 1.0
    specs = []
    for scheme in schemes:
        for k in k_values:
            if scheme == "gaussian":
                specs.extend(
                    GraphSpec(scheme, k, mult * scale) for mult in sigma_multipliers
                )
            else:
                specs.append(GraphSpec(scheme, k))
    return specs


def save_pool(pool: GraphPool, path) -> None:
    """Persist a pool: header plus per-graph upper-triangle weight triplets."""
    graphs = []
    for graph in pool.graphs:
        coo = sp.triu(graph.weights, k=1).tocoo()
        triplets = [
            [int(i), int(j), float(v)] for i, j, v in zip(coo.row, coo.col, coo.data)
        ]
        graphs.append(
            {
                "spec": {
                    "scheme": graph.spec.scheme,
                    "k": graph.spec.k,
                    "sigma": graph.spec.sigma,
                },
                "nnz": len(triplets),
                "triplets": triplets,
            }
        )
    doc = {
        "version": 1,
        "M": pool.m,
        "N": pool.n,
        "d": pool.dim,
        "fingerprint": pool.fingerprint,
        "graphs": graphs,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _triplet_array(index: int, trip) -> np.ndarray:
    """(nnz, 3) float array of the stored [i, j, weight] triplets."""
    try:
        return np.array(trip, dtype=np.float64).reshape(len(trip), 3)
    except (TypeError, ValueError):
        for t in trip:
            try:
                ok = np.shape(np.array(t, dtype=np.float64)) == (3,)
            except (TypeError, ValueError):
                ok = False
            if not ok:
                raise ValueError(
                    f"pool file corrupt: graph {index} triplet {t!r}: expected [i, j, weight]"
                ) from None
        raise


def _check_triplets(index: int, n: int, trip, rows, cols, vals) -> None:
    """Reject weight triplets that do not describe a simple weighted graph."""

    def fail(at, need):
        raise ValueError(f"pool file corrupt: graph {index} triplet {trip[at]!r}: {need}")

    bad = np.flatnonzero(~(np.isfinite(vals) & (vals >= 0)))
    if bad.size:
        fail(bad[0], "weight must be finite and >= 0")
    whole = (rows % 1 == 0) & (cols % 1 == 0)
    bad = np.flatnonzero(~(whole & (rows >= 0) & (rows < cols) & (cols < n)))
    if bad.size:
        fail(bad[0], f"indices must be integers with 0 <= i < j < N={n}")
    keys = rows * n + cols
    order = np.argsort(keys, kind="stable")
    repeat = np.flatnonzero(keys[order][1:] == keys[order][:-1])
    if repeat.size:
        fail(order[repeat[0] + 1], "edge (i, j) stored more than once")


def load_pool(path) -> GraphPool:
    """Inverse of save_pool."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("version") != 1:
        raise ValueError(f"unsupported pool file version: {doc.get('version')!r}")
    n = int(doc["N"])
    if doc.get("M") != len(doc["graphs"]):
        raise ValueError(
            f"pool file corrupt: header M={doc.get('M')!r} but {len(doc['graphs'])} graphs stored"
        )
    graphs = []
    for index, entry in enumerate(doc["graphs"]):
        spec = GraphSpec(
            scheme=entry["spec"]["scheme"],
            k=int(entry["spec"]["k"]),
            sigma=entry["spec"]["sigma"],
        )
        if spec.k > n - 1:
            raise ValueError(
                f"pool file corrupt: graph {index} spec k={spec.k} exceeds N-1={n - 1}"
            )
        trip = entry["triplets"]
        if len(trip) != entry["nnz"]:
            raise ValueError("pool file corrupt: triplet count differs from nnz")
        rows, cols, vals = _triplet_array(index, trip).T
        _check_triplets(index, n, trip, rows, cols, vals)
        graphs.append(_symmetric_graph(spec, n, rows.astype(int), cols.astype(int), vals))
    return GraphPool(graphs=tuple(graphs), fingerprint=doc["fingerprint"], dim=int(doc["d"]))
