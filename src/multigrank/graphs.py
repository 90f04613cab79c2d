"""k-NN graphs over a dataset under five weighting schemes.

Each graph is its edge list: every edge once as i < j, in row-major order,
with its weight; the symmetric weight matrix W it stands for has a zero
diagonal.  Edges follow the union rule: (i, j) is an edge iff j is among i's
k nearest or vice versa.  Negative similarities (possible for dot_product and
cosine) are clamped to 0 at assembly time so every Laplacian D - W formed
from the graphs stays positive semi-definite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dataset import Dataset, dataset_fingerprint, json_field, json_fits, json_text
from .specs import SCHEMES, GraphSpec


@dataclass(eq=False)
class BaseGraph:
    """One realized kNN graph over ``n`` nodes: its edges ``i[e] < j[e]``
    (int64, sorted row-major, each once) and their weights ``w[e]``, zero
    weights included."""

    spec: GraphSpec
    n: int
    i: np.ndarray
    j: np.ndarray
    w: np.ndarray

    @property
    def weights(self):
        """The symmetric N x N weight matrix W, as CSR built on each read."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (np.concatenate([self.w, self.w]),
             (np.concatenate([self.i, self.j]), np.concatenate([self.j, self.i]))),
            shape=(self.n, self.n),
        )


@dataclass(frozen=True, eq=False)
class EdgeTable:
    """Every pooled graph's weights over the union of their edges.

    Edge e joins ``i[e] < j[e]``; ``weights[e, m]`` is graph m's weight on it,
    0 where graph m lacks the edge.  ``indptr`` and ``indices`` are the CSR
    pattern of a symmetric N x N matrix with a diagonal and both directions
    of every edge, and ``order`` takes ``concat(diagonal, upper, lower)``
    values, with ``upper`` and ``lower`` in edge order, to that pattern's
    data.
    """

    i: np.ndarray
    j: np.ndarray
    weights: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    order: np.ndarray

    @classmethod
    def from_graphs(cls, graphs, n: int) -> "EdgeTable":
        keys = np.concatenate([graph.i * n + graph.j for graph in graphs])
        union, edge_of = np.unique(keys, return_inverse=True)
        weights = np.zeros((union.size, len(graphs)))
        graph_of = np.repeat(np.arange(len(graphs)), [graph.i.size for graph in graphs])
        weights[edge_of, graph_of] = np.concatenate([graph.w for graph in graphs])
        i, j = np.divmod(union, n)
        nodes = np.arange(n)
        rows = np.concatenate([nodes, i, j])
        cols = np.concatenate([nodes, j, i])
        order = np.lexsort((cols, rows))
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
        return cls(i=i, j=j, weights=weights, indptr=indptr, indices=cols[order], order=order)


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

    @cached_property
    def edge_table(self) -> EdgeTable:
        """The graphs' edge table, built on first use and kept (E x M floats)."""
        return EdgeTable.from_graphs(self.graphs, self.n)


# elements per (rows, N) filter key block in knn_neighbors, and per gathered
# (pairs, d) operand of its exact rescoring
_KEY_ELEMS = 1 << 16
_PAIR_ELEMS = 1 << 20


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


def _require_nonnegative(*xs) -> None:
    if any((x < 0).any() for x in xs):
        raise ValueError("jaccard requires nonnegative features")


def _require_nonzero(*norms) -> None:
    if any((nrm == 0.0).any() for nrm in norms):
        raise ValueError("zero vector under cosine similarity")


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
        _require_nonnegative(x_i, x_j)
        w = _ratio(np.minimum(x_i, x_j).sum(axis=-1), np.maximum(x_i, x_j).sum(axis=-1))
    else:
        dot = _dot(x_i, x_j)
        if spec.scheme == "dot_product":
            w = dot
        elif spec.scheme == "cosine":
            ni = np.sqrt(_dot(x_i, x_i))
            nj = np.sqrt(_dot(x_j, x_j))
            _require_nonzero(ni, nj)
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


def _candidates(keys: np.ndarray, k: int, slack) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) indices, row-major, of the keys not above their row's k-th
    smallest key plus ``slack``.  NaN keys are kept, as is every key of a row
    whose bound is NaN."""
    kth = np.partition(keys, k - 1, axis=1)[:, k - 1 : k]
    # flatnonzero then divmod: many times faster than a 2-D np.nonzero
    return np.divmod(np.flatnonzero(~(keys > kth + slack)), keys.shape[1])


def _ordered_first_k(rows, cols, keys, n_rows: int, k: int) -> np.ndarray:
    """The first k columns of each row by (key, column), from row-major
    candidates that hold at least those k per row.  NaN keys sort last."""
    # cols ascend within each row, and lexsort is stable: (row, key, column)
    order = np.lexsort((keys, rows))
    starts = np.searchsorted(rows, np.arange(n_rows))
    return cols[order][starts[:, None] + np.arange(k)]


def _first_k(keys: np.ndarray, k: int) -> np.ndarray:
    """Columns of the k smallest keys in each row, ordered by (key, column).

    Equal to the first k columns of a stable argsort, ties included, without
    sorting whole rows: only the candidates up to each row's k-th value are
    sorted.
    """
    rows, cols = _candidates(keys, k, 0.0)
    return _ordered_first_k(rows, cols, keys[rows, cols], keys.shape[0], k)


def _filter_margin(sq_norms: np.ndarray, d: int, by_norm: bool) -> np.ndarray:
    """Per row i, a bound on |filter key - selection key| over the row's pairs.

    The selection key of a pair is its negated ``_closeness`` as rounded in
    floating point; for squared distance it is taken here less a constant of
    the row, which orders and ties each row alike.  With u = 2^-53, a sum of
    d terms rounded in any order (einsum, np.sum, BLAS, with or without FMA)
    is within (d-1)u of the sum of their magnitudes, to first order in u.
    For rows a, b with squared norms A, B, and sum|a_l b_l| <= (A + B)/2,
    that gives for |filter key - selection key|:

    - squared distance, with A and B taken about the column mean m, which
      leaves distances unchanged: the rows less m are rounded by at most
      u|a - m|, which moves D = |a - b|^2 <= 2(A + B) by at most 4u(A + B);
      sum (a_l - b_l)^2 is within (d+2)u D of D, and the Gram key B - 2a.b of
      the centred rows within (2d+2)u(A + B) of D - A: (4d+10)u(A + B) in
      all;
    - cosine: a.b/(|a||b|) and the product of the unit rows are each within
      (2d+4)u of the exact cosine: (4d+8)u;
    - tanimoto: the denominator A + B - a.b >= (A + B)/2 is found within
      (3d+3)u relatively and the numerator within du(A + B)/2, so each of the
      two quotients, at most 1 in size, is within (4d+4)u: (8d+8)u;
    - jaccard: sum(min)/sum(max) <= 1 is within 2du of the exact value; the
      filter finds sum(max) = M within du and Sa + Sb <= 2M within du
      relatively, so its (M - Sa - Sb)/M is within (4d+1)u: (6d+1)u.

    The margin 16(d+2)u, times A_i + max A when ``by_norm`` (squared
    distance), is at least twice each bound; the factor 2 covers the
    second-order terms and the roundings of the margin and of the cut
    kth + 2 margin (rounding to nearest is monotone, so the computed cut
    admits every float the exact one does).  Underflow adds at most
    ~4d 2^-1075 to any of these sums, which the factor also covers once every
    nonzero squared norm is >= 2^-900; under squared distance, identical
    rows centre to exact zeros, and their margin of 0 is exact.  A
    squared norm above 2^900, nonzero below 2^-900, or NaN voids the bounds:
    the margin is then infinite, and every column is rescored.
    """
    nonzero = sq_norms[sq_norms != 0]
    if nonzero.size and not (2.0**-900 <= nonzero.min() and nonzero.max() <= 2.0**900):
        return np.full(sq_norms.shape, np.inf)
    bound = 16 * (d + 2) * np.finfo(np.float64).eps / 2
    if by_norm:
        return bound * (sq_norms + sq_norms.max())
    return np.full(sq_norms.shape, bound)


def _filter(X: np.ndarray, sq_norms: np.ndarray, measure: str):
    """The cheap filter of ``knn_neighbors``: a function of a row block giving
    its (rows, N) filter keys, and per row the margin within which they
    approximate the selection keys (``_filter_margin``).  The keys come from a
    Gram block, or for jaccard from a block of sum(max) built feature by
    feature."""
    d = X.shape[1]
    if measure == "sq_distance":
        # distances do not change under a shift, and the Gram key's rounding
        # scales with the norms, so centring keeps the margin small for data
        # far from the origin
        centred = X - X.mean(axis=0)
        centred_norms = _dot(centred, centred)
        # a Gram block against -2 times the rows holds -2a.b: no pass to scale it
        scaled = -2.0 * centred

        def keys(rows):
            # |b|^2 - 2a.b: the squared distance less |a|^2
            gram = centred[rows] @ scaled.T
            gram += centred_norms
            return gram

        return keys, _filter_margin(centred_norms, d, by_norm=True)
    margin = _filter_margin(sq_norms, d, by_norm=False)
    if measure == "jaccard":
        features = np.ascontiguousarray(X.T)
        sums = X.sum(axis=1)

        def keys(rows):
            # sum(min) = (Sa + Sb - l1)/2 and sum(max) = (Sa + Sb + l1)/2 with
            # l1 = |a - b|_1, so sum(min) = Sa + Sb - sum(max), and the key
            # -sum(min)/sum(max) increases with l1/(Sa + Sb)
            most = np.zeros((len(rows), X.shape[0]))
            buf = np.empty_like(most)
            for block_col, col in zip(X[rows].T, features):
                most += np.maximum(block_col[:, None], col, out=buf)
            return _ratio(most - (sums[rows, None] + sums), most)

        return keys, margin
    # Gram blocks against the negated rows hold -a.b: no pass to negate them
    if measure == "cosine":
        unit = X / np.sqrt(sq_norms)[:, None]
        negated = -unit
        return (lambda rows: unit[rows] @ negated.T), margin
    negated = -X

    def keys(rows):
        gram = X[rows] @ negated.T
        return _ratio(gram, sq_norms[rows, None] + sq_norms + gram)

    return keys, margin


def knn_neighbors(ds: Dataset, spec: GraphSpec) -> np.ndarray:
    """Indices of each node's k nearest neighbors under the spec's measure.

    Returns an (N, k) array, closest first, self excluded, ties broken by
    lower node index, so the first k' < k columns are the answer for k'.

    Row blocks are filtered and refined; no N x N array is formed.  A cheap
    filter key (``_filter``) is within a proven margin m of the exact
    selection key (``_filter_margin``).  The k columns of smallest filter key
    then have selection keys <= kth + m, kth the row's k-th filter key, so
    every column the exact scan selects has filter key <= kth + 2m.  Only
    those candidates are rescored with ``_closeness`` and picked by
    (key, index), so the result equals the exhaustive scan bit for bit.
    """
    X = ds.feature_matrix
    n, d = X.shape
    if spec.k > n - 1:
        raise ValueError(f"k={spec.k} out of range for {n} nodes")
    measure = _measure(spec)
    sq_norms = _dot(X, X)
    if measure == "jaccard":
        _require_nonnegative(X)
    elif measure == "cosine":
        _require_nonzero(sq_norms)
    filter_keys, margin = _filter(X, sq_norms, measure)
    slack = 2.0 * margin
    step = max(1, _KEY_ELEMS // n)
    chunk = max(1, _PAIR_ELEMS // max(d, 1))
    out = np.empty((n, spec.k), dtype=np.intp)
    for start in range(0, n, step):
        rows = np.arange(start, min(start + step, n))
        # outside the bounded range filter keys may overflow; the margin is
        # then infinite and keeps every column anyway
        with np.errstate(over="ignore", invalid="ignore"):
            approx = filter_keys(rows)
            approx[rows - start, rows] = np.inf
            block_rows, cols = _candidates(approx, spec.k, slack[rows, None])
        pair_rows = rows[block_rows]
        keys = np.empty(len(cols))
        for lo in range(0, len(cols), chunk):
            part = slice(lo, lo + chunk)
            keys[part] = -_closeness(X[pair_rows[part]], X[cols[part]], spec)
        keys[pair_rows == cols] = np.inf
        out[rows] = _ordered_first_k(block_rows, cols, keys, len(rows), spec.k)
    return out


def build_graph(ds: Dataset, spec: GraphSpec, neighbors=None) -> BaseGraph:
    """Realize a spec against a dataset: the union-symmetrized kNN edges.

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
    rows = np.repeat(np.arange(n, dtype=np.int64), spec.k)
    cols = np.ravel(neighbors)
    # each union edge once, as i < j: weighing it once keeps W exactly symmetric
    i, j = np.divmod(np.unique(np.minimum(rows, cols) * n + np.maximum(rows, cols)), n)
    return BaseGraph(spec, n, i, j, np.maximum(edge_weight(X[i], X[j], spec), 0.0))


def select_per_measure(specs, select):
    """Each spec's neighbours, in spec order (a generator): ``select(spec)``,
    closest first along the last axis, runs once per measure at its largest
    k, and each spec takes the first k, its own selection as ties go by index."""
    specs = list(specs)
    widest = {}
    for spec in specs:
        measure = _measure(spec)
        if measure not in widest or spec.k > widest[measure].k:
            widest[measure] = spec
    selected = {}
    for spec in specs:
        measure = _measure(spec)
        if measure not in selected:
            selected[measure] = select(widest[measure])
        yield selected[measure][..., : spec.k]


def build_pool(ds: Dataset, specs) -> GraphPool:
    """Build all candidate graphs, in spec order, bound to the dataset.

    Neighbors are selected once per selection measure, at the largest k any
    spec of that measure asks for; each spec takes its first k columns.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("cannot build a pool from an empty spec list")
    selections = select_per_measure(specs, lambda spec: knn_neighbors(ds, spec))
    graphs = tuple(build_graph(ds, spec, nbrs) for spec, nbrs in zip(specs, selections))
    return GraphPool(graphs=graphs, fingerprint=dataset_fingerprint(ds), dim=ds.dim)


def query_vector(ds: Dataset, x0) -> np.ndarray:
    """A query's features as a float64 vector of the dataset's dimension."""
    x0 = np.asarray(x0, dtype=np.float64).ravel()
    if x0.shape[0] != ds.dim:
        raise ValueError(f"query has dimension {x0.shape[0]}, dataset has dimension {ds.dim}")
    return x0


def query_neighbors(ds: Dataset, x0, spec: GraphSpec) -> np.ndarray:
    """The query's k nearest database nodes by the spec's measure, as ``knn_neighbors``."""
    x0 = query_vector(ds, x0)
    return _first_k(-_closeness(x0, ds.feature_matrix, spec)[None, :], spec.k)[0]


def extend_graph(graph: BaseGraph, ds: Dataset, x0, neighbors=None):
    """The edges a query adds to a database graph as node 0, whose database
    block is frozen: its k nearest database nodes under the graph's spec, in
    ascending order, and the clamped weights to them.  ``neighbors``, when
    given, is the query's selection under the graph's measure, closest first,
    at least k long; by default it comes from ``query_neighbors``.
    """
    x0 = query_vector(ds, x0)
    if graph.n != ds.n:
        raise ValueError("graph and dataset have different node counts")
    if neighbors is None:
        neighbors = query_neighbors(ds, x0, graph.spec)
    nbrs = np.sort(neighbors[: graph.spec.k])
    return nbrs, np.maximum(edge_weight(x0, ds.feature_matrix[nbrs], graph.spec), 0.0)


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
    """Persist a pool: header plus each graph's [i, j, weight] edge triplets."""
    graphs = []
    for graph in pool.graphs:
        # json writes each tuple as an array
        triplets = list(zip(graph.i.tolist(), graph.j.tolist(), graph.w.tolist()))
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
        fh.write(json.dumps(doc))
        fh.write("\n")


def _triplet_arrays(index: int, n: int, trip):
    """Rows, columns and weights of the stored [i, j, weight] triplets, sorted
    row-major; rejects triplets that do not describe a simple weighted graph."""

    def fail(at, need):
        raise ValueError(f"pool file corrupt: graph {index} triplet {json_text(trip[at])}: {need}")

    try:
        rows, cols, vals = np.array(trip, dtype=np.float64).reshape(len(trip), 3).T
    except (TypeError, ValueError, OverflowError):
        at = next(at for at, t in enumerate(trip)
                  if not (json_fits(t, tuple[float, ...]) and len(t) == 3))
        # three numbers that are not three floats hold an integer past float range
        numbers = json_fits(trip[at], tuple[int | float, ...]) and len(trip[at]) == 3
        fail(at, "out of float range" if numbers else "expected [i, j, weight]")
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
    return rows[order].astype(np.int64), cols[order].astype(np.int64), vals[order]


def load_pool(path) -> GraphPool:
    """Inverse of save_pool."""
    where = "pool file corrupt"
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if json_field(doc, "version", int, where) != 1:
        raise ValueError(f"unsupported pool file version: {doc['version']!r}")
    n = json_field(doc, "N", int, where)
    stored = json_field(doc, "graphs", list, where)
    m = json_field(doc, "M", int, where)
    if m != len(stored):
        raise ValueError(f"{where}: header M={m!r} but {len(stored)} graphs stored")
    if not stored:
        raise ValueError(f"{where}: no graphs stored")
    graphs = []
    for index, entry in enumerate(stored):
        at = f"{where}: graph {index}"
        spec_doc = json_field(entry, "spec", dict, at)
        spec = GraphSpec(
            scheme=json_field(spec_doc, "scheme", str, f"{at} spec"),
            k=json_field(spec_doc, "k", int, f"{at} spec"),
            sigma=json_field(spec_doc, "sigma", float | None, f"{at} spec"),
        )
        if spec.k > n - 1:
            raise ValueError(f"{at} spec k={spec.k} exceeds N-1={n - 1}")
        trip = json_field(entry, "triplets", list, at)
        if len(trip) != json_field(entry, "nnz", int, at):
            raise ValueError(f"{where}: triplet count differs from nnz")
        graphs.append(BaseGraph(spec, n, *_triplet_arrays(index, n, trip)))
    return GraphPool(graphs=tuple(graphs), fingerprint=json_field(doc, "fingerprint", str, where),
                     dim=json_field(doc, "d", int, where))
