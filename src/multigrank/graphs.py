"""k-NN graphs over a dataset under five weighting schemes.

Each graph is its edge list: every edge once as i < j, in row-major order,
with its weight; the symmetric weight matrix W it stands for has a zero
diagonal.  Edges follow the union rule: (i, j) is an edge iff j is among i's
k nearest or vice versa.  Negative similarities (possible for dot_product,
cosine and tanimoto) are clamped to 0 at assembly time so every Laplacian
D - W formed from the graphs stays positive semi-definite.

A pool selects neighbours once per selection measure, at its widest k, and
forms that selection's union edges once with each edge's exact selection key
(``knn_edges``).  Each graph takes its share of those edges and weighs them
from the keys, the same numbers ``edge_weight`` gives for the pairs; only
dot_product, which selects by squared distance, weighs its edges from the
features again.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dataset import Dataset, dataset_fingerprint, json_field
from .specs import K_VALUES, SCHEMES, SIGMA_MULTIPLIERS, GraphSpec

# how the pool file stores each graph's i, j and w
_EDGE_DTYPES = ("<i8", "<i8", "<f8")


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


def _graph_docs(graphs) -> list[dict]:
    """Each graph's spec and edge count, as the pool file's header lists them."""
    return [{"spec": {"scheme": g.spec.scheme, "k": g.spec.k, "sigma": g.spec.sigma},
             "nnz": g.i.size} for g in graphs]


def _edge_arrays(graph: BaseGraph) -> list[np.ndarray]:
    """The graph's i, j and w as the pool file stores them."""
    return [np.ascontiguousarray(a, t) for a, t in zip((graph.i, graph.j, graph.w), _EDGE_DTYPES)]


@dataclass(eq=False)
class GraphPool:
    """Ordered candidate graphs over the dataset of ``dataset_fingerprint``."""

    graphs: tuple[BaseGraph, ...]
    dataset_fingerprint: str
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

    @cached_property
    def fingerprint(self) -> str:
        """Short stable hash binding models to this pool, computed once: of its
        dataset's fingerprint, N, d, its specs in order and its edge bytes."""
        h = hashlib.sha256(json.dumps([self.dataset_fingerprint, self.n, self.dim,
                                       _graph_docs(self.graphs)]).encode())
        for array in (array for graph in self.graphs for array in _edge_arrays(graph)):
            h.update(array)
        return h.hexdigest()[:16]


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
    out = np.zeros(np.shape(num), dtype=np.result_type(num, den))
    return np.divide(num, den, out=out, where=den != 0)


def _gaussian(sq_dist, sigma: float) -> np.ndarray:
    return np.exp(-sq_dist / (2.0 * sigma**2))


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
        w = _gaussian(_sq_dist(x_i, x_j), spec.sigma)
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


def _ordered_first_k(rows, cols, keys, n_rows: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The first k columns of each row by (key, column), and their keys, from
    row-major candidates that hold at least those k per row.  NaN keys sort
    last."""
    # cols ascend within each row, and lexsort is stable: (row, key, column)
    order = np.lexsort((keys, rows))
    first = order[np.searchsorted(rows, np.arange(n_rows))[:, None] + np.arange(k)]
    return cols[first], keys[first]


def _first_k(keys: np.ndarray, k: int) -> np.ndarray:
    """Columns of the k smallest keys in each row, ordered by (key, column).

    Equal to the first k columns of a stable argsort, ties included, without
    sorting whole rows: only the candidates up to each row's k-th value are
    sorted.
    """
    rows, cols = _candidates(keys, k, 0.0)
    return _ordered_first_k(rows, cols, keys[rows, cols], keys.shape[0], k)[0]


def _filter_margin(sizes: np.ndarray, d: int, by_norm: bool, single: bool = False) -> np.ndarray:
    """Per row i, a bound on |filter key - selection key| over the row's pairs.

    ``sizes`` holds the rows' squared norms, or under jaccard (``single``)
    the features themselves.  The selection key of a pair is its negated
    ``_closeness`` as rounded in floating point; for squared distance it is
    taken here less a constant of the row, which orders and ties each row
    alike.  With u = 2^-53, a sum of d terms rounded in any order (einsum,
    np.sum, BLAS, with or without FMA) is within (d-1)u of the sum of their
    magnitudes, to first order in u.  For rows a, b with squared norms A, B,
    and sum|a_l b_l| <= (A + B)/2, that gives for |filter key - selection key|:

    - squared distance, with A and B taken about the column mean m, which
      leaves distances unchanged: the rows less m are rounded by at most
      u|a - m|, which moves D = |a - b|^2 <= 2(A + B) by at most 4u(A + B);
      sum (a_l - b_l)^2 is within (d+2)u D of D, and the Gram key B - 2a.b of
      the centred rows within (2d+2)u(A + B) of D - A: (4d+10)u(A + B) in
      all.  ``median_pairwise_distance`` adds A back to the key, to find D
      itself: A's rounding and the sum's add (d+3)u(A + B), for
      (5d+13)u(A + B);
    - cosine: a.b/(|a||b|) and the product of the unit rows are each within
      (2d+4)u of the exact cosine: (4d+8)u;
    - tanimoto: the denominator A + B - a.b >= (A + B)/2 is found within
      (3d+3)u relatively and the numerator within du(A + B)/2, so each of the
      two quotients, at most 1 in size, is within (4d+4)u: (8d+8)u;
    - jaccard: sum(min)/sum(max) <= 1 is within 2du of the exact value.  The
      filter works in float32, with v = 2^-24: the features rounded to it
      are each within v relatively, so their maxima are too, and the float32
      sum of the d maxima finds sum(max) = M within dvM.  The row sums,
      taken in float64 and rounded once, give Sa + Sb <= 2M within 2v
      relatively, so M - Sa - Sb, rounded, is within (d+5)vM, and the
      rounded quotient (M - Sa - Sb)/M within (2d+6)v: (2d+6)v + 2du.

    The margin 16(d+2)u, times A_i + max A when ``by_norm`` (squared
    distance), and 16(d+2)v under jaccard, is at least twice each bound;
    the factor 2 covers the second-order terms and the roundings of the
    margin and of the cut kth + 2 margin (rounding to nearest is monotone,
    so the computed cut admits every float the exact one does).  Underflow
    adds at most ~4d 2^-1075 to any of these sums, which the factor also
    covers once every nonzero squared norm is >= 2^-900; under squared
    distance, identical rows centre to exact zeros, and their margin of 0 is
    exact.  A squared norm above 2^900, nonzero below 2^-900, or NaN voids
    the bounds: the margin is then infinite, and every column is rescored.
    The float32 bounds hold while every nonzero feature lies in
    [2^-100, 2^100] and d < 2^26: each feature is then a normal float32,
    no sum reaches 2^127, and a quotient that underflows is off by at most
    2^-150, which the factor covers.  Outside that range the jaccard margin
    is infinite.
    """
    eps, limit = (np.finfo(np.float32 if single else np.float64).eps,
                  2.0**100 if single else 2.0**900)
    nonzero = sizes[sizes != 0]
    out_of_range = nonzero.size and not (1 / limit <= nonzero.min() and nonzero.max() <= limit)
    if out_of_range or (single and d >= 2**26):
        return np.full(len(sizes), np.inf)
    bound = 16 * (d + 2) * eps / 2
    if by_norm:
        return bound * (sizes + sizes.max())
    return np.full(len(sizes), bound)


def _filter(X: np.ndarray, sq_norms: np.ndarray, measure: str):
    """The cheap filter of ``knn_neighbors``: a function of a row block giving
    its (rows, N) filter keys, and per row the margin within which they
    approximate the selection keys (``_filter_margin``).  The keys come from a
    Gram block, or for jaccard from a float32 block of sum(max) built feature
    by feature."""
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
    if measure == "jaccard":
        margin = _filter_margin(X, d, by_norm=False, single=True)
        if np.isinf(margin).any():
            # beyond float32's safe range every column is rescored
            return (lambda rows: np.zeros((len(rows), X.shape[0]))), margin
        # float32 halves the bytes of each per-feature pass
        single = X.astype(np.float32)
        features = np.ascontiguousarray(single.T)
        sums = X.sum(axis=1).astype(np.float32)

        def keys(rows):
            # sum(min) = (Sa + Sb - l1)/2 and sum(max) = (Sa + Sb + l1)/2 with
            # l1 = |a - b|_1, so sum(min) = Sa + Sb - sum(max), and the key
            # -sum(min)/sum(max) increases with l1/(Sa + Sb)
            most = np.zeros((len(rows), X.shape[0]), dtype=np.float32)
            buf = np.empty_like(most)
            for block_col, col in zip(single[rows].T, features):
                most += np.maximum(block_col[:, None], col, out=buf)
            return _ratio(most - (sums[rows, None] + sums), most)

        return keys, margin
    margin = _filter_margin(sq_norms, d, by_norm=False)
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


def knn_neighbors(ds: Dataset, spec: GraphSpec) -> tuple[np.ndarray, np.ndarray]:
    """Each node's k nearest neighbors under the spec's measure, and their keys.

    Returns two (N, k) arrays: the neighbors' indices, closest first, self
    excluded, ties broken by lower node index, so the first k' < k columns
    are the answer for k'; and each neighbor's selection key, the negated
    ``_closeness`` of the pair (node, neighbor) from the exact rescoring
    below, from which ``build_graph`` weighs the pair's edge.

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
    out_keys = np.empty((n, spec.k))
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
        out[rows], out_keys[rows] = _ordered_first_k(block_rows, cols, keys, len(rows), spec.k)
    return out, out_keys


@dataclass(frozen=True, eq=False)
class KnnEdges:
    """The union edges of the kNN selection of ``spec``, as ``knn_edges``
    forms them.

    Edge e joins ``i[e] < j[e]`` (int64, sorted row-major, each once).
    ``key[e]`` is its selection key, the negated ``_closeness`` that
    ``knn_neighbors`` computed for the pair, and ``rank[e]`` the first
    neighbour position at which either end selected the other.  The first k
    columns of a selection are the selection at k, so the union edges at any
    k up to ``spec.k`` under the same measure are those of rank < k.
    """

    spec: GraphSpec
    n: int
    i: np.ndarray
    j: np.ndarray
    key: np.ndarray
    rank: np.ndarray


def knn_edges(ds: Dataset, spec: GraphSpec) -> KnnEdges:
    """The union edges of the spec's kNN selection (``knn_neighbors``), each
    once with its selection key and rank.

    A pair selected from both ends has two entries; its key is read from
    either, as ``_closeness(a, b)`` equals ``_closeness(b, a)`` bit for bit:
    ``a - b`` negates ``b - a`` exactly, and products and two-term sums
    commute.
    """
    neighbors, keys = knn_neighbors(ds, spec)
    n, k = neighbors.shape
    rows = np.repeat(np.arange(n, dtype=np.int64), k)
    cols = neighbors.ravel()
    pairs = np.minimum(rows, cols) * n + np.maximum(rows, cols)
    # by pair, then by neighbour position: each pair's first entry holds its rank
    order = np.argsort(pairs * k + np.tile(np.arange(k), n))
    sorted_pairs = pairs[order]
    first = np.flatnonzero(np.concatenate(([True], sorted_pairs[1:] != sorted_pairs[:-1])))
    i, j = np.divmod(sorted_pairs[first], n)
    entries = order[first]
    return KnnEdges(spec, n, i, j, keys.ravel()[entries], entries % k)


def build_graph(ds: Dataset, spec: GraphSpec, edges: KnnEdges) -> BaseGraph:
    """Realize a spec against a dataset: the union-symmetrized kNN edges.

    ``edges`` are the union edges of a selection under the spec's measure at
    k >= ``spec.k``, as ``knn_edges`` forms them and ``build_pool`` shares
    them; the spec takes those of rank < k.  The weights come from the
    selection's keys: gaussian ``exp(-key / 2 sigma^2)`` on the squared
    distance, and cosine, jaccard and tanimoto ``-key``, as their closeness
    is their weight.  dot_product selects by squared distance, so its weights
    are ``edge_weight`` over the gathered rows.  Negative weights clamp to 0.
    """
    if (edges.n, _measure(edges.spec)) != (ds.n, _measure(spec)) or edges.spec.k < spec.k:
        raise ValueError(
            f"edges of a {edges.spec.scheme} selection at k={edges.spec.k} over {edges.n} "
            f"nodes do not hold {spec.scheme} k={spec.k} over {ds.n} nodes"
        )
    share = edges.rank < spec.k
    i, j = edges.i[share], edges.j[share]
    if spec.scheme == "dot_product":
        X = ds.feature_matrix
        w = edge_weight(X[i], X[j], spec)
    elif spec.scheme == "gaussian":
        w = _gaussian(edges.key[share], spec.sigma)
    else:
        w = -edges.key[share]
    return BaseGraph(spec, edges.n, i, j, np.maximum(w, 0.0))


def share_per_measure(specs, select):
    """Each spec with its measure's selection, in spec order (a generator):
    ``select(spec)`` runs once per measure, for its spec of largest k, and
    each spec takes its own share, the first k of a selection closest first
    (``extend_graph``) or the edges of rank < k (``build_graph``)."""
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
        yield spec, selected[measure]


def build_pool(ds: Dataset, specs) -> GraphPool:
    """Build all candidate graphs, in spec order, bound to the dataset.

    Neighbors are selected once per selection measure, at the largest k any
    spec of that measure asks for, and their union edges formed once with
    their keys (``knn_edges``); each spec takes its share of them and weighs
    it from those keys (``build_graph``), without a second pass over the
    features but for dot_product.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("cannot build a pool from an empty spec list")
    shared = share_per_measure(specs, lambda spec: knn_edges(ds, spec))
    graphs = tuple(build_graph(ds, spec, edges) for spec, edges in shared)
    return GraphPool(graphs=graphs, dataset_fingerprint=dataset_fingerprint(ds), dim=ds.dim)


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


def extend_graph(graph: BaseGraph, ds: Dataset, x0, neighbors):
    """The edges a query adds to a database graph as node 0, whose database
    block is frozen: its k nearest database nodes under the graph's spec, in
    ascending order, and the clamped weights to them.  ``neighbors`` is the
    query's selection under the graph's measure, closest first, at least k
    long, as ``query_neighbors`` gives it.
    """
    x0 = query_vector(ds, x0)
    if graph.n != ds.n:
        raise ValueError("graph and dataset have different node counts")
    nbrs = np.sort(neighbors[: graph.spec.k])
    return nbrs, np.maximum(edge_weight(x0, ds.feature_matrix[nbrs], graph.spec), 0.0)


# buckets of each median selection pass, and the most exact values a pass keeps
_MEDIAN_BINS = 1 << 14
_KEEP_VALUES = 1 << 17


class _Buckets:
    """Histogram buckets over the nonnegative floats of a window [lo, hi].

    A value's bucket is its bit pattern less the pattern of ``start``,
    shifted right and clipped to the buckets.  The bit patterns of
    nonnegative floats, +inf included, order as the floats do, so the map is
    exact and monotone, and each bucket spans an exact range of floats.  The
    at most ``_MEDIAN_BINS`` buckets are as fine as that allows over
    [start, stop]; values outside it fall in the end buckets.
    """

    def __init__(self, lo, hi, start, stop):
        self.lo, self.hi = lo, hi
        self.base = int(np.float64(start).view(np.int64))
        span = int(np.float64(stop).view(np.int64)) - self.base
        self.shift = max(0, span.bit_length() - (_MEDIAN_BINS.bit_length() - 1))
        self.size = (span >> self.shift) + 1

    def of(self, values: np.ndarray) -> np.ndarray:
        index = (values.view(np.int64) - self.base) >> self.shift
        return np.clip(index, 0, self.size - 1, out=index)

    def span(self, first: int, last: int) -> tuple[float, float]:
        """The window that buckets ``first`` to ``last`` cover."""

        def edge(pattern):
            return float(np.int64(pattern).view(np.float64))

        lo = self.lo if first == 0 else edge(self.base + (first << self.shift))
        hi = self.hi if last == self.size - 1 else edge(self.base + ((last + 1) << self.shift) - 1)
        return lo, hi


def _count_pass(blocks, buckets: _Buckets, keep: bool):
    """One pass of the median selection over a stream of value blocks.

    ``blocks`` yields (count, values): a count of stream values known to lie
    below the window, and further values, NaN standing for none.  Returns
    the count of values below the window, the bucket histogram of those in
    it, their (min, max), and when ``keep`` the values themselves if they
    are at most ``_KEEP_VALUES``, else None.
    """
    lo, hi = buckets.lo, buckets.hi
    below = 0
    hist = np.zeros(buckets.size, dtype=np.int64)
    least, most = np.inf, -np.inf
    kept = [] if keep else None
    total = 0
    for count, values in blocks:
        below += count + np.count_nonzero(values < lo)
        inside = values[(values >= lo) & (values <= hi)]
        if not inside.size:
            continue
        hist += np.bincount(buckets.of(inside), minlength=buckets.size)
        least, most = min(least, inside.min()), max(most, inside.max())
        total += inside.size
        if kept is not None:
            kept = kept + [inside] if total <= _KEEP_VALUES else None
    return below, hist, (least, most), kept


def median_pairwise_distance(X: np.ndarray) -> float:
    """Median Euclidean distance over all point pairs (data-driven kernel scale).

    Bit-identical to ``np.median`` of every pair's ``sqrt(_sq_dist)``, without
    a buffer of the N(N-1)/2 pairs: the middle order statistics are selected
    by filter and refine, as ``knn_neighbors`` selects neighbours.  Row
    blocks of the centred Gram matrix give each pair's squared distance
    within a margin m of its exact value (``_filter_margin``).  Passes over
    the blocks count these filter values into buckets until a window holds
    the middle ones.  The pairs within 2m of that window are then rescored
    with ``_sq_dist`` and the pairs below it counted, which places the
    middle values among the rescored ones.  Where the margin is infinite,
    or zero (identical rows), the passes count exact values.  Memory is
    O(block + buckets).
    """
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    if n < 2:
        raise ValueError("the median pairwise distance needs at least 2 points")
    pairs = n * (n - 1) // 2
    centred = X - X.mean(axis=0)
    norms = _dot(centred, centred)
    margin = _filter_margin(norms, d, by_norm=True).max()
    scaled = -2.0 * centred
    chunk = max(1, _PAIR_ELEMS // max(d, 1))
    step = max(1, (chunk if margin == np.inf else _KEY_ELEMS) // n)

    def filter_values():
        # each row block against the columns from its first row on, NaN
        # where j <= i
        for start in range(0, n, step):
            stop = min(start + step, n)
            if margin == np.inf:
                values = _sq_dist(X[start:stop, None], X[None, start:])
            else:
                values = centred[start:stop] @ scaled[start:].T
                values += norms[start:]
                values += norms[start:stop, None]
                # exact values are >= 0, so the clamp keeps the margin
                np.maximum(values, 0.0, out=values)
            values[np.tril_indices(stop - start)] = np.nan
            yield start, values

    def rescored(cut_lo, cut_hi):
        for start, values in filter_values():
            rows, cols = np.divmod(
                np.flatnonzero((values >= cut_lo) & (values <= cut_hi)), values.shape[1]
            )
            rows += start
            cols += start
            scored = np.empty(len(rows))
            for lo in range(0, len(rows), chunk):
                part = slice(lo, lo + chunk)
                scored[part] = _sq_dist(X[rows[part]], X[cols[part]])
            yield np.count_nonzero(values < cut_lo), scored

    def select(ranks, buckets, stream, exact):
        """The stream's values of the given ranks, one or two adjacent ones,
        which lie in the buckets' window."""
        while True:
            below, hist, (least, most), kept = _count_pass(stream(), buckets, keep=exact)
            if kept is not None:
                return np.sort(np.concatenate(kept))[ranks - below]
            first, last = np.searchsorted(np.cumsum(hist), ranks - below, side="right")[[0, -1]]
            if len(ranks) == 2 and first == 0 and last == buckets.size - 1:
                # the end buckets hold the two ranks, and a window for both
                # would not narrow: select each alone
                return np.concatenate(
                    [select(ranks[:1], buckets, stream, exact),
                     select(ranks[1:], buckets, stream, exact)]
                )
            lo, hi = buckets.span(first, last)
            lo, hi = max(lo, least), min(hi, most)
            if exact and lo == hi:
                return np.full(len(ranks), lo)
            if not exact and (hi - lo <= 4.0 * margin
                              or hist[first : last + 1].sum() <= _KEEP_VALUES // 2):
                # every pair whose exact value can hold one of the ranks has
                # a filter value within 2m of the window
                cut_lo, cut_hi = lo - 2.0 * margin, hi + 2.0 * margin
                return select(ranks, _Buckets(0.0, np.inf, max(cut_lo, 0.0), cut_hi),
                              lambda: rescored(cut_lo, cut_hi), exact=True)
            buckets = _Buckets(lo, hi, lo, hi)

    def unmarked():
        return ((0, values) for _, values in filter_values())

    exact = not 0.0 < margin < np.inf
    top = 4.0 * norms.max()
    buckets = (_Buckets(0.0, np.inf, 0.0, np.inf) if exact
               else _Buckets(0.0, np.inf, top * 2.0**-8, top))
    middle = select(np.unique([(pairs - 1) // 2, pairs // 2]), buckets, unmarked, exact)
    # np.median's finish: the mean of the middle value(s), after the root
    return float(np.mean(np.sqrt(middle[[0, -1]])))


def default_spec_grid(
    ds: Dataset,
    schemes=SCHEMES,
    k_values=K_VALUES,
    sigma_multipliers=SIGMA_MULTIPLIERS,
) -> list[GraphSpec]:
    """Candidate grid: every scheme crossed with k; gaussian also crossed with
    a sigma grid scaled by the dataset's median pairwise distance, which is
    computed only when the grid has a gaussian spec."""
    scale = 1.0
    if "gaussian" in schemes and k_values and sigma_multipliers:
        scale = median_pairwise_distance(ds.feature_matrix) or 1.0
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
    """Persist a pool: one JSON header line (``version`` 2, ``M``, ``N``, ``d``,
    the dataset's and the pool's fingerprints, each graph's ``spec`` and
    ``nnz``), then graph by graph its raw ``i``, ``j`` (``<i8``) and ``w`` (``<f8``)."""
    head = {"version": 2, "M": pool.m, "N": pool.n, "d": pool.dim,
            "dataset_fingerprint": pool.dataset_fingerprint, "fingerprint": pool.fingerprint,
            "graphs": _graph_docs(pool.graphs)}
    with open(path, "wb") as fh:
        fh.write(json.dumps(head).encode() + b"\n")
        fh.writelines(array.data for graph in pool.graphs for array in _edge_arrays(graph))


def _check_edges(index: int, n: int, i, j, w) -> None:
    """Raise ValueError naming graph ``index``'s first edge at fault, unless each
    weight is finite and >= 0, each edge has ``0 <= i < j < n``, row-major, once."""
    same_row = i[1:] == i[:-1]
    repeated = np.concatenate(([False], same_row & (j[1:] == j[:-1])))
    later = np.concatenate(([True], (i[1:] > i[:-1]) | (same_row & (j[1:] > j[:-1]))))
    for bad, need in ((~(np.isfinite(w) & (w >= 0)), "weight must be finite and >= 0"),
                      (~((0 <= i) & (i < j) & (j < n)), f"indices must satisfy 0 <= i < j < N={n}"),
                      (repeated, "edge (i, j) stored more than once"),
                      (~later, "edges must be sorted row-major, by i then j")):
        if bad.any():
            at = np.argmax(bad)
            raise ValueError(f"pool file corrupt: graph {index} triplet {at} "
                             f"[{i[at]}, {j[at]}, {float(w[at])!r}]: {need}")


def load_pool(path) -> GraphPool:
    """Inverse of save_pool, with read-only arrays.  Raises ValueError naming the cause for
    a version other than 2, a header field missing or mistyped, M not the number of graphs,
    no graph, a spec k above N - 1, a body size other than the nnz ask for, an edge that
    ``_check_edges`` rejects, or a fingerprint other than the one of what was read."""
    where = "pool file corrupt"
    with open(path, "rb") as fh:
        data = fh.read()
    line = data.find(b"\n") + 1 or len(data)
    doc, body = json.loads(data[:line]), memoryview(data)[line:]
    if json_field(doc, "version", int, where) != 2:
        raise ValueError(f"unsupported pool file version {doc['version']!r}: this release "
                         "reads version 2; build the pool again with `multigrank pool`")
    n = json_field(doc, "N", int, where)
    stored = json_field(doc, "graphs", list, where)
    if (m := json_field(doc, "M", int, where)) != len(stored):
        raise ValueError(f"{where}: header M={m!r} but {len(stored)} graphs stored")
    if not stored:
        raise ValueError(f"{where}: no graphs stored")
    sizes = [json_field(entry, "nnz", int, f"{where}: graph {index}")
             for index, entry in enumerate(stored)]
    need = 24 * sum(sizes)
    if min(sizes) < 0 or len(body) != need:
        raise ValueError(f"{where}: the header's nnz {sizes} ask for {need} body bytes, but "
                         f"the file holds {len(body)}")
    graphs = []
    for index, (entry, nnz) in enumerate(zip(stored, sizes)):
        at = f"{where}: graph {index}"
        spec_doc = json_field(entry, "spec", dict, at)
        spec = GraphSpec(*(json_field(spec_doc, key, hint, f"{at} spec") for key, hint
                           in (("scheme", str), ("k", int), ("sigma", float | None))))
        if spec.k > n - 1:
            raise ValueError(f"{at} spec k={spec.k} exceeds N-1={n - 1}")
        arrays = [np.frombuffer(body[8 * nnz * k : 8 * nnz * (k + 1)], dtype)
                  for k, dtype in enumerate(_EDGE_DTYPES)]
        body = body[24 * nnz :]
        _check_edges(index, n, *arrays)
        graphs.append(BaseGraph(spec, n, *arrays))
    pool = GraphPool(tuple(graphs), json_field(doc, "dataset_fingerprint", str, where),
                     json_field(doc, "d", int, where))
    if pool.fingerprint != json_field(doc, "fingerprint", str, where):
        raise ValueError(f"{where}: fingerprint {doc['fingerprint']} does not match the "
                         f"dataset fingerprint, N, d, specs and edges stored ({pool.fingerprint})")
    return pool
