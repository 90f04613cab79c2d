"""Ranking-score solvers.

Offline: alternate between the closed-form score solve
``F = (I + alpha * sum_m mu_m L_m)^-1 Y`` and the simplex-constrained
quadratic update of the graph weights mu, recording the joint objective.
Both run on the pool's edge table: the score solve by Jacobi-preconditioned
conjugate gradients, warm-started from the previous scores, and the
roughness terms from squared score differences along the edges.
Online: the query joins the database as node 0, the one known entry, and is
ranked by ``(e0 e0' + alpha L + ridge I) f = e0``.  Only row and column 0 of
that system change per query: its database block ``K = alpha L_db + ridge
I`` is assembled on the edge table as the training system is and kept on
the pool, and the query adds only its star, the edges joining it to its
neighbours, held as plain arrays (``QueryStar``).  Eliminating row 0 leaves
the N x N system ``B = K + alpha diag(w)``, K updated on the rows the star
touches.  When K is inverted, once per pool and weights, B is solved by a
low-rank update that reads only those columns of the inverse, and no sparse
matrix is built per query; otherwise, B is solved by the training's block
conjugate gradients.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .dataset import Dataset, RelevanceMatrix, dataset_fingerprint, json_field
from .graphs import GraphPool, extend_graph, query_neighbors, query_vector, share_per_measure
from .specs import HyperParams

# cap on the memory of the held inverse: the N x N database block is
# inverted only while N + 1 <= INVERSE_LIMIT, N^2 doubles (128 MB at
# N = 4000); larger databases solve every query by conjugate gradients
INVERSE_LIMIT = 4096
# conjugate-gradient stopping tolerance, relative to each right-hand side
CG_RTOL = 1e-14
RESIDUAL_TOL = 1e-8
# elements per (edges, columns) block of score differences in smoothness_terms
_GATHER_ELEMS = 1 << 20

SINGULAR_MSG = (
    "ranking system is singular (typically a graph component disconnected from "
    "the query); set ridge > 0 to regularize"
)


class SingularSystemError(RuntimeError):
    """A ranking or training system could not be solved to RESIDUAL_TOL: an
    online system singular at ridge = 0, or a training system too
    ill-conditioned for float64."""


@dataclass(frozen=True, eq=False)
class GraphWeights:
    """Convex-combination coefficients over the pooled graphs."""

    mu: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.float64)
        object.__setattr__(self, "mu", mu)
        if mu.ndim != 1 or mu.size < 1:
            raise ValueError("mu must be a non-empty vector")
        if (mu < 0).any() or not abs(mu.sum() - 1.0) <= 1e-10:
            raise ValueError("mu must lie on the probability simplex")


@dataclass(eq=False)
class RankModel:
    """Trained graph weights plus the hyperparameters that produced them."""

    weights: GraphWeights
    params: HyperParams
    pool_fingerprint: str
    objective_trace: list[float]


@dataclass(eq=False)
class RankedList:
    """Scores over database items, with the descending-score permutation."""

    query_id: str
    scores: np.ndarray
    order: np.ndarray
    item_ids: tuple[str, ...]


def make_ranked(query_id: str, scores, item_ids) -> RankedList:
    """Sort scores descending; ties resolve to the lower database index."""
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise ValueError("ranking scores must be finite")
    order = np.argsort(-scores, kind="stable")
    return RankedList(query_id=query_id, scores=scores, order=order, item_ids=tuple(item_ids))


def write_ranked_tsv(ranked: RankedList, path) -> None:
    """TSV dump: rank, id, score, best first."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("rank\tid\tscore\n")
        for pos, idx in enumerate(ranked.order, start=1):
            fh.write(f"{pos}\t{ranked.item_ids[idx]}\t{float(ranked.scores[idx])!r}\n")


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {mu : mu >= 0, sum mu = 1} (sort-based)."""
    v = np.asarray(v, dtype=np.float64)
    u = np.sort(v)[::-1]
    cssv = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    rho = np.nonzero(u * idx > cssv)[0][-1]
    theta = cssv[rho] / (rho + 1.0)
    w = np.maximum(v - theta, 0.0)
    # large |v| leaves cancellation residue in the sum; renormalize so the
    # simplex constraint holds to full precision at any input scale
    return w / w.sum()


def _relative_residuals(A, X: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``|A x_c - b_c| / |b_c|`` per column (over 1 for a zero column), NaN where
    a column of X is not finite; ``(rel <= RESIDUAL_TOL).all()`` rejects NaN."""
    norms = np.linalg.norm(B, axis=0)
    rel = np.linalg.norm(A @ X - B, axis=0) / np.where(norms > 0, norms, 1.0)
    return np.where(np.isfinite(X).all(axis=0), rel, np.nan)


class QueryStar(NamedTuple):
    """The query's star: node 0 joined to database nodes ``T + 1``.

    ``T`` holds the neighbours in ascending order, ``w`` the combined weight
    on each of their edges (all > 0), and ``degree`` the query's degree,
    summed in graph order; ``n`` is the database size.  Its Laplacian is
    ``degree`` at (0, 0), ``-w`` at (0, T + 1) and (T + 1, 0), and ``w`` at
    (T + 1, T + 1).
    """

    T: np.ndarray
    w: np.ndarray
    degree: float
    n: int


def _star_solves(star: QueryStar, frozen, alpha: float, ridge: float):
    """``B^-1 w`` for the database block ``B = K + alpha diag_T(w)`` of the
    online system, each way in turn (a generator).

    ``frozen`` is ``(K, inv)``, with ``inv = K^-1`` or None.  From the
    inverse, Woodbury gives ``B^-1 w = Q t`` with ``Q = K^-1 E_T``, the
    columns T of the inverse, and ``(diag(1 / (alpha w_T)) + Q[T]) t = 1 /
    alpha``, solved here in the symmetric form scaled by ``sqrt(alpha w_T)``.
    Then, by the training's block conjugate gradients on the sparse N x N
    B.  At ridge 0 this raises SingularSystemError first when some component
    of K's graph holds no star node: that component holds no known entry,
    so the system is singular.
    """
    K, inv = frozen
    T, w_T = star.T, star.w
    if inv is not None:
        # C order, so that the products with Q below round alike for any layout of inv
        Q = np.ascontiguousarray(inv[:, T])
        sw = np.sqrt(alpha * w_T)
        M = np.eye(T.size) + sw[:, None] * Q[T] * sw[None, :]
        yield Q @ (sw * np.linalg.solve(M, sw / alpha))
    if ridge == 0:
        # csgraph imports scipy.sparse.linalg, which only this branch needs
        from scipy.sparse.csgraph import connected_components

        count, labels = connected_components(K != 0, directed=False)
        if np.unique(labels[T]).size < count:
            raise SingularSystemError(SINGULAR_MSG)
    B = K + sp.csr_matrix((alpha * w_T, (T, T)), shape=K.shape)
    w = np.zeros((star.n, 1))
    w[T, 0] = w_T
    X, _ = _block_cg(B, B.diagonal(), w)
    yield X[:, 0]


def grank_solve(star: QueryStar, frozen, alpha: float, ridge: float) -> np.ndarray:
    """The online scores: solve (e0 e0' + alpha L + blockdiag(ridge, K)) f = e0.

    The query is node 0, the one known entry, joined to the database by its
    star ``L`` (a ``QueryStar``).  ``frozen`` is ``_frozen_factor``'s pair
    ``(K, inv)``: ``K = alpha L_db + ridge I`` is the sparse database block,
    and ``inv`` is K^-1 or None.  The system's database block is ``B = K +
    alpha diag(w)``, an update of K on the star's rows T, so the query row
    gives ``f0 = 1 / (a00 - alpha^2 w_T . (B^-1 w)_T)``, with ``a00 = 1 +
    alpha degree + ridge``, and ``f_db = alpha f0 B^-1 w``.  ``B^-1 w``
    comes from the inverse when there is one, and else, or when that result
    fails the check below, from conjugate gradients on B (``_star_solves``).

    A result is kept when it is finite and its relative residual against the
    system is within RESIDUAL_TOL.  The residual is read from the star's
    arrays: ``K f_db`` plus ``alpha w_t (f_t - f0)`` on the rows T, and
    ``a00 f0 - alpha w_T . f_T - 1`` on row 0.  Raises SingularSystemError
    when no result passes.  Returns the N + 1 scores, the query's first.
    """
    K = frozen[0]
    T, w_T = star.T, star.w
    a00 = 1.0 + alpha * star.degree + ridge
    for Bw in _star_solves(star, frozen, alpha, ridge):
        f0 = 1.0 / (a00 - alpha * alpha * (w_T @ Bw[T]))
        f = np.empty(star.n + 1)
        f[0] = f0
        f_db = np.multiply(alpha * f0, Bw, out=f[1:])
        if not np.all(np.isfinite(f)):
            continue
        f_T = f_db[T]
        resid = K @ f_db
        resid[T] += alpha * w_T * (f_T - f0)
        resid0 = a00 * f0 - alpha * (w_T @ f_T) - 1.0
        if np.hypot(resid0, np.linalg.norm(resid)) <= RESIDUAL_TOL:
            return f
    raise SingularSystemError(SINGULAR_MSG)


def combine_laplacians(edges, mu: np.ndarray, n: int) -> QueryStar:
    """The star joining a query, node 0, to its neighbours among n database
    nodes, with ``sum_m mu_m w_m`` on each edge, from one ``(neighbours,
    weights)`` pair per graph as ``extend_graph`` gives them.  Sums run in
    graph order, and each graph's degree in neighbour order, so the star's
    Laplacian equals the query row of the combined extended graphs'
    Laplacian bit for bit.
    """
    nbrs = np.concatenate([nb for nb, _ in edges])
    border = np.bincount(nbrs, np.concatenate([m * w for m, (_, w) in zip(mu, edges)]),
                         minlength=n)
    degree = 0.0
    for m, (_, w) in zip(mu, edges):
        degree += m * (np.cumsum(w)[-1] if w.size else 0.0)
    T = np.flatnonzero(border)
    return QueryStar(T, border[T], degree, n)


def _database_system(pool: GraphPool, mu: np.ndarray, alpha: float, shift: float):
    """``A = shift I + alpha (D - W)`` for ``W = sum_m mu_m W_m``, as CSR on
    the edge table's fixed pattern, and its diagonal: the training system at
    shift 1, the frozen online block at shift ridge."""
    table = pool.edge_table
    n = pool.n
    w = table.weights @ mu
    deg = np.bincount(table.i, w, minlength=n) + np.bincount(table.j, w, minlength=n)
    diag = shift + alpha * deg
    off = -alpha * w
    data = np.concatenate([diag, off, off])[table.order]
    return sp.csr_matrix((data, table.indices, table.indptr), shape=(n, n)), diag


def _column_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->j", a, b)


def _training_failure(rel: np.ndarray, diag: np.ndarray) -> SingularSystemError:
    """Error for a training solve that missed RESIDUAL_TOL.

    ``diag`` is the diagonal ``1 + alpha deg`` of ``I + alpha L``, whose
    eigenvalues lie in [1, 1 + 2 alpha d_max]: the system is never singular
    for finite weights, but float64 can miss the residual bound once that
    spread is well past ``RESIDUAL_TOL / eps`` (4.5e7).
    """
    return SingularSystemError(
        f"training solve (I + alpha L) F = Y failed: relative residual {rel.max():.3g} "
        f"exceeds {RESIDUAL_TOL:g}; the eigenvalues of I + alpha L reach "
        f"1 + 2 alpha d_max = {2.0 * diag.max() - 1.0:.3g}, too wide a spread to solve "
        "in float64 to that residual; lower alpha or scale the graph weights down"
    )


def _block_cg(A, diag: np.ndarray, B: np.ndarray, X0=None) -> tuple[np.ndarray, int]:
    """Jacobi-preconditioned conjugate gradients on every column of B at once.

    ``diag`` is the diagonal of the symmetric positive (semi)definite A; a zero
    entry, a row of A that is all zero, gets preconditioner 1.  Column c stops
    once its residual is within CG_RTOL of ``|B[:, c]|``; a zero column is
    solved by 0.  Starts from ``X0`` when given, and gives up after 20 N steps.
    Returns the solution and the number of steps taken; the caller checks the
    result's residual.
    """
    n, c = B.shape
    X = np.zeros((n, c)) if X0 is None else np.array(X0, dtype=np.float64)
    norms = np.linalg.norm(B, axis=0)
    tol = CG_RTOL * norms
    X[:, norms == 0] = 0.0
    R = B - A @ X
    inv = 1.0 / np.where(diag != 0, diag, 1.0)[:, None]
    Z = inv * R
    P = Z.copy()
    rz = _column_dots(R, Z)
    steps = 0
    while steps < 20 * n:
        active = np.linalg.norm(R, axis=0) > tol
        if not active.any():
            break
        AP = A @ P
        step = np.divide(rz, _column_dots(P, AP), out=np.zeros(c), where=active)
        X += step * P
        R -= step * AP
        np.multiply(inv, R, out=Z)
        rz_next = _column_dots(R, Z)
        P *= np.divide(rz_next, rz, out=np.zeros(c), where=active)
        P += Z
        rz = rz_next
        steps += 1
    return X, steps


def offline_f_update(pool: GraphPool, mu: GraphWeights, Y, alpha: float,
                     x0=None) -> np.ndarray:
    """Exact score-matrix update: solve (I + alpha sum_m mu_m L_m) F = Y.

    The system matrix is identity plus a PSD term, hence always nonsingular,
    with its spectrum in [1, 1 + 2 alpha max degree].  ``Y`` is an (N,) or
    (N, c) float array, and every one of its columns is solved, together, by
    Jacobi-preconditioned conjugate gradients on the pool's edge table; the
    result has Y's shape.  ``x0``, of that shape too, is an optional starting
    guess, such as the scores of the previous weights.  Any other shape of Y
    or x0 raises ValueError.  Raises SingularSystemError, with the message of
    ``_training_failure``, when the result fails the RESIDUAL_TOL check.
    """
    Y = np.asarray(Y, dtype=np.float64)
    n = pool.n
    if Y.ndim not in (1, 2) or Y.shape[0] != n:
        raise ValueError(f"relevance has shape {Y.shape}, the pool needs ({n},) or ({n}, c)")
    if x0 is not None and np.shape(x0) != Y.shape:
        raise ValueError(f"x0 has shape {np.shape(x0)}, the relevance has shape {Y.shape}")
    B = Y.reshape(n, -1)
    A, diag = _database_system(pool, mu.mu, alpha, 1.0)
    X, _ = _block_cg(A, diag, B, None if x0 is None else np.reshape(x0, B.shape))
    rel = _relative_residuals(A, X, B)
    if not (rel <= RESIDUAL_TOL).all():
        raise _training_failure(rel, diag)
    return X.reshape(Y.shape)


def smoothness_terms(pool: GraphPool, F: np.ndarray) -> np.ndarray:
    """Per-graph roughness of the scores: e_m = Tr(F^T L_m F).

    Summed over the edge table as ``e_m = sum_(i<j) w_ij |F[i] - F[j]|^2``,
    with the score differences gathered a block of edges at a time.
    """
    F = np.asarray(F, dtype=np.float64)
    if F.ndim == 0 or F.shape[0] != pool.n:
        raise ValueError(f"scores have shape {F.shape}, the pool has {pool.n} nodes")
    F = F.reshape(pool.n, -1)
    table = pool.edge_table
    rough = np.empty(table.i.size)
    step = max(1, _GATHER_ELEMS // max(1, F.shape[1]))
    for lo in range(0, rough.size, step):
        part = slice(lo, lo + step)
        diff = F[table.i[part]] - F[table.j[part]]
        rough[part] = np.einsum("ij,ij->i", diff, diff)
    return table.weights.T @ rough


def minimize_weights(e: np.ndarray, alpha: float, beta: float) -> GraphWeights:
    """Minimizer of alpha * e @ mu + beta * ||mu||^2 over the simplex.

    Completing the square turns this into the Euclidean projection of
    ``-alpha / (2 beta) * e``, so the sort-based projection is exact.
    """
    if not beta > 0:
        raise ValueError("beta must be > 0")
    v = -(alpha / (2.0 * beta)) * np.asarray(e, dtype=np.float64)
    return GraphWeights(project_to_simplex(v))


def _objective(resid: np.ndarray, e: np.ndarray, mu: GraphWeights,
               alpha: float, beta: float) -> float:
    """The joint objective ``||resid||^2 + alpha e'mu + beta ||mu||^2``: squared
    relevance misfit, weighted roughness and the ``||mu||^2`` term."""
    return float(np.sum(resid * resid) + alpha * (e @ mu.mu) + beta * (mu.mu @ mu.mu))


def train_offline(pool: GraphPool, Y: RelevanceMatrix, params: HyperParams) -> RankModel:
    """Learn graph weights by alternating exact conditional minimization.

    Starts from uniform weights and runs at most ``params.max_iters`` rounds of
    (score solve, weight projection), recording the joint objective after each
    full pair.  Both half-steps are exact minimizers, so the trace is
    non-increasing.  When ``params.tol`` > 0, stops early once the objective
    decrease falls below it.

    ``Y`` is ``relevance_matrix(ds, level)``, which stands for ``Z[:, gid]``
    with ``Z`` the N x C class indicator; anything else raises TypeError.
    Columns in one class share one score column, so only the C columns ``G``
    of ``Z`` are solved for, and each class's terms are weighted by its size
    n_c: ``e_m = sum_c n_c g_c' L_m g_c`` and
    ``||F - Y||^2 = sum_c n_c ||g_c - z_c||^2``.  Each score solve starts
    from the previous ``G``, so once mu settles it takes no CG steps.
    """
    if not isinstance(Y, RelevanceMatrix):
        raise TypeError(f"train_offline takes a RelevanceMatrix, got {type(Y).__name__}")
    if Y.gid.shape != (pool.n,):
        raise ValueError("relevance matrix and pool have different sizes")
    Z = (Y.gid[:, None] == np.arange(Y.gid.max() + 1)).astype(np.float64)
    scale = np.sqrt(np.bincount(Y.gid))
    m = pool.m
    mu = GraphWeights(np.full(m, 1.0 / m))
    trace: list[float] = []
    G = None
    for _ in range(params.max_iters):
        G = offline_f_update(pool, mu, Z, params.alpha, x0=G)
        e = smoothness_terms(pool, G * scale)
        mu = minimize_weights(e, params.alpha, params.beta)
        trace.append(_objective((G - Z) * scale, e, mu, params.alpha, params.beta))
        if params.tol > 0 and len(trace) >= 2 and trace[-2] - trace[-1] < params.tol:
            break
    return RankModel(
        weights=mu, params=params, pool_fingerprint=pool.fingerprint, objective_trace=trace
    )


def _mirror_lower(a: np.ndarray, block: int = 256) -> np.ndarray:
    """Copy the lower triangle of square ``a`` onto the upper, in place; returns ``a``."""
    n = a.shape[0]
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        diag = a[lo:hi, lo:hi]
        upper = np.triu_indices(hi - lo, 1)
        diag[upper] = diag.T[upper]
        a[lo:hi, hi:] = a[hi:, lo:hi].T
    return a


def _frozen_factor(pool: GraphPool, mu: np.ndarray, alpha: float, ridge: float):
    """The frozen database block ``K = ridge I + alpha L_db``, sparse, and
    its inverse, an N x N Fortran-order array or None.

    ``L_db`` combines the pool's graphs with weights ``mu``; K is assembled by
    ``_database_system``, less the zeros graphs of weight 0 leave, densified,
    Cholesky-factored and inverted in place (LAPACK ``potrf``, ``potri``, then
    the lower triangle copied onto the upper), so no second N x N array is
    formed.  The pool holds the pair for the last (mu, alpha, ridge) asked
    for.  The inverse is None at ridge 0 (a Laplacian has the constant vector
    in its null space), past INVERSE_LIMIT (the N x N inverse is not
    held), or where Cholesky cannot factor K; each query then takes the
    conjugate-gradient solve of ``grank_solve``.
    """
    key = (mu.tobytes(), alpha, ridge)
    cached = getattr(pool, "_frozen_block", None)
    if cached is not None and cached[0] == key:
        return cached[1]
    pool._frozen_block = None  # drop the old inverse before building the new one
    K, _ = _database_system(pool, mu, alpha, ridge)
    K.eliminate_zeros()
    inv = None
    if ridge > 0 and pool.n + 1 <= INVERSE_LIMIT:
        # imported here: no process loads scipy.linalg before it inverts a block
        from scipy.linalg import lapack

        inv, info = lapack.dpotrf(K.toarray(order="F"), lower=1, clean=0, overwrite_a=1)
        if info == 0:
            inv, info = lapack.dpotri(inv, lower=1, overwrite_c=1)
        inv = _mirror_lower(inv) if info == 0 else None
    pool._frozen_block = (key, (K, inv))
    return K, inv


def check_pool(pool: GraphPool, ds: Dataset) -> None:
    """Raise ValueError unless the pool was built from this dataset."""
    if pool.dataset_fingerprint != dataset_fingerprint(ds):
        raise ValueError(f"pool was built from dataset {pool.dataset_fingerprint}, not from "
                         f"this one ({dataset_fingerprint(ds)}): fingerprint mismatch")


def check_model(model: RankModel, pool: GraphPool) -> None:
    """Raise ValueError unless the model was trained on this pool (``GraphPool.fingerprint``)."""
    if model.pool_fingerprint != pool.fingerprint:
        raise ValueError(f"model was trained against pool {model.pool_fingerprint}, not "
                         f"against this one ({pool.fingerprint}): fingerprint mismatch")


def _rank_extended(pool: GraphPool, mu: np.ndarray, ds: Dataset, x0, alpha: float,
                   ridge: float, query_id: str) -> RankedList:
    """Rank with the pool's graphs weighted by ``mu``; graphs of weight 0 are
    skipped, and the query is selected once per measure (``share_per_measure``)."""
    check_pool(pool, ds)
    if len(mu) != pool.m:
        raise ValueError(f"model has {len(mu)} graph weights but the pool has {pool.m} graphs")
    active = np.flatnonzero(mu)
    graphs = [pool.graphs[i] for i in active]
    shared = share_per_measure([g.spec for g in graphs],
                               lambda spec: query_neighbors(ds, x0, spec))
    edges = [extend_graph(g, ds, x0, nbrs) for g, (_, nbrs) in zip(graphs, shared)]
    star = combine_laplacians(edges, mu[active], pool.n)
    f = grank_solve(star, _frozen_factor(pool, mu, alpha, ridge), alpha, ridge)
    return make_ranked(query_id, f[1:], ds.ids)


def rank_online(model: RankModel, pool: GraphPool, ds: Dataset, x0, *,
                query_id: str = "query") -> RankedList:
    """Rank the database against a query under the trained multi-graph model.

    Combines the query's edges in every pooled graph of nonzero weight with
    the learned weights and solves the one-known-entry system, at the
    model's own alpha and ridge, against the frozen database block and its
    inverse held on the pool (``grank_solve``).
    """
    check_model(model, pool)
    params = model.params
    return _rank_extended(pool, model.weights.mu, ds, x0, params.alpha, params.ridge, query_id)


def grank_online(pool: GraphPool, graph_index: int, ds: Dataset, x0,
                 params: HyperParams, query_id: str = "query") -> RankedList:
    """Single-graph arm: online ranking regularized by one pooled graph only."""
    if not 0 <= graph_index < pool.m:
        raise ValueError(f"graph index {graph_index} out of range for pool of {pool.m}")
    mu = np.zeros(pool.m)
    mu[graph_index] = 1.0
    return _rank_extended(pool, mu, ds, x0, params.alpha, params.ridge, query_id)


def rank_pairwise_baseline(ds: Dataset, x0, query_id: str = "query") -> RankedList:
    """Baseline arm: cosine similarity between the query and each database vector."""
    X = ds.feature_matrix
    x0 = query_vector(ds, x0)
    qnorm = np.linalg.norm(x0)
    if qnorm == 0:
        raise ValueError("zero query vector")
    norms = np.linalg.norm(X, axis=1)
    scores = (X @ x0) / (np.where(norms > 0, norms, 1.0) * qnorm)
    scores[norms == 0] = 0.0
    return make_ranked(query_id, scores, ds.ids)


def save_model(model: RankModel, path) -> None:
    """Persist the offline artifact consumed by online ranking."""
    doc = {
        "version": 2,
        "mu": [float(v) for v in model.weights.mu],
        "alpha": model.params.alpha,
        "beta": model.params.beta,
        "T": model.params.max_iters,
        "ridge": model.params.ridge,
        "tol": model.params.tol,
        "pool_fingerprint": model.pool_fingerprint,
        "objective_trace": [float(v) for v in model.objective_trace],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path) -> RankModel:
    """Inverse of save_model."""
    where = "model file corrupt"
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if json_field(doc, "version", int, where) != 2:
        raise ValueError(f"unsupported model file version {doc['version']!r}: this release "
                         "reads version 2; train the model again with `multigrank train`")
    params = HyperParams(
        alpha=json_field(doc, "alpha", float, where),
        beta=json_field(doc, "beta", float, where),
        max_iters=json_field(doc, "T", int, where),
        ridge=json_field(doc, "ridge", float, where),
        tol=json_field(doc, "tol", float, where),
    )
    return RankModel(
        weights=GraphWeights(json_field(doc, "mu", tuple[float, ...], where)),
        params=params,
        pool_fingerprint=json_field(doc, "pool_fingerprint", str, where),
        objective_trace=[float(v) for v in json_field(doc, "objective_trace",
                                                      tuple[float, ...], where)],
    )
