"""Ranking-score solvers.

Offline: alternate between the closed-form score solve
``F = (I + alpha * sum_m mu_m L_m)^-1 Y`` and the simplex-constrained
quadratic update of the graph weights mu, recording the joint objective.
Online: extend every pooled graph with the query as node 0, combine the
extended Laplacians with the learned mu, and solve
``(U + alpha L + ridge I) f = U y`` with U = diag(1, 0, ..., 0).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import cg as sparse_cg

from .dataset import Dataset, RelevanceMatrix, dataset_fingerprint
from .graphs import GraphPool, extend_graph

# direct factorization below this size, conjugate gradients above
DENSE_SOLVE_LIMIT = 4096
CG_RTOL = 1e-10
RESIDUAL_TOL = 1e-8

SINGULAR_MSG = (
    "ranking system is singular (typically a graph component disconnected from "
    "the query); set ridge > 0 to regularize"
)


class SingularSystemError(RuntimeError):
    """The online/offline linear system has no unique solution at ridge = 0."""


@dataclass(frozen=True)
class HyperParams:
    """Trade-off and solver knobs shared by offline training and online ranking."""

    alpha: float = 1.0
    beta: float = 1.0
    max_iters: int = 20
    ridge: float = 1e-8
    tol: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "beta", "ridge", "tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.alpha > 0:
            raise ValueError("alpha must be > 0")
        if not self.beta > 0:
            raise ValueError("beta must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.ridge < 0:
            raise ValueError("ridge must be >= 0")
        if self.tol < 0:
            raise ValueError("tol must be >= 0")


@dataclass(frozen=True, eq=False)
class GraphWeights:
    """Convex-combination coefficients over the pooled graphs."""

    mu: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.float64)
        object.__setattr__(self, "mu", mu)
        if mu.ndim != 1 or mu.size < 1:
            raise ValueError("mu must be a non-empty vector")
        if (mu < 0).any() or abs(mu.sum() - 1.0) > 1e-10:
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

    def top_ids(self, k: int) -> tuple[str, ...]:
        return tuple(self.item_ids[i] for i in self.order[:k])


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


def _solve_spd(A, rhs, dense_limit: int = DENSE_SOLVE_LIMIT) -> np.ndarray:
    """Solve A x = rhs for symmetric positive (semi)definite A.

    Direct Cholesky up to ``dense_limit`` rows, conjugate gradients beyond.
    Raises SingularSystemError when the system is not positive definite or the
    solution fails the relative-residual contract.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    n = A.shape[0]
    if n <= dense_limit:
        dense = A.toarray() if sp.issparse(A) else np.asarray(A, dtype=np.float64)
        try:
            factor = scipy.linalg.cho_factor(dense, lower=True, check_finite=False)
            x = scipy.linalg.cho_solve(factor, rhs, check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise SingularSystemError(SINGULAR_MSG) from exc
    else:
        A = sp.csr_matrix(A)
        cols = rhs.reshape(n, -1)
        out = np.empty_like(cols)
        for j in range(cols.shape[1]):
            out[:, j], info = sparse_cg(A, cols[:, j], rtol=CG_RTOL, atol=0.0, maxiter=20 * n)
            if info != 0:
                raise SingularSystemError(SINGULAR_MSG)
        x = out.reshape(rhs.shape)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError(SINGULAR_MSG)
    resid = A @ x - rhs
    norms = np.linalg.norm(np.atleast_2d(resid.T), axis=1)
    denoms = np.linalg.norm(np.atleast_2d(rhs.T), axis=1)
    rel = norms / np.where(denoms > 0, denoms, 1.0)
    if (rel > RESIDUAL_TOL).any():
        raise SingularSystemError(SINGULAR_MSG)
    return x


def grank_solve(L, u, y, alpha: float, ridge: float = 0.0,
                dense_limit: int = DENSE_SOLVE_LIMIT) -> np.ndarray:
    """Single-graph regularized scores: solve (diag(u) + alpha L + ridge I) f = diag(u) y.

    ``u`` is the diagonal of the 0/1 selection matrix marking entries of ``y``
    that are known.  With ridge = 0 this is the exact closed form; a positive
    ridge keeps the system nonsingular when the graph is disconnected.
    """
    u = np.asarray(u, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = L.shape[0]
    if u.shape != (n,) or y.shape != (n,):
        raise ValueError("grank_solve: dimension mismatch between L, u, y")
    if sp.issparse(L):
        A = (alpha * L + sp.diags(u + ridge)).tocsr()
    else:
        A = alpha * np.asarray(L, dtype=np.float64) + np.diag(u + ridge)
    return _solve_spd(A, u * y, dense_limit)


def combine_laplacians(graphs, mu: np.ndarray) -> sp.csr_matrix:
    """Convex combination of the graphs' Laplacians."""
    if len(mu) != len(graphs):
        raise ValueError(
            f"model has {len(mu)} graph weights but the pool has {len(graphs)} graphs"
        )
    L = mu[0] * graphs[0].laplacian()
    for weight, graph in zip(mu[1:], graphs[1:]):
        L = L + weight * graph.laplacian()
    return L.tocsr()


def _relevance_columns(Y):
    """Distinct relevance columns ``Z``, the column of ``Z`` behind each column
    of ``Y`` (``gid``), and how many columns of ``Y`` share each one.

    A RelevanceMatrix stands for ``Z[:, gid]`` with ``Z`` its N x C one-hot class
    indicator.  A plain array is its own ``Z``, each column its own group.
    """
    if isinstance(Y, RelevanceMatrix):
        gid = Y.gid
        Z = (gid[:, None] == np.arange(gid.max() + 1)).astype(np.float64)
    else:
        Z = np.asarray(Y, dtype=np.float64)
        gid = np.arange(Z.shape[-1])
    return Z, gid, np.bincount(gid)


def offline_f_update(pool: GraphPool, mu: GraphWeights, Y, alpha: float,
                     dense_limit: int = DENSE_SOLVE_LIMIT) -> np.ndarray:
    """Exact score-matrix update: solve (I + alpha sum_m mu_m L_m) F = Y.

    The system matrix is identity plus a PSD term, hence always nonsingular.
    Only the distinct columns of ``Y`` are solved for; the result has one
    column per column of ``Y``.
    """
    Z, gid, _ = _relevance_columns(Y)
    L = combine_laplacians(pool.graphs, mu.mu)
    A = (sp.identity(L.shape[0], format="csr") + alpha * L).tocsr()
    return _solve_spd(A, Z, dense_limit)[..., gid]


def smoothness_terms(pool: GraphPool, F: np.ndarray) -> np.ndarray:
    """Per-graph roughness of the scores: e_m = Tr(F^T L_m F)."""
    F = np.asarray(F, dtype=np.float64)
    return np.array([float(np.sum(F * (g.laplacian() @ F))) for g in pool.graphs])


def minimize_weights(e: np.ndarray, alpha: float, beta: float) -> GraphWeights:
    """Minimizer of alpha * e @ mu + beta * ||mu||^2 over the simplex.

    Completing the square turns this into the Euclidean projection of
    ``-alpha / (2 beta) * e``, so the sort-based projection is exact.
    """
    if not beta > 0:
        raise ValueError("beta must be > 0")
    v = -(alpha / (2.0 * beta)) * np.asarray(e, dtype=np.float64)
    return GraphWeights(project_to_simplex(v))


def mu_update(pool: GraphPool, F: np.ndarray, alpha: float, beta: float) -> GraphWeights:
    """Graph-weight update given fixed scores F."""
    return minimize_weights(smoothness_terms(pool, F), alpha, beta)


def offline_objective(pool: GraphPool, F: np.ndarray, Y, mu: GraphWeights,
                      alpha: float, beta: float) -> float:
    """Joint objective: squared relevance misfit + weighted roughness + ||mu||^2 term.

    ``F`` has one column per column of ``Y``, as offline_f_update returns it.
    """
    Z, gid, _ = _relevance_columns(Y)
    resid = F - Z[..., gid]
    return float(
        np.sum(resid * resid)
        + alpha * (smoothness_terms(pool, F) @ mu.mu)
        + beta * (mu.mu @ mu.mu)
    )


def train_offline(pool: GraphPool, Y, params: HyperParams) -> RankModel:
    """Learn graph weights by alternating exact conditional minimization.

    Starts from uniform weights and runs at most ``params.max_iters`` rounds of
    (score solve, weight projection), recording the joint objective after each
    full pair.  Both half-steps are exact minimizers, so the trace is
    non-increasing.  When ``params.tol`` > 0, stops early once the objective
    decrease falls below it.

    Columns of ``Y`` in one relevance group share one score column, so only
    the C distinct columns ``G`` are solved for, and each group's terms are
    weighted by its size n_c: ``e_m = sum_c n_c g_c' L_m g_c`` and
    ``||F - Y||^2 = sum_c n_c ||g_c - z_c||^2``.
    """
    Z, _, counts = _relevance_columns(Y)
    if Z.shape[0] != pool.n:
        raise ValueError("relevance matrix and pool have different sizes")
    scale = np.sqrt(counts)
    m = pool.m
    mu = GraphWeights(np.full(m, 1.0 / m))
    trace: list[float] = []
    for _ in range(params.max_iters):
        G = offline_f_update(pool, mu, Z, params.alpha)
        e = smoothness_terms(pool, G * scale)
        mu = minimize_weights(e, params.alpha, params.beta)
        resid = (G - Z) * scale
        obj = float(
            np.sum(resid * resid) + params.alpha * (e @ mu.mu) + params.beta * (mu.mu @ mu.mu)
        )
        trace.append(obj)
        if params.tol > 0 and len(trace) >= 2 and trace[-2] - trace[-1] < params.tol:
            break
    return RankModel(
        weights=mu, params=params, pool_fingerprint=pool.fingerprint, objective_trace=trace
    )


def _rank_extended(graphs, mu: np.ndarray, ds: Dataset, x0, alpha: float,
                   ridge: float, query_id: str) -> RankedList:
    extended = [extend_graph(g, ds, x0) for g in graphs]
    L = combine_laplacians(extended, mu)
    n1 = L.shape[0]
    u = np.zeros(n1)
    u[0] = 1.0
    f = grank_solve(L, u, u.copy(), alpha, ridge)
    return make_ranked(query_id, f[1:], ds.ids)


def rank_online(model: RankModel, pool: GraphPool, ds: Dataset, x0,
                params: HyperParams | None = None, query_id: str = "query") -> RankedList:
    """Rank the database against a query under the trained multi-graph model.

    Extends every pooled graph with the query as node 0, combines the extended
    Laplacians with the learned weights, and solves the one-known-entry system.
    """
    params = params if params is not None else model.params
    if model.pool_fingerprint != pool.fingerprint:
        raise ValueError("model was trained against a different pool (fingerprint mismatch)")
    if pool.fingerprint != dataset_fingerprint(ds):
        raise ValueError("pool was built from a different dataset (fingerprint mismatch)")
    return _rank_extended(pool.graphs, model.weights.mu, ds, x0, params.alpha,
                          params.ridge, query_id)


def grank_online(pool: GraphPool, graph_index: int, ds: Dataset, x0,
                 params: HyperParams, query_id: str = "query") -> RankedList:
    """Single-graph arm: online ranking regularized by one pooled graph only."""
    if not 0 <= graph_index < pool.m:
        raise ValueError(f"graph index {graph_index} out of range for pool of {pool.m}")
    if pool.fingerprint != dataset_fingerprint(ds):
        raise ValueError("pool was built from a different dataset (fingerprint mismatch)")
    return _rank_extended([pool.graphs[graph_index]], np.ones(1), ds, x0,
                          params.alpha, params.ridge, query_id)


def rank_pairwise_baseline(ds: Dataset, x0, query_id: str = "query") -> RankedList:
    """Baseline arm: cosine similarity between the query and each database vector."""
    X = ds.feature_matrix
    x0 = np.asarray(x0, dtype=np.float64).ravel()
    if x0.shape[0] != X.shape[1]:
        raise ValueError(
            f"query has dimension {x0.shape[0]}, dataset has dimension {X.shape[1]}"
        )
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
        "version": 1,
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
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("version") != 1:
        raise ValueError(f"unsupported model file version: {doc.get('version')!r}")
    params = HyperParams(
        alpha=float(doc["alpha"]),
        beta=float(doc["beta"]),
        max_iters=int(doc["T"]),
        ridge=float(doc["ridge"]),
        tol=float(doc.get("tol", 0.0)),
    )
    return RankModel(
        weights=GraphWeights(np.array(doc["mu"], dtype=np.float64)),
        params=params,
        pool_fingerprint=doc["pool_fingerprint"],
        objective_trace=[float(v) for v in doc["objective_trace"]],
    )
