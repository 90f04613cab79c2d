"""Graph-regularized ranking with supervised multi-graph weight learning.

Public names resolve on first access (PEP 562): ``import multigrank`` loads
no submodule, and ``multigrank.rank_online`` loads ``ranker`` (and through it
scipy.sparse) only when first read.
"""

import importlib

_SUBMODULES = ("cli", "dataset", "evaluation", "graphs", "ranker", "specs")

# public name -> submodule that defines it
_ORIGIN = {
    name: module
    for module, names in {
        "dataset": (
            "Dataset", "DomainRecord", "RelevanceMatrix", "dataset_fingerprint",
            "generate_synthetic", "load_dataset", "relevance_matrix", "save_dataset",
            "split_queries",
        ),
        "evaluation": (
            "Curve", "EvalReport", "auc_from_scores", "evaluate_queries", "roc_curve",
        ),
        "specs": ("SCHEMES", "GraphSpec", "HyperParams"),
        "graphs": (
            "BaseGraph", "GraphPool", "build_graph", "build_pool", "default_spec_grid",
            "edge_weight", "extend_graph", "knn_neighbors", "load_pool", "save_pool",
        ),
        "ranker": (
            "GraphWeights", "RankedList", "RankModel", "SingularSystemError",
            "grank_online", "load_model", "minimize_weights", "offline_f_update",
            "project_to_simplex", "rank_online",
            "rank_pairwise_baseline", "save_model", "smoothness_terms", "train_offline",
        ),
    }.items()
    for name in names
}

__all__ = list(_ORIGIN)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
