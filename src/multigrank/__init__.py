"""Graph-regularized ranking with supervised multi-graph weight learning."""

from .dataset import (
    Dataset,
    DomainRecord,
    RelevanceMatrix,
    dataset_fingerprint,
    generate_synthetic,
    load_dataset,
    relevance_matrix,
    save_dataset,
    split_queries,
)
from .evaluation import (
    CurvePoint,
    EvalReport,
    auc,
    auc_from_scores,
    confusion_at_k,
    evaluate_queries,
    roc_curve,
)
from .graphs import (
    SCHEMES,
    BaseGraph,
    GraphPool,
    GraphSpec,
    build_graph,
    build_pool,
    default_spec_grid,
    edge_weight,
    extend_graph,
    knn_neighbors,
    load_pool,
    save_pool,
)
from .ranker import (
    GraphWeights,
    HyperParams,
    RankedList,
    RankModel,
    SingularSystemError,
    grank_online,
    grank_solve,
    load_model,
    minimize_weights,
    offline_f_update,
    offline_objective,
    project_to_simplex,
    rank_online,
    rank_pairwise_baseline,
    save_model,
    smoothness_terms,
    train_offline,
)

__version__ = "0.1.0"
