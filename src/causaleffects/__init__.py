"""Total causal effects in linear systems from partial graph knowledge.

Given a maximally oriented partially directed acyclic graph (an MPDAG, which
includes DAGs and CPDAGs as special cases) and observational data from a
linear structural equation model with independent errors, this package
decides whether a joint total effect is identified, estimates it by
block-recursive least squares, and quantifies the estimate's asymptotic
covariance, which attains the efficiency bound among regular
graph-and-covariance estimators.  A simulation harness benchmarks the
estimator against covariate adjustment on random models.
"""

from .errors import (
    CausalEffectsError,
    DegenerateSampleError,
    GraphValidationError,
    IllConditionedError,
    InconsistentKnowledgeError,
    NotIdentifiedError,
)
from .graph import (
    BucketDecomposition,
    Mpdag,
    Pdag,
    ancestors_in_subgraph,
    bucket_decomposition,
    construct_mpdag,
    cpdag_from_dag,
    exists_proper_possibly_causal_undirected_start,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    meek_closure,
    possible_descendants,
    proper_undirected_start_path,
    rule_violations,
    saturated_mpdag,
    save_graph,
)
from .identify import IdentificationPlan, build_plan, is_identified
from .estimate import (
    COND_LIMIT,
    BlockRecursiveModel,
    EffectEstimate,
    SampleCovariance,
    adjustment_estimate,
    bootstrap_ci,
    covariance_map,
    delta_method_acov,
    effect_from_lambda,
    effect_gradients,
    efficiency_bound,
    estimate_total_effect,
    g_regression,
    gbar_regression,
    sample_covariance,
)
from .sem import (
    ERROR_FAMILIES,
    ErrorSpec,
    LinearSem,
    load_sem,
    random_dag,
    random_sem,
    rng_from_seed,
    sample,
    save_sem,
    sem_from_dict,
    sem_to_dict,
    true_effect_blockform,
    true_effect_pathsum,
)
from .simulate import CSV_COLUMNS, REPORT_HEADER, SimReport, run_simulation

__version__ = "0.1.0"

__all__ = [
    "CausalEffectsError",
    "DegenerateSampleError",
    "GraphValidationError",
    "IllConditionedError",
    "InconsistentKnowledgeError",
    "NotIdentifiedError",
    "Pdag",
    "Mpdag",
    "BucketDecomposition",
    "meek_closure",
    "rule_violations",
    "construct_mpdag",
    "cpdag_from_dag",
    "bucket_decomposition",
    "ancestors_in_subgraph",
    "possible_descendants",
    "exists_proper_possibly_causal_undirected_start",
    "proper_undirected_start_path",
    "saturated_mpdag",
    "graph_to_dict",
    "graph_from_dict",
    "load_graph",
    "save_graph",
    "IdentificationPlan",
    "is_identified",
    "build_plan",
    "COND_LIMIT",
    "SampleCovariance",
    "BlockRecursiveModel",
    "EffectEstimate",
    "sample_covariance",
    "g_regression",
    "gbar_regression",
    "covariance_map",
    "effect_from_lambda",
    "effect_gradients",
    "delta_method_acov",
    "efficiency_bound",
    "adjustment_estimate",
    "bootstrap_ci",
    "estimate_total_effect",
    "ERROR_FAMILIES",
    "ErrorSpec",
    "LinearSem",
    "rng_from_seed",
    "random_dag",
    "random_sem",
    "sample",
    "true_effect_pathsum",
    "true_effect_blockform",
    "sem_to_dict",
    "sem_from_dict",
    "save_sem",
    "load_sem",
    "REPORT_HEADER",
    "CSV_COLUMNS",
    "SimReport",
    "run_simulation",
]
