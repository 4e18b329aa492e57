"""Block-model clustering by sparse semi-relaxed Gromov-Wasserstein projection.

The package fits Bernoulli (and related) stochastic block models by
aligning a graph's adjacency structure with a small connectivity matrix
through a semi-relaxed transport plan.  A square-root penalty on cluster
masses selects the number of clusters along the way.
"""

from .baselines import (
    VemState,
    brute_force_srgw,
    exact_log_likelihood,
    restarted_fw_minimum,
    sup_log_likelihood,
    vem_fit,
)
from .graphio import (
    read_edge_list,
    read_labels,
    read_matrix_csv,
    write_edge_list,
    write_labels,
    write_matrix_csv,
)
from .harness import (
    ConsistencyRow,
    ExperimentConfig,
    ResultRow,
    auto_sparsity,
    run_ari_sweep,
    run_consistency,
    run_lambda_sweep,
)
from .initplans import (
    blend_plan,
    kmeans,
    labels_to_plan,
    spectral_init,
    uniform_plan,
)
from .losses import (
    LOSS_KINDS,
    CompositeLoss,
    CostKernel,
    TransportPlan,
    closed_form_connectivity,
    column_mass_penalty,
    cost_application,
    make_loss,
    srgw_objective,
)
from .metrics import (
    aligned_plan_error,
    ari,
    connectivity_error,
    hard_labels,
    label_accuracy,
    selected_k,
)
from .sbm import (
    AdjacencyMatrix,
    ConnectivityMatrix,
    Labels,
    Proportions,
    adjacency_from_edges,
    balanced_proportions,
    block_densities,
    build_scenario,
    make_proportions,
    sample_graph,
    unbalanced_proportions,
)
from .solver import (
    FitResult,
    bcd_fit,
    elbo_value,
    entropic_objective,
    fw_solve,
    mm_solve,
    penalty_linearization,
)

__version__ = "0.1.0"

__all__ = [
    "AdjacencyMatrix",
    "CompositeLoss",
    "ConnectivityMatrix",
    "ConsistencyRow",
    "CostKernel",
    "ExperimentConfig",
    "FitResult",
    "LOSS_KINDS",
    "Labels",
    "Proportions",
    "ResultRow",
    "TransportPlan",
    "VemState",
    "adjacency_from_edges",
    "aligned_plan_error",
    "ari",
    "auto_sparsity",
    "balanced_proportions",
    "bcd_fit",
    "blend_plan",
    "block_densities",
    "brute_force_srgw",
    "build_scenario",
    "closed_form_connectivity",
    "column_mass_penalty",
    "connectivity_error",
    "cost_application",
    "elbo_value",
    "entropic_objective",
    "exact_log_likelihood",
    "fw_solve",
    "hard_labels",
    "kmeans",
    "label_accuracy",
    "labels_to_plan",
    "make_loss",
    "make_proportions",
    "mm_solve",
    "penalty_linearization",
    "read_edge_list",
    "read_labels",
    "read_matrix_csv",
    "restarted_fw_minimum",
    "run_ari_sweep",
    "run_consistency",
    "run_lambda_sweep",
    "sample_graph",
    "selected_k",
    "spectral_init",
    "srgw_objective",
    "sup_log_likelihood",
    "uniform_plan",
    "unbalanced_proportions",
    "vem_fit",
    "write_edge_list",
    "write_labels",
    "write_matrix_csv",
]
