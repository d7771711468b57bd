"""Numerical substrate: transition builders, cached operators and solvers."""

from repro.linalg.batch import BatchResult, power_iteration_batch
from repro.linalg.incremental import (
    baseline_residual,
    incremental_update,
    residual_vector,
)
from repro.linalg.operator import LinearOperatorBundle
from repro.linalg.push import forward_push
from repro.linalg.solvers import (
    DANGLING_STRATEGIES,
    PageRankResult,
    direct_solve,
    extrapolated_power_iteration,
    gauss_seidel,
    patch_dangling,
    power_iteration,
    validate_stochastic_rows,
)
from repro.linalg.transition import (
    blended_transition,
    connection_strength_transition,
    dangling_rows,
    degree_decoupled_transition,
    row_normalize,
    segment_softmax_weights,
    uniform_transition,
)

__all__ = [
    "PageRankResult",
    "BatchResult",
    "LinearOperatorBundle",
    "power_iteration",
    "power_iteration_batch",
    "extrapolated_power_iteration",
    "forward_push",
    "incremental_update",
    "residual_vector",
    "baseline_residual",
    "gauss_seidel",
    "direct_solve",
    "patch_dangling",
    "validate_stochastic_rows",
    "DANGLING_STRATEGIES",
    "row_normalize",
    "uniform_transition",
    "connection_strength_transition",
    "degree_decoupled_transition",
    "blended_transition",
    "dangling_rows",
    "segment_softmax_weights",
]
