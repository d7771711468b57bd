"""The shared residual-push kernel behind forward_push and incremental_update.

Certificates are checked against the dense oracle (``direct_solve``) over
random small graphs, for every dangling strategy; the frontier cap is
pinned to its unit (stored entries, not rows); and every iterative
solver rejects an empty iteration budget.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.core.d2pr import d2pr_transition
from repro.errors import ParameterError
from repro.graph import Graph
from repro.linalg import (
    LinearOperatorBundle,
    baseline_residual,
    direct_solve,
    extrapolated_power_iteration,
    forward_push,
    gauss_seidel,
    incremental_update,
    power_iteration,
)

#: Round-off allowance for the LU oracle on graphs of a few dozen nodes.
ORACLE_SLACK = 1e-12


def _transition(weights: np.ndarray) -> sparse.csr_matrix:
    """Row-normalise a dense non-negative matrix; zero rows dangle."""
    sums = weights.sum(axis=1, keepdims=True)
    rows = np.divide(weights, sums, out=np.zeros_like(weights), where=sums > 0)
    return sparse.csr_matrix(rows)


@st.composite
def weighted_digraphs(draw):
    """A small random weighted digraph as a dense matrix (may dangle)."""
    n = draw(st.integers(min_value=2, max_value=24))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    density = draw(st.floats(min_value=0.05, max_value=0.6))
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 3.0, (n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(weights, 0.0)
    return weights, rng


DANGLING = ["teleport", "self", "uniform"]
ALPHAS = st.sampled_from([0.1, 0.5, 0.85, 0.95])
TOLS = st.sampled_from([1e-4, 1e-6, 1e-9])
CAPS = st.sampled_from([0.0, 0.05, 0.2, 1.0])


@pytest.mark.parametrize("dangling", DANGLING)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(graph=weighted_digraphs(), alpha=ALPHAS, tol=TOLS, cap=CAPS)
def test_forward_push_within_tol_plus_renormalisation(
    dangling, graph, alpha, tol, cap
):
    weights, rng = graph
    n = weights.shape[0]
    mat = _transition(weights)
    k = int(rng.integers(1, min(n, 3) + 1))
    idx = rng.choice(n, k, replace=False)
    teleport = np.zeros(n)
    teleport[idx] = rng.uniform(0.1, 1.0, k)
    result = forward_push(
        mat, (idx, teleport[idx]), alpha=alpha, tol=tol,
        dangling=dangling, frontier_cap=cap,
    )
    exact = direct_solve(mat, alpha=alpha, teleport=teleport, dangling=dangling)
    assert result.converged
    # The residual mass bounds the unnormalised estimate's L1 error by
    # tol, and renormalising moves it by at most as much again.
    assert np.abs(result.scores - exact.scores).sum() <= 2 * tol + ORACLE_SLACK


@pytest.mark.parametrize("dangling", DANGLING)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    graph=weighted_digraphs(), alpha=ALPHAS, tol=TOLS, cap=CAPS,
    personalised=st.booleans(), flips=st.integers(min_value=1, max_value=6),
)
def test_incremental_update_within_three_tol_alpha_over_one_minus_alpha(
    dangling, graph, alpha, tol, cap, personalised, flips
):
    weights, rng = graph
    n = weights.shape[0]
    old = LinearOperatorBundle.of(_transition(weights))
    teleport = rng.uniform(0.0, 1.0, n) if personalised else None
    previous = power_iteration(
        None, alpha=alpha, teleport=teleport, tol=tol, dangling=dangling,
        operator=old,
    ).scores
    baseline = baseline_residual(old, previous, teleport, alpha, dangling)

    # A random delta: insert, delete or reweight `flips` edges.
    changed = weights.copy()
    for _ in range(flips):
        i, j = rng.choice(n, 2, replace=False)
        changed[i, j] = 0.0 if changed[i, j] > 0 else rng.uniform(0.5, 3.0)
    new = _transition(changed)

    result = incremental_update(
        new, previous, alpha=alpha, teleport=teleport, dangling=dangling,
        tol=tol, frontier_cap=cap, baseline_residual=baseline,
    )
    exact = direct_solve(new, alpha=alpha, teleport=teleport, dangling=dangling)
    assert result.converged
    bound = 3 * tol * alpha / (1 - alpha)
    assert np.abs(result.scores - exact.scores).sum() <= bound + ORACLE_SLACK


def _clique_beside_path(clique: int = 30, path: int = 200) -> Graph:
    edges = [(i, j) for i in range(clique) for j in range(i + 1, clique)]
    edges += [(clique + i, clique + i + 1) for i in range(path - 1)]
    return Graph.from_edges(edges)


def test_frontier_cap_counts_stored_entries_not_rows():
    g = _clique_beside_path()
    mat = d2pr_transition(g, 0.0)
    n = mat.shape[0]
    core_rows = 30
    # The core is a small share of the rows but most of the entries: its
    # frontier never passes a 20% row cap, but passes a 20% entry cap on
    # epoch two.
    assert core_rows / n < 0.2 < (core_rows * 29) / mat.nnz
    result = forward_push(mat, 5, tol=1e-10, frontier_cap=0.2)
    assert result.method == "forward_push_fallback"
    teleport = np.zeros(n)
    teleport[5] = 1.0
    exact = direct_solve(mat, teleport=teleport)
    assert np.abs(result.scores - exact.scores).sum() < 1e-9
    # A seed at the far end of the path stays local and never falls back.
    tail = forward_push(mat, n - 1, tol=1e-6, frontier_cap=0.2)
    assert tail.method == "forward_push"


SOLVERS = {
    "power_iteration": power_iteration,
    "extrapolated_power_iteration": extrapolated_power_iteration,
    "gauss_seidel": gauss_seidel,
    "forward_push": lambda mat, **kw: forward_push(mat, 0, **kw),
    "incremental_update": lambda mat, **kw: incremental_update(
        mat, np.full(mat.shape[0], 1.0 / mat.shape[0]), **kw
    ),
}


@pytest.mark.parametrize("max_iter", [0, -3])
@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_max_iter_below_one_rejected(figure1_graph, solver, max_iter):
    mat = d2pr_transition(figure1_graph, 0.0)
    with pytest.raises(ParameterError, match="max_iter"):
        SOLVERS[solver](mat, max_iter=max_iter, raise_on_failure=True)
