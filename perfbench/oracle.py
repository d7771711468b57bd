"""Reference answers: plain power iteration on an independently built D2PR
transition, and the NetworkX anchor.

Only the graph's adjacency export (``graph.to_csr``) comes from the
program; the transition, the dangling treatment and the iteration are
written out here from the paper's Equation 1, so a bug in the
program's solvers or operator caches cannot cancel out of the check.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

#: Reference accuracy: the a-posteriori L1 error bound every reference
#: solve is driven below.
REF_TOL = 1e-12


def d2pr_transition(adjacency: sparse.csr_matrix, p: float):
    """Row-stochastic D2PR transition and the dangling-row mask.

    ``T(i→j) = θ_j^{−p} / Σ_{k∈N(i)} θ_k^{−p}`` with ``θ`` the
    (out-)degree of the unweighted adjacency.
    """
    adj = sparse.csr_matrix(adjacency, dtype=np.float64, copy=True)
    adj.data[:] = 1.0
    theta = np.asarray(adj.sum(axis=1)).ravel()
    # Only nodes with an in-edge are ever a destination; their θ >= 1
    # for undirected graphs.  Guard θ = 0 (directed sinks) anyway.
    dest = adj.indices
    weights = np.where(theta[dest] > 0, theta[dest], 1.0) ** (-float(p))
    adj.data = weights
    rowsum = np.asarray(adj.sum(axis=1)).ravel()
    dangling = rowsum == 0.0
    scale = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, rowsum))
    return sparse.diags(scale) @ adj, dangling


def power_iteration(transition, dangling, teleports, alphas,
                    tol: float = REF_TOL, max_iter: int = 5000):
    """Solve ``x = α·(Pᵀx + d(x)·t) + (1−α)·t`` column-wise to ``tol``.

    ``teleports`` is ``(n, K)`` with unit columns, ``alphas`` has K
    entries; dangling mass returns along each column's teleport.  The
    loop stops once the L1 error bound ``α/(1−α)·‖Δx‖₁`` of every
    column is below ``tol``.
    """
    pt = sparse.csr_matrix(transition.T)
    t = np.asarray(teleports, dtype=np.float64)
    a = np.asarray(alphas, dtype=np.float64)[None, :]
    x = t.copy()
    bound = a / (1.0 - a)
    for _ in range(max_iter):
        mass = x[dangling].sum(axis=0, keepdims=True)
        new = a * (pt @ x + mass * t) + (1.0 - a) * t
        err = bound * np.abs(new - x).sum(axis=0, keepdims=True)
        x = new
        if (err <= tol).all():
            break
    return x / x.sum(axis=0, keepdims=True)


def seed_teleport(n: int, seeds) -> np.ndarray:
    """Unit teleport vector of a seed list (each occurrence weighs 1)."""
    t = np.zeros(n)
    if seeds is None:
        t[:] = 1.0 / n
        return t
    np.add.at(t, np.asarray(list(seeds), dtype=np.int64), 1.0)
    return t / t.sum()


def l1_errors(answers, reference) -> np.ndarray:
    """L1 distance of each answer column to its reference column."""
    got = np.asarray(answers, dtype=np.float64)
    return np.abs(got - reference).sum(axis=0)


def networkx_pagerank(adjacency: sparse.csr_matrix, directed: bool,
                      alpha: float, tol: float) -> np.ndarray:
    """NetworkX PageRank at an L1 tolerance of ``tol``.

    NetworkX stops when the L1 change drops below ``n·tol`` and sends
    dangling mass uniformly, as the program does for a uniform teleport.
    """
    import networkx as nx

    n = adjacency.shape[0]
    adj = sparse.csr_matrix(adjacency, dtype=np.float64, copy=True)
    adj.data[:] = 1.0
    graph = nx.from_scipy_sparse_array(
        adj, create_using=nx.DiGraph if directed else nx.Graph
    )
    ranks = nx.pagerank(graph, alpha=alpha, tol=tol / n, max_iter=10_000,
                        weight=None)
    return np.array([ranks[i] for i in range(n)])
