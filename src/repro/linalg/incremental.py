"""Incremental rank maintenance: residual-correction updates after deltas.

A converged score vector ``x`` of the old system becomes, after a graph
delta replaces the transition ``P`` with ``P'``, an *approximate* solution
of the new system ``r = α·P̂'ᵀr + (1−α)t`` (``P̂'`` the dangling-augmented
transition).  Its defect

.. math::

    \\vec b = (1-\\alpha)\\vec t + \\alpha \\hat P'^T \\vec x - \\vec x
            = \\alpha (\\hat P' - \\hat P)^T \\vec x + O(tol)

is supported on the out-neighbourhood of the rows the delta touched — for
a small delta, a sparse vector — and the correction ``e = x' − x`` solves
``e = α·P̂'ᵀe + b``.  :func:`incremental_update` hands ``b`` to the
residual-push kernel :func:`~repro.linalg.push.residual_push` (signed
residuals, no transpose ever built) and finishes through
:func:`~repro.linalg.push.power_finish` when the correction de-localises.

Certificate: the kernel stops at ``Σ|res| ≤ tol``, which bounds the L1
error of ``x + e + res`` by ``tol·α/(1−α)``.  The dense background that
the previous solve's own truncation left in ``b`` is split off as frozen
"dust" (mass ≤ ~2·tol) instead of being chased around the whole graph, so
the certified L1 distance from the exact new fixed point is
``≤ 3·tol·α/(1−α)`` — the same O(tol) class as a cold power iteration at
the same tolerance.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.errors import ParameterError
from repro.linalg.operator import LinearOperatorBundle
from repro.linalg.push import power_finish, residual_push
from repro.linalg.solvers import PageRankResult, _validate_common
from repro.telemetry.trace import record_result

__all__ = ["baseline_residual", "incremental_update", "residual_vector"]


def residual_vector(
    bundle: LinearOperatorBundle,
    x: np.ndarray,
    teleport: np.ndarray,
    alpha: float,
    dangling: str,
) -> np.ndarray:
    """Defect of ``x`` in the system defined by ``bundle``.

    ``(1−α)t + α·(P̂ᵀx) − x`` with the standard dangling-mass handling;
    zero (up to the old solve's tolerance) iff ``x`` is the fixed point.
    Computed through the **free CSC transpose view** — evaluating the
    residual never triggers the CSR transpose conversion.
    """
    spread = bundle.t_csc @ x
    if bundle.has_dangling:
        mass = float(x[bundle.dangle_mask].sum())
        if mass > 0.0:
            target = bundle.dangling_target(dangling, teleport)
            if target is None:  # "self": mass stays in place
                spread = spread + np.where(bundle.dangle_mask, x, 0.0)
            else:
                spread = spread + mass * target
    return alpha * spread + (1.0 - alpha) * teleport - x


def baseline_residual(
    old_bundle: LinearOperatorBundle,
    previous: np.ndarray,
    teleport: np.ndarray | None,
    alpha: float,
    dangling: str,
) -> np.ndarray | None:
    """Residual of ``previous`` on the pre-delta system, or ``None``.

    Normalises ``previous`` and ``teleport`` (``None`` = uniform) and
    evaluates :func:`residual_vector` on ``old_bundle``: the
    ``baseline_residual`` that :func:`incremental_update` freezes as dust
    after the delta lands.  ``None`` when ``previous`` has no mass.
    """
    _, t = _validate_common(None, alpha, teleport, old_bundle)
    total = previous.sum()
    if total <= 0.0:
        return None
    return residual_vector(old_bundle, previous / total, t, alpha, dangling)


def incremental_update(
    transition: sparse.spmatrix | None,
    previous: np.ndarray,
    *,
    alpha: float = 0.85,
    teleport: np.ndarray | None = None,
    dangling: str = "teleport",
    tol: float = 1e-10,
    max_iter: int = 1000,
    frontier_cap: float = 0.2,
    operator: LinearOperatorBundle | None = None,
    baseline_residual: np.ndarray | None = None,
    raise_on_failure: bool = False,
) -> PageRankResult:
    """Update ``previous`` scores to the fixed point of a new transition.

    Parameters
    ----------
    transition:
        The **new** (post-delta) row-stochastic matrix ``P'`` (may be
        ``None`` when ``operator`` is given — e.g. a graph-cached bundle
        refreshed by :meth:`~repro.graph.base.BaseGraph.apply_delta`).
    previous:
        The converged scores of the pre-delta system, solved with the
        same ``(alpha, teleport, dangling)``.  Any non-negative vector
        with positive mass is accepted; the closer it is to the new
        fixed point, the less work the update does.
    alpha, teleport, dangling, tol, max_iter:
        The query parameters — identical semantics (and identical
        fixed point) to :func:`~repro.linalg.solvers.power_iteration`.
    frontier_cap:
        Fraction of the matrix's stored entries one push epoch may
        stream (the nnz of the active frontier's rows) before the
        solver concludes the delta's influence is global — an epoch
        that streams a sweep's worth of entries contracts no faster
        than a power sweep — and falls back to warm-started power
        iteration.  ``0`` falls back at the first epoch that streams
        any entry.
    operator:
        Pre-built bundle of the new transition.
    baseline_residual:
        The residual of ``previous`` on the **old** (pre-delta) system,
        as :func:`baseline_residual` computes it from the old bundle
        before the delta is applied.
        When given, this dense inherited background (total mass ≤ the
        old solve's tolerance) is frozen wholesale and subtracted from
        the working residual, leaving exactly the delta-induced part —
        sparse by construction, for *any* dangling configuration — so
        the push never mistakes the old solve's truncation dust for
        correction work.  Without it, only the per-entry ``tol/n`` floor
        separates background from signal, which is enough for strongly
        localized deltas but floods the frontier near convergence when
        the background mass is comparable to ``tol``.
    raise_on_failure:
        Raise :class:`ConvergenceError` instead of returning an
        unconverged result.

    Returns
    -------
    PageRankResult
        ``method`` is ``"incremental_push"`` (localized convergence,
        certified L1 distance ≤ ``3·tol·α/(1−α)``) or ``"incremental_fallback"``
        (finished by warm-started power iteration); ``iterations``
        counts push epochs (plus fallback sweeps) and ``residuals`` the
        remaining signed residual mass per epoch.
    """
    bundle, t = _validate_common(
        transition, alpha, teleport, operator,
        max_iter=max_iter, dangling=dangling,
    )
    n = bundle.n
    x = np.asarray(previous, dtype=np.float64)
    if x.shape != (n,):
        raise ParameterError(
            f"previous scores must have shape ({n},), got {x.shape}"
        )
    total = x.sum()
    if total <= 0.0 or (x < 0).any():
        raise ParameterError(
            "previous scores must be non-negative with positive mass"
        )
    x = x / total

    res = residual_vector(bundle, x, t, alpha, dangling)
    # The previous solve was itself only tol-accurate, so ``res`` carries
    # a *dense* inherited background (total mass ≲ tol, per-entry ≲
    # tol/n) on top of the (sparse) delta-induced defect.  Chasing that
    # background would mean re-polishing the whole graph — exactly the
    # work the incremental path exists to avoid — so it is split off as
    # frozen "dust": never pushed, never counted against the stopping
    # rule, added back into the final estimate unchanged.  The split is
    # exact when the caller supplies the old system's residual
    # (``baseline_residual``; the difference is the pure delta-induced
    # part) and magnitude-based otherwise (entries ≤ tol/n can never sum
    # past tol).  Dust mass is ≤ ~2·tol either way, so with the push
    # stopping at Σ|res| ≤ tol the final certified L1 distance from the
    # exact fixed point is ≤ 3·tol·α/(1−α).
    if baseline_residual is not None:
        base = np.asarray(baseline_residual, dtype=np.float64)
        if base.shape != (n,):
            raise ParameterError(
                f"baseline_residual must have shape ({n},), "
                f"got {base.shape}"
            )
        res = res - base
    else:
        base = None
    small = np.abs(res) <= tol / n
    dust = np.where(small, res, 0.0)
    res = res - dust
    if base is not None:
        dust = dust + base

    run = residual_push(
        bundle, res, t,
        alpha=alpha, tol=tol, max_iter=max_iter, dangling=dangling,
        frontier_cap=frontier_cap, raise_on_failure=raise_on_failure,
    )
    run.history.insert(0, float(np.abs(res).sum()))
    estimate = x + run.settled + (run.residual + dust)
    if run.cause is not None:
        return power_finish(
            bundle, t, estimate, run,
            method="incremental_fallback", alpha=alpha, tol=tol,
            max_iter=max_iter, dangling=dangling,
            raise_on_failure=raise_on_failure,
        )
    np.maximum(estimate, 0.0, out=estimate)
    total = estimate.sum()
    scores = estimate / total if total > 0.0 else x.copy()
    return record_result(
        PageRankResult(
            scores=scores,
            iterations=run.epochs,
            converged=run.converged,
            residuals=run.history,
            method="incremental_push",
        )
    )
