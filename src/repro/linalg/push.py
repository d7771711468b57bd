"""Gauss–Southwell residual push: localized PageRank/D2PR solves.

Power iteration touches every stored nonzero of the transition on every
sweep, regardless of where the probability mass actually lives.  For a
*personalised* query — teleport concentrated on one seed (or a handful) —
most of the stationary mass sits within a few hops of the seeds, clustered
around high-degree nodes (exactly the localisation regime the PageRank
tail literature describes, cf. Volkovich et al.), so the full matrix
stream is mostly wasted work.

:func:`residual_push` is the one kernel behind every residual solver.  It
solves

.. math::

    \\vec e = \\alpha \\hat P^T \\vec e + \\vec r_0

(``\\hat P`` the dangling-augmented transition) for a given residual
``r₀`` by *residual propagation*: maintain a settled estimate ``e`` and a
residual ``res`` with the invariant ``e_true = e + solve(res)``.
Initially ``e = 0, res = r₀``; *pushing* a node ``u`` settles ``res[u]``
into ``e[u]`` and forwards ``α·res[u]`` along ``u``'s out-edges (row ``u``
of ``P`` — the push direction needs **no transpose at all**).  Each push
removes ``|res[u]|`` and re-injects at most ``α·|res[u]|``, so the L1
error of ``e`` is at most ``Σ|res|/(1−α)``; the kernel stops at
``Σ|res| ≤ tol``.  A residual that starts non-negative stays non-negative
(absolute values are taken only when ``r₀`` has a negative entry).

Pushes run **epoch-wise and vectorised** (a batched Gauss–Southwell): each
epoch selects every node whose residual exceeds an adaptive threshold (a
fraction of the mean active residual) and propagates them with one
restricted sparse·dense product over just those rows.  The mass argument
guarantees each epoch shrinks ``Σ|res|`` by at least ``(1−c)(1−α)``
relative (``c`` the threshold fraction), so epochs are bounded by the same
α-rate as power iteration while touching only the hot frontier instead of
all ``nnz``.

Two solvers call the kernel:

* :func:`forward_push` — personalised scores: ``r₀`` is the seed teleport
  ``t``, so ``(1−α)·e`` solves ``r = αP̂ᵀr + (1−α)t``.  Because ``P̂``
  preserves mass, the residual mass is then the exact L1 distance of the
  unnormalised estimate from the true solution — a certificate.
* :func:`~repro.linalg.incremental.incremental_update` — the correction
  after a graph delta: ``r₀`` is the delta-induced defect.

When the premise fails — one epoch would stream more than
``frontier_cap`` of the stored entries (uniform-ish teleports, very small
α, a delta with global reach), or ``dangling="uniform"`` sprays mass
everywhere — the kernel stops early and :func:`power_finish` completes
the solve with :func:`~repro.linalg.solvers.power_iteration` through the
same cached operator bundle, warm-started from the partial estimate, so
callers always get a correctly-converged result.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.errors import ConvergenceError, ParameterError
from repro.linalg.operator import LinearOperatorBundle
from repro.linalg.solvers import (
    PageRankResult,
    _validate_query,
    power_iteration,
)
from repro.telemetry.trace import record_result

__all__ = ["forward_push", "power_finish", "residual_push", "PushRun"]

#: Fraction of the mean active residual used as the per-epoch push
#: threshold.  Mass below the threshold is < c·Σres, so every epoch pushes
#: at least (1−c) of the residual mass and Σres contracts by a factor of at
#: most α + c·(1−α) — α-rate epochs with a sparse frontier.
_THETA_FRACTION = 0.25


def _seed_arrays(
    seeds: "int | np.ndarray | Mapping[int, float] | Sequence[int] | tuple",
    n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Normalise a seed spec into ``(indices, weights)`` with Σweights = 1.

    Accepts a single index, a sequence of indices (equal weights,
    duplicates accumulate), a ``{index: weight}`` mapping, an
    ``(indices, weights)`` pair of arrays, or a dense ``(n,)`` teleport
    vector (sparsified on its nonzero support).
    """
    def as_index_array(values) -> np.ndarray:
        arr = np.asarray(values)
        if arr.size and not np.issubdtype(arr.dtype, np.integer):
            raise ParameterError(
                "seed indices must have integer dtype, "
                f"got {arr.dtype}"
            )
        return arr.astype(np.int64).ravel()

    if isinstance(seeds, (int, np.integer)):
        idx = np.array([int(seeds)], dtype=np.int64)
        w = np.array([1.0])
    elif isinstance(seeds, Mapping):
        idx = as_index_array(list(seeds.keys()))
        w = np.fromiter(
            (float(v) for v in seeds.values()), dtype=np.float64,
            count=len(seeds),
        )
    elif (
        isinstance(seeds, tuple)
        and len(seeds) == 2
        and (np.ndim(seeds[0]) > 0 or np.ndim(seeds[1]) > 0)
    ):
        # An explicit (indices, weights) pair; a plain tuple of scalar
        # indices like (3, 5) falls through to the sequence branch.
        idx = as_index_array(seeds[0])
        w = np.asarray(seeds[1], dtype=np.float64).ravel()
        if idx.shape != w.shape:
            raise ParameterError(
                "seed (indices, weights) arrays must have equal length, "
                f"got {idx.shape} and {w.shape}"
            )
    else:
        arr = np.asarray(seeds)
        if arr.ndim == 1 and arr.shape == (n,):
            if np.issubdtype(arr.dtype, np.integer):
                # Could be n seed indices or an integer one-hot teleport —
                # guessing silently produces wrong scores, so refuse.
                raise ParameterError(
                    f"a length-{n} integer seed array is ambiguous on a "
                    f"{n}-node graph: pass a float teleport vector, an "
                    "(indices, weights) pair, or a {index: weight} mapping"
                )
            # A dense teleport vector: push on its support.
            idx = np.flatnonzero(arr)
            w = np.asarray(arr, dtype=np.float64)[idx]
        else:
            if arr.size and not np.issubdtype(arr.dtype, np.integer):
                # Catches wrong-length dense teleports (and float "index"
                # lists) instead of silently truncating them to indices.
                raise ParameterError(
                    "seed index arrays must have integer dtype; a dense "
                    f"teleport vector must have length {n}, got a "
                    f"{arr.dtype} array of shape {arr.shape}"
                )
            idx = arr.astype(np.int64).ravel()
            w = np.ones(idx.shape[0])
    if idx.size == 0:
        raise ParameterError("at least one seed node is required")
    if (idx < 0).any() or (idx >= n).any():
        bad = int(idx[(idx < 0) | (idx >= n)][0])
        raise ParameterError(f"seed index {bad} out of range for n={n}")
    if (w < 0).any():
        raise ParameterError("seed weights must be non-negative")
    # Accumulate duplicates, then drop zero-weight seeds.
    dense_w = np.bincount(idx, weights=w, minlength=n)
    idx = np.flatnonzero(dense_w)
    w = dense_w[idx]
    total = w.sum()
    if total <= 0.0:
        raise ParameterError("seed weights must have positive total mass")
    return idx, w / total


@dataclass
class PushRun:
    """State of a :func:`residual_push` when it returns.

    ``settled`` is the estimate ``e``, ``residual`` the mass left to push
    and ``history`` the residual mass after each epoch.  ``cause`` names
    why the kernel stopped before converging — ``"frontier_cap"`` or
    ``"uniform_dangling"`` — and is ``None`` otherwise.
    ``frontier_peak`` is the largest active frontier pushed, in rows.
    """

    settled: np.ndarray
    residual: np.ndarray
    epochs: int
    history: list[float]
    converged: bool
    cause: str | None = None
    frontier_peak: int = 0


def residual_push(
    bundle: LinearOperatorBundle,
    r0: np.ndarray,
    teleport: np.ndarray,
    *,
    alpha: float,
    tol: float,
    max_iter: int,
    dangling: str,
    frontier_cap: float,
    raise_on_failure: bool = False,
) -> PushRun:
    """Solve ``e = α·P̂ᵀe + r₀`` by vectorised Gauss–Southwell push.

    ``teleport`` is where dangling mass goes under
    ``dangling="teleport"``; ``"self"`` is settled in closed form (a
    self-looping dangling node keeps its residual in place).  The kernel
    stops with ``cause="frontier_cap"`` when one epoch would stream more
    than ``frontier_cap`` of the stored entries (the nnz of the active
    rows): such an epoch costs a power sweep's matrix stream and
    contracts no faster.  Under ``dangling="uniform"`` a graph with
    dangling rows stops at once with ``cause="uniform_dangling"``, since
    one dangling push would densify the residual.  ``raise_on_failure``
    raises :class:`ConvergenceError` when the epoch budget runs out.
    """
    if not 0.0 <= frontier_cap <= 1.0:
        raise ParameterError(
            f"frontier_cap must be in [0, 1], got {frontier_cap}"
        )
    res = np.array(r0, dtype=np.float64)
    settled = np.zeros_like(res)
    # Pushes keep a non-negative residual non-negative, so only a signed
    # start needs the absolute-value pass each epoch.
    signed = bool((res < 0).any())
    mag = np.abs(res) if signed else res
    mass = float(mag.sum())
    run = PushRun(settled, res, 0, [], converged=mass <= tol)
    if run.converged:
        return run
    if dangling == "uniform" and bundle.has_dangling:
        run.cause = "uniform_dangling"
        return run

    mat = bundle.mat
    indptr = mat.indptr
    dangle_mask = bundle.dangle_mask
    if dangling == "teleport":
        # Scatter dangling mass onto the teleport's support; a dense
        # teleport takes a plain (view) add instead of fancy indexing.
        t_idx = np.flatnonzero(teleport)
        if 2 * t_idx.size > teleport.size:
            t_idx = slice(None)
        t_w = teleport[t_idx]
    entry_limit = frontier_cap * mat.nnz
    while run.epochs < max_iter:
        # Adaptive Gauss–Southwell threshold: push everything holding at
        # least _THETA_FRACTION of the mean active residual.  The mean is
        # ≤ the max, so the active set is never empty while mass remains.
        support = np.count_nonzero(mag)
        if support == 0:
            run.converged = True
            break
        theta = _THETA_FRACTION * mass / support
        active = np.flatnonzero(mag >= theta)
        if int((indptr[active + 1] - indptr[active]).sum()) > entry_limit:
            run.cause = "frontier_cap"
            return run
        run.frontier_peak = max(run.frontier_peak, int(active.size))
        run.epochs += 1

        if dangling == "self":
            # Closed form: a self-looping dangling node's residual settles
            # geometrically into its own entry, Σ_k α^k · res = res/(1−α).
            self_d = active[dangle_mask[active]]
            if self_d.size:
                settled[self_d] += res[self_d] / (1.0 - alpha)
                res[self_d] = 0.0
                active = active[~dangle_mask[active]]

        if active.size:
            r_act = res[active]
            res[active] = 0.0
            settled[active] += r_act
            # One restricted sparse·dense product over just the active
            # rows: res += α · Σ_u res_u · P[u, :].
            res += alpha * (mat[active].T @ r_act)
            if dangling == "teleport":
                d_mass = float(r_act[dangle_mask[active]].sum())
                if d_mass != 0.0:
                    res[t_idx] += alpha * d_mass * t_w
        mag = np.abs(res) if signed else res
        mass = float(mag.sum())
        run.history.append(mass)
        if mass <= tol:
            run.converged = True
            break

    if not run.converged and raise_on_failure:
        raise ConvergenceError(
            f"residual push did not reach tol={tol} within {max_iter} "
            f"epochs (remaining residual mass={mass:.3e})",
            iterations=run.epochs,
            residual=mass,
        )
    return run


def power_finish(
    bundle: LinearOperatorBundle,
    teleport: np.ndarray,
    guess: np.ndarray,
    run: PushRun,
    *,
    method: str,
    alpha: float,
    tol: float,
    max_iter: int,
    dangling: str,
    raise_on_failure: bool,
) -> PageRankResult:
    """Finish a push that stopped early with warm-started power iteration.

    ``guess`` (clipped at zero) seeds the sweeps through the same bundle
    and ``tol`` bounds their last L1 step; the result counts the push
    epochs and their history ahead of the sweeps and records
    ``run.cause`` as the fallback cause.
    """
    guess = np.maximum(guess, 0.0)
    result = power_iteration(
        None,
        alpha=alpha,
        teleport=teleport,
        tol=tol,
        max_iter=max(max_iter - run.epochs, 1),
        dangling=dangling,
        raise_on_failure=raise_on_failure,
        operator=bundle,
        x0=guess if guess.sum() > 0.0 else None,
    )
    return record_result(
        PageRankResult(
            scores=result.scores,
            iterations=run.epochs + result.iterations,
            converged=result.converged,
            residuals=run.history + result.residuals,
            method=method,
        ),
        fallback=run.cause,
        push_epochs=run.epochs,
    )


def forward_push(
    transition: sparse.spmatrix | None,
    seeds,
    *,
    alpha: float = 0.85,
    tol: float = 1e-8,
    max_iter: int = 1000,
    dangling: str = "teleport",
    frontier_cap: float = 0.2,
    operator: LinearOperatorBundle | None = None,
    raise_on_failure: bool = False,
) -> PageRankResult:
    """Personalised PageRank/D2PR via vectorised Gauss–Southwell push.

    Parameters
    ----------
    transition:
        Row-stochastic matrix ``P`` (may be ``None`` when ``operator`` is
        given).
    seeds:
        Teleport support: a node index, a sequence of indices, a
        ``{index: weight}`` mapping, an ``(indices, weights)`` pair, or a
        dense ``(n,)`` teleport vector (sparsified).  The normalised seed
        distribution is both the teleport vector and — under the default
        ``dangling="teleport"`` — the dangling redistribution target.
    alpha:
        Residual probability.
    tol:
        L1 accuracy: on convergence the *unnormalised* estimate is within
        ``tol`` of the true solution in L1 (the remaining residual mass is
        the exact error — a certificate, not a heuristic); the returned
        scores are renormalised to sum to 1, adding at most ~``tol``
        relative distortion.
    max_iter:
        Epoch budget (one epoch = one batched push of the active frontier).
    dangling:
        ``"teleport"`` (default) and ``"self"`` stay sparse and are handled
        natively.  ``"uniform"`` sprays dangling mass over all nodes,
        which destroys frontier sparsity, so graphs with dangling rows
        fall back to power iteration under it.
    frontier_cap:
        Fraction of the matrix's stored entries one push epoch may
        stream (the nnz of the active frontier's rows) before the solver
        concludes the query is not localized and falls back to
        warm-started power iteration.  ``0`` falls back at the first
        epoch that streams any entry (useful for testing).
    operator:
        Pre-built :class:`~repro.linalg.operator.LinearOperatorBundle`;
        when omitted the memoised bundle of ``transition`` is used.
    raise_on_failure:
        Raise :class:`ConvergenceError` instead of returning an
        unconverged result.

    Returns
    -------
    PageRankResult
        ``method`` is ``"forward_push"`` (native convergence) or
        ``"forward_push_fallback"`` (finished by power iteration);
        ``iterations`` counts epochs (plus fallback sweeps),
        ``residuals`` the per-epoch remaining residual mass.
    """
    bundle = _validate_query(
        transition, alpha, operator, max_iter=max_iter, dangling=dangling
    )
    seed_idx, seed_w = _seed_arrays(seeds, bundle.n)
    teleport = np.zeros(bundle.n)
    teleport[seed_idx] = seed_w

    run = residual_push(
        bundle, teleport, teleport,
        alpha=alpha, tol=tol, max_iter=max_iter, dangling=dangling,
        frontier_cap=frontier_cap, raise_on_failure=raise_on_failure,
    )
    # (1−α)·e solves the PageRank system with teleport t.
    q = (1.0 - alpha) * run.settled
    if run.cause is not None:
        # A power iterate's L1 error is at most α/(1−α) times its last
        # step, so stopping the steps at (1−α)·tol keeps push's
        # certificate: error ≤ α·tol.
        return power_finish(
            bundle, teleport, q + run.residual, run,
            method="forward_push_fallback", alpha=alpha,
            tol=(1.0 - alpha) * tol, max_iter=max_iter, dangling=dangling,
            raise_on_failure=raise_on_failure,
        )
    total = q.sum()
    scores = q / total if total > 0.0 else teleport.copy()
    return record_result(
        PageRankResult(
            scores=scores,
            iterations=run.epochs,
            converged=run.converged,
            residuals=run.history,
            method="forward_push",
        ),
        frontier_peak=run.frontier_peak,
    )
