"""Metric table, summary statistics, run stamp and result printing."""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
import time
from datetime import datetime, timezone

import numpy as np

from perfbench import THREAD_VARS

#: End-to-end metrics: name -> (unit, better).  Bounds live in
#: ``BENCHMARK.json``; a test keeps the two in step.
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "throughput_rps": ("1/s", "higher"),
    "columns_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_tail_ms": ("ms", "lower"),
    "slo_met_frac": ("frac", "higher"),
    "delta_p50_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "success_frac": ("frac", "higher"),
    "claim_met_frac": ("frac", "higher"),
}

#: Per-layer metrics: name -> (unit, better, end-to-end metric it should
#: move, workload where it should move it).
PER_LAYER: dict[str, tuple[str, str, str, str]] = {
    "serving.plan.calls": ("count", "lower", "latency_p50_ms", "update_stream"),
    "serving.plan.self_ms": ("ms", "lower", "latency_p50_ms", "update_stream"),
    "serving.plan.self_tail_ms": ("ms", "lower", "latency_p50_ms", "update_stream"),
    "serving.cache.hit_frac": ("frac", "higher", "latency_p50_ms", "update_stream"),
    "serving.cache.corrections": ("count", "higher", "latency_p50_ms", "update_stream"),
    "serving.cache.evictions": ("count", "lower", "latency_p50_ms", "update_stream"),
    "serving.barrier.read_wait_ms": ("ms", "lower", "latency_tail_ms", "update_stream"),
    "serving.barrier.read_wait_tail_ms": ("ms", "lower", "slo_met_frac", "update_stream"),
    "serving.front.queue_wait_ms": ("ms", "lower", "latency_tail_ms", "update_stream"),
    "serving.front.queue_wait_tail_ms": ("ms", "lower", "slo_met_frac", "update_stream"),
    "serving.front.rejected": ("count", "lower", "slo_met_frac", "update_stream"),
    "serving.coalescer.flushes": ("count", "lower", "latency_tail_ms", "update_stream"),
    "serving.coalescer.occupancy": ("columns", "higher", "latency_tail_ms", "update_stream"),
    "linalg.push.calls": ("count", "lower", "latency_p50_ms", "update_stream"),
    "linalg.push.self_ms": ("ms", "lower", "latency_p50_ms", "update_stream"),
    "linalg.push.self_tail_ms": ("ms", "lower", "latency_tail_ms", "update_stream"),
    "linalg.push.epochs": ("count", "lower", "latency_p50_ms", "update_stream"),
    "linalg.push.frontier_peak": ("nodes", "lower", "latency_p50_ms", "update_stream"),
    "linalg.push.fallback_frac": ("frac", "lower", "latency_p50_ms", "update_stream"),
    "linalg.incremental.calls": ("count", "lower", "latency_p50_ms", "update_stream"),
    "linalg.incremental.self_ms": ("ms", "lower", "latency_p50_ms", "update_stream"),
    "linalg.incremental.epochs": ("count", "lower", "latency_p50_ms", "update_stream"),
    "linalg.incremental.fallback_frac": ("frac", "lower", "latency_p50_ms", "update_stream"),
    "linalg.batch.calls": ("count", "lower", "columns_per_s", "paper_sweep"),
    "linalg.batch.self_ms": ("ms", "lower", "columns_per_s", "paper_sweep"),
    "linalg.batch.sweeps": ("count", "lower", "columns_per_s", "paper_sweep"),
    "linalg.batch.columns": ("count", "higher", "columns_per_s", "paper_sweep"),
    "core.engine.solve_many.self_ms": ("ms", "lower", "columns_per_s", "paper_sweep"),
    "methods.spectral.calls": ("count", "lower", "columns_per_s", "paper_sweep"),
    "methods.spectral.self_ms": ("ms", "lower", "columns_per_s", "paper_sweep"),
    "methods.spectral.iterations": ("count", "lower", "columns_per_s", "paper_sweep"),
    "linalg.operator.builds": ("count", "lower", "columns_per_s", "paper_sweep"),
    "linalg.operator.build_ms": ("ms", "lower", "setup_s", "update_stream"),
    "graph.apply_delta.calls": ("count", "lower", "delta_p50_ms", "update_stream"),
    "graph.apply_delta.self_ms": ("ms", "lower", "delta_p50_ms", "update_stream"),
    "graph.persist.log_append_ms": ("ms", "lower", "delta_p50_ms", "update_stream"),
    "graph.persist.load_ms": ("ms", "lower", "setup_s", "update_stream"),
    "graph.persist.replay_ms": ("ms", "lower", "setup_s", "update_stream"),
    "shard.operator.builds": ("count", "lower", "latency_tail_ms", "update_stream"),
    "shard.operator.build_ms": ("ms", "lower", "latency_tail_ms", "update_stream"),
    "shard.local_push.certified_frac": ("frac", "higher", "latency_tail_ms", "update_stream"),
    "diagnostics.degree_rank.self_ms": ("ms", "lower", "columns_per_s", "paper_sweep"),
    "metrics.spearman.self_ms": ("ms", "lower", "columns_per_s", "paper_sweep"),
    "anchor.networkx_s": ("s", "lower", "columns_per_s", "paper_sweep"),
    "anchor.repo_s": ("s", "lower", "columns_per_s", "paper_sweep"),
    "anchor.max_l1": ("l1", "lower", "claim_met_frac", "paper_sweep"),
    "experiments.group_match": ("count", "higher", "claim_met_frac", "paper_sweep"),
    "gen.lag_ms": ("ms", "lower", "latency_tail_ms", "update_stream"),
    "trace.overhead_frac": ("frac", "lower", "latency_p50_ms", "all"),
    "host.ref_ms": ("ms", "lower", "latency_p50_ms", "all"),
}

#: An answer whose L1 error exceeds this many times its claimed ``tol``
#: is broken, not loosely certified, and fails the run.
BROKEN_FACTOR = 100.0


def tail(samples) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n)``: the eleventh-largest sample, the
    percentile it stands at (``100·(n−10)/n``) and the sample count.
    With fewer than eleven samples there is no such percentile; the
    maximum is returned at percentile 100.
    """
    ordered = np.sort(np.asarray(samples, dtype=np.float64))
    n = int(ordered.size)
    if n == 0:
        return float("nan"), float("nan"), 0
    if n < 11:
        return float(ordered[-1]), 100.0, n
    return float(ordered[n - 11]), 100.0 * (n - 10) / n, n


def median(samples) -> float:
    values = np.asarray(samples, dtype=np.float64)
    return float(np.median(values)) if values.size else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Time of one reference loop (ms) on the nominal host.  Every time and
#: rate among the end-to-end metrics is reported at this host speed.
REF_NOMINAL_MS = 2.0


class HostRef:
    """Host speed from a fixed SciPy CSR mat-vec loop (no repository code).

    The reference host's speed drifts by tens of percent within seconds
    and by up to ~60% over minutes, and the workloads slow with it.  The
    workloads take samples between units of work, never beside them,
    so the samples give the speed the work ran at, and a change to the
    program cannot move them.  The loop is small (a 5k-node matrix with
    50k nonzeros) so it leaves the program's caches nearly as it found
    them.
    """

    def __init__(self, n: int = 5_000, m: int = 50_000, loops: int = 20):
        from scipy import sparse

        rng = np.random.default_rng(0)
        self._mat = sparse.csr_matrix(
            (np.ones(m), (rng.integers(0, n, m), rng.integers(0, n, m))),
            shape=(n, n),
        )
        self._x = np.ones(n)
        self._loops = loops

    def sample(self, count: int = 1) -> list[float]:
        """Time ``count`` loops; return their times (ms)."""
        self._mat @ self._x  # untimed: bring the matrix back into cache
        times = []
        for _ in range(count):
            start = time.perf_counter()
            for _ in range(self._loops):
                self._mat @ self._x
            times.append(1000.0 * (time.perf_counter() - start))
        return times


def host_scale(samples) -> float:
    """Nominal over measured reference-loop time (median of ``samples``).

    A time measured on the host multiplied by this, or a rate divided by
    it, is the figure at the nominal host speed.
    """
    return REF_NOMINAL_MS / median(samples)


def _git_sha(root: str) -> str:
    # Stop git at the checkout: a checkout that is not a repository
    # reports "unknown" rather than the SHA of an enclosing one.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_stamp(root: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Provenance of one run: code, host, library versions, inputs."""
    import scipy

    return {
        "git_sha": _git_sha(root),
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _finite(value) -> float:
    """JSON has no NaN or infinity; an undefined figure prints as 0."""
    value = float(value)
    return value if np.isfinite(value) else 0.0


def emit(stamp: dict, attempted: int, failed: int, correct: bool,
         metrics: dict[str, float], notes: dict, out=None) -> None:
    """Print the stamp, every metric with its unit, then the result line."""
    out = out or sys.stdout
    table = dict(END_TO_END)
    table.update({name: spec[:2] for name, spec in PER_LAYER.items()})
    print("# stamp " + json.dumps(stamp, sort_keys=True), file=out)
    for key, value in notes.items():
        print(f"# {key}: {value}", file=out)
    for name, value in metrics.items():
        unit = table[name][0]
        line = f"{name:36s} {value:14.6g} {unit}"
        if name in PER_LAYER:
            _, _, moves, workload = PER_LAYER[name]
            line += f"    (moves {moves} on {workload})"
        print(line, file=out)
    result = {
        "correct": bool(correct),
        "attempted": int(max(attempted, 1)),
        "failed": int(failed),
        "metrics": {
            name: {"value": _finite(value), "unit": table[name][0]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result), file=out, flush=True)
