"""Per-layer metrics of a traced run.

Three sources, all public: the spans :mod:`perfbench.spans` records
around each layer's functions, the serving stack's own telemetry
(``service.stats()``, ``front.stats()``) and the solver records and
``admission`` spans of the program's :class:`~repro.telemetry.trace.Tracer`.
Every name of :data:`perfbench.common.PER_LAYER` is always reported; a
layer the workload leaves idle reports zero calls and zero time.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from perfbench.common import PER_LAYER, median, tail
from perfbench.spans import self_times


def _ms(values):
    return [1000.0 * v for v in values]


def _per_request(spans, selfs):
    """Sum self times per request id; spans without one stand alone."""
    grouped: dict = defaultdict(float)
    for span in spans:
        key = ("req", span.request) if span.request is not None else ("span", span.id)
        grouped[key] += selfs[span.id]
    return list(grouped.values())


def _frac(numerator, denominator) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def span_metrics(spans) -> dict[str, float]:
    """Calls, self times and solver facts from the recorded spans."""
    selfs = self_times(spans)
    by: dict[str, list] = defaultdict(list)
    for span in spans:
        by[span.name].append(span)

    def self_ms(name):
        return _ms(selfs[s.id] for s in by[name])

    def attr(name, key):
        return [s.attrs[key] for s in by[name] if key in s.attrs]

    plan = _ms(_per_request(by["serving.plan"], selfs))
    read_wait = _ms(s.duration for s in by["serving.barrier.read"])
    push, inc, batch = by["linalg.push"], by["linalg.incremental"], by["linalg.batch"]
    out = {
        "serving.plan.calls": len(by["serving.plan"]),
        "serving.plan.self_ms": median(plan),
        "serving.plan.self_tail_ms": tail(plan)[0] if plan else 0.0,
        "serving.barrier.read_wait_ms": median(read_wait),
        "serving.barrier.read_wait_tail_ms": tail(read_wait)[0] if read_wait else 0.0,
        "linalg.push.calls": len(push),
        "linalg.push.self_ms": median(self_ms("linalg.push")),
        "linalg.push.self_tail_ms": tail(self_ms("linalg.push"))[0] if push else 0.0,
        "linalg.push.epochs": median(attr("linalg.push", "epochs")),
        "linalg.push.fallback_frac": _frac(sum(attr("linalg.push", "fallback")), len(push)),
        "linalg.incremental.calls": len(inc),
        "linalg.incremental.self_ms": median(self_ms("linalg.incremental")),
        "linalg.incremental.epochs": median(attr("linalg.incremental", "epochs")),
        "linalg.incremental.fallback_frac": _frac(
            sum(attr("linalg.incremental", "fallback")), len(inc)
        ),
        "linalg.batch.calls": len(batch),
        "linalg.batch.self_ms": median(self_ms("linalg.batch")),
        "linalg.batch.sweeps": median(attr("linalg.batch", "sweeps")),
        "linalg.batch.columns": float(sum(attr("linalg.batch", "columns"))),
        "core.engine.solve_many.self_ms": median(self_ms("core.engine.solve_many")),
        "methods.spectral.calls": len(by["methods.spectral"]),
        "methods.spectral.self_ms": median(self_ms("methods.spectral")),
        "methods.spectral.iterations": median(attr("methods.spectral", "iterations")),
        "linalg.operator.builds": len(by["linalg.operator.build"]),
        "linalg.operator.build_ms": median(self_ms("linalg.operator.build")),
        "graph.apply_delta.calls": len(by["graph.apply_delta"]),
        "graph.apply_delta.self_ms": median(self_ms("graph.apply_delta")),
        "graph.persist.log_append_ms": median(self_ms("graph.persist.log_append")),
        "graph.persist.load_ms": median(self_ms("graph.persist.load")),
        "graph.persist.replay_ms": median(self_ms("graph.persist.replay")),
        "shard.operator.builds": len(by["shard.operator.build"]),
        "shard.operator.build_ms": median(self_ms("shard.operator.build")),
        "diagnostics.degree_rank.self_ms": median(self_ms("diagnostics.degree_rank")),
        "metrics.spearman.self_ms": median(self_ms("metrics.spearman")),
    }
    return {k: float(v) for k, v in out.items()}


def _counters(stats: dict | None, front_stats: dict | None) -> dict[str, float]:
    """The monotone serving counters the per-layer metrics difference."""
    out: dict[str, float] = defaultdict(float)
    if stats:
        sharding = stats.get("sharding") or {}
        out.update({
            "hits": stats["cache"]["hits"],
            "lookups": stats["cache"]["lookups"],
            "corrections": stats["cache"]["corrections"],
            "evictions": stats["cache"]["evictions"],
            "flushes": stats["coalescer"]["flushes"],
            "columns": stats["coalescer"]["columns"],
            "local": sharding.get("shard_push_local", 0),
            "fallback": sharding.get("shard_push_fallback", 0),
        })
    if front_stats:
        out["rejected"] = sum(front_stats["admission"]["rejected"].values())
    return out


def service_metrics(after: tuple, before: tuple = (None, None)) -> dict[str, float]:
    """Cache, coalescer, shard-routing and admission counters.

    ``after`` and ``before`` are ``(service.stats(), front.stats())``
    pairs; the metrics cover the interval between them.
    """
    end, start = _counters(*after), _counters(*before)
    d = {key: end[key] - start[key] for key in end}
    return {
        "serving.cache.hit_frac": _frac(d.get("hits", 0), d.get("lookups", 0)),
        "serving.cache.corrections": float(d.get("corrections", 0)),
        "serving.cache.evictions": float(d.get("evictions", 0)),
        "serving.coalescer.flushes": float(d.get("flushes", 0)),
        "serving.coalescer.occupancy": _frac(d.get("columns", 0), d.get("flushes", 0)),
        "shard.local_push.certified_frac": _frac(
            d.get("local", 0), d.get("local", 0) + d.get("fallback", 0)
        ),
        "serving.front.rejected": float(d.get("rejected", 0)),
    }


def tracer_metrics(traces) -> dict[str, float]:
    """Queue wait (``admission`` spans) and push frontier (solver records)."""
    waits, frontier = [], []
    for trace in traces:
        for span in trace.root.walk():
            if span.name == "admission" and span.end is not None:
                waits.append(1000.0 * span.duration)
            for record in span.annotations.get("solver", ()):
                if "frontier_peak" in record:
                    frontier.append(record["frontier_peak"])
    return {
        "serving.front.queue_wait_ms": median(waits),
        "serving.front.queue_wait_tail_ms": tail(waits)[0] if waits else 0.0,
        "linalg.push.frontier_peak": median(frontier),
    }


def per_layer(spans, stats=(None, None), stats_before=(None, None), traces=(),
              extra=None) -> dict[str, float]:
    """Every per-layer metric, in :data:`PER_LAYER` order.

    ``stats``/``stats_before`` are ``(service.stats(), front.stats())``
    at the end and the start of the traced interval.
    """
    values = span_metrics(spans)
    values.update(service_metrics(stats, stats_before))
    values.update(tracer_metrics(traces))
    values.update(extra or {})
    out = {}
    for name in PER_LAYER:
        value = float(values.get(name, 0.0))
        out[name] = value if np.isfinite(value) else 0.0
    return out
