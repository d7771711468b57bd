"""The two workloads.

Each ``run_*`` builds its seeded inputs, sets up (several times; the
median is ``setup_s``), drives the program through its public API for
the timed window, then checks a sample of answers against reference
solves outside the window.  Between units of work, never beside them,
each samples the host's speed with :class:`~perfbench.common.HostRef`;
every time and rate metric is reported at the nominal host speed (see
:func:`_host_adjust`).  With ``trace=True`` the timed window is split:
update_stream runs its first half untraced and its second half with
layer spans and the program's own tracer on; paper_sweep alternates
untraced and traced passes.  The per-layer metrics come from the traced
part only; comparing the parts gives ``trace.overhead_frac``.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from perfbench import inputs, oracle
from perfbench.common import HostRef, host_scale, median, peak_rss_mb, tail
from perfbench.layers import per_layer
from perfbench.spans import Patches, SpanRecorder, install_layers

#: Per-request latency limits behind ``slo_met_frac``.
SLO_MS = {"update_stream": 1500.0, "paper_sweep": 6000.0}
#: Edge operations per delta (~0.1% of the serving graph).
DELTA_OPS = 1000
#: End-to-end times and rates that :func:`_host_adjust` scales.
HOST_TIMES = ("latency_p50_ms", "latency_tail_ms", "delta_p50_ms")
HOST_RATES = ("throughput_rps", "columns_per_s")


@dataclass
class Outcome:
    end_to_end: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    claim_errors: list = field(default_factory=list)  # (L1 error, claimed tol)
    notes: dict = field(default_factory=dict)
    recorder: SpanRecorder = field(default_factory=SpanRecorder)


class Tracing:
    """Layer spans that can be switched on and off within one run."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.recorder = SpanRecorder()
        self._patches = Patches()
        self._on = False

    def on(self) -> None:
        if self.enabled and not self._on:
            install_layers(self.recorder, self._patches)
            self._on = True

    def off(self) -> None:
        if self._on:
            self._patches.restore()
            self._on = False


def _latency_metrics(latencies_s, attempted, successes, slo_ms) -> dict:
    lat_ms = np.asarray(latencies_s, dtype=np.float64) * 1000.0
    value, pct, n = tail(lat_ms)
    met = int(np.sum(lat_ms <= slo_ms))
    return {
        "latency_p50_ms": median(lat_ms),
        "latency_tail_ms": value,
        "slo_met_frac": met / max(attempted, 1),
        "success_frac": successes / max(attempted, 1),
    }, f"p{pct:.2f} of {n} samples, {min(10, max(n - 1, 0))} beyond it"


def _host_adjust(out: Outcome, samples) -> None:
    """Scale the window's times and rates to the nominal host speed.

    ``samples`` are the reference-loop times taken in the window.  The
    figures as timed stay in the notes.
    """
    scale = host_scale(samples)
    out.notes["as timed, before host adjustment"] = {
        name: round(out.end_to_end[name], 4) for name in HOST_TIMES + HOST_RATES
    }
    out.notes["host scale"] = (
        f"{scale:.4f} from {len(samples)} reference loops, median "
        f"{median(samples):.4f} ms"
    )
    for name in HOST_TIMES:
        out.end_to_end[name] *= scale
    for name in HOST_RATES:
        out.end_to_end[name] /= scale


def _host_setup(setup, ref: HostRef):
    """Run ``setup()`` between two host samples.

    ``setup()`` returns ``(result, seconds)``; the result here is
    ``(result, seconds at the nominal host speed)``.
    """
    before = ref.sample(5)
    result, seconds = setup()
    return result, seconds * host_scale(before + ref.sample(5))


def _more_setups(setup, ref: HostRef, first: float, count: int) -> list[float]:
    """Run the remaining ``count − 1`` set-ups; return all set-up times.

    Only the first set-up precedes the timed window; the others run
    after the window and after ``peak_rss_mb`` is read, so the peak
    covers one set-up and the workload.
    """
    times = [first]
    for _ in range(count - 1):
        gc.collect()
        times.append(_host_setup(setup, ref)[1])
    return times


def _overhead(untraced, traced) -> float:
    if not untraced or not traced:
        return 0.0
    return median(traced) / median(untraced) - 1.0


def _serving_claims(answers, adjacency) -> list[tuple[float, float]]:
    """Reference-solve ``[(request, values)]`` answers on one graph version."""
    if not answers:
        return []
    n = adjacency.shape[0]
    by_p: dict[float, list] = {}
    for request, values in answers:
        by_p.setdefault(float(request.p), []).append((request, values))
    out = []
    for p, group in by_p.items():
        transition, dangling = oracle.d2pr_transition(adjacency, p)
        teleports = np.column_stack(
            [oracle.seed_teleport(n, r.seeds) for r, _ in group]
        )
        ref = oracle.power_iteration(
            transition, dangling, teleports, [r.alpha for r, _ in group]
        )
        errors = oracle.l1_errors(np.column_stack([v for _, v in group]), ref)
        out.extend((float(e), float(r.tol)) for e, (r, _) in zip(errors, group))
    return out


# ----------------------------------------------------------------------
# update_stream: open-loop reads beside writes through a ServingFront
# ----------------------------------------------------------------------
#: Arrival rate (requests + deltas per second).  At 8/s the two workers
#: were busy often enough that about half the deltas waited at the
#: readers/writer barrier for an in-flight solve, and the median delta
#: jumped between ~30 ms and ~50–90 ms from run to run; at 5/s the
#: median delta waits for nothing.
STREAM_RATE = 5.0
#: Front worker threads (at most the host's two cores).
FRONT_WORKERS = 2
#: Set-ups (warm restarts) per update_stream run.
STREAM_SETUPS = 9
#: Wide answers re-solved per update_stream run.
WIDE_CHECKS = 2
#: The generator samples the host in an idle gap of at least this long
#: (seconds): no read in flight, and the next event this far off.
REF_GAP_S = 0.025


def run_update_stream(seed: int, seconds: float, trace: bool, workdir: str) -> Outcome:
    import os
    import shutil

    from repro.errors import AdmissionError
    from repro.graph.persist import DeltaLog
    from repro.serving import RankingService, ServingFront
    from repro.telemetry import Tracer

    out = Outcome()
    tracing = Tracing(trace)
    out.recorder = tracing.recorder
    ref = HostRef()
    start_all = perf_counter()
    graph = inputs.serving_graph(seed)
    n = graph.number_of_nodes
    rows, cols, _ = graph.edge_arrays()
    hot = inputs.hot_set(seed, n)
    events, n_deltas = inputs.open_loop_stream(seed, STREAM_RATE, seconds, hot, n)
    deltas = inputs.delta_stream((rows, cols), n, n_deltas, seed, DELTA_OPS)
    del rows, cols
    checkpoint = os.path.join(workdir, f"checkpoint-{seed}")
    shutil.rmtree(checkpoint, ignore_errors=True)
    with RankingService(graph, sharding=True) as first:
        for request in hot:
            first.rank(request)
        first.checkpoint(checkpoint)
    del first, graph
    out.notes["input build + checkpoint s"] = round(perf_counter() - start_all, 3)

    # Set-up is the restart path: snapshot load, log replay, operator
    # prebuild and cache reseed, plus one warm-up read.
    def setup():
        start = perf_counter()
        tracer = Tracer(sample_every=0, capacity=1 << 16)
        service = RankingService.warm_start(checkpoint, sharding=True, tracer=tracer)
        service.rank(hot[0])
        return (service, tracer), perf_counter() - start

    tracing.on()
    (service, tracer), first_setup = _host_setup(setup, ref)
    tracing.off()
    graph = service.graph
    out.notes["peak_rss_mb after set-up"] = round(peak_rss_mb(), 1)

    # For every read: when a worker picked it up (its ``submit`` call),
    # when it finished, and the graph version it was served on if no
    # delta landed in between; for sampled reads also the answer.  Reads
    # admitted as "batch" (the wide ones) go to ``submit`` and the
    # coalescer, not ``rank``; the generator stamps them as they finish.
    rng = np.random.default_rng([seed, 9])
    personal = [i for i, e in enumerate(events)
                if e.kind in ("hot", "fresh") and e.payload.seeds is not None]
    sampled = {id(events[i].payload)
               for i in rng.choice(personal, min(32, len(personal)), replace=False)}
    sampled.update(id(e.payload) for e in events
                   if e.kind == "wide" or (e.kind == "hot" and e.payload.seeds is None))
    event_of = {id(e.payload): i for i, e in enumerate(events) if e.kind != "delta"}
    picked_at, submitted_on, done_at, version_of, kept = {}, {}, {}, {}, {}
    original_rank, original_submit = service.rank, service.submit

    def submit(request=None, **kwargs):
        key = id(request)
        picked_at.setdefault(key, perf_counter())
        submitted_on.setdefault(key, graph.mutation_count)
        return original_submit(request, **kwargs)

    def rank(request=None, **kwargs):
        key = id(request)
        tracing.recorder.set_request(event_of.get(key))
        before = graph.mutation_count
        result = original_rank(request, **kwargs)
        done_at[key] = perf_counter()
        if graph.mutation_count == before:
            version_of[key] = before
            if key in sampled:
                kept[key] = np.array(result.scores.values)
        return result

    def stamp_done(watch) -> list:
        """Stamp watched batch-served tickets seen done; return the rest.

        Deltas are applied on this thread, so a version unchanged since
        ``submit`` is the version the coalescer solved on.
        """
        now = perf_counter()
        running = []
        for key, ticket in watch:
            if not ticket.done:
                running.append((key, ticket))
                continue
            done_at[key] = now
            if graph.mutation_count == submitted_on.get(key):
                try:
                    values = ticket.result().scores.values
                except Exception:  # noqa: BLE001 - counted when collected
                    continue
                version_of[key] = submitted_on[key]
                if key in sampled:
                    kept[key] = np.array(values)
        return running

    service.rank, service.submit = rank, submit
    front = ServingFront(service, workers=FRONT_WORKERS, capacity=64)
    gc.collect()
    gc.freeze()  # the collections after each delta scan only new objects
    versions = [graph.mutation_count]  # after each applied delta
    applied = []  # the deltas that applied, in order
    tickets = []  # (event, due, ticket)
    watch = []  # (key, ticket) of batch-served reads not yet seen done
    in_flight = []  # tickets maybe not done yet
    ref_ms = []  # host samples taken in idle gaps
    delta_lat, lags, gc_ms = [], [], []
    rejected = failed_deltas = 0
    traced_from = None
    stats_before = (None, None)
    begin = perf_counter()
    for event in events:
        due = begin + event.due
        if trace and traced_from is None and event.due >= seconds / 2.0:
            traced_from = event.due
            stats_before = (service.stats(), front.stats())
            tracer.sample_every = 1
            tracing.on()
        # Sleep until due, stamping batch-served tickets as they finish;
        # once per gap, when no read is in flight, sample the host.
        gap_sampled = False
        while True:
            now = perf_counter()
            watch = stamp_done(watch)
            if now >= due:
                break
            if not gap_sampled:
                in_flight = [t for t in in_flight if not t.done]
                if not in_flight and due - now > REF_GAP_S:
                    ref_ms.extend(ref.sample())
                    gap_sampled = True
                    continue
            if watch:
                time.sleep(min(due - now, 0.002))
            elif in_flight and not gap_sampled:
                time.sleep(min(due - now, 0.01))
            else:
                time.sleep(due - now)
        lags.append(perf_counter() - due)
        if event.kind == "delta":
            tracing.recorder.set_request(None)
            try:
                service.apply_delta(deltas[event.payload])
            except Exception:  # noqa: BLE001 - a failed delta is counted
                failed_deltas += 1
            else:
                applied.append(deltas[event.payload])
                versions.append(graph.mutation_count)
            delta_lat.append(perf_counter() - due)
            # A delta replaces the operator bundles, and the old ones sit
            # in reference cycles (matrix <-> bundle).  Collect them now,
            # so the peak RSS does not depend on when the cyclic
            # collector happens to run.
            start = perf_counter()
            gc.collect()
            gc_ms.append(1000.0 * (perf_counter() - start))
            continue
        tracing.recorder.set_request(event_of[id(event.payload)])
        try:
            ticket = front.submit(event.payload)
        except AdmissionError:
            rejected += 1
            continue
        tickets.append((event, due, ticket))
        in_flight.append(ticket)
        if event.kind == "wide":
            watch.append((id(event.payload), ticket))
    drain_by = perf_counter() + 120.0
    while watch and perf_counter() < drain_by:
        watch = stamp_done(watch)
        time.sleep(0.002)
    latencies, split, failed_reads = [], {"untraced": [], "traced": []}, 0
    busy = {"read": [], "column": []}  # service seconds, pickup to answer
    by_kind: dict[str, list] = {}
    by_strategy: dict[str, list] = {}  # by the strategy planned at admission
    for event, due, ticket in tickets:
        try:
            ticket.result(timeout=120.0)
        except Exception:  # noqa: BLE001 - a failed request is counted
            failed_reads += 1
            continue
        key = id(event.payload)
        finished = done_at.get(key) or perf_counter()
        latencies.append(finished - due)
        if key in picked_at:
            busy["read"].append(finished - picked_at[key])
            if event.kind in ("fresh", "wide"):
                busy["column"].append(finished - picked_at[key])
        by_kind.setdefault(event.kind, []).append(finished - due)
        by_strategy.setdefault(ticket.strategy, []).append(finished - due)
        if event.kind == "fresh":
            # Fresh reads all take a shard-local push, so the two halves'
            # fresh reads compare like with like (hits and corrections
            # shift between the halves as the cache ages).
            half = "traced" if traced_from is not None and event.due >= traced_from else "untraced"
            split[half].append(finished - due)
    window = perf_counter() - begin
    tracing.off()
    gc.unfreeze()
    front_stats = front.stats()
    front.close()

    reads = len(tickets) + rejected
    attempted = reads + len(delta_lat)
    failed = rejected + failed_reads + failed_deltas
    out.attempted, out.failed = attempted, failed
    # Rejected and failed reads count as SLO misses: they have no latency.
    e2e, tail_note = _latency_metrics(latencies, reads, reads - rejected - failed_reads,
                                      SLO_MS["update_stream"])
    e2e["success_frac"] = (attempted - failed) / max(attempted, 1)
    out.end_to_end.update(e2e)
    # The arrival rate is fixed, so reads per second of the window would
    # only restate it.  Both rates are per second of service instead:
    # reads (and solved columns: fresh and wide reads, never cache hits)
    # divided by their summed pickup-to-answer time.
    out.end_to_end.update({
        "throughput_rps": len(busy["read"]) / max(sum(busy["read"]), 1e-9),
        "columns_per_s": len(busy["column"]) / max(sum(busy["column"]), 1e-9),
        "delta_p50_ms": 1000.0 * median(delta_lat),
        "peak_rss_mb": peak_rss_mb(),
    })
    out.notes["latency_tail_ms"] = tail_note
    for name, groups in (("kind", by_kind), ("admitted strategy", by_strategy)):
        out.notes[f"latency p50 ms (count) by {name}"] = {
            key: (round(1000.0 * median(values), 3), len(values))
            for key, values in sorted(groups.items())
        }
    out.notes["stream"] = (
        f"{len(events)} events at {STREAM_RATE:g}/s: {len(tickets)} reads admitted, "
        f"{rejected} rejected, {len(delta_lat)} deltas"
    )
    out.notes["gc after delta ms p50/max"] = (
        round(median(gc_ms), 3), round(max(gc_ms, default=0.0), 3)
    )
    out.notes["gen lag ms p50/max"] = (
        round(1000 * median(lags), 3), round(1000 * max(lags, default=0.0), 3)
    )
    _host_adjust(out, ref_ms)

    out.claim_errors = _stream_claims(seed, versions, applied, events, kept, version_of)
    if trace:
        lag_ms = [1000.0 * v for v in lags]
        out.layers = per_layer(
            tracing.recorder.spans,
            stats=(service.stats(), front_stats),
            stats_before=stats_before,
            traces=tracer.traces(),
            extra={
                "gen.lag_ms": median(lag_ms),
                "trace.overhead_frac": _overhead(split["untraced"], split["traced"]),
                "host.ref_ms": median(ref_ms),
            },
        )
    service.close()
    del service, graph, tracer
    # The served deltas were teed into the checkpoint's log; empty it so
    # every later restart replays the same (empty) tail and reseeds.
    DeltaLog(os.path.join(checkpoint, "deltas.log")).truncate()

    def another_setup():
        (service, _), elapsed = setup()
        service.close()
        return None, elapsed

    setups = _more_setups(another_setup, ref, first_setup, STREAM_SETUPS)
    out.end_to_end["setup_s"] = median(setups)
    out.notes["setup_s runs"] = [round(v, 4) for v in setups]
    shutil.rmtree(checkpoint, ignore_errors=True)
    return out


def _stream_claims(seed, versions, deltas, events, kept, version_of):
    """Check sampled answers on a replayed copy of the graph.

    ``versions[k]`` is the graph's mutation count after the first ``k``
    of the applied ``deltas``.

    Two graph versions are re-solved, each for one global, three
    personalised and one wide (coalescer-served) answer it served, so
    every run checks the same mix of serving strategies.  Versions with
    that full mix are preferred; when they hold fewer than
    :data:`WIDE_CHECKS` wide answers, one more version supplies them.
    """
    index = {m: k for k, m in enumerate(versions)}
    by_version: dict[int, dict] = {}
    for event in events:
        key = id(event.payload)
        if key in kept and version_of.get(key) in index:
            slot = by_version.setdefault(
                index[version_of[key]], {"global": [], "personal": [], "wide": []}
            )
            if event.kind == "wide":
                kind = "wide"
            else:
                kind = "global" if event.payload.seeds is None else "personal"
            slot[kind].append((event.payload, kept[key]))
    ranked = sorted(
        by_version,
        key=lambda k: (-min(len(by_version[k]["global"]), 1),
                       -min(len(by_version[k]["personal"]), 3),
                       -min(len(by_version[k]["wide"]), 1), k),
    )
    picks = {k: by_version[k]["global"][:1] + by_version[k]["personal"][:3]
             + by_version[k]["wide"][:1] for k in ranked[:2]}
    wide_short = WIDE_CHECKS - sum(len(by_version[k]["wide"][:1]) for k in picks)
    for k in ranked[2:]:
        if wide_short > 0 and by_version[k]["wide"]:
            picks[k] = by_version[k]["wide"][:wide_short]
            break
    if not picks:
        return []
    replica = inputs.serving_graph(seed)
    errors, applied = [], 0
    for k in sorted(picks):
        while applied < k:
            replica.apply_delta(deltas[applied])
            applied += 1
        adjacency = replica.to_csr(weighted=False).copy()
        errors.extend(_serving_claims(picks[k], adjacency))
    return errors


# ----------------------------------------------------------------------
# paper_sweep: the paper's protocol as a batch job
# ----------------------------------------------------------------------
#: Set-ups per paper_sweep run (each builds all eight graphs).
SWEEP_SETUPS = 3
#: Dataset scale of the eight application graphs.
SWEEP_SCALE = 2.0
#: The paper's α grid plus its default 0.85 (the curve the groups use).
SWEEP_ALPHAS = (0.5, 0.7, 0.75, 0.85, 0.9)
#: Family members profiled for the degree↔rank question.
PROFILE_METHODS = ("pagerank", "katz", "eigenvector", "hits")
#: Tolerance of the spectral solves.
SPECTRAL_TOL = 1e-9


def _group_match(curves_by_graph) -> int:
    """Graphs whose peak p lies on the paper's side of 0 (§4.3 groups)."""
    from repro.datasets import PAPER_GROUPS

    side = {"A": lambda p: p > 0, "B": lambda p: p == 0, "C": lambda p: p < 0}
    return sum(
        side[PAPER_GROUPS[name]](curves[0.85].peak_p)
        for name, curves in curves_by_graph.items()
    )


def run_paper_sweep(seed: int, seconds: float, trace: bool, workdir: str) -> Outcome:
    import repro.diagnostics
    import repro.experiments.sweep as sweep
    from repro.datasets.registry import graph_names, load
    from repro.methods import resolve
    from repro.serving import RankRequest

    out = Outcome()
    tracing = Tracing(trace)
    out.recorder = tracing.recorder
    ref = HostRef()

    def setup():
        start = perf_counter()
        # The paper's data graphs are fixed: every seed sweeps the same
        # eight graphs; the seed picks only the probe delta.
        data_graphs = [load(name, scale=SWEEP_SCALE) for name in graph_names()]
        # Warm-up: one sweep of the smallest graph pays the lazy
        # first-call costs a long-running batch job pays once.
        smallest = min(data_graphs, key=lambda dg: dg.graph.number_of_edges)
        sweep.alpha_sweep(smallest, alphas=SWEEP_ALPHAS)
        return data_graphs, perf_counter() - start

    data_graphs, first_setup = _host_setup(setup, ref)
    out.notes["peak_rss_mb after set-up"] = round(peak_rss_mb(), 1)
    # The window has no writes of its own, yet every workload reports
    # ``delta_p50_ms``.  After each job a probe applies a delta and its
    # inverse to a separate copy of the largest data graph (no operators
    # are built on it), so the probe samples the host over the whole
    # window and never changes the graphs being swept.
    largest = max(data_graphs, key=lambda dg: dg.graph.number_of_edges).name
    probe_graph = load(largest, scale=SWEEP_SCALE).graph
    probe_pair = inputs.swap_delta_pair(probe_graph, DELTA_OPS, seed)
    probe, ref_ms = [], []
    gc.collect()
    gc.freeze()  # the collections between passes scan only new objects

    # Keep the answers of the latest pass for the correctness sample.
    captured: dict[int, list] = {}
    patches = Patches()

    def capture(original):
        def solve_many(graph, queries, **kwargs):
            results = original(graph, queries, **kwargs)
            captured[id(graph)] = [
                (q, r.values, kwargs.get("tol")) for q, r in zip(queries, results)
            ]
            return results
        return solve_many

    patches.wrap(sweep, "solve_many", capture)
    latencies, untraced, traced = [], [], []
    columns = passes = 0
    curves_by_graph = {}
    begin = perf_counter()
    last_pass = paused = 0.0  # paused: probe and host samples, off the clock
    try:
        # Start a pass only while at least half of it fits the window, so
        # the measured window averages ``seconds``; a traced run always
        # gets one traced pass.
        while (perf_counter() - begin + last_pass / 2.0 < seconds
               or (trace and not traced)):
            # Traced runs alternate untraced and traced passes.
            if trace and passes % 2 == 1:
                tracing.on()
            pass_start = perf_counter()
            for dg in data_graphs:
                start = perf_counter()
                dg.graph.invalidate_caches()
                curves = sweep.alpha_sweep(dg, alphas=SWEEP_ALPHAS)
                columns += len(sweep.P_GRID) * len(SWEEP_ALPHAS)
                answers = {
                    (q.p, q.alpha): values for q, values, _ in captured[id(dg.graph)]
                }
                for method in PROFILE_METHODS:
                    if method == "pagerank":
                        scores = answers[(0.0, 0.85)]
                    else:
                        request = RankRequest(method=method, tol=SPECTRAL_TOL)
                        scores = resolve(method).solve(
                            dg.graph, request.group_key, tol=SPECTRAL_TOL
                        ).scores
                        columns += 1
                    repro.diagnostics.degree_rank_profile(dg.graph, scores, method=method)
                curves_by_graph[dg.name] = curves
                latencies.append(perf_counter() - start)
                start = perf_counter()
                for delta in probe_pair:
                    probe.append(perf_counter())
                    probe_graph.apply_delta(delta)
                    probe[-1] = perf_counter() - probe[-1]
                ref_ms.extend(ref.sample(3))
                paused += perf_counter() - start
            last_pass = perf_counter() - pass_start
            # Each pass leaves its operator bundles in reference cycles
            # (matrix <-> bundle); collect them here so the peak RSS is
            # one pass's, not a function of when the cyclic collector
            # happens to run.
            gc.collect()
            (traced if tracing._on else untraced).append(last_pass)
            tracing.off()
            passes += 1
    finally:
        tracing.off()
        patches.restore()
    window = perf_counter() - begin - paused

    jobs = len(latencies)
    out.attempted, out.failed = jobs, 0
    e2e, tail_note = _latency_metrics(latencies, jobs, jobs, SLO_MS["paper_sweep"])
    out.end_to_end.update(e2e)
    group_match = _group_match(curves_by_graph)
    out.end_to_end.update({
        "throughput_rps": jobs / window,
        "columns_per_s": columns / window,
        "delta_p50_ms": 1000.0 * median(probe),
        "peak_rss_mb": peak_rss_mb(),
    })
    out.notes["latency_tail_ms"] = tail_note + (
        " (a job is one graph's alpha_sweep plus its four profiles)"
    )
    out.notes["passes"] = passes
    _host_adjust(out, ref_ms)
    out.notes["delta_p50_ms"] = (
        f"probe: {len(probe)} applies of a {DELTA_OPS}-edge delta and its inverse "
        f"on a copy of {largest}, one pair after each job"
    )
    out.notes["experiments.group_match"] = f"{group_match} of {len(data_graphs)}"
    out.notes["graphs"] = {
        dg.name: (dg.graph.number_of_nodes, dg.graph.number_of_edges) for dg in data_graphs
    }

    out.claim_errors = _sweep_claims(data_graphs, captured)
    extra = {"experiments.group_match": float(group_match)}
    if trace:
        extra.update(_anchor(data_graphs, captured))
        extra["trace.overhead_frac"] = _overhead(untraced, traced)
        extra["host.ref_ms"] = median(ref_ms)
    gc.unfreeze()
    if trace:
        out.layers = per_layer(tracing.recorder.spans, extra=extra)
    del data_graphs, captured, probe_graph
    setups = _more_setups(setup, ref, first_setup, SWEEP_SETUPS)
    out.end_to_end["setup_s"] = median(setups)
    out.notes["setup_s runs"] = [round(v, 4) for v in setups]
    return out


def _sweep_claims(data_graphs, captured) -> list[tuple[float, float]]:
    """Reference-solve every column of the last pass.

    The data graphs are fixed, so a seeded sample of columns would make
    the share of misses depend on which columns the seed drew.
    """
    errors = []
    for dg in data_graphs:
        rows = captured.get(id(dg.graph), ())
        adjacency = dg.graph.to_csr(weighted=False)
        n = adjacency.shape[0]
        for p in sorted({q.p for q, _, _ in rows}):
            group = [(q, v, tol) for q, v, tol in rows if q.p == p]
            transition, dangling = oracle.d2pr_transition(adjacency, p)
            teleports = np.full((n, len(group)), 1.0 / n)
            ref = oracle.power_iteration(transition, dangling, teleports,
                                         [q.alpha for q, _, _ in group])
            errs = oracle.l1_errors(np.column_stack([v for _, v, _ in group]), ref)
            errors.extend((float(e), float(tol)) for e, (_, _, tol) in zip(errs, group))
    return errors


def _anchor(data_graphs, captured) -> dict[str, float]:
    """NetworkX PageRank vs the sweep's p=0, α=0.85 columns (untimed)."""
    from repro import pagerank

    nx_s = repo_s = worst = 0.0
    for dg in data_graphs:
        graph = dg.graph
        answers = {(q.p, q.alpha): (v, tol) for q, v, tol in captured[id(graph)]}
        column, tol = answers[(0.0, 0.85)]
        adjacency = graph.to_csr(weighted=False)
        start = perf_counter()
        ref = oracle.networkx_pagerank(adjacency, graph.directed, 0.85, tol)
        nx_s += perf_counter() - start
        start = perf_counter()
        pagerank(graph, alpha=0.85, tol=tol)
        repo_s += perf_counter() - start
        worst = max(worst, float(np.abs(ref - column).sum()))
    return {"anchor.networkx_s": nx_s, "anchor.repo_s": repo_s, "anchor.max_l1": worst}


WORKLOADS = {
    "update_stream": run_update_stream,
    "paper_sweep": run_paper_sweep,
}
