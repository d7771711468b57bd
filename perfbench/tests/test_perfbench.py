"""Tests of the benchmark's own machinery (not of the program).

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q`` from
the repository root.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

from perfbench import common, inputs, oracle, workloads
from perfbench.spans import Patches, Span, SpanRecorder, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SMALL_N = 2_000


def _events_fingerprint(events):
    out = []
    for event in events:
        payload = event.payload
        if not isinstance(payload, int):
            payload = (payload.method, payload.p, payload.alpha, payload.tol,
                       None if payload.seeds is None else tuple(payload.seeds))
        out.append((event.due, event.kind, payload))
    return out


def test_same_seed_same_requests():
    a = inputs.personalized_requests(5, 50, n=SMALL_N)
    b = inputs.personalized_requests(5, 50, n=SMALL_N)
    c = inputs.personalized_requests(6, 50, n=SMALL_N)
    assert [r.seeds for r in a] == [r.seeds for r in b]
    assert [r.seeds for r in a] != [r.seeds for r in c]
    assert len({tuple(sorted(r.seeds)) for r in a}) == 50


def test_same_seed_same_stream():
    hot = inputs.hot_set(3, n=SMALL_N)
    first, n_first = inputs.open_loop_stream(3, 8.0, 20.0, hot, n=SMALL_N)
    again, n_again = inputs.open_loop_stream(3, 8.0, 20.0, inputs.hot_set(3, n=SMALL_N), n=SMALL_N)
    other, _ = inputs.open_loop_stream(4, 8.0, 20.0, hot, n=SMALL_N)
    assert n_first == n_again
    assert _events_fingerprint(first) == _events_fingerprint(again)
    assert _events_fingerprint(first) != _events_fingerprint(other)
    # every read event owns its request object
    reads = [e.payload for e in first if e.kind != "delta"]
    assert len({id(r) for r in reads}) == len(reads)


def _delta_fingerprint(deltas):
    fields = ("insert_rows", "insert_cols", "delete_rows", "delete_cols")
    return [tuple(np.asarray(getattr(d, f)).tobytes() for f in fields) for d in deltas]


def test_same_seed_same_deltas_and_they_apply():
    graph = inputs.serving_graph(1, n=SMALL_N, reps=6)
    rows, cols, _ = graph.edge_arrays()
    a = inputs.delta_stream((rows, cols), SMALL_N, 4, 9, 60)
    b = inputs.delta_stream((rows, cols), SMALL_N, 4, 9, 60)
    c = inputs.delta_stream((rows, cols), SMALL_N, 4, 10, 60)
    assert _delta_fingerprint(a) == _delta_fingerprint(b)
    assert _delta_fingerprint(a) != _delta_fingerprint(c)
    before = graph.mutation_count
    for delta in a:
        assert delta.size > 0
        graph.apply_delta(delta)  # disjoint blocks: every delete exists
    assert graph.mutation_count > before


def test_tail_rule():
    samples = np.arange(1, 101, dtype=float)
    value, pct, n = common.tail(samples)
    assert (value, n) == (90.0, 100)
    assert pct == pytest.approx(90.0)
    assert int(np.sum(samples > value)) == 10
    value, pct, n = common.tail(np.arange(1, 1001, dtype=float))
    assert int(np.sum(np.arange(1, 1001) > value)) == 10
    assert pct == pytest.approx(99.0)
    # fewer than eleven samples: no percentile has ten beyond it
    assert common.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_swap_delta_pair_restores_the_graph():
    graph = inputs.serving_graph(3, n=SMALL_N, reps=6)
    before = [a.copy() for a in graph.edge_arrays()]
    forward, inverse = inputs.swap_delta_pair(graph, 200, 11)
    again, _ = inputs.swap_delta_pair(graph, 200, 11)
    assert _delta_fingerprint([forward]) == _delta_fingerprint([again])
    for _ in range(3):
        graph.apply_delta(forward)
        assert graph.number_of_edges == before[0].size
        graph.apply_delta(inverse)
    for got, want in zip(graph.edge_arrays(), before):
        np.testing.assert_array_equal(got, want)


def test_host_adjust_scales_times_up_and_rates_down_on_a_fast_host():
    out = workloads.Outcome()
    out.end_to_end = {name: 10.0 for name in workloads.HOST_TIMES + workloads.HOST_RATES}
    out.end_to_end["peak_rss_mb"] = 500.0
    fast = [common.REF_NOMINAL_MS / 2.0] * 3  # the loop ran twice as fast
    workloads._host_adjust(out, fast)
    assert all(out.end_to_end[name] == 20.0 for name in workloads.HOST_TIMES)
    assert all(out.end_to_end[name] == 5.0 for name in workloads.HOST_RATES)
    assert out.end_to_end["peak_rss_mb"] == 500.0
    assert set(out.notes["as timed, before host adjustment"].values()) == {10.0}
    assert all(t > 0 for t in common.HostRef().sample(2))


def _span(id, start, end, parent=None):
    span = Span(id, "x", start, parent, None)
    span.end = end
    return span


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 3.0, parent=1),
        _span(3, 2.0, 5.0, parent=1),   # overlaps span 2
        _span(4, 8.0, 12.0, parent=1),  # clipped at the parent's end
        _span(5, 2.5, 2.75, parent=3),  # grandchild: only span 3 pays it
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[3] == pytest.approx(3.0 - 0.25)
    assert selfs[2] == pytest.approx(2.0)


def test_recorder_nests_per_thread_and_tags_requests():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    recorder.set_request(7)
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
    inner, outer = recorder.spans
    assert inner.parent == outer.id and outer.parent is None
    assert inner.request == outer.request == 7
    assert self_times(recorder.spans)[outer.id] == pytest.approx(3.0 - 1.0)


def test_patches_restore_originals():
    module = types.SimpleNamespace(f=lambda x: x + 1)

    class Base:
        def g(self):
            return "base"

    class Child(Base):
        pass

    original_f = module.f
    patches = Patches()
    patches.wrap(module, "f", lambda orig: lambda x: orig(x) * 10)
    patches.wrap(Child, "g", lambda orig: lambda self: "wrapped " + orig(self))
    assert module.f(1) == 20 and Child().g() == "wrapped base"
    patches.restore()
    assert module.f is original_f
    assert "g" not in Child.__dict__ and Child().g() == "base"


def test_names_and_units_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert e2e == common.END_TO_END
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layers == {k: v[:2] for k, v in common.PER_LAYER.items()}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


def test_emit_prints_every_metric_with_unit_and_a_result_line():
    buffer = io.StringIO()
    metrics = {name: 1.5 for name in common.END_TO_END}
    common.emit({"seed": 1}, 3, 0, True, metrics, {"note": "x"}, out=buffer)
    lines = buffer.getvalue().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        k: unit for k, (unit, _) in common.END_TO_END.items()
    }
    for name, (unit, _) in common.END_TO_END.items():
        assert any(line.startswith(name) and line.rstrip().endswith(unit) for line in lines)


def test_oracle_agrees_with_program_on_small_graph():
    from repro.serving import RankingService

    graph = inputs.serving_graph(2, n=SMALL_N, reps=6)
    request = inputs.personalized_requests(2, 1, n=SMALL_N)[0]
    request = type(request)(method="d2pr", p=1.0, seeds=request.seeds, tol=1e-11)
    with RankingService(graph) as service:
        got = service.rank(request).scores.values
    adjacency = graph.to_csr(weighted=False)
    transition, dangling = oracle.d2pr_transition(adjacency, 1.0)
    teleport = oracle.seed_teleport(SMALL_N, request.seeds)[:, None]
    ref = oracle.power_iteration(transition, dangling, teleport, [request.alpha])
    assert oracle.l1_errors(got[:, None], ref)[0] <= 1e-10


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
