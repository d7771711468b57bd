"""Layer spans recorded from outside the program.

The traced run wraps the public function of each layer at the name its
caller binds (a module global or a class attribute) and records one
span per call: name, start, end, parent span and request id.  Spans
stay in memory and are written out when the run ends.  A layer's self
time is its span's duration minus the part of that interval its child
spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
from contextlib import contextmanager
from time import perf_counter


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request", "attrs")

    def __init__(self, id, name, start, parent, request):
        self.id = id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.request = request
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class SpanRecorder:
    """Thread-aware span stack; finished spans accumulate in a list."""

    def __init__(self, clock=perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self.spans: list[Span] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request_id) -> None:
        """Tag spans opened on this thread with ``request_id``."""
        self._local.request = request_id

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1].id if stack else None
        record = Span(next(self._ids), name, self._clock(), parent,
                      getattr(self._local, "request", None))
        stack.append(record)
        try:
            yield record
        except BaseException as exc:
            record.attrs["error"] = type(exc).__name__
            raise
        finally:
            record.end = self._clock()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict(), default=str) + "\n")


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered, reach = 0.0, span.start
        intervals = sorted(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(span.id, ())
        )
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = span.duration - covered
    return out


def _resolve(target: str):
    module, _, attr = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, attr) if attr else owner


class Patches:
    """Install wrappers at binding sites; ``restore`` puts originals back."""

    def __init__(self):
        self._undo: list[tuple] = []

    def wrap(self, owner, attr: str, wrapper_factory) -> None:
        original = getattr(owner, attr)
        had_own = isinstance(owner, type) and attr in owner.__dict__
        setattr(owner, attr, functools.wraps(original)(wrapper_factory(original)))
        self._undo.append((owner, attr, original, had_own))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original, had_own = self._undo.pop()
            if isinstance(owner, type) and not had_own:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def _attrs_solver(span, result):
    span.attrs["epochs"] = int(result.iterations)
    span.attrs["fallback"] = "fallback" in str(result.method)


def _attrs_batch(span, result):
    span.attrs["sweeps"] = int(result.iterations.max(initial=0))
    span.attrs["columns"] = int(result.scores.shape[1])


def _attrs_iterations(span, result):
    span.attrs["iterations"] = int(result.iterations)


#: (binding site, attribute, span name, result hook).  A binding site is
#: a module, or ``module:Class`` for a class attribute; the wrapped
#: attribute is the name the caller looks up there.
LAYERS: list[tuple[str, str, str, object]] = [
    ("repro.serving.service", "canonical_query", "serving.plan", None),
    ("repro.serving.planner:QueryPlanner", "plan", "serving.plan", None),
    ("repro.serving.sync:ReadWriteLock", "acquire_read", "serving.barrier.read", None),
    ("repro.serving.service", "forward_push", "linalg.push", _attrs_solver),
    ("repro.serving.service", "incremental_update", "linalg.incremental", _attrs_solver),
    ("repro.core.engine", "power_iteration_batch", "linalg.batch", _attrs_batch),
    ("repro.serving.coalescer", "power_iteration_batch", "linalg.batch", _attrs_batch),
    ("repro.experiments.sweep", "solve_many", "core.engine.solve_many", None),
    ("repro.methods.spectral:KatzMethod", "solve", "methods.spectral", _attrs_iterations),
    ("repro.methods.spectral:EigenvectorMethod", "solve", "methods.spectral", _attrs_iterations),
    ("repro.methods.spectral:HitsMethod", "solve", "methods.spectral", _attrs_iterations),
    ("repro.core.d2pr", "d2pr_transition", "linalg.operator.build", None),
    ("repro.graph.base:BaseGraph", "apply_delta", "graph.apply_delta", None),
    ("repro.graph.persist:DeltaLog", "append", "graph.persist.log_append", None),
    ("repro.graph.persist:DeltaLog", "replay", "graph.persist.replay", None),
    ("repro.serving.service", "load_snapshot", "graph.persist.load", None),
    ("repro.shard.operator:ShardedOperator", "__init__", "shard.operator.build", None),
    ("repro.diagnostics", "degree_rank_profile", "diagnostics.degree_rank", None),
    ("repro.experiments.sweep", "spearman", "metrics.spearman", None),
    ("repro.diagnostics.degree_rank", "spearman", "metrics.spearman", None),
]


def install_layers(recorder: SpanRecorder, patches: Patches) -> None:
    """Wrap every layer of :data:`LAYERS` so each call records a span."""
    for site, attr, name, hook in LAYERS:
        owner = _resolve(site)

        def factory(original, name=name, hook=hook):
            def wrapper(*args, **kwargs):
                with recorder.span(name) as span:
                    result = original(*args, **kwargs)
                    if hook is not None:
                        hook(span, result)
                return result

            return wrapper

        patches.wrap(owner, attr, factory)
