"""Layer spans recorded from outside the program, and their arithmetic.

:func:`instrument` wraps the public entry points of each layer in spans
for the duration of a ``with`` block and restores them on exit; nothing
under ``src/`` is edited.  A span records its name, start, end, parent
span and operation id; spans stay in memory until the run writes them
out.  Only the thread that created the recorder records; calls from
other threads pass straight through.

Self time is a span's duration minus the part of it that its children
cover.  :func:`attribute` sums self time per layer, so every operation's
wall time splits exactly into layer self times plus the ``residual``
(the root's own self time: time no layer span covers).  The one split
that is not span-based is ``exec.run``: the executor's own cost is its
wall time minus the slowest shard's ``engine.*.seconds`` (reported by
the program on the return path), and the rest of the span's self time
is charged to ``engine.query`` — engine work outside the child layers,
or, for worker processes the wrappers cannot see into, all of it.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

__all__ = [
    "Span",
    "SpanRecorder",
    "Attribution",
    "self_times",
    "attribute",
    "instrument",
    "ROOT",
    "RESIDUAL",
    "LAYERS",
]

#: Name of the benchmark's own per-operation root span.
ROOT = "op"
#: Layer name of operation time covered by no layer span.
RESIDUAL = "residual"
#: Every layer self time :func:`attribute` reports, in pipeline order.
LAYERS = (
    "engine.facade",
    "sharding.merge",
    "exec.run",
    "exec.mirror",
    "engine.query",
    "index.range",
    "index.knn_iter",
    "index.write",
    "cascade.rebuild",
    "cascade.filter",
    "storage.fetch",
    "storage.write",
    "dtw.verify",
)

#: Engine timers whose per-shard maximum is the shard-side share of a
#: fan-out (``QueryResult.metrics`` / ``BatchResult.metrics``).
_ENGINE_TIMERS = (
    "engine.search.seconds",
    "engine.knn.seconds",
    "engine.search_many.seconds",
)


@dataclass
class Span:
    """One timed call: ``[start, end]`` seconds, parent index, operation."""

    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int = -1
    kind: str = ""
    engine_s: float = 0.0


class SpanRecorder:
    """Records nested spans of one thread into an in-memory list."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self._clock = clock
        self._stack: list[int] = []
        self._op = -1
        self._kind = ""
        self._owner = threading.get_ident()

    def begin(self, name: str) -> int | None:
        """Open a span under the innermost open one; ``None`` when off."""
        if not self.enabled or threading.get_ident() != self._owner:
            return None
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            Span(name, self._clock(), parent=parent, op=self._op, kind=self._kind)
        )
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int | None) -> None:
        """Close the span *index* opened by :meth:`begin`."""
        if index is None:
            return
        self.spans[index].end = self._clock()
        popped = self._stack.pop()
        assert popped == index, "spans must close innermost first"

    def begin_op(self, op: int, kind: str) -> int | None:
        """Open the root span of operation *op* (``read``/``write``)."""
        self._op, self._kind = op, kind
        return self.begin(ROOT)

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """*fn* with every call recorded as a span called *name*."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return wrapper

    def wrap_run(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """Like :meth:`wrap`, also keeping the slowest shard's engine seconds."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = self.begin(name)
            try:
                results = fn(*args, **kwargs)
            finally:
                self.end(index)
            if index is not None:
                self.spans[index].engine_s = max(
                    (_engine_seconds(r) for r in results), default=0.0
                )
            return results

        return wrapper

    def wrap_iter(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """*fn* returning an iterator: the call and each ``next`` are spans."""

        def timed(iterator: Iterator[Any]) -> Iterator[Any]:
            while True:
                index = self.begin(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self.end(index)
                yield item

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            index = self.begin(name)
            try:
                iterator = iter(fn(*args, **kwargs))
            finally:
                self.end(index)
            return timed(iterator)

        return wrapper

    def dump(self, path: Path) -> None:
        """Write every span as one JSON row (name, start, end, parent, op, kind)."""
        rows = [
            [s.name, s.start, s.end, s.parent, s.op, s.kind, s.engine_s]
            for s in self.spans
        ]
        path.write_text(json.dumps(rows))


def _engine_seconds(result: Any) -> float:
    metrics = getattr(result, "metrics", None)
    histograms = getattr(metrics, "histograms", {})
    return sum(
        histograms[name].total for name in _ENGINE_TIMERS if name in histograms
    )


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of *intervals* clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start) - _covered(span.start, span.end, children[index])
        for index, span in enumerate(spans)
    ]


@dataclass
class Attribution:
    """Self time per layer, in total and per operation kind."""

    #: ``{kind: {layer: seconds}}``; the ``residual`` layer included.
    by_kind: dict[str, dict[str, float]] = field(default_factory=dict)
    #: ``{kind: summed root-span seconds}``.
    op_seconds: dict[str, float] = field(default_factory=dict)
    #: ``{kind: number of root spans}``.
    op_count: dict[str, int] = field(default_factory=dict)

    def total(self, layer: str) -> float:
        """Seconds of *layer* over every operation kind."""
        return sum(layers.get(layer, 0.0) for layers in self.by_kind.values())

    @property
    def operations(self) -> int:
        """Number of operations attributed."""
        return sum(self.op_count.values())

    @property
    def wall(self) -> float:
        """Summed wall time of every operation."""
        return sum(self.op_seconds.values())


def attribute(spans: list[Span]) -> Attribution:
    """Split every operation's wall time into layer self times + residual."""
    result = Attribution()
    for span, own in zip(spans, self_times(spans)):
        layers = result.by_kind.setdefault(span.kind, defaultdict(float))
        if span.name == ROOT:
            layers[RESIDUAL] += own
            result.op_seconds[span.kind] = (
                result.op_seconds.get(span.kind, 0.0) + span.end - span.start
            )
            result.op_count[span.kind] = result.op_count.get(span.kind, 0) + 1
        elif span.name == "exec.run":
            executor = min(max(span.end - span.start - span.engine_s, 0.0), own)
            layers["exec.run"] += executor
            layers["engine.query"] += own - executor
        else:
            layers[span.name] += own
    return result


@contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every layer's public entry points in *recorder* spans.

    Wrappers are installed on the classes (and on the query engine's
    module-level DTW verify function) and removed on exit; they record
    only while ``recorder.enabled`` is true.
    """
    import repro.core.query_engine as query_engine
    from repro.core.cascade import FilterCascade
    from repro.core.engine import TimeWarpingDatabase
    from repro.core.sharding import ShardedDatabase
    from repro.exec.base import ShardExecutor
    from repro.index.backend import IndexBackend
    from repro.storage.database import SequenceDatabase

    undo: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, wrapper: Callable[..., Any]) -> None:
        original = owner.__dict__[attr]
        undo.append((owner, attr, original))
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(wrapper(original.__func__)))
        else:
            setattr(owner, attr, wrapper(original))

    def patch_tree(base: type, attr: str, wrapper: Callable[..., Any]) -> None:
        stack, seen = [base], set()
        while stack:
            cls = stack.pop()
            if cls in seen:
                continue
            seen.add(cls)
            stack.extend(cls.__subclasses__())
            original = cls.__dict__.get(attr)
            if original is not None and not getattr(
                original, "__isabstractmethod__", False
            ):
                patch(cls, attr, wrapper)

    def named(name: str, how: Callable[..., Any] = recorder.wrap) -> Callable[..., Any]:
        return lambda fn: how(fn, name)

    try:
        patch_tree(IndexBackend, "range_search", named("index.range"))
        patch_tree(IndexBackend, "knn_iter", named("index.knn_iter", recorder.wrap_iter))
        patch_tree(IndexBackend, "insert", named("index.write"))
        patch_tree(IndexBackend, "delete", named("index.write"))
        patch(FilterCascade, "filter", named("cascade.filter"))
        patch(FilterCascade, "from_database", named("cascade.rebuild"))
        patch(query_engine, "dtw_max_early_abandon", named("dtw.verify"))
        for attr in ("fetch", "charge_fetch"):
            patch(SequenceDatabase, attr, named("storage.fetch"))
        for attr in ("insert", "delete"):
            patch(SequenceDatabase, attr, named("storage.write"))
        patch_tree(ShardExecutor, "run", named("exec.run", recorder.wrap_run))
        patch_tree(ShardExecutor, "mirror", named("exec.mirror"))
        for attr in ("search_detailed", "search_many_detailed", "knn_detailed"):
            patch(ShardedDatabase, attr, named("sharding.merge"))
        for attr in ("search", "search_many", "knn", "insert", "delete"):
            patch(TimeWarpingDatabase, attr, named("engine.facade"))
        yield recorder
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
