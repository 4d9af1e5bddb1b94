"""Self-time and residual arithmetic, and the span wrappers."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from perfbench.spans import (
    RESIDUAL,
    ROOT,
    Span,
    SpanRecorder,
    attribute,
    instrument,
    self_times,
)


def hand_built() -> list[Span]:
    # Times are dyadic, so every sum and difference below is exact.
    return [
        Span(ROOT, 0.0, 16.0, None, 1, "read"),
        Span("engine.facade", 1.0, 15.0, 0, 1, "read"),
        Span("sharding.merge", 2.0, 14.0, 1, 1, "read"),
        Span("exec.run", 3.0, 13.0, 2, 1, "read", engine_s=8.0),
        Span("index.range", 4.0, 5.0, 3, 1, "read"),
        Span("cascade.filter", 5.0, 6.0, 3, 1, "read"),
        Span("dtw.verify", 6.5, 10.0, 3, 1, "read"),
        Span("storage.fetch", 10.0, 10.5, 3, 1, "read"),
        Span(ROOT, 20.0, 24.0, None, 2, "write"),
        Span("engine.facade", 20.5, 23.5, 8, 2, "write"),
        Span("index.write", 21.0, 22.0, 9, 2, "write"),
        Span("storage.write", 22.0, 23.0, 9, 2, "write"),
    ]


def test_self_time_is_duration_minus_children() -> None:
    assert self_times(hand_built()) == [
        2.0, 2.0, 2.0, 4.0, 1.0, 1.0, 3.5, 0.5, 1.0, 1.0, 1.0, 1.0
    ]


def test_self_time_subtracts_the_union_of_overlapping_children() -> None:
    spans = [
        Span(ROOT, 0.0, 10.0),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),
        Span("c", 8.0, 12.0, 0),
    ]
    assert self_times(spans)[0] == 3.0


def test_layers_and_residual_partition_each_operation() -> None:
    attr = attribute(hand_built())
    read, write = attr.by_kind["read"], attr.by_kind["write"]
    assert dict(read) == {
        RESIDUAL: 2.0,
        "engine.facade": 2.0,
        "sharding.merge": 2.0,
        "exec.run": 2.0,  # run wall 10 minus the slowest shard's 8
        "engine.query": 2.0,  # the span's other self time
        "index.range": 1.0,
        "cascade.filter": 1.0,
        "dtw.verify": 3.5,
        "storage.fetch": 0.5,
    }
    assert dict(write) == {
        RESIDUAL: 1.0,
        "engine.facade": 1.0,
        "index.write": 1.0,
        "storage.write": 1.0,
    }
    assert sum(read.values()) == attr.op_seconds["read"] == 16.0
    assert sum(write.values()) == attr.op_seconds["write"] == 4.0
    assert attr.operations == 2 and attr.wall == 20.0
    assert attr.total("engine.facade") == 3.0


def test_recorder_nests_spans_under_the_operation() -> None:
    recorder = SpanRecorder(clock=itertools.count().__next__)
    inner = recorder.wrap(lambda: None, "inner")
    outer = recorder.wrap(lambda: (inner(), inner()), "outer")
    walk = recorder.wrap_iter(lambda: iter([1, 2]), "walk")
    outer()
    assert recorder.spans == []  # nothing is recorded while disabled
    recorder.enabled = True
    token = recorder.begin_op(7, "read")
    outer()
    assert list(walk()) == [1, 2]
    recorder.end(token)
    names = [(s.name, s.parent, s.op) for s in recorder.spans]
    assert names == [
        (ROOT, None, 7),
        ("outer", 0, 7),
        ("inner", 1, 7),
        ("inner", 1, 7),
        ("walk", 0, 7),  # the call that makes the iterator
        ("walk", 0, 7),  # next -> 1
        ("walk", 0, 7),  # next -> 2
        ("walk", 0, 7),  # next -> StopIteration
    ]
    assert all(s.end > s.start for s in recorder.spans)


def test_instrument_wraps_a_real_query_and_restores_the_program() -> None:
    from repro import TimeWarpingDatabase
    from repro.core.cascade import FilterCascade
    import repro.core.query_engine as query_engine

    original_filter = FilterCascade.__dict__["filter"]
    original_verify = query_engine.dtw_max_early_abandon
    recorder = SpanRecorder()
    rng = np.random.default_rng(0)
    data = [rng.normal(size=16) for _ in range(30)]
    with instrument(recorder):
        with TimeWarpingDatabase(executor="serial") as db:
            db.bulk_load(data)
            recorder.enabled = True
            token = recorder.begin_op(1, "read")
            matches = db.search(data[3], 0.5)
            recorder.end(token)
    assert FilterCascade.__dict__["filter"] is original_filter
    assert query_engine.dtw_max_early_abandon is original_verify
    assert 3 in [m.seq_id for m in matches]
    names = {s.name for s in recorder.spans}
    assert {
        ROOT,
        "engine.facade",
        "sharding.merge",
        "exec.run",
        "index.range",
        "cascade.rebuild",
        "cascade.filter",
        "dtw.verify",
        "storage.fetch",
    } <= names
    attr = attribute(recorder.spans)
    assert sum(attr.by_kind["read"].values()) == pytest.approx(attr.wall, rel=1e-9)
