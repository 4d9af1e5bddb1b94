"""kNN refinement parity: the stacked seed changes wall time only.

:meth:`QueryEngine.knn_detailed` verifies the first *k* candidates of
``knn_iter`` together, at ε=inf, one stacked bounded pass per length.
Before any *k* matches exist the per-candidate refinement ran every one
of them at ε=inf too, so answers, tie order and every non-timing
counter must be bit-identical to that loop.  The loop is kept here as
the reference (:func:`reference_knn_detailed`) and compared on mixed
lengths, short candidate streams, both stores, and 1 and 2 shards on
the serial and process executors.
"""

from __future__ import annotations

from itertools import islice

import numpy as np
import pytest

from repro.core.cascade import CascadeStats
from repro.core.engine import TimeWarpingDatabase
from repro.core.query_engine import QueryEngine, QueryResult, SearchOutcome
from repro.distance.dtw import dtw_max_early_abandon
from repro.index.backend import make_backend
from repro.obs.metrics import MetricsSnapshot
from repro.storage.database import SequenceDatabase
from repro.types import as_sequence, check_k

#: Four lengths, so a seed of a few candidates spans several stacks.
LENGTHS = (12, 16, 20, 24)
N = 24
KS = (1, 3, 10, N + 5)


def reference_knn_detailed(
    engine: QueryEngine, query, k: int
) -> QueryResult:
    """Per-candidate lower-bound refinement: one verify per candidate,
    thresholded at the current *k*-th best distance (inf until *k*
    matches exist)."""
    q = as_sequence(query)
    check_k(k)
    with engine._query_scope() as per_query:
        found: list[SearchOutcome] = []
        examined = 0
        for lb, seq_id in engine.backend.knn_iter(q.values):
            if len(found) >= k and lb > found[k - 1].distance:
                break
            threshold = (
                found[k - 1].distance if len(found) >= k else float("inf")
            )
            stored = engine.database.fetch(seq_id)
            distance = dtw_max_early_abandon(stored.values, q.values, threshold)
            examined += 1
            if distance <= threshold:
                found.append(SearchOutcome(seq_id, distance, stored))
                found.sort(key=lambda m: (m.distance, m.seq_id))
                del found[k:]
        per_query.count("engine.knn_queries")
        per_query.count("engine.knn_examined", examined)
    return QueryResult(
        matches=found,
        stats=CascadeStats([]),
        candidate_ids=[],
        metrics=per_query.snapshot(),
    )


def _work(snapshot: MetricsSnapshot) -> dict:
    """Every counter and histogram except wall-clock timings."""

    def untimed(name: str) -> bool:
        return "seconds" not in name.split(".")

    return {
        "counters": {
            name: value
            for name, value in snapshot.counters.items()
            if untimed(name)
        },
        "histograms": {
            name: (summary.count, summary.buckets)
            for name, summary in snapshot.histograms.items()
            if untimed(name)
        },
    }


def _outcome(result: QueryResult) -> tuple:
    return [(m.seq_id, m.distance) for m in result.matches], _work(
        result.metrics
    )


@pytest.fixture(scope="module")
def arrays() -> list[np.ndarray]:
    rng = np.random.default_rng(11)
    return [
        rng.normal(size=int(rng.choice(LENGTHS))).cumsum() for _ in range(N)
    ]


@pytest.fixture(scope="module")
def queries() -> list[np.ndarray]:
    rng = np.random.default_rng(12)
    # One query length the store does not hold.
    return [
        rng.normal(size=length).cumsum() for length in (12, 20, 24, 18)
    ]


def _session(facade: TimeWarpingDatabase, arrays, queries) -> list:
    """kNN over every k and query, then again after inserts and a delete."""
    out = []
    for round_ in range(2):
        for k in KS:
            for query in queries:
                out.append(_outcome(facade.sharded.knn_detailed(query, k)))
        if round_ == 0:
            facade.insert(arrays[0][::-1])
            facade.insert(arrays[5] + 0.25)
            facade.delete(3)
    out.append(_work(facade.metrics_snapshot()))
    return out


def _facade(arrays, *, store: str, shards: int, executor: str):
    # A buffer pool of a few small pages makes the fetch order show in
    # the hit and miss counters.
    facade = TimeWarpingDatabase(
        shards=shards,
        store=store,
        executor=executor,
        page_size=256,
        buffer_pages=3,
    )
    facade.bulk_load(arrays)
    return facade


@pytest.mark.parametrize("store", ("heap", "mmap"))
@pytest.mark.parametrize("shards", (1, 2))
def test_knn_matches_per_candidate_reference(store, shards, arrays, queries):
    with _facade(arrays, store=store, shards=shards, executor="serial") as f:
        stacked = _session(f, arrays, queries)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(QueryEngine, "knn_detailed", reference_knn_detailed)
        with _facade(
            arrays, store=store, shards=shards, executor="serial"
        ) as f:
            reference = _session(f, arrays, queries)
    assert stacked == reference
    with _facade(arrays, store=store, shards=shards, executor="process") as f:
        assert _session(f, arrays, queries) == reference


class _Truncated:
    """A backend whose ``knn_iter`` stops after *limit* candidates."""

    def __init__(self, backend, limit: int) -> None:
        self._backend = backend
        self._limit = limit

    def __getattr__(self, name: str):
        return getattr(self._backend, name)

    def knn_iter(self, values):
        return islice(self._backend.knn_iter(values), self._limit)


@pytest.mark.parametrize("limit", (0, 2, 5))
def test_short_candidate_stream(limit, arrays, queries):
    """A stream shorter than *k* is all seed and leaves no tail."""
    outcomes = []
    for knn in (QueryEngine.knn_detailed, reference_knn_detailed):
        engine = QueryEngine(
            SequenceDatabase(), _Truncated(make_backend("rtree"), limit)
        )
        engine.bulk_insert(arrays)
        outcomes.append([_outcome(knn(engine, q, 10)) for q in queries])
    assert outcomes[0] == outcomes[1]
    assert all(len(matches) == limit for matches, _ in outcomes[0])


def test_knn_verify_time_is_charged(arrays, queries):
    engine = QueryEngine(SequenceDatabase(), "rtree")
    engine.bulk_insert(arrays)
    result = engine.knn_detailed(queries[0], 3)
    verify = result.metrics.histograms["dtw.verify.seconds"]
    # One timed seed verify, plus one per tail candidate.
    tail = result.metrics.counters["engine.knn_examined"] - 3
    assert verify.count == 1 + tail


def test_seeds_span_several_lengths(arrays, queries):
    """The workload above really stacks several length groups per seed."""
    engine = QueryEngine(SequenceDatabase(), "rtree")
    engine.bulk_insert(arrays)
    for query in queries:
        seed = islice(engine.backend.knn_iter(query), 10)
        assert len({len(arrays[seq_id]) for _, seq_id in seed}) >= 3
