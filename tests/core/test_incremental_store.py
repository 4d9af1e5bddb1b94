"""The engine's feature store follows writes incrementally.

After inserts and deletes, the next read refreshes the cascade's
:class:`FeatureStore` from the write delta (:meth:`FeatureStore.
refreshed`) instead of rebuilding it from a sequential scan.  These
tests pin what that must preserve: the refreshed arrays equal a full
:meth:`FeatureStore.from_database` build bit for bit, answers equal a
freshly built engine's, the ``(len(db), next_id)`` staleness key moves
on every write, and a read after ``k`` inserts and ``d`` deletes
charges ``k`` fetches and no scan.
"""

from __future__ import annotations

import pickle
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cascade import FeatureStore, FilterCascade
from repro.core.features import extract_feature
from repro.core.query_engine import QueryEngine
from repro.methods.cascade_scan import CascadeScan
from repro.methods.lb_scan import LBScan
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.storage.database import SequenceDatabase

elements = st.floats(
    min_value=-20, max_value=20, allow_nan=False, allow_infinity=False
)
sequences = st.lists(elements, min_size=1, max_size=8)
epsilons = st.floats(min_value=0, max_value=15)

operations = st.one_of(
    st.tuples(st.just("insert"), sequences),
    st.tuples(st.just("delete"), st.integers(0, 50)),
    st.tuples(st.just("compact")),
    st.tuples(st.just("bulk"), st.lists(sequences, min_size=1, max_size=4)),
    st.tuples(st.just("search"), sequences, epsilons),
    st.tuples(st.just("banded"), sequences, epsilons, st.integers(0, 3)),
    st.tuples(
        st.just("many"), st.lists(sequences, min_size=1, max_size=3), epsilons
    ),
)


def assert_store_equals(store: FeatureStore, expected: FeatureStore) -> None:
    for name in FeatureStore.PACKED_FIELDS:
        ours, theirs = getattr(store, name), getattr(expected, name)
        assert ours.dtype == theirs.dtype, name
        assert ours.shape == theirs.shape, name
        assert np.array_equal(ours, theirs), name


def answers(matches) -> list[tuple[int, float]]:
    return [(m.seq_id, m.distance) for m in matches]


def fresh_engine(db: SequenceDatabase) -> QueryEngine:
    engine = QueryEngine(db, "rtree")
    engine.rebuild_index()
    return engine


def apply_write(engine: QueryEngine, op: tuple) -> None:
    kind = op[0]
    if kind == "insert":
        engine.insert(op[1])
    elif kind == "delete":
        ids = engine.database.ids()
        if ids:
            engine.delete(ids[op[1] % len(ids)])
    elif kind == "compact":
        engine.database.compact()
    elif kind == "bulk":
        engine.bulk_insert(op[1])


def read(engine: QueryEngine, op: tuple) -> list[list[tuple[int, float]]]:
    kind = op[0]
    if kind == "search":
        return [answers(engine.search(op[1], op[2]))]
    if kind == "banded":
        return [answers(engine.search(op[1], op[2], band_radius=op[3]))]
    return [answers(m) for m in engine.search_many(op[1], op[2])]


@pytest.mark.parametrize("store", ["heap", "mmap"])
@given(
    st.lists(sequences, min_size=0, max_size=6),
    st.lists(operations, min_size=1, max_size=14),
)
@settings(deadline=None)
def test_refreshed_store_matches_full_build(store, initial, ops):
    db = SequenceDatabase(page_size=256, store=store)
    engine = QueryEngine(db, "rtree")
    engine.bulk_insert(initial)
    for op in ops:
        if op[0] not in ("search", "banded", "many"):
            apply_write(engine, op)
            continue
        got = read(engine, op)
        assert_store_equals(
            engine._active_cascade().store, FeatureStore.from_database(db)
        )
        assert got == read(fresh_engine(db), op)


def test_staleness_key_moves_on_every_write_and_never_repeats():
    db = SequenceDatabase(page_size=256)
    engine = QueryEngine(db, "rtree")
    seen = {engine._contents_key()}
    rng = np.random.default_rng(4)
    for step in range(30):
        before = engine._contents_key()
        if step % 3 == 2 and len(db):
            engine.delete(db.ids()[int(rng.integers(len(db)))])
        else:
            engine.insert(rng.normal(size=int(rng.integers(1, 9))))
        key = engine._contents_key()
        assert key != before
        assert key not in seen
        seen.add(key)
        if step % 5 == 0:
            db.compact()
            assert engine._contents_key() == key


def test_compact_keeps_the_current_cascade():
    db = SequenceDatabase(page_size=256)
    engine = QueryEngine(db, "rtree")
    engine.bulk_insert([[1.0, 2.0], [3.0], [4.0, 5.0, 6.0]])
    engine.delete(1)
    engine.search([1.0, 2.0], 1.0)
    cascade = engine._active_cascade()
    db.compact()
    engine.search([1.0, 2.0], 1.0)
    assert engine._active_cascade() is cascade


@pytest.mark.parametrize("store", ["heap", "mmap"])
def test_read_after_writes_charges_one_fetch_per_added_row(store, tmp_path):
    rng = np.random.default_rng(8)
    db = SequenceDatabase(page_size=256, store=store)
    engine = QueryEngine(db, "rtree")
    engine.bulk_insert([rng.normal(size=16).cumsum() for _ in range(30)])
    if store == "mmap":
        db.save(tmp_path / "db")  # first build served zero-copy from the map
    query = rng.normal(size=16).cumsum()
    first = engine.search_detailed(query, 1.0).metrics.counters
    assert first["storage.scans"] == 1
    for k, d in ((3, 2), (0, 1), (2, 0)):
        for _ in range(k):
            engine.insert(rng.normal(size=int(rng.integers(4, 20))).cumsum())
        for seq_id in db.ids()[:d]:
            engine.delete(seq_id)
        result = engine.search_detailed(query, 1.0)
        verified = result.stats.stage("dtw").n_in
        counters = result.metrics.counters
        assert counters.get("storage.scans", 0) == 0
        assert counters.get("storage.fetches", 0) == k + verified
        assert_store_equals(
            engine._active_cascade().store, FeatureStore.from_contents(db)
        )


def test_refreshed_leaves_the_old_store_intact():
    db = SequenceDatabase(page_size=256)
    db.insert_many([[1.0, 2.0], [3.0, 4.0, 5.0], [6.0]])
    old = FeatureStore.from_database(db)
    arrays = {name: np.array(a) for name, a in old.packed().items()}
    db.delete(1)
    db.insert([7.0, 8.0])
    new = old.refreshed(db)
    assert new is not None
    assert_store_equals(new, FeatureStore.from_database(db))
    for name, array in arrays.items():
        assert np.array_equal(getattr(old, name), array)
    # Kept rows are shared with the old store, not copied ...
    assert np.shares_memory(new.sequence(0).values, old.values_flat)
    # ... but never with a refreshed store's packed buffer, so a chain
    # of refreshes does not pin every generation.
    db.insert([9.0])
    newer = new.refreshed(db)
    assert newer is not None
    assert_store_equals(newer, FeatureStore.from_database(db))
    for row in range(len(newer)):
        assert not np.shares_memory(newer.values(row), new.values_flat)


def test_refreshed_store_pickles_packed():
    db = SequenceDatabase(page_size=256)
    db.insert_many([[1.0, 2.0], [3.0, 4.0, 5.0]])
    store = FeatureStore.from_database(db)
    db.delete(0)
    db.insert([6.0])
    new = store.refreshed(db)
    assert new is not None
    copy = pickle.loads(pickle.dumps(new))
    assert_store_equals(copy, FeatureStore.from_database(db))
    assert np.array_equal(copy.values(1), [6.0])


def test_refreshed_declines_a_store_that_is_not_a_prefix():
    db = SequenceDatabase(page_size=256)
    db.insert_many([[1.0], [2.0], [3.0]])
    shuffled = FeatureStore([db.peek(2), db.peek(0)])
    assert shuffled.refreshed(db) is None


def test_refreshed_uncharged_reads_nothing():
    db = SequenceDatabase(page_size=256)
    db.insert_many([[1.0, 2.0], [3.0]])
    store = FeatureStore.from_contents(db)
    db.insert([4.0, 5.0])
    before = db.io.snapshot()
    refreshed = store.refreshed(db, charged=False)
    assert refreshed is not None and len(refreshed) == 3
    assert db.io.snapshot() == before


def test_init_features_equal_per_sequence_extraction():
    rng = np.random.default_rng(2)
    rows = [rng.normal(size=int(rng.integers(1, 30))) for _ in range(25)]
    store = FeatureStore(rows)
    expected = np.array([extract_feature(r).as_tuple() for r in rows])
    assert np.array_equal(store.features, expected)
    assert [len(s) for s in store.sequences] == [len(r) for r in rows]


@pytest.mark.parametrize("method_cls", [LBScan, CascadeScan])
def test_scan_methods_refresh_but_keep_their_scan_charge(method_cls):
    rng = np.random.default_rng(6)
    db = SequenceDatabase(page_size=256)
    db.insert_many([rng.normal(size=12).cumsum() for _ in range(20)])
    method = method_cls(db)
    method.build()
    query = rng.normal(size=12).cumsum()
    method.search(query, 1.5)
    db.insert(rng.normal(size=12).cumsum())
    db.delete(3)
    registry = MetricsRegistry()
    with use_registry(registry):
        report = method.search(query, 1.5)
    counters = registry.snapshot().counters
    assert counters["storage.scans"] == 1
    assert counters.get("storage.fetches", 0) == 0
    assert_store_equals(method._cascade.store, FeatureStore.from_contents(db))
    oracle = FilterCascade(FeatureStore.from_contents(db)).run(query, 1.5)
    assert report.answers == oracle.answer_ids


def test_concurrent_readers_refresh_once():
    """Readers racing on a stale key refresh the store exactly once."""
    rng = np.random.default_rng(12)
    db = SequenceDatabase(page_size=256)
    engine = QueryEngine(db, "rtree")
    engine.bulk_insert([rng.normal(size=10).cumsum() for _ in range(40)])
    engine.search(rng.normal(size=10).cumsum(), 1.0)
    readers = 8
    start = threading.Barrier(readers)

    def read() -> FilterCascade:
        start.wait(timeout=60)
        return engine._active_cascade()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=readers) as pool:
            for round_ in range(40):
                added = 1 + round_ % 5
                for _ in range(added):
                    engine.insert(rng.normal(size=10).cumsum())
                engine.delete(db.ids()[0])
                before = db.io.snapshot()
                futures = [pool.submit(read) for _ in range(readers)]
                cascades = {id(f.result(timeout=60)) for f in futures}
                assert len(cascades) == 1
                # One refresh: one random fetch per added row, no scan.
                random_pages = db.io.random_pages - before[1]
                assert random_pages == sum(
                    len(db._store.pages_of(seq_id))
                    for seq_id in db.ids()[-added:]
                )
                assert db.io.sequential_pages == before[0]
    finally:
        sys.setswitchinterval(interval)
    assert_store_equals(
        engine._active_cascade().store, FeatureStore.from_contents(db)
    )
