"""Heap ``save`` writes live records only, yet keeps the logical geometry.

Deleted records leave tombstoned bytes in the heap buffer until
``compact``.  A save must not write them — the file is header +
directory + live record bytes — but a reload must restore every
record's logical offset, so page spans, total pages and the simulated
scan/fetch charges equal the ``mmap`` store's (which keeps the same
logical triples) and the heap's own before the save.  Files in the
previous format, which wrote the whole buffer, still load.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.exceptions import StorageError
from repro.storage.database import SequenceDatabase
from repro.storage.pages import HeapSequenceStore

#: Magic + version byte, then u32 page size, u64 logical end, u32 count.
_HEADER_BYTES = 5 + 4 + 8 + 4
_ENTRY_BYTES = 24


def _geometry(db: SequenceDatabase) -> dict[str, object]:
    store = db._store
    return {
        "ids": db.ids(),
        "pages": {seq_id: store.pages_of(seq_id) for seq_id in db.ids()},
        "total_pages": db.total_pages,
        "total_bytes": db.total_bytes,
    }


def _charges(db: SequenceDatabase) -> tuple[int, int, int, float]:
    db.io.reset()
    list(db.scan())
    for seq_id in db.ids():
        db.fetch(seq_id)
    return db.io.snapshot()


def _populated(store: str) -> SequenceDatabase:
    rng = np.random.default_rng(21)
    db = SequenceDatabase(page_size=256, store=store)
    db.insert_many(
        [rng.normal(size=int(rng.integers(3, 60))) for _ in range(40)]
    )
    for seq_id in (0, 5, 6, 17, 39):
        db.delete(seq_id)
    return db


@pytest.mark.parametrize("compact", [False, True])
def test_heap_and_mmap_agree_after_delete_save_load(tmp_path, compact):
    heap, mmap = _populated("heap"), _populated("mmap")
    if compact:
        heap.compact()
        mmap.compact()
    before = _geometry(heap)
    heap.save(tmp_path / "heap.db")
    mmap.save(tmp_path / "mmap.db")
    heap2 = SequenceDatabase.load(tmp_path / "heap.db")
    mmap2 = SequenceDatabase.load(tmp_path / "mmap.db")
    assert heap2.store_name == "heap" and mmap2.store_name == "mmap"
    assert _geometry(heap2) == before
    assert _geometry(mmap2) == before
    assert _charges(heap2) == _charges(mmap2) == _charges(heap)
    for seq_id in heap.ids():
        np.testing.assert_array_equal(
            heap2.peek(seq_id).values, heap.peek(seq_id).values
        )


def test_heap_file_holds_only_live_bytes(tmp_path):
    db = _populated("heap")
    path = tmp_path / "heap.db"
    db.save(path)
    live = sum(12 + 8 * len(db.peek(seq_id)) for seq_id in db.ids())
    assert db.total_bytes > live  # tombstones are still in the buffer
    assert path.stat().st_size == (
        _HEADER_BYTES + _ENTRY_BYTES * len(db) + live
    )


def test_heap_loads_the_previous_format(tmp_path):
    """Version-1 files stored the whole buffer, tombstones included."""
    db = _populated("heap")
    store = db._store
    assert isinstance(store, HeapSequenceStore)
    blob = bytearray(b"RPRS\x01" + struct.pack("<II", 256, len(db)))
    for seq_id in db.ids():
        offset, length = store._offsets[seq_id]
        blob += struct.pack("<QQQ", seq_id, offset, length)
    blob += store._buf
    path = tmp_path / "v1.db"
    path.write_bytes(bytes(blob))
    loaded = SequenceDatabase.load(path)
    assert _geometry(loaded) == _geometry(db)
    for seq_id in db.ids():
        np.testing.assert_array_equal(
            loaded.peek(seq_id).values, db.peek(seq_id).values
        )


def test_truncated_heap_file_is_a_storage_error(tmp_path):
    db = _populated("heap")
    path = tmp_path / "heap.db"
    db.save(path)
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(StorageError, match="truncated"):
        SequenceDatabase.load(path)


def test_corrupt_logical_end_is_a_storage_error(tmp_path):
    db = _populated("heap")
    path = tmp_path / "heap.db"
    db.save(path)
    blob = bytearray(path.read_bytes())
    blob[9:17] = struct.pack("<Q", 2**63)  # the logical end field
    path.write_bytes(bytes(blob))
    with pytest.raises(StorageError):
        SequenceDatabase.load(path)
