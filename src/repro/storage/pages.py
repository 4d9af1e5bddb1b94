"""Byte-level paged heap store for sequences — the ``heap`` oracle.

Sequences are serialized with a fixed binary layout and appended to a
growing page file.  Records are *spanned*: a long sequence occupies a
contiguous byte range that may cross page boundaries, and the page span
of any record is derived from its byte offsets — this is what converts
logical reads into page-access counts for the disk model.  Every other
registered :class:`~repro.storage.store.SequenceStore` replicates this
byte arithmetic logically, which is why the heap store doubles as the
parity oracle.

Record layout (little-endian)::

    u64  sequence id
    u32  element count n
    f64  elements[n]

The file can be persisted to and re-loaded from a real file on disk, so
databases survive process restarts.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import ClassVar, Iterator

import numpy as np

from ..exceptions import SequenceNotFoundError, StorageError, ValidationError
from ..types import Sequence, as_array
from .store import SequenceStore, register_store

__all__ = ["HeapSequenceStore", "SequenceHeapFile"]

_HEADER = struct.Struct("<QI")  # sequence id, element count
#: File magic; the byte after it is the format version.
_MAGIC = b"RPRS"
#: Version 1 wrote the whole buffer, tombstones included; version 2
#: writes live records only plus the logical end (see :meth:`save`).
_V1, _V2 = b"\x01", b"\x02"
_V2_HEADER = struct.Struct("<IQI")  # page size, logical end, record count
_DIR_ENTRY = struct.Struct("<QQQ")  # sequence id, offset, length


@register_store
class HeapSequenceStore(SequenceStore):
    """Append-only heap file of serialized sequences on fixed-size pages."""

    name: ClassVar[str] = "heap"
    magic: ClassVar[bytes] = _MAGIC

    def __init__(self, page_size: int = 1024) -> None:
        if page_size < _HEADER.size + 8:
            raise ValidationError(
                f"page_size {page_size} too small for a record header"
            )
        self._page_size = page_size
        self._buf = bytearray()
        self._offsets: dict[int, tuple[int, int]] = {}  # id -> (offset, length)
        self._order: list[int] = []  # ids in physical order

    # -- geometry -----------------------------------------------------------

    @property
    def page_size(self) -> int:
        """Bytes per page."""
        return self._page_size

    @property
    def total_bytes(self) -> int:
        """Bytes currently stored."""
        return len(self._buf)

    @property
    def total_pages(self) -> int:
        """Pages the file occupies (ceiling of bytes / page size)."""
        return -(-len(self._buf) // self._page_size) if self._buf else 0

    def pages_of(self, seq_id: int) -> range:
        """The page numbers a stored record spans."""
        offset, length = self._locate(seq_id)
        first = offset // self._page_size
        last = (offset + length - 1) // self._page_size
        return range(first, last + 1)

    def _locate(self, seq_id: int) -> tuple[int, int]:
        try:
            return self._offsets[seq_id]
        except KeyError:
            raise SequenceNotFoundError(f"sequence {seq_id} is not stored") from None

    # -- writes -----------------------------------------------------------------

    def append(self, seq_id: int, values: np.ndarray) -> range:
        """Serialize and append one sequence; returns its page span."""
        if seq_id in self._offsets:
            raise StorageError(f"sequence {seq_id} already stored")
        if seq_id < 0:
            raise ValidationError(f"seq_id must be non-negative, got {seq_id}")
        arr = as_array(values, allow_empty=False)
        record = _HEADER.pack(seq_id, arr.size) + arr.astype("<f8").tobytes()
        offset = len(self._buf)
        self._buf.extend(record)
        self._offsets[seq_id] = (offset, len(record))
        self._order.append(seq_id)
        return self.pages_of(seq_id)

    def remove(self, seq_id: int) -> int:
        """Drop a record from the directory; returns the bytes tombstoned.

        The record's bytes stay in the file (append-only heap) until
        :meth:`compact` reclaims them — the standard tombstone scheme.
        """
        _offset, length = self._locate(seq_id)
        del self._offsets[seq_id]
        self._order.remove(seq_id)
        return length

    def compact(self) -> int:
        """Rewrite the file dropping tombstoned space; returns bytes freed.

        Offsets of surviving records change; page spans are recomputed
        implicitly because they derive from the offsets.
        """
        new_buf = bytearray()
        new_offsets: dict[int, tuple[int, int]] = {}
        for seq_id in self._order:
            offset, length = self._offsets[seq_id]
            new_offsets[seq_id] = (len(new_buf), length)
            new_buf += self._buf[offset : offset + length]
        freed = len(self._buf) - len(new_buf)
        self._buf = new_buf
        self._offsets = new_offsets
        return freed

    # -- reads ---------------------------------------------------------------------

    def __contains__(self, seq_id: int) -> bool:
        return seq_id in self._offsets

    def __len__(self) -> int:
        return len(self._offsets)

    def ids(self) -> list[int]:
        """Stored ids in physical (insertion) order."""
        return list(self._order)

    def read(self, seq_id: int) -> Sequence:
        """Deserialize one sequence by id."""
        offset, length = self._locate(seq_id)
        return self._decode(offset, length, expect_id=seq_id)

    def scan(self) -> Iterator[Sequence]:
        """Iterate all sequences in physical order (a sequential scan)."""
        for seq_id in self._order:
            offset, length = self._offsets[seq_id]
            yield self._decode(offset, length, expect_id=seq_id)

    def _decode(self, offset: int, length: int, *, expect_id: int) -> Sequence:
        header = self._buf[offset : offset + _HEADER.size]
        seq_id, count = _HEADER.unpack(bytes(header))
        if seq_id != expect_id:
            raise StorageError(
                f"corrupt record: expected id {expect_id}, found {seq_id}"
            )
        body_size = count * 8
        if _HEADER.size + body_size != length:
            raise StorageError(
                f"corrupt record {seq_id}: length {length} does not match "
                f"element count {count}"
            )
        start = offset + _HEADER.size
        values = np.frombuffer(
            bytes(self._buf[start : start + body_size]), dtype="<f8"
        )
        return Sequence(values, seq_id=seq_id)

    # -- persistence ------------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the live records, with their directory, to a real file.

        Tombstoned bytes are not written: each live record is streamed
        from a view of the buffer, with no whole-buffer copy.  The
        directory keeps every record's *logical* ``(id, offset,
        length)`` triple and the header the logical end, so
        :meth:`load` restores the exact page geometry (tombstoned space
        persists until :meth:`compact`, as in the ``mmap`` store).

        Layout: magic ``RPRS``, version ``\\x02``, ``u32`` page size,
        ``u64`` logical end, ``u32`` record count, one ``u64`` triple
        per record, then the live records back to back in directory
        order.
        """
        with open(Path(path), "wb") as f, memoryview(self._buf) as view:
            f.write(_MAGIC + _V2)
            f.write(
                _V2_HEADER.pack(self._page_size, len(self._buf), len(self._order))
            )
            for seq_id in self._order:
                offset, length = self._offsets[seq_id]
                f.write(_DIR_ENTRY.pack(seq_id, offset, length))
            for seq_id in self._order:
                offset, length = self._offsets[seq_id]
                f.write(view[offset : offset + length])

    @classmethod
    def load(cls, path: str | Path) -> "HeapSequenceStore":
        """Re-open a heap file written by :meth:`save` (either version).

        Version-2 files hold live records only; they are re-inflated
        at their logical offsets, with zeroed tombstone holes, so page
        spans and total pages equal those before the save.  Corrupt or
        truncated files raise :class:`~repro.exceptions.StorageError`
        with the path in the message; low-level
        ``struct.error``/``OSError`` never escape.
        """
        path = Path(path)
        try:
            with open(path, "rb") as f:
                data = f.read()
        except OSError as error:
            raise StorageError(
                f"cannot read heap store {path}: {error}"
            ) from error
        version = data[len(_MAGIC) : len(_MAGIC) + 1]
        if data[: len(_MAGIC)] != _MAGIC or version not in (_V1, _V2):
            raise StorageError(f"{path} is not a repro heap file")
        try:
            pos = len(_MAGIC) + 1
            if version == _V1:
                page_size, count = struct.unpack_from("<II", data, pos)
                pos += 8
                end = None
            else:
                page_size, end, count = _V2_HEADER.unpack_from(data, pos)
                pos += _V2_HEADER.size
            heap = cls(page_size=page_size)
            entries = []
            for _ in range(count):
                entries.append(_DIR_ENTRY.unpack_from(data, pos))
                pos += _DIR_ENTRY.size
        except struct.error as error:
            raise StorageError(
                f"heap store {path} is truncated or corrupt: {error}"
            ) from error
        if end is None:
            heap._buf = bytearray(data[pos:])
        else:
            try:
                heap._buf = bytearray(end)
            except (MemoryError, OverflowError) as error:
                raise StorageError(
                    f"heap store {path} is corrupt: logical end {end} "
                    f"cannot be allocated"
                ) from error
            with memoryview(data) as source:
                for seq_id, offset, length in entries:
                    if pos + length > len(data) or offset + length > end:
                        raise StorageError(
                            f"heap store {path} is truncated: record "
                            f"{seq_id} does not fit its data section"
                        )
                    heap._buf[offset : offset + length] = source[pos : pos + length]
                    pos += length
        for seq_id, offset, length in entries:
            if offset + length > len(heap._buf):
                raise StorageError(
                    f"heap store {path} is truncated: record {seq_id} "
                    f"ends at byte {offset + length} of a "
                    f"{len(heap._buf)}-byte data section"
                )
            heap._offsets[seq_id] = (offset, length)
            heap._order.append(seq_id)
        return heap


#: Historical name of the heap store (pre store-registry API).
SequenceHeapFile = HeapSequenceStore
