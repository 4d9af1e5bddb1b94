"""Vectorized lower-bound filter cascade over a precomputed store.

The paper's pipeline is "cheap lower bound -> candidate set -> exact DTW
verify".  This module packages that pipeline as a *staged cascade* whose
cheap tiers run as whole-database NumPy matrix operations instead of
per-sequence Python loops:

1. ``lb_yi``  — Yi et al.'s bound, which under the Definition-2
   (``L_inf``) distance depends only on the Greatest/Smallest features:
   a 2-column comparison against the ``(n, 4)`` feature matrix.
2. ``lb_kim`` — the paper's ``D_tw-lb`` (LB_Kim): all four feature
   columns.  ``LB_Yi <= LB_Kim <= D_tw`` holds pointwise, which is why
   the looser, cheaper tier runs first — in the reverse order the Yi
   tier could never prune anything.
3. ``lb_keogh`` — the envelope bound, evaluated as one matrix operation
   per equal-length group of the store.  LB_Keogh bounds the
   *band-constrained* DTW, which only exceeds the unconstrained one, so
   this tier is sound (and therefore active) only for band-constrained
   searches; sequences whose length differs from the query's pass
   through unfiltered (the classical bound requires equal lengths).
4. ``dtw`` — exact verification of the survivors: one bounded pass
   per equal-length stack of them (:meth:`FeatureStore.length_stacks`,
   ``dtw_max_early_abandon(..., stacked=True)``), the same verify the
   engine's index path runs, so every answer carries its exact distance.

Every tier admits a superset of the exact answer set (no false
dismissal); tier comparisons are made inclusive by the same float-safety
margin the R-tree query rectangle uses (:func:`~repro.core.lower_bound.
filter_margin`), so the guarantee survives floating point at the
knife edge ``lb == eps``.

:class:`FeatureStore` holds the precomputed per-sequence state (feature
matrix, raw values, equal-length value stacks); :class:`FilterCascade`
runs queries through the tiers and reports per-stage pruning counters as
a :class:`CascadeStats`.  :meth:`FilterCascade.run_many` answers a batch
of queries at once, amortizing feature extraction and evaluating the
feature tiers as a single ``(queries x sequences)`` matrix comparison
per block.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence as TypingSequence

import numpy as np

from ..distance.bands import Window, sakoe_chiba_window
from ..distance.dtw import dtw_max_early_abandon
from ..distance.lb_keogh import lb_keogh_batch, warping_envelope
from ..exceptions import ValidationError
from ..obs.metrics import active_registry, timed
from ..storage.database import SequenceDatabase
from ..types import Sequence, SequenceLike, as_array, as_sequence, check_epsilon
from .features import extract_feature
from .lower_bound import filter_margin

__all__ = [
    "TIER_YI",
    "TIER_KIM",
    "TIER_KEOGH",
    "STAGE_DTW",
    "DEFAULT_TIERS",
    "StageStats",
    "charged_stage",
    "CascadeStats",
    "FeatureStore",
    "length_groups",
    "CascadeOutcome",
    "FilterCascade",
    "verify_stage",
    "scan_cascade",
]

#: Stage names, in cascade order (loosest/cheapest bound first).
TIER_YI = "lb_yi"
TIER_KIM = "lb_kim"
TIER_KEOGH = "lb_keogh"
STAGE_DTW = "dtw"

DEFAULT_TIERS: tuple[str, ...] = (TIER_YI, TIER_KIM, TIER_KEOGH)

#: Feature-matrix columns each feature tier compares (paper column
#: order: first, last, greatest, smallest).  Stored as index arrays so
#: the batched kernel can fancy-index without per-query conversion.
_TIER_COLUMNS: dict[str, np.ndarray] = {
    TIER_YI: np.array((2, 3), dtype=np.intp),
    TIER_KIM: np.array((0, 1, 2, 3), dtype=np.intp),
}

#: Cap on ``queries x sequences x 4`` float64 cells materialized per
#: block of the batched feature-tier kernel (~256 MB).
_BATCH_CELL_LIMIT = 8_000_000


@dataclass(frozen=True)
class StageStats:
    """Pruning record of one cascade stage.

    Attributes
    ----------
    name:
        Stage identifier (``lb_yi``, ``lb_kim``, ``lb_keogh``, ``dtw``,
        or a method-specific stage such as the R-tree range query).
    n_in:
        Sequences entering the stage.
    n_out:
        Sequences surviving it.
    """

    name: str
    n_in: int
    n_out: int

    @property
    def pruned(self) -> int:
        """Sequences the stage eliminated."""
        return self.n_in - self.n_out

    @property
    def survival_ratio(self) -> float:
        """``n_out / n_in`` (1.0 for an empty input)."""
        return self.n_out / self.n_in if self.n_in else 1.0


def charged_stage(name: str, n_in: int, n_out: int) -> StageStats:
    """Build a :class:`StageStats`, charging it to the ambient registry.

    Every pruning stage in the codebase — cascade tiers, backend range
    queries, method-specific filters, the DTW verify stage — constructs
    its record through this helper, so the registry counters
    ``cascade.<stage>.in`` / ``.out`` / ``.pruned`` and the legacy
    :class:`CascadeStats` view are two readings of the same charge.
    """
    registry = active_registry()
    if registry is not None:
        registry.count(f"cascade.{name}.in", n_in)
        registry.count(f"cascade.{name}.out", n_out)
        registry.count(f"cascade.{name}.pruned", n_in - n_out)
    return StageStats(name, n_in, n_out)


@dataclass
class CascadeStats:
    """Per-stage pruning counters of one (or many merged) searches."""

    stages: list[StageStats]

    @property
    def total_in(self) -> int:
        """Sequences entering the first stage."""
        return self.stages[0].n_in if self.stages else 0

    @property
    def final_out(self) -> int:
        """Sequences surviving the last stage."""
        return self.stages[-1].n_out if self.stages else 0

    def stage(self, name: str) -> StageStats:
        """The stage called *name*; raises ``KeyError`` when absent."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(name)  # repro-lint: disable=RL004 -- mapping protocol

    def survival_by_stage(self) -> dict[str, float]:
        """``{stage name: survival ratio}`` in cascade order."""
        return {s.name: s.survival_ratio for s in self.stages}

    def candidate_ratios(self, database_size: int) -> dict[str, float]:
        """Figure-2-style ratios: each stage's survivors over *database_size*."""
        if database_size <= 0:
            raise ValidationError(
                f"database_size must be positive, got {database_size}"
            )
        return {s.name: s.n_out / database_size for s in self.stages}

    @staticmethod
    def merge(many: Iterable["CascadeStats"]) -> "CascadeStats":
        """Sum several runs' counters stage-by-stage (aligned by name)."""
        order: list[str] = []
        totals: dict[str, list[int]] = {}
        for stats in many:
            for stage in stats.stages:
                if stage.name not in totals:
                    order.append(stage.name)
                    totals[stage.name] = [0, 0]
                totals[stage.name][0] += stage.n_in
                totals[stage.name][1] += stage.n_out
        return CascadeStats(
            [StageStats(name, *totals[name]) for name in order]
        )


def _row_features(values_flat: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The ``(n, 4)`` feature matrix of the rows packed in *values_flat*.

    Vectorized over the record boundaries *offsets* (``(n + 1,)``
    prefix-sum): first/last by fancy-indexing, greatest/smallest with
    ``reduceat``.  Bit identical to the per-sequence
    :func:`~repro.core.features.extract_feature` because max/min are
    exact regardless of association order and stored values are
    validated finite on insert.
    """
    n = offsets.size - 1
    features = np.empty((n, 4), dtype=np.float64)
    if n:
        starts = offsets[:-1]
        features[:, 0] = values_flat[starts]
        features[:, 1] = values_flat[offsets[1:] - 1]
        features[:, 2] = np.maximum.reduceat(values_flat, starts)
        features[:, 3] = np.minimum.reduceat(values_flat, starts)
    return features


def _packed_rows(
    sequences: list[Sequence],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(lengths, offsets, values_flat)`` of *sequences* packed back to back."""
    n = len(sequences)
    lengths = np.fromiter(
        (len(seq) for seq in sequences), dtype=np.int64, count=n
    )
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    values_flat = (
        np.concatenate([seq.values for seq in sequences])
        if n
        else np.empty(0, dtype=np.float64)
    )
    return lengths, offsets, values_flat


def length_groups(lengths: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Group the positions of *lengths* by value, for a stacked verify.

    Yields ``(length, positions)`` per distinct length, in order of first
    appearance, with the positions in ascending order — the one grouping
    rule every stacked verify follows.
    """
    for length in dict.fromkeys(lengths.tolist()):
        yield length, np.flatnonzero(lengths == length)


class FeatureStore:
    """Precomputed per-sequence state the cascade's cheap tiers read.

    The store is *buffer-backed*: every per-sequence value lives in one
    of five packed arrays — ``ids``/``lengths`` (``(n,)`` int64), the
    ``(n, 4)`` float64 ``features`` matrix, the ``(n + 1,)`` int64
    ``offsets`` prefix-sum, and the concatenated float64 ``values_flat``
    element buffer.  :meth:`sequence` builds a zero-copy
    :class:`~repro.types.Sequence` view into
    ``values_flat[offsets[row]:offsets[row + 1]]`` on demand.  Because
    the whole store is five flat buffers, it can be re-hosted on any
    backing memory (notably a :mod:`multiprocessing.shared_memory`
    segment, via :meth:`packed` / :meth:`from_packed`) without touching
    the cascade kernels.  :meth:`length_stacks` gathers the ``(k, L)``
    value stacks a stacked verify reads, per call.

    A store is immutable once built: :meth:`refreshed` applies a
    database's write delta into a *new* store, so readers holding the
    old one are never disturbed.  A refreshed store holds its rows as
    separate read-only arrays shared with its predecessor, and packs
    ``values_flat`` from them only when something reads it.
    """

    __slots__ = (
        "ids",
        "features",
        "lengths",
        "offsets",
        "_values_flat",
        "_rows",
        "_labels",
        "_sequences",
        "_row_of",
        "_cache_lock",
    )

    #: The packed-array fields, in :meth:`packed` export order.
    PACKED_FIELDS = ("ids", "features", "lengths", "offsets", "values_flat")

    def __init__(self, sequences: Iterable[SequenceLike]) -> None:
        seqs: list[Sequence] = []
        for position, item in enumerate(sequences):
            seq = as_sequence(item)
            if len(seq) == 0:
                raise ValidationError("cannot index an empty sequence")
            if seq.seq_id is None:
                seq = as_sequence(seq.values, seq_id=position)
            seqs.append(seq)
        ids = np.fromiter(
            (seq.seq_id for seq in seqs), dtype=np.int64, count=len(seqs)
        )
        lengths, offsets, values_flat = _packed_rows(seqs)
        self._adopt(
            ids,
            _row_features(values_flat, offsets),
            lengths,
            offsets,
            values_flat,
            [seq.label for seq in seqs],
        )

    def _adopt(
        self,
        ids: np.ndarray,
        features: np.ndarray,
        lengths: np.ndarray,
        offsets: np.ndarray,
        values_flat: np.ndarray | None,
        labels: list[str | None] | None = None,
        rows: list[np.ndarray] | None = None,
    ) -> None:
        """Bind the packed arrays; sequence views are built on demand.

        A store built by :meth:`refreshed` passes its per-row value
        arrays as *rows* and no *values_flat*; the element buffer is
        then concatenated on first use of :attr:`values_flat`.
        """
        if values_flat is not None:
            values_flat.flags.writeable = False
        self.ids = ids
        self.features = features
        self.lengths = lengths
        self.offsets = offsets
        self._values_flat = values_flat
        self._rows = rows
        self._labels = labels
        self._sequences: list[Sequence] | None = None
        self._row_of: dict[int, int] | None = None
        # Shard thread pools share one store; the lazy caches build
        # under this lock so concurrent queries never double-build.
        self._cache_lock = threading.Lock()

    def __getstate__(self) -> dict[str, object]:
        # Slots class: pickle everything except the lock, which is
        # per-process state, and the view and row caches, which would
        # pickle a copy of every row; the rows travel packed.
        state = {
            name: getattr(self, name)
            for name in self.__slots__
            if name not in ("_cache_lock", "_sequences", "_rows")
        }
        state["_values_flat"] = self.values_flat
        return state

    def __setstate__(self, state: dict[str, object]) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._sequences = None
        self._rows = None
        self._cache_lock = threading.Lock()

    @property
    def values_flat(self) -> np.ndarray:
        """The concatenated float64 element buffer (read-only).

        A refreshed store holds its rows as separate arrays and packs
        them here on first use; every other store was built over it.
        """
        flat = self._values_flat
        if flat is None:
            with self._cache_lock:
                flat = self._values_flat
                if flat is None:
                    assert self._rows is not None
                    flat = (
                        np.concatenate(self._rows)
                        if self._rows
                        else np.empty(0, dtype=np.float64)
                    )
                    flat.flags.writeable = False
                    self._values_flat = flat
        return flat

    def packed(self) -> dict[str, np.ndarray]:
        """The five packed arrays, keyed by :attr:`PACKED_FIELDS` name.

        The returned arrays *are* the store's buffers (no copy); callers
        exporting them into a shared segment copy out themselves.
        Sequence labels are not part of the packed form.
        """
        return {name: getattr(self, name) for name in self.PACKED_FIELDS}

    @classmethod
    def from_packed(
        cls,
        ids: np.ndarray,
        features: np.ndarray,
        lengths: np.ndarray,
        offsets: np.ndarray,
        values_flat: np.ndarray,
    ) -> "FeatureStore":
        """Re-host a store on existing packed arrays, zero-copy.

        The arrays are adopted as-is (they may be views into a
        :mod:`multiprocessing.shared_memory` buffer); no feature
        extraction or concatenation runs.
        """
        self = cls.__new__(cls)
        self._adopt(
            np.asarray(ids, dtype=np.int64),
            np.asarray(features, dtype=np.float64).reshape(len(ids), 4),
            np.asarray(lengths, dtype=np.int64),
            np.asarray(offsets, dtype=np.int64),
            np.asarray(values_flat, dtype=np.float64),
        )
        return self

    @classmethod
    def from_arrays(
        cls,
        ids: np.ndarray,
        lengths: np.ndarray,
        offsets: np.ndarray,
        values_flat: np.ndarray,
    ) -> "FeatureStore":
        """Build a store over an existing dense element buffer, zero-copy.

        The ``(n, 4)`` feature matrix is computed with the same
        vectorized reductions every build path uses.  *values_flat* is
        adopted as-is; it may be a read-only ``numpy.memmap`` over a
        store's data file.
        """
        offsets = np.asarray(offsets, dtype=np.int64)
        values_flat = np.asarray(values_flat, dtype=np.float64)
        self = cls.__new__(cls)
        self._adopt(
            np.asarray(ids, dtype=np.int64),
            _row_features(values_flat, offsets),
            np.asarray(lengths, dtype=np.int64),
            offsets,
            values_flat,
        )
        return self

    @classmethod
    def from_database(cls, db: SequenceDatabase) -> "FeatureStore":
        """Build the store with one sequential scan of *db*.

        The scan charges the database's simulated I/O accounting once,
        like any other index build pass.  When the database's store can
        serve its element buffer dense (see
        :meth:`~repro.storage.database.SequenceDatabase.dense_arrays`),
        the store is built zero-copy over it instead of re-concatenating
        per-sequence copies — same charge, same arrays, no copies.
        """
        scan = db.scan()  # charges the sequential read up front
        dense = db.dense_arrays()
        if dense is not None:
            ids, lengths, offsets, values_flat = dense
            return cls.from_arrays(ids, lengths, offsets, values_flat)
        return cls(scan)

    @classmethod
    def from_contents(cls, db: SequenceDatabase) -> "FeatureStore":
        """Build the store from *db* without charging any I/O.

        The replication/publication counterpart of
        :meth:`from_database` (see
        :meth:`~repro.storage.database.SequenceDatabase.contents`):
        used when shipping a shard's contents to worker processes,
        where the simulated cost model must not see the read.
        """
        dense = db.dense_arrays()
        if dense is not None:
            ids, lengths, offsets, values_flat = dense
            return cls.from_arrays(ids, lengths, offsets, values_flat)
        return cls(db.contents())

    def refreshed(
        self, db: SequenceDatabase, *, charged: bool = True
    ) -> "FeatureStore | None":
        """A new store mirroring *db*, built from the write delta alone.

        Rows whose ids *db* still stores are kept: their small per-row
        arrays are gathered with one mask and their value arrays are
        shared, so no element buffer is copied.  The ids past that kept
        prefix of ``db.ids()`` are read one by one — with the charged
        :meth:`~repro.storage.database.SequenceDatabase.fetch` (the only
        I/O a refresh does) unless *charged* is false — into one block
        per refresh, and their features computed by the same reductions
        as a full build.  A row's values thus stay a view of the buffer
        they were first stored in (a full build's ``values_flat`` or one
        refresh's block), never of a packed ``values_flat`` of a later
        store, so generations do not pin each other.  The packed arrays
        equal :meth:`from_database`'s on *db*, bit for bit; this store
        is left untouched, so readers still holding it stay valid.
        ``None`` when the kept ids are not a prefix of *db*'s ids (the
        store does not mirror an earlier state of *db*): the caller then
        falls back to a full build.
        """
        db_ids = np.asarray(db.ids(), dtype=np.int64)
        keep = np.isin(self.ids, db_ids)
        n_kept = int(np.count_nonzero(keep))
        if not np.array_equal(self.ids[keep], db_ids[:n_kept]):
            return None
        read = db.fetch if charged else db.peek
        added = [read(int(seq_id)) for seq_id in db_ids[n_kept:]]
        added_lengths, added_offsets, added_values = _packed_rows(added)
        added_values.flags.writeable = False
        lengths = np.concatenate([self.lengths[keep], added_lengths])
        offsets = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        features = np.concatenate(
            [self.features[keep], _row_features(added_values, added_offsets)]
        )
        rows = [self.values(row) for row in np.flatnonzero(keep).tolist()]
        bounds = added_offsets.tolist()
        rows += [added_values[a:b] for a, b in zip(bounds, bounds[1:])]
        store = type(self).__new__(type(self))
        store._adopt(db_ids, features, lengths, offsets, None, rows=rows)
        return store

    def __len__(self) -> int:
        return len(self.ids)

    def matches(self, db: SequenceDatabase) -> bool:
        """True when the store still mirrors *db*'s contents.

        Ids are never reused and stored sequences are immutable, so id
        equality implies content equality.
        """
        ids = db.ids()
        return len(ids) == len(self.ids) and bool(
            np.array_equal(self.ids, np.asarray(ids, dtype=np.int64))
        )

    def sequence(self, row: int) -> Sequence:
        """Zero-copy :class:`~repro.types.Sequence` view of *row*.

        Built on demand, without re-validating values already validated
        on insert; the view keeps only this store's buffer alive.
        """
        return Sequence.trusted(
            self.values(row),
            seq_id=int(self.ids[row]),
            label=self._labels[row] if self._labels is not None else None,
        )

    @property
    def sequences(self) -> list[Sequence]:
        """Every row's :meth:`sequence` view, materialized on first use."""
        result = self._sequences
        if result is None:
            with self._cache_lock:
                result = self._sequences
                if result is None:
                    result = [self.sequence(row) for row in range(len(self))]
                    self._sequences = result
        return result

    def rows_for(self, seq_ids: Iterable[int]) -> np.ndarray:
        """Store rows of the given sequence ids (unknown ids are skipped)."""
        row_of = self._row_of
        if row_of is None:
            with self._cache_lock:
                row_of = self._row_of
                if row_of is None:
                    row_of = dict(zip(self.ids.tolist(), range(len(self))))
                    self._row_of = row_of
        rows = [row_of[sid] for sid in seq_ids if sid in row_of]
        return np.asarray(rows, dtype=np.int64)

    def length_stacks(
        self,
        rows: np.ndarray,
        query_length: int,
        band_radius: int | None = None,
    ) -> Iterator[tuple[np.ndarray, np.ndarray, Window | None]]:
        """Split *rows* into equal-length stacks for a stacked verify.

        Yields ``(group, values, window)`` per distinct length, in order
        of first appearance in *rows*: the group's rows in *rows* order,
        their ``(k, length)`` value matrix, and the Sakoe–Chiba window
        of a ``length x query_length`` fill at *band_radius* (``None``
        when unbanded).
        """
        for length, picks in length_groups(self.lengths[rows]):
            group = rows[picks]
            window = (
                None
                if band_radius is None
                else sakoe_chiba_window(length, query_length, band_radius)
            )
            yield group, np.stack([self.values(int(r)) for r in group]), window

    def values(self, row: int) -> np.ndarray:
        """Raw element array of the sequence at *row* (a read-only view)."""
        rows = self._rows
        if rows is not None:
            return rows[row]
        return self.values_flat[self.offsets[row] : self.offsets[row + 1]]


@dataclass
class CascadeOutcome:
    """Everything one cascade search produced.

    ``candidate_ids`` are the survivors of the last lower-bound tier
    (the Figure-2 candidate set); ``answer_ids`` the sequences whose
    exact distance verified within tolerance.  ``distances`` maps answer
    id to its exact distance.
    """

    answer_ids: list[int]
    distances: dict[int, float]
    candidate_ids: list[int]
    stats: CascadeStats


def verify_stage(
    candidates: TypingSequence[int],
    verifier: Callable[[int], float],
    epsilon: float,
) -> tuple[list[int], dict[int, float], StageStats]:
    """The cascade's final tier: exact verification of *candidates*.

    *verifier* maps a candidate sequence id to its verified distance —
    ``inf`` when it exceeds tolerance.  The index methods'
    post-processing fetches and verifies one candidate at a time
    through it; the cascade verifies its store rows in stacks
    (:meth:`FilterCascade.run`).  Both charge the same ``dtw``
    :class:`StageStats` and ``dtw.verifications`` counter.
    """
    answers: list[int] = []
    distances: dict[int, float] = {}
    with timed("dtw.verify.seconds"):
        for candidate in candidates:
            distance = verifier(candidate)
            if distance <= epsilon:
                answers.append(candidate)
                distances[candidate] = distance
    registry = active_registry()
    if registry is not None:
        registry.count("dtw.verifications", len(candidates))
    return answers, distances, charged_stage(
        STAGE_DTW, len(candidates), len(answers)
    )


class FilterCascade:
    """Staged lower-bound filtering + exact verification over a store.

    Parameters
    ----------
    store:
        The precomputed :class:`FeatureStore`.
    tiers:
        Which lower-bound tiers to run, in order.  Defaults to the full
        ``(lb_yi, lb_kim, lb_keogh)`` cascade; the envelope tier only
        activates when a search passes a band radius.
    """

    def __init__(
        self,
        store: FeatureStore,
        *,
        tiers: TypingSequence[str] = DEFAULT_TIERS,
    ) -> None:
        for tier in tiers:
            if tier not in (TIER_YI, TIER_KIM, TIER_KEOGH):
                raise ValidationError(f"unknown cascade tier {tier!r}")
        self._store = store
        self._tiers = tuple(tiers)

    @classmethod
    def from_database(
        cls, db: SequenceDatabase, **kwargs
    ) -> "FilterCascade":
        """Build store and cascade from *db* in one sequential scan."""
        return cls(FeatureStore.from_database(db), **kwargs)

    def refreshed(
        self, db: SequenceDatabase, *, charged: bool = True
    ) -> "FilterCascade | None":
        """These tiers over :meth:`FeatureStore.refreshed` of *db*."""
        store = self._store.refreshed(db, charged=charged)
        return None if store is None else FilterCascade(store, tiers=self._tiers)

    @property
    def store(self) -> FeatureStore:
        """The precomputed feature/value store."""
        return self._store

    @property
    def tiers(self) -> tuple[str, ...]:
        """The configured lower-bound tiers, in cascade order."""
        return self._tiers

    # -- feature tiers (vectorized) ------------------------------------------

    def filter(
        self,
        query: SequenceLike,
        epsilon: float,
        *,
        rows: np.ndarray | None = None,
        band_radius: int | None = None,
    ) -> tuple[np.ndarray, list[StageStats]]:
        """Run the lower-bound tiers; return surviving rows and stage stats.

        *rows* restricts filtering to a subset of store rows (e.g. the
        R-tree candidates); by default the whole store enters the first
        tier.  Survivors are a superset of every sequence within
        tolerance — the no-false-dismissal guarantee, tier by tier.
        """
        query_arr = as_array(query, allow_empty=False)
        check_epsilon(epsilon)
        if rows is None:
            rows = np.arange(len(self._store), dtype=np.int64)
        else:
            rows = np.asarray(rows, dtype=np.int64)
        query_feature = np.asarray(
            extract_feature(query_arr).as_tuple(), dtype=np.float64
        )
        cutoffs = epsilon + filter_margin(query_feature, epsilon)
        stages: list[StageStats] = []
        for tier in self._tiers:
            n_in = int(rows.size)
            with timed(f"cascade.{tier}.seconds"):
                if tier in _TIER_COLUMNS:
                    cols = list(_TIER_COLUMNS[tier])
                    diffs = np.abs(
                        self._store.features[np.ix_(rows, cols)]
                        - query_feature[cols]
                    )
                    keep = (diffs <= cutoffs[cols]).all(axis=1)
                    rows = rows[keep]
                elif band_radius is not None:
                    rows = self._keogh_tier(
                        rows, query_arr, epsilon, band_radius
                    )
            stages.append(charged_stage(tier, n_in, int(rows.size)))
        return rows, stages

    def _keogh_tier(
        self,
        rows: np.ndarray,
        query_arr: np.ndarray,
        epsilon: float,
        band_radius: int,
    ) -> np.ndarray:
        """Envelope tier: prune equal-length rows whose LB_Keogh exceeds eps.

        Rows of any other length pass through — the classical bound is
        only defined for equal lengths, and an unfiltered pass-through
        can never cause a false dismissal.
        """
        if rows.size == 0:
            return rows
        length = int(query_arr.size)
        same_length = self._store.lengths[rows] == length
        group = rows[same_length]
        if group.size == 0:
            return rows
        upper, lower = warping_envelope(query_arr, band_radius)
        matrix = np.stack([self._store.values(int(r)) for r in group])
        bounds = lb_keogh_batch(matrix, upper, lower)
        scale = float(np.abs(query_arr).max())
        keep_group = group[bounds <= epsilon + filter_margin(scale, epsilon)]
        keep = np.concatenate([rows[~same_length], keep_group])
        keep.sort()
        return keep

    # -- single query --------------------------------------------------------

    def run(
        self,
        query: SequenceLike,
        epsilon: float,
        *,
        rows: np.ndarray | None = None,
        band_radius: int | None = None,
    ) -> CascadeOutcome:
        """Filter then verify one query; returns ids, distances and stats."""
        query_arr = as_array(query, allow_empty=False)
        surviving, stages = self.filter(
            query_arr, epsilon, rows=rows, band_radius=band_radius
        )
        return self._verified_outcome(
            surviving, stages, query_arr, epsilon, band_radius
        )

    def _verified_outcome(
        self,
        surviving: np.ndarray,
        stages: list[StageStats],
        query_arr: np.ndarray,
        epsilon: float,
        band_radius: int | None,
    ) -> CascadeOutcome:
        """Verify the filtered *surviving* rows and assemble the outcome.

        One stacked bounded pass per equal-length group of survivors
        (:meth:`FeatureStore.length_stacks`).
        """
        ids = self._store.ids
        distances: dict[int, float] = {}
        with timed("dtw.verify.seconds"):
            for group, stack, window in self._store.length_stacks(
                surviving, query_arr.size, band_radius
            ):
                values = dtw_max_early_abandon(
                    stack, query_arr, epsilon, window=window, stacked=True
                )
                for row, distance in zip(group.tolist(), values.tolist()):
                    if distance <= epsilon:
                        distances[int(ids[row])] = distance
        registry = active_registry()
        if registry is not None:
            registry.count("dtw.verifications", int(surviving.size))
        stages.append(
            charged_stage(STAGE_DTW, int(surviving.size), len(distances))
        )
        return CascadeOutcome(
            answer_ids=sorted(distances),
            distances=distances,
            candidate_ids=sorted(int(ids[r]) for r in surviving),
            stats=CascadeStats(stages),
        )

    # -- batched queries ------------------------------------------------------

    def run_many(
        self,
        queries: TypingSequence[SequenceLike],
        epsilon: float,
        *,
        band_radius: int | None = None,
    ) -> list[CascadeOutcome]:
        """Answer a batch of queries, amortizing the cheap tiers.

        Query features are extracted once into an ``(m, 4)`` matrix and
        the feature tiers evaluate as a single broadcast comparison per
        query block — one ``(block x n x 4)`` kernel instead of ``m``
        per-query passes.  Results are identical to calling :meth:`run`
        per query (the exact verification stage is shared).
        """
        check_epsilon(epsilon)
        query_arrs = [as_array(q, allow_empty=False) for q in queries]
        if not query_arrs:
            return []
        n = len(self._store)
        if n == 0:
            return [
                CascadeOutcome(
                    [],
                    {},
                    [],
                    CascadeStats(
                        [charged_stage(t, 0, 0) for t in self._tiers]
                        + [charged_stage(STAGE_DTW, 0, 0)]
                    ),
                )
                for _ in query_arrs
            ]
        m = len(query_arrs)
        query_features = np.empty((m, 4), dtype=np.float64)
        for i, arr in enumerate(query_arrs):
            query_features[i] = extract_feature(arr).as_tuple()
        cutoffs = epsilon + filter_margin(query_features, epsilon)

        outcomes: list[CascadeOutcome] = []
        block = max(1, _BATCH_CELL_LIMIT // (4 * n))
        # One survivor mask reused (reset in place) across the batch so
        # the per-query loop never touches the allocator.
        mask = np.empty(n, dtype=bool)
        for start in range(0, m, block):
            stop = min(start + block, m)
            # One broadcast kernel for the whole block: (b, n, 4) diffs.
            diffs = np.abs(
                query_features[start:stop, None, :] - self._store.features[None, :, :]
            )
            admitted = diffs <= cutoffs[start:stop, None, :]
            for i in range(start, stop):
                stages: list[StageStats] = []
                mask[:] = True
                for tier in self._tiers:
                    n_in = int(mask.sum())
                    with timed(f"cascade.{tier}.seconds"):
                        if tier in _TIER_COLUMNS:
                            cols = _TIER_COLUMNS[tier]
                            mask &= admitted[i - start][:, cols].all(axis=1)
                            n_out = int(mask.sum())
                        elif band_radius is not None:
                            rows = self._keogh_tier(
                                np.flatnonzero(mask),
                                query_arrs[i],
                                epsilon,
                                band_radius,
                            )
                            mask[:] = False
                            mask[rows] = True
                            n_out = int(rows.size)
                        else:
                            n_out = n_in
                    stages.append(charged_stage(tier, n_in, n_out))
                outcomes.append(
                    self._verified_outcome(
                        np.flatnonzero(mask),
                        stages,
                        query_arrs[i],
                        epsilon,
                        band_radius,
                    )
                )
        return outcomes


def scan_cascade(
    db: SequenceDatabase,
    cached: "FilterCascade | None",
    *,
    tiers: TypingSequence[str] = DEFAULT_TIERS,
) -> "FilterCascade":
    """Charge one sequential scan of *db*; return a cascade mirroring it.

    The scan's I/O is charged whether or not its pages feed the store —
    the scan methods *are* scans.  A *cached* cascade whose store still
    matches the database is reused; a stale one is refreshed from the
    write delta, uncharged since the scan already paid for every page.
    Without a usable cache the store is built from the contents the
    scan paid for.
    Shared by every scan-based search method.
    """
    db.scan()  # charges the sequential read up front
    if cached is not None:
        if cached.store.matches(db):
            return cached
        refreshed = cached.refreshed(db, charged=False)
        if refreshed is not None:
            return refreshed
    return FilterCascade(FeatureStore.from_contents(db), tiers=tuple(tiers))
