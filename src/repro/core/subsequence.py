"""Subsequence matching under time warping (paper section 6).

The paper's closing remark: *"Our method is easily applicable to
subsequence matching … It builds the same index on the feature vectors
from subsequences rather than whole sequences."*  This module realizes
that extension: every sliding window of each configured length is
treated as a (sub)sequence, its 4-tuple feature vector is indexed in
the same 4-d R-tree, and a query range-searches exactly as in
Algorithm 1.  Candidate windows are verified with the true ``D_tw``.

Completeness is *relative to the indexed window set*: every indexed
window whose distance is within tolerance is guaranteed to be found (no
false dismissal, by Theorem 1 applied to the window).  Window lengths
default to a small geometric family around the expected query length;
indexing all ``O(n^2)`` windows is possible but rarely useful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence as TypingSequence

import numpy as np

from ..distance.dtw import dtw_max, dtw_max_early_abandon
from ..exceptions import ValidationError
from ..index.rtree.bulk import STRBulkLoader
from ..index.rtree.rtree import RTree
from ..obs.metrics import count as _charge
from ..types import Sequence, SequenceLike, as_sequence, check_epsilon
from .features import extract_feature
from .lower_bound import feature_rect

__all__ = ["SubsequenceIndex", "SubsequenceMatch"]


@dataclass(frozen=True)
class SubsequenceMatch:
    """One matching window of a stored sequence.

    Attributes
    ----------
    seq_id:
        Identifier of the containing sequence.
    start:
        Window start offset within the sequence.
    length:
        Window length in elements.
    distance:
        True time-warping distance of the window to the query.
    """

    seq_id: int
    start: int
    length: int
    distance: float


class SubsequenceIndex:
    """A windowed feature index for subsequence matching.

    Parameters
    ----------
    window_lengths:
        The window sizes to index.  A query may match windows of any
        indexed size (time warping absorbs the length difference).
    stride:
        Offset step between consecutive windows of the same length
        (1 = every position; larger strides trade completeness for
        index size and are reported via :attr:`stride`).
    page_size:
        R-tree page size in bytes.
    """

    def __init__(
        self,
        window_lengths: TypingSequence[int],
        *,
        stride: int = 1,
        page_size: int = 1024,
    ) -> None:
        lengths = sorted(set(int(w) for w in window_lengths))
        if not lengths:
            raise ValidationError("at least one window length is required")
        if lengths[0] < 1:
            raise ValidationError(f"window lengths must be >= 1, got {lengths[0]}")
        if stride < 1:
            raise ValidationError(f"stride must be >= 1, got {stride}")
        self._lengths = lengths
        self._stride = stride
        self._page_size = page_size
        self._tree: RTree | None = None
        self._loader = STRBulkLoader(4, page_size=page_size)
        # Window registry: record id -> (seq_id, start, length).
        self._windows: list[tuple[int, int, int]] = []
        self._values: dict[int, np.ndarray] = {}

    # -- population -------------------------------------------------------------

    @property
    def window_lengths(self) -> list[int]:
        """The indexed window sizes."""
        return list(self._lengths)

    @property
    def stride(self) -> int:
        """Step between indexed window offsets."""
        return self._stride

    @property
    def window_count(self) -> int:
        """Number of indexed windows."""
        return len(self._windows)

    def add(self, sequence: SequenceLike, *, seq_id: int | None = None) -> int:
        """Register a sequence's windows; returns the id used.

        Must be called before :meth:`build`.
        """
        if self._tree is not None:
            raise ValidationError("index already built; create a new one to add")
        seq = as_sequence(sequence)
        if len(seq) == 0:
            raise ValidationError("cannot index an empty sequence")
        if seq_id is None:
            seq_id = seq.seq_id if seq.seq_id is not None else len(self._values)
        if seq_id in self._values:
            raise ValidationError(f"sequence id {seq_id} already added")
        values = np.asarray(seq.values)
        self._values[seq_id] = values
        n = values.size
        for length in self._lengths:
            if length > n:
                continue
            for start in range(0, n - length + 1, self._stride):
                window = values[start : start + length]
                record = len(self._windows)
                self._windows.append((seq_id, start, length))
                self._loader.add(
                    extract_feature(window).as_tuple(), record
                )
        return seq_id

    def add_many(self, sequences: Iterable[SequenceLike]) -> list[int]:
        """Register several sequences; returns their ids."""
        return [self.add(seq) for seq in sequences]

    def build(self) -> "SubsequenceIndex":
        """STR-pack the window features; returns ``self``."""
        if self._tree is not None:
            raise ValidationError("index already built")
        if not self._windows:
            raise ValidationError("no windows to index; add sequences first")
        self._tree = self._loader.build()
        return self

    # -- querying ------------------------------------------------------------------

    def search(
        self, query: SequenceLike, epsilon: float
    ) -> list[SubsequenceMatch]:
        """All indexed windows with ``D_tw(window, Q) <= epsilon``.

        Sorted by ascending distance, then position.  Overlapping
        matches are all reported; callers wanting maximal or disjoint
        matches can post-process.
        """
        if self._tree is None:
            raise ValidationError("index must be built before searching")
        q = as_sequence(query)
        if len(q) == 0:
            raise ValidationError("query sequence must be non-empty")
        check_epsilon(epsilon)
        rect = feature_rect(extract_feature(q.values), epsilon)
        matches: list[SubsequenceMatch] = []
        _charge("subseq.queries")
        for record in self._tree.range_search(rect):
            _charge("subseq.candidates")
            seq_id, start, length = self._windows[record]
            window = self._values[seq_id][start : start + length]
            distance = dtw_max_early_abandon(window, q.values, epsilon)
            if distance <= epsilon:
                matches.append(SubsequenceMatch(seq_id, start, length, distance))
        matches.sort(key=lambda m: (m.distance, m.seq_id, m.start, m.length))
        _charge("subseq.matches", len(matches))
        return matches

    def best_match(self, query: SequenceLike) -> SubsequenceMatch | None:
        """The single nearest indexed window, or ``None`` if empty.

        Best-first search over the feature index using ``D_tw-lb`` as
        priority, refining with the true distance.
        """
        if self._tree is None:
            raise ValidationError("index must be built before searching")
        q = as_sequence(query)
        if len(q) == 0:
            raise ValidationError("query sequence must be non-empty")
        point = extract_feature(q.values).as_tuple()
        best: SubsequenceMatch | None = None
        _charge("subseq.knn_queries")
        for lb, record in self._tree.knn(point, len(self._windows)):
            if best is not None and lb > best.distance:
                break
            _charge("subseq.knn_examined")
            seq_id, start, length = self._windows[record]
            window = self._values[seq_id][start : start + length]
            distance = dtw_max(window, q.values)
            candidate = SubsequenceMatch(seq_id, start, length, distance)
            if best is None or (candidate.distance, candidate.seq_id) < (
                best.distance,
                best.seq_id,
            ):
                best = candidate
        return best
