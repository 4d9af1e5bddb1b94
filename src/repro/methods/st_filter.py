"""ST-Filter (paper section 3.4; Park et al.): suffix-tree filtering.

Build: fit an equal-length-interval categorizer over the database
(paper: 100 categories), convert every sequence to symbols, and build a
generalized suffix tree.  Search: traverse the tree with the pruned
time-warping DP (:class:`~repro.index.suffixtree.search.
WarpingTraversal`); surviving complete sequences are the candidates,
each then fetched from storage and verified with the true ``D_tw``.

The suffix tree assumes no distance function, so the method never
causes false dismissal — but, as the paper's Figures 3–4 show, whole
matching pays for an "abnormally enlarged" suffix tree: the tree's node
count grows with total database volume, and that traversal cost is what
this implementation charges via index node accesses.

The categorizer + suffix tree live behind the shared
:class:`~repro.index.backend.SuffixTreeBackend`, so the same substrate
is selectable in the engine facade (``backend="suffixtree"``).
"""

from __future__ import annotations

from ..core.cascade import CascadeStats, StageStats, verify_stage
from ..core.query_engine import charged_candidates
from ..distance.dtw import dtw_max_early_abandon
from ..exceptions import NotBuiltError, ValidationError
from ..index.backend import SuffixTreeBackend
from ..index.rtree.stats import AccessStats
from ..index.suffixtree.search import WarpingTraversal
from ..index.suffixtree.ukkonen import GeneralizedSuffixTree
from ..types import Sequence, as_sequence
from .base import MethodStats, SearchMethod

__all__ = ["STFilter"]

#: Approximate serialized bytes per suffix-tree node (edge bounds,
#: child table slot, suffix link) used to charge index I/O.
_NODE_BYTES = 48


class STFilter(SearchMethod):
    """Suffix-tree candidate generation + DTW verification.

    Parameters
    ----------
    database:
        The sequence database to search.
    n_categories:
        Number of value categories (paper's experiments: 100).
    strategy:
        Boundary strategy: "equal-width" (the paper's
        equal-length-interval method) or "equal-frequency".
    """

    name = "ST-Filter"

    def __init__(
        self,
        database,
        *,
        n_categories: int = 100,
        strategy: str = "equal-width",
    ) -> None:
        super().__init__(database)
        self._n_categories = n_categories
        self._strategy = strategy
        self._backend: SuffixTreeBackend | None = None

    @property
    def n_categories(self) -> int:
        """Number of categorization intervals."""
        return self._n_categories

    @property
    def backend(self) -> SuffixTreeBackend:
        """The built suffix-tree backend (after :meth:`build`)."""
        if self._backend is None:
            raise NotBuiltError("ST-Filter has not been built")
        return self._backend

    @property
    def tree(self) -> GeneralizedSuffixTree:
        """The built suffix tree (after :meth:`build`)."""
        return self.backend.tree

    def index_size_in_bytes(self) -> int:
        """Approximate on-disk size of the suffix tree."""
        return self.backend.node_stats().size_in_bytes

    def _build_impl(self) -> None:
        backend = SuffixTreeBackend(
            page_size=self._db.page_size,
            n_categories=self._n_categories,
            strategy=self._strategy,
        )
        items = []
        for sequence in self._db.scan():
            assert sequence.seq_id is not None
            items.append((sequence.seq_id, sequence.values))
        backend.bulk_load(items)
        # Force the categorizer + tree construction into build time
        # (the backend otherwise builds lazily on the first query).
        backend.node_stats()
        self._backend = backend

    def _search_impl(
        self, query: Sequence, epsilon: float, stats: MethodStats
    ) -> tuple[list[int], dict[int, float], list[int]]:
        backend = self.backend
        candidates = charged_candidates(
            backend,
            self._db,
            query.values,
            epsilon,
            stats,
            io_charge=self._index_io_seconds,
        )

        # Verification through the shared cascade stage: every
        # candidate is fetched and checked with the true distance.
        def verifier(seq_id: int) -> float:
            sequence = self._db.fetch(seq_id)
            stats.sequences_read += 1
            return self._verify(sequence, query, epsilon, stats)

        answers, distances, dtw_stage = verify_stage(
            candidates, verifier, epsilon
        )
        self._last_cascade = CascadeStats(
            [
                StageStats("suffix-tree", len(self._db), len(candidates)),
                dtw_stage,
            ]
        )
        return answers, distances, candidates

    def subsequence_search(
        self, query, epsilon: float
    ) -> list[tuple[int, int, int, float]]:
        """Subsequence matching — the workload ST-Filter was designed for.

        Returns verified matches ``(seq_id, start, length, distance)``
        over *all* window lengths (the suffix tree materializes every
        subsequence, unlike the windowed feature index which only
        covers configured lengths).  Complete over every contiguous
        subsequence of every stored sequence.

        Note the returned matches are *minimal certificates* from the
        categorized traversal: a triple is emitted when the categorized
        window can match within tolerance and the raw window verifies.
        """
        backend = self.backend
        q = as_sequence(query)
        if len(q) == 0:
            raise ValidationError("query sequence must be non-empty")
        if len(backend) == 0:
            return []
        access = AccessStats()
        traversal = WarpingTraversal(
            backend.tree, backend.categorizer, stats=access
        )
        candidates = traversal.subsequence_candidates(q.values, epsilon)
        position_ids = backend.position_ids

        cache: dict[int, Sequence] = {}
        matches: list[tuple[int, int, int, float]] = []
        for position, start, length in candidates:
            seq_id = position_ids[position]
            if seq_id not in cache:
                cache[seq_id] = self._db.fetch(seq_id)
            window = cache[seq_id].values[start : start + length]
            distance = dtw_max_early_abandon(window, q.values, epsilon)
            if distance <= epsilon:
                matches.append((seq_id, start, length, distance))
        matches.sort(key=lambda m: (m[3], m[0], m[1], m[2]))
        return matches

    def _index_io_seconds(self, node_reads: int) -> float:
        """Charge suffix-tree traversal as page reads of packed nodes."""
        page_size = self._db.page_size
        nodes_per_page = max(1, page_size // _NODE_BYTES)
        pages = -(-node_reads // nodes_per_page)
        return self._db.disk.random_read_time(pages, page_size)
