"""TW-Sim-Search — the paper's method (section 4.3, Algorithm 1).

Build (section 4.3.1): extract the 4-tuple feature vector of every
sequence and insert ``<First, Last, Greatest, Smallest, ID>`` into a
4-dimensional R-tree (paper: 1 KB pages).  STR bulk loading is used for
the initial build when requested, per the paper's note on bulk-loading
large initial databases.

Search (Algorithm 1):

1. Extract ``Feature(Q)``.
2. Range-query the index with the 4-d square ``Feature(Q) ± eps`` —
   exactly the set ``{S : D_tw-lb(S, Q) <= eps}``.
3. The returned ids form the candidate set.
4–6. Fetch each candidate and keep those with ``D_tw(S, Q) <= eps``.

Because ``D_tw-lb`` lower-bounds ``D_tw`` (Theorem 1) the candidates are
a superset of the answers: no false dismissal.  Because ``D_tw-lb`` is a
metric (Theorem 2) the index filtering is sound.

The index itself is any *exact* :class:`~repro.index.backend.
IndexBackend` — the paper: "any multi-dimensional indexes such as the
R-tree, R+-tree, R*-tree, and X-tree can be used".
"""

from __future__ import annotations

from typing import Any

from ..core.cascade import CascadeStats, StageStats, verify_stage
from ..core.query_engine import charged_candidates
from ..exceptions import NotBuiltError, ValidationError
from ..index.backend import BACKENDS, IndexBackend, make_backend
from ..index.rtree.rtree import SplitStrategy
from ..types import Sequence
from .base import MethodStats, SearchMethod

__all__ = ["TWSimSearch", "INDEX_KINDS"]

#: Index structures TW-Sim-Search can run on — the four the paper names.
INDEX_KINDS = ("rtree", "rstar", "rplus", "xtree")


class TWSimSearch(SearchMethod):
    """The paper's index-based method.

    Parameters
    ----------
    database:
        The sequence database to search.
    bulk_load:
        Build the R-tree with STR packing (True, default) or by
        tuple-at-a-time insertion (False) — the A3 ablation's knob.
        Only the plain R-tree supports STR packing; other index kinds
        always build incrementally.
    split:
        Node-split heuristic for incremental R-tree insertion.
    index:
        Which index backend to use.  One of :data:`INDEX_KINDS` (the
        paper's four), or any other exact backend from
        :data:`~repro.index.backend.BACKENDS` (e.g. ``"strbulk"``,
        ``"linear"``).
    """

    name = "TW-Sim-Search"

    def __init__(
        self,
        database,
        *,
        bulk_load: bool = True,
        split: SplitStrategy = SplitStrategy.QUADRATIC,
        index: str = "rtree",
    ) -> None:
        super().__init__(database)
        if index not in BACKENDS or not BACKENDS[index].exact:
            exact = tuple(n for n, b in BACKENDS.items() if b.exact)
            raise ValidationError(
                f"index must be one of {exact}, got {index!r}"
            )
        self._bulk_load = bulk_load and index == "rtree"
        self._split = split
        self._index_kind = index
        self._backend: IndexBackend | None = None

    @property
    def backend(self) -> IndexBackend:
        """The built index backend (after :meth:`build`)."""
        if self._backend is None:
            raise NotBuiltError("TW-Sim-Search has not been built")
        return self._backend

    @property
    def tree(self) -> Any:
        """The built 4-d feature index structure (after :meth:`build`)."""
        backend = self.backend
        return getattr(backend, "tree", backend)

    @property
    def index_kind(self) -> str:
        """Which index structure this instance uses."""
        return self._index_kind

    def index_size_in_bytes(self) -> int:
        """On-disk size of the index (one page per node)."""
        return self.backend.node_stats().size_in_bytes

    def _build_impl(self) -> None:
        options: dict[str, object] = {}
        if self._index_kind == "rtree":
            options["split"] = self._split
        backend = make_backend(
            self._index_kind, page_size=self._db.page_size, **options
        )
        items = []
        for sequence in self._db.scan():
            assert sequence.seq_id is not None
            items.append((sequence.seq_id, sequence.values))
        if self._bulk_load:
            backend.bulk_load(items)
        else:
            for seq_id, values in items:
                backend.insert(seq_id, values)
        self._backend = backend

    def insert(self, sequence) -> int:
        """Store a new sequence and index its feature vector online."""
        seq_id = self._db.insert(sequence)
        stored = self._db.fetch(seq_id)
        self.backend.insert(seq_id, stored.values)
        return seq_id

    def _search_impl(
        self, query: Sequence, epsilon: float, stats: MethodStats
    ) -> tuple[list[int], dict[int, float], list[int]]:
        backend = self.backend
        # Steps 1-2: feature vector of the query, then the square range
        # query (radius eps per dimension) with its node I/O charged.
        stats.lower_bound_computations += 1
        candidate_ids = charged_candidates(
            backend, self._db, query.values, epsilon, stats
        )
        # Steps 3-6: post-processing with the true distance, via the
        # shared cascade verify stage (every candidate is fetched —
        # the index already charged the filtering work).
        def verifier(seq_id: int) -> float:
            sequence = self._db.fetch(seq_id)
            stats.sequences_read += 1
            return self._verify(sequence, query, epsilon, stats)

        answers, distances, dtw_stage = verify_stage(
            candidate_ids, verifier, epsilon
        )
        self._last_cascade = CascadeStats(
            [
                StageStats(backend.name, len(self._db), len(candidate_ids)),
                dtw_stage,
            ]
        )
        return answers, distances, candidate_ids
