"""The FastMap method (Yi et al.; paper section 3.3).

Embeds every sequence into ``R^k`` with FastMap using the time-warping
distance, indexes the images in a k-d R-tree, and answers a query by
projecting it and range-searching with radius ``eps``.  Candidates are
verified with the true ``D_tw``.

Because DTW is not a metric, the embedding is not contractive: a truly
qualifying sequence's image can land farther than ``eps`` from the
query's image and be **falsely dismissed**.  The paper excludes the
method from its performance comparison for exactly this deficiency; we
implement it so the deficiency is *measurable* —
:meth:`FastMapMethod.false_dismissals` compares a report against ground
truth, and the integration tests demonstrate non-zero dismissal rates
the other methods never exhibit.

The embedding + image tree live behind the shared
:class:`~repro.index.backend.FastMapBackend` (the registry's only
``exact = False`` backend).
"""

from __future__ import annotations

from ..core.query_engine import charged_candidates
from ..exceptions import NotBuiltError
from ..index.backend import FastMapBackend
from ..index.rtree.rtree import RTree
from ..types import Sequence
from .base import MethodStats, SearchMethod, SearchReport

__all__ = ["FastMapMethod"]


class FastMapMethod(SearchMethod):
    """FastMap embedding + R-tree index (admits false dismissal).

    Parameters
    ----------
    database:
        The sequence database to search.
    k:
        Embedding dimensionality (Yi et al. leave its choice open; the
        paper notes picking a good *k* "is not trivial").
    seed:
        Pivot-selection seed for reproducible embeddings.
    """

    name = "FastMap"

    def __init__(self, database, *, k: int = 4, seed: int = 0) -> None:
        super().__init__(database)
        self._k = k
        self._seed = seed
        self._backend: FastMapBackend | None = None

    @property
    def k(self) -> int:
        """Embedding dimensionality."""
        return self._k

    @property
    def backend(self) -> FastMapBackend:
        """The built FastMap backend (after :meth:`build`)."""
        if self._backend is None:
            raise NotBuiltError("FastMap method has not been built")
        return self._backend

    @property
    def tree(self) -> RTree:
        """The built image-space R-tree (after :meth:`build`)."""
        return self.backend.tree

    def _build_impl(self) -> None:
        backend = FastMapBackend(
            page_size=self._db.page_size, k=self._k, seed=self._seed
        )
        items = []
        for sequence in self._db.scan():
            assert sequence.seq_id is not None
            items.append((sequence.seq_id, sequence.values))
        backend.bulk_load(items)
        # Force the embedding + image tree into build time (the
        # backend otherwise builds lazily on the first query).
        backend.node_stats()
        self._backend = backend

    def _search_impl(
        self, query: Sequence, epsilon: float, stats: MethodStats
    ) -> tuple[list[int], dict[int, float], list[int]]:
        stats.lower_bound_computations += 1
        candidate_ids = charged_candidates(
            self.backend, self._db, query.values, epsilon, stats
        )
        answers: list[int] = []
        distances: dict[int, float] = {}
        for seq_id in candidate_ids:
            sequence = self._db.fetch(seq_id)
            stats.sequences_read += 1
            distance = self._verify(sequence, query, epsilon, stats)
            if distance <= epsilon:
                answers.append(seq_id)
                distances[seq_id] = distance
        return answers, distances, candidate_ids

    @staticmethod
    def false_dismissals(
        report: SearchReport, ground_truth: SearchReport
    ) -> list[int]:
        """True answers this method missed, vs an exact method's report."""
        return sorted(set(ground_truth.answers) - set(report.answers))
