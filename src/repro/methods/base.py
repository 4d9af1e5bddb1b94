"""Uniform interface and accounting shared by all search methods.

A method is *built* once over a :class:`~repro.storage.database.
SequenceDatabase` (constructing whatever index it needs) and then
answers any number of ``(query, epsilon)`` searches.  Every search
returns a :class:`SearchReport` carrying the answers, the candidate set
(the paper's Figure-2 metric), and a :class:`MethodStats` timing/IO
breakdown (the paper's Figure-3/4/5 metric).

The *elapsed time* a report exposes is ``cpu_seconds +
simulated_io_seconds``: measured host CPU plus modeled disk time, per
the cost-model decision documented in DESIGN.md.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Iterable

from ..core.cascade import CascadeStats
from ..distance.dtw import dtw_max_early_abandon
from ..exceptions import ValidationError
from ..obs.metrics import (
    MetricsRegistry,
    MetricsSnapshot,
    active_registry,
    use_registry,
)
from ..obs.tracing import maybe_span
from ..storage.database import SequenceDatabase
from ..types import Sequence, SequenceLike, as_sequence, check_epsilon

__all__ = ["MethodStats", "SearchReport", "SearchMethod"]


@dataclass
class MethodStats:
    """Cost breakdown of one search (or one build).

    Attributes
    ----------
    cpu_seconds:
        Measured host CPU (process) time.
    simulated_io_seconds:
        Modeled disk time: data-file pages via the database's disk
        model plus index pages charged by the method.
    index_node_reads:
        Index nodes visited (R-tree or suffix tree), 0 for scans.
    sequences_read:
        Sequences materialized from storage.
    dtw_computations:
        Full ``D_tw`` verifications performed.
    lower_bound_computations:
        Cheap filter evaluations (``D_lb``/``D_tw-lb``) performed.
    """

    cpu_seconds: float = 0.0
    simulated_io_seconds: float = 0.0
    index_node_reads: int = 0
    sequences_read: int = 0
    dtw_computations: int = 0
    lower_bound_computations: int = 0

    @property
    def elapsed_seconds(self) -> float:
        """Total modeled elapsed time (CPU + simulated disk)."""
        return self.cpu_seconds + self.simulated_io_seconds


@dataclass
class SearchReport:
    """Everything one search produced.

    Attributes
    ----------
    method:
        Name of the method that ran.
    epsilon:
        The query tolerance.
    answers:
        Ids of sequences with ``D_tw(S, Q) <= epsilon`` (ascending).
    distances:
        ``{seq_id: D_tw}`` for every answer, exact: the verify pass that
        decides ``<= eps`` measures the distance at the same cost.
    candidates:
        Ids surviving the method's filtering step — what Figure 2 plots.
        For Naive-Scan this equals ``answers`` by the paper's convention.
    stats:
        The cost breakdown.
    cascade:
        Per-stage pruning counters of the method's filter pipeline
        (:class:`~repro.core.cascade.CascadeStats`), when the method
        reports them — every built-in method does.
    """

    method: str
    epsilon: float
    answers: list[int]
    distances: dict[int, float]
    candidates: list[int]
    stats: MethodStats = field(default_factory=MethodStats)
    cascade: CascadeStats | None = None
    #: Full registry snapshot of this search's charges (cascade tiers,
    #: index node reads, DTW cells, storage pages, method cost lines).
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)

    @property
    def candidate_count(self) -> int:
        """Size of the candidate set."""
        return len(self.candidates)

    def candidate_ratio(self, database_size: int) -> float:
        """Figure 2's y-axis: candidates over database size."""
        if database_size <= 0:
            raise ValidationError(
                f"database_size must be positive, got {database_size}"
            )
        return len(self.candidates) / database_size


class SearchMethod(abc.ABC):
    """Base class: build once over a database, search many times.

    Parameters
    ----------
    database:
        The sequence database to search.
    """

    #: Human-readable method name, as used in the paper's figures.
    name: str = "abstract"

    def __init__(self, database: SequenceDatabase) -> None:
        self._db = database
        self._built = False
        self.build_stats = MethodStats()
        #: Per-stage pruning counters the last ``_search_impl`` reported.
        self._last_cascade: CascadeStats | None = None

    @property
    def database(self) -> SequenceDatabase:
        """The database this method searches."""
        return self._db

    @property
    def is_built(self) -> bool:
        """True once :meth:`build` has completed."""
        return self._built

    # -- lifecycle -----------------------------------------------------------

    def build(self) -> "SearchMethod":
        """Construct the method's access structures; returns ``self``."""
        start_cpu = time.process_time()
        self._db.io.mark(f"{self.name}:build")
        self._build_impl()
        self.build_stats.cpu_seconds += time.process_time() - start_cpu
        self.build_stats.simulated_io_seconds += self._db.io.delta_seconds(
            f"{self.name}:build"
        )
        self._built = True
        return self

    @abc.abstractmethod
    def _build_impl(self) -> None:
        """Method-specific index construction."""

    # -- searching -------------------------------------------------------------

    def search(self, query: SequenceLike, epsilon: float) -> SearchReport:
        """Run one similarity search and account for its costs."""
        if not self._built:
            raise ValidationError(f"{self.name} must be built before searching")
        check_epsilon(epsilon)
        q = as_sequence(query)
        if len(q) == 0:
            raise ValidationError("query sequence must be non-empty")
        stats = MethodStats()
        mark = f"{self.name}:search"
        outer = active_registry()
        per_query = MetricsRegistry()
        with use_registry(per_query), maybe_span(
            "method.search", method=self.name, epsilon=epsilon
        ):
            self._db.io.mark(mark)
            start_cpu = time.process_time()
            self._last_cascade = None
            answers, distances, candidates = self._search_impl(q, epsilon, stats)
            stats.cpu_seconds += time.process_time() - start_cpu
            stats.simulated_io_seconds += self._db.io.delta_seconds(mark)
            self._charge_method_stats(per_query, stats)
        snapshot = per_query.snapshot()
        if outer is not None:
            outer.merge(snapshot)
        return SearchReport(
            method=self.name,
            epsilon=epsilon,
            answers=sorted(answers),
            distances=distances,
            candidates=sorted(candidates),
            stats=stats,
            cascade=self._last_cascade,
            metrics=snapshot,
        )

    def _charge_method_stats(
        self, registry: MetricsRegistry, stats: MethodStats
    ) -> None:
        """Mirror the legacy :class:`MethodStats` cost lines as
        ``method.<name>.*`` registry counters (one plane, two views)."""
        prefix = f"method.{self.name.lower()}"
        registry.count(f"{prefix}.searches")
        registry.count(f"{prefix}.cpu_seconds", stats.cpu_seconds)
        registry.count(
            f"{prefix}.simulated_io_seconds", stats.simulated_io_seconds
        )
        registry.count(f"{prefix}.index_node_reads", stats.index_node_reads)
        registry.count(f"{prefix}.sequences_read", stats.sequences_read)
        registry.count(f"{prefix}.dtw_computations", stats.dtw_computations)
        registry.count(
            f"{prefix}.lower_bound_computations",
            stats.lower_bound_computations,
        )

    def search_many(
        self, queries: Iterable[SequenceLike], epsilon: float
    ) -> list[SearchReport]:
        """Run a batch of searches; one report per query.

        The default runs :meth:`search` per query; vectorized methods
        override it to amortize filtering across the batch while
        producing reports with identical answers and candidates.
        """
        return [self.search(query, epsilon) for query in queries]

    @abc.abstractmethod
    def _search_impl(
        self, query: Sequence, epsilon: float, stats: MethodStats
    ) -> tuple[list[int], dict[int, float], list[int]]:
        """Return ``(answers, distances, candidates)``."""

    # -- shared verification -------------------------------------------------------

    def _verify(
        self,
        sequence: Sequence,
        query: Sequence,
        epsilon: float,
        stats: MethodStats,
    ) -> float:
        """Early-abandoning ``D_tw`` check of one fetched candidate.

        The exact distance when it is ``<= epsilon``, else ``inf``.
        """
        stats.dtw_computations += 1
        return dtw_max_early_abandon(sequence.values, query.values, epsilon)

    def __repr__(self) -> str:
        state = "built" if self._built else "unbuilt"
        return f"{type(self).__name__}({state}, db={len(self._db)} sequences)"
