"""Engine-Search — the public facade measured as an experiment method.

Wraps a :class:`~repro.core.engine.TimeWarpingDatabase` (any backend,
any shard count) behind the :class:`~repro.methods.base.SearchMethod`
accounting contract so the eval harness can sweep index backends and
shard layouts next to the paper's methods.  Build copies the outer
database into the facade (one charged sequential scan, preserving ids);
searches run the full backend → cascade → verification pipeline, with
simulated I/O collected from every shard's storage.

Because every exact backend returns the true answer set, an
Engine-Search report agrees answer-for-answer with TW-Sim-Search and
the scans — the harness's cross-method agreement check applies to it
unchanged.
"""

from __future__ import annotations

from ..core.engine import TimeWarpingDatabase
from ..exceptions import NotBuiltError
from ..types import Sequence
from .base import MethodStats, SearchMethod

__all__ = ["EngineMethod"]


class EngineMethod(SearchMethod):
    """The composed query engine as a comparable search method.

    Parameters
    ----------
    database:
        The sequence database to search (copied into the facade at
        build time, ids preserved).
    backend:
        Index backend name for every shard.
    shards:
        Number of round-robin shards queried in parallel.
    backend_options:
        Extra options forwarded to each shard's backend constructor.
    executor:
        Shard execution plane (``serial``/``thread``/``process``);
        ``None`` keeps the default resolution.  Answers and charges are
        identical either way — the accounting below reads the
        executor-invariant return-path metrics.
    """

    def __init__(
        self,
        database,
        *,
        backend: str = "rtree",
        shards: int = 1,
        backend_options: dict[str, object] | None = None,
        executor: str | None = None,
    ) -> None:
        super().__init__(database)
        self.name = f"Engine[{backend}x{shards}]"
        self._backend_name = backend
        self._shards = shards
        self._backend_options = backend_options
        self._executor = executor
        self._engine_db: TimeWarpingDatabase | None = None

    @property
    def engine(self) -> TimeWarpingDatabase:
        """The built facade (after :meth:`build`)."""
        if self._engine_db is None:
            raise NotBuiltError(f"{self.name} has not been built")
        return self._engine_db

    def index_size_in_bytes(self) -> int:
        """Summed on-disk size of every shard's index."""
        return sum(
            engine.backend.node_stats().size_in_bytes
            for engine in self.engine.sharded.engines
        )

    def close(self) -> None:
        """Release the facade's execution plane (idempotent)."""
        if self._engine_db is not None:
            self._engine_db.close()

    def _build_impl(self) -> None:
        facade = TimeWarpingDatabase.from_storage(
            self._db,
            backend=self._backend_name,
            shards=self._shards,
            backend_options=self._backend_options,
            executor=self._executor,
        )
        # from_storage charges the source scan on the outer database
        # (picked up by the build accounting); shard-local build I/O is
        # folded in here since the facade owns its own storages.
        self.build_stats.simulated_io_seconds += self._drain_shard_io(facade)
        self._engine_db = facade

    @staticmethod
    def _drain_shard_io(facade: TimeWarpingDatabase) -> float:
        """Collect and reset the facade's shard-local simulated I/O."""
        seconds = 0.0
        for storage in facade.shard_storages:
            seconds += storage.io.simulated_seconds
            storage.io.reset()
        return seconds

    def _search_impl(
        self, query: Sequence, epsilon: float, stats: MethodStats
    ) -> tuple[list[int], dict[int, float], list[int]]:
        facade = self.engine
        stats.lower_bound_computations += 1
        result = facade.search_detailed(query.values, epsilon)
        # Charges are read off the return-path snapshot, which is
        # merged in shard order and bit-identical for every executor
        # (the process executor's node reads and storage fetches happen
        # in worker replicas, not on the parent's engines).
        counters = result.metrics.counters
        node_reads = int(
            counters.get(f"index.{self._backend_name}.node_reads", 0)
        )
        stats.index_node_reads += node_reads
        stats.simulated_io_seconds += self._db.disk.random_read_time(
            node_reads, self._db.page_size
        )
        # The facade's storages are distinct from the outer database the
        # base class marks, so their per-query charges move over here.
        stats.simulated_io_seconds += float(
            counters.get("storage.simulated_seconds", 0.0)
        )
        candidates = result.candidate_ids
        stats.sequences_read += len(candidates)
        stats.dtw_computations += len(candidates)
        answers = [match.seq_id for match in result.matches]
        distances = {match.seq_id: match.distance for match in result.matches}
        self._last_cascade = result.stats
        return answers, distances, candidates
