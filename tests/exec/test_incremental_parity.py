"""Incremental store refresh is executor-invisible.

The same interleaving of writes and reads runs on the ``serial``,
``thread`` and ``process`` executors.  Process workers refresh their
replica's store from the mirrored write delta through the same engine
code, so answers, stage stats and merged counters (fetch and scan
charges included) must be identical everywhere.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import TimeWarpingDatabase

EXECUTORS = ("serial", "thread", "process")


def _walks(seed: int, n: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.normal(size=int(rng.integers(8, 24))).cumsum() for _ in range(n)]


def _interleave(facade: TimeWarpingDatabase) -> list[object]:
    data, extra, queries = _walks(1, 18), _walks(2, 8), _walks(3, 3)
    observed: list[object] = []

    def detailed(query: np.ndarray, epsilon: float, band: int | None = None) -> None:
        result = facade.search_detailed(query, epsilon, band_radius=band)
        observed.append(
            (
                [(m.seq_id, m.distance) for m in result.matches],
                result.candidate_ids,
                [(s.name, s.n_in, s.n_out) for s in result.stats.stages],
                dict(result.metrics.counters),
            )
        )

    facade.bulk_load(data)
    detailed(queries[0], 2.0)
    facade.insert(extra[0])
    facade.delete(4)
    detailed(queries[1], 2.0)
    facade.bulk_load(extra[1:4])
    facade.delete(0)
    facade.delete(19)
    batch = facade.search_many_detailed(queries, 1.5)
    observed.append(
        (
            [[(m.seq_id, m.distance) for m in r] for r in batch.results],
            dict(batch.metrics.counters),
        )
    )
    facade.insert(extra[4])
    detailed(queries[2], 2.5, band=2)
    for seq_id in facade.ids()[:5]:
        facade.delete(seq_id)
    facade.insert(extra[5])
    detailed(queries[0], 3.0)
    return observed


def test_interleaved_writes_and_reads_match_across_executors():
    results = {}
    for executor in EXECUTORS:
        with TimeWarpingDatabase(shards=2, executor=executor) as facade:
            results[executor] = _interleave(facade)
    assert results["thread"] == results["serial"]
    assert results["process"] == results["serial"]
    # Only the very first read of each shard scans; later reads fetch.
    first, *later = [r for r in results["serial"] if len(r) == 4]
    assert first[3]["storage.scans"] == 2
    assert all(r[3].get("storage.scans", 0) == 0 for r in later)
