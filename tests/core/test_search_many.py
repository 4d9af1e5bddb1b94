"""Regression suite: ``search_many`` must behave exactly like ``search``.

The batched API takes a different path through the engine (whole-store
cascade instead of per-query R-tree walks), so equality of results is a
contract, not a coincidence — covered here including the empty-database
and ``eps = 0`` edge cases the original fix addressed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TimeWarpingDatabase
from repro.exceptions import ValidationError


def outcome_key(matches):
    return [(m.seq_id, m.distance) for m in matches]


@pytest.fixture()
def populated():
    rng = np.random.default_rng(99)
    db = TimeWarpingDatabase()
    for _ in range(40):
        length = int(rng.integers(3, 25))
        db.insert(np.cumsum(rng.normal(size=length)))
    queries = [
        np.cumsum(rng.normal(size=int(rng.integers(3, 25)))) for _ in range(6)
    ]
    return db, queries


def test_search_many_matches_search(populated):
    db, queries = populated
    for epsilon in (0.5, 2.0, 8.0):
        batch = db.search_many(queries, epsilon)
        assert len(batch) == len(queries)
        for query, matches in zip(queries, batch):
            assert outcome_key(matches) == outcome_key(db.search(query, epsilon))


def test_search_many_matches_search_banded(populated):
    db, queries = populated
    batch = db.search_many(queries, 2.0, band_radius=3)
    for query, matches in zip(queries, batch):
        assert outcome_key(matches) == outcome_key(
            db.search(query, 2.0, band_radius=3)
        )


def test_empty_database_edge_case():
    db = TimeWarpingDatabase()
    assert db.search([1.0, 2.0], 1.0) == []
    assert db.search_many([[1.0, 2.0], [3.0]], 1.0) == [[], []]
    assert db.search_many([], 1.0) == []


def test_epsilon_zero_edge_case():
    db = TimeWarpingDatabase()
    a = db.insert([1.0, 2.0, 3.0])
    db.insert([1.0, 2.0, 4.0])
    # eps=0 keeps only sequences at distance exactly 0 — the stored
    # sequence itself and its warping-equivalent stutters.
    for query in ([1.0, 2.0, 3.0], [1.0, 1.0, 2.0, 3.0, 3.0]):
        single = db.search(query, 0.0)
        [batched] = db.search_many([query], 0.0)
        assert outcome_key(single) == outcome_key(batched)
        assert [m.seq_id for m in single] == [a]
        assert single[0].distance == 0.0


def test_search_many_sees_mutations_between_calls():
    db = TimeWarpingDatabase()
    db.insert([5.0, 5.0])
    assert [[m.seq_id for m in r] for r in db.search_many([[5.0]], 0.5)] == [[0]]
    new_id = db.insert([5.2, 5.2])  # store must refresh, not serve stale
    assert [[m.seq_id for m in r] for r in db.search_many([[5.0]], 0.5)] == [
        [0, new_id]
    ]
    db.delete(new_id)
    assert [[m.seq_id for m in r] for r in db.search_many([[5.0]], 0.5)] == [[0]]


def test_search_many_returns_full_sequences(populated):
    db, queries = populated
    [matches] = db.search_many([queries[0]], 8.0)
    for match in matches:
        stored = db.get(match.seq_id)
        assert np.array_equal(match.sequence.values, stored.values)


def test_search_many_merged_stats(populated):
    db, queries = populated
    stats = db.search_many_detailed(queries, 2.0).stats
    assert stats is not None
    assert [s.name for s in stats.stages] == ["lb_yi", "lb_kim", "lb_keogh", "dtw"]
    # Merged over the batch: every query enters the first tier in full.
    assert stats.total_in == len(queries) * len(db)


def test_search_many_validation():
    db = TimeWarpingDatabase()
    db.insert([1.0])
    with pytest.raises(ValidationError):
        db.search_many([[1.0]], -0.1)
    with pytest.raises(ValidationError):
        db.search_many([[]], 1.0)
