"""Cascade-Scan: correctness, cost accounting, and batch equivalence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.queries import QueryWorkload
from repro.distance.bands import sakoe_chiba_window
from repro.distance.dtw import dtw_max_matrix
from repro.exceptions import ValidationError
from repro.methods import CascadeScan, LBScan, NaiveScan

EPSILONS = (0.5, 2.0, 6.0)


@pytest.fixture()
def queries(small_walk_dataset):
    return QueryWorkload(small_walk_dataset, n_queries=4, seed=21).queries()


def test_agrees_with_naive_scan(walk_database, queries):
    naive = NaiveScan(walk_database).build()
    cascade = CascadeScan(walk_database).build()
    for eps in EPSILONS:
        for query in queries:
            expected = naive.search(query, eps)
            got = cascade.search(query, eps)
            assert got.answers == expected.answers
            assert got.distances == expected.distances


def test_candidates_at_least_as_tight_as_lb_scan(walk_database, queries):
    lb = LBScan(walk_database).build()
    cascade = CascadeScan(walk_database).build()
    for eps in EPSILONS:
        for query in queries:
            lb_candidates = set(lb.search(query, eps).candidates)
            cascade_candidates = set(cascade.search(query, eps).candidates)
            # The lb_kim tier only ever removes from the lb_yi ball.
            assert cascade_candidates <= lb_candidates


def test_scan_cost_model(walk_database, queries):
    cascade = CascadeScan(walk_database).build()
    report = cascade.search(queries[0], EPSILONS[1])
    n = len(walk_database)
    # A scan method reads the whole database and bounds every sequence.
    assert report.stats.sequences_read == n
    assert report.stats.lower_bound_computations == n
    assert report.stats.dtw_computations == report.candidate_count
    assert report.stats.simulated_io_seconds > 0
    assert report.stats.index_node_reads == 0


def test_cascade_stage_reporting(walk_database, queries):
    cascade = CascadeScan(walk_database).build()
    report = cascade.search(queries[0], EPSILONS[1])
    assert report.cascade is not None
    names = [s.name for s in report.cascade.stages]
    assert names == ["lb_yi", "lb_kim", "lb_keogh", "dtw"]
    assert report.cascade.total_in == len(walk_database)
    assert report.cascade.final_out == len(report.answers)
    # Without a band the Keogh tier is a pass-through, never a filter.
    keogh = report.cascade.stage("lb_keogh")
    assert keogh.n_in == keogh.n_out
    assert report.cascade.stage("lb_kim").n_out == report.candidate_count


def test_search_many_equals_per_query_search(walk_database, queries):
    cascade = CascadeScan(walk_database).build()
    for eps in EPSILONS:
        reports = cascade.search_many(queries, eps)
        assert len(reports) == len(queries)
        for query, batched in zip(queries, reports):
            single = cascade.search(query, eps)
            assert batched.answers == single.answers
            assert batched.candidates == single.candidates
            assert batched.distances == single.distances


def test_search_many_empty_batch(walk_database):
    cascade = CascadeScan(walk_database).build()
    assert cascade.search_many([], 1.0) == []


def test_search_many_validation(walk_database):
    cascade = CascadeScan(walk_database).build()
    with pytest.raises(ValidationError):
        cascade.search_many([[1.0]], -1.0)
    with pytest.raises(ValidationError):
        cascade.search_many([[]], 1.0)
    unbuilt = CascadeScan(walk_database)
    with pytest.raises(ValidationError):
        unbuilt.search_many([[1.0]], 1.0)


def test_banded_search_is_exact(walk_database, queries):
    radius = 2
    cascade = CascadeScan(walk_database, band_radius=radius).build()
    query = queries[0]
    eps = EPSILONS[1]
    expected = {}
    for seq_id in walk_database.ids():
        values = walk_database.fetch(seq_id).values
        window = sakoe_chiba_window(len(values), len(query), radius)
        distance = dtw_max_matrix(values, np.asarray(query.values), window=window).distance
        if distance <= eps:
            expected[seq_id] = distance
    report = cascade.search(query, eps)
    assert report.answers == sorted(expected)
    for seq_id, distance in report.distances.items():
        assert distance == pytest.approx(expected[seq_id])
    [batched] = cascade.search_many([query], eps)
    assert batched.answers == report.answers
