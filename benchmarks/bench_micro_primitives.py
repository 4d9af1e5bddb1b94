"""Micro-benchmarks of the core primitives.

These are conventional pytest-benchmark timings (multiple rounds) of
the operations whose costs drive every figure: feature extraction, the
lower bounds, DTW verification, and R-tree queries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.features import extract_feature
from repro.core.lower_bound import dtw_lb
from repro.data.synthetic import random_walk
from repro.distance.dtw import dtw_max, dtw_max_early_abandon
from repro.distance.lb_yi import lb_yi
from repro.index.rtree.bulk import STRBulkLoader
from repro.index.rtree.geometry import Rect


@pytest.fixture(scope="module")
def pair():
    s = np.asarray(random_walk(231, rng=1).values)
    q = np.asarray(random_walk(231, rng=2).values)
    return s, q


def test_feature_extraction(benchmark, pair):
    s, _ = pair
    benchmark(extract_feature, s)


def test_dtw_lb(benchmark, pair):
    s, q = pair
    benchmark(dtw_lb, s, q)


def test_lb_yi(benchmark, pair):
    s, q = pair
    benchmark(lb_yi, s, q)


def test_dtw_verification_reject_fast(benchmark, pair):
    """Typical verification: corners differ, rejected in O(1)."""
    s, q = pair
    benchmark(dtw_max_early_abandon, s, q, 0.1)


def test_dtw_within_accept_path(benchmark, pair):
    """Full reachability pass on a near-match."""
    s, _ = pair
    q = s + np.random.default_rng(3).uniform(-0.05, 0.05, s.size)
    assert benchmark(dtw_max_early_abandon, s, q, 0.1) <= 0.1


def test_dtw_exact_value(benchmark, pair):
    s, q = pair
    benchmark(dtw_max, s, q)


def test_rtree_range_query(benchmark):
    rng = np.random.default_rng(4)
    loader = STRBulkLoader(4, page_size=1024)
    for i in range(10_000):
        loader.add(tuple(rng.uniform(0, 100, 4)), i)
    tree = loader.build()
    rect = Rect.from_intervals([(40, 45)] * 4)
    benchmark(tree.range_search, rect)
