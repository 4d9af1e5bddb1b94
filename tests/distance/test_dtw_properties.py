"""Property-based tests (hypothesis) on the DTW engine."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distance.base import L1
from repro.distance.dtw import (
    dtw_additive,
    dtw_max,
    dtw_max_early_abandon,
    dtw_max_matrix,
)

elements = st.floats(min_value=-100, max_value=100, allow_nan=False)
seqs = st.lists(elements, min_size=1, max_size=12)


@given(seqs, seqs)
def test_fast_minimax_matches_reference_dp(s, q):
    assert dtw_max(s, q) == pytest.approx(dtw_max_matrix(s, q).distance, abs=1e-9)


@given(seqs, seqs)
def test_symmetry(s, q):
    assert dtw_max(s, q) == pytest.approx(dtw_max(q, s), abs=1e-9)


@given(seqs)
def test_self_distance_zero(s):
    assert dtw_max(s, s) == 0.0


@given(seqs, st.integers(min_value=1, max_value=3), st.data())
def test_invariance_under_element_replication(s, reps, data):
    """Time warping's defining property: replicating elements is free."""
    stretched: list[float] = []
    for value in s:
        count = data.draw(st.integers(min_value=1, max_value=reps))
        stretched.extend([value] * count)
    assert dtw_max(s, stretched) == 0.0


@given(seqs, seqs)
def test_bounded_by_extremes(s, q):
    """D_tw never exceeds the largest pairwise element difference."""
    s_arr, q_arr = np.asarray(s), np.asarray(q)
    hi = float(np.abs(s_arr[:, None] - q_arr[None, :]).max())
    assert dtw_max(s, q) <= hi + 1e-9


@given(seqs, seqs)
def test_corner_costs_lower_bound(s, q):
    """Both corner pairs are on every path, so each bounds the distance."""
    d = dtw_max(s, q)
    assert d >= abs(s[0] - q[0]) - 1e-9
    assert d >= abs(s[-1] - q[-1]) - 1e-9


@given(seqs, seqs, st.floats(min_value=0, max_value=200, allow_nan=False))
def test_early_abandon_agrees_with_exact(s, q, eps):
    d = dtw_max(s, q)
    result = dtw_max_early_abandon(s, q, eps)
    if d <= eps:
        assert result == pytest.approx(d, abs=1e-9)
    else:
        assert result == math.inf


@given(seqs, seqs, st.floats(min_value=0, max_value=200, allow_nan=False))
def test_within_is_monotone_in_epsilon(s, q, eps):
    if dtw_max_early_abandon(s, q, eps) <= eps:
        assert dtw_max_early_abandon(s, q, eps * 2 + 1) <= eps * 2 + 1


@given(seqs, seqs)
def test_additive_l1_dominates_max(s, q):
    """Summing per-step costs can never be below their maximum."""
    assert dtw_additive(s, q, base=L1) >= dtw_max(s, q) - 1e-9


@given(seqs, seqs)
@settings(max_examples=50)
def test_additive_l1_vs_bruteforce_recursion(s, q):
    """Definition 1 cross-checked against the naive recursion (memoized)."""
    if len(s) * len(q) > 36:
        return

    from functools import lru_cache

    s_t, q_t = tuple(s), tuple(q)

    @lru_cache(maxsize=None)
    def rec(i: int, j: int) -> float:
        # Definition 1 verbatim over suffixes s[i:], q[j:].
        if i == len(s_t) and j == len(q_t):
            return 0.0
        if i == len(s_t) or j == len(q_t):
            return math.inf
        head = abs(s_t[i] - q_t[j])
        return head + min(rec(i, j + 1), rec(i + 1, j), rec(i + 1, j + 1))

    assert dtw_additive(s, q, base=L1) == pytest.approx(rec(0, 0), abs=1e-9)
