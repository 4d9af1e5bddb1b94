"""Tests for the streaming whole-match monitor."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.streaming import StreamMonitor
from repro.distance.dtw import dtw_max_early_abandon
from repro.exceptions import ValidationError

elements = st.floats(min_value=-20, max_value=20, allow_nan=False)


class TestConstruction:
    def test_empty_query_rejected(self):
        with pytest.raises(Exception):
            StreamMonitor([], 0.5)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValidationError):
            StreamMonitor([1.0], -0.1)

    def test_initial_state(self):
        monitor = StreamMonitor([1.0, 2.0], 0.5)
        assert monitor.elements_seen == 0
        assert not monitor.matches_now  # empty stream vs non-empty query
        assert monitor.can_still_match

    def test_non_finite_element_rejected(self):
        monitor = StreamMonitor([1.0], 1.0)
        with pytest.raises(ValidationError):
            monitor.push(float("nan"))


class TestMatching:
    def test_exact_prefix_match(self):
        monitor = StreamMonitor([1.0, 2.0, 3.0], 0.0)
        assert not monitor.push(1.0)
        assert not monitor.push(2.0)
        assert monitor.push(3.0)

    def test_warped_stream_matches(self):
        """The stream repeats elements (slow sampling); still matches."""
        monitor = StreamMonitor([1.0, 2.0, 3.0], 0.0)
        for v in [1.0, 1.0, 2.0, 2.0, 2.0, 3.0]:
            monitor.push(v)
        assert monitor.matches_now

    def test_dead_monitor_stays_dead(self):
        monitor = StreamMonitor([1.0, 2.0], 0.1)
        monitor.push(50.0)  # first element hopeless
        assert not monitor.can_still_match
        monitor.push(1.0)
        monitor.push(2.0)
        assert not monitor.matches_now

    def test_match_then_diverge(self):
        monitor = StreamMonitor([1.0, 2.0], 0.1)
        monitor.push(1.0)
        assert monitor.push(2.0)
        assert not monitor.push(99.0)  # prefix no longer matches
        assert not monitor.can_still_match

    def test_reset(self):
        monitor = StreamMonitor([1.0], 0.0)
        monitor.push(5.0)
        assert not monitor.can_still_match
        monitor.reset()
        assert monitor.elements_seen == 0
        assert monitor.push(1.0)

    def test_extend(self):
        monitor = StreamMonitor([1.0, 2.0, 3.0], 0.25)
        assert monitor.extend([1.1, 2.2, 2.9])


class TestAgainstBatchOracle:
    @given(
        st.lists(elements, min_size=1, max_size=8),
        st.lists(elements, min_size=1, max_size=12),
        st.floats(min_value=0, max_value=10, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_batch_decision_at_every_prefix(self, query, stream, eps):
        monitor = StreamMonitor(query, eps)
        for i, value in enumerate(stream, start=1):
            streamed = monitor.push(value)
            batch = dtw_max_early_abandon(stream[:i], query, eps) <= eps
            assert streamed == batch

    @given(
        st.lists(elements, min_size=1, max_size=6),
        st.lists(elements, min_size=1, max_size=10),
        st.floats(min_value=0, max_value=5, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_dead_frontier_is_permanent(self, query, stream, eps):
        monitor = StreamMonitor(query, eps)
        died = False
        for value in stream:
            monitor.push(value)
            if not monitor.can_still_match:
                died = True
            if died:
                assert not monitor.matches_now
