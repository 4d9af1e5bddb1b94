"""Hypothesis property suite for the filter cascade.

The load-bearing guarantee of the whole pipeline: *no false dismissal at
any tier*.  For random databases, queries, and tolerances, every cascade
stage's survivor set must be a superset of the exact DTW answer set, and
the final cascade result must equal Naive-Scan exactly.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cascade import (
    DEFAULT_TIERS,
    TIER_KIM,
    TIER_YI,
    FeatureStore,
    FilterCascade,
)
from repro.distance.bands import sakoe_chiba_window
from repro.distance.dtw import dtw_max, dtw_max_matrix
from repro.methods.naive_scan import NaiveScan
from repro.storage.database import SequenceDatabase

elements = st.floats(
    min_value=-50, max_value=50, allow_nan=False, allow_infinity=False
)
sequence_strategy = st.lists(elements, min_size=1, max_size=10)
database_strategy = st.lists(sequence_strategy, min_size=1, max_size=12)
epsilon_strategy = st.floats(min_value=0, max_value=20)


def exact_answers(sequences, query, epsilon):
    return {
        i for i, values in enumerate(sequences) if dtw_max(values, query) <= epsilon
    }


@given(database_strategy, sequence_strategy, epsilon_strategy)
@settings(deadline=None)
def test_every_stage_survivor_set_contains_exact_answers(
    sequences, query, epsilon
):
    """Each tier prefix admits a superset of the true answer set."""
    store = FeatureStore(sequences)
    expected = exact_answers(sequences, query, epsilon)
    previous = set(range(len(sequences)))
    for depth in range(1, len(DEFAULT_TIERS) + 1):
        cascade = FilterCascade(store, tiers=DEFAULT_TIERS[:depth])
        rows, stages = cascade.filter(query, epsilon)
        survivors = {int(r) for r in rows}
        assert expected <= survivors  # no false dismissal at this tier
        assert survivors <= previous  # tiers only ever shrink the set
        assert len(stages) == depth
        assert stages[-1].n_out == len(survivors)
        previous = survivors


@given(database_strategy, sequence_strategy, epsilon_strategy)
@settings(deadline=None)
def test_cascade_result_equals_naive_scan(sequences, query, epsilon):
    """End to end, the cascade is exact: same answers as Naive-Scan."""
    db = SequenceDatabase()
    db.insert_many(sequences)
    naive = NaiveScan(db).build()
    report = naive.search(query, epsilon)

    cascade = FilterCascade.from_database(db)
    outcome = cascade.run(query, epsilon)
    assert outcome.answer_ids == report.answers
    for seq_id, distance in outcome.distances.items():
        assert distance == report.distances[seq_id]
    # The candidate set is sandwiched: answers <= candidates <= database.
    assert set(report.answers) <= set(outcome.candidate_ids)
    assert outcome.stats.stage("dtw").n_out == len(report.answers)


#: Sequences of a few shared lengths, so survivors form real stacks
#: (several rows of one length) next to rows of other lengths.
mixed_length_sequence = st.sampled_from((3, 5, 8)).flatmap(
    lambda n: st.lists(elements, min_size=n, max_size=n)
)


@given(
    database_strategy | st.lists(mixed_length_sequence, min_size=2, max_size=12),
    st.lists(sequence_strategy | mixed_length_sequence, min_size=1, max_size=4),
    epsilon_strategy,
    st.none() | st.integers(min_value=0, max_value=4),
)
@settings(deadline=None)
def test_run_many_matches_per_query_run(sequences, queries, epsilon, band_radius):
    """Batched filtering changes the schedule, never the results.

    Banded or not, every distance is the (banded) oracle's: each
    equal-length stack is verified with its own Sakoe-Chiba window.
    """
    cascade = FilterCascade(FeatureStore(sequences))
    batch = cascade.run_many(queries, epsilon, band_radius=band_radius)
    assert len(batch) == len(queries)
    for query, outcome in zip(queries, batch):
        single = cascade.run(query, epsilon, band_radius=band_radius)
        assert outcome.answer_ids == single.answer_ids
        assert outcome.candidate_ids == single.candidate_ids
        assert outcome.distances == single.distances
        assert outcome.stats == single.stats
        for seq_id, distance in outcome.distances.items():
            values = sequences[seq_id]
            window = (
                None
                if band_radius is None
                else sakoe_chiba_window(len(values), len(query), band_radius)
            )
            assert distance == dtw_max_matrix(values, query, window=window).distance


def test_length_stacks_groups_rows_by_length_in_first_appearance_order():
    lengths = (3, 5, 3, 8, 5, 3)
    store = FeatureStore(
        [[float(i + j) for j in range(n)] for i, n in enumerate(lengths)]
    )
    rows = np.array([5, 1, 0, 3, 4], dtype=np.int64)
    stacks = list(store.length_stacks(rows, 4))
    assert [group.tolist() for group, _, _ in stacks] == [[5, 0], [1, 4], [3]]
    for group, values, window in stacks:
        assert window is None
        assert values.shape == (group.size, lengths[group[0]])
        for lane, row in enumerate(group.tolist()):
            assert np.array_equal(values[lane], store.values(row))
    banded = list(store.length_stacks(rows, 4, band_radius=1))
    assert [window for _, _, window in banded] == [
        sakoe_chiba_window(n, 4, 1) for n in (3, 5, 8)
    ]
    assert list(store.length_stacks(np.empty(0, dtype=np.int64), 4)) == []


@given(
    database_strategy,
    sequence_strategy,
    epsilon_strategy,
    st.integers(min_value=0, max_value=4),
)
@settings(deadline=None)
def test_banded_cascade_admits_all_banded_answers(
    sequences, query, epsilon, band_radius
):
    """With the Keogh tier active the guarantee is against banded DTW."""
    expected = set()
    for i, values in enumerate(sequences):
        window = sakoe_chiba_window(len(values), len(query), band_radius)
        if dtw_max_matrix(values, query, window=window).distance <= epsilon:
            expected.add(i)
    cascade = FilterCascade(FeatureStore(sequences))
    outcome = cascade.run(query, epsilon, band_radius=band_radius)
    assert set(outcome.candidate_ids) >= expected
    assert set(outcome.answer_ids) == expected
