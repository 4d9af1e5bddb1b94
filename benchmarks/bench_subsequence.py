"""**A4 / section 6** — subsequence matching via the windowed feature index.

The paper's closing extension: index feature vectors of subsequences
instead of whole sequences.  This bench compares the windowed index
against a brute-force window scan and checks the paper's expectation
that the index pays off because "our method performs better with a
larger number of (sub)sequences".
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.subsequence import SubsequenceIndex
from repro.data.synthetic import random_walk_dataset
from repro.distance.dtw import dtw_max_early_abandon
from repro.eval.experiments import ExperimentResult, full_scale

from ._shared import run_bench


def _run() -> ExperimentResult:
    n_sequences = 120 if full_scale() else 40
    length = 120 if full_scale() else 60
    window = 16
    epsilon = 0.08
    sequences = random_walk_dataset(n_sequences, length, seed=97)
    rng = np.random.default_rng(5)

    index = SubsequenceIndex(window_lengths=[window])
    for seq in sequences:
        index.add(seq)
    index.build()

    queries = []
    for _ in range(10):
        seq = sequences[int(rng.integers(n_sequences))]
        start = int(rng.integers(0, len(seq) - window))
        base = np.asarray(seq.values)[start : start + window]
        queries.append(base + rng.uniform(-0.02, 0.02, window))

    start_t = time.process_time()
    indexed_hits = 0
    for q in queries:
        indexed_hits += len(index.search(q, epsilon))
    indexed_time = (time.process_time() - start_t) / len(queries)

    start_t = time.process_time()
    brute_hits = 0
    for q in queries:
        for seq in sequences:
            values = np.asarray(seq.values)
            for s in range(0, len(values) - window + 1):
                distance = dtw_max_early_abandon(
                    values[s : s + window], q, epsilon
                )
                if distance <= epsilon:
                    brute_hits += 1
    brute_time = (time.process_time() - start_t) / len(queries)

    result = ExperimentResult(
        experiment_id="A4/subsequence",
        title=f"Subsequence matching: windowed index vs window scan "
        f"({index.window_count} windows)",
        x_label="approach",
        y_label="cpu seconds per query",
        x_values=[1],
        series={
            "windowed feature index": [indexed_time],
            "brute-force window scan": [brute_time],
        },
    )
    result.notes.append(
        f"matches per workload: index={indexed_hits}, brute={brute_hits} "
        "(must be equal: no false dismissal over indexed windows)"
    )
    assert indexed_hits == brute_hits
    return result


def test_subsequence_index_vs_scan(benchmark):
    result = benchmark.pedantic(
        lambda: run_bench("subsequence", experiment_fn=_run),
        rounds=1,
        iterations=1,
    )
    indexed = result.series["windowed feature index"][0]
    brute = result.series["brute-force window scan"][0]
    assert indexed < brute


def test_subsequence_windowed_index_agrees_with_st_filter():
    """Cross-validation: two entirely different subsequence engines
    (4-d feature R-tree over windows vs suffix-tree DP traversal) must
    produce identical fixed-length matches."""
    import numpy as np

    from repro.core.subsequence import SubsequenceIndex
    from repro.data.synthetic import random_walk_dataset
    from repro.methods.st_filter import STFilter
    from repro.storage.database import SequenceDatabase

    window = 8
    epsilon = 0.12
    sequences = random_walk_dataset(20, 30, seed=61)
    db = SequenceDatabase(page_size=512)
    db.insert_many(sequences)
    st_filter = STFilter(db, n_categories=25).build()

    index = SubsequenceIndex(window_lengths=[window])
    for seq in sequences:
        index.add(seq)
    index.build()

    rng = np.random.default_rng(4)
    for _ in range(5):
        seq = sequences[int(rng.integers(len(sequences)))]
        start = int(rng.integers(0, len(seq) - window))
        query = np.asarray(seq.values)[start : start + window] + rng.uniform(
            -0.02, 0.02, window
        )
        via_index = {
            (m.seq_id, m.start)
            for m in index.search(query, epsilon)
            if m.length == window
        }
        via_suffix = {
            (sid, s)
            for sid, s, length, _ in st_filter.subsequence_search(query, epsilon)
            if length == window
        }
        assert via_index == via_suffix
