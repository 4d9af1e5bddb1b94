"""The oracle computes Definition 2 exactly and flags wrong answers."""

from __future__ import annotations

import numpy as np
import pytest

from perfbench.oracle import Oracle, compare, dtw_max_many
from perfbench.workloads import OpLog


def naive_dtw_max(s: np.ndarray, q: np.ndarray) -> float:
    acc = np.full((len(s), len(q)), np.inf)
    for i in range(len(s)):
        for j in range(len(q)):
            prev = 0.0 if i == j == 0 else min(
                acc[i - 1, j] if i else np.inf,
                acc[i, j - 1] if j else np.inf,
                acc[i - 1, j - 1] if i and j else np.inf,
            )
            acc[i, j] = max(abs(s[i] - q[j]), prev)
    return float(acc[-1, -1])


@pytest.fixture
def contents() -> dict[int, np.ndarray]:
    rng = np.random.default_rng(3)
    return {sid: rng.normal(size=int(rng.integers(1, 12))) for sid in range(40)}


def test_matches_the_recurrence_on_mixed_lengths(contents: dict[int, np.ndarray]) -> None:
    rng = np.random.default_rng(4)
    seqs = list(contents.values())
    for _ in range(5):
        q = rng.normal(size=int(rng.integers(1, 12)))
        got = dtw_max_many(seqs, q)
        assert got.tolist() == [naive_dtw_max(s, q) for s in seqs]


def test_range_prefilter_keeps_every_answer(contents: dict[int, np.ndarray]) -> None:
    q = contents[7] + 0.05
    every = sorted(
        ((sid, naive_dtw_max(s, q)) for sid, s in contents.items()),
        key=lambda a: (a[1], a[0]),
    )
    assert Oracle(contents).range(q, 1.0) == [a for a in every if a[1] <= 1.0]


def test_flags_a_planted_wrong_distance(contents: dict[int, np.ndarray]) -> None:
    q = contents[7] + 0.05
    expected = Oracle(contents).range(q, 1.0)
    assert expected and compare(expected, expected) is None
    sid, distance = expected[0]
    planted = [(sid, np.nextafter(distance, np.inf))] + expected[1:]
    assert compare(planted, expected) is not None


def test_flags_a_missing_and_an_extra_answer(contents: dict[int, np.ndarray]) -> None:
    q = contents[7] + 0.05
    expected = Oracle(contents).range(q, 1.0)
    assert "missing ids [" + str(expected[-1][0]) in compare(expected[:-1], expected)
    outsider = next(sid for sid in contents if sid not in dict(expected))
    assert "extra ids [" + str(outsider) in compare(
        expected + [(outsider, 1.0)], expected
    )


def test_knn_breaks_ties_by_id() -> None:
    twin = np.array([1.0, 2.0, 3.0])
    contents = {5: twin, 2: twin.copy(), 9: twin + 10.0}
    expected = Oracle(contents).knn(twin, 2)
    assert expected == [(2, 0.0), (5, 0.0)]
    assert compare([(5, 0.0), (2, 0.0)], expected) is not None


def test_a_mismatch_counts_as_a_failed_operation() -> None:
    log = OpLog()
    log.verify(lambda: None)
    log.verify(lambda: "missing ids [3]")
    log.verify(lambda: 1 / 0)
    assert (log.checked, log.failed) == (3, 2)
