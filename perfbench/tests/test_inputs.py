"""Inputs are a pure function of the seed, and the digest shows it."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from perfbench import inputs
from perfbench.workloads import WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_digest_repeats_for_a_seed_and_changes_with_it(name: str, tmp_path: Path) -> None:
    cls = WORKLOADS[name]
    first = cls(1, tmp_path).digest()
    assert cls(1, tmp_path).digest() == first
    assert cls(2, tmp_path).digest() != first


def test_stream_items_do_not_depend_on_draw_order() -> None:
    late = inputs.stock_series(inputs.stream_rng(5, inputs.TAG_INGEST, 9))
    for i in range(9):
        inputs.stock_series(inputs.stream_rng(5, inputs.TAG_INGEST, i))
    again = inputs.stock_series(inputs.stream_rng(5, inputs.TAG_INGEST, 9))
    assert np.array_equal(late, again)


def test_generators_follow_the_paper() -> None:
    walks = inputs.random_walks(inputs.stream_rng(0, 0), 50, 100)
    assert walks.shape == (50, 100)
    assert np.all((walks[:, 0] >= 1.0) & (walks[:, 0] <= 10.0))
    assert np.all(np.abs(np.diff(walks, axis=1)) <= 0.1 + 1e-12)
    q = inputs.perturb(inputs.stream_rng(0, 1), walks[0])
    assert np.all(np.abs(q - walks[0]) <= walks[0].std() / 2)
