"""Pairwise time-warping distance matrices with lower-bound pruning.

Data-mining workloads (clustering, kNN graphs) need many pairwise DTW
distances.  :func:`pairwise_dtw` computes the full symmetric matrix;
:func:`pairwise_dtw_within` computes only the entries within a
tolerance, pruning with ``D_tw-lb`` first — the matrix-shaped analogue
of the paper's filter-and-verify pipeline.
"""

from __future__ import annotations

import math
from typing import Sequence as TypingSequence

import numpy as np

from ..core.features import extract_feature
from ..core.lower_bound import dtw_lb_features
from ..exceptions import ValidationError
from ..types import SequenceLike, as_array, check_epsilon
from .dtw import dtw_max, dtw_max_early_abandon

__all__ = ["pairwise_dtw", "pairwise_dtw_within"]


def _prepare(sequences: TypingSequence[SequenceLike]) -> list[np.ndarray]:
    if not sequences:
        raise ValidationError("pairwise distances require at least one sequence")
    return [as_array(seq, allow_empty=False) for seq in sequences]


def pairwise_dtw(sequences: TypingSequence[SequenceLike]) -> np.ndarray:
    """The full symmetric ``(n, n)`` matrix of Definition-2 distances.

    The diagonal is zero; only the upper triangle is computed and then
    mirrored.  ``O(n^2)`` DTW evaluations — use
    :func:`pairwise_dtw_within` when only close pairs matter.
    """
    arrays = _prepare(sequences)
    n = len(arrays)
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            distance = dtw_max(arrays[i], arrays[j])
            matrix[i, j] = distance
            matrix[j, i] = distance
    return matrix


def pairwise_dtw_within(
    sequences: TypingSequence[SequenceLike], epsilon: float
) -> np.ndarray:
    """The distance matrix with entries above *epsilon* set to ``inf``.

    Pairs are pruned with ``D_tw-lb`` before any DTW runs, and the DTW
    itself early-abandons at the tolerance — the same two-stage filter
    Algorithm 1 uses, applied to the self-join's matrix form.
    """
    check_epsilon(epsilon)
    arrays = _prepare(sequences)
    features = [extract_feature(arr) for arr in arrays]
    n = len(arrays)
    matrix = np.full((n, n), math.inf)
    np.fill_diagonal(matrix, 0.0)
    for i in range(n):
        for j in range(i + 1, n):
            if dtw_lb_features(features[i], features[j]) > epsilon:
                continue
            distance = dtw_max_early_abandon(arrays[i], arrays[j], epsilon)
            matrix[i, j] = distance
            matrix[j, i] = distance
    return matrix
