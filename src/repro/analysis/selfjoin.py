"""ε-similarity self-join under time warping.

Finds every pair of sequences whose Definition-2 time-warping distance
is within a tolerance.  A naive join evaluates ``O(n^2)`` DTWs; here
each sequence's feature vector range-queries the same 4-d R-tree the
paper's search uses, so only pairs surviving ``D_tw-lb`` pay for
verification — the self-join inherits the paper's no-false-dismissal
guarantee (Theorem 1 applied pairwise).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence as TypingSequence

import numpy as np

from ..core.features import extract_feature
from ..core.lower_bound import feature_rect
from ..distance.dtw import dtw_max_early_abandon
from ..exceptions import ValidationError
from ..index.rtree.bulk import STRBulkLoader
from ..types import SequenceLike, as_array, check_epsilon

__all__ = ["SimilarityPair", "similarity_self_join", "similarity_graph"]


@dataclass(frozen=True, order=True)
class SimilarityPair:
    """One qualifying pair of the self-join (``left < right``)."""

    left: int
    right: int
    distance: float


def similarity_self_join(
    sequences: TypingSequence[SequenceLike],
    epsilon: float,
    *,
    page_size: int = 1024,
) -> list[SimilarityPair]:
    """All pairs ``(i, j), i < j`` with ``D_tw(S_i, S_j) <= epsilon``.

    Returns pairs sorted by ``(left, right)``; each carries its exact
    distance.  Raises for an empty input or negative tolerance.
    """
    if not sequences:
        raise ValidationError("self-join requires at least one sequence")
    check_epsilon(epsilon)
    arrays = [as_array(seq, allow_empty=False) for seq in sequences]
    features = [extract_feature(arr) for arr in arrays]

    loader = STRBulkLoader(4, page_size=page_size)
    for i, feature in enumerate(features):
        loader.add(feature.as_tuple(), i)
    tree = loader.build()

    pairs: list[SimilarityPair] = []
    for i, feature in enumerate(features):
        rect = feature_rect(feature, epsilon)
        for j in tree.range_search(rect):
            if j <= i:
                continue  # each unordered pair once
            distance = dtw_max_early_abandon(arrays[i], arrays[j], epsilon)
            if distance <= epsilon:
                pairs.append(SimilarityPair(i, j, distance))
    pairs.sort()
    return pairs


def similarity_graph(
    sequences: TypingSequence[SequenceLike],
    epsilon: float,
    *,
    page_size: int = 1024,
) -> dict[int, set[int]]:
    """Adjacency sets of the ε-similarity graph over *sequences*.

    Every index appears as a key (isolated sequences map to an empty
    set), so downstream algorithms can iterate the node set directly.
    """
    adjacency: dict[int, set[int]] = {i: set() for i in range(len(sequences))}
    for pair in similarity_self_join(sequences, epsilon, page_size=page_size):
        adjacency[pair.left].add(pair.right)
        adjacency[pair.right].add(pair.left)
    return adjacency
