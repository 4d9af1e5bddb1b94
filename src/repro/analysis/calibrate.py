"""Tolerance calibration: what ε yields the result size I want?

The paper observes that "most users are interested in just a few
answers" but gives no guidance for picking ε.  This module samples
query/sequence pairs the way the paper's workload does, profiles the
resulting distance distribution, and inverts it: given a target
selectivity (expected fraction of the database in the answer set),
suggest the tolerance.

The exact distance is profiled on a bounded sample; the cheap
``D_tw-lb`` is profiled on all sampled pairs, giving a bracketing
estimate (since ``D_tw-lb <= D_tw``, its quantile curve can only make
the suggestion conservative when used as a fallback).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence as TypingSequence

import numpy as np

from ..core.lower_bound import dtw_lb
from ..distance.dtw import dtw_max
from ..exceptions import ValidationError
from ..types import SequenceLike, as_array, check_epsilon

__all__ = ["DistanceProfile", "suggest_epsilon"]


@dataclass(frozen=True)
class DistanceProfile:
    """Sampled distance distribution between random database pairs.

    Attributes
    ----------
    true_distances:
        Sorted exact ``D_tw`` samples.
    lower_bounds:
        Sorted ``D_tw-lb`` samples over the same pairs.
    """

    true_distances: np.ndarray
    lower_bounds: np.ndarray

    def quantile(self, q: float) -> float:
        """The *q*-quantile of the true-distance sample."""
        if not 0.0 <= q <= 1.0:
            raise ValidationError(f"quantile must be in [0, 1], got {q}")
        return float(np.quantile(self.true_distances, q))

    def selectivity_at(self, epsilon: float) -> float:
        """Estimated fraction of pairs within *epsilon*."""
        check_epsilon(epsilon)
        return float((self.true_distances <= epsilon).mean())

    def filtering_power_at(self, epsilon: float) -> float:
        """Estimated fraction of pairs the index prunes at *epsilon*.

        ``1 - P(D_tw-lb <= eps)``: how much of the database a range
        query avoids touching.
        """
        check_epsilon(epsilon)
        return float((self.lower_bounds > epsilon).mean())


def profile_distances(
    sequences: TypingSequence[SequenceLike],
    *,
    n_pairs: int = 500,
    seed: int = 0,
) -> DistanceProfile:
    """Sample random pairs and profile their distances."""
    if len(sequences) < 2:
        raise ValidationError("profiling requires at least two sequences")
    if n_pairs < 1:
        raise ValidationError(f"n_pairs must be >= 1, got {n_pairs}")
    rng = np.random.default_rng(seed)
    arrays = [as_array(seq, allow_empty=False) for seq in sequences]
    true_distances = np.empty(n_pairs)
    lower_bounds = np.empty(n_pairs)
    n = len(arrays)
    for k in range(n_pairs):
        i = int(rng.integers(n))
        j = int(rng.integers(n - 1))
        if j >= i:
            j += 1
        true_distances[k] = dtw_max(arrays[i], arrays[j])
        lower_bounds[k] = dtw_lb(arrays[i], arrays[j])
    true_distances.sort()
    lower_bounds.sort()
    return DistanceProfile(
        true_distances=true_distances, lower_bounds=lower_bounds
    )


def suggest_epsilon(
    sequences: TypingSequence[SequenceLike],
    target_selectivity: float,
    *,
    n_pairs: int = 500,
    seed: int = 0,
) -> float:
    """Suggest an ε whose expected answer fraction is *target_selectivity*.

    E.g. ``target_selectivity=0.01`` aims for ~1% of the database per
    query — the regime the paper's experiments inhabit.
    """
    if not 0.0 < target_selectivity <= 1.0:
        raise ValidationError(
            f"target_selectivity must be in (0, 1], got {target_selectivity}"
        )
    profile = profile_distances(sequences, n_pairs=n_pairs, seed=seed)
    return profile.quantile(target_selectivity)
