"""``D_tw-lb`` — the paper's lower-bound distance (Definition 3, "LB_Kim").

``D_tw-lb(S, Q) = L_inf(Feature(S), Feature(Q))`` — the largest absolute
difference between corresponding components of the two 4-tuple feature
vectors.

Two properties make it the paper's linchpin (Theorems 1 and 2):

* **Lower bound**: ``D_tw-lb(S, Q) <= D_tw(S, Q)`` for the Definition-2
  (max-recurrence) time-warping distance, so filtering with it incurs no
  false dismissal (Corollary 1).
* **Metric**: ``L_inf`` over fixed-dimension vectors satisfies the
  triangular inequality, so spatial indexes built on the feature space
  are sound.

The module also provides the vectorized batch form used by the scan
baselines and the query-rectangle helper used by the R-tree range query
(Algorithm 1, Step 2): a point query with radius ``eps`` under ``L_inf``
is exactly a 4-d axis-aligned square range.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ValidationError
from ..types import SequenceLike, check_epsilon
from .features import FeatureVector, extract_feature

__all__ = [
    "dtw_lb",
    "dtw_lb_features",
    "dtw_lb_batch",
    "dtw_lb_pairwise",
    "feature_rect",
    "filter_margin",
]


def filter_margin(component, epsilon: float):
    """Float-safety margin for an inclusive lower-bound comparison.

    A filter that keeps ``S`` when ``lb(S, Q) <= eps`` must err on the
    inclusive side: ``lb`` and the exact distance it bounds are computed
    by different float expressions, and at the knife edge the bound can
    round a few ulps above the distance.  The margin scales with the
    operand magnitudes (a few units in the last place of ``|c| + eps``)
    so it can only admit extra candidates, which verification discards.
    Accepts a scalar component or an array of components.
    """
    return (np.abs(component) + epsilon) * 2.0**-50


def dtw_lb_features(fs: FeatureVector, fq: FeatureVector) -> float:
    """``D_tw-lb`` between two already-extracted feature vectors."""
    return max(
        abs(fs.first - fq.first),
        abs(fs.last - fq.last),
        abs(fs.greatest - fq.greatest),
        abs(fs.smallest - fq.smallest),
    )


def dtw_lb(s: SequenceLike, q: SequenceLike) -> float:
    """``D_tw-lb(S, Q)`` between two raw sequences (Definition 3).

    Extracts both 4-tuple feature vectors (``O(|S| + |Q|)``) and takes
    the ``L_inf`` distance between them.
    """
    return dtw_lb_features(extract_feature(s), extract_feature(q))


def dtw_lb_batch(features: np.ndarray, query: FeatureVector) -> np.ndarray:
    """``D_tw-lb`` from one query to many stored feature vectors at once.

    *features* is an ``(n, 4)`` array in paper column order (as produced
    by :func:`repro.core.features.feature_array`); the result is a
    length-``n`` array of distances.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != 4:
        raise ValidationError(
            f"features must have shape (n, 4), got {features.shape}"
        )
    return np.abs(features - query.as_array()).max(axis=1)


def dtw_lb_pairwise(
    features_a: np.ndarray, features_b: np.ndarray
) -> np.ndarray:
    """``D_tw-lb`` between every pair of two feature-vector sets.

    *features_a* is ``(m, 4)`` (e.g. a batch of query features) and
    *features_b* is ``(n, 4)`` (the stored feature matrix); the result
    is the ``(m, n)`` matrix of lower-bound distances — the kernel the
    batched filter cascade evaluates in one shot per query block.
    """
    a = np.asarray(features_a, dtype=np.float64)
    b = np.asarray(features_b, dtype=np.float64)
    for name, arr in (("features_a", a), ("features_b", b)):
        if arr.ndim != 2 or arr.shape[1] != 4:
            raise ValidationError(
                f"{name} must have shape (*, 4), got {arr.shape}"
            )
    return np.abs(a[:, None, :] - b[None, :, :]).max(axis=2)


def feature_rect(
    query: FeatureVector, epsilon: float
) -> tuple[tuple[float, float], ...]:
    """The 4-d square query range of Algorithm 1, Step 2.

    Returns per-dimension ``(low, high)`` intervals
    ``[component - eps, component + eps]`` in paper order.  A feature
    point falls inside this rectangle iff its ``D_tw-lb`` to the query
    is at most *epsilon*, so the R-tree range query returns exactly the
    lower-bound candidate set.

    Each bound carries a small safety margin: ``|x - c|`` (how
    distances are computed) and ``c - eps`` (how the rectangle is
    computed) round differently at the exact-``eps`` knife edge — e.g.
    ``|x - c|`` can round to exactly ``eps`` while ``x`` lies below the
    float ``c - eps`` — and a filter must err on the inclusive side to
    preserve the no-false-dismissal guarantee under floating point.
    The margin scales with the operand magnitudes (a few units in the
    last place of ``|c| + eps``); it can only admit extra candidates,
    which verification discards.
    """
    check_epsilon(epsilon)

    def bounds(c: float) -> tuple[float, float]:
        margin = filter_margin(c, epsilon)
        return (c - epsilon - margin, c + epsilon + margin)

    return tuple(bounds(c) for c in query)
