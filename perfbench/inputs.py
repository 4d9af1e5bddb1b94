"""Seeded input generators for every workload, plus an input digest.

Nothing here imports the program: random walks (paper section 5.1),
synthetic stock series and the paper's perturbation query generator
(section 5.1, footnote 2) are re-implemented so that a change under
``src/`` can never shift a workload's data.  Every stream item is a
pure function of ``(seed, stream tag, index)``, so a run draws the same
inputs however many operations its time budget allows.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np

__all__ = [
    "random_walks",
    "stock_series",
    "perturb",
    "stream_rng",
    "digest",
]

#: Stream tags keep the per-purpose random streams of one seed disjoint.
TAG_DATA = 0
TAG_QUERIES = 1
TAG_INGEST = 2
TAG_WRITE_PROBE = 3
TAG_SETUP = 4


def stream_rng(seed: int, tag: int, index: int = 0) -> np.random.Generator:
    """The generator of item *index* of stream *tag* under *seed*."""
    return np.random.default_rng([seed, tag, index])


def random_walks(rng: np.random.Generator, n: int, length: int) -> np.ndarray:
    """``(n, length)`` random walks: ``s_1 ~ U[1, 10]``, steps ``~ U[-0.1, 0.1]``."""
    starts = rng.uniform(1.0, 10.0, size=(n, 1))
    steps = rng.uniform(-0.1, 0.1, size=(n, length - 1))
    walks = np.empty((n, length), dtype=np.float64)
    walks[:, :1] = starts
    np.cumsum(steps, axis=1, out=walks[:, 1:])
    walks[:, 1:] += starts
    return walks


def stock_series(rng: np.random.Generator, mean_length: int = 128) -> np.ndarray:
    """One geometric-random-walk price series of length ``~N(mean, 15%)``.

    Start price log-uniform on $10..$100, per-series daily drift
    ``N(0.0003, 0.0005)`` and volatility log-uniform on 0.6%..2%.
    """
    length = max(8, int(rng.normal(mean_length, 0.15 * mean_length)))
    start = float(np.exp(rng.uniform(np.log(10.0), np.log(100.0))))
    drift = rng.normal(0.0003, 0.0005)
    volatility = float(np.exp(rng.uniform(np.log(0.006), np.log(0.02))))
    returns = rng.normal(drift, volatility, size=length - 1)
    prices = np.empty(length, dtype=np.float64)
    prices[0] = start
    prices[1:] = start * np.exp(np.cumsum(returns))
    return prices


def perturb(rng: np.random.Generator, values: np.ndarray) -> np.ndarray:
    """The paper's query generator: add ``U[-std/2, std/2]`` to every element."""
    std = float(values.std())
    return values + rng.uniform(-std / 2.0, std / 2.0, size=values.size)


def digest(arrays: Iterable[np.ndarray]) -> str:
    """SHA-256 over the shapes and float64 bytes of *arrays*, in order."""
    h = hashlib.sha256()
    for array in arrays:
        arr = np.ascontiguousarray(array, dtype="<f8")
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:16]
