"""Machine-speed reference, so times from a shared machine compare.

The machine's effective CPU speed drifts by up to 2x over tens of
seconds when other tenants load it, which swamps any change worth
measuring.  Before each operation the benchmark times a fixed
reference kernel outside the timed region.  The kernel mixes the kinds
of work the program does — small NumPy calls in a Python loop (DTW
verify), per-sequence slicing, reductions and small objects (feature
store builds) and a sort (exact DTW refinement).  Every reported time
is rescaled to a machine on which the kernel takes :data:`NOMINAL_S`:
``reported = measured * NOMINAL_S / reference``, with the reference
taken as the median of the samples around it.  A change to the program
moves the measured time and not the reference, so it shows in full.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

__all__ = ["NOMINAL_S", "reference_seconds", "local_scales", "scale"]

#: Reference-kernel time the reported figures are scaled to (about its
#: median on an unloaded 2.0 GHz Xeon vCPU).
NOMINAL_S = 1e-3

#: Samples on each side of an operation that form its local reference.
WINDOW = 8

_BASE = np.linspace(0.0, 1.0, 128)
_VALUES = np.random.default_rng(0).normal(size=10_000)


def reference_seconds() -> float:
    """Wall seconds of one run of the fixed reference kernel."""
    start = time.perf_counter()
    row = _BASE.copy()
    for i in range(100):
        np.minimum(row[1:], row[:-1], out=row[1:])
        np.maximum(row, _BASE, out=row)
        float(row[i])
    features = []
    for i in range(100):
        values = _VALUES[i * 100 : (i + 1) * 100]
        features.append((float(values[0]), float(values[-1]), values.max(), values.min()))
    rows = {i: feature for i, feature in enumerate(np.array(features))}
    np.sort(_VALUES[: 50 * len(rows)])
    return time.perf_counter() - start


def scale(samples: list[float]) -> float:
    """Factor from measured to reported time for one reference window."""
    return NOMINAL_S / statistics.median(samples)


def local_scales(samples: list[float], window: int = WINDOW) -> list[float]:
    """Per-sample factors from a centred rolling median of *samples*."""
    return [
        scale(samples[max(0, i - window) : i + window + 1])
        for i in range(len(samples))
    ]
