"""The ``vectorized`` kernel — anti-diagonal wavefront fills in numpy.

Cells on an anti-diagonal ``i + j = d`` depend only on diagonals
``d - 1`` (up / left) and ``d - 2`` (diagonal step), so the DP fills in
``n + m - 1`` python iterations, each a handful of vectorized numpy
operations over one diagonal — versus the reference kernel's
``O(n * m)`` per-cell interpreter steps.

Bit-exactness with the reference kernel holds by construction: per cell
the same IEEE-754 double operations run in the same combination
(``abs``/``sub``/``mul``/``add`` and exact ``min``/``max``), and the
early-abandon decision is re-evaluated row-by-row in completion order
(row ``i`` completes on diagonal ``i + m - 1``), reproducing the
reference's first-all-inf-row abandonment — including its charge — even
though later rows are already partially filled.

Banded windows get a genuinely banded fill: for monotone windows (all
generators in :mod:`repro.distance.bands` produce these) the admissible
cells of a diagonal form one contiguous run located by binary search, so
a Sakoe–Chiba band of width ``w`` costs ``O((n + m) * w)`` element work
instead of ``O((n + m) * min(n, m))``.  Arbitrary windows fall back to
masking the full diagonal.

The bounded Definition-2 pass (``max_bounded`` / ``max_bounded_many``)
is the same wavefront over a ``(k, n)`` stack of equal-length
candidates: one set of numpy operations per diagonal advances every
lane, and lanes whose last two diagonals hold no cell within tolerance
retire from the buffers.  It runs at every grid size — the per-diagonal
work is shared by the whole stack, and even single 32 x 32 calls beat
the reference's full matrix.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from ..bands import Window
from .reference import ReferenceKernel
from .registry import register_kernel

__all__ = ["VectorizedKernel"]

_INF = math.inf

#: Below this grid size the per-diagonal numpy dispatch overhead costs
#: more than it saves and the reference per-cell loop wins (measured
#: crossover ~1.6-2k cells); small additive and matrix fills delegate to
#: the reference DP, which is bit-exact with itself by definition.
_WAVEFRONT_MIN_CELLS = 2048


class _Band:
    """Per-diagonal admissibility bounds for a ``Window``.

    ``clip(d, i0, i1)`` returns the sub-range of rows ``[ia, ib]`` within
    ``[i0, i1]`` whose cell on diagonal *d* is admissible, plus a flag
    telling whether masking is still required (non-monotone windows).
    """

    def __init__(self, window: Window, n: int) -> None:
        bounds = np.asarray(window, dtype=np.intp)
        rows = np.arange(n, dtype=np.intp)
        self.lo = bounds[:, 0]
        self.hi = bounds[:, 1]
        # j = d - i is admissible iff lo[i] + i <= d < hi[i] + i.  When
        # both sums are nondecreasing in i the admissible rows of any
        # diagonal form one contiguous run findable by binary search.
        self.lo_plus = self.lo + rows
        self.hi_plus = self.hi + rows
        self.monotone = bool(
            np.all(np.diff(self.lo_plus) >= 0)
            and np.all(np.diff(self.hi_plus) >= 0)
        )

    def clip(self, d: int, i0: int, i1: int) -> tuple[int, int, bool]:
        if not self.monotone:
            return i0, i1, True
        ia = int(np.searchsorted(self.hi_plus, d, side="right"))
        ib = int(np.searchsorted(self.lo_plus, d, side="right")) - 1
        return max(ia, i0), min(ib, i1), False

    def mask(self, d: int, i0: int, i1: int) -> np.ndarray:
        j = d - np.arange(i0, i1 + 1, dtype=np.intp)
        in_band: np.ndarray = (j >= self.lo[i0 : i1 + 1]) & (
            j < self.hi[i0 : i1 + 1]
        )
        return in_band


class VectorizedKernel(ReferenceKernel):
    """Anti-diagonal numpy wavefront fills and bounded passes."""

    name = "vectorized"

    def additive_total(
        self,
        s_arr: np.ndarray,
        q_arr: np.ndarray,
        *,
        power: float,
        window: Window | None,
        cutoff: float | None,
    ) -> tuple[float, int | None]:
        n, m = s_arr.size, q_arr.size
        if n * m < _WAVEFRONT_MIN_CELLS:
            return super().additive_total(
                s_arr, q_arr, power=power, window=window, cutoff=cutoff
            )
        qr = np.ascontiguousarray(q_arr[::-1])
        # The reference two-row DP overflows to inf silently (python
        # float semantics); match that rather than warning per diagonal.
        with np.errstate(over="ignore"):
            if window is None and cutoff is None and self._overflow_free(
                s_arr, q_arr, power
            ):
                return self._additive_wavefront_lean(s_arr, qr, power)
            band = _Band(window, n) if window is not None else None
            lo0 = int(band.lo[0]) if band is not None else 0
            row_finite = np.zeros(n, dtype=bool)
            return self._additive_wavefront(
                s_arr, qr, power, cutoff, band, lo0, row_finite
            )

    @staticmethod
    def _overflow_free(
        s_arr: np.ndarray, q_arr: np.ndarray, power: float
    ) -> bool:
        """True when no accumulated cell can overflow to inf.

        Any warping path visits fewer than ``n + m`` cells, each costing
        at most ``(max|s| + max|q|) ** power``, so a finite product
        bounds every partial sum — ruling out the overflow-to-inf rows
        that make even the unconstrained reference DP abandon.
        """
        peak = float(np.abs(s_arr).max()) + float(np.abs(q_arr).max())
        if power == 2.0:
            peak = peak * peak
        return math.isfinite(peak * (s_arr.size + q_arr.size))

    def _additive_wavefront_lean(
        self, s_arr: np.ndarray, qr: np.ndarray, power: float
    ) -> tuple[float, int | None]:
        """The unconstrained overflow-free fill: no abandon can happen.

        Every in-grid cell has at least one finite predecessor and a
        finite cost (callers prove this via :meth:`_overflow_free`),
        hence stays finite — the abandon bookkeeping of the general
        wavefront is dead weight here.  Instead of re-initialising the whole
        ``curr`` buffer each diagonal, two sentinel writes suffice: the
        admissible row range ``[i0, i1]`` moves by at most one per
        diagonal, so the only stale slots later diagonals can read are
        ``i0`` (below the written run) and ``i1 + 2`` (above it).
        """
        n, m = s_arr.size, qr.size
        prev2 = np.full(n + 1, _INF)
        prev1 = np.full(n + 1, _INF)
        curr = np.full(n + 1, _INF)
        for d in range(n + m - 1):
            i0 = d - m + 1 if d >= m else 0
            i1 = d if d < n else n - 1
            cost = np.abs(s_arr[i0 : i1 + 1] - qr[m - 1 - d + i0 : m - d + i1])
            if power == 2.0:
                cost = cost * cost
            if d == 0:
                curr[1] = cost[0]  # the (0, 0) corner: best is 0.0
            else:
                best = np.minimum(prev1[i0 : i1 + 1], prev1[i0 + 1 : i1 + 2])
                np.minimum(best, prev2[i0 : i1 + 1], out=best)
                best += cost
                curr[i0 + 1 : i1 + 2] = best
            curr[i0] = _INF
            if i1 + 2 <= n:
                curr[i1 + 2] = _INF
            prev2, prev1, curr = prev1, curr, prev2
        return float(prev1[n]), None

    def _additive_wavefront(
        self,
        s_arr: np.ndarray,
        qr: np.ndarray,
        power: float,
        cutoff: float | None,
        band: _Band | None,
        lo0: int,
        row_finite: np.ndarray,
    ) -> tuple[float, int | None]:
        n, m = s_arr.size, qr.size
        # Diagonal buffers indexed by row + 1; slot 0 is an inf sentinel
        # standing in for the out-of-grid row -1.
        prev2 = np.full(n + 1, _INF)
        prev1 = np.full(n + 1, _INF)
        curr = np.full(n + 1, _INF)
        for d in range(n + m - 1):
            i0 = d - m + 1 if d >= m else 0
            i1 = d if d < n else n - 1
            curr[:] = _INF
            ia, ib, need_mask = (
                band.clip(d, i0, i1) if band is not None else (i0, i1, False)
            )
            if ia <= ib:
                cost = np.abs(s_arr[ia : ib + 1] - qr[m - 1 - d + ia : m - d + ib])
                if power == 2.0:
                    cost = cost * cost
                if d == 0:
                    cell = cost  # the (0, 0) corner: best is 0.0
                else:
                    best = np.minimum(
                        np.minimum(prev1[ia : ib + 1], prev1[ia + 1 : ib + 2]),
                        prev2[ia : ib + 1],
                    )
                    cell = best + cost
                if cutoff is not None:
                    cell[cell > cutoff] = _INF
                if need_mask and band is not None:
                    cell[~band.mask(d, ia, ib)] = _INF
                curr[ia + 1 : ib + 2] = cell
                row_finite[ia : ib + 1] |= np.isfinite(cell)
            # Row i completes once diagonal i + m - 1 is filled; checking
            # in completion order reproduces the reference early abandon.
            completed = d - m + 1
            if (
                completed >= 0
                and not row_finite[completed]
                and not (completed == 0 and lo0 > 0)
            ):
                return _INF, completed + 1
            prev2, prev1, curr = prev1, curr, prev2
        return float(prev1[n]), None

    def additive_matrix(
        self,
        s_arr: np.ndarray,
        q_arr: np.ndarray,
        *,
        power: float,
        window: Window | None,
    ) -> np.ndarray:
        if s_arr.size * q_arr.size < _WAVEFRONT_MIN_CELLS:
            return super().additive_matrix(
                s_arr, q_arr, power=power, window=window
            )
        cost = np.abs(s_arr[:, None] - q_arr[None, :])
        if power != 1.0:
            cost = cost**power
        return self._wavefront_matrix(cost, window, additive=True)

    def max_matrix(
        self,
        s_arr: np.ndarray,
        q_arr: np.ndarray,
        *,
        window: Window | None,
    ) -> np.ndarray:
        if s_arr.size * q_arr.size < _WAVEFRONT_MIN_CELLS:
            return super().max_matrix(s_arr, q_arr, window=window)
        cost = np.abs(s_arr[:, None] - q_arr[None, :])
        return self._wavefront_matrix(cost, window, additive=False)

    def max_bounded(
        self,
        s_arr: np.ndarray,
        q_arr: np.ndarray,
        eps: float,
        window: Window | None = None,
    ) -> tuple[float, int | None]:
        values, abandoned = self.max_bounded_many(
            s_arr[None, :], q_arr, eps, window
        )
        diagonal = int(abandoned[0])
        return float(values[0]), (diagonal if diagonal >= 0 else None)

    def max_bounded_many(
        self,
        stack: np.ndarray,
        q_arr: np.ndarray,
        eps: float,
        window: Window | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The max-recurrence wavefront over all lanes of *stack* at once.

        Cells keep their exact accumulated value — no thresholding is
        needed, a cell is live iff that value is ``<= eps`` and finite —
        and a lane retires, dropped from the buffers by mask, on the
        second of two consecutive diagonals without a live cell.
        """
        k, n = stack.shape
        m = q_arr.size
        values = np.full(k, _INF)
        abandoned = np.full(k, -1, dtype=np.int64)
        # ``value <= limit`` is "<= eps and finite" in one comparison.
        limit = min(eps, sys.float_info.max)
        qr = q_arr[::-1]
        band = _Band(window, n) if window is not None else None
        lanes = np.arange(k)
        # Diagonal buffers indexed by row + 1; column 0 is an inf
        # sentinel standing in for the out-of-grid row -1.  Without a
        # band every slot a diagonal reads was written by its
        # predecessors or is still inf, so only banded fills reset it.
        prev2 = np.full((k, n + 1), _INF)
        prev1 = np.full((k, n + 1), _INF)
        curr = np.full((k, n + 1), _INF)
        # Per-lane minimum of the previous diagonal, and whether any lane
        # was dead on it: a lane retires when both of its last two
        # diagonal minima exceed limit.
        prev_mins = np.full(k, -_INF)
        any_was_dead = False
        for d in range(n + m - 1):
            i0 = d - m + 1 if d >= m else 0
            i1 = d if d < n else n - 1
            ia, ib = i0, i1
            if band is not None:
                curr.fill(_INF)
                ia, ib, need_mask = band.clip(d, i0, i1)
            if ia <= ib:
                cell = curr[:, ia + 1 : ib + 2]
                np.subtract(
                    stack[:, ia : ib + 1], qr[m - 1 - d + ia : m - d + ib], out=cell
                )
                np.abs(cell, out=cell)
                if d > 0:
                    best = np.minimum(prev1[:, ia : ib + 1], prev1[:, ia + 1 : ib + 2])
                    np.minimum(best, prev2[:, ia : ib + 1], out=best)
                    np.maximum(cell, best, out=cell)
                if band is not None and need_mask:
                    cell[:, ~band.mask(d, ia, ib)] = _INF
                mins = cell.min(axis=1)
            else:
                mins = np.full(lanes.size, _INF)
            # A python max over the k minima is cheaper than a numpy
            # reduction on the few lanes a verify stacks.
            any_dead = max(mins.tolist()) > limit
            if any_dead and any_was_dead:
                retire = (mins > limit) & (prev_mins > limit)
                if retire.any():
                    abandoned[lanes[retire]] = d
                    keep = ~retire
                    lanes = lanes[keep]
                    if lanes.size == 0:
                        break
                    stack, prev1, curr, prev2 = (
                        stack[keep], prev1[keep], curr[keep], prev2[keep]
                    )
                    mins = mins[keep]
                    any_dead = max(mins.tolist()) > limit
            prev_mins, any_was_dead = mins, any_dead
            prev2, prev1, curr = prev1, curr, prev2
        else:
            corner = prev1[:, n]
            values[lanes] = np.where(corner <= limit, corner, _INF)
        return values, abandoned

    def _wavefront_matrix(
        self, cost: np.ndarray, window: Window | None, *, additive: bool
    ) -> np.ndarray:
        """Fill the full accumulated matrix one anti-diagonal at a time.

        ``additive=True`` accumulates ``best + cost`` (Definition 1,
        *cost* already raised to the base power); ``additive=False``
        accumulates ``max(cost, best)`` (Definition 2).
        """
        n, m = cost.shape
        acc = np.full((n, m), _INF)
        band = _Band(window, n) if window is not None else None
        rows = np.arange(n, dtype=np.intp)
        prev2 = np.full(n + 1, _INF)
        prev1 = np.full(n + 1, _INF)
        curr = np.full(n + 1, _INF)
        for d in range(n + m - 1):
            i0 = d - m + 1 if d >= m else 0
            i1 = d if d < n else n - 1
            curr[:] = _INF
            ia, ib, need_mask = (
                band.clip(d, i0, i1) if band is not None else (i0, i1, False)
            )
            if ia <= ib:
                i_idx = rows[ia : ib + 1]
                j_idx = d - i_idx
                c = cost[i_idx, j_idx]
                if d == 0:
                    # The (0, 0) corner: best is 0.0 and cost >= 0, so
                    # both recurrences reduce to the cost itself.
                    cell = c
                else:
                    best = np.minimum(
                        np.minimum(prev1[ia : ib + 1], prev1[ia + 1 : ib + 2]),
                        prev2[ia : ib + 1],
                    )
                    cell = best + c if additive else np.maximum(c, best)
                if need_mask and band is not None:
                    # Masked cells become inf — writing them back into
                    # ``acc`` is a no-op against its inf initialisation.
                    cell[~band.mask(d, ia, ib)] = _INF
                acc[i_idx, j_idx] = cell
                curr[ia + 1 : ib + 2] = cell
            prev2, prev1, curr = prev1, curr, prev2
        return acc


register_kernel("vectorized", VectorizedKernel())
