"""Online whole-match monitoring of a growing stream (extension).

The paper's footnote 1 motivates time warping with streams sampled at
different rates.  :class:`StreamMonitor` watches a *live* stream: fed
one element at a time, it maintains the Definition-2 feasibility column
of the stream-so-far against a fixed query and tolerance, answering
after every element

* :attr:`matches_now` — does the stream *prefix* currently satisfy
  ``D_tw(prefix, Q) <= eps``?
* :attr:`can_still_match` — could any *future extension* of the stream
  still match?  (Once the feasibility frontier dies it can never
  revive, so a monitor can be retired early — the streaming analogue of
  early abandoning.)

Each element costs one ``O(|Q|)`` vectorized column update, the same
sweep the suffix-tree traversal uses.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ValidationError
from ..obs.metrics import count as _charge
from ..types import SequenceLike, as_array, check_epsilon

__all__ = ["StreamMonitor"]


class StreamMonitor:
    """Incremental Definition-2 matcher for one query and tolerance.

    Parameters
    ----------
    query:
        The fixed pattern ``Q`` (non-empty).
    epsilon:
        The tolerance.
    """

    def __init__(self, query: SequenceLike, epsilon: float) -> None:
        q = as_array(query, allow_empty=False)
        check_epsilon(epsilon)
        self._query = q
        self._epsilon = float(epsilon)
        self._m = q.size
        self._idx = np.arange(self._m)
        # col[j] == True  <=>  some warping of the stream-so-far against
        # Q[:j] keeps every element cost within epsilon.
        self._col = np.zeros(self._m + 1, dtype=bool)
        self._col[0] = True  # empty stream matches the empty prefix
        self._count = 0

    # -- state ------------------------------------------------------------

    @property
    def query_length(self) -> int:
        """``|Q|``."""
        return self._m

    @property
    def epsilon(self) -> float:
        """The tolerance."""
        return self._epsilon

    @property
    def elements_seen(self) -> int:
        """Stream elements consumed so far."""
        return self._count

    @property
    def matches_now(self) -> bool:
        """``D_tw(stream-so-far, Q) <= eps`` after the last element."""
        return bool(self._col[self._m]) and self._count > 0

    @property
    def can_still_match(self) -> bool:
        """False once no extension of the stream can ever match."""
        return bool(self._col.any())

    # -- feeding ---------------------------------------------------------------

    def push(self, value: float) -> bool:
        """Consume one stream element; returns :attr:`matches_now`."""
        value = float(value)
        if not np.isfinite(value):
            raise ValidationError(f"stream elements must be finite, got {value}")
        self._count += 1
        _charge("stream.pushes")
        if not self._col.any():
            return False  # already dead; stay dead cheaply
        ok_row = np.abs(self._query - value) <= self._epsilon
        col = self._col
        seed = ok_row & (col[1:] | col[:-1])
        new = np.zeros(self._m + 1, dtype=bool)
        if seed.any():
            last_block = np.maximum.accumulate(
                np.where(~ok_row, self._idx, -1)
            )
            last_seed = np.maximum.accumulate(np.where(seed, self._idx, -1))
            new[1:] = ok_row & (last_seed > last_block)
        self._col = new
        if not new.any():
            _charge("stream.frontier_deaths")
        if self.matches_now:
            _charge("stream.matches")
        return self.matches_now

    def extend(self, values: SequenceLike) -> bool:
        """Consume several elements; returns :attr:`matches_now`."""
        for value in as_array(values):
            self.push(float(value))
        return self.matches_now

    def reset(self) -> None:
        """Forget the stream and start over."""
        self._col = np.zeros(self._m + 1, dtype=bool)
        self._col[0] = True
        self._count = 0
