"""Answer oracle: the Definition-2 distance by its DP, in plain numpy.

Shares no code with the program.  ``D_tw(S, Q)`` under Definition 2 is
the corner cell of the max recurrence::

    acc[i, j] = max(|s_i - q_j|, min(acc[i-1, j], acc[i, j-1], acc[i-1, j-1]))

:func:`dtw_max_many` fills it for every stored sequence at once: the
sequences are padded to a common length and the fill runs row by row,
each cell update a vector operation across all sequences.  Row ``i``
depends only on rows ``<= i``, so the padding past a sequence's end
never reaches its corner cell, which is read off at row ``len - 1``.
Only ``abs``, ``-``, ``min`` and ``max`` touch the values, so the
distances are exact: a correct program agrees bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["dtw_max_many", "Oracle", "compare"]

#: One answer as the comparison sees it: ``(sequence id, distance)``.
Answer = tuple[int, float]


def dtw_max_many(stored: Sequence[np.ndarray], query: np.ndarray) -> np.ndarray:
    """``D_tw`` (Definition 2) of *query* to each sequence in *stored*."""
    q = np.asarray(query, dtype=np.float64)
    k, m = len(stored), q.size
    lengths = np.fromiter((s.size for s in stored), dtype=np.int64, count=k)
    n_max = int(lengths.max()) if k else 0
    # (row, sequence) layout keeps every vector operation contiguous.
    padded = np.zeros((n_max, k), dtype=np.float64)
    for col, values in enumerate(stored):
        padded[: values.size, col] = values
    out = np.full(k, np.inf)
    prev = np.empty((m, k))
    row = np.empty((m, k))
    up = np.empty((m, k))
    tmp = np.empty(k)
    for i in range(n_max):
        cost = np.abs(q[:, None] - padded[i][None, :])
        if i == 0:
            np.maximum.accumulate(cost, axis=0, out=row)
        else:
            up[0] = prev[0]
            np.minimum(prev[1:], prev[:-1], out=up[1:])
            np.maximum(cost[0], up[0], out=row[0])
            for j in range(1, m):
                np.minimum(row[j - 1], up[j], out=tmp)
                np.maximum(cost[j], tmp, out=row[j])
        done = lengths == i + 1
        out[done] = row[m - 1, done]
        prev, row = row, prev
    return out


def compare(got: Sequence[Answer], expected: Sequence[Answer]) -> str | None:
    """``None`` when *got* equals *expected* exactly, else what differs.

    Exact means the same ids in the same order with bit-equal distances,
    so a kNN list must also break distance ties by id.
    """
    if list(got) == list(expected):
        return None
    got_ids = {sid for sid, _ in got}
    want_ids = {sid for sid, _ in expected}
    missing = sorted(want_ids - got_ids)
    extra = sorted(got_ids - want_ids)
    if missing or extra:
        return f"missing ids {missing[:5]}, extra ids {extra[:5]}"
    return "same ids, different distances or order"


class Oracle:
    """Expected answers over an explicit ``{id: values}`` mirror of the data."""

    def __init__(self, contents: dict[int, np.ndarray]) -> None:
        self.contents = contents

    def _distances(self, query: np.ndarray, ids: list[int]) -> list[Answer]:
        dist = dtw_max_many([self.contents[sid] for sid in ids], query)
        return sorted(zip(ids, (float(d) for d in dist)), key=lambda a: (a[1], a[0]))

    def range(self, query: np.ndarray, epsilon: float) -> list[Answer]:
        """Every ``(id, D_tw)`` within *epsilon*, by ascending (distance, id).

        Cells ``(0, 0)`` and ``(n-1, m-1)`` lie on every warping path, so
        a sequence whose first or last element differs from the query's
        by more than *epsilon* cannot qualify and skips the DP.
        """
        q0, q1 = float(query[0]), float(query[-1])
        ids = [
            sid
            for sid, s in self.contents.items()
            if abs(float(s[0]) - q0) <= epsilon and abs(float(s[-1]) - q1) <= epsilon
        ]
        if not ids:
            return []
        return [a for a in self._distances(query, ids) if a[1] <= epsilon]

    def knn(self, query: np.ndarray, k: int) -> list[Answer]:
        """The *k* smallest ``(id, D_tw)``, ties broken by id."""
        return self._distances(query, list(self.contents))[:k]
