"""Time-warping traversal of the suffix tree (the ST-Filter algorithm).

Walks the generalized suffix tree depth-first, maintaining for the
current root-to-position path ``P`` (a string of categories) a boolean
dynamic-programming column ``col[j]`` = "some warping of ``P`` against
``Q[:j]`` keeps every element cost within the tolerance", where the
per-element cost is the *minimum possible distance* between the
category's value interval and the raw query element.  Since that cost
never exceeds the true element distance, the column never under-reports
feasibility for any data (sub)sequence spelled by the path — pruning a
branch whose column is all-false is free of false dismissal, and
surviving sequence ends are exactly ST-Filter's candidates.

The column update is a vectorized run-propagation sweep (one numpy pass
per tree symbol), which is what makes the traversal affordable in pure
Python.

Whole matching requires the path to spell a *complete* sequence: the
traversal only emits a candidate when it reaches a terminator at depth
equal to that sequence's length.  Subsequence matching emits a
candidate ``(seq_id, offset, length)`` for every path position whose
final column entry is feasible (every root-to-position path in a
suffix tree is some subsequence of some stored sequence).
"""

from __future__ import annotations

import numpy as np

from ...types import SequenceLike, as_array, check_epsilon
from ..rtree.stats import AccessStats
from .categorize import Categorizer
from .ukkonen import GeneralizedSuffixTree, SuffixTreeNode, terminator_sequence

__all__ = ["WarpingTraversal"]


class WarpingTraversal:
    """Pruned DTW search over a categorized suffix tree.

    Parameters
    ----------
    tree:
        The generalized suffix tree over categorized sequences.
    categorizer:
        The fitted categorizer that produced the tree's symbols;
        supplies category-interval-to-value minimum distances.
    stats:
        Optional access-statistics sink; every node visit is recorded
        (one visit models one page read of the suffix tree).
    """

    def __init__(
        self,
        tree: GeneralizedSuffixTree,
        categorizer: Categorizer,
        *,
        stats: AccessStats | None = None,
    ) -> None:
        self._tree = tree
        self._categorizer = categorizer
        self.stats = stats if stats is not None else AccessStats()

    # -- public queries ------------------------------------------------------

    def whole_match_candidates(
        self, query: SequenceLike, epsilon: float
    ) -> list[int]:
        """Sequence ids that may satisfy ``D_tw(S, Q) <= epsilon``.

        Guaranteed superset of the true whole-matching answers.
        """
        q = self._check_query(query, epsilon)
        candidates: set[int] = set()

        def on_sequence_end(seq_index: int, depth: int, feasible: bool) -> None:
            if feasible and depth == self._tree.sequence_length(seq_index):
                candidates.add(seq_index)

        self._traverse(q, epsilon, on_sequence_end, None)
        return sorted(candidates)

    def subsequence_candidates(
        self, query: SequenceLike, epsilon: float
    ) -> list[tuple[int, int, int]]:
        """``(seq_id, offset, length)`` triples that may match the query.

        Each triple names a categorized subsequence whose minimum
        possible time-warping distance to the query is within
        tolerance; the caller verifies with the true distance.
        """
        q = self._check_query(query, epsilon)
        matches: set[tuple[int, int, int]] = set()

        def on_within(node: SuffixTreeNode, depth: int) -> None:
            for leaf in self._tree._iter_leaves(node):
                if leaf.suffix_start is None:
                    continue
                seq_index, offset = self._tree.locate(leaf.suffix_start)
                if offset + depth <= self._tree.sequence_length(seq_index):
                    matches.add((seq_index, offset, depth))

        self._traverse(q, epsilon, None, on_within)
        return sorted(matches)

    # -- internals --------------------------------------------------------------

    def _check_query(self, query: SequenceLike, epsilon: float) -> np.ndarray:
        check_epsilon(epsilon)
        return as_array(query)

    def _feasible_row(
        self, category: int, q: np.ndarray, epsilon: float
    ) -> np.ndarray:
        """Boolean mask: query elements within *epsilon* of the interval."""
        lo, hi = self._categorizer.interval(category)
        return (q >= lo - epsilon) & (q <= hi + epsilon)

    def _traverse(
        self,
        q: np.ndarray,
        epsilon: float,
        on_sequence_end,
        on_within,
    ) -> None:
        m = q.size
        tree = self._tree
        text = tree.text
        feasible_cache: dict[int, np.ndarray] = {}
        idx = np.arange(m)
        initial = np.zeros(m + 1, dtype=bool)
        initial[0] = True  # empty path matches the empty query prefix
        # Stack of (node, column at the node's start, path depth so far).
        stack: list[tuple[SuffixTreeNode, np.ndarray, int]] = []
        root = tree.root
        self.stats.record_node(is_leaf=False, entries=len(root.children))
        for child in root.children.values():
            stack.append((child, initial, 0))

        while stack:
            node, col, depth = stack.pop()
            self.stats.record_node(is_leaf=node.is_leaf, entries=len(node.children))
            end = node.end if node.end is not None else len(text)
            pruned = False
            reached_end = False
            for pos in range(node.start, end):
                symbol = text[pos]
                if symbol < 0:
                    if on_sequence_end is not None:
                        on_sequence_end(
                            terminator_sequence(symbol), depth, bool(col[m])
                        )
                    reached_end = True
                    break
                ok_row = feasible_cache.get(symbol)
                if ok_row is None:
                    ok_row = self._feasible_row(symbol, q, epsilon)
                    feasible_cache[symbol] = ok_row
                col = _advance_column(col, ok_row, idx)
                depth += 1
                if not col.any():
                    pruned = True
                    break
                if on_within is not None and col[m]:
                    # Report at the current in-edge position; leaves below
                    # this node all share the path spelled so far.
                    on_within(node, depth)
            if pruned or reached_end:
                continue
            for child in node.children.values():
                stack.append((child, col, depth))


def _advance_column(
    col: np.ndarray, ok_row: np.ndarray, idx: np.ndarray
) -> np.ndarray:
    """One vectorized step of the feasibility DP along the tree path.

    ``new[j] = ok[j-1] and (col[j] or col[j-1] or new[j-1])`` with
    ``new[0] = False`` (a non-empty path cannot match an empty query).
    The within-row dependency through ``new[j-1]`` is resolved with the
    run-propagation sweep: a cell is feasible iff a seeded cell precedes
    it in its maximal run of admissible cells.
    """
    m = ok_row.size
    seed = ok_row & (col[1:] | col[:-1])
    new = np.zeros(m + 1, dtype=bool)
    if not seed.any():
        return new
    last_block = np.maximum.accumulate(np.where(~ok_row, idx, -1))
    last_seed = np.maximum.accumulate(np.where(seed, idx, -1))
    new[1:] = ok_row & (last_seed > last_block)
    return new
