"""Tests for the Sequence wrapper and coercion helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import EmptySequenceError, ValidationError
from repro.types import (
    Sequence,
    as_array,
    as_sequence,
    check_epsilon,
    check_k,
)


class TestAsArray:
    def test_list_coerced_to_float64(self):
        arr = as_array([1, 2, 3])
        assert arr.dtype == np.float64
        assert arr.tolist() == [1.0, 2.0, 3.0]

    def test_result_is_read_only(self):
        arr = as_array([1.0, 2.0])
        with pytest.raises(ValueError):
            arr[0] = 5.0

    def test_sequence_passthrough_shares_buffer(self):
        seq = Sequence([1.0, 2.0])
        assert as_array(seq) is seq.values

    def test_generator_input(self):
        arr = as_array(float(i) for i in range(4))
        assert arr.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_rejects_2d(self):
        with pytest.raises(ValidationError):
            as_array(np.zeros((2, 2)))

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            as_array([1.0, float("nan")])

    def test_rejects_inf(self):
        with pytest.raises(ValidationError):
            as_array([1.0, float("inf")])

    @pytest.mark.parametrize(
        "values",
        (["a"], [1.0, "x"], [[1.0], [2.0, 3.0]], object()),
        ids=("string", "mixed", "ragged", "not-iterable"),
    )
    def test_rejects_non_numeric(self, values):
        with pytest.raises(ValidationError, match="must be numbers") as info:
            as_array(values)
        assert "\n" not in str(info.value)

    def test_rejects_non_numeric_generator(self):
        with pytest.raises(ValidationError, match="must be numbers"):
            as_array(v for v in ("1", "b"))

    def test_empty_allowed_by_default(self):
        assert as_array([]).size == 0

    def test_empty_rejected_when_disallowed(self):
        with pytest.raises(EmptySequenceError):
            as_array([], allow_empty=False)


class TestSequence:
    def test_paper_accessors(self):
        seq = Sequence([3.0, 1.0, 7.0, 2.0])
        assert seq.first == 3.0
        assert seq.last == 2.0
        assert seq.greatest == 7.0
        assert seq.smallest == 1.0

    def test_rest_drops_first_element(self):
        seq = Sequence([1.0, 2.0, 3.0])
        assert list(seq.rest()) == [2.0, 3.0]

    def test_rest_of_singleton_is_empty(self):
        assert len(Sequence([5.0]).rest()) == 0

    def test_len_and_iter(self):
        seq = Sequence([1.0, 2.0, 3.0])
        assert len(seq) == 3
        assert list(seq) == [1.0, 2.0, 3.0]

    def test_getitem_scalar_and_slice(self):
        seq = Sequence([1.0, 2.0, 3.0, 4.0])
        assert seq[1] == 2.0
        assert isinstance(seq[1:3], Sequence)
        assert list(seq[1:3]) == [2.0, 3.0]

    def test_equality_by_values(self):
        assert Sequence([1, 2]) == Sequence([1.0, 2.0])
        assert Sequence([1, 2]) != Sequence([1, 2, 3])
        assert Sequence([1, 2]) != Sequence([2, 1])

    def test_hash_consistent_with_equality(self):
        assert hash(Sequence([1, 2])) == hash(Sequence([1.0, 2.0]))

    def test_empty_sequence_accessors_raise(self):
        seq = Sequence([])
        for attr in ("first", "last", "greatest", "smallest"):
            with pytest.raises(EmptySequenceError):
                getattr(seq, attr)

    def test_negative_seq_id_rejected(self):
        with pytest.raises(ValidationError):
            Sequence([1.0], seq_id=-1)

    def test_with_id_preserves_values_and_label(self):
        seq = Sequence([1.0, 2.0], label="x")
        tagged = seq.with_id(9)
        assert tagged.seq_id == 9
        assert tagged.label == "x"
        assert tagged == seq

    def test_repr_mentions_length_and_id(self):
        text = repr(Sequence([1, 2, 3], seq_id=4, label="abc"))
        assert "len=3" in text
        assert "seq_id=4" in text
        assert "abc" in text

    def test_values_are_immutable(self):
        seq = Sequence([1.0, 2.0])
        with pytest.raises(ValueError):
            seq.values[0] = 9.0


class TestAsSequence:
    def test_passthrough(self):
        seq = Sequence([1.0])
        assert as_sequence(seq) is seq

    def test_wraps_list(self):
        seq = as_sequence([1.0, 2.0], seq_id=3)
        assert isinstance(seq, Sequence)
        assert seq.seq_id == 3


class TestBoundaryChecks:
    @pytest.mark.parametrize(
        "epsilon", [0, 0.5, np.float64(0.5), np.int64(2), float("inf")]
    )
    def test_real_epsilon_accepted(self, epsilon):
        check_epsilon(epsilon)

    @pytest.mark.parametrize("epsilon", ["0.5", None, True, False, [1.0], 1j])
    def test_non_real_or_bool_epsilon_rejected(self, epsilon):
        with pytest.raises(ValidationError, match="epsilon must be a real number"):
            check_epsilon(epsilon)

    @pytest.mark.parametrize("k", [1, 10, np.int64(3)])
    def test_integer_k_accepted(self, k):
        check_k(k)

    @pytest.mark.parametrize("k", [2.5, 3.0, "3", None, True, np.float64(2)])
    def test_non_integer_or_bool_k_rejected(self, k):
        with pytest.raises(ValidationError, match="k must be an integer"):
            check_k(k)

    @pytest.mark.parametrize("k", [0, -2])
    def test_non_positive_k_rejected(self, k):
        with pytest.raises(ValidationError, match="k must be positive"):
            check_k(k)
