"""Unit tests for DiscreteSequence."""

from __future__ import annotations

import pytest

from repro.timeseries import DiscreteSequence


class TestConstruction:
    def test_alphabet_inferred_in_order(self):
        seq = DiscreteSequence(("b", "a", "b", "c"))
        assert seq.alphabet == ("b", "a", "c")

    def test_explicit_alphabet_validated(self):
        with pytest.raises(ValueError, match="alphabet"):
            DiscreteSequence(("a", "x"), alphabet=("a", "b"))

    def test_explicit_alphabet_deduplicated(self):
        seq = DiscreteSequence(("a",), alphabet=("a", "b", "a"))
        assert seq.alphabet == ("a", "b")

    def test_accepts_any_hashable(self):
        seq = DiscreteSequence((1, (2, 3), "x"))
        assert len(seq) == 3

    def test_empty_sequence(self):
        seq = DiscreteSequence(())
        assert len(seq) == 0
        assert list(seq.ngrams(1)) == []


class TestAccess:
    def test_getitem_scalar_and_slice(self):
        seq = DiscreteSequence(("a", "b", "c"))
        assert seq[1] == "b"
        sub = seq[1:]
        assert isinstance(sub, DiscreteSequence)
        assert sub.symbols == ("b", "c")
        assert sub.alphabet == seq.alphabet

    def test_contains(self):
        seq = DiscreteSequence(("a", "b"))
        assert "a" in seq
        assert "z" not in seq

    def test_iteration(self):
        assert list(DiscreteSequence(("x", "y"))) == ["x", "y"]


class TestNGrams:
    def test_ngrams_count_and_order(self):
        seq = DiscreteSequence(("a", "b", "a", "b"))
        grams = list(seq.ngrams(2))
        assert grams == [("a", "b"), ("b", "a"), ("a", "b")]

    def test_ngrams_longer_than_sequence(self):
        seq = DiscreteSequence(("a",))
        assert list(seq.ngrams(3)) == []

    def test_ngrams_rejects_zero(self):
        with pytest.raises(ValueError):
            list(DiscreteSequence(("a",)).ngrams(0))

    def test_counts(self):
        seq = DiscreteSequence(("a", "a", "b"))
        assert seq.counts() == {"a": 2, "b": 1}


class TestWindows:
    def test_windows_stride_one(self):
        seq = DiscreteSequence(("a", "b", "c"))
        ws = list(seq.windows(2))
        assert [w.symbols for w in ws] == [("a", "b"), ("b", "c")]
        assert all(w.alphabet == seq.alphabet for w in ws)

    def test_windows_stride(self):
        seq = DiscreteSequence(tuple("abcdef"))
        ws = list(seq.windows(2, stride=2))
        assert [w.symbols for w in ws] == [("a", "b"), ("c", "d"), ("e", "f")]

    def test_windows_rejects_bad_args(self):
        with pytest.raises(ValueError):
            list(DiscreteSequence(("a",)).windows(0))


class TestEncoding:
    def test_index_encode_stable(self):
        seq = DiscreteSequence(("b", "a", "b"), alphabet=("a", "b"))
        assert seq.index_encode() == (1, 0, 1)

