from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from psrelief.multiset import Multiset, MultisetError


def test_zero_counts_are_not_stored():
    m = Multiset({"a": 2, "b": 0})
    assert "b" not in m and len(m) == 1
    assert len(Multiset({"a": 0})) == 0


def test_negative_count_rejected():
    with pytest.raises(MultisetError, match=r"negative count -1 for 'a'"):
        Multiset({"a": -1})


@pytest.mark.parametrize("count", [0.5, 2.0, Fraction(1, 2), Fraction(2), "2", None])
def test_non_integer_count_rejected(count):
    with pytest.raises(MultisetError) as exc:
        Multiset({"a": count})
    assert str(exc.value) == f"count {count!r} for 'a' is not an integer"


def test_integer_counts_are_stored_as_int():
    m = Multiset({"a": np.int64(3), "b": 2**70})
    assert [(sym, cnt, type(cnt)) for sym, cnt in m.items()] == [("a", 3, int), ("b", 2**70, int)]


def test_huge_counts_are_exact():
    big = 7506 * 10**9
    m = Multiset({"p": 2 * big})
    assert m.count("p") == 2 * big


def test_repr_sorted():
    assert repr(Multiset({"b": 2, "a": 1})) == "Multiset({a, b^2})"
