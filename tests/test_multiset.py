from __future__ import annotations

import pytest

from psrelief.multiset import Multiset, MultisetError


def test_zero_counts_are_not_stored():
    m = Multiset({"a": 2, "b": 0})
    assert "b" not in m and len(m) == 1
    assert len(Multiset({"a": 0})) == 0


def test_negative_count_rejected():
    with pytest.raises(MultisetError, match=r"negative count -1 for 'a'"):
        Multiset({"a": -1})


def test_huge_counts_are_exact():
    big = 7506 * 10**9
    m = Multiset({"p": 2 * big})
    assert m.count("p") == 2 * big


def test_repr_sorted():
    assert repr(Multiset({"b": 2, "a": 1})) == "Multiset({a, b^2})"
