from __future__ import annotations

import pytest

from psrelief.multiset import Multiset, MultisetError


def test_zero_counts_are_not_stored():
    m = Multiset({"a": 2})
    m.add("b", 0)
    assert "b" not in m
    m.remove("a", 2)
    assert "a" not in m and len(m) == 0


def test_negative_count_rejected():
    with pytest.raises(MultisetError):
        Multiset({"a": -1})


def test_subtracting_more_than_present_is_contract_violation():
    m = Multiset({"a": 1})
    with pytest.raises(MultisetError):
        m.remove("a", 2)


def test_huge_counts_are_exact():
    big = 7506 * 10**9
    m = Multiset({"p": big})
    m.add("p", big)
    assert m.count("p") == 2 * big


def test_repr_sorted():
    assert repr(Multiset({"b": 2, "a": 1})) == "Multiset({a, b^2})"
