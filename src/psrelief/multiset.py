"""Multisets over symbol ids with arbitrary-precision counts."""

from __future__ import annotations

from typing import Iterator, Mapping


class MultisetError(ValueError):
    pass


class Multiset:
    """Map from symbol id to positive count; never changes after construction.

    Canonical form: zero-count entries are never stored.  Counts are plain
    Python ints, so object populations in the trillions cost one dict entry.
    Because a multiset is a value, configurations and rules share them freely.
    """

    __slots__ = ("_counts",)

    def __init__(self, counts: Mapping[str, int] | None = None):
        self._counts: dict[str, int] = {}
        if counts:
            for sym, cnt in counts.items():
                if cnt < 0:
                    raise MultisetError(f"negative count {cnt} for {sym!r}")
                if cnt:
                    self._counts[sym] = cnt

    @classmethod
    def adopt(cls, counts: dict[str, int]) -> "Multiset":
        """Multiset that takes ownership of ``counts`` itself, unchecked: every
        count must be positive, and no one may change the dict afterwards."""
        out = object.__new__(cls)
        out._counts = counts
        return out

    def count(self, sym: str) -> int:
        return self._counts.get(sym, 0)

    def items(self) -> Iterator[tuple[str, int]]:
        return iter(self._counts.items())

    def sorted_items(self) -> list[tuple[str, int]]:
        return sorted(self._counts.items())

    def total(self) -> int:
        return sum(self._counts.values())

    def counts(self) -> dict[str, int]:
        """Raw backing dict; callers must not mutate."""
        return self._counts

    def __contains__(self, sym: str) -> bool:
        return sym in self._counts

    def __iter__(self) -> Iterator[str]:
        return iter(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self):
        return hash(frozenset(self._counts.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{s}^{c}" if c != 1 else s for s, c in self.sorted_items())
        return f"Multiset({{{inner}}})"
