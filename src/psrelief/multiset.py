"""Multisets over symbol ids with arbitrary-precision counts."""

from __future__ import annotations

from typing import Iterator, Mapping


class MultisetError(ValueError):
    pass


class Multiset:
    """Map from symbol id to positive count.

    Canonical form: zero-count entries are never stored.  Counts are plain
    Python ints, so object populations in the trillions cost one dict entry.
    """

    __slots__ = ("_counts",)

    def __init__(self, counts: Mapping[str, int] | None = None):
        self._counts: dict[str, int] = {}
        if counts:
            for sym, cnt in counts.items():
                self.add(sym, cnt)

    @classmethod
    def adopt(cls, counts: dict[str, int]) -> "Multiset":
        """Multiset backed by ``counts`` itself, not a copy; every count must
        be positive."""
        out = object.__new__(cls)
        out._counts = counts
        return out

    def add(self, sym: str, count: int = 1) -> None:
        if count < 0:
            raise MultisetError(f"negative count {count} for {sym!r}")
        if count == 0:
            return
        new = self._counts.get(sym, 0) + count
        self._counts[sym] = new

    def remove(self, sym: str, count: int = 1) -> None:
        have = self._counts.get(sym, 0)
        if count > have:
            raise MultisetError(f"cannot remove {count} x {sym!r}, only {have} present")
        if count == have:
            del self._counts[sym]
        else:
            self._counts[sym] = have - count

    def count(self, sym: str) -> int:
        return self._counts.get(sym, 0)

    def copy(self) -> "Multiset":
        return Multiset.adopt(dict(self._counts))

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
