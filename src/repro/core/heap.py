"""A keyed max-heap with O(n) construction.

The paper's complexity argument (Lemma 7) rests on this structure: the two
heaps ``~S`` and ``~L`` are built in O(n) and support O(log n) insert and
extract-max, giving the overall O(n log n) bound.  Ties are broken FIFO by
insertion sequence so packing output is fully deterministic.

The heap is the standard library's :mod:`heapq` (a binary min-heap in C)
over ``(-key, seq, payload)`` entries, so Lemma 7's bounds hold as stated:
``heapify`` is O(n), ``heappush``/``heappop`` are O(log n).  Negating a
float is exact, and ``-0.0 == 0.0`` still ties, so the pop order is the
same (key descending, insertion order) total order as a hand-written
max-heap on ``(key, -seq)``.
"""

from __future__ import annotations

import heapq
from typing import Generic, Iterable, List, Optional, Tuple, TypeVar

__all__ = ["MaxHeap"]

T = TypeVar("T")


class MaxHeap(Generic[T]):
    """Binary max-heap of ``(key, payload)`` entries.

    ``pop`` returns the entry with the largest key; equal keys come out in
    insertion order (FIFO).
    """

    __slots__ = ("_entries", "_seq")

    def __init__(self, entries: Optional[Iterable[Tuple[float, T]]] = None) -> None:
        # Internal entries are (-key, seq, payload): heapq's min-heap pops
        # the largest key first, and the unique seq breaks ties FIFO before
        # a payload is ever compared.
        self._entries: List[Tuple[float, int, T]] = []
        if entries is not None:
            self._entries = [
                (-float(key), seq, payload)
                for seq, (key, payload) in enumerate(entries)
            ]
            heapq.heapify(self._entries)
        self._seq = len(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def push(self, key: float, payload: T) -> None:
        """Insert an entry in O(log n)."""
        heapq.heappush(self._entries, (-float(key), self._seq, payload))
        self._seq += 1

    def peek(self) -> Tuple[float, T]:
        """Return (but keep) the max-key entry."""
        if not self._entries:
            raise IndexError("peek from an empty heap")
        neg_key, _, payload = self._entries[0]
        return -neg_key, payload

    def pop(self) -> Tuple[float, T]:
        """Remove and return the max-key entry in O(log n)."""
        if not self._entries:
            raise IndexError("pop from an empty heap")
        neg_key, _, payload = heapq.heappop(self._entries)
        return -neg_key, payload

    # -- test support ----------------------------------------------------------

    def check_invariant(self) -> None:
        """Assert the max-heap property over the whole array (tests only)."""
        entries = self._entries
        for i in range(1, len(entries)):
            parent = (i - 1) >> 1
            assert entries[parent][:2] <= entries[i][:2], (
                f"heap violated at index {i}"
            )

    def as_sorted_list(self) -> List[Tuple[float, T]]:
        """Drain a *copy* of the heap in descending key order (tests only)."""
        # (-key, seq) is unique, so sorting never compares payloads.
        return [(-neg_key, payload) for neg_key, _, payload in sorted(self._entries)]
