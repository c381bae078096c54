"""The double-chain index allocator — libVig's flow aging machinery.

A ``DoubleChain`` manages the integer indexes of a preallocated slab (the
double-map's value slots). Internally it keeps two intrusive linked lists
over one preallocated cell array — hence the name: a free list of vacant
indexes, and an *allocated* list kept ordered by last-touch time, oldest
at the front. Every allocation and rejuvenation appends to the back, so
expiration only ever inspects the front — expiring ``k`` flows costs
``O(k)`` regardless of table size, which is what keeps the NAT's
per-packet latency flat as the flow table fills (Fig. 12).

Timestamps are non-decreasing along the allocated list; this invariant is
part of the chain's contract and is checked by the refinement tests.
"""

from __future__ import annotations

from typing import Tuple

from repro.libvig.abstract import AbstractChain
from repro.libvig.contracts import contract
from repro.libvig.errors import LibVigError


class TimeRegression(LibVigError):
    """A timestamp older than the chain's newest was supplied."""


class DoubleChain:
    """LRU-ordered allocator of indexes ``0 .. index_range - 1``."""

    _NIL = -1

    def __init__(self, index_range: int) -> None:
        if index_range <= 0:
            raise ValueError("index range must be positive")
        self.index_range = index_range
        # Intrusive doubly-linked allocated list + singly-linked free list.
        self._next = [self._NIL] * index_range
        self._prev = [self._NIL] * index_range
        self._time = [0] * index_range
        self._allocated = [False] * index_range
        self._al_head = self._NIL  # oldest allocated index
        self._al_tail = self._NIL  # newest allocated index
        self._free_head = 0
        for i in range(index_range - 1):
            self._next[i] = i + 1
        self._next[index_range - 1] = self._NIL
        self._size = 0

    # -- abstract state ---------------------------------------------------
    def _abstract_state(self) -> AbstractChain:
        cells = []
        cursor = self._al_head
        while cursor != self._NIL:
            cells.append((cursor, self._time[cursor]))
            cursor = self._next[cursor]
        return AbstractChain(tuple(cells), self.index_range)

    # -- queries ----------------------------------------------------------
    def size(self) -> int:
        """Number of allocated indexes."""
        return self._size

    def is_index_allocated(self, index: int) -> bool:
        """True when ``index`` is currently allocated."""
        self._check_index(index)
        return self._allocated[index]

    def get_oldest(self) -> Tuple[int, int] | None:
        """The (index, timestamp) at the front, or ``None`` when empty."""
        if self._al_head == self._NIL:
            return None
        return self._al_head, self._time[self._al_head]

    def timestamp_of(self, index: int) -> int:
        """Last-touch time of an allocated index."""
        if not self.is_index_allocated(index):
            raise KeyError(index)
        return self._time[index]

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.index_range:
            raise IndexError(f"index {index} out of range [0, {self.index_range})")

    def _newest_time(self) -> int | None:
        if self._al_tail == self._NIL:
            return None
        return self._time[self._al_tail]

    # -- list surgery -----------------------------------------------------
    def _append_allocated(self, index: int, time: int) -> None:
        self._time[index] = time
        self._prev[index] = self._al_tail
        self._next[index] = self._NIL
        if self._al_tail == self._NIL:
            self._al_head = index
        else:
            self._next[self._al_tail] = index
        self._al_tail = index

    def _unlink_allocated(self, index: int) -> None:
        prev, nxt = self._prev[index], self._next[index]
        if prev == self._NIL:
            self._al_head = nxt
        else:
            self._next[prev] = nxt
        if nxt == self._NIL:
            self._al_tail = prev
        else:
            self._prev[nxt] = prev

    # -- updates ----------------------------------------------------------
    @contract(
        requires=lambda self, time: True,
        ensures=lambda old, result, self, time: (
            (result is None and old.size() == old.index_range)
            or self._abstract_state().cells == old.allocate(result, time).cells
        ),
    )
    def allocate_new_index(self, time: int) -> int | None:
        """Take a vacant index, stamp it, append it newest; None when full."""
        self._guard_time(time)
        if self._free_head == self._NIL:
            return None
        index = self._free_head
        self._free_head = self._next[index]
        self._allocated[index] = True
        self._append_allocated(index, time)
        self._size += 1
        return index

    @contract(
        requires=lambda self, index, time: self.is_index_allocated(index),
        ensures=lambda old, result, self, index, time: (
            self._abstract_state().cells == old.rejuvenate(index, time).cells
        ),
    )
    def rejuvenate_index(self, index: int, time: int) -> None:
        """Refresh an allocated index's timestamp and move it newest."""
        self._check_index(index)
        if not self._allocated[index]:
            raise KeyError(index)
        self._guard_time(time)
        self._unlink_allocated(index)
        self._append_allocated(index, time)

    def expire_one_index(self, min_time: int) -> int | None:
        """Free and return the oldest index if its stamp < ``min_time``.

        Returns ``None`` when the chain is empty or the oldest entry is
        still fresh — the expirator loops on this until it gets ``None``.
        """
        if self._al_head == self._NIL:
            return None
        oldest = self._al_head
        if self._time[oldest] >= min_time:
            return None
        self._release(oldest)
        return oldest

    @contract(
        requires=lambda self, index: self.is_index_allocated(index),
        ensures=lambda old, result, self, index: (
            self._abstract_state().cells == old.free(index).cells
        ),
    )
    def free_index(self, index: int) -> None:
        """Explicitly release an allocated index (e.g., TCP RST teardown)."""
        self._check_index(index)
        if not self._allocated[index]:
            raise KeyError(index)
        self._release(index)

    def _release(self, index: int) -> None:
        self._unlink_allocated(index)
        self._allocated[index] = False
        self._next[index] = self._free_head
        self._prev[index] = self._NIL
        self._free_head = index
        self._size -= 1

    def _guard_time(self, time: int) -> None:
        newest = self._newest_time()
        if newest is not None and time < newest:
            raise TimeRegression(
                f"time {time} precedes newest chain timestamp {newest}"
            )

    # -- checkpoint/restore -----------------------------------------------
    def cells(self) -> Tuple[Tuple[int, int], ...]:
        """Allocated (index, timestamp) pairs, oldest first.

        This is exactly the chain's abstract state (the age-ordered
        list the refinement contracts reason about) and the payload the
        ``repro-ckpt/v1`` checkpoint stores.
        """
        return self._abstract_state().cells

    def free_list(self) -> Tuple[int, ...]:
        """Vacant indexes in allocation (pop) order.

        Unlike :meth:`cells` this is *not* abstract state — any free
        order satisfies the chain's contracts — but it is observable
        through subsequent allocations, so checkpoints carry it to make
        a restored chain replay byte-identically.
        """
        out = []
        cursor = self._free_head
        while cursor != self._NIL:
            out.append(cursor)
            cursor = self._next[cursor]
        return tuple(out)

    def restore_cells(self, cells, free_list=None) -> None:
        """Rebuild this (empty) chain from an age-ordered cell list.

        ``cells`` must be (index, timestamp) pairs oldest-first, as
        produced by :meth:`cells`. The chain invariants are enforced up
        front — indexes unique and in range, timestamps non-decreasing
        along the list — so a corrupted checkpoint is rejected before
        any state is mutated, never half-applied.

        ``free_list`` optionally fixes the vacant indexes' allocation
        order (as produced by :meth:`free_list`); it must cover exactly
        the indexes absent from ``cells``. Without it the free list is
        rebuilt ascending, like a fresh chain — allocation order then
        diverges from the checkpointed chain's, which is fine for a
        standby that never saw the original's free order but loses
        byte-identical replay.
        """
        if self._size:
            raise ValueError("restore_cells requires an empty chain")
        seen = set()
        previous_time = None
        for index, time in cells:
            if not 0 <= index < self.index_range:
                raise ValueError(f"index {index} out of range [0, {self.index_range})")
            if index in seen:
                raise ValueError(f"index {index} appears twice in the chain")
            seen.add(index)
            if previous_time is not None and time < previous_time:
                raise TimeRegression(
                    f"chain timestamps regress at index {index}: "
                    f"{time} < {previous_time}"
                )
            previous_time = time
        vacant = [i for i in range(self.index_range) if i not in seen]
        if free_list is not None:
            free_list = [int(i) for i in free_list]
            if sorted(free_list) != vacant:
                raise ValueError(
                    "free list must cover exactly the vacant indexes"
                )
            vacant = free_list
        for index, time in cells:
            self._allocated[index] = True
            self._append_allocated(index, time)
            self._size += 1
        self._free_head = self._NIL
        tail = self._NIL
        for index in vacant:
            if tail == self._NIL:
                self._free_head = index
            else:
                self._next[tail] = index
            self._next[index] = self._NIL
            tail = index
