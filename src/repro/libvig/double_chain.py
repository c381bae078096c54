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


#: The end of a list: no index.
_NIL = -1


class DoubleChain:
    """LRU-ordered allocator of indexes ``0 .. index_range - 1``.

    Each data-path operation is one function over locals bound once per
    call, so ``checked()`` wraps exactly the body that runs and a hit
    pays one Python call per operation.
    """

    def __init__(self, index_range: int) -> None:
        if index_range <= 0:
            raise ValueError("index range must be positive")
        self.index_range = index_range
        # Intrusive doubly-linked allocated list + singly-linked free list,
        # the free list ascending: cell i links to i + 1.
        self._next = list(range(1, index_range))
        self._next.append(_NIL)
        self._prev = [_NIL] * index_range
        self._time = [0] * index_range
        self._allocated = [False] * index_range
        self._al_head = _NIL  # oldest allocated index
        self._al_tail = _NIL  # newest allocated index
        self._free_head = 0
        self._size = 0

    # -- abstract state ---------------------------------------------------
    def _abstract_state(self) -> AbstractChain:
        cells = []
        cursor = self._al_head
        while cursor != _NIL:
            cells.append((cursor, self._time[cursor]))
            cursor = self._next[cursor]
        return AbstractChain(tuple(cells), self.index_range)

    # -- queries ----------------------------------------------------------
    def size(self) -> int:
        """Number of allocated indexes."""
        return self._size

    def is_index_allocated(self, index: int) -> bool:
        """True when ``index`` is currently allocated."""
        if not 0 <= index < self.index_range:
            raise IndexError(f"index {index} out of range [0, {self.index_range})")
        return self._allocated[index]

    def get_oldest(self) -> Tuple[int, int] | None:
        """The (index, timestamp) at the front, or ``None`` when empty."""
        if self._al_head == _NIL:
            return None
        return self._al_head, self._time[self._al_head]

    def timestamp_of(self, index: int) -> int:
        """Last-touch time of an allocated index."""
        if not self.is_index_allocated(index):
            raise KeyError(index)
        return self._time[index]

    # -- updates ----------------------------------------------------------
    # Every update checks before it writes (index range, then allocation,
    # then time), so one that raises leaves the chain as it found it.
    @contract(
        requires=lambda self, time: True,
        ensures=lambda old, result, self, time: (
            (result is None and old.size() == old.index_range)
            or self._abstract_state().cells == old.allocate(result, time).cells
        ),
    )
    def allocate_new_index(self, time: int) -> int | None:
        """Take a vacant index, stamp it, append it newest; None when full.

        The time is checked first: a regressed time raises even on a
        full chain.
        """
        tail = self._al_tail
        stamps = self._time
        if tail != _NIL and time < stamps[tail]:
            raise TimeRegression(
                f"time {time} precedes newest chain timestamp {stamps[tail]}"
            )
        index = self._free_head
        if index == _NIL:
            return None
        nxt = self._next
        self._free_head = nxt[index]
        self._allocated[index] = True
        stamps[index] = time
        self._prev[index] = tail
        nxt[index] = _NIL
        if tail == _NIL:
            self._al_head = index
        else:
            nxt[tail] = index
        self._al_tail = index
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
        if not 0 <= index < self.index_range:
            raise IndexError(f"index {index} out of range [0, {self.index_range})")
        if not self._allocated[index]:
            raise KeyError(index)
        tail = self._al_tail  # an index is allocated, so the list is not empty
        stamps = self._time
        if time < stamps[tail]:
            raise TimeRegression(
                f"time {time} precedes newest chain timestamp {stamps[tail]}"
            )
        stamps[index] = time
        if index == tail:
            return  # already newest: unlinking and appending is the identity
        nxt = self._next
        prv = self._prev
        # Unlink: ``index`` is not the tail, so it has a successor.
        before = prv[index]
        after = nxt[index]
        if before == _NIL:
            self._al_head = after
        else:
            nxt[before] = after
        prv[after] = before
        # Append behind the tail, which is still the old one.
        prv[index] = tail
        nxt[index] = _NIL
        nxt[tail] = index
        self._al_tail = index

    def expire_one_index(self, min_time: int) -> int | None:
        """Free and return the oldest index if its stamp < ``min_time``.

        Returns ``None`` when the chain is empty or the oldest entry is
        still fresh — the expirator loops on this until it gets ``None``.
        """
        oldest = self._al_head
        if oldest == _NIL or self._time[oldest] >= min_time:
            return None
        nxt = self._next
        after = nxt[oldest]
        self._al_head = after
        if after == _NIL:
            self._al_tail = _NIL
        else:
            self._prev[after] = _NIL
        # The head's prev link is already _NIL: push it on the free list.
        self._allocated[oldest] = False
        nxt[oldest] = self._free_head
        self._free_head = oldest
        self._size -= 1
        return oldest

    @contract(
        requires=lambda self, index: self.is_index_allocated(index),
        ensures=lambda old, result, self, index: (
            self._abstract_state().cells == old.free(index).cells
        ),
    )
    def free_index(self, index: int) -> None:
        """Explicitly release an allocated index (e.g., TCP RST teardown)."""
        if not 0 <= index < self.index_range:
            raise IndexError(f"index {index} out of range [0, {self.index_range})")
        if not self._allocated[index]:
            raise KeyError(index)
        nxt = self._next
        prv = self._prev
        before = prv[index]
        after = nxt[index]
        if before == _NIL:
            self._al_head = after
        else:
            nxt[before] = after
        if after == _NIL:
            self._al_tail = before
        else:
            prv[after] = before
        self._allocated[index] = False
        nxt[index] = self._free_head
        prv[index] = _NIL
        self._free_head = index
        self._size -= 1

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
        while cursor != _NIL:
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
        index_range = self.index_range
        cells = list(cells)
        # One validation pass: nothing is written to the chain until every
        # cell (and the free list) has been checked.
        allocated = [False] * index_range
        previous_time = None
        for index, time in cells:
            if not 0 <= index < index_range:
                raise ValueError(f"index {index} out of range [0, {index_range})")
            if allocated[index]:
                raise ValueError(f"index {index} appears twice in the chain")
            allocated[index] = True
            if previous_time is not None and time < previous_time:
                raise TimeRegression(
                    f"chain timestamps regress at index {index}: "
                    f"{time} < {previous_time}"
                )
            previous_time = time
        vacant = [i for i, taken in enumerate(allocated) if not taken]
        if free_list is not None:
            free_list = [int(i) for i in free_list]
            if sorted(free_list) != vacant:
                raise ValueError(
                    "free list must cover exactly the vacant indexes"
                )
            vacant = free_list
        # One link pass: the allocated list in cell order, then the free list.
        nxt = self._next
        prv = self._prev
        stamps = self._time
        tail = _NIL
        for index, time in cells:
            stamps[index] = time
            prv[index] = tail
            if tail == _NIL:
                self._al_head = index
            else:
                nxt[tail] = index
            tail = index
        if tail != _NIL:
            nxt[tail] = _NIL
        self._al_tail = tail
        self._allocated = allocated
        self._size = len(cells)
        for before, after in zip(vacant, vacant[1:]):
            nxt[before] = after
        if vacant:
            nxt[vacant[-1]] = _NIL
        self._free_head = vacant[0] if vacant else _NIL
