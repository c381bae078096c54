"""Pure functional abstract models of the libVig data structures.

The paper specifies each data type "in terms of abstract state that the
data types' methods operate on" (§5.1.2): the concrete map refines a
mathematical partial map, the ring a sequence, the double-chain an
age-ordered list of allocated indexes. These models are the ground truth
the refinement test-suite checks the concrete implementations against —
every concrete operation must commute with its abstract counterpart.

All models are immutable; operations return new model values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable, Mapping, Tuple


@dataclass(frozen=True)
class AbstractMap:
    """A mathematical partial map with a fixed capacity."""

    entries: Mapping[Hashable, Any] = field(default_factory=dict)
    capacity: int = 0

    def has(self, key: Hashable) -> bool:
        return key in self.entries

    def get(self, key: Hashable) -> Any:
        return self.entries[key]

    def put(self, key: Hashable, value: Any) -> "AbstractMap":
        if key not in self.entries and len(self.entries) >= self.capacity:
            raise OverflowError("abstract map is full")
        updated = dict(self.entries)
        updated[key] = value
        return AbstractMap(updated, self.capacity)

    def erase(self, key: Hashable) -> "AbstractMap":
        updated = dict(self.entries)
        del updated[key]
        return AbstractMap(updated, self.capacity)

    def size(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class AbstractDoubleMap:
    """Two key spaces mapping into one indexed value store.

    ``values[i]`` is the stored value at index ``i``; ``by_a``/``by_b``
    map each key space to indexes. The flow-table invariant is that the
    three are consistent: ``by_a[ka] == i`` iff ``values[i]`` has first
    key ``ka``, and likewise for ``by_b``.
    """

    values: Mapping[int, Any] = field(default_factory=dict)
    by_a: Mapping[Hashable, int] = field(default_factory=dict)
    by_b: Mapping[Hashable, int] = field(default_factory=dict)
    capacity: int = 0

    def put(self, index: int, key_a: Hashable, key_b: Hashable, value: Any) -> "AbstractDoubleMap":
        if index in self.values:
            raise KeyError(f"index {index} already occupied")
        if key_a in self.by_a or key_b in self.by_b:
            raise KeyError("key already present")
        if len(self.values) >= self.capacity:
            raise OverflowError("abstract double-map is full")
        values = dict(self.values)
        by_a = dict(self.by_a)
        by_b = dict(self.by_b)
        values[index] = value
        by_a[key_a] = index
        by_b[key_b] = index
        return AbstractDoubleMap(values, by_a, by_b, self.capacity)

    def erase(self, index: int, key_a: Hashable, key_b: Hashable) -> "AbstractDoubleMap":
        values = dict(self.values)
        by_a = dict(self.by_a)
        by_b = dict(self.by_b)
        del values[index]
        del by_a[key_a]
        del by_b[key_b]
        return AbstractDoubleMap(values, by_a, by_b, self.capacity)

    def size(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class AbstractRing:
    """A bounded FIFO sequence (front is element 0)."""

    items: Tuple[Any, ...] = ()
    capacity: int = 0

    def push_back(self, item: Any) -> "AbstractRing":
        if len(self.items) >= self.capacity:
            raise OverflowError("abstract ring is full")
        return AbstractRing(self.items + (item,), self.capacity)

    def pop_front(self) -> Tuple[Any, "AbstractRing"]:
        if not self.items:
            raise IndexError("abstract ring is empty")
        return self.items[0], AbstractRing(self.items[1:], self.capacity)

    def full(self) -> bool:
        return len(self.items) >= self.capacity

    def empty(self) -> bool:
        return not self.items


@dataclass(frozen=True)
class AbstractChain:
    """Allocated indexes ordered oldest-first with their timestamps.

    Models the double-chain allocator: a list of ``(index, time)`` pairs
    where rejuvenation moves an index to the back (most recent) and
    expiration removes from the front while timestamps are stale. The
    time sequence is non-decreasing from front to back.
    """

    cells: Tuple[Tuple[int, int], ...] = ()
    index_range: int = 0

    def allocated(self) -> Tuple[int, ...]:
        return tuple(index for index, _ in self.cells)

    def is_allocated(self, index: int) -> bool:
        return any(i == index for i, _ in self.cells)

    def timestamp_of(self, index: int) -> int:
        for i, t in self.cells:
            if i == index:
                return t
        raise KeyError(index)

    def allocate(self, index: int, time: int) -> "AbstractChain":
        if self.is_allocated(index):
            raise KeyError(f"index {index} already allocated")
        if not 0 <= index < self.index_range:
            raise IndexError(index)
        if self.cells and self.cells[-1][1] > time:
            raise ValueError("time went backwards")
        return AbstractChain(self.cells + ((index, time),), self.index_range)

    def rejuvenate(self, index: int, time: int) -> "AbstractChain":
        if not self.is_allocated(index):
            raise KeyError(index)
        kept = tuple(cell for cell in self.cells if cell[0] != index)
        if kept and kept[-1][1] > time:
            raise ValueError("time went backwards")
        return AbstractChain(kept + ((index, time),), self.index_range)

    def free(self, index: int) -> "AbstractChain":
        if not self.is_allocated(index):
            raise KeyError(index)
        kept = tuple(cell for cell in self.cells if cell[0] != index)
        return AbstractChain(kept, self.index_range)

    def size(self) -> int:
        return len(self.cells)


def chain_times_nondecreasing(cells: Iterable[Tuple[int, int]]) -> bool:
    """Invariant helper: timestamps are non-decreasing front to back."""
    previous = None
    for _, t in cells:
        if previous is not None and t < previous:
            return False
        previous = t
    return True
