"""The double-keyed map — libVig's flow table (§5.1.1, Fig. 8).

A ``DoubleMap`` stores values in a preallocated slab indexed by small
integers; each value is reachable through *two* independent keys. For the
NAT, the value is a flow entry, the first key is the flow ID seen from the
internal network and the second key is the flow ID seen from the external
network, so one lookup structure serves both traffic directions.

Index allocation is external (the :class:`~repro.libvig.double_chain.DoubleChain`
hands out indexes and orders them by age); the double-map just binds keys
to an index the caller chose. This split is exactly libVig's: the chain
knows *when* entries were touched, the map knows *what* they contain.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterator, Tuple

from repro.libvig.abstract import AbstractDoubleMap
from repro.libvig.contracts import contract
from repro.libvig.errors import CapacityError
from repro.libvig.map import Map

KeyExtractor = Callable[[Any], Hashable]


class DoubleMap:
    """Fixed-capacity value store addressable by either of two keys."""

    #: Extra slots in the key maps beyond the value capacity. Open
    #: addressing degrades sharply as the load factor approaches 1, so
    #: libVig sizes the probe arrays with headroom; 1/8th extra keeps the
    #: worst-case load below 0.89 — the knee the paper's Fig. 12 shows as
    #: a slight upturn when the flow table is almost full.
    KEY_SPACE_HEADROOM = 8

    def __init__(
        self,
        capacity: int,
        key_a_of: KeyExtractor,
        key_b_of: KeyExtractor,
        hash_a: Callable[[Hashable], int] | None = None,
        hash_b: Callable[[Hashable], int] | None = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._key_a_of = key_a_of
        self._key_b_of = key_b_of
        key_slots = capacity + capacity // self.KEY_SPACE_HEADROOM + 1
        self._map_a = Map(key_slots, hash_a)
        self._map_b = Map(key_slots, hash_b)
        self._values: list[Any] = [None] * capacity
        self._occupied = [False] * capacity
        self._size = 0

    # -- abstract state ---------------------------------------------------
    def _abstract_state(self) -> AbstractDoubleMap:
        values = {}
        by_a = {}
        by_b = {}
        for i in range(self.capacity):
            if self._occupied[i]:
                value = self._values[i]
                values[i] = value
                by_a[self._key_a_of(value)] = i
                by_b[self._key_b_of(value)] = i
        return AbstractDoubleMap(values, by_a, by_b, self.capacity)

    # -- queries ----------------------------------------------------------
    def size(self) -> int:
        """Number of stored values."""
        return self._size

    def full(self) -> bool:
        """True when no further value can be inserted."""
        return self._size >= self.capacity

    def get_by_a(self, key: Hashable) -> int | None:
        """Index of the value whose first key is ``key``, or ``None``."""
        return self._map_a.get(key)

    def get_by_b(self, key: Hashable) -> int | None:
        """Index of the value whose second key is ``key``, or ``None``."""
        return self._map_b.get(key)

    def get_value(self, index: int) -> Any:
        """The value stored at an occupied ``index``."""
        self._check_index(index)
        if not self._occupied[index]:
            raise KeyError(f"index {index} is vacant")
        return self._values[index]

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.capacity:
            raise IndexError(f"index {index} out of range [0, {self.capacity})")

    # -- updates ----------------------------------------------------------
    @contract(
        requires=lambda self, index, value: (
            not self._occupied[index]
            and self.get_by_a(self._key_a_of(value)) is None
            and self.get_by_b(self._key_b_of(value)) is None
        ),
        ensures=lambda old, result, self, index, value: (
            self._abstract_state()
            == old.put(
                index, self._key_a_of(value), self._key_b_of(value), value
            )
        ),
    )
    def put(self, index: int, value: Any) -> None:
        """Bind ``value`` (and both its keys) to the vacant ``index``."""
        self._check_index(index)
        if self._occupied[index]:
            raise KeyError(f"index {index} already occupied")
        if self._size >= self.capacity:
            raise CapacityError("double-map is full")
        key_a = self._key_a_of(value)
        key_b = self._key_b_of(value)
        if self._map_a.has(key_a) or self._map_b.has(key_b):
            raise KeyError("key already present")
        self._map_a.put(key_a, index)
        self._map_b.put(key_b, index)
        self._values[index] = value
        self._occupied[index] = True
        self._size += 1

    @contract(
        requires=lambda self, index: self._occupied[index],
        ensures=lambda old, result, self, index: (
            self._abstract_state()
            == old.erase(
                index, self._key_a_of(result), self._key_b_of(result)
            )
        ),
    )
    def erase(self, index: int) -> Any:
        """Remove the value at an occupied ``index``; returns it."""
        self._check_index(index)
        if not self._occupied[index]:
            raise KeyError(f"index {index} is vacant")
        value = self._values[index]
        self._map_a.erase(self._key_a_of(value))
        self._map_b.erase(self._key_b_of(value))
        self._values[index] = None
        self._occupied[index] = False
        self._size -= 1
        return value

    def items(self) -> Iterator[Tuple[int, Any]]:
        """Iterate occupied (index, value) pairs in index order."""
        for i in range(self.capacity):
            if self._occupied[i]:
                yield i, self._values[i]

    @property
    def probe_count(self) -> int:
        """Total probe count across both underlying maps (cost model)."""
        return self._map_a.stats.probes + self._map_b.stats.probes
