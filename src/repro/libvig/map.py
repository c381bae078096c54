"""Open-addressing hash map with chain counters — libVig's core map.

This is a faithful port of the libVig map: preallocated arrays of busy
bits, keys, cached key hashes, values, and *chain counters*. The chain
counter ``chns[i]`` records how many live keys' probe paths passed
*through* slot ``i`` on their way to their final slot. A lookup can stop
as soon as it reaches a free slot whose chain counter is zero — no key
could possibly live further down that probe sequence. This is the
"auxiliary metadata that speeds up lookup" of §6, and it is also what
makes unsuccessful lookups the expensive case (they may scan every
candidate slot when chains are long), the asymmetry the paper observes
against the DPDK chaining table.

Probing is linear: slot ``(hash + i) % capacity`` for ``i = 0, 1, ...``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterator, Tuple

from repro.libvig.abstract import AbstractMap
from repro.libvig.contracts import contract
from repro.libvig.errors import CapacityError


@dataclass
class MapStats:
    """Operation counters used by the testbed's cost model."""

    gets: int = 0
    puts: int = 0
    erases: int = 0
    probes: int = 0  # total slots inspected across all operations

    def reset(self) -> None:
        self.gets = self.puts = self.erases = self.probes = 0


_MISSING = object()


class Map:
    """Fixed-capacity open-addressing map from hashable keys to values."""

    def __init__(
        self,
        capacity: int,
        hash_fn: Callable[[Hashable], int] | None = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._hash = hash_fn if hash_fn is not None else hash
        self._busy = [False] * capacity
        self._keys: list[Hashable | None] = [None] * capacity
        self._hashes = [0] * capacity
        self._values: list[Any] = [None] * capacity
        self._chains = [0] * capacity
        self._size = 0
        self.stats = MapStats()

    # -- abstract state ---------------------------------------------------
    def _abstract_state(self) -> AbstractMap:
        entries = {
            self._keys[i]: self._values[i]
            for i in range(self.capacity)
            if self._busy[i]
        }
        return AbstractMap(entries, self.capacity)

    # -- queries ----------------------------------------------------------
    def size(self) -> int:
        """Number of live entries."""
        return self._size

    def full(self) -> bool:
        """True when no further key can be inserted."""
        return self._size >= self.capacity

    # Each operation below is one function over locals bound once per
    # call: it hashes, walks the probe sequence (wrapping at ``capacity``
    # without ``%``) and adds the slots it inspected to ``stats.probes``
    # once, when it leaves.
    def get(self, key: Hashable, default: Any = None) -> Any:
        """Value stored under ``key``, or ``default`` when absent.

        Walks the probe sequence; a free slot with a zero chain counter
        proves the key is absent.
        """
        stats = self.stats
        stats.gets += 1
        key_hash = self._hash(key) & 0xFFFFFFFF
        capacity = self.capacity
        slot = key_hash % capacity
        busy = self._busy
        hashes = self._hashes
        keys = self._keys
        chains = self._chains
        for probes in range(1, capacity + 1):
            if busy[slot]:
                if hashes[slot] == key_hash and keys[slot] == key:
                    stats.probes += probes
                    return self._values[slot]
            elif chains[slot] == 0:
                stats.probes += probes
                return default
            slot += 1
            if slot == capacity:
                slot = 0
        stats.probes += capacity
        return default

    def has(self, key: Hashable) -> bool:
        """True when ``key`` is present (the probe walk of :meth:`get`)."""
        stats = self.stats
        stats.gets += 1
        key_hash = self._hash(key) & 0xFFFFFFFF
        capacity = self.capacity
        slot = key_hash % capacity
        busy = self._busy
        hashes = self._hashes
        keys = self._keys
        chains = self._chains
        for probes in range(1, capacity + 1):
            if busy[slot]:
                if hashes[slot] == key_hash and keys[slot] == key:
                    stats.probes += probes
                    return True
            elif chains[slot] == 0:
                stats.probes += probes
                return False
            slot += 1
            if slot == capacity:
                slot = 0
        stats.probes += capacity
        return False

    # -- updates ----------------------------------------------------------
    @contract(
        requires=lambda self, key, value: not self.full()
        and self.get(key, _MISSING) is _MISSING,
        ensures=lambda old, result, self, key, value: (
            self._abstract_state().entries == old.put(key, value).entries
        ),
    )
    def put(self, key: Hashable, value: Any) -> None:
        """Insert a key that is not yet present. Requires spare capacity."""
        capacity = self.capacity
        if self._size >= capacity:
            raise CapacityError("map is full")
        key_hash = self._hash(key) & 0xFFFFFFFF
        stats = self.stats
        stats.puts += 1
        slot = key_hash % capacity
        busy = self._busy
        chains = self._chains
        for probes in range(1, capacity + 1):
            if not busy[slot]:
                busy[slot] = True
                self._keys[slot] = key
                self._hashes[slot] = key_hash
                self._values[slot] = value
                self._size += 1
                stats.probes += probes
                return
            # Occupied: this key's path passes through, bump the counter.
            chains[slot] += 1
            slot += 1
            if slot == capacity:
                slot = 0
        stats.probes += capacity
        raise CapacityError("map is full")  # unreachable given the size check

    @contract(
        requires=lambda self, key: self.get(key, _MISSING) is not _MISSING,
        ensures=lambda old, result, self, key: (
            self._abstract_state().entries == old.erase(key).entries
        ),
    )
    def erase(self, key: Hashable) -> Any:
        """Remove a present key; returns the stored value."""
        key_hash = self._hash(key) & 0xFFFFFFFF
        stats = self.stats
        stats.erases += 1
        capacity = self.capacity
        home = slot = key_hash % capacity
        busy = self._busy
        hashes = self._hashes
        keys = self._keys
        chains = self._chains
        for passed in range(capacity):
            if busy[slot]:
                if hashes[slot] == key_hash and keys[slot] == key:
                    values = self._values
                    value = values[slot]
                    busy[slot] = False
                    keys[slot] = None
                    values[slot] = None
                    # Unwind the counters put bumped on the ``passed``
                    # slots from home up to this one.
                    slot = home
                    for _ in range(passed):
                        chains[slot] -= 1
                        slot += 1
                        if slot == capacity:
                            slot = 0
                    self._size -= 1
                    stats.probes += passed + 1
                    return value
            elif chains[slot] == 0:
                stats.probes += passed + 1
                raise KeyError(key)
            slot += 1
            if slot == capacity:
                slot = 0
        stats.probes += capacity
        raise KeyError(key)

    def items(self) -> Iterator[Tuple[Hashable, Any]]:
        """Iterate live (key, value) pairs in slot order."""
        for i in range(self.capacity):
            if self._busy[i]:
                yield self._keys[i], self._values[i]
