"""External-port bookkeeping for the NAT (§5.1.1's "port allocator").

VigNAT maps each active flow to a distinct external port drawn from a
fixed range. The allocator keeps a free list plus an allocation bitmap so
that allocation, release and membership checks are all O(1) with no
allocation on the data path.
"""

from __future__ import annotations

from repro.libvig.errors import LibVigError


class PortExhaustion(LibVigError):
    """All ports in the configured range are allocated."""


class PortRestoreError(LibVigError):
    """A checkpointed port set is inconsistent with this allocator.

    Raised when a restore would double-allocate a port or claim a port
    outside the allocator's range (e.g. outside the shard this worker
    owns under :meth:`NatConfig.partition`). Restoring such a set would
    silently corrupt ownership — two flows answering for one external
    port, or a worker squatting on a sibling shard's range — so the
    restore refuses instead.
    """


class PortAllocator:
    """Allocates 16-bit ports out of ``[start, start + count)``."""

    def __init__(self, start: int, count: int) -> None:
        if not 0 <= start <= 0xFFFF:
            raise ValueError("start port out of range")
        if count <= 0 or start + count - 1 > 0xFFFF:
            raise ValueError("port range out of bounds")
        self.start = start
        self.count = count
        # LIFO free list: reusing recently released ports keeps the hot
        # set small, like libVig's index allocator.
        self._free = list(range(start + count - 1, start - 1, -1))
        self._allocated = [False] * count

    def _abstract_state(self) -> frozenset:
        return frozenset(
            self.start + i for i, taken in enumerate(self._allocated) if taken
        )

    def allocate(self) -> int:
        """Take a free port; raises :class:`PortExhaustion` when none."""
        if not self._free:
            raise PortExhaustion(f"no port free in [{self.start}, {self.start + self.count})")
        port = self._free.pop()
        self._allocated[port - self.start] = True
        return port

    def release(self, port: int) -> None:
        """Return an allocated port to the pool."""
        self._check_port(port)
        if not self._allocated[port - self.start]:
            raise KeyError(f"port {port} is not allocated")
        self._allocated[port - self.start] = False
        self._free.append(port)

    def is_allocated(self, port: int) -> bool:
        """True when ``port`` is currently allocated."""
        self._check_port(port)
        return self._allocated[port - self.start]

    def available(self) -> int:
        """Number of ports still free."""
        return len(self._free)

    def _check_port(self, port: int) -> None:
        if not self.start <= port < self.start + self.count:
            raise ValueError(
                f"port {port} outside range [{self.start}, {self.start + self.count})"
            )

    # -- checkpoint/restore -----------------------------------------------
    def allocated_ports(self) -> tuple:
        """The allocated ports, ascending — the checkpoint payload."""
        return tuple(sorted(self._abstract_state()))

    def restore_ports(self, ports) -> None:
        """Mark a checkpointed port set allocated on this (fresh) allocator.

        Validates the whole set before touching any state: every port
        must lie inside ``[start, start + count)`` and appear at most
        once, and none may already be allocated here. Violations raise
        :class:`PortRestoreError`, never partially apply.
        """
        ports = list(ports)
        seen = set()
        for port in ports:
            if not self.start <= port < self.start + self.count:
                raise PortRestoreError(
                    f"port {port} outside this allocator's range "
                    f"[{self.start}, {self.start + self.count}) — "
                    "checkpoint belongs to a different shard"
                )
            if port in seen:
                raise PortRestoreError(f"port {port} double-allocated in checkpoint")
            if self._allocated[port - self.start]:
                raise PortRestoreError(f"port {port} already allocated")
            seen.add(port)
        for port in ports:
            self._allocated[port - self.start] = True
        # One pass, order kept: removing port by port is O(flows × range).
        self._free = [port for port in self._free if port not in seen]
