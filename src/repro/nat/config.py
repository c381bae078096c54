"""The unified NF configuration API (the paper's CAP, Texp, EXT_IP triple, §4.1).

:class:`NatConfig` is the single source of truth for the knobs every NAT
implementation shares — external IP, device pair, flow capacity, expiry,
and the external port range. All NF constructors
(:class:`~repro.nat.vignat.VigNat`,
:class:`~repro.nat.unverified.UnverifiedNat`,
:class:`~repro.nat.netfilter.NetfilterNat`, ...) accept one of these.

For the sharded data path, :meth:`NatConfig.partition` splits one
configuration into N per-worker configurations whose external port
ranges are disjoint and exhaustive — each worker owns a slice of the
port space, so return traffic can be steered to the worker holding the
flow's state (see :mod:`repro.net.rss` and ``docs/SCALING.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

from repro.packets.addresses import ip_to_int

#: The flow-table capacity both evaluated NATs support (§6).
DEFAULT_MAX_FLOWS = 65_535

#: Default flow timeout used in the first latency experiment: 2 seconds.
DEFAULT_EXPIRATION_TIME_US = 2_000_000

#: First external port handed out; index i maps to port START + i. It
#: defaults to 1 so that the full 65,535-flow table fits the 16-bit port
#: space (flow index 65,534 maps to port 65,535).
DEFAULT_START_PORT = 1


@dataclass(frozen=True, kw_only=True)
class NatConfig:
    """Immutable NAT configuration shared by all NAT implementations.

    Fields are keyword-only: ``NatConfig(max_flows=64)``, never
    positional.
    """

    external_ip: int = ip_to_int("192.0.2.1")
    internal_device: int = 0
    external_device: int = 1
    max_flows: int = DEFAULT_MAX_FLOWS
    expiration_time: int = DEFAULT_EXPIRATION_TIME_US  # microseconds
    start_port: int = DEFAULT_START_PORT

    def __post_init__(self) -> None:
        if self.max_flows <= 0:
            raise ValueError("max_flows must be positive")
        if self.expiration_time <= 0:
            raise ValueError("expiration_time must be positive")
        if self.internal_device == self.external_device:
            raise ValueError("internal and external devices must differ")
        if not 0 < self.start_port <= 0xFFFF:
            raise ValueError("start_port out of range")
        if self.start_port + self.max_flows - 1 > 0xFFFF:
            raise ValueError(
                "port range [start_port, start_port + max_flows) exceeds 65535"
            )

    # -- the external port range this configuration owns ---------------------
    @property
    def end_port(self) -> int:
        """The last external port of this configuration (inclusive)."""
        return self.start_port + self.max_flows - 1

    def port_range(self) -> range:
        """The external ports this configuration allocates from."""
        return range(self.start_port, self.start_port + self.max_flows)

    def owns_port(self, port: int) -> bool:
        """True when ``port`` falls inside this configuration's range."""
        return self.start_port <= port <= self.end_port

    # -- sharding -------------------------------------------------------------
    def partition(self, n: int) -> Tuple["NatConfig", ...]:
        """Split into ``n`` per-worker configs with disjoint port ranges.

        The union of the shards' port ranges is exactly this config's
        range (disjoint and exhaustive), and the shards' flow capacities
        sum to ``max_flows`` — so N workers together hold exactly the
        state one worker would, and any external port maps to exactly
        one owning worker. Everything else (external IP, devices,
        expiry) is inherited unchanged.
        """
        if n <= 0:
            raise ValueError("worker count must be positive")
        if n > self.max_flows:
            raise ValueError(
                f"cannot partition {self.max_flows} flows across {n} workers"
            )
        # The split below hands out *ports* in lockstep with flow
        # capacity, so it is only disjoint-and-exhaustive when the whole
        # port range actually exists. ``__post_init__`` makes that true
        # for any config built through a constructor, but a config can
        # reach here holding a range that escapes the 16-bit port space
        # (deserialization bypassing validation, a mutated frozen
        # instance) — and then the tail shards would own ports that no
        # packet can carry, silently shrinking capacity. Validate the
        # range itself up front rather than emit broken shards.
        if not 0 < self.start_port <= self.end_port <= 0xFFFF:
            raise ValueError(
                f"cannot partition: external port range [{self.start_port}, "
                f"{self.end_port}] does not fit the valid port space "
                f"[1, 65535]; refusing to emit truncated shards"
            )
        base, extra = divmod(self.max_flows, n)
        shards = []
        port = self.start_port
        for i in range(n):
            size = base + (1 if i < extra else 0)
            shards.append(replace(self, start_port=port, max_flows=size))
            port += size
        return tuple(shards)
