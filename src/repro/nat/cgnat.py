"""Deterministic stateless CGNAT: a closed-form bijective port mapping.

The paper proves a *stateful* NAT correct; this module extends the
story to the carrier-grade variant (RFC 7422, "Deterministic Address
Mapping") real CGN deployments use to escape per-flow state. Each
internal subscriber address owns a fixed, contiguous block of external
ports, assigned by arithmetic instead of allocation:

    subscriber  i        = src_ip  - internal_base
    offset      off      = src_port - internal_port_base
    external    ext_port = domain_start_port + i * ports_per_subscriber + off

The map is a bijection between the internal domain
``[internal_base, internal_base + subscriber_count) ×
[internal_port_base, internal_port_base + ports_per_subscriber)`` and
the external port interval ``[domain_start_port, domain_start_port +
domain_size)``: forward translation is two subtractions, one multiply
and two adds; the return path *inverts* the arithmetic (one divmod)
and needs **no flow lookup**. No table, no allocator, no expiry — the
NF's memory footprint does not move as flow count grows, and (RFC 7422
§2's operational motivation) no per-flow translation log is needed:
the mapping itself is the log.

The trade, also per RFC 7422: each subscriber is *restricted* to
``ports_per_subscriber`` concurrent source ports drawn from a fixed
internal range — traffic outside the domain is dropped (counted as
``dropped_out_of_domain``), where a stateful NAT would have allocated
any free port.

Like VigNat, the packet-processing decisions live in a stateless
function, :func:`det_nat_loop_iteration`, runnable two ways:
:class:`DetNat` binds it to real packets, and
:mod:`repro.verif.nf_env_cgnat` binds the identical function to
symbolic values to *prove* the bijection (round-trip identity, block
containment, overflow freedom) by concolic execution — the subscriber
index is concretized per path so every formula stays within the
difference-logic solver, while ports remain fully symbolic.

Sharding reuses :meth:`NatConfig.partition` unchanged: the external
port domain splits into disjoint, exhaustive per-worker ranges, so
:class:`~repro.net.rss.NatSteering` steers return traffic by port
ownership exactly as it does for the stateful NATs. Because the map is
global and stateless, *any* worker can translate *any* packet — a
subscriber's port block may even straddle a shard boundary without a
correctness cost, which is precisely the locality constraint
statelessness dissolves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.nat.base import NetworkFunction
from repro.nat.concrete import ConcreteEnv, PacketView
from repro.nat.config import NatConfig
from repro.packets.addresses import ip_to_int
from repro.packets.headers import ETHERTYPE_IPV4, PROTO_TCP, PROTO_UDP, Packet

#: Default CGN inside pool: the RFC 6598 shared address space.
DEFAULT_INTERNAL_BASE = ip_to_int("100.64.0.0")

#: Default first internal source port a subscriber may use (RFC 7422
#: deployments map the ephemeral range; 1024 skips the well-known ports).
DEFAULT_INTERNAL_PORT_BASE = 1_024


@dataclass(frozen=True, kw_only=True)
class CgnatConfig(NatConfig):
    """A :class:`NatConfig` plus the deterministic-mapping parameters.

    ``max_flows``/``start_port`` keep their meaning — the external port
    range this (possibly sharded) configuration owns. The *mapping*,
    however, is defined over the whole unsharded domain
    (``domain_start_port``/``domain_size``), which
    :meth:`NatConfig.partition` shards inherit from their parent: every
    worker computes the same global bijection and owns a slice of its
    range. Both default to this config's own range, so an unsharded
    config is its own domain.
    """

    internal_base: int = DEFAULT_INTERNAL_BASE
    subscriber_count: int = 64
    internal_port_base: int = DEFAULT_INTERNAL_PORT_BASE
    #: The global bijection domain; 0 means "this config's own range"
    #: (normalized in ``__post_init__``). ``partition`` shards carry the
    #: parent's values, keeping the mapping identical on every worker.
    domain_start_port: int = 0
    domain_size: int = 0

    def __post_init__(self) -> None:
        if self.domain_start_port == 0:
            object.__setattr__(self, "domain_start_port", self.start_port)
        if self.domain_size == 0:
            object.__setattr__(self, "domain_size", self.max_flows)
        super().__post_init__()
        if self.subscriber_count <= 0:
            raise ValueError("subscriber_count must be positive")
        if self.domain_size % self.subscriber_count != 0:
            raise ValueError(
                f"domain of {self.domain_size} external ports does not divide "
                f"evenly across {self.subscriber_count} subscribers"
            )
        if self.domain_start_port + self.domain_size - 1 > 0xFFFF:
            raise ValueError("external port domain exceeds 65535")
        if not (
            self.domain_start_port
            <= self.start_port
            <= self.end_port
            <= self.domain_end_port
        ):
            raise ValueError(
                f"shard port range [{self.start_port}, {self.end_port}] "
                f"escapes the mapping domain "
                f"[{self.domain_start_port}, {self.domain_end_port}]"
            )
        if not 0 < self.internal_port_base <= 0xFFFF:
            raise ValueError("internal_port_base out of range")
        if self.internal_port_base + self.ports_per_subscriber - 1 > 0xFFFF:
            raise ValueError(
                "internal port window [internal_port_base, "
                "internal_port_base + ports_per_subscriber) exceeds 65535"
            )
        if self.internal_base + self.subscriber_count - 1 > 0xFFFFFFFF:
            raise ValueError("subscriber address pool exceeds the IPv4 space")

    # -- the mapping ---------------------------------------------------------
    @property
    def domain_end_port(self) -> int:
        """The last external port of the global domain (inclusive)."""
        return self.domain_start_port + self.domain_size - 1

    @property
    def ports_per_subscriber(self) -> int:
        """Contiguous external ports each subscriber owns."""
        return self.domain_size // self.subscriber_count

    def subscriber_of_ip(self, src_ip: int) -> Optional[int]:
        """The subscriber index of an internal address, if in the pool."""
        index = src_ip - self.internal_base
        if 0 <= index < self.subscriber_count:
            return index
        return None

    def block_start(self, subscriber: int) -> int:
        """First external port of a subscriber's block."""
        return self.domain_start_port + subscriber * self.ports_per_subscriber

    def map_forward(self, src_ip: int, src_port: int) -> Optional[int]:
        """(internal addr, port) → external port, or None outside the domain."""
        subscriber = self.subscriber_of_ip(src_ip)
        if subscriber is None:
            return None
        offset = src_port - self.internal_port_base
        if not 0 <= offset < self.ports_per_subscriber:
            return None
        return self.block_start(subscriber) + offset

    def map_return(self, ext_port: int) -> Optional[Tuple[int, int]]:
        """External port → (internal addr, port), or None outside the domain."""
        index = ext_port - self.domain_start_port
        if not 0 <= index < self.domain_size:
            return None
        subscriber, offset = divmod(index, self.ports_per_subscriber)
        return (
            self.internal_base + subscriber,
            self.internal_port_base + offset,
        )


class DetNatEnv:
    """The environment interface the stateless CGNAT logic is written
    against — the deterministic analogue of
    :class:`~repro.nat.core_logic.NatEnv`, with the two arithmetic
    lookups (the only places the multiplication/division of the
    bijection live) behind environment hooks so the symbolic run can
    concretize the subscriber while everything else stays symbolic.
    """

    def receive(self) -> Optional[Any]: ...

    def subscriber_block(self, src_ip: Any) -> Optional[Any]:
        """The block-start port of ``src_ip``'s subscriber, or None."""

    def block_of_port(self, dst_port: Any) -> Optional[Tuple[Any, Any]]:
        """(subscriber addr, block-start port) owning ``dst_port``, or None."""

    def emit(
        self,
        packet: Any,
        device: Any,
        src_ip: Any,
        src_port: Any,
        dst_ip: Any,
        dst_port: Any,
    ) -> None: ...

    def drop(self, packet: Any) -> None: ...


def det_nat_loop_iteration(env: DetNatEnv, config: CgnatConfig) -> None:
    """One iteration of the stateless CGNAT's event loop.

    Structured like :func:`~repro.nat.core_logic.nat_loop_iteration`
    (ethertype, then protocol, then device — the C header-parsing
    sequence) but with *no* expiry step and no flow-table calls: both
    directions are pure arithmetic over the packet's own fields. Every
    ``if`` compares concrete values in the deployed run and forks the
    path in the symbolic run.
    """
    packet = env.receive()
    if packet is None:
        return

    if packet.ethertype != ETHERTYPE_IPV4:
        env.drop(packet)
        return
    if (packet.protocol == PROTO_TCP) | (packet.protocol == PROTO_UDP):
        pass
    else:
        env.drop(packet)
        return

    if packet.device == config.internal_device:
        block = env.subscriber_block(packet.src_ip)
        if block is None:
            # Source address outside the CGN pool: not ours to translate.
            env.drop(packet)
            return
        if packet.src_port < config.internal_port_base:
            env.drop(packet)
            return
        offset = packet.src_port - config.internal_port_base
        if offset >= config.ports_per_subscriber:
            # RFC 7422 port restriction: the subscriber's window is
            # exhausted by construction, not by allocation failure.
            env.drop(packet)
            return
        external_port = block + offset
        env.emit(
            packet,
            device=config.external_device,
            src_ip=config.external_ip,
            src_port=external_port,
            dst_ip=packet.dst_ip,
            dst_port=packet.dst_port,
        )
    elif packet.device == config.external_device:
        owner = env.block_of_port(packet.dst_port)
        if owner is None:
            # Port outside the domain: no subscriber owns it.
            env.drop(packet)
            return
        subscriber_ip, block = owner
        internal_port = config.internal_port_base + (packet.dst_port - block)
        env.emit(
            packet,
            device=config.internal_device,
            src_ip=packet.src_ip,
            src_port=packet.src_port,
            dst_ip=subscriber_ip,
            dst_port=internal_port,
        )
    else:
        env.drop(packet)


class _DetConcreteEnv(ConcreteEnv):
    """``DetNatEnv`` over real packets: the arithmetic, no state to bind."""

    __slots__ = ()

    def subscriber_block(self, src_ip: int) -> Optional[int]:
        config = self._nf.config
        subscriber = config.subscriber_of_ip(src_ip)
        if subscriber is None:
            return None
        return config.block_start(subscriber)

    def block_of_port(self, dst_port: int) -> Optional[Tuple[int, int]]:
        config = self._nf.config
        index = dst_port - config.domain_start_port
        if not 0 <= index < config.domain_size:
            return None
        subscriber = index // config.ports_per_subscriber
        return (
            config.internal_base + subscriber,
            config.block_start(subscriber),
        )

    def drop(self, packet: PacketView) -> None:
        nat = self._nf
        nat._dropped_total += 1
        # The RFC 7422 trade-off, made visible: past the three header
        # checks the loop drops only for the mapping's sake — an address
        # outside the pool, a port outside the subscriber's window or
        # outside the domain — where a stateful NAT would have allocated
        # a port or consulted its table.
        if (
            packet.ethertype == ETHERTYPE_IPV4
            and packet.protocol in (PROTO_TCP, PROTO_UDP)
            and packet.device
            in (nat.config.internal_device, nat.config.external_device)
        ):
            nat._dropped_out_of_domain += 1


class DetNat(NetworkFunction):
    """The deterministic stateless CGNAT over a closed-form bijection.

    Holds *no* mutable flow state: translation in both directions is
    arithmetic over :class:`CgnatConfig`. Consequences the evaluation
    and resilience subsystems rely on:

    - :meth:`flow_count` is 0 forever and the checkpoint payload is
      empty — memory stays flat as flow count grows (the cgnat sweep's
      gate), and a standby "restore" is just config validation;
    - there is nothing to expire, rejuvenate or replicate, so the NF
      ignores time and emits no deltas;
    - any worker can translate any packet — sharding
      (:meth:`NatConfig.partition` + RSS port-ownership steering) is
      purely a load-spreading concern, never a state-locality one.
    """

    name = "det-nat"
    LOOP = staticmethod(det_nat_loop_iteration)
    ENV = _DetConcreteEnv
    COUNTERS = {
        "forwarded": "_forwarded_total",
        "dropped": "_dropped_total",
        "dropped_out_of_domain": "_dropped_out_of_domain",
        **NetworkFunction.BURST_COUNTERS,
    }

    def __init__(self, config: CgnatConfig | NatConfig | None = None) -> None:
        if config is None:
            config = CgnatConfig()
        elif not isinstance(config, CgnatConfig):
            raise TypeError(
                "DetNat requires a CgnatConfig (the deterministic mapping "
                "parameters); got a plain NatConfig"
            )
        self.config: CgnatConfig = config
        self._zero_counters()

    # -- introspection ------------------------------------------------------
    def external_port_of(self, src_ip: int, src_port: int) -> Optional[int]:
        """The deterministic external port of an internal endpoint."""
        return self.config.map_forward(src_ip, src_port)

    # -- checkpoint/restore -------------------------------------------------
    def checkpoint_state(self) -> Dict:
        """Empty: the configuration *is* the whole NF.

        The ``repro-ckpt/v1`` envelope still carries (and restore still
        validates) the full :class:`CgnatConfig`, mapping parameters
        included — restoring onto a different domain is refused there.
        """
        return {}

    def restore_state(self, state: Dict) -> None:
        """Accept only the empty payload :meth:`checkpoint_state` makes."""
        super().restore_state(state)

    def register_metrics(self, registry, labels=None) -> None:
        """Op counters plus the (constant) mapping-shape gauges.

        ``flow_table_occupancy`` is exported at a hard 0 so dashboards
        built for the stateful NATs show the flatness rather than a
        missing series; capacity reports the domain size — the number
        of concurrent translations the bijection can name.
        """
        super().register_metrics(registry, labels)
        nf_labels = dict(labels or {})
        nf_labels["nf"] = self.name
        registry.gauge_fn(
            "flow_table_occupancy",
            self.flow_count,
            "live translation entries (always 0: stateless mapping)",
            nf_labels,
        )
        registry.gauge_fn(
            "flow_table_capacity",
            lambda: self.config.domain_size,
            "addressable concurrent translations",
            nf_labels,
        )
        registry.gauge_fn(
            "cgnat_subscribers",
            lambda: self.config.subscriber_count,
            "internal addresses the mapping covers",
            nf_labels,
        )
        registry.gauge_fn(
            "cgnat_ports_per_subscriber",
            lambda: self.config.ports_per_subscriber,
            "external port block size per subscriber",
            nf_labels,
        )

    # -- the packet path ----------------------------------------------------
    def process(self, packet: Packet, now: int) -> List[Packet]:
        env = self.ENV(self, packet)
        self.LOOP(env, self.config)
        return env.outputs

    def process_burst(
        self, packets: Sequence[Packet], now: int
    ) -> List[List[Packet]]:
        """A burst is just the per-packet path: no expiry to amortize."""
        self._note_burst(len(packets))
        if not packets:
            return []
        env = self.ENV(self, packets[0])
        results: List[List[Packet]] = []
        for packet in packets:
            env.rebind(packet)
            self.LOOP(env, self.config)
            results.append(env.outputs)
        return results


__all__ = [
    "CgnatConfig",
    "DEFAULT_INTERNAL_BASE",
    "DEFAULT_INTERNAL_PORT_BASE",
    "DetNat",
    "det_nat_loop_iteration",
]
