"""VigFW: a stateful firewall on libVig — the paper's generalization claim.

§9 hopes the Vigor technique "will eventually generalize to proving
properties of many other software NFs, thereby amortizing the tedious
work that has gone into building a library of verified NF data
structures." This module cashes that claim in: a second NF, built on the
*same* libVig structures and verified by the *same* pipeline with a new
~80-line semantic specification
(:class:`repro.verif.semantics.FirewallSemantics`).

Semantics (a connection-tracking allow-outbound firewall):

- a TCP/UDP packet from the internal network is forwarded unchanged and
  creates (or refreshes) a session, unless the session table is full and
  the flow is new — then it is dropped, never evicting a live session;
- a packet from the external network is forwarded unchanged iff it
  belongs to an established session (its 5-tuple is the reverse of a
  tracked one), which it also refreshes; anything else is dropped;
- sessions expire after the configured idle timeout.

Like VigNat, the stateless logic is one shared function
(:func:`firewall_loop_iteration`) run concretely here and symbolically
by the ``firewall`` entry of :data:`repro.verif.proofs.PROOFS`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Protocol

from repro.libvig.double_chain import DoubleChain
from repro.libvig.double_map import DoubleMap
from repro.libvig.expirator import expire_items
from repro.nat.concrete import ConcreteEnv, LibvigNf
from repro.nat.config import NatConfig
from repro.nat.flow import FlowId, flow_id_of_packet, flow_key_of
from repro.packets.headers import ETHERTYPE_IPV4, PROTO_TCP, PROTO_UDP, Packet


class FirewallEnv(Protocol):
    """The libVig + DPDK interface the firewall's stateless code uses."""

    def current_time(self) -> Any: ...

    def expire_sessions(self, min_time: Any) -> None: ...

    def receive(self) -> Optional[Any]: ...

    def session_get_internal(self, packet: Any) -> Optional[Any]: ...

    def session_get_external(self, packet: Any) -> Optional[Any]: ...

    def session_create(self, packet: Any, now: Any) -> Optional[Any]: ...

    def session_rejuvenate(self, index: Any, now: Any) -> None: ...

    def forward(self, packet: Any, device: Any) -> None: ...

    def drop(self, packet: Any) -> None: ...


def firewall_loop_iteration(env: FirewallEnv, config: Any) -> None:
    """One loop iteration of the firewall; shared concrete/symbolic."""
    now = env.current_time()
    if now >= config.expiration_time:
        min_time = now - config.expiration_time + 1
    else:
        min_time = 0
    env.expire_sessions(min_time)

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
        index = env.session_get_internal(packet)
        if index is None:
            index = env.session_create(packet, now)
            if index is None:
                env.drop(packet)  # table full: never evict a live session
                return
        else:
            env.session_rejuvenate(index, now)
        env.forward(packet, device=config.external_device)
    elif packet.device == config.external_device:
        index = env.session_get_external(packet)
        if index is None:
            env.drop(packet)  # not part of an established session
            return
        env.session_rejuvenate(index, now)
        env.forward(packet, device=config.internal_device)
    else:
        env.drop(packet)


class _ConcreteFwEnv(ConcreteEnv):
    """``FirewallEnv`` over the firewall's libVig session table."""

    __slots__ = ()
    expire_sessions = ConcreteEnv.expire

    def session_get_internal(self, packet) -> Optional[int]:
        self.index = index = self._nf._sessions.get_by_a(packet.flow_id())
        return index

    def session_get_external(self, packet) -> Optional[int]:
        self.index = index = self._nf._sessions.get_by_b(packet.flow_id())
        return index

    def session_create(self, packet, now: int) -> Optional[int]:
        index = self._nf._chain.allocate_new_index(now)
        if index is None:
            return None
        self._nf._sessions.put(index, packet.flow_id())
        self.index = index
        return index

    def session_rejuvenate(self, index: int, now: int) -> None:
        self._nf._chain.rejuvenate_index(index, now)


class VigFirewall(LibvigNf):
    """The verified connection-tracking firewall."""

    name = "verified-firewall"
    LOOP = staticmethod(firewall_loop_iteration)
    ENV = _ConcreteFwEnv
    ROWS = "sessions"
    LIFETIME = "expiration_time"

    def __init__(self, config: NatConfig | None = None) -> None:
        # NatConfig is reused: external_ip is simply unused by a firewall.
        super().__init__(config if config is not None else NatConfig())
        self._sessions = DoubleMap(
            capacity=self.config.max_flows,
            key_a_of=lambda fid: fid,
            key_b_of=lambda fid: fid.reversed(),
        )
        self._chain = DoubleChain(self.config.max_flows)

    def _expire(self, min_time: int) -> None:
        """The one expiry scan: the slow path's and the fast path's."""
        self._expired_total += expire_items(
            self._chain, self._sessions, min_time, on_expire=self._flow_freed
        )

    # -- the fast-path provider ---------------------------------------------
    def fastpath_hooks(self) -> "VigFirewall":
        """Opt into the microflow fast path (:mod:`repro.nat.fastpath`).

        A tracked session's verdict is "forward unchanged, refresh the
        session" in both directions for as long as the session lives, so
        that is what a hit replays: the identity action, and a
        rejuvenate of the session's chain index. Drops — unsolicited
        external packets, new flows refused by a full table — leave no
        session behind, hence no token, and always re-consult the slow
        path.
        """
        return self

    def _lookup(self, packet: Packet) -> Optional[int]:
        if packet.device == self.config.internal_device:
            return self._sessions.get_by_a(flow_id_of_packet(packet))
        if packet.device == self.config.external_device:
            return self._sessions.get_by_b(flow_id_of_packet(packet))
        return None

    def _freed_keys(self, index: int):
        fid = self._sessions.get_value(index)
        config = self.config
        return (
            flow_key_of(config.internal_device, fid),
            flow_key_of(config.external_device, fid.reversed()),
        )

    def session_count(self) -> int:
        """Number of tracked sessions."""
        return self._sessions.size()

    def has_session(self, flow_id: FlowId) -> bool:
        """True when ``flow_id`` (internal orientation) is tracked."""
        return self._sessions.get_by_a(flow_id) is not None

    def op_counters(self) -> Dict[str, int]:
        return {"map_probes": self._sessions.probe_count, **self._declared_counters()}

    # -- checkpoint rows: the VigNat layout, minus the port column (a
    # firewall rewrites nothing) ---------------------------------------------
    def _row(self, index: int):
        fid = self._sessions.get_value(index)
        return ([fid.src_ip, fid.src_port, fid.dst_ip, fid.dst_port, fid.protocol],)

    def _parse_row(self, index: int, rest):
        """The 5-tuples must be distinct (double-map key-A uniqueness)."""
        (fid_fields,) = rest
        fid = FlowId(*fid_fields)
        return fid, fid

    def _adopt(self, index: int, fid: FlowId) -> None:
        self._sessions.put(index, fid)
