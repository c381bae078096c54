"""The stateless NAT logic, written once, runnable two ways.

This module is the reproduction's load-bearing trick, the same one the
paper's architecture rests on: the *stateless* packet-processing code is
a single function, ``nat_loop_iteration``, parameterized by an
environment that provides packet I/O and the flow-table operations.

- :class:`repro.nat.vignat.VigNat` runs it against the real libVig
  structures — that is the NAT that forwards traffic.
- :data:`repro.verif.proofs.PROOFS` binds the *identical function* to
  symbolic models — that is the code exhaustive symbolic execution
  explores, so the verification result applies to the deployed logic,
  not to a transcription of it.

Every ``if`` in this function either compares concrete Python values
(concrete run) or :class:`~repro.verif.symbols.SymBool` values (symbolic
run, where it forks the path). The checks are sequenced the way the C
code sequences them (ethertype, then protocol, then device) so the path
structure matches an NF written in C against DPDK.
"""

from __future__ import annotations

from typing import Any, Optional, Protocol, Tuple

from repro.packets.headers import ETHERTYPE_IPV4, PROTO_TCP, PROTO_UDP


class PacketView(Protocol):
    """Field access on the received packet (concrete ints or symbols)."""

    ethertype: Any
    protocol: Any
    device: Any
    src_ip: Any
    src_port: Any
    dst_ip: Any
    dst_port: Any


class NatEnv(Protocol):
    """The libVig + DPDK interface the stateless code is written against."""

    def current_time(self) -> Any: ...

    def expire_flows(self, min_time: Any) -> None: ...

    def receive(self) -> Optional[PacketView]: ...

    def flow_table_get_internal(self, packet: PacketView) -> Optional[Any]: ...

    def flow_table_get_external(self, packet: PacketView) -> Optional[Any]: ...

    def flow_table_create(self, packet: PacketView, now: Any) -> Optional[Any]: ...

    def flow_table_rejuvenate(self, index: Any, now: Any) -> None: ...

    def flow_external_port(self, index: Any) -> Any: ...

    def flow_internal_endpoint(self, index: Any) -> Tuple[Any, Any]: ...

    def emit(
        self,
        packet: PacketView,
        device: Any,
        src_ip: Any,
        src_port: Any,
        dst_ip: Any,
        dst_port: Any,
    ) -> None: ...

    def drop(self, packet: PacketView) -> None: ...


def nat_loop_iteration(env: NatEnv, config: Any) -> None:
    """One iteration of the NAT's event loop (Fig. 6, executable).

    ``config`` carries the static parameters (`internal_device`,
    `external_device`, `external_ip`, `expiration_time`); it is a
    :class:`~repro.nat.config.NatConfig` in both runs.
    """
    now = env.current_time()

    # expire_flows(t): remove flows with timestamp + Texp <= t. The
    # threshold is clamped so the subtraction cannot underflow an
    # unsigned time — one of the low-level properties P2 proves.
    if now >= config.expiration_time:
        min_time = now - config.expiration_time + 1
    else:
        min_time = 0
    env.expire_flows(min_time)

    packet = env.receive()
    if packet is None:
        return

    # Only IPv4 TCP/UDP carries a flow ID a traditional NAT translates;
    # the checks mirror the C code's header-parsing sequence.
    if packet.ethertype != ETHERTYPE_IPV4:
        env.drop(packet)
        return
    if (packet.protocol == PROTO_TCP) | (packet.protocol == PROTO_UDP):
        pass
    else:
        env.drop(packet)
        return

    if packet.device == config.internal_device:
        index = env.flow_table_get_internal(packet)
        if index is None:
            # No entry: insert one if the table has room (Fig. 6 l.15);
            # never evict a live flow to make room.
            index = env.flow_table_create(packet, now)
            if index is None:
                env.drop(packet)
                return
        else:
            env.flow_table_rejuvenate(index, now)
        external_port = env.flow_external_port(index)
        env.emit(
            packet,
            device=config.external_device,
            src_ip=config.external_ip,
            src_port=external_port,
            dst_ip=packet.dst_ip,
            dst_port=packet.dst_port,
        )
    elif packet.device == config.external_device:
        index = env.flow_table_get_external(packet)
        if index is None:
            # Unsolicited external packet: drop, never create state.
            env.drop(packet)
            return
        env.flow_table_rejuvenate(index, now)
        internal_ip, internal_port = env.flow_internal_endpoint(index)
        env.emit(
            packet,
            device=config.internal_device,
            src_ip=packet.src_ip,
            src_port=packet.src_port,
            dst_ip=internal_ip,
            dst_port=internal_port,
        )
    else:
        env.drop(packet)
