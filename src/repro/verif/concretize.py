"""Concrete replay of symbolic paths: testing the models against reality.

The lazy-proof argument says a valid model over-approximates the real
library, so every *implementation* behaviour is covered by some explored
path. This module closes the loop in the other direction: for each
explored path it synthesizes a concrete scenario — a packet satisfying
the path condition and a flow-table state matching the path's lookup
flags — runs the *real* VigNat on it, and checks the concrete behaviour
(forward vs drop, rewritten fields) matches what the trace promised.

Paths whose flag combinations only a model could exhibit (e.g. an
external-key hit on a packet not addressed to the NAT, which the real
flow table cannot produce) are reported as ``model_only`` — the honest
footprint of over-approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.nat.config import NatConfig
from repro.nat.vignat import VigNat
from repro.packets.builder import make_tcp_packet, make_udp_packet
from repro.packets.headers import (
    ETHERTYPE_IPV4,
    PROTO_TCP,
    EthernetHeader,
    Packet,
)
from repro.verif.expr import IntExpr, const, eq
from repro.verif.semantics import TraceIndex
from repro.verif.solver import Solver, SolverUnknown
from repro.verif.trace import PathTrace


@dataclass
class ReplayOutcome:
    """Result of concretely replaying one symbolic path."""

    path_id: int
    status: str  # "match", "mismatch", "model_only", "skipped"
    detail: str = ""


def _extend_witness(
    trace: PathTrace, extra_constraints: List
) -> Optional[Dict[str, int]]:
    """A model of pc + implementation-realism constraints, or None."""
    solver = Solver(trace.widths)
    try:
        return solver.satisfiable(list(trace.pc) + extra_constraints)
    except SolverUnknown:
        return None


def _build_packet(witness: Dict[str, int], config: NatConfig) -> Packet:
    """A concrete packet realizing the witness's header fields."""
    ethertype = witness.get("pkt_ethertype", ETHERTYPE_IPV4)
    if ethertype != ETHERTYPE_IPV4:
        return Packet(
            eth=EthernetHeader(ethertype=ethertype),
            device=witness.get("pkt_device", 0),
        )
    proto = witness.get("pkt_proto", PROTO_TCP)
    maker = make_tcp_packet if proto == PROTO_TCP else make_udp_packet
    if proto not in (6, 17):
        # Non-flow IPv4: build an ICMP-ish packet (no L4 header).
        from repro.packets.headers import Ipv4Header

        return Packet(
            eth=EthernetHeader(),
            ipv4=Ipv4Header(
                protocol=proto,
                src_ip=witness.get("pkt_src_ip", 1),
                dst_ip=witness.get("pkt_dst_ip", 2),
            ),
            device=witness.get("pkt_device", 0),
        )
    return maker(
        witness.get("pkt_src_ip", 1),
        witness.get("pkt_dst_ip", 2),
        witness.get("pkt_src_port", 1),
        witness.get("pkt_dst_port", 1),
        device=witness.get("pkt_device", 0),
    )


def replay_path(trace: PathTrace, config: NatConfig, now: int = 10_000_000) -> ReplayOutcome:
    """Synthesize the path's scenario on a real VigNat and compare."""
    index = TraceIndex(trace)
    calls = index.first
    if index.idle:
        return ReplayOutcome(trace.path_id, "skipped", "no packet received")

    def flag(name: str) -> Optional[int]:
        call = calls.get(name)
        if call is None:
            return None
        found = call.rets["found"]
        if index.entailed(eq(found, const(1))):
            return 1
        if index.entailed(eq(found, const(0))):
            return 0
        return None

    int_found = flag("dmap_get_by_first_key")
    ext_found = flag("dmap_get_by_second_key")
    alloc = calls.get("dchain_allocate_new_index")
    table_full = alloc is not None and index.entailed(
        eq(alloc.rets["success"], const(0))
    )

    # Realism constraints: what the real flow table additionally forces.
    extra = []
    if ext_found == 1:
        # A real external hit requires the packet to address the NAT.
        extra.append(eq(IntExpr.var("pkt_dst_ip", 32), const(config.external_ip)))
        extra.append(
            eq(
                IntExpr.var("pkt_dst_port", 16),
                const(config.start_port),  # first allocated index = 0
            )
        )
    witness = _extend_witness(trace, extra)
    if witness is None:
        return ReplayOutcome(
            trace.path_id,
            "model_only",
            "path condition unsatisfiable under implementation constraints",
        )

    nat = VigNat(config)
    packet = _build_packet(witness, config)

    # Establish the lookup-flag preconditions in the real table.
    earlier = now - 1_000  # within the expiry window
    if int_found == 1 or ext_found == 1:
        seed = packet.clone()
        if ext_found == 1:
            # Create the flow from the inside so its reply tuple equals
            # the arriving packet: internal host sends to the packet's
            # (src_ip, src_port).
            seed = make_udp_packet(
                0x0A00000A, witness.get("pkt_src_ip", 1),
                40_000, witness.get("pkt_src_port", 1),
                device=config.internal_device,
            )
            if witness.get("pkt_proto") == PROTO_TCP:
                seed = make_tcp_packet(
                    0x0A00000A, witness.get("pkt_src_ip", 1),
                    40_000, witness.get("pkt_src_port", 1),
                    device=config.internal_device,
                )
        else:
            seed.device = config.internal_device
        if not nat.process(seed, earlier):
            return ReplayOutcome(trace.path_id, "skipped", "could not seed flow")
    if table_full:
        for i in range(config.max_flows - nat.flow_count()):
            filler = make_udp_packet(0x0B000001 + i, 0x08080808, 1000, 80,
                                     device=config.internal_device)
            nat.process(filler, earlier)

    outputs = nat.process(packet, now)

    expected_sends = len(trace.sends)
    if len(outputs) != expected_sends:
        return ReplayOutcome(
            trace.path_id,
            "mismatch",
            f"trace promises {expected_sends} sends, got {len(outputs)}",
        )
    if outputs:
        out = outputs[0]
        device_expected = trace.sends[0].device
        if device_expected.is_const and out.device != device_expected.offset:
            return ReplayOutcome(
                trace.path_id, "mismatch",
                f"device {out.device} != {device_expected.offset}",
            )
        if packet.device == config.internal_device:
            if out.ipv4 is None or out.ipv4.src_ip != config.external_ip:
                return ReplayOutcome(
                    trace.path_id, "mismatch", "outbound source not rewritten"
                )
    return ReplayOutcome(trace.path_id, "match")


def replay_all(traces: List[PathTrace], config: NatConfig) -> List[ReplayOutcome]:
    """Replay every path; see :class:`ReplayOutcome` for statuses."""
    return [replay_path(trace, config) for trace in traces]
