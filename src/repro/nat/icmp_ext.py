"""ICMP-aware NAT: RFC 3022 §4.3 error translation, as a wrapper.

The paper's VigNAT translates TCP/UDP only; RFC 3022 additionally
requires NATs to translate ICMP messages: *error* messages whose payload
embeds the offending packet (which bears the NAT's external address on
the outside), and *query* messages (echo) using the ICMP identifier the
way ports are used for TCP/UDP.

``IcmpAwareNat`` adds both around any inner VigNat without touching its
verified logic: TCP/UDP goes straight through, ICMP is handled here.
This module is a tested **extension** — its translation logic is outside
the verified core, exactly the situation §7 warns about, which is why
its tests are dense.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.nat.base import NetworkFunction
from repro.nat.config import NatConfig
from repro.nat.flow import FlowId
from repro.nat.vignat import VigNat
from repro.packets.headers import PROTO_ICMP, Packet
from repro.packets.icmp import ICMP_ECHO_REPLY, ICMP_ECHO_REQUEST, IcmpMessage


class IcmpAwareNat(NetworkFunction):
    """VigNat plus ICMP error and echo translation."""

    name = "icmp-aware-nat"

    def __init__(self, config: NatConfig | None = None) -> None:
        self.config = config if config is not None else NatConfig()
        self.inner = VigNat(self.config)
        # Echo sessions: identifier-keyed, like port mappings (RFC 3022
        # calls this the "ICMP query identifier" mapping).
        self._echo_out: Dict[Tuple[int, int], int] = {}  # (int_ip, id) -> ext id
        self._echo_in: Dict[int, Tuple[int, int]] = {}  # ext id -> (int_ip, id)
        self._next_echo_id = 1
        self._dropped_total = 0
        self._forwarded_total = 0

    def flow_count(self) -> int:
        return self.inner.flow_count()

    def op_counters(self) -> Dict[str, int]:
        counters = dict(self.inner.op_counters())
        counters["icmp_forwarded"] = self._forwarded_total
        counters["icmp_dropped"] = self._dropped_total
        return counters

    # -- dispatch -----------------------------------------------------------
    def process(self, packet: Packet, now: int) -> List[Packet]:
        if (
            packet.ipv4 is not None
            and packet.ipv4.protocol == PROTO_ICMP
            and packet.l4 is None
        ):
            return self._process_icmp(packet, now)
        return self.inner.process(packet, now)

    def _process_icmp(self, packet: Packet, now: int) -> List[Packet]:
        try:
            message = IcmpMessage.unpack(packet.payload)
        except Exception:
            self._dropped_total += 1
            return []
        if message.is_error():
            return self._translate_error(packet, message, now)
        if message.icmp_type in (ICMP_ECHO_REQUEST, ICMP_ECHO_REPLY):
            return self._translate_echo(packet, message, now)
        self._dropped_total += 1
        return []

    # -- §4.3: error messages -------------------------------------------------
    def _translate_error(
        self, packet: Packet, message: IcmpMessage, now: int
    ) -> List[Packet]:
        embedded = message.embedded()
        if embedded is None:
            self._dropped_total += 1
            return []
        inner_ip, inner_sport, inner_dport, trailing = embedded

        if packet.device == self.config.external_device:
            # Error from outside about a packet our NAT emitted: the
            # embedded packet's SOURCE is (EXT_IP, ext_port); map it
            # back to the internal endpoint.
            if inner_ip.src_ip != self.config.external_ip:
                self._dropped_total += 1
                return []
            external_fid = FlowId(
                src_ip=inner_ip.dst_ip,
                src_port=inner_dport,
                dst_ip=self.config.external_ip,
                dst_port=inner_sport,
                protocol=inner_ip.protocol,
            )
            flow = self._flow_by_external(external_fid)
            if flow is None:
                self._dropped_total += 1
                return []
            out = packet.clone()
            assert out.ipv4 is not None
            # Outer: deliver to the internal host.
            out.ipv4.dst_ip = flow.internal_id.src_ip
            # Embedded: restore the internal source endpoint.
            inner_ip.src_ip = flow.internal_id.src_ip
            message.replace_embedded(
                inner_ip, flow.internal_id.src_port, inner_dport, trailing
            )
            out.payload = message.pack(fill_checksum=True)
            out.ipv4.total_length = 20 + len(out.payload)
            out.device = self.config.internal_device
            out.to_bytes()  # refresh the outer IPv4 checksum
            self._forwarded_total += 1
            return [out]

        if packet.device == self.config.internal_device:
            # Error from an internal host about an inbound packet: the
            # embedded packet's DESTINATION is the internal endpoint;
            # rewrite it (and the outer source) to the external face.
            internal_fid = FlowId(
                src_ip=inner_ip.dst_ip,
                src_port=inner_dport,
                dst_ip=inner_ip.src_ip,
                dst_port=inner_sport,
                protocol=inner_ip.protocol,
            )
            ext_port = self.inner.external_port_of(internal_fid)
            if ext_port is None:
                self._dropped_total += 1
                return []
            out = packet.clone()
            assert out.ipv4 is not None
            out.ipv4.src_ip = self.config.external_ip
            inner_ip.dst_ip = self.config.external_ip
            message.replace_embedded(inner_ip, inner_sport, ext_port, trailing)
            out.payload = message.pack(fill_checksum=True)
            out.ipv4.total_length = 20 + len(out.payload)
            out.device = self.config.external_device
            out.to_bytes()
            self._forwarded_total += 1
            return [out]

        self._dropped_total += 1
        return []

    def _flow_by_external(self, external_fid: FlowId):
        index = self.inner._flow_table.get_by_b(external_fid)
        if index is None:
            return None
        return self.inner._flow_table.get_value(index)

    # -- §4.1/§4.2: echo (query) messages ---------------------------------------
    def _translate_echo(
        self, packet: Packet, message: IcmpMessage, now: int
    ) -> List[Packet]:
        identifier = (message.rest >> 16) & 0xFFFF
        sequence = message.rest & 0xFFFF

        if (
            packet.device == self.config.internal_device
            and message.icmp_type == ICMP_ECHO_REQUEST
        ):
            assert packet.ipv4 is not None
            key = (packet.ipv4.src_ip, identifier)
            ext_id = self._echo_out.get(key)
            if ext_id is None:
                ext_id = self._next_echo_id
                self._next_echo_id = (self._next_echo_id % 0xFFFF) + 1
                self._echo_out[key] = ext_id
                self._echo_in[ext_id] = key
            out = packet.clone()
            assert out.ipv4 is not None
            out.ipv4.src_ip = self.config.external_ip
            message.rest = (ext_id << 16) | sequence
            out.payload = message.pack(fill_checksum=True)
            out.device = self.config.external_device
            out.to_bytes()
            self._forwarded_total += 1
            return [out]

        if (
            packet.device == self.config.external_device
            and message.icmp_type == ICMP_ECHO_REPLY
        ):
            target = self._echo_in.get(identifier)
            if target is None:
                self._dropped_total += 1
                return []
            internal_ip, internal_id = target
            out = packet.clone()
            assert out.ipv4 is not None
            out.ipv4.dst_ip = internal_ip
            message.rest = (internal_id << 16) | sequence
            out.payload = message.pack(fill_checksum=True)
            out.device = self.config.internal_device
            out.to_bytes()
            self._forwarded_total += 1
            return [out]

        self._dropped_total += 1
        return []
