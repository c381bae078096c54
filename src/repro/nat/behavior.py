"""RFC 4787 NAT behavioural variants — an extension beyond the paper.

The paper's VigNat implements the strictest classic behaviour
(per-5-tuple mappings, the paper's reading of RFC 3022). Real NAT
deployments are classified by RFC 4787 along two axes, and follow-on
work on NAT verification has to handle all of them:

- **mapping behaviour** — when does an internal endpoint reuse its
  external port? Endpoint-independent (EIM: one port per internal
  (ip, port)), address-dependent (ADM), or address-and-port-dependent
  (APDM: one port per 5-tuple — VigNat's behaviour);
- **filtering behaviour** — which inbound packets may use a mapping?
  Endpoint-independent (EIF: anyone who knows the port — "full cone"),
  address-dependent (ADF: only remote IPs the host contacted), or
  address-and-port-dependent (APDF: only the exact remote endpoint —
  "symmetric", VigNat's behaviour);
- plus **hairpinning** (RFC 4787 REQ-9): internal hosts reaching other
  internal hosts through the NAT's external address.

:class:`BehavioralNat` implements the full matrix over libVig
structures. It is an *unverified extension* (its per-mapping permitted-
remote sets for ADF are dynamic state outside the current contract
fragment); the test-suite classifies each variant with the standard
STUN-style probes and demonstrates that VigNat's behaviour equals
APDM+APDF — exactly the corner the paper verified.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.libvig.double_chain import DoubleChain
from repro.nat.base import NetworkFunction
from repro.nat.config import NatConfig
from repro.nat.flow import flow_id_of_packet
from repro.nat.rewrite import rewrite
from repro.packets.headers import Packet


class MappingBehavior(enum.Enum):
    """RFC 4787 §4.1 mapping behaviours."""

    ENDPOINT_INDEPENDENT = "EIM"
    ADDRESS_DEPENDENT = "ADM"
    ADDRESS_AND_PORT_DEPENDENT = "APDM"


class FilteringBehavior(enum.Enum):
    """RFC 4787 §5 filtering behaviours."""

    ENDPOINT_INDEPENDENT = "EIF"
    ADDRESS_DEPENDENT = "ADF"
    ADDRESS_AND_PORT_DEPENDENT = "APDF"


@dataclass
class _Mapping:
    """One external-port binding plus its filtering state."""

    internal_ip: int
    internal_port: int
    protocol: int
    external_port: int
    #: Remote endpoints this mapping has sent to (drives filtering).
    remotes: Set[Tuple[int, int]] = field(default_factory=set)


class BehavioralNat(NetworkFunction):
    """A NAT parameterized over the RFC 4787 behaviour matrix."""

    name = "behavioral-nat"

    def __init__(
        self,
        config: NatConfig | None = None,
        mapping: MappingBehavior = MappingBehavior.ENDPOINT_INDEPENDENT,
        filtering: FilteringBehavior = FilteringBehavior.ENDPOINT_INDEPENDENT,
        hairpinning: bool = True,
    ) -> None:
        self.config = config if config is not None else NatConfig()
        self.mapping = mapping
        self.filtering = filtering
        self.hairpinning = hairpinning
        self._by_key: Dict[tuple, _Mapping] = {}
        self._by_port: Dict[Tuple[int, int], _Mapping] = {}  # (port, proto)
        self._chain = DoubleChain(self.config.max_flows)
        self._index_of_port: Dict[int, int] = {}
        self._port_of_index: Dict[int, Tuple[int, int]] = {}
        self._dropped_total = 0
        self._forwarded_total = 0

    # -- mapping keys per RFC 4787 §4.1 ------------------------------------
    def _mapping_key(self, packet: Packet) -> tuple:
        fid = flow_id_of_packet(packet)
        if self.mapping is MappingBehavior.ENDPOINT_INDEPENDENT:
            return (fid.src_ip, fid.src_port, fid.protocol)
        if self.mapping is MappingBehavior.ADDRESS_DEPENDENT:
            return (fid.src_ip, fid.src_port, fid.dst_ip, fid.protocol)
        return (fid.src_ip, fid.src_port, fid.dst_ip, fid.dst_port, fid.protocol)

    # -- bookkeeping -----------------------------------------------------------
    def mapping_count(self) -> int:
        """Number of live external-port bindings."""
        return len(self._by_port)

    def op_counters(self) -> Dict[str, int]:
        return {
            "dropped": self._dropped_total,
            "forwarded": self._forwarded_total,
            "mappings": len(self._by_port),
        }

    def _expire(self, now: int) -> None:
        threshold = now - self.config.expiration_time + 1
        while True:
            index = self._chain.expire_one_index(threshold)
            if index is None:
                return
            port_key = self._port_of_index.pop(index)
            mapping = self._by_port.pop(port_key)
            del self._index_of_port[mapping.external_port]
            key = self._key_of_mapping(mapping)
            del self._by_key[key]

    def _key_of_mapping(self, mapping: _Mapping) -> tuple:
        if self.mapping is MappingBehavior.ENDPOINT_INDEPENDENT:
            return (mapping.internal_ip, mapping.internal_port, mapping.protocol)
        # For ADM/APDM the key includes remote parts; they are stored at
        # creation time on the mapping itself.
        return mapping._creation_key  # type: ignore[attr-defined]

    def _create_mapping(self, packet: Packet, key: tuple, now: int) -> Optional[_Mapping]:
        index = self._chain.allocate_new_index(now)
        if index is None:
            return None
        fid = flow_id_of_packet(packet)
        external_port = self.config.start_port + index
        mapping = _Mapping(
            internal_ip=fid.src_ip,
            internal_port=fid.src_port,
            protocol=fid.protocol,
            external_port=external_port,
        )
        mapping._creation_key = key  # type: ignore[attr-defined]
        self._by_key[key] = mapping
        self._by_port[(external_port, fid.protocol)] = mapping
        self._index_of_port[external_port] = index
        self._port_of_index[index] = (external_port, fid.protocol)
        return mapping

    # -- packet path --------------------------------------------------------------
    def process(self, packet: Packet, now: int) -> List[Packet]:
        self._expire(now)
        if not packet.is_tcpudp_ipv4():
            self._dropped_total += 1
            return []
        if packet.device == self.config.internal_device:
            if (
                self.hairpinning
                and packet.ipv4 is not None
                and packet.ipv4.dst_ip == self.config.external_ip
            ):
                return self._hairpin(packet, now)
            return self._outbound(packet, now)
        if packet.device == self.config.external_device:
            return self._inbound(packet, now)
        self._dropped_total += 1
        return []

    def _outbound(self, packet: Packet, now: int) -> List[Packet]:
        key = self._mapping_key(packet)
        mapping = self._by_key.get(key)
        if mapping is None:
            mapping = self._create_mapping(packet, key, now)
            if mapping is None:
                self._dropped_total += 1
                return []
        else:
            self._chain.rejuvenate_index(
                self._index_of_port[mapping.external_port], now
            )
        fid = flow_id_of_packet(packet)
        mapping.remotes.add((fid.dst_ip, fid.dst_port))
        out = packet.clone()
        rewrite(out, src=(self.config.external_ip, mapping.external_port))
        out.device = self.config.external_device
        self._forwarded_total += 1
        return [out]

    def _filter_permits(self, mapping: _Mapping, remote_ip: int, remote_port: int) -> bool:
        if self.filtering is FilteringBehavior.ENDPOINT_INDEPENDENT:
            return True
        if self.filtering is FilteringBehavior.ADDRESS_DEPENDENT:
            return any(ip == remote_ip for ip, _port in mapping.remotes)
        return (remote_ip, remote_port) in mapping.remotes

    def _inbound(self, packet: Packet, now: int) -> List[Packet]:
        fid = flow_id_of_packet(packet)
        if fid.dst_ip != self.config.external_ip:
            self._dropped_total += 1
            return []
        mapping = self._by_port.get((fid.dst_port, fid.protocol))
        if mapping is None or not self._filter_permits(
            mapping, fid.src_ip, fid.src_port
        ):
            self._dropped_total += 1
            return []
        self._chain.rejuvenate_index(self._index_of_port[mapping.external_port], now)
        out = packet.clone()
        rewrite(out, dst=(mapping.internal_ip, mapping.internal_port))
        out.device = self.config.internal_device
        self._forwarded_total += 1
        return [out]

    def _hairpin(self, packet: Packet, now: int) -> List[Packet]:
        """RFC 4787 REQ-9: internal traffic to the NAT's own address.

        The packet is translated twice: its source acquires an external
        mapping (as for any outbound packet) and its destination is
        resolved through the target's existing mapping, then it is sent
        back out the *internal* interface ("external source" flavour:
        the receiver sees the sender's external address).
        """
        fid = flow_id_of_packet(packet)
        target = self._by_port.get((fid.dst_port, fid.protocol))
        if target is None:
            self._dropped_total += 1
            return []
        key = self._mapping_key(packet)
        mapping = self._by_key.get(key)
        if mapping is None:
            mapping = self._create_mapping(packet, key, now)
            if mapping is None:
                self._dropped_total += 1
                return []
        mapping.remotes.add((fid.dst_ip, fid.dst_port))
        out = packet.clone()
        rewrite(
            out,
            src=(self.config.external_ip, mapping.external_port),
            dst=(target.internal_ip, target.internal_port),
        )
        out.device = self.config.internal_device
        self._forwarded_total += 1
        return [out]
