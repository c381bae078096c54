"""A NetFilter/conntrack-style NAT — the "Linux NAT" baseline (§6).

Models the kernel masquerade path closely enough that its *work per
packet* dwarfs a DPDK NF's, which is what the paper measures (≈20 µs
latency, 0.6 Mpps vs 1.8-2 Mpps): every packet traverses the netfilter
hook chain (PREROUTING → routing decision → FORWARD → POSTROUTING), a
connection-tracking lookup with a tuple hash per direction, NAT rule
evaluation for NEW connections, a conntrack state machine update, and a
*full* checksum recomputation (the kernel path cannot assume checksum
offload in this setup).

The hook traversal and skb bookkeeping are represented by explicit
per-packet counter increments that the cost model charges; the
translation logic itself is real and RFC-conformant, so the Linux NAT
produces byte-identical translations to VigNat on conforming traffic.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.libvig.hash_table import ChainingHashTable
from repro.nat.base import NetworkFunction
from repro.nat.config import NatConfig
from repro.nat.flow import FlowId, flow_id_of_packet
from repro.nat.rewrite import rewrite
from repro.packets.headers import PROTO_TCP, Packet


class ConntrackState(enum.Enum):
    """Reduced conntrack state machine (enough for NAT semantics)."""

    NEW = "NEW"
    ESTABLISHED = "ESTABLISHED"
    # A reply was seen; for TCP this would gate window tracking.
    ASSURED = "ASSURED"
    # A FIN was seen: the connection is winding down (short timeout,
    # like nf_conntrack_tcp_timeout_fin_wait).
    CLOSING = "CLOSING"


TCP_FIN = 0x01
TCP_RST = 0x04


@dataclass
class _Conntrack:
    original: FlowId  # tuple as seen on the internal side
    reply: FlowId  # tuple a reply bears on the external side
    external_port: int
    state: ConntrackState
    last_seen: int


class NetfilterNat(NetworkFunction):
    """Masquerading NAT with connection tracking and hook-chain costs."""

    name = "linux-nat"

    #: Number of netfilter hooks every forwarded packet traverses.
    HOOKS_PER_PACKET = 4

    #: Conntrack's short timeout for connections that never saw a reply
    #: (nf_conntrack_udp_timeout / tcp_timeout_syn_sent are ~30 s). The
    #: effective NEW timeout is min(this, the configured expiration), so
    #: short-expiry configurations behave exactly as before.
    NEW_TIMEOUT_US = 30_000_000

    COUNTERS = {
        "hook_traversals": "_hook_traversals",
        "checksum_bytes": "_checksum_bytes",
        "dropped": "_dropped_total",
        "forwarded": "_forwarded_total",
        "expired": "_expired_total",
        "expiry_scans_amortized": "_expiry_scans_amortized",
        **NetworkFunction.BURST_COUNTERS,
    }

    def __init__(self, config: NatConfig | None = None) -> None:
        self.config = config if config is not None else NatConfig()
        self._table = ChainingHashTable(bucket_count=self.config.max_flows)
        self._lru: "OrderedDict[int, _Conntrack]" = OrderedDict()
        self._next_port = self.config.start_port
        self._free_ports: List[int] = []
        self._zero_counters()

    def flow_count(self) -> int:
        """Number of tracked connections."""
        return len(self._lru)

    def op_counters(self) -> Dict[str, int]:
        return {"table_probes": self._table.stats.probes, **self._declared_counters()}

    # -- conntrack bookkeeping ---------------------------------------------
    def _timeout_of(self, ct: _Conntrack) -> int:
        """Per-state timeout: unanswered NEW and closing connections
        die early."""
        if ct.state in (ConntrackState.NEW, ConntrackState.CLOSING):
            return min(self.NEW_TIMEOUT_US, self.config.expiration_time)
        return self.config.expiration_time

    def _track_tcp_teardown(self, ct: _Conntrack, packet: Packet) -> bool:
        """TCP flag tracking: RST destroys the entry immediately, FIN
        moves it to the short-lived CLOSING state. Returns True when
        the entry was destroyed (RST)."""
        from repro.packets.headers import TcpHeader

        if not isinstance(packet.l4, TcpHeader):
            return False
        if packet.l4.flags & TCP_RST:
            self._destroy(ct)
            return True
        if packet.l4.flags & TCP_FIN:
            ct.state = ConntrackState.CLOSING
        return False

    def _is_expired(self, ct: _Conntrack, now: int) -> bool:
        return ct.last_seen + self._timeout_of(ct) <= now

    def _destroy(self, ct: _Conntrack) -> None:
        del self._lru[ct.external_port]
        self._table.erase(ct.original)
        self._table.erase(ct.reply)
        self._free_ports.append(ct.external_port)
        self._expired_total += 1

    def _expire(self, now: int) -> None:
        """Eager front-of-LRU expiry.

        The LRU front has the oldest last_seen; a NEW entry deeper in
        the list may have a shorter deadline, so (like the kernel's
        lazy per-bucket GC) such entries are reaped on lookup instead —
        see :meth:`_lookup`.
        """
        while self._lru:
            _port, ct = next(iter(self._lru.items()))
            if not self._is_expired(ct, now):
                break
            self._destroy(ct)

    def _lookup(self, flow_id: FlowId, now: int):
        """Conntrack lookup with lazy expiry of stale entries."""
        ct: _Conntrack | None = self._table.get(flow_id)
        if ct is not None and self._is_expired(ct, now):
            self._destroy(ct)
            return None
        return ct

    def _touch(self, ct: _Conntrack, now: int) -> None:
        ct.last_seen = now
        self._lru.move_to_end(ct.external_port)

    def _allocate_port(self) -> int | None:
        if self._free_ports:
            return self._free_ports.pop()
        if self._next_port + 1 > 0xFFFF or (
            self._next_port - self.config.start_port >= self.config.max_flows
        ):
            return None
        port = self._next_port
        self._next_port += 1
        return port

    def _reply_tuple(self, original: FlowId, external_port: int) -> FlowId:
        return FlowId(
            src_ip=original.dst_ip,
            src_port=original.dst_port,
            dst_ip=self.config.external_ip,
            dst_port=external_port,
            protocol=original.protocol,
        )

    # -- checkpoint/restore ---------------------------------------------------
    def checkpoint_state(self) -> Dict:
        """Conntrack entries in LRU order plus the port pool and counters."""
        conns = []
        for port, ct in self._lru.items():
            fid = ct.original
            conns.append(
                [
                    [fid.src_ip, fid.src_port, fid.dst_ip, fid.dst_port, fid.protocol],
                    port,
                    ct.state.value,
                    ct.last_seen,
                ]
            )
        return {
            "conns": conns,
            "next_port": self._next_port,
            "free_ports": list(self._free_ports),
            "counters": self._declared_counters(),
        }

    def restore_state(self, state: Dict) -> None:
        """Rebuild conntrack from a checkpoint, refusing inconsistent ports."""
        if self._lru:
            raise ValueError("restore_state requires a freshly constructed NF")
        conns = state.get("conns", [])
        next_port = int(state.get("next_port", self.config.start_port))
        free_ports = [int(p) for p in state.get("free_ports", [])]
        seen_ports = set()
        for _fid_fields, port, state_name, _last_seen in conns:
            if port in seen_ports:
                raise ValueError(f"port {port} tracked twice in checkpoint")
            if not self.config.start_port <= port < next_port:
                raise ValueError(
                    f"port {port} outside the handed-out range "
                    f"[{self.config.start_port}, {next_port})"
                )
            ConntrackState(state_name)  # unknown state names raise here
            seen_ports.add(port)
        for port in free_ports:
            if port in seen_ports:
                raise ValueError(f"port {port} both tracked and on the free list")
        for fid_fields, port, state_name, last_seen in conns:
            original = FlowId(*fid_fields)
            ct = _Conntrack(
                original=original,
                reply=self._reply_tuple(original, port),
                external_port=port,
                state=ConntrackState(state_name),
                last_seen=int(last_seen),
            )
            self._table.put(original, ct)
            self._table.put(ct.reply, ct)
            self._lru[port] = ct
        self._next_port = next_port
        self._free_ports = free_ports
        self._restore_counters(state)

    # -- packet path ---------------------------------------------------------
    def process(self, packet: Packet, now: int) -> List[Packet]:
        # Conntrack GC runs opportunistically from the packet path, like
        # the kernel's early_drop/gc behavior. Scanning is what makes it
        # expensive; that cost is visible in table_probes growth.
        self._expire(now)
        return self._process_one(packet, now)

    def process_burst(
        self, packets: Sequence[Packet], now: int
    ) -> List[List[Packet]]:
        """NAPI-poll-style burst: one GC sweep, then per-packet work.

        The hook chain, conntrack lookups and full checksum recompute
        still run per packet — the kernel path has nothing like DPDK's
        per-burst amortization, which is why its cost stays far above
        the DPDK NFs at every burst size.
        """
        self._note_burst(len(packets))
        if not packets:
            return []
        self._expire(now)
        self._expiry_scans_amortized += len(packets) - 1
        return [self._process_one(packet, now) for packet in packets]

    def _process_one(self, packet: Packet, now: int) -> List[Packet]:
        self._hook_traversals += self.HOOKS_PER_PACKET
        if not packet.is_tcpudp_ipv4():
            self._dropped_total += 1
            return []
        flow_id = flow_id_of_packet(packet)
        if packet.device == self.config.internal_device:
            out = self._outbound(packet, flow_id, now)
        elif packet.device == self.config.external_device:
            out = self._inbound(packet, flow_id, now)
        else:
            self._dropped_total += 1
            return []
        # The kernel path recomputes checksums over the whole packet.
        for pkt in out:
            self._checksum_bytes += len(pkt.to_bytes())
        return out

    def _outbound(self, packet: Packet, flow_id: FlowId, now: int) -> List[Packet]:
        ct = self._lookup(flow_id, now)
        if ct is None:
            # NEW connection: evaluate the masquerade rule, allocate a port.
            port = self._allocate_port()
            if port is None:
                self._dropped_total += 1
                return []
            ct = _Conntrack(
                original=flow_id,
                reply=self._reply_tuple(flow_id, port),
                external_port=port,
                state=ConntrackState.NEW,
                last_seen=now,
            )
            self._table.put(flow_id, ct)
            self._table.put(ct.reply, ct)
            self._lru[port] = ct
        else:
            if ct.state is ConntrackState.NEW and flow_id == ct.original:
                ct.state = ConntrackState.ESTABLISHED
        self._touch(ct, now)
        # RST tears the mapping down (the packet itself is still
        # forwarded so the peer learns of the reset); FIN shortens it.
        self._track_tcp_teardown(ct, packet)
        out = packet.clone()
        rewrite(out, src=(self.config.external_ip, ct.external_port))
        out.device = self.config.external_device
        self._forwarded_total += 1
        return [out]

    def _inbound(self, packet: Packet, flow_id: FlowId, now: int) -> List[Packet]:
        ct = self._lookup(flow_id, now)
        if ct is None or flow_id != ct.reply:
            self._dropped_total += 1
            return []
        if packet.ipv4 is not None and packet.ipv4.protocol == PROTO_TCP:
            ct.state = ConntrackState.ASSURED
        elif ct.state is not ConntrackState.ASSURED:
            ct.state = ConntrackState.ESTABLISHED
        self._touch(ct, now)
        self._track_tcp_teardown(ct, packet)
        out = packet.clone()
        rewrite(out, dst=(ct.original.src_ip, ct.original.src_port))
        out.device = self.config.internal_device
        self._forwarded_total += 1
        return [out]
