"""The unverified DPDK NAT baseline (§6, "Unverified NAT").

Written the way "an experienced software developer with little
verification expertise" would: same RFC 3022 semantics and the same
65,535-flow budget as VigNat, but using a separate-chaining hash table
(mirroring the DPDK hash) and ad-hoc state handling sprinkled through the
packet path instead of contracted libVig structures.

Because nothing is proven about it, it ships with the kind of latent
edge-case defects the paper's introduction cites CVEs for. They are
deliberate, documented reproductions of real NAT bug classes, and the
fault-injection test-suite demonstrates each one while showing VigNat is
immune:

- **Eviction instead of drop when full**: when the table is full the
  developer "helpfully" evicts the least-recently-used flow even if it
  has not expired, silently breaking an established connection — a
  semantic deviation from Fig. 6 l.15 that no test of theirs caught.
- **Port leak on eviction, then crash** (cf. the Cisco NAT crash
  CVE-2015-6271 and hang CVE-2013-1138): the eviction path forgets to
  return the victim's external port to the free pool, so sustained flow
  churn past capacity eventually exhausts the port space, at which point
  flow creation raises instead of dropping the packet and the NF dies.
- **Checksum corruption for zero-checksum UDP reply traffic** on the
  inbound path only (hand-rolled rewrite code patches a disabled UDP
  checksum, emitting an invalid non-zero one).
- **Hash-flooding degradation**: chaining with no chain-length bound lets
  an adversary who can craft colliding 5-tuples degrade lookups to O(n),
  "hanging" the NAT — libVig's bounded open addressing cannot degrade
  past its fixed capacity.

On the happy path it is slightly *faster* than VigNat (fewer probes per
lookup thanks to chaining), which is what Figs. 12/14 measure.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from repro.libvig.hash_table import ChainingHashTable
from repro.nat.base import NetworkFunction
from repro.nat.config import NatConfig
from repro.nat.compiled import compile_action
from repro.nat.flow import FlowId, flow_id_of_packet, microflow_keys
from repro.nat.rewrite import rewrite_source
from repro.packets.checksum import checksum_update_u16, checksum_update_u32
from repro.packets.headers import Packet


class NatCrash(RuntimeError):
    """The unverified NAT hit an unhandled edge case and died."""


@dataclass(slots=True)
class _Entry:
    internal_id: FlowId
    external_port: int
    last_seen: int


class UnverifiedNat(NetworkFunction):
    """RFC 3022 NAT over a chaining hash table, no contracts, no proofs."""

    name = "unverified-nat"
    COUNTERS = {
        "dropped": "_dropped_total",
        "forwarded": "_forwarded_total",
        "evicted": "_evicted_total",
        "expired": "_expired_total",
        "expiry_scans_amortized": "_expiry_scans_amortized",
        **NetworkFunction.BURST_COUNTERS,
    }

    def __init__(self, config: NatConfig | None = None) -> None:
        self.config = config if config is not None else NatConfig()
        # Two lookup directions share the entry objects; the LRU order for
        # expiry lives in an insertion-ordered dict keyed by external port.
        self._by_internal = ChainingHashTable(self.config.max_flows)
        self._by_external = ChainingHashTable(self.config.max_flows)
        self._lru: "OrderedDict[int, _Entry]" = OrderedDict()
        self._next_port = self.config.start_port
        self._free_ports: List[int] = []
        self._zero_counters()
        #: Optional per-flow delta observer (see base.delta_sink).
        self._delta_sink = None
        #: The microflow cache's flow-freed observer (set through
        #: :meth:`on_flow_freed`); None when unwrapped.
        self._flow_freed = None

    # -- introspection ----------------------------------------------------
    def flow_count(self) -> int:
        """Current number of live translation entries."""
        return len(self._lru)

    def has_flow(self, internal_id: FlowId) -> bool:
        """True when a translation exists for this internal 5-tuple."""
        return self._by_internal.has(internal_id)

    def op_counters(self) -> Dict[str, int]:
        return {
            "table_probes": self._by_internal.stats.probes
            + self._by_external.stats.probes,
            **self._declared_counters(),
        }

    # -- state handling (sprinkled, not contracted) ------------------------
    def _expire(self, now: int) -> None:
        threshold = now - self.config.expiration_time
        while self._lru:
            port, entry = next(iter(self._lru.items()))
            if entry.last_seen > threshold:
                break
            self._remove(port, entry)
            self._expired_total += 1

    def _remove(self, port: int, entry: _Entry, free_port: bool = True) -> None:
        # Every way a flow ends — expiry and the evict-when-full path —
        # comes through here, so this is where the microflow cache
        # hears of it, before the port can be handed out again.
        if self._flow_freed is not None:
            self._flow_freed(microflow_keys(self.config, entry))
        del self._lru[port]
        self._by_internal.erase(entry.internal_id)
        self._by_external.erase(self._external_key(entry))
        if free_port:
            self._free_ports.append(port)
        if self._delta_sink is not None:
            self._delta_sink(("free", port, None, entry.last_seen))

    def _external_key(self, entry: _Entry) -> FlowId:
        return FlowId(
            src_ip=entry.internal_id.dst_ip,
            src_port=entry.internal_id.dst_port,
            dst_ip=self.config.external_ip,
            dst_port=entry.external_port,
            protocol=entry.internal_id.protocol,
        )

    def _allocate_port(self) -> int:
        if self._free_ports:
            return self._free_ports.pop()
        port = self._next_port
        # BUG (documented above): when the port space is exhausted this
        # walks off the end of the 16-bit range and crashes instead of
        # dropping the packet.
        if port > 0xFFFF:
            raise NatCrash("port allocator overflow: no free external port")
        self._next_port += 1
        return port

    def _touch(self, port: int, entry: _Entry, now: int) -> None:
        entry.last_seen = now
        self._lru.move_to_end(port)
        if self._delta_sink is not None:
            self._delta_sink(("touch", port, None, now))

    # -- the fast-path provider, over the ad-hoc state ------------------------
    def fastpath_hooks(self) -> "UnverifiedNat":
        return self

    def on_flow_freed(self, observer) -> None:
        self._flow_freed = observer

    def begin_burst(self, now: int) -> int:
        self._expire(now)
        return now

    def learn_token(self, packet: Packet) -> Optional[_Entry]:
        flow_id = flow_id_of_packet(packet)
        if packet.device == self.config.internal_device:
            return self._by_internal.get(flow_id)
        if packet.device == self.config.external_device:
            return self._by_external.get(flow_id)
        return None

    def rejuvenate(self, token: _Entry, now: int) -> None:
        self._touch(token.external_port, token, now)

    def compile(self, key, action):
        """The NAT's *own* rewrite per direction, as a closure. Both
        directions patch their endpoint even when it is unchanged (which
        the learn records as None), and such a patch still turns a
        checksum of 0xFFFF into 0. Outbound is the shared helper's shape
        (RFC 768 zero-check between patches); inbound the hand-rolled
        ``_patch_destination``, which patches a disabled UDP checksum
        like any other word and so folds like TCP's. The fast path
        memoizes the NF as it is, bugs included; fixing them here would
        make the cached path diverge from the slow path the differential
        harness compares against.
        """
        if key[0] == self.config.external_device:
            inbound = replace(action, dst=action.dst or key[4:6])
            return compile_action(key, inbound, udp_zero_check=False)
        return compile_action(key, replace(action, src=action.src or key[2:4]))

    # -- checkpoint/restore ------------------------------------------------
    def delta_sink(self, sink) -> None:
        self._delta_sink = sink

    def checkpoint_state(self) -> Dict:
        """Entries in LRU order plus the ad-hoc allocator's two halves."""
        flows = []
        for port, entry in self._lru.items():
            fid = entry.internal_id
            flows.append(
                [
                    entry.last_seen,
                    [fid.src_ip, fid.src_port, fid.dst_ip, fid.dst_port, fid.protocol],
                    port,
                ]
            )
        return {
            "flows": flows,
            "next_port": self._next_port,
            "free_ports": list(self._free_ports),
            "counters": self._declared_counters(),
        }

    def restore_state(self, state: Dict) -> None:
        """Rebuild the chained tables, LRU order and port pool, validated.

        The ad-hoc allocator has no contracts, but the restore still
        refuses inconsistent checkpoints: a port bound to two live flows,
        a free-listed port that is also live, or a port at or beyond
        ``next_port`` that was never handed out would all corrupt the
        pool silently.
        """
        if self._lru:
            raise ValueError("restore_state requires a freshly constructed NF")
        flows = state.get("flows", [])
        next_port = int(state.get("next_port", self.config.start_port))
        free_ports = [int(p) for p in state.get("free_ports", [])]
        seen_ports = set()
        seen_ids = set()
        for _last_seen, fid_fields, port in flows:
            if port in seen_ports:
                raise ValueError(f"port {port} bound to two flows in checkpoint")
            if not self.config.start_port <= port < next_port:
                raise ValueError(
                    f"port {port} outside the handed-out range "
                    f"[{self.config.start_port}, {next_port})"
                )
            seen_ports.add(port)
            internal_id = FlowId(*fid_fields)
            if internal_id in seen_ids:
                raise ValueError(
                    f"internal 5-tuple {internal_id} appears twice in checkpoint"
                )
            seen_ids.add(internal_id)
        for port in free_ports:
            if port in seen_ports:
                raise ValueError(f"port {port} both live and on the free list")
        for _last_seen, fid_fields, port in flows:
            entry = _Entry(
                internal_id=FlowId(*fid_fields),
                external_port=port,
                last_seen=int(_last_seen),
            )
            self._by_internal.put(entry.internal_id, entry)
            self._by_external.put(self._external_key(entry), entry)
            self._lru[port] = entry
        self._next_port = next_port
        self._free_ports = free_ports
        self._restore_counters(state)

    def register_metrics(self, registry, labels=None) -> None:
        """Operation counters plus flow-table occupancy/expiry/eviction."""
        super().register_metrics(registry, labels)
        nf_labels = dict(labels or {})
        nf_labels["nf"] = self.name
        registry.gauge_fn(
            "flow_table_occupancy",
            self.flow_count,
            "live translation entries",
            nf_labels,
        )
        registry.gauge_fn(
            "flow_table_capacity",
            lambda: self.config.max_flows,
            "maximum translation entries",
            nf_labels,
        )
        registry.counter_fn(
            "flows_expired_total",
            lambda: self._expired_total,
            "flows removed by the expiry sweep",
            nf_labels,
        )
        registry.counter_fn(
            "flows_evicted_total",
            lambda: self._evicted_total,
            "live flows evicted by the buggy capacity path",
            nf_labels,
        )

    # -- packet path --------------------------------------------------------
    def process(self, packet: Packet, now: int) -> List[Packet]:
        self._expire(now)
        return self._translate(packet, now)

    def process_burst(
        self, packets: Sequence[Packet], now: int
    ) -> List[List[Packet]]:
        """Burst entry point: the LRU expiry sweep runs once per burst."""
        self._note_burst(len(packets))
        if not packets:
            return []
        self._expire(now)
        self._expiry_scans_amortized += len(packets) - 1
        return [self._translate(packet, now) for packet in packets]

    def _translate(self, packet: Packet, now: int) -> List[Packet]:
        if not packet.is_tcpudp_ipv4():
            self._dropped_total += 1
            return []
        flow_id = flow_id_of_packet(packet)
        if packet.device == self.config.internal_device:
            return self._outbound(packet, flow_id, now)
        if packet.device == self.config.external_device:
            return self._inbound(packet, flow_id, now)
        self._dropped_total += 1
        return []

    def _outbound(self, packet: Packet, flow_id: FlowId, now: int) -> List[Packet]:
        entry: _Entry | None = self._by_internal.get(flow_id)
        if entry is None:
            if len(self._lru) >= self.config.max_flows:
                # BUG (documented above): evicts the oldest live flow
                # instead of dropping the newcomer as RFC 3022 requires —
                # and leaks the victim's port on the way out.
                port, victim = next(iter(self._lru.items()))
                self._remove(port, victim, free_port=False)
                self._evicted_total += 1
            port = self._allocate_port()
            entry = _Entry(internal_id=flow_id, external_port=port, last_seen=now)
            self._by_internal.put(flow_id, entry)
            self._by_external.put(self._external_key(entry), entry)
            self._lru[port] = entry
            if self._delta_sink is not None:
                self._delta_sink(("create", port, flow_id, now))
        self._touch(entry.external_port, entry, now)
        out = packet.clone()
        rewrite_source(out, self.config.external_ip, entry.external_port)
        out.device = self.config.external_device
        self._forwarded_total += 1
        return [out]

    def _inbound(self, packet: Packet, flow_id: FlowId, now: int) -> List[Packet]:
        entry: _Entry | None = self._by_external.get(flow_id)
        if entry is None:
            self._dropped_total += 1
            return []
        self._touch(entry.external_port, entry, now)
        out = packet.clone()
        self._patch_destination(
            out, entry.internal_id.src_ip, entry.internal_id.src_port
        )
        out.device = self.config.internal_device
        self._forwarded_total += 1
        return [out]

    @staticmethod
    def _patch_destination(out: Packet, new_ip: int, new_port: int) -> None:
        # Hand-rolled rewrite: patches the headers and checksums inline
        # rather than via a shared helper (the asymmetry noted above —
        # a zero UDP checksum is "patched" here, unconditionally,
        # producing an invalid non-zero checksum, where the outbound
        # path handles it right). A cached inbound action's closure is
        # compiled to the same shape (``compile``), so both are wrong
        # alike.
        assert out.ipv4 is not None and out.l4 is not None
        old_ip = out.ipv4.dst_ip
        old_port = out.l4.dst_port
        out.ipv4.dst_ip = new_ip
        out.l4.dst_port = new_port
        out.ipv4.checksum = checksum_update_u32(out.ipv4.checksum, old_ip, new_ip)
        out.l4.checksum = checksum_update_u32(out.l4.checksum, old_ip, new_ip)
        out.l4.checksum = checksum_update_u16(out.l4.checksum, old_port, new_port)
