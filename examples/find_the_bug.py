#!/usr/bin/env python3
"""Verification-guided debugging: from failed proof to exploit packet.

Takes a NAT with a classic bug — it forwards unsolicited external
packets instead of dropping them (a "full-cone by accident" hole) —
and shows the full loop:

1. the Vigor pipeline rejects it, naming the violated obligation;
2. the failing path's *witness* (a satisfying assignment of the path
   condition) is decoded into a concrete packet;
3. that packet, fed to the buggy NAT, demonstrates the hole live;
4. the same packet, fed to the verified VigNat, is dropped.

The counterexample is not a lucky fuzz hit — it falls out of the proof
attempt, which is the point of verifying implementations (§1).

Run:  python examples/find_the_bug.py
"""

from repro.nat import NatConfig, VigNat
from repro.packets import ip_to_str, make_udp_packet
from repro.packets.headers import ETHERTYPE_IPV4, PROTO_TCP, PROTO_UDP
from repro.verif.nf_env import SymbolicFlowTableEnv, symbolic_body
from repro.verif.proofs import Proof
from repro.verif.semantics import NatSemantics

CFG = NatConfig()


def buggy_loop_iteration(env, config) -> None:
    """A hand-rolled NAT loop with the hole: unsolicited inbound passes."""
    now = env.current_time()
    if now >= config.expiration_time:
        env.expire_flows(now - config.expiration_time + 1)
    else:
        env.expire_flows(0)
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
        index = env.flow_table_get_internal(packet)
        if index is None:
            index = env.flow_table_create(packet, now)
            if index is None:
                env.drop(packet)
                return
        else:
            env.flow_table_rejuvenate(index, now)
        port = env.flow_external_port(index)
        env.emit(packet, config.external_device, config.external_ip, port,
                 packet.dst_ip, packet.dst_port)
    elif packet.device == config.external_device:
        index = env.flow_table_get_external(packet)
        if index is None:
            # THE BUG: "probably fine" — forward it inside unmodified.
            env.emit(packet, config.internal_device, packet.src_ip,
                     packet.src_port, packet.dst_ip, packet.dst_port)
            return
        env.flow_table_rejuvenate(index, now)
        ip, port = env.flow_internal_endpoint(index)
        env.emit(packet, config.internal_device, packet.src_ip,
                 packet.src_port, ip, port)
    else:
        env.drop(packet)


class BuggyNat(VigNat):
    """The same hole, concretely: runs buggy_loop_iteration on libVig."""

    name = "buggy-nat"
    LOOP = staticmethod(buggy_loop_iteration)


def main() -> None:
    print("Step 1 — verifying the buggy NAT...")
    # The NAT's proof with one thing swapped: the function under proof.
    report, result = Proof(
        "buggy-nat",
        symbolic_body(SymbolicFlowTableEnv, buggy_loop_iteration, CFG),
        NatSemantics(CFG),
    ).prove()
    assert not report.verified
    failure = report.p1.failures[0]
    print(f"  NOT VERIFIED: {failure}")

    print("\nStep 2 — decoding the failing path's witness into a packet...")
    failing_id = int(failure.split("path ")[1].split(":")[0])
    trace = next(t for t in result.tree.paths if t.path_id == failing_id)
    witness = trace.witness
    exploit = make_udp_packet(
        witness.get("pkt_src_ip", 1) or 1,
        witness.get("pkt_dst_ip", 2) or 2,
        witness.get("pkt_src_port", 1) or 1,
        witness.get("pkt_dst_port", 1) or 1,
        device=witness.get("pkt_device", 1),
    )
    print(
        f"  witness packet: dev{exploit.device} "
        f"{ip_to_str(exploit.ipv4.src_ip)}:{exploit.l4.src_port} -> "
        f"{ip_to_str(exploit.ipv4.dst_ip)}:{exploit.l4.dst_port}"
    )

    print("\nStep 3 — replaying it against the buggy NAT (empty flow table):")
    buggy = BuggyNat(CFG)
    leaked = buggy.process(exploit.clone(), 10_000_000)
    print(
        "  buggy NAT: "
        + (
            f"FORWARDED INSIDE to device {leaked[0].device} — the hole is real"
            if leaked
            else "dropped (unexpected)"
        )
    )
    assert leaked and leaked[0].device == CFG.internal_device

    print("\nStep 4 — the verified NAT on the same packet:")
    verified = VigNat(CFG)
    assert verified.process(exploit.clone(), 10_000_000) == []
    print("  VigNat: dropped, as RFC 3022 requires.")


if __name__ == "__main__":
    main()
