#!/usr/bin/env python3
"""A second verified NF: the stateful firewall (the §9 generalization).

The paper's closing hope is that the Vigor technique "will eventually
generalize to proving properties of many other software NFs, thereby
amortizing the tedious work" of the verified library. This example does
it: the firewall reuses libVig's flow table and allocator, its stateless
logic is ~40 lines, its semantic spec is one subclass — and the same
pipeline proves all five properties.

Run:  python examples/verified_firewall.py
"""

from repro.nat import NatConfig, VigFirewall
from repro.packets import ip_to_str, make_tcp_packet
from repro.verif.proofs import firewall_proof


def main() -> None:
    config = NatConfig()

    print("Verifying the firewall with the same Vigor pipeline...")
    report, _ = firewall_proof(config).prove()
    print(report.render())
    if not report.verified:
        raise SystemExit("verification FAILED")

    print("\nRunning the verified firewall on a TCP conversation:")
    fw = VigFirewall(config)
    syn = make_tcp_packet("10.0.0.7", "93.184.216.34", 50_000, 443, device=0)
    out = fw.process(syn, 1_000)[0]
    print(f"  outbound SYN forwarded unchanged to device {out.device} "
          f"({ip_to_str(out.ipv4.src_ip)}:{out.l4.src_port} -> "
          f"{ip_to_str(out.ipv4.dst_ip)}:{out.l4.dst_port})")

    syn_ack = make_tcp_packet("93.184.216.34", "10.0.0.7", 443, 50_000, device=1)
    back = fw.process(syn_ack, 2_000)
    print(f"  established reply: {'forwarded' if back else 'BLOCKED'}")

    attack = make_tcp_packet("203.0.113.66", "10.0.0.7", 1337, 22, device=1)
    blocked = fw.process(attack, 3_000)
    print(f"  unsolicited inbound SSH probe: {'forwarded!' if blocked else 'blocked'}")
    print(f"  sessions tracked: {fw.session_count()}")


if __name__ == "__main__":
    main()
