#!/usr/bin/env python3
"""Replay a pcap through the verified NAT, Wireshark-compatible I/O.

Synthesizes a small capture of outbound traffic, replays it through a
launched VigNat runtime, and writes the translated frames to a second
pcap — both files open in Wireshark/tcpdump.

Run:  python examples/replay_pcap.py [input.pcap [output.pcap]]
"""

import sys
import tempfile
from pathlib import Path

from repro.nat import NatConfig, VigNat
from repro.net.app import INLINE, RuntimeSpec, launch, replay_pcap
from repro.packets import ip_to_str, make_tcp_packet, make_udp_packet
from repro.packets.pcap import read_pcap_file, write_pcap_file


def synthesize_capture(path: str) -> None:
    """A capture of three hosts talking to DNS and HTTPS."""
    frames = []
    t = 1_000_000
    for i, host in enumerate(("10.0.0.5", "10.0.0.6", "10.0.0.7")):
        dns = make_udp_packet(host, "8.8.8.8", 5_000 + i, 53, payload=b"query")
        https = make_tcp_packet(host, "93.184.216.34", 44_000 + i, 443)
        frames.append((t, dns.to_bytes()))
        frames.append((t + 150, https.to_bytes()))
        t += 1_000
    write_pcap_file(path, frames)


def main() -> None:
    if len(sys.argv) >= 2:
        in_path = sys.argv[1]
    else:
        in_path = str(Path(tempfile.mkdtemp()) / "lan.pcap")
        synthesize_capture(in_path)
        print(f"synthesized capture: {in_path}")
    out_path = (
        sys.argv[2] if len(sys.argv) >= 3 else str(Path(in_path).with_suffix(".nat.pcap"))
    )

    app = launch(RuntimeSpec(nf_factory=VigNat, config=NatConfig(), execution=INLINE))
    records = replay_pcap(app, in_path, out_path)
    print(f"replayed {len(read_pcap_file(in_path))} frames, "
          f"{len(records)} translated -> {out_path}")
    for record in records:
        packet = record.packet()
        print(
            f"  t={record.timestamp_us}us  "
            f"{ip_to_str(packet.ipv4.src_ip)}:{packet.l4.src_port} -> "
            f"{ip_to_str(packet.ipv4.dst_ip)}:{packet.l4.dst_port}"
        )
    leaked = app.runtime.pool.in_flight
    print(f"buffers in flight after replay: {leaked} (must be 0)")
    if leaked:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
