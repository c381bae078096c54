"""Observability off must be invisible: identical outputs, no-op recorder.

The zero-cost-when-disabled contract has two halves:

- the module-level recorder defaults to the no-op recorder, so data
  paths skip every trace call after one ``active`` check per burst;
- enabling observability must not change what the data path *does* —
  only record it. A sweep's rendered table, a runtime's and a chain's
  emitted packets are byte-identical with the layer off and on.

``REPRO_OBS`` switches it on at import; ``0``, ``false``, ``no``,
``off`` and empty, in any case, leave it off.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.chain import default_chain_spec, launch_chain
from repro.eval.experiments import fastpath_sweep
from repro.eval.reporting import render_fastpath_sweep
from repro.nat.config import NatConfig
from repro.nat.fastpath import FastPathNat
from repro.nat.vignat import VigNat
from repro.net.dpdk import DpdkRuntime
from repro.packets.builder import make_udp_packet
from repro.packets.headers import Packet


@pytest.fixture(autouse=True)
def restore_recorder():
    yield
    obs.disable_observability()


def test_default_recorder_is_noop():
    assert obs.recorder() is obs.NULL_RECORDER
    assert not obs.observability_enabled()
    # Tracing into the no-op recorder does nothing and allocates nothing.
    obs.recorder().trace("rx", t_us=1, worker=0)
    assert obs.recorder().flight is None


def test_enable_disable_round_trip():
    live = obs.enable_observability(ring_capacity=16)
    assert obs.recorder() is live
    assert live.active
    live.trace("rx", t_us=1)
    assert live.flight.recorded_total == 1
    obs.disable_observability()
    assert obs.recorder() is obs.NULL_RECORDER


@pytest.mark.parametrize(
    "value,enabled",
    [
        ("off", False),
        ("False", False),
        ("NO", False),
        ("0", False),
        ("", False),
        ("1", True),
        ("true", True),
    ],
)
def test_repro_obs_environment_switch(value, enabled):
    # Read once at import, so each value gets a fresh interpreter.
    src = str(Path(repro.__file__).parents[1])
    env = dict(os.environ, REPRO_OBS=value, PYTHONPATH=src)
    probe = "from repro import obs; print(obs.observability_enabled())"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == str(enabled)


def _drive_runtime():
    """One small burst-mode run; returns (transmitted wire bytes, counters)."""
    runtime = DpdkRuntime(port_count=2, pool_size=64)
    nat = VigNat(NatConfig(max_flows=128))
    for i in range(16):
        packet = make_udp_packet("10.0.0.5", "8.8.8.8", 5000 + i, 53, device=0)
        runtime.inject(0, packet, timestamp=i)
    runtime.main_loop_burst(nat, now_us=100, burst_size=8)
    wires = [(p_id, t, p.wire_bytes()) for p_id, t, p in runtime.collect()]
    return wires, nat.op_counters()


def test_runtime_outputs_identical_with_observability_on():
    off_wires, off_counters = _drive_runtime()
    obs.enable_observability(ring_capacity=64)
    on_wires, on_counters = _drive_runtime()
    recorded = obs.recorder().flight.recorded_total
    obs.disable_observability()

    assert on_wires == off_wires
    assert on_counters == off_counters
    # The run actually traced: rx + tx per forwarded packet at least.
    assert recorded >= 32


def test_sweep_render_identical_with_observability_on():
    kwargs = dict(flow_counts=(16,), packet_count=256)
    table_off = render_fastpath_sweep(fastpath_sweep(**kwargs))
    obs.enable_observability()
    table_on = render_fastpath_sweep(fastpath_sweep(**kwargs))
    obs.disable_observability()

    def stable(table: str) -> str:
        # Wall-clock columns jitter run to run with or without
        # observability; everything else (hit rates, modeled costs,
        # identity verdicts, counters) must match exactly. Wall-derived
        # cells are plain numbers (wall seconds, speedups); the slash
        # cells (busy off/on, mpps off/on) are modeled and deterministic,
        # so they stay in the comparison.
        def wall_derived(cell: str) -> bool:
            return cell.replace(".", "").isdigit()

        lines = []
        for line in table.splitlines():
            cells = line.split()
            lines.append(" ".join(c for c in cells if not wall_derived(c)))
        return "\n".join(lines)

    assert stable(table_on) == stable(table_off)


def test_fastpath_traces_hits_and_misses():
    obs.enable_observability(ring_capacity=256)
    nat = FastPathNat(VigNat(NatConfig(max_flows=128)))
    packet = make_udp_packet("10.0.0.5", "8.8.8.8", 5000, 53, device=0)
    nat.process_burst([packet.clone() for _ in range(4)], now=100)
    stages = [e.stage for e in obs.recorder().flight.last()]
    obs.disable_observability()
    assert stages.count("slow-path") == 1
    assert stages.count("fastpath-hit") == 3


def _drive_chain():
    """The reference chain, compiled, warmed until its turns fuse; returns
    (every turn's transmitted wire bytes, op counters)."""
    chain = launch_chain(default_chain_spec(fastpath="compiled", max_flows=64))
    wires = []
    try:
        replies = []
        for now in range(10, 90, 10):
            for host in (1, 2):
                out = make_udp_packet(f"10.0.0.{host}", "203.0.113.9", 1024, 2000)
                chain.inject(0, Packet.from_bytes(out.wire_bytes(), 0), now)
            for reply in replies:
                chain.inject(1, Packet.from_bytes(reply, 1), now)
            chain.main_loop_burst(now)
            sent = [(port, pkt.wire_bytes()) for port, _, pkt in chain.collect()]
            wires.append(sent)
            replies = [
                make_udp_packet(
                    "203.0.113.9", "192.0.2.1", 2000,
                    Packet.from_bytes(data, port).src_port, device=1,
                ).wire_bytes()
                for port, data in sent
                if port == 1
            ]
        return wires, chain.op_counters()
    finally:
        chain.stop()


def test_chain_outputs_identical_with_observability_on():
    off_wires, off_counters = _drive_chain()
    assert obs.recorder() is obs.NULL_RECORDER
    # Off, warm turns fuse: one cached composition per frame.
    assert off_counters["fused"] > 0
    live = obs.enable_observability(ring_capacity=4096)
    on_wires, on_counters = _drive_chain()
    obs.disable_observability()

    assert on_wires == off_wires
    assert on_counters.pop("fused") == 0  # a traced turn is staged
    off_counters.pop("fused")
    assert on_counters == off_counters
    # On, every stage hop traced into the one global ring.
    hops = [e for e in live.flight.last() if e.stage in ("rx", "tx")]
    assert {e.worker for e in hops} == {0, 1, 2}
