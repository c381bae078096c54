"""Observability off must be invisible: identical outputs, no-op recorder.

The zero-cost-when-disabled contract has two halves:

- the module-level recorder defaults to the no-op recorder, so data
  paths skip every trace call after one ``active`` check per burst;
- enabling observability must not change what the data path *does* —
  only record it. A sweep's rendered table and emitted packets are
  byte-identical with the layer off and on.
"""

import pytest

from repro import obs
from repro.eval.experiments import fastpath_sweep
from repro.eval.reporting import render_fastpath_sweep
from repro.nat.config import NatConfig
from repro.nat.fastpath import FastPathNat
from repro.nat.vignat import VigNat
from repro.net.dpdk import DpdkRuntime
from repro.packets.builder import make_udp_packet


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
