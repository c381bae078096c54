"""A yardstick for the machine's speed of the moment.

The seed machine is a two-vCPU guest whose speed moves by 20-40 % for
tens of seconds at a time: ten-second runs of one binary land 15-20 %
apart, wider than any bound worth gating on. So every timed stretch is
bracketed by readings of a fixed reference kernel — pure interpreter
work of the kind the data path does (struct packing, small objects, a
dict) that no change under ``src/`` can reach — and its wall time is
divided by ``reading / NOMINAL_NS``, the factor by which the machine ran
slower than nominal right then. The end-to-end rates and latencies are
therefore *at nominal machine speed*; the raw wall-clock rate and the
factor are reported beside them as ``driver.wall_pps`` and
``driver.speed_factor``. Measured on the seed machine, over 9-second
windows of one process: raw ``fwd_pps`` 9-27 % apart, calibrated 2 %.
"""

from __future__ import annotations

import statistics
import struct
import time

#: One kernel run on the seed machine's quiet stretches. Only fixes the
#: unit: a reading equal to it leaves wall time as measured.
NOMINAL_NS = 150_000.0

_RECORD = struct.Struct(">HHIq")


class _Slot:
    __slots__ = ("port", "device", "wire")

    def __init__(self, port: int, device: int, wire: bytes) -> None:
        self.port = port
        self.device = device
        self.wire = wire


def kernel(rounds: int = 300) -> int:
    """Fixed work; returns a value so nothing can be optimised away."""
    table = {}
    pack, unpack = _RECORD.pack, _RECORD.unpack
    total = 0
    for i in range(rounds):
        wire = pack(i & 0xFFFF, (i * 7) & 0xFFFF, i, i * 3)
        fields = unpack(wire)
        slot = _Slot(fields[0], fields[1], wire)
        table[fields[:2]] = slot
        total += len(slot.wire) + slot.port
    return total


def reading(runs: int = 5) -> float:
    """Median ns of one kernel run (median: a GC pause hits one run)."""
    clock = time.perf_counter_ns
    samples = []
    for _ in range(runs):
        t0 = clock()
        kernel()
        samples.append(clock() - t0)
    return statistics.median(samples)


def factor(before: float, after: float) -> float:
    """How much slower than nominal the machine ran between two readings."""
    return (before + after) / 2.0 / NOMINAL_NS
