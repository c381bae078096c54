"""One workload, in one fresh interpreter, through the public Runtime protocol.

``run.py`` starts this file once per measurement so every workload gets a
fresh heap and an honest resident-set reading. It prints one JSON object
as its last line of standard output.

The loop is closed, one client, one thread: the caller is the poll loop's
only source, so the next burst is offered only after the previous burst's
outputs are serialized. One turn is::

    Packet.from_bytes(frame) -> inject -> main_loop_burst -> collect -> wire_bytes

and all of it is inside the timed region; building frames and checking
outputs happen between turns, untimed.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import statistics
import sys
import time
import zlib
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

sys.path.insert(1, str(Path(__file__).resolve().parents[2] / "src"))

import ledger as spans  # noqa: E402
import speed  # noqa: E402
from metricdefs import LEDGER_SELF_TIMES  # noqa: E402
from repro.packets.headers import Packet  # noqa: E402
from traffic import Burst, Frame, Traffic  # noqa: E402
from workloads import (  # noqa: E402
    BURST,
    BY_NAME,
    LAP_BURSTS,
    MARK_SEGMENTS,
    PROBE_BATCH,
    Workload,
    launch_workload,
)

_clock = time.perf_counter_ns


# -- output checking -----------------------------------------------------------

def fingerprints(outputs: List[Frame]) -> List[int]:
    """A burst's outputs as a sorted multiset of CRC32(port, frame bytes).

    Sorted because the execution modes emit one burst's frames in
    different orders (by port inline, by worker TX order in process mode);
    which frames leave which port is the contract, not their order.
    """
    return sorted(zlib.crc32(frame, port) for port, frame in outputs)


def mismatches(expected: List[int], actual: List[int]) -> int:
    """Frames missing, extra, on the wrong port or not byte-identical."""
    if expected == actual:
        return 0
    matched = sum((Counter(expected) & Counter(actual)).values())
    return max(len(expected), len(actual)) - matched


class Checker:
    """Counts failed frames against frames offered, over all phases.

    Stable schedules replay one lap, so every timed burst must reproduce,
    frame for frame, what the same burst of the warm-up lap produced; the
    warm-up itself (and the first timed bursts) is re-driven through the
    verified slow path afterwards and compared there (``prefix``). Churn
    has no stable mapping: beyond the prefix its bursts are checked by
    output count — every offered frame is an internal frame the NAT
    forwards.
    """

    def __init__(self, stable: bool, prefix_timed: int) -> None:
        self.stable = stable
        self.prefix: List[List[int]] = []
        self.lap: Optional[List[List[int]]] = None
        self.offered = 0
        self.failed = 0
        self._prefix_left = prefix_timed

    def warmup_burst(self, burst: Burst, outputs: List[Frame]) -> None:
        self.offered += len(burst)
        self.prefix.append(fingerprints(outputs))

    def warmup_done(self) -> None:
        if self.stable:
            self.lap = self.prefix[-LAP_BURSTS:]

    def timed_burst(self, index: int, burst: Burst, outputs: List[Frame]) -> None:
        prints = fingerprints(outputs)
        self.offered += len(burst)
        if self._prefix_left:
            self._prefix_left -= 1
            self.prefix.append(prints)
        if self.lap is not None:
            self.failed += mismatches(self.lap[index % LAP_BURSTS], prints)
        else:
            self.failed += abs(len(prints) - len(burst))

    def probe(self, lap_burst: int, frame: Frame, outputs: List[Frame]) -> None:
        self.offered += 1
        ok = len(outputs) == 1
        if ok and self.lap is not None:
            port, wire = outputs[0]
            ok = zlib.crc32(wire, port) in self.lap[lap_burst]
        self.failed += not ok

    def against_oracle(self, oracle: List[List[int]]) -> None:
        """Fold in the per-frame comparison with the verified slow path."""
        for expected, actual in zip(oracle, self.prefix):
            self.failed += mismatches(expected, actual)
        if len(oracle) != len(self.prefix):
            self.failed += BURST * abs(len(oracle) - len(self.prefix))


# -- the closed loop -----------------------------------------------------------

class Loop:
    def __init__(self, runtime) -> None:
        self.runtime = runtime
        self.now_us = 0

    def turn(self, burst: Burst) -> Tuple[List[Frame], int]:
        """Offer one burst; returns its outputs and the turn's wall ns."""
        runtime = self.runtime
        now = self.now_us
        inject = runtime.inject
        # Looked up per turn: in a traced phase this is the wrapper.
        parse = Packet.from_bytes
        t0 = _clock()
        for device, frame in burst:
            inject(device, parse(frame, device), now)
        runtime.main_loop_burst(now, BURST)
        outputs = [
            (port, packet.wire_bytes()) for port, _ts, packet in runtime.collect()
        ]
        elapsed = _clock() - t0
        self.now_us = now + len(burst)  # 32 us per burst of 32
        return outputs, elapsed


def warm_up(loop: Loop, traffic: Traffic, checker: Checker) -> None:
    for burst in traffic.warmup():
        outputs, _ = loop.turn(burst)
        traffic.observe(outputs)
        checker.warmup_burst(burst, outputs)
    checker.warmup_done()


def oracle_prefix(workload: Workload, seed: int, timed_bursts: int) -> List[List[int]]:
    """Warm-up + first timed bursts again, on the verified slow path."""
    runtime = launch_workload(workload, reference=True)
    try:
        loop = Loop(runtime)
        traffic = Traffic(workload.shape, seed)
        checker = Checker(traffic.stable, timed_bursts)
        warm_up(loop, traffic, checker)
        for i, burst in enumerate(traffic.segment(timed_bursts)):
            outputs, _ = loop.turn(burst)
            checker.timed_burst(i, burst, outputs)
        return checker.prefix
    finally:
        runtime.stop()


# -- counters and memory at the fixed-work mark ---------------------------------

def _sum_counters(dicts) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for counters in dicts:
        for key, value in counters.items():
            total[key] = total.get(key, 0) + value
    return total


def read_counters(runtime, workload: Workload) -> Dict[str, int]:
    """The program's own exact counters, through public calls only."""
    if workload.chain:
        ops = _sum_counters(runtime.per_stage_counters())
        misroutes = runtime.op_counters()["misroutes"]
    else:
        ops = runtime.op_counters()
        misroutes = 0
    drops = runtime.drop_causes()
    expired = ops.get("expired", 0)
    return {
        "hits": ops.get("fastpath_hits", 0),
        "misses": ops.get("fastpath_misses", 0),
        "compiled_hits": ops.get("fastpath_compiled_hits", 0),
        "learns": ops.get("fastpath_learns", 0),
        "invalidations": ops.get("fastpath_invalidations", 0),
        "expired": expired,
        "created": runtime.flow_count() + expired,
        "rx_dropped": drops.get("rx_ring_full", 0) + drops.get("chain_rx_ring_full", 0),
        "misroutes": misroutes,
        "high_water": drops.get("pool_high_water", 0),
    }


def _hwm_kib(pid: object) -> int:
    """Peak resident set (VmHWM, the counter behind ru_maxrss) of a process."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for {pid}")


def peak_rss_mib() -> float:
    """This interpreter plus its live workers."""
    kib = _hwm_kib("self")
    for worker in multiprocessing.active_children():
        kib += _hwm_kib(worker.pid)
    return kib / 1024.0


def layer_counters(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, float]:
    delta = {key: after[key] - before[key] for key in after}
    lookups = delta["hits"] + delta["misses"]
    return {
        "nat.fastpath_hit_ratio": delta["hits"] / lookups if lookups else 0.0,
        "nat.compiled_hit_ratio": delta["compiled_hits"] / lookups if lookups else 0.0,
        "nat.fastpath_learns": delta["learns"],
        "nat.fastpath_invalidations": delta["invalidations"],
        "nat.flows_created": delta["created"],
        "nat.flows_expired": delta["expired"],
        "nic.rx_dropped": delta["rx_dropped"],
        "chain.misroutes": delta["misroutes"],
        "mbuf.high_water": after["high_water"],
    }


# -- the phases -----------------------------------------------------------------

def _quartile_spread(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _p99(values: List[int]) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


class Stream:
    """Phases 2 and 3, interleaved: timed segments and single-frame probes."""

    def __init__(self, loop, traffic, checker, workload) -> None:
        self.loop, self.traffic, self.checker = loop, traffic, checker
        self.workload = workload
        #: Wall ns of every untraced burst-of-32 turn and single-frame turn.
        self.turn_ns: List[int] = []
        self.probe_ns: List[int] = []

    def segment(self, ledger=None) -> float:
        """Offer one segment; returns wall ns per offered frame."""
        loop, checker = self.loop, self.checker
        total_ns = 0
        frames = 0
        # Built before the first turn, so no generator work sits between turns.
        for i, burst in enumerate(self.traffic.segment(self.workload.segment_bursts)):
            outputs, elapsed = loop.turn(burst)
            if ledger:
                ledger.close_root(elapsed)
            else:
                self.turn_ns.append(elapsed)
            total_ns += elapsed
            frames += len(burst)
            checker.timed_burst(i, burst, outputs)
        return total_ns / frames

    def probes(self) -> float:
        """A batch of single-frame turns continuing the stream; median wall ns.

        Burst-32 throughput amortises per-turn fixed cost away; this is
        where it shows (the paper's Fig. 12 probe latency)."""
        samples = []
        for lap_burst, frame in self.traffic.probe_frames(PROBE_BATCH):
            outputs, elapsed = self.loop.turn([frame])
            samples.append(elapsed)
            self.checker.probe(lap_burst, frame, outputs)
        self.probe_ns += samples
        return statistics.median(samples)


def untraced_phase(stream: Stream, seconds: float, on_mark) -> Tuple[Dict, Dict]:
    """Cycles of segment + probe batch, each bracketed by speed readings."""
    wall: List[float] = []
    factors: List[float] = []
    probe_p50: List[float] = []
    deadline = time.perf_counter() + seconds
    while len(wall) < MARK_SEGMENTS or time.perf_counter() < deadline:
        r0 = speed.reading()
        wall.append(stream.segment())
        r1 = speed.reading()
        batch_p50 = stream.probes()
        r2 = speed.reading()
        factors.append(speed.factor(r0, r1))
        probe_p50.append(batch_p50 / speed.factor(r1, r2))
        if len(wall) == MARK_SEGMENTS:
            on_mark()
    rates = [1e9 * f / ns for ns, f in zip(wall, factors)]
    # Interference only ever slows a segment or a batch down, so the
    # quartile on the good side moves less from run to run than the
    # median (seed machine, ten seeds: 2-4 % against 3-8 %).
    end_to_end = {
        "fwd_pps": statistics.quantiles(rates, n=4)[2],
        "probe_p50_us": statistics.quantiles(probe_p50, n=4)[0] / 1e3,
        "segments": len(rates),
        "probes": len(stream.probe_ns),
    }
    driver = {
        "driver.segment_iqr": _quartile_spread(rates),
        "driver.wall_pps": statistics.quantiles([1e9 / ns for ns in wall], n=4)[2],
        "driver.speed_factor": statistics.median(factors),
    }
    return end_to_end, driver


def traced_phase(stream: Stream, runtime, seconds: float) -> Dict[str, float]:
    """Run segments with the wrappers installed; return the layer ledger.

    Each cycle runs an untraced, a traced and a doubly traced segment, so
    the ledger, the untraced time it must reconcile with and the timer
    cost it is corrected by all see the same moments of a shared machine;
    overhead and reconcile error are medians over the cycles. The doubly
    traced segment is booked in ``costs`` only: its outer layer's self
    time per span is what one span costs on this workload (see ledger.py).
    """
    table = spans.targets()
    buckets = sorted({bucket for _, _, bucket, _ in table})
    ledger = spans.Ledger(buckets)
    costs = spans.Ledger(buckets + [bucket + spans.COST for bucket in buckets])
    outer_table = [(cls, attr, bucket + spans.COST, None) for cls, attr, bucket, _ in table]
    transport = getattr(runtime, "transport_counters", None)
    transport_before = transport()["total"] if transport else {}
    #: per cycle: untraced ns/frame, traced ns/frame, spans/frame, ns/span
    cycles: List[Tuple[float, float, float, float]] = []
    factors: List[float] = []
    segment_frames = stream.workload.segment_bursts * BURST
    deadline = time.perf_counter() + seconds
    patches: List = []
    try:
        while not cycles or time.perf_counter() < deadline:
            # Alternate which goes first, so a workload whose state grows
            # as it runs (nat-churn's cache) biases neither side.
            plain_first = len(cycles) % 2 == 0
            if plain_first:
                plain = stream.segment()
            spans_before = ledger.total_spans()
            speed_before = speed.reading()
            patches += spans.install(ledger, table)
            traced = stream.segment(ledger)
            spans.uninstall(patches)
            factors.append(speed.factor(speed_before, speed.reading()))
            cost_ns, cost_spans = costs.cost_totals()
            patches += spans.install(costs, table)
            patches += spans.install(costs, outer_table)
            stream.segment(costs)
            spans.uninstall(patches)
            if not plain_first:
                plain = stream.segment()
            cost_ns_after, cost_spans_after = costs.cost_totals()
            cycles.append((
                plain,
                traced,
                (ledger.total_spans() - spans_before) / segment_frames,
                (cost_ns_after - cost_ns) / (cost_spans_after - cost_spans),
            ))
    finally:
        spans.uninstall(patches)
    transport_after = transport()["total"] if transport else {}

    frames = len(cycles) * segment_frames
    corrected = ledger.corrected_ns(costs.span_costs(), spans.calibrate_inner())
    # Like the end-to-end metrics, layer times are at nominal machine speed.
    slowdown = statistics.median(factors)
    layer = {
        name: corrected.get(name, 0.0) / frames / slowdown for name in LEDGER_SELF_TIMES
    }

    def per_frame(values, bucket):
        return values[ledger.index[bucket]] / frames

    layer["packets.parse_calls"] = per_frame(ledger.spans, "packets.parse_ns")
    layer["packets.serialize_calls"] = per_frame(ledger.spans, "packets.serialize_ns")
    layer["libvig.ops"] = per_frame(ledger.spans, "libvig.ops_ns")
    layer["shmring.bytes_per_frame"] = per_frame(
        ledger.sizes, "shmring.push_ns"
    ) + per_frame(ledger.sizes, "shmring.pop_ns")
    for key in ("encode_ns", "copy_ns", "ring_wait_ns"):
        moved = transport_after.get(key, 0) - transport_before.get(key, 0)
        layer[f"procrun.{key}"] = moved / (3 * frames) / slowdown
    layer["trace.timer_ns"] = statistics.median(cost for _, _, _, cost in cycles)
    layer["trace.overhead_ratio"] = statistics.median(s / u for u, s, _, _ in cycles)
    # Per segment, the self times sum to the segment's wall time, so their
    # corrected sum is that wall time minus one timer cost per span.
    layer["ledger.reconcile_error"] = abs(
        statistics.median((s - cost * n) / u for u, s, n, cost in cycles) - 1.0
    )
    layer["ledger.unattributed_share"] = layer[spans.ROOT] / sum(
        layer[name] for name in LEDGER_SELF_TIMES
    )
    return layer


def control_plane_costs(runtime, now_us: int) -> Dict[str, float]:
    t0 = _clock()
    runtime.snapshot_metrics()
    t1 = _clock()
    checkpoint = runtime.checkpoint(now_us)
    t2 = _clock()
    return {
        "obs.snapshot_ms": (t1 - t0) / 1e6,
        "resil.checkpoint_ms": (t2 - t1) / 1e6,
        "resil.checkpoint_bytes": len(checkpoint.to_bytes()),
    }


def _ring_segments() -> set:
    """/dev/shm ring segments this interpreter created and has not unlinked."""
    try:
        names = os.listdir("/dev/shm")
    except FileNotFoundError:
        return set()
    return {name for name in names if name.startswith(f"repro-ring-{os.getpid()}-")}


def measure(stream: Stream, runtime, seconds: float, trace: bool, result: Dict) -> None:
    """The timed stream on a warm runtime, then (``trace``) the traced cycles."""
    workload = stream.workload
    before = read_counters(runtime, workload)
    gen2_before = gc.get_stats()[2]["collections"]
    mark: Dict[str, float] = {}

    def at_mark() -> None:
        mark.update(layer_counters(before, read_counters(runtime, workload)))
        result["peak_rss_mib"] = peak_rss_mib()

    started = time.perf_counter()
    # ``seconds`` covers the whole run: a tenth is left for the oracle
    # re-drive and teardown; a traced run spends a third on the untraced
    # segments its counters and p99s come from and the rest on traced cycles.
    end_to_end, driver = untraced_phase(stream, seconds * (0.35 if trace else 0.9), at_mark)
    result.update(end_to_end)
    if not trace:
        return
    left = seconds * 0.95 - (time.perf_counter() - started)
    layer = traced_phase(stream, runtime, left)
    layer.update(control_plane_costs(runtime, stream.loop.now_us))
    layer.update(mark)
    layer.update(driver)
    layer.update({
        "driver.turn_p99_us": _p99(stream.turn_ns) / 1e3,
        "driver.probe_p99_us": _p99(stream.probe_ns) / 1e3,
        "app.launch_s": result["launch_s"],
        "py.gc_gen2": gc.get_stats()[2]["collections"] - gen2_before,
    })
    result["layer"] = layer


def run(workload: Workload, seed: int, seconds: float, trace: bool, setup_only: bool) -> Dict:
    traffic = Traffic(workload.shape, seed)
    prefix_timed = LAP_BURSTS if traffic.stable else workload.segment_bursts
    checker = Checker(traffic.stable, prefix_timed)
    result: Dict = {"workload": workload.name, "seed": seed}
    speed_before = speed.reading()
    t0 = time.perf_counter()
    runtime = launch_workload(workload)
    try:
        result["launch_s"] = time.perf_counter() - t0
        loop = Loop(runtime)
        warm_up(loop, traffic, checker)
        wall_s = time.perf_counter() - t0
        result["setup_s"] = wall_s / speed.factor(speed_before, speed.reading())
        if not setup_only:
            measure(Stream(loop, traffic, checker, workload), runtime, seconds, trace, result)
    finally:
        runtime.stop()
    # A crash in one workload must not leak workers or rings into the next.
    workers = multiprocessing.active_children()
    rings = _ring_segments()
    if workers or rings:
        raise RuntimeError(f"teardown left workers {workers} / rings {rings}")
    # Tracing is a guest: the public functions are the program's own again.
    still_traced = spans.traced_targets()
    if still_traced:
        raise RuntimeError(f"wrappers left installed: {still_traced}")
    if not setup_only:
        checker.against_oracle(oracle_prefix(workload, seed, prefix_timed))
        result.update(attempted=checker.offered, failed=checker.failed)
    return result


def pin_to_one_cpu() -> Optional[int]:
    """Keep this interpreter and the workers it forks on one CPU.

    The loop is closed — the caller waits while the worker works — so a
    second CPU buys no overlap, only cross-CPU wake-ups, and on a shared
    two-vCPU guest those are the noisiest thing a turn contains (nat-proc
    runs 15 % apart unpinned, 2 % pinned). The process tax measured is
    therefore the software path's, not the scheduler's.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment() -> Dict[str, object]:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        # ProcessShardedRuntime pins its own context; recorded, not chosen.
        "start_method": "fork",
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workload = BY_NAME[args.workload]
    pinned_cpu = pin_to_one_cpu()
    result = run(workload, args.seed, args.seconds, bool(args.trace), args.setup_only)
    result["env"] = dict(environment(), pinned_cpu=pinned_cpu)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
