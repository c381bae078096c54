"""The process-per-shard runtime's own contracts (repro.net.procrun).

Byte-identity with the oracle is proven by the differential suite
(``tests/integration/test_proc_differential.py``); this file covers the
machinery around it: wire framing, the crash surface (a dead worker
must raise a typed :class:`WorkerCrashed`, never hang a pipe read),
worker-side errors crossing the pipe as exceptions, clean shutdown, and
the coordinated checkpoint fence.
"""

import contextlib
import glob
import os
import signal
import time
from unittest import mock

import pytest

from repro.nat.config import NatConfig
from repro.nat.vignat import VigNat
from repro.net import procrun
from repro.net.mbuf import (
    SLOT_HEADER,
    SlotRecordError,
    pack_slot_record,
    unpack_slot_records,
)
from repro.net.app import PROCESS, RuntimeSpec, launch
from repro.net.procrun import TRANSPORTS, WorkerCrashed
from repro.packets.builder import make_udp_packet
from repro.resil.faults import FaultPlan


def config(max_flows=64):
    return NatConfig(
        max_flows=max_flows, expiration_time=60_000_000, start_port=1000
    )


def fleet(workers, nf_factory=VigNat, **spec):
    """A process fleet launched from its spec."""
    return launch(
        RuntimeSpec(
            nf_factory=nf_factory,
            config=config(),
            workers=workers,
            execution=PROCESS,
            **spec,
        )
    )


def outbound(i, device=0):
    return make_udp_packet(
        0x0A000001 + (i % 200), "8.8.8.8", 1_024 + i, 53, device=device
    )


def drive(runtime, count, now=1_000, burst=8):
    """Inject ``count`` outbound packets, turning every ``burst``."""
    pending = 0
    for i in range(count):
        runtime.inject(0, outbound(i), now)
        now += 5
        pending += 1
        if pending >= burst:
            runtime.main_loop_burst(now, burst)
            pending = 0
    runtime.main_loop_burst(now + 1, burst)
    return now


class TestFraming:
    def test_record_roundtrip(self):
        wire = outbound(3).wire_bytes()
        blob = pack_slot_record(1, 0, 123_456, wire)
        assert unpack_slot_records(blob) == [(1, 0, 123_456, wire)]

    def test_concatenated_records_keep_order(self):
        wires = [outbound(i).wire_bytes() for i in range(5)]
        blob = b"".join(
            pack_slot_record(i % 2, 1, 10 + i, w) for i, w in enumerate(wires)
        )
        records = unpack_slot_records(blob)
        assert [w for _, _, _, w in records] == wires
        assert [p for p, _, _, _ in records] == [0, 1, 0, 1, 0]

    def test_empty_blob(self):
        assert unpack_slot_records(b"") == []

    def test_truncated_record_is_refused_not_shortened(self):
        """A span cut anywhere inside its last record — header or wire
        bytes — is an error, never a silently short frame."""
        wire = outbound(3).wire_bytes()
        blob = pack_slot_record(0, 0, 1, wire) + pack_slot_record(1, 0, 2, wire)
        one = len(blob) // 2
        for cut in range(one + 1, len(blob)):
            with pytest.raises(SlotRecordError):
                unpack_slot_records(blob[:cut])
        assert len(unpack_slot_records(blob[:one])) == 1

    def test_over_long_record_is_refused(self):
        wire = outbound(3).wire_bytes()
        blob = SLOT_HEADER.pack(0, 0, 1, len(wire) + 1) + wire
        with pytest.raises(SlotRecordError, match="announces"):
            unpack_slot_records(blob)
        # The same check guards a pipe message's records (offset form).
        with pytest.raises(SlotRecordError):
            unpack_slot_records(b"I" + blob, 1)


class TestDataPath:
    def test_translates_and_collects(self):
        with fleet(2) as runtime:
            drive(runtime, 12)
            out = runtime.collect()
            assert len(out) == 12
            ext_ip = runtime.config.external_ip
            for _, _, packet in out:
                assert packet.ipv4.src_ip == ext_ip
            assert runtime.op_counters()
            assert runtime.flow_count() == 12

    def test_steering_spreads_flows(self):
        with fleet(4) as runtime:
            drive(runtime, 32)
            assert sum(runtime.steered) == 32
            assert sum(1 for q in runtime.steered if q > 0) >= 2

    def test_snapshot_carries_worker_labels(self):
        with fleet(2) as runtime:
            drive(runtime, 8)
            snapshot = runtime.snapshot_metrics()
            occupancy = next(
                m
                for m in snapshot["metrics"]
                if m["name"] == "flow_table_occupancy"
            )
            workers = {
                s["labels"].get("worker") for s in occupancy["samples"]
            }
            assert workers == {"0", "1"}

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="need at least one worker"):
            fleet(0)
        with pytest.raises(ValueError, match="turn timeout must be positive"):
            fleet(1, turn_timeout_s=0)
        with fleet(1) as runtime:
            with pytest.raises(ValueError):
                runtime.main_loop_burst(1_000, 0)


class TestCrashSurface:
    def test_fault_plan_kill_raises_typed_error(self):
        """The kill fault terminates the real OS process, and the turn
        reports it as WorkerCrashed with the shard id — never a hang."""
        plan = FaultPlan().kill_worker(1, at_us=2_000)
        runtime = fleet(2, fault_plan=plan)
        try:
            drive(runtime, 8, now=1_000, burst=8)  # before the window
            for i in range(8, 16):
                runtime.inject(0, outbound(i), 2_000)
            with pytest.raises(WorkerCrashed) as exc_info:
                runtime.main_loop_burst(2_500, 8)
            crash = exc_info.value
            assert crash.shard == 1
            assert crash.reason == "killed by fault plan"
            assert crash.last_acked_seq > 0
            assert not runtime._procs[1].is_alive()
            # The survivor is still serving.
            assert runtime._procs[0].is_alive()
        finally:
            runtime.stop()

    def test_killed_process_surfaces_not_hangs(self):
        """A worker dying outside any fault plan (OOM kill, crash) is
        detected on the next turn within the timeout."""
        runtime = fleet(2, turn_timeout_s=5.0)
        try:
            drive(runtime, 8)
            os.kill(runtime._procs[0].pid, signal.SIGKILL)
            runtime._procs[0].join(timeout=5.0)
            with pytest.raises(WorkerCrashed) as exc_info:
                for i in range(8, 24):
                    runtime.inject(0, outbound(i), 3_000)
                runtime.main_loop_burst(3_100, 8)
                runtime.main_loop_burst(3_200, 8)
            assert exc_info.value.shard == 0
            assert "worker 0" in str(exc_info.value)
        finally:
            runtime.stop()

    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("call", ["main_loop_burst", "op_counters"])
    def test_an_external_sigkill_is_named(self, transport, call):
        """A worker killed from outside is reported with the pipe error
        the parent hit and the signal that ended the process."""
        runtime = fleet(1, transport=transport, turn_timeout_s=5.0)
        try:
            drive(runtime, 8)
            os.kill(runtime._procs[0].pid, signal.SIGKILL)
            runtime._procs[0].join(timeout=5.0)
            for i in range(8):
                runtime.inject(0, outbound(i), 3_000)
            wait = {
                "main_loop_burst": lambda: runtime.main_loop_burst(3_100, 8),
                "op_counters": runtime.op_counters,
            }[call]
            with pytest.raises(WorkerCrashed) as exc_info:
                wait()
            reason = exc_info.value.reason
            assert reason.startswith("pipe ")
            assert reason.endswith("; process killed by signal 9 (SIGKILL)")
        finally:
            runtime.stop()

    def test_requests_to_dead_worker_raise(self):
        plan = FaultPlan().kill_worker(0, at_us=1_500)
        runtime = fleet(2, fault_plan=plan)
        try:
            runtime.inject(0, outbound(0), 1_600)
            with pytest.raises(WorkerCrashed):
                runtime.main_loop_burst(1_600, 8)
            with pytest.raises(WorkerCrashed):
                runtime.op_counters()
            with pytest.raises(WorkerCrashed):
                runtime.snapshot_metrics()
        finally:
            runtime.stop()

    def test_corrupt_tx_span_surfaces_as_worker_crashed(self):
        """A TX span that ends inside a record means the ring's writer
        cannot be trusted: the turn reports the shard as crashed."""
        runtime = fleet(1)
        try:
            drive(runtime, 8)
            runtime.collect()
            record = pack_slot_record(1, 1, 2_000, outbound(0).wire_bytes())
            # The worker is idle between turns, so the parent can stand
            # in for it as the ring's one producer.
            assert runtime._out_rings[0].try_push_burst(record[:-3])
            with pytest.raises(WorkerCrashed) as exc_info:
                runtime.main_loop_burst(3_000, 8)
            assert exc_info.value.shard == 0
            assert "corrupt TX span" in exc_info.value.reason
            assert runtime.collect() == []
        finally:
            runtime.stop()

    def test_kill_counts_lost_batch(self):
        """Packets buffered for a worker killed before its turn are
        accounted as fault_kill_lost, like the oracle's ledger."""
        plan = FaultPlan().kill_worker(1, at_us=1_000)
        runtime = fleet(2, fault_plan=plan)
        try:
            pending_for_1 = 0
            for i in range(16):
                packet = outbound(i)
                if runtime.worker_for(packet) == 1:
                    pending_for_1 += 1
                runtime.inject(0, packet, 1_000)
            assert pending_for_1 > 0
            with pytest.raises(WorkerCrashed):
                runtime.main_loop_burst(1_100, 16)
            # drop_causes() would query the dead worker (and raise the
            # typed crash); the parent-side ledger has the count.
            assert runtime.fault_kill_lost == pending_for_1
        finally:
            runtime.stop()


BOUND_S = 0.5


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestEveryParentWaitIsBounded:
    """A worker that stops answering without dying (SIGSTOP: its pipe
    stays open, so no hang-up ever arrives) costs the parent one
    ``turn_timeout_s`` — waiting on its reply, or pushing into its full
    inject ring — then surfaces as ``WorkerCrashed`` — or, under
    ``supervise=True``, is rebuilt by the turn."""

    @contextlib.contextmanager
    def stopped_worker(
        self,
        transport,
        supervise=False,
        workers=2,
        frames=8,
        ring_slots=procrun.RING_SLOTS,
    ):
        """The fleet's last worker SIGSTOPped, ``frames`` injected since;
        it was launched with rings of ``ring_slots`` slots."""
        rings = f"/dev/shm/repro-ring-{os.getpid()}-*"
        before = set(glob.glob(rings))
        with mock.patch.object(procrun, "RING_SLOTS", ring_slots):
            runtime = fleet(
                workers,
                transport=transport,
                turn_timeout_s=BOUND_S,
                supervise=supervise,
            )
        stopped = runtime._procs[-1]
        try:
            drive(runtime, 8)
            os.kill(stopped.pid, signal.SIGSTOP)
            for i in range(8, 8 + frames):
                runtime.inject(0, outbound(i), 2_000)
            yield runtime
        finally:
            if stopped.is_alive():  # not reaped yet, so the pid is ours
                os.kill(stopped.pid, signal.SIGKILL)
            runtime.stop()
        assert set(glob.glob(rings)) <= before

    @staticmethod
    def within_bound(call):
        started = time.monotonic()
        try:
            return call()
        finally:
            assert time.monotonic() - started < 2 * BOUND_S

    @pytest.mark.parametrize("call", ["main_loop_burst", "op_counters"])
    def test_a_silent_worker_raises_within_the_bound(self, transport, call):
        with self.stopped_worker(transport) as runtime:
            wait = {
                "main_loop_burst": lambda: runtime.main_loop_burst(2_100, 8),
                "op_counters": runtime.op_counters,
            }[call]
            with pytest.raises(WorkerCrashed) as exc_info:
                self.within_bound(wait)
            assert exc_info.value.shard == 1

    @pytest.mark.parametrize("call", ["main_loop_burst", "op_counters"])
    def test_a_silent_worker_is_named_by_the_bound(self, transport, call):
        with self.stopped_worker(transport) as runtime:
            wait = {
                "main_loop_burst": lambda: runtime.main_loop_burst(2_100, 8),
                "op_counters": runtime.op_counters,
            }[call]
            with pytest.raises(WorkerCrashed) as exc_info:
                wait()
            assert exc_info.value.reason == "no reply within turn_timeout_s=0.5s"

    def test_a_supervised_silent_worker_is_rebuilt(self, transport):
        with self.stopped_worker(transport, supervise=True) as runtime:
            stopped = runtime._procs[1]
            self.within_bound(lambda: runtime.main_loop_burst(2_100, 8))
            (report,) = runtime.reports
            assert report.worker == 1
            assert runtime._procs[1] is not stopped
            assert not stopped.is_alive()
            # The fleet serves on, both workers answering.
            drive(runtime, 8, now=3_000)
            assert len(runtime.per_worker_counters()) == 2

    def test_a_supervised_request_raises_then_the_turn_rebuilds(self, transport):
        with self.stopped_worker(transport, supervise=True) as runtime:
            with pytest.raises(WorkerCrashed):
                self.within_bound(runtime.op_counters)
            self.within_bound(lambda: runtime.main_loop_burst(2_100, 8))
            assert [r.worker for r in runtime.reports] == [1]

    # The parent's push into a stopped worker's full inject ring: 64
    # frames behind an 8-slot ring (the pipe transport has no ring).
    FULL_RING = dict(workers=1, frames=64, ring_slots=8)

    def test_a_full_inject_ring_raises_within_the_bound(self, transport):
        if transport != "shm":
            pytest.skip("only the shm transport has an inject ring")
        with self.stopped_worker(transport, **self.FULL_RING) as runtime:
            with pytest.raises(WorkerCrashed) as exc_info:
                self.within_bound(lambda: runtime.main_loop_burst(2_100, 8))
            assert exc_info.value.shard == 0
            assert "inject ring full" in exc_info.value.reason

    def test_a_supervised_full_inject_ring_is_rebuilt(self, transport):
        if transport != "shm":
            pytest.skip("only the shm transport has an inject ring")
        with self.stopped_worker(
            transport, supervise=True, **self.FULL_RING
        ) as runtime:
            stopped = runtime._procs[0]
            self.within_bound(lambda: runtime.main_loop_burst(2_100, 8))
            (report,) = runtime.reports
            assert report.packets_lost_queue == 64
            assert runtime._procs[0] is not stopped
            # Rebuilt at its fence, the construction's empty state.
            drive(runtime, 8, now=3_000)
            assert runtime.flow_count() == 8


class TestWorkerErrors:
    def test_worker_exception_reraises_in_parent(self):
        """A worker-side failure crosses the pipe as an exception, so
        the parent sees the real error instead of a protocol stall."""
        from repro.resil.checkpoint import CheckpointError

        with fleet(1) as runtime:
            drive(runtime, 4)
            checkpoint_set = runtime.checkpoint(now_us=5_000)
            frame = checkpoint_set.checkpoints[0]
            corrupted = bytearray(frame.to_bytes())
            corrupted[-1] ^= 0xFF
            with pytest.raises(CheckpointError):
                runtime._request(
                    0,
                    procrun.OP_RESTORE + bytes(corrupted),
                    procrun.RE_RESTORED,
                )
            # The worker survives its own exception and keeps serving.
            drive(runtime, 4)
            assert runtime.flow_count() == 4

    def test_truncated_inject_record_reraises_in_parent(self):
        """A worker handed records that end mid-frame refuses the whole
        message with the typed error, in answer to the next command,
        instead of parsing a short frame."""
        record = pack_slot_record(0, 0, 1_000, outbound(0).wire_bytes())
        with fleet(1, transport="pipe") as runtime:
            runtime._conns[0].send_bytes(procrun.OP_INJECT + record[:-3])
            with pytest.raises(RuntimeError, match="SlotRecordError") as exc_info:
                runtime.op_counters()
            assert not isinstance(exc_info.value, WorkerCrashed)
            # Nothing of the message was injected; the worker serves on.
            drive(runtime, 4)
            assert runtime.flow_count() == 4

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_a_failed_turn_leaves_no_reply_unread(self, transport):
        """Worker 0 answers a turn with an error while worker 1 acks it:
        the turn raises worker 0's error, and the next turn and request
        each read their own replies, not an ACK the failed turn left."""
        cut = pack_slot_record(0, 0, 1_000, outbound(0).wire_bytes())[:-3]
        with fleet(2, transport=transport) as runtime:
            now = drive(runtime, 8)
            if transport == "shm":
                assert runtime._inject_rings[0].try_push_burst(cut)
            else:
                runtime._conns[0].send_bytes(procrun.OP_INJECT + cut)
            with pytest.raises(RuntimeError, match="SlotRecordError") as exc_info:
                runtime.main_loop_burst(now + 10, 8)
            assert not isinstance(exc_info.value, WorkerCrashed)
            assert sum(map(len, runtime.collect_raw_by_worker())) == 8
            drive(runtime, 16, now=now + 20)
            tx = runtime.collect_raw_by_worker()
            assert all(tx), "both workers serve the next turns"
            assert sum(map(len, tx)) == 16
            assert runtime.op_counters()["forwarded"] == 24
            assert runtime.flow_count() == 16

    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize(
        ("stray", "cause"),
        [
            (procrun.OP_COUNTERS, "reply b'n', expected b'a'"),
            (procrun.OP_TURN + procrun._TURN.pack(99, 0, 8, 0), "out-of-order ack"),
        ],
    )
    def test_a_reply_out_of_protocol_is_a_named_crash(self, transport, stray, cause):
        """A reply that is not the one the parent waits for — the wrong
        opcode, or the ACK of another turn — kills the worker with the
        cause named, with or without ``-O``."""
        with fleet(2, transport=transport) as runtime:
            now = drive(runtime, 8)
            runtime._conns[1].send_bytes(stray)
            with pytest.raises(WorkerCrashed, match=cause) as exc_info:
                runtime.main_loop_burst(now + 10, 8)
            assert exc_info.value.shard == 1

    def test_a_truncated_inject_span_is_answered_not_fatal(self):
        """The shm twin of the case above: a span in the inject ring that
        ends mid-record is refused with the typed error, in answer to the
        next command, and the worker serves on."""
        record = pack_slot_record(0, 0, 1_000, outbound(0).wire_bytes())
        with fleet(1, transport="shm") as runtime:
            # The worker is idle, so the parent is still the ring's one
            # producer; no command follows the span for a while.
            assert runtime._inject_rings[0].try_push_burst(record[:-3])
            time.sleep(0.05)
            with pytest.raises(RuntimeError, match="SlotRecordError") as exc_info:
                runtime.op_counters()
            assert not isinstance(exc_info.value, WorkerCrashed)
            drive(runtime, 4)
            assert runtime.flow_count() == 4

    @pytest.mark.parametrize("transport", ["shm", "pipe"])
    def test_a_shard_that_cannot_be_built_says_why(self, transport, capfd):
        """The factory runs in the worker; when it raises, the first
        request is answered with the real error (type and message), not
        a bare ``WorkerCrashed`` over a traceback on the child's stderr."""

        def unbuildable(_config):
            raise ValueError("no table for this shard")

        with fleet(1, unbuildable, transport=transport) as runtime:
            runtime.inject(0, outbound(0), 1_000)  # an ``I`` expects no reply
            with pytest.raises(
                RuntimeError, match=r"\[ValueError\] worker 0: no table for this shard"
            ):
                runtime.main_loop_burst(1_005, 8)
        assert "Traceback" not in capfd.readouterr().err


class TestShutdown:
    def test_stop_is_idempotent_and_joins(self):
        runtime = fleet(2)
        drive(runtime, 4)
        procs = list(runtime._procs)
        runtime.stop()
        runtime.stop()
        assert all(not p.is_alive() for p in procs)
        with pytest.raises(RuntimeError):
            runtime.main_loop_burst(1_000, 8)

    def test_stop_is_prompt_with_a_corrupt_inject_span_pending(self):
        """``X`` is answered without draining the inject ring: its spans
        die with the worker, so a bad one cannot keep the worker up."""
        record = pack_slot_record(0, 0, 1_000, outbound(0).wire_bytes())
        runtime = fleet(1)
        assert runtime._inject_rings[0].try_push_burst(record[:-3])
        started = time.monotonic()
        runtime.stop()
        assert time.monotonic() - started < 1.0
        assert runtime._procs[0].exitcode == 0

    def test_stop_after_crash_is_safe(self):
        plan = FaultPlan().kill_worker(0, at_us=1_000)
        runtime = fleet(2, fault_plan=plan)
        runtime.inject(0, outbound(0), 1_000)
        with pytest.raises(WorkerCrashed):
            runtime.main_loop_burst(1_000, 8)
        runtime.stop()
        assert all(not p.is_alive() for p in runtime._procs)


class TestCoordinatedCheckpoint:
    def test_checkpoint_set_shape(self):
        with fleet(2) as runtime:
            drive(runtime, 10)
            checkpoint_set = runtime.checkpoint(now_us=9_000)
            assert checkpoint_set.workers == 2
            assert checkpoint_set.taken_at_us == 9_000
            payload = checkpoint_set.to_bytes()
            from repro.resil.checkpoint import CheckpointSet

            assert CheckpointSet.from_bytes(payload).workers == 2

    def test_restore_into_fresh_runtime(self):
        """The fence: state checkpointed from one runtime restores into
        a brand-new process fleet, which then serves the return path."""
        with fleet(2) as first:
            drive(first, 10)
            flows_before = first.flow_count()
            replies = []
            ext_ip = first.config.external_ip
            for _, _, packet in first.collect():
                replies.append(
                    make_udp_packet(
                        "8.8.8.8",
                        ext_ip,
                        packet.l4.dst_port,
                        packet.l4.src_port,
                        device=1,
                    )
                )
            checkpoint_set = first.checkpoint(now_us=9_000)

        with fleet(2) as second:
            second.restore(checkpoint_set)
            assert second.flow_count() == flows_before
            now = 10_000
            for reply in replies:
                second.inject(1, reply, now)
                now += 5
            second.main_loop_burst(now, 32)
            delivered = second.collect()
            assert len(delivered) == len(replies)
            for _, _, packet in delivered:
                assert packet.device == 0  # back on the internal side

    def test_restore_rejects_width_mismatch(self):
        from repro.resil.checkpoint import CheckpointError

        with fleet(2) as runtime:
            drive(runtime, 4)
            checkpoint_set = runtime.checkpoint(now_us=1_000)
        with fleet(3) as other:
            with pytest.raises(CheckpointError):
                other.restore(checkpoint_set)


class TestTimedTurn:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_every_pass_repeats_the_first(self, transport, workers):
        """What the procs sweep's best-of-N relies on: replaying one
        schedule through the real turn processes every frame on every
        pass, and each later pass transmits the first pass's bytes,
        worker by worker — so the passes time the same work."""
        from repro.eval.experiments import arrivals
        from repro.net import app
        from repro.net.moongen import ConstantRateFlows

        schedule = arrivals(ConstantRateFlows(32, 1_000_000.0, 200, burst=16).events())
        with fleet(workers, transport=transport) as runtime:
            passes = []
            for _ in range(3):
                assert app.drive(runtime, schedule, 16) == len(schedule)
                passes.append(runtime.collect_raw_by_worker())
            assert sum(map(len, passes[0])) == len(schedule)
            assert passes[1] == passes[0]
            assert passes[2] == passes[0]
            assert runtime.flow_count() == 32
