"""Process-per-shard runtime: real multi-core scale-out for the NAT.

:class:`~repro.net.dpdk.ShardedRuntime` round-robins its workers inside
one Python thread — deterministic, but "4 workers" never buys wall-clock
time. :class:`ProcessShardedRuntime` is the same
:class:`~repro.net.dpdk.SteeringFront` over the same unit — one
:class:`~repro.net.dpdk.Shard` per worker — but each shard lives in its
own OS process, so shards execute concurrently on real cores. Every
control-plane opcode below is one call on that shard (``T`` is
``main_loop_burst``, ``N`` ``counters``, ``S`` ``register_metrics``,
``K`` ``checkpoint_frame``, ``R`` ``restore_frame``); the parent owns
only steering.

Two interchangeable payload transports move packets across the
parent/worker boundary (``RuntimeSpec(transport=...)``):

- ``pipe`` — length-prefixed mbuf-shaped frames over the control pipe
  itself, batched per burst. Simple, but every packet is serialized
  through two kernel copies per direction.
- ``shm`` (the default) — per-worker single-producer/single-consumer
  ring buffers over ``multiprocessing.shared_memory``
  (:class:`~repro.net.shmring.ShmRing`): one inject ring parent→worker,
  one TX ring worker→parent. A whole burst lands in the ring with one
  slice assignment; the pipe carries *control only*. A producer that
  finds its ring full asks the consumer to empty it (``D``, answered
  ``d``) and pushes again.

In both transports the pipe stays the control plane (turn barriers,
snapshots, checkpoints, crash detection), so the FIFO checkpoint fence
and the typed :class:`WorkerCrashed` semantics are transport-invariant.
Each pipe message is the fence and the doorbell for every ring span
written before it (a pipe write is a full memory barrier): a worker
drains its inject ring before it handles any command but ``X``, and
the parent drains a worker's TX ring when it reads that worker's ``a``
or ``D``. No side reads a ring on a timer.

The deterministic runtime stays the *verification oracle*: because a
worker process runs the identical per-shard data path on the identical
steered sub-schedule, its TX stream is byte-for-byte what the oracle's
same-numbered worker produces — the differential suite in
``tests/integration/test_proc_differential.py`` proves it on every
NF × fastpath × worker-count × transport cell. See ``docs/SCALING.md``.

Protocol (one request/reply pipe per worker, commands applied in FIFO
order, which is what makes the checkpoint fence trivial):

========  ======================================  =======================
opcode    parent → worker                         worker → parent
========  ======================================  =======================
``I``     burst of framed packets (pipe only)     (no reply)
``T``     run one main-loop turn                  ``a`` seq, processed
                                                  [+ flow deltas, replicating]
                                                  [+ TX frames, pipe only]
``S``     collect a worker-labeled snapshot       ``s`` JSON snapshot
``N``     collect NF/runtime counters             ``n`` JSON counters
``K``     take a ``repro-ckpt/v1`` checkpoint     ``k`` checkpoint frame
``R``     restore a checkpoint frame              ``r`` ack
``X``     stop and exit                           ``x`` goodbye
``D``     empty your full inject ring (shm)       ``d`` emptied
``d``     emptied                                 ``D`` empty my full TX
                                                  ring (shm, mid-``T``)
========  ======================================  =======================

Any worker-side exception comes back as an ``e`` reply and is re-raised
in the parent; a worker that dies instead of replying surfaces as
:class:`WorkerCrashed` with the shard id and the last *acknowledged*
burst sequence number — never as a hung pipe read. A worker blocks in
``recv_bytes``; every wait of the parent is one call on a
``select.poll`` registered once per connection at spawn
(:func:`_poller`), bounded by ``turn_timeout_s``. The frames a dead
worker had not acknowledged — buffered, or shipped since its last ACK —
are counted lost (``fault_kill_lost``). With ``supervise=True`` (implied by a
replication lag) the runtime instead
rebuilds the dead shard alone (:meth:`~repro.net.dpdk.SteeringFront.recover`):
a fresh process holding its standby's frame, or its frame of the last
coordinated :class:`~repro.resil.checkpoint.CheckpointSet`. A replicating
worker returns its turn's flow deltas with the ACK
(:func:`~repro.resil.replication.pack_deltas`), and the parent feeds
them to the shard's channel and standby.
"""

from __future__ import annotations

import gc
import itertools
import json
import multiprocessing
import os
import select
import signal
import struct
import time
import weakref
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.net.dpdk import Shard, SteeringFront
from repro.net.mbuf import (
    SLOT_HEADER,
    SlotRecordError,
    pack_slot_records,
    unpack_slot_records,
)
from repro.net.shmring import DEFAULT_SLOT_BYTES, DEFAULT_SLOTS, ShmRing, unlink_rings
from repro.obs.registry import MetricsRegistry, merge_snapshots
from repro.packets.headers import Packet

# -- transports ---------------------------------------------------------------

TRANSPORT_PIPE = "pipe"
TRANSPORT_SHM = "shm"
#: Payload transports a process runtime can use. Both are proven
#: byte-identical to the deterministic oracle by the differential grid.
TRANSPORTS = (TRANSPORT_PIPE, TRANSPORT_SHM)

# -- wire framing -------------------------------------------------------------

#: A framed packet record is the shm slot record (``pack_slot_records``):
#: both transports carry the same bytes, which is what makes the
#: transport axis a pure mechanism swap in the differential proofs.
#: Turn command payload: seq, now_us, burst_size, pool seizure target.
_TURN = struct.Struct(">QqiI")
#: Turn acknowledgement payload: seq, packets processed.
_ACK = struct.Struct(">QI")
_CKPT = struct.Struct(">q")  # taken_at_us

OP_INJECT = b"I"
OP_TURN = b"T"
OP_SNAPSHOT = b"S"
OP_COUNTERS = b"N"
OP_CHECKPOINT = b"K"
OP_RESTORE = b"R"
OP_STOP = b"X"
#: Both ways (shm): "your ring is full, empty it", answered ``d``.
OP_DRAIN = b"D"

RE_ACK = b"a"
RE_SNAPSHOT = b"s"
RE_COUNTERS = b"n"
RE_CHECKPOINT = b"k"
RE_RESTORED = b"r"
RE_BYE = b"x"
RE_ERROR = b"e"
RE_DRAINED = b"d"

#: Ring geometry per direction per worker (shm): slots × slot bytes of
#: payload. Tests patch them to make spans wrap and rings fill.
RING_SLOTS = DEFAULT_SLOTS
RING_SLOT_BYTES = DEFAULT_SLOT_BYTES
#: How long the parent waits to reap a worker whose pipe broke, so the
#: death reason can name its exit code or signal.
_EXIT_WAIT_S = 0.1


def _poller(conn) -> Callable[[float], list]:
    """The bound ``poll`` of a ``select.poll`` registered once on ``conn``.

    Call it with a timeout in milliseconds. Any event — data, hang-up,
    error — returns a non-empty list, so a dead peer reads as ready and
    its ``recv_bytes`` raises ``EOFError``/``OSError``. It replaces
    ``Connection.poll``, which builds and tears down a selector on every
    call (~3.6 µs against ~0.5 µs). ``poll`` rather than
    ``select.select``: no ``FD_SETSIZE`` ceiling on the descriptor.
    """
    poller = select.poll()
    poller.register(conn, select.POLLIN)
    return poller.poll


class TransportStats:
    """Per-burst transport tax, split where the ablation needs it split.

    - ``encode_ns`` — record framing and parsing (the pack/unpack
      loops), common to both transports.
    - ``copy_ns`` — moving the bytes: pipe join/send/recv vs shm slice
      writes and reads. This is the term the shm transport exists to
      shrink.
    - ``ring_wait_ns`` — time spent on full rings: the refused pushes
      and the ``D``/``d`` round trip that empties the ring (shm only;
      the pipe transport blocks in the kernel instead, where it shows
      up as copy time).

    Both sides keep one: the parent's half lives on the runtime, each
    worker's half rides the ``N`` counters reply as ``transport_ns``.
    """

    __slots__ = ("encode_ns", "copy_ns", "ring_wait_ns")

    def __init__(self) -> None:
        self.encode_ns = 0
        self.copy_ns = 0
        self.ring_wait_ns = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "encode_ns": self.encode_ns,
            "copy_ns": self.copy_ns,
            "ring_wait_ns": self.ring_wait_ns,
        }

    def register_metrics(self, registry, labels=None) -> None:
        registry.counter_fn(
            "proc_encode_ns_total",
            lambda: self.encode_ns,
            "transport record framing/parsing time",
            labels,
        )
        registry.counter_fn(
            "proc_copy_ns_total",
            lambda: self.copy_ns,
            "transport byte-movement time",
            labels,
        )
        registry.counter_fn(
            "proc_ring_wait_ns_total",
            lambda: self.ring_wait_ns,
            "time blocked on ring-full backpressure",
            labels,
        )


_RING_SEQ = itertools.count()


def _create_ring(tag: str) -> ShmRing:
    """One explicitly-named segment: ``repro-ring-<pid>-<seq>-<tag>``.

    Explicit names make leaks greppable (``ls /dev/shm | grep
    repro-ring``) — the leak test relies on that. A name collision
    (a previous run's leak) just bumps the sequence number.
    """
    while True:
        name = f"repro-ring-{os.getpid()}-{next(_RING_SEQ)}-{tag}"
        try:
            return ShmRing(name=name, slots=RING_SLOTS, slot_bytes=RING_SLOT_BYTES)
        except FileExistsError:
            continue


def _push(
    ring: ShmRing, blob: bytes, stats: TransportStats, drain: Callable[[], object]
) -> None:
    """Push a framed burst into ``ring``, in runs no longer than the
    ring's span limit. On a full ring ``drain()`` has the consumer empty
    it (``D`` → ``d``) and the push is retried; a drain that cannot be
    had raises.
    """
    for span in _spans(blob, max(ring.slot_bytes, ring.capacity_bytes // 4)):
        t0 = time.perf_counter_ns()
        while not ring.try_push_burst(span):
            drain()
            t1 = time.perf_counter_ns()
            stats.ring_wait_ns += t1 - t0
            t0 = t1
        stats.copy_ns += time.perf_counter_ns() - t0


def _spans(blob: bytes, max_bytes: int) -> List[bytes]:
    """Cut a framed burst into span-sized runs at record boundaries.

    A burst that fits one span — every 32-frame burst of the default
    geometry — comes back whole, unwalked. A longer one is cut before
    the record that would overflow the run; a record longer than
    ``max_bytes`` is a run of its own.
    """
    if len(blob) <= max_bytes:
        return [blob]
    unpack_from = SLOT_HEADER.unpack_from
    header_size = SLOT_HEADER.size
    runs: List[bytes] = []
    start = offset = 0
    while offset < len(blob):
        stop = offset + header_size + unpack_from(blob, offset)[3]
        if stop - start > max_bytes and offset > start:
            runs.append(blob[start:offset])
            start = offset
        offset = stop
    runs.append(blob[start:])
    return runs


def _exit_status(proc) -> str:
    """How a worker process ended — its exit code or the signal that
    killed it — or "" while it still runs (never blocks)."""
    code = proc.exitcode
    if code is None:
        return ""
    if code >= 0:
        return f"process exited with code {code}"
    try:
        name = f" ({signal.Signals(-code).name})"
    except ValueError:
        name = ""
    return f"process killed by signal {-code}{name}"


class WorkerCrashed(RuntimeError):
    """A worker process died (or stopped answering) mid-schedule.

    Carries enough to resume or fail over: which shard is gone and the
    sequence number of the last burst that worker *acknowledged* — every
    burst after it must be considered lost with the worker. ``reason``
    names what the parent saw: a poll timeout with its bound, a pipe EOF
    or ``OSError`` errno, a full inject ring, a corrupt TX span, a reply
    out of protocol or a fault-plan kill, then the process's exit code
    or signal once it has ended.
    """

    def __init__(self, shard: int, last_acked_seq: int, reason: str = "") -> None:
        detail = f" ({reason})" if reason else ""
        super().__init__(
            f"worker {shard} crashed after acking burst {last_acked_seq}{detail}"
        )
        self.shard = shard
        self.last_acked_seq = last_acked_seq
        self.reason = reason


# -- the worker process -------------------------------------------------------


def _worker_main(
    conn,
    make_shard: Callable[[], Shard],
    inject_ring: Optional[ShmRing] = None,
    out_ring: Optional[ShmRing] = None,
    parent_ends: Sequence = (),
) -> None:
    """Host one :class:`~repro.net.dpdk.Shard`, private to this process.

    Runs until an ``X`` command or pipe EOF. It first closes
    ``parent_ends``, the parent's end of every worker pipe the fork
    copied, so a parent killed without ``stop()`` leaves it reading EOF.
    Every command but ``I`` gets one reply: a handler's exception
    becomes an ``e`` reply (type + message), the one that kept the shard
    from being built included, so the parent re-raises instead of
    deadlocking on a missing one. An inject that fails to unframe is
    answered by the next command that is neither ``I`` nor ``D``.

    The worker blocks in ``recv_bytes``. With rings (shm transport) it
    drains its inject ring into the runtime's RX queues before it handles
    any command but ``X``, so the spans a command was written after have
    landed before it is answered: a ``D`` needs no more than that. On ``T`` it
    runs the turn and pushes the TX burst into the out ring *before* the
    ACK, so the parent's ACK read doubles as the TX-visibility fence; a
    full out ring is emptied by the parent on a ``D``. A replicating
    shard's deltas ride the ACK, ahead of any TX frames.
    """
    from repro.resil.checkpoint import Checkpoint

    for end in parent_ends:
        end.close()

    def error_reply(exc: Exception) -> bytes:
        detail = {"type": type(exc).__name__, "message": str(exc)}
        return RE_ERROR + json.dumps(detail).encode("utf-8")

    # What the fork inherited is the parent's: keep the worker's
    # collections from walking (and copying) every page of it.
    gc.freeze()
    try:
        shard = make_shard()
    except Exception as exc:  # noqa: BLE001 — the parent must hear why
        # No shard to host: the first request that expects a reply gets
        # the real error, then the process ends.
        try:
            while conn.recv_bytes()[:1] == OP_INJECT:
                pass
            conn.send_bytes(error_reply(exc))
        except (EOFError, OSError):
            pass
        conn.close()
        return
    runtime = shard.runtime
    stats = TransportStats()
    transport = TRANSPORT_SHM if inject_ring is not None else TRANSPORT_PIPE

    def deliver(blob: bytes, offset: int = 0) -> None:
        """Unframe one burst of records straight onto its ports' RX
        queues, every frame validated by ``Packet.from_bytes``."""
        t0 = time.perf_counter_ns()
        records = unpack_slot_records(blob, offset)
        stats.encode_ns += time.perf_counter_ns() - t0
        ports = runtime.ports
        from_bytes = Packet.from_bytes
        for port_id, device, timestamp, wire in records:
            ports[port_id].deliver(from_bytes(wire, device), timestamp)

    def drain_inject() -> None:
        """Pop every visible burst into the runtime's RX queues."""
        while True:
            t0 = time.perf_counter_ns()
            blob = inject_ring.pop_burst_bytes()
            if blob is None:
                return
            stats.copy_ns += time.perf_counter_ns() - t0
            deliver(blob)

    def drain_out_ring() -> None:
        """Have the parent empty the full out ring: ``D``, then its ``d``."""
        conn.send_bytes(OP_DRAIN)
        conn.recv_bytes()

    failed: Optional[Exception] = None  # an inject that did not unframe
    while True:
        try:
            message = conn.recv_bytes()
        except (EOFError, OSError):
            break
        op = message[:1]
        try:
            if op == OP_STOP:  # whatever the rings hold dies with the worker
                conn.send_bytes(RE_BYE)
                break
            try:
                if inject_ring is not None:
                    drain_inject()  # this message fenced every span before it
                if op == OP_INJECT:
                    deliver(message, 1)
            except Exception as exc:  # noqa: BLE001 — answered below
                failed = failed or exc
            if op == OP_INJECT:
                pass
            elif op == OP_DRAIN:
                conn.send_bytes(RE_DRAINED)
            elif failed is not None:
                failed, exc = None, failed
                raise exc
            elif op == OP_TURN:
                seq, now_us, burst_size, seizure = _TURN.unpack_from(message, 1)
                processed = shard.main_loop_burst(now_us, burst_size, seizure)
                t0 = time.perf_counter_ns()
                blob = pack_slot_records(shard.collect())
                stats.encode_ns += time.perf_counter_ns() - t0
                ack = RE_ACK + _ACK.pack(seq, processed)
                if shard.deltas is not None:
                    from repro.resil.replication import pack_deltas

                    ack += pack_deltas(shard.deltas)
                    shard.deltas.clear()
                if out_ring is not None:
                    _push(out_ring, blob, stats, drain_out_ring)
                    conn.send_bytes(ack)
                else:
                    t0 = time.perf_counter_ns()
                    conn.send_bytes(ack + blob)
                    stats.copy_ns += time.perf_counter_ns() - t0
            elif op == OP_SNAPSHOT:
                registry = MetricsRegistry()
                labels = {"worker": str(runtime.worker_id), "transport": transport}
                shard.register_metrics(registry, labels)
                stats.register_metrics(registry, labels)
                conn.send_bytes(
                    RE_SNAPSHOT + json.dumps(registry.snapshot()).encode("utf-8")
                )
            elif op == OP_COUNTERS:
                payload = dict(shard.counters(), transport_ns=stats.as_dict())
                conn.send_bytes(RE_COUNTERS + json.dumps(payload).encode("utf-8"))
            elif op == OP_CHECKPOINT:
                (taken_at_us,) = _CKPT.unpack_from(message, 1)
                frame = shard.checkpoint_frame(taken_at_us).to_bytes()
                conn.send_bytes(RE_CHECKPOINT + frame)
            elif op == OP_RESTORE:
                # restore_state demands a freshly constructed NF, so
                # Shard.restore_frame rebuilds it from the factory first
                # (the fastpath cache starts cold, as after any restore:
                # the fresh NF sits behind a fresh, empty cache).
                shard.restore_frame(Checkpoint.from_bytes(message[1:]))
                conn.send_bytes(RE_RESTORED)
            else:
                raise ValueError(f"unknown opcode {op!r}")
        except Exception as exc:  # noqa: BLE001 — everything must reach the parent
            conn.send_bytes(error_reply(exc))
    # Detach this process's ring mappings; the parent owns unlinking.
    for ring in (inject_ring, out_ring):
        if ring is not None:
            ring.close()
    conn.close()


# -- the parent-side runtime --------------------------------------------------


class ProcessShardedRuntime(SteeringFront):
    """N shard processes behind one RSS-steered NIC, driven by the parent.

    The public surface mirrors :class:`~repro.net.dpdk.ShardedRuntime`
    (it satisfies the same :class:`~repro.net.app.Runtime` protocol), so
    a schedule driven against both produces byte-identical per-worker TX
    streams and merged counters. Differences by design:

    - A worker's batch (:meth:`~repro.net.dpdk.SteeringFront.inject`,
      the oracle's own) is framed and shipped once per turn or hang —
      as one pipe message (``transport="pipe"``) or as spans in that
      worker's inject ring (``transport="shm"``).
    - A fault-plan worker kill terminates the real OS process; the
      parent then raises :class:`WorkerCrashed` rather than silently
      serving on — unless ``supervise=True``, in which case the dead
      shard alone is respawned from one frame
      (:meth:`~repro.net.dpdk.SteeringFront.recover`).
    - :meth:`checkpoint` is coordinated: the pipe's FIFO ordering fences
      each worker (a checkpoint reply proves every prior burst landed —
      including its ring spans, which a worker drains before it answers
      any command),
      and the shard frames are bound into one
      :class:`~repro.resil.checkpoint.CheckpointSet` manifest.

    Always :meth:`stop` a runtime when done (or use it as a context
    manager) — worker processes are real and must be joined, and the
    shm transport's segments are unlinked there. A ``weakref.finalize``
    hook unlinks them even when ``stop`` never runs (parent exception,
    GC, interpreter exit), so no ``/dev/shm`` entries outlive the
    parent.
    """

    def _start(self) -> None:
        """Spawn one process per shard (the front end is fully set up)."""
        workers = self.workers
        self._stats = TransportStats()
        self._context = multiprocessing.get_context("fork")
        self._conns: List = [None] * workers
        #: Each conn's :func:`_poller`, registered once per spawn.
        self._polls: List = [None] * workers
        self._procs: List = [None] * workers
        self._inject_rings: List[Optional[ShmRing]] = [None] * workers
        self._out_rings: List[Optional[ShmRing]] = [None] * workers
        #: Every ring ever created, mutated in place so the finalizer
        #: below (registered once) always sees the current set — this
        #: is the "no leaked /dev/shm segments on any exit path"
        #: guarantee: stop(), crash handling, parent exception, GC and
        #: interpreter exit all funnel into unlink_rings exactly once.
        self._all_rings: List[ShmRing] = []
        self._ring_finalizer = weakref.finalize(
            self, unlink_rings, self._all_rings
        )
        try:
            for worker_id in range(workers):
                self._spawn_worker(worker_id)
        except BaseException:
            self._ring_finalizer()
            raise

        self._seq = 0
        self._last_acked: List[int] = [0] * workers
        #: Frames shipped to each worker since its last ACK: in flight,
        #: so lost with the worker if it dies before acking them.
        self._unacked: List[int] = [0] * workers
        self._death_reason: List[str] = [""] * workers
        #: Accumulated TX records per worker, in the frame field order
        #: of :func:`unpack_slot_records`: (port, device, timestamp, wire).
        self._tx: List[List[Tuple[int, int, int, bytes]]] = [
            [] for _ in range(workers)
        ]
        self._stopped = False

    def _spawn_worker(self, worker_id: int, checkpoint=None) -> None:
        """Stand up one shard process (construction and respawn path);
        a respawned shard is built holding ``checkpoint``."""
        inject_ring = out_ring = None
        if self.spec.transport == TRANSPORT_SHM:
            inject_ring = _create_ring(f"{worker_id}i")
            out_ring = _create_ring(f"{worker_id}o")
            self._all_rings += (inject_ring, out_ring)
        parent_conn, child_conn = self._context.Pipe()
        proc = self._context.Process(
            target=_worker_main,
            args=(
                child_conn,
                partial(self.fresh_shard, worker_id, checkpoint),
                inject_ring,
                out_ring,
                [parent_conn, *filter(None, self._conns)],
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._conns[worker_id] = parent_conn
        self._polls[worker_id] = _poller(parent_conn)
        self._procs[worker_id] = proc
        self._inject_rings[worker_id] = inject_ring
        self._out_rings[worker_id] = out_ring

    # -- context management --------------------------------------------------
    def __enter__(self) -> "ProcessShardedRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- wire side -----------------------------------------------------------
    #: The oracle's own inject, bound here so the benchmark's ledger finds
    #: it on this class.
    inject = SteeringFront.inject

    def collect(self) -> List[Tuple[int, int, Packet]]:
        """All workers' transmissions, merged: (port, timestamp, packet)."""
        merged: List[Tuple[int, int, Packet]] = []
        for records in self._tx:
            for port_id, device, timestamp, wire in records:
                merged.append(
                    (port_id, timestamp, Packet.from_bytes(wire, device=device))
                )
            records.clear()
        merged.sort(key=lambda item: item[1])  # stable: worker order on ties
        return merged

    def collect_by_worker(self) -> List[List[Tuple[int, int, Packet]]]:
        """Per-worker transmissions since the last collect."""
        return [
            [
                (port_id, timestamp, Packet.from_bytes(wire, device=device))
                for port_id, device, timestamp, wire in records
            ]
            for records in self.collect_raw_by_worker()
        ]

    def collect_raw_by_worker(self) -> List[List[Tuple[int, int, int, bytes]]]:
        """Per-worker TX records as raw frames: (port, device, ts, wire).

        The differential suite compares these against the oracle's
        re-serialized output — no parent-side parse/re-pack in between.
        """
        out, self._tx = self._tx, [[] for _ in self._tx]
        return out

    # -- the scatter/gather main loop ---------------------------------------
    def main_loop_burst(self, now_us: int, burst_size: int = 32) -> int:
        """One concurrent turn: scatter batches, workers run, gather ACKs.

        The oracle's turn (:meth:`~repro.net.dpdk.SteeringFront.main_loop_burst`,
        the one fault policy), minus the serial execution: every live
        worker gets its buffered inject batch and a turn command, then
        all turn acknowledgements are gathered (with their TX frames —
        via the reply in pipe mode, via the out ring in shm mode). A
        fault-plan kill is a SIGKILL of the worker's OS process; a hang
        ships the worker's batch and skips its turn; pool seizures and
        skewed clocks ride the turn command. A worker that dies during
        the turn is rebuilt after the gather when supervising, and
        otherwise raises :class:`WorkerCrashed`.
        """
        self._ensure_running()
        return super().main_loop_burst(now_us, burst_size)

    # -- the turn's hooks ------------------------------------------------------
    def _kill(self, worker_id: int) -> None:
        """A fault-plan kill is a real kill: SIGKILL the shard process
        (marked dead first, so the reason is the plan's alone)."""
        self._mark_dead(worker_id, "killed by fault plan")
        proc = self._procs[worker_id]
        if proc.is_alive() and proc.pid is not None:
            os.kill(proc.pid, signal.SIGKILL)
        proc.join(timeout=self.spec.turn_timeout_s)

    def _hold(self, worker_id: int) -> None:
        """A hung worker still receives its batch; it just does not turn."""
        self._flush_pending(worker_id)

    def _turn(
        self, worker_id: int, now_us: int, burst_size: int, seizure: int
    ) -> Optional[int]:
        """Ship the worker's batch, then send one ``T``; returns its
        sequence number — ``None`` when the worker is dead (shipping
        its batch found out, or this does)."""
        self._flush_pending(worker_id)
        if not self._alive[worker_id]:
            return None
        self._seq += 1
        try:
            self._conns[worker_id].send_bytes(
                OP_TURN + _TURN.pack(self._seq, now_us, burst_size, seizure)
            )
        except OSError as exc:
            self._pipe_failed(worker_id, exc)
            return None
        return self._seq

    def _gather(self, turned: List[Tuple[int, Optional[int]]], now_us: int) -> int:
        """Read every turned worker's ACK and take its TX — off the out
        ring (shm) or off the reply (pipe) — and its flow deltas, which
        go to the worker's standby. Then rebuild every worker found dead
        when supervising, else raise :class:`WorkerCrashed` for the
        first; then re-raise the first ``e`` reply. Returns the packets
        processed.
        """
        shm = self.spec.transport == TRANSPORT_SHM
        processed = 0
        error: Optional[Exception] = None
        for worker_id, seq in turned:
            if seq is None:
                continue
            try:
                reply = self._recv(worker_id, RE_ACK)
            except Exception as exc:  # noqa: BLE001 — an ``e``: read the rest first
                error = error or exc
                continue
            if reply is None:
                continue
            acked_seq, count = _ACK.unpack_from(reply, 1)
            if acked_seq != seq:
                self._mark_dead(worker_id, f"out-of-order ack: {acked_seq} != {seq}")
                continue
            self._last_acked[worker_id] = acked_seq
            self._unacked[worker_id] = 0
            processed += count
            offset = 1 + _ACK.size
            if self.replicas:
                from repro.resil.replication import unpack_deltas

                deltas, offset = unpack_deltas(reply, offset)
                self._replicate(worker_id, deltas)
            if shm:
                # The ACK is the fence: every TX span is visible now.
                self._drain_tx_ring(worker_id)
            elif len(reply) > offset:
                t0 = time.perf_counter_ns()
                records = unpack_slot_records(reply, offset)
                self._stats.encode_ns += time.perf_counter_ns() - t0
                self._tx[worker_id].extend(records)
        for worker_id, alive in enumerate(self._alive):
            if alive:
                continue
            if not self.supervise:
                raise WorkerCrashed(
                    worker_id,
                    self._last_acked[worker_id],
                    reason=self._death_reason[worker_id],
                )
            self.recover(worker_id, now_us)
        if error is not None:
            raise error
        return processed

    def _ship(self, worker_id: int, blob: bytes, frames: int) -> None:
        """Ship one worker's framed batch of ``frames`` records: spans
        in its inject ring (shm) or one ``I`` message (pipe). A worker
        that cannot take it is marked dead."""
        self._unacked[worker_id] += frames
        ring = self._inject_rings[worker_id]
        if ring is not None:
            drain = partial(
                self._request, worker_id, OP_DRAIN, RE_DRAINED, "inject ring full"
            )
            try:
                _push(ring, blob, self._stats, drain)
            except WorkerCrashed:
                pass  # marked dead: the turn reports it
        else:
            t0 = time.perf_counter_ns()
            try:
                self._conns[worker_id].send_bytes(OP_INJECT + blob)
            except OSError as exc:
                self._pipe_failed(worker_id, exc)
            self._stats.copy_ns += time.perf_counter_ns() - t0

    def _flush_pending(self, worker_id: int) -> None:
        """Frame, then ship, what :meth:`inject` batched for a worker."""
        pending = self._pending[worker_id]
        if not pending:
            return
        t0 = time.perf_counter_ns()
        blob = pack_slot_records(pending)
        self._stats.encode_ns += time.perf_counter_ns() - t0
        frames = len(pending)
        pending.clear()
        self._ship(worker_id, blob, frames)

    def _drain_tx_ring(self, worker_id: int) -> None:
        """Pop every visible TX span from one worker's out ring."""
        ring = self._out_rings[worker_id]
        if ring is None:
            return
        while True:
            t0 = time.perf_counter_ns()
            blob = ring.pop_burst_bytes()
            t1 = time.perf_counter_ns()
            if blob is None:
                return
            self._stats.copy_ns += t1 - t0
            try:
                records = unpack_slot_records(blob)
            except SlotRecordError as exc:
                # Whatever wrote this span is not a worker we can trust
                # the rest of the ring from.
                self._mark_dead(worker_id, f"corrupt TX span: {exc}")
                return
            self._stats.encode_ns += time.perf_counter_ns() - t1
            self._tx[worker_id].extend(records)

    def _recv(
        self, worker_id: int, expect: bytes, waiting: str = "no reply"
    ) -> Optional[bytes]:
        """One reply from a worker, or ``None`` after marking it dead.

        A worker-side exception reply re-raises here; a dead pipe, a
        dead process, a timeout (named ``waiting`` and the bound) or a
        reply but ``expect`` degrade to ``None`` so the caller can raise
        :class:`WorkerCrashed` with full context. A ``D`` on the way —
        the worker's TX ring is full mid-turn — is answered first: the
        parent empties that ring, sends ``d`` and waits on.
        """
        conn = self._conns[worker_id]
        poll = self._polls[worker_id]
        bound_s = self.spec.turn_timeout_s
        try:
            while True:
                if not poll(bound_s * 1_000):
                    self._mark_dead(
                        worker_id, f"{waiting} within turn_timeout_s={bound_s:g}s"
                    )
                    return None
                t0 = time.perf_counter_ns()
                reply = conn.recv_bytes()
                self._stats.copy_ns += time.perf_counter_ns() - t0
                if reply[:1] != OP_DRAIN:
                    break
                self._drain_tx_ring(worker_id)
                conn.send_bytes(RE_DRAINED)
        except (EOFError, OSError) as exc:
            self._pipe_failed(worker_id, exc)
            return None
        if reply[:1] == RE_ERROR:
            detail = json.loads(reply[1:].decode("utf-8"))
            from repro.resil.checkpoint import CheckpointError

            kind = detail.get("type", "RuntimeError")
            message = f"worker {worker_id}: {detail.get('message', '')}"
            if kind == "CheckpointError":
                raise CheckpointError(message)
            raise RuntimeError(f"[{kind}] {message}")
        if reply[:1] != expect:
            self._mark_dead(worker_id, f"reply {reply[:1]!r}, expected {expect!r}")
            return None
        return reply

    def flush_worker(self, worker_id: int, now_us: int) -> int:
        """Count a dead worker's frames lost — its buffered batch and
        those shipped since its last ACK (the rebuild unlinks the rings
        that held them); returns the count."""
        lost = len(self._pending[worker_id]) + self._unacked[worker_id]
        self._pending[worker_id].clear()
        self._unacked[worker_id] = 0
        self.fault_kill_lost += lost
        return lost

    def _mark_dead(self, worker_id: int, cause: str) -> None:
        """Record a worker's death once: ``cause`` as the parent saw it,
        then how its process ended if it has."""
        self._alive[worker_id] = False
        if not self._death_reason[worker_id]:
            status = _exit_status(self._procs[worker_id])
            self._death_reason[worker_id] = f"{cause}; {status}" if status else cause

    def _pipe_failed(self, worker_id: int, exc: BaseException) -> None:
        """A worker's pipe hit EOF or an ``OSError``: its process is
        most likely on its way out, so give it a moment to be reaped
        before :meth:`_mark_dead` reads how it ended."""
        if isinstance(exc, EOFError):
            cause = "pipe closed (EOFError)"
        elif isinstance(exc, OSError) and exc.errno is not None:
            cause = f"pipe error: errno {exc.errno} ({os.strerror(exc.errno)})"
        else:
            cause = f"pipe error: {exc!r}"
        self._procs[worker_id].join(timeout=_EXIT_WAIT_S)
        self._mark_dead(worker_id, cause)

    def _ensure_running(self) -> None:
        if self._stopped:
            raise RuntimeError("runtime is stopped")

    # -- recovery ------------------------------------------------------------
    def _rebuild(self, worker_id: int, checkpoint) -> None:
        """Respawn one dead shard holding ``checkpoint``.

        Fresh process, fresh rings (a SIGKILLed worker can leave a ring
        in any state — mid-span writes are invisible thanks to the
        head/tail protocol, but reusing the segment would complicate
        the proof for nothing); the replaced segments are unlinked
        immediately, with any unacknowledged frames in them
        (:meth:`flush_worker` counted those). TX the parent already took
        from the dead worker stays in :meth:`collect`'s queue: those
        frames were sent.
        """
        proc = self._procs[worker_id]
        if proc.is_alive() and proc.pid is not None:
            os.kill(proc.pid, signal.SIGKILL)
        proc.join(timeout=self.spec.turn_timeout_s)
        try:
            self._conns[worker_id].close()
        except OSError:
            pass
        for ring in (self._inject_rings[worker_id], self._out_rings[worker_id]):
            if ring is not None:
                ring.unlink()
                self._all_rings.remove(ring)
        self._spawn_worker(worker_id, checkpoint)
        self._death_reason[worker_id] = ""

    def _request(
        self, worker_id: int, message: bytes, expect: bytes, waiting: str = "no reply"
    ) -> bytes:
        reply = None
        if self._alive[worker_id]:
            try:
                self._conns[worker_id].send_bytes(message)
            except OSError as exc:
                self._pipe_failed(worker_id, exc)
            else:
                reply = self._recv(worker_id, expect, waiting)
        if reply is None:
            raise WorkerCrashed(
                worker_id,
                self._last_acked[worker_id],
                reason=self._death_reason[worker_id],
            )
        return reply

    # -- the per-worker answers SteeringFront merges --------------------------
    def _worker_counters(self, worker_id: int) -> Dict:
        reply = self._request(worker_id, OP_COUNTERS, RE_COUNTERS)
        return json.loads(reply[1:].decode("utf-8"))

    def _worker_checkpoint(self, worker_id: int, now_us: int):
        from repro.resil.checkpoint import Checkpoint

        reply = self._request(
            worker_id, OP_CHECKPOINT + _CKPT.pack(now_us), RE_CHECKPOINT
        )
        return Checkpoint.from_bytes(reply[1:])

    def _worker_restore(self, worker_id: int, checkpoint) -> None:
        self._request(worker_id, OP_RESTORE + checkpoint.to_bytes(), RE_RESTORED)

    def transport_counters(self) -> Dict[str, Dict[str, int]]:
        """The ablation instruments, both halves: parent, per-worker, sum.

        ``total`` is what the sweeps embed: end-to-end nanoseconds the
        transport spent framing (``encode_ns``), moving bytes
        (``copy_ns``) and blocked on backpressure (``ring_wait_ns``)
        across the parent and every worker.
        """
        per_worker = [
            dict(self._worker_counters(w).get("transport_ns", {}))
            for w in range(self.workers)
        ]
        total = dict(self._stats.as_dict())
        for stats in per_worker:
            for key, value in stats.items():
                total[key] = total.get(key, 0) + value
        return {
            "parent": self._stats.as_dict(),
            "workers": per_worker,
            "total": total,
        }

    # -- observability -------------------------------------------------------
    def snapshot_metrics(self) -> Dict:
        """One merged snapshot: NIC steering + every worker's world.

        Each worker collects its own registry with a ``worker`` label
        stamped *at the source* (see :func:`repro.obs.registry.with_labels`
        for why), so :func:`~repro.obs.registry.merge_snapshots` keeps
        distinct workers' gauges apart instead of summing them. The
        parent's transport half rides under ``worker="parent"``; the
        standbys and the recoveries live in the parent too.
        """
        parent = MetricsRegistry()
        self.nic.register_metrics(parent)
        self._stats.register_metrics(
            parent, {"worker": "parent", "transport": self.spec.transport}
        )
        self.register_recovery_metrics(parent)
        snapshots = [parent.snapshot()]
        for worker_id in range(self.workers):
            reply = self._request(worker_id, OP_SNAPSHOT, RE_SNAPSHOT)
            snapshots.append(json.loads(reply[1:].decode("utf-8")))
        return merge_snapshots(snapshots)

    # -- shutdown ------------------------------------------------------------
    def stop(self, timeout_s: float = 5.0) -> None:
        """Clean shutdown: stop command, join with timeout, then the axe.

        Idempotent; safe after a crash (a worker marked dead is killed,
        not sent ``X``). Any worker that does not exit within
        ``timeout_s`` is terminated.
        Ring segments are unlinked last (after every mapping holder is
        gone), via the same finalizer that covers the unclean paths.
        """
        if self._stopped:
            return
        self._stopped = True
        for worker_id, conn in enumerate(self._conns):
            if not self._alive[worker_id]:
                continue
            try:
                conn.send_bytes(OP_STOP)
            except (BrokenPipeError, OSError):
                continue
        for worker_id, (conn, proc) in enumerate(zip(self._conns, self._procs)):
            if self._alive[worker_id]:
                try:
                    if self._polls[worker_id](timeout_s * 1_000):
                        conn.recv_bytes()  # the goodbye
                except (EOFError, OSError):
                    pass
            elif proc.is_alive():
                proc.kill()  # marked dead, so never sent ``X``
            proc.join(timeout=timeout_s)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=timeout_s)
            conn.close()
            self._alive[worker_id] = False
        self._ring_finalizer()


__all__ = [
    "OP_CHECKPOINT",
    "OP_COUNTERS",
    "OP_DRAIN",
    "OP_INJECT",
    "OP_RESTORE",
    "OP_SNAPSHOT",
    "OP_STOP",
    "OP_TURN",
    "ProcessShardedRuntime",
    "TRANSPORT_PIPE",
    "TRANSPORT_SHM",
    "TRANSPORTS",
    "TransportStats",
    "WorkerCrashed",
]
