"""The NF application layer: one spec, one launcher, one runtime protocol.

Two things live here:

- :func:`replay` / :func:`replay_pcap` — the paper's ``main()`` over a
  trace, on any launched runtime: one turn per arrival — receive a
  burst, run the NF, transmit or free each buffer — with the no-leak
  discipline Vigor's ownership tracking enforces (§5.2.4).
- The **deployment facade**: a frozen :class:`RuntimeSpec` describing a
  whole deployment (NF factory, config, workers, execution mode,
  fastpath, faults, replication) and :func:`launch`, which turns the
  spec into a running :class:`Runtime`. Every runtime is built from
  the spec alone (``InlineRuntime(spec)``, ``ShardedRuntime(spec)``,
  ``ProcessShardedRuntime(spec)``) and keeps it as ``runtime.spec``.

Execution modes and what they are for — each is the same unit, a
:class:`~repro.net.dpdk.Shard` (NF + ``DpdkRuntime`` + turn +
checkpoint/restore), placed differently, so ``checkpoint()`` and
``restore()`` mean the same thing in all three:

- ``inline`` — :class:`InlineRuntime`: one shard, no steering stage.
  The minimal single-core deployment, and measurably not a spelling of
  one-worker ``ShardedRuntime``: routed that way, ``noop-64`` reads
  ``fwd_pps`` 441.6k → 251.1k, ``nat-hot`` 220.0k → 158.3k
  (5/5 pairs each), and with
  ``RssNic.select`` short-circuited at one queue ``noop-64`` is still
  ``probe_p50_us`` 5.24 → 6.72 µs, +28 % against a 0.25 bound
  (``docs/SCALING.md`` §1 has the pairs).
- ``threaded-deterministic`` — :class:`~repro.net.dpdk.ShardedRuntime`:
  N shards round-robined in one thread. Fully deterministic; this is
  the *verification oracle* the process mode is differentially tested
  against, recovery included.
- ``process`` — :class:`~repro.net.procrun.ProcessShardedRuntime`: one
  OS process per shard, real wall-clock scale-out, byte-identical to
  the oracle on the same schedule. See ``docs/SCALING.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from repro.nat.base import NetworkFunction
from repro.nat.config import NatConfig
from repro.nat.fastpath import check_fastpath
from repro.net.dpdk import Shard, ShardedRuntime
from repro.obs.registry import MetricsRegistry
from repro.packets.headers import Packet
from repro.packets.pcap import PcapRecord, read_pcap_file, write_pcap_file

#: The three ways a spec can execute (see the module docstring).
INLINE = "inline"
THREADED_DETERMINISTIC = "threaded-deterministic"
PROCESS = "process"
EXECUTION_MODES = (INLINE, THREADED_DETERMINISTIC, PROCESS)


@dataclass(frozen=True)
class RuntimeSpec:
    """Everything needed to stand up a NAT deployment, in one value.

    Frozen like :class:`~repro.nat.config.NatConfig`: a spec can be
    hashed, compared, logged in a benchmark record, and varied with
    :meth:`with_` — and two runs launched from equal specs are
    comparable runs. ``nf_factory`` is called once per shard with that
    shard's partitioned config.
    """

    nf_factory: Callable[[NatConfig], NetworkFunction]
    config: Optional[NatConfig] = None
    workers: int = 1
    execution: str = THREADED_DETERMINISTIC
    #: The microflow fast path: ``"off"`` or ``"compiled"`` (the action
    #: cache; raw-path learns attach compiled closures to its actions).
    fastpath: str = "off"
    burst_size: int = 32
    rx_capacity: int = 512
    pool_size: int = 4096
    fault_plan: Optional[object] = None
    #: Replication lag for a warm standby per shard; ``None`` disables
    #: replication entirely. Implies ``supervise``: a dead shard is
    #: rebuilt from its standby. Sharded executions only.
    replication_lag: Optional[int] = None
    #: Process mode only: how long the parent waits on a worker reply
    #: before declaring it crashed — a reply to a command, or the ``d``
    #: that answers its ``D`` on a full shm inject ring.
    turn_timeout_s: float = 30.0
    #: Process mode only: how packets cross the parent/worker boundary.
    #: ``"shm"`` (default) moves bursts through per-worker shared-memory
    #: rings with the pipe as control plane; ``"pipe"`` serializes them
    #: over the pipe itself. Both are differentially proven
    #: byte-identical to the deterministic oracle.
    transport: str = "shm"
    #: Rebuild a dead shard alone from its frame of the last coordinated
    #: checkpoint, instead of leaving it dead (threaded) or raising
    #: ``WorkerCrashed`` (process); the frames it lost are reported as
    #: ``drop_causes()["fault_kill_lost"]``. Sharded executions only.
    supervise: bool = False

    def __post_init__(self) -> None:
        check_fastpath(self.fastpath)
        if self.execution not in EXECUTION_MODES:
            raise ValueError(
                f"unknown execution mode {self.execution!r}; "
                f"choose one of {EXECUTION_MODES}"
            )
        if self.workers <= 0:
            raise ValueError("need at least one worker")
        if self.execution == INLINE and self.workers != 1:
            raise ValueError(
                "inline execution is single-worker; use "
                "threaded-deterministic or process to shard"
            )
        if self.execution == INLINE and (
            self.replication_lag is not None or self.supervise
        ):
            raise ValueError(
                "replication_lag and supervise=True need a sharded execution: "
                "an inline runtime has no worker to rebuild"
            )
        if self.replication_lag is not None and self.replication_lag < 0:
            raise ValueError("replication lag cannot be negative")
        if self.burst_size <= 0:
            raise ValueError("burst size must be positive")
        if self.turn_timeout_s <= 0:
            raise ValueError("turn timeout must be positive")
        from repro.net.procrun import TRANSPORTS

        if self.transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {self.transport!r}; "
                f"choose one of {TRANSPORTS}"
            )

    def resolved_config(self) -> NatConfig:
        return self.config if self.config is not None else NatConfig()

    def with_(self, **overrides) -> "RuntimeSpec":
        """A varied copy — ``spec.with_(workers=4, execution=PROCESS)``."""
        return replace(self, **overrides)


@runtime_checkable
class Runtime(Protocol):
    """What every launched runtime can do, regardless of execution mode.

    The wire side (:meth:`inject`/:meth:`collect`), the main loop, the
    merged observability surface, the coordinated checkpoint and its
    restore, and a shutdown hook (a no-op everywhere but process mode, where workers
    are real OS processes).
    """

    @property
    def workers(self) -> int: ...

    def inject(self, port_id: int, packet: Packet, timestamp: int) -> bool: ...

    def collect(self) -> List[Tuple[int, int, Packet]]: ...

    def main_loop_burst(self, now_us: int, burst_size: int = 32) -> int: ...

    def op_counters(self) -> Dict[str, int]: ...

    def drop_causes(self) -> Dict[str, int]: ...

    def flow_count(self) -> int: ...

    def snapshot_metrics(self) -> Dict: ...

    def checkpoint(self, now_us: int = 0): ...

    def restore(self, checkpoint_set) -> None: ...

    def stop(self) -> None: ...


class InlineRuntime:
    """The single-worker deployment: one :class:`~repro.net.dpdk.Shard`.

    No steering stage, no partitioning — the spec's config is the NF's
    whole config. Satisfies the :class:`Runtime` protocol so sweeps can
    treat it interchangeably with the sharded modes.
    """

    def __init__(self, spec: RuntimeSpec) -> None:
        self.spec = spec
        self.config = spec.resolved_config()
        self.shard = Shard(
            spec.nf_factory,
            self.config,
            fastpath=spec.fastpath,
            rx_capacity=spec.rx_capacity,
            pool_size=spec.pool_size,
        )
        #: The shard's runtime, held directly: the per-packet calls
        #: below go straight to ``DpdkRuntime`` with no hop in between.
        self.runtime = self.shard.runtime

    @property
    def workers(self) -> int:
        return 1

    # -- wire side -----------------------------------------------------------
    def inject(self, port_id: int, packet: Packet, timestamp: int) -> bool:
        return self.runtime.inject(port_id, packet, timestamp)

    def collect(self) -> List[Tuple[int, int, Packet]]:
        return self.runtime.collect()

    def collect_by_worker(self) -> List[List[Tuple[int, int, Packet]]]:
        return [self.runtime.collect()]

    def main_loop_burst(self, now_us: int, burst_size: int = 32) -> int:
        return self.runtime.main_loop_burst(self.shard.nf, now_us, burst_size)

    # -- introspection -------------------------------------------------------
    def op_counters(self) -> Dict[str, int]:
        return dict(self.shard.nf.op_counters())

    def per_worker_counters(self) -> List[Dict[str, int]]:
        return [self.op_counters()]

    def drop_causes(self) -> Dict[str, int]:
        return self.runtime.drop_causes()

    def flow_count(self) -> int:
        return self.shard.flow_count()

    # -- observability -------------------------------------------------------
    def register_metrics(self, registry) -> None:
        self.shard.register_metrics(registry, {"worker": "0"})

    def snapshot_metrics(self) -> Dict:
        registry = MetricsRegistry()
        self.register_metrics(registry)
        return registry.snapshot()

    # -- control plane -------------------------------------------------------
    def checkpoint(self, now_us: int = 0):
        from repro.resil.checkpoint import CheckpointSet

        return CheckpointSet(
            taken_at_us=now_us, checkpoints=(self.shard.checkpoint(now_us),)
        )

    def restore(self, checkpoint_set) -> None:
        (frame,) = checkpoint_set.for_workers(1)
        self.shard.restore(frame)

    def stop(self) -> None:
        """Nothing to tear down — inline state dies with the object."""


def launch(spec: RuntimeSpec) -> Runtime:
    """Stand up the deployment a spec describes and return its runtime.

    The one construction path: picks the backend from
    ``spec.execution`` and builds it from the spec, which the runtime
    keeps as ``.spec`` so drivers can read back the burst size and mode
    they should drive with. Callers owning a ``process`` runtime must
    :meth:`~Runtime.stop` it; calling ``stop()`` on the other modes is a
    harmless no-op, so generic drivers can always use
    ``try/finally: runtime.stop()``.
    """
    if spec.execution == INLINE:
        return InlineRuntime(spec)
    if spec.execution == PROCESS:
        from repro.net.procrun import ProcessShardedRuntime

        return ProcessShardedRuntime(spec)
    return ShardedRuntime(spec)


def replay(
    runtime: Runtime, arrivals: Iterable[Tuple[int, int, Packet]]
) -> List[Tuple[int, int, Packet]]:
    """Feed (time_us, port, packet) arrivals to a launched runtime;
    returns its transmissions.

    The paper's ``main()`` over a trace: one main-loop turn after every
    arrival, so RX rings never overflow — this is functional replay
    (what comes out), not the timing simulation (use
    :class:`~repro.net.testbed.Rfc2544Testbed` for that).
    """
    burst_size = runtime.spec.burst_size
    for time_us, port, packet in arrivals:
        runtime.inject(port, packet, time_us)
        runtime.main_loop_burst(time_us, burst_size)
    return runtime.collect()


def replay_pcap(
    runtime: Runtime, in_path: str, out_path: Optional[str] = None, port: int = 0
) -> List[PcapRecord]:
    """Replay a pcap file through a launched runtime; optionally write
    the output.

    Every input frame arrives on ``port`` at its recorded timestamp;
    the NF's transmissions are returned (and written as a pcap when
    ``out_path`` is given).
    """
    arrivals = [
        (record.timestamp_us, port, record.packet(device=port))
        for record in read_pcap_file(in_path)
    ]
    out_records = [
        PcapRecord(timestamp_us=ts, data=pkt.to_bytes())
        for _port, ts, pkt in replay(runtime, arrivals)
    ]
    if out_path is not None:
        write_pcap_file(out_path, [(r.timestamp_us, r.data) for r in out_records])
    return out_records
