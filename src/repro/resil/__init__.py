"""Resilience: checkpoint/restore, standby replication, fault injection.

The paper proves a *single* NAT instance crash-free; this subsystem makes
the reproduction survive the faults the proofs scope out — worker death,
link loss, state loss — without touching the verified slow path:

- :mod:`repro.resil.checkpoint` — the versioned ``repro-ckpt/v1``
  serialization of NF flow state, with ``snapshot()``/``restore()``
  entry points and hard rejection of corrupt or mismatched checkpoints;
- :mod:`repro.resil.replication` — incremental per-flow deltas streamed
  over a lagged channel into a standby replica, and the
  :class:`FailoverReport` loss ledger of a recovery;
- :mod:`repro.resil.faults` — the composable :class:`FaultPlan` driving
  link, pool, worker and clock faults through the simulated data path.

Recovery itself is one primitive of the sharded front ends,
:meth:`repro.net.dpdk.SteeringFront.recover`: a dead shard is rebuilt
alone, from its standby's frame or its frame of the last coordinated
checkpoint, in the threaded and the process execution alike.

With no fault plan and no replication attached, every data-path run is
byte-identical to one without this package imported.
"""

from repro.resil.checkpoint import (
    Checkpoint,
    CheckpointError,
    CheckpointSet,
    restore,
    snapshot,
)
from repro.resil.faults import FaultPlan
from repro.resil.replication import (
    FailoverReport,
    FlowDelta,
    ReplicationChannel,
    StandbyReplica,
)

__all__ = [
    "Checkpoint",
    "CheckpointError",
    "CheckpointSet",
    "FailoverReport",
    "FaultPlan",
    "FlowDelta",
    "ReplicationChannel",
    "StandbyReplica",
    "restore",
    "snapshot",
]
