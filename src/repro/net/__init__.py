"""The network substrate: a discrete-event stand-in for the paper's testbed.

The paper evaluates on two Xeon machines with 10 GbE NICs, MoonGen as
the tester and DPDK under the NFs (Fig. 11). This package simulates that
setup closely enough to reproduce the evaluation's *relative* results:

- :mod:`repro.net.mbuf` — a finite packet-buffer pool with leak tracking,
- :mod:`repro.net.nic` — ports with bounded RX descriptor rings, plus
  the :class:`RssNic` multi-queue steering stage,
- :mod:`repro.net.rss` — RSS 5-tuple hashing and the NAT-aware
  :class:`NatSteering` (return traffic routed by external-port
  ownership — see ``docs/SCALING.md``),
- :mod:`repro.net.dpdk` — a DPDK-like burst API over the ports
  (:class:`DpdkRuntime`); one NF on it is a :class:`Shard`, the inline
  runtime, and N of them behind steering are :class:`ShardedRuntime`
  (the deterministic verification oracle),
- :mod:`repro.net.procrun` — the same sharded shape with one OS
  process per shard (:class:`ProcessShardedRuntime`): real wall-clock
  scale-out, byte-identical to the oracle,
- :mod:`repro.net.app` — the deployment facade: describe a deployment
  as a frozen :class:`RuntimeSpec` and :func:`launch` it into a
  :class:`Runtime` (the construction path applications use; it builds
  the runtime classes above),
- :mod:`repro.net.costmodel` — per-packet latency/service costs derived
  from the NF's *actual* abstract work (probe counts, hook traversals,
  checksum bytes) plus calibrated constants,
- :mod:`repro.net.testbed` — the RFC 2544 tester/middlebox pair, single
  core or sharded,
- :mod:`repro.net.moongen` — workload generation and measurement.

The names exported here are the package's stable public surface; code
outside the repository should import from ``repro.net`` directly.
"""

from repro.net.app import (
    EXECUTION_MODES,
    Runtime,
    RuntimeSpec,
    drive,
    launch,
    replay_pcap,
)
from repro.net.costmodel import CostModel
from repro.net.dpdk import DpdkRuntime, Shard, ShardedRuntime
from repro.net.mbuf import MbufPool
from repro.net.procrun import (
    TRANSPORT_PIPE,
    TRANSPORT_SHM,
    TRANSPORTS,
    ProcessShardedRuntime,
    WorkerCrashed,
)
from repro.net.shmring import RingClosed, ShmRing
from repro.net.moongen import (
    BackgroundFlows,
    ConstantRateFlows,
    PacketSource,
    ProbeFlows,
    merge_sources,
)
from repro.net.nic import Port, RssNic
from repro.net.rss import NatSteering, rss_hash_packet, rss_queue
from repro.net.testbed import (
    LatencyStats,
    Rfc2544Testbed,
    ShardedRunResult,
    ThroughputResult,
)

__all__ = [
    "BackgroundFlows",
    "ConstantRateFlows",
    "CostModel",
    "DpdkRuntime",
    "EXECUTION_MODES",
    "LatencyStats",
    "MbufPool",
    "NatSteering",
    "PacketSource",
    "Port",
    "ProbeFlows",
    "ProcessShardedRuntime",
    "Rfc2544Testbed",
    "RingClosed",
    "RssNic",
    "Runtime",
    "RuntimeSpec",
    "Shard",
    "ShardedRunResult",
    "ShardedRuntime",
    "ShmRing",
    "TRANSPORTS",
    "TRANSPORT_PIPE",
    "TRANSPORT_SHM",
    "ThroughputResult",
    "WorkerCrashed",
    "drive",
    "launch",
    "merge_sources",
    "replay_pcap",
    "rss_hash_packet",
    "rss_queue",
]
