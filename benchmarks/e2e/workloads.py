"""The six workloads: what is launched, what traffic it sees, and why.

Each workload is a deployment spec (what ``launch`` / ``launch_chain``
receives), the same deployment on the verified slow path (the oracle every
output frame is checked against) and a traffic shape. ``repro`` is imported
inside the builders so this module loads without ``src`` on the path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

BURST = 32
#: Bursts in one lap of a stable schedule; every timed lap replays it.
LAP_BURSTS = 64
#: Segments that always run, whatever ``--seconds`` says: exact counters
#: and ``peak_rss_mib`` are read after exactly this much work.
MARK_SEGMENTS = 16
#: Single-frame turns after every segment.
PROBE_BATCH = 25
#: Long-lived flows of a stable schedule.
STABLE_FLOWS = 64
#: Churn: never-seen flows per burst; the rest of the burst goes to the
#: newest CHURN_RECENT frames; the warm-up that fills the table to ~5k flows.
CHURN_NEW_PER_BURST = 8
CHURN_RECENT = 64
CHURN_WARMUP_BURSTS = 640


@dataclass(frozen=True)
class Shape:
    """The traffic a workload offers (see traffic.py)."""

    kind: str  # "both-ways" | "nat-replies" | "churn"
    payload: int = 0  # 0: pad every frame to 64 bytes


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: Shape
    #: Bursts per timed segment (a whole number of laps when stable),
    #: sized to 0.05-0.15 s on the seed machine: short enough that the
    #: speed readings on either side describe the machine during it.
    segment_bursts: int
    chain: bool
    #: "in-process" or "pipe+shm": the traffic crosses no link either way.
    path: str
    spec: Callable[[], object]
    reference_spec: Callable[[], object]


def _noop_spec(execution: str):
    from repro.nat.noop import NoopForwarder
    from repro.net.app import RuntimeSpec

    return RuntimeSpec(
        nf_factory=lambda _config: NoopForwarder(),
        execution=execution,
        fastpath="off",
        burst_size=BURST,
    )


def _nat_spec(execution: str, fastpath: str, expiration_us: int = 0, **extra):
    from repro.nat.config import NatConfig
    from repro.nat.vignat import VigNat
    from repro.net.app import RuntimeSpec

    config = NatConfig(expiration_time=expiration_us) if expiration_us else NatConfig()
    return RuntimeSpec(
        nf_factory=VigNat,
        config=config,
        execution=execution,
        fastpath=fastpath,
        burst_size=BURST,
        **extra,
    )


def _chain_spec(fastpath: str):
    from repro.chain import default_chain_spec

    return default_chain_spec(execution="inline", fastpath=fastpath, max_flows=4096)


_ORACLE = "threaded-deterministic"
_PROC = dict(workers=1, transport="shm")
_CHURN_EXPIRY_US = 20_000
_HOT = Shape("nat-replies")

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "noop-64",
        "bare forwarding at the smallest frame: only packets + net.nic/mbuf/dpdk "
        "work, so substrate changes show most and NF, fast-path and transport "
        "changes must show nothing",
        Shape("both-ways"),
        segment_bursts=4 * LAP_BURSTS,
        chain=False,
        path="in-process",
        spec=lambda: _noop_spec("inline"),
        reference_spec=lambda: _noop_spec(_ORACLE),
    ),
    Workload(
        "nat-hot",
        "64 long-lived NAT flows, half replies: >99% fast-path hits, so parse, "
        "flow key, cached rewrite and serialize dominate and the slow path idles",
        _HOT,
        segment_bursts=2 * LAP_BURSTS,
        chain=False,
        path="in-process",
        spec=lambda: _nat_spec("inline", "compiled"),
        reference_spec=lambda: _nat_spec(_ORACLE, "off"),
    ),
    Workload(
        "nat-churn",
        "8 never-seen flows per burst beside 24 frames to the newest 64, 20 ms "
        "expiry: the cache generation moves every burst, so the slow path and "
        "libvig allocate/expire/erase do the work",
        Shape("churn"),
        segment_bursts=LAP_BURSTS,
        chain=False,
        path="in-process",
        spec=lambda: _nat_spec("inline", "compiled", _CHURN_EXPIRY_US),
        reference_spec=lambda: _nat_spec(_ORACLE, "off", _CHURN_EXPIRY_US),
    ),
    Workload(
        "nat-proc",
        "nat-hot's frames through one worker process over shm rings: same NF "
        "work, so the difference to nat-hot is the process tax",
        _HOT,
        segment_bursts=LAP_BURSTS,
        chain=False,
        path="pipe+shm",
        spec=lambda: _nat_spec("process", "compiled", **_PROC),
        reference_spec=lambda: _nat_spec(_ORACLE, "off"),
    ),
    Workload(
        "nat-proc-mtu",
        "nat-proc with 1,400-byte payloads: the per-byte side of the transport "
        "(multi-slot ring spans, copies, large-payload parse)",
        Shape("nat-replies", payload=1400),
        segment_bursts=LAP_BURSTS,
        chain=False,
        path="pipe+shm",
        spec=lambda: _nat_spec("process", "compiled", **_PROC),
        reference_spec=lambda: _nat_spec(_ORACLE, "off"),
    ),
    Workload(
        "chain-hot",
        "nat-hot's frames through firewall -> limiter -> NAT: three net.dpdk "
        "substrates and repro.chain handoffs; the only workload where the "
        "handoff currency matters",
        _HOT,
        segment_bursts=LAP_BURSTS,
        chain=True,
        path="in-process",
        spec=lambda: _chain_spec("compiled"),
        reference_spec=lambda: _chain_spec("off"),
    ),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


def launch_workload(workload: Workload, reference: bool = False):
    """``launch`` / ``launch_chain`` the workload (or its oracle)."""
    spec = (workload.reference_spec if reference else workload.spec)()
    if workload.chain:
        from repro.chain import launch_chain

        return launch_chain(spec)
    from repro.net.app import launch

    return launch(spec)
