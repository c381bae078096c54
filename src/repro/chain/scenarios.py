"""Operational scenarios over live chain traffic, with measured SLAs.

sonic-mgmt-style scenario tests, scaled to this repo: each scenario
stands up a real service chain, offers real traffic round by round, and
performs one disruptive operation mid-run — a warm upgrade via chain
checkpoint/restore, an active/standby promotion of a single stage, or a
seeded chaos soak. Loss, disruption window and flow survival are
**measured from the traffic that actually exited the chain**, never
modeled. Each scenario returns one record that carries its measurements
beside the budgets it declares; :func:`scenario_breaches` judges it.

Definitions:

- *offered/delivered/lost*: packets injected on the chain's inward edge
  vs. packets that exited the outward edge, totaled over every round
  (probe rounds included).
- *availability*: ``delivered / offered``.
- *disruption window*: the span from the first lossy round to the last,
  in microseconds of traffic time (``0`` when no round lost anything) —
  the measured analogue of a failover MTTR.
- *flows lost*: flows whose externally visible NAT mapping after the
  disruption differs from the mapping observed before it (a mapping
  that changed mid-connection resets real connections, even if packets
  flow again).
- *action wall time*: host wall-clock microseconds spent inside the
  disruptive control-plane action itself (checkpoint + launch + restore
  for the upgrade; promotion for the standby swap), reported for
  context but never SLA-gated — wall clock is machine-dependent,
  traffic-time loss is not.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.chain.spec import ChainRuntime, ChainSpec, ChainStage, launch_chain
from repro.nat.config import NatConfig
from repro.nat.firewall import VigFirewall
from repro.nat.limiter import LimiterConfig, VigLimiter
from repro.nat.vignat import VigNat
from repro.packets.builder import make_udp_packet
from repro.resil.faults import FaultPlan

#: Traffic time per round, in microseconds.
TICK_US = 1_000

#: A scenario's outcome: the record ``BENCH_chain.json`` commits.
Record = Dict[str, object]


def scenario_breaches(record: Record) -> List[str]:
    """Human-readable SLA violations for one record (empty = pass)."""
    sla, scenario = record["sla"], record["scenario"]
    offered = record["offered"]
    availability = record["delivered"] / offered if offered else 1.0
    breaches = []
    if availability < sla["min_availability"]:
        breaches.append(
            f"{scenario}: availability {availability:.4f} "
            f"below floor {sla['min_availability']:.4f}"
        )
    if record["disruption_us"] > sla["max_disruption_us"]:
        breaches.append(
            f"{scenario}: disruption window {record['disruption_us']} us "
            f"over budget {sla['max_disruption_us']} us"
        )
    if record["flows_lost"] > sla["max_flows_lost"]:
        breaches.append(
            f"{scenario}: {record['flows_lost']} flow mapping(s) lost "
            f"(budget {sla['max_flows_lost']})"
        )
    if record["probe_lost"] > sla["max_probe_loss"]:
        breaches.append(
            f"{scenario}: {record['probe_lost']} post-disruption probe "
            f"packet(s) lost (budget {sla['max_probe_loss']})"
        )
    return breaches


# -- the reference chain -------------------------------------------------------
def default_chain_spec(
    execution: str = "inline",
    fastpath: str = "off",
    max_flows: int = 1024,
    **overrides,
) -> ChainSpec:
    """The scenario suite's reference chain: firewall → limiter → NAT.

    A deliberately mixed pipeline — connection tracking, per-source
    budgeting, address translation: three kinds of per-flow state, all
    three publishing fast-path hooks — on default 0/1 device numbering;
    the chain remaps devices at each handoff. The limiter budget is set
    far above any scenario's per-window offered load so it shapes
    nothing; it is in the chain to carry state through checkpoints, not
    to police the test traffic.
    """
    # A chain runs inline only. The keyword stays because
    # benchmarks/e2e/workloads.py passes execution="inline".
    if execution != "inline":
        raise ValueError(f"a chain runs inline only, not {execution!r}")
    nat_config = NatConfig(
        max_flows=max_flows, expiration_time=60_000_000, start_port=1000
    )
    stages = (
        ChainStage("firewall", lambda cfg: VigFirewall(cfg), nat_config),
        ChainStage(
            "limiter",
            lambda cfg: VigLimiter(cfg),
            LimiterConfig(capacity=max_flows, max_packets=1_000_000),
        ),
        ChainStage("nat", lambda cfg: VigNat(cfg), nat_config),
    )
    return ChainSpec(stages=stages, fastpath=fastpath, **overrides)


class _Traffic:
    """Deterministic per-flow UDP traffic with mapping harvesting."""

    def __init__(self, flows: int) -> None:
        if flows <= 0:
            raise ValueError("need at least one flow")
        if flows > 60_000:
            raise ValueError("flow identities are packed into dst_port")
        self.flows = flows
        self._templates = [
            make_udp_packet(
                f"10.0.{i // 250}.{i % 250 + 1}",
                "203.0.113.9",
                1024 + i,
                2000 + i,
                payload=b"chain-scenario",
            )
            for i in range(flows)
        ]

    def offer(self, chain: ChainRuntime, now_us: int) -> int:
        """Inject one packet per flow on the inward edge; returns count."""
        for template in self._templates:
            chain.inject(0, template.clone(), now_us)
        return self.flows

    def harvest(
        self, chain: ChainRuntime
    ) -> Tuple[int, Dict[int, Tuple[int, int]]]:
        """Count outward-edge exits; map flow id → (ext ip, ext port).

        Flows are identified by their unique destination port, which no
        NF in the chain rewrites; the NAT's externally visible mapping
        is the exit packet's source ip/port.
        """
        delivered = 0
        mappings: Dict[int, Tuple[int, int]] = {}
        for port_id, _ts, packet in chain.collect():
            if port_id != 1 or packet.l4 is None or packet.ipv4 is None:
                continue
            flow = packet.l4.dst_port - 2000
            if not 0 <= flow < self.flows:
                continue
            delivered += 1
            mappings[flow] = (packet.ipv4.src_ip, packet.l4.src_port)
        return delivered, mappings


@dataclass
class _Meter:
    """Accumulates per-round loss into the record's measurements."""

    offered: int = 0
    delivered: int = 0
    first_lossy_us: Optional[int] = None
    last_lossy_us: Optional[int] = None

    def round(self, now_us: int, offered: int, delivered: int) -> None:
        self.offered += offered
        self.delivered += delivered
        if delivered < offered:
            if self.first_lossy_us is None:
                self.first_lossy_us = now_us
            self.last_lossy_us = now_us + TICK_US

    @property
    def lost(self) -> int:
        return self.offered - self.delivered

    @property
    def disruption_us(self) -> int:
        if self.first_lossy_us is None:
            return 0
        return self.last_lossy_us - self.first_lossy_us


def _turn(
    chain: ChainRuntime, traffic: _Traffic, meter: _Meter, now_us: int
) -> Dict[int, Tuple[int, int]]:
    """Offer one round, run one chain turn, meter what came out."""
    offered = traffic.offer(chain, now_us)
    chain.main_loop_burst(now_us)
    delivered, mappings = traffic.harvest(chain)
    meter.round(now_us, offered, delivered)
    return mappings


def _record(
    scenario: str,
    rounds: int,
    flows: int,
    meter: _Meter,
    probe: _Meter,
    pre: Dict[int, Tuple[int, int]],
    post: Dict[int, Tuple[int, int]],
    action_wall_us: int,
    sla: Dict[str, object],
    **details: object,
) -> Record:
    """One scenario's measurements, budgets and verdict as its record.

    ``sla`` holds the scenario's availability floor and disruption
    budget. Packets may die, connections may not: every scenario's
    budget allows no lost NAT mapping and no lost post-disruption probe.
    """
    record = {
        "nf": "chain",
        "scenario": scenario,
        "offered": meter.offered,
        "delivered": meter.delivered,
        "lost": meter.lost,
        "availability": round(meter.delivered / meter.offered, 6),
        "disruption_us": meter.disruption_us,
        "action_wall_us": action_wall_us,
        "flows_total": flows,
        # Flows whose observed NAT mapping changed or vanished.
        "flows_lost": sum(1 for f, m in pre.items() if post.get(f) != m),
        "probe_offered": probe.offered,
        "probe_lost": probe.lost,
        "sla_ok": None,  # set below: the verdict reads the record
        "sla": {**sla, "max_flows_lost": 0, "max_probe_loss": 0},
        "details": {"rounds": rounds, "tick_us": TICK_US, **details},
    }
    record["sla_ok"] = not scenario_breaches(record)
    return record


# -- scenarios -----------------------------------------------------------------
def warm_upgrade(spec: ChainSpec, flows: int = 32, rounds: int = 16) -> Record:
    """Replace the whole chain mid-run via checkpoint/restore.

    Halfway through the run the live chain is snapshotted
    (``repro-ckpt-set/v1``, one frame per stage), a brand-new chain is
    launched from the same spec and restored from the set, and traffic
    cuts over. One round is deliberately left queued inside the old
    chain when it is retired — the measured in-flight loss of an
    upgrade without connection draining. Every NAT mapping observed
    before the upgrade must be observed unchanged after it.
    """
    if rounds < 6:
        raise ValueError("warm upgrade needs at least 6 rounds")
    chain = launch_chain(spec)
    traffic = _Traffic(flows)
    meter = _Meter()
    pre: Dict[int, Tuple[int, int]] = {}
    now_us = 0
    try:
        half = rounds // 2
        for _ in range(half):
            pre = _turn(chain, traffic, meter, now_us) or pre
            now_us += TICK_US

        # One round goes in but is never turned: it rides the old
        # chain's RX rings into retirement. Counted as offered, lost.
        meter.round(now_us, traffic.offer(chain, now_us), 0)
        now_us += TICK_US

        started_ns = time.perf_counter_ns()
        snapshot = chain.checkpoint(now_us)
        upgraded = launch_chain(spec)
        upgraded.restore(snapshot)
        action_wall_us = (time.perf_counter_ns() - started_ns) // 1_000
        chain.stop()
        chain = upgraded

        post: Dict[int, Tuple[int, int]] = {}
        probe = _Meter()
        for _ in range(rounds - half - 1):
            mappings = _turn(chain, traffic, meter, now_us)
            probe.round(now_us, traffic.flows, len(mappings))
            post = mappings or post
            now_us += TICK_US
    finally:
        chain.stop()
    return _record(
        "warm-upgrade",
        rounds,
        flows,
        meter,
        probe,
        pre,
        post,
        action_wall_us,
        {"min_availability": 0.90, "max_disruption_us": 2 * TICK_US},
        checkpoint_stages=snapshot.workers,
    )


def promote_stage(
    spec: ChainSpec,
    stage_index: Optional[int] = None,
    flows: int = 32,
    rounds: int = 16,
    down_rounds: int = 2,
) -> Record:
    """Kill one stage mid-run, then promote a warm standby for it.

    After every completed round the stage's state is checkpointed (the
    standby's sync stream). Mid-run the stage fails: traffic reaching it
    blackholes for ``down_rounds`` rounds — the *measured* disruption
    window — then a fresh engine is promoted from the last sync and
    traffic resumes. Because the sync is per-round, the promoted stage
    carries every mapping the dead one had.
    """
    if stage_index is None:
        stage_index = len(spec.stages) - 1
    if rounds < down_rounds + 4:
        raise ValueError("promotion needs rounds >= down_rounds + 4")
    chain = launch_chain(spec)
    traffic = _Traffic(flows)
    meter = _Meter()
    pre: Dict[int, Tuple[int, int]] = {}
    now_us = 0
    try:
        half = (rounds - down_rounds) // 2
        sync = None
        for _ in range(half):
            pre = _turn(chain, traffic, meter, now_us) or pre
            sync = chain.checkpoint_stage(stage_index, now_us)
            now_us += TICK_US

        chain.fail_stage(stage_index)
        for _ in range(down_rounds):
            _turn(chain, traffic, meter, now_us)
            now_us += TICK_US

        started_ns = time.perf_counter_ns()
        chain.swap_stage(stage_index, sync)
        action_wall_us = (time.perf_counter_ns() - started_ns) // 1_000

        post: Dict[int, Tuple[int, int]] = {}
        probe = _Meter()
        for _ in range(rounds - half - down_rounds):
            mappings = _turn(chain, traffic, meter, now_us)
            probe.round(now_us, traffic.flows, len(mappings))
            post = mappings or post
            now_us += TICK_US
    finally:
        chain.stop()
    return _record(
        "promote-stage",
        rounds,
        flows,
        meter,
        probe,
        pre,
        post,
        action_wall_us,
        {"min_availability": 0.75, "max_disruption_us": (down_rounds + 1) * TICK_US},
        stage=spec.stages[stage_index].name,
        down_rounds=down_rounds,
    )


def chaos_soak(
    spec: ChainSpec, flows: int = 32, rounds: int = 24, seed: int = 4242
) -> Record:
    """Soak the chain through a seeded mid-run fault storm.

    The middle third of the run gets a deterministic
    :class:`~repro.resil.faults.FaultPlan` at the chain's wire-inject
    choke point: probabilistic drops, corruption, a fixed delay, and
    packet reordering. Outside the window the wire is clean, so the
    post-storm probe rounds must be lossless and every pre-storm NAT
    mapping must survive (chaos may eat packets, never state).
    """
    if rounds < 9:
        raise ValueError("chaos soak needs at least 9 rounds")
    window_start = (rounds // 3) * TICK_US
    window_end = (2 * rounds // 3) * TICK_US
    plan = (
        FaultPlan(seed)
        .link_drop(window_start, window_end, probability=0.05)
        .link_corrupt(window_start, window_end, probability=0.02)
        .link_delay(50, window_start, window_end)
        .reorder(window_start, window_end, probability=0.2)
    )
    chain = launch_chain(spec.with_(fault_plan=plan))
    traffic = _Traffic(flows)
    meter = _Meter()
    probe = _Meter()
    pre: Dict[int, Tuple[int, int]] = {}
    post: Dict[int, Tuple[int, int]] = {}
    now_us = 0
    try:
        for _ in range(rounds):
            mappings = _turn(chain, traffic, meter, now_us)
            if now_us + TICK_US <= window_start:
                pre = mappings or pre
            elif now_us >= window_end:
                probe.round(now_us, traffic.flows, len(mappings))
                post = mappings or post
            now_us += TICK_US
    finally:
        chain.stop()
    return _record(
        "chaos-soak",
        rounds,
        flows,
        meter,
        probe,
        pre,
        post,
        0,
        {
            "min_availability": 0.85,
            "max_disruption_us": window_end - window_start + TICK_US,
        },
        seed=seed,
        window_us=[window_start, window_end],
        faults_applied=dict(plan.applied),
    )


def chain_scenarios(spec: ChainSpec, flows: int = 32, rounds: int = 16) -> List[Record]:
    """Run the full scenario suite against one chain spec."""
    return [
        warm_upgrade(spec, flows=flows, rounds=rounds),
        promote_stage(spec, flows=flows, rounds=rounds),
        chaos_soak(spec, flows=flows, rounds=max(rounds, 9)),
    ]


__all__ = [
    "TICK_US",
    "chain_scenarios",
    "chaos_soak",
    "default_chain_spec",
    "promote_stage",
    "scenario_breaches",
    "warm_upgrade",
]
