"""One ingress-fault routine, three callers, one RNG sequence.

``ShardedRuntime.inject``, ``ProcessShardedRuntime.inject`` and
``ChainRuntime.inject`` all consult the fault plan through
:func:`repro.net.dpdk.ingress_fault` — the two sharded front ends by
way of their shared admission, ``SteeringFront._admit``. The same
seeded plan (drop + corrupt + delay + reorder) over the same schedule
must therefore draw the plan's RNG identically behind every one of
them: equal wire tallies, equal plan ledgers, equal delivered arrival
stamps, and — the NF being a no-op — equal bytes out in equal order.
"""

from repro.chain import ChainSpec, ChainStage, launch_chain
from repro.chain import spec as chain_spec
from repro.nat.noop import NoopForwarder
from repro.net import dpdk
from repro.net.app import PROCESS, THREADED_DETERMINISTIC, RuntimeSpec, launch
from repro.packets.builder import make_udp_packet
from repro.packets.headers import Packet
from repro.resil.faults import FaultPlan


def seeded_plan():
    return (
        FaultPlan(seed=20170821)
        .link_drop(start_us=0, end_us=900, probability=0.2)
        .link_corrupt(start_us=100, probability=0.25)
        .link_delay(7, start_us=300, end_us=700)
        .reorder(probability=0.4)
    )


def _noop(_config):
    return NoopForwarder()


LAUNCHERS = {
    "sharded": lambda plan: launch(
        RuntimeSpec(
            nf_factory=_noop, execution=THREADED_DETERMINISTIC, fault_plan=plan
        )
    ),
    "process": lambda plan: launch(
        RuntimeSpec(nf_factory=_noop, execution=PROCESS, fault_plan=plan)
    ),
    "chain": lambda plan: launch_chain(
        ChainSpec(stages=(ChainStage("noop", _noop),), fault_plan=plan)
    ),
}


def run(kind, monkeypatch):
    """Drive the schedule; everything observable about the plan's draws."""
    verdicts = []
    real = dpdk.ingress_fault

    def recording(plan, tally, packet, timestamp, scope):
        hit = real(plan, tally, packet, timestamp, scope)
        verdicts.append(None if hit is None else (hit[1], hit[2]))
        return hit

    with monkeypatch.context() as patch:
        # Both sharded front ends admit through ``SteeringFront._admit``
        # (in dpdk); the chain binds the routine by name at import.
        for module in (dpdk, chain_spec):
            assert module.ingress_fault is real
            patch.setattr(module, "ingress_fault", recording)
        plan = seeded_plan()
        runtime = LAUNCHERS[kind](plan)
        try:
            sent = []
            for i in range(120):
                frame = make_udp_packet(
                    "10.0.0.1", "203.0.113.9", 1024 + i, 2000 + i
                ).to_bytes()
                runtime.inject(0, Packet.from_bytes(frame, 0), 10 * i)
                if i % 8 == 7:
                    runtime.main_loop_burst(10 * i)
                    sent += [p.wire_bytes() for _port, _ts, p in runtime.collect()]
            causes = runtime.drop_causes()
        finally:
            runtime.stop()
    return {
        "dropped": causes["fault_wire_dropped"],
        "corrupted": causes["fault_wire_corrupted"],
        "ledger": dict(plan.applied),
        "verdicts": verdicts,
        "sent": sent,
    }


def test_three_callers_draw_the_plan_identically(monkeypatch):
    sharded = run("sharded", monkeypatch)
    # The plan must actually bite, every way it can.
    assert sharded["dropped"] > 0 and sharded["corrupted"] > 0
    assert set(sharded["ledger"]) == {
        "link-drop",
        "link-corrupt",
        "link-delay",
        "reorder",
    }
    delivered = [v for v in sharded["verdicts"] if v is not None]
    assert len(delivered) == 120 - sharded["dropped"] == len(sharded["sent"])
    assert any(reorder for _stamp, reorder in delivered)
    for kind in ("process", "chain"):
        assert run(kind, monkeypatch) == sharded, kind
