"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``verify {nat,cgnat,firewall,bridge,limiter,discard}`` — run the
  Vigor pipeline and print the Fig. 7 proof report (exit code 1 when
  not verified). ``cgnat`` proves the stateless NAT's port bijection
  by concolic execution instead of the stateful refinement. For the
  discard NF, ``--model`` selects one of the three Fig. 4 ring models.
  ``--emit-tasks FILE`` writes the Fig. 10-style verification tasks.
- ``demo`` — translate a conversation through the verified NAT.
- ``experiments {fig12,fig13,fig14,burst,shard,fastpath,failover,cgnat,procs,chain,metrics,verification}``
  — regenerate one of the paper's evaluation artifacts at quick scale
  (``burst`` is the burst-size sweep of the burst-mode data path,
  ``shard`` the worker-count scaling sweep of the sharded data path,
  ``fastpath`` the microflow-cache locality sweep with its on/off
  differential check — exit code 1 on any output divergence, with the
  first diverging packet dumped; ``failover`` the kill-and-promote
  availability sweep across replication lags — exit code 1 when
  recovery exceeds the loss budget, notably any established-flow loss
  at lag 0; ``cgnat`` the stateless-CGNAT scaling sweep — exit code 1
  when the deterministic NAT's memory footprint is not flat across
  10x/100x flow counts; ``chain`` the operational scenario suite over
  the firewall → limiter → NAT service chain — exit code 1 when any
  measured loss, disruption window or mapping survival breaches its
  declared SLA; ``metrics`` a merged observability snapshot
  from a sharded run).
- ``metrics`` — the same merged snapshot with knobs: worker count,
  fastpath on/off, table/Prometheus/JSON rendering, file output.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.nat.config import NatConfig


def _proof_cache_key(nf: str) -> str:
    """Fingerprint of everything the proof depends on.

    Hashes the source of the stateless logic, the models, the contracts,
    the semantics and the toolchain itself, so any edit invalidates the
    cached proof — the soundness requirement for caching proofs at all.
    """
    import hashlib
    import inspect

    import repro.nat.bridge
    import repro.nat.core_logic
    import repro.nat.firewall
    import repro.verif.contracts
    import repro.verif.context
    import repro.verif.engine
    import repro.verif.models.bridge
    import repro.verif.models.nat
    import repro.verif.models.ring
    import repro.verif.nf_env
    import repro.verif.nf_env_bridge
    import repro.verif.nf_env_fw
    import repro.verif.semantics
    import repro.verif.solver
    import repro.verif.validator

    hasher = hashlib.sha256()
    hasher.update(nf.encode())
    for module in (
        repro.nat.core_logic,
        repro.nat.firewall,
        repro.nat.bridge,
        repro.verif.contracts,
        repro.verif.context,
        repro.verif.engine,
        repro.verif.models.nat,
        repro.verif.models.bridge,
        repro.verif.models.ring,
        repro.verif.nf_env,
        repro.verif.nf_env_bridge,
        repro.verif.nf_env_fw,
        repro.verif.semantics,
        repro.verif.solver,
        repro.verif.validator,
    ):
        hasher.update(inspect.getsource(module).encode())
    return hasher.hexdigest()


def _cmd_verify(args: argparse.Namespace) -> int:
    import json
    import pathlib

    from repro.verif.engine import ExhaustiveSymbolicEngine
    from repro.verif.report import ProofReport
    from repro.verif.validator import Validator

    if args.nf == "cgnat":
        # The stateless CGNAT's proof is a bijectivity argument over
        # arithmetic, not a refinement against RFC semantics, so it has
        # its own report shape and skips the Validator/cache machinery.
        from repro.verif.nf_env_cgnat import verify_cgnat

        report = verify_cgnat()
        print(report.render())
        if args.coverage and report.result is not None:
            print()
            print(report.result.render_coverage())
        return 0 if report.verified else 1

    cache_file = None
    if args.cache:
        cache_dir = pathlib.Path(args.cache)
        cache_dir.mkdir(parents=True, exist_ok=True)
        key = _proof_cache_key(f"{args.nf}:{getattr(args, 'model', '')}")
        cache_file = cache_dir / f"{args.nf}-{key[:16]}.json"
        if cache_file.exists():
            report = ProofReport.from_dict(json.loads(cache_file.read_text()))
            print(report.render())
            print(f"\n(proof loaded from cache: {cache_file})")
            return 0 if report.verified else 1

    config = NatConfig()
    if args.nf == "nat":
        from repro.verif.nf_env import vignat_symbolic_body
        from repro.verif.semantics import NatSemantics

        body, semantics, name = vignat_symbolic_body(config), NatSemantics(config), "VigNat"
    elif args.nf == "bridge":
        from repro.nat.bridge import BridgeConfig
        from repro.verif.nf_env_bridge import BridgeSemantics, bridge_symbolic_body

        bcfg = BridgeConfig()
        body, semantics, name = (
            bridge_symbolic_body(bcfg),
            BridgeSemantics(bcfg),
            "VigBridge",
        )
    elif args.nf == "limiter":
        from repro.nat.limiter import LimiterConfig
        from repro.verif.nf_env_limiter import (
            LimiterSemantics,
            limiter_symbolic_body,
        )

        lcfg = LimiterConfig()
        body, semantics, name = (
            limiter_symbolic_body(lcfg),
            LimiterSemantics(lcfg),
            "VigLimiter",
        )
    elif args.nf == "firewall":
        from repro.verif.nf_env_fw import firewall_symbolic_body
        from repro.verif.semantics import FirewallSemantics

        body, semantics, name = (
            firewall_symbolic_body(config),
            FirewallSemantics(config),
            "VigFirewall",
        )
    else:
        from repro.verif.models.ring import (
            GoodRingModel,
            OverApproximateRingModel,
            UnderApproximateRingModel,
        )
        from repro.verif.nf_env import discard_symbolic_body
        from repro.verif.semantics import DiscardSemantics

        model = {
            "good": GoodRingModel,
            "over": OverApproximateRingModel,
            "under": UnderApproximateRingModel,
        }[args.model]
        body, semantics, name = (
            discard_symbolic_body(model),
            DiscardSemantics(),
            f"discard({args.model})",
        )

    result = ExhaustiveSymbolicEngine().explore(body)
    report = Validator(semantics).validate(result, name)
    print(report.render())

    if args.coverage:
        print()
        print(result.render_coverage())
        one_sided = result.one_sided_branches()
        if one_sided:
            print(f"WARNING: {len(one_sided)} one-sided branch site(s)")

    if cache_file is not None:
        cache_file.write_text(json.dumps(report.to_dict(), indent=2))
        print(f"(proof cached at {cache_file})")

    if args.emit_tasks:
        from repro.verif.codegen import render_all_tasks

        text = render_all_tasks(result.tree.paths, semantics, name)
        with open(args.emit_tasks, "w") as handle:
            handle.write(text + "\n")
        print(f"\nverification tasks written to {args.emit_tasks}")

    return 0 if report.verified else 1


def _cmd_demo(_args: argparse.Namespace) -> int:
    from repro.nat.vignat import VigNat
    from repro.packets.addresses import ip_to_str
    from repro.packets.builder import make_udp_packet

    config = NatConfig()
    nat = VigNat(config)
    packet = make_udp_packet("10.0.0.5", "8.8.8.8", 5353, 53, device=0)
    out = nat.process(packet, 1_000_000)[0]
    print(
        f"10.0.0.5:5353 -> 8.8.8.8:53 translated to "
        f"{ip_to_str(out.ipv4.src_ip)}:{out.l4.src_port} -> "
        f"{ip_to_str(out.ipv4.dst_ip)}:{out.l4.dst_port}"
    )
    reply = make_udp_packet("8.8.8.8", config.external_ip, 53, out.l4.src_port, device=1)
    back = nat.process(reply, 1_100_000)[0]
    print(
        f"reply delivered to {ip_to_str(back.ipv4.dst_ip)}:{back.l4.dst_port} "
        f"(flows: {nat.flow_count()})"
    )
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.eval.experiments import (
        EvalSettings,
        latency_ccdf,
        latency_vs_occupancy,
        throughput_sweep,
    )
    from repro.eval.reporting import (
        render_fig12,
        render_fig13,
        render_fig14,
        render_verification,
    )

    if args.artifact == "verification":
        from repro.eval.verification_stats import collect

        print(render_verification(collect()))
        return 0
    if args.artifact == "fig12":
        settings = EvalSettings(measure_seconds=0.4)
        points = latency_vs_occupancy(
            occupancies=(1_000, 10_000, 30_000), settings=settings
        )
        print(render_fig12(points))
        return 0
    if args.artifact == "fig13":
        settings = EvalSettings(measure_seconds=0.4)
        series = latency_ccdf(background_flows=10_000, settings=settings)
        print(render_fig13(series, background_flows=10_000))
        return 0
    if args.artifact == "burst":
        from repro.eval.experiments import burst_size_sweep
        from repro.eval.reporting import render_burst_sweep

        print(render_burst_sweep(burst_size_sweep()))
        return 0
    if args.artifact == "shard":
        from repro.eval.experiments import shard_sweep
        from repro.eval.reporting import render_shard_sweep

        print(
            render_shard_sweep(
                shard_sweep(worker_counts=(1, 2, 4), packet_count=4_000)
            )
        )
        return 0
    if args.artifact == "fastpath":
        from repro.eval.experiments import fastpath_sweep
        from repro.eval.reporting import render_fastpath_sweep

        points = fastpath_sweep(flow_counts=(64, 1_024), packet_count=4_000)
        print(render_fastpath_sweep(points))
        return (
            1
            if any(not (p.identical and p.raw_identical) for p in points)
            else 0
        )
    if args.artifact == "failover":
        from repro.eval.experiments import (
            FailoverBudget,
            failover_breaches,
            failover_sweep,
        )
        from repro.eval.reporting import render_failover

        points = failover_sweep(lags=(0, 8, 64), flow_count=128)
        print(render_failover(points))
        breaches = failover_breaches(points, FailoverBudget())
        if breaches:
            print("\nloss budget EXCEEDED:")
            for breach in breaches:
                print(f"  - {breach}")
            return 1
        print("\nloss budget respected (zero established-flow loss at lag 0)")
        return 0
    if args.artifact == "cgnat":
        from repro.eval.experiments import cgnat_flatness_breaches, cgnat_sweep
        from repro.eval.reporting import render_cgnat_sweep

        # 1x / 10x / 100x of the base regime: the point is watching the
        # stateless NAT's footprint stay put while the stateful ones grow.
        points = cgnat_sweep(flow_counts=(512, 5_120, 51_200))
        print(render_cgnat_sweep(points))
        breaches = cgnat_flatness_breaches(points)
        if breaches:
            print("\nmemory-flatness invariant VIOLATED:")
            for breach in breaches:
                print(f"  - {breach}")
            return 1
        print("\nmemory flat: det-nat state independent of flow count")
        return 0
    if args.artifact == "procs":
        from repro.eval.experiments import procs_scaling_breaches, procs_sweep
        from repro.eval.reporting import render_procs_sweep

        # Both transports by default: pipe and shm must each be
        # byte-identical to the oracle and inside the scaling budget.
        points = procs_sweep(worker_counts=(1, 2, 4), packet_count=2_000)
        print(render_procs_sweep(points))
        breaches = procs_scaling_breaches(points)
        if breaches:
            print("\nprocess-runtime invariants VIOLATED:")
            for breach in breaches:
                print(f"  - {breach}")
            return 1
        print(
            "\nprocess runtime byte-identical to the oracle on every "
            "transport; scaling within budget"
        )
        return 0
    if args.artifact == "chain":
        from repro.chain import chain_breaches, chain_scenarios
        from repro.eval.reporting import render_chain_scenarios

        # The full operational suite over the reference chain (firewall
        # -> limiter -> NAT): warm upgrade, stage promotion, chaos soak.
        reports = chain_scenarios(flows=32, rounds=16)
        print(render_chain_scenarios(reports))
        breaches = chain_breaches(reports)
        if breaches:
            print("\nscenario SLA BREACHED:")
            for breach in breaches:
                print(f"  - {breach}")
            return 1
        print(
            "\nall scenario SLAs respected (measured loss, disruption "
            "and mapping survival within budget)"
        )
        return 0
    if args.artifact == "metrics":
        from repro.eval.experiments import collect_sharded_metrics
        from repro.eval.reporting import render_metrics
        from repro.obs.expo import render_prometheus

        snapshot = collect_sharded_metrics(workers=2)
        print(render_metrics(snapshot))
        print()
        print(render_prometheus(snapshot))
        return 0
    settings = EvalSettings(
        expiration_seconds=60.0, throughput_packets=10_000, throughput_iterations=6
    )
    results = throughput_sweep(flow_counts=(2_000,), settings=settings)
    print(render_fig14(results))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.eval.experiments import collect_sharded_metrics
    from repro.eval.reporting import render_metrics
    from repro.obs.expo import render_json, render_prometheus, write_snapshot_files

    snapshot = collect_sharded_metrics(
        workers=args.workers,
        fastpath="off" if args.no_fastpath else "compiled",
        execution=args.execution,
    )
    if args.format == "prom":
        print(render_prometheus(snapshot))
    elif args.format == "json":
        print(render_json(snapshot))
    else:
        print(render_metrics(snapshot))
    if args.output:
        paths = write_snapshot_files(snapshot, args.output, "metrics")
        for path in paths.values():
            print(f"wrote {path}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="A Formally Verified NAT (SIGCOMM 2017) — Python reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the Vigor proof pipeline")
    verify.add_argument(
        "nf", choices=["nat", "cgnat", "firewall", "bridge", "limiter", "discard"]
    )
    verify.add_argument(
        "--model",
        choices=["good", "over", "under"],
        default="good",
        help="ring model for the discard NF (Fig. 4)",
    )
    verify.add_argument(
        "--emit-tasks",
        metavar="FILE",
        help="write Fig. 10-style verification tasks to FILE",
    )
    verify.add_argument(
        "--coverage",
        action="store_true",
        help="print the branch-coverage report from exhaustive exploration",
    )
    verify.add_argument(
        "--cache",
        metavar="DIR",
        help="cache the proof in DIR, keyed by a source fingerprint "
        "(any edit to the NF, models, contracts or toolchain re-proves)",
    )
    verify.set_defaults(run=_cmd_verify)

    demo = sub.add_parser("demo", help="translate a conversation through VigNat")
    demo.set_defaults(run=_cmd_demo)

    experiments = sub.add_parser(
        "experiments", help="regenerate an evaluation artifact (quick scale)"
    )
    experiments.add_argument(
        "artifact",
        choices=[
            "fig12",
            "fig13",
            "fig14",
            "burst",
            "shard",
            "fastpath",
            "failover",
            "cgnat",
            "procs",
            "chain",
            "metrics",
            "verification",
        ],
    )
    experiments.set_defaults(run=_cmd_experiments)

    metrics = sub.add_parser(
        "metrics",
        help="collect a merged metrics snapshot from a sharded run",
    )
    metrics.add_argument(
        "--workers", type=int, default=2, help="worker count (default 2)"
    )
    metrics.add_argument(
        "--no-fastpath",
        action="store_true",
        help="run without the microflow cache",
    )
    metrics.add_argument(
        "--execution",
        choices=["threaded-deterministic", "process"],
        default="threaded-deterministic",
        help="runtime to collect from: the deterministic oracle or the "
        "process-per-shard runtime (default: threaded-deterministic)",
    )
    metrics.add_argument(
        "--format",
        choices=["table", "prom", "json"],
        default="table",
        help="output rendering (default: table)",
    )
    metrics.add_argument(
        "--output",
        metavar="DIR",
        help="also write DIR/metrics.metrics.json and DIR/metrics.prom",
    )
    metrics.set_defaults(run=_cmd_metrics)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
