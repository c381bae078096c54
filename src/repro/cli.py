"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``verify {nat,firewall,bridge,limiter,discard,cgnat}`` — run the
  proof of that name from :data:`repro.verif.proofs.PROOFS` and print
  the Fig. 7 proof report (exit code 1 when not verified). ``cgnat``
  proves the stateless NAT's port bijection by concolic execution
  instead of the stateful refinement. For the discard NF, ``--model``
  selects one of the three Fig. 4 ring models. ``--emit-tasks FILE``
  writes the Fig. 10-style verification tasks. A flag the chosen NF
  cannot honour is a usage error (exit code 2). A reader that closes
  the pipe early (``| head``) ends the command quietly with status 141.
- ``demo`` — translate a conversation through the verified NAT.
- ``experiments {fig12,fig13,fig14,metrics,verification}`` — regenerate
  one of the paper's evaluation artifacts at quick scale (``metrics`` is
  a merged observability snapshot from a sharded run).
- ``experiments {burst,shard,fastpath,failover,cgnat,procs,chain}`` —
  run one sweep of :mod:`repro.eval.sweeps` on exactly the grid CI's
  smoke job runs, print its table, and judge it by the sweep's claims
  (the same function the CI gate applies to ``BENCH_*.json``): exit
  code 1, with every violated claim listed, when one does not hold.
- ``metrics`` — the same merged snapshot with knobs: worker count,
  fastpath on/off, table/Prometheus/JSON rendering, file output.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import pathlib
import sys
from typing import List, Optional

from repro.nat.config import NatConfig

#: The packages a proof is about: the NFs and the libVig state they keep
#: (``nat``, ``libvig``), and the toolchain that proves them (``verif``).
_PROOF_PACKAGES = ("libvig", "nat", "verif")


def _source_bytes(path: pathlib.Path) -> bytes:
    return path.read_bytes()


def _proof_cache_key(nf: str) -> str:
    """Fingerprint of everything the proof depends on.

    Hashes every ``*.py`` under the packages above — the stateless
    logic, the models, the contracts, the semantics and the toolchain
    itself — so any edit invalidates the cached proof: the soundness
    requirement for caching proofs at all. The packages are walked, not
    listed module by module: a file the walk takes in needlessly costs a
    sub-second re-proof, a file a hand-kept list forgets is a stale
    "VERIFIED".
    """
    root = pathlib.Path(__file__).parent
    hasher = hashlib.sha256(nf.encode())
    for package in _PROOF_PACKAGES:
        for path in sorted((root / package).rglob("*.py")):
            hasher.update(path.relative_to(root).as_posix().encode())
            hasher.update(_source_bytes(path))
    return hasher.hexdigest()


def _cmd_verify(args: argparse.Namespace) -> int:
    import json

    from repro.verif.proofs import PROOFS
    from repro.verif.report import ProofReport

    if args.nf != "discard" and args.model is not None:
        args.reject(f"--model selects the discard NF's ring model; {args.nf} has none")
    if args.nf == "cgnat":
        # The stateless CGNAT's proof is a bijectivity argument over
        # arithmetic, not a refinement against RFC semantics, so it has
        # its own report shape: no ProofReport to cache, no woven
        # obligations to emit.
        if args.cache or args.emit_tasks:
            args.reject("cgnat's bijectivity proof has no --cache or --emit-tasks")
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
        key = _proof_cache_key(f"{args.nf}:{args.model or ''}")
        cache_file = cache_dir / f"{args.nf}-{key[:16]}.json"
        # A cached report holds no traces, so it cannot serve a request
        # for the tasks or the coverage: those re-prove (and refresh it).
        if cache_file.exists() and not (args.emit_tasks or args.coverage):
            report = ProofReport.from_dict(json.loads(cache_file.read_text()))
            print(report.render())
            print(f"\n(proof loaded from cache: {cache_file})")
            return 0 if report.verified else 1

    factory = PROOFS[args.nf]
    proof = factory(args.model) if args.model is not None else factory()
    report, result = proof.prove()
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

        text = render_all_tasks(result.tree.paths, proof.semantics, proof.name)
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
    from repro.eval.sweeps import SWEEPS

    sweep = SWEEPS.get(args.artifact)
    if sweep is not None:
        records = sweep.run(**sweep.grids["smoke"])
        print(sweep.render(records))
        breaches = sweep.claims(records)
        if breaches:
            print(f"\n{sweep.name} claims VIOLATED:")
            for breach in breaches:
                print(f"  - {breach}")
            return 1
        print(f"\nall {sweep.name} claims hold")
        return 0

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
    from repro.eval.sweeps import SWEEPS
    from repro.verif.proofs import PROOFS, RING_MODELS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="A Formally Verified NAT (SIGCOMM 2017) — Python reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the Vigor proof pipeline")
    verify.add_argument("nf", choices=[*PROOFS, "cgnat"])
    verify.add_argument(
        "--model",
        choices=list(RING_MODELS),
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
    verify.set_defaults(run=_cmd_verify, reject=verify.error)

    demo = sub.add_parser("demo", help="translate a conversation through VigNat")
    demo.set_defaults(run=_cmd_demo)

    experiments = sub.add_parser(
        "experiments",
        help="regenerate an evaluation artifact, or run a sweep and judge its claims",
    )
    experiments.add_argument(
        "artifact",
        choices=["fig12", "fig13", "fig14", *SWEEPS, "metrics", "verification"],
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
    try:
        status = args.run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``repro verify bridge | head -3``).
        # Nothing more can be printed: point stdout at /dev/null so the
        # interpreter's exit-time flush stays quiet, and exit the way a
        # shell reports a writer killed by SIGPIPE (128 + 13).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return status


if __name__ == "__main__":
    sys.exit(main())
