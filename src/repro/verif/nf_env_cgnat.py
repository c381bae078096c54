"""Concolic bijectivity proof for the stateless CGNAT.

The deterministic NAT's claim is arithmetic, not behavioral: the
subscriber/port → external-port map of :mod:`repro.nat.cgnat` is a
bijection. This module discharges that claim by running the *same*
stateless function the deployed NF runs
(:func:`~repro.nat.cgnat.det_nat_loop_iteration`) under the exhaustive
symbolic engine — the Step 2(a) substitution of §3 again, with one
twist.

The in-house solver speaks difference logic: sums of a symbol and
constants, no multiplication. The bijection's ``subscriber *
ports_per_subscriber`` term would fall outside it — so the two places
that term lives (the forward block lookup and the return-path inverse)
sit behind environment hooks, and the symbolic environment resolves
them *concolically*: it forks one path per concrete subscriber (an
equality branch on the symbolic address, a range branch on the symbolic
port) and returns the subscriber's block start as a **constant**. On
each resulting path the multiplication has been evaluated away, every
port expression is ``symbol ± constant``, and the per-path proof
obligations — round-trip identity, block containment, untouched-field
preservation, u16 overflow freedom (via the automatic ``check_arith``
on every SymInt add/sub) — are all difference-logic facts the solver
can settle.

Per-path round trips compose into full bijectivity with two concrete
side conditions this module checks directly (they quantify over
subscribers, not packets, so enumeration *is* the proof): the
subscribers' port blocks are pairwise disjoint and exactly tile the
external domain, and the ``NatConfig.partition`` shard ranges are
pairwise disjoint and exactly tile the same domain. Injectivity: two
distinct internal endpoints map into different blocks (different
subscriber) or different offsets within one block (different port).
Surjectivity: every domain port lies in exactly one block, and the
return path's per-path check proves it maps back to the unique internal
endpoint the forward path would have sent there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.nat.cgnat import CgnatConfig, det_nat_loop_iteration
from repro.verif.context import ExplorationContext
from repro.verif.engine import ExhaustiveSymbolicEngine, ExplorationResult
from repro.verif.expr import W8, W16, W32
from repro.verif.models.base import record_send
from repro.verif.models.nat import SymbolicPacket
from repro.verif.nf_env import symbolic_body
from repro.verif.symbols import SymInt


class SymbolicCgnatEnv:
    """The DetNatEnv over symbols: block lookups resolved concolically."""

    def __init__(self, ctx: ExplorationContext, config: CgnatConfig) -> None:
        self.ctx = ctx
        self.config = config
        self.packet: Optional[SymbolicPacket] = None
        #: Set by the hook that fired on this path: (subscriber index,
        #: block start), both concrete — the concolic anchor the emit
        #: checks are phrased against.
        self._forward: Optional[Tuple[int, int]] = None
        self._return: Optional[Tuple[int, int]] = None

    def receive(self) -> Optional[SymbolicPacket]:
        self.packet = SymbolicPacket(self.ctx)
        return self.packet

    def subscriber_block(self, src_ip) -> Optional[SymInt]:
        """Concretize the subscriber by forking on the symbolic address.

        One path per subscriber (address equal to that subscriber's)
        plus the all-miss path (address outside the pool → the caller
        drops). On a hit the block start returns as a constant, so the
        caller's ``block + offset`` stays in difference logic.
        """
        cfg = self.config
        for subscriber in range(cfg.subscriber_count):
            if src_ip == cfg.internal_base + subscriber:
                self._forward = (subscriber, cfg.block_start(subscriber))
                return self.ctx.const(cfg.block_start(subscriber), W16)
        return None

    def block_of_port(self, dst_port) -> Optional[Tuple[SymInt, SymInt]]:
        """Concretize the owning block by forking on the symbolic port.

        One path per subscriber (port inside that subscriber's block —
        the blocks tile the domain, so the cases are disjoint) plus the
        out-of-domain path. The division of the closed-form inverse is
        evaluated away with the fork.
        """
        cfg = self.config
        ppn = cfg.ports_per_subscriber
        for subscriber in range(cfg.subscriber_count):
            start = cfg.block_start(subscriber)
            if (dst_port >= start) & (dst_port <= start + ppn - 1):
                self._return = (subscriber, start)
                return (
                    self.ctx.const(cfg.internal_base + subscriber, W32),
                    self.ctx.const(start, W16),
                )
        return None

    def emit(self, packet, device, src_ip, src_port, dst_ip, dst_port) -> None:
        ctx = self.ctx
        cfg = self.config
        record_send(ctx, device, src_ip, src_port, dst_ip, dst_port, packet.protocol)
        ipb = cfg.internal_port_base
        ppn = cfg.ports_per_subscriber
        if self._forward is not None:
            subscriber, block = self._forward
            # The translated source port lands inside this subscriber's
            # block — with block disjointness, injectivity across
            # subscribers.
            ctx.check(
                ((src_port >= block) & (src_port <= block + ppn - 1)).expr,
                "cgnat-block-bounds",
                detail=f"forward port within subscriber {subscriber}'s block",
            )
            # Round-trip identity: inverting the emitted port recovers
            # the packet's own source port — injectivity within a block,
            # and exactly what the return path will compute.
            ctx.check(
                ((src_port - block) + ipb == packet.src_port).expr,
                "cgnat-round-trip",
                detail=f"forward map inverts for subscriber {subscriber}",
            )
            # The destination endpoint passes through untouched.
            ctx.check(
                ((dst_ip == packet.dst_ip) & (dst_port == packet.dst_port)).expr,
                "cgnat-endpoint-preserved",
                detail="forward path leaves the remote endpoint alone",
            )
        elif self._return is not None:
            subscriber, block = self._return
            # The recovered internal port lies in the subscriber window.
            ctx.check(
                ((dst_port >= ipb) & (dst_port <= ipb + ppn - 1)).expr,
                "cgnat-block-bounds",
                detail=f"return port within subscriber {subscriber}'s window",
            )
            # Round trip: mapping the recovered endpoint forward again
            # yields the very port this packet arrived on.
            ctx.check(
                (block + (dst_port - ipb) == packet.dst_port).expr,
                "cgnat-round-trip",
                detail=f"return map inverts for subscriber {subscriber}",
            )
            ctx.check(
                (dst_ip == cfg.internal_base + subscriber).expr,
                "cgnat-round-trip",
                detail=f"return address is subscriber {subscriber}'s",
            )
            # The remote endpoint passes through untouched.
            ctx.check(
                ((src_ip == packet.src_ip) & (src_port == packet.src_port)).expr,
                "cgnat-endpoint-preserved",
                detail="return path leaves the remote endpoint alone",
            )
        else:
            # det_nat_loop_iteration only emits after one of the two
            # hooks succeeded; reaching here is a logic regression.
            ctx.check(
                (self.ctx.const(0, W8) == 1).expr,
                "cgnat-unreachable",
                detail="emit without a block lookup",
            )

    def drop(self, packet) -> None:
        """Nothing to model: the stateless NF has no state to corrupt."""


# -- the concrete tiling side conditions -----------------------------------
def _block_intervals(config: CgnatConfig) -> List[Tuple[int, int]]:
    ppn = config.ports_per_subscriber
    return [
        (config.block_start(i), config.block_start(i) + ppn - 1)
        for i in range(config.subscriber_count)
    ]


def _tiles_domain(intervals: List[Tuple[int, int]], config: CgnatConfig) -> bool:
    """Pairwise disjoint and exactly covering the external domain."""
    ordered = sorted(intervals)
    if not ordered:
        return False
    if ordered[0][0] != config.domain_start_port:
        return False
    if ordered[-1][1] != config.domain_end_port:
        return False
    return all(
        previous_end + 1 == next_start
        for (_, previous_end), (next_start, _) in zip(ordered, ordered[1:])
    )


@dataclass
class CgnatProofReport:
    """The DetNat bijectivity proof, Fig. 7-style."""

    nf: str
    paths: int
    checks_total: int
    checks_proven: int
    crash_free: bool
    blocks_tile_domain: bool
    shards_tile_domain: bool
    subscriber_count: int
    ports_per_subscriber: int
    shard_count: int
    #: The exploration itself, for coverage rendering (not serialized).
    result: Optional[ExplorationResult] = field(default=None, repr=False)

    @property
    def verified(self) -> bool:
        return (
            self.crash_free
            and self.checks_total > 0
            and self.checks_proven == self.checks_total
            and self.blocks_tile_domain
            and self.shards_tile_domain
        )

    def render(self) -> str:
        def mark(ok: bool) -> str:
            return "proven" if ok else "FAILED"

        lines = [
            f"=== {self.nf}: deterministic CGNAT bijectivity ===",
            f"paths explored: {self.paths} "
            f"({self.subscriber_count} subscribers x "
            f"{self.ports_per_subscriber} ports, both directions)",
            f"per-path checks proven: {self.checks_proven}/{self.checks_total} "
            f"(round trip, block bounds, endpoint preservation, "
            f"overflow freedom)",
            f"crash freedom: {mark(self.crash_free)}",
            f"subscriber blocks tile the domain: "
            f"{mark(self.blocks_tile_domain)}",
            f"{self.shard_count} partition shards tile the domain: "
            f"{mark(self.shards_tile_domain)}",
            "",
            f"VERDICT: {'VERIFIED' if self.verified else 'NOT VERIFIED'} "
            f"(the subscriber/port map is a bijection and shard-disjoint)",
        ]
        return "\n".join(lines)


def verify_cgnat(
    config: CgnatConfig | None = None,
    shard_count: int = 2,
    max_paths: int = 10_000,
) -> CgnatProofReport:
    """Prove the deterministic mapping bijective and shard-disjoint.

    The default configuration is deliberately small (4 subscribers x 4
    ports): the concolic fork-per-subscriber makes path count linear in
    ``subscriber_count``, and the per-path obligations are independent
    of the sizes — a larger domain re-proves the same difference-logic
    facts with different constants, while the tiling side conditions
    cover the *configured* domain exhaustively whatever its size.
    """
    cfg = (
        config
        if config is not None
        else CgnatConfig(start_port=1_000, max_flows=16, subscriber_count=4)
    )
    result = ExhaustiveSymbolicEngine(max_paths=max_paths).explore(
        symbolic_body(SymbolicCgnatEnv, det_nat_loop_iteration, cfg)
    )
    checks = [check for path in result.tree.paths for check in path.checks]
    shards = cfg.partition(shard_count)
    return CgnatProofReport(
        nf="DetNat",
        paths=result.tree.path_count(),
        checks_total=len(checks),
        checks_proven=sum(1 for check in checks if check.proven),
        crash_free=result.crash_free,
        blocks_tile_domain=_tiles_domain(_block_intervals(cfg), cfg),
        shards_tile_domain=_tiles_domain(
            [(shard.start_port, shard.end_port) for shard in shards], cfg
        ),
        subscriber_count=cfg.subscriber_count,
        ports_per_subscriber=cfg.ports_per_subscriber,
        shard_count=shard_count,
        result=result,
    )


__all__ = [
    "CgnatProofReport",
    "SymbolicCgnatEnv",
    "verify_cgnat",
]
