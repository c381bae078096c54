"""Golden execution-tree regression: the NAT's path structure is pinned.

Exhaustive exploration of VigNat must produce exactly these call-sequence
shapes. If an engine/model/logic change alters the tree — paths appearing,
disappearing or changing their libVig call sequence — this test fails and
forces a deliberate review, the same role VigNAT's "108 paths" number
plays in the paper.
"""

from collections import Counter

from repro.nat.config import NatConfig
from repro.verif.engine import ExhaustiveSymbolicEngine
from repro.verif.proofs import nat_proof

#: Every feasible path, as its sequence of traced calls (sends inlined
#: as "send"), with multiplicity.
GOLDEN_NAT_PATHS = Counter(
    {
        # no packet received (expire-guard true/false)
        ("loop_invariant_produce", "current_time", "expire_items", "receive"): 2,
        # non-IPv4 -> drop
        (
            "loop_invariant_produce", "current_time", "expire_items",
            "receive", "drop",
        ): 2 * 3,  # non-IPv4, non-TCP/UDP, unknown device
        # external, no match -> drop
        (
            "loop_invariant_produce", "current_time", "expire_items",
            "receive", "dmap_get_by_second_key", "drop",
        ): 2,
        # internal, no match, table full -> drop
        (
            "loop_invariant_produce", "current_time", "expire_items",
            "receive", "dmap_get_by_first_key",
            "dchain_allocate_new_index", "drop",
        ): 2,
        # internal, match -> rejuvenate, read entry, send
        (
            "loop_invariant_produce", "current_time", "expire_items",
            "receive", "dmap_get_by_first_key", "dchain_rejuvenate_index",
            "dmap_get_value", "send",
        ): 2,
        # internal, no match, created -> put, read entry, send
        (
            "loop_invariant_produce", "current_time", "expire_items",
            "receive", "dmap_get_by_first_key",
            "dchain_allocate_new_index", "dmap_put", "dmap_get_value", "send",
        ): 2,
        # external, match -> rejuvenate, read entry, send
        (
            "loop_invariant_produce", "current_time", "expire_items",
            "receive", "dmap_get_by_second_key", "dchain_rejuvenate_index",
            "dmap_get_value", "send",
        ): 2,
    }
)


def signature(trace):
    events = [call.fn for call in trace.calls]
    for _send in trace.sends:
        events.append("send")
    return tuple(events)


class TestGoldenPaths:
    def test_nat_execution_tree_matches_golden(self):
        result = ExhaustiveSymbolicEngine().explore(
            nat_proof(NatConfig()).body
        )
        observed = Counter(signature(t) for t in result.tree.paths)
        assert observed == GOLDEN_NAT_PATHS, (
            "the NAT's execution tree changed; review and re-pin:\n"
            + "\n".join(f"{count}x {sig}" for sig, count in sorted(observed.items()))
        )

    def test_total_path_count_pinned(self):
        assert sum(GOLDEN_NAT_PATHS.values()) == 18
