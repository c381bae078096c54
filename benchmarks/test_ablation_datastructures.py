"""Ablation: the data-structure choices §6 discusses.

The paper attributes the verified NAT's residual cost to the libVig
flow table's open addressing (chain counters, more candidate slots per
lookup, worst on misses) versus the DPDK table's separate chaining.
This benchmark measures exactly that at the structure level, plus the
double-chain's O(expired) expiration — the property that keeps latency
flat as the table fills.

Every key is a :class:`~repro.nat.flow.FlowId`, as in the NATs' tables.
A tuple of ints hashes the same under any ``PYTHONHASHSEED``, so the
committed tables are what any run writes.
"""

from benchmarks.conftest import scale
from repro.libvig.double_chain import DoubleChain
from repro.libvig.double_map import DoubleMap
from repro.libvig.expirator import expire_items
from repro.libvig.hash_table import ChainingHashTable
from repro.libvig.map import Map
from repro.nat.flow import FlowId
from repro.packets.headers import PROTO_UDP


def _flow(i: int, dst_port: int = 53) -> FlowId:
    """The ``i``-th flow's ID; ``dst_port=80`` names one never inserted."""
    return FlowId(0x0A000000 + i, 1_024 + i % 64_000, 0x08080808, dst_port, PROTO_UDP)


def test_probe_cost_vs_occupancy(benchmark, publish):
    """Open addressing vs chaining: probes per missed lookup by load."""
    capacity = 16_384 if scale() == "quick" else 65_536

    def run():
        rows = []
        for load_pct in (25, 50, 75, 88, 95):
            count = capacity * load_pct // 100
            open_map = Map(capacity)
            chain_table = ChainingHashTable(capacity)
            for i in range(count):
                open_map.put(_flow(i), i)
                chain_table.put(_flow(i), i)
            probes = {}
            for name, table in (("open", open_map), ("chain", chain_table)):
                table.stats.reset()
                misses = 2_000
                for i in range(misses):
                    table.get(_flow(i, dst_port=80))
                probes[name] = table.stats.probes / misses
            rows.append((load_pct, probes["open"], probes["chain"]))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        "Ablation — probes per missed lookup vs load factor",
        f"{'load %':>7s}  {'open addressing':>16s}  {'chaining':>9s}",
    ]
    for load_pct, open_probes, chain_probes in rows:
        lines.append(f"{load_pct:>7d}  {open_probes:>16.1f}  {chain_probes:>9.1f}")
    publish("ablation_probe_cost", "\n".join(lines))

    # Chaining stays ~flat; open addressing degrades with load — the
    # §6 explanation of the verified NAT's larger miss cost. Absolute
    # bounds: tiny per-load ratios depend on the key set (a low-load
    # chaining miss can cost exactly 0 probes).
    assert rows[-1][2] < 3.0  # chaining stays cheap even at 95% load
    assert rows[-1][1] > max(3 * rows[0][1], 3.0)  # open addressing grows
    assert rows[-1][1] > 3 * rows[-1][2]  # and is much worse at high load


def test_expiration_cost_is_o_expired(benchmark, publish):
    """DoubleChain expiry touches only stale entries, not the table."""

    def run():
        rows = []
        for table_size in (1_000, 10_000, 50_000):
            dmap = DoubleMap(
                table_size + 16,
                key_a_of=_flow,
                key_b_of=lambda v: _flow(v).reversed(),
            )
            chain = DoubleChain(table_size + 16)
            for i in range(table_size):
                index = chain.allocate_new_index(i)
                dmap.put(index, i)
            # Expire exactly the 10 oldest.
            expired = expire_items(chain, dmap, 10)
            rows.append((table_size, expired))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Ablation — entries touched by expiry (10 stale, any table size)"]
    for table_size, expired in rows:
        lines.append(f"  table={table_size:>6d}: expired={expired}")
    publish("ablation_expiry_cost", "\n".join(lines))
    assert all(expired == 10 for _size, expired in rows)


def test_hit_lookup_cost_near_constant(benchmark, publish):
    """Successful lookups stay cheap at any load for both structures."""
    capacity = 8_192

    def run():
        rows = []
        for load_pct in (25, 75, 88):
            count = capacity * load_pct // 100
            open_map = Map(capacity)
            for i in range(count):
                open_map.put(_flow(i), i)
            open_map.stats.reset()
            for i in range(0, count, max(1, count // 1_000)):
                open_map.get(_flow(i))
            rows.append((load_pct, open_map.stats.probes / max(1, open_map.stats.gets)))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    text = "Ablation — probes per hit (open addressing): " + ", ".join(
        f"{load}%: {probes:.1f}" for load, probes in rows
    )
    publish("ablation_hit_cost", text)
    assert rows[-1][1] < 12  # hits stay cheap even near the knee
