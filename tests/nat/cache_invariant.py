"""The microflow cache's one state invariant, checked from outside.

``cache ⊆ live flows``: between any two packets, every cached key
belongs to a flow that is live in the wrapped NF *now*, and the token
its action rejuvenates is that very flow's. The fast path itself never
checks this — a hit fires unconditionally (``docs/FASTPATH.md`` §2) —
so the tests do, after every step they drive.

"Live flow" per hook provider, and how many actions it may own:

- the NATs: a translation entry; two actions (forward, reply);
- ``VigFirewall``: a tracked session; two actions;
- ``VigLimiter``: an *open budget with packets left*. One budget covers
  every 5-tuple its source sends, so it may own many actions — exactly
  the keys the hooks issued its index for. The pass-through direction
  is stateless (sentinel token): its actions never die and are bounded
  only by the cache's own capacity.

The chain clause (:func:`assert_fused_within_live_flows`) is the same
invariant one level up: a chain's fused entry holds one cached action
per stage, so ``fused ⊆ cache ⊆ live flows`` must hold at every stage at
once.
"""

from repro.nat.firewall import VigFirewall
from repro.nat.limiter import _EGRESS_TOKEN, VigLimiter
from repro.packets.builder import make_tcp_packet, make_udp_packet
from repro.packets.headers import PROTO_UDP


def packet_of_key(key):
    """A packet that arrives under the microflow ``key``."""
    device, proto, src_ip, src_port, dst_ip, dst_port = key
    make = make_udp_packet if proto == PROTO_UDP else make_tcp_packet
    return make(src_ip, dst_ip, src_port, dst_port, device=device)


def flow_state(nf):
    """The NF's flow state, ages and allocator included: everything its
    checkpoint carries but the counters a hit bypasses. Equal between a
    wrapped NF and its unwrapped twin iff no hit touched a flow the
    slow path would not have, and none was left untouched."""
    state = nf.checkpoint_state()
    state.pop("counters", None)
    return state


def _assert_limiter_budgets(fast):
    """The limiter's size clause: tokens were issued for open budgets
    only, each with packets left, and every ingress action is one of
    its budget's issued keys."""
    limiter, issued = fast.inner, fast._hooks._issued
    for index, keys in issued.items():
        assert index in limiter._source_of, f"keys issued for closed budget {index}"
        assert limiter._counters.get(index) < limiter.config.max_packets, (
            f"budget {index} is spent but still owns actions"
        )
        assert keys
    for key, action in fast._cache.items():
        if action.token != _EGRESS_TOKEN:
            assert key in issued[action.token]


def assert_cache_within_live_flows(fast, packets=None):
    """Hold a :class:`FastPathNat` over a stateful NF to its invariant.

    Each cached key's ``learn_token`` — the NF's own answer to "which
    live flow is this packet's?" — must be the token on its action
    (every provider's ``learn_token`` is safe to call as a query), the
    action must carry the closure it serves through, and the cache is
    no larger than the live state allows (see the module docstring).
    ``packets`` memoizes the per-key probe packets across calls.
    """
    if packets is None:
        packets = {}
    learn_token = fast._hooks.learn_token
    for key, action in fast._cache.items():
        probe = packets.get(key)
        if probe is None:
            probe = packets[key] = packet_of_key(key)
        token = learn_token(probe)
        assert token is not None, f"cached action for {key}: its flow is dead"
        assert _same_token(token, action.token), (
            f"cached action for {key} holds another flow's token"
        )
        assert action.closure is not None, f"cached action for {key}: no closure"
    inner = fast.inner
    if isinstance(inner, VigLimiter):
        _assert_limiter_budgets(fast)
    elif isinstance(inner, VigFirewall):
        assert fast.cache_size <= 2 * inner.session_count()
    else:
        assert fast.cache_size <= 2 * fast.flow_count()


def _same_token(token, held):
    # An index compares by value, a flow record by identity (a dead
    # flow's record can equal its successor's field for field).
    return token == held if isinstance(token, int) else token is held


def assert_fused_within_live_flows(chain, packets=None):
    """Hold a chain's fused table to ``fused ⊆ cache ⊆ live flows``.

    For every fused entry, each stage's ``learn_token`` for the entry's
    key at that stage is the token the entry rejuvenates, and the stage
    still caches that key's action. The reverse
    index (stage, stage key) → entries names exactly the rows the
    entries hold — no stale row survives an eviction — and no stage
    holds more entries than its live state allows: two per firewall
    session or NAT flow, a limiter budget's issued keys.
    """
    if packets is None:
        packets = {}
    held = set()
    per_stage = [set() for _ in chain.engines]
    for port, table in enumerate(chain._fused):
        for entry_key, (_closure, tokens, keys) in table.items():
            assert len(tokens) == len(keys) == len(chain.engines)
            for token, (index, key) in zip(tokens, keys):
                probe = packets.get(key)
                if probe is None:
                    probe = packets[key] = packet_of_key(key)
                engine = chain.engines[index]
                live = engine.inner.fastpath_hooks().learn_token(probe)
                where = f"fused {entry_key}, stage {index}"
                assert live is not None, f"{where}: its flow is dead"
                assert _same_token(live, token), f"{where}: another flow's token"
                action = engine.action_for(key)
                assert action is not None
                assert _same_token(action.token, token)
                held.add((index, key, (port, entry_key)))
                per_stage[index].add(key)
    rows = {
        (index, key, owner)
        for index, owners in enumerate(chain._owners)
        for key, entries in owners.items()
        for owner in entries
    }
    assert rows == held, "fused reverse index out of step with the entries"
    assert all(entries for owners in chain._owners for entries in owners.values())
    for index, engine in enumerate(chain.engines):
        inner = engine.inner
        if isinstance(inner, VigLimiter):
            issued = set().union(*inner._issued.values())
            device = inner.config.ingress_device
            assert {k for k in per_stage[index] if k[0] == device} <= issued
        elif isinstance(inner, VigFirewall):
            assert len(per_stage[index]) <= 2 * inner.session_count()
        else:
            assert len(per_stage[index]) <= 2 * engine.flow_count()
