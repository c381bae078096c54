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
    (every provider's ``learn_token`` is safe to call as a query), and
    the cache is no larger than the live state allows (see the module
    docstring). ``packets`` memoizes the per-key probe packets across
    calls.
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
        # An index compares by value, a flow record by identity (a dead
        # flow's record can equal its successor's field for field).
        same = token == action.token if isinstance(token, int) else token is action.token
        assert same, f"cached action for {key} holds another flow's token"
    inner = fast.inner
    if isinstance(inner, VigLimiter):
        _assert_limiter_budgets(fast)
    elif isinstance(inner, VigFirewall):
        assert fast.cache_size <= 2 * inner.session_count()
    else:
        assert fast.cache_size <= 2 * fast.flow_count()
    assert fast.compiled_size <= fast.cache_size
