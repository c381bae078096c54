"""The microflow cache's one state invariant, checked from outside.

``cache ⊆ live flows``: between any two packets, every cached key
belongs to a flow that is live in the wrapped NF *now*, and the token
its action rejuvenates is that very flow's. The fast path itself never
checks this — a hit fires unconditionally (``docs/FASTPATH.md`` §2) —
so the tests do, after every step they drive.
"""

from repro.packets.builder import make_tcp_packet, make_udp_packet
from repro.packets.headers import PROTO_UDP


def packet_of_key(key):
    """A packet that arrives under the microflow ``key``."""
    device, proto, src_ip, src_port, dst_ip, dst_port = key
    make = make_udp_packet if proto == PROTO_UDP else make_tcp_packet
    return make(src_ip, dst_ip, src_port, dst_port, device=device)


def assert_cache_within_live_flows(fast, packets=None):
    """Hold a :class:`FastPathNat` over a stateful NAT to its invariant.

    Each cached key's ``learn_token`` — the NF's own answer to "which
    live flow is this packet's?" — must be the token on its action, and
    so at most two actions exist per live flow. ``packets`` memoizes
    the per-key probe packets across calls.
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
    assert fast.cache_size <= 2 * fast.flow_count()
    assert fast.compiled_size <= fast.cache_size
