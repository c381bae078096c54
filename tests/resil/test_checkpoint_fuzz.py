"""A CRC-valid but malformed checkpoint body is refused whole.

The CRC only says the bytes are the ones that were written; it says
nothing about whether a hand-edited or buggy writer's body has the
right shape. So the body is mutated at the JSON level — one value
replaced by any JSON value, or one entry deleted — and framed again
with a correct CRC. Restoring it into a fresh VigNat — or a fresh
VigFirewall, whose rows carry no port to cross-check their index
against — must either succeed, or raise ``ValueError``
(``CheckpointError`` included) or a
:class:`~repro.libvig.errors.LibVigError` and leave the NF exactly as
fresh as it was: no other exception, no half-adopted table.
"""

import json
import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.libvig.errors import LibVigError
from repro.nat.config import NatConfig
from repro.nat.firewall import VigFirewall
from repro.nat.vignat import VigNat
from repro.packets.builder import make_udp_packet
from repro.resil.checkpoint import MAGIC, Checkpoint, restore, snapshot

CFG = NatConfig(max_flows=6, expiration_time=1_000, start_port=1000)


def _body(factory):
    """A checkpoint body with live flows, a shuffled free list, counters
    and (VigNat) a clock: every field a restore reads holds something."""
    nf = factory(CFG)
    for i, t in enumerate((100, 200, 300, 1_250, 1_300)):
        nf.process(
            make_udp_packet("10.0.0.1", "8.8.8.8", 4_000 + i, 53, device=0), t
        )
    return json.loads(snapshot(nf, now_us=1_400).to_bytes()[len(MAGIC) + 8 :])


FACTORIES = (VigNat, VigFirewall)
BODIES = {factory: _body(factory) for factory in FACTORIES}


def _paths(value, path=()):
    """Every path into ``value``'s JSON tree, the root's children first."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


PATHS = {factory: sorted(_paths(body), key=repr) for factory, body in BODIES.items()}

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 70_000),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
)


def _containers(children):
    return st.lists(children, max_size=3) | st.dictionaries(
        st.text(max_size=3), children, max_size=3
    )


_JSON = st.recursive(_SCALARS, _containers, max_leaves=6)


def _framed(body) -> bytes:
    raw = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    return MAGIC + struct.pack(">II", zlib.crc32(raw), len(raw)) + raw


@pytest.mark.parametrize("factory", FACTORIES, ids=["nat", "firewall"])
@given(data=st.data(), value=_JSON | st.integers(-1, 1_400), delete=st.booleans())
@settings(max_examples=300, deadline=None)
def test_a_malformed_body_is_accepted_or_refused_whole(factory, data, value, delete):
    path = data.draw(st.sampled_from(PATHS[factory]))
    body = json.loads(json.dumps(BODIES[factory]))
    parent = body
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    fresh = factory(CFG)
    empty = factory(CFG).checkpoint_state()
    try:
        restore(fresh, Checkpoint.from_bytes(_framed(body)))
    except (ValueError, LibVigError):
        assert fresh.checkpoint_state() == empty
        assert fresh.flow_count() == 0
        return
    # Accepted: what was adopted is a state the NF itself stands behind.
    again = factory(CFG)
    restore(again, snapshot(fresh))
    assert again.checkpoint_state() == fresh.checkpoint_state()
    fresh.process(make_udp_packet("10.0.0.2", "8.8.8.8", 9, 53, device=0), 2_000)
