"""What every libVig data-path operation does, pinned step by step.

One seeded trace of mixed operations on a ``Map`` whose ``hash_fn``
collides (five homes for forty keys, negative hashes included), a
``DoubleMap``, a ``DoubleChain`` and a ``StaticArray``: lookups, inserts,
erases of present and absent keys, allocations, rejuvenations, expiries
and frees with in-range, out-of-range and unallocated indexes, clocks
that now and then run backwards, and writes past both array bounds.

After every step the digest takes in the step, its return value or the
type of what it raised, and every state the operation could touch:

- the ``MapStats`` of all three maps (the ``Map`` and the ``DoubleMap``'s
  two key maps), to the probe;
- those maps' busy, cached-hash and chain-counter arrays;
- the chain's ``cells()`` and ``free_list()``;
- the static array's cells.

So the digest moves when any operation returns, raises, counts or
leaves its structure differently, whatever its body looks like inside.
Regenerate with ``PYTHONPATH=src python -m tests.libvig.test_op_goldens``
only when an operation's observable behaviour is meant to change, and
say in the commit what changed.
"""

import hashlib
import random

from repro.libvig.double_chain import DoubleChain
from repro.libvig.double_map import DoubleMap
from repro.libvig.map import Map
from repro.libvig.static_array import StaticArray

SEED = 45
STEPS = 4_000
KEYS = 40
CHAIN_RANGE = 12
ARRAY_CAPACITY = 10

GOLDEN = "c05f74e230cb3bf6dd7ec31b89e5943444f94e8b48c9ecb788bac109408cf40b"


def _colliding_hash(key):
    """Five probe homes for every key, two of them from negative hashes."""
    return key % 5 - 2


def _map_state(m):
    stats = m.stats
    return (
        stats.gets, stats.puts, stats.erases, stats.probes,
        tuple(m._busy), tuple(m._hashes), tuple(m._chains), m.size(),
    )


def _call(fn, *args):
    try:
        return repr(fn(*args))
    except Exception as exc:  # the type is the pinned behaviour
        return type(exc).__name__


def run_trace(seed=SEED, steps=STEPS):
    """SHA-256 over ``steps`` seeded operations and the state after each,
    and the set of ``(operation, outcome)`` the trace reached."""
    rng = random.Random(seed)
    plain = Map(13, _colliding_hash)
    dmap = DoubleMap(8, lambda v: v[0], lambda v: v[1], _colliding_hash, hash)
    chain = DoubleChain(CHAIN_RANGE)
    array = StaticArray(ARRAY_CAPACITY)
    clock = 0
    digest = hashlib.sha256()
    outcomes = set()

    def when():
        # Mostly forward, sometimes standing still, now and then back.
        nonlocal clock
        step = rng.choice((0, 1, 1, 2, 5, 9, -3))
        clock = max(0, clock + step)
        return clock

    def chain_index():
        return rng.randrange(-2, CHAIN_RANGE + 2)

    for _ in range(steps):
        kind = rng.randrange(16)
        key = rng.randrange(KEYS)
        if kind == 0:
            step = ("map.get", key, _call(plain.get, key, "absent"))
        elif kind == 1:
            step = ("map.has", key, _call(plain.has, key))
        elif kind == 2:
            # put requires an absent key: a present one is left to the
            # contract, a full map raises from the body.
            if plain.has(key):
                step = ("map.put-skip", key)
            else:
                step = ("map.put", key, _call(plain.put, key, rng.randrange(99)))
        elif kind == 3:
            step = ("map.erase", key, _call(plain.erase, key))
        elif kind == 4:
            index = rng.randrange(-1, 10)
            value = (key, rng.randrange(KEYS))
            step = ("dmap.put", index, value, _call(dmap.put, index, value))
        elif kind == 5:
            index = rng.randrange(-1, 10)
            step = ("dmap.erase", index, _call(dmap.erase, index))
        elif kind == 6:
            step = (
                "dmap.get",
                key,
                _call(dmap.get_by_a, key),
                _call(dmap.get_by_b, key),
            )
        elif kind in (7, 8):
            time = when()
            step = ("chain.allocate", time, _call(chain.allocate_new_index, time))
        elif kind in (9, 10):
            index, time = chain_index(), when()
            step = (
                "chain.rejuvenate",
                index,
                time,
                _call(chain.rejuvenate_index, index, time),
            )
        elif kind == 11:
            min_time = max(0, clock - rng.randrange(12))
            step = ("chain.expire", min_time, _call(chain.expire_one_index, min_time))
        elif kind == 12:
            index = chain_index()
            step = ("chain.free", index, _call(chain.free_index, index))
        elif kind == 13:
            index = chain_index()
            step = (
                "chain.query",
                index,
                _call(chain.is_index_allocated, index),
                _call(chain.timestamp_of, index),
                chain.get_oldest(),
                chain.size(),
            )
        elif kind == 14:
            index = rng.randrange(-2, ARRAY_CAPACITY + 2)
            step = ("array.get", index, _call(array.get, index))
        else:
            index = rng.randrange(-2, ARRAY_CAPACITY + 2)
            value = rng.randrange(1_000)
            step = ("array.set", index, value, _call(array.set, index, value))
        state = (
            step,
            _map_state(plain),
            _map_state(dmap._map_a),
            _map_state(dmap._map_b),
            dmap.size(),
            chain.cells(),
            chain.free_list(),
            tuple(array),
        )
        digest.update(repr(state).encode())
        outcomes.add((step[0], step[-1] if step[-1] in RAISED else "returned"))
    return digest.hexdigest(), outcomes


#: What the trace must reach to be worth pinning: every error path.
RAISED = {"IndexError", "KeyError", "TimeRegression", "CapacityError"}
REACHED = {
    ("map.put", "CapacityError"),
    ("map.erase", "KeyError"),
    ("dmap.put", "IndexError"),
    ("dmap.put", "KeyError"),
    ("dmap.erase", "KeyError"),
    ("chain.allocate", "TimeRegression"),
    ("chain.rejuvenate", "IndexError"),
    ("chain.rejuvenate", "KeyError"),
    ("chain.rejuvenate", "TimeRegression"),
    ("chain.free", "IndexError"),
    ("chain.free", "KeyError"),
    ("array.get", "IndexError"),
    ("array.set", "IndexError"),
}


def test_operation_trace_is_pinned():
    assert run_trace()[0] == GOLDEN


def test_trace_reaches_every_error_path():
    outcomes = run_trace()[1]
    assert REACHED <= outcomes, sorted(REACHED - outcomes)
    assert {op for op, outcome in outcomes if outcome == "returned"} >= {
        "map.get", "map.has", "map.put", "map.erase", "dmap.put",
        "dmap.erase", "dmap.get", "chain.allocate", "chain.rejuvenate",
        "chain.expire", "chain.free", "chain.query", "array.get", "array.set",
    }


if __name__ == "__main__":
    print(run_trace()[0])
