"""The per-layer ledger: spans around each layer's public calls.

Spans are recorded from here, not from inside the program: ``install``
replaces public methods *on their classes* with timing wrappers for the
traced phase of a ``--trace 1`` run and ``uninstall`` puts the originals
back. Nothing under ``src/`` changes.

A span's **self time** is its duration minus the time its child spans
cover. Spans are not kept one by one — a traced phase opens millions — but
folded into per-bucket totals as they close: self time, span count, how
many spans of each bucket each bucket opened (to charge wrapper cost to
the right place) and, for ring calls, bytes moved. Bucket 0 is the root:
the benchmark's own loop, closed once per burst by
:meth:`Ledger.close_root`.

Timer correction. A wrapper costs time on both sides of its clock reads:
the **inner** share lands inside the span's own duration, the **outer**
share inside its parent's. Their sum is measured where it is paid: some
traced segments run with a *second* layer of wrappers, and an outer
wrapper's "self time" is nothing but wrapper cost — the inner layer's
outer share plus its own inner share — so that ledger's self time per
span is the cost of one span, per bucket, on this workload
(:meth:`Ledger.span_costs`). Only the inner share, two clock reads and a
call, comes from an empty-method calibration (:func:`calibrate_inner`).
:meth:`Ledger.corrected_ns` subtracts the inner share per span from the
bucket that owns the span and the rest from the bucket that opened it.
"""

from __future__ import annotations

import inspect
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = "driver.self_ns"
#: Suffix of the buckets an outer wrapper layer is booked under.
COST = "#cost"

#: Code-object filename of every generated wrapper.
_GENERATED = "<e2e-ledger>"

_WRAPPER = """
def traced({decl}):
    parent = state[0]
    state[0] = {row}
    covered = state[1]
    state[1] = 0
    t0 = clock()
    result = fn({call})
    dt = clock() - t0
    self_ns[{idx}] += dt - state[1]
    spans[{idx}] += 1
    opened[parent + {idx}] += 1
    state[1] = covered + dt
    state[0] = parent
    {sized}
    return result
"""


class Ledger:
    def __init__(
        self,
        buckets: Sequence[str],
        clock: Callable[[], int] = time.perf_counter_ns,
    ) -> None:
        self.names: List[str] = [ROOT] + [b for b in buckets if b != ROOT]
        self.index: Dict[str, int] = {name: i for i, name in enumerate(self.names)}
        n = len(self.names)
        self.self_ns = [0] * n
        self.spans = [0] * n
        self.sizes = [0] * n
        #: opened[parent * n + child]: spans of ``child`` opened by ``parent``
        self.opened = [0] * (n * n)
        #: [row of the open span's bucket in ``opened``,
        #:  time covered by the open span's closed children]
        self._state = [0, 0]
        self._clock = clock
        #: (fn, bucket, size) -> wrapper: a traced phase installs the same
        #: targets every cycle, and compiling one wrapper costs ~0.15 ms.
        self._wrappers: Dict[Tuple[Callable, str, Optional[str]], Callable] = {}

    def wrap(self, fn: Callable, bucket: str, size: Optional[str] = None) -> Callable:
        """``fn`` with a span of ``bucket`` around every call.

        ``size`` adds bytes moved to the bucket: ``"arg"`` counts
        ``len`` of the first argument after ``self``, ``"result"`` the
        ``len`` of a non-None result.

        The wrapper is generated with ``fn``'s own parameter list. A
        generic ``*args, **kwargs`` wrapper costs about twice as much and
        its cost varies with the shape of the call.
        """
        cached = self._wrappers.get((fn, bucket, size))
        if cached is not None:
            return cached
        decl: List[str] = []
        call: List[str] = []
        for param in inspect.signature(fn).parameters.values():
            if param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD):
                raise TypeError(f"cannot trace variadic {fn.__qualname__}")
            # Placeholder defaults; the real ones are copied over below.
            default = "" if param.default is param.empty else "=None"
            if param.kind is param.KEYWORD_ONLY:
                if "*" not in decl:
                    decl.append("*")
                call.append(f"{param.name}={param.name}")
            else:
                call.append(param.name)
            decl.append(param.name + default)
        idx = self.index[bucket]
        sized = {
            None: "",
            "arg": f"sizes[{idx}] += len({call[1] if len(call) > 1 else None})",
            "result": f"if result is not None: sizes[{idx}] += len(result)",
        }[size]
        source = _WRAPPER.format(
            decl=", ".join(decl), call=", ".join(call), idx=idx,
            row=idx * len(self.names), sized=sized,
        )
        namespace = {
            "fn": fn, "clock": self._clock, "state": self._state,
            "self_ns": self.self_ns, "spans": self.spans,
            "opened": self.opened, "sizes": self.sizes,
        }
        exec(compile(source, _GENERATED, "exec"), namespace)
        traced = namespace["traced"]
        traced.__defaults__ = fn.__defaults__
        traced.__kwdefaults__ = fn.__kwdefaults__
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        self._wrappers[fn, bucket, size] = traced
        return traced

    def close_root(self, duration_ns: int) -> None:
        """Account one root span (one burst of the benchmark loop)."""
        state = self._state
        self.self_ns[0] += duration_ns - state[1]
        self.spans[0] += 1
        state[1] = 0

    def total_spans(self) -> int:
        return sum(self.spans[1:])

    def span_costs(self) -> Dict[str, float]:
        """Cost of one span per bucket, read off the ``#cost`` buckets.

        Meaningful for a ledger whose targets were installed twice, the
        outer layer booked under ``bucket + COST`` (see the module
        docstring).
        """
        costs = {}
        for name, i in self.index.items():
            if name.endswith(COST) and self.spans[i]:
                costs[name[: -len(COST)]] = self.self_ns[i] / self.spans[i]
        return costs

    def cost_totals(self) -> Tuple[int, int]:
        """(ns, spans) summed over the ``#cost`` buckets so far."""
        picked = [i for name, i in self.index.items() if name.endswith(COST)]
        return sum(self.self_ns[i] for i in picked), sum(self.spans[i] for i in picked)

    def corrected_ns(self, span_cost: Dict[str, float], inner_ns: float) -> Dict[str, float]:
        """Per-bucket self time with the wrappers' own cost removed.

        The root is timed by the loop's own two clock reads, so it owes
        no inner share — only the outer share of each span it opened.
        """
        n = len(self.names)
        outer = [span_cost.get(name, inner_ns) - inner_ns for name in self.names]
        out = {}
        for b, name in enumerate(self.names):
            own = 0.0 if b == 0 else inner_ns * self.spans[b]
            opened = sum(self.opened[b * n + c] * outer[c] for c in range(1, n))
            out[name] = self.self_ns[b] - own - opened
        return out


def calibrate_inner(rounds: int = 7, calls: int = 20_000) -> float:
    """ns a span records beyond the call it wraps: two clock reads, one call."""

    class Probe:
        def op(self, value, flag=0):
            return None

    probe = Probe()
    plain = Probe.op
    clock = time.perf_counter_ns
    samples: List[float] = []
    for _ in range(rounds):
        Probe.op = plain
        t0 = clock()
        for _ in range(calls):
            probe.op(1)
        bare = (clock() - t0) / calls
        ledger = Ledger(["probe"])
        Probe.op = ledger.wrap(plain, "probe")
        for _ in range(calls):
            probe.op(1)
        samples.append(max(0.0, ledger.self_ns[1] / calls - bare))
    return statistics.median(samples)


# -- which public calls belong to which bucket ---------------------------------

#: (class, attribute, bucket, size) — built lazily so importing this module
#: does not import the program.
Target = Tuple[type, str, str, Optional[str]]


def _public_methods(cls: type) -> List[str]:
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value)
    ]


def targets() -> List[Target]:
    from repro.chain.spec import ChainRuntime
    from repro.libvig.double_chain import DoubleChain
    from repro.libvig.double_map import DoubleMap
    from repro.libvig.map import Map
    from repro.nat.base import NetworkFunction
    from repro.nat.fastpath import FastPathNat
    from repro.nat.vignat import VigNat
    from repro.net.dpdk import DpdkRuntime
    from repro.net.mbuf import MbufPool
    from repro.net.nic import Port, RssNic
    from repro.net.procrun import ProcessShardedRuntime
    from repro.net.rss import NatSteering
    from repro.net.shmring import ShmRing
    from repro.packets.headers import Packet

    table: List[Target] = [
        (Packet, "from_bytes", "packets.parse_ns", None),
        (Packet, "wire_bytes", "packets.serialize_ns", None),
        (Packet, "clone", "packets.clone_ns", None),
        (Port, "deliver", "nic.rx_ns", None),
        (Port, "rx_pop", "nic.rx_ns", None),
        (Port, "transmit", "nic.tx_ns", None),
        (Port, "drain_tx", "nic.tx_ns", None),
        (MbufPool, "alloc", "mbuf.alloc_free_ns", None),
        (MbufPool, "free", "mbuf.alloc_free_ns", None),
        (DpdkRuntime, "rx_burst", "dpdk.rx_burst_self_ns", None),
        (DpdkRuntime, "tx_burst", "dpdk.tx_burst_self_ns", None),
        (DpdkRuntime, "free", "dpdk.tx_burst_self_ns", None),
        (DpdkRuntime, "main_loop_burst", "dpdk.loop_self_ns", None),
        (DpdkRuntime, "inject", "dpdk.loop_self_ns", None),
        (DpdkRuntime, "collect", "dpdk.loop_self_ns", None),
        (RssNic, "select", "rss.steer_ns", None),
        (NatSteering, "worker_for", "rss.steer_ns", None),
        (FastPathNat, "process_burst", "nat.fastpath_self_ns", None),
        (NetworkFunction, "process_burst", "nat.slowpath_self_ns", None),
        (VigNat, "process_burst", "nat.slowpath_self_ns", None),
        (VigNat, "process", "nat.slowpath_self_ns", None),
        (ChainRuntime, "inject", "chain.handoff_self_ns", None),
        (ChainRuntime, "main_loop_burst", "chain.handoff_self_ns", None),
        (ChainRuntime, "collect", "chain.handoff_self_ns", None),
        (ProcessShardedRuntime, "inject", "procrun.inject_self_ns", None),
        (ProcessShardedRuntime, "main_loop_burst", "procrun.turn_wait_ns", None),
        (ProcessShardedRuntime, "collect", "procrun.collect_self_ns", None),
        (ShmRing, "try_push_burst", "shmring.push_ns", "arg"),
        (ShmRing, "pop_burst_bytes", "shmring.pop_ns", "result"),
        (ShmRing, "pop_burst", "shmring.pop_ns", None),
        (ShmRing, "drain", "shmring.pop_ns", None),
    ]
    for cls in (DoubleMap, DoubleChain, Map):
        table += [(cls, name, "libvig.ops_ns", None) for name in _public_methods(cls)]
    return table


Patch = Tuple[type, str, object]


def install(ledger: Ledger, table: Sequence[Target]) -> List[Patch]:
    """Replace each target on its class with a traced wrapper.

    Returns what :func:`uninstall` needs to put the originals back.
    """
    patches: List[Patch] = []
    for cls, attr, bucket, size in table:
        original = vars(cls)[attr]
        if isinstance(original, (classmethod, staticmethod)):
            wrapper = type(original)(ledger.wrap(original.__func__, bucket, size))
        else:
            wrapper = ledger.wrap(original, bucket, size)
        setattr(cls, attr, wrapper)
        patches.append((cls, attr, original))
    return patches


def uninstall(patches: List[Patch]) -> None:
    """Put every original back; ``patches`` is emptied."""
    while patches:
        cls, attr, original = patches.pop()
        setattr(cls, attr, original)


def traced_targets() -> List[Tuple[type, str]]:
    """Targets whose class attribute is a wrapper right now.

    Empty except inside a traced phase; every child asserts that on its
    way out, traced or not.
    """
    found = []
    for cls, attr, _, _ in targets():
        value = vars(cls)[attr]
        code = getattr(value, "__func__", value).__code__
        if code.co_filename == _GENERATED:
            found.append((cls, attr))
    return found
