"""The microflow fast path: an action cache over a slow-path NF.

An OVS-style microflow cache keyed on (device, proto, 5-tuple). The
first packet of a flow takes the slow path — for VigNat that is the
*verified* ``nat_loop_iteration`` — and the fast path memoizes the
**action** the slow path took: which endpoint fields it rewrote, to
what, and out of which device, compiled into a closure over wire
frames (:mod:`repro.nat.compiled`). Every later packet of the flow runs
that closure without touching the flow table.

The cache is strictly an equivalence-preserving memoization; three
mechanisms enforce it:

- **One currency, byte-checked.** An action is cached only after its
  compiled closure has turned a real canonical frame — the learning
  packet's — into the verified slow path's own bytes, and a hit is
  served only through that closure. A wrong action never serves a
  packet.
- **An action lives exactly as long as its flow.** The wrapped NF's one
  flow-free routine reports a dying flow's two keys *before* it
  releases the flow's slot, and the cache drops those (at most two)
  actions there and then. Nothing else invalidates, so the invariant
  between any two packets is ``cache ⊆ live flows``: another flow's
  birth or death costs a cached flow nothing, a freed-and-reused index
  or port can never meet an old action, and a hit checks nothing.
- **Narrow eligibility.** Only non-fragment IPv4 TCP/UDP packets are
  cacheable; fragments, ICMP (errors included) and anything else falls
  through to the slow path unconditionally.

Verification still targets the slow path: the fast path adds no state
the symbolic engine must model, and the proof report is unchanged.

Both entry points (``process``, ``process_burst``) run one per-packet
routine (``_run``), keyed by :meth:`~repro.packets.headers.Packet.flow_key`.
A closure only runs on a frame in canonical form
(:func:`~repro.packets.headers.is_canonical`): a *wire-backed* packet's
image, or else the packet's one serialization when that is canonical;
any other packet takes the slow path. The learn checks the closure on
the frame a hit would run it on, and the slow path's bytes then leave
as those bytes.

An NF that opts in is its own provider: ``fastpath_hooks()`` returns
the NF, which carries ``begin_burst(now) -> now`` (clamp the clock and
run the per-burst expiry scan), ``on_flow_freed(observer)`` (the NF
calls ``observer(keys)`` with a flow's forward and reply keys when it
frees that flow), ``learn_token(packet) -> token | None`` (NF state
handle used to keep the flow alive; an exact query),
``rejuvenate(token, now)``, and ``compile(key, action) -> closure``
(the NF's own rewrite as a closure shape, so NF quirks — including
deliberate ones — are reproduced exactly).
:class:`~repro.nat.concrete.LibvigNf` supplies all of it for a table NF
but the lookup behind ``learn_token``; :func:`repro.net.dpdk.build_nf`
alone decides who gets wrapped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.nat.base import NetworkFunction
from repro.obs import flight
from repro.packets.headers import FlowKey, Packet, is_canonical

#: The values a spec's ``fastpath`` field can take.
FASTPATH_MODES = ("off", "compiled")


def check_fastpath(value) -> str:
    """``value`` if it names one of :data:`FASTPATH_MODES`, else ValueError."""
    if value in FASTPATH_MODES:
        return value
    raise ValueError(
        f"fastpath must be one of {FASTPATH_MODES}, got {value!r}"
    )


@dataclass(slots=True)
class CachedAction:
    """What the slow path did to one microflow's packets.

    ``src``/``dst`` are the (ip, port) endpoint targets the slow path
    rewrote to (None = that endpoint untouched), exactly the arguments
    its own rewrite helpers receive. ``closure`` is that rewrite
    compiled for wire frames by the provider's ``compile`` hook, set
    once it has reproduced the slow path's bytes: every cached action
    has one.
    """

    src: Optional[Tuple[int, int]]
    dst: Optional[Tuple[int, int]]
    out_device: int
    token: Any
    closure: Optional[Callable[[bytes], bytes]] = None


def _canonical_image(packet: Packet) -> Optional[bytes]:
    """``packet``'s one serialization, if a closure may run on it."""
    frame = packet.wire_bytes()
    return frame if is_canonical(frame) else None


#: The cache's counters, declared once: (stem, help). Each is the plain
#: int ``self._<stem>``, which ``register_metrics`` publishes as the
#: metric ``fastpath_<stem>_total`` (read at snapshot time) and
#: ``op_counters()`` reports under the key ``fastpath_<stem>``.
_COUNTERS = (
    ("hits", "packets served by a cached action's closure"),
    ("misses", "packets that took the slow path"),
    ("invalidations", "cached actions dropped because their flow ended"),
    ("evictions", "cached actions evicted by the FIFO capacity cap"),
    ("learns", "actions admitted after byte verification"),
    ("compiles", "flow rewrites compiled into specialized closures"),
    (
        "compile_rejected",
        "compiled closures whose output diverged from the slow path",
    ),
    ("compiled_hits", "packets rewritten by a compiled closure"),
)


class FastPathNat(NetworkFunction):
    """Wrap a slow-path NF with the microflow action cache.

    The wrapper reports the inner NF's ``name`` so experiment tables and
    the cost model treat it as the same NF (with extra counters); the
    inner NF stays reachable as ``.inner`` for introspection.
    """

    #: The wrapper's own bursts, which shadow the inner NF's: behind the
    #: wrapper the inner NF sees single packets only.
    COUNTERS = NetworkFunction.BURST_COUNTERS

    def __init__(self, inner: NetworkFunction, max_entries: int = 65_536) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        hooks = inner.fastpath_hooks()
        if hooks is None:
            raise TypeError(
                f"{type(inner).__name__} does not provide fast-path hooks"
            )
        self.inner = inner
        self.name = inner.name
        self.max_entries = max_entries
        self._hooks = hooks
        #: The one store. A flow's closure hangs off its action — there
        #: is no second table to keep in step when a flow ends, on FIFO
        #: eviction or on restore.
        self._cache: Dict[FlowKey, CachedAction] = {}
        for stem, _help in _COUNTERS:
            setattr(self, f"_{stem}", 0)
        #: One downstream cache built over this one (a chain's fused
        #: entries), told every key this cache was told is freed.
        self._downstream = None
        hooks.on_flow_freed(self._drop_flow)

    # -- introspection ------------------------------------------------------
    @property
    def cache_size(self) -> int:
        return len(self._cache)

    def op_counters(self) -> Dict[str, int]:
        counters = dict(self.inner.op_counters())
        counters.update(self._declared_counters())
        for stem, _help in _COUNTERS:
            counters[f"fastpath_{stem}"] = getattr(self, f"_{stem}")
        return counters

    def hit_rate(self) -> float:
        total = self._hits + self._misses
        return self._hits / total if total else 0.0

    def register_metrics(self, registry, labels=None) -> None:
        """Surface the cache's counters and gauges plus the wrapped NF's
        metrics, each read off this object at snapshot time."""
        cache_labels = dict(labels or {})
        cache_labels["nf"] = self.name
        for stem, help_text in _COUNTERS:
            registry.counter_fn(
                f"fastpath_{stem}_total",
                lambda attr=f"_{stem}": getattr(self, attr),
                help_text,
                cache_labels,
            )
        registry.gauge_fn(
            "fastpath_cache_entries",
            lambda: self.cache_size,
            "actions currently cached",
            cache_labels,
        )
        self.inner.register_metrics(registry, labels)

    def flow_count(self) -> int:
        return self.inner.flow_count()

    # -- checkpoint/restore -------------------------------------------------
    def checkpoint_state(self) -> Dict:
        """The inner NF's state; the action cache is never serialized.

        Cached actions are pure memoization — rebuilt on demand — and
        their tokens are live references into the inner NF's structures,
        meaningless across a restore.
        """
        return self.inner.checkpoint_state()

    def restore_state(self, state: Dict) -> None:
        """Restore the inner NF and drop every cached action.

        Stateful NFs restore only into a freshly constructed instance,
        whose cache is empty because it has had no flow to learn from;
        clearing covers an NF that restores in place (a limiter holding
        only pass-through actions has no open budget), so no action
        learned before a restore fires after it.
        """
        self.inner.restore_state(state)
        if self._cache:
            self._invalidations += len(self._cache)
            dropped = tuple(self._cache)
            self._cache.clear()
            if self._downstream is not None:
                self._downstream(dropped)

    def delta_sink(self, sink) -> None:
        self.inner.delta_sink(sink)

    # -- the cache ----------------------------------------------------------
    def _drop_flow(self, keys) -> None:
        """The flow-freed observer: drop a dying flow's actions.

        ``keys`` are the flow's forward and reply keys, reported by the
        NF's one flow-free routine before it releases the flow's slot.
        This is the only invalidation there is, so between any two
        packets every cached action's flow is live — which is why a hit
        checks nothing.
        """
        pop = self._cache.pop
        for key in keys:
            if pop(key, None) is not None:
                self._invalidations += 1
        if self._downstream is not None:
            self._downstream(keys)

    # -- what a chain fusing this stage with its neighbours reads ---------------
    def on_flow_freed(self, observer) -> None:
        """Install the one downstream observer: ``observer(keys)`` runs
        after this cache has dropped a dying flow's actions, with every
        key the NF reported — cached here or not — and whenever an
        action goes otherwise (the FIFO cap, a restore's clear), so
        nothing downstream outlives one."""
        self._downstream = observer

    def action_for(self, key: FlowKey) -> Optional[CachedAction]:
        """The cached action for ``key``, if any (a query: no counter moves)."""
        return self._cache.get(key)

    def credit_hits(self, frames: int, bursts: int) -> None:
        """Count ``frames`` compiled hits, in ``bursts`` bursts, that a
        fused chain entry served on this cache's behalf."""
        self._bursts_total += bursts
        self._burst_packets_total += frames
        self._hits += frames
        self._compiled_hits += frames

    def _learn(
        self,
        packet: Packet,
        key: FlowKey,
        outputs: List[Packet],
        image: Optional[bytes],
    ) -> None:
        """Memoize what the slow path just did, if it is cacheable.

        Only single-packet forwards are cached (drops and multi-output
        behaviors always re-consult the slow path). The action is
        admitted iff its compiled closure turns the packet's frame —
        ``image``, read before the slow path parsed a wire-backed
        packet, else its canonical serialization — into the slow path's
        bytes, which then leave as the output.
        """
        if len(outputs) != 1:
            return
        token = self._hooks.learn_token(packet)
        if token is None:
            return
        out = outputs[0]
        ipv4 = out.ipv4
        l4 = out.l4
        if ipv4 is None or l4 is None:
            return
        if image is None:
            image = _canonical_image(packet)
            if image is None:
                return
        # The key *is* the input's endpoints; the input itself need not
        # be read again.
        src: Optional[Tuple[int, int]] = (ipv4.src_ip, l4.src_port)
        if src == key[2:4]:
            src = None
        dst: Optional[Tuple[int, int]] = (ipv4.dst_ip, l4.dst_port)
        if dst == key[4:6]:
            dst = None
        action = CachedAction(src, dst, out.device, token)
        emitted = out.wire_bytes()
        closure = self._hooks.compile(key, action)
        if closure(image) != emitted:
            self._compile_rejected += 1
            return
        self._compiles += 1
        action.closure = closure
        outputs[0] = Packet.from_image(emitted, out.device)
        if len(self._cache) >= self.max_entries:
            evicted = next(iter(self._cache))
            del self._cache[evicted]
            self._evictions += 1
            if self._downstream is not None:
                self._downstream((evicted,))
        self._cache[key] = action
        self._learns += 1

    def _run(self, packets: Sequence[Packet], now: int) -> List[List[Packet]]:
        """The per-packet code: cache consult, the closure on a hit,
        slow path and learn on a miss. ``now`` is already clamped by
        ``begin_burst``. A cached action is a live flow's
        (``_drop_flow``), so a hit fires its closure unconditionally."""
        cache = self._cache
        rejuvenate = self._hooks.rejuvenate
        inner_process = self.inner.process
        from_image = Packet.from_image
        recorder = obs.recorder()
        tracing = recorder.active
        results: List[List[Packet]] = []
        hits = misses = 0
        for packet in packets:
            key = packet.flow_key()
            action = cache.get(key) if key is not None else None
            # Read before the slow path materialises the packet.
            image = packet.image
            if action is not None:
                if image is None:
                    image = _canonical_image(packet)
                if image is not None:
                    hits += 1
                    if tracing:
                        recorder.trace(flight.FASTPATH_HIT, t_us=now)
                    rejuvenate(action.token, now)
                    results.append(
                        [from_image(action.closure(image), action.out_device)]
                    )
                    continue
            misses += 1
            if tracing:
                recorder.trace(flight.SLOW_PATH, t_us=now)
            outputs = inner_process(packet, now)
            if action is None and key is not None:
                self._learn(packet, key, outputs, image)
            results.append(outputs)
        self._hits += hits
        self._misses += misses
        self._compiled_hits += hits
        return results

    # -- packet paths -------------------------------------------------------
    def process(self, packet: Packet, now: int) -> List[Packet]:
        return self._run([packet], self._hooks.begin_burst(now))[0]

    def process_burst(
        self, packets: Sequence[Packet], now: int
    ) -> List[List[Packet]]:
        """One RX burst: expiry scanned once up front, then per-packet
        cache consult with slow-path fall-through on miss."""
        self._note_burst(len(packets))
        if not packets:
            return []
        return self._run(packets, self._hooks.begin_burst(now))


__all__ = [
    "CachedAction",
    "FASTPATH_MODES",
    "FastPathNat",
    "FlowKey",
    "check_fastpath",
]
