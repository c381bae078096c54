"""The microflow fast path: an action cache over a slow-path NF.

An OVS-style microflow cache keyed on (device, proto, 5-tuple). The
first packet of a flow takes the slow path — for VigNat that is the
*verified* ``nat_loop_iteration`` — and the fast path memoizes the
**action** the slow path took: which endpoint fields it rewrote, to
what, and out of which device. Every later packet of the flow replays
that action without touching the flow table.

The cache is strictly an equivalence-preserving memoization; three
mechanisms enforce it:

- **Self-verifying learn.** A candidate action is cached only if it
  reproduces byte for byte (``wire_bytes``) what the slow path actually
  emitted — on a wire-backed frame its compiled closure, else its
  object replay; a replay path left unchecked serves nothing until the
  slow path has checked it. A wrong action never serves a packet.
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

Both entry points (``process``, ``process_burst``) consult the one
cache through the one per-packet routine (``_run``), keyed by
:meth:`~repro.packets.headers.Packet.flow_key`.
What a hit costs depends on what the packet still is. A *wire-backed*
packet — ``Packet.from_bytes`` kept its frame as bytes, and nothing has
touched a header since — is rewritten by the flow's compiled closure
(:mod:`repro.nat.compiled`) straight from image to image; no header
object is ever built for it. A materialised packet, or any packet of an
NF whose hooks say ``supports_raw = False``, is replayed through the
NF's own ``apply`` hook. A learn from a wire-backed frame compiles the
closure and admits it iff it turns the frame into the slow path's bytes,
which then leave as those bytes; the object replay of such an action
is checked by the slow path on the flow's first materialised packet.
Any other action (learned from a materialised packet, installed by
``warm()``) is replay-checked and *earns* its closure on its first
wire-backed hit, against that frame's object replay. Either way a
closure is attached or rejected for good and lives *on* the action, so
whatever drops an action drops its closure with it. There is no entry
point over bare frame buffers: a frame reaches the cache only as a
``Packet``, so ``Packet.from_bytes`` — canonical-form check included —
has accepted every image a closure ever sees.

An NF that opts in is its own provider: ``fastpath_hooks()`` returns
the NF, which carries ``supports_raw`` (bool), ``begin_burst(now) ->
now`` (clamp the clock and run the per-burst expiry scan),
``on_flow_freed(observer)`` (the NF calls ``observer(keys)`` with a
flow's forward and reply keys when it frees that flow),
``learn_token(packet) -> token | None`` (NF state handle used to keep
the flow alive; an exact query), ``rejuvenate(token, now)``, and
``apply(packet, action) -> Packet`` (the NF's own rewrite code, so NF
quirks — including deliberate ones — are reproduced exactly).
:class:`~repro.nat.concrete.LibvigNf` supplies all of it for a table NF
but the lookup behind ``learn_token``; :func:`repro.net.dpdk.build_nf`
alone decides who gets wrapped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.nat.base import NetworkFunction
from repro.nat.compiled import compile_action
from repro.nat.flow import microflow_keys
from repro.nat.rewrite import rewrite_destination, rewrite_source
from repro.obs import flight
from repro.packets.headers import FlowKey, Packet

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
    its own rewrite helpers receive. ``closure`` is the same rewrite
    compiled for wire images (:func:`~repro.nat.compiled.compile_action`):
    the byte-verified closure, False for good when its output diverged
    from what the slow path emitted, or None until the flow's first
    wire-backed hit earns one (an action not learned from a wire-backed
    frame). ``replay_ok`` says whether the object replay (the hooks'
    ``apply``) may serve the flow's materialised packets: True once
    verified, False for good once it diverged, None while unchecked.
    """

    src: Optional[Tuple[int, int]]
    dst: Optional[Tuple[int, int]]
    out_device: int
    token: Any
    closure: Union[Callable[..., bytes], None, bool] = None
    replay_ok: Optional[bool] = True


def apply_endpoint_action(packet: Packet, action: CachedAction) -> Packet:
    """Replay a cached action the way ``_ConcreteEnv.emit`` rewrites.

    Clone, rewrite whichever endpoints the slow path rewrote (with the
    same shared helpers, so UDP zero-checksum semantics match), set the
    output device. This is the ``apply`` hook for every NF whose slow
    path emits via :func:`~repro.nat.rewrite.rewrite_source` /
    :func:`~repro.nat.rewrite.rewrite_destination`.
    """
    out = packet.clone()
    if action.src is not None:
        rewrite_source(out, *action.src)
    if action.dst is not None:
        rewrite_destination(out, *action.dst)
    out.device = action.out_device
    return out


def warm_actions(config, flow, token):
    """Both directions of a NAT flow as ``(flow key, CachedAction)`` pairs.

    Exactly what a learn on the flow's next packet would cache, derived
    from the flow record instead: outbound rewrites the source to the
    NAT's external endpoint, the reply rewrites the destination back to
    the internal endpoint, each under its
    :func:`~repro.nat.flow.microflow_keys` key. ``token`` is the NF's
    live handle for the flow, so warmed hits rejuvenate just like
    learned ones. The two NATs' ``warm_entries()`` hooks yield these.
    """
    forward_key, reply_key = microflow_keys(config, flow)
    fid = flow.internal_id
    yield forward_key, CachedAction(
        src=(config.external_ip, flow.external_port),
        dst=None,
        out_device=config.external_device,
        token=token,
    )
    yield reply_key, CachedAction(
        src=None,
        dst=(fid.src_ip, fid.src_port),
        out_device=config.internal_device,
        token=token,
    )


#: The cache's counters, declared once: (stem, help). Each is the plain
#: int ``self._<stem>``, which ``register_metrics`` publishes as the
#: metric ``fastpath_<stem>_total`` (read at snapshot time) and
#: ``op_counters()`` reports under the key ``fastpath_<stem>``.
_COUNTERS = (
    ("hits", "packets replayed from the action cache"),
    ("misses", "packets that took the slow path"),
    ("invalidations", "cached actions dropped because their flow ended"),
    ("evictions", "cached actions evicted by the FIFO capacity cap"),
    ("learns", "actions admitted after byte verification"),
    (
        "learn_rejected",
        "object replays that diverged from the slow path",
    ),
    ("warmed", "actions pre-installed from restored flow state"),
    ("compiles", "flow rewrites compiled into specialized closures"),
    (
        "compile_rejected",
        "compiled closures whose output diverged from the slow path",
    ),
    ("compiled_hits", "packets rewritten by a compiled closure"),
)

#: The cache's gauges: (metric name, ``FastPathNat`` property, help).
_GAUGES = (
    ("fastpath_cache_entries", "cache_size", "actions currently cached"),
    (
        "fastpath_compiled_entries",
        "compiled_size",
        "compiled closures currently installed",
    ),
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
        #: The one store. A flow's compiled closure, when it has one,
        #: hangs off its action — there is no second table to keep in
        #: step when a flow ends, on FIFO eviction or on restore.
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

    @property
    def compiled_size(self) -> int:
        return sum(1 for action in self._cache.values() if action.closure)

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
        for name, prop, help_text in _GAUGES:
            registry.gauge_fn(
                name, lambda p=prop: getattr(self, p), help_text, cache_labels
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

    def warm(self) -> int:
        """Pre-install cached actions for the inner NF's live flows.

        A freshly restored standby knows every live flow, yet a plain
        restore leaves this cache empty — so the first post-failover
        packet of *every* flow pays the slow path and the hit rate
        falls off a cliff exactly when the data path is busiest. NFs
        that can derive the per-direction actions from their flow table
        also provide ``warm_entries()`` (yielding
        ``(flow key, CachedAction)`` pairs) under the very keys the NF
        reports when the flow is freed, so a warmed action dies with
        its flow like a learned one.

        The learn-time replay verification is deliberately skipped:
        warmed actions are computed from flow state that
        ``restore_state`` has already validated against the NF's
        invariants, not inferred from a single packet. No closure is
        attached: like a materialised learn's, a warmed action earns it
        on its first wire-backed hit. Returns the number of entries
        installed (0 when the provider cannot warm).
        """
        warm_entries = getattr(self._hooks, "warm_entries", None)
        if warm_entries is None:
            return 0
        installed = 0
        for key, action in warm_entries():
            if len(self._cache) >= self.max_entries:
                break
            if key in self._cache and self._downstream is not None:
                self._downstream((key,))  # the replaced action ends here
            self._cache[key] = action
            installed += 1
        self._warmed += installed
        return installed

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
        action goes otherwise (the FIFO cap, a restore's clear, a
        ``warm`` replacing it), so nothing downstream outlives one."""
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

    def _replays(self, packet: Packet, action: CachedAction, outputs) -> bool:
        """Whether the object replay of ``action`` on ``packet`` is
        ``outputs``, the slow path's for it, byte for byte."""
        replayed = self._hooks.apply(packet, action)
        wire = [(out.device, out.wire_bytes()) for out in outputs]
        return wire == [(replayed.device, replayed.wire_bytes())]

    def _learn(
        self,
        packet: Packet,
        key: FlowKey,
        outputs: List[Packet],
        image: Optional[bytes],
    ) -> None:
        """Memoize what the slow path just did, if it is cacheable.

        Only single-packet forwards are cached (drops and multi-output
        behaviors always re-consult the slow path). The candidate action
        is verified before it is admitted: if the packet was wire-backed
        (``image``, read before the slow path parsed it), by its closure
        turning ``image`` into the slow path's bytes, which then leave as
        the output (the object replay is checked later, in ``_run``);
        otherwise, or if the closure diverged, by its object replay.
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
        # The key *is* the input's endpoints; the input itself need not
        # be read again.
        src: Optional[Tuple[int, int]] = (ipv4.src_ip, l4.src_port)
        if src == key[2:4]:
            src = None
        dst: Optional[Tuple[int, int]] = (ipv4.dst_ip, l4.dst_port)
        if dst == key[4:6]:
            dst = None
        action = CachedAction(
            src=src,
            dst=dst,
            out_device=out.device,
            token=token,
        )
        if image is not None:
            emitted = out.wire_bytes()
            closure = compile_action(key, action)
            if closure(image) == emitted:
                self._compiles += 1
                action.closure = closure
                action.replay_ok = None
                outputs[0] = Packet.from_image(emitted, out.device)
            else:
                self._compile_rejected += 1
                action.closure = False
        if not action.closure and not self._replays(packet, action, outputs):
            self._learn_rejected += 1
            return
        if key not in self._cache and len(self._cache) >= self.max_entries:
            evicted = next(iter(self._cache))
            del self._cache[evicted]
            self._evictions += 1
            if self._downstream is not None:
                self._downstream((evicted,))
        self._cache[key] = action
        self._learns += 1

    def _earn_closure(self, key: FlowKey, action: CachedAction, packet: Packet):
        """Compile ``action`` on its first wire-backed hit, verified.

        Only an action learned from a materialised packet or installed
        by ``warm()`` reaches this (a wire-backed learn compiles): its
        closure's output on the triggering frame must be byte-identical
        to that frame's object replay, or it is never attached — the
        action is marked rejected and every later hit keeps taking the
        object replay. Returns what was stored on the action.
        """
        closure = compile_action(key, action)
        if closure(packet.image) == self._hooks.apply(packet, action).wire_bytes():
            self._compiles += 1
        else:
            closure = False
            self._compile_rejected += 1
        action.closure = closure
        return closure

    def _run(self, packets: Sequence[Packet], now: int) -> List[List[Packet]]:
        """The per-packet code: cache consult, replay on a hit, slow
        path and learn on a miss. ``now`` is already clamped by
        ``begin_burst``.

        A cached action is a live flow's (``_drop_flow``), so a hit
        fires it unconditionally. A materialised packet whose action's
        object replay is unchecked or rejected takes the slow path.
        """
        hooks = self._hooks
        cache = self._cache
        rejuvenate = hooks.rejuvenate
        apply_action = hooks.apply
        inner_process = self.inner.process
        compiles = hooks.supports_raw
        from_image = Packet.from_image
        recorder = obs.recorder()
        tracing = recorder.active
        results: List[List[Packet]] = []
        hits = misses = compiled_hits = 0
        for packet in packets:
            key = packet.flow_key()
            action = cache.get(key) if key is not None else None
            if action is not None:
                image = packet.image
                closure = None
                if image is not None and compiles:
                    closure = action.closure
                    if closure is None:
                        closure = self._earn_closure(key, action, packet)
                if closure or action.replay_ok:
                    hits += 1
                    if tracing:
                        recorder.trace(flight.FASTPATH_HIT, t_us=now)
                    rejuvenate(action.token, now)
                    if closure:
                        compiled_hits += 1
                        results.append(
                            [from_image(closure(image), action.out_device)]
                        )
                    else:
                        results.append([apply_action(packet, action)])
                    continue
            misses += 1
            if tracing:
                recorder.trace(flight.SLOW_PATH, t_us=now)
            # Read before the slow path materialises the packet.
            image = packet.image if compiles else None
            outputs = inner_process(packet, now)
            if action is None and key is not None:
                self._learn(packet, key, outputs, image)
            elif action is not None and action.replay_ok is None:
                # Checked once: it serves from here on, or never does.
                action.replay_ok = self._replays(packet, action, outputs)
                self._learn_rejected += not action.replay_ok
            results.append(outputs)
        self._hits += hits
        self._misses += misses
        self._compiled_hits += compiled_hits
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
    "apply_endpoint_action",
    "check_fastpath",
    "warm_actions",
]
