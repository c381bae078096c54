"""The ledger's arithmetic, and that tracing leaves the program as it found it."""

import pytest

import ledger as spans


class FakeClock:
    def __init__(self, per_read: int = 0) -> None:
        self.now = 0
        self.per_read = per_read

    def __call__(self) -> int:
        now = self.now
        self.now += self.per_read
        return now


def three_level_nest(ledger, clock):
    """top -> mid -> leaf, leaf; each burns a known amount of its own time."""
    calls = {}

    def leaf():
        clock.now += 5

    def mid():
        clock.now += 3
        calls["leaf"]()
        calls["leaf"]()
        clock.now += 2

    def top():
        clock.now += 1
        calls["mid"]()
        clock.now += 4

    for fn in (leaf, mid, top):
        calls[fn.__name__] = ledger.wrap(fn, fn.__name__)
    return calls["top"]


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    ledger = spans.Ledger(["top", "mid", "leaf"], clock=clock)
    top = three_level_nest(ledger, clock)

    start = clock.now
    clock.now += 7  # the loop's own work
    top()
    ledger.close_root(clock.now - start)

    self_ns = dict(zip(ledger.names, ledger.self_ns))
    assert self_ns == {spans.ROOT: 7, "top": 5, "mid": 5, "leaf": 10}
    assert dict(zip(ledger.names, ledger.spans)) == {
        spans.ROOT: 1, "top": 1, "mid": 1, "leaf": 2,
    }
    assert sum(ledger.self_ns) == clock.now - start  # self times partition the root


def test_timer_correction_charges_inner_to_the_span_and_outer_to_its_parent():
    clock = FakeClock()
    ledger = spans.Ledger(["top", "mid", "leaf"], clock=clock)
    top = three_level_nest(ledger, clock)
    clock.now += 7
    top()
    ledger.close_root(clock.now)

    cost = {"top": 3.0, "mid": 3.0, "leaf": 3.0}
    corrected = ledger.corrected_ns(cost, inner_ns=1.0)

    # leaf: two spans' inner share; mid: its inner + two leaves' outer; ...
    assert corrected == {spans.ROOT: 5.0, "top": 2.0, "mid": 0.0, "leaf": 8.0}
    assert sum(corrected.values()) == clock.now - 3.0 * ledger.total_spans()


def test_outer_layer_self_time_is_the_cost_of_one_span():
    clock = FakeClock(per_read=1)  # every clock read costs one tick
    ledger = spans.Ledger(["b", "b" + spans.COST], clock=clock)

    def body():
        clock.now += 40

    inner = ledger.wrap(body, "b")
    outer = ledger.wrap(inner, "b" + spans.COST)
    for _ in range(3):
        outer()
    # Between the outer reads lie the inner wrapper's two reads and nothing else.
    assert ledger.span_costs() == {"b": 2.0}


def test_wrapper_keeps_the_call_signature():
    ledger = spans.Ledger(["b"])

    def fn(self, data, device=7, *, flag=False):
        return (data, device, flag)

    traced = ledger.wrap(fn, "b")
    assert traced(None, "x") == ("x", 7, False)
    assert traced(None, data="x", device=1, flag=True) == ("x", 1, True)
    with pytest.raises(TypeError):
        traced(None)
    with pytest.raises(TypeError):
        ledger.wrap(lambda *args: None, "b")


def test_sized_wrappers_count_bytes_moved():
    ledger = spans.Ledger(["push", "pop"])
    push = ledger.wrap(lambda self, records: True, "push", size="arg")
    pop = ledger.wrap(lambda self: self, "pop", size="result")
    push(None, b"12345")
    pop(b"123")
    pop(None)
    assert dict(zip(ledger.names, ledger.sizes)) == {spans.ROOT: 0, "push": 5, "pop": 3}


def test_install_wraps_on_the_class_and_uninstall_restores_every_attribute():
    from repro.packets.builder import make_udp_packet
    from repro.packets.headers import Packet

    table = spans.targets()
    before = {(cls, attr): vars(cls)[attr] for cls, attr, _, _ in table}
    assert len(before) == len(table), "a target is listed twice"
    frame = make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2).to_bytes()

    ledger = spans.Ledger(sorted({bucket for _, _, bucket, _ in table}))
    patches = spans.install(ledger, table)
    try:
        assert all(vars(cls)[attr] is not before[cls, attr] for cls, attr in before)
        assert Packet.from_bytes(frame, 1).wire_bytes() == frame  # classmethod survives
        assert ledger.spans[ledger.index["packets.parse_ns"]] == 1
    finally:
        spans.uninstall(patches)
    assert patches == []
    assert all(vars(cls)[attr] is before[cls, attr] for cls, attr in before)
    assert spans.traced_targets() == []


def test_every_bucket_is_a_ledger_metric():
    from metricdefs import LEDGER_SELF_TIMES

    buckets = {bucket for _, _, bucket, _ in spans.targets()}
    assert buckets | {spans.ROOT} == set(LEDGER_SELF_TIMES)
