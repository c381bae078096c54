"""The flight recorder: ring wraparound, dumps, trace diffs, one ring."""

import ast
import json
from pathlib import Path

import repro
from repro.obs import flight
from repro.obs.flight import FlightRecorder, first_divergence
from repro.packets.builder import make_udp_packet
from repro.packets.pcap import read_pcap_file


def test_ring_wraparound_keeps_last_n():
    recorder = FlightRecorder(capacity=4)
    for i in range(10):
        recorder.record(flight.RX, t_us=i)
    assert recorder.recorded_total == 10
    assert len(recorder) == 4
    assert [e.seq for e in recorder.last()] == [6, 7, 8, 9]
    assert [e.t_us for e in recorder.last(2)] == [8, 9]


def test_last_before_wraparound():
    recorder = FlightRecorder(capacity=8)
    recorder.record(flight.RX)
    recorder.record(flight.TX)
    events = recorder.last()
    assert [e.stage for e in events] == [flight.RX, flight.TX]
    assert [e.seq for e in events] == [0, 1]


def test_dump_writes_trace_and_pcap(tmp_path):
    recorder = FlightRecorder(capacity=16)
    wire = make_udp_packet("10.0.0.1", "8.8.8.8", 1234, 53).wire_bytes()
    recorder.record(flight.RX, t_us=5, worker=1)
    recorder.record(
        flight.DROP, t_us=6, worker=1, reason=flight.REASON_NF_DROP, wire=wire
    )
    paths = recorder.dump(tmp_path, "incident", "drop-spike")

    lines = (tmp_path / "incident.trace.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    assert header["anomaly"] == "drop-spike"
    assert header["events"] == 2
    events = [json.loads(line) for line in lines[1:]]
    assert [e["stage"] for e in events] == [flight.RX, flight.DROP]
    assert events[1]["reason"] == flight.REASON_NF_DROP
    assert events[1]["wire_len"] == len(wire)

    frames = read_pcap_file(paths["pcap"])
    assert len(frames) == 1
    assert frames[0].data == wire
    assert frames[0].timestamp_us == 6
    assert recorder.dumps == 1


def test_dump_without_wire_events_skips_pcap(tmp_path):
    recorder = FlightRecorder(capacity=4)
    recorder.record(flight.TX)
    paths = recorder.dump(tmp_path, "plain", "drop-spike")
    assert "pcap" not in paths
    assert not (tmp_path / "plain.pcap").exists()


def test_only_repro_obs_builds_a_flight_recorder():
    # One event path: every data path traces into obs.recorder()'s ring,
    # so no module outside repro.obs constructs a ring of its own.
    package = Path(repro.__file__).parent
    builders = []
    for path in sorted(package.rglob("*.py")):
        if path.relative_to(package).parts[0] == "obs":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and "FlightRecorder" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                builders.append(f"{path.relative_to(package)}:{node.lineno}")
    assert builders == []


def test_first_divergence_none_when_identical():
    outputs = [[(b"aa", 0)], [], [(b"bb", 1)]]
    assert first_divergence(outputs, [list(o) for o in outputs]) is None


def test_first_divergence_reports_index_and_sides():
    expected = [[(b"aa", 0)], [(b"bb", 1)]]
    actual = [[(b"aa", 0)], []]
    diff = first_divergence(expected, actual)
    assert diff is not None
    assert diff.index == 1
    assert diff.expected == ((b"bb", 1),)
    assert diff.actual == ()
    rendered = diff.render()
    assert "packet #1" in rendered
    assert "(dropped)" in rendered
    assert b"bb".hex() in rendered


def test_first_divergence_length_mismatch():
    diff = first_divergence([[(b"aa", 0)]], [[(b"aa", 0)], [(b"cc", 1)]])
    assert diff is not None
    assert diff.index == 1
    assert diff.expected == ()
