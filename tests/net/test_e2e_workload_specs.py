"""The end-to-end benchmark's deployments still launch, checked in tier-1.

``benchmarks/e2e/workloads.py`` builds each workload's spec and its
slow-path oracle's spec and launches them through ``launch`` /
``launch_chain``. A renamed spec field or a changed runtime constructor
would otherwise first fail in a benchmark run. This loads the
benchmark's own module (without editing or running the benchmark) and
puts one frame through one turn of every deployment it names.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.packets.builder import make_udp_packet

WORKLOADS = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("e2e_workloads_under_test", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name while they are built.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


MODULE = load_workloads()


@pytest.mark.parametrize("reference", [False, True], ids=["spec", "reference"])
@pytest.mark.parametrize("workload", MODULE.WORKLOADS, ids=lambda w: w.name)
def test_each_deployment_launches_and_turns(workload, reference):
    runtime = MODULE.launch_workload(workload, reference=reference)
    try:
        frame = make_udp_packet("10.0.0.1", "8.8.8.8", 4_000, 53, device=0)
        assert runtime.inject(0, frame, 1_000)
        # A chain counts the frame once per stage.
        assert runtime.main_loop_burst(1_000, MODULE.BURST) > 0
        assert len(runtime.collect()) == 1
    finally:
        runtime.stop()
