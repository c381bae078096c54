"""The end-to-end benchmark's tracing contract, checked in tier-1.

``benchmarks/e2e/ledger.py`` wraps each target with
``vars(cls)[attr]`` in every benchmark child, traced or not — so a
method that drifts into a base class raises ``KeyError`` there, at the
end of a run nobody was watching. This reads the benchmark's own table
(without editing or running the benchmark) and fails here instead.
"""

import importlib.util
from pathlib import Path

LEDGER = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "ledger.py"


def load_ledger():
    spec = importlib.util.spec_from_file_location("e2e_ledger_under_test", LEDGER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_method_is_defined_on_its_own_class():
    table = load_ledger().targets()
    assert len(table) > 30
    inherited = [
        f"{cls.__name__}.{attr}"
        for cls, attr, _bucket, _size in table
        if attr not in vars(cls)
    ]
    assert not inherited, f"traced methods moved off their class: {inherited}"


def test_install_and_uninstall_round_trip():
    """What a ``--trace 1`` child does to the classes, and undoes."""
    ledger = load_ledger()
    table = ledger.targets()
    originals = [vars(cls)[attr] for cls, attr, _bucket, _size in table]
    buckets = sorted({bucket for _cls, _attr, bucket, _size in table})
    patches = ledger.install(ledger.Ledger(buckets), table)
    try:
        assert all(
            vars(cls)[attr] is not original
            for (cls, attr, _b, _s), original in zip(table, originals)
        )
    finally:
        ledger.uninstall(patches)
    assert [vars(cls)[attr] for cls, attr, _b, _s in table] == originals
