"""The benchmark's workloads, run once at full size, reproduce the outputs
recorded in ``perfbench/references.json`` and pass its acceptance gates.

A change that moves an output beyond the benchmark's relative tolerance,
or a count at all, fails here and not only in the benchmark."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_workload_matches_references(name):
    run, _ = workloads.WORKLOADS[name]
    _, outputs = run()
    assert workloads.check(name, outputs, workloads.load_references()) == []
