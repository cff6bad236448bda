"""Static checks on the package sources."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted(p for p in (ROOT / "src" / "ddfv").glob("*.py")
                 if p.name != "__init__.py")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items()
                    if name not in used)
    assert not unused, f"{path.name}: unused imports (line, name) {unused}"


def test_benchmark_tracer_finds_every_wrapped_function():
    # perfbench/tracer.py wraps package functions by name; a renamed one
    # would make its instrument() fail with AttributeError.
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    from ddfv import harness, scheme, solver

    owners = (harness, scheme, solver, scheme.Assembly)
    before = [(owner, dict(vars(owner))) for owner in owners]
    with tracer.instrument(tracer.Tracer(), full=True):
        assert harness.simulate is not before[0][1]["simulate"]
    # every original is put back
    for owner, names in before:
        assert all(vars(owner).get(k) is v for k, v in names.items()), owner
