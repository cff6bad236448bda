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


# Defined in src/ddfv but referenced nowhere else there, on purpose.
UNREFERENCED_ON_PURPOSE = {
    # loop oracles of the vectorised mesh set-up, called by the tests only
    "segment_intersection": "oracle of build_ddfv's crossing test",
    "diamond_geometry": "oracle of build_ddfv's diamond geometry",
    "gradient_on_diamond": "oracle of operators.grad_diamond",
    "polygon_area": "oracle of the vectorised cell areas",
    "polygon_centroid": "oracle of the vectorised cell centroids",
    "dual_polygon": "oracle of the vectorised dual cells",
    "from_callable": "TensorSpec.from_callable is the only library entry "
                     "point for a spatially varying tensor",
}


def test_every_definition_is_referenced():
    """Fail on a function, class or method of src/ddfv (dunders aside) whose
    name appears nowhere else in src/ddfv, as a name, an attribute or an
    imported name.  Re-exports in ``__init__.py`` do not count as a use.

    The check is by name only: a definition that shares its name with
    something that is used elsewhere (a wrapper called ``dissipation`` next
    to the ``StateRecord.dissipation`` field, say) is not caught."""
    defined, referenced = [], set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append((path.name, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    unused = [d for d in defined
              if d[2] not in referenced and d[2] not in UNREFERENCED_ON_PURPOSE]
    assert not unused, f"never referenced in src/ddfv (file, line, name): {unused}"
    names = {d[2] for d in defined}
    stale = sorted(n for n in UNREFERENCED_ON_PURPOSE
                   if n in referenced or n not in names)
    assert not stale, f"allowlisted but referenced or gone: {stale}"


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
