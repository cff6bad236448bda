"""Static checks on the package sources."""

import ast
import importlib.util
import os
import subprocess
import sys
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


def test_every_constant_is_read():
    """Fail on a module-level UPPER_CASE constant of src/ddfv that no code
    in src/ddfv reads, as a name or an attribute: a setting nothing obeys,
    or a leftover of a rule that is gone.  Re-exports in ``__init__.py``
    do not count as a read."""
    constants, read = [], set()
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        constants += [(path.name, node.lineno, t.id) for node in tree.body
                      if isinstance(node, ast.Assign) for t in node.targets
                      if isinstance(t, ast.Name) and t.id.isupper()]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert constants
    unread = [c for c in constants if c[2] not in read]
    assert not unread, f"never read in src/ddfv (file, line, name): {unread}"


def _is_dataclass(node):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None)
               == "dataclass" for d in node.decorator_list)


def _is_self(node):
    return isinstance(node.value, ast.Name) and node.value.id == "self"


def test_every_stored_field_is_read():
    """Fail on a dataclass field or a ``self.<name>`` attribute of a
    src/ddfv class that no code in src/ddfv reads by name (an attribute
    load, or the target of an augmented assignment): state a class keeps
    for nobody.  A ``self.<name>`` read counts only for the class whose
    body holds it; any other attribute read counts for every class, so
    across objects the check is still by name only."""
    stored, read = [], set()    # read: (class, or None for every class, name)
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        owner = {}      # id of a self.<name> node -> its innermost class
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                owner.update((id(sub), node.name) for sub in ast.walk(node)
                             if isinstance(sub, ast.Attribute)
                             and _is_self(sub))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                if _is_dataclass(node):
                    stored += [(path.name, st.lineno, node.name, st.target.id)
                               for st in node.body
                               if isinstance(st, ast.AnnAssign)
                               and isinstance(st.target, ast.Name)]
                stored += [(path.name, e.lineno, node.name, e.attr)
                           for sub in ast.walk(node)
                           if isinstance(sub, (ast.Assign, ast.AnnAssign))
                           for target in (sub.targets if isinstance(
                               sub, ast.Assign) else [sub.target])
                           for e in ast.walk(target)
                           if isinstance(e, ast.Attribute)
                           and isinstance(e.ctx, ast.Store)
                           and _is_self(e)]
                continue
            if isinstance(node, ast.AugAssign):
                node = node.target
            elif not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Attribute):
                read.add((owner.get(id(node)), node.attr))
    assert stored
    unread = sorted({s for s in stored if (None, s[3]) not in read
                     and (s[2], s[3]) not in read})
    assert not unread, ("stored but never read in src/ddfv "
                        f"(file, line, class, name): {unread}")


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


# Every command, a run and a long-time study in one fresh process: none
# loads scipy.special, whose import alone costs 3.7 MB of resident memory.
NO_SPECIAL = """
import sys
from ddfv import harness, mesh, scheme
from ddfv.cli import main

quad = mesh.build_ddfv(mesh.gen_family("quad", 4))
case = harness.get_case("decay")
params = scheme.SchemeParams(dt=0.01, t_final=0.02, lam=case.lam,
                             potential=case.potential)
harness.simulate(quad, params, scheme.project_initial(quad, case.u0))
harness.longtime_study(case, quad, dt=0.05, t_final=0.2)
for argv in ("check --seed 1", "run --n 4 --tfinal 0.008 --out run",
             "converge --levels 2 --n0 4 --tfinal 0.008 --out converge",
             "longtime --n 4 --tfinal 0.02 --plot-script --out longtime",
             "mesh gen --n 4 --out m", "mesh convert --mesh m/quad_4.mesh",
             "mesh inspect --mesh m/quad_4.mesh --lam rotated:1,0.1,0.3"):
    assert main(argv.split()) == 0, argv
sys.exit("scipy.special" in sys.modules)
"""


def test_no_run_or_command_loads_scipy_special(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", NO_SPECIAL], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
