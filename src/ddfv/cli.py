"""Command-line front end.

Commands: mesh (gen | inspect | convert), run, converge, longtime, check.
``SETTINGS`` holds every setting once (type, default, help) and ``COMMANDS``
names the settings each command (each mesh action on its own) reads.  A
command accepts exactly these, as ``--flag`` or as a key of an optional
flat ``key = value`` config file (``--config``; flags override the file);
any other flag or key is a config error.  run, converge and longtime make
the output directory and echo their settings to ``effective_config`` there
at the run's first state (``_first_state``), so a run can be reproduced
bit-identically from it and an error before that state leaves no file.

Exit codes: 0 ok, 2 config/mesh/file error, 3 solver failure, 4 property
failure (``check``, or a runtime invariant that stops a time loop).
"""

import argparse
import dataclasses
import sys
from pathlib import Path

from . import harness, mesh as meshmod, selfcheck
from .errors import (DDFVError, InvariantViolation, MeshError, SolverError,
                     ValidationError)
from .fields import TensorSpec
from .scheme import SchemeParams, project_initial
from .solver import NewtonConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_PROPERTY = 4

# name: (type, default, help).  The flag is --name with dashes for
# underscores; a config file uses the name itself.
SETTINGS = {
    "out": (str, ".", "output directory"),
    "case": (str, "decay", "test case name"),
    "family": (str, "quad", "mesh family: uniform | quad | kershaw"),
    "n": (int, 8, "cells per side"),
    "mesh": (str, None, "mesh file path"),
    "levels": (int, 3, "number of refinement levels"),
    "n0": (int, 8, "cells per side at level 0"),
    "dt": (float, 4e-3, "time step"),
    "dt0": (float, 4e-3, "time step at level 0"),
    "tfinal": (float, None, "final time"),
    "kappa": (float, 0.0, "stabilization parameter"),
    "beta": (float, 1.0, "penalization exponent"),
    "lam": (str, None, "tensor spec, e.g. identity or diag:1,1e-2"),
    "amplitude": (float, None, "quad family distortion"),
    "distortion": (float, None, "kershaw distortion"),
    "newton_tol": (float, 1e-10, "Newton tolerance on the residual l1 norm"),
    "newton_max_iter": (int, 50, "Newton iterations per step at most"),
    "seed": (int, 0, "seed for randomized checks"),
}


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports a bad command line as a config error
    (``main`` prints ``error: ...`` and returns 2) instead of exiting, and
    takes no abbreviated flags, so a flag a command does not read is never
    taken for a longer one it does (``--dt`` for ``--dt0``)."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def load_config(path, command):
    _, _, keys = COMMANDS[command]
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not a text file (byte "
                              f"{exc.object[exc.start]:#x})") from None
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (t.strip() for t in line.split("=", 1))
        if key not in keys:
            raise ValidationError(
                f"{path}:{lineno}: {command} has no setting {key!r}")
        typ, _, _ = SETTINGS[key]
        try:
            values[key] = typ(raw)
        except ValueError:
            raise ValidationError(
                f"{path}:{lineno}: cannot parse value for {key!r}"
            ) from None
    return values


def effective_config(args):
    """The command's settings: defaults, then the config file, then flags."""
    _, _, keys = COMMANDS[args.command]
    cfg = {key: SETTINGS[key][1] for key in keys}
    if args.config:
        cfg.update(load_config(args.config, args.command))
    for key in keys:
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    return cfg


def _family_kwargs(cfg):
    """The family arguments given, as keywords of ``mesh.gen_family``:
    --amplitude is read only with --family quad and --distortion only with
    kershaw, neither with --mesh; another one is a ValidationError."""
    kw = {}
    for key, family in (("amplitude", "quad"), ("distortion", "kershaw")):
        if cfg[key] is not None:
            if cfg.get("mesh") or cfg["family"] != family:
                raise ValidationError(f"--{key} is read only with --family "
                                      f"{family} and no --mesh")
            kw[key] = cfg[key]
    return kw


def _load_mesh(cfg):
    kwargs = _family_kwargs(cfg)
    primal = (meshmod.read_mesh(cfg["mesh"]) if cfg["mesh"] else
              meshmod.gen_family(cfg["family"], cfg["n"], **kwargs))
    return meshmod.build_ddfv(primal)


def _case(cfg):
    """The named test case with the lam and tfinal overrides applied."""
    case = harness.get_case(cfg["case"])
    overrides = {}
    if cfg["lam"]:
        overrides["lam"] = TensorSpec.parse(cfg["lam"])
    if cfg["tfinal"] is not None:
        overrides["t_final"] = cfg["tfinal"]
    return dataclasses.replace(case, **overrides)


def _newton(cfg):
    return NewtonConfig(tol_residual_l1=cfg["newton_tol"],
                        max_iter=cfg["newton_max_iter"])


def _out_dir(cfg):
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _first_state(cfg):
    """The observer that run, converge and longtime hand to the library.

    Its first call is ``simulate``'s step-0 call, which comes after every
    set-up check (settings, mesh, data, the time rows and, for converge,
    the level count and the finest level); it makes --out and writes
    ``effective_config`` there.  So an error before the run's first state
    leaves no file, and a run that fails later can still be reproduced.
    """
    made = False

    def observe(rec, u_vec):
        nonlocal made
        if not made:
            made = True
            lines = [f"{k} = {v}" for k, v in sorted(cfg.items())
                     if v is not None]
            (_out_dir(cfg) / "effective_config").write_text(
                "\n".join(lines) + "\n")

    return observe


# --- commands -----------------------------------------------------------


def _lam(cfg):
    return TensorSpec.parse(cfg["lam"]) if cfg["lam"] else None


def _mesh_report(ddfv, lam):
    print(meshmod.quality(ddfv, lam).summary())
    return EXIT_OK


def _write_valid_mesh(primal, name, cfg):
    """Write the mesh under --out only once ``build_ddfv`` and the --lam
    parser accept it, so a rejected mesh or tensor leaves no file behind;
    then report its quality."""
    lam = _lam(cfg)
    ddfv = meshmod.build_ddfv(primal)
    path = _out_dir(cfg) / name
    meshmod.write_mesh(primal, path)
    print(f"wrote {path}")
    return _mesh_report(ddfv, lam)


def cmd_mesh_gen(args):
    cfg = effective_config(args)
    primal = meshmod.gen_family(cfg["family"], cfg["n"], **_family_kwargs(cfg))
    return _write_valid_mesh(primal, f"{cfg['family']}_{cfg['n']}.mesh", cfg)


def cmd_mesh_inspect(args):
    cfg = effective_config(args)
    if not cfg["mesh"]:
        raise ValidationError("mesh inspect needs --mesh PATH")
    lam = _lam(cfg)
    return _mesh_report(meshmod.build_ddfv(meshmod.read_mesh(cfg["mesh"])), lam)


def cmd_mesh_convert(args):
    cfg = effective_config(args)
    if not cfg["mesh"]:
        raise ValidationError("mesh convert needs --mesh PATH")
    primal = meshmod.read_mesh(cfg["mesh"])
    name = Path(cfg["mesh"]).stem + "_converted.mesh"
    return _write_valid_mesh(primal, name, cfg)


def _trace_csv(records):
    lines = ["n,t,mass,energy,dissipation,dissipation_hat,penalty,min_u,"
             "newton_iters,newton_residual,newton_backtracks,factorizations,"
             "krylov_iterations"]
    for r in records:
        opt = [r.dissipation, r.dissipation_hat, r.penalty_bracket]
        opt = ["" if v is None else repr(v) for v in opt]
        lines.append(
            f"{r.n},{r.t!r},{r.mass!r},{r.energy!r},{opt[0]},{opt[1]},"
            f"{opt[2]},{r.min_u!r},{r.newton_iterations},{r.newton_residual!r},"
            f"{r.newton_backtracks},{r.factorizations},{r.krylov_iterations}"
        )
    return "\n".join(lines) + "\n"


def cmd_run(args):
    cfg = effective_config(args)
    mesh = _load_mesh(cfg)
    case = _case(cfg)
    params = SchemeParams(
        dt=cfg["dt"], t_final=case.t_final, kappa=cfg["kappa"],
        beta=cfg["beta"], lam=case.lam, potential=case.potential,
        newton=_newton(cfg),
    )
    u0 = project_initial(mesh, case.u0)
    result = harness.simulate(mesh, params, u0, _first_state(cfg))
    (_out_dir(cfg) / "trace.csv").write_text(_trace_csv(result.records))
    last = result.records[-1]
    print(f"steps            {last.n}")
    print(f"final time       {last.t:.6g}")
    print(f"mass             {last.mass:.12e}")
    print(f"final energy     {last.energy:.12e}")
    print(f"min u (n>=1)     {result.min_u:.6e}")
    print(f"newton max/mean  {result.newton_max}/{result.newton_mean:.2f}")
    print(f"dt/h             {params.dt / mesh.h:.6g}")
    print(f"floor activated  {result.floor_ever_activated}")
    return EXIT_OK


def cmd_converge(args):
    cfg = effective_config(args)
    rows = harness.convergence_study(
        _case(cfg), cfg["family"], cfg["levels"], n0=cfg["n0"],
        dt0=cfg["dt0"], kappa=cfg["kappa"], beta=cfg["beta"],
        newton=_newton(cfg), family_kwargs=_family_kwargs(cfg),
        observe=_first_state(cfg))
    (_out_dir(cfg) / "convergence.csv").write_text(harness.rows_to_csv(rows))
    print(harness.rows_to_text(rows), end="")
    return EXIT_OK


def cmd_longtime(args):
    cfg = effective_config(args)
    mesh = _load_mesh(cfg)
    t_final = cfg["tfinal"] if cfg["tfinal"] is not None else 2.0
    result = harness.longtime_study(
        _case(cfg), mesh, cfg["dt"], t_final, kappa=cfg["kappa"],
        beta=cfg["beta"], newton=_newton(cfg), observe=_first_state(cfg),
    )
    out = _out_dir(cfg)
    (out / "energy_decay.csv").write_text(result.to_csv())
    if args.plot_script:
        (out / "plot_energy.py").write_text(_PLOT_SCRIPT)
    if result.saturated:
        print("fitted rate      saturated")
    else:
        print(f"fitted rate      {result.rate:.6g}")
        print(f"r_squared        {result.r_squared:.6f}")
    print(f"series length    {len(result.series)}")
    return EXIT_OK


_PLOT_SCRIPT = """\
import csv
import matplotlib.pyplot as plt

with open("energy_decay.csv") as f:
    rows = list(csv.DictReader(f))
t = [float(r["t"]) for r in rows]
e = [float(r["relative_energy"]) for r in rows]
plt.semilogy(t, e)
plt.xlabel("time")
plt.ylabel("relative energy")
plt.tight_layout()
plt.savefig("energy_decay.png", dpi=150)
"""


def cmd_check(args):
    cfg = effective_config(args)
    results = selfcheck.run_property_checks(cfg["seed"])
    print(f"seed {cfg['seed']}")
    for res in results:
        print(res.line())
    if all(r.passed for r in results):
        return EXIT_OK
    return EXIT_PROPERTY


# The settings of a time loop on one mesh (run, longtime).
_ONE_MESH = ("out", "case", "family", "n", "mesh", "dt", "tfinal", "kappa",
             "beta", "lam", "amplitude", "distortion", "newton_tol",
             "newton_max_iter")

# name: (function, help, settings it reads).  A two-word name is an action
# of a command group (``ddfv mesh gen``); GROUPS holds the group's help.
GROUPS = {"mesh": "generate, inspect or convert meshes"}
COMMANDS = {
    "mesh gen": (cmd_mesh_gen, "generate a mesh, write it and report it",
                 ("out", "family", "n", "lam", "amplitude", "distortion")),
    "mesh inspect": (cmd_mesh_inspect, "report a mesh file",
                     ("mesh", "lam")),
    "mesh convert": (cmd_mesh_convert, "rewrite a mesh file and report it",
                     ("mesh", "out", "lam")),
    "run": (cmd_run, "single transient run with trace.csv", _ONE_MESH),
    "converge": (cmd_converge, "mesh convergence study",
                 ("out", "case", "family", "levels", "n0", "dt0", "tfinal",
                  "kappa", "beta", "lam", "amplitude", "distortion",
                  "newton_tol", "newton_max_iter")),
    "longtime": (cmd_longtime, "relative-energy decay study", _ONE_MESH),
    "check": (cmd_check, "structural property suite", ("seed",)),
}


def build_parser():
    parser = _Parser(
        prog="ddfv",
        description="Free-energy diminishing finite-volume solver for "
                    "drift-diffusion on distorted 2D meshes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for name, (func, help_, keys) in COMMANDS.items():
        group, _, action = name.rpartition(" ")
        parent = sub
        if group:
            if group not in groups:
                groups[group] = sub.add_parser(
                    group, help=GROUPS[group]).add_subparsers(
                        dest="action", required=True)
            parent = groups[group]
        p = parent.add_parser(action, help=help_)
        p.set_defaults(command=name)
        p.add_argument("--config", help="flat key = value config file")
        for key in keys:
            typ, _, key_help = SETTINGS[key]
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=typ,
                           help=key_help)
        if name == "longtime":
            p.add_argument("--plot-script", action="store_true",
                           help="also emit a matplotlib plotting script")
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (MeshError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except InvariantViolation as exc:
        print(f"property failure: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except DDFVError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
