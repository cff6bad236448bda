"""The benchmark's workloads and the checks on their outputs.

Each workload runs through the public calls the ``ddfv`` CLI makes and
returns the number of accepted time steps and the outputs that are
compared with ``references.json``.  None has a random input.  Sizes are cut
from the acceptance-suite jobs so that one repetition takes a few seconds
and every run of the benchmark holds several repetitions; the cost shares
of the full-size jobs are kept (see README.md).
"""

import dataclasses
import json
import math
from pathlib import Path

from ddfv import harness, mesh as meshmod, scheme

REFERENCES = Path(__file__).with_name("references.json")
RTOL = 1e-8
NEWTON_MAX = 12


def converge_quad_k01(n0=8, levels=3, t_final=0.032):
    """``ddfv converge`` on the quad family, amplitude 0.15, kappa 0.1."""
    case = dataclasses.replace(harness.get_case("decay"), t_final=t_final)
    rows = harness.convergence_study(
        case, "quad", levels, n0=n0, dt0=4e-3, kappa=0.1,
        family_kwargs={"amplitude": 0.15},
    )
    steps = sum(scheme.SchemeParams(dt=r.dt, t_final=t_final).n_steps
                for r in rows)
    keys = ("erru", "ordu", "errgu", "ordgu", "normU", "ordU", "newton_max",
            "min_u", "floor_activated")
    return steps, {k: [getattr(r, k) for r in rows] for k in keys}


def longtime_n16(n=16, t_final=0.5):
    """``ddfv longtime`` on quad n=16, amplitude 0.1, dt 1e-3, kappa 0."""
    case = harness.get_case("decay")
    mesh = meshmod.build_ddfv(meshmod.gen_family("quad", n, amplitude=0.1))
    result = harness.longtime_study(case, mesh, dt=1e-3, t_final=t_final)
    above = [e for _, _, e in result.series if e > harness.SATURATION_CUTOFF]
    return len(result.series) - 1, {
        "rate": result.rate,
        "r_squared": result.r_squared,
        "saturated": result.saturated,
        "series_len": len(result.series),
        "final_relative_energy": result.series[-1][2],
        "monotone": all(b <= a for a, b in zip(above, above[1:])),
    }


def run_kershaw_n64(n=64, n_steps=4, dt=6.25e-5):
    """``ddfv run`` on kershaw: project the data, then a few time steps."""
    case = harness.get_case("decay")
    mesh = meshmod.build_ddfv(meshmod.gen_family("kershaw", n))
    params = scheme.SchemeParams(dt=dt, t_final=n_steps * dt, lam=case.lam,
                                 potential=case.potential)
    u0 = scheme.project_initial(mesh, case.u0)
    result = harness.simulate(mesh, params, u0)
    last = result.records[-1]
    return last.n, {
        "steps": last.n,
        "mass": last.mass,
        "energy": last.energy,
        "min_u": result.min_u,
        "newton_max": result.newton_max,
        "floor_activated": result.floor_ever_activated,
    }


# Each workload with the arguments of its small untimed warm-up run.
WORKLOADS = {
    "converge_quad_k01": (converge_quad_k01,
                          {"n0": 4, "levels": 1, "t_final": 0.008}),
    "longtime_n16": (longtime_n16, {"n": 4, "t_final": 0.005}),
    "run_kershaw_n64": (run_kershaw_n64, {"n": 4, "n_steps": 1}),
}


def gates(name, out):
    """The acceptance gates that hold on each workload's outputs."""
    failures = []

    def need(ok, what):
        if not ok:
            failures.append(what)

    if name == "converge_quad_k01":
        need(all(o >= 1.8 for o in out["ordu"][1:]), "ordu >= 1.8")
        need(all(1.2 <= o <= 1.8 for o in out["ordgu"][1:]),
             "ordgu in [1.2, 1.8]")
        need(all(0.8 <= o <= 1.3 for o in out["ordU"][1:]),
             "ordU in [0.8, 1.3]")
        need(max(out["newton_max"]) <= NEWTON_MAX, "Newton max <= 12")
        need(not any(out["floor_activated"]), "positivity floor unused")
        need(min(out["min_u"]) > 0.0, "state strictly positive")
    elif name == "longtime_n16":
        need(not out["saturated"], "series not saturated")
        need(out["r_squared"] >= 0.99, "R^2 >= 0.99")
        need(out["monotone"], "relative energy monotone")
    else:
        need(out["newton_max"] <= NEWTON_MAX, "Newton max <= 12")
        need(not out["floor_activated"], "positivity floor unused")
        need(out["min_u"] > 0.0, "state strictly positive")
    return failures


def mismatches(expected, actual, path=""):
    """Differences between recorded and produced outputs: floats within
    RTOL, everything else (counts, flags, None) exactly."""
    if isinstance(expected, dict):
        if set(expected) != set(actual):
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        return [m for k in expected
                for m in mismatches(expected[k], actual[k], f"{path}.{k}")]
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual))
                for m in mismatches(e, a, f"{path}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, float):
        if math.isclose(actual, expected, rel_tol=RTOL, abs_tol=0.0):
            return []
    elif type(expected) is type(actual) and expected == actual:
        return []
    return [f"{path}: {actual!r} != reference {expected!r}"]


def load_references():
    return json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}


def check(name, outputs, references):
    """All reasons the outputs fail: reference mismatches, then gates."""
    if name not in references:
        return [f"no reference recorded for {name}"]
    # JSON turns tuples into lists and keeps ints and floats apart.
    produced = json.loads(json.dumps(outputs))
    return mismatches(references[name], produced, name) + gates(name, outputs)
