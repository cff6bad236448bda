"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The refinement studies are
shared module-scoped fixtures; the whole module takes a few minutes.  The
tests that use them, and the long-time study, are marked ``slow``:
`pytest -m "not slow"` skips them for a quick loop.
"""

import time

import numpy as np
import pytest

from ddfv.harness import (
    convergence_study,
    exact_decay_case,
    longtime_study,
    simulate,
    SATURATION_CUTOFF,
)
from ddfv.mesh import build_ddfv, gen_kershaw, gen_quad_fvca
from ddfv.scheme import Assembly, SchemeParams, project_initial, stationary_state
from ddfv.selfcheck import run_property_checks
from ddfv.solver import newton_solve

QUAD_AMPLITUDE = 0.15   # roughness of the quadrangle family used here
LEVELS = 3
N0 = 8
DT0 = 4e-3
T_FINAL = 0.25


def _report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def quad_study_k0():
    case = exact_decay_case()
    return convergence_study(case, "quad", LEVELS, n0=N0, dt0=DT0,
                             kappa=0.0, family_kwargs={"amplitude": QUAD_AMPLITUDE})


@pytest.fixture(scope="module")
def quad_study_k01():
    case = exact_decay_case()
    return convergence_study(case, "quad", LEVELS, n0=N0, dt0=DT0,
                             kappa=0.1, family_kwargs={"amplitude": QUAD_AMPLITUDE})


@pytest.fixture(scope="module")
def kershaw_study():
    case = exact_decay_case()
    return convergence_study(case, "kershaw", LEVELS, n0=N0, dt0=DT0,
                             kappa=0.0)


def test_criterion_1_structural_invariants():
    start = time.perf_counter()
    results = run_property_checks(seed=0)
    elapsed = time.perf_counter() - start
    failed = [r.name for r in results if not r.passed]
    _report(
        1,
        not failed and elapsed < 10.0,
        f"{len(results)} property checks in {elapsed:.1f}s"
        + (f", failed: {failed}" if failed else ""),
    )


def test_criterion_2_stationary_fixed_point():
    mesh = build_ddfv(gen_quad_fvca(8, QUAD_AMPLITUDE))
    params = SchemeParams(dt=DT0, t_final=DT0, kappa=0.0,
                          potential=lambda x: -x[1])
    asm = Assembly(mesh, params)
    u_inf = stationary_state(mesh, asm.v_field, mass=2.0)
    res_l1 = float(np.abs(asm.system_vec(u_inf.values, u_inf.values)).sum())
    _, stats = newton_solve(
        lambda x: asm.system_vec(x, u_inf.values),
        asm.system_jacobian, u_inf.values, params.newton,
    )
    ok = res_l1 < 1e-10 and stats.iterations <= 1 and stats.residual_l1 < 1e-10
    _report(2, ok, f"residual l1 at steady state {res_l1:.2e}, "
                   f"Newton iterations {stats.iterations}")


def test_criterion_3_conservation_and_decay():
    start = time.perf_counter()
    case = exact_decay_case()
    mesh = build_ddfv(gen_quad_fvca(8, QUAD_AMPLITUDE))
    params = SchemeParams(dt=4e-3, t_final=T_FINAL, kappa=0.0,
                          potential=case.potential)
    result = simulate(mesh, params, project_initial(mesh, case.u0))
    elapsed = time.perf_counter() - start
    drift = max(abs(r.mass - result.mass0) / result.mass0
                for r in result.records)
    energies = [r.energy for r in result.records]
    decay_ok = all(b <= a + 1e-9 * (1 + abs(a))
                   for a, b in zip(energies, energies[1:]))
    ok = drift <= 1e-11 and decay_ok and elapsed < 30.0
    _report(3, ok, f"mass drift {drift:.2e}, energy monotone {decay_ok}, "
                   f"{result.records[-1].n} steps in {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_4_spatial_accuracy(quad_study_k0):
    ordus = [r.ordu for r in quad_study_k0 if r.ordu is not None]
    ordgus = [r.ordgu for r in quad_study_k0 if r.ordgu is not None]
    ok = (len(ordus) == LEVELS - 1
          and all(o >= 1.8 for o in ordus)
          and all(1.2 <= o <= 1.8 for o in ordgus))
    _report(4, ok,
            "ordu " + "/".join(f"{o:.2f}" for o in ordus)
            + " (need >= 1.8), ordgu "
            + "/".join(f"{o:.2f}" for o in ordgus) + " (need in [1.2, 1.8])")


@pytest.mark.slow
def test_criterion_5_primal_dual_gap(quad_study_k0, quad_study_k01):
    orders = [r.ordU for r in quad_study_k0 + quad_study_k01
              if r.ordU is not None]
    in_range = all(0.8 <= o <= 1.3 for o in orders)
    rel = [abs(a.normU - b.normU) / a.normU
           for a, b in zip(quad_study_k0, quad_study_k01)]
    close = all(r <= 0.02 for r in rel)
    _report(5, in_range and close,
            "ordU " + "/".join(f"{o:.2f}" for o in orders)
            + ", kappa sensitivity " + "/".join(f"{r:.1%}" for r in rel))


@pytest.mark.slow
def test_criterion_6_newton_robustness(quad_study_k0, quad_study_k01):
    rows = quad_study_k0 + quad_study_k01
    n_max = max(r.newton_max for r in rows)
    floored = any(r.floor_activated for r in rows)
    min_u = min(r.min_u for r in rows)
    ok = n_max <= 12 and not floored and min_u > 0.0
    _report(6, ok, f"Newton max {n_max} (<= 12), floor activated {floored}, "
                   f"min state value {min_u:.2e}")


@pytest.mark.slow
def test_criterion_7_longtime_decay():
    start = time.perf_counter()
    case = exact_decay_case()
    mesh = build_ddfv(gen_quad_fvca(16, 0.1))
    result = longtime_study(case, mesh, dt=1e-3, t_final=2.0, kappa=0.0)
    elapsed = time.perf_counter() - start
    es = [e for _, _, e in result.series]
    above = [e for e in es if e > SATURATION_CUTOFF]
    monotone = all(b <= a for a, b in zip(above, above[1:]))
    ok = (not result.saturated and monotone
          and result.r_squared >= 0.99 and elapsed < 300.0)
    _report(7, ok, f"monotone {monotone}, fit R^2 {result.r_squared:.6f}, "
                   f"rate {result.rate:.2f}, {len(above)} points above cutoff,"
                   f" {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_8_kershaw_family(kershaw_study):
    # error magnitudes on this family are not comparable to the reference
    # tables (those meshes are unavailable); require the conservation/decay
    # behavior plus first-order-and-a-half accuracy instead
    ordus = [r.ordu for r in kershaw_study if r.ordu is not None]
    orders_ok = all(o >= 1.5 for o in ordus)

    case = exact_decay_case()
    mesh = build_ddfv(gen_kershaw(8))
    params = SchemeParams(dt=4e-3, t_final=T_FINAL, kappa=0.0,
                          potential=case.potential)
    result = simulate(mesh, params, project_initial(mesh, case.u0))
    drift = max(abs(r.mass - result.mass0) / result.mass0
                for r in result.records)
    energies = [r.energy for r in result.records]
    decay_ok = all(b <= a + 1e-9 * (1 + abs(a))
                   for a, b in zip(energies, energies[1:]))
    asm = Assembly(mesh, params)
    u_inf = stationary_state(mesh, asm.v_field, mass=2.0)
    fixed_pt = float(np.abs(asm.system_vec(u_inf.values, u_inf.values)).sum())

    positive = min(r.min_u for r in kershaw_study) > 0.0
    ok = (orders_ok and drift <= 1e-11 and decay_ok and fixed_pt < 1e-10
          and positive)
    _report(8, ok,
            "ordu " + "/".join(f"{o:.2f}" for o in ordus)
            + f" (need >= 1.5), mass drift {drift:.2e}, "
            f"energy monotone {decay_ok}, steady residual {fixed_pt:.2e}")
