import math

import numpy as np
import pytest

from ddfv.errors import InvariantViolation, ValidationError
from ddfv.fields import DiscreteField
from ddfv.geometry import triangle_area
from ddfv.harness import (
    CSV_HEADER,
    exact_decay_case,
    uniform_case,
    get_case,
    convergence_study,
    error_gradient,
    error_u,
    longtime_study,
    nodal_initial,
    norm_primal_dual_gap,
    rows_to_csv,
    rows_to_text,
    simulate,
)
from ddfv.scheme import SchemeParams, project_initial


# --- reference case -----------------------------------------------------------


def test_decay_case_values():
    case = exact_decay_case()
    # initial data vanishes on the top edge
    for x1 in (0.0, 0.33, 1.0):
        assert case.u_exact((x1, 1.0), 0.0) == pytest.approx(0.0, abs=1e-13)
    alpha = math.pi**2 + 0.25
    assert alpha == pytest.approx(10.1196, abs=1e-4)
    # pointwise limit: the decaying mode disappears
    limit = math.pi * math.exp(0.3 - 0.5)
    assert case.u_exact((0.5, 0.3), 60.0) == pytest.approx(limit, rel=1e-12)
    # consistency between the exact value and its gradient (finite diff)
    x, t, eps = (0.4, 0.7), 0.013, 1e-6
    fd = (case.u_exact((x[0], x[1] + eps), t)
          - case.u_exact((x[0], x[1] - eps), t)) / (2 * eps)
    assert case.grad_u_exact(x, t)[1] == pytest.approx(fd, rel=1e-8)
    assert case.grad_u_exact(x, t)[0] == 0.0


def test_get_case_unknown():
    with pytest.raises(ValidationError):
        get_case("nope")


# --- error functionals -----------------------------------------------------------


def test_error_u_zero_for_sampled_exact(quad5):
    case = exact_decay_case()
    dt = 0.01
    traj = []
    for n in range(3):
        interior = np.array([case.u_exact(x, n * dt) for x in quad5.cell_centers])
        dual = np.array([case.u_exact(x, n * dt) for x in quad5.primal.vertices])
        traj.append(np.concatenate([interior, np.zeros(quad5.n_bnd), dual]))
    assert error_u(quad5, traj, dt, case.u_exact) == 0.0


def test_error_u_constant_solution(quad5):
    traj = [np.full(quad5.n_values, 2.0) for _ in range(4)]
    assert error_u(quad5, traj, 0.1, lambda x, t: 2.0) == 0.0


def test_error_u_single_cell_perturbation(quad5):
    exact = lambda x, t: 1.0
    base = np.ones(quad5.n_values)
    eps = 0.37
    vec = base.copy()
    vec[5] += eps
    err = error_u(quad5, [base, vec], 0.1, exact)
    assert err == pytest.approx(eps * (quad5.cell_areas[5] / 2.0) ** 0.5,
                                rel=1e-13)


def test_error_gradient_affine_exact(quad5):
    a = np.array([1.2, -0.7])
    exact = lambda x, t: a @ x
    grad_exact = lambda x, t: a
    vals = np.concatenate([
        quad5.primal_centers @ a, quad5.primal.vertices @ a,
    ])
    traj = [vals, vals, vals]
    assert error_gradient(quad5, traj, 0.05, grad_exact) < 1e-12


def test_error_gradient_constant_gradient(quad5):
    c = np.array([0.4, 1.1])
    grad_exact = lambda x, t: c
    zero = np.zeros(quad5.n_values)
    n_steps, dt = 5, 0.03
    traj = [zero] * (n_steps + 1)
    err = error_gradient(quad5, traj, dt, grad_exact)
    expected = float(np.hypot(*c)) * (n_steps * dt * quad5.domain_area) ** 0.5
    assert err == pytest.approx(expected, rel=1e-12)


def test_error_gradient_brute_force_oracle(uniform2, rng):
    # one step on the 2x2 mesh, double sum evaluated with explicit loops
    vec = rng.standard_normal(uniform2.n_values)
    grad_exact = lambda x, t: np.array([x[0], -x[1]])
    dt = 0.2
    from ddfv.operators import grad_diamond

    g = grad_diamond(uniform2, DiscreteField(uniform2, vec))
    total = 0.0
    for d in range(uniform2.n_diamonds):
        diff = g[d] - grad_exact(uniform2.cross_point[d], dt)
        total += dt * uniform2.diamond_area[d] * float(diff @ diff)
    oracle = total**0.5
    err = error_gradient(uniform2, [np.zeros_like(vec), vec], dt, grad_exact)
    assert err == pytest.approx(oracle, rel=1e-13)


def test_norm_gap_zero_when_equal(quad5, rng):
    vals = rng.standard_normal(quad5.n_cells)
    vec = np.zeros(quad5.n_values)
    vec[:quad5.n_cells] = 1.5
    vec[quad5.n_cells + quad5.n_bnd:] = 1.5
    assert norm_primal_dual_gap(quad5, [vec, vec], 0.1) == 0.0


def test_norm_gap_indicator_value(quad5):
    vec = np.zeros(quad5.n_values)
    vec[:quad5.n_cells] = 1.0
    dt = 0.07
    err = norm_primal_dual_gap(quad5, [vec, vec], dt)
    assert err == pytest.approx((dt * quad5.domain_area) ** 0.5, rel=1e-12)


def test_norm_gap_brute_force_integration(uniform2, rng):
    # oracle: integrate (primal - dual reconstruction)**2 piecewise over the
    # quarter-diamond triangles recomputed from raw coordinates
    vec = rng.standard_normal(uniform2.n_values)
    nc, nb = uniform2.n_cells, uniform2.n_bnd
    dt = 0.3
    mesh = uniform2
    verts = mesh.primal.vertices
    centers = mesh.primal_centers
    total = 0.0
    for d in range(mesh.n_diamonds):
        xd = mesh.cross_point[d]
        for cell in (mesh.dia_cell_k[d], mesh.dia_cell_l[d]):
            if cell >= nc:
                continue
            for vert in (mesh.dia_vert_k[d], mesh.dia_vert_l[d]):
                area = triangle_area(centers[cell], xd, verts[vert])
                gap = vec[cell] - vec[nc + nb + vert]
                total += dt * area * gap * gap
    got = norm_primal_dual_gap(mesh, [np.zeros_like(vec), vec], dt)
    assert got == pytest.approx(total**0.5, rel=1e-12)


# --- simulate -----------------------------------------------------------------


def test_nodal_initial_sampling_and_fallback(quad8):
    case = exact_decay_case()
    field = nodal_initial(quad8, case.u0)
    means = project_initial(quad8, case.u0)
    direct = np.array([case.u0(x) for x in quad8.cell_centers])
    inside = direct > 0
    assert np.allclose(field.interior[inside], direct[inside])
    # the data vanishes on the top edge: those vertices take the cell mean
    dual_direct = np.array([case.u0(x) for x in quad8.primal.vertices])
    zero = dual_direct <= 0
    assert zero.any()
    assert np.allclose(field.dual[zero], means.dual[zero])
    assert field.interior.min() > 0 and field.dual.min() > 0
    assert (field.boundary == 0).all()


def test_simulate_records_and_invariants(quad8):
    case = exact_decay_case()
    params = SchemeParams(dt=4e-3, t_final=0.04, potential=case.potential)
    result = simulate(quad8, params, project_initial(quad8, case.u0))
    assert len(result.records) == 11
    for rec in result.records[1:]:
        assert abs(rec.mass - result.mass0) <= 1e-11 * result.mass0
        assert rec.min_u > 0.0
        assert rec.dissipation >= 0.0
    energies = [r.energy for r in result.records]
    assert all(b <= a + 1e-9 * (1 + abs(a))
               for a, b in zip(energies, energies[1:]))
    assert result.dt_over_h == pytest.approx(params.dt / quad8.h)


def test_simulate_flags_invariant_violation(quad5, monkeypatch):
    # sabotage the energy decay check threshold to make sure it trips
    import ddfv.harness as hm

    case = exact_decay_case()
    params = SchemeParams(dt=4e-3, t_final=8e-3, potential=case.potential)
    monkeypatch.setattr(hm, "MASS_DRIFT_TOL", -1.0)
    with pytest.raises(InvariantViolation):
        simulate(quad5, params, project_initial(quad5, case.u0))


# --- studies -------------------------------------------------------------------


def test_convergence_study_constant_case_zero_errors():
    rows = convergence_study(uniform_case(), "uniform", levels=2,
                             n0=3, dt0=0.05)
    for row in rows:
        assert row.erru == 0.0
        assert row.errgu < 1e-12
        assert row.newton_max <= 1
    assert rows[0].ordu is None and rows[1].ordu is None


def test_convergence_study_orders_positive():
    case = exact_decay_case()
    rows = convergence_study(case, "uniform", levels=2, n0=4, dt0=4e-3)
    assert rows[1].ordu is not None and rows[1].ordu > 1.0
    assert rows[1].h < rows[0].h


def test_csv_and_text_formatting():
    rows = convergence_study(uniform_case(), "uniform", levels=2,
                             n0=3, dt0=0.05)
    csv = rows_to_csv(rows)
    lines = csv.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0" and first[4] == ""  # no order on level 0
    assert "E" in first[1]  # scientific notation
    text = rows_to_text(rows)
    assert text.splitlines()[0].split()[0] == "level"


def test_order_scaling_invariance():
    from ddfv.harness import observed_order

    errs = [1.0, 0.24, 0.061]
    hs = [0.5, 0.25, 0.125]
    orders = [observed_order(errs[i], errs[i + 1], hs[i], hs[i + 1])
              for i in range(2)]
    scaled = [observed_order(7.3 * errs[i], 7.3 * errs[i + 1], hs[i], hs[i + 1])
              for i in range(2)]
    assert orders == pytest.approx(scaled, rel=1e-13)
    assert observed_order(0.0, 0.1, 0.5, 0.25) is None


def test_longtime_from_stationary_state_saturates(quad5):
    case = uniform_case()
    res = longtime_study(case, quad5, dt=0.01, t_final=0.05)
    assert res.saturated
    assert res.rate is None
    assert all(e <= 1e-12 for _, _, e in res.series)


def test_longtime_no_potential_monotone(quad5):
    from ddfv.harness import TestCase

    case = TestCase(name="bump", u0=lambda x: 1.0 + 0.5 * np.cos(
        np.pi * x[0]) * np.cos(np.pi * x[1]))
    res = longtime_study(case, quad5, dt=5e-3, t_final=0.2)
    es = [e for _, _, e in res.series]
    assert es[0] > 1e-3
    assert all(b <= a * (1 + 1e-12) for a, b in zip(es, es[1:]))


def test_longtime_kappa_positive_reference_state(quad8):
    # With kappa > 0 the steady state has one rho for both meshes; a
    # reference state normalized per mesh leaves a floor near 1e-6 that
    # the series approaches non-monotonically.
    case = get_case("decay")
    weak = longtime_study(case, quad8, dt=1e-2, t_final=4.0, kappa=0.1)
    es = [e for _, _, e in weak.series]
    assert all(b <= a for a, b in zip(es, es[1:]))
    strong = longtime_study(case, quad8, dt=1e-2, t_final=4.0, kappa=1.0)
    assert strong.series[-1][2] < 1e-12


def test_longtime_series_monotone(quad8):
    case = get_case("decay")
    res = longtime_study(case, quad8, dt=2e-3, t_final=0.1)
    es = [e for _, _, e in res.series]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(es, es[1:]))
    assert res.rate is not None and res.rate < 0.0
    csv = res.to_csv()
    assert csv.splitlines()[0] == "n,t,relative_energy"
    assert len(csv.splitlines()) == len(es) + 1
