import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from ddfv.errors import InvariantViolation, ValidationError
from ddfv.harness import (
    CSV_HEADER,
    ConvergenceRow,
    exact_decay_case,
    uniform_case,
    get_case,
    convergence_study,
    error_gradient,
    error_u,
    longtime_study,
    nodal_initial,
    norm_primal_dual_gap,
    observed_order,
    rows_to_csv,
    rows_to_text,
    simulate,
    U_EXTRAPOLATION,
    _extrapolate,
    _seed_boundary_zeros,
)
from ddfv.mesh import build_ddfv, gen_family, triangle_area
from ddfv.operators import grad_diamond
from ddfv.scheme import Assembly, SchemeParams, evaluate, project_initial
from ddfv.solver import CHORD_BACKOFF_MAX


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
    for n in range(3):
        interior = np.array([case.u_exact(x, n * dt)
                             for x in quad5.nodes[:quad5.n_cells]])
        dual = np.array([case.u_exact(x, n * dt) for x in quad5.primal.vertices])
        vec = np.concatenate([interior, np.zeros(quad5.n_bnd), dual])
        assert error_u(quad5, vec, n * dt, case.u_exact) == 0.0


def test_error_u_constant_solution(quad5):
    vec = np.full(quad5.n_values, 2.0)
    for n in range(4):
        assert error_u(quad5, vec, n * 0.1, lambda x, t: 2.0) == 0.0


def test_error_u_single_cell_perturbation(quad5):
    exact = lambda x, t: 1.0
    base = np.ones(quad5.n_values)
    eps = 0.37
    vec = base.copy()
    vec[5] += eps
    assert error_u(quad5, base, 0.0, exact) == 0.0
    err = error_u(quad5, vec, 0.1, exact) ** 0.5
    assert err == pytest.approx(eps * (quad5.cell_areas[5] / 2.0) ** 0.5,
                                rel=1e-13)


def test_error_gradient_affine_exact(quad5):
    a = np.array([1.2, -0.7])
    exact = lambda x, t: a @ x
    grad_exact = lambda x, t: a
    vals = np.concatenate([
        quad5.nodes[:quad5.dual_offset] @ a, quad5.primal.vertices @ a,
    ])
    dt = 0.05
    total = sum(dt * error_gradient(quad5, vals, n * dt, grad_exact)
                for n in (1, 2))
    assert total**0.5 < 1e-12


def test_error_gradient_constant_gradient(quad5):
    c = np.array([0.4, 1.1])
    grad_exact = lambda x, t: c
    zero = np.zeros(quad5.n_values)
    n_steps, dt = 5, 0.03
    err = sum(dt * error_gradient(quad5, zero, n * dt, grad_exact)
              for n in range(1, n_steps + 1)) ** 0.5
    area = quad5.cell_areas.sum()
    expected = float(np.hypot(*c)) * (n_steps * dt * area) ** 0.5
    assert err == pytest.approx(expected, rel=1e-12)


def test_error_gradient_brute_force_oracle(uniform2, rng):
    # one step on the 2x2 mesh, double sum evaluated with explicit loops
    vec = rng.standard_normal(uniform2.n_values)
    grad_exact = lambda x, t: np.array([x[0], -x[1]])
    dt = 0.2
    g = grad_diamond(uniform2, vec)
    total = 0.0
    for d in range(uniform2.n_diamonds):
        diff = g[d] - grad_exact(uniform2.cross_point[d], dt)
        total += dt * uniform2.diamond_area[d] * float(diff @ diff)
    oracle = total**0.5
    err = (dt * error_gradient(uniform2, vec, dt, grad_exact)) ** 0.5
    assert err == pytest.approx(oracle, rel=1e-13)


def test_norm_gap_zero_when_equal(quad5, rng):
    vals = rng.standard_normal(quad5.n_cells)
    vec = np.zeros(quad5.n_values)
    vec[:quad5.n_cells] = 1.5
    vec[quad5.n_cells + quad5.n_bnd:] = 1.5
    assert norm_primal_dual_gap(quad5, vec) == 0.0


def test_norm_gap_indicator_value(quad5):
    vec = np.zeros(quad5.n_values)
    vec[:quad5.n_cells] = 1.0
    dt = 0.07
    err = (dt * norm_primal_dual_gap(quad5, vec)) ** 0.5
    assert err == pytest.approx((dt * quad5.cell_areas.sum()) ** 0.5, rel=1e-12)


def test_norm_gap_brute_force_integration(uniform2, rng):
    # oracle: integrate (primal - dual reconstruction)**2 piecewise over the
    # quarter-diamond triangles recomputed from raw coordinates
    vec = rng.standard_normal(uniform2.n_values)
    nc, nb = uniform2.n_cells, uniform2.n_bnd
    dt = 0.3
    mesh = uniform2
    centers = mesh.nodes
    ck, cl, vk, vl = mesh.corners
    total = 0.0
    for d in range(mesh.n_diamonds):
        xd = mesh.cross_point[d]
        for cell in (ck[d], cl[d]):
            if cell >= nc:
                continue
            for vert in (vk[d], vl[d]):
                area = triangle_area(centers[cell], xd, centers[vert])
                gap = vec[cell] - vec[vert]
                total += dt * area * gap * gap
    got = (dt * norm_primal_dual_gap(mesh, vec)) ** 0.5
    assert got == pytest.approx(total**0.5, rel=1e-12)


# One call per data function of a case, each reaching it through
# scheme.evaluate; _with_bad(bad) is 1 except at points with x[0] > 0.5.
def _with_bad(bad):
    return lambda x, *t: np.where(x[0] > 0.5, bad, 1.0)


DATA_CALLS = {
    "u0": lambda mesh, fn: simulate(
        mesh, SchemeParams(dt=4e-3, t_final=4e-3), project_initial(mesh, fn)),
    "potential": lambda mesh, fn: simulate(
        mesh, SchemeParams(dt=4e-3, t_final=4e-3, potential=fn),
        np.ones(mesh.n_values)),
    "u_exact": lambda mesh, fn: error_u(mesh, np.ones(mesh.n_values), 0.0, fn),
    "grad_u_exact": lambda mesh, fn: error_gradient(
        mesh, np.ones(mesh.n_values), 0.0,
        lambda x, t: np.stack([fn(x), fn(x)])),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("data", sorted(DATA_CALLS))
def test_non_finite_data_is_a_validation_error(quad5, data, bad):
    shape = r"\(2, \d+\)" if data == "grad_u_exact" else r"\(\d+,\)"
    with pytest.raises(ValidationError, match=f"data of shape {shape} has "
                       f"the non-finite value {bad} at point"):
        DATA_CALLS[data](quad5, _with_bad(bad))


# --- simulate -----------------------------------------------------------------


def test_nodal_initial_sampling_and_fallback(quad8):
    case = exact_decay_case()
    field = nodal_initial(quad8, case.u0)
    means = project_initial(quad8, case.u0)
    direct = np.array([case.u0(x) for x in quad8.nodes[:quad8.n_cells]])
    inside = direct > 0
    interior, boundary, dual = quad8.parts(field)
    assert np.allclose(interior[inside], direct[inside])
    # the data vanishes on the top edge: those vertices take the cell mean
    dual_direct = np.array([case.u0(x) for x in quad8.primal.vertices])
    zero = dual_direct <= 0
    assert zero.any()
    assert np.allclose(dual[zero], quad8.parts(means)[2][zero])
    assert interior.min() > 0 and dual.min() > 0
    assert (boundary == 0).all()


def test_simulate_records_and_invariants(quad8):
    case = exact_decay_case()
    params = SchemeParams(dt=4e-3, t_final=0.04, potential=case.potential)
    result = simulate(quad8, params, project_initial(quad8, case.u0))
    assert len(result.records) == 11
    mass0 = result.records[0].mass
    for rec in result.records[1:]:
        assert abs(rec.mass - mass0) <= 1e-11 * mass0
        assert rec.min_u > 0.0
        assert rec.dissipation >= 0.0
    energies = [r.energy for r in result.records]
    assert all(b <= a + 1e-9 * (1 + abs(a))
               for a, b in zip(energies, energies[1:]))


def test_seed_boundary_zeros_matches_loop_version(mesh_zoo, rng):
    case = exact_decay_case()
    for name, mesh in mesh_zoo:
        asm = Assembly(mesh, SchemeParams(dt=1e-3, t_final=1e-3,
                                          potential=case.potential))
        u = project_initial(mesh, case.u0)
        bnd = slice(mesh.n_cells, mesh.n_cells + mesh.n_bnd)
        # zero boundary values are seeded, the others kept
        u[bnd] = np.where(rng.random(mesh.n_bnd) < 0.5, 0.0,
                          1.0 + rng.random(mesh.n_bnd))
        # the per-diamond loop the array update replaced
        v = asm.v
        expected = u.copy()
        for d in np.flatnonzero(mesh.dia_is_boundary):
            row, k = mesh.corners[1, d], mesh.corners[0, d]
            if expected[row] <= 0.0:
                expected[row] = expected[k] * math.exp(v[k] - v[row])
        seeded = _seed_boundary_zeros(mesh, asm, u)
        assert (seeded[bnd] > 0.0).all(), name
        # numpy's exp may differ from math.exp by one ulp
        assert np.allclose(seeded, expected, rtol=4e-16, atol=0.0), name


def test_simulate_flags_invariant_violation(quad5, monkeypatch):
    # sabotage the energy decay check threshold to make sure it trips
    import ddfv.harness as hm

    case = exact_decay_case()
    params = SchemeParams(dt=4e-3, t_final=8e-3, potential=case.potential)
    monkeypatch.setattr(hm, "MASS_DRIFT_TOL", -1.0)
    with pytest.raises(InvariantViolation):
        simulate(quad5, params, project_initial(quad5, case.u0))


# --- Newton start value ------------------------------------------------------


def test_simulate_start_values_follow_the_extrapolation_rule(quad8,
                                                             monkeypatch):
    import ddfv.harness as hm

    case = exact_decay_case()
    params = SchemeParams(dt=4e-3, t_final=0.028, potential=case.potential)
    u0 = project_initial(quad8, case.u0)
    calls = []
    newton = hm.newton_solve

    def spy(residual_fn, jacobian_fn, u_init, config, solver, fallback):
        calls.append((u_init, fallback and fallback[0]))
        return newton(residual_fn, jacobian_fn, u_init, config, solver,
                      fallback)

    monkeypatch.setattr(hm, "newton_solve", spy)
    states = []
    simulate(quad8, params, u0, lambda rec, u_vec: states.append(u_vec))
    assert len(calls) == 7
    asm = Assembly(quad8, params)
    # step 1: u0 with its zero boundary values seeded; step 2: u1, since u0
    # has zeros
    assert np.array_equal(calls[0][0],
                          _seed_boundary_zeros(quad8, asm, u0))
    assert calls[0][1] is None
    assert calls[1][0] is states[1] and calls[1][1] is None
    # step 3: linear in u from u2 and u1; step 4: quadratic; steps 5-7:
    # cubic, from the last four states.  All are positive on this run, so
    # none falls back to u^n.
    u = states[1:]
    expected = {
        2: 2 * u[1] - u[0],
        3: 3 * u[2] - 3 * u[1] + u[0],
        4: 4 * u[3] - 6 * u[2] + 4 * u[1] - u[0],
        5: 4 * u[4] - 6 * u[3] + 4 * u[2] - u[1],
        6: 4 * u[5] - 6 * u[4] + 4 * u[3] - u[2],
    }
    for n, start in expected.items():
        assert start.min() > 0.0
        assert np.allclose(calls[n][0], start, rtol=1e-14, atol=0.0), n
        # the guard's alternative is u^n
        assert calls[n][1] is states[n]


def test_extrapolate_returns_u_n_when_the_polynomial_is_not_positive():
    # A fast decaying entry makes every polynomial in u nonpositive there;
    # the start is then u^n itself, as it is with no older state.
    u_n = np.array([1.0, 0.01])
    history = [np.array([1.0, 0.1]), np.array([1.0, 0.2]),
               np.array([1.0, 0.3])]
    assert _extrapolate(u_n, []) is u_n
    for count in (1, 2, 3):
        older = history[:count]
        coefs = U_EXTRAPOLATION[count]
        poly = coefs[0] * u_n + sum(c * s for c, s in zip(coefs[1:], older))
        assert poly.min() <= 0.0
        assert _extrapolate(u_n, older) is u_n
    # a positive polynomial is the start: each degree continues an affine
    # history exactly
    u_n = np.array([1.0, 0.4])
    history = [np.array([1.0, 0.3]), np.array([1.0, 0.2]),
               np.array([1.0, 0.1])]
    for count in (1, 2, 3):
        assert np.allclose(_extrapolate(u_n, history[:count]), [1.0, 0.5],
                           rtol=1e-14, atol=0.0)


def test_simulate_passes_no_fallback_when_the_start_is_u_n(quad8,
                                                           monkeypatch):
    # With every polynomial zero, each step from step 2 on starts from u^n,
    # and the residual guard has no other start to offer.
    import ddfv.harness as hm

    case = exact_decay_case()
    params = SchemeParams(dt=4e-3, t_final=0.02, potential=case.potential)
    calls = []
    newton = hm.newton_solve

    def spy(residual_fn, jacobian_fn, u_init, config, solver, fallback):
        calls.append((u_init, fallback))
        return newton(residual_fn, jacobian_fn, u_init, config, solver,
                      fallback)

    monkeypatch.setattr(hm, "newton_solve", spy)
    monkeypatch.setattr(hm, "U_EXTRAPOLATION", {
        k: (0.0,) * (k + 1) for k in hm.U_EXTRAPOLATION})
    states = []
    simulate(quad8, params, project_initial(quad8, case.u0),
             lambda rec, u_vec: states.append(u_vec))
    assert len(calls) == 5
    for n in range(1, 5):
        assert calls[n][0] is states[n]
        assert calls[n][1] is None


def test_extrapolated_start_makes_one_newton_iteration_common(quad8):
    # 1000 steps of 1e-3 on quad n=8: 1.78 Newton iterations per step from
    # u^n, 1.025 from the cubic extrapolation in u
    case = exact_decay_case()
    params = SchemeParams(dt=1e-3, t_final=1.0, potential=case.potential)
    result = simulate(quad8, params, project_initial(quad8, case.u0))
    assert len(result.records) == 1001
    assert result.newton_mean <= 1.25


def test_extrapolated_start_keeps_large_steps_cheap(quad8):
    # dt = 1 runs far from the smooth regime, where an extrapolation can
    # overshoot; the residual guard keeps the 19 iterations of starting
    # every step from u^n
    case = exact_decay_case()
    params = SchemeParams(dt=1.0, t_final=10.0, potential=case.potential)
    result = simulate(quad8, params, project_initial(quad8, case.u0))
    assert sum(r.newton_iterations for r in result.records) <= 19


def test_steady_steps_close_by_one_chord_correction():
    # quad n=4, dt=4e-3, 250 steps: the chord is tried on the schedule of
    # the backoff (after a rejection the next 1, 2, 4, 8, 16, 16, ... steps
    # skip it); once past the transient every step closes by one chord
    mesh = build_ddfv(gen_family("quad", 4))
    case = exact_decay_case()
    params = SchemeParams(dt=4e-3, t_final=1.0, potential=case.potential)
    result = simulate(mesh, params, project_initial(mesh, case.u0))
    steps = result.records[1:]
    assert len(steps) == 250
    gap, expected = 0, 2        # step 1 makes the first factor
    for rec in steps:
        assert (rec.chord != "none") == (rec.n == expected), rec.n
        if rec.chord == "rejected":
            gap = min(CHORD_BACKOFF_MAX, max(1, 2 * gap))
        elif rec.chord == "accepted":
            gap = 0
        if rec.chord != "none":
            expected = rec.n + gap + 1
    accepted = [r for r in steps if r.chord == "accepted"]
    assert len(accepted) >= 90
    assert all(r.chord == "accepted" for r in steps[accepted[0].n - 1:])
    assert all((r.newton_iterations, r.factorizations, r.krylov_iterations)
               == (1, 0, 0) for r in accepted)


def test_each_newton_iterate_is_evaluated_once(quad8, monkeypatch):
    # one flux evaluation (an Iterate) per residual, one residual per
    # Newton iterate plus each step's start value (the guard derives u^n's
    # residual) plus each rejected chord's trial, and one Jacobian per
    # Newton iteration except an accepted chord, which builds none
    import ddfv.scheme as scheme

    calls = dict.fromkeys(("Iterate", "system_vec", "system_jacobian"), 0)
    for name in ("system_vec", "system_jacobian"):
        def counted(self, *args, _name=name, _method=getattr(Assembly, name)):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(Assembly, name, counted)

    def counted_iterate(*args, _cls=scheme.Iterate):
        calls["Iterate"] += 1
        return _cls(*args)

    monkeypatch.setattr(scheme, "Iterate", counted_iterate)
    case = exact_decay_case()
    params = SchemeParams(dt=1e-3, t_final=0.2, kappa=0.1,
                          potential=case.potential)
    result = simulate(quad8, params, project_initial(quad8, case.u0))
    steps = len(result.records) - 1
    newton = sum(r.newton_iterations for r in result.records)
    chords = [r.chord for r in result.records]
    assert steps == 200
    assert calls["Iterate"] == calls["system_vec"]
    assert calls["system_vec"] == newton + steps + chords.count("rejected")
    assert calls["system_jacobian"] == newton - chords.count("accepted")


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


@pytest.mark.parametrize("family, key", [
    ("uniform", "amplitude"), ("uniform", "distortion"),
    ("quad", "distortion"), ("kershaw", "amplitude"),
])
def test_family_argument_the_family_does_not_take(family, key):
    message = f"mesh family '{family}' takes no argument '{key}'"
    with pytest.raises(ValidationError, match=message):
        gen_family(family, 6, **{key: 0.1})
    with pytest.raises(ValidationError, match=message):
        convergence_study(exact_decay_case(), family, 2, n0=6,
                          family_kwargs={key: 0.1})


def test_convergence_study_needs_an_exact_solution():
    case = dataclasses.replace(exact_decay_case(), u_exact=None)
    with pytest.raises(ValidationError, match="needs a case with an exact"):
        convergence_study(case, "uniform", 1, n0=3)


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

    case = TestCase(u0=lambda x: 1.0 + 0.5 * np.cos(
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


# --- streaming time loop -------------------------------------------------------


def test_simulate_observer_sees_every_state_in_order(quad8):
    case = exact_decay_case()
    params = SchemeParams(dt=4e-3, t_final=0.04, potential=case.potential)
    u0 = project_initial(quad8, case.u0)
    seen = []

    def observe(rec, u_vec):
        # the array is kept as handed over, next to a copy taken now
        seen.append((rec, u_vec, u_vec.copy()))

    result = simulate(quad8, params, u0, observe)
    assert len(seen) == params.n_steps + 1 == len(result.records)
    assert [rec.n for rec, _, _ in seen] == list(range(params.n_steps + 1))
    assert all(a is b for a, (b, _, _) in zip(result.records, seen))
    assert np.array_equal(seen[0][1], u0)
    assert seen[0][1] is not u0
    # the loop never wrote to a state after handing it over
    assert all(np.array_equal(kept, copy) for _, kept, copy in seen)
    assert len({id(kept) for _, kept, _ in seen}) == len(seen)


def test_study_observers_see_every_state_in_order(quad5):
    case = dataclasses.replace(exact_decay_case(), t_final=0.02)
    seen = []

    def observe(rec, u_vec):
        seen.append((rec.n, rec.t, u_vec.copy()))

    rows = convergence_study(case, "uniform", levels=2, n0=3, dt0=0.01,
                             observe=observe)
    # step 0 of each level, then each accepted step: 2 and 8 steps
    assert [n for n, _, _ in seen] == list(range(3)) + list(range(9))
    for n, row, states in zip((3, 6), rows, (seen[:3], seen[3:])):
        mesh = build_ddfv(gen_family("uniform", n))
        worst = max(error_u(mesh, u, t, case.u_exact) for _, t, u in states)
        assert row.erru == worst**0.5
    seen.clear()
    result = longtime_study(case, quad5, dt=5e-3, t_final=0.02,
                            observe=observe)
    assert [(n, t) for n, t, _ in seen] == [(n, t) for n, t, _ in
                                            result.series]
    assert [n for n, _, _ in seen] == list(range(5))


# Reference for the streamed reductions: every state is collected, then the
# space-time norms are reduced over the list as the studies did before the
# time loop streamed its states.


def _list_error_u(mesh, trajectory, dt, u_exact):
    worst = 0.0
    nc, nb = mesh.n_cells, mesh.n_bnd
    nodes = np.vstack([mesh.nodes[:nc], mesh.primal.vertices])
    for n, vec in enumerate(trajectory):
        exact = evaluate(u_exact, nodes, n * dt)
        di = vec[:nc] - exact[:nc]
        dd = vec[nc + nb:] - exact[nc:]
        err2 = 0.5 * (np.dot(mesh.cell_areas, di * di)
                      + np.dot(mesh.dual_areas, dd * dd))
        worst = max(worst, float(err2))
    return worst**0.5


def _list_error_gradient(mesh, trajectory, dt, grad_u_exact):
    total = 0.0
    for n in range(1, len(trajectory)):
        t = n * dt
        g = grad_diamond(mesh, trajectory[n])
        exact = np.asarray(grad_u_exact(mesh.cross_point.T, t), dtype=float)
        if exact.ndim == 1:
            exact = exact[:, None]
        diff = g - np.broadcast_to(exact, (2, mesh.n_diamonds)).T
        total += dt * float(np.dot(mesh.diamond_area,
                                   np.einsum("di,di->d", diff, diff)))
    return total**0.5


def _list_gap(mesh, trajectory, dt):
    cells, verts = mesh.overlaps
    total = 0.0
    for n in range(1, len(trajectory)):
        vec = trajectory[n]
        gap = vec[cells] - vec[verts]
        total += dt * float(np.dot(mesh.overlap_area, gap * gap))
    return total**0.5


def _list_convergence_study(case, family, levels, n0, dt0, kappa,
                            family_kwargs):
    rows, prev = [], None
    for lev in range(levels):
        dt = dt0 / 4**lev
        mesh = build_ddfv(gen_family(family, n0 * 2**lev, **family_kwargs))
        params = SchemeParams(dt=dt, t_final=case.t_final, kappa=kappa,
                              lam=case.lam, potential=case.potential)
        trajectory = []
        result = simulate(mesh, params, nodal_initial(mesh, case.u0),
                          lambda rec, u_vec: trajectory.append(u_vec.copy()))
        errs = (_list_error_u(mesh, trajectory, dt, case.u_exact),
                _list_error_gradient(mesh, trajectory, dt, case.grad_u_exact),
                _list_gap(mesh, trajectory, dt))
        orders = ((None,) * 3 if prev is None else
                  tuple(observed_order(pe, e, prev[1], mesh.h)
                        for pe, e in zip(prev[0], errs)))
        rows.append(ConvergenceRow(
            level=lev, h=mesh.h, dt=dt,
            erru=errs[0], ordu=orders[0], errgu=errs[1], ordgu=orders[1],
            normU=errs[2], ordU=orders[2],
            newton_max=result.newton_max, newton_mean=result.newton_mean,
            min_u=result.min_u, floor_activated=result.floor_ever_activated,
        ))
        prev = (errs, mesh.h)
    return rows


def test_convergence_study_matches_list_reductions():
    case = exact_decay_case()
    kwargs = dict(n0=4, dt0=4e-3, kappa=0.1,
                  family_kwargs={"amplitude": 0.15})
    rows = convergence_study(case, "quad", 2, **kwargs)
    oracle = _list_convergence_study(case, "quad", 2, **kwargs)
    # dataclass equality: every float bit-identical
    assert rows == oracle
    assert rows_to_csv(rows) == rows_to_csv(oracle)


def test_longtime_study_memory_does_not_grow_with_steps(quad8):
    # 1001 states of N=177 values take 1.42 MB.  Measured tracemalloc
    # peaks of this study: 2.17 MB while the time loop kept every state,
    # 0.72 MB streaming them (records and series are still kept).  The
    # stationary case keeps each step cheap; the loop's storage does not
    # depend on the data.
    case = uniform_case()
    longtime_study(case, quad8, dt=1e-3, t_final=2e-3)   # first-call costs
    tracemalloc.start()
    try:
        res = longtime_study(case, quad8, dt=1e-3, t_final=1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(res.series) == 1001
    assert peak < 1.5e6
