import math

import numpy as np
import pytest
import scipy.sparse as sp

from ddfv.errors import BadBeta, NonPositiveState, ValidationError
from ddfv.fields import DiscreteField, TensorSpec
from ddfv.geometry import polygon_centroid
from ddfv.mesh import build_ddfv, gen_quad_fvca
from ddfv.operators import bracket, delta_diamond, local_matrices, reconstruct_diamond
from ddfv.scheme import (
    Assembly,
    SchemeParams,
    dissipation,
    energy,
    fisher_norm,
    jacobian,
    project_initial,
    project_potential,
    relative_energy,
    residual,
    stationary_state,
)


def _params(dt=0.1, kappa=0.0, potential=None, **kw):
    return SchemeParams(dt=dt, t_final=dt, kappa=kappa, potential=potential, **kw)


def _positive_field(mesh, rng):
    return DiscreteField(mesh, 0.5 + rng.random(mesh.n_values))


# --- projections -------------------------------------------------------------


def test_project_initial_constant(quad5):
    u0 = project_initial(quad5, lambda x: 1.0)
    assert np.allclose(u0.interior, 1.0)
    assert np.allclose(u0.dual, 1.0)
    assert (u0.boundary == 0.0).all()


def test_project_initial_affine_exact(quad5):
    # oracle: the exact mean of an affine function over a polygon is its
    # value at the area centroid
    a = np.array([0.8, -0.4])
    c = 1.5
    u0 = project_initial(quad5, lambda x: a @ x + c)
    verts = quad5.primal.vertices
    for ci, loop in enumerate(quad5.primal.cells):
        exact = float(a @ polygon_centroid(verts[loop]) + c)
        assert u0.interior[ci] == pytest.approx(exact, rel=1e-12)
    for v in range(quad5.n_verts):
        poly = quad5.dual_polygon(v)
        exact = float(a @ polygon_centroid(poly) + c)
        assert u0.dual[v] == pytest.approx(exact, rel=1e-11), v


def test_project_initial_mass_converges_second_order():
    u0 = lambda x: np.exp(x[0]) * (1.0 + 0.5 * np.sin(3 * x[1]))
    exact = (math.e - 1.0) * (1.0 + 0.5 * (1 - math.cos(3.0)) / 3.0)
    errs = []
    for n in (4, 8, 16):
        mesh = build_ddfv(gen_quad_fvca(n, 0.1))
        field = project_initial(mesh, u0)
        one = DiscreteField.full(mesh, 1.0)
        errs.append(abs(bracket(mesh, field, one) - exact))
    assert 2.5 < errs[0] / errs[1] < 6.5
    assert 2.5 < errs[1] / errs[2] < 6.5


def test_project_initial_rejects_negative_data(quad5):
    from ddfv.errors import NegativeInitialData

    with pytest.raises(NegativeInitialData):
        project_initial(quad5, lambda x: -1.0)


def test_project_potential_values(uniform4, rng):
    assert np.abs(project_potential(uniform4, lambda x: 0.0).values).max() == 0.0
    v = project_potential(uniform4, lambda x: -x[1])
    center = int(np.flatnonzero(
        (np.abs(uniform4.cell_centers - [0.375, 0.375]) < 1e-12).all(axis=1)
    )[0])
    assert v.interior[center] == pytest.approx(-0.375)
    # nodal values match direct evaluation everywhere
    fn = lambda x: np.sin(x[0]) - 1.3 * x[1] ** 2
    proj = project_potential(uniform4, fn)
    pts = np.vstack([uniform4.primal_centers, uniform4.primal.vertices])
    idx = rng.integers(0, len(pts), size=100)
    direct = np.array([fn(pts[i]) for i in idx])
    assert np.allclose(proj.values[np.concatenate([
        np.arange(uniform4.n_cells + uniform4.n_bnd),
        uniform4.n_cells + uniform4.n_bnd + np.arange(uniform4.n_verts),
    ])][idx], direct)


def test_data_must_return_one_value_per_point(uniform4):
    # data are called once on all points: x[0], x[1] are arrays
    with pytest.raises(ValidationError):
        project_potential(uniform4, lambda x: np.zeros(3))
    with pytest.raises(ValidationError):
        project_initial(uniform4, lambda x: np.ones((2, x.shape[1])))


# --- residual ----------------------------------------------------------------


def test_residual_zero_at_stationary_state(quad8):
    params = _params(dt=4e-3, potential=lambda x: -x[1])
    asm = Assembly(quad8, params)
    u_inf = stationary_state(quad8, asm.v_field, mass=2.0)
    res = residual(quad8, params, u_inf, u_inf, assembly=asm)
    assert np.abs(res.values).max() < 1e-12


def test_residual_zero_at_constant_no_potential(quad5):
    params = _params(dt=0.05)
    u = DiscreteField.full(quad5, 3.0)
    res = residual(quad5, params, u, u)
    assert np.abs(res.values).max() < 1e-12


def test_residual_raises_on_nonpositive_state(quad5):
    params = _params()
    u = DiscreteField.full(quad5, 1.0)
    bad = u.copy()
    bad.values[0] = 0.0
    with pytest.raises(NonPositiveState):
        residual(quad5, params, u, bad)


def test_residual_matches_variational_form_brute_force(rng):
    # testing the divergence-form residual against arbitrary psi must
    # reproduce the variational formulation, evaluated here term by term
    # with explicit loops
    mesh = build_ddfv(gen_quad_fvca(3, 0.1))
    params = _params(dt=0.07, kappa=0.3, potential=lambda x: x[0] + 0.2)
    asm = Assembly(mesh, params)
    mats = local_matrices(mesh, params.lam)
    u_prev = _positive_field(mesh, rng)
    u = _positive_field(mesh, rng)
    res = residual(mesh, params, u_prev, u, assembly=asm)
    g = np.log(u.values) + asm.v_field.values
    rd = reconstruct_diamond(mesh, u)
    nc, nb = mesh.n_cells, mesh.n_bnd

    for _ in range(10):
        psi = DiscreteField(mesh, rng.standard_normal(mesh.n_values))
        # left side: bracket with the residual plus boundary closure rows
        lhs = bracket(mesh, res, psi)
        lhs -= 0.5 * float(np.dot(res.boundary, psi.boundary))
        # right side: time bracket + diamond form + penalization, by loops
        rhs = bracket(mesh, u - u_prev, psi) / params.dt
        gp = np.concatenate([g[:nc + nb]])
        for d in range(mesh.n_diamonds):
            dg = np.array([
                g[mesh.dia_cell_k[d]] - g[mesh.dia_cell_l[d]],
                g[nc + nb + mesh.dia_vert_k[d]] - g[nc + nb + mesh.dia_vert_l[d]],
            ])
            dpsi = np.array([
                psi.primal_all[mesh.dia_cell_k[d]] - psi.primal_all[mesh.dia_cell_l[d]],
                psi.dual[mesh.dia_vert_k[d]] - psi.dual[mesh.dia_vert_l[d]],
            ])
            rhs += rd[d] * float(dg @ mats.matrix(d) @ dpsi)
        pen = 0.0
        for c, v, w in zip(mesh.overlap_cell, mesh.overlap_vert,
                           mesh.overlap_area):
            pen += w * (g[c] - g[nc + nb + v]) * (
                psi.interior[c] - psi.dual[v])
        rhs += params.kappa * pen / (2.0 * mesh.h**params.beta)
        assert lhs == pytest.approx(rhs, abs=1e-11 * max(1.0, abs(rhs)))
        # the library helper evaluates the same formulation
        from ddfv.scheme import variational_form

        assert variational_form(mesh, params, u_prev, u, psi,
                                assembly=asm) == pytest.approx(
            rhs, abs=1e-11 * max(1.0, abs(rhs)))


def test_mass_conservation_via_constant_test_field(quad5, rng):
    # psi = 1 in the variational form: flux and penalization telescope, so
    # the residual tested against one reduces to the mass change; with the
    # closure rows zeroed at a solution this is exactly mass conservation
    params = _params(dt=0.02, kappa=0.5, potential=lambda x: x[1])
    u_prev = _positive_field(quad5, rng)
    u = _positive_field(quad5, rng)
    res = residual(quad5, params, u_prev, u)
    one = DiscreteField.full(quad5, 1.0)
    dm = bracket(quad5, u - u_prev, one) / params.dt
    tested = bracket(quad5, res, one) - 0.5 * float(res.boundary.sum())
    assert tested == pytest.approx(dm, rel=1e-10)


# --- jacobian -----------------------------------------------------------------


def test_jacobian_matches_finite_differences(rng):
    mesh = build_ddfv(gen_quad_fvca(3, 0.1))
    params = _params(dt=0.1, kappa=0.2, potential=lambda x: -x[1])
    asm = Assembly(mesh, params)
    u_prev = _positive_field(mesh, rng)
    u = _positive_field(mesh, rng)
    jac = jacobian(mesh, params, u_prev, u, assembly=asm).toarray()
    fd = np.zeros_like(jac)
    for j in range(mesh.n_values):
        step = 1e-6 * u.values[j]
        up, um = u.values.copy(), u.values.copy()
        up[j] += step
        um[j] -= step
        fd[:, j] = (asm.residual_vec(up, u_prev.values)
                    - asm.residual_vec(um, u_prev.values)) / (2 * step)
    denom = np.maximum(1.0, np.abs(jac))
    assert (np.abs(jac - fd) / denom).max() < 1e-6


def _coo_system_jacobian(asm, u):
    """Reference assembly of the mass-scaled Jacobian: every diamond block,
    the time diagonal and the penalization blocks as COO triplets, summed by
    scipy's COO -> CSR conversion."""
    g, d1, d2, rd, f1, f2 = asm._flux_parts(u)
    m = asm.mats
    inv = 1.0 / u
    quarter1 = 0.25 * (m.a_edge * d1 + m.a_cross * d2)
    quarter2 = 0.25 * (m.a_cross * d1 + m.a_dual * d2)
    nd = len(rd)
    d_f1 = np.empty((nd, 4))
    d_f2 = np.empty((nd, 4))
    for j, (col, sign, a1, a2) in enumerate((
        (asm.col_k, 1.0, m.a_edge, m.a_cross),
        (asm.col_l, -1.0, m.a_edge, m.a_cross),
        (asm.col_vk, 1.0, m.a_cross, m.a_dual),
        (asm.col_vl, -1.0, m.a_cross, m.a_dual),
    )):
        d_f1[:, j] = quarter1 + sign * rd * a1 * inv[col]
        d_f2[:, j] = quarter2 + sign * rd * a2 * inv[col]
    values = np.empty((nd, 4, 4))
    for i in range(4):
        src = d_f1 if i < 2 else d_f2
        values[:, i, :] = asm.row_coef[:, i, None] * src

    cols = np.column_stack([asm.col_k, asm.col_l, asm.col_vk, asm.col_vl])
    diag_idx = np.flatnonzero(asm.time_mask)
    rows = [np.repeat(cols, 4, axis=1).ravel(), diag_idx]
    cols_ = [np.tile(cols, (1, 4)).ravel(), diag_idx]
    vals = [values.ravel(), asm.time_coef]
    if asm.params.kappa > 0.0:
        c, v, w = asm.ov_c, asm.ov_v, asm.pen_scale * asm.ov_w
        rows.append(np.concatenate([c, c, v, v]))
        cols_.append(np.concatenate([c, v, v, c]))
        vals.append(np.concatenate(
            [w * inv[c], -w * inv[v], w * inv[v], -w * inv[c]]))
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols_))),
        shape=(asm.n, asm.n),
    ).tocsr()


@pytest.mark.parametrize("kappa", [0.0, 0.1])
def test_jacobian_fixed_pattern_matches_coo_assembly(kappa, kershaw8, rng):
    params = _params(dt=0.05, kappa=kappa, potential=lambda x: -x[1])
    asm = Assembly(kershaw8, params)
    for _ in range(2):
        u = 0.5 + rng.random(kershaw8.n_values)
        ref = _coo_system_jacobian(asm, u)
        jac = asm.system_jacobian(u)
        assert jac.has_canonical_format
        # duplicate entries (at most a dozen terms each) may be summed in
        # another order: allow 16 ulps of the largest entry in the row
        tol = 16 * np.finfo(float).eps * abs(ref).max(axis=1).toarray()
        assert (abs(jac - ref).toarray() <= tol).all()
        div = asm.jacobian_vec(u)
        ref_div = (sp.diags(asm.inv_weight) @ ref).toarray()
        assert (np.abs(div.toarray() - ref_div)
                <= tol * asm.inv_weight[:, None]).all()
        # the cached pattern survives in-place edits of a returned matrix
        jac.data[:] = 0.0
        jac.eliminate_zeros()
    assert (abs(asm.system_jacobian(u) - ref).toarray() <= tol).all()


def test_jacobian_row_sums_at_constant_state(quad5):
    # at a constant state with no potential all log-differences vanish, so
    # the flux block has zero row sums and only the time diagonal remains
    # (rows are divergence-scaled, hence 1/dt rather than a mass factor)
    params = _params(dt=0.25)
    u = DiscreteField.full(quad5, 2.0)
    jac = jacobian(quad5, params, u, u)
    sums = np.asarray(jac.sum(axis=1)).ravel()
    nc, nb = quad5.n_cells, quad5.n_bnd
    assert np.allclose(sums[:nc], 1.0 / params.dt, atol=1e-12)
    assert np.allclose(sums[nc + nb:], 1.0 / params.dt, atol=1e-12)
    assert np.abs(sums[nc:nc + nb]).max() < 1e-12


def test_jacobian_sparsity_structurally_symmetric(quad5, rng):
    params = _params(dt=0.1, kappa=0.1, potential=lambda x: x[0])
    u = _positive_field(quad5, rng)
    jac = jacobian(quad5, params, u, u)
    pattern = (jac != 0).astype(int)
    assert (pattern != pattern.T).nnz == 0


# --- energy and dissipation -----------------------------------------------------


def test_energy_reference_values(quad5):
    zero_v = DiscreteField.zeros(quad5)
    one = DiscreteField.full(quad5, 1.0)
    assert energy(quad5, one, zero_v) == pytest.approx(0.0, abs=1e-14)
    ue = DiscreteField.full(quad5, math.e)
    assert energy(quad5, ue, zero_v) == pytest.approx(
        quad5.domain_area, rel=1e-13)


def test_energy_accepts_zeros(quad5):
    zero_v = DiscreteField.zeros(quad5)
    u = DiscreteField.zeros(quad5)
    # H(0) = 1 with 0*log(0) = 0
    assert energy(quad5, u, zero_v) == pytest.approx(
        quad5.domain_area, rel=1e-13)


def test_relative_energy_zero_at_reference(quad8):
    v = project_potential(quad8, lambda x: -x[1])
    u_inf = stationary_state(quad8, v, mass=1.7)
    assert relative_energy(quad8, u_inf, u_inf) == pytest.approx(0.0, abs=1e-13)


def test_dissipation_zero_at_stationary_state(quad8):
    params = _params(dt=1e-2, potential=lambda x: -x[1])
    asm = Assembly(quad8, params)
    u_inf = stationary_state(quad8, asm.v_field, mass=2.0)
    diss, diss_hat = dissipation(quad8, params, u_inf, assembly=asm)
    assert abs(diss) < 1e-24
    assert diss_hat > 0.0  # log u alone is not piecewise constant here


def test_dissipation_hat_zero_at_constant(quad5):
    params = _params(dt=1e-2)
    u = DiscreteField.full(quad5, 2.5)
    diss, diss_hat = dissipation(quad5, params, u)
    assert abs(diss) < 1e-28 and abs(diss_hat) < 1e-28


def test_dissipation_sandwich(quad8, rng):
    # entropy production <= diagonal form <= C1 * entropy production, with
    # C1 the worst generalized eigenvalue of the local matrix pair
    params = _params(dt=1e-2, potential=lambda x: 0.3 * x[0])
    asm = Assembly(quad8, params)
    mats = asm.mats
    c1 = 0.0
    for d in range(quad8.n_diamonds):
        a = mats.matrix(d)
        b = np.diag([mats.b_edge[d], mats.b_dual[d]])
        c1 = max(c1, np.linalg.eigvalsh(np.linalg.solve(a, b)).max())
    for _ in range(20):
        u = _positive_field(quad8, rng)
        diss, _ = dissipation(quad8, params, u, assembly=asm)
        g = DiscreteField(quad8, np.log(u.values) + asm.v_field.values)
        dg = delta_diamond(quad8, g)
        rd = reconstruct_diamond(quad8, u)
        mid = float(np.dot(rd, mats.quad_b(dg[:, 0], dg[:, 1])))
        assert diss <= mid * (1 + 1e-12)
        assert mid <= c1 * diss * (1 + 1e-12)


# --- stationary state and fisher information --------------------------------------


def test_stationary_state_flat_without_potential(quad5):
    u_inf = stationary_state(quad5, DiscreteField.zeros(quad5), mass=3.0)
    expect = 3.0 / quad5.domain_area
    assert np.allclose(u_inf.values, expect)


def test_stationary_state_normalization(quad8):
    v = project_potential(quad8, lambda x: -x[1])
    u_inf = stationary_state(quad8, v, mass=2.0)
    assert float(np.dot(quad8.cell_areas, u_inf.interior)) == pytest.approx(
        2.0, abs=1e-13)
    assert float(np.dot(quad8.dual_areas, u_inf.dual)) == pytest.approx(
        2.0, abs=1e-13)
    # independent evaluation of the primal normalization constant
    rho = 2.0 / sum(
        quad8.cell_areas[i] * math.exp(quad8.cell_centers[i, 1])
        for i in range(quad8.n_cells)
    )
    assert u_inf.interior[0] == pytest.approx(
        rho * math.exp(quad8.cell_centers[0, 1]), rel=1e-12)


def test_fisher_norm_properties(quad8, rng):
    lam = TensorSpec.identity()
    const = DiscreteField.full(quad8, 2.0)
    assert fisher_norm(quad8, lam, const) == pytest.approx(0.0, abs=1e-24)
    v = project_potential(quad8, lambda x: -x[1])
    u_inf = stationary_state(quad8, v, mass=2.0)
    assert fisher_norm(quad8, lam, u_inf) > 0.0


def test_fisher_bounded_by_dissipation_hat(rng):
    mesh = build_ddfv(gen_quad_fvca(4, 0.1))
    params = _params(dt=1e-2)
    asm = Assembly(mesh, params)
    for _ in range(100):
        u = _positive_field(mesh, rng)
        _, diss_hat = dissipation(mesh, params, u, assembly=asm)
        assert fisher_norm(mesh, params.lam, u) <= diss_hat * (1 + 1e-12)


# --- parameter validation -----------------------------------------------------------


def test_params_validation():
    with pytest.raises(BadBeta):
        SchemeParams(dt=0.1, t_final=1.0, beta=2.5)
    with pytest.raises(ValidationError):
        SchemeParams(dt=-0.1, t_final=1.0)
    with pytest.raises(ValidationError):
        SchemeParams(dt=0.1, t_final=1.0, kappa=-1.0)


def test_shift_potential_makes_v_nonnegative(quad5):
    params = SchemeParams(dt=0.1, t_final=0.1, potential=lambda x: -x[1],
                          shift_potential=True)
    asm = Assembly(quad5, params)
    assert asm.v_field.values.min() >= 0.0
