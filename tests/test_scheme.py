import math

import numpy as np
import pytest
import scipy.sparse as sp

from ddfv.errors import BadBeta, NonPositiveState, ValidationError
from ddfv.mesh import build_ddfv, gen_quad_fvca
from ddfv.operators import bracket, local_matrices
from ddfv.scheme import (
    Assembly,
    SchemeParams,
    energy,
    project_initial,
    project_potential,
    relative_energy,
    stationary_state,
)
from oracles import dual_polygon, polygon_centroid


def _params(dt=0.1, kappa=0.0, potential=None, **kw):
    return SchemeParams(dt=dt, t_final=dt, kappa=kappa, potential=potential, **kw)


def _positive_field(mesh, rng):
    return 0.5 + rng.random(mesh.n_values)


def residual(mesh, params, u_prev, u, assembly=None):
    """The divergence form of the residual: d/dt + div(flux) + kappa *
    penalization on interior and dual rows, the full edge flux on the
    closure rows, i.e. Newton's rows times 2 / measure (2 on the closure
    rows)."""
    assembly = assembly or Assembly(mesh, params)
    half_measure = mesh.pack(0.5 * mesh.cell_areas, np.full(mesh.n_bnd, 0.5),
                             0.5 * mesh.dual_areas)
    return assembly.system_vec(u, u_prev)[0] / half_measure


def _jacobian(mesh, params, u):
    """Newton's Jacobian at u_prev = u."""
    asm = Assembly(mesh, params)
    return asm.system_jacobian(asm.system_vec(u, u)[1])


# --- projections -------------------------------------------------------------


def test_project_initial_constant(quad5):
    u0 = project_initial(quad5, lambda x: 1.0)
    interior, boundary, dual = quad5.parts(u0)
    assert np.allclose(interior, 1.0)
    assert np.allclose(dual, 1.0)
    assert (boundary == 0.0).all()


def test_project_initial_affine_exact(quad5):
    # oracle: the exact mean of an affine function over a polygon is its
    # value at the area centroid
    a = np.array([0.8, -0.4])
    c = 1.5
    u0 = project_initial(quad5, lambda x: a @ x + c)
    interior, _, dual = quad5.parts(u0)
    verts = quad5.primal.vertices
    for ci, loop in enumerate(quad5.primal.cells):
        exact = float(a @ polygon_centroid(verts[loop]) + c)
        assert interior[ci] == pytest.approx(exact, rel=1e-12)
    for v in range(quad5.n_verts):
        poly = dual_polygon(quad5, v)
        exact = float(a @ polygon_centroid(poly) + c)
        assert dual[v] == pytest.approx(exact, rel=1e-11), v


def test_project_initial_mass_converges_second_order():
    u0 = lambda x: np.exp(x[0]) * (1.0 + 0.5 * np.sin(3 * x[1]))
    exact = (math.e - 1.0) * (1.0 + 0.5 * (1 - math.cos(3.0)) / 3.0)
    errs = []
    for n in (4, 8, 16):
        mesh = build_ddfv(gen_quad_fvca(n, 0.1))
        field = project_initial(mesh, u0)
        one = np.full(mesh.n_values, 1.0)
        errs.append(abs(bracket(mesh, field, one) - exact))
    assert 2.5 < errs[0] / errs[1] < 6.5
    assert 2.5 < errs[1] / errs[2] < 6.5


def test_project_initial_rejects_negative_data(quad5):
    from ddfv.errors import NegativeInitialData

    with pytest.raises(NegativeInitialData):
        project_initial(quad5, lambda x: -1.0)


def test_project_potential_values(uniform4, rng):
    assert np.abs(project_potential(uniform4, lambda x: 0.0)).max() == 0.0
    v = project_potential(uniform4, lambda x: -x[1])
    center = int(np.flatnonzero(
        (np.abs(uniform4.cell_centers - [0.375, 0.375]) < 1e-12).all(axis=1)
    )[0])
    assert uniform4.parts(v)[0][center] == pytest.approx(-0.375)
    # nodal values match direct evaluation everywhere
    fn = lambda x: np.sin(x[0]) - 1.3 * x[1] ** 2
    proj = project_potential(uniform4, fn)
    pts = np.vstack([uniform4.primal_centers, uniform4.primal.vertices])
    idx = rng.integers(0, len(pts), size=100)
    direct = np.array([fn(pts[i]) for i in idx])
    assert np.allclose(proj[np.concatenate([
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
    u_inf = stationary_state(quad8, asm.v, mass=2.0)
    res = residual(quad8, params, u_inf, u_inf, assembly=asm)
    assert np.abs(res).max() < 1e-12


def test_residual_zero_at_constant_no_potential(quad5):
    params = _params(dt=0.05)
    u = np.full(quad5.n_values, 3.0)
    res = residual(quad5, params, u, u)
    assert np.abs(res).max() < 1e-12


def test_residual_raises_on_nonpositive_state(quad5):
    params = _params()
    u = np.full(quad5.n_values, 1.0)
    bad = u.copy()
    bad[0] = 0.0
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
    g = np.log(u) + asm.v
    uv = u
    nc, nb = mesh.n_cells, mesh.n_bnd
    # arithmetic mean of the four corner values per diamond
    rd = 0.25 * (uv[mesh.dia_cell_k] + uv[mesh.dia_cell_l]
                 + uv[nc + nb + mesh.dia_vert_k] + uv[nc + nb + mesh.dia_vert_l])

    for _ in range(10):
        psi = rng.standard_normal(mesh.n_values)
        psi_int, psi_bnd, psi_dual = mesh.parts(psi)
        # left side: bracket with the residual plus boundary closure rows
        lhs = bracket(mesh, res, psi)
        lhs -= 0.5 * float(np.dot(mesh.parts(res)[1], psi_bnd))
        # right side: time bracket + diamond form + penalization, by loops
        rhs = bracket(mesh, u - u_prev, psi) / params.dt
        gp = np.concatenate([g[:nc + nb]])
        for d in range(mesh.n_diamonds):
            dg = np.array([
                g[mesh.dia_cell_k[d]] - g[mesh.dia_cell_l[d]],
                g[nc + nb + mesh.dia_vert_k[d]] - g[nc + nb + mesh.dia_vert_l[d]],
            ])
            dpsi = np.array([
                psi[mesh.dia_cell_k[d]] - psi[mesh.dia_cell_l[d]],
                psi_dual[mesh.dia_vert_k[d]] - psi_dual[mesh.dia_vert_l[d]],
            ])
            rhs += rd[d] * float(dg @ mats.matrix(d) @ dpsi)
        pen = 0.0
        for c, v, w in zip(mesh.overlap_cell, mesh.overlap_vert,
                           mesh.overlap_area):
            pen += w * (g[c] - g[nc + nb + v]) * (
                psi_int[c] - psi_dual[v])
        rhs += params.kappa * pen / (2.0 * mesh.h**params.beta)
        assert lhs == pytest.approx(rhs, abs=1e-11 * max(1.0, abs(rhs)))


def test_mass_conservation_via_constant_test_field(quad5, rng):
    # psi = 1 in the variational form: flux and penalization telescope, so
    # the residual tested against one reduces to the mass change; with the
    # closure rows zeroed at a solution this is exactly mass conservation
    params = _params(dt=0.02, kappa=0.5, potential=lambda x: x[1])
    u_prev = _positive_field(quad5, rng)
    u = _positive_field(quad5, rng)
    res = residual(quad5, params, u_prev, u)
    one = np.full(quad5.n_values, 1.0)
    dm = bracket(quad5, u - u_prev, one) / params.dt
    tested = bracket(quad5, res, one) - 0.5 * float(quad5.parts(res)[1].sum())
    assert tested == pytest.approx(dm, rel=1e-10)


# --- jacobian -----------------------------------------------------------------


def _coo_system_jacobian(asm, u):
    """Reference assembly of the mass-scaled Jacobian: every diamond block,
    the time diagonal and the penalization blocks as COO triplets, summed by
    scipy's COO -> CSR conversion."""
    col_k, col_l, col_vk, col_vl = asm.corners
    g = np.log(u) + asm.v
    d1, d2 = g[col_k] - g[col_l], g[col_vk] - g[col_vl]
    rd = 0.25 * (u[col_k] + u[col_l] + u[col_vk] + u[col_vl])
    m = asm.mats
    inv = 1.0 / u
    quarter1 = 0.25 * (m.a_edge * d1 + m.a_cross * d2)
    quarter2 = 0.25 * (m.a_cross * d1 + m.a_dual * d2)
    nd = len(rd)
    d_f1 = np.empty((nd, 4))
    d_f2 = np.empty((nd, 4))
    for j, (col, sign, a1, a2) in enumerate((
        (col_k, 1.0, m.a_edge, m.a_cross),
        (col_l, -1.0, m.a_edge, m.a_cross),
        (col_vk, 1.0, m.a_cross, m.a_dual),
        (col_vl, -1.0, m.a_cross, m.a_dual),
    )):
        d_f1[:, j] = quarter1 + sign * rd * a1 * inv[col]
        d_f2[:, j] = quarter2 + sign * rd * a2 * inv[col]
    values = np.empty((nd, 4, 4))
    ones = np.ones(nd)
    row_coef = np.column_stack([ones, asm.coef_l, ones, -ones])
    for i in range(4):
        src = d_f1 if i < 2 else d_f2
        values[:, i, :] = row_coef[:, i, None] * src

    cols = asm.corners.T
    diag_idx = np.flatnonzero(asm.time_mask)
    rows = [np.repeat(cols, 4, axis=1).ravel(), diag_idx]
    cols_ = [np.tile(cols, (1, 4)).ravel(), diag_idx]
    vals = [values.ravel(), asm.time_coef[diag_idx]]
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
        jac = asm.system_jacobian(asm.system_vec(u, u)[1])
        assert jac.has_canonical_format
        # duplicate entries (at most a dozen terms each) may be summed in
        # another order: allow 16 ulps of the largest entry in the row
        tol = 16 * np.finfo(float).eps * abs(ref).max(axis=1).toarray()
        assert (abs(jac - ref).toarray() <= tol).all()
        # the cached pattern survives in-place edits of a returned matrix
        jac.data[:] = 0.0
        jac.eliminate_zeros()
    assert (abs(asm.system_jacobian(asm.system_vec(u, u)[1]) - ref).toarray()
            <= tol).all()


@pytest.mark.parametrize("kappa", [0.0, 0.1])
def test_jacobian_does_not_alias_assembly_buffers(kappa, quad5, rng):
    asm = Assembly(quad5, _params(dt=0.05, kappa=kappa, potential=lambda x: x[0]))
    u1, u2 = (0.5 + rng.random(quad5.n_values) for _ in range(2))
    j1 = asm.system_jacobian(asm.system_vec(u1, u1)[1])
    kept1 = j1.copy()
    j2 = asm.system_jacobian(asm.system_vec(u2, u2)[1])
    kept2 = j2.copy()
    assert (j1 != j2).nnz > 0
    assert (j1 != kept1).nnz == 0
    j2.data[:] = -1.0
    assert (j1 != kept1).nnz == 0
    assert (asm.system_jacobian(asm.system_vec(u2, u2)[1]) != kept2).nnz == 0


def test_jacobian_row_sums_at_constant_state(quad5):
    # at a constant state with no potential all log-differences vanish, so
    # the flux block has zero row sums and only the time diagonal remains
    # (rows are mass-scaled, hence half the measure over dt)
    params = _params(dt=0.25)
    u = np.full(quad5.n_values, 2.0)
    jac = _jacobian(quad5, params, u)
    sums = np.asarray(jac.sum(axis=1)).ravel()
    interior, boundary, dual = quad5.parts(sums)
    assert np.allclose(interior, 0.5 * quad5.cell_areas / params.dt,
                       atol=1e-12)
    assert np.allclose(dual, 0.5 * quad5.dual_areas / params.dt, atol=1e-12)
    assert np.abs(boundary).max() < 1e-12


def test_jacobian_sparsity_structurally_symmetric(quad5, rng):
    params = _params(dt=0.1, kappa=0.1, potential=lambda x: x[0])
    u = _positive_field(quad5, rng)
    jac = _jacobian(quad5, params, u)
    pattern = (jac != 0).astype(int)
    assert (pattern != pattern.T).nnz == 0


# --- energy and dissipation -----------------------------------------------------


def test_energy_reference_values(quad5):
    zero_v = np.zeros(quad5.n_values)
    one = np.full(quad5.n_values, 1.0)
    assert energy(quad5, one, zero_v) == pytest.approx(
        0.0, abs=1e-14)
    ue = np.full(quad5.n_values, math.e)
    assert energy(quad5, ue, zero_v) == pytest.approx(
        quad5.domain_area, rel=1e-13)


def test_energy_accepts_zeros(quad5):
    zero_v = np.zeros(quad5.n_values)
    u = np.zeros(quad5.n_values)
    # H(0) = 1 with 0*log(0) = 0
    assert energy(quad5, u, zero_v) == pytest.approx(
        quad5.domain_area, rel=1e-13)


def test_relative_energy_zero_at_reference(quad8):
    v = project_potential(quad8, lambda x: -x[1])
    u_inf = stationary_state(quad8, v, mass=1.7)
    assert relative_energy(quad8, u_inf, u_inf) == pytest.approx(
        0.0, abs=1e-13)


def test_dissipation_zero_at_stationary_state(quad8):
    params = _params(dt=1e-2, potential=lambda x: -x[1])
    asm = Assembly(quad8, params)
    u_inf = stationary_state(quad8, asm.v, mass=2.0)
    diss, diss_hat = asm.dissipation_vec(
        asm.system_vec(u_inf, u_inf)[1])
    assert abs(diss) < 1e-24
    assert diss_hat > 0.0  # log u alone is not piecewise constant here


def test_dissipation_hat_zero_at_constant(quad5):
    params = _params(dt=1e-2)
    u = np.full(quad5.n_values, 2.5)
    asm = Assembly(quad5, params)
    diss, diss_hat = asm.dissipation_vec(asm.system_vec(u, u)[1])
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
    # corner indices per diamond in the packed vector
    off = quad8.n_cells + quad8.n_bnd
    ck, cl = quad8.dia_cell_k, quad8.dia_cell_l
    vk, vl = off + quad8.dia_vert_k, off + quad8.dia_vert_l
    for _ in range(20):
        u = _positive_field(quad8, rng)
        diss, _ = asm.dissipation_vec(asm.system_vec(u, u)[1])
        g = np.log(u) + asm.v
        # diagonal differences of g and the corner mean of u per diamond
        dg1, dg2 = g[ck] - g[cl], g[vk] - g[vl]
        uv = u
        rd = 0.25 * (uv[ck] + uv[cl] + uv[vk] + uv[vl])
        mid = float(np.dot(rd, mats.quad_b(dg1, dg2)))
        assert diss <= mid * (1 + 1e-12)
        assert mid <= c1 * diss * (1 + 1e-12)


# --- stationary state ----------------------------------------------------------


def test_stationary_state_flat_without_potential(quad5):
    u_inf = stationary_state(quad5, np.zeros(quad5.n_values), mass=3.0)
    expect = 3.0 / quad5.domain_area
    assert np.allclose(u_inf, expect)


def test_stationary_state_normalization(quad8):
    v = project_potential(quad8, lambda x: -x[1])
    u_inf = stationary_state(quad8, v, mass=2.0)
    interior, _, dual = quad8.parts(u_inf)
    assert float(np.dot(quad8.cell_areas, interior)) == pytest.approx(
        2.0, abs=1e-13)
    assert float(np.dot(quad8.dual_areas, dual)) == pytest.approx(
        2.0, abs=1e-13)
    # independent evaluation of the primal normalization constant
    rho = 2.0 / sum(
        quad8.cell_areas[i] * math.exp(quad8.cell_centers[i, 1])
        for i in range(quad8.n_cells)
    )
    assert interior[0] == pytest.approx(
        rho * math.exp(quad8.cell_centers[0, 1]), rel=1e-12)


@pytest.mark.parametrize("masses", [
    {"mass": 0.0}, {"mass": -1.0}, {"mass": float("nan")},
    {"mass": float("inf")}, {"mass": 1.0, "dual_mass": 0.0},
    {"mass": 1.0, "dual_mass": -1.0}, {"mass": 1.0, "dual_mass": float("nan")},
    {"mass": 1.0, "dual_mass": float("inf")},
], ids=lambda m: ",".join(f"{k}={v}" for k, v in m.items()))
def test_stationary_state_rejects_a_mass_that_is_not_finite_and_positive(
        quad5, masses):
    with pytest.raises(ValidationError, match="mass must be finite"):
        stationary_state(quad5, np.zeros(quad5.n_values), **masses)


# --- parameter validation -----------------------------------------------------------


def test_params_validation():
    with pytest.raises(BadBeta):
        SchemeParams(dt=0.1, t_final=1.0, beta=2.5)
    with pytest.raises(ValidationError):
        SchemeParams(dt=-0.1, t_final=1.0)
    with pytest.raises(ValidationError):
        SchemeParams(dt=0.1, t_final=1.0, kappa=-1.0)
    nan, inf = float("nan"), float("inf")
    for kwargs in ({"dt": nan}, {"dt": inf}, {"t_final": nan},
                   {"t_final": inf}, {"t_final": 0.0}, {"t_final": -1.0},
                   {"kappa": nan}, {"kappa": inf}):
        with pytest.raises(ValidationError):
            SchemeParams(**{"dt": 0.1, "t_final": 1.0, **kwargs})
