from fractions import Fraction

import numpy as np
import pytest

from ddfv.errors import BadBeta
from ddfv.fields import DiscreteField, TensorSpec
from ddfv.mesh import PrimalMesh, build_ddfv, gen_quad_fvca, quality
from ddfv.operators import (
    bracket,
    div_discrete,
    grad_diamond,
    local_matrices,
    penalization_bracket,
)


def _inner_lambda(mesh, lam, xi, phi):
    """Tensor-weighted inner product of two diamond vector fields."""
    return float(np.dot(mesh.diamond_area, np.einsum(
        "di,dij,dj->d", xi, lam.on_diamonds(mesh), phi)))


# --- gradient --------------------------------------------------------------


def test_gradient_of_constant_is_zero(quad5):
    g = grad_diamond(quad5, DiscreteField.full(quad5, 3.7))
    assert np.abs(g).max() < 1e-13


def test_gradient_single_diamond_rational_oracle(quad5, kershaw8, rng):
    # On every diamond, the gradient formula evaluated in exact rational
    # arithmetic from the float corners and values (Fraction(float) is
    # exact): the length factors cancel the norms, so no square root.
    def cross(a, b):
        return a[0] * b[1] - a[1] * b[0]

    for name, mesh in (("quad5", quad5), ("kershaw8", kershaw8)):
        u = DiscreteField(mesh, rng.standard_normal(mesh.n_values))
        got = grad_diamond(mesh, u)
        up, ud = u.primal_all, u.dual
        centers, verts = mesh.primal_centers, mesh.primal.vertices
        for d in range(mesh.n_diamonds):
            ck, cl = mesh.dia_cell_k[d], mesh.dia_cell_l[d]
            vk, vl = mesh.dia_vert_k[d], mesh.dia_vert_l[d]
            xk, xl, xvk, xvl = ([Fraction(c) for c in p] for p in (
                centers[ck], centers[cl], verts[vk], verts[vl]))
            uk, ul, uvk, uvl = map(Fraction, (up[ck], up[cl], ud[vk], ud[vl]))
            edge = (xvl[0] - xvk[0], xvl[1] - xvk[1])
            dual = (xl[0] - xk[0], xl[1] - xk[1])
            # edge_len * edge_normal is the edge vector rotated by +-90
            # degrees, oriented from cell k towards cell l
            ne = (-edge[1], edge[0])
            if ne[0] * dual[0] + ne[1] * dual[1] < 0:
                ne = (-ne[0], -ne[1])
            nd = (dual[1], -dual[0])
            if nd[0] * edge[0] + nd[1] * edge[1] < 0:
                nd = (-nd[0], -nd[1])
            area2 = abs(cross(dual, edge))  # 2 * diamond area
            exact = np.array([
                float(((ul - uk) * ne[i] + (uvl - uvk) * nd[i]) / area2)
                for i in range(2)])
            gap = np.abs(got[d] - exact).max() / np.abs(exact).max()
            assert gap < 1e-13, (name, d, gap)


def test_gradient_two_formulas_agree(mesh_zoo, rng):
    # the sin(angle)-scaled difference quotients equal the area form
    for name, mesh in mesh_zoo:
        u = DiscreteField(mesh, rng.standard_normal(mesh.n_values))
        g = grad_diamond(mesh, u)
        up, ud = u.primal_all, u.dual
        alt = (
            ((ud[mesh.dia_vert_l] - ud[mesh.dia_vert_k])
             / mesh.edge_len)[:, None] * mesh.dual_edge_normal
            + ((up[mesh.dia_cell_l] - up[mesh.dia_cell_k])
               / mesh.dual_edge_len)[:, None] * mesh.edge_normal
        ) / mesh.sin_angle[:, None]
        assert np.abs(g - alt).max() < 1e-12, name


# --- divergence --------------------------------------------------------------


def test_divergence_of_zero(quad5):
    d = div_discrete(quad5, np.zeros((quad5.n_diamonds, 2)))
    assert np.abs(d.values).max() == 0.0


def test_divergence_of_constant_interior(quad5):
    xi = np.tile([0.3, -1.1], (quad5.n_diamonds, 1))
    d = div_discrete(quad5, xi)
    # normals of a closed interior cell sum to zero
    assert np.abs(d.interior).max() < 1e-12
    assert np.abs(d.boundary).max() == 0.0


# --- brackets ----------------------------------------------------------------


def test_bracket_of_ones(quad5):
    one = DiscreteField.full(quad5, 1.0)
    assert bracket(quad5, one, one) == pytest.approx(quad5.domain_area, rel=1e-13)


def test_bracket_single_cell_indicator(quad5):
    u = DiscreteField.zeros(quad5)
    u.interior[3] = 1.0
    one = DiscreteField.full(quad5, 1.0)
    assert bracket(quad5, u, one) == pytest.approx(
        0.5 * quad5.cell_areas[3], rel=1e-13)


# --- local matrices ----------------------------------------------------------


def test_local_matrices_uniform_identity(uniform4):
    mats = local_matrices(uniform4, TensorSpec.identity())
    inner = ~uniform4.dia_is_boundary
    assert np.allclose(mats.a_edge[inner], 0.5)
    assert np.allclose(mats.a_dual[inner], 0.5)
    assert np.abs(mats.a_cross[inner]).max() < 1e-13


def test_local_matrices_match_gradient_inner_product(rng):
    mesh = build_ddfv(gen_quad_fvca(4, 0.1))
    lam = TensorSpec.rotated(1.0, 0.2, 0.7)
    mats = local_matrices(mesh, lam)
    u = DiscreteField(mesh, rng.standard_normal(mesh.n_values))
    v = DiscreteField(mesh, rng.standard_normal(mesh.n_values))
    lhs = 0.0
    for d in range(mesh.n_diamonds):
        du, dv = (np.array([
            w.primal_all[mesh.dia_cell_k[d]] - w.primal_all[mesh.dia_cell_l[d]],
            w.dual[mesh.dia_vert_k[d]] - w.dual[mesh.dia_vert_l[d]],
        ]) for w in (u, v))
        lhs += float(du @ mats.matrix(d) @ dv)
    rhs = _inner_lambda(mesh, lam, grad_diamond(mesh, u), grad_diamond(mesh, v))
    assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))


def test_condition_number_bound(kershaw8):
    lam = TensorSpec.rotated(1.0, 0.1, 0.9)
    mats = local_matrices(kershaw8, lam)
    q = quality(kershaw8)
    lam_min, lam_max = lam.bounds()
    bound = 4.0 * q.theta_star**2 * lam_max / lam_min
    assert (mats.cond2() < bound).all()


def test_assembled_forms_orientation_invariant(rng):
    # rebuilding from the reversed cell list relabels every diamond; all
    # assembled scalars must be unchanged
    primal = gen_quad_fvca(4, 0.1)
    mesh_a = build_ddfv(primal)
    mesh_b = build_ddfv(PrimalMesh(primal.vertices, primal.cells[::-1]))
    nc = mesh_a.n_cells
    vals = rng.standard_normal(mesh_a.n_values)
    u_a = DiscreteField(mesh_a, vals)
    # map: cell i -> nc-1-i; boundary cells and vertices keep their ids
    perm = np.concatenate([
        np.arange(nc)[::-1],
        nc + np.arange(mesh_a.n_bnd + mesh_a.n_verts),
    ])
    # boundary-cell discovery order also changes; map via edge keys
    key_to_b = {tuple(sorted(e)): i for i, e in enumerate(map(tuple, mesh_b.bnd_edges))}
    for i, e in enumerate(map(tuple, mesh_a.bnd_edges)):
        perm[nc + i] = nc + key_to_b[tuple(sorted(e))]
    vals_b = np.empty_like(vals)
    vals_b[perm] = vals
    u_b = DiscreteField(mesh_b, vals_b)
    lam = TensorSpec.rotated(1.0, 0.3, 0.2)
    ga, gb = grad_diamond(mesh_a, u_a), grad_diamond(mesh_b, u_b)
    assert _inner_lambda(mesh_a, lam, ga, ga) == pytest.approx(
        _inner_lambda(mesh_b, lam, gb, gb), rel=1e-12)
    assert bracket(mesh_a, u_a, u_a) == pytest.approx(
        bracket(mesh_b, u_b, u_b), rel=1e-12)
    assert penalization_bracket(mesh_a, u_a, u_a, 1.0) == pytest.approx(
        penalization_bracket(mesh_b, u_b, u_b, 1.0), rel=1e-12)


# --- penalization -------------------------------------------------------------


def test_penalization_vanishes_on_matching_values(quad5):
    # equal primal and dual values -> every overlap gap is zero
    u = DiscreteField.full(quad5, 2.0)
    assert penalization_bracket(quad5, u, u, 1.0) == 0.0


def test_penalization_bracket_primal_dual_split(mesh_zoo):
    for name, mesh in mesh_zoo:
        u = DiscreteField.from_components(
            mesh, np.ones(mesh.n_cells), np.zeros(mesh.n_bnd),
            np.zeros(mesh.n_verts))
        for beta in (0.5, 1.0, 1.5):
            expected = mesh.domain_area / (2.0 * mesh.h**beta)
            assert penalization_bracket(mesh, u, u, beta) == pytest.approx(
                expected, rel=1e-12), name


def test_penalization_symmetry_positivity(quad5, rng):
    u = DiscreteField(quad5, rng.standard_normal(quad5.n_values))
    v = DiscreteField(quad5, rng.standard_normal(quad5.n_values))
    buv = penalization_bracket(quad5, u, v, 1.0)
    bvu = penalization_bracket(quad5, v, u, 1.0)
    assert buv == pytest.approx(bvu, rel=1e-13)
    assert penalization_bracket(quad5, u, u, 1.0) >= 0.0


def test_penalization_scaling_with_h():
    u_of = lambda mesh: DiscreteField.from_components(
        mesh, np.ones(mesh.n_cells), np.zeros(mesh.n_bnd),
        np.zeros(mesh.n_verts))
    beta = 1.2
    m1 = build_ddfv(gen_quad_fvca(4, 0.1))
    m2 = build_ddfv(gen_quad_fvca(8, 0.1))
    b1 = penalization_bracket(m1, u_of(m1), u_of(m1), beta)
    b2 = penalization_bracket(m2, u_of(m2), u_of(m2), beta)
    assert b2 / b1 == pytest.approx((m1.h / m2.h) ** beta, rel=0.10)


def test_penalization_rejects_bad_beta(quad5):
    u = DiscreteField.full(quad5, 1.0)
    for beta in (0.0, 2.0, -1.0, 3.0):
        with pytest.raises(BadBeta):
            penalization_bracket(quad5, u, u, beta)


# --- trace -----------------------------------------------------------------------


def test_trace_ratio_bounded_under_refinement(rng):
    # smooth nodal data with random coefficients; the trace-to-energy ratio
    # must not blow up as the mesh refines
    coef = rng.standard_normal(4)

    def smooth(x):
        return (coef[0] + coef[1] * np.sin(x[0] + 0.3)
                + coef[2] * np.cos(2 * x[1]) + coef[3] * x[0] * x[1])

    ratios = []
    for n in (4, 8, 16):
        mesh = build_ddfv(gen_quad_fvca(n, 0.1))
        vals = np.concatenate([
            np.array([smooth(x) for x in mesh.primal_centers]),
            np.array([smooth(x) for x in mesh.primal.vertices]),
        ])
        u = DiscreteField(mesh, vals)
        # boundary l2 trace against the l2 norm plus the gradient l2 norm
        tr = float(np.dot(mesh.bnd_lengths, u.boundary**2)) ** 0.5
        grad = grad_diamond(mesh, u)
        denom = (bracket(mesh, u, u) ** 0.5
                 + float(np.dot(mesh.diamond_area, (grad**2).sum(axis=1))) ** 0.5)
        ratios.append(tr / denom)
    assert max(ratios) < 2.0 * min(ratios) + 1.0
    assert max(ratios) < 10.0
