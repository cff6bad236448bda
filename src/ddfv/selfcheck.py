"""Structural property suite behind the ``check`` command.

Each check recomputes one identity of the discretization with an
independent brute-force evaluation (plain Python loops, finite differences,
exact identities) and compares against the vectorized operators.
Deterministic for a fixed seed.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fields import DiscreteField, TensorSpec
from .mesh import build_ddfv, gen_kershaw, gen_quad_fvca, gen_uniform_quad
from .operators import (
    bracket,
    div_discrete,
    grad_diamond,
    local_matrices,
)
from .scheme import Assembly, SchemeParams, jacobian, residual


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: {self.detail}"


def _meshes():
    return [
        ("uniform-4", build_ddfv(gen_uniform_quad(4))),
        ("quad-8", build_ddfv(gen_quad_fvca(8, 0.1))),
        ("kershaw-8", build_ddfv(gen_kershaw(8))),
    ]


def check_partitions(rng):
    worst = 0.0
    for name, mesh in _meshes():
        area = mesh.domain_area
        for total in (
            mesh.cell_areas.sum(),
            mesh.dual_areas.sum(),
            mesh.diamond_area.sum(),
            mesh.overlap_area.sum(),
        ):
            worst = max(worst, abs(total - area) / area)
        # quarter splits per diamond
        inner = ~mesh.dia_is_boundary
        worst = max(worst, np.abs(
            mesh.wedge_cell_k + mesh.wedge_cell_l - mesh.diamond_area
        )[inner].max() / mesh.diamond_area[inner].min())
        worst = max(worst, np.abs(
            mesh.wedge_vert_k + mesh.wedge_vert_l - mesh.diamond_area
        ).max() / mesh.diamond_area.min())
    return CheckResult("partition identities", worst < 1e-12,
                       f"worst relative defect {worst:.2e}")


def check_diamond_area_formula(rng):
    """Half * edge * dual edge * sin(angle) against the shoelace area."""
    worst = 0.0
    for name, mesh in _meshes():
        verts = mesh.primal.vertices
        centers = mesh.primal_centers
        for d in range(mesh.n_diamonds):
            quad = [
                centers[mesh.dia_cell_k[d]],
                verts[mesh.dia_vert_k[d]],
                centers[mesh.dia_cell_l[d]],
                verts[mesh.dia_vert_l[d]],
            ]
            x = [p[0] for p in quad]
            y = [p[1] for p in quad]
            shoelace = 0.5 * abs(sum(
                x[i] * y[(i + 1) % 4] - x[(i + 1) % 4] * y[i] for i in range(4)
            ))
            worst = max(worst,
                        abs(shoelace - mesh.diamond_area[d]) / mesh.diamond_area[d])
    return CheckResult("diamond area identity", worst < 1e-12,
                       f"worst relative defect {worst:.2e}")


def check_duality(rng):
    """Brute-force discrete Green formula for boundary-vanishing fields."""
    worst = 0.0
    for name, mesh in _meshes():
        for _ in range(20):
            xi = rng.standard_normal((mesh.n_diamonds, 2))
            v = DiscreteField(mesh, rng.standard_normal(mesh.n_values))
            v.boundary[:] = 0.0
            v.dual[mesh.vertex_is_boundary] = 0.0

            lhs = bracket(mesh, div_discrete(mesh, xi), v)
            # independent evaluation of -(xi, grad v) by per-diamond loops
            rhs = 0.0
            vp = v.primal_all
            vd = v.dual
            for d in range(mesh.n_diamonds):
                dv_edge = vp[mesh.dia_cell_l[d]] - vp[mesh.dia_cell_k[d]]
                dv_dual = vd[mesh.dia_vert_l[d]] - vd[mesh.dia_vert_k[d]]
                rhs -= 0.5 * (
                    mesh.edge_len[d] * dv_edge * np.dot(xi[d], mesh.edge_normal[d])
                    + mesh.dual_edge_len[d] * dv_dual
                    * np.dot(xi[d], mesh.dual_edge_normal[d])
                )
            scale = max(1.0, abs(lhs))
            worst = max(worst, abs(lhs - rhs) / scale)
    return CheckResult("discrete duality", worst < 1e-12,
                       f"worst relative defect {worst:.2e}")


def check_affine_exactness(rng):
    worst = 0.0
    for name, mesh in _meshes():
        centers = mesh.primal_centers
        verts = mesh.primal.vertices
        for _ in range(10):
            a = rng.standard_normal(2)
            c = rng.standard_normal()
            vals = np.concatenate([centers @ a + c, verts @ a + c])
            g = grad_diamond(mesh, DiscreteField(mesh, vals))
            worst = max(worst, np.abs(g - a).max() / max(1.0, np.abs(a).max()))
    return CheckResult("gradient affine exactness", worst < 1e-12,
                       f"worst relative defect {worst:.2e}")


def check_quadratic_sandwich(rng):
    """A w.w <= B w.w per diamond, and B <= C1 A with the eigenvalue-based
    constant, for random w."""
    ok = True
    worst = 0.0
    for name, mesh in _meshes():
        lam = TensorSpec.rotated(1.0, 0.25, 0.4)
        mats = local_matrices(mesh, lam)
        c1 = 0.0
        for d in range(mesh.n_diamonds):
            a = mats.matrix(d)
            b = np.diag([mats.b_edge[d], mats.b_dual[d]])
            evals = np.linalg.eigvalsh(np.linalg.solve(a, b))
            c1 = max(c1, evals.max())
        w = rng.standard_normal((100, 2))
        for k in range(100):
            w1 = np.full(mesh.n_diamonds, w[k, 0])
            w2 = np.full(mesh.n_diamonds, w[k, 1])
            qa = mats.quad_a(w1, w2)
            qb = mats.quad_b(w1, w2)
            gap = (qa - qb).max()
            worst = max(worst, gap)
            ok = ok and (qb <= c1 * qa * (1 + 1e-10) + 1e-14).all()
            ok = ok and gap <= 1e-12
    return CheckResult("quadratic-form sandwich", ok,
                       f"worst lower-bound defect {worst:.2e}")


def check_jacobian_fd(rng):
    """Analytic Jacobian against central finite differences on a 3x3 mesh,
    and against the exact identity of the scheme's homogeneity.

    The flux is degree-1 homogeneous in u (the reconstruction is linear and
    log-differences are scale-free) and the penalization rows P(u) are
    degree 0, so J(u) u = R(u; u_prev = 0) - P(u) holds up to rounding;
    P(u) is the kappa residual minus the kappa = 0 residual at u_prev = u.
    The difference quotients cannot see a relative error in J below their
    1e-6 tolerance; the identity sees one of 1e-9.
    """
    mesh = build_ddfv(gen_quad_fvca(3, 0.08))
    params = SchemeParams(dt=0.1, t_final=0.1, kappa=0.05, beta=1.0,
                          potential=lambda x: -x[1])
    assembly = Assembly(mesh, params)
    u_prev = DiscreteField(mesh, 0.5 + rng.random(mesh.n_values))
    u = 0.5 + rng.random(mesh.n_values)
    u_field = DiscreteField(mesh, u)
    jac = jacobian(mesh, params, u_prev, u_field, assembly).toarray()

    def res(vals):
        return residual(mesh, params, u_prev, DiscreteField(mesh, vals),
                        assembly).values

    no_penalty = dataclasses.replace(params, kappa=0.0)
    penalty = (residual(mesh, params, u_field, u_field, assembly).values
               - residual(mesh, no_penalty, u_field, u_field).values)
    homogeneous = (residual(mesh, params, DiscreteField.zeros(mesh), u_field,
                            assembly).values - penalty)
    identity = float(np.abs(jac @ u - homogeneous).max()
                     / (np.abs(jac) @ u).max())

    fd = np.zeros_like(jac)
    for j in range(mesh.n_values):
        step = 1e-6 * u[j]
        up, um = u.copy(), u.copy()
        up[j] += step
        um[j] -= step
        fd[:, j] = (res(up) - res(um)) / (2 * step)
    denom = np.maximum(1.0, np.abs(jac))
    worst = float((np.abs(jac - fd) / denom).max())
    return CheckResult("jacobian vs finite differences",
                       worst < 1e-6 and identity < 1e-12,
                       f"worst entrywise defect {worst:.2e}, "
                       f"homogeneity defect {identity:.2e}")


CHECKS = [
    check_partitions,
    check_diamond_area_formula,
    check_duality,
    check_affine_exactness,
    check_quadratic_sandwich,
    check_jacobian_fd,
]


def run_property_checks(seed: int = 0):
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    return [check(rng) for check in CHECKS]
