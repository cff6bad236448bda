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
from .fields import TensorSpec
from .mesh import build_ddfv, gen_kershaw, gen_quad_fvca, gen_uniform_quad
from .operators import (
    bracket,
    div_discrete,
    grad_diamond,
    local_matrices,
)
from .scheme import Assembly, SchemeParams


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
    """Cells, dual cells, diamonds and overlaps each tile the domain (its
    area a shoelace sum over the boundary), and quarter splits add up."""
    worst = 0.0
    for name, mesh in _meshes():
        x, y = mesh.primal.vertices[mesh.primal.boundary_edges].T
        area = 0.5 * float(np.sum(x[0] * y[1] - x[1] * y[0]))
        for total in (
            mesh.cell_areas.sum(),
            mesh.dual_areas.sum(),
            mesh.diamond_area.sum(),
            mesh.overlap_area.sum(),
        ):
            worst = max(worst, abs(total - area) / area)
        # quarter splits per diamond
        inner, dia = ~mesh.dia_is_boundary, mesh.diamond_area
        wck, wcl, wvk, wvl = mesh.wedges
        worst = max(worst, np.abs(wck + wcl - dia)[inner].max() / dia[inner].min(),
                    np.abs(wvk + wvl - dia).max() / dia.min())
    return CheckResult("partition identities", worst < 1e-12,
                       f"worst relative defect {worst:.2e}")


def check_diamond_area_formula(rng):
    """Half * edge * dual edge * sin(angle) against the shoelace area."""
    worst = 0.0
    for name, mesh in _meshes():
        for d in range(mesh.n_diamonds):
            # the corners in turn: cell k, vertex k, cell l, vertex l
            quad = mesh.nodes[mesh.corners[[0, 2, 1, 3], d]]
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
        ck, cl, vk, vl = mesh.corners
        for _ in range(20):
            xi = rng.standard_normal((mesh.n_diamonds, 2))
            v = rng.standard_normal(mesh.n_values)
            _, vb, vd = mesh.parts(v)
            vb[:] = 0.0
            vd[mesh.vertex_is_boundary] = 0.0

            lhs = bracket(mesh, div_discrete(mesh, xi), v)
            # independent evaluation of -(xi, grad v) by per-diamond loops
            rhs = 0.0
            for d in range(mesh.n_diamonds):
                dv_edge = v[cl[d]] - v[ck[d]]
                dv_dual = v[vl[d]] - v[vk[d]]
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
        for _ in range(10):
            a = rng.standard_normal(2)
            c = rng.standard_normal()
            g = grad_diamond(mesh, mesh.nodes @ a + c)
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
    """Newton's Jacobian against central finite differences of Newton's
    rows ``Assembly.system_vec`` on a 3x3 mesh, and against the exact
    identity of the scheme's homogeneity.

    The flux is degree-1 homogeneous in u (the reconstruction is linear and
    log-differences are scale-free) and the penalization rows P(u) are
    degree 0, so J(u) u = F(u; u_prev = 0) - P(u) holds up to rounding;
    P(u) is the kappa rows minus the kappa = 0 rows at u_prev = u.
    The difference quotients cannot see a relative error in J below their
    1e-6 tolerance; the identity sees one of 1e-9.
    """
    mesh = build_ddfv(gen_quad_fvca(3, 0.08))
    params = SchemeParams(dt=0.1, t_final=0.1, kappa=0.05, beta=1.0,
                          potential=lambda x: -x[1])
    assembly = Assembly(mesh, params)
    no_penalty = Assembly(mesh, dataclasses.replace(params, kappa=0.0))
    u_prev = 0.5 + rng.random(mesh.n_values)
    u = 0.5 + rng.random(mesh.n_values)

    def rows(x, x_prev, asm=assembly):
        return asm.system_vec(x, x_prev)[0]

    jac = assembly.system_jacobian(assembly.system_vec(u, u_prev)[1]).toarray()
    penalty = rows(u, u) - rows(u, u, no_penalty)
    homogeneous = rows(u, np.zeros(mesh.n_values)) - penalty
    identity = float(np.abs(jac @ u - homogeneous).max()
                     / (np.abs(jac) @ u).max())

    fd = np.zeros_like(jac)
    for j in range(mesh.n_values):
        step = 1e-6 * u[j]
        up, um = u.copy(), u.copy()
        up[j] += step
        um[j] -= step
        fd[:, j] = (rows(up, u_prev) - rows(um, u_prev)) / (2 * step)
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
