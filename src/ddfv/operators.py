"""Discrete differential operators, bilinear forms and the penalization.

Scalar fields are packed vectors (``DDFVMesh.parts``).  The gradient lives
on diamonds, the divergence maps diamond vector fields back to packed
vectors, and the two are adjoint up to boundary terms (the discrete Green
formula).  Inner products of two discrete gradients reduce to per-diamond
2x2 quadratic forms in the diagonal differences (u_cell_k - u_cell_l,
u_vert_k - u_vert_l); ``local_matrices`` builds the corresponding matrices
from the anisotropy tensor.
"""

import numpy as np

from .errors import BadBeta, ValidationError


def grad_diamond(mesh, u) -> np.ndarray:
    """Diamond-constant gradient, exact for fields sampled from affine data."""
    _, _, dual = mesh.parts(u)
    # primal indices are packed indices
    du_edge = u[mesh.dia_cell_l] - u[mesh.dia_cell_k]
    du_dual = dual[mesh.dia_vert_l] - dual[mesh.dia_vert_k]
    num = (
        (mesh.edge_len * du_edge)[:, None] * mesh.edge_normal
        + (mesh.dual_edge_len * du_dual)[:, None] * mesh.dual_edge_normal
    )
    return num / (2.0 * mesh.diamond_area)[:, None]


def div_discrete(mesh, xi: np.ndarray) -> np.ndarray:
    """Discrete divergence of a diamond vector field, as a packed vector.

    Interior-cell and dual-cell components sum the edge fluxes of the
    incident diamonds; the boundary-cell component is zero by convention.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (mesh.n_diamonds, 2):
        raise ValidationError("diamond field must have shape (n_diamonds, 2)")
    flux_edge = mesh.edge_len * np.einsum("ij,ij->i", xi, mesh.edge_normal)
    flux_dual = mesh.dual_edge_len * np.einsum("ij,ij->i", xi, mesh.dual_edge_normal)

    out = np.zeros(mesh.n_values)
    interior, boundary, dual = mesh.parts(out)
    np.add.at(out, mesh.dia_cell_k, flux_edge)
    np.subtract.at(out, mesh.dia_cell_l, flux_edge)
    boundary[:] = 0.0       # boundary diamonds subtracted into these
    interior /= mesh.cell_areas
    np.add.at(dual, mesh.dia_vert_k, flux_dual)
    np.subtract.at(dual, mesh.dia_vert_l, flux_dual)
    dual /= mesh.dual_areas
    return out


def bracket(mesh, u, v) -> float:
    """Half primal plus half dual mass-weighted product of two packed
    vectors; bracket(u, 1) is the mass of u.

    Boundary cells carry no measure and do not contribute, so this is only
    positive semi-definite on the full set of values.
    """
    u_int, _, u_dual = mesh.parts(u)
    v_int, _, v_dual = mesh.parts(v)
    return 0.5 * (
        float(np.dot(mesh.cell_areas, u_int * v_int))
        + float(np.dot(mesh.dual_areas, u_dual * v_dual))
    )


class LocalMatrices:
    """Per-diamond 2x2 matrices of the gradient quadratic form.

    a_* are the entries of the symmetric matrix (so that the tensor-weighted
    inner product of two gradients is the sum over diamonds of
    delta_u . A delta_v); b_edge/b_dual are the entries of its diagonal
    domination used in dissipation diagnostics.
    """

    __slots__ = ("a_edge", "a_cross", "a_dual", "b_edge", "b_dual")

    def __init__(self, a_edge, a_cross, a_dual):
        self.a_edge = a_edge
        self.a_cross = a_cross
        self.a_dual = a_dual
        self.b_edge = np.abs(a_edge) + np.abs(a_cross)
        self.b_dual = np.abs(a_dual) + np.abs(a_cross)

    def matrix(self, d):
        return np.array([
            [self.a_edge[d], self.a_cross[d]],
            [self.a_cross[d], self.a_dual[d]],
        ])

    def quad_a(self, w1, w2):
        """Quadratic form w . A w per diamond."""
        return self.a_edge * w1 * w1 + 2.0 * self.a_cross * w1 * w2 + self.a_dual * w2 * w2

    def quad_b(self, w1, w2):
        return self.b_edge * w1 * w1 + self.b_dual * w2 * w2

    def cond2(self):
        """2-norm condition number per diamond (eigenvalue ratio)."""
        tr = self.a_edge + self.a_dual
        det = self.a_edge * self.a_dual - self.a_cross**2
        disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
        return (tr + disc) / (tr - disc)


def local_matrices(mesh, lam, lam_d=None) -> LocalMatrices:
    """Assemble the per-diamond gradient-form matrices for a ``TensorSpec``;
    ``lam_d``, when given, is its ``on_diamonds`` value already at hand."""
    if lam_d is None:
        lam_d = lam.on_diamonds(mesh)
    ne, nd = mesh.edge_normal, mesh.dual_edge_normal
    lam_ne = np.einsum("dij,dj->di", lam_d, ne)
    lam_nd = np.einsum("dij,dj->di", lam_d, nd)
    scale = 1.0 / (4.0 * mesh.diamond_area)
    a_edge = scale * mesh.edge_len**2 * np.einsum("di,di->d", lam_ne, ne)
    a_cross = scale * mesh.edge_len * mesh.dual_edge_len * np.einsum(
        "di,di->d", lam_ne, nd
    )
    a_dual = scale * mesh.dual_edge_len**2 * np.einsum("di,di->d", lam_nd, nd)
    return LocalMatrices(a_edge, a_cross, a_dual)


# --- penalization ------------------------------------------------------


def overlap_gap(mesh, u) -> np.ndarray:
    """Primal minus dual value of the packed vector ``u`` on each overlap
    of an interior cell with a dual cell."""
    interior, _, dual = mesh.parts(u)
    return interior[mesh.overlap_cell] - dual[mesh.overlap_vert]


def penalization_bracket(mesh, u, v, beta: float) -> float:
    """Symmetric positive form: overlap-weighted primal/dual gap product."""
    if not 0.0 < beta < 2.0:
        raise BadBeta(f"penalization exponent {beta!r} outside (0, 2)")
    gap_u, gap_v = overlap_gap(mesh, u), overlap_gap(mesh, v)
    return float(np.dot(mesh.overlap_area, gap_u * gap_v)) / (2.0 * mesh.h**beta)
