"""Discrete differential operators, bilinear forms and the penalization.

The gradient lives on diamonds, the divergence maps diamond vector fields
back to cell/dual values, and the two are adjoint up to boundary terms (the
discrete Green formula).  Inner products of two discrete gradients reduce to
per-diamond 2x2 quadratic forms in the diagonal differences
(u_cell_k - u_cell_l, u_vert_k - u_vert_l); ``local_matrices`` builds the
corresponding matrices from the anisotropy tensor.
"""

import numpy as np

from .errors import BadBeta, ValidationError
from .fields import DiscreteField


def grad_diamond(mesh, u: DiscreteField) -> np.ndarray:
    """Diamond-constant gradient, exact for fields sampled from affine data."""
    primal, dual = u.primal_all, u.dual
    du_edge = primal[mesh.dia_cell_l] - primal[mesh.dia_cell_k]
    du_dual = dual[mesh.dia_vert_l] - dual[mesh.dia_vert_k]
    num = (
        (mesh.edge_len * du_edge)[:, None] * mesh.edge_normal
        + (mesh.dual_edge_len * du_dual)[:, None] * mesh.dual_edge_normal
    )
    return num / (2.0 * mesh.diamond_area)[:, None]


def div_discrete(mesh, xi: np.ndarray) -> DiscreteField:
    """Discrete divergence of a diamond vector field.

    Interior-cell and dual-cell components sum the edge fluxes of the
    incident diamonds; the boundary-cell component is zero by convention.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (mesh.n_diamonds, 2):
        raise ValidationError("diamond field must have shape (n_diamonds, 2)")
    flux_edge = mesh.edge_len * np.einsum("ij,ij->i", xi, mesh.edge_normal)
    flux_dual = mesh.dual_edge_len * np.einsum("ij,ij->i", xi, mesh.dual_edge_normal)

    interior = np.zeros(mesh.n_cells)
    np.add.at(interior, mesh.dia_cell_k, flux_edge)
    inner = ~mesh.dia_is_boundary
    np.subtract.at(interior, mesh.dia_cell_l[inner], flux_edge[inner])
    interior /= mesh.cell_areas

    dual = np.zeros(mesh.n_verts)
    np.add.at(dual, mesh.dia_vert_k, flux_dual)
    np.subtract.at(dual, mesh.dia_vert_l, flux_dual)
    dual /= mesh.dual_areas

    return DiscreteField.from_components(
        mesh, interior, np.zeros(mesh.n_bnd), dual
    )


def bracket(mesh, u: DiscreteField, v: DiscreteField) -> float:
    """Half primal plus half dual mass-weighted product.

    Boundary cells carry no measure and do not contribute, so this is only
    positive semi-definite on the full set of values.
    """
    return 0.5 * (
        float(np.dot(mesh.cell_areas, u.interior * v.interior))
        + float(np.dot(mesh.dual_areas, u.dual * v.dual))
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


def local_matrices(mesh, lam) -> LocalMatrices:
    """Assemble the per-diamond gradient-form matrices for a ``TensorSpec``."""
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


def penalization_bracket(mesh, u: DiscreteField, v: DiscreteField,
                         beta: float) -> float:
    """Symmetric positive form: overlap-weighted primal/dual gap product."""
    if not 0.0 < beta < 2.0:
        raise BadBeta(f"penalization exponent {beta!r} outside (0, 2)")
    gap_u = u.interior[mesh.overlap_cell] - u.dual[mesh.overlap_vert]
    gap_v = v.interior[mesh.overlap_cell] - v.dual[mesh.overlap_vert]
    return float(np.dot(mesh.overlap_area, gap_u * gap_v)) / (2.0 * mesh.h**beta)

