"""Nonlinear finite-volume scheme for the drift-diffusion equation.

One implicit step advances u by solving, per interior cell and per dual
cell,

    (u - u_prev)/dt + div(flux) + kappa * penalization(g) = 0,
    flux = -reconstruct(u) * Lambda * grad(g),      g = log(u) + V,

plus one closure row per boundary cell stating that the edge flux through
the boundary vanishes.  The flux is assembled diamond-by-diamond through
the quadratic-form matrices of ``operators.local_matrices``, which makes
testing the residual against any discrete field reproduce the variational
form of the scheme exactly; mass conservation and free-energy decay follow.

All hot-path routines work on packed vectors; ``Assembly`` caches the
per-mesh index arrays and local matrices so time stepping only pays for
value updates.
"""

from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy.sparse as sp
from scipy.special import xlogy

from .errors import (
    BadBeta,
    NegativeInitialData,
    NonPositiveState,
    ValidationError,
)
from .fields import DiscreteField, TensorSpec
from .operators import (
    bracket,
    delta_diamond,
    grad_diamond,
    inner_lambda,
    local_matrices,
    penalization_bracket,
    reconstruct_diamond,
)
from .solver import NewtonConfig


@dataclass
class SchemeParams:
    """Time step, stabilization and physics of one run."""

    dt: float
    t_final: float
    kappa: float = 0.0
    beta: float = 1.0
    lam: TensorSpec = dataclass_field(default_factory=TensorSpec.identity)
    potential: object = None          # callable(x) -> values, or None
    shift_potential: bool = False     # subtract min(V) so V >= 0
    newton: NewtonConfig = dataclass_field(default_factory=NewtonConfig)

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValidationError("dt must be positive")
        if self.kappa < 0.0:
            raise ValidationError("kappa must be nonnegative")
        if not 0.0 < self.beta < 2.0:
            raise BadBeta(f"penalization exponent {self.beta!r} outside (0, 2)")

    @property
    def n_steps(self):
        return max(1, int(np.ceil(self.t_final / self.dt - 1e-9)))


@dataclass
class StateRecord:
    """Per-step diagnostics; dissipation entries are None at step 0."""

    n: int
    t: float
    mass: float
    energy: float
    dissipation: float | None
    dissipation_hat: float | None
    penalty_bracket: float | None
    min_u: float
    newton_iterations: int = 0
    newton_residual: float = 0.0
    newton_backtracks: int = 0
    factorizations: int = 0
    floor_activated: bool = False


# --- projections -------------------------------------------------------


def evaluate(fn, points, *args):
    """Values of the data ``fn`` at an (m, 2) array of points.

    ``fn`` is called once, with the coordinates as ``x`` of shape (2, m)
    (``x[0]`` and ``x[1]`` are arrays) followed by ``args``, and returns m
    values; a scalar is broadcast to all points.
    """
    result = fn(np.asarray(points, dtype=float).T, *args)
    values = np.empty(len(points))
    try:
        values[...] = result
    except ValueError as exc:
        raise ValidationError(
            f"data must return one value per point or a scalar: {exc}"
        ) from None
    return values


def project_potential(mesh, potential) -> DiscreteField:
    """Nodal values of the potential at cell centers, boundary-edge
    midpoints and vertices, from one evaluation on all of them."""
    if potential is None:
        return DiscreteField.zeros(mesh)
    points = np.vstack([mesh.cell_centers, mesh.bnd_centers, mesh.primal.vertices])
    return DiscreteField(mesh, evaluate(potential, points))


def project_initial(mesh, u0) -> DiscreteField:
    """Cell means of the initial data on interior and dual cells.

    Quadrature fan-triangulates each cell from its centroid and applies the
    centroid rule per triangle (exact for affine data); each dual cell is
    split into its diamond quarters (vertex, center k, center l), again
    with the centroid rule.  ``u0`` is evaluated once, on the array of all
    these centroids (see ``evaluate``).  Boundary cells are set to zero.
    Means below -1e-14 raise NegativeInitialData, tiny negative means clamp
    to zero.
    """
    primal = mesh.primal
    verts = primal.vertices
    a, b = verts[primal.loop_vert], verts[primal.loop_next]
    c = mesh.cell_centers[primal.loop_cell]
    w = 0.5 * ((a[:, 0] - c[:, 0]) * (b[:, 1] - c[:, 1])
               - (a[:, 1] - c[:, 1]) * (b[:, 0] - c[:, 0]))

    centers = mesh.primal_centers
    wedge_vert = np.column_stack([mesh.dia_vert_k, mesh.dia_vert_l]).ravel()
    wedge_area = np.column_stack([mesh.wedge_vert_k, mesh.wedge_vert_l]).ravel()
    xk = np.repeat(centers[mesh.dia_cell_k], 2, axis=0)
    xl = np.repeat(centers[mesh.dia_cell_l], 2, axis=0)

    values = evaluate(u0, np.vstack([(a + b + c) / 3.0,
                                     (verts[wedge_vert] + xk + xl) / 3.0]))
    n_corners = len(w)
    interior = primal.cell_sums(w * values[:n_corners]) / primal.cell_sums(w)
    acc = np.zeros(mesh.n_verts)
    np.add.at(acc, wedge_vert, wedge_area * values[n_corners:])
    dual = acc / mesh.dual_areas

    for arr, what in ((interior, "cell"), (dual, "dual cell")):
        low = arr.min()
        if low < -1e-14:
            raise NegativeInitialData(
                f"{what} mean {low:.3e} below tolerance"
            )
        np.clip(arr, 0.0, None, out=arr)
    return DiscreteField.from_components(
        mesh, interior, np.zeros(mesh.n_bnd), dual
    )


# --- energy, dissipation, stationary state -----------------------------


def _entropy(values):
    values = np.asarray(values, dtype=float)
    if values.min() < -1e-12:
        raise ValidationError(f"negative value {values.min():.3e} in entropy")
    values = np.maximum(values, 0.0)
    return xlogy(values, values) - values + 1.0


def energy(mesh, u: DiscreteField, v_field: DiscreteField) -> float:
    """Free energy: entropy plus potential energy (0*log 0 taken as 0)."""
    hu = DiscreteField(mesh, _entropy(u.values))
    one = DiscreteField.full(mesh, 1.0)
    return bracket(mesh, hu, one) + bracket(mesh, v_field, u)


def relative_energy(mesh, u: DiscreteField, u_inf: DiscreteField) -> float:
    """Energy gap to a positive reference state with matching mass."""
    uu = np.maximum(u.values, 0.0)
    integrand = xlogy(uu, uu) - uu * np.log(u_inf.values) - uu + u_inf.values
    f = DiscreteField(mesh, integrand)
    return bracket(mesh, f, DiscreteField.full(mesh, 1.0))


def stationary_state(mesh, v_field: DiscreteField, mass: float,
                     dual_mass: float | None = None) -> DiscreteField:
    """Discrete steady state u = rho * exp(-V), normalized to the given
    mass on the interior cells and on the dual cells (the dual
    normalization reuses ``mass`` unless ``dual_mass`` is given)."""
    if mass <= 0.0:
        raise ValidationError("mass must be positive")
    exp_int = np.exp(-v_field.interior)
    exp_bnd = np.exp(-v_field.boundary)
    exp_dual = np.exp(-v_field.dual)
    rho = mass / float(np.dot(mesh.cell_areas, exp_int))
    rho_star = (mass if dual_mass is None else dual_mass) / float(
        np.dot(mesh.dual_areas, exp_dual)
    )
    return DiscreteField.from_components(
        mesh, rho * exp_int, rho * exp_bnd, rho_star * exp_dual
    )


def fisher_norm(mesh, lam, u: DiscreteField) -> float:
    """Tensor-weighted squared gradient norm of sqrt(u)."""
    if u.values.min() < 0.0:
        raise ValidationError("fisher_norm needs a nonnegative state")
    root = DiscreteField(mesh, np.sqrt(u.values))
    g = grad_diamond(mesh, root)
    return inner_lambda(mesh, lam, g, g)


# --- assembly ----------------------------------------------------------


class Assembly:
    """Cached index arrays and matrices for residual/Jacobian evaluation.

    The nonlinear system handed to Newton uses mass-scaled (variational)
    rows: testing the scheme against the indicator of one cell.  In that
    scaling all flux coefficients are +-1 and the row magnitudes are mesh
    independent, so the absolute l1 stopping tolerance is meaningful on
    every refinement level.  The divergence-form residual of the public API
    is the same vector scaled by the inverse row weights.
    """

    def __init__(self, mesh, params: SchemeParams):
        self.mesh = mesh
        self.params = params
        self.mats = local_matrices(mesh, params.lam)
        v = project_potential(mesh, params.potential)
        if params.shift_potential:
            v = DiscreteField(mesh, v.values - v.values.min())
        self.v_field = v

        nc, nb, nv = mesh.n_cells, mesh.n_bnd, mesh.n_verts
        off = nc + nb
        self.n = nc + nb + nv
        self.col_k = mesh.dia_cell_k
        self.col_l = mesh.dia_cell_l
        self.col_vk = off + mesh.dia_vert_k
        self.col_vl = off + mesh.dia_vert_l

        # Variational row coefficients: +-1, with +1 into the closure row
        # of a boundary cell (its row is half the outgoing edge flux).
        coef_l = np.where(mesh.dia_is_boundary, 1.0, -1.0)
        ones = np.ones(mesh.n_diamonds)
        self.row_coef = np.column_stack([ones, coef_l, ones, -ones])

        self.time_mask = np.ones(self.n, dtype=bool)
        self.time_mask[nc:off] = False
        half_mass = np.concatenate([
            0.5 * mesh.cell_areas, np.full(nb, 0.5), 0.5 * mesh.dual_areas,
        ])
        self.time_coef = half_mass[self.time_mask] / params.dt
        # Inverse weights mapping variational rows to divergence-form rows:
        # 2/measure on interior and dual rows, 2 on boundary closure rows
        # (turning half the edge flux into the full one).
        self.inv_weight = 1.0 / half_mass

        self.pen_scale = params.kappa / (2.0 * mesh.h**params.beta)
        if params.kappa > 0.0:
            self.ov_c = mesh.overlap_cell
            self.ov_v = off + mesh.overlap_vert
            self.ov_w = mesh.overlap_area

        # Fixed CSR pattern of the Jacobian.  Its COO entries are, in this
        # order, the 4x4 diamond blocks, the time diagonal and, for
        # kappa > 0, the 2x2 overlap blocks of the penalization;
        # jac_scatter maps each COO entry to its CSR slot, so assembly
        # only sums values.
        cols = np.column_stack([self.col_k, self.col_l, self.col_vk, self.col_vl])
        coo_rows = [np.repeat(cols, 4, axis=1).ravel()]
        coo_cols = [np.tile(cols, (1, 4)).ravel()]
        diag_idx = np.flatnonzero(self.time_mask)
        coo_rows.append(diag_idx)
        coo_cols.append(diag_idx)
        if params.kappa > 0.0:
            coo_rows.append(np.concatenate(
                [self.ov_c, self.ov_c, self.ov_v, self.ov_v]))
            coo_cols.append(np.concatenate(
                [self.ov_c, self.ov_v, self.ov_v, self.ov_c]))
        keys = (np.concatenate(coo_rows).astype(np.int64) * self.n
                + np.concatenate(coo_cols))
        slots, self.jac_scatter = np.unique(keys, return_inverse=True)
        pattern_rows = slots // self.n
        self.jac_indices = (slots % self.n).astype(np.int32)
        self.jac_indptr = np.concatenate([
            [0], np.cumsum(np.bincount(pattern_rows, minlength=self.n)),
        ]).astype(np.int32)
        self.jac_row_weight = self.inv_weight[pattern_rows]

    # -- value helpers --

    def _g(self, u):
        if u.min() <= 0.0:
            raise NonPositiveState(
                f"state has nonpositive entry {u.min():.3e}"
            )
        return np.log(u) + self.v_field.values

    def _flux_parts(self, u):
        g = self._g(u)
        d1 = g[self.col_k] - g[self.col_l]
        d2 = g[self.col_vk] - g[self.col_vl]
        rd = 0.25 * (u[self.col_k] + u[self.col_l]
                     + u[self.col_vk] + u[self.col_vl])
        m = self.mats
        f1 = rd * (m.a_edge * d1 + m.a_cross * d2)
        f2 = rd * (m.a_cross * d1 + m.a_dual * d2)
        return g, d1, d2, rd, f1, f2

    def system_vec(self, u, u_prev):
        """Mass-scaled residual rows (the vector Newton drives to zero)."""
        g, d1, d2, rd, f1, f2 = self._flux_parts(u)
        res = np.zeros(self.n)
        np.add.at(res, self.col_k, f1)
        np.add.at(res, self.col_l, self.row_coef[:, 1] * f1)
        np.add.at(res, self.col_vk, f2)
        np.subtract.at(res, self.col_vl, f2)
        res[self.time_mask] += self.time_coef * (u - u_prev)[self.time_mask]
        if self.params.kappa > 0.0:
            gap = self.pen_scale * self.ov_w * (g[self.ov_c] - g[self.ov_v])
            np.add.at(res, self.ov_c, gap)
            np.subtract.at(res, self.ov_v, gap)
        return res

    def system_jacobian(self, u):
        """Analytic Jacobian of the mass-scaled rows (CSR)."""
        g, d1, d2, rd, f1, f2 = self._flux_parts(u)
        m = self.mats
        inv = 1.0 / u
        quarter1 = 0.25 * (m.a_edge * d1 + m.a_cross * d2)
        quarter2 = 0.25 * (m.a_cross * d1 + m.a_dual * d2)

        nd = len(rd)
        d_f1 = np.empty((nd, 4))
        d_f2 = np.empty((nd, 4))
        for j, (col, sign, a1, a2) in enumerate((
            (self.col_k, 1.0, m.a_edge, m.a_cross),
            (self.col_l, -1.0, m.a_edge, m.a_cross),
            (self.col_vk, 1.0, m.a_cross, m.a_dual),
            (self.col_vl, -1.0, m.a_cross, m.a_dual),
        )):
            d_f1[:, j] = quarter1 + sign * rd * a1 * inv[col]
            d_f2[:, j] = quarter2 + sign * rd * a2 * inv[col]

        values = np.empty((nd, 4, 4))
        for i in range(4):
            src = d_f1 if i < 2 else d_f2
            values[:, i, :] = self.row_coef[:, i, None] * src
        vals = [values.ravel(), self.time_coef]
        if self.params.kappa > 0.0:
            w = self.pen_scale * self.ov_w
            vals.append(np.concatenate([
                w * inv[self.ov_c],       # row c, col c
                -w * inv[self.ov_v],      # row c, col v
                w * inv[self.ov_v],       # row v, col v
                -w * inv[self.ov_c],      # row v, col c
            ]))
        return self._csr(np.bincount(self.jac_scatter,
                                     weights=np.concatenate(vals),
                                     minlength=len(self.jac_indices)))

    def _csr(self, data):
        # The pattern arrays are copied so that in-place edits of a returned
        # matrix cannot corrupt the cached pattern.
        return sp.csr_matrix(
            (data, self.jac_indices.copy(), self.jac_indptr.copy()),
            shape=(self.n, self.n),
        )

    def residual_vec(self, u, u_prev):
        """Divergence-form residual: d/dt + div(flux) + kappa * penalization
        on interior and dual rows, the full edge-flux closure on boundary
        rows."""
        return self.inv_weight * self.system_vec(u, u_prev)

    def jacobian_vec(self, u):
        """Analytic Jacobian of the divergence-form residual (CSR)."""
        return self._csr(self.jac_row_weight * self.system_jacobian(u).data)

    def dissipation_vec(self, u):
        """Entropy production and its diagonal-form counterpart."""
        g, d1, d2, rd, f1, f2 = self._flux_parts(u)
        diss = float(np.dot(rd, self.mats.quad_a(d1, d2)))
        logu = np.log(u)
        l1 = logu[self.col_k] - logu[self.col_l]
        l2 = logu[self.col_vk] - logu[self.col_vl]
        diss_hat = float(np.dot(rd, self.mats.quad_b(l1, l2)))
        return diss, diss_hat

    def penalty_bracket_vec(self, u):
        if self.params.kappa == 0.0:
            g = self._g(u)
            gf = DiscreteField(self.mesh, g)
            return penalization_bracket(self.mesh, gf, gf, self.params.beta)
        g = self._g(u)
        gap = g[self.ov_c] - g[self.ov_v]
        return float(np.dot(self.ov_w, gap * gap)) / (2.0 * self.mesh.h**self.params.beta)


# --- public wrappers ----------------------------------------------------


def residual(mesh, params: SchemeParams, u_prev: DiscreteField,
             u: DiscreteField, assembly: Assembly | None = None) -> DiscreteField:
    """Scheme residual; boundary components hold the edge-flux closure rows."""
    assembly = assembly or Assembly(mesh, params)
    return DiscreteField(mesh, assembly.residual_vec(u.values, u_prev.values))


def jacobian(mesh, params: SchemeParams, u_prev: DiscreteField,
             u: DiscreteField, assembly: Assembly | None = None):
    """Analytic Jacobian of the residual as a CSR matrix."""
    assembly = assembly or Assembly(mesh, params)
    return assembly.jacobian_vec(u.values)


def dissipation(mesh, params: SchemeParams, u: DiscreteField,
                assembly: Assembly | None = None):
    """(entropy production, diagonal-form bound) at the given state."""
    assembly = assembly or Assembly(mesh, params)
    return assembly.dissipation_vec(u.values)


def variational_form(mesh, params: SchemeParams, u_prev: DiscreteField,
                     u: DiscreteField, psi: DiscreteField,
                     assembly: Assembly | None = None) -> float:
    """The scheme tested against psi (reference formulation for tests).

    Equals bracket(residual, psi) minus half the boundary closure rows
    weighted by the boundary test values.
    """
    assembly = assembly or Assembly(mesh, params)
    du = u - u_prev
    g = DiscreteField(mesh, assembly._g(u.values))
    rd = reconstruct_diamond(mesh, u)
    dg = delta_diamond(mesh, g)
    dpsi = delta_diamond(mesh, psi)
    t_form = float(np.dot(
        rd, assembly.mats.bilin_a(dg[:, 0], dg[:, 1], dpsi[:, 0], dpsi[:, 1])
    ))
    total = bracket(mesh, du, psi) / params.dt + t_form
    if params.kappa > 0.0:
        total += params.kappa * penalization_bracket(mesh, g, psi, params.beta)
    return total
