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

Every discrete field is a packed vector [interior | boundary | dual]
(``DDFVMesh.parts``); the public functions check its length.  ``Assembly``
caches the per-mesh index arrays and local matrices so time stepping only
pays for value updates.  Each Newton iterate is evaluated once, by
``Assembly.system_vec``: it returns the residual with an ``Iterate`` that
carries log u, g, the per-diamond differences and the fluxes to the
Jacobian at the same state and, for the accepted state, to the dissipation
and the penalization bracket, which take only that Iterate.
"""

import math
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
from .fields import TensorSpec
from .operators import half_mass, local_matrices, penalization_bracket
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
    newton: NewtonConfig = dataclass_field(default_factory=NewtonConfig)

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValidationError("dt must be finite and positive")
        if not (math.isfinite(self.t_final) and self.t_final > 0.0):
            raise ValidationError("t_final must be finite and positive")
        if not math.isfinite(self.t_final / self.dt):
            raise ValidationError("dt too small: t_final / dt is not finite")
        if not math.isfinite(1.0 / self.dt):
            raise ValidationError("dt too small: 1 / dt is not finite")
        if not (math.isfinite(self.kappa) and self.kappa >= 0.0):
            raise ValidationError("kappa must be finite and nonnegative")
        if not 0.0 < self.beta < 2.0:
            raise BadBeta(f"penalization exponent {self.beta!r} outside (0, 2)")

    @property
    def n_steps(self):
        """Steps of size dt until n * dt >= t_final: a run ends past
        t_final when dt does not divide it (dt 0.003 to t_final 0.01
        takes 4 steps and ends at 0.012)."""
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
    krylov_iterations: int = 0
    floor_activated: bool = False


# --- projections -------------------------------------------------------


def evaluate(fn, points, *args, shape=()):
    """Values of the data ``fn`` at an (m, 2) array of points, as an
    array of shape ``shape + (m,)``.

    ``fn`` is called once, with the coordinates as ``x`` of shape (2, m)
    (``x[0]`` and ``x[1]`` are arrays) followed by ``args``; a result of
    shape ``shape`` (a scalar for values, a (2,) vector for a gradient) is
    broadcast to all points.  Another shape, or a value that is not
    finite, is a ValidationError.
    """
    result = fn(np.asarray(points, dtype=float).T, *args)
    values = np.empty(shape + (len(points),))
    try:
        result = np.asarray(result, dtype=float)
        values[...] = result[..., None] if result.ndim == len(shape) else result
    except ValueError as exc:
        raise ValidationError(f"data must return shape {values.shape} or "
                              f"{shape}: {exc}") from None
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        x, y = points[bad[0][-1]]
        raise ValidationError(
            f"data of shape {values.shape} has the non-finite value "
            f"{values[tuple(bad[0])]} at point ({x:.6g}, {y:.6g})")
    return values


def project_potential(mesh, potential) -> np.ndarray:
    """Packed nodal values of the potential at cell centers, boundary-edge
    midpoints and vertices, from one evaluation on all of them."""
    if potential is None:
        return np.zeros(mesh.n_values)
    return evaluate(potential, mesh.nodes)


def project_initial(mesh, u0) -> np.ndarray:
    """Packed cell means of the initial data on interior and dual cells.

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
    c = mesh.nodes[primal.loop_cell]
    w = 0.5 * ((a[:, 0] - c[:, 0]) * (b[:, 1] - c[:, 1])
               - (a[:, 1] - c[:, 1]) * (b[:, 0] - c[:, 0]))

    wedge_vert = np.column_stack([mesh.dia_vert_k, mesh.dia_vert_l]).ravel()
    wedge_area = np.column_stack([mesh.wedge_vert_k, mesh.wedge_vert_l]).ravel()
    xk = np.repeat(mesh.nodes[mesh.dia_cell_k], 2, axis=0)
    xl = np.repeat(mesh.nodes[mesh.dia_cell_l], 2, axis=0)

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
    return mesh.pack(interior, np.zeros(mesh.n_bnd), dual)


# --- energy, dissipation, stationary state -----------------------------


def _entropy(values):
    if values.min() < -1e-12:
        raise ValidationError(f"negative value {values.min():.3e} in entropy")
    values = np.maximum(values, 0.0)
    return xlogy(values, values) - values + 1.0


def energy(mesh, u, v) -> float:
    """Free energy of the packed state ``u`` in the packed potential ``v``:
    entropy plus potential energy (0*log 0 taken as 0)."""
    mesh.check(u, v)
    return half_mass(mesh, _entropy(u) + v * u)


def relative_energy(mesh, u, u_inf, log_u_inf=None) -> float:
    """Energy gap of the packed state ``u`` to a positive packed reference
    state ``u_inf`` with matching mass; a ``u_inf`` that is not finite
    and positive is a ValidationError.  ``log_u_inf``, when given, is
    log(u_inf), which a caller comparing many states with one reference
    computes once."""
    mesh.check(u, u_inf)
    if not (np.min(u_inf) > 0.0 and np.max(u_inf) < math.inf):
        raise ValidationError("u_inf must be finite and positive")
    if log_u_inf is None:
        log_u_inf = np.log(u_inf)
    mesh.check(log_u_inf)
    uu = np.maximum(u, 0.0)
    return half_mass(mesh, xlogy(uu, uu) - uu * log_u_inf - uu + u_inf)


def stationary_state(mesh, v, mass: float,
                     dual_mass: float | None = None) -> np.ndarray:
    """Discrete steady state u = rho * exp(-v), normalized to the given
    mass on the interior cells and on the dual cells (the dual
    normalization reuses ``mass`` unless ``dual_mass`` is given)."""
    for value in (mass, dual_mass):
        if value is not None and not (math.isfinite(value) and value > 0.0):
            raise ValidationError("mass must be finite and positive")
    exp_int, exp_bnd, exp_dual = (np.exp(-x) for x in mesh.parts(v))
    rho = mass / float(np.dot(mesh.cell_areas, exp_int))
    rho_star = (mass if dual_mass is None else dual_mass) / float(
        np.dot(mesh.dual_areas, exp_dual)
    )
    return mesh.pack(rho * exp_int, rho * exp_bnd, rho_star * exp_dual)


# --- assembly ----------------------------------------------------------


class Iterate:
    """One Newton iterate: the packed state ``u`` and the parts of the
    scheme at it, computed once, by ``Assembly.system_vec``.

    ``logu`` and ``g`` = log u + V are nodal.  Per diamond, the rows of
    the (2, n_diamonds) arrays ``d`` and ``s`` are its primal and dual
    parts: ``d`` the differences of g (cell k - cell l, vertex k - vertex
    l) and ``s`` = A d with the diamond's local matrix A; ``rd`` is the
    mean of u over the diamond's four corners, and the fluxes are rd * s.
    A quarter of ``s`` is the quarter flux per unit of rd that the
    Jacobian reads.  ``Assembly.system_jacobian``, ``dissipation_vec`` and
    ``penalty_bracket_vec`` read these parts, so a Newton iterate costs
    one evaluation however many of them it needs.  The parts describe
    ``u`` as it was when ``system_vec`` evaluated it; nothing tracks later
    edits of ``u``.
    """

    __slots__ = ("u", "logu", "g", "d", "rd", "s")

    def __init__(self, u, logu, g, d, rd, s):
        self.u, self.logu, self.g = u, logu, g
        self.d, self.rd, self.s = d, rd, s


class Assembly:
    """Cached index arrays and matrices for residual/Jacobian evaluation.

    The residual is the mass-scaled (variational) rows that Newton solves:
    the scheme tested against the indicator of one cell.  In that scaling
    all flux coefficients are +-1 and the row magnitudes are mesh
    independent, so the absolute l1 stopping tolerance is meaningful on
    every refinement level.  A row times 2 / (its cell's measure) is the
    divergence form, and twice a closure row is the full edge flux.

    ``system_vec`` evaluates a packed state into an ``Iterate``; the other
    evaluation methods take that Iterate.
    """

    def __init__(self, mesh, params: SchemeParams):
        self.mesh = mesh
        self.params = params
        self.mats = local_matrices(mesh, params.lam)
        self.v = project_potential(mesh, params.potential)

        off = mesh.dual_offset
        self.n = mesh.n_values
        # The four corners of each diamond: cells k, l and vertices k, l.
        self.corners = np.stack([mesh.dia_cell_k, mesh.dia_cell_l,
                                 off + mesh.dia_vert_k, off + mesh.dia_vert_l])
        # s = A d per diamond: s = form_rows[0] * d[0] + form_rows[1] * d[1]
        m = self.mats
        self.form_rows = np.array([[m.a_edge, m.a_cross],
                                   [m.a_cross, m.a_dual]])

        # Variational row coefficients of the corners k, l, vk, vl: +1,
        # coef_l, +1, -1, where coef_l is -1, or +1 into the closure row of
        # a boundary cell (its row is half the outgoing edge flux).
        self.coef_l = np.where(mesh.dia_is_boundary, 1.0, -1.0)

        # zero on the closure rows, which have no time derivative
        self.time_coef = mesh.pack(0.5 * mesh.cell_areas / params.dt,
                                   np.zeros(mesh.n_bnd),
                                   0.5 * mesh.dual_areas / params.dt)

        self.pen_scale = params.kappa / (2.0 * mesh.h**params.beta)
        if params.kappa > 0.0:
            self.ov_c = mesh.overlap_cell
            self.ov_v = off + mesh.overlap_vert
            self.ov_w = mesh.overlap_area

        (self.jac_indices, self.jac_indptr,
         self.jac_map) = self._jacobian_structure()

    def _jacobian_structure(self):
        """The fixed CSR pattern of the Jacobian and the map from the
        parts of an iterate to its values.

        The values are linear in the parts
            z = [rd / u[corners] (4 x nd), s / 4 (2 x nd),
                 1 / u[ov_c], 1 / u[ov_v] (kappa > 0 only), 1].
        Entry (i, j) of a diamond block is
        row_coef_i * (q_i + sign_j * a_ij * rd / u[corners[j]]), with q_i
        the row's quarter flux s / 4 (rows 0-1 primal, 2-3 dual), sign =
        (+1, -1, +1, -1) and a_ij the local matrix entry of the row's and
        the column's kind; the time diagonal is time_coef * 1 and the 2x2
        overlap blocks of the penalization are +-pen_scale * overlap area
        / u.  The map (CSC) sends z to the values of the pattern, summing
        the entries that share a slot; its column for each part lists the
        slots of the entries that read it.

        Index arrays are 32-bit and the map is filled in place: at large
        N, set-up time goes to first touches of fresh memory as much as to
        arithmetic.
        """
        n, nd = self.n, self.mesh.n_diamonds
        cols = self.corners.T.astype(np.int32)
        # The entries, in the order: diamond blocks (d, i, j), time
        # diagonal and, for kappa > 0, the overlap blocks with rows c, c,
        # v, v and columns c, v, v, c; their sorted unique keys row * n +
        # column are the pattern's slots.
        diag = np.flatnonzero(self.time_coef).astype(np.int32)
        nb16, n_diag = 16 * nd, len(diag)
        rows = [np.repeat(cols, 4, axis=1).ravel(), diag]
        columns = [np.tile(cols, (1, 4)).ravel(), diag]
        n_ov = 0
        if self.params.kappa > 0.0:
            c, v = self.ov_c, self.ov_v
            n_ov = len(c)
            rows.append(np.concatenate([c, c, v, v]))
            columns.append(np.concatenate([c, v, v, c]))
        rows, columns = np.concatenate(rows), np.concatenate(columns)
        slots, slot_of = np.unique(rows.astype(np.int64) * n + columns,
                                   return_inverse=True)
        indices = (slots % n).astype(np.int32)
        indptr = np.concatenate([
            [0], np.cumsum(np.bincount(slots // n, minlength=n)),
        ]).astype(np.int32)

        # Map columns in the order of the parts: part j nd + d holds rows i
        # of column j of block d, part (4 + h) nd + d rows 2h and 2h + 1 of
        # block d, part 1/u[ov_c] the entries (c, c) and (v, c), part
        # 1/u[ov_v] the entries (c, v) and (v, v), the last part the time
        # diagonal.
        nnz = 2 * nb16 + 4 * n_ov + n_diag
        map_slots = np.empty(nnz, dtype=np.int32)
        map_coef = np.empty(nnz)
        blocks = slot_of[:nb16].reshape(nd, 4, 4)
        map_slots[:nb16].reshape(4, nd, 4)[...] = blocks.transpose(2, 0, 1)
        map_slots[nb16:2 * nb16].reshape(2, nd, 2, 4)[...] = (
            blocks.reshape(nd, 2, 2, 4).transpose(1, 0, 2, 3))
        # coefficient of part j nd + d in row i: row_coef_i sign_j a_ij
        ones = np.ones(nd)
        row_coef = np.column_stack([ones, self.coef_l, ones, -ones])
        m = self.mats
        local = np.stack([m.a_edge, -m.a_edge, m.a_cross, -m.a_cross,
                          m.a_cross, -m.a_cross, m.a_dual, -m.a_dual]
                         ).reshape(2, 4, nd).transpose(1, 2, 0)
        coef = map_coef[:nb16].reshape(4, nd, 2, 2)
        coef[...] = local[:, :, :, None]
        coef *= row_coef.reshape(nd, 2, 2)
        map_coef[nb16:2 * nb16].reshape(2, nd, 2, 4)[...] = (
            row_coef.reshape(nd, 2, 2, 1).transpose(1, 0, 2, 3))
        end = 2 * nb16
        if n_ov:
            pen = slot_of[nb16 + n_diag:].reshape(4, n_ov)
            w = self.pen_scale * self.ov_w
            for rows, signs in (((0, 3), (1.0, -1.0)), ((1, 2), (-1.0, 1.0))):
                map_slots[end:end + 2 * n_ov].reshape(n_ov, 2)[...] = (
                    pen[list(rows)].T)
                map_coef[end:end + 2 * n_ov].reshape(n_ov, 2)[...] = (
                    np.multiply.outer(w, signs))
                end += 2 * n_ov
        map_slots[end:] = slot_of[nb16:nb16 + n_diag]
        map_coef[end:] = self.time_coef[diag]
        counts = np.repeat([4, 8, 2, n_diag], [4 * nd, 2 * nd, 2 * n_ov, 1])
        jac_map = sp.csc_matrix(
            (map_coef, map_slots,
             np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)),
            shape=(len(slots), len(counts)))
        return indices, indptr, jac_map

    # -- evaluation --

    def system_vec(self, u, u_prev):
        """Mass-scaled residual rows F(u; u_prev), the vector Newton drives
        to zero, and the Iterate of the packed state ``u``, which the other
        evaluations at ``u`` read."""
        if u.shape != (self.n,) or u_prev.shape != (self.n,):
            self.mesh.check(u, u_prev)      # raises the length error
        if u.min() <= 0.0:
            raise NonPositiveState(
                f"state has nonpositive entry {u.min():.3e}"
            )
        logu = np.log(u)
        g = logu + self.v
        corner_g = g[self.corners]
        d = corner_g[0::2] - corner_g[1::2]
        # the corners summed in order k, l, vk, vl
        rd = 0.25 * u[self.corners].sum(axis=0)
        s = self.form_rows[0] * d[0] + self.form_rows[1] * d[1]
        weights = (rd * s)[[0, 0, 1, 1]]
        weights[1] *= self.coef_l
        weights[3] *= -1.0
        # one bincount sums in the order of four np.add.at passes
        res = np.bincount(self.corners.ravel(), weights=weights.ravel(),
                          minlength=self.n)
        res += self.time_coef * (u - u_prev)
        if self.params.kappa > 0.0:
            gap = self.pen_scale * self.ov_w * (g[self.ov_c] - g[self.ov_v])
            np.add.at(res, self.ov_c, gap)
            np.subtract.at(res, self.ov_v, gap)
        return res, Iterate(u, logu, g, d, rd, s)

    def next_step_vec(self, res, u, u_prev):
        """The residual F(u; u) of the step after the one that accepted
        ``u``, from that step's final residual res = F(u; u_prev): only the
        time rows change, by time_coef * (u_prev - u).  Costs no flux
        evaluation; agrees with ``system_vec(u, u)`` up to rounding of the
        size of the time term."""
        return res - self.time_coef * (u - u_prev)

    def system_jacobian(self, it: Iterate):
        """Analytic Jacobian of the mass-scaled rows (CSR) at ``it``."""
        nd = len(it.rd)
        inv = 1.0 / it.u
        parts = np.empty(self.jac_map.shape[1])
        np.multiply(it.rd, inv[self.corners],
                    out=parts[:4 * nd].reshape(4, nd))
        np.multiply(it.s, 0.25, out=parts[4 * nd:6 * nd].reshape(2, nd))
        if self.params.kappa > 0.0:
            n_ov = len(self.ov_c)
            np.take(inv, self.ov_c, out=parts[6 * nd:6 * nd + n_ov])
            np.take(inv, self.ov_v, out=parts[6 * nd + n_ov:-1])
        parts[-1] = 1.0
        # The pattern arrays are copied so that in-place edits of a returned
        # matrix cannot corrupt the cached pattern.
        return sp.csr_matrix(
            (self.jac_map @ parts, self.jac_indices.copy(),
             self.jac_indptr.copy()),
            shape=(self.n, self.n),
        )

    def dissipation_vec(self, it: Iterate):
        """Entropy production and its diagonal-form counterpart at ``it``."""
        diss = float(it.rd.dot(self.mats.quad_a(*it.d)))
        corner_logu = it.logu[self.corners]
        diss_hat = float(it.rd.dot(
            self.mats.quad_b(*(corner_logu[0::2] - corner_logu[1::2]))))
        return diss, diss_hat

    def penalty_bracket_vec(self, it: Iterate):
        return penalization_bracket(self.mesh, it.g, it.g, self.params.beta)
