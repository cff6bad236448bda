"""Reference cases, the time-stepping driver, error norms and studies.

``simulate`` advances one configuration in time, checking mass
conservation, free-energy decay and positivity at every accepted step and
returning per-step diagnostics plus the full trajectory.  On top of it sit
the mesh-convergence study (errors, observed orders, Newton statistics per
refinement level) and the long-time energy-decay study.
"""

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import InvariantViolation, ValidationError
from .fields import DiscreteField, TensorSpec
from .mesh import build_ddfv, gen_family
from .operators import bracket
from .scheme import (
    Assembly,
    SchemeParams,
    StateRecord,
    energy,
    evaluate,
    project_initial,
    relative_energy,
    stationary_state,
)
from .solver import LinearSolver, newton_solve

MASS_DRIFT_TOL = 1e-11
ENERGY_DECAY_SLACK = 1e-9
SATURATION_CUTOFF = 1e-12


@dataclass
class TestCase:
    """Problem data for a run; exact solution and gradient are optional.

    The data are called on point arrays: ``x`` has shape (2, m), so
    ``x[0]`` and ``x[1]`` are coordinate arrays (see ``scheme.evaluate``).
    ``u0``, ``potential`` and ``u_exact`` return shape (m,) and
    ``grad_u_exact`` shape (2, m); a scalar, or a constant (2,) gradient,
    is broadcast.
    """

    name: str
    u0: object                      # callable(x) -> (m,)
    potential: object = None        # callable(x) -> (m,)
    lam: TensorSpec = dataclass_field(default_factory=TensorSpec.identity)
    t_final: float = 0.25
    u_exact: object = None          # callable(x, t) -> (m,)
    grad_u_exact: object = None     # callable(x, t) -> (2, m)


_ALPHA = np.pi**2 + 0.25


def _exact_value(x, t):
    x2 = x[1]
    mode = np.pi * np.cos(np.pi * x2) + 0.5 * np.sin(np.pi * x2)
    return np.exp(-_ALPHA * t + 0.5 * x2) * mode + np.pi * np.exp(x2 - 0.5)


def _exact_gradient(x, t):
    x2 = x[1]
    dmode = (np.pi * np.cos(np.pi * x2)
             + (0.25 - np.pi**2) * np.sin(np.pi * x2))
    d2 = np.exp(-_ALPHA * t + 0.5 * x2) * dmode + np.pi * np.exp(x2 - 0.5)
    return np.stack([np.zeros_like(d2), d2])


def exact_decay_case() -> TestCase:
    """Manufactured solution on the unit square with potential V = -x2.

    The solution is a single exponentially decaying mode on top of the
    steady state; the initial data vanishes on the top edge.
    """
    return TestCase(
        name="decay",
        u0=lambda x: _exact_value(x, 0.0),
        potential=lambda x: -x[1],
        t_final=0.25,
        u_exact=_exact_value,
        grad_u_exact=_exact_gradient,
    )


def uniform_case() -> TestCase:
    """Constant state with no potential; an exact fixed point of the scheme."""
    return TestCase(
        name="uniform",
        u0=lambda x: 1.0,
        potential=None,
        t_final=0.25,
        u_exact=lambda x, t: 1.0,
        grad_u_exact=lambda x, t: np.zeros(2),
    )


CASES = {
    "decay": exact_decay_case,
    "uniform": uniform_case,
}


def get_case(name: str) -> TestCase:
    try:
        return CASES[name]()
    except KeyError:
        raise ValidationError(
            f"unknown case {name!r}; choose from {sorted(CASES)}"
        ) from None


# --- time stepping ------------------------------------------------------


@dataclass
class RunResult:
    records: list
    trajectory: list           # packed vectors, entry n is the state at t_n
    mass0: float
    dt: float
    h: float

    @property
    def newton_max(self):
        return max((r.newton_iterations for r in self.records[1:]), default=0)

    @property
    def newton_mean(self):
        its = [r.newton_iterations for r in self.records[1:]]
        return float(np.mean(its)) if its else 0.0

    @property
    def min_u(self):
        """Smallest value over all accepted states (steps >= 1)."""
        return min((r.min_u for r in self.records[1:]), default=float("nan"))

    @property
    def floor_ever_activated(self):
        return any(r.floor_activated for r in self.records[1:])

    @property
    def dt_over_h(self):
        return self.dt / self.h


def _seed_boundary_zeros(mesh, assembly, u_vec):
    """Start values for boundary cells whose previous value is zero.

    Only the initial data can contain exact zeros there (boundary cells are
    projected to zero); seeding them from the adjacent interior cell so the
    local log-gradient starts balanced keeps the Newton iteration off the
    positivity floor.
    """
    nc = mesh.n_cells
    bdia = np.flatnonzero(mesh.dia_is_boundary)
    v = assembly.v_field.values
    out = u_vec.copy()
    for d in bdia:
        row = mesh.dia_cell_l[d]
        if out[row] <= 0.0:
            k = mesh.dia_cell_k[d]
            out[row] = out[k] * math.exp(v[k] - v[row])
    return out


def simulate(mesh, params: SchemeParams, u0_field: DiscreteField,
             check_invariants: bool = True) -> RunResult:
    """Advance the scheme params.n_steps steps from the projected data.

    Mass conservation, free-energy decay (including the penalization term)
    and positivity are asserted at every step; violations raise
    InvariantViolation.
    """
    assembly = Assembly(mesh, params)
    linear_solver = LinearSolver()
    v_field = assembly.v_field
    one = DiscreteField.full(mesh, 1.0)

    u_vec = u0_field.values.copy()
    mass0 = bracket(mesh, u0_field, one)
    en_prev = energy(mesh, u0_field, v_field)
    inner_dual = np.concatenate([u_vec[:mesh.n_cells],
                                 u_vec[mesh.n_cells + mesh.n_bnd:]])
    records = [StateRecord(
        n=0, t=0.0, mass=mass0, energy=en_prev,
        dissipation=None, dissipation_hat=None, penalty_bracket=None,
        min_u=float(inner_dual.min()),
    )]
    trajectory = [u_vec.copy()]

    for n in range(1, params.n_steps + 1):
        start = _seed_boundary_zeros(mesh, assembly, u_vec)
        u_next, stats = newton_solve(
            lambda x: assembly.system_vec(x, u_vec),
            assembly.system_jacobian,
            start,
            params.newton,
            linear_solver,
        )
        field = DiscreteField(mesh, u_next)
        mass = bracket(mesh, field, one)
        en = energy(mesh, field, v_field)
        diss, diss_hat = assembly.dissipation_vec(u_next)
        pen = assembly.penalty_bracket_vec(u_next)
        rec = StateRecord(
            n=n, t=n * params.dt, mass=mass, energy=en,
            dissipation=diss, dissipation_hat=diss_hat, penalty_bracket=pen,
            min_u=float(u_next.min()),
            newton_iterations=stats.iterations,
            newton_residual=stats.residual_l1,
            newton_backtracks=stats.backtracks,
            factorizations=stats.factorizations,
            floor_activated=stats.floor_activated,
        )
        if check_invariants:
            _check_step(rec, mass0, en_prev, diss, pen, params)
        records.append(rec)
        trajectory.append(u_next.copy())
        u_vec = u_next
        en_prev = en

    return RunResult(records=records, trajectory=trajectory, mass0=mass0,
                     dt=params.dt, h=mesh.h)


def _check_step(rec, mass0, en_prev, diss, pen, params):
    drift = abs(rec.mass - mass0) / max(abs(mass0), 1e-300)
    if drift > MASS_DRIFT_TOL:
        raise InvariantViolation(
            f"step {rec.n}: relative mass drift {drift:.3e}"
        )
    budget = rec.energy - en_prev + params.dt * (diss + params.kappa * pen)
    if budget > ENERGY_DECAY_SLACK * (1.0 + abs(en_prev)):
        raise InvariantViolation(
            f"step {rec.n}: energy decay violated by {budget:.3e}"
        )
    if rec.min_u <= 0.0:
        raise InvariantViolation(f"step {rec.n}: state not strictly positive")


# --- error functionals ---------------------------------------------------


def error_u(mesh, trajectory, dt, u_exact) -> float:
    """Max over time of the mass-weighted L2 distance to the nodally
    sampled exact solution."""
    worst = 0.0
    nc, nb = mesh.n_cells, mesh.n_bnd
    nodes = np.vstack([mesh.cell_centers, mesh.primal.vertices])
    for n, vec in enumerate(trajectory):
        exact = evaluate(u_exact, nodes, n * dt)
        di = vec[:nc] - exact[:nc]
        dd = vec[nc + nb:] - exact[nc:]
        err2 = 0.5 * (np.dot(mesh.cell_areas, di * di)
                      + np.dot(mesh.dual_areas, dd * dd))
        worst = max(worst, float(err2))
    return worst**0.5


def _exact_gradient_at(grad_u_exact, points, t):
    """(m, 2) values of the exact gradient, called once on all points."""
    values = np.asarray(grad_u_exact(points.T, t), dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    try:
        return np.broadcast_to(values, (2, len(points))).T
    except ValueError as exc:
        raise ValidationError(
            f"grad_u_exact must return shape (2, m) or (2,): {exc}"
        ) from None


def error_gradient(mesh, trajectory, dt, grad_u_exact) -> float:
    """Space-time L2 distance of the discrete gradient to the exact one
    evaluated at the diamond crossing points."""
    from .operators import grad_diamond

    total = 0.0
    for n in range(1, len(trajectory)):
        t = n * dt
        g = grad_diamond(mesh, DiscreteField(mesh, trajectory[n]))
        diff = g - _exact_gradient_at(grad_u_exact, mesh.cross_point, t)
        total += dt * float(np.dot(mesh.diamond_area,
                                   np.einsum("di,di->d", diff, diff)))
    return total**0.5


def norm_primal_dual_gap(mesh, trajectory, dt) -> float:
    """Space-time L2 norm of the gap between the primal and dual
    reconstructions, integrated exactly through the overlap areas."""
    nc, nb = mesh.n_cells, mesh.n_bnd
    total = 0.0
    for n in range(1, len(trajectory)):
        vec = trajectory[n]
        gap = vec[mesh.overlap_cell] - vec[nc + nb + mesh.overlap_vert]
        total += dt * float(np.dot(mesh.overlap_area, gap * gap))
    return total**0.5


def nodal_initial(mesh, u0) -> DiscreteField:
    """Initial field for error studies: nodal samples of the data.

    Cells where the sample vanishes fall back to the cell mean (a strictly
    positive second-order value when the data has a flat touch).  Mean
    initialization everywhere would be off by O(h) on boundary dual cells,
    whose centroids sit O(h) inside the domain; under the dt ~ h**2
    refinement coupling that offset decays by a fixed factor per step and
    floors the nodally sampled solution error at O(h**1.5).
    """
    means = project_initial(mesh, u0)
    nodal = evaluate(u0, np.vstack([mesh.cell_centers, mesh.primal.vertices]))
    interior, dual = nodal[:mesh.n_cells], nodal[mesh.n_cells:]
    interior = np.where(interior > 0.0, interior, means.interior)
    dual = np.where(dual > 0.0, dual, means.dual)
    return DiscreteField.from_components(mesh, interior, np.zeros(mesh.n_bnd), dual)


# --- convergence study ---------------------------------------------------


@dataclass
class ConvergenceRow:
    level: int
    h: float
    dt: float
    erru: float
    ordu: float | None
    errgu: float
    ordgu: float | None
    normU: float
    ordU: float | None
    newton_max: int
    newton_mean: float
    min_u: float
    floor_activated: bool = False   # diagnostics only, not a CSV column


CSV_HEADER = "level,h,dt,erru,ordu,errgu,ordgu,normU,ordU,newton_max,newton_mean,min_u"


def _sci(x):
    return "" if x is None else f"{x:.5E}"


def _row_cells(r):
    """The CSV_HEADER columns of one row, formatted."""
    return [
        str(r.level), _sci(r.h), _sci(r.dt),
        _sci(r.erru), _sci(r.ordu),
        _sci(r.errgu), _sci(r.ordgu),
        _sci(r.normU), _sci(r.ordU),
        str(r.newton_max), _sci(r.newton_mean), _sci(r.min_u),
    ]


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER] + [",".join(_row_cells(r)) for r in rows]
    return "\n".join(lines) + "\n"


def rows_to_text(rows) -> str:
    header = CSV_HEADER.split(",")
    table = [header] + [_row_cells(r) for r in rows]
    widths = [max(len(row[c]) for row in table) for c in range(len(header))]
    return "\n".join(
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        for row in table
    ) + "\n"


def observed_order(prev_err, err, prev_h, h):
    """Convergence rate from two consecutive errors; pure ratio, so it is
    invariant under a common rescaling of the errors."""
    if prev_err == 0.0 or err == 0.0:
        return None
    return math.log(prev_err / err) / math.log(prev_h / h)


def build_level_mesh(family: str, n: int, **kwargs):
    return build_ddfv(gen_family(family, n, **kwargs))


def convergence_study(case: TestCase, family: str, levels: int,
                      n0: int = 8, dt0: float = 4e-3,
                      kappa: float = 0.0, beta: float = 1.0,
                      newton=None, family_kwargs=None) -> list:
    """Refine n0 -> 2*n0 -> ... with the time step divided by 4 per level.

    Error orders come from mesh-size ratios; the first row has no orders.
    """
    if levels < 1:
        raise ValidationError("levels must be >= 1")
    if case.u_exact is None:
        raise ValidationError("convergence study needs a case with an exact solution")
    family_kwargs = family_kwargs or {}
    rows = []
    prev = None
    for lev in range(levels):
        n = n0 * 2**lev
        dt = dt0 / 4**lev
        mesh = build_level_mesh(family, n, **family_kwargs)
        params = SchemeParams(
            dt=dt, t_final=case.t_final, kappa=kappa, beta=beta,
            lam=case.lam, potential=case.potential,
            **({"newton": newton} if newton else {}),
        )
        u0 = nodal_initial(mesh, case.u0)
        result = simulate(mesh, params, u0)
        errs = (
            error_u(mesh, result.trajectory, dt, case.u_exact),
            error_gradient(mesh, result.trajectory, dt, case.grad_u_exact),
            norm_primal_dual_gap(mesh, result.trajectory, dt),
        )
        if prev is None:
            orders = (None, None, None)
        else:
            prev_errs, prev_h = prev
            orders = tuple(
                observed_order(pe, e, prev_h, mesh.h)
                for pe, e in zip(prev_errs, errs)
            )
        rows.append(ConvergenceRow(
            level=lev, h=mesh.h, dt=dt,
            erru=errs[0], ordu=orders[0],
            errgu=errs[1], ordgu=orders[1],
            normU=errs[2], ordU=orders[2],
            newton_max=result.newton_max,
            newton_mean=result.newton_mean,
            min_u=result.min_u,
            floor_activated=result.floor_ever_activated,
        ))
        prev = (errs, mesh.h)
    return rows


# --- long-time study ------------------------------------------------------


@dataclass
class LongtimeResult:
    series: list                 # (n, t, relative energy)
    rate: float | None           # least-squares slope of the log series
    r_squared: float | None
    saturated: bool              # no usable pre-saturation range

    def to_csv(self):
        lines = ["n,t,relative_energy"]
        for n, t, e in self.series:
            lines.append(f"{n},{t!r},{e!r}")
        return "\n".join(lines) + "\n"


def longtime_study(case: TestCase, mesh, dt: float, t_final: float,
                   kappa: float = 0.0, beta: float = 1.0,
                   newton=None) -> LongtimeResult:
    """Relative-energy decay towards the discrete steady state.

    The reference state is u_inf = rho * exp(-V).  With kappa = 0 the
    primal and dual masses are conserved separately, so rho is fixed on
    each mesh by its own mass and the series decays to rounding level
    instead of a quadrature floor.  With kappa > 0 the penalization moves
    mass between the two meshes and only the total bracket(u, 1) is
    conserved, so a single rho matches it.  The exponential rate is fitted
    on the range above the saturation cutoff.
    """
    params = SchemeParams(
        dt=dt, t_final=t_final, kappa=kappa, beta=beta,
        lam=case.lam, potential=case.potential,
        **({"newton": newton} if newton else {}),
    )
    assembly = Assembly(mesh, params)
    u0 = project_initial(mesh, case.u0)
    if kappa > 0.0:
        one = DiscreteField.full(mesh, 1.0)
        shape = DiscreteField(mesh, np.exp(-assembly.v_field.values))
        u_inf = shape * (bracket(mesh, u0, one) / bracket(mesh, shape, one))
    else:
        mass_primal = float(np.dot(mesh.cell_areas, u0.interior))
        mass_dual = float(np.dot(mesh.dual_areas, u0.dual))
        u_inf = stationary_state(mesh, assembly.v_field, mass_primal,
                                 dual_mass=mass_dual)

    result = simulate(mesh, params, u0)
    series = []
    for rec, vec in zip(result.records, result.trajectory):
        erel = relative_energy(mesh, DiscreteField(mesh, vec), u_inf)
        series.append((rec.n, rec.t, erel))

    usable = [(t, e) for _, t, e in series if e > SATURATION_CUTOFF]
    if len(usable) < 3:
        return LongtimeResult(series=series, rate=None, r_squared=None,
                              saturated=True)
    ts = np.array([t for t, _ in usable])
    logs = np.log(np.array([e for _, e in usable]))
    slope, intercept = np.polyfit(ts, logs, 1)
    fit = slope * ts + intercept
    ss_res = float(np.sum((logs - fit) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return LongtimeResult(series=series, rate=float(slope),
                          r_squared=r2, saturated=False)
