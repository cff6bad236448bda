"""Reference cases, the time-stepping driver, error norms and studies.

``simulate`` advances a packed vector in time, checking mass conservation,
free-energy decay and positivity at every accepted step, handing each
state to an optional observer (it stores none) and returning per-step
diagnostics.  On top of it sit the mesh-convergence study (errors,
observed orders, Newton statistics per refinement level) and the long-time
energy-decay study, both reduced while stepping.
"""

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import InvariantViolation, ValidationError
from .fields import TensorSpec
from .mesh import build_ddfv, family_map, gen_family
from .operators import bracket, grad_diamond, overlap_gap
from .scheme import (
    Assembly,
    SchemeParams,
    StateRecord,
    energy,
    evaluate,
    project_initial,
    project_potential,
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
    is broadcast.  ``CASES`` names the cases.
    """

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
        u0=lambda x: _exact_value(x, 0.0),
        potential=lambda x: -x[1],
        t_final=0.25,
        u_exact=_exact_value,
        grad_u_exact=_exact_gradient,
    )


def uniform_case() -> TestCase:
    """Constant state with no potential; an exact fixed point of the scheme."""
    return TestCase(
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
    """The StateRecords of step 0 and of each accepted step, in order; a
    run's dt and h are its ``params.dt`` and ``mesh.h``."""

    records: list

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


def _seed_boundary_zeros(mesh, assembly, u_vec):
    """Newton's start value of the first step: u_vec with each zero
    boundary value seeded from the adjacent interior cell.

    Projected initial data are zero on boundary cells; seeding them so the
    local log-gradient starts balanced keeps the Newton iteration off the
    positivity floor.
    """
    ks, rows = mesh.corners[:2, mesh.dia_is_boundary]
    # Each boundary cell has exactly one diamond, and only boundary rows
    # are written, so the interior values read are the unseeded ones.
    zero = u_vec[rows] <= 0.0
    rows, ks = rows[zero], ks[zero]
    v = assembly.v
    out = u_vec.copy()
    out[rows] = u_vec[ks] * np.exp(v[ks] - v[rows])
    return out


# Coefficients of the polynomial extrapolation in u from u^n and the
# positive states before it, newest first, by the number of those states:
# linear, quadratic and cubic (Newton's backward differences).
U_EXTRAPOLATION = {1: (2.0, -1.0), 2: (3.0, -3.0, 1.0),
                   3: (4.0, -6.0, 4.0, -1.0)}


def _extrapolate(u_vec, older):
    """Newton's start value from the current state and the zero to three
    positive states before it (``older``, newest first): the polynomial
    extrapolation in u of ``U_EXTRAPOLATION`` when there is one and it is
    positive, else ``u_vec`` itself."""
    if not older:
        return u_vec
    coefs = U_EXTRAPOLATION[len(older)]
    start = coefs[0] * u_vec
    for coef, state in zip(coefs[1:], older):
        start += coef * state
    return start if start.min() > 0.0 else u_vec


def simulate(mesh, params: SchemeParams, u0, observe=None) -> RunResult:
    """Advance the scheme params.n_steps steps from the packed data ``u0``.

    Mass conservation, free-energy decay (including the penalization term)
    and positivity are asserted at every step; violations raise
    InvariantViolation.

    Newton's start value for step n+1 extrapolates the last accepted
    states with a polynomial in u:

    - step 1 starts from u0 with its zero boundary values seeded
      (``_seed_boundary_zeros``);
    - when u^{n-1} > 0, from u* = 2 u^n - u^{n-1} (linear);
    - when u^{n-2} > 0 as well, from u* = 3 u^n - 3 u^{n-1} + u^{n-2}
      (quadratic);
    - when u^{n-3} > 0 as well, from
      u* = 4 u^n - 6 u^{n-1} + 4 u^{n-2} - u^{n-3} (cubic);
    - otherwise (step 2 after initial data with zeros), or when u* has an
      entry <= 0, from u^n.

    Why cubic in u: on ``converge_quad_k01`` the Newton iterations are 355
    (linear in u), 247 (quadratic) and 227 (cubic); a quartic takes 221
    there, and 520 instead of 522 on ``longtime_n16``.  States before a
    nonpositive one are not kept, so the zeros of the initial data never
    enter.

    When the start is u* rather than u^n, Newton starts from u^n instead
    whenever u^n has the smaller l1 residual.  That residual, F(u^n; u^n),
    is derived from the previous step's final residual F(u^n; u^{n-1}) by
    changing its time rows (``Assembly.next_step_vec``), so the comparison
    evaluates nothing; u^n is evaluated only when it is picked.

    Each Newton iterate is evaluated once: ``Assembly.system_vec``
    returns its residual with a ``scheme.Iterate`` of the parts of the
    scheme at it, and its Jacobian and, for the accepted state, the
    dissipation and the penalization bracket read that Iterate.

    ``observe(record, u_vec)``, when given, is called once for step 0 and
    once after each accepted step, in order, with that step's StateRecord
    and packed state.  The loop never writes to ``u_vec`` after the call,
    so an observer may keep the array itself.  No state is stored here.
    """
    one = np.ones(mesh.n_values)
    u_vec = np.array(u0, dtype=float)
    assembly = Assembly(mesh, params)
    linear_solver = LinearSolver()
    en_prev = energy(mesh, u_vec, assembly.v)
    interior, _, dual = mesh.parts(u_vec)
    records = [StateRecord(
        n=0, t=0.0, mass=bracket(mesh, u_vec, one), energy=en_prev,
        dissipation=None, dissipation_hat=None, penalty_bracket=None,
        min_u=float(min(interior.min(), dual.min())),
    )]
    if observe is not None:
        observe(records[0], u_vec)

    older = []      # up to three positive states before u_vec, newest first
    res = None      # F(u_vec; the state before it), from step 1 on
    for n in range(1, params.n_steps + 1):
        if n == 1:
            start, fallback = _seed_boundary_zeros(mesh, assembly, u_vec), None
        else:
            start = _extrapolate(u_vec, older)
            fallback = None if start is u_vec else (u_vec, float(np.abs(
                assembly.next_step_vec(res, u_vec, older[0])).sum()))

        u_next, stats = newton_solve(
            lambda x: assembly.system_vec(x, u_vec),
            assembly.system_jacobian,
            start,
            params.newton,
            linear_solver,
            fallback,
        )
        mass = bracket(mesh, u_next, one)
        en = energy(mesh, u_next, assembly.v)
        diss, diss_hat = assembly.dissipation_vec(stats.state)
        rec = StateRecord(
            n=n, t=n * params.dt, mass=mass, energy=en,
            dissipation=diss, dissipation_hat=diss_hat,
            penalty_bracket=assembly.penalty_bracket_vec(stats.state),
            min_u=float(u_next.min()),
            newton_iterations=stats.iterations,
            newton_residual=stats.residual_l1,
            newton_backtracks=stats.backtracks,
            factorizations=stats.factorizations,
            krylov_iterations=stats.krylov_iterations,
            floor_activated=stats.floor_activated,
        )
        _check_step(rec, records[0].mass, en_prev, params)
        records.append(rec)
        if observe is not None:
            observe(rec, u_next)
        older = [u_vec] + older[:2] if u_vec.min() > 0.0 else []
        u_vec = u_next
        res = stats.residual
        en_prev = en
        del stats   # frees the accepted Iterate before the next solve

    return RunResult(records=records)


def _check_step(rec, mass0, en_prev, params):
    drift = abs(rec.mass - mass0) / max(abs(mass0), 1e-300)
    if drift > MASS_DRIFT_TOL:
        raise InvariantViolation(
            f"step {rec.n}: relative mass drift {drift:.3e}"
        )
    budget = rec.energy - en_prev + params.dt * (
        rec.dissipation + params.kappa * rec.penalty_bracket)
    if budget > ENERGY_DECAY_SLACK * (1.0 + abs(en_prev)):
        raise InvariantViolation(
            f"step {rec.n}: energy decay violated by {budget:.3e}"
        )
    if rec.min_u <= 0.0:
        raise InvariantViolation(f"step {rec.n}: state not strictly positive")


# --- error functionals ---------------------------------------------------


def error_u(mesh, u_vec, t, u_exact) -> float:
    """Squared mass-weighted L2 distance at time t to the nodally sampled
    exact solution."""
    interior, _, dual = mesh.parts(u_vec)
    exact_i, _, exact_d = mesh.parts(evaluate(u_exact, mesh.nodes, t))
    di = interior - exact_i
    dd = dual - exact_d
    return float(0.5 * (np.dot(mesh.cell_areas, di * di)
                        + np.dot(mesh.dual_areas, dd * dd)))


def error_gradient(mesh, u_vec, t, grad_u_exact) -> float:
    """Squared L2 distance at time t of the discrete gradient to the exact
    one evaluated at the diamond crossing points."""
    diff = (grad_diamond(mesh, u_vec).T
            - evaluate(grad_u_exact, mesh.cross_point, t, shape=(2,)))
    diff *= diff
    return float(np.dot(mesh.diamond_area, diff[0] + diff[1]))


def norm_primal_dual_gap(mesh, u_vec) -> float:
    """Squared L2 norm of the gap between the primal and dual
    reconstructions, integrated exactly through the overlap areas."""
    gap = overlap_gap(mesh, u_vec)
    return float(np.dot(mesh.overlap_area, gap * gap))


def nodal_initial(mesh, u0) -> np.ndarray:
    """Packed initial data for error studies: nodal samples of the data.

    Cells where the sample vanishes fall back to the cell mean (a strictly
    positive second-order value when the data has a flat touch).  Mean
    initialization everywhere would be off by O(h) on boundary dual cells,
    whose centroids sit O(h) inside the domain; under the dt ~ h**2
    refinement coupling that offset decays by a fixed factor per step and
    floors the nodally sampled solution error at O(h**1.5).
    """
    u = project_initial(mesh, u0)
    interior, _, dual = mesh.parts(u)
    nodal_i, _, nodal_d = mesh.parts(evaluate(u0, mesh.nodes))
    for means, samples in ((interior, nodal_i), (dual, nodal_d)):
        np.copyto(means, samples, where=samples > 0.0)
    return u


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


def convergence_study(case: TestCase, family: str, levels: int,
                      n0: int = 8, dt0: float = 4e-3,
                      kappa: float = 0.0, beta: float = 1.0,
                      newton=None, family_kwargs=None, observe=None) -> list:
    """Refine n0 -> 2*n0 -> ... with the time step divided by 4 per level.

    Error orders come from mesh-size ratios; the first row has no orders.
    Before level 0 runs, the level count, the case's exact solution, the
    family's arguments at n0, the memory bound at the finest n and the
    finest level's parameters (its dt is the smallest) are checked,
    building nothing.  ``observe(record, u_vec)``, when given, sees every
    state of every level in order, step 0 of each level included, after
    the study has read it (as ``simulate`` calls its observer).
    """
    if levels < 1:
        raise ValidationError("levels must be >= 1")
    if case.u_exact is None:
        raise ValidationError("convergence study needs a case with an exact solution")
    family_kwargs = family_kwargs or {}
    family_map(family, n0, **family_kwargs)
    # n0 * 2**64 is beyond any memory: the cap keeps the power small
    family_map(family, n0 * 2 ** min(levels - 1, 64), **family_kwargs)
    SchemeParams(dt=dt0 / 4 ** (levels - 1), t_final=case.t_final,
                 kappa=kappa, beta=beta)
    rows = []
    prev = None
    for lev in range(levels):
        dt = dt0 / 4**lev
        mesh = build_ddfv(gen_family(family, n0 * 2**lev, **family_kwargs))
        params = SchemeParams(
            dt=dt, t_final=case.t_final, kappa=kappa, beta=beta,
            lam=case.lam, potential=case.potential,
            **({"newton": newton} if newton else {}),
        )
        # Max over n >= 0 of the squared erru; sums over n >= 1 of dt times
        # the squared errgu and normU.
        acc = [0.0, 0.0, 0.0]

        def reduce(rec, u_vec):
            acc[0] = max(acc[0], error_u(mesh, u_vec, rec.t, case.u_exact))
            if rec.n > 0:
                acc[1] += dt * error_gradient(mesh, u_vec, rec.t,
                                              case.grad_u_exact)
                acc[2] += dt * norm_primal_dual_gap(mesh, u_vec)
            if observe is not None:
                observe(rec, u_vec)

        result = simulate(mesh, params, nodal_initial(mesh, case.u0), reduce)
        errs = tuple(a**0.5 for a in acc)
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
                   newton=None, observe=None) -> LongtimeResult:
    """Relative-energy decay towards the discrete steady state.

    The reference state is u_inf = rho * exp(-V).  With kappa = 0 the
    primal and dual masses are conserved separately, so rho is fixed on
    each mesh by its own mass and the series decays to rounding level
    instead of a quadrature floor.  With kappa > 0 the penalization moves
    mass between the two meshes and only the total bracket(u, 1) is
    conserved, so a single rho matches it.  The exponential rate is fitted
    on the range above the saturation cutoff.  ``observe(record,
    u_vec)``, when given, sees every state in order after the study has
    read it (as ``simulate`` calls its observer).
    """
    params = SchemeParams(
        dt=dt, t_final=t_final, kappa=kappa, beta=beta,
        lam=case.lam, potential=case.potential,
        **({"newton": newton} if newton else {}),
    )
    v = project_potential(mesh, case.potential)
    u0 = project_initial(mesh, case.u0)
    if kappa > 0.0:
        one = np.ones(mesh.n_values)
        shape = np.exp(-v)
        u_inf = shape * (bracket(mesh, u0, one) / bracket(mesh, shape, one))
    else:
        interior, _, dual = mesh.parts(u0)
        mass_primal = float(np.dot(mesh.cell_areas, interior))
        mass_dual = float(np.dot(mesh.dual_areas, dual))
        u_inf = stationary_state(mesh, v, mass_primal, dual_mass=mass_dual)
    log_u_inf = np.log(u_inf)

    series = []

    def reduce(rec, u_vec):
        erel = relative_energy(mesh, u_vec, u_inf, log_u_inf)
        series.append((rec.n, rec.t, erel))
        if observe is not None:
            observe(rec, u_vec)

    simulate(mesh, params, u0, reduce)

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
