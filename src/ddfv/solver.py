"""Newton iteration for the per-step nonlinear system and the inner solve.

Every linear system is row-equilibrated first (the boundary closure rows
scale differently from the mass rows).  The direct solve is a sparse LU
factorization of the equilibrated matrix; its answer must have a backward
error below ``DIRECT_BOUND``.

Every factorization uses ``LU_OPTIONS``: a minimum-degree ordering of the
pattern of A + A^T, applied to rows and columns alike, and a diagonal pivot
whenever it is at least 0.1 times the largest entry of its column.  The
scheme's Jacobian is structurally symmetric (4x4 diamond blocks, the time
diagonal and the 2x2 penalization blocks), so an ordering of A + A^T fits
it, but only while the pivots stay on the diagonal: with SuperLU's default
partial pivoting the off-diagonal pivots undo much of it (0.92M entries in
L + U on quad n=64, against 0.72M with the threshold and 1.04M with the
default COLAMD ordering; 5.7M -> 4.0M at kershaw n=128).  A column whose
diagonal entry is below the threshold still takes an off-diagonal pivot.

Within one run the Jacobian keeps its sparsity pattern and its values drift
slowly, so Newton solves through a ``LinearSolver`` that keeps the LU factor
of the last matrix it factorized and uses it as the preconditioner of one
GMRES cycle of at most ``GMRES_RESTART`` iterations on each new system (a
lagged preconditioner, Knoll & Keyes, J. Comput. Phys. 193, 2004).  The
reuse rule:

- the Krylov answer is accepted when its backward error is below
  ``KRYLOV_BOUND``, 100 times tighter than the direct solve's bound, or
  when its l1 residual |A x - b|_1 is at most the caller's ``tol_l1``;
- otherwise the stale factor is dropped, the current matrix is factorized
  and solved directly (with the direct solve's checks and errors), and that
  factor becomes the preconditioner of the following systems.

``newton_solve`` passes ``tol_l1`` = ``INNER_ETA`` (0.01) times its own l1
tolerance, so a correction is not polished to ``KRYLOV_BOUND`` once its
linearized residual is far below what Newton asks of the nonlinear one (an
inexact Newton method, Eisenstat & Walker, SIAM J. Sci. Comput. 17, 1996).
The GMRES cycle stops once its residual 2-norm meets either bound; for the
l1 bound that is tol_l1 / sqrt(N).  Without ``tol_l1`` (the default 0) only
``KRYLOV_BOUND`` accepts.

A factor also is refreshed before it fails, by its amortised cost.  Since
its factorization the solver counts ``solves`` (the direct solve counts as
1), ``served`` (the GMRES iterations run) and ``last`` (the iterations of
the previous cycle).  Counting a factorization as ``REFRESH_COST`` GMRES
iterations, the mean cost of a solve with this factor is
(REFRESH_COST + served) / solves.  A factor's cycles lengthen as the matrix
drifts from it, so once the last cycle cost more than that mean, keeping
the factor raises the mean and a new factor is cheaper in the long run; the
solver then factorizes directly and skips the cycle:

    last > (REFRESH_COST + served) / solves.

The rule reads only counts, so the solver's decisions and counters are
deterministic.  ``GMRES_RESTART`` = 8 stays a ceiling on the cycle: a fresh
factor answers in 2-6 iterations, and a cycle that misses both bounds still
refactors.

Why 20.  One factorization costs 20 GMRES iterations at N = 609 (quad
n=16: 2.0 ms against 101 us), 25 at N = 2241 and 21-35 at N = 8577.  A
sweep over 15, 20 and 30 on the benchmark workloads and on 600 steps of
quad n=64 (amplitude 0.15, kappa=0.1, dt=6.25e-5) left no workload worse
at 20 than with refresh-on-miss alone; 30 was the slowest of the three on
the long-time study.  There GMRES iterations went 3703 -> 1814 and
factorizations 6 -> 17 (500 steps at n=16), and on the n=64 steps
4716 -> 2152 and 7 -> 23; Newton counts did not change.

The solver counts its factorizations and its GMRES iterations (those of
cycles that missed included); ``newton_solve`` reports both per solve in
``NewtonStats``.

Newton is undamped and backtracks only to keep every iterate strictly
positive: it starts from the caller's values raised to ``POSITIVITY_FLOOR``
(1e-12) and halves an update that would leave a nonpositive entry, at most
``MAX_BACKTRACKS`` (40) times.  Both are fixed.  It evaluates each iterate
once: ``residual_fn`` returns the residual together with the state the
caller evaluated, and ``jacobian_fn`` reads that state.  The start-value
guard compares the start's l1 residual with the fallback's, which the
caller supplies with the fallback, so the fallback is evaluated only when
the guard picks it.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dtrtrs

from .errors import (
    LinearSolveFailure,
    NoConvergence,
    PositivityBacktrackExhausted,
    SingularMatrix,
    ValidationError,
)

# Bound on the backward error |A x - b| / (|A| |x| + |b|) (max norms) of a
# direct solve; a larger one raises LinearSolveFailure.
DIRECT_BOUND = 1e-10
# Bound on the backward error of a Krylov answer; a miss is not an error but
# triggers a refactorization.
KRYLOV_BOUND = 1e-2 * DIRECT_BOUND
# Fraction of the Newton tolerance that bounds the l1 residual of an
# accepted Krylov answer inside a Newton step (see the module docstring).
# Over 20 steps on kershaw n=16 the lagged path ends 1.5e-13 (max norm)
# from the direct solves at 0.1, and 9e-15 at 0.01.
INNER_ETA = 1e-2
# Largest Krylov basis of the single GMRES cycle tried before refactorizing.
GMRES_RESTART = 8
# Cost of one factorization in GMRES iterations, in the refresh rule
# last > (REFRESH_COST + served) / solves (see the module docstring).
REFRESH_COST = 20
EPS = np.finfo(float).eps
# SuperLU settings of every factorization (see the module docstring).
LU_OPTIONS = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                  options={"SymmetricMode": True})
# Newton's start value is max(u_init, POSITIVITY_FLOOR) entrywise.
POSITIVITY_FLOOR = 1e-12
# Halvings of one Newton update that may be tried to keep the iterate
# strictly positive before PositivityBacktrackExhausted.
MAX_BACKTRACKS = 40


@dataclass
class NewtonConfig:
    """The two Newton settings a run chooses: the tolerance on the l1 norm
    of the residual and the most iterations per solve.  The start value's
    floor and the number of halvings are the module constants
    ``POSITIVITY_FLOOR`` and ``MAX_BACKTRACKS``."""

    tol_residual_l1: float = 1e-10
    max_iter: int = 50

    def __post_init__(self):
        if not (math.isfinite(self.tol_residual_l1)
                and self.tol_residual_l1 > 0.0):
            raise ValidationError("Newton tolerance must be finite and > 0")
        if self.max_iter < 1:
            raise ValidationError("max_iter must be >= 1")


@dataclass
class NewtonStats:
    iterations: int
    residual_l1: float
    backtracks: int
    floor_activated: bool
    factorizations: int = 0
    krylov_iterations: int = 0
    residual: np.ndarray | None = None  # the residual at the returned iterate
    state: object = None                # what residual_fn returned with it


class LinearSolver:
    """Lagged-LU state of one run: the factor of the last equilibrated
    matrix it factorized (with that matrix's row scaling), the counts of
    the refresh rule since that factorization (``solves``, ``served`` and
    ``last``), how many factorizations it made and how many GMRES
    iterations it ran (those of cycles that missed included), and the GMRES
    work arrays of the last system size."""

    def __init__(self):
        self.factor = None
        self.row_max = None
        self.solves = self.served = self.last = 0
        self.factorizations = 0
        self.krylov_iterations = 0
        self._basis = self._precond = self._hess = None

    def _work_arrays(self, m, size):
        """The GMRES basis, preconditioned vectors and Hessenberg matrix
        for m iterations on systems of ``size``, allocated once per size
        and factor."""
        if self._basis is None or self._basis.shape != (m + 1, size):
            self._basis = np.empty((m + 1, size))
            self._precond = np.empty((m, size))
            self._hess = np.empty((m, m))
        return self._basis, self._precond, self._hess

    def krylov(self, matrix, rhs, a_inf, tol_l1=0.0):
        """One cycle of right-preconditioned GMRES from x = 0, with the
        stored factor as the preconditioner.

        The cycle stops once the residual 2-norm (a bound on its max norm)
        meets ``KRYLOV_BOUND`` against the scale estimated from the first
        preconditioned vector, or is at most tol_l1 / sqrt(N), which keeps
        its l1 norm within tol_l1.  The preconditioned vectors are kept, so
        forming the answer costs no extra solve.  Returns None when there is
        no factor of this size, the refresh rule drops the factor (last >
        (REFRESH_COST + served) / solves, compared as integers), the cycle
        ends short of both bounds, or the least-squares problem turns
        singular (a singular matrix, which the direct solve then reports).
        """
        if (self.factor is None or self.factor.shape != matrix.shape
                or self.last * self.solves > REFRESH_COST + self.served):
            return None
        self.solves += 1
        self.last = 0
        beta = math.sqrt(rhs.dot(rhs))
        if beta == 0.0:
            return np.zeros_like(rhs)
        size = rhs.shape[0]
        m = min(GMRES_RESTART, size)
        basis, precond, hess = self._work_arrays(m, size)
        # The Givens rotations and the rotated right-hand side g are Python
        # floats; only the triangular solve at the end reads hess.
        rotations = []
        g = [beta]
        np.divide(rhs, beta, out=basis[0])
        for k in range(m):
            self.krylov_iterations += 1
            self.served += 1
            self.last += 1
            precond[k] = self.factor.solve(basis[k] / self.row_max)
            if k == 0:
                target = max(
                    KRYLOV_BOUND * (a_inf * beta * np.abs(precond[0]).max()
                                    + np.abs(rhs).max()),
                    tol_l1 / math.sqrt(size))
            w = matrix @ precond[k]
            norm_aw = math.sqrt(w.dot(w))
            # classical Gram-Schmidt, reorthogonalized (ndarray.dot is the
            # same BLAS call as @ with less dispatch)
            known = basis[:k + 1]
            h = known.dot(w)
            w -= h.dot(known)
            h2 = known.dot(w)
            w -= h2.dot(known)
            h += h2
            col = h.tolist()
            norm_w = math.sqrt(w.dot(w))
            if norm_w <= EPS * norm_aw:     # the Krylov space is invariant
                norm_w = 0.0
            for i, (c, s) in enumerate(rotations):
                col[i], col[i + 1] = (c * col[i] + s * col[i + 1],
                                      c * col[i + 1] - s * col[i])
            rho = math.hypot(col[k], norm_w)
            if rho <= EPS * norm_aw:
                return None
            c, s = col[k] / rho, norm_w / rho
            rotations.append((c, s))
            col[k] = rho
            hess[:k + 1, k] = col
            g.append(-s * g[k])
            g[k] *= c
            if abs(g[k + 1]) <= target or norm_w == 0.0:
                y, _ = dtrtrs(hess[:k + 1, :k + 1], g[:k + 1])
                return y.dot(precond[:k + 1])
            np.divide(w, norm_w, out=basis[k + 1])
        return None

    def refactor(self, scaled, row_max):
        """Factorize the equilibrated matrix and keep the factor.  The stale
        factor and the GMRES work arrays are released first, so that they
        do not add to the factorization's memory peak."""
        self.factor = None
        self._basis = self._precond = self._hess = None
        self.factor = spla.splu(scaled.tocsc(), **LU_OPTIONS)
        self.row_max = row_max
        self.solves, self.served, self.last = 1, 0, 0
        self.factorizations += 1
        return self.factor


def linear_solve(matrix, rhs, solver: LinearSolver | None = None,
                 tol_l1: float = 0.0) -> np.ndarray:
    """Sparse solve with row equilibration; deterministic.

    A GMRES cycle preconditioned by the solver's lagged factor runs first,
    and the direct solve (which refreshes the factor) runs only when the
    refresh rule drops the factor or that answer misses both
    ``KRYLOV_BOUND`` and an l1 residual of ``tol_l1`` (see the module
    docstring).  Without ``solver`` the call goes through
    a fresh ``LinearSolver``, which has no factor yet, so it is the direct
    LU solve.

    Raises SingularMatrix for (numerically) singular systems and
    LinearSolveFailure when the direct solution's residual is unacceptably
    large.
    """
    if solver is None:
        solver = LinearSolver()
    if not (isinstance(matrix, sp.csr_matrix) and matrix.has_canonical_format):
        matrix = sp.csr_matrix(matrix)
        matrix.sum_duplicates()
    rhs = np.asarray(rhs, dtype=float)
    if matrix.shape[0] != matrix.shape[1] or matrix.shape[0] != rhs.shape[0]:
        raise ValidationError("linear system shape mismatch")

    starts = matrix.indptr[:-1]
    row_nnz = np.diff(matrix.indptr)
    if not row_nnz.all():           # reduceat below needs nonempty rows
        raise SingularMatrix("matrix has an identically zero row")
    abs_data = np.abs(matrix.data)
    row_sum = np.add.reduceat(abs_data, starts)
    if not row_sum.all():
        raise SingularMatrix("matrix has an identically zero row")
    a_inf = row_sum.max()

    def residual_and_scale(x):
        """|A x - b| entrywise, and the scale of the backward error."""
        return (np.abs(matrix @ x - rhs),
                a_inf * np.abs(x).max() + np.abs(rhs).max())

    x = solver.krylov(matrix, rhs, a_inf, tol_l1)
    if x is not None:
        resid, scale = residual_and_scale(x)
        if (resid.max() <= KRYLOV_BOUND * max(scale, 1e-300)
                or resid.sum() <= tol_l1):
            return x

    row_max = np.maximum.reduceat(abs_data, starts)
    scaled = sp.csr_matrix(
        (matrix.data * np.repeat(1.0 / row_max, row_nnz),
         matrix.indices, matrix.indptr),
        shape=matrix.shape,
    )
    try:
        x = solver.refactor(scaled, row_max).solve(rhs / row_max)
    except RuntimeError as exc:
        raise SingularMatrix(str(exc)) from None

    if not np.isfinite(x).all():
        raise SingularMatrix("non-finite solution from factorization")
    resid, scale = residual_and_scale(x)
    resid = resid.max()
    if resid > DIRECT_BOUND * max(scale, 1e-300):
        raise LinearSolveFailure(
            f"linear residual {resid:.3e} exceeds bound for scale {scale:.3e}"
        )
    return x


def newton_solve(residual_fn, jacobian_fn, u_init, config: NewtonConfig,
                 linear_solver: LinearSolver | None = None, fallback=None):
    """Solve F(u) = 0 starting from max(u_init, POSITIVITY_FLOOR).

    ``residual_fn(u)`` returns the pair (F(u), state), where ``state`` is
    whatever the caller evaluated at u to form F(u) (u itself, say);
    ``jacobian_fn(state)`` returns the Jacobian at that u.  So each iterate
    is evaluated once, for its residual and, while Newton goes on, for its
    Jacobian.

    ``fallback``, when given, is the pair (values, l1): another start
    value and the l1 norm of its residual.  Newton starts from
    max(values, POSITIVITY_FLOOR) instead when l1 is strictly smaller than
    the start's l1 residual (or that is NaN); the fallback is evaluated
    only then.  Every iterate is kept strictly positive by halving the
    update, at most ``MAX_BACKTRACKS`` times; the returned stats record
    whether the initialization floor changed any component of the chosen
    start, how many LU factorizations the solve made, and the residual
    and state of the returned iterate.  The inner solves go through
    ``linear_solver`` (a fresh one when None), so a caller that passes one
    solver to successive solves reuses its factor across them; each
    accepts an l1 residual of ``INNER_ETA`` times the Newton tolerance.
    """
    solver = linear_solver if linear_solver is not None else LinearSolver()
    factorizations0 = solver.factorizations
    krylov0 = solver.krylov_iterations
    tol = config.tol_residual_l1

    def start(values):
        values = np.asarray(values, dtype=float)
        u = np.maximum(values, POSITIVITY_FLOOR)
        res, state = residual_fn(u)
        return (u, res, state, float(np.abs(res).sum()),
                bool((values < POSITIVITY_FLOOR).any()))

    u, res, state, l1, floor_activated = start(u_init)
    if fallback is not None:
        other, other_l1 = fallback
        if other_l1 < l1 or math.isnan(l1):
            u, res, state, l1, floor_activated = start(other)

    backtracks_total = 0
    for iteration in range(config.max_iter + 1):
        if l1 < tol:
            return u, NewtonStats(
                iterations=iteration,
                residual_l1=l1,
                backtracks=backtracks_total,
                floor_activated=floor_activated,
                factorizations=solver.factorizations - factorizations0,
                krylov_iterations=solver.krylov_iterations - krylov0,
                residual=res,
                state=state,
            )
        if iteration == config.max_iter:
            break
        # The state is not kept through the solve, which may factorize:
        # at large N its memory would add to the factorization's peak.
        jacobian, state = jacobian_fn(state), None
        step = linear_solve(jacobian, -res, solver, tol_l1=INNER_ETA * tol)
        alpha = 1.0
        bt = 0
        trial = u + step
        while trial.min() <= 0.0:
            bt += 1
            if bt > MAX_BACKTRACKS:
                raise PositivityBacktrackExhausted(
                    f"could not keep iterate positive after "
                    f"{MAX_BACKTRACKS} halvings"
                )
            alpha *= 0.5
            trial = u + alpha * step
        backtracks_total += bt
        u = trial
        res, state = residual_fn(u)
        l1 = float(np.abs(res).sum())

    raise NoConvergence(
        f"Newton did not reach {tol:.1e} within "
        f"{config.max_iter} iterations (last residual {l1:.3e})"
    )
