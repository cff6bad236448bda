"""Newton iteration for the per-step nonlinear system and the inner solve.

Every linear system is row-equilibrated; the direct solve is a sparse LU
factorization (``LU_OPTIONS``) whose answer must have a backward error
below ``DIRECT_BOUND``.  Newton solves through a ``LinearSolver``: it keeps
the LU factor of the last matrix it factorized as the preconditioner of one
GMRES cycle (computed as GCR, at most ``GMRES_RESTART`` iterations) per new
system, started from the projection onto the last ``PROJECTION_DEPTH``
answers.  A cycle's answer is accepted when its l1 residual is at most
``tol_l1`` (``inner_tolerance``, a forcing term of ``INNER_ETA``,
``FORCING_SLOPE`` and ``FORCING_MAX``); otherwise, and whenever the last
cycle cost more GMRES iterations than the factor's mean cost per solve,
with the factor priced at round(``PRICE_SCALE`` sqrt(nnz / N)), the matrix
is factorized and solved directly.  A call without a positive ``tol_l1``
is the direct solve.  The rules, their sources, the reasons for each
constant and the measurements behind them (the price table included) are
in README.md, "Numerical notes": "Linear solves", "Inner tolerance",
"Projected start", "Factor refresh" and "LU ordering".

Before its first Newton iteration a solve may try one chord correction
u - M^-1 F(u) with the kept factor M, accepted when it meets the tolerance
and counted as one iteration; after a rejected chord the next 1, 2, 4, ...
(at most ``CHORD_BACKOFF_MAX``) solves try none (README.md, "Chord
correction").

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
# Fraction of the Newton tolerance that bounds the l1 residual of an
# accepted Krylov answer inside a Newton step (see the module docstring).
# Over 20 steps on kershaw n=16 the lagged path ends 1.5e-13 (max norm)
# from the direct solves at 0.1, and 9e-15 at 0.01.
INNER_ETA = 1e-2
# Forcing term eta_k = min(FORCING_MAX, FORCING_SLOPE |F_k|_1) of an inner
# solve at a Newton iterate with residual F_k; it may leave an l1 residual
# of max(INNER_ETA tol, eta_k |F_k|_1) (``inner_tolerance``).
FORCING_MAX = 1e-2
FORCING_SLOPE = 1e-5
# Number of accepted answers a LinearSolver keeps to start its GMRES cycle
# from their best combination (see the module docstring).
PROJECTION_DEPTH = 3
# An answer whose image A x_j keeps at most this fraction of its norm
# outside the span of the newer answers' images ends the start: it and the
# older answers are not used (a repeated answer keeps about 1e-16; the
# benchmark's least 3.9e-6).
PROJECTION_RANK = 1e-8
# Largest Krylov basis of the single GMRES cycle tried before refactorizing.
GMRES_RESTART = 8
# Most solves a LinearSolver lets pass without a chord correction after a
# rejected one; the gap doubles from 1 up to this cap (see the module
# docstring).
CHORD_BACKOFF_MAX = 16
# A factor's price in GMRES iterations is round(PRICE_SCALE sqrt(nnz / N))
# for its fill nnz, in the refresh rule last > (price + served) / solves
# (see the module docstring).
PRICE_SCALE = 3.3
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
    chord: str = "none"                 # "none", "rejected" or "accepted"
    residual: np.ndarray | None = None  # the residual at the returned iterate
    state: object = None                # what residual_fn returned with it


class LinearSolver:
    """Lagged-LU state of one run: the factor of the last equilibrated
    matrix it factorized (with that matrix's row scaling) and its
    ``price``, the counts of the refresh rule since that factorization
    (``solves``, ``served`` and ``last``), how many factorizations it made
    and how many GMRES iterations it ran (those of cycles that missed
    included), the last ``PROJECTION_DEPTH`` accepted answers
    (``history``, newest first), and the chord backoff: ``chord_gap``
    solves are skipped after the last rejected chord, ``chord_wait`` of
    them are left."""

    def __init__(self):
        self.factor = None
        self.row_max = None
        self.solves = self.served = self.last = self.price = 0
        self.factorizations = 0
        self.krylov_iterations = 0
        self.history = []
        self.chord_gap = self.chord_wait = 0

    def chord_ready(self, size):
        """Whether a chord correction may be tried on a system of ``size``
        unknowns: the solver holds a factor of that size and the backoff
        has no solve left to skip (a skipped solve counts down)."""
        if self.factor is None or self.factor.shape[0] != size:
            return False
        if self.chord_wait:
            self.chord_wait -= 1
            return False
        return True

    def chord_done(self, accepted):
        """Record a chord's outcome: an accepted one resets the gap, a
        rejected one doubles it (from 1, at most ``CHORD_BACKOFF_MAX``)
        and skips that many solves."""
        if accepted:
            self.chord_gap = 0
        else:
            self.chord_gap = min(CHORD_BACKOFF_MAX, max(1, 2 * self.chord_gap))
            self.chord_wait = self.chord_gap

    def remember(self, x):
        """Keep a copy of the accepted answer ``x``, dropping the oldest
        beyond ``PROJECTION_DEPTH`` and any of another size."""
        kept = [h for h in self.history[:PROJECTION_DEPTH - 1]
                if h.shape == x.shape]
        self.history = [x.copy()] + kept

    def krylov(self, matrix, rhs, tol_l1=0.0):
        """One cycle of right-preconditioned GMRES from the projected start,
        computed as GCR with the stored factor as the preconditioner M (see
        the module docstring).  Its directions are the stored answers,
        newest first, then M^-1 r, one LU solve each, at most
        min(GMRES_RESTART, N); it returns x once |rhs - A x|_2 <=
        tol_l1 / sqrt(N).  Returns None when ``tol_l1`` is not positive,
        there is no factor of this size, the refresh rule drops the factor
        (last > (price + served) / solves, compared as integers), the
        cycle ends short of the bound, or a cycle image keeps at most
        ``EPS`` of its norm (a singular matrix, which the direct solve then
        reports)."""
        if (tol_l1 <= 0.0 or self.factor is None
                or self.factor.shape != matrix.shape
                or self.last * self.solves > self.price + self.served):
            return None
        self.solves += 1
        self.last = 0
        size = rhs.shape[0]
        m = min(GMRES_RESTART, size)
        target = tol_l1 / math.sqrt(size)
        stored = [h for h in self.history if h.shape == rhs.shape]
        dirs = np.empty((len(stored) + m, size))
        images = np.empty_like(dirs)
        x = np.zeros_like(rhs)
        r = rhs.copy()
        k = first = 0       # directions kept; the first of this phase
        while math.sqrt(r.dot(r)) > target:
            if stored:
                p = stored.pop(0).copy()
            elif self.last == m:
                return None
            else:
                if self.last == 0:
                    first = k
                self.krylov_iterations += 1
                self.served += 1
                self.last += 1
                p = self.factor.solve(r / self.row_max)
            w = matrix @ p
            norm_aw = math.sqrt(w.dot(w))
            p -= _orthogonalize(images[first:k], w).dot(dirs[first:k])
            norm_w = math.sqrt(w.dot(w))
            if self.last == 0 and norm_w <= PROJECTION_RANK * norm_aw:
                stored = []
                continue
            if norm_w <= EPS * norm_aw:
                return None
            np.divide(w, norm_w, out=images[k])
            np.divide(p, norm_w, out=dirs[k])
            alpha = images[k].dot(r)
            x += alpha * dirs[k]
            r -= alpha * images[k]
            k += 1
        return x

    def refactor(self, scaled, row_max):
        """Factorize the equilibrated matrix and keep the factor, releasing
        the stale one first (it would add to the memory peak).  A CSC
        ``scaled`` is factorized as it is, without a copy."""
        self.factor = None
        self.factor = spla.splu(scaled.tocsc(), **LU_OPTIONS)
        self.row_max = row_max
        self.price = round(PRICE_SCALE
                           * math.sqrt(self.factor.nnz / scaled.shape[0]))
        self.solves, self.served, self.last = 1, 0, 0
        self.factorizations += 1
        return self.factor


def _orthogonalize(known, w):
    """Remove from ``w``, in place, its components along the orthonormal
    rows of ``known`` by classical Gram-Schmidt, reorthogonalized once, and
    return the coefficients (ndarray.dot is the same BLAS call as @ with
    less dispatch)."""
    h = known.dot(w)
    w -= h.dot(known)
    h2 = known.dot(w)
    w -= h2.dot(known)
    return h + h2


def linear_solve(matrix, rhs, solver: LinearSolver | None = None,
                 tol_l1: float = 0.0) -> np.ndarray:
    """Sparse solve with row equilibration; deterministic.

    A GMRES cycle preconditioned by the solver's lagged factor, started
    from the projection on its stored answers, runs first, and the direct
    solve (which refreshes the factor) runs only when the refresh rule
    drops the factor or that answer's l1 residual on the full ``rhs``
    exceeds ``tol_l1`` (see the module docstring).  The solver stores the
    answer it returns.  Without a positive ``tol_l1``, or without
    ``solver`` (a fresh ``LinearSolver`` has no factor yet), the call is
    the direct LU solve.

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
    if not np.diff(matrix.indptr).all():  # reduceat needs nonempty rows
        raise SingularMatrix("matrix has an identically zero row")
    abs_data = np.abs(matrix.data)
    row_sum = np.add.reduceat(abs_data, starts)
    if not row_sum.all():
        raise SingularMatrix("matrix has an identically zero row")

    x = solver.krylov(matrix, rhs, tol_l1)
    if x is not None and np.abs(matrix @ x - rhs).sum() <= tol_l1:
        solver.remember(x)
        return x

    # One scaled copy, the CSC that SuperLU reads, with each row divided by
    # its largest |entry|; |values| goes first, so that the factorization
    # holds only the matrix and this copy.
    row_max = np.maximum.reduceat(abs_data, starts)
    del abs_data
    scaled = matrix.tocsc()
    scaled.data *= (1.0 / row_max)[scaled.indices]
    try:
        x = solver.refactor(scaled, row_max).solve(rhs / row_max)
    except RuntimeError as exc:
        raise SingularMatrix(str(exc)) from None

    if not np.isfinite(x).all():
        raise SingularMatrix("non-finite solution from factorization")
    resid = np.abs(matrix @ x - rhs).max()
    scale = row_sum.max() * np.abs(x).max() + np.abs(rhs).max()
    if resid > DIRECT_BOUND * max(scale, 1e-300):
        raise LinearSolveFailure(
            f"linear residual {resid:.3e} exceeds bound for scale {scale:.3e}"
        )
    solver.remember(x)
    return x


def inner_tolerance(l1, tol):
    """The l1 residual an inner solve may leave at a Newton iterate whose
    residual has l1 norm ``l1``, for the Newton tolerance ``tol``:
    max(INNER_ETA tol, eta l1) with the forcing term
    eta = min(FORCING_MAX, FORCING_SLOPE l1) (see the module docstring)."""
    return max(INNER_ETA * tol, min(FORCING_MAX, FORCING_SLOPE * l1) * l1)


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
    solver to successive solves reuses its factor and its stored answers
    across them; each accepts the l1 residual ``inner_tolerance`` allows
    at the current residual.

    When the chosen start misses the tolerance, the solver holds a factor
    of this size and its backoff allows it (``LinearSolver.chord_ready``),
    one chord correction start - M^-1 F(start) with that factor M is tried
    first: a strictly positive trial whose l1 residual is below the
    tolerance is returned as one iteration, without a Jacobian; otherwise
    Newton runs from the start as if no chord had been tried.  The stats'
    ``chord`` says which happened.
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

    def stats(iterations, l1, res, state, chord, backtracks=0):
        return NewtonStats(
            iterations=iterations,
            residual_l1=l1,
            backtracks=backtracks,
            floor_activated=floor_activated,
            factorizations=solver.factorizations - factorizations0,
            krylov_iterations=solver.krylov_iterations - krylov0,
            chord=chord,
            residual=res,
            state=state,
        )

    chord = "none"
    if l1 >= tol and solver.chord_ready(res.shape[0]):
        step = solver.factor.solve(-res / solver.row_max)
        trial = u + step
        if trial.min() > 0.0:
            trial_res, trial_state = residual_fn(trial)
            trial_l1 = float(np.abs(trial_res).sum())
            if trial_l1 < tol:
                solver.chord_done(True)
                solver.remember(step)
                return trial, stats(1, trial_l1, trial_res, trial_state,
                                    "accepted")
            del trial_res, trial_state  # not kept through Newton's solves
        solver.chord_done(False)
        chord = "rejected"

    backtracks_total = 0
    for iteration in range(config.max_iter + 1):
        if l1 < tol:
            return u, stats(iteration, l1, res, state, chord,
                            backtracks_total)
        if iteration == config.max_iter:
            break
        # The state is not kept through the solve, which may factorize:
        # at large N its memory would add to the factorization's peak.
        jacobian, state = jacobian_fn(state), None
        step = linear_solve(jacobian, -res, solver,
                            tol_l1=inner_tolerance(l1, tol))
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
