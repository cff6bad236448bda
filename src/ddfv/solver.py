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

- the Krylov answer is accepted when its l1 residual |A x - b|_1 on the
  full b is at most the caller's ``tol_l1``;
- otherwise the stale factor is dropped, the current matrix is factorized
  and solved directly (with the direct solve's checks and errors), and that
  factor becomes the preconditioner of the following systems.

A call without a positive ``tol_l1`` (the default 0) is the direct solve.
``newton_solve`` sizes ``tol_l1`` to its own residual F_k (an inexact
Newton method with the forcing term of Dembo, Eisenstat & Steihaug, SIAM J.
Numer. Anal. 19, 1982; see also Eisenstat & Walker, SIAM J. Sci. Comput.
17, 1996):

    tol_l1 = max(INNER_ETA tol, eta_k |F_k|_1),
    eta_k = min(FORCING_MAX, FORCING_SLOPE |F_k|_1)

(``inner_tolerance``).  Near convergence (|F_k|_1 <= 3.2e-4 for the default
tol = 1e-10) that is ``INNER_ETA`` (0.01) times Newton's l1 tolerance, far
below what Newton asks of the nonlinear residual.  On transient iterates it
is far looser: at |F_k|_1 = 82, 0.067 instead of 1e-12.  With eta_k
proportional to |F_k|, Newton keeps its quadratic rate.  The cycle stops
once its residual 2-norm is at most tol_l1 / sqrt(N), which bounds the l1
norm by tol_l1.  That is the only acceptance test: a second one, a
backward error 100 times below the direct solve's bound, accepted nothing
more on the benchmark workloads and convergence studies.

Why these values.  ``FORCING_SLOPE`` = 1e-5 is the largest power of ten
that leaves every benchmark workload's Newton count as it is: at 1e-4 the
kershaw n=64 run takes 13 Newton iterations instead of 12, at 1e-3 14 (and
``longtime_n16`` 523 instead of 522).  ``FORCING_MAX`` = 1e-2 keeps eta_k
well below 1, which Newton's convergence needs far from the root; it only
binds above |F_k|_1 = 1e3, which no benchmark workload reaches (1e-3 and
1e-1 give the same counts).

Each cycle starts from the span of the last answers.  The solver keeps the
last ``PROJECTION_DEPTH`` (3) accepted answers x_j, newest first, as the
columns of V; the Newton corrections of successive steps change smoothly,
so a combination of them is close to the next one.  The cycle is GMRES
computed as GCR (generalized conjugate residual; Eisenstat, Elman & Schultz,
SIAM J. Numer. Anal. 20, 1983): one loop over directions p, each kept with
its image A p, which reorthogonalized Gram-Schmidt orthonormalizes against
the earlier images (p alike); x and the explicit residual r move along it.
There is no Hessenberg matrix, no rotation and no triangular solve, and no
normal equations, whose condition number reaches 1e12 on ``longtime_n16``.
The stored answers come first, at no solve: they give x0 = V y with y
minimising |b - A V y|_2, the projection onto previous solutions of Fischer
(Comput. Methods Appl. Mech. Engrg. 163, 1998).  Then come M^-1 r, one LU
solve each; their images are orthogonalized against each other only, so
the start stays fixed and the iterates are those of GMRES from x0 (against
all images, kershaw n=64 took 13 Newton iterations instead of 12).  The
residual is tested before every direction, so a start within the bound
costs no solve.  The answer is checked against the full b.  Only a cycle
projects: the direct path factorizes and solves b as before.  The history
belongs to the solver, so it starts empty with each run.

Why 3.  On the benchmark workloads depths 1, 2, 3, 4 and 5 leave 1069,
965, 817, 811 and 720 GMRES iterations on ``converge_quad_k01`` and 1682,
1127, 838, 803 and 734 on ``longtime_n16`` (2233 without the projection),
with the same Newton counts (820 and 842 at 3 in the GCR form, from
rounding).  Past 3 the Gram-Schmidt work grows with k^2 and eats the
saving: depth 5 against 3 ran 0.99x on ``converge_quad_k01`` and 1.02x on
``longtime_n16`` in 10 in-process pairs each.

A factor also is refreshed before it fails, by its amortised cost.  Since
its factorization the solver counts ``solves`` (the direct solve counts as
1), ``served`` (the GMRES iterations run) and ``last`` (the iterations of
the previous cycle).  Each factorization is priced in GMRES iterations from
its own fill against the size N, with nnz SuperLU's count of the entries it
stores for L and U (``SuperLU.nnz``, supernode padding included: 22,332 at
N = 609, where L.nnz + U.nnz is 19,876):

    price = round(PRICE_SCALE sqrt(nnz / N)),

so the mean cost of a solve with this factor is (price + served) / solves.
A factor's cycles lengthen as the matrix drifts from it, so once the last
cycle cost more than that mean, keeping the factor raises the mean and a
new factor is cheaper in the long run; the solver then factorizes directly
and skips the cycle:

    last > (price + served) / solves.

The rule reads only counts (the fill is a count too), so the solver's
decisions and counters are deterministic.  ``GMRES_RESTART`` = 8 stays a
ceiling on the cycle: a fresh factor answers in 2-6 iterations, and a cycle
that misses the bound still refactors.

Why sqrt(nnz / N) and 3.3.  A factorization costs more GMRES iterations as
N grows: measured, it costs (factorization time over the time of one
iteration of an 8-iteration cycle, i.e. LU solve, matvec and Gram-Schmidt;
quad, amplitude 0.15, kappa=0.1, three runs on a 2-vCPU Xeon VM)

    N        nnz         price   measured
    177      4,930       17      14-22
    609      22,332      20      23-25
    2,241    120,476     24      28
    8,577    720,624     30      33-39 (kershaw n=64: 29-32)
    33,537   4,021,456   36      29-30

``PRICE_SCALE`` = 3.3 prices quad n=16 at exactly 20, the price a sweep
over 15, 20 and 30 found best on ``longtime_n16`` (522 Newton and 842 GMRES
iterations, 7 factorizations).  A price of 20 at every N is too low at
N = 8577: on the 4 steps of ``run_kershaw_n64`` it pays for a third
factorization to save 6 GMRES iterations, while priced at 30 the run makes
2 (GMRES 44 -> 50, Newton 12 either way).  Long runs at large N make the
same number of factorizations with either price (9 on 400 steps of quad
n=64, 6 on 150 steps at n=128), so the gain is on short runs.  Against refreshing only
after a missed cycle, the rule takes the long-time study from 3703 to 1814
GMRES iterations for 6 -> 17 factorizations (500 steps at n=16), with the
same Newton counts.

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
    residual: np.ndarray | None = None  # the residual at the returned iterate
    state: object = None                # what residual_fn returned with it


class LinearSolver:
    """Lagged-LU state of one run: the factor of the last equilibrated
    matrix it factorized (with that matrix's row scaling) and its
    ``price``, the counts of the refresh rule since that factorization
    (``solves``, ``served`` and ``last``), how many factorizations it made
    and how many GMRES iterations it ran (those of cycles that missed
    included), the last ``PROJECTION_DEPTH`` accepted answers
    (``history``, newest first)."""

    def __init__(self):
        self.factor = None
        self.row_max = None
        self.solves = self.served = self.last = self.price = 0
        self.factorizations = 0
        self.krylov_iterations = 0
        self.history = []

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
        the stale one first (it would add to the memory peak)."""
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
    row_nnz = np.diff(matrix.indptr)
    if not row_nnz.all():           # reduceat below needs nonempty rows
        raise SingularMatrix("matrix has an identically zero row")
    abs_data = np.abs(matrix.data)
    row_sum = np.add.reduceat(abs_data, starts)
    if not row_sum.all():
        raise SingularMatrix("matrix has an identically zero row")

    x = solver.krylov(matrix, rhs, tol_l1)
    if x is not None and np.abs(matrix @ x - rhs).sum() <= tol_l1:
        solver.remember(x)
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
