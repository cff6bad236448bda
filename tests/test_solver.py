import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import ddfv.solver as solver_mod
from ddfv.errors import (
    NoConvergence,
    PositivityBacktrackExhausted,
    SingularMatrix,
    ValidationError,
)
from ddfv.harness import (
    _seed_boundary_zeros,
    exact_decay_case,
    nodal_initial,
    simulate,
)
from ddfv.mesh import build_ddfv, gen_kershaw, gen_quad_fvca
from ddfv.scheme import Assembly, SchemeParams, project_initial, stationary_state
from ddfv.solver import (
    DIRECT_BOUND,
    FORCING_MAX,
    FORCING_SLOPE,
    GMRES_RESTART,
    INNER_ETA,
    PRICE_SCALE,
    PROJECTION_DEPTH,
    LinearSolver,
    NewtonConfig,
    inner_tolerance,
    linear_solve,
    newton_solve,
)


# --- linear solve -------------------------------------------------------------


def test_linear_solve_identity():
    b = np.array([1.0, -2.0, 3.5])
    x = linear_solve(sp.identity(3, format="csr"), b)
    assert np.array_equal(x, b)


def test_linear_solve_small_system():
    a = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
    x = linear_solve(a, np.array([5.0, 10.0]))
    assert np.allclose(x, [1.0, 3.0], atol=1e-14)


def test_linear_solve_random_spd_residual_bound(rng):
    m = rng.standard_normal((50, 50))
    a = sp.csr_matrix(m @ m.T + 50 * np.eye(50))
    b = rng.standard_normal(50)
    x = linear_solve(a, b)
    resid = np.abs(a @ x - b).max()
    a_inf = np.abs(a.toarray()).sum(axis=1).max()
    assert resid <= 1e-12 * (a_inf * np.abs(x).max() + np.abs(b).max())


def test_linear_solve_singular():
    a = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(SingularMatrix):
        linear_solve(a, np.array([1.0, 1.0]))
    a = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularMatrix):
        linear_solve(a, np.array([1.0, 2.0]))
    # a row whose stored entries are all zero
    a = sp.csr_matrix((np.array([1.0, 0.0, 0.0]), np.array([0, 0, 1]),
                       np.array([0, 1, 3])), shape=(2, 2))
    assert a.has_canonical_format and a.nnz == 3
    with pytest.raises(SingularMatrix, match="identically zero row"):
        linear_solve(a, np.array([1.0, 1.0]))


def test_linear_solve_input_forms():
    csr = sp.csr_matrix(np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0],
                                  [0.0, 1.0, 2.0]]))
    b = np.array([1.0, -2.0, 0.5])
    with pytest.raises(ValidationError, match="shape mismatch"):
        linear_solve(csr, b[:2])
    with pytest.raises(ValidationError, match="shape mismatch"):
        linear_solve(csr[:2], b[:2])
    # COO with the entry (1, 1) split in two: summed, it is the CSR matrix
    coo = sp.coo_matrix((np.array([4.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0, 2.0]),
                         (np.array([0, 0, 1, 1, 1, 1, 2, 2]),
                          np.array([0, 1, 0, 1, 1, 2, 1, 2]))), shape=(3, 3))
    assert np.array_equal(linear_solve(coo, b), linear_solve(csr, b))


def _backward_error(a, x, b):
    a_inf = np.abs(a.toarray()).sum(axis=1).max()
    return np.abs(a @ x - b).max() / (a_inf * np.abs(x).max() + np.abs(b).max())


def _l1_tolerance(b):
    """An inner tolerance of 1e-12 relative to b in l1."""
    return 1e-12 * np.abs(b).sum()


def _within(a, x, b, tol_l1):
    return np.abs(a @ x - b).sum() <= tol_l1


def _jacobians(mesh, rng, count, spread):
    """Jacobians of one run's system at nearby positive states."""
    params = SchemeParams(dt=1e-2, t_final=1e-2, kappa=0.1,
                          potential=lambda x: -x[1])
    asm = Assembly(mesh, params)
    base = 0.5 + rng.random(mesh.n_values)
    states = [base * (1.0 + spread * rng.random(mesh.n_values))
              for _ in range(count)]
    return [asm.system_jacobian(asm.system_vec(u, u)[1]) for u in states]


def test_linear_solver_matches_direct_oracle(quad8, rng):
    solver = LinearSolver()
    for a in _jacobians(quad8, rng, 5, 0.05):
        b = rng.standard_normal(a.shape[0])
        tol_l1 = _l1_tolerance(b)
        x = linear_solve(a, b, solver, tol_l1)
        ref = linear_solve(a, b)
        assert _within(a, x, b, tol_l1)
        assert np.abs(x - ref).max() <= 1e-9 * np.abs(ref).max()
    # the first system is factorized, the nearby ones reuse its factor
    assert solver.factorizations == 1


def test_linear_solver_refactors_on_a_different_matrix(quad8, rng):
    a = _jacobians(quad8, rng, 1, 0.0)[0]
    b = rng.standard_normal(a.shape[0])
    tol_l1 = _l1_tolerance(b)
    solver = LinearSolver()
    linear_solve(a, b, solver)
    stale = solver.factor
    x = linear_solve(a, 2.0 * b, solver, 2.0 * tol_l1)
    assert solver.factorizations == 1 and solver.factor is stale
    assert _within(a, x, 2.0 * b, 2.0 * tol_l1)

    other = (a + sp.diags(50.0 * rng.random(a.shape[0]) * abs(a).max(axis=1)
                          .toarray().ravel())).tocsr()
    x = linear_solve(other, b, solver, tol_l1)
    assert solver.factorizations == 2 and solver.factor is not stale
    assert np.array_equal(x, linear_solve(other, b))


def test_linear_solve_without_a_tolerance_is_the_direct_solve(quad8, rng):
    # a factor in hand preconditions no cycle when the caller gives no
    # positive l1 tolerance: the matrix is factorized and solved directly
    a0, a1 = _jacobians(quad8, rng, 2, 0.05)
    b = rng.standard_normal(a0.shape[0])
    solver = LinearSolver()
    linear_solve(a0, b, solver)
    for tolerance in ({}, {"tol_l1": 0.0}, {"tol_l1": -1.0}):
        x = linear_solve(a1, b, solver, **tolerance)
        assert solver.krylov_iterations == 0
        assert np.array_equal(x, linear_solve(a1, b))
    assert solver.factorizations == 4


def test_linear_solver_accepts_answers_within_the_inner_tolerance(quad8, rng):
    # A factor of one Jacobian preconditions a Jacobian at a state moved by
    # up to 50%.  On a right-hand side of 1e-8 (a late Newton correction)
    # the Krylov answer meets INNER_ETA times the Newton tolerance in l1,
    # and is kept; on one of 1e-6 it misses it within the cycle, and the
    # matrix is refactorized.
    a0, a1 = _jacobians(quad8, rng, 2, 0.5)
    b = rng.standard_normal(a0.shape[0])
    tol_l1 = INNER_ETA * NewtonConfig().tol_residual_l1
    for scale, factorizations in ((1e-8, 1), (1e-6, 2)):
        solver = LinearSolver()
        linear_solve(a0, b, solver)
        x = linear_solve(a1, scale * b, solver, tol_l1=tol_l1)
        assert solver.factorizations == factorizations
        if factorizations == 1:
            assert np.abs(a1 @ x - scale * b).sum() <= tol_l1
        else:
            assert np.array_equal(x, linear_solve(a1, scale * b))


def test_linear_solver_refreshes_where_the_amortised_cost_rule_says(quad8):
    # Jacobians along a slow drift u_k = u_0 exp(k drift w): the cycles a
    # factor needs lengthen with its age.  Each solve has a fresh random
    # right-hand side, which the stored answers cannot predict (a repeated
    # b, or one drifting smoothly with u, is answered mostly by the
    # projected start, so the factor ages slower).  The counts of the rule
    # are rebuilt from the solver's public counters alone, and before every
    # solve the documented inequality last > (price + served) / solves,
    # with the price of the solver's current factor, decides whether the
    # solve factorizes directly (no GMRES iteration) or runs a cycle that
    # the factor answers.
    rng = np.random.default_rng(7)
    asm = Assembly(quad8, SchemeParams(dt=1e-2, t_final=1e-2, kappa=0.1,
                                       potential=lambda x: -x[1]))
    base = 0.5 + rng.random(quad8.n_values)
    w = rng.standard_normal(quad8.n_values)
    solver = LinearSolver()
    solves = served = last = 0
    refreshed_by_rule = []
    for k in range(40):
        u = base * np.exp(2e-3 * k * w)
        b = rng.standard_normal(quad8.n_values)
        tol_l1 = _l1_tolerance(b)
        a = asm.system_jacobian(asm.system_vec(u, u)[1])
        before = solver.factorizations, solver.krylov_iterations
        price = solver.price
        x = linear_solve(a, b, solver, tol_l1)
        refreshed = solver.factorizations - before[0]
        cycle = solver.krylov_iterations - before[1]
        if k == 0 or last > Fraction(price + served, solves):
            assert (cycle, refreshed) == (0, 1), k
            assert np.array_equal(x, linear_solve(a, b))
            refreshed_by_rule.append(k)
            solves, served, last = 1, 0, 0
        else:
            assert 0 < cycle <= GMRES_RESTART and refreshed == 0, k
            assert _within(a, x, b, tol_l1)
            solves, served, last = solves + 1, served + cycle, cycle
        assert (solver.solves, solver.served, solver.last) == (solves, served,
                                                               last)
    # the first factorization and at least two refreshes by the rule
    assert len(refreshed_by_rule) >= 3
    # the inequality is strict: at equality the factor serves one more cycle
    price = solver.price
    for last, refreshes in ((price, 0), (price + 1, 1)):
        solver.solves, solver.served, solver.last = 1, 0, last
        before = solver.factorizations
        linear_solve(a, b, solver, tol_l1)
        assert solver.factorizations - before == refreshes


def test_factor_price_is_a_function_of_the_factor_fill():
    # each factorization is priced round(PRICE_SCALE sqrt(nnz / N)) GMRES
    # iterations from SuperLU's fill count: 20 on quad n=16 (N = 609, the
    # size the constant is anchored at), more on kershaw n=64 (N = 8577);
    # Jacobians at other states of the same run have the same fill, so
    # their factors have the same price
    prices = []
    for primal in (gen_quad_fvca(16, 0.1), gen_kershaw(64)):
        mesh = build_ddfv(primal)
        solver = LinearSolver()
        assert solver.price == 0
        seen = set()
        for seed in range(2):
            a = _jacobians(mesh, np.random.default_rng(seed), 1, 0.5)[0]
            linear_solve(a, np.ones(mesh.n_values), solver)
            assert solver.price == round(
                PRICE_SCALE * math.sqrt(solver.factor.nnz / mesh.n_values))
            seen.add(solver.price)
        assert solver.factorizations == 2 and len(seen) == 1
        prices.append(solver.price)
    assert prices[0] == 20 and prices[1] > 20


def test_linear_solver_keeps_the_last_answers_as_copies(quad8, rng):
    # the history starts empty, holds copies of the accepted answers,
    # newest first, and never more than PROJECTION_DEPTH of them
    solver = LinearSolver()
    assert solver.history == []
    answers = []
    for a in _jacobians(quad8, rng, 6, 0.01):
        x = linear_solve(a, rng.standard_normal(a.shape[0]), solver)
        answers.insert(0, x)
        kept = answers[:PROJECTION_DEPTH]
        assert len(solver.history) == len(kept) <= PROJECTION_DEPTH
        for h, x in zip(solver.history, kept):
            assert np.array_equal(h, x) and h is not x
    # an answer of another size replaces them all
    linear_solve(sp.identity(3, format="csr"), np.ones(3), solver)
    assert len(solver.history) == 1 and solver.history[0].shape == (3,)


def test_projected_start_answers_a_right_hand_side_in_the_span(quad8, rng):
    # b = A (x1 - 2 x2) lies in the span of A times the stored answers, so
    # the stored answers alone leave a residual at rounding level and the
    # cycle returns before its first LU solve
    a0, a1 = _jacobians(quad8, rng, 2, 0.05)
    solver = LinearSolver()
    for _ in range(2):
        linear_solve(a0, rng.standard_normal(a0.shape[0]), solver)
    b = a1 @ (solver.history[1] - 2.0 * solver.history[0])
    before = solver.krylov_iterations, solver.factorizations
    tol_l1 = _l1_tolerance(b)
    x = linear_solve(a1, b, solver, tol_l1)
    assert solver.krylov_iterations == before[0]
    assert solver.factorizations == before[1]
    assert _within(a1, x, b, tol_l1)
    assert np.linalg.norm(a1 @ x - b) <= 1e-13 * np.linalg.norm(b)


def test_projection_stops_at_an_answer_in_the_span_of_newer_ones(quad8,
                                                                   rng):
    # a repeated answer adds nothing but rounding to the span of the newer
    # ones, so it and every older one are left out of the start; so is
    # every answer after a zero one
    a0, a1 = _jacobians(quad8, rng, 2, 0.05)
    x, z = rng.standard_normal((2, a0.shape[0]))
    b = rng.standard_normal(a0.shape[0])
    tol_l1 = _l1_tolerance(b)
    solver = LinearSolver()
    linear_solve(a0, b, solver)

    def answer(history):
        solver.history = history
        solver.solves, solver.served, solver.last = 1, 0, 0
        got = solver.krylov(a1, b, tol_l1)
        assert got is not None and solver.last > 0
        return got

    alone = answer([x])
    assert np.array_equal(answer([x, 3.0 * x, z]), alone)
    # an independent answer is used
    assert not np.array_equal(answer([x, z]), alone)
    assert np.array_equal(answer([np.zeros(a0.shape[0]), x]), answer([]))


def test_projected_answers_are_checked_on_the_full_right_hand_side(
        quad8, rng, monkeypatch):
    # A cycle answer off by a relative 1e-6 misses the l1 bound on the full
    # b, so it is rejected and the matrix is factorized and solved
    # directly.  The same answer unchanged is accepted.
    a0, a1 = _jacobians(quad8, rng, 2, 0.05)
    b = rng.standard_normal(a0.shape[0])
    tol_l1 = _l1_tolerance(b)
    krylov = LinearSolver.krylov
    for lie, factorizations in ((True, 2), (False, 1)):
        solver = LinearSolver()
        linear_solve(a0, rng.standard_normal(a0.shape[0]), solver)

        def claimed(self, matrix, rhs, tol_l1=0.0):
            x = krylov(self, matrix, rhs, tol_l1)
            assert x is not None and x.any()
            return x * (1.0 + 1e-6) if lie else x

        monkeypatch.setattr(LinearSolver, "krylov", claimed)
        x = linear_solve(a1, b, solver, tol_l1)
        monkeypatch.undo()
        assert solver.factorizations == factorizations
        if lie:
            assert np.array_equal(x, linear_solve(a1, b))
        else:
            assert _within(a1, x, b, tol_l1)


def test_cycle_answer_is_right_preconditioned_gmres_from_the_projection(
        quad8, rng):
    # The reference, built densely: x0 is the least-squares fit of b by
    # A V over the stored answers V, and the cycle's answer after its m LU
    # solves minimises |b - A x|_2 over x0 + M^-1 K_m(A M^-1, r0), with
    # r0 = b - A x0 and M^-1 v = factor.solve(v / row_max), the Krylov
    # space spanned by a plain Arnoldi loop
    a0, a1 = _jacobians(quad8, rng, 2, 0.2)
    solver = LinearSolver()
    linear_solve(a0, rng.standard_normal(a0.shape[0]), solver)
    solver.history = list(rng.standard_normal((PROJECTION_DEPTH,
                                               a0.shape[0])))
    b = rng.standard_normal(a0.shape[0])
    x = solver.krylov(a1, b, 1e-8 * np.abs(b).sum())
    m = solver.last
    assert x is not None and 1 < m <= GMRES_RESTART

    dense = a1.toarray()
    v = np.array(solver.history).T
    x0 = v @ np.linalg.lstsq(dense @ v, b, rcond=None)[0]
    r0 = b - dense @ x0
    basis = [r0 / np.linalg.norm(r0)]
    z = []
    for _ in range(m):
        z.append(solver.factor.solve(basis[-1] / solver.row_max))
        w = dense @ z[-1]
        for q in basis:
            w -= (q @ w) * q
        basis.append(w / np.linalg.norm(w))
    z = np.array(z).T
    expected = x0 + z @ np.linalg.lstsq(dense @ z, r0, rcond=None)[0]
    assert np.abs(x - expected).max() <= 1e-9 * np.abs(expected).max()


def test_simulate_starts_each_run_with_an_empty_history(quad8, monkeypatch):
    # one LinearSolver per run: its first solve sees no stored answers,
    # and no solve sees more than PROJECTION_DEPTH
    seen = []
    linear = solver_mod.linear_solve

    def spy(matrix, rhs, solver=None, tol_l1=0.0):
        seen.append((solver, len(solver.history)))
        return linear(matrix, rhs, solver, tol_l1)

    monkeypatch.setattr(solver_mod, "linear_solve", spy)
    case = exact_decay_case()
    params = SchemeParams(dt=1e-3, t_final=0.01, potential=case.potential)
    u0 = project_initial(quad8, case.u0)
    for _ in range(2):
        simulate(quad8, params, u0)
    runs = []
    for solver, depth in seen:
        if not runs or solver is not runs[-1][0]:
            runs.append((solver, []))
        runs[-1][1].append(depth)
    assert len(runs) == 2
    for _, depths in runs:
        assert depths[0] == 0
        assert max(depths) == PROJECTION_DEPTH


def test_inner_tolerance_follows_the_forcing_term():
    tol = NewtonConfig().tol_residual_l1
    floor = INNER_ETA * tol
    # near convergence: INNER_ETA times the Newton tolerance, up to where
    # FORCING_SLOPE l1**2 reaches it (l1 = 3.16e-4)
    knee = math.sqrt(floor / FORCING_SLOPE)
    for l1 in (0.0, 1e-10, 1e-6, 3e-4, 0.999 * knee):
        assert inner_tolerance(l1, tol) == floor
    # in between: eta = FORCING_SLOPE l1
    for l1 in (1e-3, 1.0, 82.0):
        assert inner_tolerance(l1, tol) == pytest.approx(
            FORCING_SLOPE * l1 * l1, rel=1e-15)
    # far from the root: eta = FORCING_MAX
    cap = FORCING_MAX / FORCING_SLOPE
    for l1 in (cap, 1e4, 1e8):
        assert inner_tolerance(l1, tol) == pytest.approx(FORCING_MAX * l1,
                                                         rel=1e-15)


def test_newton_sizes_each_inner_solve_to_its_residual(quad8, monkeypatch):
    tols = []
    linear = solver_mod.linear_solve

    def spy(matrix, rhs, solver=None, tol_l1=0.0):
        tols.append((tol_l1, float(np.abs(rhs).sum())))
        return linear(matrix, rhs, solver, tol_l1)

    monkeypatch.setattr(solver_mod, "linear_solve", spy)
    case = exact_decay_case()
    params = SchemeParams(dt=4e-3, t_final=8e-3, potential=case.potential)
    simulate(quad8, params, project_initial(quad8, case.u0))
    tol = params.newton.tol_residual_l1
    assert all(t == inner_tolerance(l1, tol) for t, l1 in tols)
    # the transient first steps get looser solves than near convergence
    assert max(t for t, _ in tols) > 1e3 * INNER_ETA * tol


def test_linear_solver_singular_matrix():
    solver = LinearSolver()
    linear_solve(sp.identity(2, format="csr"), np.array([1.0, 1.0]), solver)
    a = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(SingularMatrix):
        linear_solve(a, np.array([1.0, 0.0]), solver)
    a = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularMatrix):
        linear_solve(a, np.array([1.0, 2.0]), solver)


@pytest.mark.parametrize("pivot", [0.0, 1e-14])
def test_linear_solve_takes_off_diagonal_pivots(pivot, rng):
    # 2x2 swap blocks [[pivot, 4], [4, pivot]] inside a diagonally dominant
    # tridiagonal system: the diagonal pivot fails the 0.1 threshold there,
    # so the factorization must pivot off the diagonal
    n = 40
    a = 4.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    for i in range(0, n, 8):
        a[i, i] = a[i + 1, i + 1] = pivot
        a[i, i + 1] = a[i + 1, i] = 4.0
    a = sp.csr_matrix(a)
    b = rng.standard_normal(n)
    solver = LinearSolver()
    for x in (linear_solve(a, b), linear_solve(a, b, solver)):
        assert _backward_error(a, x, b) <= DIRECT_BOUND
    assert solver.factorizations == 1


def test_factor_fill_below_partial_pivoting():
    # the symmetric ordering keeps L + U at most 0.8 times the fill of
    # SuperLU's defaults (COLAMD with partial pivoting) on kershaw n=32
    mesh = build_ddfv(gen_kershaw(32))
    case = exact_decay_case()
    params = SchemeParams(dt=1e-3, t_final=1e-3, potential=case.potential)
    asm = Assembly(mesh, params)
    u = _seed_boundary_zeros(mesh, asm, project_initial(mesh, case.u0))
    jac = asm.system_jacobian(asm.system_vec(u, u)[1])
    row_max = abs(jac).max(axis=1).toarray().ravel()
    scaled = (sp.diags(1.0 / row_max) @ jac).tocsr()
    factor = LinearSolver().refactor(scaled, row_max)
    default = spla.splu(scaled.tocsc())
    assert factor.L.nnz + factor.U.nnz <= 0.8 * (default.L.nnz + default.U.nnz)


# --- newton --------------------------------------------------------------------


def _scalar_system(root):
    # residual r_i(u) = u_i**2 - root_i**2 has a positive root at root_i;
    # the Jacobian reads u itself as the state
    def residual(u):
        return u * u - root * root, u

    def jac(u):
        return sp.diags(2.0 * u).tocsr()

    return residual, jac


def _recording(residual):
    """``residual`` and the list of the l1 norms of its values, one per
    call: Newton's residual history."""
    history = []

    def recorded(u):
        res, state = residual(u)
        history.append(float(np.abs(res).sum()))
        return res, state

    return recorded, history


def test_newton_exact_root_returns_immediately():
    root = np.array([1.0, 2.0, 0.5])
    res, jac = _scalar_system(root)
    u, stats = newton_solve(res, jac, root, NewtonConfig())
    assert stats.iterations == 0
    assert not stats.floor_activated
    assert np.array_equal(u, root)


def test_newton_quadratic_convergence_ratio():
    root = np.full(4, 2.0)
    res, jac = _scalar_system(root)
    res, hist = _recording(res)
    u, stats = newton_solve(res, jac, np.full(4, 3.0),
                            NewtonConfig(tol_residual_l1=1e-13))
    # asymptotically r_{k+1} <= C * r_k**2 for some moderate constant
    ratios = [hist[k + 1] / hist[k] ** 2 for k in range(1, len(hist) - 1)
              if hist[k] > 1e-8]
    assert max(ratios) < 10.0


def test_newton_floor_and_positivity_backtracking():
    root = np.array([1.0, 1.0])
    res, jac = _scalar_system(root)
    u, stats = newton_solve(res, jac, np.array([0.0, 3.0]),
                            NewtonConfig())
    assert stats.floor_activated
    assert (u > 0).all()

    # a full step from u=3 for r = u**2 - 1 stays positive, but a crafted
    # residual with a far negative Newton target must backtrack: from u=1
    # the update is -(1 + shift), and exactly 40 halvings keep u positive
    # for a shift of 1e12, 67 for a shift of 1e20
    def jac(u):
        return sp.identity(len(u), format="csr")

    with pytest.raises(NoConvergence):
        newton_solve(lambda u: (u + 1e12, u), jac, np.array([1.0]),
                     NewtonConfig(max_iter=1))
    with pytest.raises(PositivityBacktrackExhausted, match="after 40 halvings"):
        newton_solve(lambda u: (u + 1e20, u), jac, np.array([1.0]),
                     NewtonConfig())


def test_newton_starts_from_the_fallback_with_smaller_residual():
    root = np.array([1.0, 2.0, 0.5])
    res, jac = _scalar_system(root)
    far = np.full(3, 3.0)

    def l1(u):
        return float(np.abs(res(u)[0]).sum())

    u, stats = newton_solve(res, jac, far, NewtonConfig(),
                            fallback=(root, l1(root)))
    assert stats.iterations == 0 and np.array_equal(u, root)
    # the start value wins ties and keeps its own iterates
    u, stats = newton_solve(res, jac, root, NewtonConfig(),
                            fallback=(root, l1(root)))
    assert stats.iterations == 0
    recorded, ref_history = _recording(res)
    ref = newton_solve(recorded, jac, 1.1 * root, NewtonConfig())
    recorded, history = _recording(res)
    u, stats = newton_solve(recorded, jac, 1.1 * root, NewtonConfig(),
                            fallback=(far, l1(far)))
    assert np.array_equal(u, ref[0])
    assert history == ref_history


def test_newton_no_convergence():
    root = np.full(3, 5.0)
    res, jac = _scalar_system(root)
    with pytest.raises(NoConvergence):
        newton_solve(res, jac, np.full(3, 100.0), NewtonConfig(max_iter=2))


def test_newton_first_step_reference_case(quad8):
    # first implicit step of the reference run on a coarse mesh, through
    # the driver (which seeds the zero boundary components)
    from ddfv.harness import exact_decay_case, simulate
    from ddfv.scheme import project_initial

    case = exact_decay_case()
    params = SchemeParams(dt=4e-3, t_final=4e-3, potential=case.potential)
    result = simulate(quad8, params, project_initial(quad8, case.u0))
    first = result.records[1]
    assert first.newton_iterations <= 12
    assert first.newton_residual < 1e-10
    assert first.min_u > 0.0
    assert not first.floor_activated


def test_newton_from_stationary_state_zero_iterations(quad8):
    params = SchemeParams(dt=1e-3, t_final=1e-3, potential=lambda x: -x[1])
    asm = Assembly(quad8, params)
    u_inf = stationary_state(quad8, asm.v, mass=2.0)
    u, stats = newton_solve(
        lambda x: asm.system_vec(x, u_inf),
        asm.system_jacobian, u_inf, params.newton,
    )
    assert stats.iterations <= 1
    assert stats.residual_l1 < 1e-10


def test_newton_deterministic(quad8, rng):
    params = SchemeParams(dt=1e-2, t_final=1e-2, potential=lambda x: -x[1])
    asm = Assembly(quad8, params)
    u_prev = 0.5 + rng.random(quad8.n_values)

    def solve():
        return newton_solve(
            lambda x: asm.system_vec(x, u_prev),
            asm.system_jacobian, u_prev, params.newton,
        )[0]

    assert np.array_equal(solve(), solve())


def test_newton_config_validation():
    with pytest.raises(ValidationError):
        NewtonConfig(tol_residual_l1=0.0)
    with pytest.raises(ValidationError):
        NewtonConfig(max_iter=0)


@pytest.mark.parametrize("kwargs", [
    {"tol_residual_l1": float("nan")},
    {"tol_residual_l1": float("inf")},
    {"tol_residual_l1": -1e-10},
])
def test_newton_config_rejects_bad_backtracks_and_floor(kwargs):
    with pytest.raises(ValidationError):
        NewtonConfig(**kwargs)


# --- factor reuse over a whole run ------------------------------------------------


@pytest.mark.parametrize("family, kappa", [("quad", 0.1), ("kershaw", 0.0)])
def test_simulate_reuse_matches_direct_path(family, kappa, monkeypatch):
    mesh = build_ddfv(gen_quad_fvca(16, 0.15) if family == "quad"
                      else gen_kershaw(16))
    case = exact_decay_case()
    params = SchemeParams(dt=2.5e-4, t_final=5e-3, kappa=kappa,
                          potential=case.potential)
    u0 = nodal_initial(mesh, case.u0)
    reuse_states, ref_states = [], []
    reuse = simulate(mesh, params, u0,
                     lambda rec, u_vec: reuse_states.append(u_vec))

    direct = solver_mod.linear_solve
    monkeypatch.setattr(solver_mod, "linear_solve",
                        lambda matrix, rhs, solver=None, tol_l1=0.0:
                        direct(matrix, rhs))
    ref = simulate(mesh, params, u0,
                   lambda rec, u_vec: ref_states.append(u_vec))

    assert ([r.newton_iterations for r in reuse.records]
            == [r.newton_iterations for r in ref.records])
    assert sum(r.factorizations for r in ref.records) == 0
    assert 1 <= sum(r.factorizations for r in reuse.records) \
        < sum(r.newton_iterations for r in reuse.records)
    assert len(reuse_states) == len(ref_states) == len(reuse.records)
    gap = max(np.abs(a - b).max()
              for a, b in zip(reuse_states, ref_states))
    assert gap <= 1e-13


def test_simulate_refactors_an_aged_factor(monkeypatch):
    # Quad n=16, dt=1e-3, kappa=0 for 100 steps.  A factor kept until a
    # 20-iteration cycle misses serves the whole run at about 15 GMRES
    # iterations per Newton iteration.  Refreshing the factor once its
    # last cycle costs more than its mean cost per solve, with cycles of
    # at most 8 iterations, keeps the mean at about 3.7 (2.8 with cycles
    # started from the projection on the last answers), with more than
    # one factorization but fewer than one per Newton iteration.
    mesh = build_ddfv(gen_quad_fvca(16, 0.1))
    case = exact_decay_case()
    params = SchemeParams(dt=1e-3, t_final=0.1, potential=case.potential)
    u0 = nodal_initial(mesh, case.u0)
    reuse = simulate(mesh, params, u0)
    newton = sum(r.newton_iterations for r in reuse.records)
    krylov = sum(r.krylov_iterations for r in reuse.records)
    assert len(reuse.records) == 101
    assert 0 < krylov <= 8 * newton
    assert 1 < sum(r.factorizations for r in reuse.records) < newton

    direct = solver_mod.linear_solve
    monkeypatch.setattr(solver_mod, "linear_solve",
                        lambda matrix, rhs, solver=None, tol_l1=0.0:
                        direct(matrix, rhs))
    ref = simulate(mesh, params, u0)
    assert ([r.newton_iterations for r in reuse.records]
            == [r.newton_iterations for r in ref.records])
    assert sum(r.krylov_iterations for r in ref.records) == 0


def test_simulate_counts_are_deterministic():
    # the refresh rule reads only counts, so a repeated run makes the same
    # factorizations and GMRES iterations on every step
    mesh = build_ddfv(gen_quad_fvca(16, 0.15))
    case = exact_decay_case()
    params = SchemeParams(dt=1e-3, t_final=0.05, kappa=0.1,
                          potential=case.potential)
    u0 = nodal_initial(mesh, case.u0)
    runs = [simulate(mesh, params, u0).records for _ in range(2)]
    counts = [[(r.newton_iterations, r.factorizations, r.krylov_iterations)
               for r in records] for records in runs]
    assert counts[0] == counts[1]
    assert sum(f for _, f, _ in counts[0]) > 1
