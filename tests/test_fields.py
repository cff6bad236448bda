import numpy as np
import pytest

from ddfv.errors import NotSPD, ValidationError
from ddfv.fields import TensorSpec, eigenvalues
from ddfv.harness import simulate
from ddfv.operators import (
    bracket,
    grad_diamond,
    local_matrices,
    penalization_bracket,
)
from ddfv.scheme import (
    Assembly,
    SchemeParams,
    energy,
    relative_energy,
    stationary_state,
)
from oracles import diamond_tensors


def test_field_layout_and_views(quad5):
    u = np.zeros(quad5.n_values)
    interior, boundary, dual = quad5.parts(u)
    interior[:] = 1.0
    boundary[:] = 2.0
    dual[:] = 3.0
    assert u[0] == 1.0
    assert u[quad5.n_cells] == 2.0
    assert u[quad5.dual_offset - 1] == 2.0 and u[quad5.dual_offset] == 3.0
    assert u[-1] == 3.0
    assert np.array_equal(quad5.pack(*quad5.parts(u)), u)
    assert quad5.pack(*quad5.parts(u)) is not u


def test_field_shape_mismatch(quad5):
    with pytest.raises(ValidationError):
        quad5.parts(np.zeros(3))
    with pytest.raises(ValidationError):
        quad5.parts(np.zeros((quad5.n_values, 1)))
    with pytest.raises(ValidationError):
        quad5.pack(np.zeros(quad5.n_cells), np.zeros(1), np.zeros(quad5.n_verts))


_PARAMS = SchemeParams(dt=0.1, t_final=0.1)


def _jacobian(mesh, u, u_prev):
    asm = Assembly(mesh, _PARAMS)
    return asm.system_jacobian(asm.system_vec(u, u_prev)[1])


# Every public function that takes packed vectors, called with the bad
# vector x in one argument and a valid positive vector ok in the others.
# The residual is Newton's rows, Assembly.system_vec, and the Jacobian
# reads the Iterate that system_vec returns.
ENTRY_POINTS = {
    "simulate": lambda m, x, ok: simulate(m, _PARAMS, x),
    "residual_u": lambda m, x, ok: Assembly(m, _PARAMS).system_vec(x, ok),
    "residual_u_prev": lambda m, x, ok: Assembly(m, _PARAMS).system_vec(ok, x),
    "jacobian_u": lambda m, x, ok: _jacobian(m, x, ok),
    "jacobian_u_prev": lambda m, x, ok: _jacobian(m, ok, x),
    "bracket_u": lambda m, x, ok: bracket(m, x, ok),
    "bracket_v": lambda m, x, ok: bracket(m, ok, x),
    "penalization_bracket": lambda m, x, ok: penalization_bracket(m, ok, x, 1.0),
    "grad_diamond": lambda m, x, ok: grad_diamond(m, x),
    "stationary_state": lambda m, x, ok: stationary_state(m, x, 1.0),
    "energy_u": lambda m, x, ok: energy(m, x, ok),
    "energy_v": lambda m, x, ok: energy(m, ok, x),
    "relative_energy_u": lambda m, x, ok: relative_energy(m, x, ok),
    "relative_energy_u_inf": lambda m, x, ok: relative_energy(m, ok, x),
    "relative_energy_log_u_inf": lambda m, x, ok: relative_energy(m, ok, ok, x),
}


@pytest.mark.parametrize("shape", ["short", "long", "column", "row"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_reject_wrong_length(quad5, entry, shape):
    n = quad5.n_values
    x = np.ones({"short": n - 1, "long": n + 1, "column": (n, 1),
                 "row": (1, n)}[shape])
    with pytest.raises(ValidationError, match="does not match mesh"):
        ENTRY_POINTS[entry](quad5, x, np.ones(n))


def test_tensor_constant_and_rotated():
    t = TensorSpec.constant(np.array([[2.0, 0.5], [0.5, 1.0]]))
    lo, hi = np.linalg.eigvalsh(t.matrix)
    assert lo > 0 and hi > lo
    r = TensorSpec.rotated(4.0, 1.0, 0.3)
    evals = np.linalg.eigvalsh(r.matrix)
    assert evals == pytest.approx([1.0, 4.0], rel=1e-12)


def test_tensor_rejects_non_spd():
    with pytest.raises(NotSPD):
        TensorSpec.constant(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    with pytest.raises(NotSPD):
        TensorSpec.constant(np.array([[1.0, 0.3], [0.0, 1.0]]))  # asymmetric
    with pytest.raises(NotSPD):
        TensorSpec.rotated(-1.0, 2.0, 0.0)


def test_tensor_eigenvalues_match_eigvalsh_and_span_every_float(rng):
    angles = rng.uniform(0.0, np.pi, 200)
    c, s = np.cos(angles), np.sin(angles)
    rot = np.stack([np.stack([c, -s]), np.stack([s, c])]).transpose(2, 0, 1)
    lam = 10.0 ** rng.uniform(-3.0, 3.0, (200, 2))
    stack = rot @ (lam[:, :, None] * rot.transpose(0, 2, 1))
    stack = 0.5 * (stack + stack.transpose(0, 2, 1))
    lo, hi = eigenvalues(stack)
    ref = np.linalg.eigvalsh(stack)
    assert np.allclose(lo, ref[:, 0], rtol=1e-10, atol=0.0)
    assert np.allclose(hi, ref[:, 1], rtol=1e-13, atol=0.0)
    # where eigvalsh's rescaling underflows the small eigenvalue to 0
    lo, hi = eigenvalues(np.array([np.diag([1e-300, 1e300]),
                                   np.diag([1e300, 5e-324])]))
    assert lo.tolist() == [1e-300, 5e-324] and hi.tolist() == [1e300, 1e300]
    assert TensorSpec.parse("diag:1e-150,1e150").matrix[0, 0] == 1e-150


# an SPD tensor whose eigenvalue ratio is not a finite float names both
# eigenvalues (the largest one overflows in the last row)
@pytest.mark.parametrize("spec, pair", [
    ("diag:1e-300,1e300", "1.000e-300 and 1.000e+300"),
    ("diag:1,5e-324", "4.941e-324 and 1.000e+00"),
    ("matrix:1.7e308,1.5e308,1.7e308", "2.000e+307 and inf"),
])
def test_tensor_rejects_an_eigenvalue_ratio_beyond_floats(spec, pair):
    with pytest.raises(ValidationError) as err:
        TensorSpec.parse(spec)
    assert str(err.value) == (f"tensor eigenvalues {pair} have a ratio that "
                              f"is not a finite float")


def test_tensor_rejects_non_finite_entries(quad5):
    with pytest.raises(NotSPD, match=r"entry \(0, 1\) is not finite: nan"):
        TensorSpec.constant(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    spec = TensorSpec.from_callable(lambda x: np.diag([1.0, np.inf]))
    with pytest.raises(NotSPD, match=r"entry \(1, 1\) is not finite: inf"):
        spec.on_diamonds(quad5)
    with pytest.raises(NotSPD, match="angle is not finite: inf"):
        TensorSpec.rotated(1.0, 2.0, np.inf)


def test_tensor_parse():
    assert np.array_equal(TensorSpec.parse("identity").matrix, np.eye(2))
    d = TensorSpec.parse("diag:1,1e-2")
    assert d.matrix[1, 1] == pytest.approx(1e-2)
    r = TensorSpec.parse("rotated:2,1,0.5")
    assert np.trace(r.matrix) == pytest.approx(3.0)
    m = TensorSpec.parse("matrix:2,0.5,1")
    assert m.matrix[0, 1] == 0.5
    for bad in ("diag:1", "wat", "diag:a,b"):
        with pytest.raises(ValidationError):
            TensorSpec.parse(bad)


def test_tensor_callable_matches_constant(quad5):
    mat = np.array([[1.5, 0.2], [0.2, 0.8]])
    const = TensorSpec.constant(mat)
    var = TensorSpec.from_callable(lambda x: mat)
    assert np.allclose(var.on_diamonds(quad5), const.on_diamonds(quad5))
    evals = np.linalg.eigvalsh(var.on_diamonds(quad5))
    assert (evals.min(), evals.max()) == pytest.approx(
        tuple(np.linalg.eigvalsh(const.matrix)), rel=1e-12)


def test_tensor_callable_spatially_varying(quad5, rng):
    def lam(x):
        # one (2, 2, m) array for all m points
        s = 1.0 + 0.5 * x[0]
        one, zero = np.ones_like(s), np.zeros_like(s)
        return np.array([[s, zero], [zero, one]])

    spec = TensorSpec.from_callable(lam)
    mats = local_matrices(quad5, spec)
    assert (mats.a_edge > 0).all() and (mats.a_dual > 0).all()
    xi = rng.standard_normal((quad5.n_diamonds, 2))
    val = float(np.dot(quad5.diamond_area, np.einsum(
        "di,dij,dj->d", xi, spec.on_diamonds(quad5), xi)))
    lo, hi = 1.0, 1.5
    norm2 = float(np.dot(quad5.diamond_area,
                         np.einsum("ij,ij->i", xi, xi)))
    assert lo * norm2 <= val <= hi * norm2 * (1 + 1e-12)


def test_tensor_callable_is_called_once_on_all_diamonds(kershaw8):
    calls = []

    def lam(x):
        calls.append(np.shape(x))
        s = 1.0 + 0.5 * x[0] * x[1]
        c = 0.1 * np.sin(3.0 * x[0])
        return np.array([[s, c], [c, 2.0 + x[1]]])

    spec = TensorSpec.from_callable(lam)
    values = spec.on_diamonds(kershaw8)
    assert calls == [(2, kershaw8.n_diamonds)]
    assert values.shape == (kershaw8.n_diamonds, 2, 2)
    # the oracle calls the tensor per diamond, at the centroid of its
    # quadrilateral
    assert np.allclose(values, diamond_tensors(kershaw8, lam),
                       rtol=1e-13, atol=0.0)


def test_tensor_callable_must_broadcast_to_the_points(quad5):
    n = quad5.n_diamonds
    for bad in (lambda x: np.eye(3), lambda x: np.ones((2, 2, n + 1)),
                lambda x: np.ones(3)):
        with pytest.raises(NotSPD, match=r"2x2 matrix or broadcast to "
                                         rf"\(2, 2, {n}\)"):
            TensorSpec.from_callable(bad).on_diamonds(quad5)
    # a 2x2 matrix, and a (2, 2, 1) array, are broadcast to all points
    for good in (lambda x: np.eye(2), lambda x: np.eye(2)[:, :, None]):
        values = TensorSpec.from_callable(good).on_diamonds(quad5)
        assert np.array_equal(values, np.broadcast_to(np.eye(2), (n, 2, 2)))


def _loop_check_spd(mats):
    """The per-diamond check the batched one replaced: the (class, message)
    of the first failing tensor, or None."""
    for mat in mats:
        mat = np.asarray(mat, dtype=float)
        if not np.isfinite(mat).all():
            i, j = np.argwhere(~np.isfinite(mat))[0]
            return NotSPD, f"tensor entry ({i}, {j}) is not finite: {mat[i, j]}"
        if abs(mat[0, 1] - mat[1, 0]) > 1e-12 * (1.0 + abs(mat).max()):
            return NotSPD, "tensor is not symmetric"
        evals = np.linalg.eigvalsh(mat)
        if evals.min() <= 0.0:
            return NotSPD, f"tensor has nonpositive eigenvalue {evals.min():.3e}"
    return None


@pytest.mark.parametrize("bad", [
    np.array([[1.0, 0.0], [0.0, np.nan]]),      # non-finite
    np.array([[1.0, 0.3], [0.0, 1.0]]),         # symmetry
    np.array([[1.0, 2.0], [2.0, 1.0]]),         # eigenvalue -1
    np.array([[1.0, 2.0], [0.0, -1.0]]),        # symmetry and eigenvalue
    np.array([[1.0, np.inf], [0.0, -1.0]]),     # all three
])
def test_tensor_callable_reports_first_failing_diamond(kershaw8, rng, bad):
    # The tensor fails at the middle diamond, and with another kind of
    # failure at the next one: the batched check must report the middle
    # one, as the per-diamond loop did.
    n = kershaw8.n_diamonds
    mats = [np.diag(1.0 + rng.random(2)) for _ in range(n)]
    mats[n // 2] = bad
    mats[n // 2 + 1] = np.array([[1.0, 0.0], [0.0, -5.0]])
    old = _loop_check_spd(mats)
    assert old is not None

    # one call on all diamonds, tensor d at [:, :, d]
    spec = TensorSpec.from_callable(lambda x: np.array(mats).transpose(1, 2, 0))
    with pytest.raises(NotSPD) as err:
        spec.on_diamonds(kershaw8)
    assert (type(err.value), str(err.value)) == old
