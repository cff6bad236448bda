"""Property tests over sampled configurations of the scheme.

One evaluation of a Newton iterate, the ``Iterate`` that the residual
returns, is shared by the Jacobian, the dissipation and the penalization
bracket at that iterate, and the residual guard of the time loop derives
F(u^n; u^n) from F(u^n; u^{n-1}) instead of evaluating it.  Both must give
the numbers of fresh, independent evaluations, on every configuration the
CLI accepts: any SPD tensor, kappa in [0, 10], beta in (0, 2), distorted
quad and kershaw meshes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ddfv.fields import TensorSpec
from ddfv.mesh import build_ddfv, gen_kershaw, gen_quad_fvca
from ddfv.scheme import Assembly, Iterate, SchemeParams

_pos = st.floats(0.1, 10.0)

tensors = st.one_of(
    st.builds(lambda l1, l2, angle: f"rotated:{l1!r},{l2!r},{angle!r}",
              _pos, _pos, st.floats(0.0, np.pi)),
    # a12 = rho sqrt(a11 a22) with |rho| < 1 keeps the matrix SPD
    st.builds(lambda a11, a22, rho:
              f"matrix:{a11!r},{rho * (a11 * a22) ** 0.5!r},{a22!r}",
              _pos, _pos, st.floats(-0.95, 0.95)),
)

meshes = st.one_of(
    st.builds(gen_quad_fvca, st.integers(3, 6),
              st.floats(0.0, 0.16, exclude_max=True)),
    # kershaw n=4 (and 2) has non-convex diamonds, which build_ddfv rejects
    st.builds(gen_kershaw, st.sampled_from([3, 5, 6, 8])),
)


@st.composite
def configurations(draw):
    mesh = build_ddfv(draw(meshes))
    slope = draw(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
    params = SchemeParams(
        dt=draw(st.floats(0.01, 1.0)), t_final=1.0,
        kappa=draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0))),
        beta=draw(st.floats(0.0, 2.0, exclude_min=True, exclude_max=True)),
        lam=TensorSpec.parse(draw(tensors)),
        potential=lambda x: slope[0] * x[0] + slope[1] * x[1],
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = 0.2 + rng.random(mesh.n_values) * draw(st.floats(0.1, 10.0))
    # the state a time step before: u within 10% of it
    u_prev = u * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, mesh.n_values))
    return mesh, params, u, u_prev


def _jacobian_parts(jac):
    return jac.data, jac.indices, jac.indptr


@settings(max_examples=25, deadline=None)
@given(configurations())
def test_shared_iterate_matches_fresh_evaluations(config):
    mesh, params, u, u_prev = config
    asm = Assembly(mesh, params)
    res, it = asm.system_vec(u, u_prev)
    shared = (res, asm.system_jacobian(it),
              asm.dissipation_vec(it), asm.penalty_bracket_vec(it))
    # fresh evaluations, each from its own copy of u on another Assembly
    other = Assembly(mesh, params)

    def fresh_iterate():
        return other.system_vec(u.copy(), u_prev)[1]

    fresh = (other.system_vec(u.copy(), u_prev)[0],
             other.system_jacobian(fresh_iterate()),
             other.dissipation_vec(fresh_iterate()),
             other.penalty_bracket_vec(fresh_iterate()))
    assert np.array_equal(shared[0], fresh[0])
    for a, b in zip(_jacobian_parts(shared[1]), _jacobian_parts(fresh[1])):
        assert np.array_equal(a, b)
    assert shared[2] == fresh[2]
    assert shared[3] == fresh[3]
    # the shared evaluation is unchanged by its readers
    assert np.array_equal(asm.system_vec(it.u, u_prev)[0], shared[0])
    unread = fresh_iterate()
    assert all(np.array_equal(getattr(it, part), getattr(unread, part))
               for part in Iterate.__slots__)


@settings(max_examples=25, deadline=None)
@given(configurations())
def test_derived_guard_residual_matches_a_fresh_one(config):
    mesh, params, u, u_prev = config
    asm = Assembly(mesh, params)
    derived = asm.next_step_vec(asm.system_vec(u, u_prev)[0], u, u_prev)
    fresh = asm.system_vec(u, u)[0]
    gap = np.abs(derived - fresh).sum()
    assert gap <= 1e-14 * np.abs(fresh).sum()
