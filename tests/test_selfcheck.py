"""The identities of ``ddfv check``, one test per check and seed, so that a
failure names its identity.  ``selfcheck`` is their only implementation."""

import numpy as np
import pytest

from ddfv import selfcheck


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("check", selfcheck.CHECKS, ids=lambda c: c.__name__)
def test_property_check(check, seed):
    result = check(np.random.default_rng(seed))
    assert result.passed, result.line()


@pytest.mark.parametrize("seed", [0, 42])
def test_jacobian_check_sees_a_tiny_scaling(seed, monkeypatch):
    # J * (1 + 1e-9) is far inside the difference quotients' 1e-6
    # tolerance; the homogeneity identity J(u) u = R(u; 0) - P(u) sees it
    from ddfv.scheme import Assembly

    exact = Assembly.system_jacobian

    def scaled(self, u):
        jac = exact(self, u)
        jac.data *= 1.0 + 1e-9
        return jac

    monkeypatch.setattr(Assembly, "system_jacobian", scaled)
    result = selfcheck.check_jacobian_fd(np.random.default_rng(seed))
    assert not result.passed, result.line()
    # the FAIL line names the identity's defect, not only the quotients'
    line = result.line()
    assert line.startswith("FAIL")
    assert float(line.rsplit("homogeneity defect ", 1)[1]) > 1e-12, line


def test_partition_check_sees_areas_scaled_together(monkeypatch):
    # every area scaled alike keeps the four sums equal to each other and
    # the quarter splits exact; only the area the boundary encloses shows it
    import dataclasses

    meshes = selfcheck._meshes()
    areas = ("cell_areas", "dual_areas", "diamond_area", "overlap_area",
             "wedges")
    scaled = [(name, dataclasses.replace(
        mesh, **{a: getattr(mesh, a) * 1.001 for a in areas}))
        for name, mesh in meshes]
    monkeypatch.setattr(selfcheck, "_meshes", lambda: scaled)
    result = selfcheck.check_partitions(np.random.default_rng(0))
    assert not result.passed, result.line()
    assert result.line().endswith("worst relative defect 1.00e-03")
