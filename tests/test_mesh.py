import math

import numpy as np
import pytest

from ddfv.errors import (
    DegenerateCell,
    NegativeArea,
    NonConvexDiamond,
    NonManifoldEdge,
    ParseError,
    ValidationError,
)
from ddfv.fields import TensorSpec
from ddfv.mesh import (
    PrimalMesh,
    build_ddfv,
    gen_kershaw,
    gen_quad_fvca,
    gen_uniform_quad,
    quality,
    read_mesh,
    write_mesh,
)
from oracles import dual_polygon, polygon_area


def test_uniform_interior_diamond_geometry():
    n = 4
    mesh = build_ddfv(gen_uniform_quad(n))
    inner = ~mesh.dia_is_boundary
    h = 1.0 / n
    assert np.allclose(mesh.edge_len[inner], h)
    assert np.allclose(mesh.dual_edge_len[inner], h)
    assert np.allclose(mesh.sin_angle[inner], 1.0)
    assert np.allclose(mesh.diamond_area[inner], h * h / 2.0)
    q = quality(mesh)
    assert np.allclose(q.theta[inner], 1.0)
    assert q.theta_interior_max == pytest.approx(1.0)


def test_diamond_partition_of_unit_square(mesh_zoo):
    for name, mesh in mesh_zoo:
        assert abs(mesh.diamond_area.sum() - 1.0) < 1e-12, name


def test_2x2_interior_dual_cell(uniform2):
    # The dual cell of the central vertex is the square through the four
    # cell centers: corners (0.25, 0.25) .. (0.75, 0.75), area 0.25.
    v = int(np.flatnonzero(
        (np.abs(uniform2.primal.vertices - 0.5) < 1e-14).all(axis=1)
    )[0])
    assert not uniform2.vertex_is_boundary[v]
    assert uniform2.dual_areas[v] == pytest.approx(0.25, abs=1e-14)
    poly = dual_polygon(uniform2, v)
    assert sorted(map(tuple, np.round(poly, 12))) == [
        (0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75),
    ]
    assert polygon_area(poly) == pytest.approx(0.25, abs=1e-14)


def test_quarter_diamond_consistency(mesh_zoo):
    # the quarter splits themselves are checked by `ddfv check`
    # (selfcheck.check_partitions)
    for name, mesh in mesh_zoo:
        # boundary convention: the degenerate cell carries no quarter
        assert (mesh.wedge_cell_l[mesh.dia_is_boundary] == 0.0).all()
        assert np.allclose(mesh.wedge_cell_k[mesh.dia_is_boundary],
                           mesh.diamond_area[mesh.dia_is_boundary])


def test_sin_angle_bounded_by_theta(mesh_zoo):
    for name, mesh in mesh_zoo:
        q = quality(mesh)
        assert (mesh.sin_angle >= 1.0 / q.theta - 1e-12).all(), name
        assert (q.theta >= 1.0 - 1e-14).all()
        assert (q.theta_tilde >= 1.0 - 1e-14).all()


def test_bases_unit_and_direct(mesh_zoo):
    for name, mesh in mesh_zoo:
        centers = mesh.primal_centers
        verts = mesh.primal.vertices
        # unit tangents from vertex k to vertex l and from cell k to cell l
        evec = verts[mesh.dia_vert_l] - verts[mesh.dia_vert_k]
        dvec = centers[mesh.dia_cell_l] - centers[mesh.dia_cell_k]
        tangent = evec / np.hypot(*evec.T)[:, None]
        dual_tangent = dvec / np.hypot(*dvec.T)[:, None]
        for arr in (mesh.edge_normal, mesh.dual_edge_normal):
            assert np.abs(np.hypot(arr[:, 0], arr[:, 1]) - 1.0).max() < 1e-12
        det1 = (tangent[:, 0] * mesh.edge_normal[:, 1]
                - tangent[:, 1] * mesh.edge_normal[:, 0])
        det2 = (mesh.dual_edge_normal[:, 0] * dual_tangent[:, 1]
                - mesh.dual_edge_normal[:, 1] * dual_tangent[:, 0])
        assert np.allclose(det1, 1.0) and np.allclose(det2, 1.0), name
        # normals point from cell k to cell l / vertex k to vertex l
        assert (np.einsum("ij,ij->i", mesh.edge_normal, dvec) > 0).all()
        assert (np.einsum("ij,ij->i", mesh.dual_edge_normal, evec) > 0).all()


# --- generators ----------------------------------------------------------


def test_gen_uniform_counts():
    m1 = gen_uniform_quad(1)
    assert m1.n_vertices == 4 and m1.n_cells == 1
    m2 = gen_uniform_quad(2)
    assert m2.n_vertices == 9 and m2.n_cells == 4
    m4 = gen_uniform_quad(4)
    assert len(m4.boundary_edges) == 16


def test_gen_quad_fvca_zero_amplitude_is_uniform():
    a = gen_quad_fvca(4, 0.0)
    b = gen_uniform_quad(4)
    assert np.allclose(a.vertices, b.vertices)
    assert a.cells == b.cells


def test_gen_quad_fvca_positive_areas():
    mesh = gen_quad_fvca(8, 0.1)
    for loop in mesh.cells:
        assert polygon_area(mesh.vertices[loop]) > 0.0
    q = quality(build_ddfv(mesh))
    assert math.isfinite(q.theta_star) and q.theta_star > 1.0


def test_gen_quad_fvca_rejects_inverting_amplitude():
    with pytest.raises(DegenerateCell):
        gen_quad_fvca(8, 0.2)
    with pytest.raises(ValidationError):
        gen_quad_fvca(8, 0.3)


def test_gen_kershaw_zero_distortion_is_uniform():
    a = gen_kershaw(8, 0.0)
    b = gen_uniform_quad(8)
    assert np.allclose(a.vertices, b.vertices)


def test_gen_kershaw_default_builds():
    mesh = build_ddfv(gen_kershaw(16))
    assert (mesh.sin_angle > 0.0).all()


def test_gen_kershaw_refinement_halves_h():
    h16 = build_ddfv(gen_kershaw(16)).h
    h32 = build_ddfv(gen_kershaw(32)).h
    assert abs(h16 / h32 - 2.0) < 0.05 * 2.0


# --- quality -------------------------------------------------------------


def test_quality_uniform_identity_condition(uniform4):
    from ddfv.operators import local_matrices

    q = quality(uniform4, TensorSpec.identity())
    mats = local_matrices(uniform4, TensorSpec.identity())
    inner = ~uniform4.dia_is_boundary
    assert np.allclose(mats.cond2()[inner], 1.0)
    assert q.cond2_max < q.cond2_bound


def test_quality_kershaw_matches_direct_evaluation(kershaw8):
    q = quality(kershaw8)
    mesh = kershaw8
    direct = 1.0
    for d in range(mesh.n_diamonds):
        r = mesh.edge_len[d] / mesh.dual_edge_len[d]
        theta = (r + 1.0 / r) / (2.0 * mesh.sin_angle[d])
        parts = [mesh.wedge_cell_k[d], mesh.wedge_vert_k[d],
                 mesh.wedge_vert_l[d]]
        if not mesh.dia_is_boundary[d]:
            parts.append(mesh.wedge_cell_l[d])
        theta_tilde = mesh.diamond_area[d] / min(parts)
        direct = max(direct, theta, theta_tilde)
    assert q.theta_star == pytest.approx(direct, rel=1e-12)


def test_quality_condition_bound_kershaw(kershaw8):
    # local quadratic-form matrices stay within the regularity-based bound
    lam = TensorSpec.rotated(1.0, 0.05, 0.3)
    q = quality(kershaw8, lam)
    assert q.cond2_max < q.cond2_bound
    assert q.cond_ok


def test_quality_calls_a_callable_tensor_once(kershaw8):
    # the condition numbers and the ellipticity bounds share one
    # evaluation of the tensor on the diamonds
    calls = []

    def lam(x):
        calls.append(x.shape)
        return np.array([[2.0 + x[0], 0.1 * x[1]],
                         [0.1 * x[1], np.ones_like(x[0])]])

    q = quality(kershaw8, TensorSpec.from_callable(lam))
    assert calls == [(2, kershaw8.n_diamonds)]
    assert q.cond_ok


# --- invalid meshes -------------------------------------------------------


def test_negative_area_rejected():
    verts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    with pytest.raises(NegativeArea):
        PrimalMesh(verts, [[0, 3, 2, 1]])  # clockwise


def test_non_manifold_edge_rejected():
    verts = [(0, 0), (1, 0), (0, 1), (0, -1), (-1, 0)]
    cells = [[0, 1, 2], [0, 3, 1], [0, 1, 4]]
    with pytest.raises((NonManifoldEdge, NegativeArea)):
        PrimalMesh(verts, cells)


def test_disconnected_mesh_rejected():
    verts = [(0, 0), (1, 0), (1, 1), (0, 1),
             (2, 0), (3, 0), (3, 1), (2, 1)]
    with pytest.raises(ValidationError):
        PrimalMesh(verts, [[0, 1, 2, 3], [4, 5, 6, 7]])


def test_non_crossing_diagonals_rejected():
    # second triangle is skewed so the segment joining the centroids
    # misses the shared edge
    verts = [(0, 0), (1, 0), (0.5, 1), (3, -0.2)]
    cells = [[0, 1, 2], [0, 3, 1]]
    with pytest.raises(NonConvexDiamond):
        build_ddfv(PrimalMesh(verts, cells))


# --- file I/O --------------------------------------------------------------


def test_write_read_round_trip(tmp_path):
    primal = gen_quad_fvca(3, 0.1)
    path = tmp_path / "m.mesh"
    write_mesh(primal, path)
    back = read_mesh(path)
    assert np.array_equal(back.vertices, primal.vertices)
    assert back.cells == primal.cells


def test_read_missing_vertex_reference(tmp_path):
    path = tmp_path / "bad.mesh"
    path.write_text("vertices 3\n0 0\n1 0\n0 1\ncells 1\n3 0 1 7\n")
    with pytest.raises(ParseError) as err:
        read_mesh(path)
    assert err.value.line == 6


@pytest.mark.parametrize("text, line", [
    ("vertices 3\n0 0\n1 0\n0 1\ncells 2\n3 0 1 2\n0\n", 7),
    ("vertices -3\n0 0\n1 0\n0 1\ncells 1\n3 0 1 2\n", 1),
    ("vertices 3\n0 0\n1 0\n0 1\ncells -1\n", 5),
    ("vertices 3\n0 0\n1 0\n0 1\ncells 0\n", 5),
], ids=["empty-cell", "negative-vertices", "negative-cells", "zero-cells"])
def test_read_bad_counts(tmp_path, text, line):
    path = tmp_path / "counts.mesh"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        read_mesh(path)
    assert err.value.line == line


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_vertex_rejected(tmp_path, value):
    primal = gen_quad_fvca(4, 0.1)
    vertices = primal.vertices.copy()
    vertices[7, 1] = value
    with pytest.raises(ValidationError, match="vertex 7 "):
        PrimalMesh(vertices, primal.cells)
    path = tmp_path / "nan.mesh"
    write_mesh(primal, path)
    lines = path.read_text().splitlines()
    lines[8] = f"{float(vertices[7, 0])!r} {value!r}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="vertex 7 "):
        read_mesh(path)


def test_mesh_without_cells_rejected():
    with pytest.raises(ValidationError, match="no cells"):
        PrimalMesh(np.zeros((3, 2)), [])


def test_read_reorients_clockwise_cell(tmp_path):
    path = tmp_path / "cw.mesh"
    path.write_text("vertices 4\n0 0\n1 0\n1 1\n0 1\ncells 1\n4 0 3 2 1\n")
    with pytest.warns(UserWarning, match="reoriented"):
        mesh = read_mesh(path)
    assert polygon_area(mesh.vertices[mesh.cells[0]]) > 0.0


def test_read_malformed_header(tmp_path):
    path = tmp_path / "hdr.mesh"
    path.write_text("points 3\n")
    with pytest.raises(ParseError):
        read_mesh(path)


def test_read_allows_comments(tmp_path):
    path = tmp_path / "c.mesh"
    path.write_text(
        "# a comment\nvertices 4\n0 0\n1 0\n# middle\n1 1\n0 1\n"
        "cells 1\n4 0 1 2 3\n"
    )
    mesh = read_mesh(path)
    assert mesh.n_cells == 1


def test_single_cell_mesh_builds():
    mesh = build_ddfv(gen_uniform_quad(1))
    assert mesh.n_cells == 1 and mesh.n_bnd == 4 and mesh.n_verts == 4
    assert abs(mesh.diamond_area.sum() - 1.0) < 1e-12


def test_mesh_arrays_immutable(uniform4):
    with pytest.raises(ValueError):
        uniform4.cell_areas[0] = 7.0
    with pytest.raises(ValueError):
        uniform4.edge_normal[0, 0] = 7.0
