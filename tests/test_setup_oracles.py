"""The array versions of the set-up layers against their loop versions.

The loop versions below are the element-by-element implementations the
array code replaced: edge building and validation of ``PrimalMesh``,
``build_ddfv``, the distorted-grid generators, the two projections and the
orientation pass of ``read_mesh``.
Integer arrays must match exactly.  Float arrays must agree to 1e-15
(relative for values above 1).  Most come out bit-identical; cell areas do
not, because the loop version took the shoelace area as a difference of
two dot products (which BLAS sums with fused multiply-adds) and the array
version as half the sum of the centroid's shoelace terms.  On invalid input
both versions must raise the same error with the same message.
"""

import re
import warnings

import numpy as np
import pytest

from ddfv.errors import (
    DDFVError,
    DegenerateCell,
    NegativeArea,
    NonConvexDiamond,
    NonManifoldEdge,
    ParseError,
    ValidationError,
)
from ddfv.harness import exact_decay_case
from ddfv.mesh import (
    _SIN_TOL,
    _PARAM_TOL,
    DDFVMesh,
    PrimalMesh,
    _validate_partitions,
    build_ddfv,
    cross2,
    gen_kershaw,
    gen_quad_fvca,
    gen_uniform_quad,
    read_mesh,
    triangle_area,
    write_mesh,
)
from ddfv.operators import div_discrete
from ddfv.scheme import project_initial, project_potential
from oracles import polygon_area, polygon_centroid, segment_intersection

FLOAT_TOL = 1e-15


def assert_agree(new, old, what):
    new, old = np.asarray(new), np.asarray(old)
    assert new.shape == old.shape, what
    if np.issubdtype(old.dtype, np.floating):
        gap = np.abs(new - old) / np.maximum(1.0, np.abs(old))
        assert gap.max(initial=0.0) <= FLOAT_TOL, (what, gap.max())
    else:
        assert np.array_equal(new, old), what


# --- loop versions ------------------------------------------------------------


def loop_primal(vertices, cells):
    """Cell checks and edge table: (edge keys in discovery order, incidence
    per key as (cell, va, vb) tuples, directed boundary edges)."""
    vertices = np.asarray(vertices, dtype=float)
    cells = [list(map(int, c)) for c in cells]
    for ci, loop in enumerate(cells):
        if len(loop) < 3:
            raise ValidationError(f"cell {ci} has fewer than 3 vertices")
        if len(set(loop)) != len(loop):
            raise ValidationError(f"cell {ci} repeats a vertex")
        if min(loop) < 0 or max(loop) >= len(vertices):
            raise ValidationError(f"cell {ci} references a missing vertex")
        if polygon_area(vertices[loop]) <= 0.0:
            raise NegativeArea(f"cell {ci} is not positively oriented")
    edge_order = []
    incidence = {}
    for ci, loop in enumerate(cells):
        for k in range(len(loop)):
            va, vb = loop[k], loop[(k + 1) % len(loop)]
            key = (va, vb) if va < vb else (vb, va)
            if key not in incidence:
                incidence[key] = []
                edge_order.append(key)
            incidence[key].append((ci, va, vb))
            if len(incidence[key]) > 2:
                raise NonManifoldEdge(f"edge {key} shared by more than two cells")
    parent = list(range(len(cells)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for key in edge_order:
        inc = incidence[key]
        if len(inc) == 2:
            parent[find(inc[0][0])] = find(inc[1][0])
    if cells and len({find(i) for i in range(len(cells))}) != 1:
        raise ValidationError("cells do not form a connected domain")
    used = {v for loop in cells for v in loop}
    for v in range(len(vertices)):
        if v not in used:
            raise ValidationError(f"vertex {v} belongs to no cell")
    boundary = [incidence[key][0][1:] for key in edge_order
                if len(incidence[key]) == 1]
    return edge_order, incidence, boundary


def loop_build_ddfv(primal):
    """The DDFVMesh of a valid primal mesh, built edge by edge."""
    verts = primal.vertices
    n_cells = primal.n_cells
    edge_keys, edge_cells, boundary = loop_primal(verts, primal.cells)
    cell_areas = np.array([polygon_area(verts[c]) for c in primal.cells])
    cell_centers = np.array([polygon_centroid(verts[c]) for c in primal.cells])
    bnd_edges = np.array(boundary, dtype=int).reshape(-1, 2)
    bnd_centers = 0.5 * (verts[bnd_edges[:, 0]] + verts[bnd_edges[:, 1]])
    bnd_index = {tuple(sorted(e)): i for i, e in enumerate(map(tuple, bnd_edges))}
    vertex_is_boundary = np.zeros(primal.n_vertices, dtype=bool)
    vertex_is_boundary[bnd_edges.ravel()] = True
    off = n_cells + len(bnd_edges)      # packed index of vertex 0

    names = ("corners", "dia_is_boundary", "cross_point", "edge_len",
             "dual_edge_len", "sin_angle", "diamond_area", "edge_normal",
             "dual_edge_normal", "wedges")
    dia = {name: [] for name in names}
    dual_areas = np.zeros(primal.n_vertices)
    overlaps = {}
    h = 0.0

    def add_overlap(cell, vert, area):
        overlaps[(cell, vert)] = overlaps.get((cell, vert), 0.0) + area

    for key in edge_keys:
        incident = edge_cells[key]
        ck = incident[0][0]
        if len(incident) == 2:
            cl_glob = incident[1][0]
            is_bnd = False
            xl = cell_centers[cl_glob]
        else:
            b = bnd_index[key]
            cl_glob = n_cells + b
            is_bnd = True
            xl = bnd_centers[b]
        xk = cell_centers[ck]
        va, vb = key
        if cross2(verts[vb] - verts[va], xl - xk) > 0.0:
            vk, vl = va, vb
        else:
            vk, vl = vb, va
        xvk, xvl = verts[vk], verts[vl]
        edge_vec = xvl - xvk
        dual_vec = xl - xk
        m_edge = float(np.hypot(*edge_vec))
        m_dual = float(np.hypot(*dual_vec))
        if m_edge == 0.0 or m_dual == 0.0:
            raise NonConvexDiamond(f"edge {key}: degenerate diamond")
        tau_e = edge_vec / m_edge
        tau_d = dual_vec / m_dual
        sin_a = float(cross2(tau_e, tau_d))
        if sin_a <= _SIN_TOL:
            raise NonConvexDiamond(
                f"edge {key}: sin(angle) = {sin_a:.3e} below tolerance")
        area = 0.5 * m_edge * m_dual * sin_a
        if is_bnd:
            xd = xl
        else:
            hit = segment_intersection(xk, xl, xvk, xvl)
            if hit is None:
                raise NonConvexDiamond(f"edge {key}: parallel primal/dual edges")
            t, s, xd = hit
            if not (-_PARAM_TOL <= t <= 1 + _PARAM_TOL
                    and -_PARAM_TOL <= s <= 1 + _PARAM_TOL):
                raise NonConvexDiamond(
                    f"edge {key}: primal and dual edges do not cross")
        wvk = triangle_area(xvk, xk, xl)
        wvl = triangle_area(xvl, xk, xl)
        if is_bnd:
            wck, wcl = area, 0.0
        else:
            wck = triangle_area(xk, xvk, xvl)
            wcl = triangle_area(xl, xvk, xvl)
            if min(wck, wcl) <= 0.0 or abs(wck + wcl - area) > 1e-9 * area:
                raise NegativeArea(f"edge {key}: invalid primal quarter split")
        if min(wvk, wvl) <= 0.0 or abs(wvk + wvl - area) > 1e-9 * area:
            raise NegativeArea(f"edge {key}: invalid dual quarter split")
        dual_areas[vk] += wvk
        dual_areas[vl] += wvl
        add_overlap(ck, vk, triangle_area(xk, xd, xvk))
        add_overlap(ck, vl, triangle_area(xk, xd, xvl))
        if not is_bnd:
            add_overlap(cl_glob, vk, triangle_area(xl, xd, xvk))
            add_overlap(cl_glob, vl, triangle_area(xl, xd, xvl))
        corners = np.array([xk, xvk, xl, xvl])
        h = max([h] + [float(np.hypot(*(corners[i] - corners[j])))
                       for i in range(4) for j in range(i + 1, 4)])
        for name, value in zip(names, (
                (ck, cl_glob, off + vk, off + vl), is_bnd, xd, m_edge, m_dual,
                sin_a, area, np.array([-tau_e[1], tau_e[0]]),
                np.array([tau_d[1], -tau_d[0]]), (wck, wcl, wvk, wvl))):
            dia[name].append(value)

    ov_keys = sorted(overlaps)
    out = {name: np.array(values) for name, values in dia.items()}
    out["corners"], out["wedges"] = out["corners"].T, out["wedges"].T
    out.update(primal=primal,
        nodes=np.vstack([cell_centers, bnd_centers, verts]),
        cell_areas=cell_areas, h=h,
        vertex_is_boundary=vertex_is_boundary, dual_areas=dual_areas,
        overlaps=np.array([[k[0] for k in ov_keys],
                           [off + k[1] for k in ov_keys]], dtype=int),
        overlap_area=np.array([overlaps[k] for k in ov_keys]),
    )
    mesh = DDFVMesh(**out)
    _validate_partitions(cell_areas.sum(), mesh.diamond_area, mesh.dual_areas,
                         mesh.overlap_area)
    return mesh


def loop_distorted_quad(n, displace):
    """Uniform grid moved vertex by vertex with ``displace(i, j, point)``."""
    xs = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    def vid(i, j):
        return j * (n + 1) + i

    cells = [[vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)]
             for j in range(n) for i in range(n)]
    for idx in range(len(vertices)):
        i, j = idx % (n + 1), idx // (n + 1)
        vertices[idx] = displace(i, j, vertices[idx])
    for ci, loop in enumerate(cells):
        if polygon_area(vertices[loop]) <= 0.0:
            raise DegenerateCell(f"cell {ci} inverted under distortion")
    return vertices, cells


def loop_quad_fvca(n, amplitude):
    def displace(i, j, p):
        d = amplitude * np.sin(2 * np.pi * p[0]) * np.sin(2 * np.pi * p[1])
        return p + d

    return loop_distorted_quad(n, displace)


def loop_kershaw(n, distortion=0.8):
    half = (n + 1) // 2

    def displace(i, j, p):
        if i == 0 or i == n:
            return p
        zig = (0.0, 1.0, 0.0, -1.0)[i % 4]
        prof = min(j, n - j) / half
        return np.array([p[0], (j + distortion * zig * prof) / n])

    return loop_distorted_quad(n, displace)


def loop_project_potential(mesh, potential):
    nc, off = mesh.n_cells, mesh.dual_offset
    return np.concatenate([
        [float(potential(x)) for x in mesh.nodes[:nc]],
        [float(potential(x)) for x in mesh.nodes[nc:off]],
        [float(potential(x)) for x in mesh.primal.vertices],
    ])


def loop_project_initial(mesh, u0):
    """Interior and dual cell means, integrated triangle by triangle."""
    verts = mesh.primal.vertices
    interior = np.empty(mesh.n_cells)
    for ci, loop in enumerate(mesh.primal.cells):
        pts = verts[loop]
        c = polygon_centroid(pts)
        acc = 0.0
        area = 0.0
        for k in range(len(loop)):
            a, b = pts[k], pts[(k + 1) % len(loop)]
            w = 0.5 * ((a[0] - c[0]) * (b[1] - c[1]) - (a[1] - c[1]) * (b[0] - c[0]))
            acc += w * float(u0((a + b + c) / 3.0))
            area += w
        interior[ci] = acc / area
    centers = mesh.nodes
    acc = np.zeros(mesh.n_values)
    ck, cl, vk, vl = mesh.corners
    for d in range(mesh.n_diamonds):
        xk = centers[ck[d]]
        xl = centers[cl[d]]
        for vert, wedge in ((vk[d], mesh.wedges[2, d]),
                            (vl[d], mesh.wedges[3, d])):
            centroid = (centers[vert] + xk + xl) / 3.0
            acc[vert] += wedge * float(u0(centroid))
    return np.concatenate([interior, np.zeros(mesh.n_bnd),
                           acc[mesh.dual_offset:] / mesh.dual_areas])


def loop_div_discrete(mesh, xi):
    """Discrete divergence summed diamond by diamond, in four passes: the
    edge flux into cell k, out of cell l, the dual-edge flux into vertex
    k, out of vertex l."""
    ck, cl, vk, vl = mesh.corners
    flux_edge, flux_dual = [], []
    for d in range(mesh.n_diamonds):
        ne, nd = mesh.edge_normal[d], mesh.dual_edge_normal[d]
        flux_edge.append(mesh.edge_len[d] * (xi[d, 0] * ne[0] + xi[d, 1] * ne[1]))
        flux_dual.append(mesh.dual_edge_len[d] * (xi[d, 0] * nd[0] + xi[d, 1] * nd[1]))
    out = np.zeros(mesh.n_values)
    for index, flux, sign in ((ck, flux_edge, 1.0), (cl, flux_edge, -1.0),
                              (vk, flux_dual, 1.0), (vl, flux_dual, -1.0)):
        for d in range(mesh.n_diamonds):
            out[index[d]] += sign * flux[d]
    out[mesh.n_cells:mesh.dual_offset] = 0.0
    out[:mesh.n_cells] /= mesh.cell_areas
    out[mesh.dual_offset:] /= mesh.dual_areas
    return out


def loop_orient(vertices, cells):
    """Orientation pass of ``read_mesh``, cell by cell: the reoriented cells
    and the warning messages."""
    out, messages = [], []
    for i, loop in enumerate(cells):
        if polygon_area(vertices[loop]) < 0.0:
            messages.append(f"cell {i} was clockwise; reoriented")
            loop = loop[::-1]
        out.append(loop)
    return out, messages


# --- meshes ------------------------------------------------------------------


MIXED_MESH = """\
vertices 10
0 0
1 0
2 0
0 1
1.1 0.95
2 1
0 2
1 2
2 2
0.5 2.6
cells 5
4 0 1 4 3
3 1 2 5
3 1 5 4
4 4 5 8 7
5 3 4 7 9 6
"""


@pytest.fixture(scope="module")
def mixed_primal(tmp_path_factory):
    path = tmp_path_factory.mktemp("mesh") / "mixed.mesh"
    path.write_text(MIXED_MESH)
    return read_mesh(path)


@pytest.fixture
def primals(mesh_zoo, mixed_primal):
    out = [(name, mesh.primal) for name, mesh in mesh_zoo]
    out += [(name + " reversed", PrimalMesh(mesh.primal.vertices,
                                            mesh.primal.cells[::-1]))
            for name, mesh in mesh_zoo]
    out.append(("mixed", mixed_primal))
    out.append(("mixed reversed",
                PrimalMesh(mixed_primal.vertices, mixed_primal.cells[::-1])))
    return out


def test_mixed_mesh_has_triangles_quads_and_a_pentagon(mixed_primal):
    assert sorted(map(len, mixed_primal.cells)) == [3, 3, 4, 4, 5]


def test_primal_arrays_do_not_depend_on_how_the_cells_are_given(
        tmp_path, mixed_primal):
    # A generator's mesh, a file's mesh, the same loops as lists of ints or
    # tuples of numpy ints, and each written and read back: equal arrays.
    def arrays(primal):
        return {k: v for k, v in vars(primal).items()
                if isinstance(v, np.ndarray)}

    for name, primal in (("quad5", gen_quad_fvca(5, 0.1)),
                         ("kershaw8", gen_kershaw(8)),
                         ("mixed", mixed_primal)):
        path = tmp_path / f"{name}.mesh"
        write_mesh(primal, path)
        expected = arrays(primal)
        assert {"loop_vert", "loop_cell", "loop_next", "edges"} <= set(expected)
        for how, other in (
                ("lists", PrimalMesh(primal.vertices.tolist(),
                                     [list(c) for c in primal.cells])),
                ("tuples", PrimalMesh(primal.vertices, tuple(
                    tuple(np.array(c)) for c in primal.cells))),
                ("file", read_mesh(path))):
            got = arrays(other)
            assert got.keys() == expected.keys(), (name, how)
            for key, value in expected.items():
                assert got[key].dtype == value.dtype, (name, how, key)
                assert np.array_equal(got[key], value), (name, how, key)
            assert other.cells == primal.cells, (name, how)


# --- comparisons -------------------------------------------------------------


def test_edges_match_loop_version(primals):
    for name, primal in primals:
        keys, incidence, boundary = loop_primal(primal.vertices, primal.cells)
        assert_agree(primal.edges, np.array(keys), name)
        second = [inc[1][0] if len(inc) == 2 else -1
                  for inc in (incidence[k] for k in keys)]
        first = [incidence[k][0][0] for k in keys]
        assert_agree(primal.edge_cells, np.column_stack([first, second]), name)
        assert_agree(primal.boundary_edges, np.array(boundary), name)


def test_build_ddfv_matches_loop_version(primals):
    for name, primal in primals:
        mesh = build_ddfv(primal)
        expected = loop_build_ddfv(primal)
        for field, value in vars(expected).items():
            if field != "primal":
                assert_agree(getattr(mesh, field), value, f"{name}: {field}")


@pytest.mark.parametrize("family, n, arg", [
    ("quad", 5, 0.1), ("quad", 16, 0.15), ("kershaw", 8, 0.8),
    ("kershaw", 13, 0.5),
])
def test_generators_match_loop_version(family, n, arg):
    gen, loop = {"quad": (gen_quad_fvca, loop_quad_fvca),
                 "kershaw": (gen_kershaw, loop_kershaw)}[family]
    primal = gen(n, arg)
    vertices, cells = loop(n, arg)
    assert_agree(primal.vertices, vertices, family)
    assert primal.cells == cells


def test_generator_inversion_matches_loop_version():
    old = outcome(lambda: loop_quad_fvca(8, 0.2))
    assert old[0] is DegenerateCell
    assert outcome(lambda: gen_quad_fvca(8, 0.2)) == old


def test_projections_match_loop_version(primals):
    case = exact_decay_case()
    bump = lambda x: 1.0 + 0.5 * np.cos(np.pi * x[0]) * np.sin(2.0 * x[1])
    for name, primal in primals:
        mesh = build_ddfv(primal)
        for u0 in (case.u0, bump):
            assert_agree(project_initial(mesh, u0),
                         np.clip(loop_project_initial(mesh, u0), 0.0, None), name)
        assert_agree(project_potential(mesh, case.potential),
                     loop_project_potential(mesh, case.potential), name)


def test_div_discrete_matches_loop_version(primals, rng):
    # the flux sums of both versions add in the same order: equal bits
    for name, primal in primals:
        mesh = build_ddfv(primal)
        xi = rng.standard_normal((mesh.n_diamonds, 2))
        assert np.array_equal(div_discrete(mesh, xi),
                              loop_div_discrete(mesh, xi)), name


SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]
FAN = [(0, 0), (1, 0), (0, 1), (1, 1), (1, 2), (0.5, 2)]

BAD_PRIMALS = {
    "short cell": (SQUARE, [[0, 1, 2, 3], [0, 1]]),
    "empty cell": (SQUARE, [[0, 1, 2, 3], []]),
    "repeated vertex": (SQUARE, [[0, 1, 2, 2]]),
    "missing vertex": (SQUARE, [[0, 1, 2, 7]]),
    "negative vertex": (SQUARE, [[0, 1, 2, -1]]),
    "clockwise": (SQUARE, [[0, 3, 2, 1]]),
    "clockwise before short": (SQUARE, [[0, 3, 2, 1], [0, 1]]),
    "short before clockwise": (SQUARE, [[0, 1], [0, 3, 2, 1]]),
    "missing before clockwise": (SQUARE, [[0, 1, 9], [0, 3, 2, 1]]),
    "non-manifold": (FAN, [[0, 1, 2], [0, 1, 3], [0, 1, 5]]),
    # edge (0, 1) is met first, but (1, 2) gets its third cell first
    "two non-manifold edges": (
        FAN, [[0, 1, 2], [0, 1, 3], [1, 3, 2], [1, 4, 2], [0, 1, 5]]),
    "disconnected": (SQUARE + [(2, 0), (3, 0), (3, 1), (2, 1)],
                     [[0, 1, 2, 3], [4, 5, 6, 7]]),
    "unused vertex": (SQUARE + [(0.5, 0.5)], [[0, 1, 2, 3]]),
    # vertex 8 is unused too, but connectivity is checked first
    "disconnected before unused": (
        SQUARE + [(2, 0), (3, 0), (3, 1), (2, 1), (5, 5)],
        [[0, 1, 2, 3], [4, 5, 6, 7]]),
}


def outcome(build):
    """"ok", or the error's class and message with numbers to 12 digits
    (a failed partition check prints sums that differ in the last ulps)."""
    try:
        build()
    except DDFVError as exc:
        return type(exc), re.sub(r"\d+\.\d+(e[-+]?\d+)?",
                                 lambda m: f"{float(m.group()):.12g}", str(exc))
    return "ok"


@pytest.mark.parametrize("name", sorted(BAD_PRIMALS))
def test_primal_errors_match_loop_version(name):
    vertices, cells = BAD_PRIMALS[name]
    old = outcome(lambda: loop_primal(vertices, cells))
    assert old != "ok"
    assert outcome(lambda: PrimalMesh(vertices, cells)) == old


BAD_DIAMONDS = {
    # the segment joining the centroids misses the shared edge
    "non-crossing": ([(0, 0), (1, 0), (0.5, 1), (3, -0.2)],
                     [[0, 1, 2], [0, 3, 1]]),
    # a sliver triangle: its dual edges nearly parallel to its edges
    "sliver": ([(0, 0), (1, 0), (0.5, 1e-12), (0.5, -1)],
               [[0, 1, 2], [0, 3, 1]]),
}


@pytest.mark.parametrize("name", sorted(BAD_DIAMONDS))
def test_diamond_errors_match_loop_version(name):
    primal = PrimalMesh(*BAD_DIAMONDS[name])
    old = outcome(lambda: loop_build_ddfv(primal))
    assert old != "ok"
    assert outcome(lambda: build_ddfv(primal)) == old


def test_random_meshes_match_loop_version(rng):
    # Jittered grids in shuffled cell order, sometimes with a clockwise
    # cell: a mix of valid meshes, inverted cells, non-crossing diamonds
    # and failed partition checks.
    seen = set()
    for _ in range(200):
        n = int(rng.integers(2, 5))
        base = gen_uniform_quad(n)
        jitter = rng.choice([0.3, 0.5, 0.7]) / n
        vertices = base.vertices + jitter * rng.uniform(-1, 1, (len(base.vertices), 2))
        cells = [base.cells[i] for i in rng.permutation(n * n)]
        if rng.random() < 0.1:
            cells[0] = cells[0][::-1]
        old = outcome(lambda: (loop_primal(vertices, cells),
                               loop_build_ddfv(PrimalMesh(vertices, cells))))
        new = outcome(lambda: build_ddfv(PrimalMesh(vertices, cells)))
        assert new == old
        seen.add(old if old == "ok" else old[0])
    assert seen == {"ok", NegativeArea, NonConvexDiamond, ValidationError}


# --- mesh files --------------------------------------------------------------


def mesh_text(vertices, cells):
    lines = [f"vertices {len(vertices)}"]
    lines += [f"{float(x)!r} {float(y)!r}" for x, y in vertices]
    lines.append(f"cells {len(cells)}")
    lines += [" ".join(map(str, [len(c)] + list(c))) for c in cells]
    return "\n".join(lines) + "\n"


def read_with_warnings(path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mesh = read_mesh(path)
    return mesh, [str(w.message) for w in caught]


def test_read_mesh_orientation_matches_loop_version(tmp_path, rng, mixed_primal,
                                                    kershaw8):
    # Files with a random set of clockwise cells (at least one), each loop
    # started at a random vertex.
    for name, primal in (("mixed", mixed_primal), ("kershaw8", kershaw8.primal)):
        for trial in range(10):
            flip = rng.random(primal.n_cells) < 0.3
            flip[trial % primal.n_cells] = True
            cells = []
            for loop, f in zip(primal.cells, flip):
                loop = list(np.roll(loop, rng.integers(len(loop))))
                cells.append(loop[::-1] if f else loop)
            path = tmp_path / f"{name}_{trial}.mesh"
            path.write_text(mesh_text(primal.vertices, cells))
            mesh, messages = read_with_warnings(path)
            expected, expected_messages = loop_orient(primal.vertices, cells)
            assert mesh.cells == expected, name
            assert messages == expected_messages, name


def test_read_mesh_parse_error_after_clockwise_cell(tmp_path, mixed_primal):
    # The whole file is parsed before the orientation pass: the error
    # still names the line of the bad cell.
    cells = [c[::-1] for c in mixed_primal.cells]
    cells[3] = [0, 1, 99]
    path = tmp_path / "bad.mesh"
    path.write_text(mesh_text(mixed_primal.vertices, cells))
    with pytest.raises(ParseError, match="cell 3 references a missing vertex") as err:
        read_mesh(path)
    assert err.value.line == 1 + len(mixed_primal.vertices) + 1 + 4
