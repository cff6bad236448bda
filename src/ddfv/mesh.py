"""Three-mesh structure for discrete-duality finite volumes.

A primal polygonal mesh of a 2D domain induces two companion meshes: a dual
mesh built around the vertices from the surrounding cell centers, and a
diamond mesh with one quadrilateral per edge (degenerating to a triangle on
the boundary).  ``build_ddfv`` assembles all three together with the
geometric quantities the scheme needs: edge lengths, unit normals,
diamond areas, quarter-diamond splits and cell/dual-cell overlap areas.
``PrimalMesh`` keeps its cells only as flat loop arrays.  The generators
distort a uniform grid by a family's vertex map; ``family_map`` checks a
family's arguments and returns that map without making the grid.

Conventions per diamond (one per primal edge, the rows of ``corners``):

* the primal edge runs between vertices ``vert_k`` and ``vert_l``;
* the dual edge runs between the centers of cells ``cell_k`` and ``cell_l``
  (``cell_k`` is always an interior cell; ``cell_l`` may be the degenerate
  boundary cell sitting on a boundary edge, indexed after the interior ones);
* ``edge_normal`` is the unit normal to the primal edge oriented from
  ``cell_k`` towards ``cell_l``; ``dual_edge_normal`` is the unit normal to
  the dual edge oriented from ``vert_k`` towards ``vert_l``;
* vertices are labeled so that, with the unit tangents t from ``vert_k``
  to ``vert_l`` and t* from ``cell_k`` to ``cell_l``, (t, edge_normal) and
  (dual_edge_normal, t*) are direct orthonormal bases.
"""

import inspect
import itertools
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateCell,
    NegativeArea,
    NonConvexDiamond,
    NonManifoldEdge,
    ParseError,
    ValidationError,
    raise_first,
)
from .operators import local_matrices

_SIN_TOL = 1e-10
_PARAM_TOL = 1e-12


def cross2(a, b):
    """z-component of the 2D cross product a x b."""
    return a[0] * b[1] - a[1] * b[0]


def triangle_area(a, b, c):
    """Unsigned area of the triangle (a, b, c)."""
    a = np.asarray(a, dtype=float)
    return 0.5 * abs(cross2(np.asarray(b) - a, np.asarray(c) - a))


def _loop_table(cells):
    """``loop_vert``, ``loop_start``, ``loop_cell`` and ``loop_next`` (see
    ``PrimalMesh``) of a sequence of vertex-index loops."""
    sizes = np.fromiter(map(len, cells), dtype=np.int64, count=len(cells))
    loop_start = np.concatenate([[0], np.cumsum(sizes)])
    loop_vert = np.fromiter(itertools.chain.from_iterable(cells),
                            dtype=np.int64, count=int(loop_start[-1]))
    full = sizes > 0
    nxt = np.arange(1, len(loop_vert) + 1)
    nxt[loop_start[1:][full] - 1] = loop_start[:-1][full]
    return (loop_vert, loop_start, np.repeat(np.arange(len(cells)), sizes),
            loop_vert[nxt])


def _shoelace(vertices, loop_vert, loop_next):
    """Loop entries, their successors and the shoelace terms
    x_i y_(i+1) - x_(i+1) y_i."""
    a, b = vertices[loop_vert], vertices[loop_next]
    return a, b, a[:, 0] * b[:, 1] - b[:, 0] * a[:, 1]


def _frame(vertices):
    """The binary exponent e of the largest |coordinate| and the vertices
    times 2^-e, all in (-1, 1); a non-finite vertex is a ValidationError.
    Scaling by 2^k is exact and commutes with rounding, so geometry
    computed in this frame, where it cannot overflow, and scaled back by
    ``np.ldexp`` has the same bits at every scale of the mesh."""
    bad = ~np.isfinite(vertices).all(axis=1)
    if bad.any():
        raise ValidationError(
            f"vertex {int(np.argmax(bad))} has a non-finite coordinate")
    e = int(np.frexp(np.abs(vertices).max(initial=0.0))[1])
    return e, np.ldexp(vertices, -e)


def _cell_sums(loop_cell, values, n_cells):
    """Sum of per-entry values over each cell's loop.

    ``np.bincount`` adds the entries in loop order starting from zero, as
    a loop over the cell's vertices does, so short loops give the same
    bits as that loop (``np.add.reduceat`` would not: it adds the first
    entry to the sum of the others).
    """
    return np.bincount(loop_cell, weights=values, minlength=n_cells)


def _signed_areas(vertices, loop_vert, loop_next, loop_cell, n_cells):
    _, _, w = _shoelace(vertices, loop_vert, loop_next)
    return 0.5 * _cell_sums(loop_cell, w, n_cells)


class PrimalMesh:
    """Polygonal partition of a connected 2D domain.

    Cells are vertex-index loops in counterclockwise order, given as a
    sequence of sequences of vertex indices and stored only as arrays: the
    loops back to back in ``loop_vert``, cell c's entries at
    ``loop_start[c]:loop_start[c + 1]``.  ``loop_cell`` names the cell
    owning each entry and ``loop_next`` the vertex after it, so entry i
    starts the directed edge (loop_vert[i], loop_next[i]).  ``cells``
    derives the loops as lists of ints from these arrays.

    Edges are numbered in discovery order, the order in which a walk over
    the cells' loops first meets them.  ``edges`` holds each edge's sorted
    vertex pair and ``edge_cells`` its first and second incident cell (-1
    for a boundary edge).  ``boundary_edges`` lists the boundary edges in
    that order, directed as traversed by their cell.  Every vertex must
    belong to a cell.
    """

    def __init__(self, vertices, cells):
        self.vertices = np.asarray(vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValidationError("vertices must be an (n, 2) array")
        _, frame = _frame(self.vertices)
        if not len(cells):
            raise ValidationError("mesh has no cells")
        (self.loop_vert, self.loop_start, self.loop_cell,
         self.loop_next) = _loop_table(cells)
        self._check_cells(np.diff(self.loop_start), frame)
        self._build_edges()
        unused = np.bincount(self.loop_vert, minlength=self.n_vertices) == 0
        if unused.any():
            raise ValidationError(
                f"vertex {int(np.argmax(unused))} belongs to no cell")

    def _check_cells(self, sizes, frame):
        n_cells = len(sizes)
        owner, flat = self.loop_cell, self.loop_vert
        order = np.lexsort((flat, owner))
        dup = ((owner[order][1:] == owner[order][:-1])
               & (flat[order][1:] == flat[order][:-1]))
        repeats = np.zeros(n_cells, dtype=bool)
        repeats[owner[order][1:][dup]] = True
        missing = np.zeros(n_cells, dtype=bool)
        missing[owner[(flat < 0) | (flat >= len(self.vertices))]] = True
        small = sizes < 3
        # Orientation is checked on the cells that pass the checks above,
        # the only ones whose loops index valid vertices, in the frame.
        ok = ~(small | repeats | missing)
        entries = ok[owner]
        area = _signed_areas(frame, flat[entries],
                             self.loop_next[entries], owner[entries], n_cells)
        flipped = ok & (area <= 0.0)
        raise_first([
            (small, ValidationError, lambda c: f"cell {c} has fewer than 3 vertices"),
            (repeats, ValidationError, lambda c: f"cell {c} repeats a vertex"),
            (missing, ValidationError,
             lambda c: f"cell {c} references a missing vertex"),
            (flipped, NegativeArea, lambda c: f"cell {c} is not positively oriented"),
        ])

    def _build_edges(self):
        n_verts = len(self.vertices)
        va, vb = self.loop_vert, self.loop_next
        keys = np.minimum(va, vb) * n_verts + np.maximum(va, vb)
        uniq, first, inverse, counts = np.unique(
            keys, return_index=True, return_inverse=True, return_counts=True)
        if len(counts) and counts.max() > 2:
            # The loop version fails at the third incidence met first.
            seen = np.empty(len(keys), dtype=np.int64)
            grouped = np.argsort(inverse, kind="stable")
            seen[grouped] = np.arange(len(keys)) - np.repeat(
                np.cumsum(counts) - counts, counts)
            key = int(keys[np.flatnonzero(seen == 2)[0]])
            raise NonManifoldEdge(
                f"edge {divmod(key, n_verts)} shared by more than two cells")
        second = np.full(len(uniq), -1)
        later = np.flatnonzero(first[inverse] != np.arange(len(keys)))
        second[inverse[later]] = self.loop_cell[later]

        order = np.argsort(first)
        self.edges = np.column_stack(np.divmod(uniq[order], n_verts))
        self.edge_cells = np.column_stack(
            [self.loop_cell[first[order]], second[order]])
        on_bnd = first[order][counts[order] == 1]
        self.boundary_edges = np.column_stack([va[on_bnd], vb[on_bnd]])
        self._check_connected()

    def _check_connected(self):
        # Label propagation: every cell takes the smallest label among its
        # neighbours, then the label of the cell its label names (labels
        # are cell ids of the same component, never above the own id).  At
        # the fixed point each component carries its smallest cell id.
        # (scipy.sparse.csgraph would add about 2.5 MB of resident memory
        # to every process for this one check.)
        inner = self.edge_cells[self.edge_cells[:, 1] >= 0]
        a, b = inner[:, 0], inner[:, 1]
        labels = np.arange(self.n_cells)
        while True:
            low = np.minimum(labels[a], labels[b])
            new = labels.copy()
            np.minimum.at(new, a, low)
            np.minimum.at(new, b, low)
            new = new[new]
            if np.array_equal(new, labels):
                break
            labels = new
        if labels.any():
            raise ValidationError("cells do not form a connected domain")

    def cell_sums(self, values):
        """Sum of per-entry values (aligned with ``loop_vert``) per cell."""
        return _cell_sums(self.loop_cell, values, self.n_cells)

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_cells(self):
        return len(self.loop_start) - 1

    @property
    def cells(self):
        """The vertex loops as lists of ints, in cell order."""
        flat, bounds = self.loop_vert.tolist(), self.loop_start.tolist()
        return [flat[a:b] for a, b in zip(bounds, bounds[1:])]


@dataclass
class DDFVMesh:
    """Immutable geometric database used by all discrete operators.

    A scalar field is one packed vector [interior | boundary | dual] with
    one value per interior cell, per boundary (degenerate) cell and per
    vertex (dual cell); ``parts`` splits it into views and ``pack`` joins
    them.  Row i of ``nodes`` is the position of packed value i: the cell
    centroids, the boundary-edge midpoints, then the vertices.  The index
    tables ``corners`` and ``overlaps`` hold packed indices, so
    ``u[mesh.corners]`` and ``nodes[mesh.corners]`` need no offset.  ``h``
    is the largest diamond diameter; the sizes are computed once, in
    ``__post_init__``.
    """

    primal: PrimalMesh
    nodes: np.ndarray             # (n_values, 2)
    cell_areas: np.ndarray        # (n_cells,)
    vertex_is_boundary: np.ndarray
    dual_areas: np.ndarray        # (n_verts,)
    # diamonds
    corners: np.ndarray           # (4, n_dia) cell k, cell l, vertex k, l
    wedges: np.ndarray            # (4, n_dia) quarter areas at the corners
    dia_is_boundary: np.ndarray
    cross_point: np.ndarray       # (n_dia, 2) primal/dual edge crossing
    edge_len: np.ndarray
    dual_edge_len: np.ndarray
    sin_angle: np.ndarray
    diamond_area: np.ndarray
    edge_normal: np.ndarray       # (n_dia, 2)
    dual_edge_normal: np.ndarray
    # overlaps between interior cells and dual cells
    overlaps: np.ndarray          # (2, n_overlaps) cell, vertex
    overlap_area: np.ndarray
    h: float
    # sizes and packed-vector layout, computed once
    n_cells: int = field(init=False)
    n_bnd: int = field(init=False)
    n_verts: int = field(init=False)
    n_diamonds: int = field(init=False)
    dual_offset: int = field(init=False)  # first dual index: primal count
    n_values: int = field(init=False)

    def __post_init__(self):
        self.n_cells = len(self.cell_areas)
        self.n_bnd = len(self.primal.boundary_edges)
        self.n_verts = len(self.dual_areas)
        self.n_diamonds = len(self.diamond_area)
        self.dual_offset = self.n_cells + self.n_bnd
        self.n_values = self.dual_offset + self.n_verts
        for name, value in vars(self).items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    # --- packed-vector layout -------------------------------------------

    def check(self, *values):
        """ValidationError unless each of ``values`` has shape (n_values,)."""
        for value in values:
            if np.shape(value) != (self.n_values,):
                raise ValidationError(f"packed vector of shape {np.shape(value)}"
                                      f" does not match mesh ({self.n_values},)")

    def parts(self, values):
        """The interior, boundary and dual views of the packed vector
        ``values`` (writing to a view writes to ``values``); a shape other
        than (n_values,) is a ValidationError."""
        values = np.asarray(values)
        self.check(values)
        nc, off = self.n_cells, self.dual_offset
        return values[:nc], values[nc:off], values[off:]

    def pack(self, interior, boundary, dual):
        """The packed vector of the three blocks (inverse of ``parts``)."""
        values = np.concatenate([interior, boundary, dual], dtype=float)
        self.parts(values)
        return values


def build_ddfv(primal: PrimalMesh) -> DDFVMesh:
    """Assemble the full DDFV structure from a valid primal mesh.

    Raises NonConvexDiamond when a primal edge and its dual edge fail to
    cross (or cross at a nearly-degenerate angle), NegativeArea when a
    diamond's quarter split is invalid; the first failing edge in edge
    order is reported.  Diamonds follow the primal edge order.  The
    geometry is computed in the frame of ``_frame`` and scaled back; a mesh
    whose areas or edge lengths, scaled back, are not finite normal floats
    is a ValidationError.
    """
    e, verts = _frame(primal.vertices)
    n_cells = primal.n_cells
    a, b, w = _shoelace(verts, primal.loop_vert, primal.loop_next)
    cell_areas = 0.5 * primal.cell_sums(w)
    cell_centers = np.column_stack([
        primal.cell_sums((a[:, 0] + b[:, 0]) * w),
        primal.cell_sums((a[:, 1] + b[:, 1]) * w),
    ]) / (6.0 * cell_areas)[:, None]

    bnd_edges = primal.boundary_edges
    nodes = np.vstack([cell_centers,
                       0.5 * (verts[bnd_edges[:, 0]] + verts[bnd_edges[:, 1]]),
                       verts])
    off = n_cells + len(bnd_edges)      # packed index of vertex 0

    vertex_is_boundary = np.zeros(primal.n_vertices, dtype=bool)
    vertex_is_boundary[bnd_edges.ravel()] = True

    # One diamond per primal edge; a boundary edge's second cell is the
    # degenerate cell on it, numbered after the interior cells in
    # boundary-edge order.
    cell_k, cell_l = primal.edge_cells.T.copy()
    is_bnd = cell_l < 0
    cell_l = np.where(is_bnd, n_cells + np.cumsum(is_bnd) - 1, cell_l)
    xk, xl = nodes[cell_k], nodes[cell_l]

    # Label the edge endpoints so both local bases come out direct.
    va, vb = off + primal.edges.T
    direct = cross2((nodes[vb] - nodes[va]).T, (xl - xk).T) > 0.0
    vert_k = np.where(direct, va, vb)
    vert_l = np.where(direct, vb, va)
    xvk, xvl = nodes[vert_k], nodes[vert_l]

    edge_vec = xvl - xvk
    dual_vec = xl - xk
    m_edge = np.hypot(*edge_vec.T)
    m_dual = np.hypot(*dual_vec.T)
    # Failing diamonds produce inf/nan here; the checks below report them.
    with np.errstate(divide="ignore", invalid="ignore"):
        tau_e = edge_vec / m_edge[:, None]
        tau_d = dual_vec / m_dual[:, None]
        sin_a = cross2(tau_e.T, tau_d.T)
        area = 0.5 * m_edge * m_dual * sin_a
        # Crossing of the dual edge xk + t (xl - xk) with the primal edge
        # xvk + s (xvl - xvk); a boundary diamond's crossing is xl.
        denom = cross2(dual_vec.T, edge_vec.T)
        r = (xvk - xk).T
        t = cross2(r, edge_vec.T) / denom
        s = cross2(r, dual_vec.T) / denom
        cross_point = np.where(is_bnd[:, None], xl, xk + t[:, None] * dual_vec)

    wvk = triangle_area(xvk.T, xk.T, xl.T)
    wvl = triangle_area(xvl.T, xk.T, xl.T)
    wck = np.where(is_bnd, area, triangle_area(xk.T, xvk.T, xvl.T))
    wcl = np.where(is_bnd, 0.0, triangle_area(xl.T, xvk.T, xvl.T))

    inner = ~is_bnd
    in_range = ((-_PARAM_TOL <= t) & (t <= 1 + _PARAM_TOL)
                & (-_PARAM_TOL <= s) & (s <= 1 + _PARAM_TOL))

    def bad_split(w1, w2):
        return (np.minimum(w1, w2) <= 0.0) | (np.abs(w1 + w2 - area) > 1e-9 * area)

    def key(d):
        return tuple(int(v) for v in primal.edges[d])

    raise_first([
        ((m_edge == 0.0) | (m_dual == 0.0), NonConvexDiamond,
         lambda d: f"edge {key(d)}: degenerate diamond"),
        (sin_a <= _SIN_TOL, NonConvexDiamond,
         lambda d: f"edge {key(d)}: sin(angle) = {sin_a[d]:.3e} below tolerance"),
        (inner & (denom == 0.0), NonConvexDiamond,
         lambda d: f"edge {key(d)}: parallel primal/dual edges"),
        (inner & ~in_range, NonConvexDiamond,
         lambda d: f"edge {key(d)}: primal and dual edges do not cross"),
        (inner & bad_split(wck, wcl), NegativeArea,
         lambda d: f"edge {key(d)}: invalid primal quarter split"),
        (bad_split(wvk, wvl), NegativeArea,
         lambda d: f"edge {key(d)}: invalid dual quarter split"),
    ])

    corners = np.stack([cell_k, cell_l, vert_k, vert_l])
    wedges = np.stack([wck, wcl, wvk, wvl])
    n_values = off + primal.n_vertices
    # Each diamond adds its two vertex quarters to the dual cells, in
    # diamond order.
    dual_areas = np.bincount(np.column_stack([vert_k, vert_l]).ravel(),
                             weights=np.column_stack([wvk, wvl]).ravel(),
                             minlength=n_values)[off:]

    # Cell/dual-cell overlaps: the triangles (center, crossing, vertex),
    # summed per (cell, vertex) pair in diamond order and sorted by pair;
    # degenerate cells carry none.
    ov_cell = np.column_stack([cell_k, cell_k, cell_l, cell_l]).ravel()
    ov_vert = np.column_stack([vert_k, vert_l, vert_k, vert_l]).ravel()
    xd = cross_point.T
    ov_area = np.column_stack([
        triangle_area(xk.T, xd, xvk.T), triangle_area(xk.T, xd, xvl.T),
        triangle_area(xl.T, xd, xvk.T), triangle_area(xl.T, xd, xvl.T),
    ]).ravel()
    keep = ov_cell < n_cells
    pairs, slot = np.unique(ov_cell[keep] * n_values + ov_vert[keep],
                            return_inverse=True)

    # h: the largest distance between two corners of one diamond
    h = max(float(np.hypot(*(p - q).T).max())
            for p, q in itertools.combinations((xk, xvk, xl, xvl), 2))
    overlap_area = np.bincount(slot, weights=ov_area[keep])

    domain = cell_areas.sum()
    _validate_partitions(domain, area, dual_areas, overlap_area)
    # Scaled back, the areas and edge lengths must be finite normal floats
    # (h bounds the lengths, the domain area the cell areas); decided from
    # exponents, so that np.ldexp below cannot overflow.
    info = np.finfo(float)
    exps = np.concatenate([
        np.frexp([cell_areas.min(), dual_areas.min(), dual_areas.max(),
                  domain])[1] + 2 * e,
        np.frexp([m_edge.min(), m_dual.min(), h])[1] + e])
    if exps.min() <= info.minexp or exps.max() > info.maxexp:
        raise ValidationError(
            "mesh areas and edge lengths are not all finite normal floats "
            f"(largest |coordinate| {np.abs(primal.vertices).max():.3e})")

    return DDFVMesh(
        primal=primal,
        nodes=np.ldexp(nodes, e),
        cell_areas=np.ldexp(cell_areas, 2 * e),
        vertex_is_boundary=vertex_is_boundary,
        dual_areas=np.ldexp(dual_areas, 2 * e),
        corners=corners,
        wedges=np.ldexp(wedges, 2 * e),
        dia_is_boundary=is_bnd,
        cross_point=np.ldexp(cross_point, e),
        edge_len=np.ldexp(m_edge, e),
        dual_edge_len=np.ldexp(m_dual, e),
        sin_angle=sin_a,
        diamond_area=np.ldexp(area, 2 * e),
        edge_normal=np.column_stack([-tau_e[:, 1], tau_e[:, 0]]),
        dual_edge_normal=np.column_stack([tau_d[:, 1], -tau_d[:, 0]]),
        overlaps=np.stack(np.divmod(pairs, n_values)),
        overlap_area=np.ldexp(overlap_area, 2 * e),
        h=math.ldexp(h, e),
    )


def _validate_partitions(domain, *pieces):
    """ValidationError unless the diamond, dual-cell and overlap areas
    (``pieces``) each sum to the ``domain`` area, within 1e-10 of it."""
    for name, areas in zip(("diamond", "dual-cell", "overlap"), pieces):
        gap = abs(areas.sum() - domain) / domain
        if gap > 1e-10:
            raise ValidationError(f"{name} areas sum to the domain area "
                                  f"only within {gap:.3e} of it")


# --- quality -----------------------------------------------------------


@dataclass
class QualityReport:
    """The diamonds' regularity factors from ``quality``; ``summary``
    reads the sizes and h from ``mesh``."""

    mesh: DDFVMesh
    theta: np.ndarray
    theta_tilde: np.ndarray
    theta_star: float
    theta_interior_max: float
    min_sin_angle: float
    cond2_max: float | None = None
    cond2_bound: float | None = None

    @property
    def cond_ok(self):
        if self.cond2_max is None:
            return True
        return self.cond2_max < self.cond2_bound

    def summary(self):
        mesh = self.mesh
        lines = [
            f"cells              {mesh.n_cells}",
            f"boundary edges     {mesh.n_bnd}",
            f"vertices           {mesh.n_verts}",
            f"diamonds           {mesh.n_diamonds}",
            f"h                  {mesh.h:.6e}",
            f"min sin(angle)     {self.min_sin_angle:.6e}",
            f"theta interior max {self.theta_interior_max:.6f}",
            f"theta max          {self.theta.max():.6f}",
            f"theta_tilde max    {self.theta_tilde.max():.6f}",
            f"theta_star         {self.theta_star:.6f}",
        ]
        if self.cond2_max is not None:
            lines.append(f"cond2 max          {self.cond2_max:.6f}")
            lines.append(
                f"cond2 bound        {self.cond2_bound:.6f}"
                f" ({'ok' if self.cond_ok else 'VIOLATED'})"
            )
        return "\n".join(lines)


def quality(mesh: DDFVMesh, lam=None) -> QualityReport:
    """Regularity factors of every diamond, plus the local-matrix
    condition numbers when an anisotropy tensor is supplied."""
    ratio = mesh.edge_len / mesh.dual_edge_len
    theta = (ratio + 1.0 / ratio) / (2.0 * mesh.sin_angle)

    parts = mesh.wedges.copy()
    parts[1, mesh.dia_is_boundary] = np.inf
    theta_tilde = mesh.diamond_area / parts.min(axis=0)

    interior = ~mesh.dia_is_boundary
    theta_interior_max = float(theta[interior].max()) if interior.any() else float("nan")
    report = QualityReport(
        mesh=mesh,
        theta=theta,
        theta_tilde=theta_tilde,
        theta_star=float(max(theta.max(), theta_tilde.max())),
        theta_interior_max=theta_interior_max,
        min_sin_angle=float(mesh.sin_angle.min()),
    )
    if lam is not None:
        lam_d = lam.on_diamonds(mesh)
        mats = local_matrices(mesh, lam, lam_d)
        report.cond2_max = float(mats.cond2(lam_d).max())
        evals = np.linalg.eigvalsh(lam_d)
        report.cond2_bound = (4.0 * report.theta_star**2
                              * float(evals.max() / evals.min()))
    return report


# --- generators --------------------------------------------------------


def gen_uniform_quad(n: int) -> PrimalMesh:
    """Uniform n-by-n quadrilateral mesh of the unit square."""
    return gen_family("uniform", n)


def gen_quad_fvca(n: int, amplitude: float = 0.1) -> PrimalMesh:
    """Smooth sinusoidal distortion of the uniform grid.

    Vertex (x, y) moves to (x + d, y + d) with
    d = amplitude * sin(2*pi*x) * sin(2*pi*y); boundary vertices stay put.
    ``build_ddfv`` rejects the mesh (primal and dual edges that do not
    cross) before the map inverts a cell: amplitude 0.15 builds at n = 8,
    16, 32 and 64, while 0.155 fails at n = 16 and 0.158 at n = 32.
    """
    return gen_family("quad", n, amplitude=amplitude)


def gen_kershaw(n: int, distortion: float = 0.8) -> PrimalMesh:
    """Layered zigzag distortion of the uniform grid (n/4 zigzag layers).

    Column i is sheared vertically by distortion * zig(i) * profile(j) cell
    heights, where zig cycles through (0, 1, 0, -1) every four columns and
    the hat profile vanishes on the top and bottom boundaries.  Boundary
    columns are pinned so all boundary vertices stay put.  At the default
    distortion 0.8, n = 2 and n = 4 fail ``build_ddfv`` (primal and dual
    edges do not cross); n = 3 and n = 5 to 16 build.
    """
    return gen_family("kershaw", n, distortion=distortion)


def _uniform_map(n):
    if n < 1:
        raise ValidationError("n must be >= 1")
    return lambda i, j, p: p


def _quad_map(n, amplitude=0.1):
    if n < 2:
        raise ValidationError("n must be >= 2")
    if not 0.0 <= amplitude < 0.25:
        raise ValidationError("amplitude must lie in [0, 0.25)")

    def displace(i, j, p):
        d = amplitude * np.sin(2 * np.pi * p[:, 0]) * np.sin(2 * np.pi * p[:, 1])
        return p + d[:, None]

    return displace


_ZIGZAG = np.array([0.0, 1.0, 0.0, -1.0])


def _kershaw_map(n, distortion=0.8):
    if n < 2:
        raise ValidationError("n must be >= 2")
    if distortion < 0.0:
        raise ValidationError("distortion must be nonnegative")
    half = (n + 1) // 2

    def displace(i, j, p):
        prof = np.minimum(j, n - j) / half
        y = (j + distortion * _ZIGZAG[i % 4] * prof) / n
        pinned = (i == 0) | (i == n)
        return np.column_stack([p[:, 0], np.where(pinned, p[:, 1], y)])

    return displace


MESH_FAMILIES = {"uniform": _uniform_map, "quad": _quad_map,
                 "kershaw": _kershaw_map}

# Peak memory of a solve per unknown: 1.5 times the growth of peak RSS per
# unknown measured over short runs (quad: 4312 B at n=32, 3511 B at n=64
# and n=128, 4253 B at n=256; kershaw: 3489-3505 B).
SOLVE_BYTES_PER_UNKNOWN = 5268


def family_map(family: str, n: int, **kwargs):
    """A family's vertex map (``_distorted_quad``'s ``displace``) after the
    checks of n and the family's arguments (an argument the family does
    not take is a ValidationError); no grid is made.  An n whose
    grid (2 n^2 + 6 n + 1 unknowns) needs more than the physical memory at
    ``SOLVE_BYTES_PER_UNKNOWN`` is a ValidationError."""
    try:
        make = MESH_FAMILIES[family]
    except KeyError:
        raise ValidationError(
            f"unknown mesh family {family!r}; choose from {sorted(MESH_FAMILIES)}"
        ) from None
    for key in kwargs:
        if key not in inspect.signature(make).parameters:
            raise ValidationError(f"mesh family {family!r} takes no "
                                  f"argument {key!r}")
    displace = make(n, **kwargs)
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    # the largest n with 2 n^2 + 6 n + 1 <= memory / SOLVE_BYTES_PER_UNKNOWN
    n_max = (math.isqrt(8 * (memory // SOLVE_BYTES_PER_UNKNOWN) + 28) - 6) // 4
    if n > n_max:
        raise ValidationError(
            f"n = {n} is too large: a solve needs about "
            f"{SOLVE_BYTES_PER_UNKNOWN} B per unknown, so n <= {n_max} fits "
            f"in the {memory / 2**30:.1f} GiB of physical memory")
    return displace


def gen_family(family: str, n: int, **kwargs) -> PrimalMesh:
    return _distorted_quad(n, family_map(family, n, **kwargs))


def _distorted_quad(n, displace):
    """The uniform n-by-n grid, cells numbered row by row from the bottom,
    with every vertex moved by ``displace(i, j, p)``: it maps the column
    and row indices and the (m, 2) positions of all vertices to their new
    positions."""
    xs = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="xy")
    idx = np.arange((n + 1) ** 2)
    vertices = displace(idx % (n + 1), idx // (n + 1),
                        np.column_stack([xx.ravel(), yy.ravel()]))
    lower_left = (np.arange(n)[None, :] + (n + 1) * np.arange(n)[:, None]).ravel()
    cells = lower_left[:, None] + np.array([0, 1, n + 2, n + 1])
    areas = _signed_areas(vertices, cells.ravel(),
                          np.roll(cells, -1, axis=1).ravel(),
                          np.repeat(np.arange(len(cells)), 4), len(cells))
    inverted = np.flatnonzero(areas <= 0.0)
    if inverted.size:
        raise DegenerateCell(f"cell {inverted[0]} inverted under distortion")
    return PrimalMesh(vertices, cells.tolist())


# --- file I/O ----------------------------------------------------------


def write_mesh(primal: PrimalMesh, path):
    """Write a primal mesh in the plain-text format (full float precision)."""
    with open(path, "w", encoding="ascii") as f:
        f.write(f"vertices {primal.n_vertices}\n")
        for x, y in primal.vertices:
            f.write(f"{float(x)!r} {float(y)!r}\n")
        f.write(f"cells {primal.n_cells}\n")
        for loop in primal.cells:
            f.write(" ".join([str(len(loop))] + [str(v) for v in loop]) + "\n")


def read_mesh(path) -> PrimalMesh:
    """Read a primal mesh written by ``write_mesh``.

    Malformed content raises ParseError carrying the offending line number,
    non-ASCII content one naming the file.  The vertex count is checked
    against the lines left before the vertex array is allocated.
    Once the whole file has parsed, clockwise cells are reoriented with a
    warning each, in cell order.
    """
    try:
        with open(path, "r", encoding="ascii") as f:
            raw = f.readlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not an ASCII text file (byte "
                         f"{exc.object[exc.start]:#x})") from None
    lines = [
        (i + 1, line.strip())
        for i, line in enumerate(raw)
        if line.strip() and not line.strip().startswith("#")
    ]
    pos = 0

    def next_line(expect):
        nonlocal pos
        if pos >= len(lines):
            raise ParseError(f"unexpected end of file, expected {expect}",
                             line=len(raw))
        lineno, text = lines[pos]
        pos += 1
        return lineno, text.split()

    lineno, tok = next_line("'vertices N'")
    if len(tok) != 2 or tok[0] != "vertices":
        raise ParseError("expected 'vertices N'", line=lineno)
    try:
        n_verts = int(tok[1])
    except ValueError:
        raise ParseError("vertex count is not an integer", line=lineno) from None
    if n_verts < 0:
        raise ParseError("vertex count is negative", line=lineno)
    if n_verts > len(lines) - pos:
        raise ParseError(f"vertex count {n_verts} exceeds the number of "
                         f"lines that follow ({len(lines) - pos})", line=lineno)

    vertices = np.empty((n_verts, 2))
    for i in range(n_verts):
        lineno, tok = next_line("a vertex line 'x y'")
        if len(tok) != 2:
            raise ParseError("expected 'x y'", line=lineno)
        try:
            vertices[i] = [float(tok[0]), float(tok[1])]
        except ValueError:
            raise ParseError("vertex coordinates are not numbers",
                             line=lineno) from None

    lineno, tok = next_line("'cells M'")
    if len(tok) != 2 or tok[0] != "cells":
        raise ParseError("expected 'cells M'", line=lineno)
    try:
        n_cells = int(tok[1])
    except ValueError:
        raise ParseError("cell count is not an integer", line=lineno) from None
    if n_cells < 1:
        raise ParseError("cell count must be positive", line=lineno)

    cells = []
    for i in range(n_cells):
        lineno, tok = next_line("a cell line 'k i1 ... ik'")
        try:
            nums = [int(t) for t in tok]
        except ValueError:
            raise ParseError("cell line contains a non-integer",
                             line=lineno) from None
        if not nums or len(nums) != nums[0] + 1:
            raise ParseError("cell line length does not match its count",
                             line=lineno)
        if nums[0] == 0:
            raise ParseError(f"cell {i} has no vertices", line=lineno)
        loop = nums[1:]
        if min(loop) < 0 or max(loop) >= n_verts:
            raise ParseError(f"cell {i} references a missing vertex",
                             line=lineno)
        cells.append(loop)

    if pos < len(lines):
        raise ParseError("trailing content after last cell", line=lines[pos][0])

    loop_vert, _, loop_cell, loop_next = _loop_table(cells)
    areas = _signed_areas(_frame(vertices)[1], loop_vert, loop_next, loop_cell,
                          len(cells))
    for i in np.flatnonzero(areas < 0.0):
        warnings.warn(f"cell {i} was clockwise; reoriented", stacklevel=2)
        cells[i] = cells[i][::-1]
    return PrimalMesh(vertices, cells)
