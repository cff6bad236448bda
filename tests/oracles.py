"""Element-by-element geometry used as oracles of the mesh set-up.

Plain float pairs and numpy arrays in, plain values out: the cell areas
and centroids, the primal/dual edge crossings and the dual cells that
``build_ddfv`` computes in vectorised form.
"""

import numpy as np

from ddfv.mesh import cross2


def polygon_area(points):
    """Signed (shoelace) area of a polygon given as an (n, 2) array."""
    pts = np.asarray(points, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def polygon_centroid(points):
    """Area centroid of a simple polygon with positive orientation."""
    pts = np.asarray(points, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    w = x * yn - xn * y
    area = 0.5 * float(np.sum(w))
    cx = float(np.sum((x + xn) * w)) / (6.0 * area)
    cy = float(np.sum((y + yn) * w)) / (6.0 * area)
    return np.array([cx, cy])


def segment_intersection(p0, p1, q0, q1):
    """Intersection parameters (t, s) of segments [p0,p1] and [q0,q1].

    Returns (t, s, point) with p0 + t*(p1-p0) = q0 + s*(q1-q0), or None when
    the segments are parallel.
    """
    p0 = np.asarray(p0, dtype=float)
    d1 = np.asarray(p1, dtype=float) - p0
    q0 = np.asarray(q0, dtype=float)
    d2 = np.asarray(q1, dtype=float) - q0
    denom = cross2(d1, d2)
    if denom == 0.0:
        return None
    r = q0 - p0
    t = cross2(r, d2) / denom
    s = cross2(r, d1) / denom
    return t, s, p0 + t * d1


def dual_polygon(mesh, v):
    """Vertex loop of dual cell ``v``: surrounding centers sorted by angle
    around the vertex, plus the vertex itself and the adjacent
    boundary-edge midpoints when the vertex lies on the boundary."""
    x0 = mesh.primal.vertices[v]
    pts = []
    for d in range(mesh.n_diamonds):
        for vert, cells in (
            (mesh.dia_vert_k[d], (mesh.dia_cell_k[d], mesh.dia_cell_l[d])),
            (mesh.dia_vert_l[d], (mesh.dia_cell_k[d], mesh.dia_cell_l[d])),
        ):
            if vert == v:
                for g in cells:
                    pts.append(tuple(mesh.primal_centers[g]))
    pts = [np.array(p) for p in sorted(set(pts))]
    angles = np.array([np.arctan2(p[1] - x0[1], p[0] - x0[0]) for p in pts])
    order = np.argsort(angles)
    pts = [pts[i] for i in order]
    if not mesh.vertex_is_boundary[v]:
        return np.array(pts)
    # Boundary vertex: rotate the cyclic order so the outside gap (the
    # largest angular jump) sits between the last and first point, then
    # close the loop through the vertex itself.
    ang = np.sort(angles)
    gaps = np.diff(np.concatenate([ang, [ang[0] + 2 * np.pi]]))
    start = (int(np.argmax(gaps)) + 1) % len(pts)
    pts = pts[start:] + pts[:start]
    return np.array([x0] + pts)
