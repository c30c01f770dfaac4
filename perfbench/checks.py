"""Output checks for the benchmark, computed apart from the program.

Nothing here imports tricontact: distances, poses and masses are recomputed
from the benchmark's own inputs (meshes, halo widths, densities) with plain
numpy, so a fault in the program's kernels or transforms cannot hide itself.
Every check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import numpy as np

# Pairs whose reference distance lies within this share of the halo sum
# eps_i + eps_j on either side of it are not classified: the program may
# report them either way.
HALO_MARGIN = 0.05
# Slack on "source triangles lie within the halo", relative to eps_i + eps_j;
# the program's verdict is exact up to floating-point round-off.
SOURCE_SLACK = 1e-9
# Linear momentum must stay at its initial value to this share of sum m|v|.
MOMENTUM_RTOL = 1e-10
_CHUNK = 20000


# ---------------------------------------------------------------------------
# Poses, masses.
# ---------------------------------------------------------------------------


def rotation_matrix(q) -> np.ndarray:
    """Rotation matrix of a quaternion (w, x, y, z); normalises the input."""
    w, x, y, z = np.asarray(q, dtype=np.float64) / np.linalg.norm(q)
    return np.array([
        [w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z],
    ])


def world_triangles(verts, faces, quat, translation) -> np.ndarray:
    """(n, 3, 3) triangles of a body-frame mesh placed by rotate-then-translate."""
    world = np.asarray(verts, dtype=np.float64) @ rotation_matrix(quat).T + np.asarray(translation)
    return world[np.asarray(faces)]


def mesh_mass(verts, faces, density: float) -> float:
    """Mass of a closed outward-oriented mesh by the divergence theorem."""
    tris = np.asarray(verts, dtype=np.float64)[np.asarray(faces)]
    det = np.einsum("ij,ij->i", tris[:, 0], np.cross(tris[:, 1], tris[:, 2]))
    return density * float(det.sum()) / 6.0


# ---------------------------------------------------------------------------
# Reference triangle-triangle distance.
# ---------------------------------------------------------------------------


def _dot(a, b):
    return np.einsum("ij,ij->i", a, b)


def _point_segment(p, a, b):
    ab = b - a
    t = np.clip(_dot(p - a, ab) / np.maximum(_dot(ab, ab), 1e-300), 0.0, 1.0)
    return np.linalg.norm(p - (a + t[:, None] * ab), axis=1)


def _point_triangle(p, a, b, c):
    """Distance from points to triangles: the plane distance when the foot
    of the perpendicular falls inside, else the nearest edge."""
    u, v, w = b - a, c - a, p - a
    uu, uv, vv, wu, wv = _dot(u, u), _dot(u, v), _dot(v, v), _dot(w, u), _dot(w, v)
    det = uu * vv - uv * uv
    s = (vv * wu - uv * wv) / det
    t = (uu * wv - uv * wu) / det
    inside = (s >= 0.0) & (t >= 0.0) & (s + t <= 1.0)
    n = np.cross(u, v)
    plane = np.abs(_dot(w, n)) / np.linalg.norm(n, axis=1)
    edges = np.minimum(np.minimum(_point_segment(p, a, b), _point_segment(p, b, c)),
                       _point_segment(p, c, a))
    return np.where(inside, plane, edges)


def _segment_segment(p1, q1, p2, q2):
    """Distance between segments: the interior critical point when both of
    its parameters fall in (0, 1), else the best endpoint-to-segment pair."""
    d1, d2, r = q1 - p1, q2 - p2, p1 - p2
    a, e, b = _dot(d1, d1), _dot(d2, d2), _dot(d1, d2)
    c, f = _dot(d1, r), _dot(d2, r)
    den = a * e - b * b
    ok = den > 1e-12 * a * e
    den = np.where(ok, den, 1.0)
    s = (b * f - c * e) / den
    t = (a * f - b * c) / den
    interior = ok & (s > 0.0) & (s < 1.0) & (t > 0.0) & (t < 1.0)
    gap = np.linalg.norm(r + s[:, None] * d1 - t[:, None] * d2, axis=1)
    ends = np.minimum(
        np.minimum(_point_segment(p1, p2, q2), _point_segment(q1, p2, q2)),
        np.minimum(_point_segment(p2, p1, q1), _point_segment(q2, p1, q1)),
    )
    return np.where(interior, np.minimum(gap, ends), ends)


def _edge_crosses(p, q, a, b, c):
    """True where segment [p, q] passes through the triangle's plane at a
    point inside the triangle (endpoints strictly on opposite sides)."""
    n = np.cross(b - a, c - a)
    sp, sq = _dot(p - a, n), _dot(q - a, n)
    crossing = sp * sq < 0.0
    x = p + (sp / np.where(crossing, sp - sq, 1.0))[:, None] * (q - p)
    u, v, w = b - a, c - a, x - a
    uu, uv, vv, wu, wv = _dot(u, u), _dot(u, v), _dot(v, v), _dot(w, u), _dot(w, v)
    det = uu * vv - uv * uv
    s = (vv * wu - uv * wv) / det
    t = (uu * wv - uv * wu) / det
    return crossing & (s >= 0.0) & (t >= 0.0) & (s + t <= 1.0)


def triangle_distance(tri_a, tri_b) -> np.ndarray:
    """Exact distance between triangle pairs, (n, 3, 3) each.

    Disjoint triangles are closest at a vertex-face or an edge-edge pair, so
    the distance is the least of the six vertex-triangle and nine
    edge-edge distances.  Triangles that intersect have an edge of one
    crossing the other, which the crossing test reports as distance zero.
    """
    A = np.asarray(tri_a, dtype=np.float64).reshape(-1, 3, 3)
    B = np.asarray(tri_b, dtype=np.float64).reshape(-1, 3, 3)
    best = np.full(A.shape[0], np.inf)
    crossed = np.zeros(A.shape[0], dtype=bool)
    for k in range(3):
        best = np.minimum(best, _point_triangle(A[:, k], B[:, 0], B[:, 1], B[:, 2]))
        best = np.minimum(best, _point_triangle(B[:, k], A[:, 0], A[:, 1], A[:, 2]))
        pa, qa = A[:, k], A[:, (k + 1) % 3]
        pb, qb = B[:, k], B[:, (k + 1) % 3]
        crossed |= _edge_crosses(pa, qa, B[:, 0], B[:, 1], B[:, 2])
        crossed |= _edge_crosses(pb, qb, A[:, 0], A[:, 1], A[:, 2])
        for m in range(3):
            best = np.minimum(best, _segment_segment(pa, qa, B[:, m], B[:, (m + 1) % 3]))
    return np.where(crossed, 0.0, best)


def mesh_distance(tris_i: np.ndarray, tris_j: np.ndarray, cutoff: float) -> float:
    """Least triangle-triangle distance between two meshes, exact below
    ``cutoff``; any value at or above ``cutoff`` only says "at least that".

    Bounding spheres and then per-triangle boxes discard pairs that provably
    lie farther apart than ``cutoff``; the rest go through
    :func:`triangle_distance`.
    """
    pts_i, pts_j = tris_i.reshape(-1, 3), tris_j.reshape(-1, 3)
    ci, cj = pts_i.mean(axis=0), pts_j.mean(axis=0)
    ri = np.linalg.norm(pts_i - ci, axis=1).max()
    rj = np.linalg.norm(pts_j - cj, axis=1).max()
    lower = float(np.linalg.norm(ci - cj) - ri - rj)
    if lower >= cutoff:
        return lower
    lo_i, hi_i = tris_i.min(axis=1), tris_i.max(axis=1)
    lo_j, hi_j = tris_j.min(axis=1), tris_j.max(axis=1)
    gap = np.maximum(0.0, np.maximum(lo_j[None] - hi_i[:, None], lo_i[:, None] - hi_j[None]))
    ii, jj = np.nonzero(np.linalg.norm(gap, axis=2) < cutoff)
    best = cutoff
    for start in range(0, ii.size, _CHUNK):
        sl = slice(start, start + _CHUNK)
        best = min(best, float(triangle_distance(tris_i[ii[sl]], tris_j[jj[sl]]).min()))
    return best


# ---------------------------------------------------------------------------
# Checks.
# ---------------------------------------------------------------------------


def check_halo(world: list, eps: list, contacts: list, margin: float = HALO_MARGIN):
    """Mesh-level contacts against the reference distance.

    ``world[i]`` holds particle i's triangles at the pose the program's last
    detection used, ``eps[i]`` its halo width, and ``contacts`` the merged
    mesh-level contacts as ``(i, j, tri_i, tri_j)``.  A particle pair
    closer than ``(1 - margin)(eps_i + eps_j)`` must have a contact, one
    farther than ``(1 + margin)(eps_i + eps_j)`` must have none, and the
    source triangles of every contact must lie within the halo sum.

    Returns ``(failures, distances)`` with the reference distance of every
    particle pair, capped at the upper band edge.
    """
    failures = []
    found = {(i, j) for i, j, _, _ in contacts}
    distances = {}
    for i in range(len(world)):
        for j in range(i + 1, len(world)):
            halo = eps[i] + eps[j]
            d = mesh_distance(world[i], world[j], (1.0 + margin) * halo)
            distances[(i, j)] = d
            if d <= (1.0 - margin) * halo and (i, j) not in found:
                failures.append(f"pair {i}-{j}: distance {d:.6g} <= (1-{margin}) x halo "
                                f"{halo:.6g} but no mesh-level contact reported")
            if d >= (1.0 + margin) * halo and (i, j) in found:
                failures.append(f"pair {i}-{j}: distance >= (1+{margin}) x halo {halo:.6g} "
                                f"but a mesh-level contact was reported")
    if contacts:
        i, j, a, b = (np.array(col) for col in zip(*contacts))
        halo = np.asarray(eps)[i] + np.asarray(eps)[j]
        tri_a = np.stack([world[p][t] for p, t in zip(i, a)])
        tri_b = np.stack([world[p][t] for p, t in zip(j, b)])
        d = triangle_distance(tri_a, tri_b)
        for k in np.nonzero(d > halo * (1.0 + SOURCE_SLACK))[0]:
            failures.append(f"contact {i[k]}-{j[k]} from triangles ({a[k]}, {b[k]}): "
                            f"distance {d[k]:.6g} exceeds halo sum {halo[k]:.6g}")
    return failures, distances


def check_momentum(masses, velocities, p0) -> list:
    """Total linear momentum equals its initial value ``p0`` to round-off."""
    m = np.asarray(masses, dtype=np.float64)
    v = np.asarray(velocities, dtype=np.float64)
    p = (m[:, None] * v).sum(axis=0)
    scale = max(float((m * np.linalg.norm(v, axis=1)).sum()), float(np.linalg.norm(p0)))
    drift = float(np.linalg.norm(p - np.asarray(p0)))
    if drift > MOMENTUM_RTOL * scale:
        return [f"linear momentum drifted by {drift:.3e} (scale {scale:.3e})"]
    return []


def check_step_contacts(reported: int, observed_mesh_level: int) -> list:
    """A timed step reports at least one mesh-level contact, and the count
    it reports matches the mesh-level contacts handed to force assembly."""
    failures = []
    if reported < 1:
        failures.append("step reported no mesh-level contact")
    if reported != observed_mesh_level:
        failures.append(f"step reported {reported} contacts but force assembly saw "
                        f"{observed_mesh_level} mesh-level contacts")
    return failures


def check_flat_checks(checks_by_level: dict, face_counts: list) -> list:
    """Flat detection of a two-particle scene tests every mesh pair once."""
    expected = int(face_counts[0]) * int(face_counts[1])
    if dict(checks_by_level) != {0: expected}:
        return [f"flat step checks {dict(checks_by_level)} != {{0: {expected}}} (n_i * n_j)"]
    return []
