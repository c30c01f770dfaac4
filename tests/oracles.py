"""Independent oracles for test verification.

These deliberately avoid the production code paths they check: distances
come from dense barycentric sampling, gradients from central finite
differences, contact wrenches from a loop over single contacts.  The kernel
references at the end are the batch kernels' first versions; they share the
row-wise feature helpers with the library and differ from it in layout.  The
surrogate-fit reference is the fit's first version, a descent loop around a
backtracking loop, and the tree-fit reference fits one child count at a time.
"""

import math

import numpy as np

from tricontact import kernels, surrogate
from tricontact.geometry import REAL, as_triangles
from tricontact.kernels import (_TINY, BatchResult, Kind, _as_eps,
                                _closest_segment_segment, _segment_triangle_crossings,
                                closest_point_triangle_batch)


def bary_grid(step: float) -> np.ndarray:
    """All (a, b) with a, b >= 0, a + b <= 1 on a regular grid."""
    t = np.arange(0.0, 1.0 + 1e-12, step)
    aa, bb = np.meshgrid(t, t, indexing="ij")
    keep = aa + bb <= 1.0 + 1e-12
    return np.stack([aa[keep], bb[keep]], axis=1)


def _points(tris: np.ndarray, bary: np.ndarray) -> np.ndarray:
    """(n, p, 3) surface points of (n, 3, 3) triangles at (p, 2) coordinates."""
    v0 = tris[:, 0]
    e1 = tris[:, 1] - tris[:, 0]
    e2 = tris[:, 2] - tris[:, 0]
    return (
        v0[:, None, :]
        + bary[None, :, 0, None] * e1[:, None, :]
        + bary[None, :, 1, None] * e2[:, None, :]
    )


def point_triangle_distance_ref(points: np.ndarray, tris: np.ndarray,
                                edges_only=False) -> np.ndarray:
    """Reference point-to-triangle distance, independent of the library.

    Takes the minimum of the in-triangle plane projection (when the foot
    lies inside, decided by barycentric signs) and the three point-segment
    distances.  ``points``: (n, 3); ``tris``: (n, 3, 3).  A zero-area
    triangle is the union of its edges, and so is one where ``edges_only``
    (a bool or (n,) mask) holds: only the point-segment distances count.
    """
    points = np.asarray(points, dtype=np.float64)
    tris = np.asarray(tris, dtype=np.float64)
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    best = np.full(points.shape[0], np.inf)
    for p0, p1 in ((a, b), (b, c), (c, a)):
        seg = p1 - p0
        t = np.einsum("ij,ij->i", points - p0, seg) / np.maximum(
            np.einsum("ij,ij->i", seg, seg), 1e-300)
        foot = p0 + np.clip(t, 0.0, 1.0)[:, None] * seg
        best = np.minimum(best, np.linalg.norm(points - foot, axis=1))
    n = np.cross(b - a, c - a)
    nn = np.einsum("ij,ij->i", n, n)
    dist_plane = np.abs(np.einsum("ij,ij->i", points - a, n)) / np.sqrt(np.maximum(nn, 1e-300))
    foot = points - ((np.einsum("ij,ij->i", points - a, n) / np.maximum(nn, 1e-300))[:, None] * n)
    # barycentric sign test of the projected foot
    w = foot - a
    u = b - a
    v = c - a
    uu = np.einsum("ij,ij->i", u, u)
    uv = np.einsum("ij,ij->i", u, v)
    vv = np.einsum("ij,ij->i", v, v)
    wu = np.einsum("ij,ij->i", w, u)
    wv = np.einsum("ij,ij->i", w, v)
    det = np.maximum(uu * vv - uv * uv, 1e-300)
    s = (vv * wu - uv * wv) / det
    t = (uu * wv - uv * wu) / det
    # a zero-area target has no plane: its clamped determinant would let any
    # foot test as inside
    inside = (s >= 0.0) & (t >= 0.0) & (s + t <= 1.0) & (nn > 0.0) & ~np.asarray(edges_only)
    return np.where(inside, np.minimum(best, dist_plane), best)


def segment_distance_ref(p1, q1, p2, q2, iterations: int = 100) -> float:
    """Distance between segments [p1,q1] and [p2,q2], either possibly a
    point, independent of the library: the distance from ``p1 + s (q1 -
    p1)`` to the second segment is convex in ``s``, so a ternary search
    over ``s`` in [0, 1] (interval shrinking by 2/3 per iteration) finds
    its minimum."""
    p1, q1, p2, q2 = (np.asarray(x, dtype=np.float64) for x in (p1, q1, p2, q2))

    def dist(s):
        x = p1 + s * (q1 - p1)
        d = q2 - p2
        dd = d @ d
        t = 0.0 if dd == 0.0 else min(max((x - p2) @ d / dd, 0.0), 1.0)
        return float(np.linalg.norm(x - (p2 + t * d)))

    lo, hi = 0.0, 1.0
    for _ in range(iterations):
        m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        if dist(m1) <= dist(m2):
            hi = m2
        else:
            lo = m1
    return min(dist(lo), dist(hi))


def _one_sided_min(sample_tris, target_tris, grid, edges_only):
    """Min over sampled surface points of one side to the other triangle."""
    m, p = sample_tris.shape[0], grid.shape[0]
    pts = _points(sample_tris, grid).reshape(m * p, 3)
    tiled = np.repeat(target_tris, p, axis=0)
    d = point_triangle_distance_ref(pts, tiled, np.repeat(edges_only, p)).reshape(m, p)
    best = np.argmin(d, axis=1)
    return d[np.arange(m), best], grid[best]


def sampling_distance_batch(tri_a: np.ndarray, tri_b: np.ndarray,
                            coarse_step: float = 1.0 / 20.0,
                            fine_step: float = 1.0 / 200.0,
                            chunk: int = 2048,
                            edges_only=(False, False)) -> tuple[np.ndarray, np.ndarray]:
    """Minimum triangle-triangle distance by one-sided grid sampling.

    Each triangle's surface is sampled on a barycentric grid against the
    exact reference distance to the other triangle, coarsely first and
    then on a fine local window around the best coarse sample.  The result
    can only overestimate the true minimum; the excess is bounded by the
    fine grid step times the sampled side's longest edge (the sampled-side
    Lipschitz constant of the distance).  ``edges_only`` holds a bool or
    (n,) mask per side: where set, that side's triangle has zero area and
    is the union of its edges.  Returns ``(distance, bound)``.
    """
    tri_a = np.asarray(tri_a, dtype=np.float64)
    tri_b = np.asarray(tri_b, dtype=np.float64)
    n = tri_a.shape[0]
    flat_a, flat_b = (np.broadcast_to(f, (n,)) for f in edges_only)
    out = np.empty(n)
    bound = np.empty(n)
    coarse = bary_grid(coarse_step)
    ratio = int(round(coarse_step / fine_step))
    off = np.arange(-ratio, ratio + 1) * fine_step
    oa, ob = np.meshgrid(off, off, indexing="ij")
    window = np.stack([oa.ravel(), ob.ravel()], axis=1)

    edge_len = {}
    for tag, tris in (("a", tri_a), ("b", tri_b)):
        e = tris[:, [1, 2, 0]] - tris
        edge_len[tag] = np.linalg.norm(e, axis=2).max(axis=1)

    for start in range(0, n, chunk):
        sl = slice(start, min(start + chunk, n))
        A, B = tri_a[sl], tri_b[sl]
        best = np.full(A.shape[0], np.inf)
        per_side = {}
        for tag, sample, target, flat in (("a", A, B, flat_b[sl]), ("b", B, A, flat_a[sl])):
            d, at = _one_sided_min(sample, target, coarse, flat)
            local = at[:, None, :] + window[None, :, :]
            np.clip(local, 0.0, 1.0, out=local)
            over = local.sum(axis=2) > 1.0
            excess = np.where(over, (local.sum(axis=2) - 1.0) / 2.0, 0.0)
            local -= excess[:, :, None]
            m, p = sample.shape[0], local.shape[1]
            pts = (
                sample[:, 0][:, None, :]
                + local[:, :, 0, None] * (sample[:, 1] - sample[:, 0])[:, None, :]
                + local[:, :, 1, None] * (sample[:, 2] - sample[:, 0])[:, None, :]
            ).reshape(m * p, 3)
            tiled = np.repeat(target, p, axis=0)
            d_fine = point_triangle_distance_ref(pts, tiled, np.repeat(flat, p))
            per_side[tag] = np.minimum(d, d_fine.reshape(m, p).min(axis=1))
        out[sl] = np.minimum(per_side["a"], per_side["b"])
        pick_a = per_side["a"] <= per_side["b"]
        bound[sl] = fine_step * np.where(pick_a, edge_len["a"][sl], edge_len["b"][sl])
    return out, bound


def _pad(bary: np.ndarray) -> np.ndarray:
    """(m, p, 2) -> (m, p, 3) weights for the (v2-v1, v3-v1) edge matrix."""
    zeros = np.zeros_like(bary[..., :1])
    return np.concatenate([zeros, bary], axis=2)


def central_difference(fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.ravel()
    xf = x.ravel()
    for k in range(xf.size):
        xp = xf.copy()
        xm = xf.copy()
        xp[k] += h
        xm[k] -= h
        flat[k] = (fn(xp.reshape(x.shape)) - fn(xm.reshape(x.shape))) / (2.0 * h)
    return grad


def mesh_pair_population(rng: np.random.Generator, n_pairs: int,
                         meshes: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Triangle pairs drawn from particle meshes at random poses and gaps.

    This is the kernel's operational envelope: well-shaped mesh triangles,
    arbitrary relative orientation, separations spanning contact and
    clear-of-contact ranges.
    """
    from tricontact.geometry import RigidMotion

    A = np.empty((n_pairs, 3, 3))
    B = np.empty((n_pairs, 3, 3))
    for k in range(n_pairs):
        mesh_a = meshes[int(rng.integers(len(meshes)))]
        mesh_b = meshes[int(rng.integers(len(meshes)))]
        gap = float(rng.uniform(0.0, 0.08)) if rng.random() < 0.7 else float(rng.uniform(0.0, 0.02))
        m_a = RigidMotion.random_rotation(rng)
        m_b = RigidMotion.random_rotation(rng, translation=(1.0 + gap, 0.0, 0.0))
        wa = m_a.apply_points(mesh_a.reshape(-1, 3)).reshape(-1, 3, 3)
        wb = m_b.apply_points(mesh_b.reshape(-1, 3)).reshape(-1, 3, 3)
        # the closest pair across the gap plus a random pair for variety
        ca = wa.mean(axis=1)
        cb = wb.mean(axis=1)
        if rng.random() < 0.7:
            ia = int(np.argmax(ca[:, 0]))
            ib = int(np.argmin(cb[:, 0]))
            ia = int(rng.choice(np.argsort(ca[:, 0])[-8:]))
            ib = int(rng.choice(np.argsort(cb[:, 0])[:8]))
        else:
            ia = int(rng.integers(wa.shape[0]))
            ib = int(rng.integers(wb.shape[0]))
        A[k] = wa[ia]
        B[k] = wb[ib]
    return A, B


def contact_wrench_reference(pairs, positions, normals, eps, masses, coms,
                             k_s: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-particle contact force and torque about each centre of mass, one
    contact at a time, for movable particles.

    Each contact pushes its first particle with the normal spring
    ``k_s * (1 - |n| / eps_first) * sqrt(reduced mass)`` along ``n`` (along
    the line between the centres of mass, at full strength, when ``n`` is
    zero); its second particle takes the negated force.
    """
    force = np.zeros((len(masses), 3))
    torque = np.zeros((len(masses), 3))
    for (i, j), x, n, (eps_first, _) in zip(pairs, positions, normals, eps):
        length = math.sqrt(float(n @ n))
        if length < 1e-12:
            axis = coms[i] - coms[j]
            direction, engagement = axis / math.sqrt(float(axis @ axis)), 1.0
        else:
            direction, engagement = n / length, 1.0 - length / eps_first
        reduced = 1.0 / (1.0 / masses[i] + 1.0 / masses[j])
        f = direction * (k_s * engagement * math.sqrt(reduced))
        for p, fp in ((i, f), (j, -f)):
            force[p] += fp
            torque[p] += np.cross(x - coms[p], fp)
    return force, torque


# ---------------------------------------------------------------------------
# Kernel references: the batch kernels as first written, one feature test or
# one ``(n, 3)`` row operation at a time.  ``tests/test_kernels.py`` checks
# the production kernels, which lay the same arithmetic out per coordinate
# and stack the feature tests, against these.
# ---------------------------------------------------------------------------


# edge k of a triangle runs from vertex _EDGE_START[k] to vertex _EDGE_END[k]
_EDGE_START = (0, 1, 2)
_EDGE_END = (1, 2, 0)


def _pair_max_sq_edge(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    ea = A[:, [1, 2, 0]] - A
    eb = B[:, [1, 2, 0]] - B
    la = np.einsum("ijk,ijk->ij", ea, ea).max(axis=1)
    lb = np.einsum("ijk,ijk->ij", eb, eb).max(axis=1)
    return np.maximum(la, lb)


def _penalty_value(x: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    a1, b1, a2, b2 = x[:, 0], x[:, 1], x[:, 2], x[:, 3]
    p = (
        np.maximum(0.0, a1 - 1.0)
        + np.maximum(0.0, -a1)
        + np.maximum(0.0, b1 - 1.0)
        + np.maximum(0.0, -b1)
        + np.maximum(0.0, a1 + b1 - 1.0)
        + np.maximum(0.0, a2 - 1.0)
        + np.maximum(0.0, -a2)
        + np.maximum(0.0, b2 - 1.0)
        + np.maximum(0.0, -b2)
        + np.maximum(0.0, a2 + b2 - 1.0)
    )
    return alpha * p


def closest_point_triangle_reference(points, tris) -> np.ndarray:
    """``closest_point_triangle_batch`` as first written: the seven regions
    claim their rows in priority order, and only claimed rows are computed."""
    p = np.asarray(points, dtype=REAL)
    tris = as_triangles(tris)
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    ab = b - a
    ac = c - a
    ap = p - a

    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)
    bp = p - b
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)
    cp = p - c
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)

    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    n = p.shape[0]
    u = np.zeros(n, dtype=REAL)  # weight along ab
    w = np.zeros(n, dtype=REAL)  # weight along ac
    done = np.zeros(n, dtype=bool)

    def claim(mask):
        fresh = mask & ~done
        done[fresh] = True
        return fresh

    # vertex A
    claim((d1 <= 0.0) & (d2 <= 0.0))
    # vertex B
    m = claim((d3 >= 0.0) & (d4 <= d3))
    u[m] = 1.0
    # edge AB
    m = claim((vc <= 0.0) & (d1 >= 0.0) & (d3 <= 0.0))
    u[m] = d1[m] / np.where(d1[m] - d3[m] == 0.0, 1.0, d1[m] - d3[m])
    # vertex C
    m = claim((d6 >= 0.0) & (d5 <= d6))
    w[m] = 1.0
    # edge AC
    m = claim((vb <= 0.0) & (d2 >= 0.0) & (d6 <= 0.0))
    w[m] = d2[m] / np.where(d2[m] - d6[m] == 0.0, 1.0, d2[m] - d6[m])
    # edge BC
    m = claim((va <= 0.0) & (d4 - d3 >= 0.0) & (d5 - d6 >= 0.0))
    denom = (d4[m] - d3[m]) + (d5[m] - d6[m])
    t = (d4[m] - d3[m]) / np.where(denom == 0.0, 1.0, denom)
    u[m] = 1.0 - t
    w[m] = t
    # interior
    m = ~done
    denom = va[m] + vb[m] + vc[m]
    denom = np.where(denom == 0.0, 1.0, denom)
    u[m] = vb[m] / denom
    w[m] = vc[m] / denom

    return a + u[:, None] * ab + w[:, None] * ac


def comparison_batch_reference(tri_a, tri_b, eps) -> BatchResult:
    """The comparison kernel as fifteen feature tests in a loop, one batch each."""
    A = as_triangles(tri_a)
    B = as_triangles(tri_b)
    n = A.shape[0]
    eps = _as_eps(eps, n)

    cand_d2 = np.empty((15, n), dtype=REAL)
    cand_pa = np.empty((15, n, 3), dtype=REAL)
    cand_pb = np.empty((15, n, 3), dtype=REAL)

    row = 0
    # six point-to-triangle tests
    for k in range(3):
        pt = A[:, k]
        closest = closest_point_triangle_batch(pt, B)
        diff = pt - closest
        cand_d2[row] = np.einsum("ij,ij->i", diff, diff)
        cand_pa[row] = pt
        cand_pb[row] = closest
        row += 1
    for k in range(3):
        pt = B[:, k]
        closest = closest_point_triangle_batch(pt, A)
        diff = pt - closest
        cand_d2[row] = np.einsum("ij,ij->i", diff, diff)
        cand_pa[row] = closest
        cand_pb[row] = pt
        row += 1
    # nine edge-to-edge tests
    for ka in range(3):
        pa0 = A[:, _EDGE_START[ka]]
        pa1 = A[:, _EDGE_END[ka]]
        for kb in range(3):
            pb0 = B[:, _EDGE_START[kb]]
            pb1 = B[:, _EDGE_END[kb]]
            c1, c2 = _closest_segment_segment(pa0, pa1, pb0, pb1)
            diff = c1 - c2
            cand_d2[row] = np.einsum("ij,ij->i", diff, diff)
            cand_pa[row] = c1
            cand_pb[row] = c2
            row += 1

    best = np.argmin(cand_d2, axis=0)
    idx = np.arange(n)
    distance = np.sqrt(cand_d2[best, idx])
    point_a = cand_pa[best, idx]
    point_b = cand_pb[best, idx]

    # six edge-to-plane tests: catch proper intersections
    cross_pts = np.zeros((6, n, 3), dtype=REAL)
    cross_ok = np.zeros((6, n), dtype=bool)
    row = 0
    for k in range(3):
        ok, x = _segment_triangle_crossings(A[:, _EDGE_START[k]], A[:, _EDGE_END[k]], B)
        cross_ok[row], cross_pts[row] = ok, x
        row += 1
    for k in range(3):
        ok, x = _segment_triangle_crossings(B[:, _EDGE_START[k]], B[:, _EDGE_END[k]], A)
        cross_ok[row], cross_pts[row] = ok, x
        row += 1

    intersecting = cross_ok.any(axis=0)
    if intersecting.any():
        sub = np.nonzero(intersecting)[0]
        pts = cross_pts[:, sub]            # (6, m, 3)
        ok = cross_ok[:, sub]              # (6, m)
        # midpoint of the two crossing points that are farthest apart
        diff = pts[:, None] - pts[None, :]                     # (6, 6, m, 3)
        pair_d2 = np.einsum("ijkl,ijkl->ijk", diff, diff)
        pair_ok = ok[:, None] & ok[None, :]
        pair_d2 = np.where(pair_ok, pair_d2, -1.0)
        flat = pair_d2.reshape(36, -1)
        best_pair = np.argmax(flat, axis=0)
        i0, i1 = best_pair // 6, best_pair % 6
        cols = np.arange(sub.size)
        mid = 0.5 * (pts[i0, cols] + pts[i1, cols])
        distance[sub] = 0.0
        point_a[sub] = mid
        point_b[sub] = mid

    kind = np.where(distance <= 2.0 * eps, np.int8(Kind.CONTACT), np.int8(Kind.NO_CONTACT))
    return BatchResult(kind, distance, point_a, point_b)


def iterative_batch_reference(tri_a, tri_b, eps) -> BatchResult:
    """The iterative kernel on ``(n, 3)`` rows with ``einsum`` dot products."""
    A = as_triangles(tri_a)
    B = as_triangles(tri_b)
    n = A.shape[0]
    eps = _as_eps(eps, n)

    e1a = A[:, 1] - A[:, 0]
    e2a = A[:, 2] - A[:, 0]
    e1b = B[:, 1] - B[:, 0]
    e2b = B[:, 2] - B[:, 0]
    base = A[:, 0] - B[:, 0]
    dirs = (e1a, e2a, -e1b, -e2b)  # d(diff)/d(coord k)

    sq = _pair_max_sq_edge(A, B)
    alpha_it = kernels.ALPHA_ITERATIVE * sq
    alpha_reg = kernels.ALPHA_REGULARISER * sq
    denom = np.stack(
        [np.einsum("ij,ij->i", e, e) for e in dirs],
        axis=1,
    ) + alpha_reg[:, None]
    denom = np.maximum(denom, _TINY)
    # third-edge directions: sliding along a + b = 1 treats the three
    # barycentric coordinates symmetrically, so boundary iterates cannot
    # jam against the shared constraint
    e3a = e2a - e1a
    e3b = e2b - e1b
    denom3a = np.maximum(np.einsum("ij,ij->i", e3a, e3a) + alpha_reg, _TINY)
    denom3b = np.maximum(np.einsum("ij,ij->i", e3b, e3b) + alpha_reg, _TINY)

    x = np.full((n, 4), kernels.START_COORD, dtype=REAL)

    def diff_vec(x):
        return (
            base
            + x[:, 0, None] * e1a
            + x[:, 1, None] * e2a
            - x[:, 2, None] * e1b
            - x[:, 3, None] * e2b
        )

    def j_hat(x):
        d = diff_vec(x)
        return 0.5 * np.einsum("ij,ij->i", d, d)

    j_total = j_hat(x) + _penalty_value(x, alpha_it)
    j_old = np.full(n, np.inf, dtype=REAL)
    d = diff_vec(x)
    partner = (1, 0, 3, 2)  # coordinate sharing the a + b <= 1 penalty
    # contact-point movement between the two last sweeps; the functional
    # change alone cannot flag still-moving iterates once J is below the
    # threshold scale (deep contacts), so both are tracked
    midpoint = A[:, 0] + x[:, 0, None] * e1a + x[:, 1, None] * e2a - 0.5 * d
    move = np.full(n, np.inf, dtype=REAL)
    for _ in range(kernels.N_ITERATIVE):
        j_old = j_total
        for k, e in enumerate(dirs):
            # descent substep on the quadratic part along the coordinate,
            # then the constraint substep: a Newton step on the coordinate's
            # penalty terms (Dirac kink terms dropped) that returns any
            # violated penalty to its boundary, i.e. clips the move to the
            # admissible interval
            target = x[:, k] - np.einsum("ij,ij->i", d, e) / denom[:, k]
            hi = np.maximum(0.0, 1.0 - np.maximum(x[:, partner[k]], 0.0))
            target = np.clip(target, 0.0, hi)
            step = target - x[:, k]
            x[:, k] = target
            d += step[:, None] * e
            if k % 2 == 1:
                # after both coordinates of a triangle: slide along its
                # a + b = 1 edge, (a, b) -> (a - t, b + t) with t in [-b, a]
                ka, kb = k - 1, k
                e3, den3 = (e3a, denom3a) if k == 1 else (-e3b, denom3b)
                t = -np.einsum("ij,ij->i", d, e3) / den3
                t = np.clip(t, -np.maximum(x[:, kb], 0.0), np.maximum(x[:, ka], 0.0))
                x[:, ka] -= t
                x[:, kb] += t
                d += t[:, None] * e3
        j_total = 0.5 * np.einsum("ij,ij->i", d, d) + _penalty_value(x, alpha_it)
        new_mid = A[:, 0] + x[:, 0, None] * e1a + x[:, 1, None] * e2a - 0.5 * d
        move = np.linalg.norm(new_mid - midpoint, axis=1)
        midpoint = new_mid

    jh = 0.5 * np.einsum("ij,ij->i", d, d)
    settled = (np.abs(j_total - j_old) <= kernels.C_FACTOR * eps) & (
        move <= kernels.MOVE_FACTOR * eps
    )
    contact = settled & (jh <= 2.0 * eps * eps)

    kind = np.full(n, np.int8(Kind.NOT_TERMINATED))
    kind[settled & ~contact] = np.int8(Kind.NO_CONTACT)
    kind[contact] = np.int8(Kind.CONTACT)

    point_a = A[:, 0] + x[:, 0, None] * e1a + x[:, 1, None] * e2a
    point_b = B[:, 0] + x[:, 2, None] * e1b + x[:, 3, None] * e2b
    distance = np.sqrt(2.0 * jh)
    return BatchResult(kind, distance, point_a, point_b)


# ---------------------------------------------------------------------------
# Surrogate-fit reference: the batch fit as first written, a descent loop of
# at most ``MAX_FIT_ITERATIONS`` iterations, each backtracking every row for
# up to 40 trials until the slowest row of the iteration finds its step.
# ``tests/test_surrogate.py`` checks that the production fit's single trial
# loop gives the same rows.  The ``exits`` tally is the only addition.  The
# tree-fit reference fits each height's nodes in one descent per child count,
# where the production build fits all of them in one.
# ---------------------------------------------------------------------------


def fit_reference(children):
    """Fitted ``(m, 3, 3)`` triangles of a ``(m, c, 3, 3)`` batch, and how
    many rows left by each exit: ``converged`` (an improvement below
    ``REL_TOL``), ``cap`` (``MAX_FIT_ITERATIONS`` steps), ``trials`` (40
    failed trials), ``tiny_step`` and ``zero_gradient``.  Reads the
    ``surrogate`` constants at call time."""
    children = np.asarray(children, dtype=REAL)
    m = children.shape[0]
    setup = surrogate._fit_setup(children)
    exits = dict.fromkeys(("converged", "cap", "trials", "tiny_step", "zero_gradient"), 0)

    tris = surrogate._seed_batch(children)
    energy, grad = surrogate._fit_terms(tris, children, *setup)
    diam = np.maximum(np.ptp(children.reshape(m, -1, 3), axis=1).max(axis=1), 1e-12)
    step = surrogate.INITIAL_STEP * diam
    active = np.ones(m, dtype=bool)

    for _ in range(surrogate.MAX_FIT_ITERATIONS):
        if not active.any():
            break
        gnorm = np.linalg.norm(grad.reshape(m, 9), axis=1)
        exits["zero_gradient"] += int((active & ~(gnorm > 0.0)).sum())
        active &= gnorm > 0.0
        trying = active.copy()
        moved = np.zeros(m, dtype=bool)
        for _ in range(40):
            if not trying.any():
                break
            scale = np.where(gnorm > 0.0, step / np.maximum(gnorm, 1e-300), 0.0)
            cand = tris - scale[:, None, None] * grad
            cand_energy, cand_grad = surrogate._fit_terms(cand, children, *setup)
            better = trying & (cand_energy < energy)
            if better.any():
                improvement = energy[better] - cand_energy[better]
                small = improvement <= surrogate.REL_TOL * np.maximum(
                    np.abs(cand_energy[better]), 1e-30)
                tris[better] = cand[better]
                energy[better] = cand_energy[better]
                grad[better] = cand_grad[better]
                step[better] *= surrogate.GROW
                moved[better] = True
                conv_idx = np.nonzero(better)[0][small]
                active[conv_idx] = False
                exits["converged"] += conv_idx.size
            trying &= ~better
            step[trying] *= surrogate.SHRINK
            tiny = trying & ~(step * gnorm > 1e-14 * diam)
            exits["tiny_step"] += int(tiny.sum())
            trying &= ~tiny
        exits["trials"] += int(trying.sum())
        active &= moved
    exits["cap"] = int(active.sum())
    return tris, exits


def batch_fit_and_chain_reference(tree, ids, tri, eps):
    """``surrogate._batch_fit_and_chain`` as first written: one fit and one
    halo chain per child count of the nodes ``ids``."""
    counts = tree.kid_count[ids]
    for count in np.unique(counts):
        group = ids[counts == count]
        rows = tree.kids[tree.kid_start[group][:, None] + np.arange(count)]
        batch = tri[rows]
        fitted = surrogate.fit_surrogate_triangle_batch(batch)
        tri[group] = fitted
        eps[group] = surrogate.conservative_epsilon(fitted, batch, eps[rows])
