"""Independent oracles for test verification.

These deliberately avoid the production code paths they check: distances
come from dense barycentric sampling, gradients from central finite
differences, contact wrenches from a loop over single contacts.
"""

import math

import numpy as np


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


def point_triangle_distance_ref(points: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Reference point-to-triangle distance, independent of the library.

    Takes the minimum of the in-triangle plane projection (when the foot
    lies inside, decided by barycentric signs) and the three point-segment
    distances.  ``points``: (n, 3); ``tris``: (n, 3, 3).
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
    inside = (s >= 0.0) & (t >= 0.0) & (s + t <= 1.0)
    return np.where(inside, np.minimum(best, dist_plane), best)


def _one_sided_min(sample_tris, target_tris, grid):
    """Min over sampled surface points of one side to the other triangle."""
    m, p = sample_tris.shape[0], grid.shape[0]
    pts = _points(sample_tris, grid).reshape(m * p, 3)
    tiled = np.repeat(target_tris, p, axis=0)
    d = point_triangle_distance_ref(pts, tiled).reshape(m, p)
    best = np.argmin(d, axis=1)
    return d[np.arange(m), best], grid[best]


def sampling_distance_batch(tri_a: np.ndarray, tri_b: np.ndarray,
                            coarse_step: float = 1.0 / 20.0,
                            fine_step: float = 1.0 / 200.0,
                            chunk: int = 2048) -> tuple[np.ndarray, np.ndarray]:
    """Minimum triangle-triangle distance by one-sided grid sampling.

    Each triangle's surface is sampled on a barycentric grid against the
    exact reference distance to the other triangle, coarsely first and
    then on a fine local window around the best coarse sample.  The result
    can only overestimate the true minimum; the excess is bounded by the
    fine grid step times the sampled side's longest edge (the sampled-side
    Lipschitz constant of the distance).  Returns ``(distance, bound)``.
    """
    tri_a = np.asarray(tri_a, dtype=np.float64)
    tri_b = np.asarray(tri_b, dtype=np.float64)
    n = tri_a.shape[0]
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
        for tag, sample, target in (("a", A, B), ("b", B, A)):
            d, at = _one_sided_min(sample, target, coarse)
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
            d_fine = point_triangle_distance_ref(pts, tiled).reshape(m, p).min(axis=1)
            per_side[tag] = np.minimum(d, d_fine)
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


def contact_wrench_reference(pairs, levels, positions, normals, eps, masses, coms,
                             k_s: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-particle contact force and torque about each centre of mass, one
    contact at a time, for movable particles.

    Each contact pushes its first particle with the normal spring
    ``k_s * (1 - |n| / eps_first) * sqrt(reduced mass)`` along ``n`` (along
    the line between the centres of mass, at full strength, when ``n`` is
    zero), scaled by ``2**-h`` for the larger surrogate height ``h`` of its
    sides; its second particle takes the negated force.
    """
    force = np.zeros((len(masses), 3))
    torque = np.zeros((len(masses), 3))
    for (i, j), level, x, n, (eps_first, _) in zip(pairs, levels, positions, normals, eps):
        length = math.sqrt(float(n @ n))
        if length < 1e-12:
            axis = coms[i] - coms[j]
            direction, engagement = axis / math.sqrt(float(axis @ axis)), 1.0
        else:
            direction, engagement = n / length, 1.0 - length / eps_first
        reduced = 1.0 / (1.0 / masses[i] + 1.0 / masses[j])
        f = direction * (k_s * engagement * math.sqrt(reduced) * 0.5 ** int(max(level)))
        for p, fp in ((i, f), (j, -f)):
            force[p] += fp
            torque[p] += np.cross(x - coms[p], fp)
    return force, torque
