"""Triangle-triangle closest-distance kernels.

Three routes to the same answer:

* a comparison-based kernel that tests the 15 vertex/edge feature pairs
  (plus six edge-to-plane tests to catch intersecting triangles) and is
  exact;
* a fixed-iteration penalty minimiser over the four barycentric
  coordinates that is branch-free and batch-friendly but may fail to
  settle within its iteration budget;
* a hybrid wrapper that runs the minimiser and falls back to the
  comparison kernel for the pairs that did not settle.

All kernels operate on batches ``(n, 3, 3)`` internally; the scalar API
wraps batches of one.  Classification against the contact threshold uses a
per-pair halo width ``eps``: a pair is in contact when the closest distance
is at most ``2 * eps`` (two equal halos of width ``eps`` touching).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .geometry import REAL, as_triangles, degenerate_mask

_TINY = 1e-30


class DegenerateTriangle(ValueError):
    """Raised when the comparison kernel receives a near-zero-area triangle."""


class Kind(IntEnum):
    NO_CONTACT = 0
    CONTACT = 1
    NOT_TERMINATED = 2


@dataclass
class KernelParams:
    """Tunables of the iterative/hybrid kernels.

    ``epsilon`` is the finest-level halo width (relative to a particle
    diameter of one).  ``alpha_iterative`` and ``alpha_regulariser`` are
    dimensionless factors: the penalty weight and the diagonal regulariser
    applied per pair are ``factor * max_squared_edge_length`` so that the
    update is invariant under uniform scaling of the geometry.
    ``c_factor`` scales the functional-change settle test and
    ``move_factor`` the contact-point-movement settle test of the
    iterative kernel.
    """

    epsilon: float = 1e-2
    n_iterative: int = 4
    c_factor: float = 1.0
    alpha_iterative: float = 10.0
    alpha_regulariser: float = 1e-4
    move_factor: float = 0.25
    start_coord: float = 1.0 / 3.0

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.n_iterative < 1:
            raise ValueError("n_iterative must be at least 1")
        if self.c_factor <= 0.0:
            raise ValueError("c_factor must be positive")
        if self.alpha_iterative <= 0.0 or self.alpha_regulariser <= 0.0:
            raise ValueError("penalty weights must be positive")


@dataclass
class KernelCounters:
    """Monotone tallies of kernel work within a run."""

    iterative_invocations: int = 0
    comparison_invocations: int = 0
    fallback_invocations: int = 0

    def as_dict(self) -> dict:
        return {
            "iterative_invocations": self.iterative_invocations,
            "comparison_invocations": self.comparison_invocations,
            "fallback_invocations": self.fallback_invocations,
        }


@dataclass
class BatchResult:
    """Column-wise kernel results for a batch of triangle pairs."""

    kind: np.ndarray      # (n,) int8, values of Kind
    distance: np.ndarray  # (n,)
    point_a: np.ndarray   # (n, 3) closest point on the first triangle
    point_b: np.ndarray   # (n, 3)
    bary_a: np.ndarray    # (n, 2)
    bary_b: np.ndarray    # (n, 2)

    def __len__(self) -> int:
        return self.kind.shape[0]

    def splice(self, mask: np.ndarray, other: "BatchResult") -> None:
        """Overwrite the masked rows with another result of matching size."""
        self.kind[mask] = other.kind
        self.distance[mask] = other.distance
        self.point_a[mask] = other.point_a
        self.point_b[mask] = other.point_b
        self.bary_a[mask] = other.bary_a
        self.bary_b[mask] = other.bary_b


@dataclass
class DistanceResult:
    """Scalar kernel result for a single triangle pair."""

    kind: Kind
    distance: float
    point_a: np.ndarray
    point_b: np.ndarray
    bary_a: tuple[float, float]
    bary_b: tuple[float, float]


def _scalar(res: BatchResult, i: int = 0) -> DistanceResult:
    return DistanceResult(
        kind=Kind(int(res.kind[i])),
        distance=float(res.distance[i]),
        point_a=res.point_a[i].copy(),
        point_b=res.point_b[i].copy(),
        bary_a=(float(res.bary_a[i, 0]), float(res.bary_a[i, 1])),
        bary_b=(float(res.bary_b[i, 0]), float(res.bary_b[i, 1])),
    )


def _as_eps(eps, n: int) -> np.ndarray:
    eps = np.asarray(eps, dtype=REAL)
    if eps.ndim == 0:
        eps = np.full(n, float(eps), dtype=REAL)
    if eps.shape != (n,):
        raise ValueError("eps must be scalar or shape (n,)")
    return eps


# ---------------------------------------------------------------------------
# Comparison-based kernel.
# ---------------------------------------------------------------------------


def closest_point_triangle_batch(points: np.ndarray, tris: np.ndarray):
    """Closest point on each triangle to each query point.

    Returns ``(closest (n, 3), bary (n, 2))``.  Region selection follows the
    classic seven-region decomposition (vertices, edges, interior).
    """
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

    closest = a + u[:, None] * ab + w[:, None] * ac
    return closest, np.stack([u, w], axis=1)


def _closest_segment_segment(p1, q1, p2, q2):
    """Closest points between segments [p1,q1] and [p2,q2] (batched).

    Returns ``(s, t, c1, c2)`` with parameters in [0, 1].
    """
    d1 = q1 - p1
    d2 = q2 - p2
    r = p1 - p2
    a = np.einsum("ij,ij->i", d1, d1)
    e = np.einsum("ij,ij->i", d2, d2)
    f = np.einsum("ij,ij->i", d2, r)
    c = np.einsum("ij,ij->i", d1, r)
    b = np.einsum("ij,ij->i", d1, d2)
    denom = a * e - b * b

    s = np.where(denom > _TINY, np.clip((b * f - c * e) / np.where(denom > _TINY, denom, 1.0), 0.0, 1.0), 0.0)
    e_safe = np.where(e > _TINY, e, 1.0)
    t = (b * s + f) / e_safe

    a_safe = np.where(a > _TINY, a, 1.0)
    low = t < 0.0
    high = t > 1.0
    s = np.where(low, np.clip(-c / a_safe, 0.0, 1.0), s)
    s = np.where(high, np.clip((b - c) / a_safe, 0.0, 1.0), s)
    t = np.clip(t, 0.0, 1.0)

    c1 = p1 + s[:, None] * d1
    c2 = p2 + t[:, None] * d2
    return s, t, c1, c2


# Edge k of a triangle runs from vertex _EDGE_START[k] to vertex _EDGE_END[k];
# _edge_bary maps the segment parameter back to barycentric coordinates.
_EDGE_START = (0, 1, 2)
_EDGE_END = (1, 2, 0)


def _edge_bary(k: int, s: np.ndarray) -> np.ndarray:
    if k == 0:  # v1 -> v2
        return np.stack([s, np.zeros_like(s)], axis=1)
    if k == 1:  # v2 -> v3
        return np.stack([1.0 - s, s], axis=1)
    return np.stack([np.zeros_like(s), 1.0 - s], axis=1)  # v3 -> v1


def _segment_triangle_crossings(p, q, tris):
    """Proper crossings of segments [p,q] through triangle interiors.

    Returns ``(valid (n,), point (n, 3))``; coplanar grazing does not count
    (those configurations are caught by the feature tests).
    """
    tris = as_triangles(tris)
    a = tris[:, 0]
    n = np.cross(tris[:, 1] - a, tris[:, 2] - a)
    dp = np.einsum("ij,ij->i", p - a, n)
    dq = np.einsum("ij,ij->i", q - a, n)
    crossing = dp * dq < 0.0
    denom = dp - dq
    t = dp / np.where(denom == 0.0, 1.0, denom)
    x = p + t[:, None] * (q - p)

    u = tris[:, 1] - a
    v = tris[:, 2] - a
    wv = x - a
    uu = np.einsum("ij,ij->i", u, u)
    uv = np.einsum("ij,ij->i", u, v)
    vv = np.einsum("ij,ij->i", v, v)
    wu = np.einsum("ij,ij->i", wv, u)
    wvv = np.einsum("ij,ij->i", wv, v)
    det = uu * vv - uv * uv
    det_safe = np.where(np.abs(det) > _TINY, det, 1.0)
    b1 = (vv * wu - uv * wvv) / det_safe
    b2 = (uu * wvv - uv * wu) / det_safe
    inside = (b1 >= 0.0) & (b2 >= 0.0) & (b1 + b2 <= 1.0)
    return crossing & inside, x


def comparison_batch(tri_a: np.ndarray, tri_b: np.ndarray, eps) -> BatchResult:
    """Exact closest distance via feature tests; classifies against ``2*eps``.

    Degenerate triangles must be filtered by the caller.
    """
    A = as_triangles(tri_a)
    B = as_triangles(tri_b)
    n = A.shape[0]
    eps = _as_eps(eps, n)

    cand_d2 = np.empty((15, n), dtype=REAL)
    cand_pa = np.empty((15, n, 3), dtype=REAL)
    cand_pb = np.empty((15, n, 3), dtype=REAL)
    cand_ba = np.empty((15, n, 2), dtype=REAL)
    cand_bb = np.empty((15, n, 2), dtype=REAL)
    vertex_bary = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], dtype=REAL)

    row = 0
    # six point-to-triangle tests
    for k in range(3):
        pt = A[:, k]
        closest, bb = closest_point_triangle_batch(pt, B)
        diff = pt - closest
        cand_d2[row] = np.einsum("ij,ij->i", diff, diff)
        cand_pa[row] = pt
        cand_pb[row] = closest
        cand_ba[row] = vertex_bary[k]
        cand_bb[row] = bb
        row += 1
    for k in range(3):
        pt = B[:, k]
        closest, ba = closest_point_triangle_batch(pt, A)
        diff = pt - closest
        cand_d2[row] = np.einsum("ij,ij->i", diff, diff)
        cand_pa[row] = closest
        cand_pb[row] = pt
        cand_ba[row] = ba
        cand_bb[row] = vertex_bary[k]
        row += 1
    # nine edge-to-edge tests
    for ka in range(3):
        pa0 = A[:, _EDGE_START[ka]]
        pa1 = A[:, _EDGE_END[ka]]
        for kb in range(3):
            pb0 = B[:, _EDGE_START[kb]]
            pb1 = B[:, _EDGE_END[kb]]
            s, t, c1, c2 = _closest_segment_segment(pa0, pa1, pb0, pb1)
            diff = c1 - c2
            cand_d2[row] = np.einsum("ij,ij->i", diff, diff)
            cand_pa[row] = c1
            cand_pb[row] = c2
            cand_ba[row] = _edge_bary(ka, s)
            cand_bb[row] = _edge_bary(kb, t)
            row += 1

    best = np.argmin(cand_d2, axis=0)
    idx = np.arange(n)
    distance = np.sqrt(cand_d2[best, idx])
    point_a = cand_pa[best, idx]
    point_b = cand_pb[best, idx]
    bary_a = cand_ba[best, idx]
    bary_b = cand_bb[best, idx]

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
        _, ba = closest_point_triangle_batch(mid, A[sub])
        _, bb = closest_point_triangle_batch(mid, B[sub])
        bary_a[sub] = ba
        bary_b[sub] = bb

    kind = np.where(distance <= 2.0 * eps, np.int8(Kind.CONTACT), np.int8(Kind.NO_CONTACT))
    return BatchResult(kind, distance, point_a, point_b, bary_a, bary_b)


# ---------------------------------------------------------------------------
# Iterative (penalty-minimisation) kernel.
# ---------------------------------------------------------------------------


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


def _penalty_gradient(x: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Subgradient of the penalty sum; zero exactly on the kinks."""
    a1, b1, a2, b2 = x[:, 0], x[:, 1], x[:, 2], x[:, 3]
    g = np.empty_like(x)
    s1 = (a1 + b1 - 1.0 > 0.0).astype(REAL)
    s2 = (a2 + b2 - 1.0 > 0.0).astype(REAL)
    g[:, 0] = (a1 - 1.0 > 0.0).astype(REAL) - (-a1 > 0.0).astype(REAL) + s1
    g[:, 1] = (b1 - 1.0 > 0.0).astype(REAL) - (-b1 > 0.0).astype(REAL) + s1
    g[:, 2] = (a2 - 1.0 > 0.0).astype(REAL) - (-a2 > 0.0).astype(REAL) + s2
    g[:, 3] = (b2 - 1.0 > 0.0).astype(REAL) - (-b2 > 0.0).astype(REAL) + s2
    return alpha[:, None] * g


def iterative_batch(tri_a: np.ndarray, tri_b: np.ndarray, params: KernelParams, eps) -> BatchResult:
    """Fixed-count alternating descent on the penalised distance functional.

    Each sweep relaxes the barycentric coordinates of both triangles in
    turn.  Per direction, a diagonal-preconditioned descent substep on the
    quadratic part is followed by the constraint substep: a Newton step on
    the direction's penalty terms with the Dirac kink contributions
    dropped, which returns any violated penalty to its boundary (the
    penalty weight cancels between gradient and curvature, so the substep
    clips the move to its admissible interval).  After a triangle's two
    coordinates comes a slide along its third edge, so the relaxation
    treats the three barycentric coordinates symmetrically.  Every substep
    sees the previous updates, making the quadratic phase a stable
    coordinate descent, and each sweep ends on a feasible iterate whose
    separation can only overestimate the true distance.

    After ``n_iterative`` sweeps a pair counts as settled when the
    functional change between the two last sweeps is within ``c_factor *
    eps`` and the contact-point movement is within ``move_factor * eps``
    (the functional test alone is blind for deep pairs whose functional
    value sits below the threshold scale).  Settled pairs with a small
    quadratic value are contacts, settled pairs with a large one are
    non-contacts, everything else is left open.
    """
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
    alpha_it = params.alpha_iterative * sq
    alpha_reg = params.alpha_regulariser * sq
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

    x = np.full((n, 4), params.start_coord, dtype=REAL)

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
    for _ in range(params.n_iterative):
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
    settled = (np.abs(j_total - j_old) <= params.c_factor * eps) & (
        move <= params.move_factor * eps
    )
    contact = settled & (jh <= 2.0 * eps * eps)

    kind = np.full(n, np.int8(Kind.NOT_TERMINATED))
    kind[settled & ~contact] = np.int8(Kind.NO_CONTACT)
    kind[contact] = np.int8(Kind.CONTACT)

    point_a = A[:, 0] + x[:, 0, None] * e1a + x[:, 1, None] * e2a
    point_b = B[:, 0] + x[:, 2, None] * e1b + x[:, 3, None] * e2b
    distance = np.sqrt(2.0 * jh)
    return BatchResult(kind, distance, point_a, point_b, x[:, :2].copy(), x[:, 2:].copy())


def hybrid_batch(
    tri_a: np.ndarray,
    tri_b: np.ndarray,
    params: KernelParams,
    counters: KernelCounters | None,
    eps,
    allow_fallback=True,
) -> BatchResult:
    """Iterative kernel with comparison-based postprocessing of open pairs.

    ``allow_fallback`` may be a boolean or a per-pair mask; pairs whose
    fallback is suppressed (surrogate levels) keep ``NOT_TERMINATED``.
    """
    A = as_triangles(tri_a)
    B = as_triangles(tri_b)
    n = A.shape[0]
    eps = _as_eps(eps, n)
    res = iterative_batch(A, B, params, eps)
    if counters is not None:
        counters.iterative_invocations += n

    open_mask = res.kind == np.int8(Kind.NOT_TERMINATED)
    if isinstance(allow_fallback, np.ndarray):
        open_mask = open_mask & allow_fallback
    elif not allow_fallback:
        return res
    m = int(open_mask.sum())
    if m:
        sub_a = A[open_mask]
        sub_b = B[open_mask]
        bad = degenerate_mask(sub_a) | degenerate_mask(sub_b)
        if bad.any():
            raise DegenerateTriangle("degenerate triangle in comparison fallback")
        res.splice(open_mask, comparison_batch(sub_a, sub_b, eps[open_mask]))
        if counters is not None:
            counters.comparison_invocations += m
            counters.fallback_invocations += m
    return res


# ---------------------------------------------------------------------------
# Scalar API.
# ---------------------------------------------------------------------------


def closest_comparison(t1, t2, params: KernelParams | None = None) -> DistanceResult:
    """Exact comparison-based distance; raises on degenerate input."""
    params = params or KernelParams()
    A = as_triangles(t1)
    B = as_triangles(t2)
    if degenerate_mask(A)[0] or degenerate_mask(B)[0]:
        raise DegenerateTriangle("degenerate triangle")
    return _scalar(comparison_batch(A, B, params.epsilon))


def closest_iterative(t1, t2, params: KernelParams | None = None) -> DistanceResult:
    params = params or KernelParams()
    return _scalar(iterative_batch(as_triangles(t1), as_triangles(t2), params, params.epsilon))


def closest_hybrid(
    t1, t2, params: KernelParams | None = None, counters: KernelCounters | None = None
) -> DistanceResult:
    params = params or KernelParams()
    return _scalar(hybrid_batch(as_triangles(t1), as_triangles(t2), params, counters, params.epsilon))


# ---------------------------------------------------------------------------
# Analytic gradient of the penalised functional (for verification).
# ---------------------------------------------------------------------------


def functional_value(t1, t2, a1, b1, a2, b2, params: KernelParams | None = None) -> float:
    """Value of the penalised distance functional at given coordinates."""
    params = params or KernelParams()
    A = as_triangles(t1)
    B = as_triangles(t2)
    sq = _pair_max_sq_edge(A, B)
    x = np.array([[a1, b1, a2, b2]], dtype=REAL)
    d = (
        A[:, 0]
        - B[:, 0]
        + x[:, 0, None] * (A[:, 1] - A[:, 0])
        + x[:, 1, None] * (A[:, 2] - A[:, 0])
        - x[:, 2, None] * (B[:, 1] - B[:, 0])
        - x[:, 3, None] * (B[:, 2] - B[:, 0])
    )
    jh = 0.5 * float(np.einsum("ij,ij->i", d, d)[0])
    return jh + float(_penalty_value(x, params.alpha_iterative * sq)[0])


def gradient_of_J(t1, t2, a1, b1, a2, b2, params: KernelParams | None = None) -> np.ndarray:
    """Analytic gradient of the penalised functional, subgradient 0 at kinks."""
    params = params or KernelParams()
    A = as_triangles(t1)
    B = as_triangles(t2)
    e1a = A[:, 1] - A[:, 0]
    e2a = A[:, 2] - A[:, 0]
    e1b = B[:, 1] - B[:, 0]
    e2b = B[:, 2] - B[:, 0]
    x = np.array([[a1, b1, a2, b2]], dtype=REAL)
    d = A[:, 0] - B[:, 0] + x[:, 0, None] * e1a + x[:, 1, None] * e2a - x[:, 2, None] * e1b - x[:, 3, None] * e2b
    grad_hat = np.stack(
        [
            np.einsum("ij,ij->i", d, e1a),
            np.einsum("ij,ij->i", d, e2a),
            -np.einsum("ij,ij->i", d, e1b),
            -np.einsum("ij,ij->i", d, e2b),
        ],
        axis=1,
    )
    alpha = params.alpha_iterative * _pair_max_sq_edge(A, B)
    return (grad_hat + _penalty_gradient(x, alpha))[0]
