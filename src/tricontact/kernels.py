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

The kernels take ``(n, 3, 3)`` triangle batches and return ``(n, ...)``
rows.  Classification against the contact threshold uses a per-pair halo
width ``eps``: a pair is in contact when the closest distance is at most
``2 * eps`` (two equal halos of width ``eps`` touching).

Layout.  The minimiser works per coordinate: each vertex, edge and iterate
is a ``(3, n)`` array whose rows are contiguous, updated in place in a few
preallocated length-n buffers, so that every numpy call streams whole rows
instead of ``(n, 3)`` temporaries and strided columns.  Its 3-term dot
products are summed as ``(u0*v0 + u2*v2) + u1*v1``, the order in which
numpy's ``einsum("ij,ij->i")`` sums them in float64 (measured with numpy
2.4 on x86-64), and its norms as ``sqrt((u0² + u1²) + u2²)``, as
``np.linalg.norm`` sums a row: the kernel rounds as its row-wise first
version did, so verdicts and contacts do not move.  The comparison
kernel stacks each kind of feature test into one batch (6n vertex-triangle
rows, 9n edge-edge rows, 6n edge-plane rows), so the number of numpy calls
it makes does not grow with the number of feature tests; every operation
is row by row, so stacking changes no result.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .geometry import REAL, as_triangles, degenerate_mask

_TINY = 1e-30


class Kind(IntEnum):
    NO_CONTACT = 0
    CONTACT = 1
    NOT_TERMINATED = 2


# The iterative kernel's method constants: its sweep count, the factors on
# the pair's halo of its two settle tests, the penalty weight and diagonal
# regulariser as factors on the pair's largest squared edge length (so the
# update is invariant under uniform scaling), and the start value of every
# barycentric coordinate.  The kernel's iterates stay in the barycentric
# box, where the penalty is zero, so ALPHA_ITERATIVE defines J only for the
# verification functions functional_value and gradient_of_J.
N_ITERATIVE = 4
C_FACTOR = 1.0
MOVE_FACTOR = 0.25
ALPHA_ITERATIVE = 10.0
ALPHA_REGULARISER = 1e-4
START_COORD = 1.0 / 3.0


@dataclass
class KernelParams:
    """The run's finest-level halo width ``epsilon`` (relative to a particle
    diameter of one), which ``build_scene`` takes.  The kernels' settings are
    the constants ``N_ITERATIVE``, ``C_FACTOR``, ``MOVE_FACTOR``,
    ``ALPHA_REGULARISER`` and ``START_COORD``; ``ALPHA_ITERATIVE`` weighs
    the penalty of J for ``functional_value`` and ``gradient_of_J`` only."""

    epsilon: float = 1e-2

    def __post_init__(self):
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be positive and finite")


@dataclass
class KernelCounters:
    """Monotone tallies of kernel work within a run."""

    iterative_invocations: int = 0
    comparison_invocations: int = 0
    fallback_invocations: int = 0


@dataclass
class BatchResult:
    """Column-wise kernel results for a batch of triangle pairs."""

    kind: np.ndarray      # (n,) int8, values of Kind
    distance: np.ndarray  # (n,)
    point_a: np.ndarray   # (n, 3) closest point on the first triangle
    point_b: np.ndarray   # (n, 3)

    def __len__(self) -> int:
        return self.kind.shape[0]

    def splice(self, mask: np.ndarray, other: "BatchResult") -> None:
        """Overwrite the masked rows with another result of matching size."""
        self.kind[mask] = other.kind
        self.distance[mask] = other.distance
        self.point_a[mask] = other.point_a
        self.point_b[mask] = other.point_b


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

    Returns the closest points ``(n, 3)``.  Region selection follows the
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

    return a + u[:, None] * ab + w[:, None] * ac


def _closest_segment_segment(p1, q1, p2, q2):
    """Closest points ``(c1, c2)`` between segments [p1,q1] and [p2,q2]
    (batched).  A segment of squared length at most ``_TINY`` is a point."""
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
    # a point as second segment: t < 0 takes the first one's closest point
    t = np.where(e > _TINY, (b * s + f) / e_safe, -1.0)

    a_safe = np.where(a > _TINY, a, 1.0)
    low = t < 0.0
    high = t > 1.0
    s = np.where(low, np.clip(-c / a_safe, 0.0, 1.0), s)
    s = np.where(high, np.clip((b - c) / a_safe, 0.0, 1.0), s)
    t = np.clip(t, 0.0, 1.0)

    return p1 + s[:, None] * d1, p2 + t[:, None] * d2


# Edge k of a triangle runs from vertex _EDGE_START[k] to vertex _EDGE_END[k].
# The nine edge-edge tests pair the first triangle's edge _EE_A[r] with the
# second's edge _EE_B[r], first triangle's edge outermost.
_EDGE_START = np.array([0, 1, 2])
_EDGE_END = np.array([1, 2, 0])
_EE_A = np.repeat(np.arange(3), 3)
_EE_B = np.tile(np.arange(3), 3)


def _rows(tris: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Vertex ``vertices[r]`` of every triangle, block ``r`` after block:
    shape ``(len(vertices) * n, 3)``."""
    return tris[:, vertices].transpose(1, 0, 2).reshape(-1, 3)


def _segment_triangle_crossings(p, q, tris):
    """Proper crossings of segments [p,q] through triangle interiors.

    Returns ``(valid (n,), point (n, 3))``; coplanar grazing does not count
    (those configurations are caught by the feature tests).  Evaluated in
    float64 whatever ``REAL`` is: in float32 the Gram determinant of a
    sliver triangle cancels, and far-off points test as inside.
    """
    p, q, tris = (np.asarray(x, dtype=np.float64) for x in (p, q, as_triangles(tris)))
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
    return crossing & inside, np.asarray(x, dtype=REAL)


def comparison_batch(tri_a: np.ndarray, tri_b: np.ndarray, eps) -> BatchResult:
    """Exact closest distance via feature tests; classifies against ``2*eps``.

    Each kind of feature test runs as one stacked batch over all pairs:
    the six vertex-triangle tests, the nine edge-edge tests and the six
    edge-plane crossings.  Every operation works row by row, so stacking
    changes no result.  Any pair of finite triangles is accepted: one that
    ``degenerate_mask`` flags has no face but is the union of its edges, so
    the vertex tests against it and the edge crossings through it are void.
    """
    A = as_triangles(tri_a)
    B = as_triangles(tri_b)
    n = A.shape[0]
    eps = _as_eps(eps, n)
    vertices = np.arange(3)
    # faceless[r]: the face read by vertex and crossing test r (B's, then A's) is missing
    faceless = np.repeat(degenerate_mask(np.concatenate([B, A])).reshape(2, n), 3, axis=0)

    # the triangle each vertex or edge of the other triangle is tested against
    other = np.concatenate([np.tile(B, (3, 1, 1)), np.tile(A, (3, 1, 1))])
    # six vertex-triangle tests: A's vertices against B, then B's against A
    pts = np.concatenate([_rows(A, vertices), _rows(B, vertices)])
    closest = closest_point_triangle_batch(pts, other)
    pts, closest = pts.reshape(2, 3, n, 3), closest.reshape(2, 3, n, 3)
    # nine edge-edge tests
    c1, c2 = _closest_segment_segment(
        _rows(A, _EDGE_START[_EE_A]), _rows(A, _EDGE_END[_EE_A]),
        _rows(B, _EDGE_START[_EE_B]), _rows(B, _EDGE_END[_EE_B]))

    cand_pa = np.concatenate([pts[0], closest[1], c1.reshape(9, n, 3)])
    cand_pb = np.concatenate([closest[0], pts[1], c2.reshape(9, n, 3)])
    diff = (cand_pa - cand_pb).reshape(-1, 3)
    cand_d2 = np.einsum("ij,ij->i", diff, diff).reshape(15, n)
    cand_d2[:6][faceless] = np.inf

    best = np.argmin(cand_d2, axis=0)
    idx = np.arange(n)
    distance = np.sqrt(cand_d2[best, idx])
    point_a = cand_pa[best, idx]
    point_b = cand_pb[best, idx]

    # six edge-to-plane tests: catch proper intersections
    cross_ok, cross_pts = _segment_triangle_crossings(
        np.concatenate([_rows(A, _EDGE_START), _rows(B, _EDGE_START)]),
        np.concatenate([_rows(A, _EDGE_END), _rows(B, _EDGE_END)]), other)
    cross_ok = cross_ok.reshape(6, n) & ~faceless
    cross_pts = cross_pts.reshape(6, n, 3)

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


# ---------------------------------------------------------------------------
# Iterative (penalty-minimisation) kernel.
# ---------------------------------------------------------------------------


def _coordinates(tris) -> np.ndarray:
    """Per-coordinate layout ``(3, 3, n)`` of triangles: ``[v, c]`` is
    coordinate ``c`` of vertex ``v`` of every triangle, contiguous."""
    return np.ascontiguousarray(as_triangles(tris).transpose(1, 2, 0))


def _dot(u: np.ndarray, v: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Dot products of per-coordinate vectors ``(3, n)`` into ``out``.

    Summed as ``(u0*v0 + u2*v2) + u1*v1``, the order in which numpy's
    ``einsum("ij,ij->i")`` sums three products, so that the kernels round
    as they did on ``(n, 3)`` rows."""
    np.multiply(u[0], v[0], out=out)
    np.multiply(u[2], v[2], out=tmp)
    out += tmp
    np.multiply(u[1], v[1], out=tmp)
    out += tmp
    return out


def _norm(u: np.ndarray) -> np.ndarray:
    """Lengths of per-coordinate vectors ``(3, n)``, summed as
    ``np.linalg.norm`` sums a row: ``sqrt((u0² + u1²) + u2²)``."""
    out = u[0] * u[0]
    out += u[1] * u[1]
    out += u[2] * u[2]
    return np.sqrt(out, out=out)


def _pair_max_sq_edge(va: np.ndarray, vb: np.ndarray) -> np.ndarray:
    """Largest squared edge length over both triangles of every pair."""
    n = va.shape[2]
    out = np.full(n, -np.inf, dtype=REAL)
    sq, tmp = np.empty(n, dtype=REAL), np.empty(n, dtype=REAL)
    for v in (va, vb):
        for p, q in ((1, 0), (2, 1), (0, 2)):
            edge = v[p] - v[q]
            np.maximum(out, _dot(edge, edge, sq, tmp), out=out)
    return out


def _penalty(x: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Penalty part of the functional at coordinates ``x = (a1, b1, a2, b2)``
    of shape ``(4, n)``: ``alpha`` times the sum, in this order, of each
    triangle's ``max(0, a - 1)``, ``max(0, -a)``, ``max(0, b - 1)``,
    ``max(0, -b)`` and ``max(0, a + b - 1)``."""
    out = np.zeros_like(x[0])
    for a, b in ((x[0], x[1]), (x[2], x[3])):
        for c in (a, b):
            out += np.maximum(0.0, c - 1.0)
            out += np.maximum(0.0, -c)
        out += np.maximum(0.0, a + b - 1.0)
    out *= alpha
    return out


def _penalty_gradient(x: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Subgradient of the penalty part at ``x`` of shape ``(4, n)``; zero
    exactly on the kinks."""
    side = (x - 1.0 > 0.0).astype(REAL) - (-x > 0.0).astype(REAL)
    shared = np.repeat((x[0::2] + x[1::2] - 1.0 > 0.0).astype(REAL), 2, axis=0)
    return alpha * (side + shared)


def iterative_batch(tri_a: np.ndarray, tri_b: np.ndarray, eps) -> BatchResult:
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

    After ``N_ITERATIVE`` sweeps a pair counts as settled when the
    functional changed by at most ``C_FACTOR * eps`` over the last sweep
    and the contact point (the midpoint of the separating segment) moved by
    at most ``MOVE_FACTOR * eps`` (the functional test alone is blind for
    deep pairs whose functional value sits below the threshold scale).  So
    both are evaluated twice, before and after the last sweep; with one
    sweep, before it is the start iterate.  The substeps and slides keep
    every iterate in the barycentric box, where the penalty is zero, so the
    functional compared is its quadratic part ``½‖x_A − x_B‖²`` and the
    penalty weight ``ALPHA_ITERATIVE`` is not read here.  Settled pairs
    with a small quadratic value are contacts, settled pairs with a large
    one are non-contacts, everything else is left open.  The regulariser
    ``ALPHA_REGULARISER`` and the start coordinate ``START_COORD`` are read
    at each call, like the sweep count and the settle factors.

    The batch is worked on per coordinate: vectors are ``(3, n)`` arrays
    and each coordinate a length-n row, updated in place in a few
    preallocated buffers.
    """
    A = as_triangles(tri_a)
    B = as_triangles(tri_b)
    n = A.shape[0]
    eps = _as_eps(eps, n)
    va, vb = _coordinates(A), _coordinates(B)
    # scratch rows and one scratch vector
    t, u = np.empty(n, dtype=REAL), np.empty(n, dtype=REAL)
    vec = np.empty((3, n), dtype=REAL)

    e1a, e2a = va[1] - va[0], va[2] - va[0]
    e1b, e2b = vb[1] - vb[0], vb[2] - vb[0]
    dirs = (e1a, e2a, -e1b, -e2b)  # d(diff)/d(coord k)
    alpha_reg = ALPHA_REGULARISER * _pair_max_sq_edge(va, vb)

    def denominator(e):
        return np.maximum(_dot(e, e, np.empty(n, dtype=REAL), t) + alpha_reg, _TINY)

    denom = [denominator(e) for e in dirs]
    # third-edge directions: sliding along a + b = 1 treats the three
    # barycentric coordinates symmetrically, so boundary iterates cannot
    # jam against the shared constraint
    e3a, e3b = e2a - e1a, e2b - e1b
    slides = ((e3a, denominator(e3a)), (-e3b, denominator(e3b)))

    x = np.full((4, n), START_COORD, dtype=REAL)
    d = va[0] - vb[0]  # the difference vector p_a(x) - p_b(x)
    for k, e in enumerate(dirs):
        d += np.multiply(x[k], e, out=vec)

    def on_a(out):
        """The first triangle's point at ``x``."""
        np.multiply(x[0], e1a, out=out)
        out += va[0]
        out += np.multiply(x[1], e2a, out=vec)
        return out

    partner = (1, 0, 3, 2)  # coordinate sharing the a + b <= 1 penalty
    for sweep in range(N_ITERATIVE):
        if sweep == N_ITERATIVE - 1:
            # the functional and the contact point (the midpoint of the
            # separating segment) before the last sweep; the functional
            # change alone cannot flag still-moving iterates once J is below
            # the threshold scale (deep contacts), so both are compared
            j_old = _dot(d, d, np.empty(n, dtype=REAL), u)
            j_old *= 0.5
            mid_old = on_a(np.empty((3, n), dtype=REAL))
            mid_old -= np.multiply(d, 0.5, out=vec)
        for k, e in enumerate(dirs):
            # descent substep on the quadratic part along the coordinate,
            # then the constraint substep: a Newton step on the coordinate's
            # penalty terms (Dirac kink terms dropped) that returns any
            # violated penalty to its boundary, i.e. clips the move to the
            # admissible interval [0, hi]; with the slide's interval below,
            # no coordinate goes under +0.0, so none needs a clamp
            target = _dot(d, e, t, u)
            target /= denom[k]
            np.subtract(x[k], target, out=target)
            hi = np.subtract(1.0, x[partner[k]], out=u)
            np.maximum(0.0, hi, out=hi)
            np.clip(target, 0.0, hi, out=target)
            step = np.subtract(target, x[k], out=u)
            x[k] = target
            d += np.multiply(step, e, out=vec)
            if k % 2 == 1:
                # after both coordinates of a triangle: slide along its
                # a + b = 1 edge, (a, b) -> (a - s, b + s) with s in [-b, a]
                e3, den3 = slides[k // 2]
                s = _dot(d, e3, t, u)
                np.negative(s, out=s)
                s /= den3
                np.clip(s, np.negative(x[k], out=u), x[k - 1], out=s)
                x[k - 1] -= s
                x[k] += s
                d += np.multiply(s, e3, out=vec)

    # after the last sweep, J is jh (no penalty acts in the box) and the
    # contact point is point_a - d / 2
    jh = _dot(d, d, t, u)
    jh *= 0.5
    point_a = on_a(np.empty((3, n), dtype=REAL))
    move = _norm(point_a - np.multiply(d, 0.5, out=vec) - mid_old)
    settled = (np.abs(jh - j_old) <= C_FACTOR * eps) & (move <= MOVE_FACTOR * eps)
    contact = settled & (jh <= 2.0 * eps * eps)

    kind = np.full(n, np.int8(Kind.NOT_TERMINATED))
    kind[settled & ~contact] = np.int8(Kind.NO_CONTACT)
    kind[contact] = np.int8(Kind.CONTACT)

    point_b = np.multiply(x[2], e1b, out=np.empty((3, n), dtype=REAL))
    point_b += vb[0]
    point_b += np.multiply(x[3], e2b, out=vec)
    distance = np.sqrt(2.0 * jh)
    return BatchResult(kind, distance, np.ascontiguousarray(point_a.T),
                       np.ascontiguousarray(point_b.T))


def hybrid_batch(tri_a: np.ndarray, tri_b: np.ndarray, counters: KernelCounters | None, eps,
                 allow_fallback=True) -> BatchResult:
    """Iterative kernel with comparison-based postprocessing of open pairs.

    ``allow_fallback`` may be a boolean or a per-pair mask; pairs whose
    fallback is suppressed (surrogate levels) keep ``NOT_TERMINATED``.
    """
    A = as_triangles(tri_a)
    B = as_triangles(tri_b)
    n = A.shape[0]
    eps = _as_eps(eps, n)
    res = iterative_batch(A, B, eps)
    if counters is not None:
        counters.iterative_invocations += n

    open_mask = res.kind == np.int8(Kind.NOT_TERMINATED)
    open_mask &= allow_fallback
    m = int(open_mask.sum())
    if m:
        res.splice(open_mask, comparison_batch(A[open_mask], B[open_mask], eps[open_mask]))
        if counters is not None:
            counters.comparison_invocations += m
            counters.fallback_invocations += m
    return res


# ---------------------------------------------------------------------------
# Analytic gradient of the penalised functional (for verification).
# ---------------------------------------------------------------------------


def _functional_terms(t1, t2, coords):
    """One pair's directions ``d(diff)/d(coord k)``, difference vector
    ``(3, 1)``, coordinates ``(4, 1)`` and penalty weight at ``coords``."""
    va, vb = _coordinates(t1), _coordinates(t2)
    x = np.array(coords, dtype=REAL).reshape(4, 1)
    dirs = (va[1] - va[0], va[2] - va[0], vb[0] - vb[1], vb[0] - vb[2])
    d = va[0] - vb[0] + sum(x[k] * e for k, e in enumerate(dirs))
    return dirs, d, x, ALPHA_ITERATIVE * _pair_max_sq_edge(va, vb)


def functional_value(t1, t2, a1, b1, a2, b2) -> float:
    """Value of the penalised distance functional at given coordinates."""
    _, d, x, alpha = _functional_terms(t1, t2, (a1, b1, a2, b2))
    return 0.5 * float((d * d).sum()) + float(_penalty(x, alpha)[0])


def gradient_of_J(t1, t2, a1, b1, a2, b2) -> np.ndarray:
    """Analytic gradient of the penalised functional, subgradient 0 at kinks."""
    dirs, d, x, alpha = _functional_terms(t1, t2, (a1, b1, a2, b2))
    grad_hat = np.array([(d * e).sum() for e in dirs], dtype=REAL)
    return grad_hat + _penalty_gradient(x, alpha)[:, 0]
