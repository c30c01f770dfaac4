"""Conservative surrogate-triangle trees.

Each particle gets a rooted hierarchy of single-triangle surrogates: the
root is the coarsest stand-in for the whole mesh, leaves hold disjoint
payloads of real triangle indices, and every node's halo width makes it
conservative for the geometry below it (fine geometry plus its halo can
never collide without the surrogate halo colliding first).

Construction is offline: k-means clustering of triangle barycenters splits
the mesh top-down, then a bottom-up pass fits each node's triangle to its
immediate children by penalised descent and assigns the smallest halo that
keeps the conservative chain intact.

A tree is flat arrays over node ids in preorder (root = 0): each node's
triangle, halo, parent and height, and CSR children (``kids``, ``kid_start``,
``kid_count``) in which a leaf's children are the fine ids ``n_nodes + t``
of its mesh triangles ``t``.  Tree files store them as JSON (format 2).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .geometry import REAL, as_triangles
from .kernels import closest_point_triangle_batch


class EmptyInput(ValueError):
    pass


class EmptyMesh(ValueError):
    pass


# ---------------------------------------------------------------------------
# Fit functional: max-distance hugging + area regulariser + outside penalty.
#
# The descent is batched over many independent fit problems of the same
# child count, which is what makes whole-tree construction cheap.  Its
# weights and controls are fixed, as in the paper.
# ---------------------------------------------------------------------------

BETA_SIZE = 8             # even exponent of the max-distance term
ALPHA_AREA = 1e-3         # area-regulariser weight, times (mean child area)**2
ALPHA_INSIDE = 1.0        # weight of the outside penalty
BETA_NORMAL = 2           # exponent of the outside penalty
MAX_FIT_ITERATIONS = 80   # accepted steps per problem, at most
REL_TOL = 1e-8            # an accepted step improving less than this converges
INITIAL_STEP = 0.05       # first step length, relative to the children's extent
SHRINK = 0.5              # backtracking factor of a rejected step
GROW = 1.5                # growth factor of an accepted step


def _fit_setup(children: np.ndarray):
    """Precompute child-dependent constants for a (m, c, 3, 3) batch.

    The area weight is relative, ``ALPHA_AREA * (mean child area)**2``, so
    the fit is scale invariant.
    """
    m, c = children.shape[0], children.shape[1]
    flat = children.reshape(m, c * 3, 3)  # child vertices per problem
    cross = np.cross(children[:, :, 1] - children[:, :, 0], children[:, :, 2] - children[:, :, 0])
    norm = np.linalg.norm(cross, axis=2, keepdims=True)
    normals = cross / np.where(norm > 0.0, norm, 1.0)          # (m, c, 3)
    normals_rep = np.repeat(normals, 3, axis=1)                # per child vertex
    areas = 0.5 * norm[..., 0]
    mean_area = areas.mean(axis=1)
    alpha_area = ALPHA_AREA * mean_area * mean_area            # (m,)
    return flat, normals_rep, alpha_area


def _fit_terms(tris, children, flat, normals_rep, alpha_area):
    """Fit energy ``(m,)`` and its gradient ``(m, 3, 3)`` at the ``(m, 3, 3)``
    triangles ``tris``; the other arguments are ``_fit_setup``'s."""
    m, c = children.shape[0], children.shape[1]
    # point-triangle distances: each of the 3 surrogate vertices vs each child
    q = np.repeat(tris.reshape(m, 3, 1, 3), c, axis=2).reshape(m * 3 * c, 3)
    t = np.repeat(children[:, None, :, :, :], 3, axis=1).reshape(m * 3 * c, 3, 3)
    closest = closest_point_triangle_batch(q, t)
    diff = (q - closest).reshape(m, 3, c, 3)
    dist = np.linalg.norm(diff, axis=3)
    size = (dist.reshape(m, 3 * c) ** BETA_SIZE).sum(axis=1) / BETA_SIZE
    grad = np.einsum("ivc,ivck->ivk", dist ** (BETA_SIZE - 2), diff)

    u = tris[:, 1] - tris[:, 0]
    v = tris[:, 2] - tris[:, 0]
    n = np.cross(u, v)
    nn = np.maximum(np.einsum("ij,ij->i", n, n), 1e-300)
    area = 0.5 * alpha_area / nn
    coef = (-0.5 * alpha_area / nn ** 2)[:, None]
    g_u = coef * 2.0 * np.cross(v, n)
    g_v = coef * 2.0 * np.cross(n, u)
    grad[:, 1] += g_u
    grad[:, 2] += g_v
    grad[:, 0] += -g_u - g_v

    # outside penalty, gated by the child outward normals
    s = np.einsum("ivk,ipk->ivp", tris, normals_rep) - np.einsum(
        "ipk,ipk->ip", flat, normals_rep
    )[:, None, :]
    outside = np.maximum(0.0, s)
    inside = ALPHA_INSIDE / BETA_NORMAL * (outside ** BETA_NORMAL).sum(axis=(1, 2))
    grad += ALPHA_INSIDE * np.einsum("ivp,ipk->ivk", outside ** (BETA_NORMAL - 1), normals_rep)
    return size + area + inside, grad


def _seed_batch(children: np.ndarray) -> np.ndarray:
    centers = children.mean(axis=2)                      # (m, c, 3)
    target = centers.mean(axis=1, keepdims=True)
    d2 = np.einsum("ick,ick->ic", centers - target, centers - target)
    pick = np.argmin(d2, axis=1)
    return children[np.arange(children.shape[0]), pick].copy()


def fit_surrogate_triangle_batch(children: np.ndarray) -> np.ndarray:
    """Fit one surrogate triangle per problem of a (m, c, 3, 3) batch.

    Gradient descent with backtracking from a copied child triangle, in one
    loop that scores one candidate per row per pass: a live row whose
    candidate scores lower takes the step and grows it by ``GROW``, any
    other shrinks its step by ``SHRINK``.  A row leaves on a step improving
    less than ``REL_TOL``, after ``MAX_FIT_ITERATIONS`` steps or 40 failed
    trials in a row, when its step falls to ``1e-14 * diam / gnorm``, or on
    a zero gradient.  Every returned triangle scores no worse than its
    seed.  Rows depend on their own problem only, so batching changes no
    bits, and a batch costs as many energy evaluations as its slowest row.
    """
    children = np.asarray(children, dtype=REAL)
    if children.ndim != 4 or children.shape[0] == 0 or children.shape[1] == 0:
        raise EmptyInput("expected a non-empty (m, c, 3, 3) batch")
    m = children.shape[0]
    setup = _fit_setup(children)

    tris = _seed_batch(children)
    energy, grad = _fit_terms(tris, children, *setup)
    diam = np.maximum(np.ptp(children.reshape(m, -1, 3), axis=1).max(axis=1), 1e-12)
    step = INITIAL_STEP * diam
    steps = np.zeros(m, dtype=np.int64)   # accepted steps
    failed = np.zeros(m, dtype=np.int64)  # failed trials since the last step
    live = np.ones(m, dtype=bool)
    while True:
        gnorm = np.linalg.norm(grad.reshape(m, 9), axis=1)
        live &= (gnorm > 0.0) & (steps < MAX_FIT_ITERATIONS) & (failed < 40)
        if not live.any():
            return tris
        scale = np.where(gnorm > 0.0, step / np.maximum(gnorm, 1e-300), 0.0)
        cand = tris - scale[:, None, None] * grad
        cand_energy, cand_grad = _fit_terms(cand, children, *setup)
        better = live & (cand_energy < energy)
        worse = live & ~better
        improvement = energy[better] - cand_energy[better]
        live[better] = improvement > REL_TOL * np.maximum(np.abs(cand_energy[better]), 1e-30)
        tris[better] = cand[better]
        energy[better] = cand_energy[better]
        grad[better] = cand_grad[better]
        step[better] *= GROW
        step[worse] *= SHRINK
        steps += better
        failed[better] = 0
        failed += worse
        live &= ~worse | (step * gnorm > 1e-14 * diam)


def conservative_epsilon(surrogates: np.ndarray, children: np.ndarray,
                         child_epsilons) -> np.ndarray:
    """Smallest halo making each of the ``(m, 3, 3)`` ``surrogates``
    conservative over its ``(m, c, 3, 3)`` ``children``.

    Point-to-triangle distance is convex in the query point, so its
    maximum over a child triangle is attained at a child vertex; the halo
    ``max_v (dist(v, surrogate) + eps_child)`` therefore contains every
    child's halo volume exactly.  ``child_epsilons`` broadcasts to
    ``(m, c)`` and keeps its dtype in the sum.
    """
    children = np.asarray(children, dtype=REAL)
    m, c = children.shape[:2]
    if c == 0:
        raise EmptyInput("no child triangles")
    pts = children.reshape(m * c * 3, 3)
    tiled = np.repeat(np.asarray(surrogates, dtype=REAL), c * 3, axis=0)
    closest = closest_point_triangle_batch(pts, tiled)
    dist = np.linalg.norm(pts - closest, axis=1).reshape(m, c, 3)
    return (dist + np.broadcast_to(child_epsilons, (m, c))[:, :, None]).max(axis=(1, 2))


# ---------------------------------------------------------------------------
# k-means clustering of triangles by barycenter.
# ---------------------------------------------------------------------------


def cluster_triangles(triangles: np.ndarray, k: int, seed: int) -> list[np.ndarray]:
    """Partition triangle indices into <= k compact, non-empty groups.

    Lloyd iterations on barycenters with deterministic farthest-point
    seeding; empty clusters are re-seeded from the largest cluster's
    farthest member.
    """
    triangles = as_triangles(triangles)
    n = triangles.shape[0]
    if n == 0:
        raise EmptyInput("no triangles to cluster")
    k = min(k, n)
    if k == 1:
        return [np.arange(n, dtype=np.int64)]
    centers_pts = triangles.mean(axis=1)

    rng = np.random.default_rng(seed)
    first = int(rng.integers(n))
    centers = [centers_pts[first]]
    d2 = np.einsum("ij,ij->i", centers_pts - centers[0], centers_pts - centers[0])
    for _ in range(k - 1):
        nxt = int(np.argmax(d2))
        centers.append(centers_pts[nxt])
        alt = np.einsum("ij,ij->i", centers_pts - centers[-1], centers_pts - centers[-1])
        d2 = np.minimum(d2, alt)
    centers = np.asarray(centers)

    assign = np.zeros(n, dtype=np.int64)
    for _ in range(50):
        diff = centers_pts[:, None, :] - centers[None, :, :]
        dist2 = np.einsum("ijk,ijk->ij", diff, diff)
        new_assign = np.argmin(dist2, axis=1)
        counts = np.bincount(new_assign, minlength=k)
        for empty in np.nonzero(counts == 0)[0]:
            big = int(np.argmax(counts))
            members = np.nonzero(new_assign == big)[0]
            far = members[np.argmax(dist2[members, big])]
            new_assign[far] = empty
            counts = np.bincount(new_assign, minlength=k)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            members = assign == c
            if members.any():
                centers[c] = centers_pts[members].mean(axis=0)
    return [np.nonzero(assign == c)[0].astype(np.int64) for c in range(k)]


# ---------------------------------------------------------------------------
# Surrogate tree.
# ---------------------------------------------------------------------------

TREE_FORMAT_VERSION = 2


@dataclass
class SurrogateTree:
    """A surrogate tree as flat arrays over node ids (see the module doc).

    ``parent`` is -1 at the root, ``height`` 1 at a leaf.  The constructor
    derives both and ``kid_start``, and raises ``ValueError`` unless the
    given arrays form a tree, each child numbered after its parent, over a
    permutation of the mesh, with finite triangles and halos and a positive
    finite ``finest_epsilon``.
    """

    tri: np.ndarray
    eps: np.ndarray
    kids: np.ndarray
    kid_count: np.ndarray
    n_surrogate: int
    finest_epsilon: float
    mesh_checksum: str
    kid_start: np.ndarray = field(init=False)
    parent: np.ndarray = field(init=False)
    height: np.ndarray = field(init=False)

    def __post_init__(self):
        n = self.n_nodes
        if (n == 0 or self.tri.shape != (n, 3, 3) or self.eps.shape != (n,)
                or self.kid_count.shape != (n,) or self.kids.ndim != 1
                or int(self.kid_count.sum()) != self.kids.size):
            raise ValueError("tree arrays have inconsistent lengths")
        if not (np.isfinite(self.tri).all() and np.isfinite(self.eps).all()):
            raise ValueError("tree triangles and halos must be finite")
        if (self.kid_count < 1).any():
            raise ValueError("a tree node has no children")
        if not 0.0 < self.finest_epsilon < np.inf:
            raise ValueError("finest_epsilon must be positive and finite")
        n_fine = self.kids.size - (n - 1)
        if self.kids.min() < 1 or self.kids.max() >= n + n_fine:
            raise ValueError("tree child id out of range")
        owner = np.repeat(np.arange(n), self.kid_count)
        inner = self.kids < n
        if not np.array_equal(np.sort(self.kids[inner]), np.arange(1, n)):
            raise ValueError("every tree node but the root needs exactly one parent")
        if (self.kids[inner] <= owner[inner]).any():
            raise ValueError("tree children must come after their parent")
        if not np.array_equal(np.sort(self.kids[~inner]), np.arange(n, n + n_fine)):
            raise ValueError("tree leaf payloads are not a permutation of the mesh")

        self.kid_start = np.cumsum(self.kid_count) - self.kid_count
        self.parent = np.full(n, -1, dtype=np.int64)
        self.parent[self.kids[inner]] = owner[inner]
        # one above the tallest child; each pass settles one more level
        self.height = np.ones(n, dtype=np.int64)
        while True:
            up = np.ones(n, dtype=np.int64)
            np.maximum.at(up, self.parent[1:], self.height[1:] + 1)
            if np.array_equal(up, self.height):
                break
            self.height = up

    @property
    def n_nodes(self) -> int:
        return self.tri.shape[0]

    def nodes(self) -> range:
        """Node ids, in preorder."""
        return range(self.n_nodes)

    def kids_of(self, node: int) -> np.ndarray:
        start = self.kid_start[node]
        return self.kids[start:start + self.kid_count[node]]

    def child_rows(self, triangles: np.ndarray):
        """Triangle and halo of every child id: the nodes', then the mesh's."""
        return (np.concatenate([self.tri, triangles]),
                np.concatenate([self.eps, np.full(len(triangles), self.finest_epsilon)]))


def mesh_checksum(triangles: np.ndarray) -> str:
    data = np.ascontiguousarray(as_triangles(triangles), dtype=np.float64)
    return hashlib.sha256(data.tobytes()).hexdigest()[:16]


def _child_seed(seed: int, index: int) -> int:
    return (seed * 1000003 + index + 1) % (2**63)


def _split_skeleton(triangles, indices, n_surrogate, seed, out):
    """Top-down clustering into preorder nodes; returns this node's id.

    Appends ``(is_leaf, kids)`` per node to ``out``: a leaf's kids are its
    mesh triangle indices, an internal node's its child node ids.
    """
    node = len(out)
    out.append(None)
    if indices.size <= n_surrogate:
        out[node] = (True, indices.copy())
        return node
    k = min(n_surrogate, int(np.ceil(indices.size / n_surrogate)))
    groups = cluster_triangles(triangles[indices], k, seed)
    kids = [_split_skeleton(triangles, indices[g], n_surrogate, _child_seed(seed, i), out)
            for i, g in enumerate(groups)]
    out[node] = (False, np.array(kids, dtype=np.int64))
    return node


def _batch_fit_and_chain(tree, ids, tri, eps):
    """Fit the triangles of nodes ``ids`` to their children and chain the halos.

    ``tri`` and ``eps`` hold the rows of every child id, mesh triangles
    included, and receive the fitted nodes; nodes are grouped by child
    count so the descent vectorises.
    """
    counts = tree.kid_count[ids]
    for count in np.unique(counts):
        group = ids[counts == count]
        rows = tree.kids[tree.kid_start[group][:, None] + np.arange(count)]
        batch = tri[rows]
        fitted = fit_surrogate_triangle_batch(batch)
        tri[group] = fitted
        eps[group] = conservative_epsilon(fitted, batch, eps[rows])


def build_surrogate_tree(triangles: np.ndarray, n_surrogate: int, seed: int = 0,
                         finest_epsilon: float = 1e-2) -> SurrogateTree:
    """Recursive top-down split, bottom-up fit and halo assignment.

    Leaves keep at most ``n_surrogate`` mesh triangle indices; their halo
    covers the payload plus the finest halo width.  Internal halos chain
    over the immediate children, which by transitivity contains all leaf
    geometry.  Identical inputs yield identical trees.  ``n_surrogate``
    must be at least 2, or a split would never shrink a node, and
    ``finest_epsilon`` positive and finite.
    """
    triangles = as_triangles(triangles)
    if triangles.shape[0] == 0:
        raise EmptyMesh("cannot build a surrogate tree over an empty mesh")
    if n_surrogate < 2:
        raise ValueError("n_surrogate must be >= 2")
    skeleton: list = []
    _split_skeleton(triangles, np.arange(triangles.shape[0], dtype=np.int64),
                    n_surrogate, seed, skeleton)
    leaf, kid_lists = zip(*skeleton)
    leaf, n = np.array(leaf), len(skeleton)
    kid_count = np.array([k.size for k in kid_lists], dtype=np.int64)
    tree = SurrogateTree(np.zeros((n, 3, 3), dtype=REAL), np.zeros(n),
                         np.concatenate(kid_lists) + np.repeat(np.where(leaf, n, 0), kid_count),
                         kid_count, n_surrogate, finest_epsilon, mesh_checksum(triangles))

    # fit bottom-up, one pass per height: every child of a node is lower
    tri, eps = tree.child_rows(triangles)
    for h in range(1, int(tree.height[0]) + 1):
        _batch_fit_and_chain(tree, np.flatnonzero(tree.height == h), tri, eps)
    tree.tri[:], tree.eps[:] = tri[:n], eps[:n]
    return tree


# ---------------------------------------------------------------------------
# Validation.
# ---------------------------------------------------------------------------


def _bary_samples(count: int) -> np.ndarray:
    """Deterministic barycentric sample set covering corners, edges, interior."""
    rows = int(np.ceil((np.sqrt(8.0 * count + 1.0) - 1.0) / 2.0)) + 1
    rows = max(rows, 2)
    pts = []
    for i in range(rows):
        for j in range(rows - i):
            pts.append((i / (rows - 1), j / (rows - 1)))
    return np.asarray(pts, dtype=REAL)


def validate_conservative(tree: SurrogateTree, triangles: np.ndarray,
                          samples_per_triangle: int = 10) -> dict:
    """Check every node's halo against the geometry below it.

    Two conditions per node: sampled surface points of every descendant
    mesh triangle, padded by the finest halo, must lie within the node's
    halo of the node's triangle; and the chain condition must hold, i.e.
    the smallest conservative halo over the immediate children (with their
    halos) must not exceed the node's halo.  Returns ``{"ok",
    "worst_slack", "checked_nodes"}``; negative slack means a violation of
    that depth.
    """
    triangles = as_triangles(triangles)
    bary = _bary_samples(samples_per_triangle)
    n = tree.n_nodes
    child_tri, child_eps = tree.child_rows(triangles)
    below = [None] * n  # mesh triangles under each node
    worst = np.inf
    checked = 0
    # children come after their parent, so visit them first
    for i in reversed(tree.nodes()):
        kids = tree.kids_of(i)
        below[i] = np.concatenate([kids[kids >= n] - n] + [below[k] for k in kids[kids < n]])
        tris = triangles[below[i]]
        v0 = tris[:, 0]
        e1 = tris[:, 1] - tris[:, 0]
        e2 = tris[:, 2] - tris[:, 0]
        pts = (
            v0[:, None, :]
            + bary[None, :, 0, None] * e1[:, None, :]
            + bary[None, :, 1, None] * e2[:, None, :]
        ).reshape(-1, 3)
        tiled = np.broadcast_to(tree.tri[i], (pts.shape[0], 3, 3))
        closest = closest_point_triangle_batch(pts, tiled)
        dist = np.linalg.norm(pts - closest, axis=1)
        slack = tree.eps[i] - (dist + tree.finest_epsilon)
        worst = min(worst, float(slack.min()))
        need = conservative_epsilon(tree.tri[i, None], child_tri[kids][None], child_eps[kids])
        worst = min(worst, float(tree.eps[i] - need[0]))
        checked += 1
    return {"ok": worst >= -1e-6, "worst_slack": worst, "checked_nodes": checked}


# ---------------------------------------------------------------------------
# Serialization (tree cache files).
# ---------------------------------------------------------------------------


def tree_to_json(tree: SurrogateTree) -> str:
    doc = {
        "version": TREE_FORMAT_VERSION,
        "n_surrogate": tree.n_surrogate,
        "finest_epsilon": tree.finest_epsilon,
        "mesh_checksum": tree.mesh_checksum,
        "tri": tree.tri.reshape(-1, 9).tolist(),
        "eps": tree.eps.tolist(),
        "kids": tree.kids.tolist(),
        "kid_count": tree.kid_count.tolist(),
    }
    return json.dumps(doc, sort_keys=True)


def tree_from_json(text: str) -> SurrogateTree:
    """Parse a tree file; raises ``ValueError`` unless it holds a valid tree."""
    doc = json.loads(text)
    version = doc.get("version") if isinstance(doc, dict) else None
    if version != TREE_FORMAT_VERSION:
        raise ValueError(f"unsupported tree format version {version!r}")
    try:
        return SurrogateTree(
            tri=np.asarray(doc["tri"], dtype=REAL).reshape(-1, 3, 3),
            eps=np.asarray(doc["eps"], dtype=np.float64),
            kids=np.asarray(doc["kids"], dtype=np.int64),
            kid_count=np.asarray(doc["kid_count"], dtype=np.int64),
            n_surrogate=int(doc["n_surrogate"]),
            finest_epsilon=float(doc["finest_epsilon"]),
            mesh_checksum=str(doc["mesh_checksum"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed tree file: {exc!r}") from exc
