"""Time integrators: explicit Euler and implicit Euler with Picard sweeps.

Every mode detects through one :class:`Forest`, which stacks all
particles' tree and mesh rows into one id space, and through one
detector, ``_detector``: each detection runs one bounding-sphere test over
all particle pairs at its poses, then the mode's detection, then one
merge.  All kernel work takes one route, ``_kernel_pass``, and all tree
detection one round, ``_refine``: count the checks, cull, run the kernel,
split.  The Single modes detect flat: one kernel pass over all mesh-row
pairings of every pair, the brute-force baseline, which reads no tree and
culls nothing (:func:`single_level_contacts`).  The other three modes
refine the trees of all pairs until no pairing splits
(:func:`multiscale_contacts`).  A round splits only the taller side of a
pairing, both sides when the heights are equal, and never a mesh side.
ExplicitMultiscale and ImplicitSurrogateInPicard start from the roots in
every detection.  ImplicitMultiscalePicard, the fused scheme, is
ImplicitSurrogateInPicard plus a carried :class:`Cut`, ``System.cut``: it
unfolds the cut that its last sweep left, in this step or the last one,
so it finds the same contacts in the same sweeps, and skips the pairings
that the particles' motion since then cannot have brought into reach.
The three implicit modes share one Picard driver.

Comparison-based fallbacks run only for pairs of real mesh triangles,
never on surrogate levels, and only mesh-level hits become contacts.
Tree pairings whose halos a separating axis proves apart skip the
kernel; they still count as checks (pairings examined) and also as
``StepStats.culled``.  Pairings that the fused scheme skips on a
positive margin are no checks; they count as ``StepStats.reused``, and
the size of the cut that it carries out of a step as ``StepStats.cut``.
Counter reports are deterministic for identical configurations.
Contacts stay one :class:`~tricontact.contact.Contacts` struct of arrays
from the kernel hits to the wrench: built by :meth:`Forest.contacts`,
merged by one :func:`merge_contacts` call per detection, and turned into
per-particle rates by ``_rates``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .contact import (Contacts, ForceModelParams, MassProperties, _length, accumulate,
                      contact_force, contacts_from_segments, immovable_mass,
                      mass_properties_from_mesh, merge_contacts)
from .geometry import REAL, RigidMotion, mesh_to_triangles
from .kernels import KernelCounters, KernelParams, Kind, hybrid_batch
from .surrogate import SurrogateTree, build_surrogate_tree

MODES = (
    "ExplicitSingle",
    "ExplicitMultiscale",
    "ImplicitSingle",
    "ImplicitSurrogateInPicard",
    "ImplicitMultiscalePicard",
)

EXPLICIT_MODES = ("ExplicitSingle", "ExplicitMultiscale")
IMPLICIT_MODES = ("ImplicitSingle", "ImplicitSurrogateInPicard", "ImplicitMultiscalePicard")


class PicardDiverged(RuntimeError):
    def __init__(self, step_index: int, iterations: int):
        super().__init__(f"Picard loop exceeded {iterations} iterations at step {step_index}")
        self.step_index = step_index
        self.iterations = iterations


@dataclass
class StepConfig:
    dt: float = 1e-4
    mode: str = "ExplicitSingle"
    max_picard_iterations: int = 200
    force: ForceModelParams = field(default_factory=ForceModelParams)

    def __post_init__(self):
        if not 0.0 < self.dt < np.inf:
            raise ValueError("dt must be positive and finite")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.max_picard_iterations < 1:
            raise ValueError("max_picard_iterations must be >= 1")


# ---------------------------------------------------------------------------
# Tree rows of several particles for batched traversal.
# ---------------------------------------------------------------------------


class Forest:
    """The tree rows of several particles stacked into one int32 id space.

    Tree ``k`` is the surrogate tree of ``particles[k]`` with its mesh
    triangles appended; a particle whose ``tree`` is None has mesh rows
    only.  Tree ``k`` holds the ids ``offset[k] .. offset[k + 1] - 1``:
    first its nodes in preorder, root first, then from ``mesh[k]`` on one
    row per mesh triangle, which the tree's CSR lists as the children of
    their leaves.  A mesh row has the particle's halo ``epsilon``, height 0
    and itself as its only child.  Every row's owner is its particle's
    position ``k`` and its source is its node id, or its mesh triangle
    index on the mesh level (height 0); ``tri`` holds the rows' body-frame
    triangles.  ``com[k]`` is particle ``k``'s body-frame centre of mass
    and ``radius[k]`` the largest distance from it to a vertex of the
    tree's rows, nodes included; ``bound[k]`` is the radius of its
    broad-phase sphere, the largest distance to a mesh vertex plus the
    halo.  A pairing is a pair of ids.
    """

    def __init__(self, particles: list[Particle]):
        trees = [p.tree or _NO_TREE for p in particles]
        fine = [len(p.body_tris) for p in particles]
        nodes = np.array([t.n_nodes for t in trees], dtype=np.int32)
        self.offset = np.cumsum(np.r_[0, nodes + fine], dtype=np.int32)
        self.mesh = self.offset[:-1] + nodes
        self.tri = np.concatenate([rows for t, p in zip(trees, particles)
                                   for rows in (t.tri, p.body_tris)])
        self.eps = np.concatenate([np.r_[t.eps, np.full(f, p.epsilon)]
                                   for t, f, p in zip(trees, fine, particles)]).astype(REAL)
        self.height = np.concatenate([np.pad(t.height, (0, f)) for t, f in zip(trees, fine)],
                                     dtype=np.int32)
        self.source = np.concatenate([np.r_[:t.n_nodes, :f] for t, f in zip(trees, fine)])
        self.owner = np.repeat(np.arange(len(particles), dtype=np.int32), np.diff(self.offset))
        self.kids = np.concatenate([np.r_[t.kids, t.n_nodes:t.n_nodes + f] + o
                                    for t, f, o in zip(trees, fine, self.offset)], dtype=np.int32)
        self.kid_count = np.concatenate([np.pad(t.kid_count, (0, f), constant_values=1)
                                         for t, f in zip(trees, fine)])
        self.kid_start = np.cumsum(self.kid_count) - self.kid_count
        self.com = np.array([p.mass.center_of_mass for p in particles], dtype=np.float64)
        self.radius = np.array([_length(self.tri[lo:hi].reshape(-1, 3) - c).max() for lo, hi, c
                                in zip(self.offset[:-1], self.offset[1:], self.com)])
        # in the mesh's dtype, unlike com
        self.bound = np.array([float(np.linalg.norm(
            p.body_tris.reshape(-1, 3) - p.mass.center_of_mass, axis=1).max()) + p.epsilon
            for p in particles])

    def moved(self, before: list[RigidMotion], after: list[RigidMotion]) -> np.ndarray:
        """Per particle, a bound on how far any vertex of its rows moves from
        the poses ``before`` to ``after``: ``|dc| + |dR|_F radius``, with c
        the world centre of mass and R the rotation matrix."""
        out = np.zeros(len(before))
        for k, (m0, m1) in enumerate(zip(before, after)):
            dc = m1.apply_points(self.com[k]) - m0.apply_points(self.com[k])
            dr = m1.rotation_matrix().astype(np.float64) - m0.rotation_matrix()
            out[k] = np.linalg.norm(dc.astype(np.float64)) + np.linalg.norm(dr) * self.radius[k]
        return out

    def world(self, motions: list[RigidMotion], pairs, mesh_only: bool = False) -> np.ndarray:
        """World-frame triangles: the rows of each tree that ``pairs`` names
        (its mesh rows only, with ``mesh_only``) are moved once by its
        motion, the other rows are left unset."""
        world = np.empty((int(self.offset[-1]), 3, 3), dtype=REAL)
        first = self.mesh if mesh_only else self.offset
        for k in {k for pair in pairs for k in pair}:
            rows = slice(first[k], self.offset[k + 1])
            world[rows] = motions[k].apply_points(self.tri[rows].reshape(-1, 3)).reshape(-1, 3, 3)
        return world

    def contacts(self, res, hits: np.ndarray, a: np.ndarray, b: np.ndarray) -> Contacts:
        """Contacts of the kernel results ``res`` at ``hits`` of the pairings
        ``(a, b)``: per side the halo, the owner (the pair) and the source."""
        a, b = a[hits], b[hits]
        sides = (np.stack([row[a], row[b]], axis=1) for row in (self.eps, self.owner, self.source))
        return contacts_from_segments(res.point_a[hits], res.point_b[hits], *sides)


# the tree rows of a particle without a tree: none
_NO_TREE = SimpleNamespace(n_nodes=0, tri=np.zeros((0, 3, 3), dtype=REAL), eps=np.zeros(0),
                           height=np.zeros(0, dtype=np.int64), kids=np.zeros(0, dtype=np.int64),
                           kid_count=np.zeros(0, dtype=np.int64))


# ---------------------------------------------------------------------------
# Particles and systems.
# ---------------------------------------------------------------------------


@dataclass
class Particle:
    """A rigid particle: its mesh in the body frame and its surrogate tree
    over that mesh, whose rows :class:`Forest` stacks for detection.  Flat
    detection reads the mesh rows only, so there ``tree`` may be None."""

    body_tris: np.ndarray
    tree: SurrogateTree | None
    motion: RigidMotion
    v: np.ndarray
    omega: np.ndarray
    mass: MassProperties
    epsilon: float


@dataclass
class System:
    particles: list[Particle]
    gravity: np.ndarray = field(default_factory=lambda: np.zeros(3, dtype=REAL))
    time: float = 0.0
    step_index: int = 0
    # the fused mode's carried cut (ImplicitMultiscalePicard), None before
    # its first detection
    cut: Cut | None = None

    @cached_property
    def forest(self) -> Forest:
        """All particles' tree rows in one id space, owners = particle ids."""
        return Forest(self.particles)


def system_from_scene(scene, kernel_params: KernelParams | None = None,
                      n_surrogate: int = 8) -> System:
    """Build particles (mass properties + surrogate trees) from a scene.

    ``kernel_params`` is not read: the halo widths come with the scene."""
    particles = []
    for idx, sp in enumerate(scene.particles):
        tris = mesh_to_triangles(sp.vertices, sp.faces)
        tree = build_surrogate_tree(tris, n_surrogate, seed=idx, finest_epsilon=sp.epsilon)
        mass = immovable_mass() if sp.immovable else mass_properties_from_mesh(tris, sp.density)
        particles.append(
            Particle(
                body_tris=tris,
                tree=tree,
                motion=sp.motion,
                v=np.asarray(sp.velocity, dtype=REAL).copy(),
                omega=np.asarray(sp.omega, dtype=REAL).copy(),
                mass=mass,
                epsilon=sp.epsilon,
            )
        )
    return System(particles=particles, gravity=np.asarray(scene.gravity, dtype=REAL))


# ---------------------------------------------------------------------------
# Counters.
# ---------------------------------------------------------------------------


@dataclass
class StepStats:
    """Per-step detection workload and solver telemetry."""

    sweep_histograms: list = field(default_factory=list)  # per sweep: height bin -> checks
    picard_iterations: int = 0
    contacts_merged: int = 0
    kernel: KernelCounters = field(default_factory=KernelCounters)
    broad_phase_pairs: int = 0
    culled: int = 0  # tree pairings proved clear before the kernel (also checks)
    reused: int = 0  # cut pairings skipped on a positive margin (no checks)
    cut: int = 0  # pairings of the carried cut after the step (fused mode only)

    def record_checks(self, level_bin: int, count: int) -> None:
        """Count ``count`` pairings examined in ``level_bin`` in the current
        sweep, opening the first one if there is none."""
        if count:
            if not self.sweep_histograms:
                self.begin_sweep()
            hist = self.sweep_histograms[-1]
            hist[level_bin] = hist.get(level_bin, 0) + count

    def begin_sweep(self) -> None:
        self.sweep_histograms.append({})

    @property
    def checks_by_level(self) -> dict:
        """Pairings examined per height bin, summed over the sweeps."""
        return dict(sum(map(Counter, self.sweep_histograms), Counter()))

    @property
    def total_checks(self) -> int:
        return sum(self.checks_by_level.values())

    @property
    def finest_checks(self) -> int:
        return self.checks_by_level.get(0, 0)


# ---------------------------------------------------------------------------
# Detection: broad phase, flat and tree detection, one detector for all modes.
# ---------------------------------------------------------------------------


def broad_phase_pairs(system: System, motions: list[RigidMotion] | None = None) -> list[tuple[int, int]]:
    """Particle pairs whose bounding spheres overlap, one test over all pairs.

    Returns lexicographically sorted (i, j) with i < j.  This stage is
    bookkeeping, not detection: its tests are excluded from all counters.
    """
    particles = system.particles
    motions = motions or [p.motion for p in particles]
    centers = np.array([m.apply_points(p.mass.center_of_mass)
                        for m, p in zip(motions, particles)]).reshape(-1, 3)
    radii = system.forest.bound
    i, j = np.triu_indices(len(particles), 1)
    near = _length(centers[i] - centers[j]) <= radii[i] + radii[j]
    return list(zip(i[near].tolist(), j[near].tolist()))


# Pairings per kernel call: few enough that the iterative kernel's buffers
# (about 12 MB) stay in cache, twice as fast per pair as one 320 x 320 call;
# and tree pairings per cull call, where larger slices cost memory and time.
_KERNEL_SLICE = 16384
_SLICE = 1024
_NO_IDS = np.zeros(0, dtype=np.int32)


def _kernel_pass(forest: Forest, world: np.ndarray, a: np.ndarray, b: np.ndarray,
                 stats: StepStats, axes: bool = False) -> tuple[Contacts, np.ndarray, np.ndarray | None]:
    """Contacts, hybrid-kernel verdicts ``kind`` and, with ``axes``, the
    kernel's directions ``point_b - point_a`` (None without) of the
    :class:`Forest` pairings ``(a[k], b[k])``, ``_KERNEL_SLICE`` per kernel
    call (the kernels work row by row, so slicing changes no result).  Each
    pairing's halo is the mean of its rows' ``eps``; the comparison
    fallback runs on, and contacts come from, mesh-level pairings only."""
    found, kinds, dirs = [], [np.zeros(0, dtype=np.int8)], [np.zeros((0, 3), dtype=REAL)]
    for s in range(0, a.size, _KERNEL_SLICE):
        sa, sb = a[s:s + _KERNEL_SLICE], b[s:s + _KERNEL_SLICE]
        mesh = np.maximum(forest.height[sa], forest.height[sb]) == 0
        res = hybrid_batch(world[sa], world[sb], stats.kernel,
                           0.5 * (forest.eps[sa] + forest.eps[sb]), allow_fallback=mesh)
        found.append(forest.contacts(res, mesh & (res.kind == np.int8(Kind.CONTACT)), sa, sb))
        kinds.append(res.kind)
        if axes:
            dirs.append(res.point_b - res.point_a)
    return Contacts.concat(found), np.concatenate(kinds), np.concatenate(dirs) if axes else None


def single_level_contacts(forest: Forest, motions: list[RigidMotion], pairs,
                          stats: StepStats) -> Contacts:
    """Unmerged contacts of all mesh-row pairings of the pairs ``pairs``
    (flat detection, the brute-force baseline: no cull).

    Only mesh rows are read, and each particle is moved once.  The
    pairings of all pairs, pair by pair in row-major source order, take
    one :func:`_kernel_pass`, whose slices may span pairs; the contacts
    come in (pair, source) order."""
    world = forest.world(motions, pairs, mesh_only=True)
    rows = [np.arange(forest.mesh[k], forest.offset[k + 1]) for k in range(forest.mesh.size)]
    gi = np.concatenate([_NO_IDS, *(np.repeat(rows[k], rows[l].size) for k, l in pairs)])
    gj = np.concatenate([_NO_IDS, *(np.tile(rows[l], rows[k].size) for k, l in pairs)])
    stats.record_checks(0, gi.size)
    return _kernel_pass(forest, world, gi, gj, stats)[0]


def _margin(tri_a: np.ndarray, tri_b: np.ndarray, reach: np.ndarray,
            axis: np.ndarray | None = None) -> np.ndarray:
    """By how much a separating axis proves pairings farther apart than
    ``reach``: positive for a proof, -inf where there is no axis.

    The axis is the unit vector u along ``axis``, one row per pairing, or,
    without one, between the triangles' centroids; a zero row gives none.
    As ``|b - a| >= (b - a).u``, the gap ``min(b.u) - max(a.u)`` less
    ``reach`` and a few rounding units of the pairing's own largest
    coordinate is a margin by which the pairing is clear (Gottschalk, Lin
    and Manocha, SIGGRAPH 1996; Ericson, *Real-Time Collision Detection*,
    5.2).  Along the kernel's own direction ``point_b - point_a`` it is the
    lower bound L of GJK's termination gap (Gilbert, Johnson and Keerthi,
    IEEE J. Robotics and Automation 1988).  It stays a lower bound while
    the vertices move by less than it in total."""
    if axis is None:
        # vertex by vertex: numpy's reductions over short inner axes are slow
        axis = tri_b[:, 0] + tri_b[:, 1] + tri_b[:, 2] - (tri_a[:, 0] + tri_a[:, 1] + tri_a[:, 2])
    length = np.sqrt(np.einsum("ij,ij->i", axis, axis))
    u = axis / np.where(length > 0.0, length, 1.0)[:, None]
    pa = np.einsum("ikj,ij->ik", tri_a, u)
    pb = np.einsum("ikj,ij->ik", tri_b, u)
    gap = (np.minimum(np.minimum(pb[:, 0], pb[:, 1]), pb[:, 2])
           - np.maximum(np.maximum(pa[:, 0], pa[:, 1]), pa[:, 2]))
    scale = np.maximum.reduce([np.abs(t[:, v, k]) for t in (tri_a, tri_b)
                               for v in range(3) for k in range(3)])
    margin = gap - (reach + 64.0 * np.finfo(tri_a.dtype).eps * scale)
    return np.where(length > 0.0, margin, -np.inf)


def _margins(forest: Forest, world: np.ndarray, gi: np.ndarray, gj: np.ndarray,
             axis: np.ndarray | None = None) -> np.ndarray:
    """:func:`_margin` of the :class:`Forest` pairings ``(gi[k], gj[k])``
    beyond the sum of their rows' ``eps``, along the rows of ``axis`` if
    given, ``_SLICE`` at a time."""
    return np.concatenate([np.zeros(0), *(
        _margin(world[a], world[b], forest.eps[a] + forest.eps[b],
                None if axis is None else axis[s:s + _SLICE])
        for s in range(0, gi.size, _SLICE) for a, b in [(gi[s:s + _SLICE], gj[s:s + _SLICE])])])


def _refine(forest: Forest, world: np.ndarray, gi: np.ndarray, gj: np.ndarray,
            stats: StepStats, carry: bool = False):
    """One round of tree detection on the :class:`Forest` pairings
    ``(gi[k], gj[k])`` of any pairs.

    Every pairing counts as a check in its height bin (the larger height
    of its sides).  Pairings with a positive :func:`_margin` along the line
    between their centroids are culled; the rest take one
    :func:`_kernel_pass`.  A pairing with contact or an unsettled verdict
    splits unless it is mesh-mesh: its taller side opens into its
    children, both sides when the heights are equal, and a mesh side never
    (Ericson, *Real-Time Collision Detection*, 6.3.2).  Returns the
    mesh-level contacts, the pairings that did not split with their
    margins, and the children of those that did, parents in order and
    each one's children in row-major order.  A culled pairing keeps its
    cull margin and every other one -inf, except that with ``carry`` (a
    cut that outlives the round) a NO_CONTACT pairing gets its margin
    along the kernel's direction ``point_b - point_a``; no verdict depends
    on it.
    """
    height = np.maximum(forest.height[gi], forest.height[gj])
    for lvl, count in enumerate(np.bincount(height)):
        stats.record_checks(lvl, int(count))
    margin = _margins(forest, world, gi, gj)
    live = np.flatnonzero(~(margin > 0.0))
    margin[live] = -np.inf
    stats.culled += gi.size - live.size
    contacts, kind, axis = _kernel_pass(forest, world, gi[live], gj[live], stats, carry)
    clear = kind == np.int8(Kind.NO_CONTACT)
    if carry:
        apart = live[clear]
        margin[apart] = _margins(forest, world, gi[apart], gj[apart], axis[clear])
    split = np.zeros(gi.size, dtype=bool)
    split[live] = ~clear
    split &= height > 0
    pi, pj = gi[split], gj[split]
    # the taller side opens, both on a tie; a side that does not open stays
    # as itself (a mesh row's only child is itself, so the lookup is safe)
    opens = (forest.height[pi] >= forest.height[pj], forest.height[pj] >= forest.height[pi])
    ni, nj = (np.where(o, forest.kid_count[p], 1) for o, p in zip(opens, (pi, pj)))
    sizes = ni * nj
    parent = np.repeat(np.arange(pi.size), sizes)
    offset = np.arange(parent.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    kid = (offset // nj[parent], offset % nj[parent])
    children = tuple(np.where(o[parent], forest.kids[forest.kid_start[p[parent]] + k], p[parent])
                     for o, p, k in zip(opens, (pi, pj), kid))
    return contacts, (gi[~split], gj[~split], margin[~split]), children


@dataclass
class Cut:
    """Pairings ``(gi[k], gj[k])`` of the pair trees of the tree pairs
    ``pairs`` that cover each of their mesh pairs exactly once, each with a
    ``margin`` by which its halos are certified apart at the poses
    ``motions`` (-inf where none is known; ``motions`` is None before the
    first detection).  ``committed`` holds the particles' motions as the
    last step that carried the cut committed them, None before."""

    gi: np.ndarray
    gj: np.ndarray
    margin: np.ndarray
    pairs: list[tuple[int, int]]
    motions: list[RigidMotion] | None = None
    committed: list[RigidMotion] | None = None

    @staticmethod
    def roots(forest: Forest, pairs) -> "Cut":
        """The root pairings of the tree pairs ``(k, l)`` (particle positions)."""
        ids = np.asarray(pairs, dtype=np.int32).reshape(-1, 2)
        gi, gj = forest.offset[ids[:, 0]], forest.offset[ids[:, 1]]
        return Cut(gi, gj, np.full(gi.size, -np.inf), list(pairs))


def multiscale_contacts(forest: Forest, motions: list[RigidMotion], pairs,
                        stats: StepStats, cut: Cut | None = None) -> Contacts:
    """Unmerged mesh-level contacts of the tree pairs ``pairs``, unfolded
    together from ``cut``, or from their roots if it is None: one
    :func:`_refine` round per level, on the children of the last, until no
    pairing splits.

    A given cut's margins first lose the motion bound of both sides'
    particles since ``cut.motions`` (:meth:`Forest.moved`); the pairings
    whose margin stays positive cannot have come into reach, so they are
    skipped and counted as ``reused``, not as checks (conservative
    advancement: Mirtich, PhD thesis, Berkeley 1996).  The cut then
    becomes the settled one at ``motions``: the skipped pairings and every
    round's pairings that did not split, whose NO_CONTACT verdicts keep
    their margins along the kernel's direction (:func:`_refine`'s
    ``carry``).  Without a cut, no such margin is computed."""
    world = forest.world(motions, pairs)
    carry = cut is not None
    if cut is None:
        cut = Cut.roots(forest, pairs)
    margin = cut.margin
    if cut.motions is not None:
        moved = forest.moved(cut.motions, motions)
        margin = margin - (moved[forest.owner[cut.gi]] + moved[forest.owner[cut.gj]])
    skip = margin > 0.0
    stats.reused += int(skip.sum())
    kept = [(cut.gi[skip], cut.gj[skip], margin[skip])]
    gi, gj = cut.gi[~skip], cut.gj[~skip]
    found = []
    while gi.size:
        contacts, stay, (gi, gj) = _refine(forest, world, gi, gj, stats, carry)
        found.append(contacts)
        kept.append(stay)
    cut.gi, cut.gj, cut.margin = map(np.concatenate, zip(*kept))
    cut.motions = list(motions)
    return Contacts.concat(found)


def _detector(system: System, mode: str, stats: StepStats):
    """``detect(motions) -> merged contacts`` for ``mode``, a complete
    mesh-level detection at the given poses in every mode.

    Each call runs the broad phase at ``motions``, then flat detection (the
    Single modes) or the trees unfolded to settled, and one merge.  The
    fused mode differs in one thing only: it unfolds the :class:`Cut`
    ``system.cut``, remade from the roots whenever the broad phase names
    other pairs (front tracking: Ehmann and Lin, Eurographics 2001).  The
    detector keeps no state of its own.
    """
    def detect(motions):
        pairs = broad_phase_pairs(system, motions)
        stats.broad_phase_pairs = len(pairs)
        if mode in ("ExplicitSingle", "ImplicitSingle"):
            found = single_level_contacts(system.forest, motions, pairs, stats)
        else:
            cut = None
            if mode == "ImplicitMultiscalePicard":
                if system.cut is None or system.cut.pairs != pairs:
                    system.cut = Cut.roots(system.forest, pairs)
                cut = system.cut
            found = multiscale_contacts(system.forest, motions, pairs, stats, cut)
        return merge_contacts(found, [p.epsilon for p in system.particles])
    return detect


# ---------------------------------------------------------------------------
# Force assembly.
# ---------------------------------------------------------------------------


def _rates(system: System, cfg: StepConfig, contacts: Contacts,
           motions: list[RigidMotion], omegas: list[np.ndarray]):
    """Raw force/torque and the induced (dv, domega) per particle of the
    mesh-level ``contacts``; each centre of mass moves to the world once."""
    masses = [p.mass for p in system.particles]
    com = np.array([m.apply_points(p.mass.center_of_mass)
                    for m, p in zip(motions, system.particles)])
    forces = contact_force(contacts, masses, com, cfg.force.k_s)
    return accumulate(contacts, forces, masses, com, [m.rotation_matrix() for m in motions],
                      omegas)


def advance_motion(p: Particle, motion: RigidMotion, v: np.ndarray,
                   omega: np.ndarray, dt: float) -> RigidMotion:
    """Translate by v dt and rotate by omega dt about the world centre of mass."""
    com_w = motion.apply_points(p.mass.center_of_mass)
    speed = float(np.linalg.norm(omega))
    rot = motion  # only its rotation is read
    if speed > 0.0:
        rot = RigidMotion.from_axis_angle(np.asarray(omega) / speed, speed * dt).compose(motion)
    new_com = com_w + np.asarray(v, dtype=REAL) * dt
    com_turned = np.asarray(p.mass.center_of_mass, dtype=REAL) @ rot.rotation_matrix().T
    return RigidMotion(rot.rotation, new_com - com_turned)


# ---------------------------------------------------------------------------
# Time stepping: explicit Euler, and implicit Euler with one Picard driver
# for the three implicit modes.
# ---------------------------------------------------------------------------


def explicit_step(system: System, cfg: StepConfig) -> StepStats:
    """One explicit Euler step: detect, move geometry, then update velocities."""
    if cfg.mode not in EXPLICIT_MODES:
        raise ValueError(f"explicit_step cannot run mode {cfg.mode}")
    stats = StepStats()
    stats.begin_sweep()
    motions = [p.motion for p in system.particles]
    contacts = _detector(system, cfg.mode, stats)(motions)
    stats.contacts_merged = len(contacts)
    omegas = [p.omega for p in system.particles]
    _, _, dv, domega = _rates(system, cfg, contacts, motions, omegas)
    for i, p in enumerate(system.particles):
        if p.mass.immovable:
            continue
        p.motion = advance_motion(p, p.motion, p.v, p.omega, cfg.dt)
        p.v = p.v + cfg.dt * (dv[i] + system.gravity)
        p.omega = p.omega + cfg.dt * domega[i]
    system.time += cfg.dt
    system.step_index += 1
    return stats


def _rel_change(new: np.ndarray, old: np.ndarray, floor: float = 1e-9) -> np.ndarray:
    """Relative changes ``(n, 2)`` of the force and torque halves of ``(n, 6)``
    rows; 0 where both halves are shorter than ``floor``."""
    def lengths(rows):
        return _length(rows.reshape(-1, 3)).reshape(-1, 2).astype(np.float64)
    scale = np.maximum(lengths(new), lengths(old))
    return np.divide(lengths(new - old), scale, out=np.zeros_like(scale),
                     where=~(scale < floor))


# Picard relaxation: each particle's blend factor theta starts at 1, grows
# while successive raw forces agree and shrinks when they flip; sweeps stop
# once forces and rates change by at most CONVERGENCE_REL_TOL.
CONVERGENCE_REL_TOL = 0.01
THETA_MIN = 0.05
THETA_GROW = 1.2
THETA_SHRINK = 0.5


def implicit_step(system: System, cfg: StepConfig) -> StepStats:
    """One implicit Euler step in any implicit mode: relaxed Picard sweeps
    on guessed end-of-step states, then the commit.

    Each sweep detects through :func:`_detector` at the guessed poses, a
    complete mesh-level detection in every mode, so the three modes take
    the same sweeps; ImplicitMultiscalePicard only skips, through its
    carried cut, the pairings that cannot have moved into reach.  The cut
    lives on the system and outlives the step only while every particle's
    ``motion`` is the object that the step committed: a pose set from
    outside (a reset, a teleport, a step in another mode) restarts it from
    the roots.  The margins would stay sound either way, as they lose the
    motion since they were certified; the rule makes a replayed trajectory
    do the same work.  Each particle blends its new rates with the
    previous ones by a factor theta that grows while successive raw forces
    agree in direction and shrinks when they flip.  The sweep state is
    three arrays over the particles: ``theta``, the previous raw wrench
    ``prev`` and the applied rates ``applied``, the last two None before
    the first sweep.
    """
    if cfg.mode not in IMPLICIT_MODES:
        raise ValueError(f"implicit_step cannot run mode {cfg.mode}")
    fused = cfg.mode == "ImplicitMultiscalePicard"
    if fused and system.cut is not None and (system.cut.committed is None or any(
            p.motion is not m for p, m in zip(system.particles, system.cut.committed))):
        system.cut = None
    stats = StepStats()
    detect = _detector(system, cfg.mode, stats)
    motions = [p.motion for p in system.particles]
    v_guess = [p.v.copy() for p in system.particles]
    w_guess = [p.omega.copy() for p in system.particles]
    guess_motions = list(motions)
    theta = np.ones(len(system.particles), dtype=REAL)
    prev = applied = None

    for sweep in range(cfg.max_picard_iterations):
        stats.begin_sweep()
        contacts = detect(guess_motions)
        force, torque, dv, domega = _rates(system, cfg, contacts, guess_motions, w_guess)
        raw = np.concatenate([force, torque], axis=1)
        rates = np.concatenate([dv, domega], axis=1)

        if prev is not None:
            # zero against zero counts as agreement: pulls theta back up
            # once contact forces have faded
            agree = (raw[:, None, :] @ prev[:, :, None]).reshape(-1) >= 0.0
            theta = np.where(agree, np.minimum(1.0, THETA_GROW * theta),
                             np.maximum(THETA_MIN, THETA_SHRINK * theta))
        applied = theta[:, None] * rates + (1.0 - theta[:, None]) * (
            rates if applied is None else applied)

        # converged when the raw forces are stationary and the relaxed rates
        # have caught up with them (no stale blend left in the commit); a
        # force-free first sweep needs no second one
        if prev is None:
            converged = not contacts
        else:
            converged = bool((np.concatenate(
                [_rel_change(raw, prev), _rel_change(applied, rates)]) <= CONVERGENCE_REL_TOL).all())

        for i, p in enumerate(system.particles):
            if p.mass.immovable:
                continue
            v_guess[i] = p.v + cfg.dt * (applied[i, :3] + system.gravity)
            w_guess[i] = p.omega + cfg.dt * applied[i, 3:]
            guess_motions[i] = advance_motion(p, motions[i], v_guess[i], w_guess[i], cfg.dt)
        prev = raw
        stats.picard_iterations = sweep + 1
        stats.contacts_merged = len(contacts)
        if converged:
            break
    else:
        raise PicardDiverged(system.step_index, cfg.max_picard_iterations)

    for i, p in enumerate(system.particles):
        if p.mass.immovable:
            continue
        p.motion = guess_motions[i]
        p.v = v_guess[i]
        p.omega = w_guess[i]
    if fused:
        system.cut.committed = [p.motion for p in system.particles]
        stats.cut = int(system.cut.gi.size)
    system.time += cfg.dt
    system.step_index += 1
    return stats


def step(system: System, cfg: StepConfig, params: KernelParams | None = None) -> StepStats:
    """Advance one step in the configured mode; ``params`` is not read."""
    if cfg.mode in EXPLICIT_MODES:
        return explicit_step(system, cfg)
    return implicit_step(system, cfg)
