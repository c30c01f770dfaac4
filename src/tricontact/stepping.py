"""Time integrators: explicit Euler and implicit Euler with Picard sweeps.

Every mode detects through one :class:`Forest`, which stacks all
particles' tree and mesh rows into one id space, and ``_detector`` picks
the mode's detection in one place.  Candidate pairs come from one
bounding-sphere test over all particle pairs.  All kernel work takes one
route, ``_kernel_pass``, and all tree detection one round, ``_refine``:
count the checks, cull, run the kernel, split.  The Single modes detect
flat: one kernel pass over all mesh-row pairings of every pair, the
brute-force baseline, which reads no tree and culls nothing
(:func:`single_level_contacts`).  ExplicitMultiscale and
ImplicitSurrogateInPicard refine the trees of all pairs from their roots
until no pairing splits (:func:`multiscale_contacts`).
ImplicitMultiscalePicard, the fused scheme, runs one round per Picard
sweep on a frontier of node pairings that it keeps across a step.  The
three implicit modes share one Picard driver and differ only in this.

Comparison-based fallbacks run only for pairs of real mesh triangles,
never on surrogate levels.  Tree pairings whose halos a separating axis
proves apart skip the kernel; they still count as checks (pairings
examined) and also as ``StepStats.culled``.  Counter reports are
deterministic for identical configurations.  Contacts stay one
:class:`~tricontact.contact.Contacts` struct of arrays from the kernel
hits to the wrench: built by :meth:`Forest.contacts`, merged by one
:func:`merge_contacts` call per detection, and turned into per-particle
rates by ``_rates``.
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
    and itself as its only child, so that pairings split alike whatever
    their sides.  Every row's owner is its particle's position ``k`` and
    its source is its node id, or its mesh triangle index on the mesh
    level (height 0); ``tri`` holds the rows' body-frame triangles.  A
    pairing is a pair of ids.
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

    def roots(self, pairs) -> tuple[np.ndarray, np.ndarray]:
        """Root pairings of the tree pairs ``(k, l)`` (positions in ``particles``)."""
        pairs = np.asarray(pairs, dtype=np.int32).reshape(-1, 2)
        return self.offset[pairs[:, 0]], self.offset[pairs[:, 1]]

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
        ``(a, b)``: per side the halo, the owner (the pair), the source and
        the height (the level)."""
        a, b = a[hits], b[hits]
        sides = (np.stack([row[a], row[b]], axis=1)
                 for row in (self.eps, self.owner, self.source, self.height))
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

    def bound_radius(self) -> float:
        com = self.mass.center_of_mass
        r = np.linalg.norm(self.body_tris.reshape(-1, 3) - com, axis=1).max()
        # the root halo already covers the geometry; either bound works
        return float(r) + self.epsilon


@dataclass
class System:
    particles: list[Particle]
    gravity: np.ndarray = field(default_factory=lambda: np.zeros(3, dtype=REAL))
    time: float = 0.0
    step_index: int = 0

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
# Detection: broad phase, flat and tree detection, one detector per mode.
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
    radii = np.array([p.bound_radius() for p in particles])
    i, j = np.triu_indices(len(particles), 1)
    near = _length(centers[i] - centers[j]) <= radii[i] + radii[j]
    return list(zip(i[near].tolist(), j[near].tolist()))


# Pairings per kernel call: mesh-triangle pairs of flat detection, small
# enough that the iterative kernel's per-coordinate buffers (about 12 MB)
# stay in cache, which makes it about twice as fast per pair as one call
# over a whole 320 x 320 batch; and tree pairings per cull and kernel call.
_FLAT_SLICE = 16384
_SLICE = 1024
_NO_IDS = np.zeros(0, dtype=np.int32)


def _kernel_pass(forest: Forest, world: np.ndarray, a: np.ndarray, b: np.ndarray,
                 stats: StepStats, size: int) -> tuple[Contacts, np.ndarray]:
    """Contacts and hybrid-kernel verdicts ``kind`` of the :class:`Forest`
    pairings ``(a[k], b[k])``, ``size`` per kernel call (the kernels work
    row by row, so ``size`` changes no result).  Each pairing's halo is the
    mean of its rows' ``eps``, the comparison fallback runs on mesh-level
    pairings only, and every hit, on any level, yields a contact."""
    found, kinds = [], [np.zeros(0, dtype=np.int8)]
    for s in range(0, a.size, size):
        sa, sb = a[s:s + size], b[s:s + size]
        res = hybrid_batch(world[sa], world[sb], stats.kernel,
                           0.5 * (forest.eps[sa] + forest.eps[sb]),
                           allow_fallback=np.maximum(forest.height[sa], forest.height[sb]) == 0)
        found.append(forest.contacts(res, res.kind == np.int8(Kind.CONTACT), sa, sb))
        kinds.append(res.kind)
    return Contacts.concat(found), np.concatenate(kinds)


def single_level_contacts(forest: Forest, motions: list[RigidMotion], pairs,
                          stats: StepStats) -> Contacts:
    """Unmerged contacts of all mesh-row pairings of the pairs ``pairs``
    (flat detection, the brute-force baseline: no cull).

    Only mesh rows are read, and each particle is moved once.  The
    pairings of all pairs, pair by pair in row-major source order, take
    one :func:`_kernel_pass` in ``_FLAT_SLICE`` slices, which may span
    pairs; the contacts come in (pair, source) order."""
    world = forest.world(motions, pairs, mesh_only=True)
    rows = [np.arange(forest.mesh[k], forest.offset[k + 1]) for k in range(forest.mesh.size)]
    gi = np.concatenate([_NO_IDS, *(np.repeat(rows[k], rows[l].size) for k, l in pairs)])
    gj = np.concatenate([_NO_IDS, *(np.tile(rows[l], rows[k].size) for k, l in pairs)])
    stats.record_checks(0, gi.size)
    return _kernel_pass(forest, world, gi, gj, stats, _FLAT_SLICE)[0]


def _separated(tri_a: np.ndarray, tri_b: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """Mask of pairings that a separating axis proves farther apart than ``reach``.

    The axis is the unit vector u between the triangles' centroids (none
    if they coincide); as ``|b - a| >= (b - a).u``, a gap ``min(b.u) -
    max(a.u)`` beyond ``reach`` plus a few rounding units of the pairing's
    own largest coordinate proves the pairing clear (Gottschalk, Lin and
    Manocha, SIGGRAPH 1996; Ericson, *Real-Time Collision Detection*, 5.2)."""
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
    return (length > 0.0) & (gap > reach + 64.0 * np.finfo(tri_a.dtype).eps * scale)


def _refine(forest: Forest, world: np.ndarray, gi: np.ndarray, gj: np.ndarray,
            stats: StepStats):
    """One round of tree detection on the :class:`Forest` pairings
    ``(gi[k], gj[k])`` of any pairs.

    Every pairing counts as a check in its height bin (the larger height
    of its sides).  Pairings whose halos :func:`_separated` proves apart,
    ``_SLICE`` at a time, are culled; the rest take one
    :func:`_kernel_pass`.  A pairing with contact or an unsettled verdict
    splits into ``children(gi[k]) x children(gj[k])`` unless it is
    mesh-mesh (a mesh side stays as itself).  Returns the contacts of every
    level, the pairings that did not split and the children of those that
    did, parents in order and each one's children in row-major order.
    """
    height = np.maximum(forest.height[gi], forest.height[gj])
    for lvl, count in enumerate(np.bincount(height)):
        stats.record_checks(lvl, int(count))
    kept = [~_separated(world[a], world[b], forest.eps[a] + forest.eps[b])
            for a, b in ((gi[s:s + _SLICE], gj[s:s + _SLICE]) for s in range(0, gi.size, _SLICE))]
    live = np.flatnonzero(np.concatenate([np.zeros(0, dtype=bool), *kept]))
    stats.culled += gi.size - live.size
    contacts, kind = _kernel_pass(forest, world, gi[live], gj[live], stats, _SLICE)
    split = np.zeros(gi.size, dtype=bool)
    split[live] = kind != np.int8(Kind.NO_CONTACT)
    split &= height > 0
    pi, pj = gi[split], gj[split]
    ni, nj = forest.kid_count[pi], forest.kid_count[pj]
    sizes = ni * nj
    parent = np.repeat(np.arange(pi.size), sizes)
    offset = np.arange(parent.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    children = (forest.kids[forest.kid_start[pi[parent]] + offset // nj[parent]],
                forest.kids[forest.kid_start[pj[parent]] + offset % nj[parent]])
    return contacts, (gi[~split], gj[~split]), children


def multiscale_contacts(forest: Forest, motions: list[RigidMotion], pairs,
                        stats: StepStats) -> Contacts:
    """Unmerged mesh-level contacts of the tree pairs ``pairs``, unfolded
    together from their roots: one :func:`_refine` round per level, on the
    children of the last; the pairings that do not split retire, and only
    contacts between real mesh triangles are kept."""
    world = forest.world(motions, pairs)
    gi, gj = forest.roots(pairs)
    found = []
    while gi.size:
        contacts, _, (gi, gj) = _refine(forest, world, gi, gj, stats)
        found.append(contacts)
    found = Contacts.concat(found)
    return found.take(found.level.max(axis=1) == 0)


class _FusedDetector:
    """Per-sweep detection of the fused multiscale Picard scheme.

    The broad phase runs once, at the start-of-step poses.  One frontier
    of :class:`Forest` pairings ``(gi, gj)`` serves all candidate pairs;
    each pair's part always forms a cut of its pair tree, starting at the
    roots (each step makes a new detector).  A sweep runs one
    :func:`_refine` round on the whole frontier at the guessed poses; the
    pairings that did not split and the children of those that did form
    the next frontier.  The frontier only refines within a step, so it
    widens at most one level per sweep and cannot oscillate.  Halo
    contacts on surrogate levels are returned as well, merged per level,
    so their damped forces feed the guess.  A sweep is settled when no
    pairing split: a surrogate-level contact always splits, so a settled
    sweep is a complete mesh-level detection at that sweep's poses.
    """

    def __init__(self, system: System, stats: StepStats):
        self.system = system
        self.stats = stats
        self.forest = system.forest
        self.pairs = broad_phase_pairs(system)
        stats.broad_phase_pairs = len(self.pairs)
        self.frontier = self.forest.roots(self.pairs)

    def __call__(self, guess_motions: list[RigidMotion]) -> tuple[Contacts, bool]:
        found, stay, kids = _refine(self.forest, self.forest.world(guess_motions, self.pairs),
                                    *self.frontier, self.stats)
        self.frontier = tuple(map(np.concatenate, zip(stay, kids)))
        return merge_contacts(found, [p.epsilon for p in self.system.particles]), not kids[0].size


def _detector(system: System, mode: str, stats: StepStats):
    """``detect(motions) -> (merged contacts, settled)`` for ``mode``.

    The fused mode keeps its frontier across calls (:class:`_FusedDetector`).
    Every other mode detects afresh at the given poses, so it is always
    settled: the broad phase, then flat detection (the Single modes) or
    the trees unfolded from their roots, and one merge.
    """
    if mode == "ImplicitMultiscalePicard":
        return _FusedDetector(system, stats)

    def detect(motions):
        pairs = broad_phase_pairs(system, motions)
        stats.broad_phase_pairs = len(pairs)
        flat = mode in ("ExplicitSingle", "ImplicitSingle")
        find = single_level_contacts if flat else multiscale_contacts
        found = find(system.forest, motions, pairs, stats)
        return merge_contacts(found, [p.epsilon for p in system.particles]), True
    return detect


# ---------------------------------------------------------------------------
# Force assembly.
# ---------------------------------------------------------------------------


def _rates(system: System, cfg: StepConfig, contacts: Contacts,
           motions: list[RigidMotion], omegas: list[np.ndarray]):
    """Raw force/torque and the induced (dv, domega) per particle.

    A contact of surrogate height ``h`` (the larger side's) pushes at
    ``2**-h`` of its spring; each centre of mass moves to the world once."""
    masses = [p.mass for p in system.particles]
    com = np.array([m.apply_points(p.mass.center_of_mass)
                    for m, p in zip(motions, system.particles)])
    forces = contact_force(contacts, masses, com, cfg.force.k_s)
    forces *= 0.5 ** contacts.level.max(axis=1)[:, None]
    return accumulate(contacts, forces, masses, com, [m.rotation_matrix() for m in motions],
                      omegas)


def advance_motion(p: Particle, motion: RigidMotion, v: np.ndarray,
                   omega: np.ndarray, dt: float) -> RigidMotion:
    """Translate by v dt and rotate by omega dt about the world centre of mass."""
    com_w = motion.apply_points(p.mass.center_of_mass)
    speed = float(np.linalg.norm(omega))
    if speed > 0.0:
        delta = RigidMotion.from_axis_angle(np.asarray(omega) / speed, speed * dt)
        rot = delta.compose(RigidMotion(motion.rotation, np.zeros(3)))
    else:
        rot = RigidMotion(motion.rotation, np.zeros(3))
    new_com = com_w + np.asarray(v, dtype=REAL) * dt
    translation = new_com - rot.apply_points(p.mass.center_of_mass)
    return RigidMotion(rot.rotation, translation)


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
    contacts, _ = _detector(system, cfg.mode, stats)(motions)
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

    Each sweep detects through :func:`_detector` at the guessed poses and
    learns whether the detection itself has settled: ImplicitSingle and
    ImplicitSurrogateInPicard detect afresh in every sweep and always are,
    ImplicitMultiscalePicard widens its frontiers one level per sweep.
    Each particle blends its new rates with the previous ones by a factor
    theta that grows while successive raw forces agree in direction and
    shrinks when they flip.  The sweep state is three arrays over the
    particles: ``theta``, the previous raw wrench ``prev`` and the applied
    rates ``applied``, the last two None before the first sweep.
    """
    if cfg.mode not in IMPLICIT_MODES:
        raise ValueError(f"implicit_step cannot run mode {cfg.mode}")
    stats = StepStats()
    detect = _detector(system, cfg.mode, stats)
    motions = [p.motion for p in system.particles]
    v_guess = [p.v.copy() for p in system.particles]
    w_guess = [p.omega.copy() for p in system.particles]
    guess_motions = list(motions)
    theta = np.ones(len(system.particles))
    prev = applied = None

    for sweep in range(cfg.max_picard_iterations):
        stats.begin_sweep()
        contacts, settled = detect(guess_motions)
        force, torque, dv, domega = _rates(system, cfg, contacts, guess_motions, w_guess)
        raw = np.concatenate([force, torque], axis=1)
        rates = np.concatenate([dv, domega], axis=1)

        if prev is not None:
            # zero against zero counts as agreement: pulls theta back up
            # once transient (surrogate) forces have faded
            agree = (raw[:, None, :] @ prev[:, :, None]).reshape(-1) >= 0.0
            theta = np.where(agree, np.minimum(1.0, THETA_GROW * theta),
                             np.maximum(THETA_MIN, THETA_SHRINK * theta))
        applied = theta[:, None] * rates + (1.0 - theta[:, None]) * (
            rates if applied is None else applied)

        # converged when detection has settled, the raw forces are stationary
        # and the relaxed rates have caught up with them (no stale blend left
        # in the commit); a force-free first sweep needs no second one
        if prev is None:
            converged = settled and not contacts
        else:
            converged = settled and bool((np.concatenate(
                [_rel_change(raw, prev), _rel_change(applied, rates)]) <= CONVERGENCE_REL_TOL).all())

        for i, p in enumerate(system.particles):
            if p.mass.immovable:
                continue
            v_guess[i] = p.v + cfg.dt * (applied[i, :3] + system.gravity)
            w_guess[i] = p.omega + cfg.dt * applied[i, 3:]
            guess_motions[i] = advance_motion(p, motions[i], v_guess[i], w_guess[i], cfg.dt)
        prev = raw
        stats.picard_iterations = sweep + 1
        stats.contacts_merged = int((contacts.level.max(axis=1) == 0).sum())
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
    system.time += cfg.dt
    system.step_index += 1
    return stats


def step(system: System, cfg: StepConfig, params: KernelParams | None = None) -> StepStats:
    """Advance one step in the configured mode; ``params`` is not read."""
    if cfg.mode in EXPLICIT_MODES:
        return explicit_step(system, cfg)
    return implicit_step(system, cfg)
