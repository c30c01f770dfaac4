"""Time integrators: explicit Euler and implicit Euler with Picard sweeps.

Both explicit modes detect once per step, either over all mesh-triangle
pairs or by unfolding the surrogate trees from their roots.  The three
implicit modes share one Picard driver and differ only in how a sweep
detects contacts: all mesh-triangle pairs (ImplicitSingle), the surrogate
trees unfolded from their roots in every sweep (ImplicitSurrogateInPicard),
or per-pair frontiers of node pairings that persist across the sweeps of a
step and widen one level per sweep where contact is possible
(ImplicitMultiscalePicard, the fused scheme).

Candidate pairs come from one bounding-sphere test over all particle
pairs.  All detection work is batched through the hybrid kernel;
comparison-based fallbacks run only for pairs of real mesh triangles, never
on surrogate levels.  The tree modes see every particle's tree and mesh as
rows of one :class:`Forest` and batch all broad-phase pairs together: one
batch per level (per sweep in the fused mode), in kernel slices of at most
``_SLICE`` pairings.  Tree pairings whose halos a separating axis proves
apart skip the kernel; they still count as checks (pairings examined) and
also as ``StepStats.culled``.  Flat detection, the brute-force baseline,
does not cull.  Counter reports are deterministic for identical configurations.

Contacts stay one :class:`~tricontact.contact.Contacts` struct of arrays
from the kernel hits to the wrench: built per kernel call, merged by one
:func:`merge_contacts` call per detection, and turned into per-particle
forces, torques and rates by ``_rates`` in two array passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .contact import (Contacts, ForceModelParams, MassProperties, _length, accumulate,
                      contact_force, contacts_from_segments, immovable_mass,
                      mass_properties_from_mesh, merge_contacts)
from .geometry import REAL, RigidMotion
from .kernels import KernelCounters, KernelParams, Kind, hybrid_batch
from .surrogate import SurrogateTree, build_surrogate_tree, FitParams

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
    convergence_rel_tol: float = 0.01
    max_picard_iterations: int = 200
    theta_init: float = 1.0
    theta_min: float = 0.05
    theta_grow: float = 1.2
    theta_shrink: float = 0.5
    force: ForceModelParams = field(default_factory=ForceModelParams)

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.convergence_rel_tol <= 0.0:
            raise ValueError("convergence tolerance must be positive")


# ---------------------------------------------------------------------------
# Tree rows of several particles for batched traversal.
# ---------------------------------------------------------------------------


class Forest:
    """The tree rows of several particles stacked into one int32 id space.

    Tree ``k`` is the surrogate tree of ``particles[k]`` with its mesh
    triangles appended.  It holds the ids ``offset[k] .. offset[k + 1] - 1``:
    first its nodes in preorder, root first, then one row per mesh
    triangle, which the tree's CSR lists as the children of their leaves.
    A mesh row has the finest halo, height 0 and itself as its only child,
    so that pairings split alike whatever their sides.  Every row's owner
    is particle ``labels[k]`` and its source is its node id, or its mesh
    triangle index on the mesh level (height 0); ``tri`` holds the rows'
    body-frame triangles.  A tree pairing is a pair of ids.
    """

    def __init__(self, particles: list[Particle], labels):
        trees, fine = [p.tree for p in particles], [len(p.body_tris) for p in particles]
        tri, eps = zip(*(p.tree.child_rows(p.body_tris) for p in particles))
        self.offset = np.cumsum([0] + [t.n_nodes + f for t, f in zip(trees, fine)], dtype=np.int32)
        self.tri = np.concatenate(tri)
        self.eps = np.concatenate(eps).astype(REAL)
        self.height = np.concatenate([np.pad(t.height, (0, f)) for t, f in zip(trees, fine)],
                                     dtype=np.int32)
        self.source = np.concatenate([np.r_[:t.n_nodes, :f] for t, f in zip(trees, fine)])
        self.owner = np.repeat(np.asarray(labels, dtype=np.int32), np.diff(self.offset))
        self.kids = np.concatenate([np.r_[t.kids, t.n_nodes:t.n_nodes + f] + o
                                    for t, f, o in zip(trees, fine, self.offset)], dtype=np.int32)
        self.kid_count = np.concatenate([np.pad(t.kid_count, (0, f), constant_values=1)
                                         for t, f in zip(trees, fine)])
        self.kid_start = np.cumsum(self.kid_count) - self.kid_count

    def roots(self, pairs) -> tuple[np.ndarray, np.ndarray]:
        """Root pairings of the tree pairs ``(k, l)`` (positions in ``particles``)."""
        pairs = np.asarray(pairs, dtype=np.int32).reshape(-1, 2)
        return self.offset[pairs[:, 0]], self.offset[pairs[:, 1]]

    def world(self, motions: list[RigidMotion], pairs) -> np.ndarray:
        """World-frame triangles: each tree that ``pairs`` names is moved
        once by its motion, the other rows are left unset."""
        world = np.empty((int(self.offset[-1]), 3, 3), dtype=REAL)
        for k in {k for pair in pairs for k in pair}:
            rows = slice(self.offset[k], self.offset[k + 1])
            world[rows] = motions[k].apply_points(self.tri[rows].reshape(-1, 3)).reshape(-1, 3, 3)
        return world


# ---------------------------------------------------------------------------
# Particles and systems.
# ---------------------------------------------------------------------------


@dataclass
class Particle:
    """A rigid particle: its mesh in the body frame and its surrogate tree
    over that mesh, whose rows :class:`Forest` stacks for detection."""

    body_tris: np.ndarray
    tree: SurrogateTree
    motion: RigidMotion
    v: np.ndarray
    omega: np.ndarray
    mass: MassProperties
    epsilon: float
    immovable: bool = False

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
        return Forest(self.particles, range(len(self.particles)))


def system_from_scene(scene, kernel_params: KernelParams | None = None,
                      n_surrogate: int = 8, fit: FitParams | None = None) -> System:
    """Build particles (mass properties + surrogate trees) from a scene."""
    from .geometry import mesh_to_triangles

    kernel_params = kernel_params or KernelParams()
    particles = []
    for idx, sp in enumerate(scene.particles):
        tris = mesh_to_triangles(sp.vertices, sp.faces)
        tree = build_surrogate_tree(
            tris, n_surrogate, fit=fit, seed=idx, finest_epsilon=sp.epsilon
        )
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
                immovable=sp.immovable,
            )
        )
    return System(particles=particles, gravity=np.asarray(scene.gravity, dtype=REAL))


# ---------------------------------------------------------------------------
# Counters.
# ---------------------------------------------------------------------------


@dataclass
class StepStats:
    """Per-step detection workload and solver telemetry."""

    checks_by_level: dict = field(default_factory=dict)  # height bin -> pairings examined
    sweep_histograms: list = field(default_factory=list)  # per Picard sweep
    picard_iterations: int = 0
    contacts_merged: int = 0
    kernel: KernelCounters = field(default_factory=KernelCounters)
    broad_phase_pairs: int = 0
    culled: int = 0  # tree pairings proved clear before the kernel (also checks)

    def record_checks(self, level_bin: int, count: int) -> None:
        if count:
            self.checks_by_level[level_bin] = self.checks_by_level.get(level_bin, 0) + count
            if self.sweep_histograms:
                hist = self.sweep_histograms[-1]
                hist[level_bin] = hist.get(level_bin, 0) + count

    def begin_sweep(self) -> None:
        self.sweep_histograms.append({})

    @property
    def total_checks(self) -> int:
        return sum(self.checks_by_level.values())

    @property
    def finest_checks(self) -> int:
        return self.checks_by_level.get(0, 0)


# ---------------------------------------------------------------------------
# Broad phase.
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


# ---------------------------------------------------------------------------
# Detection.
# ---------------------------------------------------------------------------


# Mesh-triangle pairs per flat kernel call: small enough that the iterative
# kernel's per-coordinate buffers (about 12 MB) stay in cache, which makes it
# about twice as fast per pair as one call over a whole 320 x 320 batch.
_FLAT_SLICE = 16384


def single_level_contacts(p_i: Particle, p_j: Particle, pair: tuple[int, int],
                          params: KernelParams, stats: StepStats,
                          motion_i=None, motion_j=None) -> Contacts:
    """All fine-triangle pairs through the hybrid kernel (flat detection).

    The pairs go to the kernel in row-major source order, ``_FLAT_SLICE``
    at a time: the kernels work row by row, so the slice size changes
    neither the contacts, which come in source order, nor the counters,
    only the number of kernel calls."""
    world_i = (motion_i or p_i.motion).apply_points(p_i.body_tris.reshape(-1, 3)).reshape(-1, 3, 3)
    world_j = (motion_j or p_j.motion).apply_points(p_j.body_tris.reshape(-1, 3)).reshape(-1, 3, 3)
    ni, nj = world_i.shape[0], world_j.shape[0]
    eps_pair = 0.5 * (p_i.epsilon + p_j.epsilon)
    ii, jj = np.meshgrid(np.arange(ni), np.arange(nj), indexing="ij")
    ii, jj = ii.ravel(), jj.ravel()
    found = []
    for start in range(0, ii.size, _FLAT_SLICE):
        si, sj = ii[start:start + _FLAT_SLICE], jj[start:start + _FLAT_SLICE]
        res = hybrid_batch(world_i[si], world_j[sj], params, stats.kernel, eps_pair)
        stats.record_checks(0, si.size)
        h = res.kind == np.int8(Kind.CONTACT)
        found.append(contacts_from_segments(
            res.point_a[h], res.point_b[h], (p_i.epsilon, p_j.epsilon), pair,
            np.stack([si[h], sj[h]], axis=1), 0))
    return Contacts.concat(found)


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


# Pairings per cull call, kernel call and split slice: bounds the working set.
_SLICE = 1024


def _evaluate_pairings(forest: Forest, world: np.ndarray, gi: np.ndarray, gj: np.ndarray,
                       params: KernelParams, stats: StepStats, surrogate_contacts: bool):
    """Examine the :class:`Forest` pairings ``(gi[k], gj[k])`` of any pairs.

    Every pairing counts as a check in its height bin (the larger height
    of the two sides).  Pairings whose halos :func:`_separated` proves
    apart are culled: no contact, no split, no kernel work.  The rest go
    through the hybrid kernel ``_SLICE`` at a time, with the comparison
    fallback on mesh-level pairings only.  Mesh-level hits always yield
    contacts (pair = the two owners), surrogate-level hits only with
    ``surrogate_contacts``.  Returns the contacts and the mask of pairings
    that split: those with contact or an unsettled verdict, not mesh-mesh.
    """
    for lvl, count in enumerate(np.bincount(np.maximum(forest.height[gi], forest.height[gj]))):
        stats.record_checks(lvl, int(count))
    kept = [np.zeros(0, dtype=bool)]
    for s in range(0, gi.size, _SLICE):
        a, b = gi[s:s + _SLICE], gj[s:s + _SLICE]
        kept.append(~_separated(world[a], world[b], forest.eps[a] + forest.eps[b]))
    live = np.flatnonzero(np.concatenate(kept))
    stats.culled += gi.size - live.size
    split = np.zeros(gi.size, dtype=bool)
    found = []
    for s in range(0, live.size, _SLICE):
        rows = live[s:s + _SLICE]
        a, b = gi[rows], gj[rows]
        both_fine = np.maximum(forest.height[a], forest.height[b]) == 0
        res = hybrid_batch(world[a], world[b], params, stats.kernel,
                           0.5 * (forest.eps[a] + forest.eps[b]), allow_fallback=both_fine)
        is_contact = res.kind == np.int8(Kind.CONTACT)
        hits = is_contact if surrogate_contacts else is_contact & both_fine
        sides = (np.stack([row[a[hits]], row[b[hits]]], axis=1)  # eps, pair, source, level
                 for row in (forest.eps, forest.owner, forest.source, forest.height))
        found.append(contacts_from_segments(res.point_a[hits], res.point_b[hits], *sides))
        split[rows] = (is_contact | (res.kind == np.int8(Kind.NOT_TERMINATED))) & ~both_fine
    return Contacts.concat(found), split


def _split_pairings(forest: Forest, gi: np.ndarray, gj: np.ndarray):
    """Child pairings ``children(gi[k]) x children(gj[k])`` of every pairing.

    Pairings stay in order and each one's children come in row-major
    order, ``_SLICE`` parents at a time.  A mesh side stays as itself, so
    a mesh-mesh pairing would split into itself; callers pass only
    pairings with a surrogate side.
    """
    out_i, out_j = [np.zeros(0, dtype=np.int32)], [np.zeros(0, dtype=np.int32)]
    for s in range(0, gi.size, _SLICE):
        pi, pj = gi[s:s + _SLICE], gj[s:s + _SLICE]
        ni = forest.kid_count[pi]
        nj = forest.kid_count[pj]
        sizes = ni * nj
        parent = np.repeat(np.arange(pi.size), sizes)
        offset = np.arange(parent.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        cols = nj[parent]
        out_i.append(forest.kids[forest.kid_start[pi[parent]] + offset // cols])
        out_j.append(forest.kids[forest.kid_start[pj[parent]] + offset % cols])
    return np.concatenate(out_i), np.concatenate(out_j)


def _unfold(forest: Forest, motions: list[RigidMotion], pairs, params: KernelParams,
            stats: StepStats) -> Contacts:
    """Unmerged mesh-level contacts of the tree pairs ``pairs``, unfolded
    together from their roots: one :func:`_evaluate_pairings` per level."""
    world = forest.world(motions, pairs)
    gi, gj = forest.roots(pairs)
    found = []
    while gi.size:
        contacts, split = _evaluate_pairings(forest, world, gi, gj, params, stats,
                                             surrogate_contacts=False)
        found.append(contacts)
        gi, gj = _split_pairings(forest, gi[split], gj[split])
    return Contacts.concat(found)


def multiscale_contacts(p_i: Particle, p_j: Particle, pair: tuple[int, int],
                        params: KernelParams, stats: StepStats,
                        motion_i=None, motion_j=None) -> Contacts:
    """Top-down unfolding detection over both surrogate trees.

    Pairings start at the roots; a pairing with contact or an unsettled
    verdict splits into its child pairings, every other pairing retires,
    and only contacts between real mesh triangles yield contacts, returned
    in (pair, level, source) order.  Comparison fallbacks run on mesh-level
    pairs only.
    """
    forest = Forest([p_i, p_j], pair)
    motions = [motion_i or p_i.motion, motion_j or p_j.motion]
    return _unfold(forest, motions, [(0, 1)], params, stats).sorted()


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


def _detect_all(system: System, params: KernelParams, stats: StepStats,
                motions: list[RigidMotion], multiscale: bool) -> Contacts:
    pairs = broad_phase_pairs(system, motions)
    stats.broad_phase_pairs = len(pairs)
    if multiscale:
        found = _unfold(system.forest, motions, pairs, params, stats)
    else:
        found = Contacts.concat(
            single_level_contacts(system.particles[i], system.particles[j], (i, j), params,
                                  stats, motion_i=motions[i], motion_j=motions[j])
            for i, j in pairs)
    return merge_contacts(found, [p.epsilon for p in system.particles])


# ---------------------------------------------------------------------------
# Explicit Euler.
# ---------------------------------------------------------------------------


def explicit_step(system: System, cfg: StepConfig,
                  params: KernelParams | None = None) -> StepStats:
    """One explicit Euler step: detect, move geometry, then update velocities."""
    if cfg.mode not in EXPLICIT_MODES:
        raise ValueError(f"explicit_step cannot run mode {cfg.mode}")
    params = params or KernelParams()
    stats = StepStats()
    stats.begin_sweep()
    motions = [p.motion for p in system.particles]
    contacts = _detect_all(system, params, stats, motions,
                           multiscale=cfg.mode == "ExplicitMultiscale")
    stats.contacts_merged = len(contacts)
    omegas = [p.omega for p in system.particles]
    _, _, dv, domega = _rates(system, cfg, contacts, motions, omegas)
    for i, p in enumerate(system.particles):
        if p.immovable:
            continue
        p.motion = advance_motion(p, p.motion, p.v, p.omega, cfg.dt)
        p.v = p.v + cfg.dt * (dv[i] + system.gravity)
        p.omega = p.omega + cfg.dt * domega[i]
    system.time += cfg.dt
    system.step_index += 1
    stats.picard_iterations = 0
    return stats


# ---------------------------------------------------------------------------
# Fused multiscale detection (per-pair frontiers persist across Picard sweeps).
# ---------------------------------------------------------------------------


class _FusedDetector:
    """Per-sweep detection of the fused multiscale Picard scheme.

    The broad phase runs once, at the start-of-step poses.  One frontier
    of :class:`Forest` pairings ``(gi, gj)`` serves all candidate pairs;
    each pair's part always forms a cut of its pair tree, starting at the
    roots (each step makes a new detector).  A sweep evaluates the whole
    frontier at the guessed poses as one batch; every pairing with contact
    or an unsettled verdict that is not mesh-mesh splits into its child
    pairings, every other pairing stays.  The frontier only refines within
    a step, so it widens at most one level per sweep and cannot oscillate.
    Halo contacts on surrogate levels are returned as well, merged per
    level, so their damped forces feed the guess.  A sweep is settled when
    no pairing split: a surrogate-level contact always splits, so a
    settled sweep is a complete mesh-level detection at that sweep's poses.
    """

    def __init__(self, system: System, params: KernelParams, stats: StepStats):
        self.system = system
        self.params = params
        self.stats = stats
        self.forest = system.forest
        self.pairs = broad_phase_pairs(system)
        stats.broad_phase_pairs = len(self.pairs)
        self.frontier = self.forest.roots(self.pairs)

    def __call__(self, guess_motions: list[RigidMotion]) -> tuple[Contacts, bool]:
        gi, gj = self.frontier
        found, split = _evaluate_pairings(
            self.forest, self.forest.world(guess_motions, self.pairs), gi, gj,
            self.params, self.stats, surrogate_contacts=True)
        if split.any():
            ki, kj = _split_pairings(self.forest, gi[split], gj[split])
            self.frontier = (np.concatenate([gi[~split], ki]), np.concatenate([gj[~split], kj]))
        return merge_contacts(found, [p.epsilon for p in self.system.particles]), not split.any()


# ---------------------------------------------------------------------------
# Implicit Euler (one Picard driver for the three implicit modes).
# ---------------------------------------------------------------------------


def _rel_change(new: np.ndarray, old: np.ndarray, floor: float = 1e-9) -> float:
    scale = max(float(np.linalg.norm(new)), float(np.linalg.norm(old)))
    if scale < floor:
        return 0.0
    return float(np.linalg.norm(new - old)) / scale


def _picard(system: System, cfg: StepConfig, stats: StepStats, detect) -> StepStats:
    """Relaxed Picard sweeps on guessed end-of-step states, then the commit.

    ``detect(guess_motions)`` returns a sweep's contacts and whether the
    detection itself has settled.  Each particle blends its new rates with
    the previous ones by a factor theta that grows while successive raw
    forces agree in direction and shrinks when they flip.
    """
    n = len(system.particles)
    motions = [p.motion for p in system.particles]
    v_guess = [p.v.copy() for p in system.particles]
    w_guess = [p.omega.copy() for p in system.particles]
    guess_motions = list(motions)
    theta = np.full(n, cfg.theta_init)
    prev_raw = np.zeros((n, 6), dtype=REAL)
    applied = np.zeros((n, 6), dtype=REAL)
    have_prev = False

    for sweep in range(cfg.max_picard_iterations):
        stats.begin_sweep()
        contacts, settled = detect(guess_motions)
        force, torque, dv, domega = _rates(system, cfg, contacts, guess_motions, w_guess)
        raw = np.concatenate([force, torque], axis=1)

        if have_prev:
            for i in range(n):
                # zero against zero counts as agreement: pulls theta back up
                # once transient (surrogate) forces have faded
                theta[i] = (
                    min(1.0, cfg.theta_grow * theta[i])
                    if float(raw[i] @ prev_raw[i]) >= 0.0
                    else max(cfg.theta_min, cfg.theta_shrink * theta[i])
                )
        rates = np.concatenate([dv, domega], axis=1)
        applied = theta[:, None] * rates + (1.0 - theta[:, None]) * (applied if have_prev else rates)

        # converged when detection has settled, the raw forces are stationary
        # and the relaxed rates have caught up with them (no stale blend left
        # in the commit); a force-free first sweep needs no second one
        if have_prev:
            converged = settled and all(
                _rel_change(raw[i, :3], prev_raw[i, :3]) <= cfg.convergence_rel_tol
                and _rel_change(raw[i, 3:], prev_raw[i, 3:]) <= cfg.convergence_rel_tol
                and _rel_change(applied[i, :3], rates[i, :3]) <= cfg.convergence_rel_tol
                and _rel_change(applied[i, 3:], rates[i, 3:]) <= cfg.convergence_rel_tol
                for i in range(n)
            )
        else:
            converged = settled and not contacts

        for i, p in enumerate(system.particles):
            if p.immovable:
                continue
            v_guess[i] = p.v + cfg.dt * (applied[i, :3] + system.gravity)
            w_guess[i] = p.omega + cfg.dt * applied[i, 3:]
            guess_motions[i] = advance_motion(p, motions[i], v_guess[i], w_guess[i], cfg.dt)
        prev_raw = raw
        have_prev = True
        stats.picard_iterations = sweep + 1
        stats.contacts_merged = int((contacts.level.max(axis=1) == 0).sum())
        if converged:
            break
    else:
        raise PicardDiverged(system.step_index, cfg.max_picard_iterations)

    for i, p in enumerate(system.particles):
        if p.immovable:
            continue
        p.motion = guess_motions[i]
        p.v = v_guess[i]
        p.omega = w_guess[i]
    system.time += cfg.dt
    system.step_index += 1
    return stats


def implicit_step(system: System, cfg: StepConfig,
                  params: KernelParams | None = None) -> StepStats:
    """One implicit Euler step in any implicit mode.

    ImplicitSingle and ImplicitSurrogateInPicard detect afresh in every
    sweep (flat, or unfolding the trees from their roots) and are always
    settled; ImplicitMultiscalePicard keeps per-pair frontiers across the
    sweeps of the step, widening them one level per sweep.
    """
    if cfg.mode not in IMPLICIT_MODES:
        raise ValueError(f"implicit_step cannot run mode {cfg.mode}")
    params = params or KernelParams()
    stats = StepStats()
    if cfg.mode == "ImplicitMultiscalePicard":
        detect = _FusedDetector(system, params, stats)
    else:
        multiscale = cfg.mode == "ImplicitSurrogateInPicard"

        def detect(motions):
            return _detect_all(system, params, stats, motions, multiscale), True
    return _picard(system, cfg, stats, detect)


def step(system: System, cfg: StepConfig, params: KernelParams | None = None) -> StepStats:
    """Advance one step in the configured mode."""
    if cfg.mode in EXPLICIT_MODES:
        return explicit_step(system, cfg, params)
    return implicit_step(system, cfg, params)
