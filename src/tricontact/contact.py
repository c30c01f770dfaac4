"""Contacts as arrays, redundancy merging, and the normal spring force model.

A detection's contacts are one :class:`Contacts` struct of arrays, from the
kernel hits to the wrench.  A contact joins two mesh triangles of a particle
pair and lives on the shortest segment between them (weighted by the halo
widths when they differ); its normal points toward the closest point on the
first triangle and has magnitude at most that side's halo width.  Forces
follow the plain normal spring calibrated by a spring constant, scaled by
the square root of the pair's reduced mass, with no tangential friction and
no empirical damping.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .geometry import REAL, as_triangles, cross


class ZeroNormal(ValueError):
    """Raised when a contact normal is too short to define a direction."""


class OpenMesh(ValueError):
    """Raised when mass properties are requested for a non-closed mesh."""


@dataclass
class ContactPoint:
    """One contact: the row that iterating :class:`Contacts` yields."""

    position: np.ndarray          # x(c): halo-weighted point of the segment
    normal: np.ndarray            # n(c): from x(c) toward the first triangle
    pair: tuple[int, int]         # (particle id, particle id)
    source: tuple[int, int]       # mesh triangle per side
    eps: tuple[float, float]      # halo width per side
    level: ClassVar[tuple[int, int]] = (0, 0)  # surrogate height per side: mesh only


@dataclass(eq=False)
class Contacts:
    """One row per contact: ``(n, 2)`` int64 ``pair`` and ``source`` (first
    side first), ``(n, 3)`` ``position`` and ``normal``, ``(n, 2)`` float64
    ``eps``.  Iterating yields :class:`ContactPoint` rows."""

    pair: np.ndarray
    source: np.ndarray
    position: np.ndarray
    normal: np.ndarray
    eps: np.ndarray

    @staticmethod
    def concat(parts) -> "Contacts":
        """The rows of all ``parts`` in order; no parts give no rows."""
        parts = [_EMPTY, *parts]
        return Contacts(*(np.concatenate([getattr(p, f.name) for p in parts])
                          for f in fields(Contacts)))

    def take(self, rows) -> "Contacts":
        return Contacts(*(getattr(self, f.name)[rows] for f in fields(self)))

    def sorted(self) -> "Contacts":
        """The rows in (pair, source) order; equal keys keep theirs."""
        return self.take(np.lexsort((self.source[:, 1], self.source[:, 0], self.pair[:, 1],
                                     self.pair[:, 0])))

    def __len__(self) -> int:
        return self.pair.shape[0]

    def __iter__(self):
        rows = zip(self.pair.tolist(), self.source.tolist(), self.eps.tolist())
        for k, (pair, source, eps) in enumerate(rows):
            yield ContactPoint(self.position[k], self.normal[k], tuple(pair), tuple(source),
                               tuple(eps))


_EMPTY = Contacts(*(np.zeros((0, 2), dtype=np.int64) for _ in range(2)),
                 np.zeros((0, 3), dtype=REAL), np.zeros((0, 3), dtype=REAL), np.zeros((0, 2)))


@dataclass
class MassProperties:
    mass: float
    center_of_mass: np.ndarray
    inertia_tensor: np.ndarray    # body frame, about the centre of mass

    @property
    def immovable(self) -> bool:
        return not np.isfinite(self.mass)


@dataclass
class ForceModelParams:
    k_s: float = 1000.0

    def __post_init__(self):
        if not 0.0 < self.k_s < np.inf:
            raise ValueError("spring constant k_s must be positive and finite")


def immovable_mass() -> MassProperties:
    return MassProperties(np.inf, np.zeros(3, dtype=REAL), np.full((3, 3), np.inf))


def _length(v: np.ndarray) -> np.ndarray:
    """Row lengths of ``(n, 3)`` vectors, rounded as ``np.linalg.norm`` rounds
    one vector (through a dot product)."""
    return np.sqrt((v[:, None, :] @ v[:, :, None]).reshape(-1))


def _sums(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """``values`` summed into ``n`` bins by ``index``, in row order."""
    out = np.zeros((n,) + values.shape[1:], dtype=values.dtype)
    np.add.at(out, index, values)
    return out


# ---------------------------------------------------------------------------
# Contact extraction and merging.
# ---------------------------------------------------------------------------


def contacts_from_segments(point_a, point_b, eps, pair, source) -> Contacts:
    """One contact per shortest segment ``point_a[k] -> point_b[k]``.

    The contact divides the segment in the ratio ``eps_a : eps_b`` of the
    two sides' halo widths from the first side (the midpoint for equal
    halos), so the halo-overlap condition reads the same from both sides.
    Its normal points back to ``point_a``; coincident points (intersecting
    geometry) give a zero normal.  ``eps``, ``pair`` and ``source`` are
    per-side values, broadcast to ``(n, 2)``.
    """
    point_a = np.asarray(point_a, dtype=REAL).reshape(-1, 3)
    point_b = np.asarray(point_b, dtype=REAL).reshape(-1, 3)
    n = point_a.shape[0]
    eps = np.broadcast_to(np.asarray(eps, dtype=np.float64), (n, 2))
    w = (eps[:, 0] / (eps[:, 0] + eps[:, 1])).astype(REAL)
    position = point_a + w[:, None] * (point_b - point_a)
    normal = point_a - position
    normal[_length(normal) < 1e-12] = 0.0
    ids = (np.broadcast_to(np.asarray(x, dtype=np.int64), (n, 2)) for x in (pair, source))
    return Contacts(*ids, position, normal, eps)


def merge_contacts(contacts: Contacts, epsilon) -> Contacts:
    """Fuse redundant contacts of each particle pair.

    Greedy in (pair, source) order: the first contact of a pair not yet
    placed takes every later unplaced one of its pair within the radius
    ``epsilon`` (or, given one halo width per particle id, the pair's
    smaller one), for all pairs at once, until all are placed.  A cluster
    keeps its first member's ids and halos, the mean position and the mean
    normal rescaled to the members' mean magnitude; a contact alone in its
    cluster comes back unchanged.
    """
    c = contacts.sorted()
    n = len(c)
    radius = np.asarray(epsilon, dtype=np.float64)
    if radius.ndim:
        radius = np.minimum(radius[c.pair[:, 0]], radius[c.pair[:, 1]])
    radius = np.broadcast_to(radius, (n,))
    group = np.cumsum(np.r_[True, (c.pair[1:] != c.pair[:-1]).any(axis=1)])
    rep = np.empty(n, dtype=np.int64)
    todo = np.arange(n)
    while todo.size:
        g = group[todo]
        r = todo[np.searchsorted(g, g)]  # the first unplaced row of each row's group
        d = c.position[todo] - c.position[r]
        near = np.sqrt((d * d).sum(axis=1)) <= radius[todo]  # as np.linalg.norm rounds
        rep[todo[near]] = r[near]
        todo = todo[~near]

    reps = np.flatnonzero(rep == np.arange(n))
    merged = c.take(reps)
    member = np.searchsorted(reps, rep)
    size = np.bincount(member)
    fused = size > 1
    if fused.any():
        m = reps.size
        mean_pos = (_sums(member, c.position, m) / size[:, None]).astype(REAL)
        mean_dir = (_sums(member, c.normal, m) / size[:, None]).astype(REAL)
        mean_mag = (_sums(member, np.linalg.norm(c.normal, axis=1), m) / size).astype(REAL)
        dn = _length(mean_dir)
        turned = fused & (dn > 1e-300)
        merged.position[fused] = mean_pos[fused]
        merged.normal[turned] = (mean_dir[turned] / dn[turned, None]) * mean_mag[turned, None]
    return merged


# ---------------------------------------------------------------------------
# Spring force model.
# ---------------------------------------------------------------------------


def reduced_mass_sqrt(m_i, m_j):
    """sqrt(1 / (1/M_i + 1/M_j)) elementwise; infinite masses drop out of the sum."""
    inv = 1.0 / np.asarray(m_i, dtype=np.float64) + 1.0 / np.asarray(m_j, dtype=np.float64)
    if np.any(inv == 0.0):
        raise ValueError("two immovable bodies cannot exchange forces")
    return np.sqrt(1.0 / inv)


def contact_force(contacts: Contacts, masses: list[MassProperties], com_world: np.ndarray,
                  k_s: float) -> np.ndarray:
    """Normal spring force on the first particle of every contact, ``(n, 3)``.

    The magnitude fades linearly from ``k_s * sqrt(reduced mass)`` at
    surface touch to zero where the halos just meet (``|n|`` equal to the
    first side's halo); the second particle takes the negated force.
    Intersecting geometry (zero normal) pushes the particles apart along the
    line between their world-frame centres of mass (``com_world``, one row
    per particle id) at the full spring force.
    """
    i, j = contacts.pair[:, 0], contacts.pair[:, 1]
    mass = np.array([m.mass for m in masses], dtype=np.float64)
    length = _length(contacts.normal)
    touch = length < 1e-12
    direction = contacts.normal / np.where(touch, 1.0, length)[:, None]
    if touch.any():
        apart = com_world[i[touch]] - com_world[j[touch]]
        apart_len = _length(apart)
        if (apart_len < 1e-300).any():
            raise ZeroNormal("zero-length contact normal and coincident centres of mass")
        direction[touch] = apart / apart_len[:, None]
    engagement = np.where(touch, 1.0, 1.0 - length / contacts.eps[:, 0])
    magnitude = (k_s * engagement) * reduced_mass_sqrt(mass[i], mass[j])
    return direction * magnitude.astype(REAL)[:, None]


def accumulate(contacts: Contacts, forces: np.ndarray, masses: list[MassProperties],
               com_world: np.ndarray, rotations: list[np.ndarray], omegas):
    """Per-particle force, torque and rates, each ``(n_particles, 3)``.

    ``forces[k]`` acts on particle ``pair[k, 0]`` at ``position[k]``, its
    negation on ``pair[k, 1]``; each particle sums forces and torques about
    its world-frame centre of mass in contact order.  ``dv = F / M`` and
    ``domega = I_w^-1 (tau - omega x I_w omega)`` with the inertia turned to
    the world frame by ``rotations[i]``; immovable particles get zeros.
    """
    n = len(masses)
    who = contacts.pair.reshape(-1)  # i0, j0, i1, j1, ...: contact order per particle
    signed = np.stack([forces, -forces], axis=1).reshape(-1, 3)
    arms = np.repeat(contacts.position, 2, axis=0) - com_world[who]
    force = _sums(who, signed, n)
    torque = _sums(who, cross(arms, signed), n)
    dv, domega = np.zeros((2, n, 3), dtype=REAL)
    for i, mass in enumerate(masses):
        if mass.immovable:
            force[i] = torque[i] = 0.0
            continue
        rot = rotations[i]
        inertia_w = rot @ mass.inertia_tensor @ rot.T
        gyro = cross(omegas[i], inertia_w @ omegas[i])
        dv[i] = force[i] / mass.mass
        domega[i] = np.linalg.solve(inertia_w, torque[i] - gyro)
    return force, torque, dv, domega


# ---------------------------------------------------------------------------
# Mass properties by the signed-tetrahedron (divergence) method.
# ---------------------------------------------------------------------------


def mass_properties_from_mesh(triangles: np.ndarray, density: float = 1.0) -> MassProperties:
    """Volume, centre of mass, and inertia of a closed, outward-oriented mesh.

    Signed tetrahedra against the origin; raises ``OpenMesh`` when the
    signed volume is not positive.  The inertia tensor is expressed about
    the centre of mass in the mesh's (body) frame.
    """
    tris = as_triangles(triangles).astype(np.float64)
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    det = np.einsum("ij,ij->i", a, cross(b, c))
    volume = det.sum() / 6.0
    if volume <= 0.0:
        raise OpenMesh(f"signed volume {volume:.3e} is not positive")
    com = (det[:, None] * (a + b + c)).sum(axis=0) / 24.0 / volume

    # second moments: integral of x x^T over each tetrahedron (0, a, b, c)
    s = a + b + c
    cov = np.einsum("i,ijk->jk", det, (
        np.einsum("ij,ik->ijk", a, a)
        + np.einsum("ij,ik->ijk", b, b)
        + np.einsum("ij,ik->ijk", c, c)
        + np.einsum("ij,ik->ijk", s, s)
    )) / 120.0
    mass = density * volume
    cov = density * cov - mass * np.outer(com, com)
    inertia = np.trace(cov) * np.eye(3) - cov
    return MassProperties(float(mass), com.astype(REAL), inertia.astype(REAL))
