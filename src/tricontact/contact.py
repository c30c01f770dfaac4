"""Contact points, redundancy merging, and the normal spring force model.

A contact lives at the centre of the shortest segment between two
triangles (weighted by the halo widths when they differ); its normal
points from the contact toward the closest point on the first triangle
and has magnitude at most that side's halo width.  Forces follow the
plain normal spring calibrated by a spring constant, scaled by the
square root of the pair's reduced mass, with no tangential friction and
no empirical damping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import REAL, as_triangles


class ZeroNormal(ValueError):
    """Raised when a contact normal is too short to define a direction."""


class OpenMesh(ValueError):
    """Raised when mass properties are requested for a non-closed mesh."""


@dataclass
class ContactPoint:
    position: np.ndarray          # x(c): halo-weighted centre of the segment
    normal: np.ndarray            # n(c): from x(c) toward the first triangle
    pair: tuple[int, int]         # (particle id, particle id)
    source: tuple = (-1, -1)      # (triangle/node id per side)
    level: tuple = (0, 0)         # surrogate height per side (0 = mesh level)
    eps: tuple[float, float] = (1e-2, 1e-2)

    @property
    def depth(self) -> float:
        """Spring engagement in [0, 1]: 0 at halo touch, 1 at surface touch."""
        return 1.0 - float(np.linalg.norm(self.normal)) / self.eps[0]


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
    epsilon: float = 1e-2

    def __post_init__(self):
        if self.k_s <= 0.0:
            raise ValueError("spring constant must be positive")


def immovable_mass() -> MassProperties:
    return MassProperties(np.inf, np.zeros(3, dtype=REAL), np.full((3, 3), np.inf))


# ---------------------------------------------------------------------------
# Contact extraction.
# ---------------------------------------------------------------------------


def contact_from_segment(point_a, point_b, eps_a: float, eps_b: float,
                         pair=(0, 1), source=(-1, -1), level=(0, 0),
                         fallback_dir=None) -> ContactPoint:
    """Place a contact on the shortest segment between two triangles.

    For equal halos the contact sits at the midpoint; for different halos
    it divides the segment in the ratio ``eps_a : eps_b`` from the first
    side, so the halo-overlap condition reads the same from both sides.
    Coincident points (intersecting geometry) take the caller-provided
    fallback direction with zero magnitude.
    """
    point_a = np.asarray(point_a, dtype=REAL)
    point_b = np.asarray(point_b, dtype=REAL)
    w = eps_a / (eps_a + eps_b)
    position = point_a + w * (point_b - point_a)
    normal = point_a - position
    if np.linalg.norm(normal) < 1e-12:
        direction = np.zeros(3, dtype=REAL) if fallback_dir is None else np.asarray(fallback_dir, dtype=REAL)
        normal = 0.0 * direction
    return ContactPoint(position, normal, tuple(pair), tuple(source), tuple(level), (eps_a, eps_b))


def merge_contacts(contacts: list[ContactPoint], epsilon: float) -> list[ContactPoint]:
    """Fuse redundant contact points closer than ``epsilon``.

    Greedy in input order: each contact joins the first cluster (of the
    same particle pair) whose representative — the cluster's first member —
    lies within ``epsilon``; clusters average positions and normals, with
    the merged normal rescaled to the members' mean magnitude.  Equivalently,
    each first contact not yet placed becomes a representative and takes,
    in one array operation, every later unplaced contact within reach.
    """
    pos = np.array([c.position for c in contacts], dtype=REAL).reshape(-1, 3)
    pairs = np.array([c.pair for c in contacts], dtype=np.int64).reshape(-1, 2)
    placed = np.zeros(len(contacts), dtype=bool)
    groups: list[list[ContactPoint]] = []
    for r in range(len(contacts)):
        if not placed[r]:
            rest = r + 1 + np.flatnonzero(~placed[r + 1:])
            near = rest[(pairs[rest] == pairs[r]).all(axis=1)
                        & (np.linalg.norm(pos[rest] - pos[r], axis=1) <= epsilon)]
            placed[near] = True
            groups.append([contacts[k] for k in (r, *near)])

    merged: list[ContactPoint] = []
    for group in groups:
        rep = group[0]
        if len(group) == 1:
            merged.append(rep)
            continue
        pos = np.mean([g.position for g in group], axis=0)
        normals = np.stack([g.normal for g in group])
        mean_dir = normals.mean(axis=0)
        mean_mag = float(np.linalg.norm(normals, axis=1).mean())
        dn = float(np.linalg.norm(mean_dir))
        normal = mean_dir / dn * mean_mag if dn > 1e-300 else rep.normal.copy()
        merged.append(
            ContactPoint(pos.astype(REAL), normal.astype(REAL), rep.pair, rep.source,
                         rep.level, rep.eps)
        )
    return merged


# ---------------------------------------------------------------------------
# Spring force model.
# ---------------------------------------------------------------------------


def reduced_mass_sqrt(m_i: float, m_j: float) -> float:
    """sqrt(1 / (1/M_i + 1/M_j)); infinite masses drop out of the sum."""
    inv = (0.0 if not np.isfinite(m_i) else 1.0 / m_i) + (
        0.0 if not np.isfinite(m_j) else 1.0 / m_j
    )
    if inv == 0.0:
        raise ValueError("two immovable bodies cannot exchange forces")
    return float(np.sqrt(1.0 / inv))


def contact_force(c: ContactPoint, m_i: MassProperties, m_j: MassProperties,
                  params: ForceModelParams, centers_fallback=None) -> np.ndarray:
    """Normal spring force on the first particle of the contact pair.

    Magnitude fades linearly from ``K_s * sqrt(reduced mass)`` at surface
    touch to zero where the halos just meet; the opposite particle takes
    the negated force.  Intersecting geometry (zero normal) pushes the
    particles apart along the line between their centres of mass at the
    full spring force.
    """
    eps_i = c.eps[0]
    mag_n = float(np.linalg.norm(c.normal))
    if mag_n < 1e-12:
        if centers_fallback is None:
            raise ZeroNormal("zero-length contact normal and no fallback direction")
        direction = np.asarray(centers_fallback, dtype=REAL)
        dn = float(np.linalg.norm(direction))
        if dn < 1e-300:
            raise ZeroNormal("coincident centres of mass")
        direction = direction / dn
        engagement = 1.0
    else:
        direction = c.normal / mag_n
        engagement = 1.0 - mag_n / eps_i
    return direction * (params.k_s * engagement * reduced_mass_sqrt(m_i.mass, m_j.mass))


def contact_wrench(contacts: list[ContactPoint], forces: list[np.ndarray],
                   com_world: np.ndarray):
    """Total force and torque about ``com_world`` of forces applied at the
    contact positions: one ``np.cross`` over the stacked lever arms, both
    sums in contact order."""
    forces = np.asarray(forces, dtype=REAL).reshape(-1, 3)
    arms = np.asarray([c.position for c in contacts], dtype=REAL).reshape(-1, 3) - com_world
    return forces.sum(axis=0), np.cross(arms, forces).sum(axis=0)


def accumulate(contacts: list[ContactPoint], forces: list[np.ndarray],
               mass: MassProperties, com_world: np.ndarray,
               rotation_matrix: np.ndarray, omega: np.ndarray, wrench=None):
    """Velocity and angular-velocity rates from a particle's contact forces.

    ``dv = sum(F) / M``; the torque about the world-frame centre of mass
    feeds ``domega = I_w^-1 (tau - omega x I_w omega)`` with the inertia
    rotated to the world frame.  ``wrench`` is the contacts'
    :func:`contact_wrench` when the caller has it already.  Immovable
    particles return zero rates.
    """
    if mass.immovable:
        return np.zeros(3, dtype=REAL), np.zeros(3, dtype=REAL)
    total_f, torque = wrench if wrench is not None else contact_wrench(contacts, forces, com_world)
    dv = total_f / mass.mass
    inertia_w = rotation_matrix @ mass.inertia_tensor @ rotation_matrix.T
    gyro = np.cross(omega, inertia_w @ omega)
    domega = np.linalg.solve(inertia_w, torque - gyro)
    return dv.astype(REAL), domega.astype(REAL)


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
    det = np.einsum("ij,ij->i", a, np.cross(b, c))
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
