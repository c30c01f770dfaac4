"""Deterministic generators for benchmark scenes and noisy-sphere meshes.

Meshes are indexed (vertices, faces) pairs of numpy arrays; particles are
assembled by :func:`build_scene` from a :class:`SceneSpec`.  All generation
is seeded: the same spec yields bitwise-identical meshes and initial
states.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from .geometry import REAL, RigidMotion, mesh_to_triangles, triangle_areas


class InvalidSpec(ValueError):
    """Raised when a scene specification is inconsistent."""


# ---------------------------------------------------------------------------
# Base sphere tessellations.
# ---------------------------------------------------------------------------


def icosahedron() -> tuple[np.ndarray, np.ndarray]:
    """Unit icosahedron (12 vertices, 20 faces, outward orientation)."""
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            (-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0),
            (0, -1, t), (0, 1, t), (0, -1, -t), (0, 1, -t),
            (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1),
        ],
        dtype=REAL,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array(
        [
            (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
            (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
            (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
            (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
        ],
        dtype=np.int64,
    )
    return verts, faces


def subdivide(verts: np.ndarray, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split each face into four, lifting midpoints onto the unit sphere."""
    verts = list(verts)
    midpoint: dict[tuple[int, int], int] = {}

    def mid(i: int, j: int) -> int:
        key = (i, j) if i < j else (j, i)
        if key not in midpoint:
            m = verts[i] + verts[j]
            verts.append(m / np.linalg.norm(m))
            midpoint[key] = len(verts) - 1
        return midpoint[key]

    out = []
    for a, b, c in faces:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        out += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
    return np.asarray(verts, dtype=REAL), np.asarray(out, dtype=np.int64)


def icosphere(subdiv_level: int) -> tuple[np.ndarray, np.ndarray]:
    """Icosahedron subdivided ``subdiv_level`` times: 20 * 4**level faces."""
    verts, faces = icosahedron()
    for _ in range(subdiv_level):
        verts, faces = subdivide(verts, faces)
    return verts, faces


def uv_sphere(segments: int, rings: int) -> tuple[np.ndarray, np.ndarray]:
    """Latitude-longitude unit sphere with ``2 * segments * (rings - 1)`` faces.

    Covers the paper-style triangle counts that are not powers of the
    icosphere ladder (12, 36, 140, 1224, ...).
    """
    if segments < 3 or rings < 2:
        raise InvalidSpec("uv_sphere needs segments >= 3 and rings >= 2")
    verts = [np.array([0.0, 0.0, 1.0])]
    for i in range(1, rings):
        phi = np.pi * i / rings
        for j in range(segments):
            theta = 2.0 * np.pi * j / segments
            verts.append(
                np.array(
                    [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)]
                )
            )
    verts.append(np.array([0.0, 0.0, -1.0]))
    south = len(verts) - 1

    def ring_idx(i: int, j: int) -> int:
        return 1 + (i - 1) * segments + (j % segments)

    faces = []
    for j in range(segments):
        faces.append((0, ring_idx(1, j), ring_idx(1, j + 1)))
    for i in range(1, rings - 1):
        for j in range(segments):
            a = ring_idx(i, j)
            b = ring_idx(i, j + 1)
            c = ring_idx(i + 1, j)
            d = ring_idx(i + 1, j + 1)
            faces.append((a, c, d))
            faces.append((a, d, b))
    for j in range(segments):
        faces.append((south, ring_idx(rings - 1, j + 1), ring_idx(rings - 1, j)))
    return np.asarray(verts, dtype=REAL), np.asarray(faces, dtype=np.int64)


# Triangle-count ladder: icosphere counts plus the lat-lon alternates.
_SPHERE_RECIPES = {
    12: ("uv", (6, 2)),
    20: ("ico", 0),
    36: ("uv", (6, 4)),
    80: ("ico", 1),
    140: ("uv", (10, 8)),
    320: ("ico", 2),
    1224: ("uv", (36, 18)),
    1280: ("ico", 3),
    5120: ("ico", 4),
    20480: ("ico", 5),
}


def sphere_mesh(triangle_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit sphere tessellation with exactly ``triangle_count`` faces."""
    if triangle_count not in _SPHERE_RECIPES:
        raise InvalidSpec(
            f"no sphere tessellation with {triangle_count} triangles; "
            f"supported: {sorted(_SPHERE_RECIPES)}"
        )
    kind, arg = _SPHERE_RECIPES[triangle_count]
    if kind == "ico":
        return icosphere(arg)
    return uv_sphere(*arg)


# ---------------------------------------------------------------------------
# Hierarchical value noise (stands in for the named Perlin family).
# ---------------------------------------------------------------------------


def _hash01(ix: np.ndarray, iy: np.ndarray, iz: np.ndarray, seed: int) -> np.ndarray:
    """Deterministic lattice hash in [0, 1) from integer coordinates."""
    h = (
        ix.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        ^ iy.astype(np.uint64) * np.uint64(0xBF58476D1CE4E5B9)
        ^ iz.astype(np.uint64) * np.uint64(0x94D049BB133111EB)
        ^ np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    )
    h ^= h >> np.uint64(31)
    h *= np.uint64(0x7FB5D329728EA185)
    h ^= h >> np.uint64(27)
    return (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)


NOISE_OCTAVES = 3       # noise layers summed per point
_LACUNARITY = 2.0       # frequency factor from one octave to the next
_GAIN = 0.5             # amplitude factor from one octave to the next
_BASE_FREQUENCY = 1.5   # lattice cells per unit length in the first octave


def value_noise(points: np.ndarray, seed: int) -> np.ndarray:
    """Smooth multi-octave lattice noise in [0, 1] at the given points."""
    points = np.asarray(points, dtype=np.float64)
    total = np.zeros(points.shape[0])
    amp_sum = 0.0
    amp = 1.0
    freq = _BASE_FREQUENCY
    for octave in range(NOISE_OCTAVES):
        p = points * freq + 1000.0  # keep lattice coordinates positive
        ip = np.floor(p)
        f = p - ip
        f = f * f * (3.0 - 2.0 * f)  # smoothstep
        ix, iy, iz = ip[:, 0].astype(np.int64), ip[:, 1].astype(np.int64), ip[:, 2].astype(np.int64)
        oseed = seed * 1013 + octave
        val = 0.0
        for dx in (0, 1):
            wx = f[:, 0] if dx else 1.0 - f[:, 0]
            for dy in (0, 1):
                wy = f[:, 1] if dy else 1.0 - f[:, 1]
                for dz in (0, 1):
                    wz = f[:, 2] if dz else 1.0 - f[:, 2]
                    val = val + wx * wy * wz * _hash01(ix + dx, iy + dy, iz + dz, oseed)
        total += amp * val
        amp_sum += amp
        amp *= _GAIN
        freq *= _LACUNARITY
    return total / amp_sum


def noisy_sphere_by_count(triangle_count: int, eta_r: float,
                          seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-radius sphere with a face count from the ladder, its vertices
    pushed out to radius ``[1, eta_r]``.

    ``eta_r = 1`` yields the perfect sphere.  The offset is applied along
    the radial (surface normal) direction, scaled by hierarchical value
    noise, so the result stays a closed star-shaped surface.
    """
    if not 1.0 <= eta_r < np.inf:
        raise InvalidSpec("eta_r must be finite and >= 1")
    verts, faces = sphere_mesh(triangle_count)
    if eta_r > 1.0:
        noise = value_noise(verts, seed)
        radii = 1.0 + (eta_r - 1.0) * noise
        verts = verts * radii[:, None].astype(REAL)
    return verts.astype(REAL), faces


def generate_noisy_sphere(subdiv_level: int, eta_r: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The noisy sphere over the icosphere at ``subdiv_level`` (0 to 5)."""
    return noisy_sphere_by_count(20 * 4**subdiv_level, eta_r, seed)


# ---------------------------------------------------------------------------
# Mesh validation.
# ---------------------------------------------------------------------------


def closed_surface_check(verts: np.ndarray, faces: np.ndarray) -> dict:
    """Validate watertightness and orientation of an indexed mesh.

    Returns a report dict; ``ok`` requires every edge to be shared by
    exactly two faces with opposite orientation, positive face areas, and
    positive enclosed volume.
    """
    faces = np.asarray(faces, dtype=np.int64)
    edges: dict[tuple[int, int], int] = {}
    for tri in faces:
        for k in range(3):
            a, b = int(tri[k]), int(tri[(k + 1) % 3])
            edges[(a, b)] = edges.get((a, b), 0) + 1
    paired = all(
        count == 1 and edges.get((b, a), 0) == 1 for (a, b), count in edges.items()
    )
    tris = mesh_to_triangles(verts, faces)
    areas_ok = bool((triangle_areas(tris) > 0.0).all())
    volume = float(np.einsum("ij,ij->i", tris[:, 0], np.cross(tris[:, 1], tris[:, 2])).sum() / 6.0)
    return {
        "ok": paired and areas_ok and volume > 0.0,
        "edges_paired": paired,
        "positive_areas": areas_ok,
        "signed_volume": volume,
    }


# ---------------------------------------------------------------------------
# Scene specification and construction.
# ---------------------------------------------------------------------------

SCENE_KINDS = ("ParticleParticle", "ParticleOnPlane", "CartesianGrid", "ScaledPair")


def _numbers(value, count: int, ok) -> bool:
    """Whether ``value`` is a sequence of ``count`` numbers that pass ``ok``."""
    return (isinstance(value, (tuple, list)) and len(value) == count
            and all(isinstance(x, (int, float)) and ok(x) for x in value))


@dataclass
class SceneSpec:
    """Deterministic description of a benchmark setup.

    Lengths are relative to the reference particle diameter of one: the
    generated unit-radius meshes are scaled by 0.5 so that the finest halo
    width (relative quantity) is a fraction of a particle diameter.
    """

    kind: str = "ParticleParticle"
    triangle_count: int = 1280
    eta_r: float = 1.0
    seed: int = 0
    approach_speed: float = 0.5
    initial_gap: float = 1e-2
    relative_tilt_deg: float = 10.0
    scale_factors: tuple[float, float] = (1.0, 1.0)
    refine_scaled: bool = False
    grid_shape: tuple[int, int, int] = (4, 4, 4)
    plane_tilt_deg: float = 10.0
    drop_height: float = 0.25

    def __post_init__(self):
        if self.kind not in SCENE_KINDS:
            raise InvalidSpec(f"unknown scene kind {self.kind!r}")
        if not 1.0 <= self.eta_r < np.inf:
            raise InvalidSpec("eta_r must be finite and >= 1 (1 = perfect sphere)")
        for name in ("approach_speed", "initial_gap", "relative_tilt_deg", "plane_tilt_deg",
                     "drop_height"):
            if not abs(getattr(self, name)) < np.inf:
                raise InvalidSpec(f"{name} must be finite, not {getattr(self, name)!r}")
        if self.triangle_count not in _SPHERE_RECIPES:
            raise InvalidSpec(f"unsupported triangle count {self.triangle_count}")
        if not _numbers(self.grid_shape, 3, lambda n: isinstance(n, int) and n >= 1):
            raise InvalidSpec(f"grid_shape must be three integers >= 1, not {self.grid_shape!r}")
        if not _numbers(self.scale_factors, 2, lambda s: 0.0 < s < np.inf):
            raise InvalidSpec(f"scale_factors must be two positive numbers, not {self.scale_factors!r}")
        for count in self.pair_counts():
            if count not in _SPHERE_RECIPES:
                raise InvalidSpec(f"refined count {count} unsupported")

    def pair_counts(self) -> tuple[int, int]:
        """Triangle counts of a pair scene's two particles: ``triangle_count``,
        except that a refined ScaledPair subdivides a particle scaled by ``s``
        ``round(log2(s))`` times, to keep triangle sizes comparable."""
        if self.kind != "ScaledPair" or not self.refine_scaled:
            return self.triangle_count, self.triangle_count
        return tuple(self.triangle_count * 4**max(0, int(round(np.log2(max(s, 1.0)))))
                     for s in self.scale_factors)

    def as_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "SceneSpec":
        data = dict(data)
        for key in ("scale_factors", "grid_shape"):
            if key in data and isinstance(data[key], list):
                data[key] = tuple(data[key])
        return SceneSpec(**data)


@dataclass
class SceneParticle:
    """Raw per-particle scene output consumed by the time stepper."""

    vertices: np.ndarray      # body-frame mesh (m, 3)
    faces: np.ndarray         # (n, 3) int
    motion: RigidMotion       # initial placement
    epsilon: float            # finest-level halo width of this particle
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3, dtype=REAL))
    omega: np.ndarray = field(default_factory=lambda: np.zeros(3, dtype=REAL))
    immovable: bool = False
    density: float = 1.0


@dataclass
class Scene:
    particles: list[SceneParticle] = field(default_factory=list)
    gravity: np.ndarray = field(default_factory=lambda: np.zeros(3, dtype=REAL))
    spec: SceneSpec | None = None


def _particle_mesh(spec: SceneSpec, seed_offset: int, scale: float,
                   triangle_count: int) -> tuple[np.ndarray, np.ndarray]:
    verts, faces = noisy_sphere_by_count(triangle_count, spec.eta_r, spec.seed + seed_offset)
    # radius 0.5 -> unit reference diameter, then per-particle scaling
    return (verts * (0.5 * scale)).astype(REAL), faces


PLANE_EXTENT = 4.0   # half the side of the ParticleOnPlane square
GRAVITY = 9.81       # ParticleOnPlane's gravity, along -z


def build_scene(spec: SceneSpec, epsilon: float = 1e-2) -> Scene:
    """Assemble the particles of a scene; deterministic in (spec, epsilon)."""
    scene = Scene(spec=spec)
    if spec.kind in ("ParticleParticle", "ScaledPair"):
        # a ParticleParticle is the ScaledPair at scales (1, 1) whose second
        # particle is tilted, which breaks the mirror symmetry of two
        # identically tessellated spheres meeting pole-on; integer scales and
        # signs pass the caller's epsilon and approach speed through unchanged
        pair = spec.kind == "ParticleParticle"
        scales = (1, 1) if pair else spec.scale_factors
        tilts = (0.0, spec.relative_tilt_deg if pair else 0.0)
        for side, (s, tilt, count) in enumerate(zip(scales, tilts, spec.pair_counts())):
            verts, faces = _particle_mesh(spec, side, s, count)
            sign = 1 if side else -1
            x = sign * (0.5 * s + 0.5 * spec.initial_gap)
            scene.particles.append(SceneParticle(
                vertices=verts,
                faces=faces,
                motion=RigidMotion.from_axis_angle((0.0, 1.0, 0.0), np.deg2rad(tilt), (x, 0.0, 0.0)),
                epsilon=epsilon * s,
                velocity=np.array([-sign * spec.approach_speed, 0.0, 0.0], dtype=REAL),
            ))
    elif spec.kind == "ParticleOnPlane":
        # an immovable tilted plane spanned by two large triangles
        e = PLANE_EXTENT
        scene.particles.append(SceneParticle(
            vertices=np.array([[-e, -e, 0.0], [e, -e, 0.0], [e, e, 0.0], [-e, e, 0.0]], dtype=REAL),
            faces=np.array([[0, 1, 2], [0, 2, 3]], dtype=np.int64),
            motion=RigidMotion.from_axis_angle((0.0, 1.0, 0.0), np.deg2rad(spec.plane_tilt_deg)),
            epsilon=epsilon,
            immovable=True,
        ))
        verts, faces = _particle_mesh(spec, 0, 1.0, spec.triangle_count)
        scene.particles.append(SceneParticle(
            vertices=verts,
            faces=faces,
            motion=RigidMotion(translation=np.array([0.0, 0.0, 0.5 + spec.drop_height])),
            epsilon=epsilon,
        ))
        scene.gravity = np.array([0.0, 0.0, -GRAVITY], dtype=REAL)
    elif spec.kind == "CartesianGrid":
        nx, ny, nz = spec.grid_shape
        meshes = [_particle_mesh(spec, idx, 1.0, spec.triangle_count)
                  for idx in range(nx * ny * nz)]
        # centre spacing twice the actual axis support plus eps, so each
        # particle slightly overlaps the halo of its six axis neighbours
        # even for coarse tessellations whose vertices undershoot the sphere
        extent = max(float(np.abs(verts).max()) for verts, _ in meshes)
        spacing = 2.0 * extent + epsilon
        for (k, j, i), (verts, faces) in zip(np.ndindex(nz, ny, nx), meshes):
            pos = np.array([i, j, k], dtype=REAL) * spacing
            scene.particles.append(SceneParticle(
                vertices=verts,
                faces=faces,
                motion=RigidMotion(translation=pos),
                epsilon=epsilon,
            ))
    return scene
