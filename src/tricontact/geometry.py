"""Triangle geometry: vectors, triangle batches, rigid motions, and OBJ I/O.

Conventions
-----------
A vector is a numpy array of shape ``(3,)``, a triangle an array of shape
``(3, 3)`` with one vertex per row, and a batch of triangles an array of
shape ``(n, 3, 3)``.  The kernels consume such batches.

The scalar type defaults to double precision.  Set the environment variable
``TRICONTACT_REAL=float32`` before import to run the whole engine in single
precision.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

REAL = np.float32 if os.environ.get("TRICONTACT_REAL") == "float32" else np.float64
DEGENERATE_REL_TOL = 1e-12  # see degenerate_mask


def triangle(v1, v2, v3) -> np.ndarray:
    """Build a (3, 3) triangle from three vertex-like sequences."""
    return np.array([v1, v2, v3], dtype=REAL)


def as_triangles(obj) -> np.ndarray:
    """Coerce a triangle, a sequence of triangles, or a batch to (n, 3, 3)."""
    arr = np.asarray(obj, dtype=REAL)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3 or arr.shape[1:] != (3, 3):
        raise ValueError(f"expected triangles of shape (n, 3, 3), got {arr.shape}")
    return arr


def triangle_cross(tris: np.ndarray) -> np.ndarray:
    """Unnormalised normal ``(v2-v1) x (v3-v1)`` per triangle, shape (n, 3)."""
    tris = as_triangles(tris)
    return np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])


def triangle_normals(tris: np.ndarray) -> np.ndarray:
    """Unit normals per triangle (right-hand rule over vertex order)."""
    n = triangle_cross(tris)
    norm = np.linalg.norm(n, axis=1, keepdims=True)
    return n / np.where(norm > 0.0, norm, 1.0)


def triangle_areas(tris: np.ndarray) -> np.ndarray:
    return 0.5 * np.linalg.norm(triangle_cross(tris), axis=1)


def degenerate_mask(tris: np.ndarray) -> np.ndarray:
    """Flag triangles whose squared area is below ``DEGENERATE_REL_TOL * longest_edge**4``."""
    tris = as_triangles(tris)
    cross = triangle_cross(tris)
    sq_area = 0.25 * np.einsum("ij,ij->i", cross, cross)
    edges = tris[:, [1, 2, 0]] - tris
    longest_sq = np.einsum("ijk,ijk->ij", edges, edges).max(axis=1)
    return (longest_sq == 0.0) | (sq_area < DEGENERATE_REL_TOL * longest_sq * longest_sq)


# ---------------------------------------------------------------------------
# Rigid motions: unit quaternion (w, x, y, z) plus translation.
# ---------------------------------------------------------------------------

_QUAT_NORM_TOL = 1e-9


@dataclass(frozen=True)
class RigidMotion:
    """Rotate-then-translate transform with a unit quaternion rotation; an
    immutable value, whose arrays are read-only copies of the arguments and
    whose rotation matrix is built once, with the motion."""

    rotation: np.ndarray = (1.0, 0.0, 0.0, 0.0)
    translation: np.ndarray = (0.0, 0.0, 0.0)

    def __post_init__(self):
        rotation = np.array(self.rotation, dtype=REAL).reshape(4)
        norm = float(np.linalg.norm(rotation))
        if norm == 0.0:
            raise ValueError("zero quaternion")
        if abs(norm - 1.0) > _QUAT_NORM_TOL:
            rotation = rotation / norm
        translation = np.array(self.translation, dtype=REAL).reshape(3)
        w, x, y, z = (float(c) for c in rotation)
        matrix = np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ],
            dtype=REAL,
        )
        for arr in (rotation, translation, matrix):
            arr.setflags(write=False)
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "translation", translation)
        object.__setattr__(self, "_matrix", matrix)

    def __reduce__(self):
        # copies and pickles are rebuilt by the constructor, read-only again
        return RigidMotion, (self.rotation, self.translation)

    @staticmethod
    def from_axis_angle(axis, angle: float, translation=(0.0, 0.0, 0.0)) -> "RigidMotion":
        axis = np.asarray(axis, dtype=REAL)
        axis = axis / np.linalg.norm(axis)
        half = 0.5 * angle
        q = np.concatenate(([np.cos(half)], np.sin(half) * axis))
        return RigidMotion(q, np.asarray(translation, dtype=REAL))

    @staticmethod
    def random_rotation(rng: np.random.Generator, translation=(0.0, 0.0, 0.0)) -> "RigidMotion":
        """Uniform random rotation (normalised 4-normal sample)."""
        q = rng.normal(size=4)
        return RigidMotion(q / np.linalg.norm(q), np.asarray(translation, dtype=REAL))

    def rotation_matrix(self) -> np.ndarray:
        """The read-only ``(3, 3)`` rotation matrix, built once per motion."""
        return self._matrix

    def apply_points(self, points: np.ndarray) -> np.ndarray:
        """Rotate then translate an (..., 3) array of points."""
        points = np.asarray(points, dtype=REAL)
        return points @ self._matrix.T + self.translation

    def compose(self, other: "RigidMotion") -> "RigidMotion":
        """Motion equivalent to applying ``other`` first, then ``self``."""
        w1, x1, y1, z1 = (float(c) for c in self.rotation)
        w2, x2, y2, z2 = (float(c) for c in other.rotation)
        q = np.array(
            [
                w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
            ],
            dtype=REAL,
        )
        t = self.apply_points(other.translation)
        return RigidMotion(q, t)


# ---------------------------------------------------------------------------
# OBJ import/export (triangulated faces only).
# ---------------------------------------------------------------------------


def load_obj(path) -> tuple[np.ndarray, np.ndarray]:
    """Read an OBJ file; returns (vertices (m, 3), faces (n, 3) int).

    Only ``v`` and triangular ``f`` records are honoured; normals and
    texture coordinates on ``f`` entries are ignored, and so is a ``v``
    record's fourth (``w``) number.  A ``v`` record needs three finite
    numbers, an ``f`` record three vertex numbers read before it;
    ``ValueError`` names the line that has not.
    """
    vertices: list[list[float]] = []
    faces: list[list[int]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "v":
                try:
                    xyz = [float(c) for c in parts[1:4]]
                except ValueError:
                    xyz = []
                if len(xyz) < 3 or not np.isfinite(xyz).all():
                    raise ValueError(f"line {number}: vertex {' '.join(parts[1:])} needs "
                                     "three finite coordinates")
                vertices.append(xyz)
            elif parts[0] == "f":
                try:
                    idx = [int(tok.split("/")[0]) for tok in parts[1:]]
                except ValueError:
                    idx = []
                if len(idx) != 3:
                    raise ValueError(f"line {number}: face {' '.join(parts[1:])} needs three "
                                     "vertex numbers (only triangles are supported)")
                # OBJ counts from 1, or from -1 back from the last vertex read
                if not all(0 < abs(i) <= len(vertices) for i in idx):
                    raise ValueError(f"line {number}: face {' '.join(parts[1:])} names a vertex "
                                     f"outside the {len(vertices)} read so far")
                faces.append([i - 1 if i > 0 else len(vertices) + i for i in idx])
    return (
        np.asarray(vertices, dtype=REAL).reshape(-1, 3),
        np.asarray(faces, dtype=np.int64).reshape(-1, 3),
    )


def save_obj(path, vertices: np.ndarray, faces: np.ndarray) -> None:
    vertices = np.asarray(vertices, dtype=REAL)
    faces = np.asarray(faces, dtype=np.int64)
    with open(path, "w", encoding="utf-8") as fh:
        for v in vertices:
            fh.write(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
        for f in faces:
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")


def mesh_to_triangles(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Expand an indexed mesh into a (n, 3, 3) triangle batch."""
    return np.asarray(vertices, dtype=REAL)[np.asarray(faces, dtype=np.int64)]

