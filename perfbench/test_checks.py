"""Tests of the benchmark's own checks and tracing.

    python3 -m pytest -q perfbench
"""

import types

import numpy as np
import pytest

import checks
from tracing import Patches, Tracer

OCTA_VERTS = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
                      dtype=float)
OCTA_FACES = np.array([[0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4],
                       [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5]])
IDENTITY = (1.0, 0.0, 0.0, 0.0)


def dist(a, b) -> float:
    return float(checks.triangle_distance(np.array([a], float), np.array([b], float))[0])


# ---------------------------------------------------------------------------
# Reference distance against analytic cases.
# ---------------------------------------------------------------------------


def test_parallel_offset_triangles():
    a = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    b = [[0.1, 0.1, 0.3], [0.6, 0.1, 0.3], [0.1, 0.6, 0.3]]
    assert dist(a, b) == pytest.approx(0.3, abs=1e-15)
    assert dist(b, a) == pytest.approx(0.3, abs=1e-15)


def test_crossing_triangles_touch():
    a = [[-1, -1, 0], [2, -1, 0], [-1, 2, 0]]
    b = [[0, 0, -1], [0.2, 0, 1], [0, 0.2, 1]]  # pierces the interior of a
    assert dist(a, b) == 0.0
    assert dist(b, a) == 0.0


def test_skew_edges():
    h = 0.25
    a = [[-1, 0, 0], [1, 0, 0], [0, -1, 0]]      # edge on the x axis, body at y < 0
    b = [[0, -1, h], [0, 1, h], [0, 0, h + 1]]   # edge along y at height h, body above
    assert dist(a, b) == pytest.approx(h, abs=1e-15)
    # skew edges meeting at an angle: closest points inside both edges
    c = [[-1, -1, h], [1, 1, h], [0, 0, h + 1]]
    assert dist(a, c) == pytest.approx(h, abs=1e-15)


def test_vertex_over_face():
    a = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    b = [[0.2, 0.2, 0.05], [0.3, 0.2, 1.0], [0.2, 0.3, 1.0]]
    assert dist(a, b) == pytest.approx(0.05, abs=1e-15)


def test_random_pairs_against_sampling():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(40, 3, 3))
    B = rng.normal(size=(40, 3, 3)) + rng.normal(size=(40, 1, 3))
    exact = checks.triangle_distance(A, B)
    k = 40  # barycentric grid with k steps per edge
    u, v = np.meshgrid(np.arange(k + 1), np.arange(k + 1), indexing="ij")
    keep = u + v <= k
    w = np.stack([u[keep], v[keep]], axis=1) / k
    for a, b, d in zip(A, B, exact):
        pa = a[0] + w @ np.stack([a[1] - a[0], a[2] - a[0]])
        pb = b[0] + w @ np.stack([b[1] - b[0], b[2] - b[0]])
        sampled = np.linalg.norm(pa[:, None] - pb[None], axis=2).min()
        edge = max(np.linalg.norm(a - np.roll(a, 1, 0), axis=1).max(),
                   np.linalg.norm(b - np.roll(b, 1, 0), axis=1).max())
        assert d <= sampled + 1e-12
        assert sampled <= d + 2.0 * edge / k


def test_mesh_distance_matches_all_pairs():
    world_a = checks.world_triangles(OCTA_VERTS, OCTA_FACES, IDENTITY, (0, 0, 0))
    q = np.array([np.cos(0.3), 0.2, np.sin(0.3), 0.1])
    world_b = checks.world_triangles(OCTA_VERTS, OCTA_FACES, q, (2.05, 0.3, -0.1))
    ii, jj = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    brute = checks.triangle_distance(world_a[ii.ravel()], world_b[jj.ravel()]).min()
    assert checks.mesh_distance(world_a, world_b, cutoff=1.0) == pytest.approx(brute, abs=1e-15)
    assert checks.mesh_distance(world_a, world_b, cutoff=1e-3) >= 1e-3


# ---------------------------------------------------------------------------
# Poses and masses.
# ---------------------------------------------------------------------------


def test_rotation_matrix_quarter_turn():
    q = (np.cos(np.pi / 4), 0.0, 0.0, np.sin(np.pi / 4))  # 90 degrees about z
    np.testing.assert_allclose(checks.rotation_matrix(q) @ [1, 0, 0], [0, 1, 0], atol=1e-15)


def test_octahedron_mass():
    r = 0.5
    assert checks.mesh_mass(OCTA_VERTS * r, OCTA_FACES, 2.0) == pytest.approx(2.0 * 4 / 3 * r**3)


# ---------------------------------------------------------------------------
# Each check rejects a wrong result.
# ---------------------------------------------------------------------------


def octahedra(gap: float):
    """Two unit octahedra along x whose facing apexes are ``gap`` apart."""
    return [checks.world_triangles(OCTA_VERTS, OCTA_FACES, IDENTITY, (0, 0, 0)),
            checks.world_triangles(OCTA_VERTS, OCTA_FACES, IDENTITY, (2 + gap, 0, 0))]


EPS = [0.01, 0.01]
TOUCHING = [(0, 1, 0, 1), (0, 1, 3, 2)]  # triangles at vertex 0 of a / vertex 1 of b


def test_halo_accepts_correct_contacts():
    failures, d = checks.check_halo(octahedra(0.01), EPS, TOUCHING)
    assert failures == []
    assert d[(0, 1)] == pytest.approx(0.01)
    assert checks.check_halo(octahedra(0.05), EPS, [])[0] == []


def test_halo_rejects_dropped_contact_pair():
    failures, _ = checks.check_halo(octahedra(0.01), EPS, [])
    assert any("no mesh-level contact" in f for f in failures)


def test_halo_rejects_contact_of_clear_pair():
    failures, _ = checks.check_halo(octahedra(0.05), EPS, TOUCHING)
    assert any("contact was reported" in f for f in failures)


def test_halo_rejects_far_source_triangles():
    failures, _ = checks.check_halo(octahedra(0.01), EPS, TOUCHING + [(0, 1, 1, 1)])
    assert len(failures) == 1 and "exceeds halo sum" in failures[0]


def test_halo_leaves_margin_band_unclassified():
    # distance equal to the halo sum: either verdict is accepted
    assert checks.check_halo(octahedra(0.02), EPS, TOUCHING)[0] == []
    assert checks.check_halo(octahedra(0.02), EPS, [])[0] == []


def test_momentum_rejects_perturbed_velocity():
    masses = [2.0, 1.0]
    v = np.array([[0.5, 0.0, 0.1], [-1.0, 0.0, -0.2]])
    p0 = np.zeros(3)
    assert checks.check_momentum(masses, v, p0) == []
    v[1, 0] += 1e-6
    assert checks.check_momentum(masses, v, p0)


def test_step_contacts_rejects_empty_or_mismatched_step():
    assert checks.check_step_contacts(2, 2) == []
    assert checks.check_step_contacts(0, 0)
    assert checks.check_step_contacts(3, 2)


def test_flat_checks_rejects_missing_or_surrogate_checks():
    assert checks.check_flat_checks({0: 102400}, [320, 320]) == []
    assert checks.check_flat_checks({0: 102399}, [320, 320])
    assert checks.check_flat_checks({0: 102400, 1: 8}, [320, 320])


# ---------------------------------------------------------------------------
# Tracing installs and removes itself, and tolerates missing names.
# ---------------------------------------------------------------------------


def test_tracer_restores_and_reports_absent_names():
    def inner(n):
        return list(range(n))

    mod = types.SimpleNamespace(inner=inner)
    mod.outer = lambda n: mod.inner(n) + mod.inner(n)
    targets = [(mod, "outer", "outer", None),
               (mod, "inner", "inner", lambda args, out: len(out)),
               (mod, "removed_name", "gone", None)]
    with Tracer(targets) as tracer:
        assert mod.outer(3) == [0, 1, 2, 0, 1, 2]
    assert mod.inner is inner
    assert tracer.absent == {"gone"} and "gone" not in tracer.layers
    assert tracer.layers["inner"].calls == 2 and tracer.layers["inner"].amount == 6
    outer = tracer.layers["outer"]
    assert outer.calls == 1 and 0.0 <= outer.self_time <= outer.time


def test_patches_restore_class_methods():
    class Motion:
        def apply(self, x):
            return x

    original = Motion.__dict__["apply"]
    patches = Patches()
    assert patches.replace(Motion, "apply", lambda f: lambda self, x: f(self, x) + 1)
    assert Motion().apply(1) == 2
    patches.restore()
    assert Motion.__dict__["apply"] is original
    assert not patches.replace(Motion, "missing", lambda f: f)
