from dataclasses import fields
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import contact_wrench_reference
from tricontact import stepping
from tricontact.contact import (Contacts, MassProperties, OpenMesh, ZeroNormal,
                                accumulate, contact_force, contacts_from_segments,
                                immovable_mass, mass_properties_from_mesh,
                                merge_contacts, reduced_mass_sqrt)
from tricontact.geometry import REAL, RigidMotion, triangle
from tricontact.kernels import KernelParams
from tricontact.stepping import (Forest, Particle, StepConfig, StepStats, System,
                                 single_level_contacts)


def unit_cube_triangles():
    v = np.array([[x, y, z] for z in (0, 1) for y in (0, 1) for x in (0, 1)], float) - 0.5
    faces = [
        (0, 2, 1), (1, 2, 3), (4, 5, 6), (5, 7, 6),
        (0, 1, 4), (1, 5, 4), (2, 6, 3), (3, 6, 7),
        (0, 4, 2), (2, 4, 6), (1, 3, 5), (3, 7, 5),
    ]
    return v[np.asarray(faces)]


def mesh_particle(tris, offset=(0.0, 0.0, 0.0), epsilon=1e-2):
    """A particle for flat detection, which reads neither trees nor masses."""
    return Particle(body_tris=np.asarray(tris, float), tree=None,
                    motion=RigidMotion(translation=np.asarray(offset, float)),
                    v=np.zeros(3), omega=np.zeros(3), mass=immovable_mass(),
                    epsilon=epsilon)


def flat_contacts(tris_i, tris_j, offset_j, stats=None):
    """Single-level contacts of two meshes, the second one translated."""
    particles = [mesh_particle(tris_i), mesh_particle(tris_j, offset_j)]
    return single_level_contacts(Forest(particles), [p.motion for p in particles],
                                 [(0, 1)], stats or StepStats())


def make_contacts(positions, normals, eps=1e-2, pair=(0, 1)):
    """Contacts with the given rows, numbered by their sources."""
    positions = np.asarray(positions, float).reshape(-1, 3)
    n = positions.shape[0]
    return Contacts(*(np.array(np.broadcast_to(np.asarray(x, np.int64), (n, 2)))
                      for x in (pair, np.arange(n)[:, None])),
                    positions, np.asarray(normals, float).reshape(-1, 3), np.full((n, 2), eps))


def mass_of(m):
    return MassProperties(m, np.zeros(3), np.eye(3))


def force_on_first(contacts, masses, coms=None):
    """Spring forces of ``contacts`` with k_s = 1000."""
    coms = np.zeros((len(masses), 3)) if coms is None else np.asarray(coms, float)
    return contact_force(contacts, masses, coms, 1000.0)


class TestContactPlacement:
    def test_equal_halos_midpoint(self):
        c = contacts_from_segments([0, 0, 0], [0, 0, 1], (0.5, 0.5), (0, 1), (-1, -1))
        assert np.allclose(c.position, [[0, 0, 0.5]])
        assert np.allclose(c.normal, [[0, 0, -0.5]])

    def test_unequal_halos_ratio(self):
        # the contact splits the segment eps_a : eps_b from the first side
        c = contacts_from_segments([0, 0, 0], [0, 0, 1.0], (0.02, 0.08), (0, 1), (-1, -1))
        assert np.allclose(c.position, [[0, 0, 0.2]])
        # halo-overlap condition reads identically from both sides
        assert np.linalg.norm(c.normal[0]) / c.eps[0, 0] == pytest.approx(
            np.linalg.norm(np.asarray([0, 0, 1.0]) - c.position[0]) / c.eps[0, 1])

    def test_coincident_points_zero_normal(self):
        c = contacts_from_segments([[1, 1, 1], [0, 0, 0]], [[1, 1, 1], [0, 0, 1]], 0.01,
                                   (0, 1), (-1, -1))
        assert np.linalg.norm(c.normal[0]) == 0.0
        assert np.linalg.norm(c.normal[1]) == pytest.approx(0.5)

    def test_rows(self):
        # iterating yields one row per contact, its ids as int tuples, each
        # on the mesh level of both sides
        c = contacts_from_segments([[0, 0, 0], [1, 0, 0]], [[0, 0, 1], [1, 0, 1]],
                                   [(0.01, 0.02), (0.03, 0.04)], [(0, 1), (2, 3)],
                                   [(5, 6), (7, 8)])
        rows = list(c)
        assert len(c) == len(rows) == 2
        assert [(r.pair, r.source, r.level, r.eps) for r in rows] == [
            ((0, 1), (5, 6), (0, 0), (0.01, 0.02)), ((2, 3), (7, 8), (0, 0), (0.03, 0.04))]
        assert all(type(k) is int for r in rows for k in r.pair + r.source + r.level)
        assert np.array_equal(rows[1].position, c.position[1])


class TestSingleLevelDetection:
    def test_separated_spheres_empty(self, sphere80):
        assert len(flat_contacts(sphere80, sphere80, (1.0 + 3.1e-2, 0, 0))) == 0

    def test_face_to_face_gap(self):
        # a halo-distance contact between two one-triangle meshes
        t = triangle([0, 0, 0], [1, 0, 0], [0, 1, 0])
        eps = KernelParams().epsilon
        contacts = flat_contacts([t], [t], (0, 0, eps))
        merged = merge_contacts(contacts, eps)
        assert len(merged) == 1
        assert merged.position[0, 2] == pytest.approx(eps / 2, abs=1e-9)

    def test_counters_updated(self, sphere80):
        stats = StepStats()
        flat_contacts(sphere80, sphere80, (1.05, 0, 0), stats)
        assert stats.kernel.iterative_invocations == 80 * 80
        assert stats.checks_by_level == {0: 80 * 80}

    def test_flat_slices_change_nothing(self, sphere320, monkeypatch):
        # flat detection in kernel calls of 1,000 pairs finds what the default
        # slices find, bit for bit, with the same counters
        runs = []
        for size in (stepping._KERNEL_SLICE, 1000):
            monkeypatch.setattr(stepping, "_KERNEL_SLICE", size)
            stats = StepStats()
            runs.append((flat_contacts(sphere320, sphere320, (1.005, 0.02, 0.0), stats), stats))
        (got, stats), (want, want_stats) = runs
        assert len(got) and stats.kernel.fallback_invocations
        for f in fields(Contacts):
            assert np.array_equal(getattr(got, f.name), getattr(want, f.name))
        assert stats.checks_by_level == want_stats.checks_by_level
        assert stats.kernel == want_stats.kernel


class TestMerge:
    def test_empty(self):
        assert len(merge_contacts(make_contacts([], []), 1e-2)) == 0

    def test_identical_contacts_fuse(self):
        c = make_contacts([[1, 2, 3]] * 3, [[0, 0, 5e-3]] * 3)
        merged = merge_contacts(c, 1e-2)
        assert len(merged) == 1
        assert np.allclose(merged.position, [[1, 2, 3]])
        assert np.allclose(merged.normal, [[0, 0, 5e-3]])

    def test_nearby_points_average(self):
        merged = merge_contacts(make_contacts([[0, 0, 0], [5e-3, 0, 0]],
                                              [[0, 0, 4e-3], [0, 0, 6e-3]]), 1e-2)
        assert len(merged) == 1
        assert np.allclose(merged.position, [[2.5e-3, 0, 0]])
        assert np.linalg.norm(merged.normal[0]) == pytest.approx(5e-3)

    def test_distant_points_stay(self):
        c = make_contacts([[0, 0, 0], [1, 0, 0]], [[0, 0, 4e-3]] * 2)
        assert len(merge_contacts(c, 1e-2)) == 2

    def test_different_pairs_never_merge(self):
        c = make_contacts([[0, 0, 0]] * 2, [[0, 0, 4e-3]] * 2, pair=[(0, 1), (0, 2)])
        assert len(merge_contacts(c, 1e-2)) == 2

    def test_pair_uses_smaller_halo(self):
        # per-particle halos: pair (0, 1) merges within 1e-2, pair (0, 2) within 1e-3
        c = make_contacts([[0, 0, 0], [5e-3, 0, 0]] * 2, [[0, 0, 4e-3]] * 4,
                          pair=[(0, 1), (0, 1), (0, 2), (0, 2)])
        assert len(merge_contacts(c, [1e-2, 1e-2, 1e-3])) == 3

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
    def test_greedy_rule_guarantees(self, seed, n):
        # the greedy rule is not idempotent (a mean position can come within
        # epsilon of another representative), but it guarantees: its
        # representatives of one pair lie farther apart than epsilon, every
        # input lies within epsilon of one of its pair, and inputs already
        # that far apart come back unchanged
        rng = np.random.default_rng(seed)
        eps = 1e-2
        pair = np.array([(0, 1), (0, 2), (1, 2)])[rng.integers(3, size=n)]
        c = make_contacts(rng.normal(scale=2e-2, size=(n, 3)),
                          rng.normal(scale=3e-3, size=(n, 3)), eps, pair)
        merged = merge_contacts(c, eps)
        reps = merged.source[:, 0]  # a cluster keeps its representative's ids
        assert np.array_equal(merged.pair, pair[reps])
        for a, b in combinations(reps, 2):
            if (pair[a] == pair[b]).all():
                assert np.linalg.norm(c.position[a] - c.position[b]) > eps
        for k in range(n):
            mine = reps[(pair[reps] == pair[k]).all(axis=1)]
            assert (np.linalg.norm(c.position[mine] - c.position[k], axis=1) <= eps).any()
        again = merge_contacts(c.take(reps), eps)
        assert np.array_equal(again.source, merged.source)
        assert np.array_equal(again.position, c.position[reps])
        assert np.array_equal(again.normal, c.normal[reps])

    def test_vertex_vertex_redundancy_collapses(self, sphere320):
        # two spheres approaching vertex-on: every incident triangle pair
        # reports the same contact point
        contacts = flat_contacts(sphere320, sphere320, (1.0 + 8e-3, 0, 0))
        merged = merge_contacts(contacts, KernelParams().epsilon)
        assert len(contacts) >= len(merged)
        assert len(merged) >= 1


class TestForce:
    def test_zero_at_halo_rim(self):
        f = force_on_first(make_contacts([0, 0, 0], [0, 0, 1e-2]), [mass_of(2.0), mass_of(2.0)])
        assert np.linalg.norm(f) == pytest.approx(0.0, abs=1e-12)

    def test_midpoint_magnitude(self):
        # |n| = eps/2, equal masses 2 -> reduced-mass sqrt = 1 -> magnitude 500
        f = force_on_first(make_contacts([0, 0, 0], [0, 0, 5e-3]), [mass_of(2.0), mass_of(2.0)])
        assert np.linalg.norm(f) == pytest.approx(500.0)
        assert np.allclose(f / np.linalg.norm(f), [[0, 0, 1]])

    def test_immovable_limit(self):
        f = force_on_first(make_contacts([0, 0, 0], [0, 0, 5e-3]), [immovable_mass(), mass_of(4.0)])
        assert np.linalg.norm(f) == pytest.approx(1000.0 * 0.5 * 2.0)

    def test_zero_normal_uses_center_fallback(self):
        c = make_contacts([0, 0, 0], [0, 0, 0])
        with pytest.raises(ZeroNormal):
            force_on_first(c, [mass_of(1.0), mass_of(1.0)])
        f = force_on_first(c, [mass_of(1.0), mass_of(1.0)], coms=[[2.0, 0, 0], [0, 0, 0]])
        assert np.allclose(f, [[1000.0 * reduced_mass_sqrt(1, 1), 0, 0]])

    def test_reduced_mass_two_immovable(self):
        with pytest.raises(ValueError):
            reduced_mass_sqrt(np.inf, np.inf)


def rates_of(contacts, forces, masses, omega=(0.0, 0.0, 0.0)):
    """accumulate() with every centre of mass at the origin, unrotated."""
    n = len(masses)
    return accumulate(contacts, np.asarray(forces, float).reshape(-1, 3), masses,
                      np.zeros((n, 3)), [np.eye(3)] * n, [np.asarray(omega, float)] * n)


class TestAccumulate:
    def test_no_contacts(self):
        _, _, dv, dw = rates_of(make_contacts([], []), [], [mass_of(2.0)])
        assert np.allclose(dv, 0) and np.allclose(dw, 0)

    def test_force_through_com(self):
        c = make_contacts([0, 0, 0], [0, 0, 5e-3])
        force, torque, dv, dw = rates_of(c, [0.0, 0.0, 10.0], [mass_of(2.0), immovable_mass()])
        assert np.allclose(dv[0], [0, 0, 5.0])
        assert np.allclose(dw, 0)
        # the immovable side takes no force and no rates
        assert not force[1].any() and not torque[1].any() and not dv[1].any()

    def test_mirror_symmetric_contacts_cancel_torque(self):
        c = make_contacts([[1, 0, 0], [-1, 0, 0]], [[0, 0, 5e-3]] * 2)
        _, _, dv, dw = rates_of(c, [[0.0, 0.0, 7.0]] * 2, [mass_of(2.0), immovable_mass()])
        assert np.allclose(dw[0], 0, atol=1e-12)
        assert np.allclose(dv[0], [0, 0, 7.0])

    def test_gyroscopic_term(self):
        # spinning asymmetric body precesses even without contacts
        inertia = np.diag([1.0, 2.0, 3.0])
        mass = MassProperties(1.0, np.zeros(3), inertia)
        omega = np.array([0.1, 0.2, 0.3])
        _, _, _, dw = rates_of(make_contacts([], []), [], [mass], omega)
        expected = np.linalg.solve(inertia, -np.cross(omega, inertia @ omega))
        assert np.allclose(dw[0], expected)


class TestMassProperties:
    def test_unit_cube(self):
        props = mass_properties_from_mesh(unit_cube_triangles(), density=1.0)
        assert props.mass == pytest.approx(1.0)
        assert np.allclose(props.center_of_mass, 0.0, atol=1e-12)
        assert np.allclose(np.diag(props.inertia_tensor), 1.0 / 6.0)
        assert np.allclose(props.inertia_tensor - np.diag(np.diag(props.inertia_tensor)), 0.0, atol=1e-12)

    def test_icosphere_volume(self, sphere1280):
        props = mass_properties_from_mesh(sphere1280, density=1.0)
        exact = 4.0 / 3.0 * np.pi * 0.5**3
        assert abs(props.mass - exact) / exact < 0.02

    def test_translation_invariance(self, sphere320):
        base = mass_properties_from_mesh(sphere320)
        shift = np.array([0.3, -0.2, 0.9])
        moved = mass_properties_from_mesh(sphere320 + shift)
        assert np.allclose(moved.center_of_mass, base.center_of_mass + shift, atol=1e-9)
        assert np.abs(moved.inertia_tensor - base.inertia_tensor).max() < 1e-6

    def test_nonpositive_volume_rejected(self):
        # the contract gates on the signed volume: inverted orientation
        tris = unit_cube_triangles()[:, ::-1, :]
        with pytest.raises(OpenMesh):
            mass_properties_from_mesh(tris)


class TestNewtonThirdLaw:
    def test_pairwise_forces_cancel_exactly(self, rng):
        # both sides sum the same forces in the same order, negated
        c = make_contacts(rng.normal(size=(20, 3)), rng.normal(scale=3e-3, size=(20, 3)))
        masses = [mass_of(1.3), mass_of(2.7)]
        force, _, _, _ = rates_of(c, force_on_first(c, masses), masses)
        assert np.array_equal(force[0], -force[1])


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_particles=st.integers(3, 4),
       n_contacts=st.integers(0, 40))
def test_force_assembly_properties(seed, n_particles, n_contacts):
    # random mesh-level contacts among movable particles, some with zero
    # normals: the forces sum to zero and the torques about the origin,
    # sum(tau_i + c_i x F_i), to zero, both to round-off, and the array
    # path matches a per-contact reference loop
    rng = np.random.default_rng(seed)
    particles = []
    for _ in range(n_particles):
        a = rng.normal(size=(3, 3))
        mass = MassProperties(rng.uniform(0.5, 3.0), rng.normal(scale=0.1, size=3),
                              a @ a.T + 0.1 * np.eye(3))
        particles.append(Particle(body_tris=None, tree=None,
                                  motion=RigidMotion.random_rotation(rng, rng.normal(size=3)),
                                  v=np.zeros(3), omega=rng.normal(size=3), mass=mass,
                                  epsilon=1e-2))
    i = rng.integers(n_particles, size=n_contacts)
    j = (i + rng.integers(1, n_particles, size=n_contacts)) % n_particles
    eps = rng.uniform(1e-3, 2e-2, size=(n_contacts, 2))
    normal = rng.normal(size=(n_contacts, 3))
    normal *= (rng.uniform(0.0, 1.0, size=n_contacts) * eps[:, 0]
               / np.linalg.norm(normal, axis=1))[:, None]
    normal[rng.random(n_contacts) < 0.1] = 0.0
    contacts = Contacts(np.stack([i, j], axis=1), np.zeros((n_contacts, 2), dtype=np.int64),
                        rng.normal(size=(n_contacts, 3)), normal, eps)
    motions = [p.motion for p in particles]
    force, torque, _, _ = stepping._rates(System(particles), StepConfig(), contacts, motions,
                                          [p.omega for p in particles])

    coms = np.array([m.apply_points(p.mass.center_of_mass) for m, p in zip(motions, particles)])
    ref_force, ref_torque = contact_wrench_reference(
        contacts.pair, contacts.position, contacts.normal, contacts.eps,
        [p.mass.mass for p in particles], coms, StepConfig().force.k_s)
    # bounds on the summed terms: |f| <= k_s sqrt(M), lever arms <= |x| + |c|
    f_scale = 1.0 + n_contacts * StepConfig().force.k_s * np.sqrt(3.0)
    t_scale = f_scale * (np.abs(contacts.position).max(initial=0.0) + np.abs(coms).max())
    # 1e-12 in float64, as many rounding units of REAL in any precision
    tol = 1e-12 * np.finfo(REAL).eps / np.finfo(np.float64).eps
    assert np.abs(force.sum(axis=0)).max() <= tol * f_scale
    angular = (torque + np.cross(coms, force)).sum(axis=0)
    assert np.abs(angular).max() <= tol * t_scale
    assert np.abs(force - ref_force).max() <= tol * f_scale
    assert np.abs(torque - ref_torque).max() <= tol * t_scale
