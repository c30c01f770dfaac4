import numpy as np
import pytest

from tricontact.contact import (ContactPoint, ForceModelParams, OpenMesh,
                                ZeroNormal, accumulate, contact_force,
                                contact_from_segment, immovable_mass,
                                mass_properties_from_mesh, merge_contacts,
                                reduced_mass_sqrt)
from tricontact.geometry import RigidMotion, triangle
from tricontact.kernels import KernelParams
from tricontact.stepping import Particle, StepStats, single_level_contacts


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
    return Particle(body_tris=np.asarray(tris, float), flat=None,
                    motion=RigidMotion(translation=np.asarray(offset, float)),
                    v=np.zeros(3), omega=np.zeros(3), mass=immovable_mass(),
                    epsilon=epsilon)


def flat_contacts(tris_i, tris_j, offset_j, stats=None):
    """Single-level contacts of two meshes, the second one translated."""
    return single_level_contacts(mesh_particle(tris_i), mesh_particle(tris_j, offset_j),
                                 (0, 1), KernelParams(), stats or StepStats())


def make_contact(position, normal, eps=1e-2, pair=(0, 1)):
    return ContactPoint(np.asarray(position, float), np.asarray(normal, float),
                        pair, eps=(eps, eps))


class TestContactPlacement:
    def test_equal_halos_midpoint(self):
        c = contact_from_segment([0, 0, 0], [0, 0, 1], 0.5, 0.5)
        assert np.allclose(c.position, [0, 0, 0.5])
        assert np.allclose(c.normal, [0, 0, -0.5])

    def test_unequal_halos_ratio(self):
        # the contact splits the segment eps_a : eps_b from the first side
        c = contact_from_segment([0, 0, 0], [0, 0, 1.0], 0.02, 0.08)
        assert np.allclose(c.position, [0, 0, 0.2])
        # halo-overlap condition reads identically from both sides
        assert np.linalg.norm(c.normal) / c.eps[0] == pytest.approx(
            np.linalg.norm(np.asarray([0, 0, 1.0]) - c.position) / c.eps[1])

    def test_coincident_points_zero_normal(self):
        c = contact_from_segment([1, 1, 1], [1, 1, 1], 0.01, 0.01, fallback_dir=[1, 0, 0])
        assert np.linalg.norm(c.normal) == 0.0


class TestSingleLevelDetection:
    def test_separated_spheres_empty(self, sphere80):
        assert flat_contacts(sphere80, sphere80, (1.0 + 3.1e-2, 0, 0)) == []

    def test_face_to_face_gap(self):
        # a halo-distance contact between two one-triangle meshes
        t = triangle([0, 0, 0], [1, 0, 0], [0, 1, 0])
        eps = KernelParams().epsilon
        contacts = flat_contacts([t], [t], (0, 0, eps))
        merged = merge_contacts(contacts, eps)
        assert len(merged) == 1
        assert merged[0].position[2] == pytest.approx(eps / 2, abs=1e-9)

    def test_counters_updated(self, sphere80):
        stats = StepStats()
        flat_contacts(sphere80, sphere80, (1.05, 0, 0), stats)
        assert stats.kernel.iterative_invocations == 80 * 80
        assert stats.checks_by_level == {0: 80 * 80}


class TestMerge:
    def test_empty(self):
        assert merge_contacts([], 1e-2) == []

    def test_identical_contacts_fuse(self):
        c = make_contact([1, 2, 3], [0, 0, 5e-3])
        merged = merge_contacts([c, c, c], 1e-2)
        assert len(merged) == 1
        assert np.allclose(merged[0].position, c.position)
        assert np.allclose(merged[0].normal, c.normal)

    def test_nearby_points_average(self):
        a = make_contact([0, 0, 0], [0, 0, 4e-3])
        b = make_contact([5e-3, 0, 0], [0, 0, 6e-3])
        merged = merge_contacts([a, b], 1e-2)
        assert len(merged) == 1
        assert np.allclose(merged[0].position, [2.5e-3, 0, 0])
        assert np.linalg.norm(merged[0].normal) == pytest.approx(5e-3)

    def test_distant_points_stay(self):
        a = make_contact([0, 0, 0], [0, 0, 4e-3])
        b = make_contact([1, 0, 0], [0, 0, 4e-3])
        assert len(merge_contacts([a, b], 1e-2)) == 2

    def test_different_pairs_never_merge(self):
        a = make_contact([0, 0, 0], [0, 0, 4e-3], pair=(0, 1))
        b = make_contact([0, 0, 0], [0, 0, 4e-3], pair=(0, 2))
        assert len(merge_contacts([a, b], 1e-2)) == 2

    def test_idempotent(self, rng):
        contacts = [
            make_contact(rng.normal(scale=2e-2, size=3), rng.normal(scale=3e-3, size=3))
            for _ in range(30)
        ]
        once = merge_contacts(contacts, 1e-2)
        twice = merge_contacts(once, 1e-2)
        assert len(once) == len(twice)
        for a, b in zip(once, twice):
            assert np.allclose(a.position, b.position)

    def test_vertex_vertex_redundancy_collapses(self, sphere320):
        # two spheres approaching vertex-on: every incident triangle pair
        # reports the same contact point
        contacts = flat_contacts(sphere320, sphere320, (1.0 + 8e-3, 0, 0))
        merged = merge_contacts(contacts, KernelParams().epsilon)
        assert len(contacts) >= len(merged)
        assert len(merged) >= 1


class TestForce:
    def test_zero_at_halo_rim(self):
        c = make_contact([0, 0, 0], [0, 0, 1e-2])
        f = contact_force(c, mass_of(2.0), mass_of(2.0), ForceModelParams(1000.0, 1e-2))
        assert np.linalg.norm(f) == pytest.approx(0.0, abs=1e-12)

    def test_midpoint_magnitude(self):
        # |n| = eps/2, equal masses 2 -> reduced-mass sqrt = 1 -> magnitude 500
        c = make_contact([0, 0, 0], [0, 0, 5e-3])
        f = contact_force(c, mass_of(2.0), mass_of(2.0), ForceModelParams(1000.0, 1e-2))
        assert np.linalg.norm(f) == pytest.approx(500.0)
        assert np.allclose(f / np.linalg.norm(f), [0, 0, 1])

    def test_immovable_limit(self):
        c = make_contact([0, 0, 0], [0, 0, 5e-3])
        f = contact_force(c, immovable_mass(), mass_of(4.0), ForceModelParams(1000.0, 1e-2))
        assert np.linalg.norm(f) == pytest.approx(1000.0 * 0.5 * 2.0)

    def test_zero_normal_uses_center_fallback(self):
        c = make_contact([0, 0, 0], [0, 0, 0])
        with pytest.raises(ZeroNormal):
            contact_force(c, mass_of(1.0), mass_of(1.0), ForceModelParams(1000.0, 1e-2))
        f = contact_force(c, mass_of(1.0), mass_of(1.0), ForceModelParams(1000.0, 1e-2),
                          centers_fallback=np.array([2.0, 0, 0]))
        assert np.allclose(f, [1000.0 * reduced_mass_sqrt(1, 1), 0, 0])

    def test_reduced_mass_two_immovable(self):
        with pytest.raises(ValueError):
            reduced_mass_sqrt(np.inf, np.inf)


def mass_of(m):
    from tricontact.contact import MassProperties
    return MassProperties(m, np.zeros(3), np.eye(3))


class TestAccumulate:
    def test_no_contacts(self):
        dv, dw = accumulate([], [], mass_of(2.0), np.zeros(3), np.eye(3), np.zeros(3))
        assert np.allclose(dv, 0) and np.allclose(dw, 0)

    def test_force_through_com(self):
        c = make_contact([0, 0, 0], [0, 0, 5e-3])
        f = np.array([0.0, 0.0, 10.0])
        dv, dw = accumulate([c], [f], mass_of(2.0), np.zeros(3), np.eye(3), np.zeros(3))
        assert np.allclose(dv, [0, 0, 5.0])
        assert np.allclose(dw, 0)

    def test_mirror_symmetric_contacts_cancel_torque(self):
        c1 = make_contact([1, 0, 0], [0, 0, 5e-3])
        c2 = make_contact([-1, 0, 0], [0, 0, 5e-3])
        f = np.array([0.0, 0.0, 7.0])
        dv, dw = accumulate([c1, c2], [f, f], mass_of(2.0), np.zeros(3), np.eye(3), np.zeros(3))
        assert np.allclose(dw, 0, atol=1e-12)
        assert np.allclose(dv, [0, 0, 7.0])

    def test_gyroscopic_term(self):
        # spinning asymmetric body precesses even without contacts
        from tricontact.contact import MassProperties
        inertia = np.diag([1.0, 2.0, 3.0])
        mass = MassProperties(1.0, np.zeros(3), inertia)
        omega = np.array([0.1, 0.2, 0.3])
        dv, dw = accumulate([], [], mass, np.zeros(3), np.eye(3), omega)
        expected = np.linalg.solve(inertia, -np.cross(omega, inertia @ omega))
        assert np.allclose(dw, expected)


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
        params = ForceModelParams(1000.0, 1e-2)
        for _ in range(20):
            c = make_contact(rng.normal(size=3), rng.normal(scale=3e-3, size=3))
            f = contact_force(c, mass_of(1.3), mass_of(2.7), params)
            assert np.allclose(f + (-f), 0.0)
