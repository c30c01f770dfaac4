import numpy as np
import pytest

from tricontact.kernels import KernelParams
from tricontact.scenes import (InvalidSpec, SceneSpec, build_scene,
                               closed_surface_check, generate_noisy_sphere,
                               icosphere, sphere_mesh, uv_sphere, value_noise)


class TestSphereMeshes:
    def test_icosahedron_base(self):
        verts, faces = icosphere(0)
        assert faces.shape[0] == 20
        assert closed_surface_check(verts, faces)["ok"]

    @pytest.mark.parametrize("count", [12, 20, 36, 80, 140, 320, 1224, 1280])
    def test_ladder_counts(self, count):
        verts, faces = sphere_mesh(count)
        assert faces.shape[0] == count
        report = closed_surface_check(verts, faces)
        assert report["ok"], report

    def test_unknown_count(self):
        with pytest.raises(InvalidSpec):
            sphere_mesh(99)

    def test_uv_sphere_radii(self):
        verts, _ = uv_sphere(10, 8)
        assert np.allclose(np.linalg.norm(verts, axis=1), 1.0, atol=1e-12)


class TestNoise:
    def test_deterministic(self, rng):
        pts = rng.normal(size=(50, 3))
        a = value_noise(pts, seed=42)
        b = value_noise(pts, seed=42)
        assert np.array_equal(a, b)
        c = value_noise(pts, seed=43)
        assert not np.array_equal(a, c)

    def test_range(self, rng):
        pts = rng.normal(size=(2000, 3)) * 3
        n = value_noise(pts, seed=0)
        assert n.min() >= 0.0 and n.max() <= 1.0
        assert n.std() > 0.01  # actually varies

    def test_eta_one_perfect_sphere(self):
        verts, _ = generate_noisy_sphere(1, 1.0, seed=7)
        assert np.abs(np.linalg.norm(verts, axis=1) - 1.0).max() < 1e-6

    def test_subdiv_zero_is_icosahedron(self):
        _, faces = generate_noisy_sphere(0, 1.0, seed=0)
        assert faces.shape[0] == 20

    def test_radii_in_band(self):
        eta = 1.8
        verts, _ = generate_noisy_sphere(2, eta, seed=3)
        radii = np.linalg.norm(verts, axis=1)
        assert radii.min() >= 1.0 - 1e-9
        assert radii.max() <= eta + 1e-9
        assert radii.max() > 1.05  # noise actually pushed some vertices out

    @pytest.mark.parametrize("eta,seed", [(1.0, 0), (1.4, 3), (2.6, 11)])
    def test_noisy_meshes_stay_closed(self, eta, seed):
        verts, faces = generate_noisy_sphere(2, eta, seed=seed)
        report = closed_surface_check(verts, faces)
        assert report["ok"], report
        assert report["signed_volume"] > 0


class TestSceneSpec:
    def test_invalid_kind(self):
        with pytest.raises(InvalidSpec):
            SceneSpec(kind="Nope")

    def test_invalid_eta(self):
        with pytest.raises(InvalidSpec):
            SceneSpec(eta_r=0.5)

    def test_round_trip_dict(self):
        spec = SceneSpec(kind="ScaledPair", triangle_count=80,
                         scale_factors=(1.0, 4.0), refine_scaled=True, seed=9)
        back = SceneSpec.from_dict(spec.as_dict())
        assert back == spec

    @pytest.mark.parametrize("count, scales", [(1280, (8.0, 1.0)), (20480, (1.0, 2.0)),
                                               (12, (1.0, 2.0))])
    def test_unsupported_refined_count_rejected_when_made(self, count, scales):
        # the refined count is the spec's own rule, checked before any build
        with pytest.raises(InvalidSpec, match="refined count"):
            SceneSpec(kind="ScaledPair", triangle_count=count, scale_factors=scales,
                      refine_scaled=True)

    def test_pair_counts(self):
        spec = SceneSpec(kind="ScaledPair", triangle_count=80, scale_factors=(0.5, 3.0))
        assert spec.pair_counts() == (80, 80)
        assert SceneSpec(**{**spec.as_dict(), "refine_scaled": True}).pair_counts() == (80, 1280)


class TestBuildScene:
    def test_particle_particle_determinism(self):
        spec = SceneSpec(kind="ParticleParticle", triangle_count=80, eta_r=1.4, seed=5)
        s1 = build_scene(spec)
        s2 = build_scene(spec)
        for a, b in zip(s1.particles, s2.particles):
            assert np.array_equal(a.vertices, b.vertices)
            assert np.array_equal(a.motion.translation, b.motion.translation)
            assert np.array_equal(a.motion.rotation, b.motion.rotation)

    def test_particle_particle_geometry(self):
        spec = SceneSpec(kind="ParticleParticle", triangle_count=80, initial_gap=0.02)
        scene = build_scene(spec)
        assert len(scene.particles) == 2
        t0 = scene.particles[0].motion.translation
        t1 = scene.particles[1].motion.translation
        assert t1[0] - t0[0] == pytest.approx(1.0 + 0.02)
        assert np.allclose(scene.gravity, 0.0)
        # approach velocities
        assert scene.particles[0].velocity[0] > 0 > scene.particles[1].velocity[0]

    def test_plane_scene(self):
        spec = SceneSpec(kind="ParticleOnPlane", triangle_count=80, plane_tilt_deg=15.0)
        scene = build_scene(spec)
        plane, ball = scene.particles
        assert plane.immovable and not ball.immovable
        assert plane.faces.shape[0] == 2
        assert scene.gravity[2] < 0

    def test_grid_scene_counts_and_spacing(self):
        spec = SceneSpec(kind="CartesianGrid", triangle_count=20, grid_shape=(3, 2, 2))
        scene = build_scene(spec, epsilon=1e-2)
        assert len(scene.particles) == 12
        d = scene.particles[1].motion.translation - scene.particles[0].motion.translation
        extent = max(np.abs(p.vertices).max() for p in scene.particles)
        assert d[0] == pytest.approx(2.0 * extent + 1e-2)
        assert np.allclose(scene.gravity, 0.0)  # grid floats in space

    def test_scaled_pair_refinement(self):
        spec = SceneSpec(kind="ScaledPair", triangle_count=80,
                         scale_factors=(1.0, 2.0), refine_scaled=True)
        scene = build_scene(spec)
        assert scene.particles[0].faces.shape[0] == 80
        assert scene.particles[1].faces.shape[0] == 320  # quadruples per doubling
        # halo width scales with the particle diameter
        assert scene.particles[1].epsilon == pytest.approx(2.0 * scene.particles[0].epsilon)

    @staticmethod
    def _fields(particle) -> dict:
        """Every field of a scene particle, arrays as dtype, shape and bytes."""
        values = dict(vars(particle), rotation=particle.motion.rotation,
                      translation=particle.motion.translation)
        del values["motion"]
        return {k: (v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray)
                else (type(v), v) for k, v in values.items()}

    @pytest.mark.parametrize("count", [12, 80, 320])
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("gap", [0.0, 2e-3, 5e-2])
    @pytest.mark.parametrize("epsilon", [1e-2, 0.04])
    def test_particle_particle_is_the_tilted_unit_scaled_pair(self, count, seed, gap, epsilon):
        # the premise of the one pair builder: without the tilt the two pair
        # kinds give byte-identical particles, and the tilt changes only the
        # rotation of particle 1
        common = dict(triangle_count=count, eta_r=1.3, seed=seed, initial_gap=gap)
        scaled = build_scene(SceneSpec(kind="ScaledPair", scale_factors=(1.0, 1.0), **common),
                             epsilon=epsilon)
        for tilt in (0.0, 10.0):
            pair = build_scene(SceneSpec(kind="ParticleParticle", relative_tilt_deg=tilt,
                                         **common), epsilon=epsilon)
            for side, (a, b) in enumerate(zip(pair.particles, scaled.particles)):
                fa, fb = self._fields(a), self._fields(b)
                if side == 1 and tilt:
                    assert fa.pop("rotation") != fb.pop("rotation")
                assert fa == fb
            assert np.array_equal(pair.gravity, scaled.gravity)

    def test_scaled_pair_scale_eight(self):
        spec = SceneSpec(kind="ScaledPair", triangle_count=80,
                         scale_factors=(1.0, 8.0), refine_scaled=True)
        scene = build_scene(spec)
        assert scene.particles[1].faces.shape[0] == 5120

    def test_zero_velocity_far_gap_stays_force_free(self):
        from tricontact.stepping import StepConfig, step, system_from_scene

        spec = SceneSpec(kind="ParticleParticle", triangle_count=20,
                         initial_gap=5e-2, approach_speed=0.0)
        system = system_from_scene(build_scene(spec), KernelParams())
        cfg = StepConfig(dt=1e-3, mode="ExplicitSingle")
        for _ in range(5):
            stats = step(system, cfg)
            assert stats.contacts_merged == 0
        for p in system.particles:
            assert np.allclose(p.v, [0, 0, 0] if p.v[0] == 0 else p.v)
            assert np.allclose(p.omega, 0.0)

    def test_grid_interior_contact_count(self):
        # desk-scale grid analogue: interior particle touches its 6 axis
        # neighbours initially (measured, not asserted against the paper's
        # layout-specific four)
        from tricontact.stepping import StepConfig, step, system_from_scene

        spec = SceneSpec(kind="CartesianGrid", triangle_count=20, eta_r=1.0,
                         grid_shape=(3, 3, 3))
        system = system_from_scene(build_scene(spec), KernelParams())
        cfg = StepConfig(dt=1e-4, mode="ExplicitMultiscale")
        stats = step(system, cfg)
        interior = 13  # centre of the 3x3x3 grid
        partners = set()
        # re-run detection on the committed state is overkill; infer from
        # pair counters instead
        assert stats.contacts_merged > 0
        from tricontact.stepping import broad_phase_pairs, multiscale_contacts, StepStats
        sys2 = system_from_scene(build_scene(spec), KernelParams())
        for i, j in broad_phase_pairs(sys2):
            if interior in (i, j):
                found = multiscale_contacts(sys2.forest, [p.motion for p in sys2.particles],
                                            [(i, j)], StepStats())
                if found:
                    partners.add(j if i == interior else i)
        assert len(partners) == 6
