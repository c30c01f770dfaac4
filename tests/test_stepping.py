import copy
import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tricontact import stepping
from tricontact.geometry import REAL, RigidMotion, degenerate_mask
from tricontact.kernels import KernelParams, Kind, comparison_batch
from tricontact.scenes import SceneSpec, build_scene
from tricontact.contact import Contacts, merge_contacts
from tricontact.stepping import (IMPLICIT_MODES, PicardDiverged,
                                 StepConfig, StepStats, _FusedDetector,
                                 broad_phase_pairs, explicit_step,
                                 implicit_step, multiscale_contacts,
                                 single_level_contacts, step,
                                 system_from_scene)


def two_sphere_system(gap=1e-2, speed=0.5, count=80, seed=3, tilt=10.0):
    spec = SceneSpec(kind="ParticleParticle", triangle_count=count,
                     initial_gap=gap, approach_speed=speed, seed=seed,
                     relative_tilt_deg=tilt)
    return system_from_scene(build_scene(spec), KernelParams())


def motions_of(system):
    return [p.motion for p in system.particles]


def total_momentum(system):
    return sum(p.mass.mass * p.v for p in system.particles if not p.mass.immovable)


class TestForest:
    def test_structure(self):
        system = two_sphere_system(count=80)
        forest = stepping.Forest(system.particles)
        assert forest.eps.dtype == REAL and forest.tri.dtype == REAL
        assert forest.height.dtype == forest.kids.dtype == forest.offset.dtype == np.int32
        assert forest.offset[0] == 0 and forest.offset[-1] == forest.height.size
        for k, p in enumerate(system.particles):
            tree, n_fine = p.tree, len(p.body_tris)
            lo, hi = int(forest.offset[k]), int(forest.offset[k + 1])
            # contiguous ids: the nodes in preorder, root first, then the mesh
            assert hi - lo == tree.n_nodes + n_fine
            nodes, mesh = np.arange(lo, lo + tree.n_nodes), np.arange(lo + tree.n_nodes, hi)
            assert np.array_equal(forest.height[nodes], tree.height)
            assert forest.height[lo] == forest.height[lo:hi].max()
            assert np.array_equal(forest.tri[nodes], tree.tri)
            assert np.array_equal(forest.tri[mesh], p.body_tris)
            assert np.array_equal(forest.eps[nodes], tree.eps.astype(REAL))
            assert (forest.eps[mesh] == REAL(tree.finest_epsilon)).all()
            # owner and source map back to the particle, its nodes and triangles
            assert (forest.owner[lo:hi] == k).all()
            assert np.array_equal(forest.source[nodes], np.arange(tree.n_nodes))
            assert np.array_equal(forest.source[mesh], np.arange(n_fine))
            # children stay inside the tree: a node's are the tree's CSR
            # children, a mesh row is height 0 and its own only child
            for node in range(tree.n_nodes):
                start, count = forest.kid_start[lo + node], forest.kid_count[lo + node]
                assert np.array_equal(forest.kids[start:start + count] - lo, tree.kids_of(node))
            assert (forest.height[mesh] == 0).all() and (forest.kid_count[mesh] == 1).all()
            assert np.array_equal(forest.kids[forest.kid_start[mesh]], mesh)
            kids = forest.kids[forest.kid_start[lo]:forest.kid_start[hi - 1] + 1]
            assert ((kids >= lo) & (kids < hi)).all()


class TestBroadPhase:
    def test_far_pair_skipped(self):
        system = two_sphere_system(gap=5.0)
        assert broad_phase_pairs(system) == []

    def test_near_pair_found(self):
        system = two_sphere_system(gap=1e-2)
        assert broad_phase_pairs(system) == [(0, 1)]

    def test_grid_neighbours(self):
        spec = SceneSpec(kind="CartesianGrid", triangle_count=20, grid_shape=(3, 1, 1))
        system = system_from_scene(build_scene(spec), KernelParams())
        pairs = broad_phase_pairs(system)
        assert (0, 1) in pairs and (1, 2) in pairs


_BROAD_SCENES: dict = {}


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["ParticleOnPlane", "CartesianGrid", "ScaledPair"]),
       seed=st.integers(0, 2**32 - 1), spread=st.floats(0.0, 1.0), scale=st.floats(0.3, 3.0))
def test_broad_phase_is_the_sphere_test(kind, seed, spread, scale):
    # on random poses and scales of the layout, the pairs are exactly those
    # whose bounding spheres overlap, each pair tested on its own
    if kind not in _BROAD_SCENES:
        extra = {"grid_shape": (2, 2, 2)} if kind == "CartesianGrid" else {}
        spec = SceneSpec(kind=kind, triangle_count=20, **extra)
        _BROAD_SCENES[kind] = system_from_scene(build_scene(spec), KernelParams())
    system = _BROAD_SCENES[kind]
    rng = np.random.default_rng(seed)
    motions = [RigidMotion.random_rotation(
        rng, translation=scale * (p.motion.translation + rng.normal(scale=spread, size=3)))
        for p in system.particles]
    want = []
    for i, j in itertools.combinations(range(len(system.particles)), 2):
        p_i, p_j = system.particles[i], system.particles[j]
        gap = (motions[i].apply_points(p_i.mass.center_of_mass)
               - motions[j].apply_points(p_j.mass.center_of_mass))
        if np.linalg.norm(gap) <= p_i.bound_radius() + p_j.bound_radius():
            want.append((i, j))
    assert broad_phase_pairs(system, motions) == want


class TestExplicit:
    def test_ballistic_drift(self):
        system = two_sphere_system(gap=0.2, speed=0.1)
        cfg = StepConfig(dt=1e-3, mode="ExplicitSingle")
        x0 = system.particles[0].motion.translation.copy()
        v0 = system.particles[0].v.copy()
        stats = explicit_step(system, cfg)
        assert stats.contacts_merged == 0
        assert np.allclose(system.particles[0].motion.translation, x0 + v0 * 1e-3)
        assert np.array_equal(system.particles[0].v, v0)

    def test_head_on_momentum(self):
        system = two_sphere_system(gap=2e-3, speed=0.5, tilt=0.0)
        cfg = StepConfig(dt=1e-4, mode="ExplicitSingle")
        p0 = total_momentum(system)
        hit = False
        for _ in range(30):
            stats = explicit_step(system, cfg)
            hit = hit or stats.contacts_merged > 0
            p1 = total_momentum(system)
            assert np.linalg.norm(p1 - p0) <= 1e-6 * max(
                sum(abs(pp.mass.mass) * np.linalg.norm(pp.v) for pp in system.particles), 1e-12)
            p0 = p1
        assert hit
        # equal and opposite velocity updates
        v0, v1 = system.particles[0].v, system.particles[1].v
        assert np.allclose(v0 + v1, 0.0, atol=1e-9)

    def test_multiscale_equals_single(self):
        sys_a = two_sphere_system(gap=2e-3)
        sys_b = two_sphere_system(gap=2e-3)
        cfg_a = StepConfig(dt=1e-4, mode="ExplicitSingle")
        cfg_b = StepConfig(dt=1e-4, mode="ExplicitMultiscale")
        for _ in range(10):
            sa = explicit_step(sys_a, cfg_a)
            sb = explicit_step(sys_b, cfg_b)
            assert sa.contacts_merged == sb.contacts_merged
            assert sb.total_checks < sa.total_checks
        for pa, pb in zip(sys_a.particles, sys_b.particles):
            assert np.allclose(pa.motion.translation, pb.motion.translation, atol=1e-12)
            assert np.allclose(pa.v, pb.v, atol=1e-12)

    def test_wrong_mode_rejected(self):
        system = two_sphere_system()
        with pytest.raises(ValueError):
            explicit_step(system, StepConfig(mode="ImplicitSingle"))


class TestMultiscaleDetection:
    def test_disjoint_roots_no_finest_checks(self):
        system = two_sphere_system(gap=4.0)
        stats = StepStats()
        found = multiscale_contacts(system.forest, motions_of(system), [(0, 1)], stats)
        assert len(found) == 0
        assert stats.finest_checks == 0
        assert stats.checks_by_level.get(max(stats.checks_by_level), 0) >= 1

    def test_equivalence_lemma(self, rng):
        # randomised two-particle poses: multiscale merged contacts equal
        # the single-level ones exactly
        from tricontact.contact import Contacts, merge_contacts

        system = two_sphere_system(gap=1e-3, count=80)
        params = KernelParams()
        p0, p1 = system.particles
        for trial in range(5):
            # particle 1's lowest vertex along x sits at particle 0's highest
            # one, from pressed in by two halo widths to a halo width apart
            rot = RigidMotion.random_rotation(rng)
            verts0 = p0.motion.apply_points(p0.body_tris.reshape(-1, 3))
            verts1 = rot.apply_points(p1.body_tris.reshape(-1, 3))
            tip0 = verts0[np.argmax(verts0[:, 0])]
            tip1 = verts1[np.argmin(verts1[:, 0])]
            gap = np.array([rng.uniform(-2.0 * params.epsilon, params.epsilon), 0.0, 0.0])
            p1.motion = RigidMotion(rot.rotation, tip0 - tip1 + gap)
            single = single_level_contacts(system.forest, motions_of(system), [(0, 1)], StepStats())
            assert single
            multi = multiscale_contacts(system.forest, motions_of(system), [(0, 1)], StepStats())
            ms = merge_contacts(single, params.epsilon)
            mm = merge_contacts(multi, params.epsilon)
            assert len(ms) == len(mm)
            for a, b in zip(ms, mm):
                assert np.abs(a.position - b.position).max() < 1e-5
                assert np.abs(a.normal - b.normal).max() < 1e-5

    def test_asymmetric_unfolding(self):
        # plane (2 triangles) against a sphere: the plane side reaches its
        # mesh level immediately while the sphere side keeps unfolding
        spec = SceneSpec(kind="ParticleOnPlane", triangle_count=80, drop_height=0.0)
        system = system_from_scene(build_scene(spec), KernelParams())
        stats = StepStats()
        found = multiscale_contacts(system.forest, motions_of(system), [(0, 1)], stats)
        assert found
        # mixed-level pairings occurred (plane is finest while sphere is not)
        assert any(lvl > 0 for lvl in stats.checks_by_level)
        assert stats.finest_checks > 0

    def test_work_bound_per_unfolding_round(self, monkeypatch):
        # pairings tested per round grow by at most N_surrogate^2 times the
        # pairings that survived the previous round
        import tricontact.stepping as stepping
        sizes = []
        original = stepping.hybrid_batch

        def recording(A, B, counters, eps, allow_fallback=True):
            sizes.append(A.shape[0])
            return original(A, B, counters, eps, allow_fallback)

        monkeypatch.setattr(stepping, "hybrid_batch", recording)
        system = two_sphere_system(gap=1e-3, count=320)
        multiscale_contacts(system.forest, motions_of(system), [(0, 1)], StepStats())
        assert len(sizes) > 2
        for prev, nxt in zip(sizes, sizes[1:]):
            assert nxt <= 64 * prev  # N_surrogate = 8

    def test_fallbacks_only_on_finest(self):
        system = two_sphere_system(gap=1e-3, count=320)
        stats = StepStats()
        multiscale_contacts(system.forest, motions_of(system), [(0, 1)], stats)
        # comparison calls happen only as finest-level fallbacks
        assert stats.kernel.comparison_invocations == stats.kernel.fallback_invocations
        assert stats.kernel.fallback_invocations <= stats.finest_checks


class TestOneDetectionPath:
    @pytest.mark.parametrize("mode, entry", [
        ("ExplicitSingle", "single_level_contacts"),
        ("ImplicitSingle", "single_level_contacts"),
        ("ExplicitMultiscale", "multiscale_contacts"),
        ("ImplicitSurrogateInPicard", "multiscale_contacts"),
        ("ImplicitMultiscalePicard", None),
    ])
    def test_step_detects_through_module_attribute(self, mode, entry, monkeypatch):
        # each mode reaches its entry point as a module attribute, once per
        # detection; the fused mode keeps its own frontier instead
        calls = []

        def recording(name, original):
            def detect(*args):
                calls.append(name)
                return original(*args)
            return detect

        for name in ("single_level_contacts", "multiscale_contacts"):
            monkeypatch.setattr(stepping, name, recording(name, getattr(stepping, name)))
        stats = step(two_sphere_system(gap=2e-3), StepConfig(dt=1e-4, mode=mode))
        assert stats.contacts_merged > 0
        assert calls == ([entry] * max(stats.picard_iterations, 1) if entry else [])

    def test_flat_detection_reads_no_tree(self):
        # particles without trees have mesh rows only, and flat detection and
        # flat steps on them match those on particles with trees, bitwise
        system = two_sphere_system(gap=1e-3)
        bare = copy.deepcopy(system)
        for p in bare.particles:
            p.tree = None
        forest = bare.forest
        assert np.array_equal(forest.mesh, forest.offset[:-1])
        assert (forest.height == 0).all() and (forest.eps == REAL(bare.particles[0].epsilon)).all()
        assert np.array_equal(forest.source, np.r_[:80, :80])
        runs = []
        for s in (system, bare):
            stats = StepStats()
            runs.append((single_level_contacts(s.forest, motions_of(s), [(0, 1)], stats), stats))
        (got, got_stats), (want, want_stats) = runs
        assert len(got) and got_stats == want_stats
        for f in dataclasses.fields(got):
            assert np.array_equal(getattr(got, f.name), getattr(want, f.name))
        for mode in ("ExplicitSingle", "ImplicitSingle"):
            a, b = copy.deepcopy(system), copy.deepcopy(bare)
            cfg = StepConfig(dt=1e-4, mode=mode)
            for _ in range(3):
                assert step(a, cfg) == step(b, cfg)
            for pa, pb in zip(a.particles, b.particles):
                assert np.array_equal(pa.motion.translation, pb.motion.translation)
                assert np.array_equal(pa.motion.rotation, pb.motion.rotation)
                assert np.array_equal(pa.v, pb.v) and np.array_equal(pa.omega, pb.omega)


_EQUIVALENCE_SYSTEM: list = []


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), gap=st.floats(-2e-2, 1e-2))
def test_three_detections_agree(seed, gap):
    # random poses of two 80-triangle spheres: unfolding the trees, flat
    # detection and the fused detector's first settled sweep find the same
    # merged contacts, within criterion 3's tolerances
    if not _EQUIVALENCE_SYSTEM:
        _EQUIVALENCE_SYSTEM.append(two_sphere_system(count=80))
    system = _EQUIVALENCE_SYSTEM[0]
    p0, p1 = system.particles
    # particle 1's lowest vertex along x sits ``gap`` beyond particle 0's highest
    rot = RigidMotion.random_rotation(np.random.default_rng(seed))
    verts0 = p0.motion.apply_points(p0.body_tris.reshape(-1, 3))
    verts1 = rot.apply_points(p1.body_tris.reshape(-1, 3))
    p1.motion = RigidMotion(rot.rotation, verts0[np.argmax(verts0[:, 0])]
                            - verts1[np.argmin(verts1[:, 0])] + [gap, 0.0, 0.0])
    motions = motions_of(system)
    eps = [p.epsilon for p in system.particles]
    multi = merge_contacts(
        multiscale_contacts(system.forest, motions, [(0, 1)], StepStats()), eps)
    single = merge_contacts(
        single_level_contacts(system.forest, motions, [(0, 1)], StepStats()), eps)
    detect = _FusedDetector(system, StepStats())
    settled = False
    while not settled:
        fused, settled = detect(motions)
    for found in (multi, fused):
        assert len(found) == len(single)
        for a, b in zip(single, found):
            assert np.abs(a.position - b.position).max() < 1e-5
            assert np.abs(a.normal - b.normal).max() < 1e-5


class TestImplicit:
    def test_force_free_one_iteration(self):
        system = two_sphere_system(gap=0.3, speed=0.1)
        cfg = StepConfig(dt=1e-3, mode="ImplicitSingle")
        x0 = system.particles[0].motion.translation.copy()
        v0 = system.particles[0].v.copy()
        stats = implicit_step(system, cfg)
        assert stats.picard_iterations == 1
        assert np.allclose(system.particles[0].motion.translation, x0 + v0 * 1e-3)

    def test_iteration_count_bounded_in_contact(self):
        system = two_sphere_system(gap=2e-3, speed=0.5)
        cfg = StepConfig(dt=1e-4, mode="ImplicitSingle")
        iters = []
        for _ in range(20):
            stats = implicit_step(system, cfg)
            iters.append(stats.picard_iterations)
        assert max(iters) <= 15

    def test_surrogate_in_picard_identical(self):
        sys_a = two_sphere_system(gap=2e-3)
        sys_b = two_sphere_system(gap=2e-3)
        cfg_a = StepConfig(dt=1e-4, mode="ImplicitSingle")
        cfg_b = StepConfig(dt=1e-4, mode="ImplicitSurrogateInPicard")
        for _ in range(10):
            sa = implicit_step(sys_a, cfg_a)
            sb = implicit_step(sys_b, cfg_b)
            assert sa.picard_iterations == sb.picard_iterations
        for pa, pb in zip(sys_a.particles, sys_b.particles):
            assert np.abs(pa.motion.translation - pb.motion.translation).max() < 1e-5
            assert np.abs(pa.v - pb.v).max() < 1e-5

    @pytest.mark.parametrize("mode", IMPLICIT_MODES)
    def test_divergence_guard(self, mode):
        system = two_sphere_system(gap=2e-3)
        cfg = StepConfig(dt=1e-4, mode=mode, max_picard_iterations=1)
        with pytest.raises(PicardDiverged):
            for _ in range(5):
                implicit_step(system, cfg)

    @pytest.mark.parametrize("mode", ["ExplicitSingle", "ExplicitMultiscale"])
    def test_wrong_mode_rejected(self, mode):
        system = two_sphere_system()
        with pytest.raises(ValueError):
            implicit_step(system, StepConfig(mode=mode))

    @pytest.mark.parametrize("dtype", [REAL, np.float64])
    def test_rel_change_rounds_as_the_per_vector_formula(self, rng, dtype):
        # the Picard driver tests all halves at once; each change must equal,
        # bit for bit, the scalar formula applied to one 3-vector at a time
        def reference(new, old, floor=1e-9):
            scale = max(float(np.linalg.norm(new)), float(np.linalg.norm(old)))
            return 0.0 if scale < floor else float(np.linalg.norm(new - old)) / scale

        n = 400
        new = (rng.normal(size=(n, 6)) * 10.0 ** rng.integers(-12, 6, size=(n, 1))).astype(REAL)
        old = (new * rng.uniform(0.9, 1.1, size=(n, 6))).astype(dtype)
        new[:40], old[20:60] = 0.0, 0.0  # zero wrenches, and zero against zero
        got = stepping._rel_change(new, old)
        want = [[reference(new[i, h], old[i, h]) for h in (slice(0, 3), slice(3, 6))]
                for i in range(n)]
        assert got.dtype == np.float64 and np.array_equal(got, want)


def mesh_leaves(forest, k):
    """Mesh triangle indices under every id of tree ``k``, keyed by the id
    within the tree, walking the CSR children."""
    lo, out = int(forest.offset[k]), {}
    for gid in range(int(forest.offset[k + 1]) - 1, lo - 1, -1):
        if forest.height[gid] == 0:
            out[gid - lo] = [int(forest.source[gid])]
        else:
            kids = forest.kids[forest.kid_start[gid]:forest.kid_start[gid] + forest.kid_count[gid]]
            out[gid - lo] = [t for c in kids for t in out[int(c) - lo]]
    return out


def random_contact_pose(system, rng):
    """Place particle 1 at a random rotation next to particle 0."""
    gap = float(rng.uniform(-0.005, 0.02))
    offset = np.array([1.0 + gap, rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05)])
    system.particles[1].motion = RigidMotion.random_rotation(
        rng, translation=system.particles[0].motion.translation + offset)
    return [p.motion for p in system.particles]


class TestFusedFrontier:
    def test_frontier_is_cut_after_every_sweep(self):
        # every (mesh tri of i, mesh tri of j) pair lies under exactly one
        # frontier pairing, while the poses move from sweep to sweep
        rng = np.random.default_rng(41)
        system = two_sphere_system(count=80)
        leaves_i, leaves_j = mesh_leaves(system.forest, 0), mesh_leaves(system.forest, 1)
        n_i, n_j = (len(p.body_tris) for p in system.particles)
        swept = 0
        for _ in range(6):
            motions = random_contact_pose(system, rng)
            detect = _FusedDetector(system, StepStats())
            for _ in range(8):
                shift = rng.normal(scale=2e-3, size=3)
                _, settled = detect([motions[0], RigidMotion(motions[1].rotation,
                                                             motions[1].translation + shift)])
                swept += 1
                # the global frontier in each tree's own ids
                gi, gj = detect.frontier
                gi, gj = gi - detect.forest.offset[0], gj - detect.forest.offset[1]
                cover = np.zeros((n_i, n_j), dtype=np.int64)
                for a, b in zip(gi, gj):
                    cover[np.ix_(leaves_i[int(a)], leaves_j[int(b)])] += 1
                assert (cover == 1).all()
                if settled:
                    break
        assert swept > 6

    def test_settled_sweep_is_complete_detection(self):
        # with fixed poses, the first settled sweep finds exactly the merged
        # single-level contacts (criterion 3's tolerances)
        rng = np.random.default_rng(42)
        system = two_sphere_system(count=80)
        found_any = False
        for _ in range(8):
            motions = random_contact_pose(system, rng)
            detect = _FusedDetector(system, StepStats())
            for _ in range(10):
                contacts, settled = detect(motions)
                if settled:
                    break
            assert settled
            assert all(max(c.level) == 0 for c in contacts)
            single = merge_contacts(
                single_level_contacts(system.forest, motions, [(0, 1)], StepStats()),
                [p.epsilon for p in system.particles])
            assert len(contacts) == len(single)
            for a, b in zip(single, contacts):
                assert a.source == b.source
                assert np.abs(a.position - b.position).max() < 1e-5
                assert np.abs(a.normal - b.normal).max() < 1e-5
            found_any = found_any or bool(single)
        assert found_any

    @pytest.mark.parametrize("count,gap", [(80, 1e-2), (80, 2e-2), (320, 2e-2)])
    def test_no_contact_step_sweep_bound(self, count, gap):
        # root halos overlap but the meshes do not touch: the frontier widens
        # one level per sweep, then one settled sweep and one to converge
        system = two_sphere_system(gap=gap, speed=0.0, count=count)
        height = max(int(p.tree.height[0]) for p in system.particles)
        stats = implicit_step(system, StepConfig(dt=1e-4, mode="ImplicitMultiscalePicard"))
        assert stats.broad_phase_pairs == 1 and stats.total_checks > 0
        assert stats.contacts_merged == 0
        assert stats.picard_iterations <= height + 2

    def test_checks_within_twice_surrogate_in_picard(self):
        # criterion-7 scene: fused detection costs at most twice the checks
        # of restarting the hierarchy in every sweep
        per_step = {}
        for mode in ("ImplicitSurrogateInPicard", "ImplicitMultiscalePicard"):
            spec = SceneSpec(kind="ParticleParticle", triangle_count=320,
                             initial_gap=2e-3, approach_speed=0.5, seed=3)
            system = system_from_scene(build_scene(spec), KernelParams())
            cfg = StepConfig(dt=1e-4, mode=mode)
            per_step[mode] = np.mean([step(system, cfg).total_checks for _ in range(20)])
        assert per_step["ImplicitMultiscalePicard"] <= 2.0 * per_step["ImplicitSurrogateInPicard"]


class TestMultiscalePicard:
    def test_no_contact_stays_root_and_ballistic(self):
        system = two_sphere_system(gap=0.5, speed=0.1)
        cfg = StepConfig(dt=1e-3, mode="ImplicitMultiscalePicard")
        v0 = system.particles[0].v.copy()
        stats = implicit_step(system, cfg)
        assert stats.picard_iterations == 1
        assert np.array_equal(system.particles[0].v, v0)

    def test_contact_matches_implicit_single(self):
        sys_a = two_sphere_system(gap=2e-3, tilt=0.0)
        sys_b = two_sphere_system(gap=2e-3, tilt=0.0)
        cfg_a = StepConfig(dt=1e-4, mode="ImplicitSingle")
        cfg_b = StepConfig(dt=1e-4, mode="ImplicitMultiscalePicard")
        for _ in range(15):
            implicit_step(sys_a, cfg_a)
            implicit_step(sys_b, cfg_b)
        for pa, pb in zip(sys_a.particles, sys_b.particles):
            scale = max(np.linalg.norm(pa.v), np.linalg.norm(pb.v), 1e-12)
            assert np.linalg.norm(pa.v - pb.v) / scale < 5e-3
            scale_w = max(np.linalg.norm(pa.omega), np.linalg.norm(pb.omega), 1e-9)
            assert np.linalg.norm(pa.omega - pb.omega) / scale_w < 5e-3 or scale_w < 1e-6

    def test_veto_blocks_removal_oscillation(self):
        # adversarial: a pair breathing at the halo rim; the frontier only
        # refines within a step, so detection cannot oscillate
        system = two_sphere_system(gap=1.9e-2, speed=0.0, count=80)
        cfg = StepConfig(dt=1e-4, mode="ImplicitMultiscalePicard",
                         max_picard_iterations=200)
        stats = implicit_step(system, cfg)
        assert stats.picard_iterations < 200

    def test_iteration_count_bounded(self):
        system = two_sphere_system(gap=2e-3)
        cfg = StepConfig(dt=1e-4, mode="ImplicitMultiscalePicard")
        iters = []
        for _ in range(10):
            stats = implicit_step(system, cfg)
            iters.append(stats.picard_iterations)
        assert max(iters) <= 30


def _triangle(rng, size, sliver):
    """A random triangle; with ``sliver``, its third vertex sits that
    fraction of the first edge's length off the first edge."""
    tri = rng.normal(size=(3, 3))
    if sliver:
        edge = tri[1] - tri[0]
        off = np.cross(edge, rng.normal(size=3))
        tri[2] = (tri[0] + rng.uniform(0.05, 0.95) * edge
                  + sliver * np.linalg.norm(edge) * off / np.linalg.norm(off))
    return size * tri


NEAR = [0.0] + [s * r for r in (1e-15, 1e-12, 1e-9, 1e-7, 1e-5, 1e-3) for s in (-1.0, 1.0)]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.floats(1e-3, 1.0),
       slivers=st.tuples(*[st.sampled_from([0.0, 1e-2, 1e-4, 1e-5])] * 2),
       shift=st.sampled_from([0.0, 1.0, 100.0]), eps=st.tuples(*[st.floats(1e-5, 0.1)] * 2),
       rel_gap=st.one_of(st.floats(-1.0, 1.0), st.sampled_from(NEAR)),
       dtype=st.sampled_from([np.float64, np.float32]))
# float32 rounding at the threshold, found with no rounding slack in the cull
@example(seed=1, size=0.001, slivers=(1e-4, 1e-2), shift=100.0, eps=(0.09375, 1e-5),
         rel_gap=0.0, dtype=np.float32)
# a float32 false contact at distance 0 with a 1e-4 sliver, from the
# comparison kernel's edge-triangle crossing test
@example(seed=46125, size=1.0, slivers=(0.01, 1e-4), shift=0.0, eps=(0.0625, 0.0625),
         rel_gap=1.0, dtype=np.float32)
def test_separating_axis_cull_is_sound(seed, size, slivers, shift, eps, rel_gap, dtype):
    # place B along a random axis u so that its projection gap to A along
    # the centroid line is the halo reach times (1 + rel_gap); whenever the
    # cull clears the pairing, the exact kernel must find the two halos apart
    rng = np.random.default_rng(seed)
    a = _triangle(rng, size, slivers[0])
    b = _triangle(rng, size, slivers[1])
    reach = eps[0] + eps[1]
    u = rng.normal(size=3)
    u /= np.linalg.norm(u)
    a -= a.mean(axis=0)
    b -= b.mean(axis=0)
    b += (reach * (1.0 + rel_gap) + (a @ u).max() - (b @ u).min()) * u
    offset = shift * rng.normal(size=3)
    tri_a = (a + offset)[None].astype(dtype)
    tri_b = (b + offset)[None].astype(dtype)
    assume(not degenerate_mask(np.concatenate([tri_a, tri_b])).any())
    clear = stepping._separated(tri_a, tri_b, np.array([reach], dtype=dtype))
    if clear[0]:
        res = comparison_batch(tri_a, tri_b, 0.5 * float(dtype(reach)))
        assert res.kind[0] == np.int8(Kind.NO_CONTACT)
        assert res.distance[0] > float(dtype(reach))


class TestSeparatingAxisCull:
    def test_clears_apart_keeps_near_and_coincident(self, sphere80):
        a = sphere80[:4]
        reach = np.full(4, 2e-2)
        assert stepping._separated(a, a + [0.0, 0.0, 1.0], reach).all()
        assert not stepping._separated(a, a + [0.0, 0.0, 1e-2], reach).any()
        assert not stepping._separated(a, a, reach).any()

    @pytest.mark.parametrize("mode", ["ExplicitMultiscale", "ImplicitSurrogateInPicard",
                                      "ImplicitMultiscalePicard"])
    @pytest.mark.parametrize("scene", ["pair", "grid"])
    def test_cull_changes_no_result(self, scene, mode, monkeypatch):
        # against a helper that clears nothing: same contacts and sweeps in
        # every step, bitwise-equal final states, less kernel work
        def run():
            system = copy.deepcopy(_cull_scene(scene))
            cfg = StepConfig(dt=1e-4, mode=mode)
            return [step(system, cfg) for _ in range(12)], system

        with_cull, sys_a = run()
        monkeypatch.setattr(stepping, "_separated",
                            lambda a, b, reach: np.zeros(len(a), dtype=bool))
        without, sys_b = run()
        assert [s.contacts_merged for s in with_cull] == [s.contacts_merged for s in without]
        assert [s.picard_iterations for s in with_cull] == [s.picard_iterations for s in without]
        for pa, pb in zip(sys_a.particles, sys_b.particles):
            assert np.array_equal(pa.motion.translation, pb.motion.translation)
            assert np.array_equal(pa.motion.rotation, pb.motion.rotation)
            assert np.array_equal(pa.v, pb.v) and np.array_equal(pa.omega, pb.omega)
        assert sum(s.culled for s in with_cull) > 0
        assert sum(s.culled for s in without) == 0
        assert (sum(s.kernel.iterative_invocations for s in with_cull)
                < sum(s.kernel.iterative_invocations for s in without))
        assert sum(s.contacts_merged for s in with_cull) > 0


def _add_counts(total: StepStats, one: StepStats) -> None:
    """Add the checks, culls and kernel counters of ``one`` to ``total``."""
    for lvl, count in one.checks_by_level.items():
        total.record_checks(lvl, count)
    total.culled += one.culled
    for key, count in dataclasses.asdict(one.kernel).items():
        setattr(total.kernel, key, getattr(total.kernel, key) + count)


class TestBatchedUnfolding:
    def test_all_pairs_pass_matches_pair_by_pair(self):
        # jittered poses of the 2x2x2 grid: unfolding every broad-phase pair
        # in one batch per level gives each pair bitwise the contacts of a
        # one-pair call, and the counters of all one-pair calls together
        rng = np.random.default_rng(8)
        system = _cull_scene("grid")
        touching = 0
        for _ in range(3):
            motions = [stepping.advance_motion(p, p.motion, rng.normal(scale=2e-3, size=3),
                                               rng.normal(scale=2e-2, size=3), 1.0)
                       for p in system.particles]
            pairs = broad_phase_pairs(system, motions)
            batched, summed = StepStats(), StepStats()
            found = multiscale_contacts(system.forest, motions, pairs, batched)
            for i, j in pairs:
                one = StepStats()
                alone = multiscale_contacts(system.forest, motions, [(i, j)], one)
                mine = sorted((c for c in found if c.pair == (i, j)), key=lambda c: c.source)
                alone = sorted(alone, key=lambda c: c.source)
                assert [(c.source, c.level) for c in mine] == [(c.source, c.level) for c in alone]
                for a, b in zip(mine, alone):
                    assert np.array_equal(a.position, b.position)
                    assert np.array_equal(a.normal, b.normal)
                _add_counts(summed, one)
                touching += bool(alone)
            assert len(found) == sum(1 for c in found if c.pair in pairs)
            assert batched.checks_by_level == summed.checks_by_level
            assert batched.culled == summed.culled
            assert batched.kernel == summed.kernel
        assert touching > 0

    def test_flat_slices_span_pairs(self, monkeypatch):
        # flat detection of all broad-phase pairs of the grid in kernel calls
        # of 1,000 pairs, which span pairs of 6,400, gives bitwise the
        # contacts of the one-pair calls in turn, and their summed counters
        monkeypatch.setattr(stepping, "_FLAT_SLICE", 1000)
        system = _cull_scene("grid")
        motions = motions_of(system)
        pairs = broad_phase_pairs(system, motions)
        batched, summed = StepStats(), StepStats()
        found = single_level_contacts(system.forest, motions, pairs, batched)
        alone = []
        for pair in pairs:
            one = StepStats()
            alone.append(single_level_contacts(system.forest, motions, [pair], one))
            _add_counts(summed, one)
        alone = Contacts.concat(alone)
        assert len(pairs) > 1 and len(found) and batched.kernel.fallback_invocations
        for f in dataclasses.fields(Contacts):
            assert np.array_equal(getattr(found, f.name), getattr(alone, f.name))
        assert batched.checks_by_level == summed.checks_by_level
        assert batched.kernel == summed.kernel

    def test_one_kernel_batch_per_level(self, monkeypatch):
        # one ExplicitMultiscale step on the grid: the hybrid-kernel calls
        # stay within the pair tree's levels plus the slices the cap forces,
        # a bound that does not grow with the number of broad-phase pairs
        sizes = []
        original = stepping.hybrid_batch

        def recording(A, B, counters, eps, allow_fallback=True):
            sizes.append(A.shape[0])
            return original(A, B, counters, eps, allow_fallback)

        monkeypatch.setattr(stepping, "hybrid_batch", recording)
        system = copy.deepcopy(_cull_scene("grid"))
        stats = explicit_step(system, StepConfig(dt=1e-4, mode="ExplicitMultiscale"))
        levels = 1 + max(int(p.tree.height[0]) for p in system.particles)
        assert stats.broad_phase_pairs > levels and stats.contacts_merged > 0
        assert max(sizes) <= stepping._SLICE
        assert len(sizes) <= levels + sum(sizes) // stepping._SLICE


_CULL_SCENES: dict = {}


def _cull_scene(name):
    """The criterion-7 pair or the 2x2x2 grid of 80-triangle particles."""
    if name not in _CULL_SCENES:
        spec = (SceneSpec(kind="ParticleParticle", triangle_count=320, initial_gap=2e-3,
                          approach_speed=0.5, seed=3) if name == "pair" else
                SceneSpec(kind="CartesianGrid", triangle_count=80, grid_shape=(2, 2, 2), seed=3))
        _CULL_SCENES[name] = system_from_scene(build_scene(spec), KernelParams())
    return _CULL_SCENES[name]


class TestDeterminism:
    def test_identical_runs_bitwise(self):
        results = []
        for _ in range(2):
            system = two_sphere_system(gap=2e-3)
            cfg = StepConfig(dt=1e-4, mode="ExplicitMultiscale")
            checks = []
            for _ in range(5):
                stats = step(system, cfg)
                checks.append((stats.total_checks, stats.contacts_merged))
            results.append((checks, [p.v.copy() for p in system.particles]))
        assert results[0][0] == results[1][0]
        for a, b in zip(results[0][1], results[1][1]):
            assert np.array_equal(a, b)
