import copy
import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import cached_tree
from tricontact import kernels, stepping
from tricontact.geometry import REAL, RigidMotion, triangle_areas
from tricontact.kernels import KernelParams, Kind, comparison_batch, hybrid_batch
from tricontact.scenes import SceneSpec, build_scene
from tricontact.contact import Contacts, ForceModelParams, merge_contacts
from tricontact.stepping import (EXPLICIT_MODES, IMPLICIT_MODES, PicardDiverged,
                                 StepConfig, StepStats, _detector,
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
    # each sphere: the largest distance from the centre of mass to a mesh
    # vertex, plus the halo
    bound = [float(np.linalg.norm(p.body_tris.reshape(-1, 3) - p.mass.center_of_mass,
                                  axis=1).max()) + p.epsilon for p in system.particles]
    want = []
    for i, j in itertools.combinations(range(len(system.particles)), 2):
        p_i, p_j = system.particles[i], system.particles[j]
        gap = (motions[i].apply_points(p_i.mass.center_of_mass)
               - motions[j].apply_points(p_j.mass.center_of_mass))
        if np.linalg.norm(gap) <= bound[i] + bound[j]:
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
        ("ImplicitMultiscalePicard", "multiscale_contacts"),
    ])
    def test_step_detects_through_module_attribute(self, mode, entry, monkeypatch):
        # each mode reaches its entry point as a module attribute, once per
        # detection; the fused mode passes its cut along
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
        assert calls == [entry] * max(stats.picard_iterations, 1)

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
    # detection and the fused detector's first sweep find the same merged
    # contacts, within criterion 3's tolerances
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
    fused = _detector(system, "ImplicitMultiscalePicard", StepStats())(motions)
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

    @pytest.mark.parametrize("mode", EXPLICIT_MODES + IMPLICIT_MODES)
    def test_state_keeps_the_precision(self, mode):
        # a step in contact keeps every particle's state in the run's
        # precision, also through the relaxation factor of the implicit modes
        system = two_sphere_system(gap=2e-3)
        step(system, StepConfig(dt=1e-4, mode=mode))
        for p in system.particles:
            for value in (p.v, p.omega, p.motion.translation):
                assert value.dtype == REAL, mode

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


def cut_cover(forest, cut):
    """How many pairings of ``cut`` lie over each (mesh tri of 0, mesh tri
    of 1) pair of trees 0 and 1."""
    leaves = mesh_leaves(forest, 0), mesh_leaves(forest, 1)
    cover = np.zeros([int(forest.offset[k + 1] - forest.mesh[k]) for k in (0, 1)], dtype=np.int64)
    for a, b in zip(cut.gi - forest.offset[0], cut.gj - forest.offset[1]):
        cover[np.ix_(leaves[0][int(a)], leaves[1][int(b)])] += 1
    return cover


def recording_unfolds(monkeypatch):
    """Calls of ``stepping.multiscale_contacts`` with a cut, recorded as
    (motions, pairs, contacts, cut after the call, cut before it, pairings
    it reused)."""
    calls, original = [], stepping.multiscale_contacts

    def recording(forest, motions, pairs, stats, cut=None):
        before, reused = copy.deepcopy(cut), stats.reused
        found = original(forest, motions, pairs, stats, cut)
        if cut is not None:
            calls.append((list(motions), pairs, found, copy.deepcopy(cut), before,
                          stats.reused - reused))
        return found

    monkeypatch.setattr(stepping, "multiscale_contacts", recording)
    return calls


class TestFusedFrontier:
    def test_frontier_is_cut_after_every_sweep(self, monkeypatch):
        # every (mesh tri of i, mesh tri of j) pair lies under exactly one
        # cut pairing, while the poses move from sweep to sweep, and every
        # sweep is settled: at its poses, no pairing of the cut that its
        # margin does not prove apart splits again.  A sweep whose poses
        # take the pair out of bounding-sphere reach has an empty cut.
        calls = recording_unfolds(monkeypatch)
        rng = np.random.default_rng(41)
        system = two_sphere_system(count=80)
        forest = system.forest
        for _ in range(6):
            motions = random_contact_pose(system, rng)
            detect = _detector(system, "ImplicitMultiscalePicard", StepStats())
            for _ in range(4):
                shift = rng.normal(scale=2e-3, size=3)
                moved = [motions[0], RigidMotion(motions[1].rotation,
                                                 motions[1].translation + shift)]
                detect(moved)
                _, pairs, _, cut, *_ = calls[-1]
                assert (cut_cover(forest, cut) == len(pairs)).all()
                near = ~(cut.margin > 0.0)
                _, _, (kids, _) = stepping._refine(forest, forest.world(moved, [(0, 1)]),
                                                   cut.gi[near], cut.gj[near], StepStats())
                assert kids.size == 0
        assert sum(len(pairs) for _, pairs, *_ in calls) > 20

    def test_settled_sweep_is_complete_detection(self):
        # with fixed poses, the first sweep finds exactly the merged
        # single-level contacts (criterion 3's tolerances)
        rng = np.random.default_rng(42)
        system = two_sphere_system(count=80)
        found_any = False
        for _ in range(8):
            motions = random_contact_pose(system, rng)
            contacts = _detector(system, "ImplicitMultiscalePicard", StepStats())(motions)
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
        # root halos overlap but the meshes do not touch: the first sweep is
        # a complete detection, finds no contact and converges
        system = two_sphere_system(gap=gap, speed=0.0, count=count)
        stats = implicit_step(system, StepConfig(dt=1e-4, mode="ImplicitMultiscalePicard"))
        assert stats.broad_phase_pairs == 1 and stats.total_checks > 0
        assert stats.contacts_merged == 0
        assert stats.picard_iterations == 1

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

    def test_every_sweep_equals_unfolding_from_roots(self, monkeypatch):
        # ten steps of the criterion-7 pair: at every sweep's poses, the
        # merged contacts of the cut equal those unfolded from the roots,
        # bitwise, and some pairings were skipped
        calls = recording_unfolds(monkeypatch)
        system = copy.deepcopy(_cull_scene("pair"))
        cfg = StepConfig(dt=1e-4, mode="ImplicitMultiscalePicard")
        reused = sum(step(system, cfg).reused for _ in range(10))
        assert len(calls) > 10 and reused > 0
        eps = [p.epsilon for p in system.particles]
        for motions, pairs, found, *_ in calls:
            fused = merge_contacts(found, eps)
            fresh = merge_contacts(stepping.multiscale_contacts(
                system.forest, motions, pairs, StepStats()), eps)
            for f in dataclasses.fields(Contacts):
                assert np.array_equal(getattr(fused, f.name), getattr(fresh, f.name))
        assert sum(len(found) for _, _, found, *_ in calls) > 0

    def test_cut_covers_trees_of_unequal_height(self, monkeypatch):
        # a ScaledPair whose refined side has the taller tree: pairings of
        # unequal heights open their taller side only, and after every sweep
        # each mesh pair still lies under exactly one cut pairing
        calls = recording_unfolds(monkeypatch)
        spec = SceneSpec(kind="ScaledPair", triangle_count=80, scale_factors=(1.0, 2.0),
                         refine_scaled=True, initial_gap=5e-3, approach_speed=0.2, seed=3)
        system = system_from_scene(build_scene(spec))
        heights = [int(p.tree.height[0]) for p in system.particles]
        assert heights[0] < heights[1]
        cfg = StepConfig(dt=1e-4, mode="ImplicitMultiscalePicard")
        assert sum(step(system, cfg).contacts_merged for _ in range(3)) > 0
        forest = system.forest
        assert len(calls) >= 3
        for _, _, _, cut, *_ in calls:
            assert (cut_cover(forest, cut) == 1).all()
        # at the last poses the root pairing splits into the taller root's
        # children, each paired with the shorter root
        short, tall = forest.offset[:2]
        _, _, (gi, gj) = stepping._refine(forest, forest.world(motions_of(system), [(0, 1)]),
                                          forest.offset[:1], forest.offset[1:2], StepStats())
        start = forest.kid_start[tall]
        assert (gi == short).all()
        assert np.array_equal(gj, forest.kids[start:start + forest.kid_count[tall]])

    def test_final_states_equal_implicit_single(self):
        # 100 steps of the 80-triangle criterion-7 pair: the fused mode's
        # sweeps and final states equal ImplicitSingle's, bitwise, and the
        # cut carried from step to step, which never coarsens, stays bounded
        runs = []
        for mode in ("ImplicitSingle", "ImplicitMultiscalePicard"):
            system = two_sphere_system(gap=2e-3, speed=0.5, count=80)
            cfg = StepConfig(dt=1e-4, mode=mode)
            runs.append(([step(system, cfg) for _ in range(100)], system))
        (single, sys_a), (fused, sys_b) = runs
        sweeps = [s.picard_iterations for s in single]
        assert sweeps == [s.picard_iterations for s in fused] and max(sweeps) > 1
        assert_same_states(sys_a, sys_b)
        assert all(s.cut == 0 for s in single)
        first = next(s.cut for s in fused if s.contacts_merged)
        # in float64 the first step in contact unfolds all that the cut
        # ever needs; in float32 two level-1 pairings come into reach
        # later in the contact, their exact distances falling below their
        # reach, and the cut grows from 1,391 to 1,449 pairings
        bound = first if REAL == np.float64 else 1.05 * first
        assert 0 < first <= max(s.cut for s in fused) <= bound
        assert sum(s.reused for s in fused[1:]) > 0

    def test_replay_repeats_the_work(self):
        # a reset to the initial state, as the benchmark's round makes it,
        # restarts the cut: two replays of 10 steps give the per-step
        # counters and final states of the run on the fresh system, bitwise
        system = two_sphere_system(gap=2e-3, speed=0.5, count=80)
        initial = [(p.motion.rotation.copy(), p.motion.translation.copy(), p.v.copy(),
                    p.omega.copy()) for p in system.particles]
        cfg = StepConfig(dt=1e-4, mode="ImplicitMultiscalePicard")
        runs = []
        for _ in range(3):
            for p, (q, t, v, w) in zip(system.particles, initial):
                p.motion = RigidMotion(q.copy(), t.copy())
                p.v, p.omega = v.copy(), w.copy()
            system.time, system.step_index = 0.0, 0
            runs.append(([dataclasses.asdict(step(system, cfg)) for _ in range(10)],
                         copy.deepcopy(system)))
        (fresh, sys_a), *replays = runs
        checks = [sum(sum(h.values()) for h in s["sweep_histograms"]) for s in fresh]
        assert max(checks[1:]) < checks[0] and sum(s["reused"] for s in fresh) > 0
        for counters, sys_b in replays:
            assert counters == fresh
            assert_same_states(sys_a, sys_b)

    def test_deep_copy_continues_alike(self):
        # a copy taken mid-run carries the cut: it continues with the
        # original's counters and states, bitwise
        system = two_sphere_system(gap=2e-3, speed=0.5, count=80)
        cfg = StepConfig(dt=1e-4, mode="ImplicitMultiscalePicard")
        for _ in range(5):
            step(system, cfg)
        twin = copy.deepcopy(system)
        for _ in range(5):
            assert dataclasses.asdict(step(twin, cfg)) == dataclasses.asdict(step(system, cfg))
        assert_same_states(system, twin)

    def test_hand_moved_particle_restarts_the_cut(self):
        # a pose assigned between steps restarts the cut: the next step's
        # counters and state equal those of a fresh system built at that state
        cfg = StepConfig(dt=1e-4, mode="ImplicitMultiscalePicard")
        system = two_sphere_system(gap=2e-3, speed=0.5, count=80)
        for _ in range(5):
            step(system, cfg)
        moved = system.particles[1]
        moved.motion = RigidMotion(moved.motion.rotation, moved.motion.translation + [2e-4, 0, 0])
        fresh = two_sphere_system(gap=2e-3, speed=0.5, count=80)
        for p, q in zip(fresh.particles, system.particles):
            p.motion, p.v, p.omega = q.motion, q.v.copy(), q.omega.copy()
        got, want = step(system, cfg), step(fresh, cfg)
        assert got.contacts_merged > 0
        assert dataclasses.asdict(got) == dataclasses.asdict(want)
        assert_same_states(system, fresh)
        # the next step carries the cut again: its first sweep unfolds less
        first_sweep = [sum(s.sweep_histograms[0].values()) for s in (got, step(system, cfg))]
        assert first_sweep[1] < first_sweep[0]

    def test_pose_is_a_value(self):
        # a pose cannot be edited in place nor have a field assigned; a new
        # pose restarts the cut: the plane of the plane scene raised by 0.3
        # after one step gives the next fused step ImplicitSingle's sweeps,
        # contacts and states, bitwise
        spec = SceneSpec(kind="ParticleOnPlane", triangle_count=80, plane_tilt_deg=0.0,
                         drop_height=0.005, seed=3)
        start = system_from_scene(build_scene(spec))
        runs = []
        for mode in ("ImplicitSingle", "ImplicitMultiscalePicard"):
            system = copy.deepcopy(start)
            cfg = StepConfig(dt=1e-4, mode=mode)
            step(system, cfg)
            plane = system.particles[0]
            with pytest.raises(ValueError):
                plane.motion.translation[:] += (0.0, 0.0, 0.3)
            with pytest.raises(dataclasses.FrozenInstanceError):
                plane.motion.translation = plane.motion.translation + (0.0, 0.0, 0.3)
            plane.motion = RigidMotion(plane.motion.rotation,
                                       plane.motion.translation + (0.0, 0.0, 0.3))
            stats = step(system, cfg)
            runs.append(((stats.picard_iterations, stats.contacts_merged), system))
        (want, sys_a), (got, sys_b) = runs
        assert got == want and want[1] > 0
        assert_same_states(sys_a, sys_b)

    def test_pair_coming_into_reach_mid_step(self):
        # the 80-triangle criterion-7 pair and a third sphere 0.021 to the
        # left of it, moving at 20 with dt 1e-3: the bounding spheres of the
        # new pair overlap only at the guessed end-of-step poses, and the
        # fused mode takes the sweeps, contacts and final state of
        # ImplicitSingle and ImplicitSurrogateInPicard, bitwise
        spec = SceneSpec(kind="ParticleParticle", triangle_count=80,
                         initial_gap=2e-3, approach_speed=0.5, seed=3)
        scene = build_scene(spec)
        first = scene.particles[0]
        scene.particles.append(dataclasses.replace(
            first, motion=RigidMotion(first.motion.rotation,
                                      first.motion.translation - [1.021, 0.0, 0.0]),
            velocity=np.array([20.0, 0.0, 0.0], dtype=REAL)))
        start = system_from_scene(scene)
        assert broad_phase_pairs(start) == [(0, 1)]
        runs = []
        for mode in IMPLICIT_MODES:
            system = copy.deepcopy(start)
            stats = step(system, StepConfig(dt=1e-3, mode=mode))
            runs.append(((stats.picard_iterations, stats.contacts_merged,
                          stats.broad_phase_pairs), system))
        (want, sys_a), *others = runs
        assert want[1:] == (2, 2) and sys_a.particles[2].v[0] < 20.0
        for got, sys_b in others:
            assert got == want
            for pa, pb in zip(sys_a.particles, sys_b.particles):
                assert np.array_equal(pa.motion.translation, pb.motion.translation)
                assert np.array_equal(pa.motion.rotation, pb.motion.rotation)
                assert np.array_equal(pa.v, pb.v) and np.array_equal(pa.omega, pb.omega)


def assert_same_states(sys_a, sys_b):
    for pa, pb in zip(sys_a.particles, sys_b.particles):
        assert np.array_equal(pa.motion.translation, pb.motion.translation)
        assert np.array_equal(pa.motion.rotation, pb.motion.rotation)
        assert np.array_equal(pa.v, pb.v) and np.array_equal(pa.omega, pb.omega)


_CERTIFICATE_SYSTEM: list = []


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), gap=st.floats(-2e-2, 2e-2),
       speed=st.sampled_from([1e-3, 1e-2, 0.1, 0.3]))
def test_skipped_pairings_are_apart(seed, gap, speed):
    # two bumpy 80-triangle particles at a random contact pose, then three
    # random rigid motions of both, each turning about the centre of mass
    # by up to ``speed`` per axis and moving it as far, then three fused
    # steps of 1 at random velocities of that size and a near-zero contact
    # stiffness, over which the cut is carried from step to step: every
    # pairing that a sweep skips has an exact surrogate-triangle distance
    # above its reach, and the sweeps skip exactly the pairings whose
    # margin outlasts the motion, none when the broad phase names other
    # pairs
    if not _CERTIFICATE_SYSTEM:
        spec = SceneSpec(kind="ParticleParticle", triangle_count=80, eta_r=2.6, seed=3)
        _CERTIFICATE_SYSTEM.append(system_from_scene(build_scene(spec)))
    system = copy.deepcopy(_CERTIFICATE_SYSTEM[0])
    forest = system.forest
    p0, p1 = system.particles
    rng = np.random.default_rng(seed)
    # particle 1's lowest vertex along x sits ``gap`` beyond particle 0's highest
    rot = RigidMotion.random_rotation(rng)
    verts0 = p0.motion.apply_points(p0.body_tris.reshape(-1, 3))
    verts1 = rot.apply_points(p1.body_tris.reshape(-1, 3))
    motions = [p0.motion, RigidMotion(rot.rotation, verts0[np.argmax(verts0[:, 0])]
                                      - verts1[np.argmin(verts1[:, 0])] + [gap, 0.0, 0.0])]
    detect = _detector(system, "ImplicitMultiscalePicard", StepStats())
    cfg = StepConfig(dt=1.0, mode="ImplicitMultiscalePicard",
                     force=ForceModelParams(k_s=1e-12))
    with pytest.MonkeyPatch.context() as patch:
        calls = recording_unfolds(patch)
        detect(motions)
        for _ in range(3):
            motions = [stepping.advance_motion(p, m, rng.uniform(-speed, speed, 3),
                                               rng.uniform(-speed, speed, 3), 1.0)
                       for p, m in zip(system.particles, motions)]
            detect(motions)
        for p, m in zip(system.particles, motions):
            p.motion = m
            p.v, p.omega = (rng.uniform(-speed, speed, 3).astype(REAL) for _ in range(2))
        steps = [step(system, cfg) for _ in range(3)]
    assert len(calls) > 6 and sum(s.picard_iterations for s in steps) == len(calls) - 4
    for k, (motions, pairs, _, _, cut, reused) in enumerate(calls):
        if k and pairs != calls[k - 1][1]:
            # the pair left or entered bounding-sphere reach: the cut
            # restarts from the roots and skips nothing
            assert cut.motions is None
        margin = cut.margin
        if cut.motions is not None:
            moved = forest.moved(cut.motions, motions)
            margin = margin - (moved[forest.owner[cut.gi]] + moved[forest.owner[cut.gj]])
        skip = margin > 0.0
        assert reused == skip.sum()
        a, b = cut.gi[skip], cut.gj[skip]
        world = forest.world(motions, [(0, 1)])
        reach = forest.eps[a].astype(np.float64) + forest.eps[b]
        exact = comparison_batch(world[a], world[b], 0.5 * reach)
        assert (exact.distance > reach).all()


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
        # adversarial: a pair breathing at the halo rim; the cut only
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
       dtype=st.sampled_from([d for d in (np.float64, np.float32)
                              if np.finfo(d).eps >= np.finfo(REAL).eps]),
       axis=st.sampled_from(["centroids", "random", "kernel"]))
# float32 rounding at the threshold, found with no rounding slack in the cull
@example(seed=1, size=0.001, slivers=(1e-4, 1e-2), shift=100.0, eps=(0.09375, 1e-5),
         rel_gap=0.0, dtype=np.float32, axis="centroids")
# a float32 false contact at distance 0 with a 1e-4 sliver, from the
# comparison kernel's edge-triangle crossing test
@example(seed=46125, size=1.0, slivers=(0.01, 1e-4), shift=0.0, eps=(0.0625, 0.0625),
         rel_gap=1.0, dtype=np.float32, axis="centroids")
def test_separating_axis_cull_is_sound(seed, size, slivers, shift, eps, rel_gap, dtype, axis):
    # place B along a random axis u so that its projection gap to A along
    # u is the halo reach times (1 + rel_gap); whenever the margin along
    # the drawn axis (the centroid line, a random unit vector, or the
    # hybrid kernel's own direction point_b - point_a) clears the pairing,
    # the exact kernel must find the two halos apart.  The program detects
    # in REAL, and a triangle finer than REAL would be rounded by the
    # reference, so no finer dtype is drawn
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
    if axis == "centroids":
        direction = None
    elif axis == "random":
        direction = rng.normal(size=(1, 3))
        direction /= np.linalg.norm(direction)
    else:
        res = hybrid_batch(tri_a, tri_b, None, 0.5 * reach)
        direction = res.point_b - res.point_a
    if direction is not None:
        direction = direction.astype(dtype)
    clear = stepping._margin(tri_a, tri_b, np.array([reach], dtype=dtype), direction) > 0.0
    if clear[0]:
        res = comparison_batch(tri_a, tri_b, 0.5 * float(dtype(reach)))
        assert res.kind[0] == np.int8(Kind.NO_CONTACT)
        assert res.distance[0] > float(dtype(reach))


class TestSeparatingAxisCull:
    def test_clears_apart_keeps_near_and_coincident(self, sphere80):
        a = sphere80[:4]
        reach = np.full(4, 2e-2)
        assert (stepping._margin(a, a + [0.0, 0.0, 1.0], reach) > 0.0).all()
        assert not (stepping._margin(a, a + [0.0, 0.0, 1e-2], reach) > 0.0).any()
        assert not (stepping._margin(a, a, reach) > 0.0).any()

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
        monkeypatch.setattr(stepping, "_margin",
                            lambda a, b, reach, axis=None: np.full(len(a), -np.inf))
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
        monkeypatch.setattr(stepping, "_KERNEL_SLICE", 1000)
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
        assert max(sizes) <= stepping._KERNEL_SLICE
        assert len(sizes) <= levels + sum(sizes) // stepping._KERNEL_SLICE

    def test_one_kernel_call_per_refine_round(self, monkeypatch):
        # one ImplicitSurrogateInPicard step on the 2x2x2 grid of 320-triangle
        # spheres, some of whose rounds keep more live pairings than one cull
        # slice holds: each round still takes one kernel call
        calls, rounds = [], []
        kernel, refine = stepping.hybrid_batch, stepping._refine

        def counting_kernel(A, *args, **kwargs):
            calls.append(A.shape[0])
            return kernel(A, *args, **kwargs)

        def counting_refine(*args):
            rounds.append(args[2].size)
            return refine(*args)

        monkeypatch.setattr(stepping, "hybrid_batch", counting_kernel)
        monkeypatch.setattr(stepping, "_refine", counting_refine)
        # the eight meshes are the same perfect sphere, so one tree serves all
        monkeypatch.setattr(stepping, "build_surrogate_tree",
                            lambda tris, n, seed, finest_epsilon:
                            cached_tree("sphere320", tris, n, 0, finest_epsilon))
        spec = SceneSpec(kind="CartesianGrid", triangle_count=320, grid_shape=(2, 2, 2), seed=3)
        system = system_from_scene(build_scene(spec))
        stats = step(system, StepConfig(dt=1e-4, mode="ImplicitSurrogateInPicard"))
        assert stats.contacts_merged > 0 and max(calls) > stepping._SLICE
        assert len(calls) == len(rounds)


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


def zero_area_face_scene():
    """The 80-triangle criterion-7 pair with two zero-area faces ``[k, k,
    j]`` and ``[k, j, j]`` added to each sphere at its vertex ``k`` nearest
    the other sphere's centre, ``j`` a neighbour of ``k``."""
    spec = SceneSpec(kind="ParticleParticle", triangle_count=80, initial_gap=2e-3,
                     approach_speed=0.5, seed=3)
    scene = build_scene(spec)
    for sp, other in zip(scene.particles, scene.particles[::-1]):
        world = sp.motion.apply_points(sp.vertices)
        k = int(np.argmin(np.linalg.norm(world - other.motion.translation, axis=1)))
        j = int(next(v for v in sp.faces[(sp.faces == k).any(axis=1)][0] if v != k))
        sp.faces = np.concatenate([sp.faces, [[k, k, j], [k, j, j]]])
    return scene


def test_zero_area_faces_step_in_every_mode(monkeypatch):
    # 40 steps of the zero-area-face pair in every mode: the comparison
    # fallback meets the zero-area faces and takes them as segments;
    # ExplicitSingle equals ExplicitMultiscale and the three implicit modes
    # agree, bitwise, in sweeps, contacts and states
    start = system_from_scene(zero_area_face_scene())
    assert all((triangle_areas(p.body_tris[-2:]) == 0.0).all() for p in start.particles)
    met = []
    comparison = kernels.comparison_batch

    def recording(tri_a, tri_b, eps):
        met.append(bool((triangle_areas(np.concatenate([tri_a, tri_b])) == 0.0).any()))
        return comparison(tri_a, tri_b, eps)

    monkeypatch.setattr(kernels, "comparison_batch", recording)
    runs = []
    for mode in EXPLICIT_MODES + IMPLICIT_MODES:
        system = copy.deepcopy(start)
        met.clear()
        stats = [step(system, StepConfig(dt=1e-4, mode=mode)) for _ in range(40)]
        assert any(met), mode
        runs.append(([(s.picard_iterations, s.contacts_merged) for s in stats], system))
    for (want, sys_a), (got, sys_b) in ((runs[0], runs[1]), (runs[2], runs[3]), (runs[2], runs[4])):
        assert got == want and sum(c for _, c in want) > 0
        assert_same_states(sys_a, sys_b)
