"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Each criterion runs at its stated tolerance; tolerances are pinned here,
not deferred.  Populations are seeded and drawn from the engine's
operational envelope (tessellated particles at scene-realistic poses).
"""

import json

import numpy as np

from oracles import sampling_distance_batch

from conftest import sphere_triangles
from tricontact.contact import merge_contacts
from tricontact.geometry import RigidMotion, mesh_to_triangles
from tricontact.kernels import (C_FACTOR, KernelParams, comparison_batch,
                                functional_value, gradient_of_J, hybrid_batch)
from tricontact.report import RunConfig, build_report, step_record, strip_volatile
from tricontact.scenes import SceneSpec, build_scene, generate_noisy_sphere
from tricontact.stepping import (StepConfig, StepStats, multiscale_contacts,
                                 single_level_contacts, step, system_from_scene)
from tricontact.surrogate import build_surrogate_tree, validate_conservative


def report_line(index, title, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {index}: {title} {detail}")
    assert ok, f"criterion {index} failed: {detail}"


def scene_drawn_pairs(seed, n_pairs):
    """Seeded triangle pairs from particle meshes at controlled surface gaps."""
    rng = np.random.default_rng(seed)
    meshes = [
        sphere_triangles(1),
        sphere_triangles(2),
        sphere_triangles(1, eta_r=1.4, seed=5),
        sphere_triangles(2, eta_r=2.6, seed=9),
    ]
    A = np.empty((n_pairs, 3, 3))
    B = np.empty((n_pairs, 3, 3))
    k = 0
    while k < n_pairs:
        ma = meshes[int(rng.integers(len(meshes)))]
        mb = meshes[int(rng.integers(len(meshes)))]
        gap = float(rng.uniform(0.002, 0.05))
        rot_a = RigidMotion.random_rotation(rng)
        rot_b = RigidMotion.random_rotation(rng)
        wa = rot_a.apply_points(ma.reshape(-1, 3)).reshape(-1, 3, 3)
        wb = rot_b.apply_points(mb.reshape(-1, 3)).reshape(-1, 3, 3)
        wb = wb + np.array([wa[:, :, 0].max() - wb[:, :, 0].min() + gap, 0.0, 0.0])
        ca = wa[:, :, 0].mean(axis=1)
        cb = wb[:, :, 0].mean(axis=1)
        near_a = np.argsort(-ca)[:16]
        near_b = np.argsort(cb)[:16]
        take = min(8, n_pairs - k)
        for _ in range(take):
            if rng.random() < 0.5:
                A[k] = wa[int(rng.choice(near_a))]
                B[k] = wb[int(rng.choice(near_b))]
            else:
                A[k] = wa[int(rng.integers(len(wa)))]
                B[k] = wb[int(rng.integers(len(wb)))]
            k += 1
    return A, B


def test_criterion_1_kernel_oracle_equivalence():
    params = KernelParams()
    A, B = scene_drawn_pairs(20260801, 10000)
    eps = np.full(len(A), params.epsilon)

    exact = comparison_batch(A, B, eps)
    oracle, bound = sampling_distance_batch(A, B)
    never_above = bool((exact.distance <= oracle + 1e-9).all())
    within_grid = bool((oracle - exact.distance <= bound + 1e-9).all())

    hybrid = hybrid_batch(A, B, None, eps)
    band = np.abs(exact.distance - 2.0 * params.epsilon) <= C_FACTOR * params.epsilon
    out_of_band_mismatch = int(((hybrid.kind != exact.kind) & ~band).sum())

    ok = never_above and within_grid and out_of_band_mismatch == 0
    report_line(
        1, "kernel oracle equivalence", ok,
        f"(oracle bounds: {never_above}/{within_grid}, out-of-band mismatches: {out_of_band_mismatch}/10000)",
    )


def test_criterion_2_gradient_check():
    rng = np.random.default_rng(20260802)
    h = 1e-6
    worst = 0.0
    checked = 0
    while checked < 1000:
        A = rng.normal(size=(3, 3))
        B = rng.normal(size=(3, 3)) + rng.normal(scale=1.0, size=3)
        x = rng.uniform(-0.4, 1.4, size=4)
        # keep a safety margin from every penalty kink
        kink_dist = min(
            min(abs(x[i]), abs(x[i] - 1.0)) for i in range(4)
        )
        kink_dist = min(kink_dist, abs(x[0] + x[1] - 1.0), abs(x[2] + x[3] - 1.0))
        if kink_dist < 10.0 * h:
            continue
        g = gradient_of_J(A, B, *x)
        fd = np.empty(4)
        for i in range(4):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd[i] = (functional_value(A, B, *xp) - functional_value(A, B, *xm)) / (2 * h)
        denom = max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, float(np.linalg.norm(g - fd)) / denom)
        checked += 1
    ok = worst < 1e-4
    report_line(2, "analytic gradient vs finite differences", ok, f"(worst rel err {worst:.2e})")


def test_criterion_3_lemma_equivalence():
    params = KernelParams()
    rng = np.random.default_rng(20260803)
    recipes = [
        (1, 1.0, 0), (1, 1.4, 1), (1, 2.6, 2), (1, 1.2, 3), (1, 1.8, 4),
        (2, 1.0, 5), (2, 1.4, 6), (2, 2.6, 7), (2, 1.2, 8), (2, 1.8, 9),
    ]
    systems = []
    for level, eta, seed in recipes:
        spec = SceneSpec(kind="ParticleParticle", triangle_count=20 * 4**level,
                         eta_r=eta, seed=seed)
        systems.append(system_from_scene(build_scene(spec), params))

    scenes = 0
    worst_pos = 0.0
    count_mismatch = 0
    for system in systems:
        for _ in range(5):
            gap = float(rng.uniform(-0.005, 0.02))
            system.particles[1].motion = RigidMotion.random_rotation(
                rng, translation=(1.0 + gap, rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05)))
            motions = [p.motion for p in system.particles]
            single = merge_contacts(
                single_level_contacts(system.forest, motions, [(0, 1)], StepStats()),
                params.epsilon)
            multi = merge_contacts(
                multiscale_contacts(system.forest, motions, [(0, 1)], StepStats()),
                params.epsilon)
            scenes += 1
            if len(single) != len(multi):
                count_mismatch += 1
                continue
            for a, b in zip(single, multi):
                worst_pos = max(worst_pos, float(np.abs(a.position - b.position).max()))
                worst_pos = max(worst_pos, float(np.abs(a.normal - b.normal).max()))
    ok = count_mismatch == 0 and worst_pos < 1e-5
    report_line(
        3, "multiscale explicit detection equals single level", ok,
        f"({scenes} scenes, count mismatches {count_mismatch}, worst deviation {worst_pos:.2e})",
    )


def test_criterion_4_conservativeness():
    params = KernelParams()
    failures = []
    halved_ok = True
    for eta in (1.0, 1.4, 2.6):
        for level, count in ((1, 80), (2, 320), (3, 1280)):
            verts, faces = generate_noisy_sphere(level, eta, seed=level * 7 + int(eta * 10))
            tris = mesh_to_triangles(verts * 0.5, faces)
            tree = build_surrogate_tree(tris, 8, seed=1, finest_epsilon=params.epsilon)
            result = validate_conservative(tree, tris)
            if not (result["ok"] and result["worst_slack"] >= -1e-6):
                failures.append((eta, count, result["worst_slack"]))
            tree.eps[0] *= 0.5
            halved = validate_conservative(tree, tris)
            if halved["ok"]:
                halved_ok = False
    ok = not failures and halved_ok
    report_line(
        4, "surrogate trees conservative; halved root halo fails", ok,
        f"(violations: {failures}, halved-root detected: {halved_ok})",
    )


def test_criterion_5_check_count_reduction():
    params = KernelParams()
    checks = {}
    contacts = {}
    for mode in ("ExplicitSingle", "ExplicitMultiscale"):
        spec = SceneSpec(kind="ParticleParticle", triangle_count=1224,
                         initial_gap=0.5e-2, approach_speed=0.5, seed=7)
        system = system_from_scene(build_scene(spec), params)
        cfg = StepConfig(dt=1e-4, mode=mode)
        total = hits = 0
        for _ in range(3):
            stats = step(system, cfg, params)
            total += stats.total_checks
            hits += stats.contacts_merged
        checks[mode] = total
        contacts[mode] = hits
    factor = checks["ExplicitSingle"] / checks["ExplicitMultiscale"]
    ok = factor >= 20.0 and contacts["ExplicitSingle"] == contacts["ExplicitMultiscale"] > 0
    report_line(
        5, "multiscale explicit check-count reduction", ok,
        f"(reduction {factor:.0f}x, single {checks['ExplicitSingle']}, hierarchy {checks['ExplicitMultiscale']})",
    )


def test_criterion_6_fallback_rate_trend():
    params = KernelParams()
    rates = []
    for count in (12, 36, 140, 1224):
        spec = SceneSpec(kind="ParticleParticle", triangle_count=count,
                         eta_r=1.0, initial_gap=1e-2, approach_speed=0.5, seed=1)
        system = system_from_scene(build_scene(spec), params)
        cfg = StepConfig(dt=2e-4, mode="ExplicitSingle")
        iterative = fallback = 0
        for _ in range(3):
            stats = step(system, cfg, params)
            iterative += stats.kernel.iterative_invocations
            fallback += stats.kernel.fallback_invocations
        rates.append(fallback / iterative)
    strictly_decreasing = all(a > b for a, b in zip(rates, rates[1:]))
    ok = strictly_decreasing and rates[-1] < 0.01
    pretty = ", ".join(f"{r:.3%}" for r in rates)
    report_line(6, "hybrid fallback rate trend over refinement", ok, f"(rates {pretty})")


def test_criterion_7_picard_boundedness():
    params = KernelParams()
    results = {}
    for mode, cap in (("ImplicitSingle", 15), ("ImplicitMultiscalePicard", 30)):
        spec = SceneSpec(kind="ParticleParticle", triangle_count=320,
                         initial_gap=2e-3, approach_speed=0.5, seed=3)
        system = system_from_scene(build_scene(spec), params)
        cfg = StepConfig(dt=1e-4, mode=mode)
        iters = []
        for _ in range(100):
            stats = step(system, cfg, params)
            iters.append(stats.picard_iterations)
        results[mode] = (float(np.mean(iters)), cap)
    ok = all(mean <= cap for mean, cap in results.values())
    detail = ", ".join(f"{m}: mean {v[0]:.1f} (cap {v[1]})" for m, v in results.items())
    report_line(7, "Picard iteration counts bounded over 100 steps", ok, f"({detail})")


def test_criterion_8_cross_mode_consistency():
    params = KernelParams()

    def run(mode):
        spec = SceneSpec(kind="ParticleParticle", triangle_count=320,
                         initial_gap=2e-3, approach_speed=0.5, seed=3)
        system = system_from_scene(build_scene(spec), params)
        cfg = StepConfig(dt=1e-4, mode=mode)
        iters = []
        states = []
        for _ in range(20):
            stats = step(system, cfg, params)
            iters.append(stats.picard_iterations)
            states.append(np.concatenate(
                [np.concatenate([p.motion.translation, p.v, p.omega]) for p in system.particles]))
        return iters, states

    iters_a, states_a = run("ImplicitSingle")
    iters_b, states_b = run("ImplicitSurrogateInPicard")
    same_iters = iters_a == iters_b
    worst = max(float(np.abs(a - b).max()) for a, b in zip(states_a, states_b))
    ok = same_iters and worst < 1e-5
    report_line(
        8, "surrogate-accelerated implicit equals flat implicit", ok,
        f"(iteration counts equal: {same_iters}, worst per-step state deviation {worst:.2e})",
    )


def test_criterion_9_momentum_conservation():
    params = KernelParams()
    spec = SceneSpec(kind="ParticleParticle", triangle_count=80,
                     initial_gap=2e-3, approach_speed=0.0, seed=3)
    scene = build_scene(spec)
    scene.particles[0].velocity = np.array([0.8, 0.0, 0.0])  # asymmetric hit
    system = system_from_scene(scene, params)
    cfg = StepConfig(dt=1e-4, mode="ExplicitSingle")
    p_prev = sum(p.mass.mass * p.v for p in system.particles)
    scale = sum(p.mass.mass * np.linalg.norm(p.v) for p in system.particles)
    worst = 0.0
    contact_steps = 0
    for _ in range(120):
        stats = step(system, cfg, params)
        p_now = sum(p.mass.mass * p.v for p in system.particles)
        worst = max(worst, float(np.linalg.norm(p_now - p_prev)) / scale)
        p_prev = p_now
        contact_steps += stats.contacts_merged > 0
    ok = worst < 1e-6 and contact_steps >= 10
    report_line(
        9, "momentum conservation through the contact episode", ok,
        f"(worst per-step drift {worst:.2e}, {contact_steps} in-contact steps)",
    )


def test_criterion_10_scale_plateau():
    params = KernelParams()
    per_step = {}
    for scale in (2.0, 8.0):
        spec = SceneSpec(kind="ScaledPair", triangle_count=80,
                         scale_factors=(1.0, scale), refine_scaled=True,
                         initial_gap=5e-3, approach_speed=0.2, seed=3)
        system = system_from_scene(build_scene(spec), params)
        cfg = StepConfig(dt=1e-4, mode="ImplicitMultiscalePicard")
        totals = []
        for _ in range(5):
            stats = step(system, cfg, params)
            totals.append(stats.total_checks)
        per_step[scale] = float(np.mean(totals))
    ratio = per_step[8.0] / per_step[2.0]
    ok = ratio <= 2.0
    report_line(
        10, "comparison counts plateau under refined upscaling", ok,
        f"(scale 2: {per_step[2.0]:.0f}/step, scale 8: {per_step[8.0]:.0f}/step, ratio {ratio:.2f})",
    )


def test_criterion_11_determinism():
    params_cfg = RunConfig()
    params_cfg.scene = SceneSpec(kind="ParticleParticle", triangle_count=80,
                                 initial_gap=2e-3, approach_speed=0.5, seed=13)
    params_cfg.n_steps = 5
    blobs = []
    for _ in range(2):
        config = RunConfig.from_dict(params_cfg.as_dict())
        config.step.mode = "ImplicitMultiscalePicard"
        scene = build_scene(config.scene, epsilon=config.kernel.epsilon)
        system = system_from_scene(scene, config.kernel, config.n_surrogate)
        steps = []
        for _ in range(config.n_steps):
            stats = step(system, config.step, config.kernel)
            steps.append(step_record(stats, 0.0))
        report = strip_volatile(build_report(config, steps, system, 0.0))
        blobs.append(json.dumps(report, sort_keys=True))
    ok = blobs[0] == blobs[1]
    report_line(11, "byte-identical reports for repeated seeded runs", ok,
                f"(bytes {len(blobs[0])})")
