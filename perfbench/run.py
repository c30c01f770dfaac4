"""Benchmark of tricontact: one workload per process, one JSON line out.

    python3 perfbench/run.py --workload pair-fused --seed 1 --seconds 15 --trace 0

Each run makes the calls of ``tricontact run``: ``build_scene``, then
``system_from_scene``, then ``step`` over and over.  Set-up is repeated
``setup_reps`` times and its median reported.  The timed phase replays
whole rounds: each round resets the system to its initial state and makes
``round_steps`` steps, all inside the scene's contact window, so every
round does the same work whatever the machine's speed.  Rounds run until
``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics from timers installed around the program's public
functions (see tracing.py) and the overhead of those timers, measured by
alternating untraced and traced rounds.  Both modes check the program's
outputs (see checks.py); the last stdout line is the result object.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import types
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from tracing import ContactObserver, Tracer, setup_targets, step_targets

ROOT = Path(__file__).resolve().parent.parent
PAIR_SCENE = dict(kind="ParticleParticle", triangle_count=320, initial_gap=2e-3,
                  approach_speed=0.5, seed=3)
GRID_SCENE = dict(kind="CartesianGrid", triangle_count=320, grid_shape=(2, 2, 2), seed=3)
DT = 1e-4
LEVELS = range(6)  # height bins of the 320-triangle trees with 8 children


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    scene: dict
    round_steps: int
    setup_reps: int
    flat_checks: bool = False


WORKLOADS = {
    w.name: w for w in (
        Workload("pair-fused", "ImplicitMultiscalePicard", PAIR_SCENE, 10, setup_reps=5),
        Workload("grid-sip", "ImplicitSurrogateInPicard", GRID_SCENE, 6, setup_reps=2),
        Workload("pair-flat", "ExplicitSingle", PAIR_SCENE, 16, setup_reps=5, flat_checks=True),
    )
}


def import_program():
    """Import tricontact from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "tricontact" / "__init__.py").is_file():
        raise SystemExit(f"error: no tricontact package under {src}")
    sys.path.insert(0, str(src))
    import tricontact
    from tricontact import geometry, kernels, scenes, stepping
    if Path(tricontact.__file__).resolve().parent != (src / "tricontact").resolve():
        raise SystemExit(f"error: imported tricontact from {tricontact.__file__}")
    return types.SimpleNamespace(geometry=geometry, kernels=kernels, scenes=scenes,
                                 stepping=stepping)


def place(tc, scene, seed: int) -> None:
    """Move the whole scene by a rigid motion drawn from ``seed``.

    The program sees new world coordinates for every triangle and rotated
    velocities, while the relative geometry, and so the detection work,
    stays that of the pinned scene.
    """
    rng = np.random.default_rng(seed % 2**64)
    q = rng.normal(size=4)
    g = tc.geometry.RigidMotion(q / np.linalg.norm(q), rng.uniform(-1.0, 1.0, 3))
    rot = g.rotation_matrix()
    for sp in scene.particles:
        sp.motion = g.compose(sp.motion)
        sp.velocity = rot @ sp.velocity
        sp.omega = rot @ sp.omega


def set_up(tc, wl: Workload, seed: int, params):
    """Build scene and system; returns (scene, system, build seconds)."""
    spec = tc.scenes.SceneSpec(**wl.scene)
    gc.collect()
    t0 = time.perf_counter()
    scene = tc.scenes.build_scene(spec, epsilon=params.epsilon)
    t1 = time.perf_counter()
    place(tc, scene, seed)
    t2 = time.perf_counter()
    system = tc.stepping.system_from_scene(scene, params)
    t3 = time.perf_counter()
    return scene, system, (t1 - t0) + (t3 - t2)


class Stepper:
    """Runs timed rounds of steps on one system and checks every step."""

    def __init__(self, tc, wl: Workload, scene, system, params):
        self.tc, self.wl, self.system, self.params = tc, wl, system, params
        self.cfg = tc.stepping.StepConfig(dt=DT, mode=wl.mode)
        self.initial = [(p.motion.rotation.copy(), p.motion.translation.copy(),
                         p.v.copy(), p.omega.copy()) for p in system.particles]
        self.scene = scene
        self.masses = [checks.mesh_mass(sp.vertices, sp.faces, sp.density)
                       for sp in scene.particles]
        self.p0 = sum(m * sp.velocity for m, sp in zip(self.masses, scene.particles))
        self.faces = [len(sp.faces) for sp in scene.particles]
        self.step_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.sweeps = 0
        self.contacts = 0
        self.by_level: dict[int, int] = {}
        self.rounds: set[tuple] = set()  # (checks, sweeps) of each whole round
        self.failures: list[str] = []    # output checks that did not hold
        self.errors: list[str] = []      # steps that raised
        self.observer = ContactObserver(tc.stepping)

    def reset(self) -> None:
        RigidMotion = self.tc.geometry.RigidMotion
        for p, (q, t, v, w) in zip(self.system.particles, self.initial):
            p.motion = RigidMotion(q.copy(), t.copy())
            p.v, p.omega = v.copy(), w.copy()
        self.system.time = 0.0
        self.system.step_index = 0

    def warm_up(self) -> None:
        self.reset()
        self.tc.stepping.step(self.system, self.cfg, self.params)

    def round(self) -> float:
        """One round from the initial state; returns its stepping seconds."""
        self.reset()
        gc.collect()
        spent = 0.0
        work = (self.checks, self.sweeps)
        for k in range(self.wl.round_steps):
            t0 = time.perf_counter()
            try:
                stats = self.tc.stepping.step(self.system, self.cfg, self.params)
            except Exception as exc:  # a raising step is a failed operation
                remaining = self.wl.round_steps - k
                self.attempted += remaining
                self.failed += remaining
                self.errors.append(f"step {k} raised {type(exc).__name__}: {exc}")
                return spent + time.perf_counter() - t0
            dt = time.perf_counter() - t0
            spent += dt
            self.attempted += 1
            self.step_times.append(dt)
            self.record(stats)
        self.rounds.add((self.checks - work[0], self.sweeps - work[1]))
        return spent

    def record(self, stats) -> None:
        self.checks += stats.total_checks
        self.sweeps += max(stats.picard_iterations, 1)
        self.contacts += stats.contacts_merged
        for h, n in stats.checks_by_level.items():
            self.by_level[h] = self.by_level.get(h, 0) + n
        particles = self.system.particles
        errs = checks.check_momentum(self.masses, [p.v for p in particles], self.p0)
        errs += checks.check_step_contacts(stats.contacts_merged,
                                           len(self.observer.mesh_contacts()))
        if self.wl.flat_checks:
            errs += checks.check_flat_checks(stats.checks_by_level, self.faces)
        self.failures.extend(f"step {self.system.step_index}: {e}" for e in errs)

    def final_check(self) -> None:
        """Reference-distance check of the last step's final detection, and
        the replay premise: every whole round did the same work."""
        if len(self.rounds) > 1:
            self.failures.append(f"rounds did different work (checks, sweeps): {self.rounds}")
        observer = self.observer
        if observer.motions is None:
            self.failures.append("no detection was observed")
            return
        world = [checks.world_triangles(sp.vertices, sp.faces, m.rotation, m.translation)
                 for sp, m in zip(self.scene.particles, observer.motions)]
        eps = [sp.epsilon for sp in self.scene.particles]
        contacts = observer.mesh_contacts()
        errs, dist = checks.check_halo(world, eps, contacts)
        self.failures.extend(errs)
        halo = [eps[i] + eps[j] for i, j in dist]
        near = sum(d <= (1 - checks.HALO_MARGIN) * h for d, h in zip(dist.values(), halo))
        clear = sum(d >= (1 + checks.HALO_MARGIN) * h for d, h in zip(dist.values(), halo))
        print(f"halo check: {near} particle pairs in contact, {clear} clear, "
              f"{len(dist) - near - clear} in the margin band; "
              f"{len(contacts)} mesh-level contacts checked against their source triangles")

    @property
    def steps(self) -> int:
        return len(self.step_times)


def timed_rounds(stepper: Stepper, seconds: float, trace: Tracer | None = None):
    """Rounds until ``seconds`` have passed; with ``trace``, an untraced and a
    traced round alternate.  Returns [(seconds, steps) untraced, traced]."""
    spent = [[0.0, 0], [0.0, 0]]

    def one_round(side):
        before = stepper.steps
        spent[side][0] += stepper.round()
        spent[side][1] += stepper.steps - before

    start = time.perf_counter()
    with stepper.observer:
        while True:
            one_round(0)
            if trace is not None:
                with trace:
                    one_round(1)
            if time.perf_counter() - start >= seconds:
                break
    return spent


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(tc, wl: Workload, seed: int, seconds: float) -> tuple[dict, Stepper]:
    params = tc.kernels.KernelParams()
    builds = []
    for _ in range(wl.setup_reps):
        scene, system, spent = set_up(tc, wl, seed, params)
        builds.append(spent)
    stepper = Stepper(tc, wl, scene, system, params)
    stepper.warm_up()
    (stepping_s, _), _ = timed_rounds(stepper, seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stepper.final_check()
    n = max(stepper.steps, 1)
    return {
        "setup_s": metric(statistics.median(builds), "s"),
        "steps_per_s": metric(stepper.steps / stepping_s if stepping_s else 0.0, "1/s"),
        "step_ms_p50": metric(1e3 * statistics.median(stepper.step_times or [0.0]), "ms"),
        "peak_rss_mb": metric(peak_mb, "MB"),
        "checks_per_step": metric(stepper.checks / n, "count"),
        "sweeps_per_step": metric(stepper.sweeps / n, "count"),
    }, stepper


def per_layer(tc, wl: Workload, seed: int, seconds: float) -> tuple[dict, Stepper]:
    params = tc.kernels.KernelParams()
    with Tracer(setup_targets(tc)) as setup_trace:
        scene, system, _ = set_up(tc, wl, seed, params)
    stepper = Stepper(tc, wl, scene, system, params)
    stepper.warm_up()
    trace = Tracer(step_targets(tc))
    (untraced_s, untraced_n), (traced_s, traced_n) = timed_rounds(stepper, seconds, trace)
    stepper.final_check()
    n = max(traced_n, 1)
    L = {**setup_trace.layers, **trace.layers}
    out = {}

    def put(name, layer, fn, unit):
        if all(key in L for key in layer):
            out[name] = metric(fn(*(L[key] for key in layer)), unit)

    def rate(amount, seconds_):
        return amount / seconds_ if seconds_ else 0.0

    put("scenes.build_s", ["scenes.build"], lambda b: b.time, "s")
    put("surrogate.build_s", ["surrogate.build"], lambda b: b.time, "s")
    put("surrogate.nodes", ["surrogate.build"], lambda b: b.amount, "count")
    put("stepping.broad_phase_s", ["stepping.broad_phase"], lambda b: b.time / n, "s/step")
    put("stepping.broad_phase_pairs", ["stepping.broad_phase"], lambda b: b.amount / n, "count/step")
    put("stepping.detect_s", ["stepping.detect"], lambda d: d.time / n, "s/step")
    put("stepping.self_s", ["stepping.step"], lambda s: s.self_time / n, "s/step")
    steps = max(stepper.steps, 1)
    for h in sorted(set(LEVELS) | set(stepper.by_level)):
        out[f"stepping.checks_level_{h}"] = metric(stepper.by_level.get(h, 0) / steps, "count/step")
    out["stepping.checks_per_contact"] = metric(stepper.checks / max(stepper.contacts, 1), "count")
    put("kernels.hybrid_s", ["kernels.hybrid"], lambda k: k.time / n, "s/step")
    put("kernels.calls", ["kernels.hybrid"], lambda k: k.calls / n, "count/step")
    put("kernels.pairs_per_call", ["kernels.hybrid"], lambda k: k.amount / max(k.calls, 1), "count")
    put("kernels.iterative_s", ["kernels.iterative"], lambda k: k.time / n, "s/step")
    put("kernels.iterative_pairs_per_s", ["kernels.iterative"], lambda k: rate(k.amount, k.time), "1/s")
    put("kernels.comparison_s", ["kernels.comparison"], lambda k: k.time / n, "s/step")
    put("kernels.fallback_pairs", ["kernels.comparison"], lambda k: k.amount / n, "count/step")
    put("kernels.comparison_pairs_per_s", ["kernels.comparison"],
        lambda k: rate(k.amount, k.time), "1/s")
    put("kernels.fallback_rate", ["kernels.comparison", "kernels.iterative"],
        lambda c, i: c.amount / max(i.amount, 1), "ratio")
    put("contact.merge_s", ["contact.merge"], lambda m: m.time / n, "s/step")
    put("contact.merge_in", ["contact.merge"], lambda m: m.amount / n, "count/step")
    put("contact.force_s", ["contact.force"], lambda f: f.time / n, "s/step")
    put("geometry.transform_s", ["geometry.transform"], lambda g: g.time / n, "s/step")
    put("geometry.points_transformed", ["geometry.transform"], lambda g: g.amount / n, "count/step")
    plain, traced = untraced_n / untraced_s, traced_n / traced_s
    out["trace.steps_per_s_untraced"] = metric(plain, "1/s")
    out["trace.steps_per_s_traced"] = metric(traced, "1/s")
    out["trace.overhead_pct"] = metric(100.0 * (plain / traced - 1.0) if traced else 0.0, "%")
    for name in sorted(setup_trace.absent | trace.absent):
        print(f"absent layer: {name} (its wrapped functions no longer exist)")
    return out, stepper


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="rigid placement of the scene")
    parser.add_argument("--seconds", type=float, default=15.0, help="timed stepping per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    tc = import_program()
    wl = WORKLOADS[args.workload]
    run = per_layer if args.trace else end_to_end
    metrics, stepper = run(tc, wl, args.seed, args.seconds)
    for line in stepper.errors[:20]:
        print(f"failed: {line}")
    for line in stepper.failures[:20]:
        print(f"check failed: {line}")
    result = {
        "correct": not stepper.failures,
        "attempted": stepper.attempted,
        "failed": stepper.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
