"""Run configuration, machine-readable run reports, and report comparison."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from . import kernels, scenes, stepping, surrogate
from .contact import ForceModelParams
from .kernels import KernelParams
from .scenes import SceneSpec
from .stepping import StepConfig

REPORT_VERSION = 1

# informational fields ignored by comparisons and determinism checks
VOLATILE_KEYS = ("wall_time_ms",)

ANY = object()  # a retired key that never changed a run: every value loads

# Keys of retired options, by dotted path, with the one value each still
# accepts: the value the program has used since.  Configs and reports written
# while they existed load as long as they hold it; any other value would
# change the run.  A section whose keys are all retired, like ``fit``, is
# retired as a whole.
RETIRED = {
    "workers": ANY,
    "seed": ANY,  # the run's seed is ``scene.seed``
    "fit.beta_size": surrogate.BETA_SIZE,
    "fit.alpha_area": surrogate.ALPHA_AREA,
    "fit.alpha_inside": surrogate.ALPHA_INSIDE,
    "fit.beta_normal": surrogate.BETA_NORMAL,
    "fit.max_fit_iterations": surrogate.MAX_FIT_ITERATIONS,
    "fit.rel_tol": surrogate.REL_TOL,
    "fit.initial_step": surrogate.INITIAL_STEP,
    "fit.shrink": surrogate.SHRINK,
    "fit.grow": surrogate.GROW,
    "fit.post_scale": 1.0,
    "kernel.n_iterative": kernels.N_ITERATIVE,
    "kernel.c_factor": kernels.C_FACTOR,
    "kernel.move_factor": kernels.MOVE_FACTOR,
    "kernel.alpha_iterative": kernels.ALPHA_ITERATIVE,
    "kernel.alpha_regulariser": kernels.ALPHA_REGULARISER,
    "kernel.start_coord": kernels.START_COORD,
    "scene.plane_extent": scenes.PLANE_EXTENT,
    "scene.gravity": scenes.GRAVITY,
    "scene.noise_octaves": scenes.NOISE_OCTAVES,
    "step.convergence_rel_tol": stepping.CONVERGENCE_REL_TOL,
    "step.theta_init": 1.0,  # theta starts at 1
    "step.theta_min": stepping.THETA_MIN,
    "step.theta_grow": stepping.THETA_GROW,
    "step.theta_shrink": stepping.THETA_SHRINK,
    "step.surrogate_force_damping": None,
    "step.force.epsilon": ANY,
}


class SchemaMismatch(ValueError):
    pass


# what a field declared ``int``, ``float`` or ``bool`` takes; a bool is not a number
_TYPES = {"int": (int, "an integer"), "float": ((int, float), "a number"),
          "bool": (bool, "true or false")}


def _section(data, path: str, cls=None) -> dict:
    """The keys of ``cls`` in the config section at the dotted ``path``
    (``""`` at the top level).  Retired keys and sections are checked
    against ``RETIRED`` and dropped; a ``ValueError`` names the first other
    key, a retired key that holds another value, or a key whose value is
    not of its field's declared type (``_TYPES``)."""
    where = path.rstrip(".") or "top level"
    if not isinstance(data, dict):
        raise ValueError(f"section {where!r} must be an object")
    live = {f.name: f.type for f in fields(cls)} if cls else {}
    out = {}
    for key in sorted(data):
        name = path + key
        if key in live:
            if live[key] in _TYPES:
                want, what = _TYPES[live[key]]
                if isinstance(data[key], bool) != (want is bool) or not isinstance(data[key], want):
                    raise ValueError(f"{name} must be {what}, not {json.dumps(data[key])}")
            out[key] = data[key]
        elif name in RETIRED:
            if RETIRED[name] is not ANY and data[key] != RETIRED[name]:
                raise ValueError(f"{name} is retired; only {json.dumps(RETIRED[name])} is accepted")
        elif any(retired.startswith(name + ".") for retired in RETIRED):
            _section(data[key], name + ".")
        else:
            raise ValueError(f"unknown key {key!r} in section {where!r}")
    return out


@dataclass
class RunConfig:
    scene: SceneSpec = field(default_factory=SceneSpec)
    step: StepConfig = field(default_factory=StepConfig)
    kernel: KernelParams = field(default_factory=KernelParams)
    n_surrogate: int = 8
    n_steps: int = 10

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.n_surrogate < 2:
            raise ValueError("n_surrogate must be >= 2")

    def as_dict(self) -> dict:
        return {
            "scene": self.scene.as_dict(),
            "step": asdict(self.step),
            "kernel": asdict(self.kernel),
            "n_surrogate": self.n_surrogate,
            "n_steps": self.n_steps,
        }

    @staticmethod
    def from_dict(data: dict) -> "RunConfig":
        data = _section(data, "", RunConfig)
        scene = SceneSpec.from_dict(_section(data.pop("scene", {}), "scene.", SceneSpec))
        step_data = _section(data.pop("step", {}), "step.", StepConfig)
        force = _section(step_data.pop("force", None) or {}, "step.force.", ForceModelParams)
        step = StepConfig(**step_data)
        if force:
            step.force = ForceModelParams(**force)
        kernel = KernelParams(**_section(data.pop("kernel", {}), "kernel.", KernelParams))
        return RunConfig(scene=scene, step=step, kernel=kernel, **data)


def step_record(stats, wall_time_ms: float) -> dict:
    return {
        "contacts": stats.contacts_merged,
        "picard_iterations": stats.picard_iterations,
        "checks_by_level": {str(k): int(v) for k, v in sorted(stats.checks_by_level.items())},
        "sweep_histograms": [
            {str(k): int(v) for k, v in sorted(h.items())} for h in stats.sweep_histograms
        ],
        "kernel": asdict(stats.kernel),
        "broad_phase_pairs": stats.broad_phase_pairs,
        "culled": stats.culled,
        "reused": stats.reused,
        "wall_time_ms": wall_time_ms,
    }


def build_report(config: RunConfig, steps: list[dict], system, wall_time_ms: float) -> dict:
    agg_checks: dict[str, int] = {}
    kernel = {"iterative_invocations": 0, "comparison_invocations": 0, "fallback_invocations": 0}
    picard_total = 0
    contacts_total = 0
    for s in steps:
        for lvl, count in s["checks_by_level"].items():
            agg_checks[lvl] = agg_checks.get(lvl, 0) + count
        for key in kernel:
            kernel[key] += s["kernel"][key]
        picard_total += s["picard_iterations"]
        contacts_total += s["contacts"]
    iterative = kernel["iterative_invocations"]
    fallback_rate = kernel["fallback_invocations"] / iterative if iterative else 0.0
    particles = [
        {
            "translation": [float(x) for x in p.motion.translation],
            "rotation": [float(x) for x in p.motion.rotation],
            "velocity": [float(x) for x in p.v],
            "omega": [float(x) for x in p.omega],
        }
        for p in system.particles
    ]
    return {
        "version": REPORT_VERSION,
        "config": config.as_dict(),
        "steps": steps,
        "aggregate": {
            "total_checks": sum(agg_checks.values()),
            "checks_by_level": {k: agg_checks[k] for k in sorted(agg_checks)},
            **kernel,
            "fallback_rate": fallback_rate,
            "culled": sum(s["culled"] for s in steps),
            "reused": sum(s["reused"] for s in steps),
            "picard_iterations_total": picard_total,
            "picard_iterations_mean": picard_total / len(steps) if steps else 0.0,
            "contacts_total": contacts_total,
            "wall_time_ms": wall_time_ms,
        },
        "final_state": {"time": system.time, "particles": particles},
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def save_report(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report_to_json(report))


def load_report(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def strip_volatile(report) -> object:
    """Copy of a report with wall-time fields removed (for byte comparisons)."""
    if isinstance(report, dict):
        return {k: strip_volatile(v) for k, v in report.items() if k not in VOLATILE_KEYS}
    if isinstance(report, list):
        return [strip_volatile(v) for v in report]
    return report


def write_trace_csv(steps: list[dict], path) -> None:
    """Per (step, Picard sweep, level) check counts, spreadsheet-friendly."""
    lines = ["step,sweep,level,checks"]
    for si, s in enumerate(steps):
        for swi, hist in enumerate(s["sweep_histograms"]):
            for lvl in sorted(hist, key=int):
                lines.append(f"{si},{swi},{lvl},{hist[lvl]}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _ratio(a: float, b: float) -> float | None:
    if b == 0:
        return None if a == 0 else float("inf")
    return a / b


def compare_reports(a: dict, b: dict) -> dict:
    """Counter ratios (a / b) of two reports of the same scene kind."""
    for r in (a, b):
        if r.get("version") != REPORT_VERSION:
            raise SchemaMismatch(f"unsupported report version {r.get('version')!r}")
    kind_a = a["config"]["scene"]["kind"]
    kind_b = b["config"]["scene"]["kind"]
    if kind_a != kind_b:
        raise SchemaMismatch(f"scene kinds differ: {kind_a} vs {kind_b}")
    agg_a, agg_b = a["aggregate"], b["aggregate"]
    ratios = {}
    for key in ("total_checks", "iterative_invocations", "comparison_invocations",
                "fallback_invocations", "picard_iterations_total", "contacts_total"):
        ratios[key] = _ratio(agg_a[key], agg_b[key])
    state_a = a.get("final_state", {}).get("particles", [])
    state_b = b.get("final_state", {}).get("particles", [])
    max_dev = None
    if len(state_a) == len(state_b) and state_a:
        max_dev = 0.0
        for pa, pb in zip(state_a, state_b):
            for key in ("translation", "velocity", "omega", "rotation"):
                dev = float(np.max(np.abs(np.asarray(pa[key]) - np.asarray(pb[key]))))
                max_dev = max(max_dev, dev)
    return {
        "scene_kind": kind_a,
        "counter_ratios": ratios,
        "max_state_deviation": max_dev,
        "mode_a": a["config"]["step"]["mode"],
        "mode_b": b["config"]["step"]["mode"],
    }
