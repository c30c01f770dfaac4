"""Benchmark harness: run scenes, build and validate surrogate trees,
and compare counter reports.

Subcommands
-----------
run            execute a scene for N steps and write a JSON report
build-tree     pre-process a mesh into a serialized surrogate tree
validate-tree  check a serialized tree against its mesh
compare        ratio table between two run reports
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .geometry import load_obj, mesh_to_triangles, save_obj
from .report import (RunConfig, build_report, compare_reports, load_report,
                     save_report, step_record, write_trace_csv)
from .scenes import SCENE_KINDS, build_scene, noisy_sphere_by_count
from .stepping import MODES, PicardDiverged, step, system_from_scene
from .surrogate import (build_surrogate_tree, mesh_checksum, tree_from_json, tree_to_json,
                        validate_conservative)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_VALIDATION = 4
EXIT_WRONG_MESH = 5


def _load_config(args) -> RunConfig:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = RunConfig.from_dict(json.load(fh))
    else:
        config = RunConfig()
    # flag overrides
    if args.scene_kind:
        config.scene.kind = args.scene_kind
    if args.triangle_count is not None:
        config.scene.triangle_count = args.triangle_count
    if args.eta_r is not None:
        config.scene.eta_r = args.eta_r
    if args.mode:
        config.step.mode = args.mode
    if args.dt is not None:
        config.step.dt = args.dt
    if args.steps is not None:
        config.n_steps = args.steps
    if args.epsilon is not None:
        config.kernel.epsilon = args.epsilon
    if args.n_surrogate is not None:
        config.n_surrogate = args.n_surrogate
    config.scene.seed = args.seed
    # re-validate after overrides
    return RunConfig.from_dict(config.as_dict())


def _check_outputs(*paths) -> None:
    """Raise ``OSError`` before any work unless each output path's directory is writable."""
    for path in filter(None, paths):
        folder = os.path.dirname(os.path.abspath(path))
        if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
            raise FileNotFoundError(f"cannot write {path}: no writable directory {folder}")


def _input_error(what: str, exc: Exception) -> int:
    """Report unusable flags or input files in one stderr line."""
    print(f"error: {what}: {exc}", file=sys.stderr)
    return EXIT_CONFIG


def cmd_run(args) -> int:
    try:
        config = _load_config(args)
        _check_outputs(args.report, args.trace)
    except (ValueError, OSError) as exc:
        return _input_error("invalid configuration", exc)

    t_start = time.perf_counter()
    scene = build_scene(config.scene, epsilon=config.kernel.epsilon)
    system = system_from_scene(scene, n_surrogate=config.n_surrogate)

    steps = []
    for index in range(config.n_steps):
        t0 = time.perf_counter()
        try:
            stats = step(system, config.step)
        except PicardDiverged as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DIVERGED
        steps.append(step_record(stats, (time.perf_counter() - t0) * 1e3))

    report = build_report(config, steps, system, (time.perf_counter() - t_start) * 1e3)
    if args.report:
        save_report(report, args.report)
        print(f"report written to {args.report}")
    else:
        agg = report["aggregate"]
        print(json.dumps(agg, sort_keys=True, indent=2))
    if args.trace:
        write_trace_csv(steps, args.trace)
        print(f"trace written to {args.trace}")
    return EXIT_OK


def _mesh_from_args(args):
    if args.obj:
        verts, faces = load_obj(args.obj)
    else:
        verts, faces = noisy_sphere_by_count(
            args.triangle_count,
            args.eta_r if args.eta_r is not None else 1.0,
            args.seed,
        )
        verts = verts * 0.5
    return verts, faces


def cmd_build_tree(args) -> int:
    try:
        _check_outputs(args.out, args.export_obj)
        verts, faces = _mesh_from_args(args)
        tree = build_surrogate_tree(mesh_to_triangles(verts, faces), args.n_surrogate,
                                    seed=args.seed, finest_epsilon=args.epsilon)
    except (ValueError, OSError) as exc:
        return _input_error("cannot build the tree", exc)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(tree_to_json(tree))
    print(f"tree with {tree.n_nodes} nodes written to {args.out}")
    if args.export_obj:
        save_obj(args.export_obj, verts, faces)
        print(f"mesh written to {args.export_obj}")
    return EXIT_OK


def cmd_validate_tree(args) -> int:
    if args.samples < 1:
        return _input_error("invalid flags", ValueError("--samples must be >= 1"))
    try:
        with open(args.tree, "r", encoding="utf-8") as fh:
            tree = tree_from_json(fh.read())
    except (ValueError, OSError) as exc:
        return _input_error("invalid tree file", exc)
    try:
        tris = mesh_to_triangles(*_mesh_from_args(args))
    except (ValueError, OSError) as exc:
        return _input_error("invalid mesh", exc)
    if tree.mesh_checksum != mesh_checksum(tris):
        print("tree was built for a different mesh")
        return EXIT_WRONG_MESH
    result = validate_conservative(tree, tris, samples_per_triangle=args.samples)
    print(json.dumps(result, sort_keys=True))
    return EXIT_OK if result["ok"] else EXIT_VALIDATION


def cmd_compare(args) -> int:
    try:
        summary = compare_reports(load_report(args.report_a), load_report(args.report_b))
    except (ValueError, OSError) as exc:
        return _input_error("cannot compare the reports", exc)
    print(json.dumps(summary, sort_keys=True, indent=2))
    return EXIT_OK


def _add_mesh_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--obj", help="triangulated OBJ mesh to load instead of generating")
    p.add_argument("--triangle-count", type=int, default=320)
    p.add_argument("--eta-r", type=float, default=None, help="noise amplitude (>= 1)")
    p.add_argument("--seed", type=int, default=0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tricontact",
                                     description="rigid-body triangle contact benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scene and report counters")
    p_run.add_argument("--config", help="JSON run configuration")
    p_run.add_argument("--seed", type=int, required=True,
                       help="seed for scene generation (required for reproducibility)")
    p_run.add_argument("--scene-kind", choices=SCENE_KINDS)
    p_run.add_argument("--mode", choices=MODES)
    p_run.add_argument("--steps", type=int)
    p_run.add_argument("--dt", type=float)
    p_run.add_argument("--triangle-count", type=int)
    p_run.add_argument("--eta-r", type=float)
    p_run.add_argument("--epsilon", type=float)
    p_run.add_argument("--n-surrogate", type=int)
    p_run.add_argument("--report", help="write the JSON report here")
    p_run.add_argument("--trace", help="write a per-step CSV trace here")
    p_run.set_defaults(func=cmd_run)

    p_build = sub.add_parser("build-tree", help="pre-process a mesh into a surrogate tree")
    _add_mesh_args(p_build)
    p_build.add_argument("--epsilon", type=float, default=1e-2)
    p_build.add_argument("--n-surrogate", type=int, default=8)
    p_build.add_argument("--out", required=True, help="tree cache file (JSON)")
    p_build.add_argument("--export-obj", help="also write the mesh as OBJ")
    p_build.set_defaults(func=cmd_build_tree)

    p_val = sub.add_parser("validate-tree", help="validate a serialized tree")
    _add_mesh_args(p_val)
    p_val.add_argument("--tree", required=True)
    p_val.add_argument("--samples", type=int, default=10)
    p_val.set_defaults(func=cmd_validate_tree)

    p_cmp = sub.add_parser("compare", help="compare two run reports")
    p_cmp.add_argument("report_a")
    p_cmp.add_argument("report_b")
    p_cmp.set_defaults(func=cmd_compare)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
