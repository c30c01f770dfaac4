import json
from pathlib import Path

import pytest

from tricontact.cli import main
from tricontact.report import (RETIRED, RunConfig, SchemaMismatch, compare_reports,
                               load_report, strip_volatile)
from tricontact.surrogate import TREE_FORMAT_VERSION

# the config echo of a report written before the fit, relaxation and three
# scene settings became constants, so it holds their retired keys
PARENT_CONFIG = Path(__file__).parent / "data" / "config_pr12.json"


def run_cli(*args):
    return main(list(args))


class TestRun:
    def test_force_free_single_step(self, tmp_path):
        # separated pair: the report stays all-quiet and the motion is
        # pure ballistic drift
        config = RunConfig()
        config.scene.kind = "ParticleParticle"
        config.scene.triangle_count = 20
        config.scene.initial_gap = 0.2
        config.scene.approach_speed = 0.25
        config.step.dt = 1e-3
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config.as_dict()))
        report_path = tmp_path / "r.json"
        code = run_cli(
            "run", "--config", str(cfg_path), "--seed", "4", "--steps", "1",
            "--mode", "ExplicitSingle", "--report", str(report_path),
        )
        assert code == 0
        report = load_report(report_path)
        assert report["aggregate"]["contacts_total"] == 0
        assert report["aggregate"]["fallback_invocations"] == 0
        state = report["final_state"]["particles"]
        x0 = state[0]["translation"][0]
        assert x0 == pytest.approx(-(0.5 + 0.1) + 0.25 * 1e-3)
        assert state[0]["velocity"] == [0.25, 0.0, 0.0]

    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("run", "--steps", "1")

    def test_determinism_byte_identical(self, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            path = tmp_path / f"{tag}.json"
            code = run_cli(
                "run", "--seed", "11", "--triangle-count", "80", "--steps", "3",
                "--mode", "ExplicitMultiscale", "--report", str(path),
            )
            assert code == 0
            report = strip_volatile(load_report(path))
            blobs.append(json.dumps(report, sort_keys=True))
        assert blobs[0] == blobs[1]

    def test_trace_csv(self, tmp_path):
        report_path = tmp_path / "r.json"
        trace_path = tmp_path / "t.csv"
        run_cli(
            "run", "--seed", "3", "--triangle-count", "80", "--steps", "2",
            "--mode", "ImplicitSurrogateInPicard",
            "--report", str(report_path), "--trace", str(trace_path),
        )
        lines = trace_path.read_text().strip().splitlines()
        assert lines[0] == "step,sweep,level,checks"
        assert len(lines) > 1

    def test_config_file_with_overrides(self, tmp_path):
        config = RunConfig()
        config.scene.triangle_count = 20
        config.n_steps = 2
        data = config.as_dict()
        data["workers"] = 4  # files written before the option was removed still load
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        report_path = tmp_path / "r.json"
        code = run_cli(
            "run", "--config", str(cfg_path), "--seed", "5",
            "--steps", "1", "--report", str(report_path),
        )
        assert code == 0
        report = load_report(report_path)
        assert report["config"]["n_steps"] == 1
        assert report["config"]["scene"]["seed"] == 5
        assert report["config"]["scene"]["triangle_count"] == 20

    @pytest.mark.parametrize("section, key, value, expected", [
        pytest.param("fit", "post_scale", 1.0, 0, id="1.0-0"),
        pytest.param("fit", "post_scale", 0.8, 2, id="0.8-2"),
        pytest.param("force", "epsilon", 0.01, 0, id="force-epsilon-0.01-0"),
        pytest.param("force", "epsilon", 0.5, 0, id="force-epsilon-0.5-0"),
        pytest.param("step", "surrogate_force_damping", None, 0, id="damping-null-0"),
        pytest.param("step", "surrogate_force_damping", [1.0, 0.5], 2, id="damping-list-2"),
        ("fit", "beta_size", 4, 2),
        ("fit", "alpha_area", 1e-2, 2),
        ("fit", "alpha_inside", 0.5, 2),
        ("fit", "beta_normal", 4, 2),
        ("fit", "max_fit_iterations", 40, 2),
        ("fit", "rel_tol", 1e-6, 2),
        ("fit", "initial_step", 0.1, 2),
        ("fit", "shrink", 0.25, 2),
        ("fit", "grow", 2.0, 2),
        ("step", "convergence_rel_tol", 1e-3, 2),
        ("step", "theta_init", 0.5, 2),
        ("step", "theta_min", 0.1, 2),
        ("step", "theta_grow", 1.5, 2),
        ("step", "theta_shrink", 0.25, 2),
        ("scene", "plane_extent", 8.0, 2),
        ("scene", "gravity", 1.62, 2),
        ("scene", "noise_octaves", 1, 2),
        ("kernel", "n_iterative", 1, 2),
        ("kernel", "c_factor", 2.0, 2),
        ("kernel", "move_factor", 0.5, 2),
        ("kernel", "alpha_iterative", 1.0, 2),
        ("kernel", "alpha_regulariser", 1e-3, 2),
        ("kernel", "start_coord", 0.25, 2),
    ])
    def test_fit_post_scale_in_config(self, tmp_path, capsys, section, key, value, expected):
        # configs and reports written while these retired options existed
        # still load when they hold the value the program has used since,
        # or any value of step.force.epsilon, which never changed a run;
        # any other value would change the run, so it is a config error
        config = RunConfig()
        config.scene.triangle_count = 20
        data = config.as_dict()
        owner = data["step"]["force"] if section == "force" else data.setdefault(section, {})
        owner[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        code = run_cli("run", "--config", str(cfg_path), "--seed", "5", "--steps", "1",
                       "--report", str(tmp_path / "r.json"))
        assert code == expected
        if expected:
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and key in err[0]

    @pytest.mark.parametrize("section, key, value", [
        ("kernel", "bogus", 1),
        ("fit", "bogus", 1),
        ("step", "bogus", 1),
        ("step.force", "bogus", 1),
        ("scene", "bogus", 1),
        ("kernel", "move_factor", -1.0),
        ("step", "force", 3),
        # a misspelt n_steps must not run the default 10 steps
        pytest.param("top level", "n_step", 3, id="top-level-n_step-3"),
        # values that used to end in a traceback, or in exit 3 as if the
        # Picard loop had diverged
        pytest.param("scene", "grid_shape", [0, 1, 1], id="scene-grid_shape-0-1-1"),
        pytest.param("scene", "grid_shape", [2, 2], id="scene-grid_shape-2-2"),
        pytest.param("scene", "grid_shape", [2.0, 1, 1], id="scene-grid_shape-2.0-1-1"),
        pytest.param("scene", "scale_factors", [0.0, 1.0], id="scene-scale_factors-0-1"),
        pytest.param("scene", "scale_factors", [-1.0, 1.0], id="scene-scale_factors--1-1"),
        pytest.param("scene", "scale_factors", [1.0], id="scene-scale_factors-1"),
        pytest.param("scene", "scale_factors", [1.0, float("nan")], id="scene-scale_factors-1-nan"),
        pytest.param("step", "max_picard_iterations", 0, id="step-max_picard_iterations-0"),
    ])
    def test_bad_section_key_is_config_error(self, tmp_path, capsys, section, key, value):
        config = RunConfig()
        config.scene.triangle_count = 20
        data = config.as_dict()
        data["fit"] = {}  # the retired fit section still loads, empty or not
        owners = {"step.force": data["step"]["force"], "top level": data}
        owners.get(section, data.get(section))[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        code = run_cli("run", "--config", str(cfg_path), "--seed", "5", "--steps", "1",
                       "--report", str(tmp_path / "r.json"))
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and key in err[0]
        if key == "bogus":
            assert repr(section) in err[0]

    def test_parent_config_loads(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli("run", "--config", str(PARENT_CONFIG), "--seed", "7",
                       "--report", str(out))
        assert code == 0
        # the echo drops the retired keys and keeps every other value
        old = json.loads(PARENT_CONFIG.read_text())
        del old["fit"]
        for name in RETIRED:
            section, _, key = name.rpartition(".")
            if section in ("", "scene", "step", "kernel"):
                (old[section] if section else old).pop(key, None)
        assert load_report(out)["config"] == old

    def test_invalid_config_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"scene": {"kind": "Nope"}}))
        code = run_cli("run", "--config", str(cfg_path), "--seed", "1")
        assert code == 2

    @pytest.mark.parametrize("n_surrogate", ["1", "0"])
    def test_n_surrogate_below_two_is_config_error(self, n_surrogate, capsys):
        code = run_cli("run", "--seed", "1", "--steps", "1", "--triangle-count", "12",
                       "--n-surrogate", n_surrogate)
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "n_surrogate must be >= 2" in err[0]

    def test_culled_in_steps_and_aggregate(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli("run", "--seed", "3", "--steps", "2", "--triangle-count", "80",
                       "--mode", "ExplicitMultiscale", "--report", str(out))
        assert code == 0
        report = load_report(out)
        assert report["aggregate"]["culled"] == sum(s["culled"] for s in report["steps"]) > 0

    def test_reused_in_steps_and_aggregate(self, tmp_path):
        # the fused mode skips pairings on a positive margin: counted as
        # reused in each step and the aggregate, never as checks
        out, cfg_path = tmp_path / "r.json", tmp_path / "touching.json"
        cfg_path.write_text(json.dumps({"scene": {"triangle_count": 80, "initial_gap": 2e-3}}))
        code = run_cli("run", "--config", str(cfg_path), "--seed", "3", "--steps", "2",
                       "--mode", "ImplicitMultiscalePicard", "--report", str(out))
        assert code == 0
        report = load_report(out)
        assert report["aggregate"]["reused"] == sum(s["reused"] for s in report["steps"]) > 0


class TestTreeCommands:
    @pytest.mark.parametrize("n_surrogate", ["1", "0"])
    def test_build_n_surrogate_below_two_is_config_error(self, tmp_path, n_surrogate, capsys):
        tree_path = tmp_path / "tree.json"
        code = run_cli("build-tree", "--triangle-count", "80", "--seed", "2",
                       "--n-surrogate", n_surrogate, "--out", str(tree_path))
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "n_surrogate must be >= 2" in err[0]
        assert not tree_path.exists()

    def test_build_and_validate(self, tmp_path):
        tree_path = tmp_path / "tree.json"
        code = run_cli(
            "build-tree", "--triangle-count", "80", "--seed", "2",
            "--out", str(tree_path),
        )
        assert code == 0
        code = run_cli(
            "validate-tree", "--triangle-count", "80", "--seed", "2",
            "--tree", str(tree_path),
        )
        assert code == 0

    def test_validate_corrupted_tree_fails(self, tmp_path):
        tree_path = tmp_path / "tree.json"
        run_cli("build-tree", "--triangle-count", "80", "--seed", "2",
                "--out", str(tree_path))
        doc = json.loads(tree_path.read_text())
        doc["eps"][0] *= 0.5
        tree_path.write_text(json.dumps(doc))
        code = run_cli(
            "validate-tree", "--triangle-count", "80", "--seed", "2",
            "--tree", str(tree_path),
        )
        assert code == 4

    @pytest.mark.parametrize("corrupt", [
        lambda d: d.update(version=1),
        lambda d: d["kids"].__setitem__(0, 10**6),
        lambda d: d.update(finest_epsilon=-1.0),
    ], ids=["version-1", "child-out-of-range", "negative-finest-epsilon"])
    def test_validate_malformed_tree_is_config_error(self, tmp_path, capsys, corrupt):
        tree_path = tmp_path / "tree.json"
        run_cli("build-tree", "--triangle-count", "80", "--seed", "2",
                "--out", str(tree_path))
        doc = json.loads(tree_path.read_text())
        corrupt(doc)
        tree_path.write_text(json.dumps(doc))
        code = run_cli(
            "validate-tree", "--triangle-count", "80", "--seed", "2",
            "--tree", str(tree_path),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid tree file") and err.count("\n") == 1

    def test_validate_wrong_mesh_fails(self, tmp_path, capsys):
        tree_path = tmp_path / "tree.json"
        # seeds draw different noisy spheres only when eta_r > 1
        run_cli("build-tree", "--triangle-count", "80", "--eta-r", "1.4", "--seed", "2",
                "--out", str(tree_path))
        capsys.readouterr()
        code = run_cli(
            "validate-tree", "--triangle-count", "80", "--eta-r", "1.4", "--seed", "3",
            "--tree", str(tree_path),
        )
        assert code == 5
        assert "different mesh" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--epsilon", "--n-surrogate"])
    def test_validate_rejects_build_flags(self, tmp_path, capsys, flag):
        # the tree file carries its own halo width and fan-out, so validate-tree
        # has no flag for them and argparse refuses one
        tree_path = tmp_path / "tree.json"
        run_cli("build-tree", "--triangle-count", "80", "--seed", "2",
                "--out", str(tree_path))
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run_cli("validate-tree", "--triangle-count", "80", "--seed", "2",
                    "--tree", str(tree_path), flag, "-1")
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_obj_round_trip(self, tmp_path):
        tree_path = tmp_path / "tree.json"
        obj_path = tmp_path / "mesh.obj"
        run_cli("build-tree", "--triangle-count", "20", "--seed", "1",
                "--out", str(tree_path), "--export-obj", str(obj_path))
        tree2 = tmp_path / "tree2.json"
        code = run_cli("build-tree", "--obj", str(obj_path), "--seed", "1",
                       "--out", str(tree2))
        assert code == 0
        code = run_cli("validate-tree", "--obj", str(obj_path), "--tree", str(tree2))
        assert code == 0


class TestCompare:
    def _make_report(self, tmp_path, tag, mode):
        path = tmp_path / f"{tag}.json"
        run_cli("run", "--seed", "7", "--triangle-count", "80", "--steps", "3",
                "--mode", mode, "--report", str(path))
        return load_report(path)

    def test_self_compare_unit_ratios(self, tmp_path):
        a = self._make_report(tmp_path, "a", "ExplicitSingle")
        summary = compare_reports(a, a)
        for key, value in summary["counter_ratios"].items():
            assert value is None or value == pytest.approx(1.0)
        assert summary["max_state_deviation"] == 0.0

    def test_single_vs_hierarchy_ratio(self, tmp_path):
        a = self._make_report(tmp_path, "a", "ExplicitSingle")
        b = self._make_report(tmp_path, "b", "ExplicitMultiscale")
        summary = compare_reports(a, b)
        assert summary["counter_ratios"]["total_checks"] > 1.0
        assert summary["max_state_deviation"] < 1e-9

    def test_implicit_vs_explicit_picard_multiplier(self, tmp_path):
        a = self._make_report(tmp_path, "a", "ImplicitSingle")
        b = self._make_report(tmp_path, "b", "ExplicitSingle")
        summary = compare_reports(a, b)
        # implicit re-runs the detection once per Picard sweep
        assert summary["counter_ratios"]["iterative_invocations"] >= 1.0

    def test_schema_mismatch(self, tmp_path):
        a = self._make_report(tmp_path, "a", "ExplicitSingle")
        b = json.loads(json.dumps(a))
        b["config"]["scene"]["kind"] = "ParticleOnPlane"
        with pytest.raises(SchemaMismatch):
            compare_reports(a, b)
        c = json.loads(json.dumps(a))
        c["version"] = 2
        with pytest.raises(SchemaMismatch):
            compare_reports(a, c)

    def test_cli_compare_output(self, tmp_path, capsys):
        self._make_report(tmp_path, "a", "ExplicitSingle")
        self._make_report(tmp_path, "b", "ExplicitMultiscale")
        capsys.readouterr()  # drop the run subcommand chatter
        code = run_cli("compare", str(tmp_path / "a.json"), str(tmp_path / "b.json"))
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["counter_ratios"]["total_checks"] > 1.0


# config files whose values are not of their field's type or not finite,
# each with the key its error line names
BAD_CONFIGS = {
    "n_steps-2.9": ({"n_steps": 2.9}, "n_steps"),
    "n_steps-true": ({"n_steps": True}, "n_steps"),
    "n_surrogate-2.5": ({"n_surrogate": 2.5}, "n_surrogate"),
    "max_picard_iterations-2.5": ({"step": {"max_picard_iterations": 2.5}},
                                  "max_picard_iterations"),
    "dt-string": ({"step": {"dt": "1e-4"}}, "dt"),
    "k_s-nan": ({"step": {"force": {"k_s": float("nan")}}}, "k_s"),
    "approach_speed-nan": ({"scene": {"approach_speed": float("nan")}}, "approach_speed"),
    "initial_gap-nan": ({"scene": {"initial_gap": float("nan")}}, "initial_gap"),
    "drop_height-nan": ({"scene": {"drop_height": float("nan")}}, "drop_height"),
    "refine_scaled-no": ({"scene": {"refine_scaled": "no"}}, "refine_scaled"),
    "refined-count-81920": ({"scene": {"kind": "ScaledPair", "triangle_count": 1280,
                                       "scale_factors": [8.0, 1.0], "refine_scaled": True}},
                            "refined count 81920"),
}

# a one-node tree over one triangle whose halo is NaN
NAN_HALO_TREE = {"version": TREE_FORMAT_VERSION, "n_surrogate": 8, "finest_epsilon": 0.01,
                 "mesh_checksum": "0", "tri": [[0.0] * 9], "eps": [float("nan")],
                 "kids": [1], "kid_count": [1]}


class TestBadInput:
    @pytest.mark.parametrize("args, needle", [
        *(pytest.param(["run", "--seed", "1", flag, value], key, id=f"run{flag}-{value}")
          for flag, key in (("--dt", "dt"), ("--eta-r", "eta_r"), ("--epsilon", "epsilon"))
          for value in ("nan", "inf")),
        pytest.param(["build-tree", "--triangle-count", "20", "--epsilon", "inf",
                      "--out", "{tmp}/tree.json"], "finest_epsilon", id="build-tree-epsilon-inf"),
        *(pytest.param(["run", "--seed", "1", "--config", f"{{tmp}}/{name}.json"], needle,
                       id=f"run-config-{name}") for name, (_, needle) in BAD_CONFIGS.items()),
        pytest.param(["run", "--seed", "1", "--steps", "0"], "n_steps", id="run-steps-0"),
        pytest.param(["run", "--seed", "1", "--steps", "1", "--triangle-count", "0"],
                     "triangle count 0", id="run-triangle-count-0"),
        pytest.param(["build-tree", "--triangle-count", "100", "--out", "{tmp}/tree.json"],
                     "100 triangles", id="build-tree-triangle-count-100"),
        pytest.param(["validate-tree", "--triangle-count", "80", "--tree", "{tmp}/none.json"],
                     "none.json", id="validate-tree-missing-tree"),
        pytest.param(["compare", "{tmp}/none.json", "{tmp}/none.json"], "none.json",
                     id="compare-missing-report"),
        pytest.param(["compare", "{tmp}/v0.json", "{tmp}/v0.json"], "version",
                     id="compare-other-version"),
        pytest.param(["run", "--seed", "1", "--steps", "1", "--triangle-count", "20",
                      "--report", "{tmp}/missing/r.json"], "missing", id="run-report-missing-dir"),
        pytest.param(["run", "--seed", "1", "--steps", "1", "--triangle-count", "20",
                      "--trace", "{tmp}/missing/t.csv"], "missing", id="run-trace-missing-dir"),
        pytest.param(["build-tree", "--triangle-count", "20", "--out", "{tmp}/missing/tree.json"],
                     "missing", id="build-tree-out-missing-dir"),
        pytest.param(["validate-tree", "--triangle-count", "80", "--tree", "{tmp}/none.json",
                      "--samples", "-5"], "--samples", id="validate-tree-samples-negative"),
        pytest.param(["validate-tree", "--triangle-count", "80", "--tree", "{tmp}/nan.json"],
                     "finite", id="validate-tree-nan-halo"),
        pytest.param(["build-tree", "--triangle-count", "20", "--epsilon", "-1",
                      "--out", "{tmp}/tree.json"], "finest_epsilon", id="build-tree-epsilon-negative"),
        pytest.param(["build-tree", "--obj", "{tmp}/bad.obj", "--out", "{tmp}/tree.json"],
                     "line 6", id="build-tree-obj-index-outside"),
        pytest.param(["build-tree", "--obj", "{tmp}/nan.obj", "--out", "{tmp}/tree.json"],
                     "line 2", id="build-tree-obj-nan-coordinate"),
        pytest.param(["build-tree", "--obj", "{tmp}/short.obj", "--out", "{tmp}/tree.json"],
                     "line 1", id="build-tree-obj-short-vertex"),
        pytest.param(["build-tree", "--obj", "{tmp}/word.obj", "--out", "{tmp}/tree.json"],
                     "line 1", id="build-tree-obj-vertex-word"),
        pytest.param(["build-tree", "--obj", "{tmp}/wordface.obj", "--out", "{tmp}/tree.json"],
                     "line 4", id="build-tree-obj-face-word"),
        pytest.param(["build-tree", "--obj", "{tmp}/quad.obj", "--out", "{tmp}/tree.json"],
                     "line 5", id="build-tree-obj-quad"),
    ])
    def test_exits_2_with_one_line(self, tmp_path, capsys, args, needle):
        # unusable flags or input files end the command with exit 2 and one
        # stderr line, before any work and without a traceback
        (tmp_path / "v0.json").write_text(json.dumps({"version": 0}))
        (tmp_path / "nan.json").write_text(json.dumps(NAN_HALO_TREE))
        (tmp_path / "bad.obj").write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3\nf -6 3 2\n")
        (tmp_path / "nan.obj").write_text("v 0 0 0\nv nan 1 0\nv 1 0 0\nv 1 1 0\nf 1 2 3\nf 1 3 4\n")
        (tmp_path / "short.obj").write_text("v 0 0\nv 0 0\nv 0 0\nf 1 2 3\n")
        (tmp_path / "word.obj").write_text("v 0 0 x\nv 1 0 0\nv 1 1 0\nf 1 2 3\n")
        (tmp_path / "wordface.obj").write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nf 1 2 x\n")
        (tmp_path / "quad.obj").write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
        for name, (config, _) in BAD_CONFIGS.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(config))
        code = run_cli(*(a.format(tmp=tmp_path) for a in args))
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and needle in err[0]
        assert not (tmp_path / "tree.json").exists()
