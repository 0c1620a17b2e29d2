import json
import re
from pathlib import Path

import numpy as np
import pytest

import horizonopt as ho
from horizonopt.cli import GRADIENT_TOLERANCE, main, write_json
from horizonopt.config import (ConfigError, apply_overrides, build_problem,
                               build_optimizer_config, load_config)

from conftest import read_trajectory

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def small_study_config(tmp_path, **tweaks):
    cfg = load_config(CONFIG_DIR / "horizon_compact.json")
    cfg["mesh"]["nodes"] = 21
    cfg["time"]["horizon"] = 2.0
    cfg["data"]["source"]["support_end"] = 1.6
    cfg["data"]["target"]["support_end"] = 1.6
    cfg["horizon_study"] = {"horizons": [2.0, 3.0, 4.0], "reference_horizon": 8.0}
    cfg["optimizer"] = {"tolerance": 1e-10, "max_iterations": 400}
    cfg.update(tweaks)
    path = tmp_path / "study.json"
    path.write_text(json.dumps(cfg))
    return path


class TestConfigLoading:
    def test_all_shipped_configs_parse(self):
        for path in sorted(CONFIG_DIR.glob("*.json")):
            cfg = load_config(path)
            spec = build_problem(cfg)
            assert spec.grid.n_steps > 0

    def test_missing_section_rejected(self, tmp_path):
        cfg = load_config(CONFIG_DIR / "lq_small.json")
        del cfg["time"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError):
            build_problem(load_config(path))

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"mesh": [,}')
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "line" in str(err.value)

    def test_unknown_nonlinearity_rejected(self):
        cfg = load_config(CONFIG_DIR / "lq_small.json")
        cfg["nonlinearity"]["name"] = "quartic"
        with pytest.raises(ConfigError):
            build_problem(cfg)

    def test_defaults_filled_for_aux_rate_and_exponent(self):
        cfg = load_config(CONFIG_DIR / "lq_small.json")
        del cfg["discounts"]["aux_rate"]
        spec = build_problem(cfg)
        assert 0 < spec.discounts.aux_rate < 1.0 / 3.0
        assert spec.discounts.integrability_exponent == 2.0

    def test_lengths_size_a_rectangle(self):
        # the 1D keys of the document stay: a 2D mesh leaves them unread
        cfg = apply_overrides(load_config(CONFIG_DIR / "ball_cubic.json"), [
            "mesh.dimension=2", "mesh.shape=[8,4]", "mesh.lengths=[2.0,1.0]",
            "mesh.control.box=[[0.2,0.8],[0.2,0.8]]"])
        coords = build_problem(cfg).mesh.coords
        assert coords.min(axis=0).tolist() == [0.0, 0.0]
        assert coords.max(axis=0).tolist() == [2.0, 1.0]

    def test_overrides(self):
        cfg = load_config(CONFIG_DIR / "lq_small.json")
        out = apply_overrides(cfg, ["discounts.state_discount=2.5",
                                    "cost.control_weight=0.25"])
        assert out["discounts"]["state_discount"] == 2.5
        assert out["cost"]["control_weight"] == 0.25
        assert cfg["discounts"]["state_discount"] == 1.0  # original untouched

    def test_override_bad_path_rejected(self):
        cfg = load_config(CONFIG_DIR / "lq_small.json")
        with pytest.raises(ConfigError):
            apply_overrides(cfg, ["no-equals-sign"])

    def test_optimizer_unknown_option_rejected(self):
        for option in ("wrong", "initial_control"):
            cfg = load_config(CONFIG_DIR / "lq_small.json")
            cfg["optimizer"][option] = 1
            with pytest.raises(ConfigError):
                build_optimizer_config(cfg)


class TestValidateCommand:
    def test_valid_config_exits_zero(self, capsys):
        code = main(["validate", "--config", str(CONFIG_DIR / "ball_cubic.json")])
        assert code == 0
        assert "overall: pass" in capsys.readouterr().out

    def test_zero_control_discount_exits_one_citing_inequality(self, capsys):
        code = main(["validate", "--config",
                     str(CONFIG_DIR / "invalid_control_discount.json")])
        assert code == 1
        printed = capsys.readouterr()
        assert "FAIL control_discount_positive" in printed.out
        assert "control_discount > 0" in printed.out
        assert printed.err == "error: validation failed\n"

    @pytest.mark.parametrize("name, code", [("ball_cubic", 0), ("invalid_state_discount", 1)])
    def test_out_writes_report_and_complete_manifest(self, tmp_path, name, code):
        out = tmp_path / "val"
        assert main(["validate", "--config", str(CONFIG_DIR / f"{name}.json"),
                     "--out", str(out)]) == code
        report = json.loads((out / "validation.json").read_text())
        assert report["passed"] is (code == 0)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "complete" and manifest["exit_code"] == code
        assert manifest.get("reason") == (None if code == 0 else "validation failed")

    @pytest.mark.parametrize("name", ["ball_cubic", "box_cubic", "horizon_compact", "lq_small"])
    def test_zero_bounds_read_zero(self, tmp_path, capsys, name):
        # at min_slope 0 the bounds -2*(q + 3)*min_slope and -2*min_slope are
        # zero, and the report prints them as 0, never as -0
        out = tmp_path / "val"
        assert main(["validate", "--config", str(CONFIG_DIR / f"{name}.json"),
                     "--out", str(out)]) == 0
        details = {item["key"]: item["detail"]
                   for item in json.loads((out / "validation.json").read_text())["items"]}
        assert details["state_discount_lower_bound"].endswith(", required > 0")
        assert ", window = (0, " in details["aux_rate_window"]
        printed = capsys.readouterr().out
        assert all(detail in printed for detail in details.values())
        assert not re.search(r"[ (]-0[,\]]", printed)

    @pytest.mark.parametrize("field", [
        {"template": "gauss_decya"},
        {"template": "nodal", "values": [0.0, 1.0, 0.0]},
    ], ids=["misspelled-template", "nodal-length-mismatch"])
    def test_unsamplable_data_template_exits_two(self, capsys, field):
        code = main(["validate", "--config", str(CONFIG_DIR / "ball_cubic.json"),
                     "--set", f"data.source={json.dumps(field)}"])
        assert code == 2
        assert "configuration error: data field" in capsys.readouterr().err

    def test_operator_coefficient_off_mesh_exits_two(self, capsys):
        # two diffusion values for a mesh of 40 elements
        code = main(["validate", "--config", str(CONFIG_DIR / "ball_cubic.json"),
                     "--set", "operator.diffusion=[1,2]"])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "Traceback" not in err
        assert "operator.diffusion" in err and "(40 on this mesh)" in err

    def test_malformed_document_exits_two(self, tmp_path, capsys):
        path = tmp_path / "nope.json"
        path.write_text("{]")
        code = main(["validate", "--config", str(path)])
        assert code == 2

    def test_every_shipped_invalid_config_fails(self):
        expected = {
            "invalid_state_discount.json": "state_discount_lower_bound",
            "invalid_aux_rate_boundary.json": "aux_rate_window",
            "invalid_control_discount.json": "control_discount_positive",
            "invalid_second_order.json": "second_order_margin",
        }
        for name, key in expected.items():
            spec = build_problem(load_config(CONFIG_DIR / name))
            report = ho.validate_assumptions(spec)
            assert not report.passed, name
            assert key in [i.key for i in report.failures()], name

    def test_every_shipped_valid_config_passes(self):
        for path in sorted(CONFIG_DIR.glob("*.json")):
            if not path.name.startswith("invalid_"):
                report = ho.validate_assumptions(build_problem(load_config(path)))
                assert report.passed, (path.name, [i.key for i in report.failures()])


class TestGradientCheckCommand:
    def test_sweep_errors_decrease_then_flatten(self, tmp_path):
        # nonlinear instance: the truncation branch of the central-difference
        # error decreases with epsilon until cancellation noise takes over
        out = tmp_path / "gc"
        code = main(["gradient-check", "--config", str(CONFIG_DIR / "ball_cubic.json"),
                     "--out", str(out), "--seed", "3",
                     "--epsilons", "1e-2", "1e-4", "1e-6"])
        assert code == 0
        payload = json.loads((out / "gradient_check.json").read_text())
        errs = [s["rel_error"] for s in payload["sweep"]]
        assert errs[0] > errs[1]          # truncation-dominated branch decreases
        assert errs[2] > errs[1] * 1e-3   # then flattens near the noise floor
        assert min(errs) < 1e-7

    def test_exit_code_follows_the_error_bound(self, tmp_path, capsys):
        path = str(CONFIG_DIR / "ball_cubic.json")
        assert main(["gradient-check", "--config", path, "--seed", "0",
                     "--out", str(tmp_path / "ok")]) == 0
        manifest = json.loads((tmp_path / "ok" / "manifest.json").read_text())
        assert manifest["exit_code"] == 0 and "reason" not in manifest
        assert capsys.readouterr().err == ""
        # a single large step leaves the central difference far from the gradient
        out = tmp_path / "coarse"
        assert main(["gradient-check", "--config", path, "--seed", "0",
                     "--epsilons", "0.5", "--out", str(out)]) == 1
        payload = json.loads((out / "gradient_check.json").read_text())
        assert payload["sweep"][0]["rel_error"] > GRADIENT_TOLERANCE
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "complete" and manifest["exit_code"] == 1
        assert manifest["reason"] == "gradient error above 1e-7"
        assert capsys.readouterr().err == "error: gradient error above 1e-7\n"

    def test_nonpositive_epsilon_is_a_usage_error(self, tmp_path):
        # a zero step would divide by zero in the central difference
        with pytest.raises(SystemExit) as exc:
            main(["gradient-check", "--config", str(CONFIG_DIR / "ball_cubic.json"),
                  "--out", str(tmp_path / "gc"), "--epsilons", "0", "1e-4"])
        assert exc.value.code == 2
        assert not (tmp_path / "gc").exists()

    def test_manifest_records_only_a_command_seed(self, tmp_path):
        # gradient-check and socheck take --seed; no other command draws a
        # random number, and its manifest records no seed
        lq = str(CONFIG_DIR / "lq_small.json")
        for command, seed in (("gradient-check", ["--seed", "5"]), ("solve-forward", [])):
            out = tmp_path / command
            assert main([command, "--config", lq, *seed, "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["seed"] == (5 if seed else None)

    def test_repeated_seed_reproduces_bytes(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            main(["gradient-check", "--config", str(CONFIG_DIR / "lq_small.json"),
                  "--out", str(out), "--seed", "11"])
            outs.append((out / "gradient_check.json").read_bytes())
        assert outs[0] == outs[1]


class TestOptimizeCommand:
    def test_writes_expected_artifacts(self, tmp_path):
        out = tmp_path / "opt"
        code = main(["optimize", "--config", str(CONFIG_DIR / "lq_small.json"),
                     "--out", str(out)])
        assert code == 0
        for name in ("u_star.csv", "state.csv", "adjoint.csv", "report.json",
                     "manifest.json"):
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        assert report["converged"]
        assert report["residual"] <= 1e-10
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "complete" and manifest["exit_code"] == 0
        assert "reason" not in manifest
        traj = read_trajectory(out / "u_star.csv")
        assert traj.kind == "control"

    def test_written_state_and_adjoint_belong_to_reported_cost(self, tmp_path):
        # with a loose Newton tolerance the state depends on the Newton
        # settings, so outputs solved again with other settings would not match
        out = tmp_path / "opt"
        path = CONFIG_DIR / "ball_cubic.json"
        code = main(["optimize", "--config", str(path), "--out", str(out),
                     "--set", "optimizer.newton.tolerance=1e-3",
                     "--set", "optimizer.max_iterations=3"])
        assert code == 1  # not converged, outputs written all the same
        spec = build_problem(load_config(path))
        u = read_trajectory(out / "u_star.csv")
        state = read_trajectory(out / "state.csv")
        total = json.loads((out / "report.json").read_text())["cost"]["total"]
        assert abs(ho.cost_from_state(spec, u, state).total - total) <= 1e-13 * abs(total)
        adjoint = read_trajectory(out / "adjoint.csv")
        assert np.array_equal(ho.solve_adjoint(spec, state).values, adjoint.values)

    @pytest.mark.parametrize("override, message, has_history", [
        ("optimizer.min_step=3", "line search failed", False),
        ("optimizer.newton.max_iterations=1", "Newton did not converge", True),
    ])
    def test_failed_run_finalizes_manifest(self, tmp_path, capsys, override, message,
                                           has_history):
        out = tmp_path / "opt"
        code = main(["optimize", "--config", str(CONFIG_DIR / "ball_cubic.json"),
                     "--set", override, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert message in manifest["error"]
        assert ("history" in manifest) == has_history
        assert manifest["exit_code"] == 1 and "reason" not in manifest

    def test_non_converged_run_records_its_verdict(self, tmp_path, capsys):
        # the run finishes, so its status is complete, and it exits 1 without
        # an error: the manifest says why
        out = tmp_path / "opt"
        code = main(["optimize", "--config", str(CONFIG_DIR / "ball_cubic.json"),
                     "--set", "optimizer.max_iterations=1", "--out", str(out)])
        assert code == 1
        printed = capsys.readouterr()
        assert "converged=False" in printed.out
        assert printed.err == "error: not converged\n"
        assert json.loads((out / "report.json").read_text())["converged"] is False
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "complete" and "error" not in manifest
        assert manifest["exit_code"] == 1 and manifest["reason"] == "not converged"

    def test_invalid_config_blocks_run(self, tmp_path, capsys):
        out = tmp_path / "opt"
        code = main(["optimize", "--config",
                     str(CONFIG_DIR / "invalid_state_discount.json"),
                     "--out", str(out)])
        assert code == 1
        assert not (out / "u_star.csv").exists()


class TestHorizonStudyCommand:
    def test_sweep_and_fit_written(self, tmp_path):
        cfg_path = small_study_config(tmp_path)
        out = tmp_path / "study_out"
        code = main(["horizon-study", "--config", str(cfg_path),
                     "--out", str(out), "--plot"])
        assert code == 0
        sweep = (out / "sweep.csv").read_text().splitlines()
        assert sweep[0].startswith("# horizonopt csv v1")
        assert len(sweep) == 2 + 3  # header, columns, three horizons
        fit = json.loads((out / "fit.json").read_text())
        assert fit["rate_status"] == "pass"
        assert (out / "decay.svg").read_text().startswith("<svg")

    def test_every_listed_output_exists(self, tmp_path):
        # with zero data every control error is 0, so there is no decay to plot
        zero = {"template": "zero"}
        cfg_path = small_study_config(tmp_path)
        cfg = json.loads(cfg_path.read_text())
        cfg["data"] = {"initial": zero, "source": zero, "target": zero}
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "study_out"
        assert main(["horizon-study", "--config", str(cfg_path), "--out", str(out),
                     "--plot"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        assert [Path(p).name for p in manifest["outputs"]] == ["sweep.csv", "fit.json"]
        assert all(Path(p).exists() for p in manifest["outputs"])
        assert not (out / "decay.svg").exists()

    def test_data_tails_beyond_the_terminal_term_warn(self, tmp_path):
        # a target without support_end keeps its tail past every horizon,
        # which then outweighs the terminal term; the fit is still judged
        out = tmp_path / "run"
        assert main(["horizon-study", "--config", str(CONFIG_DIR / "horizon_compact.json"),
                     "--set", "data.target.support_end=null",
                     "--set", "horizon_study.horizons=[2,3,4,5]",
                     "--set", "horizon_study.reference_horizon=10", "--out", str(out)]) == 0
        fit = json.loads((out / "fit.json").read_text())
        assert fit["warnings"] == [
            f"tail terms exceed the terminal term at horizon {h}; "
            "the decay rate may be masked by the data tails" for h in (2, 3, 4, 5)]
        assert not any(r["tail_dominated"] for r in fit["records"])
        assert fit["rate_status"] == "pass"

    def test_non_converged_solves_set_the_verdict(self, tmp_path, capsys):
        # no solve of the sweep converges in two iterations: the run still
        # writes its outputs, names each horizon and exits 1, saying why on
        # stderr
        out = tmp_path / "run"
        assert main(["horizon-study", "--config", str(CONFIG_DIR / "horizon_compact.json"),
                     "--set", "optimizer.max_iterations=2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: not converged\n"
        fit = json.loads((out / "fit.json").read_text())
        assert fit["converged"] is False
        assert fit["warnings"] == [f"the solve at horizon {h} did not converge"
                                   for h in (24, 4, 6, 8, 10, 12)]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "complete" and "error" not in manifest
        assert manifest["exit_code"] == 1 and manifest["reason"] == "not converged"

    @pytest.mark.parametrize("horizons", ["[4.0,4.0]", "[4.03,6.0]"],
                             ids=["repeated", "off-step"])
    def test_malformed_horizons_exit_two(self, tmp_path, capsys, horizons):
        out = tmp_path / "run"
        code = main(["horizon-study", "--config", str(CONFIG_DIR / "horizon_compact.json"),
                     "--set", f"horizon_study.horizons={horizons}", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "Traceback" not in err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["outputs"] == []


class TestSocheckCommand:
    def test_reports_positive_growth_on_lq(self, tmp_path):
        out = tmp_path / "so"
        code = main(["socheck", "--config", str(CONFIG_DIR / "lq_small.json"),
                     "--out", str(out), "--directions", "10", "--samples", "10"])
        assert code == 0
        payload = json.loads((out / "socheck.json").read_text())
        assert payload["growth"]["kappa"] > 0
        assert payload["min_normalized_form"] is None or \
            payload["min_normalized_form"] > -1e-6

    def test_box_problem_has_positive_form_and_no_multiplier(self, tmp_path):
        out = tmp_path / "so"
        assert main(["socheck", "--config", str(CONFIG_DIR / "box_cubic.json"),
                     "--seed", "2", "--out", str(out)]) == 0
        payload = json.loads((out / "socheck.json").read_text())
        assert payload["admissible_kind"] == "box"
        assert payload["directions_sampled"] == 50
        assert payload["min_normalized_form"] > 0
        assert not (out / "multiplier.csv").exists()

    def test_non_converged_run_records_its_verdict(self, tmp_path, capsys):
        # as optimize, socheck writes its checks at a non-converged output
        # and exits 1 on the optimizer's verdict, saying why on stderr
        out = tmp_path / "so"
        code = main(["socheck", "--config", str(CONFIG_DIR / "ball_cubic.json"),
                     "--set", "optimizer.max_iterations=1", "--samples", "4",
                     "--directions", "2", "--out", str(out)])
        assert code == 1
        printed = capsys.readouterr()
        assert "growth kappa" in printed.out
        assert printed.err == "error: not converged\n"
        payload = json.loads((out / "socheck.json").read_text())
        assert payload["stationarity_residual"] > 1e-10
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "complete" and "error" not in manifest
        assert manifest["exit_code"] == 1 and manifest["reason"] == "not converged"

    @pytest.mark.parametrize("option, value", [
        ("--samples", "0"), ("--radius", "-1"), ("--radius", "nan"), ("--directions", "-5"),
    ])
    def test_nonpositive_count_or_radius_is_a_usage_error(self, tmp_path, option, value):
        with pytest.raises(SystemExit) as exc:
            main(["socheck", "--config", str(CONFIG_DIR / "ball_cubic.json"),
                  "--out", str(tmp_path / "so"), option, value])
        assert exc.value.code == 2
        assert not (tmp_path / "so").exists()

    def test_malformed_document_leaves_the_seed_in_the_failed_manifest(self, tmp_path,
                                                                        capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"mesh": [,}')
        out = tmp_path / "so"
        assert main(["socheck", "--config", str(bad), "--seed", "4", "--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed" and manifest["config"] is None
        assert manifest["seed"] == 4


class TestRunnerFailures:
    @pytest.mark.parametrize("command, name", [
        ("optimize", "ball_cubic"), ("socheck", "ball_cubic"),
        ("horizon-study", "horizon_compact"),
    ])
    def test_gated_command_refuses_invalid_problem(self, tmp_path, capsys, command, name):
        out = tmp_path / "run"
        code = main([command, "--config", str(CONFIG_DIR / f"{name}.json"),
                     "--set", "discounts.control_discount=0", "--out", str(out)])
        assert code == 1
        assert "FAIL control_discount_positive" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "control_discount_positive" in manifest["error"]
        assert manifest["outputs"] == []
        assert [p.name for p in out.iterdir()] == ["manifest.json"]

    def test_2d_step_matrix_not_positive_definite_fails_the_solve(self, tmp_path, capsys):
        # at dt = 2 the step matrix M/dt + K + M_L diag(f') with f' = -1 near
        # 0 is indefinite (validate fails discrete_step_monotone), and
        # solve-forward, which runs on any problem, meets it in its first
        # band Cholesky
        out = tmp_path / "run"
        overrides = ["mesh.dimension=2", "mesh.shape=[16,16]",
                     "mesh.control.box=[[0.2,0.8],[0.2,0.8]]",
                     "nonlinearity.name=cubic_minus_linear", "discounts.state_discount=12",
                     "discounts.control_discount=0.5", "discounts.aux_rate=2.2",
                     "time.step=2.0"]
        argv = ["solve-forward", "--config", str(CONFIG_DIR / "ball_cubic.json"),
                "--out", str(out)]
        for override in overrides:
            argv += ["--set", override]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "step matrix not positive definite (pbtrf info" in err
        assert "Traceback" not in err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "step matrix not positive definite (pbtrf info" in manifest["error"]

    def test_2d_per_element_diffusion_fails_assembly(self, tmp_path, capsys):
        # one diffusion value per element fits a 3x3 mesh, but 2D assembly
        # takes a spatially constant coefficient only: solve-forward fails at
        # assembly, and validate reports it as its discrete-step item
        argv = ["--config", str(CONFIG_DIR / "ball_cubic.json")]
        for override in ("mesh.dimension=2", "mesh.shape=[3,3]",
                         "mesh.control.box=[[0.2,0.8],[0.2,0.8]]",
                         "operator.diffusion=[1,2,3,4,5,6,7,8,9]"):
            argv += ["--set", override]
        message = "2D assembly supports a spatially constant diffusion coefficient"
        out = tmp_path / "run"
        assert main(["solve-forward", *argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err and "Traceback" not in err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed" and manifest["error"] == message
        assert manifest["exit_code"] == 1 and manifest["outputs"] == []
        assert main(["validate", *argv]) == 1
        printed = capsys.readouterr().out
        assert (f"FAIL discrete_step_monotone: M/dt + K + min_slope*M_L positive definite "
                f"[assembly failed: {message}]") in printed
        assert printed.endswith("overall: fail\n")

    def test_non_finite_linear_solve_exits_one(self, tmp_path, capsys, monkeypatch):
        # an adjoint march of a nan residual stands in for a solve that
        # overflows: the run fails with the linear solve's own message
        from horizonopt.solvers import solve_adjoint_from_residual

        def poisoned(spec, state):
            residual = np.full(state.values.shape, np.nan)
            return solve_adjoint_from_residual(spec, state, residual, 0.0)

        monkeypatch.setattr("horizonopt.optimizer.solve_adjoint", poisoned)
        out = tmp_path / "run"
        assert main(["optimize", "--config", str(CONFIG_DIR / "lq_small.json"),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error: linear solve produced non-finite values" in err
        assert "Traceback" not in err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"] == "linear solve produced non-finite values"

    @pytest.mark.parametrize("out, message", [
        ("afile", "File exists"), ("afile/run", "Not a directory"),
    ], ids=["existing-file", "file-parent"])
    def test_unusable_out_is_a_usage_error(self, tmp_path, capsys, monkeypatch, out,
                                           message):
        # the run directory is made before any work, so an --out that cannot
        # be one exits 2 as any other argument error, and nothing runs
        monkeypatch.chdir(tmp_path)
        Path("afile").write_text("kept\n")
        monkeypatch.setattr("horizonopt.cli.load_config", None)
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--config", str(CONFIG_DIR / "lq_small.json"), "--out", out])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"horizonopt: error: --out {out}: {message}" in err
        assert "Traceback" not in err
        assert Path("afile").read_text() == "kept\n"

    def test_undocumented_error_propagates_after_failing_the_manifest(self, tmp_path,
                                                                      monkeypatch):
        # an exception of no documented type is a fault of the program, not
        # of the run: its manifest still reads failed before it propagates
        def broken(spec, control):
            raise KeyError("boom")

        monkeypatch.setattr("horizonopt.cli.solve_forward", broken)
        out = tmp_path / "run"
        with pytest.raises(KeyError, match="boom"):
            main(["solve-forward", "--config", str(CONFIG_DIR / "lq_small.json"),
                  "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed" and manifest["exit_code"] == 1
        assert manifest["error"] == "'boom'" and manifest["outputs"] == []

    def test_negative_diffusion_fails_assembly(self, tmp_path, capsys):
        # solve-forward runs on any problem, so assembly's own check of the
        # ellipticity constant, the smallest diffusion, stops it
        out = tmp_path / "run"
        assert main(["solve-forward", "--config", str(CONFIG_DIR / "ball_cubic.json"),
                     "--set", "operator.diffusion=-1", "--out", str(out)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"] == "ellipticity bound must be positive"

    @pytest.mark.parametrize("malformed, override", [
        (True, None), (False, "nonlinearity.name=quartic"), (False, "no-equals-sign"),
        (False, "optimizer.newton.foo=1"), (False, "optimizer.newton=3"),
        (False, 'optimizer.tolerance="abc"'), (False, 'optimizer.newton.tolerance="x"'),
        (False, "optimizer.newton.damping=0.5"),
        (False, 'admissible={"kind":"box","lower":1,"upper":0}'),
        (False, "mesh.control={}"), (False, "mesh.dimension=2"),
        (False, 'mesh.control={"lo":0.5,"hi":0.51}'),
        (False, 'mesh={"dimension":2,"shape":[1,1],"control":{"box":[[0.2,0.8],[0.2,0.8]]}}'),
        (False, 'nonlinearity={"name":"linear","coefficient":-1}'),
        (False, "operator.diffusion=[1,2]"),
    ])
    def test_config_error_leaves_failed_manifest(self, tmp_path, capsys, malformed,
                                                 override):
        path = CONFIG_DIR / "ball_cubic.json"
        if malformed:
            path = tmp_path / "bad.json"
            path.write_text('{"mesh": [,}')
        out = tmp_path / "run"
        argv = ["optimize", "--config", str(path), "--out", str(out)]
        if override:
            argv += ["--set", override]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "Traceback" not in err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed" and manifest["exit_code"] == 2
        assert manifest["error"]
        # the resolved document is recorded when resolution got that far:
        # a malformed file or an override without "=" stops before it
        resolved = not malformed and "=" in override
        assert (manifest["config"] is not None) == resolved

    @pytest.mark.parametrize("override, field", [
        ("mesh.control={}", "mesh.control"), ("mesh.dimension=2", "mesh.control"),
        ('mesh.observation={"lo":0.1}', "mesh.observation"),
        ("operator.diffusion=[1,2]", "operator.diffusion must be one number or a list of "
                                     "one per element (40 on this mesh)"),
        ("operator.reaction=[1,2]", "operator.reaction must be one number or a list of "
                                    "one per node (41 on this mesh)"),
        ("optimizer.newton.foo=1", "optimizer.newton"),
        ("optimizer.newton.tolerance=0", "optimizer.newton"),
        ("discounts.aux_rat=0.2", "discounts.aux_rat: unknown field"),
        ("cost.control_weigth=0.01", "cost.control_weigth: unknown field"),
        ("data.target.amplitud=9", "data field: data.target.amplitud: unknown field"),
        ("time.stepp=0.01", "time.stepp: unknown field"),
        ("mesh.nodez=9", "mesh.nodez: unknown field"),
        ("optimizer.max_iterations=2.5", "optimizer.max_iterations: expected int"),
        ("optimizer.newton.max_iterations=2.5",
         "optimizer.newton.max_iterations: expected int"),
        ("optimizer.max_iterations=true", "optimizer.max_iterations: expected int"),
        ("optimizer.newton.tolerance=true", "optimizer.newton.tolerance: expected float"),
        ('optimizer.tolerance="abc"', "optimizer.tolerance: expected float"),
        ('mesh={"dimension":2,"control":{"box":[[0.2,0.8]]}}', "mesh.control.box"),
        # Python's JSON reader takes NaN and Infinity, which no number key admits
        ("time.horizon=Infinity", "time.horizon: expected float, got Infinity"),
        ("time.step=Infinity", "time.step: expected float, got Infinity"),
        ('horizon_study={"horizons":[1],"reference_horizon":Infinity}',
         "horizon_study.reference_horizon: expected float, got Infinity"),
        ("optimizer.tolerance=NaN", "optimizer.tolerance: expected float, got NaN"),
        ("optimizer.newton.tolerance=NaN", "optimizer.newton.tolerance: expected float, got NaN"),
        ("discounts.state_discount=Infinity",
         "discounts.state_discount: expected float, got Infinity"),
        ("cost.control_weight=Infinity", "cost.control_weight: expected float, got Infinity"),
        ("operator.diffusion=[1,NaN]", "operator.diffusion: expected float | list[float]"),
        ("data.target.support_end=-Infinity", "data field: data.target.support_end: expected"),
    ], ids=["control-empty", "control-without-box", "observation-without-hi",
            "diffusion-length", "reaction-length", "newton-unknown-key",
            "newton-tolerance", "aux-rate-misspelled", "control-weight-misspelled",
            "amplitude-misspelled", "step-misspelled", "nodes-misspelled",
            "max-iterations-fraction", "newton-max-iterations-fraction",
            "max-iterations-boolean", "newton-tolerance-boolean", "tolerance-string",
            "control-one-box-pair", "horizon-infinite", "step-infinite",
            "reference-horizon-infinite", "tolerance-nan", "newton-tolerance-nan",
            "state-discount-infinite", "control-weight-infinite", "diffusion-item-nan",
            "support-end-infinite"])
    def test_config_error_names_the_field(self, tmp_path, capsys, override, field):
        out = tmp_path / "run"
        code = main(["optimize", "--config", str(CONFIG_DIR / "ball_cubic.json"),
                     "--set", override, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"configuration error: {field}" in err
        assert "Traceback" not in err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed" and field in manifest["error"]

    @pytest.mark.parametrize("override, field", [
        ("seed=0", "seed: unknown field"),
        ("optimizer.initial_step=1", "optimizer.initial_step: unknown field"),
        ("optimizer.armijo_slope=0.5", "optimizer.armijo_slope: unknown field"),
        ("optimizer.backtrack=0.5", "optimizer.backtrack: unknown field"),
        ("data.source.template=separable", "data field: data.source.template: must be one of"),
        ("data.target.template=cosine_compact",
         "data field: data.target.template: must be one of"),
    ], ids=["seed", "initial-step", "armijo-slope", "backtrack", "separable",
            "cosine-compact"])
    @pytest.mark.parametrize("command", ["optimize", "socheck"])
    def test_retired_key_exits_two_naming_it(self, tmp_path, capsys, override, field,
                                             command):
        # the manifest's seed is the command's --seed, never the document's
        out = tmp_path / "run"
        seed = ["--seed", "4"] if command == "socheck" else []
        code = main([command, "--config", str(CONFIG_DIR / "ball_cubic.json"),
                     "--set", override, *seed, "--out", str(out)])
        assert code == 2
        assert f"configuration error: {field}" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed" and field in manifest["error"]
        assert manifest["seed"] == (4 if seed else None)

    def test_non_finite_numbers_are_written_as_strings(self, tmp_path):
        def refuse(name):
            raise AssertionError(f"bare {name} in a JSON file")

        out = tmp_path / "run"
        code = main(["optimize", "--config", str(CONFIG_DIR / "ball_cubic.json"),
                     "--set", "optimizer.tolerance=NaN", "--out", str(out)])
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text(), parse_constant=refuse)
        assert manifest["status"] == "failed"
        assert manifest["config"]["optimizer"]["tolerance"] == "NaN"
        write_json(tmp_path / "values.json", {"a": [np.inf, -np.inf, 0.5],
                                               "b": np.array([np.nan, 1.0]), "c": np.float64(2.0)})
        assert json.loads((tmp_path / "values.json").read_text(), parse_constant=refuse) == {
            "a": ["Infinity", "-Infinity", 0.5], "b": ["NaN", 1.0], "c": 2.0}

    @pytest.mark.parametrize("command", ["validate", "solve-forward", "gradient-check"])
    def test_malformed_optimizer_section_exits_two(self, tmp_path, capsys, command):
        # commands that never optimize still reject the section before any solve
        out = tmp_path / "run"
        code = main([command, "--config", str(CONFIG_DIR / "lq_small.json"),
                     "--set", "optimizer.foo=1", "--out", str(out)])
        assert code == 2
        assert "unknown optimizer options: ['foo']" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["outputs"] == []

    @pytest.mark.parametrize("command", ["solve-forward", "gradient-check"])
    def test_newton_settings_govern_every_command(self, tmp_path, capsys, command):
        # optimizer.newton belongs to the problem, so commands that never
        # optimize solve with it too
        out = tmp_path / "run"
        code = main([command, "--config", str(CONFIG_DIR / "ball_cubic.json"),
                     "--set", "optimizer.newton.max_iterations=1", "--out", str(out)])
        assert code == 1
        assert "Newton did not converge" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "Newton did not converge" in manifest["error"]


def _edited_document(tmp_path, name, edit):
    """Shipped config ``name`` with one edit: ``path=value`` sets a JSON value,
    ``-path`` deletes the key; written to a file, whose path is returned."""
    doc = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    path, _, raw = edit.lstrip("-").partition("=")
    *parents, key = path.split(".")
    node = doc
    for part in parents:
        node = node[part]
    if edit.startswith("-"):
        del node[key]
    else:
        node[key] = json.loads(raw)
    out = tmp_path / "edited.json"
    out.write_text(json.dumps(doc))
    return out


# one case per constraint of the document format: each type (a boolean is
# not a number), lower bound, enum, array length and required key
_CONSTRAINTS = [
    # types
    "mesh=3", "mesh.dimension=true", 'mesh.length="a"', "mesh.nodes=2.5",
    "mesh.lengths=1", 'mesh.lengths=[1,"a"]', "mesh.shape=16", "mesh.shape=[16,2.5]",
    "mesh.control=[0.2,0.8]", "mesh.observation=1", "operator=3", 'operator.diffusion="a"',
    "operator.reaction=true", "nonlinearity=3", "nonlinearity.name=3",
    'nonlinearity.coefficient="a"', "discounts=3", "discounts.state_discount=true",
    'discounts.control_discount="a"', "discounts.aux_rate=[0.1]",
    'discounts.integrability_exponent="a"', "discounts.enforce_second_order=1", "cost=3",
    "cost.control_weight=true", "data=3", "data.initial=3", "data.source.template=3",
    "admissible=3", 'admissible.radius="a"', 'admissible.lower="a"', "admissible.upper=true",
    "time=3", 'time.horizon="a"', "time.step=true", "optimizer=3",
    # lower bounds
    "mesh.length=0", "cost.control_weight=0", "time.horizon=0", "time.step=0",
    "admissible.radius=0", "mesh.nodes=2",
    # enums
    "mesh.dimension=3", 'admissible.kind="disc"',
    # array lengths
    "mesh.shape=[16]", "mesh.shape=[16,16,16]", "mesh.lengths=[1.0]",
    # required keys
    "-mesh", "-nonlinearity", "-discounts", "-cost", "-data", "-admissible", "-time",
    "-mesh.control", "-nonlinearity.name", "-discounts.state_discount",
    "-discounts.control_discount", "-cost.control_weight", "-data.initial", "-data.source",
    "-data.target", "-data.source.template", "-admissible.kind", "-time.horizon",
    "-time.step",
]
_STUDY_CONSTRAINTS = [
    "horizon_study=3", "horizon_study.horizons=4", "horizon_study.horizons=[true]",
    'horizon_study.reference_horizon="a"', 'horizon_study.extension="ref"',
    "horizon_study.horizons=[]", "-horizon_study.horizons",
]


class TestDocumentConstraints:
    @pytest.mark.parametrize("name, edit", [("ball_cubic", e) for e in _CONSTRAINTS]
                             + [("horizon_compact", e) for e in _STUDY_CONSTRAINTS])
    def test_violation_exits_two(self, tmp_path, capsys, name, edit):
        path = _edited_document(tmp_path, name, edit)
        assert main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "Traceback" not in err

    def test_document_must_be_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[]")
        assert main(["validate", "--config", str(path)]) == 2

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
    def test_every_misspelled_key_exits_two_naming_it(self, tmp_path, capsys, path):
        doc = json.loads(path.read_text())
        edited = tmp_path / "misspelled.json"
        missed = []
        for keys in _key_paths(doc):
            wrong = keys[-1][:-1] + ("q" if keys[-1].endswith("z") else "z")
            edited.write_text(json.dumps(_renamed(doc, keys, wrong)))
            code = main(["validate", "--config", str(edited)])
            err = capsys.readouterr().err
            name = ".".join(keys[:-1] + (wrong,))
            if code != 2 or name not in err:
                missed.append((name, code))
        assert not missed


def _key_paths(node, prefix=()):
    """The path of every key of a document, objects nested in objects included."""
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


def _renamed(node, keys, new):
    """A copy of ``node`` with the key at path ``keys`` renamed to ``new``, in
    its place."""
    head, *rest = keys
    return {(new if key == head and not rest else key):
            (_renamed(value, rest, new) if key == head and rest else value)
            for key, value in node.items()}


class TestOutputSchemas:
    def test_report_key_sets_are_pinned(self, tmp_path):
        # reports serialize their dataclass fields, so a new field changes an
        # output schema; this pin makes such a change deliberate
        lq = str(CONFIG_DIR / "lq_small.json")
        runs = {
            "opt": ["optimize", "--config", lq],
            "hs": ["horizon-study", "--config", str(small_study_config(tmp_path))],
            "val": ["validate", "--config", str(CONFIG_DIR / "ball_cubic.json")],
            "so": ["socheck", "--config", lq, "--directions", "5", "--samples", "5"],
        }
        for name, argv in runs.items():
            assert main(argv + ["--out", str(tmp_path / name)]) == 0, name

        def keys(name, file):
            return json.loads((tmp_path / name / file).read_text())

        report = keys("opt", "report.json")
        assert set(report) == {"schema", "iterations", "converged", "cost", "residual",
                               "history", "wall_time", "message"}
        assert set(report["cost"]) == {"tracking", "control", "total"}
        fit = keys("hs", "fit.json")
        assert set(fit) == {"schema", "reference_horizon", "extension", "slope", "intercept",
                            "rate_status", "monotone_ok", "cost_check_ok", "bound_constant",
                            "warnings", "converged", "records"}
        for record in fit["records"]:
            assert set(record) == {
                "horizon", "control_error", "state_error_energy", "state_error_sup",
                "bound_terminal", "bound_target_tail", "bound_source_tail", "bound_total",
                "cost_optimal", "cost_reference", "cost_gap", "tail_dominated", "iterations"}
        validation = keys("val", "validation.json")
        assert set(validation) == {"passed", "sample_range", "sample_count", "items"}
        for item in validation["items"]:
            assert set(item) == {"key", "requirement", "passed", "detail"}
        assert set(keys("so", "socheck.json")["growth"]) == {"kappa", "margins", "distances"}


class TestSmokeRuns:
    def test_every_subcommand_finishes_within_budget(self, tmp_path):
        import time
        study = small_study_config(tmp_path)
        runs = [
            ["validate", "--config", str(CONFIG_DIR / "ball_cubic.json")],
            ["solve-forward", "--config", str(CONFIG_DIR / "lq_small.json"),
             "--out", str(tmp_path / "fw")],
            ["gradient-check", "--config", str(CONFIG_DIR / "lq_small.json"),
             "--out", str(tmp_path / "gc2")],
            ["optimize", "--config", str(CONFIG_DIR / "ball_cubic.json"),
             "--out", str(tmp_path / "op2")],
            ["horizon-study", "--config", str(study), "--out", str(tmp_path / "hs2")],
            ["socheck", "--config", str(CONFIG_DIR / "ball_cubic.json"),
             "--out", str(tmp_path / "so2"), "--directions", "20",
             "--samples", "20"],
        ]
        for argv in runs:
            t0 = time.perf_counter()
            assert main(argv) == 0, argv[0]
            assert time.perf_counter() - t0 <= 60.0, argv[0]

    def test_solve_forward_outputs(self, tmp_path):
        out = tmp_path / "fw2"
        assert main(["solve-forward", "--config", str(CONFIG_DIR / "lq_small.json"),
                     "--out", str(out)]) == 0
        state = read_trajectory(out / "state.csv")
        assert state.kind == "state"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["state_norm_discounted"] > 0

    def test_zero_data_zero_control_gives_zero_gradient(self):
        from conftest import make_spec
        spec = make_spec()  # zero initial/source/target defaults
        grad = ho.gradient(spec, spec.zero_control())
        assert np.abs(grad.values).max() == 0.0
