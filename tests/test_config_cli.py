import json
from pathlib import Path

import numpy as np
import pytest

import horizonopt as ho
from horizonopt.cli import GRADIENT_TOLERANCE, main
from horizonopt.config import (ConfigError, apply_overrides, build_problem,
                               build_optimizer_config, load_config)

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
            load_config(path)

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
        cfg = load_config(CONFIG_DIR / "lq_small.json")
        cfg["optimizer"]["wrong"] = 1
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
        out = capsys.readouterr().out
        assert "FAIL control_discount_positive" in out
        assert "control_discount > 0" in out

    @pytest.mark.parametrize("name, code", [("ball_cubic", 0), ("invalid_state_discount", 1)])
    def test_out_writes_report_and_complete_manifest(self, tmp_path, name, code):
        out = tmp_path / "val"
        assert main(["validate", "--config", str(CONFIG_DIR / f"{name}.json"),
                     "--out", str(out)]) == code
        report = json.loads((out / "validation.json").read_text())
        assert report["passed"] is (code == 0)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "complete"

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

    def test_exit_code_follows_the_error_bound(self, tmp_path):
        path = str(CONFIG_DIR / "ball_cubic.json")
        assert main(["gradient-check", "--config", path, "--seed", "0",
                     "--out", str(tmp_path / "ok")]) == 0
        # a single large step leaves the central difference far from the gradient
        out = tmp_path / "coarse"
        assert main(["gradient-check", "--config", path, "--seed", "0",
                     "--epsilons", "0.5", "--out", str(out)]) == 1
        payload = json.loads((out / "gradient_check.json").read_text())
        assert payload["sweep"][0]["rel_error"] > GRADIENT_TOLERANCE
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "complete"

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
        assert manifest["status"] == "complete"
        traj = ho.Trajectory.from_csv(out / "u_star.csv")
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
        u = ho.Trajectory.from_csv(out / "u_star.csv")
        state = ho.Trajectory.from_csv(out / "state.csv")
        total = json.loads((out / "report.json").read_text())["cost"]["total"]
        assert abs(ho.cost_from_state(spec, u, state).total - total) <= 1e-13 * abs(total)
        adjoint = ho.Trajectory.from_csv(out / "adjoint.csv")
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

    def test_thread_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        cfg_path = small_study_config(tmp_path)
        blobs = {}
        for threads in ("1", "4"):
            monkeypatch.setenv("HORIZONOPT_THREADS", threads)
            out = tmp_path / f"t{threads}"
            assert main(["horizon-study", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
            blobs[threads] = ((out / "sweep.csv").read_bytes(),
                              (out / "fit.json").read_bytes())
        assert blobs["1"] == blobs["4"]


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


class TestSmokeRuns:
    def test_every_subcommand_finishes_within_budget(self, tmp_path, monkeypatch):
        import time
        monkeypatch.setenv("HORIZONOPT_THREADS", "1")
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
        state = ho.Trajectory.from_csv(out / "state.csv")
        assert state.kind == "state"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["state_norm_discounted"] > 0

    def test_zero_data_zero_control_gives_zero_gradient(self):
        from conftest import make_spec
        spec = make_spec()  # zero initial/source/target defaults
        grad = ho.gradient(spec, spec.zero_control())
        assert np.abs(grad.values).max() == 0.0
