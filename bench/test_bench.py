"""Tests of the benchmark's own logic: tail percentile, span arithmetic,
correctness checks and failure accounting."""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(1, str(BENCH_DIR.parent / "src"))

import tracer  # noqa: E402
from checks import check_op  # noqa: E402
from harness import failure_summary, tail_percentile  # noqa: E402
from workloads import REFERENCE, WORKLOADS, Op  # noqa: E402


class TestTailPercentile:
    def test_needs_more_than_ten_samples(self):
        assert tail_percentile([1.0] * 10) is None
        assert tail_percentile([0.5, 0.7, 0.6]) is None

    def test_value_has_exactly_ten_samples_beyond(self):
        samples = [float(i) for i in range(100, 0, -1)]
        pct, value = tail_percentile(samples)
        assert pct == pytest.approx(90.0)
        assert value == 90.0
        assert sum(s > value for s in samples) == 10

    def test_eleven_samples_give_the_minimum(self):
        pct, value = tail_percentile([float(i) for i in range(11)])
        assert value == 0.0
        assert pct == pytest.approx(100.0 / 11)


def _span(layer, t0, t1, parent, info=None):
    return [layer, t0, t1, parent, info]


class TestSpanArithmetic:
    def test_self_time_subtracts_direct_children(self):
        spans = [_span("cli.command", 0.0, 10.0, -1),
                 _span("optimizer", 1.0, 6.0, 0),
                 _span("solvers.forward", 2.0, 4.0, 1),
                 _span("spaces.norm", 7.0, 9.0, 0)]
        assert tracer.self_times(spans) == pytest.approx(
            {"cli.command": 3.0, "optimizer": 3.0, "solvers.forward": 2.0,
             "spaces.norm": 2.0})

    def test_nested_spans_of_one_layer_are_not_double_counted(self):
        spans = [_span("cli.command", 0.0, 4.0, -1),
                 _span("objective.second_order", 0.0, 3.0, 0),
                 _span("objective.second_order", 1.0, 2.0, 1)]
        times = tracer.self_times(spans)
        assert times["objective.second_order"] == pytest.approx(3.0)
        assert sum(times.values()) == pytest.approx(4.0)

    def test_layer_metrics_classify_trials_resolves_and_reference(self):
        spans = [_span("cli.command", 0.0, 20.0, -1),
                 _span("horizon.study", 0.0, 19.0, 0),
                 _span("optimizer", 0.0, 5.0, 1, {"iterations": 3}),
                 _span("solvers.forward", 0.0, 1.0, 2, {"steps": 10}),
                 _span("solvers.forward", 1.0, 2.0, 2, {"steps": 10}),
                 _span("solvers.forward", 5.0, 7.0, 1, {"steps": 20, "resolve": True}),
                 _span("optimizer", 7.0, 9.0, 1, {"iterations": 1})]
        op = {"tag": [0, 0], "spans": spans, "counts": {tracer.STEP_SOLVE: 40}}
        m = tracer.layer_metrics([op])
        assert m["optimizer.trials"] == 2
        assert m["optimizer.iterations"] == 4
        assert m["optimizer.accept_ratio"] == pytest.approx(2.0)
        assert m["solvers.resolve.calls"] == 1
        assert m["solvers.forward.calls"] == 3
        assert m["solvers.forward.step_us"] == pytest.approx(1e6 * 4.0 / 40)
        assert m["horizon.reference.s"] == pytest.approx(5.0)
        assert m["solvers.step_solve.calls"] == 40
        assert m["solvers.factor.calls"] == 0


class TestTracerInstall:
    def test_wraps_imported_bindings_and_restores_them(self):
        spaces = pytest.importorskip("horizonopt.spaces")
        import horizonopt.optimizer as optimizer
        original = spaces.weighted_l2_norm
        t = tracer.Tracer()
        assert t.install() == []
        try:
            assert optimizer.weighted_l2_norm is spaces.weighted_l2_norm
            assert spaces.weighted_l2_norm is not original
        finally:
            t.uninstall()
        assert spaces.weighted_l2_norm is original
        assert optimizer.weighted_l2_norm is original

    def test_removed_name_is_reported_missing_not_zero(self, monkeypatch):
        pytest.importorskip("horizonopt")
        layers = dict(tracer.LAYERS, **{"descriptors.tail": ("horizonopt.descriptors:gone",)})
        monkeypatch.setattr(tracer, "LAYERS", layers)
        t = tracer.Tracer()
        try:
            missing = t.install()
        finally:
            t.uninstall()
        assert missing == ["horizonopt.descriptors:gone"]
        assert tracer.missing_metrics(missing) == ["descriptors.tail.s"]


def _write(path, payload):
    path.write_text(json.dumps(payload))


@pytest.fixture
def optimize_out(tmp_path):
    _write(tmp_path / "manifest.json",
           {"status": "complete", "config": {"optimizer": {"tolerance": 1e-9}}})
    report = {"converged": True, "residual": 5e-10, "message": "",
              "cost": {"total": REFERENCE["optimize:ball_cubic"]}}
    _write(tmp_path / "report.json", report)
    return tmp_path, report


OPTIMIZE = Op("optimize:ball_cubic", ("optimize", "--config", "configs/ball_cubic.json"))


class TestChecks:
    def test_reference_report_passes(self, optimize_out):
        out, _ = optimize_out
        assert check_op(OPTIMIZE, 0, out) == []

    def test_perturbed_cost_is_rejected(self, optimize_out):
        out, report = optimize_out
        report["cost"]["total"] *= 1 + 1e-7
        _write(out / "report.json", report)
        assert any("reference" in p for p in check_op(OPTIMIZE, 0, out))

    def test_non_converged_report_is_rejected(self, optimize_out):
        out, report = optimize_out
        report.update(converged=False, residual=2e-7, message="maximum iterations reached")
        _write(out / "report.json", report)
        problems = check_op(OPTIMIZE, 1, out)
        assert any("did not converge" in p for p in problems)
        assert any("exit code 1" in p for p in problems)

    def test_unfinalized_manifest_is_rejected(self, optimize_out):
        out, _ = optimize_out
        _write(out / "manifest.json", {"status": "running", "config": {}})
        assert any("status" in p for p in check_op(OPTIMIZE, 0, out))

    def test_expected_nonzero_exit_passes(self):
        op = WORKLOADS["cli_small"].build_ops(3)[1]
        assert op.expect_rc == 1
        assert check_op(op, 1, None) == []
        assert check_op(op, 0, None) != []


class TestFailureAccounting:
    def test_failed_operation_counts_in_failed_frac(self):
        results = [{"problems": []}, {"problems": check_op(OPTIMIZE, None, None)},
                   {"problems": []}, {"problems": []}]
        assert failure_summary(results) == (4, 1, 0.25)

    def test_seed_reaches_only_seeded_commands(self):
        ops = WORKLOADS["cli_small"].build_ops(7)
        seeded = [op.key for op in ops if "7" in op.argv]
        assert seeded == ["gradient-check:ball_cubic", "socheck:ball_cubic"]


class TestBenchmarkFile:
    def test_matches_the_harness(self):
        import harness
        doc = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        for w in doc["workloads"]:
            assert w["why"] == WORKLOADS[w["name"]].why
        assert [m["name"] for m in doc["per_layer"]] == list(harness.PER_LAYER_METRICS)
        for m in doc["per_layer"] + doc["end_to_end"]:
            assert m["unit"] == harness.metric_unit(m["name"])
        assert {m["name"] for m in doc["end_to_end"]} == {
            "setup_s", "rep_s", "cpu_s", "peak_rss_mb"}
