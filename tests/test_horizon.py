import numpy as np
import pytest

import horizonopt as ho
from horizonopt import optimizer
from horizonopt.descriptors import Field, SpaceProfile, TimeProfile
from horizonopt.horizon import (HorizonStudyConfig, check_state_error_bounds,
                                run_horizon_study)
from horizonopt.optimizer import OptimizerConfig
from horizonopt.spaces import weighted_l2_norm

from conftest import make_spec


def study_spec(nonlinearity="zero", reaction=1.0, amplitude=2.0, n_nodes=21,
               control_rate=0.32, aux_rate=0.325):
    target = Field(SpaceProfile("cosine", mode=1), TimeProfile(support_end=1.6),
                   amplitude=amplitude)
    source = Field(SpaceProfile("gaussian", center=(0.3,), width=0.15),
                   TimeProfile(support_end=1.6), amplitude=amplitude / 2)
    initial = Field(SpaceProfile("cosine", mode=2), TimeProfile(), amplitude=0.3)
    return make_spec(n_nodes=n_nodes, horizon=2.0, step=0.05,
                     nonlinearity=nonlinearity, state_rate=1.0,
                     control_rate=control_rate, aux_rate=aux_rate,
                     control_weight=1.0,
                     admissible=ho.AdmissibleSet("ball", radius=20.0),
                     initial=initial, source=source, target=target,
                     reaction=reaction)


# the optimizer controls of every sweep below
STUDY_OPTIMIZER = OptimizerConfig(tolerance=1e-11, max_iterations=400)


def small_config(**kw):
    defaults = dict(horizons=(2.0, 3.0, 4.0, 5.0), reference_horizon=10.0)
    defaults.update(kw)
    return HorizonStudyConfig(**defaults)


@pytest.fixture(scope="module")
def small_report():
    return run_horizon_study(study_spec(), small_config(), STUDY_OPTIMIZER)


class TestHorizonStudy:
    def test_errors_decay_and_monotone(self, small_report):
        errs = [r.control_error for r in small_report.records]
        assert all(e >= 0 for e in errs)
        assert small_report.monotone_ok
        assert errs[-1] < errs[0]

    def test_rate_within_hypotheses_passes(self, small_report):
        assert small_report.rate_status == "pass"
        assert small_report.slope <= -0.35

    def test_cost_never_exceeds_truncated_reference(self, small_report):
        assert small_report.cost_check_ok
        assert all(r.cost_gap <= 1e-10 for r in small_report.records)

    def test_bound_terms_dominate_with_compact_data(self, small_report):
        for r in small_report.records:
            assert r.bound_target_tail == 0.0
            assert r.bound_source_tail == 0.0
            assert r.tail_dominated
            assert r.bound_total >= r.control_error / small_report.bound_constant \
                - 1e-12

    def test_records_sorted_by_horizon(self, small_report):
        hs = [r.horizon for r in small_report.records]
        assert hs == sorted(hs)

    def test_state_error_fits(self, small_report):
        bounds = check_state_error_bounds(small_report, study_spec())
        assert 0.8 <= bounds.energy_fit.exponent <= 1.2
        assert bounds.sup_fit.exponent >= bounds.sup_fit.predicted_exponent - 1e-12
        assert bounds.passed

    def test_reference_self_error_is_zero(self):
        spec = study_spec()
        ref_spec = spec.with_horizon(10.0)
        u_ref, _ = ho.optimize(ref_spec, OptimizerConfig(tolerance=1e-11))
        gap = ho.Trajectory(ref_spec.grid, u_ref.values - u_ref.values, "control")
        assert weighted_l2_norm(gap, spec.discounts.control_rate,
                                spec.operators.control_weights) == 0.0

    def test_outside_hypotheses_flagged(self):
        spec = study_spec(control_rate=0.34, aux_rate=0.325)
        report = run_horizon_study(spec, small_config(horizons=(2.0, 3.0, 4.0)),
                                   STUDY_OPTIMIZER)
        assert report.rate_status == "outside_hypotheses"

    def test_zero_extension_drops_offset_term(self):
        spec = study_spec()
        cfg_ref = small_config(horizons=(2.0, 3.0))
        cfg_zero = small_config(horizons=(2.0, 3.0), extension="zero")
        rep_ref = run_horizon_study(spec, cfg_ref, STUDY_OPTIMIZER)
        rep_zero = run_horizon_study(spec, cfg_zero, STUDY_OPTIMIZER)
        for a, b in zip(rep_ref.records, rep_zero.records):
            offset = np.exp(-0.5 * spec.discounts.state_rate * a.horizon)
            assert a.bound_terminal - b.bound_terminal == pytest.approx(offset, rel=1e-9)

    def test_warm_start_matches_cold_start_on_smallest_horizon(self):
        spec = study_spec()
        tol = 1e-11
        sub = spec.with_horizon(2.0)
        ref_spec = spec.with_horizon(10.0)
        u_ref, _ = ho.optimize(ref_spec, OptimizerConfig(tolerance=tol))
        warm = ho.Trajectory(sub.grid, u_ref.values[: sub.grid.n_steps + 1].copy(),
                             "control")
        u_warm, _ = ho.optimize(sub, OptimizerConfig(tolerance=tol), start=warm)
        u_cold, _ = ho.optimize(sub, OptimizerConfig(tolerance=tol))
        gap = ho.Trajectory(sub.grid, u_warm.values - u_cold.values, "control")
        err = weighted_l2_norm(gap, spec.discounts.control_rate,
                               spec.operators.control_weights)
        assert err <= 10 * tol

    def test_warm_start_reuses_the_truncated_reference_state(self, monkeypatch):
        # every sub-horizon's optimize starts from the truncated reference
        # state instead of solving for it: one forward solve fewer per
        # horizon, and the same runs as without it
        spec = study_spec()
        config = small_config(horizons=(2.0, 3.0), reference_horizon=6.0)
        solves, runs = [], []
        forward, run = optimizer.solve_forward, optimizer.optimize

        def counted(spec, control):
            solves.append(control)
            return forward(spec, control)

        def recording(spec, config, start=None, state=None):
            runs.append((spec, start, run(spec, config, start=start, state=state)))
            return runs[-1][2]

        monkeypatch.setattr("horizonopt.optimizer.solve_forward", counted)
        monkeypatch.setattr("horizonopt.horizon.optimize", recording)
        run_horizon_study(spec, config, STUDY_OPTIMIZER)
        in_study = len(solves)
        solves.clear()
        for sub, start, (u, report) in runs:
            u_own, report_own = run(sub, STUDY_OPTIMIZER, start=start)
            assert np.array_equal(u.values, u_own.values)
            assert report.history == report_own.history
        assert len(runs) == 1 + len(config.horizons)
        assert in_study == len(solves) - len(config.horizons)

    @pytest.mark.parametrize("controls", [None, STUDY_OPTIMIZER], ids=["default", "given"])
    def test_every_solve_takes_the_given_optimizer_controls(self, monkeypatch, controls):
        # the study's one optimizer argument reaches the reference solve and
        # every sub-horizon solve; left out, optimize applies its own default
        seen = []

        def recording(spec, config, start=None, state=None):
            seen.append(config)
            return optimizer.optimize(spec, config, start=start, state=state)

        monkeypatch.setattr("horizonopt.horizon.optimize", recording)
        config = small_config(horizons=(2.0, 3.0), reference_horizon=6.0)
        run_horizon_study(study_spec(), config, *(() if controls is None else (controls,)))
        assert len(seen) == 3 and all(c is controls for c in seen)

    def test_bound_constant_stable_across_data_seeds(self):
        constants = []
        for amp in (1.5, 2.0, 3.0):
            rep = run_horizon_study(study_spec(amplitude=amp),
                                    small_config(horizons=(2.0, 3.0, 4.0)), STUDY_OPTIMIZER)
            constants.append(rep.bound_constant)
        assert max(constants) <= 3.0 * min(constants), constants


class TestConfigValidation:
    def test_duplicate_horizons_rejected(self):
        with pytest.raises(ValueError):
            HorizonStudyConfig(horizons=(2.0, 2.0), reference_horizon=5.0)

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="at least one horizon is needed"):
            HorizonStudyConfig(horizons=(), reference_horizon=5.0)

    def test_reference_must_exceed_sweep(self):
        with pytest.raises(ValueError):
            HorizonStudyConfig(horizons=(2.0, 4.0), reference_horizon=4.0)

    def test_default_reference_is_twice_largest(self):
        cfg = HorizonStudyConfig(horizons=(2.0, 4.0))
        assert cfg.reference_horizon == 8.0
        given = HorizonStudyConfig(horizons=(4.0, 2.0), reference_horizon=5)
        assert given.reference_horizon == 5.0 and isinstance(given.reference_horizon, float)

    def test_non_multiple_horizon_rejected_at_run(self):
        spec = study_spec()
        cfg = HorizonStudyConfig(horizons=(2.03,), reference_horizon=6.0)
        with pytest.raises(ValueError):
            run_horizon_study(spec, cfg)

    def test_too_few_horizons_for_state_fits(self, small_report):
        import dataclasses
        short = dataclasses.replace(small_report,
                                    records=small_report.records[:2])
        with pytest.raises(ValueError):
            check_state_error_bounds(short, study_spec())


def test_degenerate_all_zero_sweep_trivially_passes():
    from horizonopt.horizon import HorizonRecord, HorizonStudyReport
    records = [HorizonRecord(horizon=float(h), control_error=0.0,
                             state_error_energy=0.0, state_error_sup=0.0,
                             bound_terminal=1.0, bound_target_tail=0.0,
                             bound_source_tail=0.0, cost_optimal=1.0,
                             cost_reference=1.0, tail_dominated=True,
                             iterations=0) for h in (2, 3, 4)]
    report = HorizonStudyReport(records=records, reference_horizon=8.0,
                                extension="reference", slope=0.0, intercept=0.0,
                                rate_status="degenerate", monotone_ok=True,
                                cost_check_ok=True, bound_constant=0.0,
                                warnings=[], converged=True)
    bounds = check_state_error_bounds(report, study_spec())
    assert bounds.passed and bounds.trivial
