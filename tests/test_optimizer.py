from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import horizonopt as ho
from horizonopt import optimizer, solvers
from horizonopt.admissible import check_projection_formulas
from horizonopt.admissible import project_values
from horizonopt.cli import main
from horizonopt.optimizer import OptimizerConfig, optimize, verify_growth
from horizonopt.spaces import weighted_l2_norm

from conftest import admissible_contains, make_spec, random_control, rectangle_spec
from oracles import dense_lq_solution, reference_growth

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def lq_spec(n_nodes=10, horizon=1.0, step=0.05, control_weight=1.0,
            radius=50.0):
    rng = np.random.default_rng(77)
    n = int(round(horizon / step))
    x = np.linspace(0, 1, n_nodes)
    target = 0.6 * np.outer(np.exp(-step * np.arange(n + 1)), np.cos(np.pi * x))
    return make_spec(n_nodes=n_nodes, horizon=horizon, step=step,
                     nonlinearity="zero", control_weight=control_weight,
                     admissible=ho.AdmissibleSet("ball", radius=radius),
                     initial=0.3 * rng.standard_normal(n_nodes), target=target)


class TestOptimize:
    def test_huge_weight_drives_control_to_zero(self):
        spec = make_spec(nonlinearity="zero", control_weight=1e8,
                         target=0.2 * np.ones((21, 21)))
        u, report = optimize(spec, OptimizerConfig(tolerance=1e-11))
        assert report.converged
        assert np.abs(u.values).max() < 1e-6
        assert report.cost.control < 1e-8 * report.cost.tracking

    def test_matches_dense_saddle_point_solve(self):
        spec = lq_spec(n_nodes=10, horizon=1.0, step=0.05)
        u, report = optimize(spec, OptimizerConfig(tolerance=1e-11))
        assert report.converged
        oracle = dense_lq_solution(
            spec.operators, spec.grid, spec.discounts.state_rate,
            spec.discounts.control_rate, spec.control_weight,
            spec.initial_values, spec.source_samples, spec.target_samples)
        gap = ho.Trajectory(spec.grid, u.values - oracle, "control")
        err = weighted_l2_norm(gap, spec.discounts.control_rate,
                               spec.operators.control_weights)
        assert err <= 1e-6, err

    def test_box_optimum_satisfies_projection_formula(self):
        spec = make_spec(nonlinearity="cubic", initial=0.3 * np.ones(21),
                         target=0.5 * np.ones((21, 21)),
                         admissible=ho.AdmissibleSet("box", lower=-0.2, upper=0.2))
        u, report = optimize(spec, OptimizerConfig(tolerance=1e-9))
        assert report.converged
        state = ho.solve_forward(spec, u)
        adjoint = ho.solve_adjoint(spec, state)
        formulas = check_projection_formulas(spec, u, adjoint)
        assert formulas.max_residual <= 10 * 1e-9

    def test_iterates_admissible_and_cost_monotone(self):
        spec = make_spec(nonlinearity="cubic", initial=0.4 * np.ones(21),
                         target=0.6 * np.ones((21, 21)),
                         admissible=ho.AdmissibleSet("ball", radius=0.3))
        u, report = optimize(spec, OptimizerConfig(tolerance=1e-9))
        assert admissible_contains(spec.admissible, u, spec.operators.control_weights)
        costs = [h["cost"] for h in report.history]
        assert all(c2 <= c1 + 1e-15 for c1, c2 in zip(costs, costs[1:]))
        assert report.converged and report.residual <= 1e-9

    def test_determinism_bitwise(self):
        spec = make_spec(nonlinearity="cubic", initial=0.3 * np.ones(21),
                         target=0.4 * np.ones((21, 21)))
        cfg = OptimizerConfig(tolerance=1e-10)
        u1, r1 = optimize(spec, cfg)
        u2, r2 = optimize(spec, cfg)
        assert np.array_equal(u1.values, u2.values)
        h1 = [(h["cost"], h["residual"], h["step"]) for h in r1.history]
        h2 = [(h["cost"], h["residual"], h["step"]) for h in r2.history]
        assert h1 == h2

    def test_warm_start_agrees_with_cold_start(self):
        spec = lq_spec(n_nodes=12, horizon=0.8, step=0.05)
        tol = 1e-10
        u_cold, _ = optimize(spec, OptimizerConfig(tolerance=tol))
        warm = ho.Trajectory(spec.grid, 0.9 * u_cold.values, "control")
        u_warm, _ = optimize(spec, OptimizerConfig(tolerance=tol), start=warm)
        gap = ho.Trajectory(spec.grid, u_cold.values - u_warm.values, "control")
        err = weighted_l2_norm(gap, spec.discounts.control_rate,
                               spec.operators.control_weights)
        assert err <= 10 * tol

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_report_carries_final_state_and_adjoint(self, dimension, monkeypatch):
        # both runs reject trials (1D: 37 forward solves in 20 iterations;
        # 2D: 35 in 14), and in 2D every state whose adjoint is made still
        # owns its factorizations: every adjoint made with them is the one
        # made around the bare state; the returned 2D state keeps them
        handed = []

        def checked_adjoint(spec, state):
            handed.append(state.factors is not None)
            adjoint = ho.solve_adjoint(spec, state)
            bare = ho.Trajectory(state.grid, state.values, "state")
            assert np.array_equal(adjoint.values, ho.solve_adjoint(spec, bare).values)
            return adjoint

        monkeypatch.setattr("horizonopt.optimizer.solve_adjoint", checked_adjoint)
        if dimension == 1:
            spec = make_spec(nonlinearity="cubic", initial=0.3 * np.ones(21),
                             target=0.4 * np.ones((21, 21)))
        else:
            spec = rectangle_spec((6, 6), horizon=1.0)
            nodes, n = spec.operators.n_nodes, spec.grid.n_steps
            spec = replace(spec, initial_state=0.3 * np.ones(nodes), control_weight=0.5,
                           target=0.4 * np.ones((n + 1, nodes)))
        spec = replace(spec, newton=ho.NewtonConfig(tolerance=1e-6))
        u, report = optimize(spec, OptimizerConfig(tolerance=1e-10))
        assert all(handed) if dimension == 2 else not any(handed)
        assert (report.state.factors is None) == (dimension == 1)
        state = ho.solve_forward(spec, u)
        assert np.array_equal(report.state.values, state.values)
        assert np.array_equal(report.adjoint.values, ho.solve_adjoint(spec, state).values)
        assert not {"state", "adjoint"} & set(report.to_dict())

    @staticmethod
    def counting_forward_solves(monkeypatch):
        solves, forward = [], solvers.solve_forward

        def counted(spec, control):
            solves.append(control)
            return forward(spec, control)

        monkeypatch.setattr("horizonopt.optimizer.solve_forward", counted)
        return solves

    @staticmethod
    def assert_same_run(got, expected):
        (u, report), (u_ref, report_ref) = got, expected
        assert np.array_equal(u.values, u_ref.values)
        assert np.array_equal(report.state.values, report_ref.state.values)
        assert np.array_equal(report.adjoint.values, report_ref.adjoint.values)
        assert report.history == report_ref.history

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_given_state_at_an_unchanged_start_replaces_its_solve(self, dimension,
                                                                   monkeypatch):
        spec = (make_spec(initial=0.3 * np.ones(21), target=0.4 * np.ones((21, 21)))
                if dimension == 1 else rectangle_spec((5, 4), seed=1))
        start = random_control(spec, seed=3, scale=0.1)
        assert np.array_equal(project_values(spec.admissible, start.values,
                                             spec.operators.control_weights), start.values)
        config = OptimizerConfig(tolerance=1e-10)
        solves = self.counting_forward_solves(monkeypatch)
        expected = optimize(spec, config, start=start)
        solved = len(solves)
        solves.clear()
        state = ho.Trajectory(spec.grid, ho.solve_forward(spec, start).values, "state")
        got = optimize(spec, config, start=start, state=state)
        assert len(solves) == solved - 1
        self.assert_same_run(got, expected)

    def test_given_state_is_ignored_when_projection_moves_the_start(self, monkeypatch):
        # a ball start outside the ball: its projection differs, so the
        # state given for it is not the state at the projected start
        spec = make_spec(initial=0.3 * np.ones(21), target=0.4 * np.ones((21, 21)),
                         admissible=ho.AdmissibleSet("ball", radius=0.5))
        start = random_control(spec, seed=3, scale=2.0)
        assert not np.array_equal(project_values(spec.admissible, start.values,
                                                 spec.operators.control_weights),
                                  start.values)
        config = OptimizerConfig(tolerance=1e-10)
        expected = optimize(spec, config, start=start)
        solves = self.counting_forward_solves(monkeypatch)
        got = optimize(spec, config, start=start, state=ho.solve_forward(spec, start))
        # the counted wrapper sees the projected start first
        assert not np.array_equal(solves[0].values, start.values)
        self.assert_same_run(got, expected)

    def test_given_state_without_start_is_ignored(self):
        spec = make_spec(initial=0.3 * np.ones(21), target=0.4 * np.ones((21, 21)))
        config = OptimizerConfig(tolerance=1e-10)
        stale = ho.solve_forward(spec, random_control(spec, seed=3, scale=0.1))
        self.assert_same_run(optimize(spec, config, state=stale), optimize(spec, config))

    def test_box_initializer_is_clamp_of_zero(self):
        spec = make_spec(nonlinearity="zero",
                         admissible=ho.AdmissibleSet("box", lower=0.3, upper=1.0),
                         control_weight=1e9)
        u, _ = optimize(spec, OptimizerConfig(tolerance=1e-2, max_iterations=1))
        assert np.all(u.values >= 0.3 - 1e-14)


class TestVerifyGrowth:
    def test_lq_growth_bounded_below_by_control_weight(self):
        spec = lq_spec(n_nodes=10, horizon=1.0, step=0.05, control_weight=0.8)
        u, report = optimize(spec, OptimizerConfig(tolerance=1e-11))
        assert report.converged
        growth = verify_growth(spec, u, report.state, radius=0.2, samples=40, seed=9)
        assert growth.kappa >= 0.8 * spec.control_weight, growth.kappa

    def test_given_state_matches_solving_for_it(self):
        # the optimizer's returned state gives the probe of a fresh solve
        spec = lq_spec(n_nodes=10, horizon=1.0, step=0.05)
        u, report = optimize(spec, OptimizerConfig(tolerance=1e-10))
        solved = verify_growth(spec, u, ho.solve_forward(spec, u), radius=0.2, samples=10,
                               seed=4)
        given = verify_growth(spec, u, report.state, radius=0.2, samples=10, seed=4)
        assert given.to_dict() == solved.to_dict()

    def test_zero_radius_rejected(self):
        spec = lq_spec()
        u, report = optimize(spec, OptimizerConfig(tolerance=1e-8))
        with pytest.raises(ValueError):
            verify_growth(spec, u, report.state, radius=0.0, samples=5)

    def test_estimate_stable_under_doubling_samples(self):
        spec = lq_spec(n_nodes=10, horizon=0.8, step=0.05)
        u, report = optimize(spec, OptimizerConfig(tolerance=1e-10))
        g50 = verify_growth(spec, u, report.state, radius=0.15, samples=50, seed=3)
        g100 = verify_growth(spec, u, report.state, radius=0.15, samples=100, seed=3)
        assert abs(g100.kappa - g50.kappa) <= 0.2 * abs(g50.kappa)


class TestGrowthMatchesPerSampleReference:
    """The batched probe against the per-sample loop of oracles.py, whose
    candidates follow the rule of a march that keeps no factorizations: the
    same kappa, margins and distances, bit for bit."""

    @staticmethod
    def admissible_control(spec, seed):
        u = random_control(spec, seed=seed, scale=0.3)
        return ho.Trajectory(spec.grid, project_values(spec.admissible, u.values,
                                                       spec.operators.control_weights),
                             "control")

    @pytest.mark.parametrize("case", ["ball_1d", "box_1d", "ball_2d"])
    def test_batched_probe_is_bitwise_reference(self, case):
        if case == "ball_2d":
            spec = rectangle_spec((5, 4), seed=2)
        else:
            admissible = (ho.AdmissibleSet("ball", radius=0.6) if case == "ball_1d"
                          else ho.AdmissibleSet("box", lower=-0.4, upper=0.5))
            spec = make_spec(admissible=admissible, target=0.5 * np.ones((21, 21)))
        u = self.admissible_control(spec, seed=5)
        growth = verify_growth(spec, u, ho.solve_forward(spec, u), radius=0.3, samples=12,
                               seed=6)
        kappa, margins, distances = reference_growth(spec, spec.step_operator, u, radius=0.3,
                                                     samples=12, seed=6, carry=solvers.CARRY)
        assert len(margins) == 12
        assert (growth.kappa, growth.margins, growth.distances) == (kappa, margins, distances)

    @staticmethod
    def assert_one_march_is_bitwise_reference(monkeypatch, spec, samples):
        # the growth probe, which solves only its candidates, marches them
        # all at once, and its kappa, margins and distances are the reference's
        u = TestGrowthMatchesPerSampleReference.admissible_control(spec, seed=5)
        state = ho.solve_forward(spec, u)
        sizes, march = [], solvers._newton_march

        def recording(spec, controls, kept):
            sizes.append(len(controls))
            return march(spec, controls, kept)

        monkeypatch.setattr(solvers, "_newton_march", recording)
        growth = verify_growth(spec, u, state, radius=0.3, samples=samples, seed=6)
        assert sizes == [samples]
        kappa, margins, distances = reference_growth(spec, spec.step_operator, u, radius=0.3,
                                                     samples=samples, seed=6,
                                                     carry=solvers.CARRY)
        assert len(margins) == samples
        assert (growth.kappa, growth.margins, growth.distances) == (kappa, margins, distances)

    def test_many_samples_are_one_bitwise_march(self, monkeypatch):
        spec = make_spec(target=0.5 * np.ones((21, 21)))
        self.assert_one_march_is_bitwise_reference(monkeypatch, spec, 131)

    def test_2d_many_samples_are_one_bitwise_march(self, monkeypatch):
        # every sample carries its own factorizations across the time steps
        self.assert_one_march_is_bitwise_reference(monkeypatch, rectangle_spec((5, 4), seed=2),
                                                   70)

    def test_all_samples_skipped_raises_without_a_solve(self, monkeypatch):
        # a box of width 1e-20 projects every candidate to within 1e-14 of u*
        spec = make_spec(admissible=ho.AdmissibleSet("box", lower=0.0, upper=1e-20))
        u = spec.zero_control()
        state = ho.solve_forward(spec, u)

        def no_solve(*args, **kwargs):
            raise AssertionError("solve_forward called")

        monkeypatch.setattr("horizonopt.optimizer.solve_forward", no_solve)
        with pytest.raises(ValueError, match="growth probe produced no usable samples"):
            verify_growth(spec, u, state, radius=0.1, samples=5)


class TestFactorizationCounts:
    """``_StepSolver.factor`` calls, counted by wrapping them; in 2D each call
    factors one block."""

    @staticmethod
    def counting_factor(monkeypatch, spec):
        blocks, stepper_type = [], type(spec.step_operator)
        factor = stepper_type.factor

        def counted(self, d):
            blocks.append(d)
            return factor(self, d)

        monkeypatch.setattr(stepper_type, "factor", counted)
        return blocks

    def test_2d_growth_probe_factors_a_few_blocks_per_sample(self, monkeypatch):
        # 12 samples over 20 time steps: refactoring at every step would make
        # 240 blocks, carrying factorizations across steps makes 24; the bound
        # is 3 blocks per sample whatever the number of steps
        spec = rectangle_spec((5, 4), seed=2, horizon=1.0)
        u = TestGrowthMatchesPerSampleReference.admissible_control(spec, seed=5)
        state = ho.solve_forward(spec, u)
        blocks = self.counting_factor(monkeypatch, spec)
        growth = verify_growth(spec, u, state, radius=0.3, samples=12, seed=6)
        assert len(growth.margins) == 12 and spec.grid.n_steps == 20
        assert len(blocks) <= 3 * len(growth.margins)

    def test_lagrangian_form_around_the_returned_2d_state_reuses_its_factors(self,
                                                                             monkeypatch):
        # the optimizer's returned state keeps the factorizations of its
        # forward solve, and its last adjoint march fills the slot of S_N,
        # which no forward step makes: the batched march of the form factors
        # nothing, where a bare copy factors all n steps
        spec = replace(rectangle_spec((5, 4), seed=2), admissible=ho.AdmissibleSet("ball",
                                                                                  radius=0.5))
        u, report = optimize(spec, OptimizerConfig(tolerance=1e-10))
        assert report.converged
        multiplier = ho.multiplier_and_cone(spec, u, report.adjoint)
        directions = [random_control(spec, seed=30 + b) for b in range(3)]
        bare = ho.Trajectory(spec.grid, report.state.values, "state")
        models = [ho.SecondOrderModel(spec, y, report.adjoint) for y in (report.state, bare)]
        blocks = self.counting_factor(monkeypatch, spec)
        forms = models[0].lagrangian_form(directions, multiplier)
        n = spec.grid.n_steps
        last = spec.step_operator.shifted(spec.nonlinearity.derivative(report.state.values[n]))
        assert not blocks and np.array_equal(report.state.factors[n][0], last)
        assert forms == models[1].lagrangian_form(directions, multiplier)
        assert len(blocks) == n

    def test_a_small_2d_socheck_makes_a_pinned_number_of_factorizations_and_solves(
            self, monkeypatch, tmp_path):
        # the 2D step kernels may get faster, but not by taking another
        # Newton path: one 8x8 socheck's band Cholesky factorizations and
        # step solves, counted per call, are pinned
        stepper_type, calls = ho.problem._StepSolver, {"factor": 0, "solve": 0}
        for name in calls:
            def counted(self, *args, name=name, method=getattr(stepper_type, name)):
                calls[name] += self.k > 1
                return method(self, *args)
            monkeypatch.setattr(stepper_type, name, counted)
        assert main(["socheck", "--config", str(CONFIG_DIR / "ball_cubic.json"),
                     "--set", "mesh.dimension=2", "--set", "mesh.shape=[8,8]",
                     "--set", "mesh.control.box=[[0.2,0.8],[0.2,0.8]]",
                     "--samples", "4", "--directions", "2", "--out", str(tmp_path / "so")]) == 0
        assert calls == {"factor": 601, "solve": 2604}


class TestConfigValidation:
    @pytest.mark.parametrize("bad", [{"tolerance": -1.0}, {"max_iterations": 0},
                                     {"min_step": 0.0}])
    def test_bad_parameters_rejected(self, bad):
        with pytest.raises(ValueError):
            OptimizerConfig(**bad)

    @pytest.mark.parametrize("retired", ["initial_step", "armijo_slope", "backtrack"])
    def test_line_search_constants_are_not_settings(self, retired):
        # the first trial step is always 1/control_weight, and the Armijo
        # slope and the backtracking factor are module constants
        with pytest.raises(TypeError):
            OptimizerConfig(**{retired: 0.5})
        assert (optimizer.ARMIJO_SLOPE, optimizer.BACKTRACK) == (1e-4, 0.5)
