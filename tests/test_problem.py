from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import horizonopt as ho
from horizonopt.admissible import project_values
from horizonopt.config import apply_overrides, build_problem
from horizonopt.mesh import MeshError
from horizonopt.objective import gradient_with_state
from horizonopt.problem import default_aux_rate
from horizonopt.spaces import weighted_inner, weighted_l2_norm

from conftest import make_spec, random_control, rectangle_spec
from oracles import discounted_power_sum

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def ops_for(diffusion=1.0, reaction=0.0, n=21):
    mesh = ho.interval_mesh(1.0, n, control=(0.2, 0.8))
    return mesh, ho.assemble_operators(mesh, ho.EllipticForm(diffusion, reaction))


class TestAssembly:
    def test_stiffness_kernel_contains_constants(self):
        _, ops = ops_for()
        v = np.ones(ops.n_nodes)
        assert np.abs(ops.stiffness @ v).max() < 1e-13

    def test_lumped_mass_sums_to_domain_measure(self):
        _, ops = ops_for()
        assert ops.lumped_mass.sum() == pytest.approx(1.0, abs=1e-14)

    def test_reaction_energy_of_constant_matches_exact_integral(self):
        # two-element mesh, reaction 1, diffusion 1, y = c: the quadratic
        # form must equal the exact integral of c^2 over the domain
        mesh = ho.interval_mesh(1.0, 3, control=(0.0, 1.0))
        ops = ho.assemble_operators(mesh, ho.EllipticForm(1.0, 1.0))
        c = 1.7
        y = np.full(3, c)
        assert y @ (ops.stiffness @ y) == pytest.approx(c**2 * 1.0, rel=1e-14)

    def test_matrices_symmetric_and_mass_positive(self):
        _, ops = ops_for(diffusion=2.0, reaction=0.5)
        k = ops.stiffness.toarray()
        m = ops.mass.toarray()
        assert np.abs(k - k.T).max() < 1e-14
        assert np.abs(m - m.T).max() < 1e-14
        rng = np.random.default_rng(3)
        for _ in range(5):
            v = rng.standard_normal(ops.n_nodes)
            assert v @ (m @ v) > 0
            assert v @ (k @ v) >= -1e-13

    def test_consistent_mass_exact_for_linear_fields(self):
        mesh = ho.interval_mesh(2.0, 17, control=(0.5, 1.5))
        ops = ho.assemble_operators(mesh, ho.EllipticForm())
        x = mesh.coords[:, 0]
        y = 3.0 * x + 1.0
        exact = 9.0 * 8.0 / 3.0 + 2 * 3.0 * 4.0 / 2.0 + 2.0  # int (3x+1)^2 on [0,2]
        assert y @ (ops.mass @ y) == pytest.approx(exact, rel=1e-13)

    def test_control_weights_cover_control_subdomain(self):
        _, ops = ops_for()
        assert ops.control_weights.sum() == pytest.approx(0.6, abs=1e-12)

    def test_degenerate_mesh_raises(self):
        with pytest.raises(MeshError):
            ho.SpatialMesh(1, np.array([[0.0], [0.0], [1.0]]),
                           np.array([[0, 1], [1, 2]]),
                           np.array([True, True, True]))

    def test_2d_assembly_kernel_and_volume(self):
        mesh = ho.rectangle_mesh((1.0, 2.0), (4, 5), control=((0.2, 0.8), (0.5, 1.5)))
        ops = ho.assemble_operators(mesh, ho.EllipticForm())
        v = np.ones(ops.n_nodes)
        assert np.abs(ops.stiffness @ v).max() < 1e-12
        assert ops.lumped_mass.sum() == pytest.approx(2.0, rel=1e-12)
        k = ops.stiffness.toarray()
        assert np.abs(k - k.T).max() < 1e-13


class TestNonlinearityCatalog:
    def test_cubic_values(self):
        f = ho.builtin_nonlinearities()["cubic"]
        assert f.value(2.0) == pytest.approx(8.0)
        assert f.derivative(2.0) == pytest.approx(12.0)
        assert f.second_derivative(2.0) == pytest.approx(12.0)
        assert (f.growth_exponent, f.min_slope, f.bound_feedback) == (2.0, 0.0, 0.0)

    def test_exponential_at_origin(self):
        f = ho.builtin_nonlinearities()["exponential"]
        assert float(f.value(0.0)) == pytest.approx(0.0)
        assert float(f.derivative(0.0)) == pytest.approx(1.0)
        assert float(f.second_derivative(0.0)) == pytest.approx(1.0)
        assert (f.growth_exponent, f.min_slope, f.bound_feedback) == (0.0, 0.0, 1.0)

    def test_cubic_minus_linear_slope_minimum(self):
        f = ho.builtin_nonlinearities()["cubic_minus_linear"]
        s = np.linspace(-5, 5, 10001)
        assert f.derivative(s).min() == pytest.approx(-1.0, abs=1e-6)
        assert f.min_slope == -1.0

    def test_catalog_passes_declared_bounds(self):
        for name in ho.builtin_nonlinearities():
            spec = make_spec(nonlinearity=name, state_rate=11.0 if name ==
                             "cubic_minus_linear" else 1.0)
            report = ho.validate_assumptions(spec)
            failed = [i.key for i in report.failures()]
            assert report.passed, (name, failed)

    def test_linear_nonlinearity_rejects_negative_coefficient(self):
        with pytest.raises(ValueError):
            ho.linear_nonlinearity(-1.0)


class TestValidation:
    def test_cubic_with_moderate_rates_passes_including_second_order(self):
        spec = make_spec(nonlinearity="cubic", state_rate=1.0, control_rate=0.5,
                         aux_rate=0.1, enforce_second_order=True)
        report = ho.validate_assumptions(spec)
        assert report.passed

    def test_state_discount_below_threshold_fails(self):
        # slope bound -1, growth exponent 2: the state discount must exceed 10
        spec = make_spec(nonlinearity="cubic_minus_linear", state_rate=5.0,
                         aux_rate=2.2)
        report = ho.validate_assumptions(spec)
        assert not report.passed
        keys = [i.key for i in report.failures()]
        assert "state_discount_lower_bound" in keys

    def test_aux_rate_at_window_boundary_fails(self):
        spec = make_spec(nonlinearity="cubic", state_rate=1.0, aux_rate=1.0 / 5.0)
        report = ho.validate_assumptions(spec)
        assert any(i.key == "aux_rate_window" for i in report.failures())

    def test_zero_control_discount_fails_with_cited_inequality(self):
        spec = make_spec(control_rate=0.0)
        report = ho.validate_assumptions(spec)
        bad = [i for i in report.failures() if i.key == "control_discount_positive"]
        assert bad and "control_discount > 0" in bad[0].requirement

    @pytest.mark.parametrize("shape", [(4, 4), (5, 7), (6, 6)])
    def test_2d_test_problem_is_admitted(self, shape):
        report = ho.validate_assumptions(rectangle_spec(shape))
        assert report.passed, [str(i) for i in report.failures()]

    def test_second_order_margin_only_checked_when_flagged(self):
        spec = make_spec(state_rate=1.0, control_rate=1.2)
        assert ho.validate_assumptions(spec).passed
        flagged = make_spec(state_rate=1.0, control_rate=1.2,
                            enforce_second_order=True)
        report = ho.validate_assumptions(flagged)
        assert any(i.key == "second_order_margin" for i in report.failures())

    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("step, passes", [(1.0, False), (0.5, True)])
    def test_discrete_step_must_be_monotone(self, dimension, step, passes):
        # f' >= -1: at dt = 1, M/dt + K - M_L annihilates constants (M 1 = M_L 1,
        # K 1 = 0), so the implicit step has no unique solution
        overrides = ["nonlinearity.name=cubic_minus_linear", "discounts.state_discount=12",
                     "discounts.control_discount=0.5", "discounts.aux_rate=2.2",
                     f"time.step={step}"]
        if dimension == 2:
            overrides += ["mesh.dimension=2", "mesh.shape=[16,16]",
                          "mesh.control.box=[[0.2,0.8],[0.2,0.8]]"]
        cfg = apply_overrides(ho.load_config(CONFIG_DIR / "ball_cubic.json"), overrides)
        report = ho.validate_assumptions(ho.build_problem(cfg))
        assert report.passed is passes
        assert [i.key for i in report.failures()] == ([] if passes
                                                      else ["discrete_step_monotone"])

    def test_assembly_failure_is_reported_not_raised(self):
        report = ho.validate_assumptions(make_spec(diffusion=-1.0))
        keys = [i.key for i in report.failures()]
        assert "diffusion_ellipticity" in keys and "discrete_step_monotone" in keys

    def test_validation_is_pure(self):
        spec = make_spec()
        r1 = ho.validate_assumptions(spec)
        r2 = ho.validate_assumptions(spec)
        assert r1.to_dict() == r2.to_dict()

    def test_default_aux_rate_is_interior(self):
        for q, ms, rate in [(2.0, 0.0, 1.0), (2.0, -1.0, 12.0), (0.0, 0.0, 0.7)]:
            mid = default_aux_rate(rate, q, ms)
            assert -2.0 * ms < mid < rate / (q + 3.0)


class TestProblemSpec:
    def test_with_horizon_and_replace_keep_newton(self):
        loose = ho.NewtonConfig(tolerance=1e-6, max_iterations=3)
        spec = replace(make_spec(), newton=loose)
        assert spec.with_horizon(3.0).newton is loose
        assert replace(spec, control_weight=2.0).newton is loose
        assert make_spec().newton == ho.NewtonConfig()

    def test_document_newton_settings_reach_the_problem(self):
        cfg = apply_overrides(ho.load_config(CONFIG_DIR / "ball_cubic.json"),
                              ["optimizer.newton.tolerance=1e-10",
                               "optimizer.newton.max_iterations=7"])
        assert build_problem(cfg).newton == ho.NewtonConfig(tolerance=1e-10,
                                                            max_iterations=7)

    def test_replace_assembles_afresh_and_with_horizon_hands_on(self):
        # operators assembled for one mesh and elliptic form never reach a
        # spec that replace() gives another one
        cfg = ho.load_config(CONFIG_DIR / "ball_cubic.json")
        spec = build_problem(cfg)
        u = spec.zero_control()
        state = ho.solve_forward(spec, u).values
        wider = replace(spec, operator=ho.EllipticForm(diffusion=2.0))
        fresh = build_problem(apply_overrides(cfg, ["operator.diffusion=2.0"]))
        assert np.array_equal(ho.solve_forward(wider, u).values,
                              ho.solve_forward(fresh, u).values)
        assert not np.array_equal(ho.solve_forward(wider, u).values, state)
        coarse = replace(spec, mesh=ho.interval_mesh(1.0, 21, control=(0.2, 0.8)))
        assert coarse.step_operator.ab.shape == (2, 21)
        assert ho.solve_forward(coarse, coarse.zero_control()).values.shape == (41, 21)
        sub = spec.with_horizon(1.0)
        assert sub.operators is spec.operators and sub.step_operator is spec.step_operator

    def test_assembled_operators_are_not_constructor_parameters(self):
        spec = make_spec()
        given = {f.name: getattr(spec, f.name) for f in fields(spec) if f.name[0] != "_"}
        ho.ProblemSpec(**given)
        for name in ("_operators", "_step_operator"):
            with pytest.raises(TypeError):
                ho.ProblemSpec(**given, **{name: None})

    def test_initial_state_samples_as_a_field_at_time_zero(self):
        spec = make_spec(nonlinearity="zero", initial=0.25)
        assert np.array_equal(spec.initial_values, np.full(21, 0.25))
        with pytest.raises(ValueError, match="initial state"):
            make_spec(initial=np.full((2, 21), 1.0)).initial_values
        with pytest.raises(ValueError, match="initial state contains non-finite"):
            make_spec(initial=np.full(21, np.inf)).initial_values


def test_discounted_sum_oracle_self_check():
    # closed-form geometric sum equals the brute-force loop
    from oracles import geometric_weight_sum
    brute = discounted_power_sum(0.7, 0.01, 300)
    assert geometric_weight_sum(0.7, 0.01, 300) == pytest.approx(brute, rel=1e-13)


class TestControlMetric:
    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("admissible", [ho.AdmissibleSet("ball", radius=0.2),
                                            ho.AdmissibleSet("box", lower=-0.3, upper=0.25)])
    @pytest.mark.parametrize("shorter", [False, True])
    def test_project_and_norm_are_bitwise_the_primitives(self, dimension, admissible, shorter):
        spec = make_spec() if dimension == 1 else rectangle_spec((4, 4))
        spec = replace(spec, admissible=admissible)
        if shorter:
            spec = spec.with_horizon(spec.grid.horizon / 2)
        vals = random_control(spec, seed=dimension).values
        w = spec.operators.control_weights
        projected = spec.project(vals)
        assert np.array_equal(projected, project_values(admissible, vals, w))
        assert not np.array_equal(projected, vals)
        for v in (vals, projected):
            assert spec.control_norm(v) == weighted_l2_norm(
                ho.Trajectory(spec.grid, v, "control"), spec.discounts.control_rate, w)
        trajectories = [ho.Trajectory(spec.grid, v, "control") for v in (vals, projected)]
        assert spec.control_inner(vals, projected) == weighted_inner(
            *trajectories, spec.discounts.control_rate, w)


def _multiplier():
    spec = make_spec(admissible=ho.AdmissibleSet("ball", radius=0.1))
    u = random_control(spec, seed=3)
    return ho.multiplier_and_cone(spec, u, gradient_with_state(spec, u)[2])


@pytest.mark.parametrize("build", [
    make_spec,
    lambda: make_spec().mesh,
    lambda: make_spec().operators,
    lambda: ho.EllipticForm(diffusion=np.full(10, 0.5)),
    _multiplier,
], ids=["ProblemSpec", "SpatialMesh", "Operators", "EllipticForm", "Multiplier"])
def test_equality_is_identity_and_a_bool(build):
    # elementwise equality of array fields has no single truth value
    a, b = build(), build()
    assert (a == b) is False and (a != b) is True and (a == a) is True
