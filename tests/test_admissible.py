import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import horizonopt as ho
from horizonopt.admissible import (check_projection_formulas, project_values,
                                   stationarity_residual)
from horizonopt.spaces import weighted_l2_norm

from conftest import admissible_contains, make_spec, random_control
from oracles import reference_projection_formulas


class TestProjection:
    def test_admissible_point_is_fixed(self):
        spec = make_spec(admissible=ho.AdmissibleSet("ball", radius=5.0))
        u = random_control(spec, seed=1, scale=0.1)
        p = project_values(spec.admissible, u.values, spec.operators.control_weights)
        assert np.array_equal(p, u.values)

    def test_ball_radial_scaling(self):
        spec = make_spec(admissible=ho.AdmissibleSet("ball", radius=1.0))
        w = spec.operators.control_weights
        rng = np.random.default_rng(2)
        vals = rng.standard_normal((spec.grid.n_steps + 1, spec.control_count))
        norms = np.sqrt(np.einsum("ij,j,ij->i", vals, w, vals))
        vals = 2.0 * vals / norms[:, None]  # every step at radius 2
        u = ho.Trajectory(spec.grid, vals, "control")
        p = project_values(spec.admissible, u.values, w)
        assert np.allclose(p, 0.5 * vals, rtol=1e-13)

    def test_box_clamp(self):
        spec = make_spec(admissible=ho.AdmissibleSet("box", lower=-1.0, upper=1.0))
        vals = np.full((spec.grid.n_steps + 1, spec.control_count), 3.0)
        p = project_values(spec.admissible, vals, spec.operators.control_weights)
        assert np.all(p == 1.0)

    def test_idempotent_and_nonexpansive(self):
        rng = np.random.default_rng(3)
        for kind in ("ball", "box"):
            adm = ho.AdmissibleSet(kind, radius=0.7, lower=-0.4, upper=0.6)
            spec = make_spec(admissible=adm)
            w = spec.operators.control_weights
            rate = spec.discounts.control_rate
            for _ in range(10):
                a = rng.standard_normal((spec.grid.n_steps + 1, spec.control_count))
                b = rng.standard_normal((spec.grid.n_steps + 1, spec.control_count))
                pa = project_values(adm, a, w)
                pb = project_values(adm, b, w)
                assert np.allclose(project_values(adm, pa, w), pa, atol=1e-14)
                gap_p = ho.Trajectory(spec.grid, pa - pb, "control")
                gap = ho.Trajectory(spec.grid, a - b, "control")
                assert weighted_l2_norm(gap_p, rate, w) <= \
                    weighted_l2_norm(gap, rate, w) + 1e-13

    @settings(max_examples=50)
    @given(kind=st.sampled_from(["ball", "box"]), seed=st.integers(0, 2**16),
           n_steps=st.integers(1, 12), width=st.integers(1, 8),
           spread=st.sampled_from([1e-3, 1.0, 1e3]))
    def test_idempotent_and_nonexpansive_with_random_weights(self, kind, seed, n_steps,
                                                             width, spread):
        # per step the ball projection is nonexpansive in the w-weighted
        # Euclidean norm and the box clamp in any diagonal one, so both are
        # nonexpansive in the time-discounted norm for any positive weights
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.05, 2.0, width)
        adm = ho.AdmissibleSet(kind, radius=rng.uniform(0.1, 2.0),
                               lower=-rng.uniform(0.1, 1.0), upper=rng.uniform(0.1, 1.0))
        grid = ho.TimeGrid(n_steps * 0.1, 0.1)
        a, b = spread * rng.standard_normal((2, n_steps + 1, width))
        pa, pb = project_values(adm, a, w), project_values(adm, b, w)
        assert np.allclose(project_values(adm, pa, w), pa, rtol=1e-13, atol=0.0)

        def norm(values):
            return weighted_l2_norm(ho.Trajectory(grid, values, "control"), 0.4, w)
        scale = norm(a) + norm(b)
        assert norm(pa - pb) <= norm(a - b) + 1e-13 * scale

    def test_projection_commutes_with_time_permutation(self):
        adm = ho.AdmissibleSet("ball", radius=0.5)
        spec = make_spec(admissible=adm)
        w = spec.operators.control_weights
        rng = np.random.default_rng(4)
        vals = rng.standard_normal((spec.grid.n_steps + 1, spec.control_count))
        perm = rng.permutation(spec.grid.n_steps + 1)
        direct = project_values(adm, vals, w)[perm]
        permuted = project_values(adm, vals[perm], w)
        assert np.array_equal(direct, permuted)

    def test_output_is_admissible(self):
        rng = np.random.default_rng(5)
        for kind in ("ball", "box"):
            adm = ho.AdmissibleSet(kind, radius=0.7, lower=-0.4, upper=0.6)
            spec = make_spec(admissible=adm)
            w = spec.operators.control_weights
            vals = 3.0 * rng.standard_normal((spec.grid.n_steps + 1,
                                              spec.control_count))
            p = ho.Trajectory(spec.grid, project_values(adm, vals, w), "control")
            assert admissible_contains(adm, p, w)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ho.AdmissibleSet("ball", radius=-1.0)
        with pytest.raises(ValueError):
            ho.AdmissibleSet("box", lower=1.0, upper=0.0)
        with pytest.raises(ValueError):
            ho.AdmissibleSet("simplex")


class TestStationarityResidual:
    def test_zero_gradient_interior_point(self):
        spec = make_spec(admissible=ho.AdmissibleSet("ball", radius=5.0))
        u = random_control(spec, seed=6, scale=0.1)
        g = spec.zero_control()
        assert stationarity_residual(spec, u, g) == 0.0

    def test_unconstrained_unit_step_equals_gradient_norm(self):
        # the residual's step is 1/control_weight, a unit step at weight 1
        spec = make_spec(admissible=ho.AdmissibleSet("ball", radius=1e12),
                         control_weight=1.0)
        u = random_control(spec, seed=7, scale=0.1)
        g = random_control(spec, seed=8, scale=0.2)
        res = stationarity_residual(spec, u, g)
        expected = weighted_l2_norm(g, spec.discounts.control_rate,
                                    spec.operators.control_weights) / spec.control_weight
        assert res == pytest.approx(expected, rel=1e-12)

    def test_default_step_scales_with_inverse_weight(self):
        spec = make_spec(admissible=ho.AdmissibleSet("ball", radius=1e12),
                         control_weight=0.5)
        u = random_control(spec, seed=9, scale=0.1)
        g = random_control(spec, seed=10, scale=0.2)
        res = stationarity_residual(spec, u, g)
        expected = 2.0 * weighted_l2_norm(g, spec.discounts.control_rate,
                                          spec.operators.control_weights)
        assert res == pytest.approx(expected, rel=1e-12)

    def test_fixed_point_of_scaled_adjoint_projection_has_zero_residual(self):
        # when the control equals the projected scaled adjoint, the default
        # step absorbs the control term exactly and the residual vanishes
        for kind in ("ball", "box"):
            adm = ho.AdmissibleSet(kind, radius=0.4, lower=-0.3, upper=0.3)
            spec = make_spec(nonlinearity="cubic", initial=0.4 * np.ones(21),
                             target=0.3 * np.ones((21, 21)), admissible=adm)
            ops = spec.operators
            u = random_control(spec, seed=11, scale=0.2)
            u = ho.Trajectory(spec.grid, project_values(adm, u.values, ops.control_weights),
                              "control")
            state = ho.solve_forward(spec, u)
            adjoint = ho.solve_adjoint(spec, state)
            t = spec.grid.times
            scaled = -np.exp(spec.discounts.control_rate * t)[:, None] \
                / spec.control_weight * adjoint.values[:, ops.control_index]
            fixed = ho.Trajectory(spec.grid, project_values(
                adm, scaled, ops.control_weights), "control")
            # recompute the gradient pieces at the fixed-point control but
            # with the same adjoint, mirroring one projected step
            from horizonopt.objective import riesz_gradient
            grad = riesz_gradient(spec, fixed, adjoint)
            res = stationarity_residual(spec, fixed, grad)
            assert res <= 1e-12


class TestProjectionFormulas:
    def test_ball_inactive_residual_is_density_norm(self):
        spec = make_spec(admissible=ho.AdmissibleSet("ball", radius=100.0))
        u = random_control(spec, seed=12, scale=0.1)
        state = ho.solve_forward(spec, u)
        adjoint = ho.solve_adjoint(spec, state)
        report = check_projection_formulas(spec, u, adjoint)
        ops = spec.operators
        w = ops.control_weights
        t = spec.grid.times
        i = 5
        density = adjoint.values[i, ops.control_index] + spec.control_weight \
            * np.exp(-spec.discounts.control_rate * t[i]) * u.values[i]
        expected = np.sqrt(np.dot(density * w, density))
        rec = report.records[i - 1]
        assert rec.case == "interior"
        assert rec.residual == pytest.approx(expected, rel=1e-12)

    def test_report_serializes(self):
        spec = make_spec(admissible=ho.AdmissibleSet("box", lower=-1, upper=1))
        u = spec.zero_control()
        state = ho.solve_forward(spec, u)
        adjoint = ho.solve_adjoint(spec, state)
        report = check_projection_formulas(spec, u, adjoint)
        d = report.to_dict()
        assert {"max_residual", "worst_time", "steps"} <= set(d)
        assert all({"t", "case", "residual"} <= set(s) for s in d["steps"])

    def test_large_weight_drives_box_residual_to_zero(self):
        # growing control weight sends the optimal control and the clamped
        # scaled adjoint to zero together
        residuals = []
        for nu in (1.0, 10.0, 100.0):
            spec = make_spec(nonlinearity="zero", control_weight=nu,
                             target=0.3 * np.ones((21, 21)),
                             admissible=ho.AdmissibleSet("box", lower=-1, upper=1))
            u = spec.zero_control()
            state = ho.solve_forward(spec, u)
            adjoint = ho.solve_adjoint(spec, state)
            report = check_projection_formulas(spec, u, adjoint)
            residuals.append(report.max_residual)
        assert residuals[1] < residuals[0] and residuals[2] < residuals[1]
        assert residuals[2] == pytest.approx(residuals[0] / 100.0, rel=1e-6)


def test_box_stationarity_implies_formula_residual():
    # joint invariant: a vanishing fixed-point gap forces the closed-form
    # characterization to hold at every step
    adm = ho.AdmissibleSet("box", lower=-0.3, upper=0.3)
    spec = make_spec(nonlinearity="cubic", initial=0.4 * np.ones(21),
                     target=0.5 * np.ones((21, 21)), admissible=adm)
    from horizonopt.optimizer import OptimizerConfig, optimize
    u, report = optimize(spec, OptimizerConfig(tolerance=1e-13,
                                               max_iterations=3000))
    state = ho.solve_forward(spec, u)
    adjoint = ho.solve_adjoint(spec, state)
    from horizonopt.objective import riesz_gradient
    grad = riesz_gradient(spec, u, adjoint)
    assert stationarity_residual(spec, u, grad) <= 1e-12
    report_f = check_projection_formulas(spec, u, adjoint)
    assert report_f.max_residual <= 1e-10


def formula_instance(kind):
    """A control and an adjoint, not a stationary pair, whose steps take every
    case of their set: for the ball, odd steps lie inside it, even steps on
    its sphere, and at every fourth step the adjoint vanishes on the control
    nodes; for the box, the scaled adjoint is clamped at some nodes."""
    adm = (ho.AdmissibleSet("ball", radius=0.3) if kind == "ball"
           else ho.AdmissibleSet("box", lower=-0.3, upper=0.25))
    spec = make_spec(admissible=adm)
    ops = spec.operators
    rng = np.random.default_rng(40)
    n, m = spec.grid.n_steps, spec.control_count
    vals = 0.1 * rng.standard_normal((n + 1, m))
    if kind == "ball":
        vals[::2] = project_values(adm, 10.0 * vals[::2], ops.control_weights)
    else:
        vals = np.clip(3.0 * vals, adm.lower, adm.upper)
    adj = 0.2 * rng.standard_normal((n + 1, ops.n_nodes))
    if kind == "ball":
        adj[4::4, ops.control_index] = 0.0
    return (spec, ho.Trajectory(spec.grid, vals, "control"),
            ho.Trajectory(spec.grid, adj, "adjoint"))


class TestFormulasMatchReference:
    @pytest.mark.parametrize("kind", ["ball", "box"])
    def test_cases_exact_and_residuals_to_rounding(self, kind):
        spec, u, adjoint = formula_instance(kind)
        report = check_projection_formulas(spec, u, adjoint)
        expected = reference_projection_formulas(spec, u, adjoint)
        assert [(r.time, r.case) for r in report.records] == [e[:2] for e in expected]
        assert [r.residual for r in report.records] == pytest.approx(
            [e[2] for e in expected], rel=1e-12)
        assert report.worst_time == max(expected, key=lambda e: e[2])[0]
        cases = {"ball": {"interior", "active", "active-degenerate"}, "box": {"box"}}[kind]
        assert {r.case for r in report.records} == cases
        if kind == "box":
            assert any(r.residual > 0.0 for r in report.records)
