from dataclasses import replace

import numpy as np
import pytest

import horizonopt as ho
from horizonopt import objective
from horizonopt.admissible import project_values
from horizonopt.objective import (ACTIVE_STRICT, SecondOrderModel,
                                  first_order_density, gradient_with_state,
                                  riesz_gradient)
from horizonopt.solvers import solve_adjoint
from horizonopt.spaces import weighted_inner, weighted_l2_norm

from conftest import make_spec, model_at, random_control
from oracles import (geometric_weight_sum, reference_ball_cone_member,
                     reference_ball_directions)


def fd_directional(spec, u, v, eps):
    up = ho.Trajectory(spec.grid, u.values + eps * v.values, "control")
    dn = ho.Trajectory(spec.grid, u.values - eps * v.values, "control")
    spec = replace(spec, newton=ho.NewtonConfig(tolerance=1e-13))
    return (ho.cost(spec, up).total - ho.cost(spec, dn).total) / (2 * eps)


class TestCost:
    def test_perfect_tracking_zero_control_costs_nothing(self):
        spec = make_spec(nonlinearity="zero", initial=np.full(21, 1.2),
                         target=np.full((21, 21), 1.2), horizon=1.0, step=0.05)
        assert ho.cost(spec, spec.zero_control()).total == pytest.approx(0.0, abs=1e-20)

    def test_control_term_matches_geometric_sum(self):
        spec = make_spec(nonlinearity="zero", horizon=1.0, step=0.05)
        c = 0.7
        u = ho.Trajectory(spec.grid,
                          np.full((21, spec.control_count), c), "control")
        spec2 = make_spec(nonlinearity="zero", horizon=1.0, step=0.05,
                          target=ho.solve_forward(spec, u).values)
        breakdown = ho.cost(spec2, u)
        omega = spec.operators.control_weights.sum()
        expected = 0.5 * spec.control_weight * c**2 * omega * geometric_weight_sum(
            spec.discounts.control_rate, 0.05, 20)
        assert breakdown.control == pytest.approx(expected, rel=1e-12)
        assert breakdown.tracking == pytest.approx(0.0, abs=1e-18)

    def test_doubling_weight_doubles_control_term_only(self):
        spec1 = make_spec(control_weight=0.5)
        spec2 = make_spec(control_weight=1.0)
        u = random_control(spec1, seed=1, scale=0.4)
        b1 = ho.cost(spec1, u)
        b2 = ho.cost(spec2, u)
        assert b2.control == pytest.approx(2 * b1.control, rel=1e-13)
        assert b2.tracking == pytest.approx(b1.tracking, rel=1e-13)

    def test_total_is_sum_of_parts(self, small_spec):
        u = random_control(small_spec, seed=2, scale=0.2)
        b = ho.cost(small_spec, u)
        assert b.total == b.tracking + b.control
        assert b.tracking >= 0 and b.control >= 0


class TestGradient:
    def test_matches_central_differences(self):
        spec = make_spec(nonlinearity="cubic", initial=0.3 * np.ones(21),
                         target=0.2 * np.ones((21, 21)))
        u = random_control(spec, seed=3, scale=0.3)
        v = random_control(spec, seed=4)
        tight = replace(spec, newton=ho.NewtonConfig(tolerance=1e-13))
        grad = gradient_with_state(tight, u)[0]
        adj_val = weighted_inner(grad, v, spec.discounts.control_rate,
                                 spec.operators.control_weights)
        best = min(abs(adj_val - fd_directional(spec, u, v, eps))
                   / max(abs(adj_val), 1e-300)
                   for eps in (1e-3, 1e-4, 1e-5))
        assert best <= 1e-7, best

    def test_zero_adjoint_reduces_gradient_to_weighted_control(self):
        # force the state to track the target exactly: gradient = weight * u
        spec = make_spec(nonlinearity="zero", initial=np.full(21, 0.8),
                         target=np.full((21, 21), 0.8))
        u = spec.zero_control()
        grad = gradient_with_state(spec, u)[0]
        assert np.abs(grad.values).max() < 1e-14
        u2 = random_control(spec, seed=5, scale=0.3)
        spec2 = make_spec(nonlinearity="zero", initial=np.full(21, 0.8),
                          target=ho.solve_forward(spec, u2).values)
        grad2 = gradient_with_state(spec2, u2)[0]
        assert np.abs(grad2.values[1:] - spec2.control_weight * u2.values[1:]).max() < 1e-11

    def test_linear_problem_gradient_difference_is_hessian_action(self):
        spec = make_spec(nonlinearity="zero", target=0.3 * np.ones((21, 21)))
        u = random_control(spec, seed=6, scale=0.3)
        v = random_control(spec, seed=7, scale=0.5)
        w = random_control(spec, seed=8)
        uv = ho.Trajectory(spec.grid, u.values + v.values, "control")
        g_u = gradient_with_state(spec, u)[0]
        g_uv = gradient_with_state(spec, uv)[0]
        lhs = weighted_inner(
            ho.Trajectory(spec.grid, g_uv.values - g_u.values, "control"), w,
            spec.discounts.control_rate, spec.operators.control_weights)
        rhs = model_at(spec, u).quadratic_form(v, w)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_riesz_consistency_two_assemblies(self):
        # adjoint-formula pairing vs direct tracking+control assembly
        # through the linearized response
        spec = make_spec(nonlinearity="cubic", initial=0.3 * np.ones(21),
                         target=0.15 * np.ones((21, 21)))
        u = random_control(spec, seed=9, scale=0.3)
        v = random_control(spec, seed=10)
        grad, state, adjoint = gradient_with_state(spec, u)
        via_adjoint = weighted_inner(grad, v, spec.discounts.control_rate,
                                     spec.operators.control_weights)
        z = ho.solve_linearized(spec, state, v)
        d = spec.discounts
        dt = spec.grid.step
        t = spec.grid.times
        resid = state.values - spec.target_samples
        track = sum(dt * np.exp(-d.state_rate * t[i])
                    * resid[i] @ (spec.operators.mass @ z.values[i])
                    for i in range(1, spec.grid.n_steps + 1))
        wts = spec.operators.control_weights
        ctrl = spec.control_weight * sum(
            dt * np.exp(-d.control_rate * t[i]) * (u.values[i] * wts) @ v.values[i]
            for i in range(1, spec.grid.n_steps + 1))
        assert abs(via_adjoint - (track + ctrl)) <= 1e-10 * max(1.0, abs(via_adjoint))

    def test_gradient_exactness_across_seeded_suite(self):
        rels = []
        for seed in range(6):
            kind = "ball" if seed % 2 == 0 else "box"
            name = ("zero", "cubic", "exponential")[seed % 3]
            from conftest import random_instance
            spec, u = random_instance(seed + 200, kind, name)
            v = random_control(spec, seed=seed + 300)
            tight = replace(spec, newton=ho.NewtonConfig(tolerance=1e-13))
            grad = gradient_with_state(tight, u)[0]
            val = weighted_inner(grad, v, spec.discounts.control_rate,
                                 spec.operators.control_weights)
            best = min(abs(val - fd_directional(spec, u, v, eps))
                       / max(abs(val), 1e-300) for eps in (1e-4, 1e-5))
            rels.append(best)
        assert max(rels) <= 1e-7, rels


class TestHessian:
    def test_bilinear_and_zero_direction(self, small_spec):
        u = random_control(small_spec, seed=11, scale=0.2)
        z = small_spec.zero_control()
        v = random_control(small_spec, seed=12)
        assert model_at(small_spec, u).quadratic_form(v, z) == 0.0

    def test_symmetry(self):
        spec = make_spec(nonlinearity="cubic", initial=0.4 * np.ones(21),
                         target=0.1 * np.ones((21, 21)))
        u = random_control(spec, seed=13, scale=0.2)
        v1 = random_control(spec, seed=14)
        v2 = random_control(spec, seed=15)
        model = model_at(spec, u)
        a = model.quadratic_form(v1, v2)
        b = model.quadratic_form(v2, v1)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))

    def test_second_difference_oracle(self):
        spec = make_spec(nonlinearity="cubic", initial=0.4 * np.ones(21),
                         target=0.1 * np.ones((21, 21)))
        spec = replace(spec, newton=ho.NewtonConfig(tolerance=1e-13))
        u = random_control(spec, seed=16, scale=0.2)
        v = random_control(spec, seed=17, scale=0.5)
        exact = model_at(spec, u).quadratic_form(v, v)
        j0 = ho.cost(spec, u).total
        errs = []
        for eps in (1e-2, 1e-3):
            up = ho.Trajectory(spec.grid, u.values + eps * v.values, "control")
            dn = ho.Trajectory(spec.grid, u.values - eps * v.values, "control")
            fd = (ho.cost(spec, up).total - 2 * j0
                  + ho.cost(spec, dn).total) / eps**2
            errs.append(abs(fd - exact) / max(abs(exact), 1e-300))
        assert errs[0] < 1e-3 and errs[1] < 1e-4, errs


class TestMultiplier:
    def make_ball_instance(self):
        spec = make_spec(nonlinearity="cubic", initial=0.4 * np.ones(21),
                         target=0.3 * np.ones((21, 21)),
                         admissible=ho.AdmissibleSet("ball", radius=0.8))
        u = random_control(spec, seed=18, scale=0.6)
        u = ho.Trajectory(spec.grid, project_values(
            spec.admissible, u.values, spec.operators.control_weights), "control")
        state = ho.solve_forward(spec, u)
        return spec, u, state, solve_adjoint(spec, state)

    def test_interior_control_has_zero_multiplier(self):
        spec = make_spec(admissible=ho.AdmissibleSet("ball", radius=1e6))
        u = random_control(spec, seed=19, scale=0.1)
        state = ho.solve_forward(spec, u)
        mult = ho.multiplier_and_cone(spec, u, solve_adjoint(spec, state))
        assert np.all(mult.values == 0)
        assert np.all(mult.activity == 0)

    def test_multiplier_value_on_scaled_adjoint_control(self):
        # control aligned with the negative adjoint at an active step:
        # multiplier = |adjoint| - weight*radius*e^{-rate t}
        spec, u, _, adjoint = self.make_ball_instance()
        ops = spec.operators
        w = ops.control_weights
        gamma = spec.admissible.radius
        i = spec.grid.n_steps // 2
        phi = adjoint.values[i, ops.control_index]
        pnorm = np.sqrt(np.dot(phi * w, phi))
        vals = u.values.copy()
        vals[i] = -gamma * phi / pnorm
        u2 = ho.Trajectory(spec.grid, vals, "control")
        mult = ho.multiplier_and_cone(spec, u2, adjoint)
        t_i = spec.grid.times[i]
        expected = abs(pnorm - spec.control_weight * gamma * np.exp(
            -spec.discounts.control_rate * t_i))
        assert mult.values[i] == pytest.approx(expected, rel=1e-10)

    def test_zero_adjoint_gives_weighted_control_norm(self):
        spec, u, _, adjoint = self.make_ball_instance()
        zero_adj = ho.Trajectory(spec.grid, np.zeros_like(adjoint.values), "adjoint")
        mult = ho.multiplier_and_cone(spec, u, zero_adj)
        w = spec.operators.control_weights
        t = spec.grid.times
        unorm = np.sqrt(np.einsum("ij,j,ij->i", u.values, w, u.values))
        active = np.abs(unorm - spec.admissible.radius) <= spec.admissible.active_tol
        expected = spec.control_weight * np.exp(
            -spec.discounts.control_rate * t) * unorm
        assert np.allclose(mult.values[active], expected[active], rtol=1e-12)

    def test_box_instance_rejected(self):
        spec = make_spec(admissible=ho.AdmissibleSet("box", lower=-1, upper=1))
        u = spec.zero_control()
        state = ho.solve_forward(spec, u)
        with pytest.raises(ValueError):
            ho.multiplier_and_cone(spec, u, solve_adjoint(spec, state))

    def test_lagrangian_form_adds_exact_multiplier_term(self):
        spec, u, state, adjoint = self.make_ball_instance()
        mult = ho.multiplier_and_cone(spec, u, adjoint)
        v = random_control(spec, seed=20)
        model = SecondOrderModel(spec, state, adjoint)
        base = model.quadratic_form(v, v)
        aug = model.lagrangian_form(v, mult)
        w = spec.operators.control_weights
        e = np.einsum("ij,j,ij->i", v.values[1:], w, v.values[1:])
        extra = spec.grid.step * np.sum(mult.values[1:] * e) / spec.admissible.radius
        assert aug - base == pytest.approx(extra, rel=1e-12)

    def test_lagrangian_form_on_a_list_is_its_single_values(self):
        spec, u, state, adjoint = self.make_ball_instance()
        mult = ho.multiplier_and_cone(spec, u, adjoint)
        model = SecondOrderModel(spec, state, adjoint)
        directions = [random_control(spec, seed=30 + b) for b in range(3)]
        assert model.lagrangian_form(directions, mult) == [
            model.lagrangian_form(v, mult) for v in directions]
        assert model.lagrangian_form([], mult) == []

    def test_lagrangian_form_reduces_to_hessian_when_inactive(self):
        spec = make_spec(admissible=ho.AdmissibleSet("ball", radius=1e6),
                         initial=0.2 * np.ones(21))
        u = random_control(spec, seed=21, scale=0.1)
        state = ho.solve_forward(spec, u)
        adjoint = solve_adjoint(spec, state)
        mult = ho.multiplier_and_cone(spec, u, adjoint)
        v = random_control(spec, seed=22)
        model = SecondOrderModel(spec, state, adjoint)
        assert model.lagrangian_form(v, mult) == pytest.approx(
            model.quadratic_form(v, v), rel=1e-13)

    def test_box_lagrangian_form_is_the_quadratic_form(self):
        # a box constraint is linear, so its Lagrangian form takes no
        # multiplier and is bitwise the plain form; a multiplier is refused
        spec = make_spec(admissible=ho.AdmissibleSet("box", lower=-1, upper=1),
                         initial=0.2 * np.ones(21))
        model = model_at(spec, random_control(spec, seed=21, scale=0.1))
        directions = [random_control(spec, seed=22 + b) for b in range(2)]
        assert model.lagrangian_form(directions, None) == model.quadratic_form(
            directions, directions)
        n = spec.grid.n_steps
        mult = ho.Multiplier(np.zeros(n + 1), np.zeros(n + 1, dtype=int))
        with pytest.raises(ValueError, match="defined for ball constraints"):
            model.lagrangian_form(directions, mult)


class TestCriticalDirections:
    def test_inactive_problem_returns_inputs_unmodified(self):
        spec = make_spec(admissible=ho.AdmissibleSet("ball", radius=1e6))
        u = random_control(spec, seed=23, scale=0.1)
        state = ho.solve_forward(spec, u)
        adjoint = solve_adjoint(spec, state)
        mult = ho.multiplier_and_cone(spec, u, adjoint)
        dirs = ho.sample_critical_directions(spec, u, adjoint, mult, count=3, seed=7)
        assert len(dirs) == 3
        raw = np.random.default_rng(7).standard_normal(dirs[0].values.shape)
        raw[0] = 0.0
        assert np.array_equal(dirs[0].values, raw)

    def test_ball_directions_orthogonal_on_strictly_active_steps(self):
        spec = make_spec(nonlinearity="cubic", initial=0.5 * np.ones(21),
                         target=0.4 * np.ones((21, 21)),
                         admissible=ho.AdmissibleSet("ball", radius=0.3))
        rng = np.random.default_rng(24)
        vals = rng.standard_normal((spec.grid.n_steps + 1, spec.control_count))
        from horizonopt.admissible import project_values
        w = spec.operators.control_weights
        vals = project_values(spec.admissible, 5.0 * vals, w)  # all steps active
        u = ho.Trajectory(spec.grid, vals, "control")
        state = ho.solve_forward(spec, u)
        adjoint = solve_adjoint(spec, state)
        mult = ho.multiplier_and_cone(spec, u, adjoint)
        dirs = ho.sample_critical_directions(spec, u, adjoint, mult, count=5, seed=3)
        assert dirs
        for v in dirs:
            for i in np.flatnonzero(mult.activity == ACTIVE_STRICT):
                ip = np.dot(u.values[i] * w, v.values[i])
                scale = np.sqrt(np.dot(u.values[i] * w, u.values[i])
                                * np.dot(v.values[i] * w, v.values[i])) + 1e-300
                assert abs(ip) <= 1e-12 * scale

    def test_box_directions_respect_sign_constraints(self, monkeypatch):
        spec = make_spec(nonlinearity="zero",
                         admissible=ho.AdmissibleSet("box", lower=-0.5, upper=0.5),
                         target=0.3 * np.ones((21, 21)))
        vals = np.full((spec.grid.n_steps + 1, spec.control_count), 0.5)
        u = ho.Trajectory(spec.grid, vals, "control")
        state = ho.solve_forward(spec, u)
        adjoint = solve_adjoint(spec, state)
        # with an untight density tolerance nothing is strictly active, so the
        # directions only need the sign clipping at the upper bound
        monkeypatch.setattr(objective, "DENSITY_TOL", 1e30)
        dirs = ho.sample_critical_directions(spec, u, adjoint, None, count=4, seed=5)
        assert dirs
        for v in dirs:
            assert np.all(v.values[1:] <= 0)


class TestCriticalDirectionsMatchReference:
    def ball_instance(self):
        # every step on the sphere of radius 0.3, so the multiplier marks all
        # of them active
        spec = make_spec(nonlinearity="cubic", initial=0.5 * np.ones(21),
                         target=0.4 * np.ones((21, 21)),
                         admissible=ho.AdmissibleSet("ball", radius=0.3))
        rng = np.random.default_rng(24)
        vals = rng.standard_normal((spec.grid.n_steps + 1, spec.control_count))
        vals = project_values(spec.admissible, 5.0 * vals, spec.operators.control_weights)
        u = ho.Trajectory(spec.grid, vals, "control")
        adjoint = solve_adjoint(spec, ho.solve_forward(spec, u))
        return spec, u, adjoint, ho.multiplier_and_cone(spec, u, adjoint)

    def assert_match(self, spec, u, adjoint, mult, seed):
        dirs = ho.sample_critical_directions(spec, u, adjoint, mult, count=6, seed=seed)
        expected = reference_ball_directions(spec, u, mult, 6, seed)
        assert len(dirs) == len(expected) > 0
        for v, ref in zip(dirs, expected):
            np.testing.assert_allclose(v.values, ref, rtol=1e-12, atol=1e-12)

    def test_strictly_active_steps(self):
        spec, u, adjoint, mult = self.ball_instance()
        assert np.all(mult.activity[1:] == 2)
        self.assert_match(spec, u, adjoint, mult, seed=3)

    def test_inactive_degenerate_and_strict_steps(self):
        spec, u, adjoint, mult = self.ball_instance()
        activity = mult.activity.copy()
        activity[1::3], activity[2::3] = 0, 1
        mixed = ho.Multiplier(mult.values, activity)
        self.assert_match(spec, u, adjoint, mixed, seed=4)

    def test_the_cone_check_accepts_and_rejects_as_the_loop(self):
        # a radial part added to an accepted direction keeps it in the cone
        # only if it points inward at a degenerate active step
        from horizonopt.objective import _verify_ball_direction
        spec, u, adjoint, mult = self.ball_instance()
        activity = mult.activity.copy()
        activity[1::3], activity[2::3] = 0, 1
        mixed = ho.Multiplier(mult.values, activity)
        w = spec.operators.control_weights
        v = reference_ball_directions(spec, u, mixed, 1, 5)[0]
        verdicts = []
        for step, radial in ((1, 0.0), (2, -0.5), (2, 0.5), (3, -0.5), (3, 0.5)):
            vals = v.copy()
            vals[step] += radial * u.values[step]
            verdict = _verify_ball_direction(spec, u, ho.Trajectory(spec.grid, vals), mixed)
            assert verdict == reference_ball_cone_member(u, vals, mixed, w)
            verdicts.append(verdict)
        assert verdicts == [True, True, False, False, False]


def density_pairing(spec, u, adjoint, v):
    """J'(u) v as the unweighted control pairing of the first-order density."""
    density = first_order_density(spec, u, adjoint)
    w = spec.operators.control_weights
    return spec.grid.step * float(np.sum(np.einsum("ij,j,ij->i", density[1:], w,
                                                   v.values[1:])))


class TestFirstOrderDensity:
    def test_density_matches_directional_derivative(self):
        spec = make_spec(nonlinearity="cubic", initial=0.3 * np.ones(21),
                         target=0.2 * np.ones((21, 21)))
        u = random_control(spec, seed=25, scale=0.2)
        grad, state, adjoint = gradient_with_state(spec, u)
        v = random_control(spec, seed=26)
        d1 = density_pairing(spec, u, adjoint, v)
        d2 = weighted_inner(grad, v, spec.discounts.control_rate,
                            spec.operators.control_weights)
        assert d1 == pytest.approx(d2, rel=1e-12)

    def test_density_rows_scale_with_discount(self):
        spec = make_spec()
        u = random_control(spec, seed=27, scale=0.2)
        _, _, adjoint = gradient_with_state(spec, u)
        dens = first_order_density(spec, u, adjoint)
        g = riesz_gradient(spec, u, adjoint)
        t = spec.grid.times
        rebuilt = np.exp(-spec.discounts.control_rate * t)[:, None] * g.values
        assert np.allclose(dens[1:], rebuilt[1:], rtol=1e-12, atol=1e-15)


class TestStationaryCones:
    def test_ball_critical_directions_annihilate_derivative_at_optimum(self):
        # the sampled cone directions at a converged constrained optimum must
        # carry no first-order descent, up to the stationarity tolerance
        from pathlib import Path
        from horizonopt.config import load_config, build_problem, build_optimizer_config
        cfg = load_config(Path(__file__).resolve().parent.parent
                          / "configs" / "ball_cubic.json")
        spec = build_problem(cfg)
        u, report = ho.optimize(spec, build_optimizer_config(cfg))
        assert report.converged
        state = ho.solve_forward(spec, u)
        adjoint = solve_adjoint(spec, state)
        mult = ho.multiplier_and_cone(spec, u, adjoint)
        assert np.any(mult.activity == ACTIVE_STRICT)  # constraint genuinely active
        dirs = ho.sample_critical_directions(spec, u, adjoint, mult, count=20,
                                             seed=17)
        w = spec.operators.control_weights
        for v in dirs:
            deriv = density_pairing(spec, u, adjoint, v)
            nrm = weighted_l2_norm(v, spec.discounts.control_rate, w)
            assert abs(deriv) <= 1e-8 * nrm
