import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import horizonopt as ho
from horizonopt.problem import Discounts
from horizonopt.solvers import SolverError, _stepper, solve_adjoint_from_residual
from horizonopt.spaces import weighted_sup_norm

from conftest import make_spec, random_control
from oracles import (rk4, scalar_adjoint_recursion, scalar_forward_recursion,
                     scalar_newton_recursion)


class TestForward:
    def test_constant_is_stationary_without_forcing(self):
        spec = make_spec(nonlinearity="zero", initial=np.full(21, 3.0))
        y = ho.solve_forward(spec, spec.zero_control())
        assert np.abs(y.values - 3.0).max() < 1e-11

    def test_reaction_decay_matches_scalar_recursion(self):
        spec = make_spec(nonlinearity="zero", reaction=1.0, initial=np.ones(21))
        y = ho.solve_forward(spec, spec.zero_control())
        oracle = scalar_forward_recursion(1.0, spec.grid.step, spec.grid.n_steps,
                                          reaction=1.0)
        assert np.abs(y.values - oracle[:, None]).max() < 1e-11
        # first order against the exponential
        t = spec.grid.times
        assert np.abs(oracle - np.exp(-t)).max() < 2.0 * spec.grid.step

    def test_cubic_decay_matches_scalar_newton_recursion(self):
        spec = make_spec(nonlinearity="cubic", initial=np.ones(21))
        y = ho.solve_forward(spec, spec.zero_control())
        oracle = scalar_newton_recursion(1.0, spec.grid.step, spec.grid.n_steps,
                                         lambda s: s**3, lambda s: 3 * s * s)
        assert np.abs(y.values - oracle[:, None]).max() < 1e-10

    def test_first_order_convergence_against_rk_oracle(self):
        # spatially constant cubic decay; halving sweep of the time step
        exact = rk4(1.0, 1.0, 20000, lambda t, y: -y**3)
        errors = []
        steps = [0.1, 0.05, 0.025, 0.0125]
        for dt in steps:
            spec = make_spec(nonlinearity="cubic", horizon=1.0, step=dt,
                             initial=np.ones(21))
            y = ho.solve_forward(spec, spec.zero_control())
            errors.append(abs(y.values[-1, 10] - exact))
        orders = [np.log2(e1 / e2) for e1, e2 in zip(errors, errors[1:])]
        assert all(0.85 <= o <= 1.15 for o in orders), orders

    def test_forcing_through_control_changes_only_control_region(self):
        spec = make_spec(nonlinearity="zero", horizon=0.2, step=0.05)
        u = random_control(spec, seed=1)
        y = ho.solve_forward(spec, u)
        assert np.any(y.values[1:] != 0)

    def test_newton_failure_carries_step_and_history(self):
        spec = make_spec(nonlinearity="exponential", horizon=0.2, step=0.1,
                         initial=np.full(21, 200.0))
        with pytest.raises(SolverError) as err:
            ho.solve_forward(spec, spec.zero_control(),
                             ho.NewtonConfig(max_iterations=2))
        assert err.value.step is not None
        assert len(err.value.history) >= 1


class TestLinearized:
    def test_zero_rhs_gives_zero(self, small_spec):
        y = ho.solve_forward(small_spec, small_spec.zero_control())
        z = ho.solve_linearized(small_spec, y, small_spec.zero_control())
        assert np.all(z.values == 0)

    def test_linearity(self, small_spec):
        u = random_control(small_spec, seed=2, scale=0.3)
        y = ho.solve_forward(small_spec, u)
        v = random_control(small_spec, seed=3)
        z1 = ho.solve_linearized(small_spec, y, v)
        v2 = ho.Trajectory(small_spec.grid, 2.5 * v.values, "control")
        z2 = ho.solve_linearized(small_spec, y, v2)
        assert np.abs(z2.values - 2.5 * z1.values).max() < 1e-12

    def test_linear_problem_response_equals_forward_difference(self):
        spec = make_spec(nonlinearity="zero")
        u = random_control(spec, seed=4, scale=0.5)
        v = random_control(spec, seed=5, scale=0.5)
        y_u = ho.solve_forward(spec, u)
        uv = ho.Trajectory(spec.grid, u.values + v.values, "control")
        y_uv = ho.solve_forward(spec, uv)
        z = ho.solve_linearized(spec, y_u, v)
        assert np.abs((y_uv.values - y_u.values) - z.values).max() < 1e-10

    def test_coefficient_below_slope_bound_rejected(self, small_spec):
        y = ho.solve_forward(small_spec, small_spec.zero_control())
        bad = np.full_like(y.values, -0.5)  # cubic slope bound is 0
        v = random_control(small_spec, seed=6)
        with pytest.raises(ValueError):
            ho.solve_linearized(small_spec, y, v, coefficient=bad)


class TestSecondOrder:
    def test_vanishing_second_derivative_gives_zero(self):
        spec = make_spec(nonlinearity="zero")
        u = random_control(spec, seed=7, scale=0.3)
        y = ho.solve_forward(spec, u)
        v1 = random_control(spec, seed=8)
        v2 = random_control(spec, seed=9)
        z1 = ho.solve_linearized(spec, y, v1)
        z2 = ho.solve_linearized(spec, y, v2)
        w = ho.solve_second_order(spec, y, z1, z2)
        assert np.all(w.values == 0)

    def test_symmetry_in_the_two_directions(self, small_spec):
        u = random_control(small_spec, seed=10, scale=0.3)
        y = ho.solve_forward(small_spec, u)
        z1 = ho.solve_linearized(small_spec, y, random_control(small_spec, seed=11))
        z2 = ho.solve_linearized(small_spec, y, random_control(small_spec, seed=12))
        w12 = ho.solve_second_order(small_spec, y, z1, z2)
        w21 = ho.solve_second_order(small_spec, y, z2, z1)
        assert np.abs(w12.values - w21.values).max() < 1e-12

    def test_second_order_taylor_expansion(self):
        # |y(u+eps v) - y(u) - eps z - eps^2/2 w| = O(eps^3) in the
        # discounted sup norm; observed order between eps=1e-1 and 1e-2
        spec = make_spec(nonlinearity="cubic", initial=0.5 * np.ones(21))
        tight = ho.NewtonConfig(tolerance=1e-13)
        u = random_control(spec, seed=13, scale=0.3)
        v = random_control(spec, seed=14, scale=1.0)
        y = ho.solve_forward(spec, u, tight)
        z = ho.solve_linearized(spec, y, v)
        w = ho.solve_second_order(spec, y, z, z)
        errs = []
        for eps in (0.1, 0.01):
            ue = ho.Trajectory(spec.grid, u.values + eps * v.values, "control")
            ye = ho.solve_forward(spec, ue, tight)
            rem = ye.values - y.values - eps * z.values - 0.5 * eps**2 * w.values
            rem_traj = ho.Trajectory(spec.grid, rem, "generic")
            errs.append(weighted_sup_norm(rem_traj, spec.discounts.state_rate,
                                          spec.operators.mass))
        order = np.log10(errs[0] / errs[1])
        assert order >= 2.7, (errs, order)


class TestAdjoint:
    def test_zero_residual_gives_zero_adjoint(self, small_spec):
        y = ho.solve_forward(small_spec, small_spec.zero_control())
        phi = ho.solve_adjoint(small_spec, y, target=y.values)
        assert np.abs(phi.values).max() == 0.0

    def test_constant_residual_matches_scalar_backward_recursion(self):
        # reaction 1, no nonlinearity, residual identically 1: the adjoint
        # reduces to the transposed scalar recursion
        spec = make_spec(nonlinearity="zero", reaction=1.0, initial=np.ones(21),
                         target=None)
        y = ho.solve_forward(spec, spec.zero_control())
        residual = np.ones_like(y.values)
        phi = solve_adjoint_from_residual(spec, y, residual,
                                          spec.discounts.state_rate)
        oracle = scalar_adjoint_recursion(spec.grid.step, spec.grid.n_steps,
                                          spec.discounts.state_rate, 1.0,
                                          lambda t: 1.0)
        assert np.abs(phi.values - oracle[:, None]).max() < 1e-12

    def test_duality_identity_exact(self):
        # pairing of the linearized response against a full-domain source
        # equals the pairing of the adjoint against the control source
        spec = make_spec(n_nodes=10, nonlinearity="cubic", horizon=0.6,
                         step=0.05, initial=0.4 * np.ones(10))
        rate = spec.discounts.state_rate
        base = ho.solve_forward(spec, random_control(spec, seed=20, scale=0.2))
        rng = np.random.default_rng(21)
        n, nd, nc = spec.grid.n_steps, 10, spec.control_count
        for trial in range(5):
            v = ho.Trajectory(spec.grid, rng.standard_normal((n + 1, nc)), "control")
            w = rng.standard_normal((n + 1, nd))
            z = ho.solve_linearized(spec, base, v)
            phi = solve_adjoint_from_residual(spec, base, w, rate)
            dt = spec.grid.step
            t = spec.grid.times
            lhs = sum(dt * np.exp(-rate * t[i]) * w[i] @ (spec.operators.mass
                                                          @ z.values[i])
                      for i in range(1, n + 1))
            wts = spec.operators.control_weights
            widx = spec.operators.control_index
            rhs = sum(dt * (phi.values[i, widx] * wts) @ v.values[i]
                      for i in range(1, n + 1))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


class TestEnergyEstimates:
    def test_zero_data_trivially_satisfied(self):
        spec = make_spec(nonlinearity="zero", initial=np.zeros(21))
        report = ho.check_energy_estimate(spec, spec.zero_control(), 1.0)
        assert report.lhs == 0.0 and report.rhs == 0.0 and report.satisfied

    def test_constant_state_closed_form(self):
        # no diffusion decay (reaction 0, no forcing): the state stays 1 and
        # both sides are computable in closed form; lhs must stay below 2
        spec = make_spec(nonlinearity="zero", initial=np.ones(21), horizon=2.0,
                         step=0.01)
        rate = 1.0
        report = ho.check_energy_estimate(spec, spec.zero_control(), rate)
        assert report.rhs == pytest.approx(2.0, rel=1e-12)
        assert report.lhs <= report.rhs
        assert report.satisfied

    def test_estimate_holds_on_seeded_suite(self):
        rng = np.random.default_rng(30)
        rates = (1.0, 0.12, 0.56)
        for k in range(6):
            name = ("zero", "cubic", "exponential")[k % 3]
            spec = make_spec(nonlinearity=name, horizon=1.0, step=0.01,
                             initial=rng.uniform(-0.5, 0.5, 21),
                             source=0.3 * rng.standard_normal((101, 21)))
            u = random_control(spec, seed=100 + k, scale=0.3)
            for rate in rates:
                report = ho.check_energy_estimate(spec, u, rate)
                assert report.satisfied, (name, rate, report.lhs, report.rhs)

    def test_linearized_estimate_with_stability_constant(self):
        rng = np.random.default_rng(40)
        spec = make_spec(nonlinearity="cubic", horizon=1.0, step=0.01,
                         initial=0.3 * np.ones(21))
        u = random_control(spec, seed=41, scale=0.3)
        h = rng.standard_normal((spec.grid.n_steps + 1, 21))
        for rate in (1.0, 0.12, 0.56):
            report = ho.check_linearized_estimate(spec, u, h, rate)
            assert report.satisfied, (rate, report.lhs, report.rhs)

    def test_rate_out_of_range_raises(self):
        spec = make_spec(nonlinearity="cubic_minus_linear", state_rate=12.0,
                         aux_rate=2.2)
        with pytest.raises(ValueError):
            ho.check_energy_estimate(spec, spec.zero_control(), 1.5)


class TestLipschitzStability:
    def test_control_to_state_difference_bound_stable_under_scaling(self):
        spec = make_spec(nonlinearity="cubic", horizon=1.0, step=0.02,
                         initial=0.2 * np.ones(21))
        rate = spec.discounts.aux_rate
        ops = spec.operators
        u = random_control(spec, seed=50, scale=0.4)
        v = random_control(spec, seed=51, scale=0.4)
        ratios = []
        for scale in (0.5, 1.0, 2.0):
            us = ho.Trajectory(spec.grid, scale * u.values, "control")
            vs = ho.Trajectory(spec.grid, scale * v.values, "control")
            yu = ho.solve_forward(spec, us)
            yv = ho.solve_forward(spec, vs)
            gap = ho.Trajectory(spec.grid, yu.values - yv.values, "generic")
            num = ho.weighted_l2_norm(gap, rate, ops.h1) \
                + weighted_sup_norm(gap, rate, ops.mass)
            den_t = ho.Trajectory(spec.grid, us.values - vs.values, "control")
            den = ho.weighted_l2_norm(den_t, rate, ops.control_weights)
            ratios.append(num / den)
        assert max(ratios) / min(ratios) < 1.5, ratios


class TestTwoDimensional:
    def test_2d_constant_reaction_decay_matches_scalar_recursion(self):
        import horizonopt as ho
        from horizonopt.problem import Discounts
        mesh = ho.rectangle_mesh((1.0, 1.0), (6, 6), control=((0.2, 0.8), (0.2, 0.8)))
        f = ho.builtin_nonlinearities()["zero"]
        spec = ho.ProblemSpec(
            mesh=mesh, operator=ho.EllipticForm(diffusion=1.0, reaction=1.0),
            nonlinearity=f,
            discounts=Discounts(1.0, 0.4, 0.2), grid=ho.TimeGrid(0.5, 0.05),
            initial_state=np.ones(mesh.n_nodes),
            source=np.zeros((11, mesh.n_nodes)),
            target=np.zeros((11, mesh.n_nodes)), control_weight=1.0,
            admissible=ho.AdmissibleSet("ball", radius=5.0))
        y = ho.solve_forward(spec, spec.zero_control())
        oracle = scalar_forward_recursion(1.0, 0.05, 10, reaction=1.0)
        assert np.abs(y.values - oracle[:, None]).max() < 1e-11

    def test_2d_gradient_matches_finite_differences(self):
        import horizonopt as ho
        from horizonopt.problem import Discounts
        from horizonopt.spaces import weighted_inner
        mesh = ho.rectangle_mesh((1.0, 1.0), (5, 5), control=((0.2, 0.8), (0.2, 0.8)))
        f = ho.builtin_nonlinearities()["cubic"]
        rng = np.random.default_rng(7)
        spec = ho.ProblemSpec(
            mesh=mesh, operator=ho.EllipticForm(diffusion=1.0),
            nonlinearity=f,
            discounts=Discounts(1.0, 0.4, 0.1, growth_exponent=2.0),
            grid=ho.TimeGrid(0.4, 0.05),
            initial_state=0.3 * rng.standard_normal(mesh.n_nodes),
            source=np.zeros((9, mesh.n_nodes)),
            target=0.2 * np.ones((9, mesh.n_nodes)), control_weight=1.0,
            admissible=ho.AdmissibleSet("ball", radius=5.0))
        tight = ho.NewtonConfig(tolerance=1e-13)
        nc = spec.control_count
        u = ho.Trajectory(spec.grid, 0.2 * rng.standard_normal((9, nc)), "control")
        v = ho.Trajectory(spec.grid, rng.standard_normal((9, nc)), "control")
        grad = ho.gradient(spec, u, tight)
        val = weighted_inner(grad, v, spec.discounts.control_rate,
                             spec.operators.control_weights)
        eps = 1e-5
        up = ho.Trajectory(spec.grid, u.values + eps * v.values, "control")
        dn = ho.Trajectory(spec.grid, u.values - eps * v.values, "control")
        fd = (ho.cost(spec, up, tight).total - ho.cost(spec, dn, tight).total) / (2 * eps)
        assert abs(val - fd) / max(abs(val), 1e-300) < 1e-7


def rectangle_spec(shape, seed=0, horizon=0.4, step=0.05):
    """Small 2D cubic problem on the unit square with a random initial state."""
    mesh = ho.rectangle_mesh((1.0, 1.0), shape, control=((0.2, 0.8), (0.2, 0.8)))
    rng = np.random.default_rng(seed)
    grid = ho.TimeGrid(horizon, step)
    n = grid.n_steps
    return ho.ProblemSpec(
        mesh=mesh, operator=ho.EllipticForm(diffusion=1.0),
        nonlinearity=ho.builtin_nonlinearities()["cubic"],
        discounts=Discounts(1.0, 0.4, 0.1, growth_exponent=2.0), grid=grid,
        initial_state=0.3 * rng.standard_normal(mesh.n_nodes),
        source=np.zeros((n + 1, mesh.n_nodes)),
        target=0.2 * np.ones((n + 1, mesh.n_nodes)), control_weight=1.0,
        admissible=ho.AdmissibleSet("ball", radius=5.0))


class TestBandStepOperator:
    @pytest.mark.parametrize("shape", [(6, 6), (5, 7)])
    def test_2d_step_solve_matches_sparse_direct_solve(self, shape):
        spec = rectangle_spec(shape)
        ops = spec.operators
        dt = spec.grid.step
        rng = np.random.default_rng(sum(shape))
        for _ in range(3):
            shift = rng.uniform(0.0, 5.0, ops.n_nodes)
            rhs = rng.standard_normal(ops.n_nodes)
            mat = ops.mass / dt + ops.stiffness + sps.diags(ops.lumped_mass * shift)
            oracle = spla.spsolve(mat.tocsc(), rhs)
            x = _stepper(spec).solve(shift, rhs)
            assert np.abs(x - oracle).max() <= 1e-12 * np.abs(oracle).max()

    @pytest.mark.parametrize("shape", [None, (6, 6), (5, 7)])
    def test_half_bandwidth_and_band_storage(self, shape):
        spec = make_spec() if shape is None else rectangle_spec(shape)
        ops = spec.operators
        stepper = _stepper(spec)
        k = stepper.k
        assert k == (1 if shape is None else shape[0] + 2)
        dense = (ops.mass / spec.grid.step + ops.stiffness).toarray()
        rebuilt = np.zeros_like(dense)
        for i, j in np.ndindex(*dense.shape):
            if abs(i - j) <= k:
                rebuilt[i, j] = stepper.ab[2 * k + i - j, j]
        assert np.array_equal(rebuilt, dense)

    def test_step_solver_is_shared_across_horizons(self):
        spec = make_spec()
        assert _stepper(spec) is _stepper(spec.with_horizon(3.0))
        assert list(spec.operators.step_solvers) == [spec.grid.step]

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(dimension=st.sampled_from([1, 2]), size=st.integers(3, 5),
           seed=st.integers(0, 2**16))
    def test_adjoint_duality_is_exact(self, dimension, size, seed):
        # <adjoint source, z> = <phi, linearized rhs> on the discrete level
        if dimension == 1:
            spec = make_spec(n_nodes=3 * size, horizon=0.3, step=0.05,
                             initial=0.4 * np.ones(3 * size))
        else:
            spec = rectangle_spec((size, 8 - size), seed=seed, horizon=0.3)
        rate = spec.discounts.state_rate
        ops = spec.operators
        base = ho.solve_forward(spec, random_control(spec, seed=seed, scale=0.2))
        rng = np.random.default_rng(seed)
        n, nc = spec.grid.n_steps, spec.control_count
        v = ho.Trajectory(spec.grid, rng.standard_normal((n + 1, nc)), "control")
        w = rng.standard_normal((n + 1, ops.n_nodes))
        z = ho.solve_linearized(spec, base, v)
        phi = solve_adjoint_from_residual(spec, base, w, rate)
        dt = spec.grid.step
        t = spec.grid.times
        lhs = sum(dt * np.exp(-rate * t[i]) * w[i] @ (ops.mass @ z.values[i])
                  for i in range(1, n + 1))
        rhs = sum(dt * (phi.values[i, ops.control_index] * ops.control_weights)
                  @ v.values[i] for i in range(1, n + 1))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_import_does_not_load_scipy_sparse_linalg():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, horizonopt; print('scipy.sparse.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
