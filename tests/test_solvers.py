import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import horizonopt as ho
from horizonopt import solvers
from horizonopt.admissible import project_values
from horizonopt.descriptors import Field, SpaceProfile, TimeProfile
from horizonopt.problem import _sparse_product, band_storage
from horizonopt.solvers import CARRY, SolverError, _linear_march, solve_adjoint_from_residual
from horizonopt.spaces import weighted_sup_norm

from conftest import make_spec, model_at, random_control, read_trajectory, rectangle_spec
from oracles import (reference_adjoint, reference_forward, rk4,
                     scalar_adjoint_recursion, scalar_forward_recursion,
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
        spec = replace(spec, newton=ho.NewtonConfig(max_iterations=2))
        with pytest.raises(SolverError) as err:
            ho.solve_forward(spec, spec.zero_control())
        assert err.value.step is not None
        assert len(err.value.history) >= 1

    @pytest.mark.parametrize("dimension, value", [(1, 100.0), (2, 1e4)])
    def test_large_source_stops_at_the_rounding_floor(self, monkeypatch, dimension, value):
        # a large constant source puts the rounding error of the step
        # residual above the tolerance 1e-12, so damping stalls; the march
        # keeps those iterates, as the reference march does
        if dimension == 1:
            spec = make_spec(n_nodes=41, source=np.full((21, 41), value))
        else:
            spec = rectangle_spec((5, 5))
            spec = replace(spec, source=np.full((spec.grid.n_steps + 1, 36), value))
        stalls = []
        floor = solvers._rounding_floor

        def counted(*args):
            stalls.append(args)
            return floor(*args)

        monkeypatch.setattr(solvers, "_rounding_floor", counted)
        u = spec.zero_control()
        expected, damped = reference_forward(spec, spec.step_operator, u)
        assert np.array_equal(ho.solve_forward(spec, u).values, expected)
        assert stalls and damped

    def test_a_sample_frozen_at_the_floor_evaluates_no_halved_trial(self, monkeypatch):
        # the march's events: "n" a Newton iteration, "t" a trial residual,
        # "F" a rounding-floor test
        events = []
        spec = make_spec(n_nodes=41, source=np.full((21, 41), 100.0))
        f = spec.nonlinearity
        spec = replace(spec, nonlinearity=replace(
            f, derivative=lambda s: events.append("n") or f.derivative(s)))
        base_product = type(spec.step_operator).base_product

        def traced(self, y, out):
            product = base_product(self, y, out)
            return lambda: events.append("t") or product()

        monkeypatch.setattr(type(spec.step_operator), "base_product", traced)
        floor = solvers._rounding_floor
        monkeypatch.setattr(solvers, "_rounding_floor",
                            lambda *args: events.append("F") or floor(*args))
        ho.solve_forward(spec, spec.zero_control())
        trace = "".join(events)
        # a floor test that no halved trial follows froze its sample, right
        # after the first trial of its Newton iteration
        frozen = [k for k, e in enumerate(trace) if e == "F" and trace[k + 1:k + 2] != "t"]
        assert frozen and all(trace[k - 2:k] == "nt" for k in frozen)

    def test_stall_above_the_rounding_floor_raises(self):
        # f = 10 sign(s) leaves the first step equation without a solution:
        # damping stalls with a residual near 9.8, far above rounding
        zero = np.zeros_like
        sign = ho.Nonlinearity("sign", lambda s: 10.0 * np.sign(s), zero, zero)
        spec = replace(make_spec(initial=np.full(21, 0.01)), nonlinearity=sign)
        with pytest.raises(SolverError, match="damping stalled at time step 1") as err:
            ho.solve_forward(spec, spec.zero_control())
        assert err.value.history[-1] > 9.0


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
        spec = replace(spec, newton=ho.NewtonConfig(tolerance=1e-13))
        u = random_control(spec, seed=13, scale=0.3)
        v = random_control(spec, seed=14, scale=1.0)
        y = ho.solve_forward(spec, u)
        z = ho.solve_linearized(spec, y, v)
        w = ho.solve_second_order(spec, y, z, z)
        errs = []
        for eps in (0.1, 0.01):
            ue = ho.Trajectory(spec.grid, u.values + eps * v.values, "control")
            ye = ho.solve_forward(spec, ue)
            rem = ye.values - y.values - eps * z.values - 0.5 * eps**2 * w.values
            rem_traj = ho.Trajectory(spec.grid, rem, "generic")
            errs.append(weighted_sup_norm(rem_traj, spec.discounts.state_rate,
                                          spec.operators.mass))
        order = np.log10(errs[0] / errs[1])
        assert order >= 2.7, (errs, order)


class TestAdjoint:
    def test_zero_residual_gives_zero_adjoint(self, small_spec):
        y = ho.solve_forward(small_spec, small_spec.zero_control())
        phi = ho.solve_adjoint(replace(small_spec, target=y.values), y)
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
        u = spec.zero_control()
        report = ho.check_energy_estimate(spec, u, ho.solve_forward(spec, u), 1.0)
        assert report.lhs == 0.0 and report.rhs == 0.0 and report.satisfied

    def test_constant_state_closed_form(self):
        # no diffusion decay (reaction 0, no forcing): the state stays 1 and
        # both sides are computable in closed form; lhs must stay below 2
        spec = make_spec(nonlinearity="zero", initial=np.ones(21), horizon=2.0,
                         step=0.01)
        rate = 1.0
        u = spec.zero_control()
        report = ho.check_energy_estimate(spec, u, ho.solve_forward(spec, u), rate)
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
            state = ho.solve_forward(spec, u)
            for rate in rates:
                report = ho.check_energy_estimate(spec, u, state, rate)
                assert report.satisfied, (name, rate, report.lhs, report.rhs)

    def test_linearized_estimate_with_stability_constant(self):
        rng = np.random.default_rng(40)
        spec = make_spec(nonlinearity="cubic", horizon=1.0, step=0.01,
                         initial=0.3 * np.ones(21))
        u = random_control(spec, seed=41, scale=0.3)
        h = rng.standard_normal((spec.grid.n_steps + 1, 21))
        state = ho.solve_forward(spec, u)
        for rate in (1.0, 0.12, 0.56):
            report = ho.check_linearized_estimate(spec, state, h, rate)
            assert report.satisfied, (rate, report.lhs, report.rhs)

    @pytest.mark.parametrize("name, rate, floor", [("cubic_minus_linear", 1.5, "2"),
                                                   ("cubic", 0.0, "0")],
                             ids=["cubic_minus_linear", "cubic"])
    def test_rate_out_of_range_raises(self, name, rate, floor):
        # the floor is -2*min_slope, which reads 0, not -0, at min_slope 0
        spec = make_spec(nonlinearity=name, state_rate=12.0, aux_rate=2.2)
        u = spec.zero_control()
        state = ho.solve_forward(spec, u)
        message = f"^rate must exceed {floor} for this estimate$"
        with pytest.raises(ValueError, match=message):
            ho.check_energy_estimate(spec, u, state, rate)
        with pytest.raises(ValueError, match=message):
            ho.check_linearized_estimate(spec, state, np.zeros_like(state.values), rate)


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
            discounts=Discounts(1.0, 0.4, 0.1),
            grid=ho.TimeGrid(0.4, 0.05),
            initial_state=0.3 * rng.standard_normal(mesh.n_nodes),
            source=np.zeros((9, mesh.n_nodes)),
            target=0.2 * np.ones((9, mesh.n_nodes)), control_weight=1.0,
            admissible=ho.AdmissibleSet("ball", radius=5.0),
            newton=ho.NewtonConfig(tolerance=1e-13))
        nc = spec.control_count
        u = ho.Trajectory(spec.grid, 0.2 * rng.standard_normal((9, nc)), "control")
        v = ho.Trajectory(spec.grid, rng.standard_normal((9, nc)), "control")
        grad = ho.gradient(spec, u)
        val = weighted_inner(grad, v, spec.discounts.control_rate,
                             spec.operators.control_weights)
        eps = 1e-5
        up = ho.Trajectory(spec.grid, u.values + eps * v.values, "control")
        dn = ho.Trajectory(spec.grid, u.values - eps * v.values, "control")
        fd = (ho.cost(spec, up).total - ho.cost(spec, dn).total) / (2 * eps)
        assert abs(val - fd) / max(abs(val), 1e-300) < 1e-7


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
            stepper = spec.step_operator
            x = stepper.solve(stepper.factor(stepper.shifted(shift)), rhs)
            assert np.abs(x - oracle).max() <= 1e-12 * np.abs(oracle).max()

    @pytest.mark.parametrize("shape", [None, (6, 6), (5, 7)])
    def test_half_bandwidth_and_band_storage(self, shape):
        spec = make_spec() if shape is None else rectangle_spec(shape)
        ops = spec.operators
        stepper = spec.step_operator
        k = stepper.k
        assert k == (1 if shape is None else shape[0] + 2)
        dense = (ops.mass / spec.grid.step + ops.stiffness).toarray()
        assert stepper.ab.shape == (k + 1, ops.n_nodes)
        rebuilt = np.zeros_like(dense)
        for i, j in np.ndindex(*dense.shape):
            if abs(i - j) <= k:
                rebuilt[i, j] = stepper.ab[k - abs(i - j), max(i, j)]
        assert np.array_equal(rebuilt, dense)

    @pytest.mark.parametrize("rows", [None, 1, 10])
    def test_2d_products_are_bitwise_the_sparse_matmul(self, rows):
        # the bound products call scipy's private CSR kernels directly; they
        # must stay bitwise the ``@`` they replace, on one row and on a
        # stack, with buffers reused from one call to the next
        stepper = rectangle_spec((5, 7)).step_operator
        n = stepper.base.shape[0]
        shape = (n,) if rows is None else (rows, n)
        rng = np.random.default_rng(rows)
        for matrix in (stepper.base, stepper.mass):
            y, out = np.empty(shape), np.full(shape, np.nan)
            product = _sparse_product(matrix, y, out)
            for _ in range(2):
                y[...] = rng.standard_normal(shape)
                assert product() is out
                assert np.array_equal(out, (matrix @ y.T).T)

    def test_band_storage_needs_an_exactly_symmetric_matrix(self):
        spec = rectangle_spec((5, 7))
        ops = spec.operators
        mat = (ops.mass / spec.grid.step + ops.stiffness).tocsr()
        assert (mat != mat.T).nnz == 0
        k, ab = band_storage(mat)
        assert k == 7 and ab.shape == (8, ops.n_nodes)
        skewed = mat.tolil()
        skewed[0, 1] = np.nextafter(skewed[0, 1], np.inf)
        with pytest.raises(ValueError, match="exactly symmetric"):
            band_storage(skewed.tocsr())

    def test_1d_zero_diagonal_is_a_singular_step_matrix(self):
        # with a zero diagonal gtsv meets an exactly zero last pivot, for one
        # system and for two joined ones
        cfg = ho.load_config(Path(__file__).resolve().parent.parent / "configs"
                             / "ball_cubic.json")
        stepper = ho.build_problem(cfg).step_operator
        n = stepper.ab.shape[1]
        for shape in ((n,), (2, n)):
            with pytest.raises(SolverError, match=r"^singular step matrix \(gtsv info 41\)$"):
                stepper.solve(stepper.factor(np.zeros(shape)), np.ones(shape))

    def test_step_solver_is_shared_across_horizons(self):
        spec = make_spec()
        assert spec.with_horizon(3.0).step_operator is spec.step_operator

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(dimension=st.sampled_from([1, 2]), size=st.integers(3, 5),
           seed=st.integers(0, 2**16), masked=st.booleans())
    def test_adjoint_duality_is_exact(self, dimension, size, seed, masked):
        # <adjoint source, z> = <phi, linearized rhs> on the discrete level;
        # a masked source restricts both sides of the pairing to the
        # observation subdomain
        if dimension == 1:
            spec = make_spec(n_nodes=3 * size, horizon=0.3, step=0.05,
                             initial=0.4 * np.ones(3 * size), observation=(0.1, 0.6))
        else:
            spec = rectangle_spec((size, 8 - size), seed=seed, horizon=0.3,
                                  observation=((0.1, 0.6), (0.3, 0.9)))
        mask = spec.observation_mask if masked else 1.0
        rate = spec.discounts.state_rate
        ops = spec.operators
        base = ho.solve_forward(spec, random_control(spec, seed=seed, scale=0.2))
        rng = np.random.default_rng(seed)
        n, nc = spec.grid.n_steps, spec.control_count
        v = ho.Trajectory(spec.grid, rng.standard_normal((n + 1, nc)), "control")
        w = rng.standard_normal((n + 1, ops.n_nodes))
        z = ho.solve_linearized(spec, base, v)
        phi = solve_adjoint_from_residual(spec, base, w, rate, masked=masked)
        dt = spec.grid.step
        t = spec.grid.times
        lhs = sum(dt * np.exp(-rate * t[i]) * (mask * w[i]) @ (ops.mass @ (mask * z.values[i]))
                  for i in range(1, n + 1))
        rhs = sum(dt * (phi.values[i, ops.control_index] * ops.control_weights)
                  @ v.values[i] for i in range(1, n + 1))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def small_spec_of(dimension, size, seed):
    """Small 1D or 2D cubic instance with an observation subdomain."""
    if dimension == 1:
        return make_spec(n_nodes=3 * size, horizon=0.3, step=0.05,
                         initial=0.4 * np.ones(3 * size), observation=(0.1, 0.6))
    return rectangle_spec((size, 8 - size), seed=seed, horizon=0.3,
                          observation=((0.1, 0.6), (0.3, 0.9)))


class TestKernelsMatchReference:
    """The march kernels against the plain one-column loops of oracles.py:
    equal bit for bit, not to a tolerance."""

    @settings(max_examples=20)
    @given(dimension=st.sampled_from([1, 2]), size=st.integers(3, 5),
           seed=st.integers(0, 2**16), masked=st.booleans(),
           scale=st.sampled_from([0.2, 3000.0]))
    def test_forward_and_adjoint_are_bitwise_reference(self, dimension, size, seed,
                                                       masked, scale):
        spec = small_spec_of(dimension, size, seed)
        stepper = spec.step_operator
        u = random_control(spec, seed=seed, scale=scale)
        y = ho.solve_forward(spec, u)
        expected, _ = reference_forward(spec, stepper, u)
        assert np.array_equal(y.values, expected)
        residual = np.random.default_rng(seed).standard_normal(y.values.shape)
        rate = spec.discounts.state_rate
        phi = solve_adjoint_from_residual(spec, y, residual, rate, masked=masked)
        assert np.array_equal(phi.values,
                              reference_adjoint(spec, stepper, y, residual, rate, masked))

    @settings(max_examples=15)
    @given(size=st.integers(3, 5), seed=st.integers(0, 2**16), masked=st.booleans(),
           scale=st.sampled_from([0.2, 3000.0]))
    def test_2d_adjoint_with_forward_factors_is_bitwise_reference(self, size, seed, masked,
                                                                   scale):
        # scale 3000 damps the Newton steps, so later iterations factor
        # other matrices than the first one, which is the one handed over
        spec = small_spec_of(2, size, seed)
        u = random_control(spec, seed=seed, scale=scale)
        y = ho.solve_forward(spec, u)
        n = spec.grid.n_steps
        assert len(y.factors) == n + 1 and y.factors[n] is None
        assert all(c is not None for c in y.factors[:n])
        residual = np.random.default_rng(seed).standard_normal(y.values.shape)
        rate = spec.discounts.state_rate
        phi = solve_adjoint_from_residual(spec, y, residual, rate, masked=masked)
        assert np.array_equal(phi.values, reference_adjoint(spec, spec.step_operator, y, residual,
                                                            rate, masked))

    def test_zero_data_hands_over_no_factors(self, monkeypatch):
        # zero initial state, source and control: every step starts converged,
        # so no Newton iteration factors anything; the state never changes,
        # so the adjoint factors S_N once and reuses it at every step
        spec = rectangle_spec((4, 4))
        spec = replace(spec, initial_state=np.zeros(spec.operators.n_nodes))
        y = ho.solve_forward(spec, spec.zero_control())
        assert not y.values.any()
        assert y.factors == [None] * (spec.grid.n_steps + 1)
        expected = reference_adjoint(spec, spec.step_operator, y, y.values - spec.target_samples,
                                     spec.discounts.state_rate, True)
        assert expected.any()
        made = []
        factor = type(spec.step_operator).factor

        def counted(self, d):
            made.append(d)
            return factor(self, d)

        monkeypatch.setattr(type(spec.step_operator), "factor", counted)
        assert np.array_equal(ho.solve_adjoint(spec, y).values, expected)
        assert len(made) == 1

    def test_1d_and_batches_hand_over_nothing(self):
        spec = small_spec_of(1, 4, 0)
        u = random_control(spec, seed=0, scale=0.2)
        assert ho.solve_forward(spec, u).factors is None
        spec = small_spec_of(2, 4, 0)
        u = random_control(spec, seed=0, scale=0.2)
        states = ho.solve_forward(spec, [u, u])
        assert len(states) == 2 and all(y.factors is None for y in states)

    def test_only_the_forward_solved_state_owns_factors(self, tmp_path):
        spec = small_spec_of(2, 4, 0)
        y = ho.solve_forward(spec, random_control(spec, seed=0, scale=0.2))
        assert y.factors is not None
        assert y.restrict(ho.TimeGrid(0.1, spec.grid.step)).factors is None
        y.to_csv(tmp_path / "state.csv")
        loaded = read_trajectory(tmp_path / "state.csv")
        assert loaded.factors is None and np.array_equal(loaded.values, y.values)
        # the factors do not show in repr
        bare = ho.Trajectory(y.grid, y.values, "state")
        assert bare.factors is None and repr(bare) == repr(y)

    @settings(max_examples=10)
    @given(size=st.integers(3, 5), seed=st.integers(0, 2**16),
           scale=st.sampled_from([0.2, 3000.0]))
    def test_marches_around_a_forward_solved_state_reuse_its_factors(self, size, seed, scale):
        # the adjoint, linearized and second-order marches around a 2D
        # forward-solved state give the bits they give around its bare copy,
        # and factor fewer step matrices
        spec = small_spec_of(2, size, seed)
        y = ho.solve_forward(spec, random_control(spec, seed=seed, scale=scale))
        bare = ho.Trajectory(y.grid, y.values, "state")
        directions = [random_control(spec, seed=seed + k) for k in (1, 2)]
        stepper_type = type(spec.step_operator)
        factor = stepper_type.factor
        made = []

        def counted(self, d):
            made.append(d)
            return factor(self, d)

        def marches(base):
            # the values of each march and the factorizations each one made
            made.clear()
            adjoint = ho.solve_adjoint(spec, base)
            counts = [len(made)]
            z1, z2 = ho.solve_linearized(spec, base, directions)
            counts.append(len(made) - sum(counts))
            z12 = ho.solve_second_order(spec, base, z1, z2)
            counts.append(len(made) - sum(counts))
            return [t.values for t in (adjoint, z1, z2, z12)], counts

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stepper_type, "factor", counted)
            owned, owned_counts = marches(y)
            plain, plain_counts = marches(bare)
        assert all(np.array_equal(a, b) for a, b in zip(owned, plain))
        assert all(a < b for a, b in zip(owned_counts, plain_counts))

    def test_factors_serve_only_their_own_step_matrices(self):
        # a state solved under one problem and marched around under another
        # (f = 0 instead of the cubic) gives the bits of its bare copy
        spec = small_spec_of(2, 4, 0)
        y = ho.solve_forward(spec, random_control(spec, seed=1, scale=0.5))
        bare = ho.Trajectory(y.grid, y.values, "state")
        other = replace(spec, nonlinearity=ho.builtin_nonlinearities()["zero"])
        v = random_control(spec, seed=2)
        assert np.array_equal(ho.solve_adjoint(other, y).values,
                              ho.solve_adjoint(other, bare).values)
        assert np.array_equal(ho.solve_linearized(other, y, v).values,
                              ho.solve_linearized(other, bare, v).values)

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_damped_newton_steps_are_bitwise_reference(self, dimension):
        spec = small_spec_of(dimension, 4, seed=3)
        u = random_control(spec, seed=0, scale=3000.0)
        expected, damped = reference_forward(spec, spec.step_operator, u)
        assert damped > 0
        assert np.array_equal(ho.solve_forward(spec, u).values, expected)


class TestStepEquationHolds:
    """Every row i >= 1 of a 2D forward-solved state satisfies the step
    equation M (y_i - y_{i-1})/dt + K y_i + M_L f(y_i) = M g_i + W u_i,
    evaluated with plain CSR products, whichever Newton variant produced it:
    its residual norm is within the Newton tolerance, or within the rounding
    floor of evaluating it.  Each side's rounding error is bounded by the
    floor, so the bound is the larger of the two plus twice the floor."""

    @staticmethod
    def assert_step_equation(spec, control, state):
        ops, f, dt = spec.operators, spec.nonlinearity, spec.grid.step
        mass, stiffness, lumped = ops.mass.tocsr(), ops.stiffness.tocsr(), ops.lumped_mass
        y, g = state.values, spec.source_samples
        eps = np.finfo(float).eps
        for i in range(1, spec.grid.n_steps + 1):
            forcing = mass @ g[i]
            forcing[ops.control_index] += control.values[i] * ops.control_weights
            fy = f.value(y[i])
            r = (mass @ (y[i] - y[i - 1]) / dt + stiffness @ y[i] + lumped * fy - forcing)
            terms = (abs(mass) @ abs(y[i]) / dt + abs(stiffness) @ abs(y[i]) + lumped * abs(fy)
                     + mass @ abs(y[i - 1]) / dt + abs(forcing))
            floor = eps * np.sqrt(np.sum(terms * terms / lumped))
            rn = np.sqrt(np.sum(r * r / lumped))
            assert rn <= max(spec.newton.tolerance, floor) + 2.0 * floor, (i, rn, floor)

    def test_one_control(self):
        spec = small_spec_of(2, 4, seed=3)
        u = random_control(spec, seed=0, scale=0.2)
        self.assert_step_equation(spec, u, ho.solve_forward(spec, u))

    def test_batch_with_a_damped_sample(self):
        spec = small_spec_of(2, 4, seed=3)
        controls = [random_control(spec, seed=0, scale=0.2),
                    random_control(spec, seed=1, scale=3000.0),
                    random_control(spec, seed=2, scale=0.2)]
        assert reference_forward(spec, spec.step_operator, controls[1])[1] > 0
        for u, y in zip(controls, ho.solve_forward(spec, controls)):
            self.assert_step_equation(spec, u, y)

    def test_large_constant_source(self):
        spec = rectangle_spec((5, 5))
        spec = replace(spec, source=np.full((spec.grid.n_steps + 1, 36), 1e4))
        u = spec.zero_control()
        self.assert_step_equation(spec, u, ho.solve_forward(spec, u))


class TestSimplifiedNewton:
    def test_a_smooth_2d_solve_factors_once_per_iterating_step(self, monkeypatch):
        # a smooth control contracts fast enough that every step keeps the
        # factorization of its first Newton iteration: one band Cholesky
        # block per step that iterates, each kept in the state's factors
        spec = small_spec_of(2, 4, seed=3)
        stepper_type = type(spec.step_operator)
        factor = stepper_type.factor
        blocks = []

        def counted(self, d):
            blocks.append(d)
            return factor(self, d)

        monkeypatch.setattr(stepper_type, "factor", counted)
        y = ho.solve_forward(spec, random_control(spec, seed=0, scale=0.2))
        iterating = sum(pair is not None for pair in y.factors)
        assert iterating == spec.grid.n_steps
        assert len(blocks) == iterating


# every nonlinearity the march evaluates in place; each rounds on its own
NONLINEARITIES = {**ho.builtin_nonlinearities(), "linear(2)": ho.linear_nonlinearity(2.0)}


class TestEveryNonlinearityMatchesReference:
    """Forward and adjoint marches against the reference loops of oracles.py
    for every nonlinearity, alone and in a batch where one sample damps; the
    batch against the reference that carries factorizations across steps."""

    @pytest.mark.parametrize("name", sorted(NONLINEARITIES))
    @pytest.mark.parametrize("dimension", [1, 2])
    def test_forward_and_adjoint_are_bitwise_reference(self, dimension, name):
        f = NONLINEARITIES[name]
        spec = replace(small_spec_of(dimension, 4, seed=3), nonlinearity=f)
        stepper = spec.step_operator
        controls = [random_control(spec, seed=0, scale=0.2),
                    random_control(spec, seed=1, scale=3000.0)]
        expected = [reference_forward(spec, stepper, u) for u in controls]
        # a linear step equation is solved by its first Newton step
        damps = f.second_derivative(np.ones(1)).any()
        assert [damped > 0 for _, damped in expected] == [False, damps]
        for u, (values, _) in zip(controls, expected):
            y = ho.solve_forward(spec, u)
            assert np.array_equal(y.values, values)
            residual = y.values - spec.target_samples
            rate = spec.discounts.state_rate
            assert np.array_equal(ho.solve_adjoint(spec, y).values,
                                  reference_adjoint(spec, stepper, y, residual, rate, True))
        for y, u in zip(ho.solve_forward(spec, controls), controls):
            assert np.array_equal(y.values, reference_forward(spec, stepper, u, carry=CARRY)[0])


class TestReusedBuffersDoNotLeak:
    @pytest.mark.parametrize("dimension", [1, 2])
    def test_later_marches_leave_earlier_results_and_the_operator_unchanged(self, dimension):
        # the marches write into buffers they reuse, and the 1D step solve
        # overwrites its diagonal and right-hand side: none of that may reach
        # a returned state, a state's factorizations or the step operator
        spec = small_spec_of(dimension, 4, seed=3)
        stepper = spec.step_operator
        y = ho.solve_forward(spec, random_control(spec, seed=0, scale=0.2))
        batch = ho.solve_forward(spec, [random_control(spec, seed=1, scale=0.2),
                                        random_control(spec, seed=2, scale=3000.0)])
        v = random_control(spec, seed=3)
        z = ho.solve_linearized(spec, y, v)
        held = [y.values, z.values, *(s.values for s in batch), stepper.diagonal,
                stepper.lumped, stepper.ab]
        if dimension == 1:
            held += [*stepper.bands, *stepper.mass_bands]
        else:
            # each stored diagonal is that of S(y_i), its own array
            derivative = spec.nonlinearity.derivative
            assert all(np.array_equal(pair[0], stepper.shifted(derivative(y.values[i])))
                       for i, pair in enumerate(y.factors) if pair is not None)
            held += [a for pair in y.factors if pair is not None for a in (pair[0], *pair[1])]
        before = [a.tobytes() for a in held]
        ho.solve_forward(spec, random_control(spec, seed=4, scale=3000.0))
        ho.solve_forward(spec, [random_control(spec, seed=k, scale=0.2) for k in (5, 6, 7)])
        ho.solve_adjoint(spec, y)
        z1, z2 = ho.solve_linearized(spec, y, [v, random_control(spec, seed=8)])
        ho.solve_second_order(spec, y, z1, z2)
        for s in batch:
            ho.solve_adjoint(spec, s)
        assert [a.tobytes() for a in held] == before


class TestNonFiniteLinearSolve:
    """A linear march result with a non-finite value raises one SolverError,
    found by the one finiteness scan of the trajectories made from it."""

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_adjoint_of_a_non_finite_residual(self, dimension):
        spec = small_spec_of(dimension, 4, seed=3)
        y = ho.solve_forward(spec, random_control(spec, seed=0, scale=0.2))
        residual = np.zeros_like(y.values)
        residual[3, 1] = np.nan
        with pytest.raises(SolverError, match="^linear solve produced non-finite values$"):
            solve_adjoint_from_residual(spec, y, residual, spec.discounts.state_rate)

    def test_one_non_finite_source_in_a_batch(self, monkeypatch):
        # a batch's responses are scanned as its trajectories are made
        spec = small_spec_of(2, 4, seed=3)
        y = ho.solve_forward(spec, random_control(spec, seed=0, scale=0.2))
        scatter = type(spec.operators).scatter_control

        def poisoned(self, values):
            sources = scatter(self, values)
            sources[2, 1, 0] = np.inf
            return sources

        monkeypatch.setattr(type(spec.operators), "scatter_control", poisoned)
        directions = [random_control(spec, seed=k) for k in (1, 2, 3)]
        with pytest.raises(SolverError, match="^linear solve produced non-finite values$"):
            ho.solve_linearized(spec, y, directions)


class TestCausality:
    @settings(max_examples=10)
    @given(dimension=st.sampled_from([1, 2]), size=st.integers(3, 5),
           seed=st.integers(0, 2**16), short=st.integers(1, 5),
           scale=st.sampled_from([0.2, 3000.0]))
    def test_truncated_control_gives_the_truncated_state(self, dimension, size, seed,
                                                         short, scale):
        # the state of a truncated control on the shorter grid is, bit for
        # bit, the truncation of the state, which the horizon study's warm
        # start relies on
        spec = small_spec_of(dimension, size, seed)
        source = Field(SpaceProfile("gaussian", center=(0.4,), width=0.3),
                       TimeProfile(decay=0.5), amplitude=2.0)
        spec = replace(spec, source=source)
        u = random_control(spec, seed=seed, scale=scale)
        sub = spec.with_horizon(short * spec.grid.step)
        truncated = ho.solve_forward(sub, u.restrict(sub.grid))
        restricted = ho.solve_forward(spec, u).restrict(sub.grid)
        assert np.array_equal(truncated.values, restricted.values)


class TestBatchedMarch:
    @settings(max_examples=15)
    @given(dimension=st.sampled_from([1, 2]), size=st.integers(3, 5),
           seed=st.integers(0, 2**16), batch=st.integers(1, 6))
    def test_batch_is_bitwise_per_right_hand_side(self, dimension, size, seed, batch):
        spec = small_spec_of(dimension, size, seed)
        n = spec.grid.n_steps
        u = random_control(spec, seed=seed, scale=0.3)
        model = model_at(spec, u)
        rng = np.random.default_rng(seed)
        sources = rng.standard_normal((n + 1, batch, spec.operators.n_nodes))
        for steps in (range(1, n + 1), range(n, -1, -1)):
            joint = _linear_march(spec, model.state, sources, steps)
            for b in range(batch):
                alone = _linear_march(spec, model.state, sources[:, b], steps)
                assert np.array_equal(joint[:, b], alone)
                assert joint[:, b].flags.c_contiguous
        directions = [random_control(spec, seed=seed + 1 + b) for b in range(batch)]
        responses = model.response(directions)
        forms = model.quadratic_form(directions, directions)
        for v, z, form in zip(directions, responses, forms):
            assert np.array_equal(z.values, model.response(v).values)
            assert form == model.quadratic_form(v, v)

    def test_empty_batch_gives_empty_list(self):
        spec = make_spec()
        model = model_at(spec, random_control(spec, seed=1, scale=0.3))
        assert model.response([]) == []
        assert model.quadratic_form([], []) == []


class TestBatchedForward:
    """A list of controls is marched in one batch; each state must be what
    its solve as a list of one gives, bit for bit, and what the reference
    march gives under the rule of a march that keeps no factorizations."""

    @settings(max_examples=15)
    @given(dimension=st.sampled_from([1, 2]), size=st.integers(3, 5),
           seed=st.integers(0, 2**16), batch=st.integers(1, 6), first=st.integers(0, 1))
    def test_batch_is_bitwise_per_control(self, dimension, size, seed, batch, first):
        # scales 0.2 and 3000 alternate, so that some samples damp and the
        # samples need different numbers of Newton iterations
        spec = small_spec_of(dimension, size, seed)
        stepper = spec.step_operator
        controls = [random_control(spec, seed=seed + b, scale=(0.2, 3000.0)[(b + first) % 2])
                    for b in range(batch)]
        states = ho.solve_forward(spec, controls)
        assert len(states) == batch
        for u, y in zip(controls, states):
            assert y.kind == "state" and y.values.flags.c_contiguous
            assert np.array_equal(y.values, ho.solve_forward(spec, [u])[0].values)
            assert np.array_equal(y.values, reference_forward(spec, stepper, u, carry=CARRY)[0])

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_mixed_batch_damps_some_samples_only(self, dimension):
        spec = small_spec_of(dimension, 4, seed=3)
        stepper = spec.step_operator
        controls = [random_control(spec, seed=0, scale=0.2),
                    random_control(spec, seed=1, scale=3000.0)]
        expected = [reference_forward(spec, stepper, u, carry=CARRY) for u in controls]
        assert [damped > 0 for _, damped in expected] == [False, True]
        for y, (values, _) in zip(ho.solve_forward(spec, controls), expected):
            assert np.array_equal(y.values, values)

    def test_a_rejected_carried_factorization_is_refactored(self):
        # the control jumps from scale 0.2 to 3000 at row 4: the sample
        # carries a smooth step's factorization into step 4, where the first
        # trial on it fails, and the march refactors at the iterate and
        # repeats the trial undamped, as the reference does
        spec = small_spec_of(2, 4, seed=3)
        u = random_control(spec, seed=2, scale=0.2)
        u.values[4:] *= 3000.0 / 0.2
        values, damped = reference_forward(spec, spec.step_operator, u, carry=CARRY)
        assert damped > 0
        assert np.array_equal(ho.solve_forward(spec, [u])[0].values, values)

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_batch_marches_rows_through_the_problem_step_operator(self, dimension,
                                                                  monkeypatch):
        # a batch multiplies, factors and solves its (B, N) rows through
        # spec.step_operator itself: no second step operator, no
        # block-diagonal copy of M/dt + K or M
        spec = small_spec_of(dimension, 4, seed=3)
        stepper_type, built = type(spec.step_operator), []
        init = stepper_type.__init__

        def counted_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        def no_block_diag(*args, **kwargs):
            raise AssertionError("scipy.sparse.block_diag called")

        monkeypatch.setattr(stepper_type, "__init__", counted_init)
        monkeypatch.setattr(sps, "block_diag", no_block_diag)
        controls = [random_control(spec, seed=b, scale=0.2) for b in range(3)]
        states = ho.solve_forward(spec, controls)
        assert not built and len(states) == 3
        for u, y in zip(controls, states):
            assert np.array_equal(y.values, ho.solve_forward(spec, [u])[0].values)

    def test_empty_list_gives_empty_list(self):
        assert ho.solve_forward(make_spec(), []) == []

    @pytest.mark.parametrize("two_d, bound", [(False, 1.6), (True, 2.2)])
    def test_march_keeps_no_forcing_table(self, two_d, bound):
        # each step's forcing waits in the result row its state overwrites,
        # so marching 64 admissible ball_cubic controls (1D, and on 8x8)
        # peaks within 1.6 and 2.2 times the bytes of the states it returns;
        # a forcing table of its own, as large as the states, reads 2.44 and 2.80
        cfg = ho.load_config(Path(__file__).resolve().parent.parent / "configs"
                             / "ball_cubic.json")
        if two_d:
            cfg["mesh"].update(dimension=2, shape=[8, 8],
                               control={"box": [[0.2, 0.8], [0.2, 0.8]]})
        spec = ho.build_problem(cfg)
        weights = spec.operators.control_weights
        controls = [ho.Trajectory(spec.grid, project_values(
            spec.admissible, random_control(spec, seed=k, scale=0.3).values, weights), "control")
            for k in range(64)]
        # the problem's sampled data and step operator are built before tracing
        ho.solve_forward(spec, controls[:2])
        tracemalloc.start()
        try:
            states = ho.solve_forward(spec, controls)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * sum(y.values.nbytes for y in states)

    def test_wrongly_shaped_control_anywhere_is_rejected(self):
        spec = make_spec()
        good = random_control(spec, seed=0, scale=0.2)
        wide = ho.Trajectory(spec.grid, np.zeros((spec.grid.n_steps + 1, spec.control_count + 1)),
                             "control")
        short = random_control(spec.with_horizon(0.5), seed=1)
        state = ho.Trajectory(spec.grid, np.zeros((spec.grid.n_steps + 1, spec.control_count)),
                              "state")
        for bad in (wide, short, state):
            for batch in ([bad], [good, bad], [bad, good]):
                with pytest.raises(ValueError):
                    ho.solve_forward(spec, batch)


class TestBatchedForwardFailure:
    """A failed batch raises, among the samples failing at the earliest time
    step, the error the lowest-indexed one raises in its own solve."""

    @staticmethod
    def own_error(spec, control):
        with pytest.raises(SolverError) as info:
            ho.solve_forward(spec, control)
        return info.value

    @staticmethod
    def same_error(a, b):
        return (str(a), a.step, a.history) == (str(b), b.step, b.history)

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_good_and_bad_raise_the_bad_samples_own_error(self, dimension):
        spec = replace(small_spec_of(dimension, 4, seed=3),
                       newton=ho.NewtonConfig(max_iterations=3))
        good = random_control(spec, seed=0, scale=0.2)
        bad = random_control(spec, seed=1, scale=3000.0)
        ho.solve_forward(spec, good)
        own = self.own_error(spec, bad)
        assert own.step == 1 and own.history
        for batch in ([good, bad], [bad, good]):
            assert self.same_error(self.own_error(spec, batch), own)

    def test_failure_late_in_a_long_list_raises_its_own_error(self):
        spec = replace(small_spec_of(1, 4, seed=3), newton=ho.NewtonConfig(max_iterations=3))
        controls = [random_control(spec, seed=k, scale=0.2) for k in range(70)]
        bad = random_control(spec, seed=1, scale=3000.0)
        controls[66] = bad
        assert self.same_error(self.own_error(spec, controls), self.own_error(spec, bad))

    def test_earliest_step_wins_then_lowest_index(self):
        spec = replace(small_spec_of(1, 4, seed=3), newton=ho.NewtonConfig(max_iterations=3))

        def bad_from(row, seed):
            u = random_control(spec, seed=seed, scale=0.2)
            u.values[row:] *= 3000.0 / 0.2
            return u

        late, early, early_too = bad_from(4, 1), bad_from(2, 2), bad_from(2, 3)
        errors = [self.own_error(spec, u) for u in (late, early, early_too)]
        assert errors[0].step > errors[1].step == errors[2].step
        assert not self.same_error(errors[1], errors[2])
        assert self.same_error(self.own_error(spec, [late, early, early_too]), errors[1])
        assert self.same_error(self.own_error(spec, [late, early_too, early]), errors[2])


def test_import_does_not_load_scipy_sparse_linalg():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, horizonopt; print('scipy.sparse.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
