import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import horizonopt as ho
from horizonopt.config import build_field
from horizonopt.descriptors import (DivergenceError, Field, SpaceProfile,
                                    TimeProfile, zero_field)
from horizonopt.spaces import (weighted_inner, weighted_l2_norm,
                               weighted_lp_norm, weighted_sup_norm)

from conftest import make_spec, read_trajectory
from oracles import discounted_power_sum, geometric_weight_sum


def unit_setup(horizon=20.0, step=0.01, n_nodes=21):
    spec = make_spec(n_nodes=n_nodes, horizon=horizon, step=step)
    return spec, spec.operators


def constant_trajectory(spec, value=1.0):
    vals = np.full((spec.grid.n_steps + 1, spec.mesh.n_nodes), value)
    return ho.Trajectory(spec.grid, vals, "state")


class TestWeightedNorms:
    def test_zero_trajectory_has_zero_norms(self):
        spec, ops = unit_setup(horizon=1.0, step=0.05)
        z = ho.Trajectory(spec.grid, np.zeros((21, 21)), "state")
        assert weighted_l2_norm(z, 1.0, ops.mass) == 0.0
        assert weighted_sup_norm(z, 1.0, ops.mass) == 0.0
        assert weighted_lp_norm(z, 1.0, 4.0, ops.mass) == 0.0

    def test_constant_field_matches_geometric_sum(self):
        # unit spatial norm on the unit interval: the squared weighted norm
        # is exactly the discounted geometric sum of the time weights
        spec, ops = unit_setup()
        y = constant_trajectory(spec)
        expected = np.sqrt(geometric_weight_sum(1.0, 0.01, spec.grid.n_steps))
        got = weighted_l2_norm(y, 1.0, ops.mass)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_homogeneity(self):
        spec, ops = unit_setup(horizon=1.0, step=0.05)
        rng = np.random.default_rng(5)
        vals = rng.standard_normal((21, 21))
        y = ho.Trajectory(spec.grid, vals, "state")
        cy = ho.Trajectory(spec.grid, -3.0 * vals, "state")
        assert weighted_l2_norm(cy, 0.7, ops.mass) == pytest.approx(
            3.0 * weighted_l2_norm(y, 0.7, ops.mass), rel=1e-13)
        assert weighted_sup_norm(cy, 0.7, ops.mass) == pytest.approx(
            3.0 * weighted_sup_norm(y, 0.7, ops.mass), rel=1e-13)

    def test_triangle_inequality_on_random_pairs(self):
        spec, ops = unit_setup(horizon=1.0, step=0.05)
        rng = np.random.default_rng(11)
        for p in (2.0, 4.0):
            for _ in range(10):
                a = rng.standard_normal((21, 21))
                b = rng.standard_normal((21, 21))
                na = weighted_lp_norm(ho.Trajectory(spec.grid, a), 0.5, p, ops.mass)
                nb = weighted_lp_norm(ho.Trajectory(spec.grid, b), 0.5, p, ops.mass)
                nab = weighted_lp_norm(ho.Trajectory(spec.grid, a + b), 0.5, p, ops.mass)
                assert nab <= na + nb + 1e-12

    def test_sup_norm_weight_cancellation(self):
        spec, ops = unit_setup(horizon=1.0, step=0.05)
        rate = 0.8
        phi = np.sin(np.linspace(0, np.pi, 21))
        t = spec.grid.times
        vals = np.exp(0.5 * rate * t)[:, None] * phi[None, :]
        y = ho.Trajectory(spec.grid, vals, "state")
        expected = np.sqrt(phi @ (ops.mass @ phi))
        assert weighted_sup_norm(y, rate, ops.mass) == pytest.approx(expected, rel=1e-12)

    def test_sup_norm_single_spike(self):
        spec, ops = unit_setup(horizon=1.0, step=0.05)
        k = 7
        vals = np.zeros((21, 21))
        vals[k, :] = 2.0
        y = ho.Trajectory(spec.grid, vals, "state")
        rate = 1.3
        expected = np.exp(-0.5 * rate * spec.grid.times[k]) * 2.0
        assert weighted_sup_norm(y, rate, ops.mass) == pytest.approx(expected, rel=1e-12)

    def test_lp_norm_reduces_to_l2_at_p_2(self):
        spec, ops = unit_setup(horizon=1.0, step=0.05)
        rng = np.random.default_rng(2)
        y = ho.Trajectory(spec.grid, rng.standard_normal((21, 21)), "state")
        assert weighted_lp_norm(y, 0.9, 2.0, ops.mass) == pytest.approx(
            weighted_l2_norm(y, 0.9, ops.mass), rel=1e-13)

    def test_p4_constant_matches_power_sum_oracle(self):
        spec, ops = unit_setup(horizon=2.0, step=0.01)
        y = constant_trajectory(spec)
        expected = discounted_power_sum(2.0, 0.01, spec.grid.n_steps, power=4.0) ** 0.25
        assert weighted_lp_norm(y, 2.0, 4.0, ops.mass) == pytest.approx(expected, rel=1e-12)

    def test_norms_decrease_in_the_rate(self):
        spec, ops = unit_setup(horizon=1.0, step=0.05)
        rng = np.random.default_rng(8)
        y = ho.Trajectory(spec.grid, rng.standard_normal((21, 21)), "state")
        assert weighted_l2_norm(y, 0.3, ops.mass) >= weighted_l2_norm(y, 1.1, ops.mass)

    def test_shifted_tail_family_converges_in_stronger_weight(self):
        # bounded in the weaker weight, converging on every bounded window:
        # the gap must vanish in any strictly larger rate
        spec, ops = unit_setup(horizon=8.0, step=0.05)
        rate = 0.5
        t = spec.grid.times
        phi = np.cos(np.linspace(0, np.pi, 21))
        base = np.outer(np.exp(-t), phi)
        y = ho.Trajectory(spec.grid, base, "state")
        gaps = []
        bounded = []
        for k in range(1, 7):
            bump = np.exp(0.5 * rate * t)[:, None] * (t > k * 1.0)[:, None] * phi[None, :]
            yk = ho.Trajectory(spec.grid, base + bump, "state")
            bounded.append(weighted_l2_norm(yk, rate, ops.mass))
            gap = ho.Trajectory(spec.grid, yk.values - y.values, "state")
            gaps.append(weighted_l2_norm(gap, rate + 0.8, ops.mass))
        assert max(bounded) < 10.0
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.15 * gaps[0]


class TestTrajectoryIO:
    def test_csv_round_trip(self, tmp_path):
        spec, _ = unit_setup(horizon=0.5, step=0.05)
        rng = np.random.default_rng(4)
        y = ho.Trajectory(spec.grid, rng.standard_normal((11, 21)), "state")
        path = tmp_path / "traj.csv"
        y.to_csv(path)
        back = read_trajectory(path)
        assert back.kind == "state"
        assert np.array_equal(back.values, y.values)
        assert back.grid.n_steps == y.grid.n_steps

    @settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kind=st.sampled_from(["state", "adjoint", "control", "generic"]),
           step=st.sampled_from([0.01, 0.05, 0.1, 0.3, 1.0 / 3.0]),
           n_steps=st.integers(1, 6), width=st.integers(1, 4), data=st.data())
    def test_csv_round_trip_is_bitwise(self, tmp_path, kind, step, n_steps, width, data):
        # 17 significant digits name every finite double exactly
        floats = st.floats(allow_nan=False, allow_infinity=False)
        values = np.array(data.draw(st.lists(floats, min_size=(n_steps + 1) * width,
                                             max_size=(n_steps + 1) * width)))
        y = ho.Trajectory(ho.TimeGrid(n_steps * step, step), values.reshape(-1, width), kind)
        path = tmp_path / "traj.csv"
        y.to_csv(path)
        back = read_trajectory(path)
        assert back.kind == kind
        assert back.grid.step == step and back.grid.n_steps == n_steps
        assert back.values.shape == y.values.shape
        assert np.array_equal(back.values.view(np.int64), y.values.view(np.int64))

    def test_one_dimensional_values_are_refused(self):
        # values are one row per time of one column per node, even for one node
        grid = ho.TimeGrid(0.5, 0.05)
        with pytest.raises(ValueError, match=r"must have shape \(n_steps \+ 1, width\)"):
            ho.Trajectory(grid, np.zeros(11), "state")
        assert ho.Trajectory(grid, np.zeros((11, 1)), "state").width == 1

    def test_csv_header_carries_schema_version(self, tmp_path):
        spec, _ = unit_setup(horizon=0.5, step=0.05)
        y = constant_trajectory(spec)
        path = tmp_path / "t.csv"
        y.to_csv(path)
        first = path.read_text().splitlines()[0]
        assert first.startswith("# horizonopt trajectory v1")

    def test_restriction_truncates(self):
        spec, _ = unit_setup(horizon=1.0, step=0.05)
        y = constant_trajectory(spec)
        short = y.restrict(ho.TimeGrid(0.5, 0.05))
        assert short.values.shape[0] == 11

    def test_non_integral_grid_rejected(self):
        with pytest.raises(ValueError):
            ho.TimeGrid(1.0, 0.3)

    def test_nonfinite_values_rejected(self):
        grid = ho.TimeGrid(0.2, 0.1)
        with pytest.raises(ValueError):
            ho.Trajectory(grid, np.array([[0.0], [np.nan], [0.0]]))

    def test_equality_is_identity_and_a_bool(self):
        # elementwise equality of the values has no single truth value
        grid = ho.TimeGrid(1.0, 0.5)
        a = ho.Trajectory(grid, np.zeros((3, 2)))
        b = ho.Trajectory(grid, np.zeros((3, 2)))
        assert (a == b) is False and (a != b) is True and (a == a) is True


class TestTailNorms:
    def test_zero_descriptor_tail_is_zero(self):
        spec = make_spec()
        assert zero_field().tail_l2(spec.mesh, spec.operators.mass, 1.0, 2.0) == 0.0

    def test_exponential_tail_matches_analytic_integral(self):
        # spatial factor normalized to unit L2 norm, time profile e^{-a t}:
        # the tail from T is e^{-(rate/2 + a) T} / sqrt(rate + 2 a)
        spec = make_spec(n_nodes=41)
        mass = spec.operators.mass
        const = SpaceProfile("constant", value=1.0)
        a, rate, t0 = 0.7, 1.1, 3.0
        field = Field(const, TimeProfile(decay=a))
        expected = np.exp(-(rate / 2 + a) * t0) / np.sqrt(rate + 2 * a)
        assert field.tail_l2(spec.mesh, mass, rate, t0) == pytest.approx(expected, rel=1e-12)

    def test_compact_support_tail_vanishes(self):
        spec = make_spec()
        field = Field(SpaceProfile("constant", value=2.0), TimeProfile(support_end=1.5))
        assert field.tail_l2(spec.mesh, spec.operators.mass, 0.8, 2.0) == 0.0

    def test_gaussian_time_profile_by_quadrature(self):
        spec = make_spec()
        field = Field(SpaceProfile("constant", value=1.0), TimeProfile(gauss_decay=0.5))
        got = field.tail_l2(spec.mesh, spec.operators.mass, 1.0, 1.0)
        from scipy.integrate import quad
        expected = np.sqrt(quad(lambda t: np.exp(-1.0 * t - 1.0 * t * t), 1.0, 20.0)[0])
        assert got == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("decay, rate, support_end, t_start", [
        (0.2, 1.0, 3.5, 1.0), (-0.8, 0.5, 2.0, 0.0), (-0.5, 1.0, 4.0, 1.5),
        (-0.5, 1.0 + 4e-15, 4.0, 0.5),
    ], ids=["decaying", "growing", "mu-zero", "mu-below-1e-14"])
    def test_compact_exponential_tail_by_quadrature(self, decay, rate, support_end, t_start):
        # no Gaussian term and t_start < support_end: the closed form
        # (e^{-mu t_start} - e^{-mu end}) / mu, mu = rate + 2 decay, or the
        # interval length when |mu| < 1e-14
        from scipy.integrate import quad
        profile = TimeProfile(decay=decay, support_end=support_end)
        expected = quad(lambda t: np.exp(-rate * t - 2.0 * decay * t), t_start, support_end,
                        epsabs=0.0, epsrel=1e-13)[0]
        assert profile.squared_tail(rate, t_start) == pytest.approx(expected, rel=1e-12)

    # reference values: the integral evaluated with mpmath at 50 digits
    @pytest.mark.parametrize("decay, gauss_decay, support_end, rate, t_start, expected", [
        (-0.3, 2.0, None, 0.0, 4.0, 5.585669173749536637e-29),
        (0.2, 0.05, 12.0, 1.0, 4.0, 3.2679026530904029064e-4),
        (-0.5, 0.3, None, 0.0, 1.0, 1.4840843300632672476),
        (0.0, 0.5, None, 1.0, 1.0, 3.8570238346952008264e-2),
        (-2.0, 0.1, None, 0.0, 0.5, 1.922868461013798227515068e9),
    ])
    def test_gaussian_tail_matches_high_precision_reference(
            self, decay, gauss_decay, support_end, rate, t_start, expected):
        profile = TimeProfile(decay=decay, gauss_decay=gauss_decay, support_end=support_end)
        got = profile.squared_tail(rate, t_start)
        assert abs(got - expected) <= 1e-13 * expected

    def test_nondecaying_profile_with_nonpositive_rate_raises(self):
        spec = make_spec()
        field = Field(SpaceProfile("constant", value=1.0), TimeProfile())
        with pytest.raises(DivergenceError):
            field.tail_l2(spec.mesh, spec.operators.mass, 0.0, 1.0)


def _gauss_space(x):
    return np.exp(-(((x - 0.3) / 0.15) ** 2))


def _cos_space(x):
    return np.cos(2 * np.pi * x)


class TestFieldTemplates:
    # closed forms on the unit interval; every time profile is cut off at
    # t = 1.25, between two times of the sampled grid on [0, 2]
    @pytest.mark.parametrize("cfg, space, tau", [
        ({"template": "constant", "amplitude": 1.5, "value": -0.7, "rate": 0.4,
          "support_end": 1.25},
         lambda x: np.full_like(x, 1.5 * -0.7), lambda t: np.exp(-0.4 * t)),
        ({"template": "cosine_decay", "amplitude": 1.5, "mode": 2, "rate": 0.4,
          "support_end": 1.25},
         lambda x: 1.5 * _cos_space(x), lambda t: np.exp(-0.4 * t)),
        ({"template": "nodal", "amplitude": -2.0, "values": list(np.linspace(0.0, 1.0, 21) ** 2),
          "rate": 0.3, "support_end": 1.25},
         lambda x: -2.0 * x ** 2, lambda t: np.exp(-0.3 * t)),
        ({"template": "gauss_decay", "amplitude": 0.5, "center": 0.3, "width": 0.15,
          "rate": 0.2, "gauss_rate": 0.7, "support_end": 1.25},
         lambda x: 0.5 * _gauss_space(x), lambda t: np.exp(-0.2 * t - 0.7 * t * t)),
        ({"template": "cosine_decay", "mode": 2, "gauss_rate": 0.1, "support_end": 1.25},
         _cos_space, lambda t: np.exp(-0.1 * t * t)),
    ], ids=["constant", "cosine_decay", "nodal", "gauss_decay-gauss_rate",
            "cosine_decay-gauss_rate"])
    def test_samples_match_closed_form(self, cfg, space, tau):
        spec = make_spec(n_nodes=21, horizon=2.0, step=0.1)
        x, t = spec.mesh.coords[:, 0], spec.grid.times
        expected = np.outer(np.where(t <= 1.25, tau(t), 0.0), space(x))
        got = build_field(cfg, "field").sample(spec.mesh, t)
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("template", ["constant", "gauss_decay", "cosine_decay", "nodal"])
    def test_every_template_but_zero_accepts_gauss_rate(self, template):
        # the one spelling of a Gaussian time profile, whose tail is the
        # closed form of _gaussian_tail
        field = build_field({"template": template, "rate": 0.2, "gauss_rate": 0.7}, "field")
        assert field.time == TimeProfile(decay=0.2, gauss_decay=0.7)

    @pytest.mark.parametrize("template", ["separable", "cosine_compact"])
    def test_retired_spellings_are_refused(self, template):
        with pytest.raises(ValueError, match='field.template: must be one of "zero", '
                                             '"constant", "gauss_decay", "cosine_decay", "nodal"'):
            build_field({"template": template}, "field")


def test_weighted_inner_matches_norm():
    spec = make_spec(horizon=1.0, step=0.05)
    ops = spec.operators
    rng = np.random.default_rng(9)
    vals = rng.standard_normal((21, spec.control_count))
    u = ho.Trajectory(spec.grid, vals, "control")
    ip = weighted_inner(u, u, 0.6, ops.control_weights)
    assert np.sqrt(ip) == pytest.approx(
        weighted_l2_norm(u, 0.6, ops.control_weights), rel=1e-13)


class TestTimeGridTimes:
    def test_times_are_made_once_and_read_only(self):
        grid = ho.TimeGrid(2.0, 0.05)
        assert grid.times is grid.times
        assert np.array_equal(grid.times, 0.05 * np.arange(41))
        with pytest.raises(ValueError, match="read-only"):
            grid.times[3] = 0.0
        assert grid == ho.TimeGrid(2.0, 0.05) and "times" not in repr(grid)

    @pytest.mark.parametrize("rate", [0.0, 0.3, -0.3, 0.5 * 0.7, 1e-3, 40.0])
    def test_discount_is_bitwise_the_exponential_of_the_times(self, rate):
        grid = ho.TimeGrid(3.0, 0.01)
        assert np.array_equal(grid.discount(rate), np.exp(-rate * grid.times))
        # and so the slices its callers take are the exponentials of the slices
        assert np.array_equal(grid.discount(rate)[1:], np.exp(-rate * grid.times[1:]))


def test_import_does_not_load_scipy_integrate():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, horizonopt; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_import_loads_neither_jsonschema_nor_scipy_special():
    # the document reader needs no schema library, and only the tail of a
    # Gaussian time profile needs scipy.special
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, horizonopt; "
            "print(sorted({'jsonschema', 'scipy.special'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
