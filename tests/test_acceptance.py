"""Acceptance gate: every criterion below prints one PASS/FAIL line and is
enforced at its stated tolerance.  Desk scale throughout (1D meshes, a few
hundred time steps).  Criteria 1, 3, 5, 6 and 7 also run in 2D, on the
shipped documents put on an 8x8 mesh (p = 3), each at its criterion's
tolerance; criterion 1 in 2D checks the gradient at an optimizer output."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import horizonopt as ho
from horizonopt.admissible import check_projection_formulas
from horizonopt.cli import main
from horizonopt.config import (build_horizon_config, build_optimizer_config, build_problem,
                               load_config)
from horizonopt.horizon import check_state_error_bounds, run_horizon_study
from horizonopt.objective import SecondOrderModel, gradient_with_state
from horizonopt.solvers import solve_adjoint_from_residual
from horizonopt.spaces import weighted_inner, weighted_l2_norm

from conftest import make_spec, random_control, random_instance
from oracles import (ESTIMATE_SLACK, dense_lq_solution, energy_estimate,
                     linearized_estimate)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

NONLINEARITIES = ("zero", "cubic", "cubic_minus_linear", "exponential")


def announce(num, label, passed, detail):
    tag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num} [{tag}] {label}: {detail}")
    assert passed, f"criterion {num}: {label} ({detail})"


def on_8x8(cfg):
    """A shipped 1D document put on an 8x8 mesh of the unit square, its
    control region the box [0.2, 0.8]^2; a document with an observation
    region gets the box [0, 0.6]^2."""
    mesh = cfg["mesh"]
    mesh.update(dimension=2, shape=[8, 8], control={"box": [[0.2, 0.8], [0.2, 0.8]]})
    if "observation" in mesh:
        mesh["observation"] = {"box": [[0.0, 0.6], [0.0, 0.6]]}
    return cfg


def solved_config(name, tolerance=None, two_d=False):
    cfg = load_config(CONFIG_DIR / name)
    spec = build_problem(on_8x8(cfg) if two_d else cfg)
    ocfg = build_optimizer_config(cfg)
    if tolerance is not None:
        import dataclasses
        ocfg = dataclasses.replace(ocfg, tolerance=tolerance)
    u, report = ho.optimize(spec, ocfg)
    return spec, u, report


@pytest.fixture(scope="module")
def ball_solution():
    return solved_config("ball_cubic.json", tolerance=1e-9)


@pytest.fixture(scope="module")
def box_solution():
    return solved_config("box_cubic.json", tolerance=1e-9)


@pytest.fixture(scope="module")
def lq_solution():
    return solved_config("lq_small.json", tolerance=1e-10)


@pytest.fixture(scope="module")
def ball_solution_2d():
    return solved_config("ball_cubic.json", tolerance=1e-9, two_d=True)


@pytest.fixture(scope="module")
def box_solution_2d():
    return solved_config("box_cubic.json", tolerance=1e-9, two_d=True)


def horizon_study(two_d=False):
    cfg = load_config(CONFIG_DIR / "horizon_compact.json")
    if two_d:
        on_8x8(cfg)
    spec = build_problem(cfg)
    return spec, run_horizon_study(spec, build_horizon_config(cfg),
                                   build_optimizer_config(cfg))


@pytest.fixture(scope="module")
def horizon_report():
    return horizon_study()


@pytest.fixture(scope="module")
def horizon_report_2d():
    return horizon_study(two_d=True)


def duality_gap(spec, u, v, seed):
    """Relative gap of the duality pairing between the linearized map in
    direction ``v`` and its transpose, the adjoint march from a seeded
    residual, around the state at ``u``."""
    rng = np.random.default_rng(seed)
    state = ho.solve_forward(spec, u)
    w = rng.standard_normal(state.values.shape)
    z = ho.solve_linearized(spec, state, v)
    rate = spec.discounts.state_rate
    phi = solve_adjoint_from_residual(spec, state, w, rate)
    dt, t = spec.grid.step, spec.grid.times
    lhs = sum(dt * np.exp(-rate * t[i]) * w[i] @ (spec.operators.mass
                                                  @ z.values[i])
              for i in range(1, spec.grid.n_steps + 1))
    wts = spec.operators.control_weights
    widx = spec.operators.control_index
    rhs = sum(dt * (phi.values[i, widx] * wts) @ v.values[i]
              for i in range(1, spec.grid.n_steps + 1))
    return abs(lhs - rhs) / max(1.0, abs(lhs))


def test_criterion_1_gradient_and_duality():
    """Adjoint gradient vs central differences on 20 seeded instances."""
    tight = ho.NewtonConfig(tolerance=1e-13)
    worst_grad = 0.0
    worst_dual = 0.0
    for seed in range(20):
        kind = "ball" if seed % 2 == 0 else "box"
        spec, u = random_instance(1000 + seed, kind, NONLINEARITIES[seed % 4])
        spec = replace(spec, newton=tight)
        v = random_control(spec, seed=2000 + seed)
        grad = gradient_with_state(spec, u)[0]
        adj_val = weighted_inner(grad, v, spec.discounts.control_rate,
                                 spec.operators.control_weights)
        best = np.inf
        for eps in (1e-3, 1e-4, 1e-5, 1e-6):
            up = ho.Trajectory(spec.grid, u.values + eps * v.values, "control")
            dn = ho.Trajectory(spec.grid, u.values - eps * v.values, "control")
            fd = (ho.cost(spec, up).total
                  - ho.cost(spec, dn).total) / (2 * eps)
            best = min(best, abs(adj_val - fd) / max(abs(adj_val), 1e-300))
        worst_grad = max(worst_grad, best)
        worst_dual = max(worst_dual, duality_gap(spec, u, v, 3000 + seed))
    announce(1, "adjoint gradient and duality exactness",
             worst_grad <= 1e-7 and worst_dual <= 1e-10,
             f"worst FD rel error {worst_grad:.2e} (<=1e-7), "
             f"worst duality gap {worst_dual:.2e} (<=1e-10)")


def test_criterion_1_gradient_at_optimizer_output_2d(ball_solution_2d):
    """The adjoint gradient against a central difference of the cost at the
    8x8 ball optimizer output.  A stale factorization shared by the adjoint
    and the linearized march keeps duality, and the optimizer converges to
    the fixed point of the gradient it computes; only the cost itself sees
    that this point is not stationary."""
    spec, u, _ = ball_solution_2d
    rng = np.random.default_rng(2100)
    vals = rng.standard_normal((spec.grid.n_steps + 1, spec.control_count))
    vals[0] = 0.0
    v = ho.Trajectory(spec.grid, vals, "control")
    pairing = spec.control_inner(gradient_with_state(spec, u)[0].values, v.values)
    eps = 1e-4
    up = ho.Trajectory(spec.grid, u.values + eps * v.values, "control")
    dn = ho.Trajectory(spec.grid, u.values - eps * v.values, "control")
    fd = (ho.cost(spec, up).total - ho.cost(spec, dn).total) / (2 * eps)
    bound = 1e-9 * spec.control_norm(v.values)
    announce(1, "adjoint gradient against central differences at an optimizer output, 2D",
             abs(fd - pairing) <= bound,
             f"|FD - <g, v>| {abs(fd - pairing):.2e} (<= 1e-9 |v| = {bound:.2e}), "
             f"FD {fd:.4e}, <g, v> {pairing:.4e}")


def test_criterion_1_duality_2d(ball_solution_2d):
    spec, u, _ = ball_solution_2d
    gap = duality_gap(spec, u, random_control(spec, seed=2200), 3200)
    announce(1, "duality exactness, 2D", gap <= 1e-10,
             f"duality gap {gap:.2e} (<=1e-10)")


def test_criterion_2_lq_matches_dense_kkt(lq_solution):
    spec, u, report = lq_solution
    oracle = dense_lq_solution(
        spec.operators, spec.grid, spec.discounts.state_rate,
        spec.discounts.control_rate, spec.control_weight,
        spec.initial_values, spec.source_samples, spec.target_samples)
    gap = ho.Trajectory(spec.grid, u.values - oracle, "control")
    err = weighted_l2_norm(gap, spec.discounts.control_rate,
                           spec.operators.control_weights)
    announce(2, "projected gradient matches dense saddle-point solve",
             report.converged and err <= 1e-6,
             f"weighted control gap {err:.2e} (<=1e-6)")


def first_order_system(solutions, where=""):
    worst_res = 0.0
    worst_formula = 0.0
    for spec, u, report in solutions:
        assert report.converged
        state = ho.solve_forward(spec, u)
        adjoint = ho.solve_adjoint(spec, state)
        from horizonopt.objective import riesz_gradient
        from horizonopt.admissible import stationarity_residual
        grad = riesz_gradient(spec, u, adjoint)
        worst_res = max(worst_res, stationarity_residual(spec, u, grad))
        worst_formula = max(worst_formula,
                            check_projection_formulas(spec, u, adjoint).max_residual)
    announce(3, "first-order system residuals at optimizer outputs" + where,
             worst_res <= 1e-9 and worst_formula <= 1e-8,
             f"stationarity {worst_res:.2e} (<=1e-9), "
             f"formulas {worst_formula:.2e} (<=1e-8)")


def test_criterion_3_first_order_system(ball_solution, box_solution):
    first_order_system((ball_solution, box_solution))


def test_criterion_3_first_order_system_2d(ball_solution_2d, box_solution_2d):
    first_order_system((ball_solution_2d, box_solution_2d), ", 2D")


def test_criterion_4_energy_estimates():
    rng = np.random.default_rng(4)
    worst = 0.0
    count = 0
    for k in range(10):
        name = ("zero", "cubic", "exponential")[k % 3]
        spec = make_spec(nonlinearity=name, n_nodes=31, horizon=1.0, step=0.01,
                         state_rate=1.0, aux_rate=0.12,
                         initial=rng.uniform(-0.5, 0.5, 31),
                         source=0.4 * rng.standard_normal((101, 31)))
        u = random_control(spec, seed=500 + k, scale=0.3)
        state = ho.solve_forward(spec, u)
        h = rng.standard_normal((spec.grid.n_steps + 1, 31))
        d = spec.discounts
        for rate in (d.state_rate, d.aux_rate, 0.5 * (d.state_rate + d.aux_rate)):
            checks = (energy_estimate(spec, u, state, rate),
                      linearized_estimate(spec, state, h, rate))
            for lhs, rhs in checks:
                assert lhs <= rhs * (1.0 + ESTIMATE_SLACK), (name, rate, checks)
                worst = max(worst, lhs / max(rhs, 1e-300))
                count += 1
    announce(4, "discrete stability estimates with 5% slack",
             worst <= 1.05, f"{count} checks, worst lhs/rhs ratio {worst:.3f}")


def second_order(ball_solution, box_solution, lq_solution=None, where=""):
    worst_form = np.inf
    # the Lagrangian form over sampled critical directions, around the state
    # and adjoint the optimizer returned: multiplier-augmented on the ball,
    # the plain quadratic form on the box, which has no multiplier
    for (spec, u, report), seed in ((ball_solution, 5), (box_solution, 6)):
        adjoint = report.adjoint
        mult = (ho.multiplier_and_cone(spec, u, adjoint)
                if spec.admissible.kind == "ball" else None)
        model = SecondOrderModel(spec, report.state, adjoint)
        dirs = ho.sample_critical_directions(spec, u, adjoint, mult, count=50, seed=seed)
        assert len(dirs) >= 50
        w = spec.operators.control_weights
        for v in dirs:
            nrm2 = weighted_l2_norm(v, spec.discounts.control_rate, w) ** 2
            worst_form = min(worst_form, model.lagrangian_form(v, mult) / nrm2)

    growth_ok = True
    kappas = {}
    for label, (spec_g, u_g, rep_g) in (("ball", ball_solution), ("box", box_solution)):
        rep = ho.verify_growth(spec_g, u_g, rep_g.state, radius=0.05, samples=30, seed=7)
        kappas[label] = rep.kappa
        growth_ok = growth_ok and rep.kappa > 0
    if lq_solution is not None:
        spec_lq, u_lq, report_lq = lq_solution
        rep_lq = ho.verify_growth(spec_lq, u_lq, report_lq.state, radius=0.1, samples=50,
                                  seed=8)
        kappas["lq"] = rep_lq.kappa
        growth_ok = growth_ok and rep_lq.kappa >= 0.8 * spec_lq.control_weight
    announce(5, "second-order forms and quadratic growth" + where,
             worst_form >= -1e-6 and growth_ok,
             f"min normalized form {worst_form:.3e} (>=-1e-6), growth "
             + ", ".join(f"{k}={v:.3g}" for k, v in kappas.items()))


def test_criterion_5_second_order(ball_solution, box_solution, lq_solution):
    second_order(ball_solution, box_solution, lq_solution)


def test_criterion_5_second_order_2d(ball_solution_2d, box_solution_2d):
    second_order(ball_solution_2d, box_solution_2d, where=", 2D")


def horizon_rate(horizon_report, where=""):
    spec, report = horizon_report
    d = spec.discounts
    slope_ok = report.slope <= -0.5 * d.state_rate * (1.0 - 0.3)
    announce(6, "finite-horizon decay rate, monotonicity, cost comparison" + where,
             slope_ok and report.rate_status == "pass" and report.monotone_ok
             and report.cost_check_ok and d.control_rate <= d.aux_rate,
             f"slope {report.slope:.3f} (<= {-0.35 * d.state_rate:.3f}), "
             f"monotone {report.monotone_ok}, cost gaps <=1e-10 "
             f"{report.cost_check_ok}")


def test_criterion_6_horizon_rate(horizon_report):
    horizon_rate(horizon_report)


def test_criterion_6_horizon_rate_2d(horizon_report_2d):
    horizon_rate(horizon_report_2d, ", 2D")


def state_error_laws(horizon_report, where=""):
    spec, report = horizon_report
    bounds = check_state_error_bounds(report, spec)
    e_exp = bounds.energy_fit.exponent
    s_exp = bounds.sup_fit.exponent
    predicted = 2.0 / spec.discounts.integrability_exponent
    announce(7, "state-error scaling laws across the sweep" + where,
             0.8 <= e_exp <= 1.2 and s_exp >= predicted - 0.2,
             f"energy exponent {e_exp:.3f} (in [0.8, 1.2]), "
             f"sup exponent {s_exp:.3f} (>= {predicted - 0.2:.2f})")


def test_criterion_7_state_error_laws(horizon_report):
    state_error_laws(horizon_report)


def test_criterion_7_state_error_laws_2d(horizon_report_2d):
    spec, _ = horizon_report_2d
    assert spec.mesh.dimension == 2 and spec.discounts.integrability_exponent == 3.0
    state_error_laws(horizon_report_2d, ", 2D")


def test_criterion_8_assumption_gate():
    expected = {
        "invalid_state_discount.json": "state_discount_lower_bound",
        "invalid_aux_rate_boundary.json": "aux_rate_window",
        "invalid_control_discount.json": "control_discount_positive",
        "invalid_second_order.json": "second_order_margin",
    }
    failures = []
    for name, key in expected.items():
        spec = build_problem(load_config(CONFIG_DIR / name))
        report = ho.validate_assumptions(spec)
        keys = [i.key for i in report.failures()]
        if report.passed or key not in keys:
            failures.append((name, keys))
    announce(8, "invalid configurations rejected with cited inequality",
             not failures, f"checked {len(expected)} configs"
             + (f", unexpected: {failures}" if failures else ""))


def test_criterion_9_determinism(tmp_path):
    cfg = load_config(CONFIG_DIR / "horizon_compact.json")
    cfg["mesh"]["nodes"] = 21
    cfg["time"]["horizon"] = 2.0
    cfg["data"]["source"]["support_end"] = 1.6
    cfg["data"]["target"]["support_end"] = 1.6
    cfg["horizon_study"] = {"horizons": [2.0, 3.0, 4.0], "reference_horizon": 8.0}
    cfg["optimizer"] = {"tolerance": 1e-10, "max_iterations": 400}
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps(cfg))

    # every repeated run must reproduce the first run's bytes
    sweeps = []
    for rep in range(4):
        out = tmp_path / f"study{rep}"
        assert main(["horizon-study", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        sweeps.append(((out / "sweep.csv").read_bytes(), (out / "fit.json").read_bytes()))
    sweeps_same = all(sweep == sweeps[0] for sweep in sweeps)

    opt_blobs = []
    for rep in range(2):
        out = tmp_path / f"opt{rep}"
        assert main(["optimize", "--config", str(CONFIG_DIR / "lq_small.json"),
                     "--out", str(out)]) == 0
        opt_blobs.append((out / "u_star.csv").read_bytes())
    opt_same = all(blob == opt_blobs[0] for blob in opt_blobs)
    announce(9, "byte-identical outputs across repeated runs", sweeps_same and opt_same,
             f"horizon-study x{len(sweeps)} {sweeps_same}, "
             f"optimize x{len(opt_blobs)} {opt_same}")
