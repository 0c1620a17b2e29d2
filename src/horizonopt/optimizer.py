"""Projected gradient method with Armijo backtracking in the
control-discounted metric, plus a sampled quadratic-growth probe.

Each iteration takes a projected step u <- P(u - s * grad) starting from
the natural trial length 1/control_weight: when that step is accepted the
new iterate is exactly the projection of the scaled adjoint, so the
stationarity residual measures the closed-form first-order system
directly.  Iterations stop on the stationarity residual, not on cost
decrease.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .admissible import stationarity_residual
from .objective import CostBreakdown, cost_from_state, riesz_gradient
from .problem import ProblemSpec
from .solvers import solve_adjoint, solve_forward
# bench/test_bench.py checks that the tracer wraps this binding of weighted_l2_norm
from .spaces import Trajectory, weighted_l2_norm  # noqa: F401


class LineSearchError(RuntimeError):
    pass


# the Armijo sufficient-decrease slope and the factor a rejected trial step
# is cut by
ARMIJO_SLOPE = 1e-4
BACKTRACK = 0.5


@dataclass(frozen=True)
class OptimizerConfig:
    """Projected-gradient controls, the ``optimizer`` section of a document
    except its ``newton`` settings, which belong to the problem."""

    tolerance: float = 1e-9
    max_iterations: int = 2000
    min_step: float = 1e-14

    def __post_init__(self):
        if not (self.tolerance > 0 and self.max_iterations >= 1 and self.min_step > 0):
            raise ValueError("tolerance, max_iterations, min_step must be positive")


@dataclass
class SolveReport:
    """Outcome of ``optimize``.

    ``state`` and ``adjoint`` are the forward and adjoint trajectories at the
    returned control, so callers never need to solve for it again; they are
    left out of ``to_dict``.
    """

    iterations: int
    converged: bool
    cost: CostBreakdown
    residual: float
    history: list
    wall_time: float
    state: Trajectory
    adjoint: Trajectory
    message: str = ""

    def to_dict(self):
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("state", "adjoint")}
        return {**out, "cost": self.cost.to_dict()}


def _initial_control(spec: ProblemSpec, start: Trajectory | None) -> Trajectory:
    if start is not None:
        vals = start.values.copy()
        if vals.shape != (spec.grid.n_steps + 1, spec.control_count):
            raise ValueError("start control does not match the grid/control layout")
    else:
        vals = np.zeros((spec.grid.n_steps + 1, spec.control_count))
    return Trajectory(spec.grid, spec.project(vals), "control")


def optimize(spec: ProblemSpec, config: OptimizerConfig | None = None,
             start: Trajectory | None = None, state: Trajectory | None = None):
    """Solve the discrete control problem from the projection of ``start``
    (of zero when it is None); returns (control, report).  ``state``, the
    state at ``start``, is used if projecting ``start`` leaves it unchanged.
    A state's ``factors`` are dropped once its adjoint is made.
    """
    config = config or OptimizerConfig()
    t0 = time.perf_counter()
    step0 = 1.0 / spec.control_weight

    u = _initial_control(spec, start)
    if state is None or start is None or not np.array_equal(u.values, start.values):
        state = solve_forward(spec, u)
    breakdown = cost_from_state(spec, u, state)
    history = []
    converged = False
    message = ""
    iterations = 0
    last_step = step0

    for iterations in range(config.max_iterations + 1):
        adjoint = solve_adjoint(spec, state)
        state.factors = None
        grad = riesz_gradient(spec, u, adjoint)
        residual = stationarity_residual(spec, u, grad)
        history.append({"cost": breakdown.total, "residual": residual, "step": last_step})
        if residual <= config.tolerance:
            converged = True
            break
        if iterations == config.max_iterations:
            message = "maximum iterations reached"
            break

        # sufficient decrease below the floating-point resolution of the cost
        # cannot be measured; such steps are accepted if the cost does not
        # measurably increase, which lets the projected fixed-point iteration
        # polish the residual to machine level
        floor = 1e-14 * (1.0 + abs(breakdown.total))
        step = step0
        accepted = False
        while step >= config.min_step:
            trial = Trajectory(spec.grid, spec.project(u.values - step * grad.values), "control")
            gap_norm = spec.control_norm(u.values - trial.values)
            if gap_norm == 0.0:
                # projected step is an exact fixed point
                accepted = True
                trial_state, trial_cost = state, breakdown
                break
            trial_state = solve_forward(spec, trial)
            trial_cost = cost_from_state(spec, trial, trial_state)
            required = ARMIJO_SLOPE / step * gap_norm**2
            if required > floor:
                if trial_cost.total <= breakdown.total - required:
                    accepted = True
                    break
            elif trial_cost.total <= breakdown.total + floor:
                accepted = True
                break
            trial_state.factors = None
            step *= BACKTRACK
        if not accepted:
            raise LineSearchError(
                f"line search failed below step {config.min_step:g} at iteration {iterations}")
        u, state, breakdown = trial, trial_state, trial_cost
        last_step = step

    report = SolveReport(
        iterations=iterations,
        converged=converged,
        cost=breakdown,
        residual=history[-1]["residual"],
        history=history,
        wall_time=time.perf_counter() - t0,
        state=state,
        adjoint=adjoint,
        message=message,
    )
    return u, report


@dataclass
class GrowthReport:
    """Sampled quadratic-growth margins around a computed minimizer."""

    kappa: float
    margins: list
    distances: list

    def to_dict(self):
        return asdict(self)


def verify_growth(spec: ProblemSpec, u_star: Trajectory, radius: float,
                  samples: int, seed: int = 0,
                  state: Trajectory | None = None) -> GrowthReport:
    """Probe J(u) >= J(u*) + kappa/2 |u - u*|^2 with random admissible u.

    Perturbations are drawn with control-discounted norm at most ``radius``
    and projected onto the admissible set; the fitted kappa is the smallest
    sampled margin 2 (J(u) - J(u*)) / |u - u*|^2.  All candidates are
    solved in one batched forward march.  ``state`` is the state at
    ``u_star`` when the caller already holds it.
    """
    if radius <= 0:
        raise ValueError("growth probe needs a positive radius")
    if samples < 1:
        raise ValueError("growth probe needs at least one sample")
    rng = np.random.default_rng(seed)
    candidates, distances = [], []
    for _ in range(samples):
        delta = rng.standard_normal(u_star.values.shape)
        delta[0] = 0.0
        nrm = spec.control_norm(delta)
        if nrm == 0.0:
            continue
        scale = radius * rng.uniform(0.2, 1.0) / nrm
        cand = spec.project(u_star.values + scale * delta)
        dist = spec.control_norm(cand - u_star.values)
        if dist <= 1e-14:
            continue
        candidates.append(Trajectory(spec.grid, cand, "control"))
        distances.append(dist)
    if not candidates:
        raise ValueError("growth probe produced no usable samples")
    if state is None:
        state = solve_forward(spec, u_star)
    j_star = cost_from_state(spec, u_star, state).total
    margins = [2.0 * (cost_from_state(spec, cand, y).total - j_star) / dist**2
               for cand, y, dist in zip(candidates, solve_forward(spec, candidates), distances)]
    return GrowthReport(float(min(margins)), margins, distances)
