"""Finite-horizon sweep: solve the truncated problems over a grid of
horizons, compare against a long reference horizon, and fit the
exponential decay of the control error.

The infinite-horizon solution is operationalized as the solution on a
reference horizon well beyond the sweep (default twice the largest).  Each
shorter-horizon solve is warm-started from the truncated reference, which
in particular guarantees, up to rounding, that its final cost does not
exceed the cost of the truncated reference control.  By causality its
state is, bit for bit, the truncated reference state, which it reuses.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .descriptors import tail_norm
from .objective import cost_from_state
from .optimizer import OptimizerConfig, optimize
from .problem import ProblemSpec
from .spaces import (Trajectory, quad_energies, weighted_l2_norm,
                     weighted_sup_norm)

@dataclass(frozen=True)
class HorizonStudyConfig:
    """Sweep description: distinct horizons, a longer reference horizon
    (twice the largest horizon when None is given) and the extension
    convention for the bound."""

    horizons: tuple
    reference_horizon: float | None = None
    extension: str = "reference"

    def __post_init__(self):
        hs = tuple(float(h) for h in self.horizons)
        object.__setattr__(self, "horizons", tuple(sorted(hs)))
        if not self.horizons:
            raise ValueError("at least one horizon is needed")
        if len(set(self.horizons)) != len(self.horizons):
            raise ValueError("horizons must be distinct")
        if self.extension not in ("reference", "zero"):
            raise ValueError("extension must be 'reference' or 'zero'")
        ref = 2.0 * self.horizons[-1] if self.reference_horizon is None \
            else float(self.reference_horizon)
        if ref <= self.horizons[-1]:
            raise ValueError("reference horizon must exceed every swept horizon")
        object.__setattr__(self, "reference_horizon", ref)


@dataclass
class HorizonRecord:
    horizon: float
    control_error: float
    state_error_energy: float
    state_error_sup: float
    bound_terminal: float
    bound_target_tail: float
    bound_source_tail: float
    cost_optimal: float
    cost_reference: float
    tail_dominated: bool
    iterations: int

    @property
    def bound_total(self) -> float:
        return self.bound_terminal + self.bound_target_tail + self.bound_source_tail

    @property
    def cost_gap(self) -> float:
        return self.cost_optimal - self.cost_reference

    def to_dict(self):
        return {**asdict(self), "bound_total": self.bound_total, "cost_gap": self.cost_gap}


@dataclass
class HorizonStudyReport:
    records: list
    reference_horizon: float
    extension: str
    slope: float
    intercept: float
    rate_status: str
    monotone_ok: bool
    cost_check_ok: bool
    bound_constant: float
    warnings: list
    converged: bool

    def to_dict(self):
        return {**asdict(self), "records": [r.to_dict() for r in self.records]}


def _fit_decay(horizons, errors):
    """Least-squares slope of log(error) vs horizon over the largest half."""
    pts = [(h, e) for h, e in zip(horizons, errors) if e > 0]
    if len(pts) < 2:
        return 0.0, 0.0, False
    half = pts[len(pts) // 2:] if len(pts) >= 4 else pts
    hs = np.array([p[0] for p in half])
    ys = np.log([p[1] for p in half])
    slope, intercept = np.polyfit(hs, ys, 1)
    return float(slope), float(intercept), True


def run_horizon_study(spec: ProblemSpec, config: HorizonStudyConfig,
                      optimizer: OptimizerConfig | None = None) -> HorizonStudyReport:
    """Solve the truncated problems over the sweep, each with the controls
    ``optimizer`` (defaulting as in ``optimize``), and assemble the report.
    It has converged when the reference solve and every swept solve have,
    and warns of each horizon whose solve has not."""
    ref_T = config.reference_horizon
    # every grid is built before the first solve, so a horizon that is not a
    # multiple of the time step fails at once
    ref_spec = spec.with_horizon(ref_T)
    subs = [spec.with_horizon(h) for h in config.horizons]
    u_ref, ref_report = optimize(ref_spec, optimizer)
    y_ref = ref_report.state

    d = spec.discounts
    ops = spec.operators
    unconverged = [] if ref_report.converged else [ref_T]

    def solve_one(sub):
        horizon = sub.grid.horizon
        warm = u_ref.restrict(sub.grid)
        ref_state = y_ref.restrict(sub.grid)
        u_T, rep = optimize(sub, optimizer, start=warm, state=ref_state)
        if not rep.converged:
            unconverged.append(horizon)
        y_T = rep.state

        e_T = sub.control_norm(u_T.values - warm.values)

        gap_y = Trajectory(sub.grid, y_T.values - ref_state.values, "generic")
        err_energy = weighted_l2_norm(gap_y, d.state_rate, ops.h1) \
            + weighted_sup_norm(gap_y, d.state_rate, ops.mass)
        err_sup = float(np.max(sub.grid.discount(0.5 * d.state_rate)
                               * np.max(np.abs(gap_y.values), axis=1)))

        terminal_state = float(np.sqrt(max(
            quad_energies(y_T.values[-1][None, :], ops.mass)[0], 0.0)))
        offset = 1.0 if config.extension == "reference" else 0.0
        bound_terminal = float(np.exp(-0.5 * d.state_rate * horizon) * (terminal_state + offset))
        bound_target = tail_norm(spec, "target", d.state_rate, horizon)
        bound_source = tail_norm(spec, "source", d.state_rate, horizon)

        cost_ref = cost_from_state(sub, warm, ref_state).total

        dominated = bound_target + bound_source <= bound_terminal + 1e-14
        return HorizonRecord(
            horizon=float(horizon), control_error=e_T,
            state_error_energy=float(err_energy), state_error_sup=err_sup,
            bound_terminal=bound_terminal, bound_target_tail=bound_target,
            bound_source_tail=bound_source, cost_optimal=rep.cost.total,
            cost_reference=cost_ref, tail_dominated=bool(dominated),
            iterations=rep.iterations)

    records = [solve_one(sub) for sub in subs]

    warnings = [f"the solve at horizon {h:g} did not converge" for h in unconverged]
    for rec in records:
        if not rec.tail_dominated:
            warnings.append(
                f"tail terms exceed the terminal term at horizon {rec.horizon:g}; "
                "the decay rate may be masked by the data tails")

    errs = [r.control_error for r in records]
    slope, intercept, fit_ok = _fit_decay([r.horizon for r in records], errs)
    if d.control_rate > d.aux_rate:
        rate_status = "outside_hypotheses"
    elif not fit_ok:
        rate_status = "degenerate"
    elif slope <= -0.5 * d.state_rate * (1.0 - 0.3):
        rate_status = "pass"
    else:
        rate_status = "fail"

    monotone_ok = all(errs[k + 1] <= errs[k] * 1.05 + 1e-15 for k in range(len(errs) - 1))
    cost_check_ok = all(r.cost_gap <= 1e-10 for r in records)
    ratios = [r.control_error / r.bound_total for r in records if r.bound_total > 0]
    bound_constant = float(max(ratios)) if ratios else 0.0

    return HorizonStudyReport(
        records=records, reference_horizon=ref_T, extension=config.extension,
        slope=slope, intercept=intercept, rate_status=rate_status,
        monotone_ok=monotone_ok, cost_check_ok=cost_check_ok,
        bound_constant=bound_constant, warnings=warnings, converged=not unconverged)


@dataclass
class StateErrorFit:
    exponent: float
    prefactor: float
    predicted_exponent: float
    passed: bool


@dataclass
class StateErrorBounds:
    energy_fit: StateErrorFit
    sup_fit: StateErrorFit
    trivial: bool = False

    @property
    def passed(self) -> bool:
        return self.trivial or (self.energy_fit.passed and self.sup_fit.passed)


def _loglog_fit(x, y):
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    return float(slope), float(np.exp(intercept))


# tolerance on the fitted state-error exponents
STATE_ERROR_SLACK = 0.2


def check_state_error_bounds(report: HorizonStudyReport, spec: ProblemSpec) -> StateErrorBounds:
    """Fit the state-error laws against the control error across the sweep.

    The energy-norm error is expected to scale linearly in the control
    error (exponent within ``STATE_ERROR_SLACK`` of 1); the sup-norm error
    obeys a power law whose exponent must be at least 2/p - ``STATE_ERROR_SLACK``.
    """
    if len(report.records) < 3:
        raise ValueError("state-error fits need at least 3 horizons")
    e = np.array([r.control_error for r in report.records])
    usable = e > 0
    if not usable.any():
        unit = StateErrorFit(1.0, 0.0, 1.0, True)
        return StateErrorBounds(unit, unit, trivial=True)
    if usable.sum() < 3:
        raise ValueError("too few nonzero control errors for a fit")
    energy = np.array([r.state_error_energy for r in report.records])[usable]
    sup = np.array([r.state_error_sup for r in report.records])[usable]
    e = e[usable]

    exp_energy, pre_energy = _loglog_fit(e, np.maximum(energy, 1e-300))
    energy_fit = StateErrorFit(exp_energy, pre_energy, 1.0,
                               bool(1.0 - STATE_ERROR_SLACK <= exp_energy
                                    <= 1.0 + STATE_ERROR_SLACK))
    predicted = 2.0 / spec.discounts.integrability_exponent
    exp_sup, pre_sup = _loglog_fit(e, np.maximum(sup, 1e-300))
    sup_fit = StateErrorFit(exp_sup, pre_sup, predicted,
                            bool(exp_sup >= predicted - STATE_ERROR_SLACK))
    return StateErrorBounds(energy_fit, sup_fit)
