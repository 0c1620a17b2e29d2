"""Admissible control sets and their pointwise-in-time projections.

Two geometries are supported: a ball of given radius in the (lumped)
L2 norm over the control subdomain, applied at every time step, and a
nodal box [lower, upper].  Both projections act independently per time
step, so they commute with any permutation of the steps.  The pointwise
optimality relations are checked for all steps at once, in the per-step
control pairings of ``spaces._pairings``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spaces import Trajectory, _pairings


@dataclass(frozen=True)
class AdmissibleSet:
    """Ball {v : |v|_{L2(control)} <= radius} or box {lower <= v <= upper}."""

    kind: str
    radius: float = 0.0
    lower: float = 0.0
    upper: float = 0.0

    def __post_init__(self):
        if self.kind == "ball":
            if not np.isfinite(self.radius) or self.radius <= 0:
                raise ValueError("ball radius must be positive and finite")
        elif self.kind == "box":
            if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
                raise ValueError("box bounds must be finite")
            if self.lower >= self.upper:
                raise ValueError("box requires lower < upper")
        else:
            raise ValueError(f"unknown admissible set kind {self.kind!r}")

    @property
    def active_tol(self) -> float:
        """Distance from the radius within which a ball step counts as active."""
        return 1e-8 * self.radius


def project_values(admissible: AdmissibleSet, values: np.ndarray,
                   control_weights: np.ndarray) -> np.ndarray:
    """Project per-time-step control values onto the admissible set."""
    if admissible.kind == "box":
        return np.clip(values, admissible.lower, admissible.upper)
    norms = np.sqrt(_pairings(values, values, control_weights))
    scale = np.ones_like(norms)
    over = norms > admissible.radius
    scale[over] = admissible.radius / norms[over]
    return values * scale[:, None]


def stationarity_residual(spec, u: Trajectory, grad: Trajectory) -> float:
    """Norm of the projected-gradient fixed-point gap.

    Returns |u - P(u - grad/control_weight)| in the control-discounted
    metric.  At the step 1/control_weight the projected point coincides with
    the closed-form projection of the scaled adjoint, so the residual
    vanishes exactly at first-order stationary points.
    """
    step = 1.0 / spec.control_weight
    return spec.control_norm(u.values - spec.project(u.values - step * grad.values))


@dataclass
class StepFormulaRecord:
    time: float
    case: str
    residual: float


@dataclass
class FormulaReport:
    """Per-time-step residuals of the closed-form first-order relations."""

    records: list
    max_residual: float
    worst_time: float


def check_projection_formulas(spec, u: Trajectory, adjoint: Trajectory) -> FormulaReport:
    """Evaluate the pointwise optimality relations at a claimed stationary pair.

    Ball sets: at inactive times (control norm below ``radius - active_tol``)
    the first-order density adjoint + weight*e^{-rate t} u must vanish; at
    active times the control must be the negatively scaled adjoint of norm
    ``radius``, or, where the adjoint vanishes, the density must.  Box sets:
    the control must equal the clamped scaled adjoint; the sup-norm gap per
    step is recorded.
    """
    from .objective import first_order_density  # objective imports this module

    adm = spec.admissible
    t = spec.grid.times[1:]
    phi = adjoint.values[1:, spec.operators.control_index]
    vals = u.values[1:]
    if adm.kind == "ball":
        density = first_order_density(spec, u, adjoint)[1:]
        interior = np.sqrt(spec.control_pairings(vals, vals)) < adm.radius - adm.active_tol
        pnorm = np.sqrt(spec.control_pairings(phi, phi))
        active = ~interior & (pnorm > 1e-300)
        gap = np.where(active[:, None],
                       vals + adm.radius * phi / np.where(active, pnorm, 1.0)[:, None], density)
        residuals = np.sqrt(spec.control_pairings(gap, gap))
        cases = np.where(interior, "interior",
                         np.where(active, "active", "active-degenerate")).tolist()
    else:
        target = np.clip(-spec.grid.discount(-spec.discounts.control_rate)[1:, None]
                         / spec.control_weight * phi, adm.lower, adm.upper)
        residuals = np.max(np.abs(vals - target), axis=1, initial=0.0)
        cases = ["box"] * len(t)
    records = [StepFormulaRecord(float(ti), case, float(res))
               for ti, case, res in zip(t, cases, residuals)]
    worst = max(records, key=lambda r: r.residual)
    return FormulaReport(records, worst.residual, worst.time)
