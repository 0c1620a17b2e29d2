"""Discrete cost functional, adjoint-based gradient, and second-order forms.

The gradient is returned as the Riesz representative in the
control-discounted inner product, so a projected step with length
1/control_weight reproduces the closed-form projection of the scaled
adjoint.  All quadratures are right-rectangle in time, matching the
implicit-Euler discretization; the adjoint is the exact transpose of the
linearized dynamics, so the gradient and Hessian forms are exact
derivatives of the discrete cost up to Newton tolerance.  Control terms are
per-step pairings in L2(omega) (``ProblemSpec.control_pairings``), and every
discount is a weight of the grid (``TimeGrid.discount``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .problem import ProblemSpec
from .solvers import solve_adjoint, solve_forward, solve_linearized
from .spaces import Trajectory, _pairings, quad_energies


@dataclass(frozen=True)
class CostBreakdown:
    tracking: float
    control: float

    @property
    def total(self) -> float:
        return self.tracking + self.control

    def to_dict(self):
        return {**asdict(self), "total": self.total}


def _masked(values: np.ndarray, mask) -> np.ndarray:
    return values if mask is None else values * mask


def cost_from_state(spec: ProblemSpec, u: Trajectory, state: Trajectory) -> CostBreakdown:
    """Evaluate the discrete cost given an already-computed state."""
    d = spec.discounts
    discount = spec.grid.discount
    dt = spec.grid.step
    resid = _masked(state.values[1:] - spec.target_samples[1:], spec.observation_mask)
    track_e = quad_energies(resid, spec.operators.mass)
    tracking = 0.5 * dt * float(np.sum(discount(d.state_rate)[1:] * track_e))
    ctrl_e = spec.control_pairings(u.values[1:], u.values[1:])
    control = 0.5 * spec.control_weight * dt * float(
        np.sum(discount(d.control_rate)[1:] * ctrl_e))
    return CostBreakdown(tracking, control)


def cost(spec: ProblemSpec, u: Trajectory) -> CostBreakdown:
    return cost_from_state(spec, u, solve_forward(spec, u))


def riesz_gradient(spec: ProblemSpec, u: Trajectory, adjoint: Trajectory) -> Trajectory:
    """Gradient representative: weight*u + e^{rate t} adjoint on the control nodes.

    The t_0 row carries no quadrature weight and is set to zero.
    """
    growth = spec.grid.discount(-spec.discounts.control_rate)
    vals = spec.control_weight * u.values \
        + growth[:, None] * adjoint.values[:, spec.operators.control_index]
    vals[0] = 0.0
    return Trajectory(spec.grid, vals, "control")


def gradient_with_state(spec: ProblemSpec, u: Trajectory):
    """Return (gradient, state, adjoint) for one control."""
    state = solve_forward(spec, u)
    adj = solve_adjoint(spec, state)
    return riesz_gradient(spec, u, adj), state, adj


def gradient(spec: ProblemSpec, u: Trajectory) -> Trajectory:
    return gradient_with_state(spec, u)[0]


def first_order_density(spec: ProblemSpec, u: Trajectory, adjoint: Trajectory) -> np.ndarray:
    """Integrand of the variational inequality on the control nodes:
    adjoint + weight * e^{-rate t} * u, per time step."""
    discount = spec.grid.discount(spec.discounts.control_rate)
    return adjoint.values[:, spec.operators.control_index] \
        + spec.control_weight * discount[:, None] * u.values


class SecondOrderModel:
    """Quadratic forms around the state and adjoint of a control, as solved by the caller.

    ``quadratic_form`` implements the exact second derivative of the
    discrete cost; ``lagrangian_form`` adds the multiplier term of the
    norm-ball constraint.
    """

    def __init__(self, spec: ProblemSpec, state: Trajectory, adjoint: Trajectory):
        self.spec = spec
        self.state = state
        self.adjoint = adjoint

    def response(self, v: Trajectory | list) -> Trajectory | list:
        """Linearized state response to a direction; a list of directions is
        marched in one batch and gives a list of responses."""
        return solve_linearized(self.spec, self.state, v)

    def quadratic_form(self, v1: Trajectory | list, v2: Trajectory | list) -> float | list:
        """Second derivative of the cost in the directions v1, v2.  Lists of
        directions are paired elementwise, their responses come from one
        batched march, and a list of values comes back, each computed as
        for its single pair."""
        z1 = self.response(v1)
        z2 = z1 if v2 is v1 else self.response(v2)
        if isinstance(v1, Trajectory):
            return self._form(v1, v2, z1, z2, None)
        return [self._form(*pair, None) for pair in zip(v1, v2, z1, z2)]

    def lagrangian_form(self, v: Trajectory | list,
                        multiplier: "Multiplier | None") -> float | list:
        """``quadratic_form(v, v)`` plus the multiplier term of the ball; a
        list of directions gives a list of values, as ``quadratic_form``.
        A box constraint is linear, so its Lagrangian adds no curvature and
        takes ``multiplier`` None, as does a ball whose term is left out."""
        if multiplier is not None and self.spec.admissible.kind != "ball":
            raise ValueError("the multiplier-augmented form is defined for ball constraints")
        z = self.response(v)
        if isinstance(v, Trajectory):
            return self._form(v, v, z, z, multiplier)
        return [self._form(vb, vb, zb, zb, multiplier) for vb, zb in zip(v, z)]

    def _form(self, v1, v2, z1, z2, multiplier) -> float:
        """The second derivative of the cost in one pair of directions with
        their responses z1, z2, plus the multiplier term of the ball unless
        ``multiplier`` is None."""
        spec = self.spec
        ops = spec.operators
        d = spec.discounts
        discount = spec.grid.discount
        dt = spec.grid.step
        m1 = _masked(z1.values[1:], spec.observation_mask)
        m2 = _masked(z2.values[1:], spec.observation_mask)
        track = _pairings(m1, m2, ops.mass)
        first = dt * float(np.sum(discount(d.state_rate)[1:] * track))
        curv = self.adjoint.values[1:] * spec.nonlinearity.second_derivative(
            self.state.values[1:]) * z1.values[1:] * z2.values[1:]
        second = -dt * float(np.sum(ops.lumped_mass * curv))
        ctrl = spec.control_pairings(v1.values[1:], v2.values[1:])
        third = spec.control_weight * dt * float(np.sum(discount(d.control_rate)[1:] * ctrl))
        if multiplier is None:
            return first + second + third
        # with v1 = v2, ctrl holds the squared control norms per step
        extra = dt * float(np.sum(multiplier.values[1:] * ctrl)) / spec.admissible.radius
        return first + second + third + extra


# ---------------------------------------------------------------------------
# norm-ball multiplier and critical directions

ACTIVE_DEGENERATE, ACTIVE_STRICT = 1, 2
# a box problem's first-order density counts as nonzero, so that its node is
# strictly active, above this magnitude
DENSITY_TOL = 1e-7


@dataclass(eq=False)
class Multiplier:
    """Per-time-step multiplier of the norm-ball constraint with activity codes.

    Codes: 0 inactive, 1 active with vanishing multiplier, 2 active with a
    positive multiplier.  The multiplier can only be positive where the
    control-norm constraint is active (within tolerance).
    """

    values: np.ndarray
    activity: np.ndarray


def multiplier_and_cone(spec: ProblemSpec, u: Trajectory, adjoint: Trajectory) -> Multiplier:
    """Multiplier value and active-set classification (ball constraint only).

    The multiplier at a step is the control-space norm of the first-order
    density.  A step is active when its control norm is within
    ``admissible.active_tol`` of the radius, and strictly active when its
    multiplier also exceeds 1e-8 * control_weight * radius.
    """
    adm = spec.admissible
    if adm.kind != "ball":
        raise ValueError("multiplier is defined for ball-constrained problems")
    density = first_order_density(spec, u, adjoint)
    mu = np.sqrt(spec.control_pairings(density, density))
    unorm = np.sqrt(spec.control_pairings(u.values, u.values))
    active = np.abs(unorm - adm.radius) <= adm.active_tol
    mu = np.where(active, mu, 0.0)
    activity = np.zeros(u.values.shape[0], dtype=int)
    activity[active] = ACTIVE_DEGENERATE
    activity[active & (mu > 1e-8 * spec.control_weight * adm.radius)] = ACTIVE_STRICT
    return Multiplier(mu, activity)


def sample_critical_directions(spec: ProblemSpec, u: Trajectory, adjoint: Trajectory,
                               multiplier: Multiplier | None, count: int = 10,
                               seed: int = 0):
    """Seeded random directions satisfying the active-set compatibility conditions.

    Ball case: ``multiplier`` is ``multiplier_and_cone``'s at (u, adjoint);
    directions are orthogonalized (in the control inner product) against the
    control at strictly active steps, and their radial component is removed
    where it points outward at degenerate active steps, then re-verified.
    Box case: ``multiplier`` is None; directions vanish on strictly active
    nodes (nonzero first-order density) and are sign-clipped on active
    bounds, which meets those conditions by construction.  An empty list
    means only the zero direction is compatible.
    """
    rng = np.random.default_rng(seed)
    n = spec.grid.n_steps
    adm = spec.admissible
    out = []
    if adm.kind == "ball":
        uu = spec.control_pairings(u.values, u.values)
        # the steps whose radial component is removed: all strictly active
        # ones, and the degenerate ones where it points outward
        steps = np.flatnonzero((multiplier.activity[1:] > 0) & (uu[1:] > 1e-300)) + 1
        strict = multiplier.activity[steps] == ACTIVE_STRICT
        radial, uu = u.values[steps], uu[steps]
        for _ in range(count):
            v = rng.standard_normal((n + 1, spec.control_count))
            v[0] = 0.0
            uv = spec.control_pairings(radial, v[steps])
            fix = strict | (uv > 0.0)
            v[steps[fix]] -= (uv[fix] / uu[fix])[:, None] * radial[fix]
            traj = Trajectory(spec.grid, v, "control")
            if _verify_ball_direction(spec, u, traj, multiplier):
                out.append(traj)
    else:
        # at a stationary control the vanishing-derivative condition is the
        # nodal statement density * v = 0, so directions vanish wherever the
        # density is away from zero and are sign-clipped on the active bounds
        density = first_order_density(spec, u, adjoint)
        tol = 1e-8 * (adm.upper - adm.lower)
        at_lower = u.values <= adm.lower + tol
        at_upper = u.values >= adm.upper - tol
        nonzero_density = np.abs(density) > DENSITY_TOL
        for _ in range(count):
            v = rng.standard_normal((n + 1, spec.control_count))
            v[0] = 0.0
            v = np.where(at_lower, np.abs(v), v)
            v = np.where(at_upper, -np.abs(v), v)
            v[nonzero_density] = 0.0
            if np.any(v):
                out.append(Trajectory(spec.grid, v, "control"))
    return out


def _verify_ball_direction(spec, u, v, multiplier) -> bool:
    """Whether a nonzero direction is orthogonal to the control at strictly
    active steps and points nowhere outward at the other active steps, to
    1e-12 relative."""
    vals = v.values
    if not np.any(vals):
        return False
    active = multiplier.activity > 0
    us, vs = u.values[active], vals[active]
    uv = spec.control_pairings(us, vs)
    scale = np.sqrt(spec.control_pairings(us, us) * spec.control_pairings(vs, vs)) + 1e-300
    outward = np.where(multiplier.activity[active] == ACTIVE_STRICT, np.abs(uv), uv)
    return not np.any(outward > 1e-12 * scale)
