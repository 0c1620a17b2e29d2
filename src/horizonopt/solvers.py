"""Implicit-Euler time stepping for the forward semilinear equation, its
linearizations, and the discrete adjoint.

The forward step solves

    M (y_i - y_{i-1})/dt + K y_i + M_L f(y_i) = M g_i + W u_i

by damped Newton, where M is the consistent mass matrix, M_L its lumping,
K the stiffness (including the nodal reaction term), and W the lumped
control weights scattered to the control nodes.  The linearized and
second-order sensitivity equations reuse the converged step Jacobians.

The adjoint recursion is the exact transpose of the linearized forward
map.  Starting from zero beyond the final node (the discrete form of the
truncated terminal condition) it runs

    S_i phi_i = (M/dt) phi_{i+1} + e^{-rate t_i} * source_i,  i = N..0,

with S_i = M/dt + K + M_L diag(f'(y_i)).  This choice makes the discrete
cost gradient exact to solver precision; consistency with the backward
differential equation is then automatic as dt -> 0.

Every step solve with S_i, forward, adjoint or linearized, is one band LU:
M/dt + K is held in LAPACK band storage of half-bandwidth k, and each solve
adds the lumped shift to its diagonal and calls ``gtsv`` when k = 1 (1D)
or ``gbsv`` otherwise (2D, k = nx + 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .problem import ProblemSpec
from .spaces import (Trajectory, quad_energies, weighted_l2_norm,
                     weighted_sup_norm)


class SolverError(RuntimeError):
    """Newton or linear-step failure; carries the step index and residual history."""

    def __init__(self, message, step=None, history=None):
        super().__init__(message)
        self.step = step
        self.history = list(history) if history is not None else []


@dataclass(frozen=True)
class NewtonConfig:
    """Damped Newton controls for the implicit step equations."""

    tolerance: float = 1e-12
    max_iterations: int = 30
    damping: float = 0.5

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not 0 < self.damping < 1:
            raise ValueError("damping factor must lie in (0, 1)")


def _band_storage(mat):
    """Half-bandwidth k of a sparse matrix, read from its sparsity pattern, and
    the matrix in LAPACK band storage for kl = ku = k: entry (i, j) sits at
    ab[2k + i - j, j], and rows 0..k-1 are room for the fill of the LU."""
    coo = mat.tocoo()
    coo.sum_duplicates()
    k = int(np.abs(coo.row - coo.col).max())
    ab = np.zeros((3 * k + 1, mat.shape[0]), order="F")
    ab[2 * k + coo.row - coo.col, coo.col] = coo.data
    return k, ab


def _tridiagonals(ab):
    """(lower, diagonal, upper) of a matrix in band storage with k = 1."""
    return (np.ascontiguousarray(ab[3, :-1]), np.ascontiguousarray(ab[2]),
            np.ascontiguousarray(ab[1, 1:]))


class _StepSolver:
    """Band LU of the step matrix (M/dt + K + M_L diag(shift)), one per solve.

    M/dt + K is converted once into LAPACK band storage; its half-bandwidth
    k is 1 on an interval and nx + 2 on an nx x ny rectangle with the mesh's
    x-fastest node numbering.  Each solve adds the lumped shift to the
    diagonal and makes one LAPACK call: ``gtsv`` on the three diagonals when
    k = 1, ``gbsv`` on a copy of the band otherwise.  Instances are
    stateless per call and safe to share across threads.
    """

    def __init__(self, ops, dt: float):
        self.lumped = ops.lumped_mass
        self.base = (ops.mass * (1.0 / dt) + ops.stiffness).tocsr()
        self.mass = ops.mass.tocsr()
        self.k, self.ab = _band_storage(self.base)
        if self.k == 1:
            self._lo, self._di, self._up = _tridiagonals(self.ab)
            self._mlo, self._mdi, self._mup = _tridiagonals(_band_storage(self.mass)[1])
            self._gtsv = sla.get_lapack_funcs(("gtsv",), (self.ab,))[0]
        else:
            self._gbsv = sla.get_lapack_funcs(("gbsv",), (self.ab,))[0]

    def _tri_matvec(self, lo, di, up, y):
        out = di * y
        out[:-1] += up * y[1:]
        out[1:] += lo * y[:-1]
        return out

    def mass_matvec(self, y: np.ndarray) -> np.ndarray:
        if self.k == 1:
            return self._tri_matvec(self._mlo, self._mdi, self._mup, y)
        return self.mass @ y

    def apply_base(self, y: np.ndarray) -> np.ndarray:
        if self.k == 1:
            return self._tri_matvec(self._lo, self._di, self._up, y)
        return self.base @ y

    def solve(self, shift: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        if self.k == 1:
            d = self._di + self.lumped * shift
            _, _, _, x, info = self._gtsv(self._lo, d, self._up, rhs,
                                          overwrite_d=True)
            if info != 0:
                raise SolverError(f"singular step matrix (gtsv info {info})")
            return x
        ab = self.ab.copy(order="F")
        ab[2 * self.k] += self.lumped * shift
        _, _, x, info = self._gbsv(self.k, self.k, ab, rhs, overwrite_ab=True)
        if info != 0:
            raise SolverError(f"singular step matrix (gbsv info {info})")
        return x


def _stepper(spec) -> _StepSolver:
    """The step solver of the spec's operators for its time step, built on
    first use and shared by every solve on the same mesh and step."""
    solvers = spec.operators.step_solvers
    dt = spec.grid.step
    solver = solvers.get(dt)
    if solver is None:
        solver = solvers[dt] = _StepSolver(spec.operators, dt)
    return solver


def _forcing_terms(spec: ProblemSpec, control: Trajectory) -> np.ndarray:
    """Per-step source functionals M g_i + W u_i for i = 0..N."""
    ops = spec.operators
    g = spec.source_samples
    forcing = (ops.mass @ g.T).T.copy()
    forcing[:, ops.control_index] += control.values * ops.control_weights
    return forcing


def _residual_norm(r: np.ndarray, lumped: np.ndarray) -> float:
    # lumped-mass-weighted dual norm, comparable to an L2 function norm
    return float(np.sqrt(np.sum(r * r / lumped)))


def solve_forward(spec: ProblemSpec, control: Trajectory,
                  newton: NewtonConfig | None = None) -> Trajectory:
    """March the semilinear equation from the initial state under a control."""
    if control.kind != "control" or control.values.shape[1] != spec.control_count:
        raise ValueError("control trajectory does not match the control subdomain")
    if control.grid.n_steps != spec.grid.n_steps:
        raise ValueError("control trajectory does not match the time grid")
    cfg = newton or NewtonConfig()
    ops = spec.operators
    f = spec.nonlinearity
    dt = spec.grid.step
    stepper = _stepper(spec)
    ml = ops.lumped_mass
    forcing = _forcing_terms(spec, control)

    n = spec.grid.n_steps
    out = np.empty((n + 1, ops.n_nodes))
    out[0] = spec.initial_values
    y = out[0].copy()
    for i in range(1, n + 1):
        b = stepper.mass_matvec(y) / dt + forcing[i]

        def residual(v):
            return stepper.apply_base(v) + ml * f.value(v) - b

        r = residual(y)
        rn = _residual_norm(r, ml)
        history = [rn]
        for _ in range(cfg.max_iterations):
            if rn <= cfg.tolerance:
                break
            delta = stepper.solve(f.derivative(y), -r)
            alpha = 1.0
            while True:
                y_try = y + alpha * delta
                r_try = residual(y_try)
                rn_try = _residual_norm(r_try, ml)
                if np.isfinite(rn_try) and (rn_try < rn or rn_try <= cfg.tolerance):
                    break
                alpha *= cfg.damping
                if alpha < 1e-10:
                    raise SolverError(
                        f"Newton damping stalled at time step {i}", step=i, history=history)
            y, r, rn = y_try, r_try, rn_try
            history.append(rn)
        if rn > cfg.tolerance:
            raise SolverError(
                f"Newton did not converge at time step {i} (residual {rn:.3e})",
                step=i, history=history)
        out[i] = y
    if not np.all(np.isfinite(out)):
        raise SolverError("forward solve produced non-finite values")
    return Trajectory(spec.grid, out, "state")


def _linear_march(spec, coefficients, rhs_nodal, start=None):
    """Shared linear stepping: S_i z_i = (M/dt) z_{i-1} + rhs_nodal[i]."""
    ops = spec.operators
    dt = spec.grid.step
    stepper = _stepper(spec)
    n = spec.grid.n_steps
    out = np.empty((n + 1, ops.n_nodes))
    out[0] = 0.0 if start is None else start
    z = out[0].copy()
    for i in range(1, n + 1):
        b = stepper.mass_matvec(z) / dt + rhs_nodal[i]
        z = stepper.solve(coefficients[i], b)
        out[i] = z
    if not np.all(np.isfinite(out)):
        raise SolverError("linear solve produced non-finite values")
    return out


def _step_coefficients(spec, base_state, coefficient=None):
    f = spec.nonlinearity
    if coefficient is None:
        return f.derivative(base_state.values)
    coeff = np.asarray(coefficient, dtype=float)
    if coeff.shape != base_state.values.shape:
        raise ValueError("coefficient field shape does not match the state trajectory")
    tol = 1e-9 * max(1.0, abs(f.min_slope))
    if coeff.min() < f.min_slope - tol:
        raise ValueError("coefficient field falls below the declared slope bound")
    return coeff


def solve_linearized(spec: ProblemSpec, base_state: Trajectory, rhs: Trajectory,
                     rhs_on_omega: bool = True, coefficient=None) -> Trajectory:
    """Linearized equation around a forward trajectory, zero initial value.

    With ``rhs_on_omega`` the right-hand side lives on the control nodes and
    enters through the lumped control weights; otherwise it is a full-domain
    field entering through the consistent mass matrix.  An explicit
    ``coefficient`` field replaces f'(state) (it must respect the slope
    bound).
    """
    ops = spec.operators
    n = spec.grid.n_steps
    if base_state.grid.n_steps != n:
        raise ValueError("base state does not match the time grid")
    coeffs = _step_coefficients(spec, base_state, coefficient)
    if rhs_on_omega:
        if rhs.values.shape[1] != spec.control_count:
            raise ValueError("control-supported right-hand side has the wrong width")
        rhs_nodal = ops.scatter_control(rhs.values)
    else:
        if rhs.values.shape[1] != ops.n_nodes:
            raise ValueError("full-domain right-hand side has the wrong width")
        rhs_nodal = (ops.mass @ rhs.values.T).T
    vals = _linear_march(spec, coeffs, rhs_nodal)
    return Trajectory(spec.grid, vals, "generic")


def solve_second_order(spec: ProblemSpec, base_state: Trajectory,
                       z1: Trajectory, z2: Trajectory) -> Trajectory:
    """Second-order sensitivity: forcing -f''(y) z1 z2 through nodal quadrature."""
    f = spec.nonlinearity
    ops = spec.operators
    prod = -f.second_derivative(base_state.values) * z1.values * z2.values
    rhs_nodal = ops.lumped_mass * prod
    coeffs = f.derivative(base_state.values)
    vals = _linear_march(spec, coeffs, rhs_nodal)
    return Trajectory(spec.grid, vals, "generic")


def solve_adjoint_from_residual(spec: ProblemSpec, base_state: Trajectory,
                                residual: np.ndarray, rate: float,
                                masked: bool = False) -> Trajectory:
    """Transpose recursion with source e^{-rate t_i} M residual_i.

    With ``masked`` the source is restricted to the observation subdomain
    (nodal indicator on both sides of the mass matrix).
    """
    ops = spec.operators
    f = spec.nonlinearity
    dt = spec.grid.step
    n = spec.grid.n_steps
    residual = np.asarray(residual, dtype=float)
    if residual.shape != (n + 1, ops.n_nodes):
        raise ValueError("residual samples have the wrong shape")
    mask = spec.observation_mask if masked else None
    stepper = _stepper(spec)
    t = spec.grid.times
    out = np.empty((n + 1, ops.n_nodes))
    nxt = np.zeros(ops.n_nodes)
    for i in range(n, -1, -1):
        r = residual[i]
        if mask is not None:
            src = mask * stepper.mass_matvec(mask * r)
        else:
            src = stepper.mass_matvec(r)
        b = stepper.mass_matvec(nxt) / dt + np.exp(-rate * t[i]) * src
        nxt = stepper.solve(f.derivative(base_state.values[i]), b)
        out[i] = nxt
    if not np.all(np.isfinite(out)):
        raise SolverError("adjoint solve produced non-finite values")
    return Trajectory(spec.grid, out, "adjoint")


def solve_adjoint(spec: ProblemSpec, base_state: Trajectory,
                  rate: float | None = None, target=None) -> Trajectory:
    """Adjoint of the tracking cost around a forward trajectory."""
    if rate is None:
        rate = spec.discounts.state_rate
    target_vals = spec.target_samples if target is None else np.asarray(target, dtype=float)
    residual = base_state.values - target_vals
    return solve_adjoint_from_residual(spec, base_state, residual, rate, masked=True)


# ---------------------------------------------------------------------------
# discrete energy-estimate checks


@dataclass
class EstimateReport:
    """Outcome of a discrete a-priori estimate check."""

    lhs: float
    rhs: float
    satisfied: bool
    rate: float
    slack: float
    detail: dict = field(default_factory=dict)

    def to_dict(self):
        return {"lhs": self.lhs, "rhs": self.rhs, "satisfied": self.satisfied,
                "rate": self.rate, "slack": self.slack, "detail": self.detail}


def _combined_source_norm(spec, control, rate):
    """Weighted L2 norm of g + u restricted to the control subdomain."""
    ops = spec.operators
    g = spec.source_samples
    u = control.values
    e_g = quad_energies(g, ops.mass)
    cross = np.einsum("ij,j,ij->i", g[:, ops.control_index], ops.control_weights, u)
    e_u = np.einsum("ij,j,ij->i", u, ops.control_weights, u)
    energy = np.maximum(e_g + 2.0 * cross + e_u, 0.0)
    t = spec.grid.times[1:]
    w = spec.grid.step * np.exp(-rate * t)
    return float(np.sqrt(np.sum(w * energy[1:])))


def check_energy_estimate(spec: ProblemSpec, control: Trajectory, rate: float,
                          slack: float = 0.05,
                          newton: NewtonConfig | None = None) -> EstimateReport:
    """Discrete analog of the forward stability estimate.

    lhs combines the discounted sup norm of the state and its weighted
    space-time energy norm; rhs is built from the initial state and the
    weighted source norm.  The estimate is checked up to a slack covering
    the time-discretization error of the exponential weights.
    """
    ms = spec.nonlinearity.min_slope
    if rate <= -2.0 * ms:
        raise ValueError(f"rate must exceed {-2.0 * ms:g} for this estimate")
    ops = spec.operators
    ell = spec.operator.ellipticity_bound(spec.mesh)
    coef = min(0.5 * rate + ms, 2.0 * ell)
    if coef <= 0:
        raise ValueError("estimate coefficient is not positive for this rate")
    y = solve_forward(spec, control, newton)
    sup_part = weighted_sup_norm(y, rate, ops.mass)
    energy_part = weighted_l2_norm(y, rate, ops.h1)
    lhs = sup_part + np.sqrt(coef) * energy_part
    y0 = spec.initial_values
    init = float(np.sqrt(max(quad_energies(y0[None, :], ops.mass)[0], 0.0)))
    hnorm = _combined_source_norm(spec, control, rate)
    rhs = 2.0 * init + 2.0 * np.sqrt(2.0) / np.sqrt(rate + 2.0 * ms) * hnorm
    return EstimateReport(
        float(lhs), float(rhs), bool(lhs <= rhs * (1.0 + slack)), rate, slack,
        detail={"sup_part": sup_part, "energy_part": energy_part,
                "initial_norm": init, "source_norm": hnorm,
                "sup_pointwise": float(np.max(
                    np.exp(-0.5 * rate * spec.grid.times)
                    * np.max(np.abs(y.values), axis=1)))},
    )


def check_linearized_estimate(spec: ProblemSpec, base_control: Trajectory,
                              rhs_field: np.ndarray, rate: float,
                              slack: float = 0.05,
                              newton: NewtonConfig | None = None) -> EstimateReport:
    """Discrete analog of the linearized stability estimate.

    Solves the linearized equation around the state of ``base_control`` with
    a full-domain source and compares its combined norm against
    2/min(1, rate/2, ellipticity) times the weighted source norm.
    """
    ms = spec.nonlinearity.min_slope
    if rate <= -2.0 * ms:
        raise ValueError(f"rate must exceed {-2.0 * ms:g} for this estimate")
    ops = spec.operators
    y = solve_forward(spec, base_control, newton)
    rhs_traj = Trajectory(spec.grid, rhs_field, "generic")
    z = solve_linearized(spec, y, rhs_traj, rhs_on_omega=False)
    lhs = weighted_sup_norm(z, rate, ops.mass) + weighted_l2_norm(z, rate, ops.h1)
    ell = spec.operator.ellipticity_bound(spec.mesh)
    stability = 2.0 / min(1.0, 0.5 * rate, ell)
    hnorm = weighted_l2_norm(rhs_traj, rate, ops.mass)
    rhs = stability * hnorm
    return EstimateReport(
        float(lhs), float(rhs), bool(lhs <= rhs * (1.0 + slack)), rate, slack,
        detail={"stability_constant": stability, "source_norm": hnorm},
    )
