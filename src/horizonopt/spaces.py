"""Time grids, trajectories, and exponentially weighted space-time norms.

A trajectory stores nodal coefficients at the times of a uniform grid on
[0, T].  Time quadrature is the right-rectangle rule (weight dt at
t_1..t_N, none at t_0), which is the quadrature induced by implicit Euler
and makes the discrete adjoint an exact transpose.

The grid owns its times and the discount weights e^{-rate t_i}
(``TimeGrid.discount``); ``_pairings`` is the one per-step bilinear form
a_i' X b_i, and ``_discounted_sum`` the one quadrature sum, which the norms
here and the control metric of ``ProblemSpec`` share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FLOAT_FMT = "%.17g"


def write_csv(path, tag: str, columns: list, rows) -> None:
    """Write ``rows`` as CSV under the header line ``# tag`` and a line of
    column names, every value at 17 significant digits."""
    line = ",".join([FLOAT_FMT] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(f"# {tag}\n" + ",".join(columns) + "\n")
        fh.writelines(line % tuple(row) for row in rows)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_i = i*step, i = 0..n_steps, with horizon = n_steps*step.

    ``times`` is made once, with the grid, and is read-only.
    """

    horizon: float
    step: float
    times: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0 < self.step < np.inf and 0 < self.horizon < np.inf):
            raise ValueError("horizon and step must be positive and finite")
        ratio = self.horizon / self.step
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise ValueError(f"horizon {self.horizon} is not an integer multiple of step {self.step}")
        times = self.step * np.arange(self.n_steps + 1)
        times.flags.writeable = False
        object.__setattr__(self, "times", times)

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.step))

    def discount(self, rate: float) -> np.ndarray:
        """Weights e^{-rate t_i} at every grid time; a growth factor is a
        negative rate."""
        return np.exp(-rate * self.times)


@dataclass(eq=False)
class Trajectory:
    """Time-indexed nodal values: ``values[i]`` holds the coefficients at t_i.

    ``kind`` is one of "state", "adjoint", "control", "generic"; control
    trajectories hold values on the control-subdomain nodes only.

    ``factors`` is not a constructor argument.  It is None except on a state
    ``solvers.solve_forward`` returns for one control (not a list) in 2D,
    which sets it: there ``factors[i]`` (i < n) is the diagonal and the
    factorization of the step matrix S(y_i) made by the first Newton
    iteration of step i + 1, for the linear marches around the state to
    reuse; a linear march fills a slot that is None (that of S(y_n), or of
    a step that took none) with the one it makes.  ``optimizer.optimize``
    keeps them on the state it returns and drops them from every other.
    They describe ``values``, which nothing changes.

    Trajectories compare by identity: elementwise equality of ``values`` has
    no single truth value.
    """

    grid: TimeGrid
    values: np.ndarray
    kind: str = "generic"
    factors: list | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[0] != self.grid.n_steps + 1:
            raise ValueError("trajectory values must have shape (n_steps + 1, width)")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("trajectory contains non-finite entries")
        if self.kind not in ("state", "adjoint", "control", "generic"):
            raise ValueError(f"unknown trajectory kind {self.kind!r}")

    @property
    def width(self) -> int:
        return self.values.shape[1]

    def restrict(self, grid: TimeGrid) -> "Trajectory":
        """Truncate to a shorter grid with the same step."""
        if abs(grid.step - self.grid.step) > 1e-12 * self.grid.step:
            raise ValueError("restriction requires an identical time step")
        n = grid.n_steps
        if n > self.grid.n_steps:
            raise ValueError("restriction target is longer than the trajectory")
        return Trajectory(grid, self.values[: n + 1].copy(), self.kind)

    def to_csv(self, path) -> None:
        """Write as CSV with columns ``t, node_0..node_{w-1}`` at 17 significant digits."""
        write_csv(path, f"horizonopt trajectory v1 kind={self.kind} columns={self.width}",
                  ["t"] + [f"node_{k}" for k in range(self.width)],
                  np.column_stack((self.grid.times, self.values)).tolist())


def _pairings(a: np.ndarray, b: np.ndarray, form) -> np.ndarray:
    """Per-time bilinear form values a_i' X b_i, ``form`` as in quad_energies."""
    if isinstance(form, np.ndarray) and form.ndim == 1:
        return np.einsum("ij,j,ij->i", a, form, b)
    return np.einsum("ij,ji->i", a, np.asarray(form @ b.T))


def quad_energies(values: np.ndarray, form) -> np.ndarray:
    """Per-time quadratic form values v_i' X v_i.

    ``form`` is a sparse/dense matrix or a 1D array interpreted as a diagonal.
    """
    return _pairings(values, values, form)


def _discounted_sum(grid: TimeGrid, rate: float, per_step: np.ndarray) -> float:
    """sum_i dt e^{-rate t_i} per_step_i over i >= 1, ``per_step`` holding
    the values at t_1..t_N."""
    return float(np.sum(grid.step * grid.discount(rate)[1:] * per_step))


def weighted_l2_norm(traj: Trajectory, rate: float, form) -> float:
    """Right-rectangle discretization of (int_0^T e^{-rate t} |y(t)|_X^2 dt)^{1/2}."""
    e = quad_energies(traj.values[1:], form)
    return float(np.sqrt(_discounted_sum(traj.grid, rate, np.maximum(e, 0.0))))


def weighted_lp_norm(traj: Trajectory, rate: float, p: float, form) -> float:
    """Same quadrature with p-th powers of the spatial norm."""
    if p <= 0:
        raise ValueError("p must be positive")
    e = np.sqrt(np.maximum(quad_energies(traj.values[1:], form), 0.0))
    return float(_discounted_sum(traj.grid, rate, e**p) ** (1.0 / p))


def weighted_sup_norm(traj: Trajectory, rate: float, form) -> float:
    """max_i e^{-rate t_i / 2} |y_i|_X over the whole grid, including t_0."""
    e = np.sqrt(np.maximum(quad_energies(traj.values, form), 0.0))
    return float(np.max(traj.grid.discount(0.5 * rate) * e))


def weighted_inner(a: Trajectory, b: Trajectory, rate: float, form) -> float:
    """Discrete weighted pairing sum_i dt e^{-rate t_i} a_i' X b_i (i >= 1)."""
    if a.values.shape != b.values.shape:
        raise ValueError("trajectory shapes do not match")
    return _discounted_sum(a.grid, rate, _pairings(a.values[1:], b.values[1:], form))
