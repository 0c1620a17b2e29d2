from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import settings

from horizonopt import (AdmissibleSet, Discounts, EllipticForm, ProblemSpec,
                        TimeGrid, Trajectory, builtin_nonlinearities,
                        interval_mesh, rectangle_mesh)
from horizonopt.objective import SecondOrderModel, gradient_with_state
from horizonopt.problem import _StepSolver, default_aux_rate, default_integrability_exponent

# every property test reruns the same examples, with no per-example deadline
settings.register_profile("horizonopt", derandomize=True, deadline=None)
settings.load_profile("horizonopt")


def make_spec(n_nodes=21, horizon=1.0, step=0.05, nonlinearity="cubic",
              state_rate=1.0, control_rate=0.4, aux_rate=None,
              control_weight=0.5, admissible=None, diffusion=1.0, reaction=0.0,
              initial=None, source=None, target=None, control=(0.2, 0.8),
              observation=None, length=1.0, enforce_second_order=False):
    """Small 1D problem with sensible defaults for unit tests."""
    mesh = interval_mesh(length, n_nodes, control=control, observation=observation)
    f = builtin_nonlinearities()[nonlinearity]
    if aux_rate is None:
        aux_rate = default_aux_rate(state_rate, f.growth_exponent, f.min_slope)
    discounts = Discounts(state_rate, control_rate, aux_rate,
                          integrability_exponent=2.0,
                          enforce_second_order=enforce_second_order)
    grid = TimeGrid(horizon, step)
    n = grid.n_steps
    if initial is None:
        initial = np.zeros(n_nodes)
    if source is None:
        source = np.zeros((n + 1, n_nodes))
    if target is None:
        target = np.zeros((n + 1, n_nodes))
    if admissible is None:
        admissible = AdmissibleSet("ball", radius=10.0)
    return ProblemSpec(
        mesh=mesh, operator=EllipticForm(diffusion=diffusion, reaction=reaction),
        nonlinearity=f, discounts=discounts, grid=grid, initial_state=initial,
        source=source, target=target, control_weight=control_weight,
        admissible=admissible)


def rectangle_spec(shape, seed=0, horizon=0.4, step=0.05, observation=None):
    """Small 2D cubic problem on the unit square with a random initial state."""
    mesh = rectangle_mesh((1.0, 1.0), shape, control=((0.2, 0.8), (0.2, 0.8)),
                          observation=observation)
    rng = np.random.default_rng(seed)
    grid = TimeGrid(horizon, step)
    n = grid.n_steps
    return ProblemSpec(
        mesh=mesh, operator=EllipticForm(diffusion=1.0),
        nonlinearity=builtin_nonlinearities()["cubic"],
        discounts=Discounts(1.0, 0.4, 0.1,
                            integrability_exponent=default_integrability_exponent(2)),
        grid=grid,
        initial_state=0.3 * rng.standard_normal(mesh.n_nodes),
        source=np.zeros((n + 1, mesh.n_nodes)),
        target=0.2 * np.ones((n + 1, mesh.n_nodes)), control_weight=1.0,
        admissible=AdmissibleSet("ball", radius=5.0))


def read_trajectory(path):
    """A ``Trajectory.to_csv`` file read back strictly: the ``# horizonopt
    trajectory`` header line gives the kind, and the times must be i*dt from 0."""
    with open(path) as fh:
        header = fh.readline().split()
        assert header[:3] == ["#", "horizonopt", "trajectory"], f"{path}: no trajectory header"
        kind = dict(token.split("=", 1) for token in header if "=" in token)["kind"]
        fh.readline()  # column names
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    t = data[:, 0]
    grid = TimeGrid(t[-1], t[1])
    assert np.array_equal(t, grid.times), f"{path}: times are not i*dt from 0"
    return Trajectory(grid, data[:, 1:], kind)


def random_control(spec, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    vals = scale * rng.standard_normal((spec.grid.n_steps + 1, spec.control_count))
    return Trajectory(spec.grid, vals, "control")


def model_at(spec, u):
    """The second-order model around the state and adjoint of ``u``."""
    _, state, adjoint = gradient_with_state(spec, u)
    return SecondOrderModel(spec, state, adjoint)


def admissible_contains(admissible, traj, control_weights):
    """Whether every time step of a control trajectory lies in the set, up to
    1e-14 (relative and absolute for the ball radius)."""
    tol = 1e-14
    if admissible.kind == "box":
        return bool(np.all(traj.values >= admissible.lower - tol)
                    and np.all(traj.values <= admissible.upper + tol))
    norms = np.sqrt(np.einsum("ij,j,ij->i", traj.values, control_weights, traj.values))
    return bool(np.all(norms <= admissible.radius * (1.0 + tol) + tol))


def random_instance(seed, set_kind="ball", nonlinearity="cubic"):
    """Seeded random small instance spanning both set kinds and all
    catalog nonlinearities; discount rates drawn inside their admissible
    windows."""
    rng = np.random.default_rng(seed)
    f = builtin_nonlinearities()[nonlinearity]
    if f.min_slope < 0:
        state_rate = -2.0 * (f.growth_exponent + 3.0) * f.min_slope \
            * rng.uniform(1.1, 1.4)
    else:
        state_rate = rng.uniform(0.6, 1.6)
    lo, hi = -2.0 * f.min_slope, state_rate / (f.growth_exponent + 3.0)
    aux_rate = lo + rng.uniform(0.3, 0.7) * (hi - lo)
    control_rate = rng.uniform(0.2, 0.9) * min(
        aux_rate if aux_rate > 0 else 1.0,
        state_rate + f.min_slope * (f.growth_exponent + 2.0))
    n_nodes = int(rng.integers(15, 26))
    if set_kind == "ball":
        admissible = AdmissibleSet("ball", radius=rng.uniform(0.5, 2.0))
    else:
        admissible = AdmissibleSet("box", lower=-rng.uniform(0.5, 1.5),
                                   upper=rng.uniform(0.5, 1.5))
    grid_n = int(rng.integers(16, 33))
    step = rng.uniform(0.02, 0.05)
    x = np.linspace(0.0, 1.0, n_nodes)
    initial = 0.4 * np.cos(np.pi * x) + rng.uniform(-0.2, 0.2)
    times = step * np.arange(grid_n + 1)
    target = 0.5 * np.outer(np.exp(-times), np.cos(2 * np.pi * x))
    source = 0.3 * np.outer(np.exp(-0.5 * times), np.ones(n_nodes))
    spec = make_spec(
        n_nodes=n_nodes, horizon=grid_n * step, step=step,
        nonlinearity=nonlinearity, state_rate=state_rate,
        control_rate=control_rate, aux_rate=aux_rate,
        control_weight=rng.uniform(0.3, 1.0), admissible=admissible,
        initial=initial, source=source, target=target)
    u = random_control(spec, seed=seed + 1, scale=0.4)
    from horizonopt.admissible import project_values
    u = Trajectory(spec.grid, project_values(spec.admissible, u.values,
                                             spec.operators.control_weights), "control")
    return spec, u


@pytest.fixture
def small_spec():
    return make_spec()


@contextmanager
def counting_step_calls():
    """Record, while open, the first argument of every 2D ``_StepSolver``
    call of ``factor`` (the diagonal factored) and of ``solve`` (the
    factorization solved with), in the list of a dict keyed by the method."""
    calls = {"factor": [], "solve": []}
    with pytest.MonkeyPatch.context() as mp:
        for name in calls:
            def counted(self, first, *rest, name=name, method=getattr(_StepSolver, name)):
                if self.k > 1:
                    calls[name].append(first)
                return method(self, first, *rest)
            mp.setattr(_StepSolver, name, counted)
        yield calls


@pytest.fixture
def step_calls():
    """The 2D step factorizations and solves of a test, as
    ``counting_step_calls`` records them."""
    with counting_step_calls() as calls:
        yield calls
