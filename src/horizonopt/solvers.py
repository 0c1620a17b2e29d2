"""Implicit-Euler time stepping for the forward semilinear equation, its
linearizations, and the discrete adjoint.

The forward step solves

    M (y_i - y_{i-1})/dt + K y_i + M_L f(y_i) = M g_i + W u_i

by damped Newton, where M is the consistent mass matrix, M_L its lumping,
K the stiffness (including the nodal reaction term), and W the lumped
control weights scattered to the control nodes.

The adjoint recursion is the exact transpose of the linearized forward
map.  Starting from zero beyond the final node (the discrete form of the
truncated terminal condition) it runs

    S_i phi_i = (M/dt) phi_{i+1} + e^{-rate t_i} * source_i,  i = N..0,

with S_i = M/dt + K + M_L diag(f'(y_i)).  This choice makes the discrete
cost gradient exact to solver precision; consistency with the backward
differential equation is then automatic as dt -> 0.  One march serves the
linearized, second-order and adjoint solves: the two sensitivity equations
reuse the converged step Jacobians S_i and run the same recursion forward,
S_i z_i = (M/dt) z_{i-1} + source_i for i = 1..N, from z_0 = 0.

A linear march takes B right-hand sides at once (the second-order check
marches all its directions together); the forward march takes B controls
at once (the growth probe solves all its samples together), as the rows
of (B, N) arrays, each with its own residual norm, damping and
convergence, so that each state of a list is bitwise its solve as a list
of one.  One system's arrays have shape (N,); the step operator's (N,)
coefficients broadcast over rows.

Every march steps through the problem's ``step_operator``: M/dt + K in the
upper band storage of half-bandwidth k of ``problem.band_storage``, to
whose diagonal a step adds the lumped shift.  When k = 1 (1D) a solve calls
``gtsv`` with B columns, which factors as it solves.  Otherwise (2D,
k = nx + 2) it factors by upper band Cholesky, ``pbtrf``, and solves with
``pbtrs`` with B columns: for an admitted problem the step matrix is
symmetric positive definite, since f' is bounded below by ``min_slope``
and the validator's ``discrete_step_monotone`` item proves
M/dt + K + min_slope M_L positive definite.  A step matrix that is not
raises ``SolverError``.  A 1D forward batch joins its B systems into one
of B * N unknowns with zero couplings in one ``gtsv`` call, where a zero
subdiagonal never makes it swap rows, so elimination stays inside each
row's system; in 2D each row is factored and solved on its own, as LAPACK
has no batched band Cholesky.  Each row gets the bits it gets alone.

In 1D every Newton iteration solves with S at its iterate (exact Newton):
``gtsv`` factors as it solves, so a held factorization would save nothing.
In 2D the forward march is simplified Newton with a monitored contraction
(Deuflhard, Newton Methods for Nonlinear Problems, 2004; Hairer & Wanner,
Solving ODEs II, IV.8), decided per sample: a later iteration of a step
keeps the sample's factorization while its last trial was accepted
undamped, its residual norm contracted by a ratio of at most
``CONTRACTION`` = 1/4, and that ratio, kept up over the iterations left,
would bring the norm within the tolerance.  The first iteration of a step
depends on the march.  A march of one control factors S(y_{i-1}), which
its state hands to the linear marches as ``Trajectory.factors`` below.  A
march of a list keeps no factorizations, so a sample carries its last one
into the next step while its last accepted iteration was undamped and
contracted by a ratio of at most ``CARRY`` = 1e-3 (RADAU5's default), and
factors S(y_{i-1}) otherwise.  After a trial on a kept or carried
factorization that fails to reduce the norm the sample refactors at its
iterate.  So a smooth step of one control factors once, and a smooth
sample of a list factors in its first steps only.

Every linear march around a state y steps with S_i = S(y_i), which for
i < N is bitwise the matrix of the first Newton iteration of forward step
i + 1 of a march of one control.  So in 2D the state a forward solve of one
control returns owns those factorizations, ``Trajectory.factors``, and
``optimize`` hands them on with the state it returns.  The march takes the
state itself: it derives f'(y_i) from the state's values and reads its
factorizations, each where its own step matrix has the same diagonal.  A
march reuses a factorization down any run of steps the forward march took
without a Newton iteration, where S_i did not change, and keeps one it
makes in the step's slot of ``factors`` when that is empty, as S_N's is:
so the optimizer's last adjoint march hands S_N on.  Around any other state
(restricted, loaded, batched, 1D) it factors every step.  The trajectories made from a linear
march's result are its one finiteness scan: a non-finite value raises
``SolverError``.

Every buffer a march writes is its own, reused from step to step: the
forward march's two sets of iterate y, (M/dt + K) y + M_L f(y) and residual
swap roles when a trial is accepted, and a linear march's solution and next
right-hand side swap at every step.  The step operator's products are bound
to these buffers once per march, and a step solve overwrites its right-hand
side and, in 1D, its diagonal: always one the march made for it, never the
step operator's ``diagonal`` or a diagonal a state keeps in ``factors``.
What a march returns is copied out of its buffers.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .problem import ProblemSpec, SolverError
from .spaces import (Trajectory, _discounted_sum, quad_energies, weighted_l2_norm,
                     weighted_sup_norm)


def _rounding_floor(stepper, dt, y, y_prev, fy, forcing) -> float:
    """eps times the lumped dual norm of |M/dt + K| |y| + M_L |f(y)|
    + (M/dt) |y_prev| + |forcing|: the rounding error of evaluating the step
    residual (M/dt + K) y + M_L f(y) - (M/dt) y_prev - forcing at y."""
    terms = (abs(stepper.base) @ abs(y) + stepper.lumped * abs(fy)
             + stepper.mass @ abs(y_prev) / dt + abs(forcing))
    return np.finfo(float).eps * stepper.norms(terms, np.empty_like(terms))[0]


# the largest ratio of successive residual norms at which a 2D Newton
# iteration keeps its sample's factorization (simplified Newton)
CONTRACTION = 0.25
# the largest ratio of successive residual norms of a sample's last accepted
# undamped iteration at which a 2D march that keeps no factorizations
# carries the sample's factorization into the next time step (RADAU5's
# default for keeping a Jacobian, Hairer & Wanner, Solving ODEs II, IV.8)
CARRY = 1e-3


def _newton_march(spec: ProblemSpec, controls: list, kept: list | None) -> np.ndarray:
    """The forward march of B controls to states of shape (B, N+1, N); the
    first failure raises.  Its arrays have a row per sample, or shape (N,)
    for one control, and it steps through ``spec.step_operator``.  With a
    list ``kept`` (one control), entry i - 1 becomes the diagonal and
    factorization of the first Newton iteration of time step i, which is
    S(y_{i-1}); a step that needs no iteration leaves its None.  A sample
    whose residual is within ``_rounding_floor``, as after a large source,
    keeps its iterate at its first rejected trial; one above it whose
    damping stalls raises.

    In 1D every iteration solves with S at its iterate (exact Newton).  In
    2D a later iteration of a step keeps the sample's last factorization
    (simplified Newton) while its last trial was accepted undamped, its
    residual norm fell to at most ``CONTRACTION`` times the one before, and,
    contracting at that ratio, would reach the tolerance within the
    iterations left; otherwise it factors its step matrix at its iterate.
    The first iteration of a step factors S(y_{i-1}) when ``kept`` is a
    list.  When it is None each sample carries its last factorization
    into the step while its last accepted iteration, in an earlier step,
    was undamped and fell by a ratio of at most ``CARRY``.  A trial on a
    kept or carried factorization that the sample rejects is not damped:
    the sample's step matrix is factored at the iterate and the trial
    repeated, and from there damping and the floor apply as in 1D."""
    tolerance, iterations = spec.newton.tolerance, range(spec.newton.max_iterations)
    value, derivative = spec.nonlinearity.value, spec.nonlinearity.derivative
    ops, dt, stepper = spec.operators, spec.grid.step, spec.step_operator
    n, count, nodes = spec.grid.n_steps, len(controls), ops.n_nodes
    lumped, norms, diagonal = stepper.lumped, stepper.norms, stepper.diagonal
    factor, solve, samples, subtract = stepper.factor, stepper.solve, range(count), np.subtract
    # the shape of the march's arrays; as (B, N) they have a row per sample
    shape = (nodes,) if count == 1 else (count, nodes)
    # row i of a sample's result holds its step source M g_i + W u_i until
    # step i writes its state over it; out[s][:, ...], as numpy's mixed
    # advanced indexing would put the index first in out[s, :, ...]
    out = np.repeat((ops.mass @ spec.source_samples.T).T[None], count, axis=0)
    for s, control in enumerate(controls):
        out[s][:, ops.control_index] += control.values * ops.control_weights
    out[:, 0] = spec.initial_values
    b, delta, work = np.empty((3,) + shape)
    deltas, sources = delta.reshape(count, nodes), out[0] if count == 1 else out.swapaxes(0, 1)

    def buffers():
        # the rows of an iterate y, a = (M/dt + K) y + M_L value(y) and its
        # residual a - b, and the products with y bound to a and b
        rows = np.empty((3, count, nodes))
        y, a, r = rows.reshape((3,) + shape)
        return rows, y, a, r, stepper.base_product(y, a), stepper.mass_product(y, b)

    # in 2D each sample's (diagonal, factorization) in the form ``kept``
    # takes, and the live samples whose iteration kept theirs
    chord, held, stale = stepper.k > 1, [None] * count, set()
    # the samples whose factorization the next time step starts with
    carries, carried = chord and kept is None, [False] * count

    def newton_step(s, fresh):
        # sample s's row of delta, the solve of its residual row with its
        # factorization, after factoring S at its iterate when fresh
        if fresh:
            d = diagonal + lumped * derivative(rows[0, s])
            held[s] = d, factor(d)
        deltas[s] = rows[2, s]
        solve(held[s][1], deltas[s])

    # the current iterate and the trial: an accepted trial swaps the two, and
    # its a carries into the next time step's residual
    (rows, y, a, r, base_y, mass_y), trial = buffers(), buffers()
    rows[0] = spec.initial_values
    base_y()
    a += lumped * value(y)
    for i in range(1, n + 1):
        mass_y()
        b /= dt
        b += sources[i]
        rn = norms(subtract(a, b, r), work)
        # every sample's norms per iteration, for the histories: a sample
        # that fails has been live at every iteration of its step
        log = [rn]
        live = [s for s in samples if not rn[s] <= tolerance]
        for it in iterations:
            if not live:
                break
            # the Newton update is -delta; solving for r instead of -r and
            # subtracting gives the same bits, since the solve is linear in
            # its right-hand side and negation is exact
            if chord:
                # a sample that is not live takes no step
                delta.fill(0.0)
                stale.clear()
                left = len(iterations) - it
                for s in live:
                    if it:
                        ratio = rn[s] / log[-2][s]
                        keep = (ratio <= CONTRACTION and damping[s] == 1.0
                                and rn[s] * ratio ** left <= tolerance)
                    else:
                        keep = carried[s]
                    if keep:
                        stale.add(s)
                    newton_step(s, not keep)
                if not it and kept is not None:
                    kept[i - 1] = held[0]
            else:
                c = factor(diagonal + lumped * derivative(y))
                delta[...] = r
                solve(c, delta)
            rows_try, y_try, a_try, r_try, base_try, _ = trial
            # each sample halves its own damping factor until its residual
            # decreases; a factor of 1.0 leaves delta's bits unchanged
            damping, step = [1.0] * count, delta
            while True:
                subtract(y, step, y_try)
                base_try()
                a_try += lumped * value(y_try)
                rn_try = norms(subtract(a_try, b, r_try), work)
                # a nan or infinite norm fails both comparisons
                rejected = [s for s in live if not (rn_try[s] < rn[s] or rn_try[s] <= tolerance)]
                if not rejected:
                    break
                for s in rejected:
                    if s in stale:
                        # a kept factorization that fails is replaced, not damped
                        stale.remove(s)
                        newton_step(s, True)
                        continue
                    # a sample's residual is fixed within this loop, so its
                    # floor is tested once, at its first rejected trial:
                    # within it, the sample is frozen below at its current
                    # iterate, like a converged sample
                    if damping[s] == 1.0 and rn[s] <= _rounding_floor(
                            stepper, dt, rows[0, s], out[s, i - 1], value(rows[0, s]),
                            out[s, i]):
                        live.remove(s)
                        continue
                    damping[s] *= 0.5
                    if damping[s] < 1e-10:
                        raise SolverError(f"Newton damping stalled at time step {i}", step=i,
                                          history=[v[s] for v in log])
                if not set(rejected).intersection(live):
                    break
                step = (np.reshape(damping, (count, 1)) * deltas).reshape(shape)
            if carries:
                for s in live:
                    carried[s] = damping[s] == 1.0 and rn_try[s] / rn[s] <= CARRY
            if len(live) < count:
                frozen = list(set(samples).difference(live))
                rows_try[:, frozen] = rows[:, frozen]
            current = rows, y, a, r, base_y, mass_y
            (rows, y, a, r, base_y, mass_y), trial, rn = trial, current, rn_try
            log.append(rn)
            live = [s for s in live if not rn[s] <= tolerance]
        if live:
            s = live[0]
            raise SolverError(
                f"Newton did not converge at time step {i} (residual {rn[s]:.3e})",
                step=i, history=[v[s] for v in log])
        out[:, i] = rows[0]
    return out


def solve_forward(spec: ProblemSpec, control: Trajectory | list):
    """March the semilinear equation from the initial state under a control,
    with the Newton settings ``spec.newton``.

    A list of controls is marched at once, however long, and gives a list
    of states, each bitwise equal to its solve as a list of one.  In 1D that
    is the solve of the control alone; in 2D a list keeps no factorizations
    and carries them across time steps instead, so its states agree with
    those of single solves to the Newton tolerance.  If the march of a list
    fails, every sample is solved as a list of one and the error of the
    lowest-indexed sample among those failing first in time is raised: in
    1D a failing sample's non-finite trial can reach the others through the
    zero couplings of their ``gtsv`` solve, so the error comes from the
    samples' own solves.

    For one control in 2D the state's ``factors`` are the factorizations
    of its first Newton iterations, for the linear marches around it; in 1D
    there are none to keep, as ``gtsv`` factors as it solves.
    """
    single = isinstance(control, Trajectory)
    controls = [control] if single else list(control)
    for c in controls:
        if c.kind != "control" or c.values.shape[1] != spec.control_count:
            raise ValueError("control trajectory does not match the control subdomain")
        if c.grid.n_steps != spec.grid.n_steps:
            raise ValueError("control trajectory does not match the time grid")
    kept = [None] * (spec.grid.n_steps + 1) if single and spec.step_operator.k > 1 else None
    try:
        values = _newton_march(spec, controls, kept)
    except SolverError as exc:
        if len(controls) == 1:
            raise
        failures = []
        for k, c in enumerate(controls):
            try:
                solve_forward(spec, [c])
            except SolverError as own:
                failures.append((math.inf if own.step is None else own.step, k, own))
        raise (min(failures)[2] if failures else exc) from None
    # every row is the initial state, checked when sampled, or an accepted
    # iterate, whose residual norm passed a comparison that nan and inf fail:
    # the rows are finite without a scan here
    if single:
        state = Trajectory(spec.grid, values[0], "state")
        state.factors = kept
        return state
    return [Trajectory(spec.grid, v, "state") for v in values]


def _linear_march(spec, state, sources, steps):
    """The one linear march around a state y: starting from z = 0, for each
    i in ``steps`` (in order) solve S_i z = (M/dt) z + sources[i], with
    S_i = M/dt + K + M_L diag(f'(y_i)), and store z as row i.  Rows that
    ``steps`` does not visit stay zero.

    Where the state owns ``factors`` (2D), a step uses ``factors[i]`` when
    its diagonal is bitwise that of S_i, which it is unless the state was
    solved under another problem.  A step without one reuses the previous
    step's factorization when its S_i is bitwise the same, as after a
    forward step that needed no Newton iteration and so left the state as
    it was, and factors S_i otherwise, keeping it in ``factors[i]`` if that
    is None.  Without ``factors`` every step factors S_i.

    ``sources`` has shape (n+1, N) for one right-hand side, or (n+1, B, N)
    for B of them marched together: one step solve with B columns per step,
    each column bitwise what it gives alone.  The result has the shape of
    ``sources``, and each right-hand side's trajectory ``out[:, b]`` is
    contiguous."""
    dt, stepper, factors = spec.grid.step, spec.step_operator, state.factors
    factor, solve = stepper.factor, stepper.solve
    diagonals = stepper.shifted(spec.nonlinearity.derivative(state.values))
    n1, nodes = sources.shape[0], sources.shape[-1]
    out = np.moveaxis(np.zeros(sources.shape[1:-1] + (n1, nodes)), -2, 0)
    # z and the next right-hand side, which the solve turns into the next z:
    # the two buffers swap at every step
    z, rhs = np.zeros((2,) + sources.shape[1:])
    this, other = (stepper.mass_product(z, rhs), rhs), (stepper.mass_product(rhs, z), z)
    last = c = None
    for i in steps:
        d = diagonals[i]
        if factors is None:
            c = factor(d)
        elif factors[i] is not None and np.array_equal(d, factors[i][0]):
            last, c = factors[i]
        elif last is None or not np.array_equal(d, last):
            last, c = d, factor(d)
            if factors[i] is None:
                factors[i] = last, c
        product, rhs = this
        product()
        rhs /= dt
        rhs += sources[i]
        out[i] = solve(c, rhs)
        this, other = other, this
    return out


def _march_trajectories(spec, state, sources, steps, kind):
    """``_linear_march`` as trajectories of ``kind``: one for sources of
    shape (n+1, N), a list of B for (n+1, B, N).  Their own finiteness check
    is the one scan of the result; a non-finite value raises SolverError."""
    out = _linear_march(spec, state, sources, steps)
    try:
        if out.ndim == 2:
            return Trajectory(spec.grid, out, kind)
        return [Trajectory(spec.grid, out[:, b], kind) for b in range(out.shape[1])]
    except ValueError:
        # shape and kind are the march's own, so only that check can fail
        raise SolverError("linear solve produced non-finite values") from None


def solve_linearized(spec: ProblemSpec, base_state: Trajectory,
                     rhs: Trajectory | list) -> Trajectory | list:
    """Linearized equation around a forward trajectory, zero initial value,
    with a right-hand side on the control nodes that enters through the
    lumped control weights.  A list of right-hand sides is solved in one
    batched march and gives a list of responses, each bitwise equal to its
    own solve.
    """
    n = spec.grid.n_steps
    if base_state.grid.n_steps != n:
        raise ValueError("base state does not match the time grid")
    single = isinstance(rhs, Trajectory)
    rhs = [rhs] if single else list(rhs)
    if not rhs:
        return []
    values = rhs[0].values if single else np.stack([r.values for r in rhs], axis=1)
    if values.shape[-1] != spec.control_count:
        raise ValueError("control-supported right-hand side has the wrong width")
    sources = spec.operators.scatter_control(values)
    return _march_trajectories(spec, base_state, sources, range(1, n + 1), "generic")


def solve_second_order(spec: ProblemSpec, base_state: Trajectory,
                       z1: Trajectory, z2: Trajectory) -> Trajectory:
    """Second-order sensitivity: forcing -f''(y) z1 z2 through nodal quadrature."""
    prod = -spec.nonlinearity.second_derivative(base_state.values) * z1.values * z2.values
    sources = spec.operators.lumped_mass * prod
    return _march_trajectories(spec, base_state, sources, range(1, spec.grid.n_steps + 1),
                               "generic")


def solve_adjoint_from_residual(spec: ProblemSpec, base_state: Trajectory,
                                residual: np.ndarray, rate: float,
                                masked: bool = False) -> Trajectory:
    """Transpose recursion with source e^{-rate t_i} M residual_i, marched
    backward from i = N to 0.

    With ``masked`` the source is restricted to the observation subdomain
    (nodal indicator on both sides of the mass matrix).
    """
    n = spec.grid.n_steps
    residual = np.asarray(residual, dtype=float)
    if residual.shape != (n + 1, spec.operators.n_nodes):
        raise ValueError("residual samples have the wrong shape")
    mask = spec.observation_mask if masked else None
    mass_matvec = spec.step_operator.mass_matvec
    src = mass_matvec(residual) if mask is None else mask * mass_matvec(mask * residual)
    sources = spec.grid.discount(rate)[:, None] * src
    return _march_trajectories(spec, base_state, sources, range(n, -1, -1), "adjoint")


def solve_adjoint(spec: ProblemSpec, base_state: Trajectory) -> Trajectory:
    """Adjoint of the tracking cost around a forward trajectory."""
    residual = base_state.values - spec.target_samples
    return solve_adjoint_from_residual(spec, base_state, residual,
                                       spec.discounts.state_rate, masked=True)


# ---------------------------------------------------------------------------
# discrete energy-estimate checks

# relative slack of both estimate checks, covering the time-discretization
# error of the exponential weights
ESTIMATE_SLACK = 0.05


@dataclass
class EstimateReport:
    """Outcome of a discrete a-priori estimate check: ``satisfied`` is
    lhs <= (1 + ``ESTIMATE_SLACK``) * rhs."""

    lhs: float
    rhs: float
    satisfied: bool
    rate: float
    detail: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)


def _combined_source_norm(spec, control, rate):
    """Weighted L2 norm of g + u restricted to the control subdomain."""
    ops = spec.operators
    g = spec.source_samples
    u = control.values
    e_g = quad_energies(g, ops.mass)
    cross = spec.control_pairings(g[:, ops.control_index], u)
    e_u = spec.control_pairings(u, u)
    energy = np.maximum(e_g + 2.0 * cross + e_u, 0.0)
    return float(np.sqrt(_discounted_sum(spec.grid, rate, energy[1:])))


def check_energy_estimate(spec: ProblemSpec, control: Trajectory, state: Trajectory,
                          rate: float) -> EstimateReport:
    """Discrete analog of the forward stability estimate, for ``control``
    and its state ``state``, which the caller has solved for.

    lhs combines the discounted sup norm of the state and its weighted
    space-time energy norm; rhs is built from the initial state and the
    weighted source norm.  The estimate is checked up to ``ESTIMATE_SLACK``.
    """
    ms = spec.nonlinearity.min_slope
    if rate <= spec.nonlinearity.rate_floor:
        raise ValueError(f"rate must exceed {spec.nonlinearity.rate_floor:g} for this estimate")
    ops = spec.operators
    ell = spec.operator.ellipticity_bound(spec.mesh)
    coef = min(0.5 * rate + ms, 2.0 * ell)
    if coef <= 0:
        raise ValueError("estimate coefficient is not positive for this rate")
    sup_part = weighted_sup_norm(state, rate, ops.mass)
    energy_part = weighted_l2_norm(state, rate, ops.h1)
    lhs = sup_part + np.sqrt(coef) * energy_part
    y0 = spec.initial_values
    init = float(np.sqrt(max(quad_energies(y0[None, :], ops.mass)[0], 0.0)))
    hnorm = _combined_source_norm(spec, control, rate)
    rhs = 2.0 * init + 2.0 * np.sqrt(2.0) / np.sqrt(rate + 2.0 * ms) * hnorm
    return EstimateReport(
        float(lhs), float(rhs), bool(lhs <= rhs * (1.0 + ESTIMATE_SLACK)), rate,
        detail={"sup_part": sup_part, "energy_part": energy_part,
                "initial_norm": init, "source_norm": hnorm},
    )


def check_linearized_estimate(spec: ProblemSpec, state: Trajectory,
                              rhs_field: np.ndarray, rate: float) -> EstimateReport:
    """Discrete analog of the linearized stability estimate.

    Solves the linearized equation around ``state``, a forward solve the
    caller holds, with a full-domain source and compares its combined norm,
    up to ``ESTIMATE_SLACK``, against 2/min(1, rate/2, ellipticity) times
    the weighted source norm.
    """
    if rate <= spec.nonlinearity.rate_floor:
        raise ValueError(f"rate must exceed {spec.nonlinearity.rate_floor:g} for this estimate")
    ops = spec.operators
    rhs_traj = Trajectory(spec.grid, rhs_field, "generic")
    # the linearized equation with the full-domain source M h
    z = _march_trajectories(spec, state, (ops.mass @ rhs_traj.values.T).T,
                            range(1, spec.grid.n_steps + 1), "generic")
    lhs = weighted_sup_norm(z, rate, ops.mass) + weighted_l2_norm(z, rate, ops.h1)
    ell = spec.operator.ellipticity_bound(spec.mesh)
    stability = 2.0 / min(1.0, 0.5 * rate, ell)
    hnorm = weighted_l2_norm(rhs_traj, rate, ops.mass)
    rhs = stability * hnorm
    return EstimateReport(
        float(lhs), float(rhs), bool(lhs <= rhs * (1.0 + ESTIMATE_SLACK)), rate,
        detail={"stability_constant": stability, "source_norm": hnorm},
    )
