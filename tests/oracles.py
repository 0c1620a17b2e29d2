"""Independent oracles used to freeze expected values in the tests.

Everything here is computed with plain Python floats or dense numpy away
from the library's solve paths: closed-form discounted sums, scalar
implicit-Euler recursions (forward and transposed), a high-accuracy
Runge-Kutta integrator, and a dense saddle-point solve of the
linear-quadratic problem.

The reference marches at the end are the plain loops the library's march
kernels must match bit for bit: one right-hand side per step solve (``gtsv``
in 1D; in 2D band Cholesky on the upper symmetric band, ``pbtrf`` and then
``pbtrs``, so that the forward march can hold a factorization across Newton
iterations and time steps as the library's simplified Newton does), a
residual closure in the Newton step, and the adjoint sources built one time
row at a time.  They read only the step operator's matrices, never its
methods.  The reference growth probe solves its samples one at a time with
the reference march, under the rule of a march of a list of controls.

The reference optimality diagnostics after them are the per-step loops
the library's masked array code replaced: the pointwise first-order
relations and the ball directions of the critical cone, one ``np.dot`` per
pairing.

The a-priori estimate checks at the very end are the discrete analogs of the
paper's stability estimates for the state and linearized equations.  They
check the discretization, so they take the library's norms and its linear
march, and return both sides of an estimate for the caller to compare
within ``ESTIMATE_SLACK``.
"""

import numpy as np
import scipy.linalg as sla


def discounted_power_sum(rate, dt, n_steps, power=2.0, value=1.0):
    """sum_{i=1..N} dt * e^{-rate*t_i} * value^power (right-rectangle rule)."""
    total = 0.0
    for i in range(1, n_steps + 1):
        total += dt * np.exp(-rate * i * dt) * value**power
    return total


def geometric_weight_sum(rate, dt, n_steps):
    """Closed form of sum_{i=1..N} dt*e^{-rate*i*dt} via the geometric series."""
    q = np.exp(-rate * dt)
    return dt * q * (1.0 - q**n_steps) / (1.0 - q)


def scalar_forward_recursion(y0, dt, n_steps, reaction=0.0, forcing=None):
    """Implicit Euler for y' + reaction*y = forcing(t), spatially constant."""
    out = [float(y0)]
    y = float(y0)
    for i in range(1, n_steps + 1):
        g = forcing(i * dt) if forcing is not None else 0.0
        y = (y + dt * g) / (1.0 + dt * reaction)
        out.append(y)
    return np.array(out)


def scalar_newton_recursion(y0, dt, n_steps, f, fp, tol=1e-14):
    """Implicit Euler for y' + f(y) = 0 with a scalar Newton solve per step."""
    out = [float(y0)]
    y = float(y0)
    for _ in range(n_steps):
        z = y
        for _ in range(100):
            r = z - y + dt * f(z)
            if abs(r) <= tol:
                break
            z -= r / (1.0 + dt * fp(z))
        y = z
        out.append(y)
    return np.array(out)


def rk4(y0, t_end, n_steps, rhs):
    """Classical fourth-order Runge-Kutta for y' = rhs(t, y)."""
    h = t_end / n_steps
    y = float(y0)
    t = 0.0
    for _ in range(n_steps):
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + h / 2 * k1)
        k3 = rhs(t + h / 2, y + h / 2 * k2)
        k4 = rhs(t + h, y + h * k3)
        y += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return y


def scalar_adjoint_recursion(dt, n_steps, rate, reaction, residual):
    """Transpose of the scalar implicit-Euler map, started from zero past
    the final node: p_i = (p_{i+1} + dt*e^{-rate*t_i}*residual(t_i)) / (1 + dt*reaction),
    filled for i = N..0."""
    out = np.zeros(n_steps + 1)
    nxt = 0.0
    for i in range(n_steps, -1, -1):
        t = i * dt
        nxt = (nxt + dt * np.exp(-rate * t) * residual(t)) / (1.0 + dt * reaction)
        out[i] = nxt
    return out


def dense_lq_solution(ops, grid, state_rate, control_rate, control_weight,
                      initial, source, target, reaction_shift=0.0,
                      obs_mask=None):
    """Dense saddle-point solve of the linear-quadratic discrete problem.

    Unknowns are the stacked states, adjoints, and controls at t_1..t_N.
    The block equations are the implicit-Euler dynamics, the transposed
    dynamics driven by the discounted tracking residual, and the vanishing
    discounted gradient; everything is assembled densely and solved with
    one LU factorization.  Returns the control array of shape (N+1, n_c)
    with a zero leading row.
    """
    m = np.asarray(ops.mass.todense())
    k = np.asarray(ops.stiffness.todense())
    ml = ops.lumped_mass
    dt = grid.step
    n = grid.n_steps
    nd = m.shape[0]
    widx = ops.control_index
    wts = ops.control_weights
    nc = len(widx)

    s_mat = m / dt + k + np.diag(ml) * reaction_shift
    mobs = m.copy()
    if obs_mask is not None:
        mobs = mobs * obs_mask[None, :] * obs_mask[:, None]

    scatter = np.zeros((nd, nc))
    scatter[widx, np.arange(nc)] = wts

    t = grid.times
    state_w = np.exp(-state_rate * t)
    control_w = np.exp(-control_rate * t)

    dim = n * (2 * nd + nc)

    def ypos(i):
        return (i - 1) * nd

    def ppos(i):
        return n * nd + (i - 1) * nd

    def upos(i):
        return 2 * n * nd + (i - 1) * nc

    a = np.zeros((dim, dim))
    b = np.zeros(dim)
    for i in range(1, n + 1):
        r = ypos(i)
        a[r:r + nd, ypos(i):ypos(i) + nd] = s_mat
        if i > 1:
            a[r:r + nd, ypos(i - 1):ypos(i - 1) + nd] = -m / dt
        a[r:r + nd, upos(i):upos(i) + nc] = -scatter
        b[r:r + nd] = m @ source[i]
        if i == 1:
            b[r:r + nd] += (m @ initial) / dt

        r = ppos(i)
        a[r:r + nd, ppos(i):ppos(i) + nd] = s_mat
        if i < n:
            a[r:r + nd, ppos(i + 1):ppos(i + 1) + nd] = -m / dt
        a[r:r + nd, ypos(i):ypos(i) + nd] = -state_w[i] * mobs
        b[r:r + nd] = -state_w[i] * (mobs @ target[i])

        # vanishing discounted gradient: weight*e^{-rate t}*u + adjoint = 0 on
        # the control nodes, written through the control quadrature weights
        r = upos(i)
        a[r:r + nc, upos(i):upos(i) + nc] = control_weight * control_w[i] * np.diag(wts)
        a[r:r + nc, ppos(i):ppos(i) + nd][np.arange(nc), widx] = wts
    sol = np.linalg.solve(a, b)
    u = np.zeros((n + 1, nc))
    for i in range(1, n + 1):
        u[i] = sol[upos(i):upos(i) + nc]
    return u


# ---------------------------------------------------------------------------
# reference marches, one right-hand side and one LAPACK call at a time


class ReferenceStep:
    """Single right-hand-side products and step solves with the step matrix
    M/dt + K + M_L diag(shift), built from a step operator's upper symmetric
    band storage (entry (i, j), i <= j, at ab[k + i - j, j]) and sparse
    matrices."""

    def __init__(self, stepper):
        self.k, self.ab, self.lumped = stepper.k, stepper.ab, stepper.lumped
        self.base, self.mass = stepper.base, stepper.mass
        self.mass_ab = np.zeros_like(self.ab)
        coo = self.mass.tocoo()
        coo.sum_duplicates()
        up = coo.row <= coo.col
        self.mass_ab[self.k + coo.row[up] - coo.col[up], coo.col[up]] = coo.data[up]

    @staticmethod
    def _tri_matvec(ab, y):
        out = ab[1] * y
        out[:-1] += ab[0, 1:] * y[1:]
        out[1:] += ab[0, 1:] * y[:-1]
        return out

    def mass_matvec(self, y):
        return self._tri_matvec(self.mass_ab, y) if self.k == 1 else self.mass @ y

    def apply_base(self, y):
        return self._tri_matvec(self.ab, y) if self.k == 1 else self.base @ y

    def factor(self, shift):
        """The upper band Cholesky factor of the 2D step matrix."""
        pbtrf = sla.get_lapack_funcs("pbtrf", (self.ab,))
        ab = self.ab.copy(order="F")
        ab[self.k] += self.lumped * shift
        chol, info = pbtrf(ab, lower=0)
        assert info == 0
        return chol

    def solve_factored(self, chol, rhs):
        pbtrs = sla.get_lapack_funcs("pbtrs", (self.ab,))
        x, info = pbtrs(chol, rhs, lower=0)
        assert info == 0
        return x

    def solve(self, shift, rhs):
        if self.k > 1:
            return self.solve_factored(self.factor(shift), rhs)
        gtsv = sla.get_lapack_funcs("gtsv", (self.ab,))
        d = self.ab[1] + self.lumped * shift
        _, _, _, x, info = gtsv(self.ab[0, 1:], d, self.ab[0, 1:], rhs)
        assert info == 0
        return x


def reference_forward(spec, stepper, control, tolerance=1e-12, max_iterations=30,
                      damping=0.5, carry=None):
    """Damped Newton implicit-Euler march with a residual closure per step.

    A step whose first trial fails to reduce a residual norm already within
    eps times the norm of the residual's absolute terms,
    |M/dt + K| |y| + M_L |f(y)| + (M/dt) |y_prev| + |M g + W u|, from plain
    CSR products, keeps its iterate; damping that stalls above that floor
    fails.  In 1D every iteration solves with the step matrix at its iterate.
    In 2D (simplified Newton) the first iteration of a step factors it at
    y_{i-1}, and a later iteration keeps the last factorization when the last
    trial was accepted undamped, the residual norm fell by a ratio q <= 0.25,
    and rn * q^(iterations left) <= tolerance; otherwise it factors at the
    iterate.  A rejected trial on a kept factorization refactors at the
    iterate and is repeated undamped.  With a ratio ``carry`` (the rule of a
    2D march that keeps no factorizations, as of a list of controls) the
    first iteration of a step keeps the last factorization when the last
    accepted iteration, in this step or an earlier one, was undamped and
    its residual norm fell by a ratio of at most ``carry``.  Returns the
    state values and the number of damped trial steps taken."""
    step = ReferenceStep(stepper)
    ops = spec.operators
    f = spec.nonlinearity
    dt = spec.grid.step
    ml = ops.lumped_mass
    forcing = (ops.mass @ spec.source_samples.T).T.copy()
    forcing[:, ops.control_index] += control.values * ops.control_weights
    n = spec.grid.n_steps
    out = np.empty((n + 1, ops.n_nodes))
    out[0] = spec.initial_values
    y = out[0].copy()
    damped = 0
    chol, carried = None, False
    for i in range(1, n + 1):
        b = step.mass_matvec(y) / dt + forcing[i]

        def residual(v):
            return step.apply_base(v) + ml * f.value(v) - b

        def norm(r):
            return float(np.sqrt(np.sum(r * r / ml)))

        r = residual(y)
        rn = norm(r)
        stalled = False
        rn_old = None
        for it in range(max_iterations):
            if rn <= tolerance:
                break
            kept = False
            if step.k > 1:
                if it:
                    q = rn / rn_old
                    kept = (alpha == 1.0 and q <= 0.25
                            and rn * q ** (max_iterations - it) <= tolerance)
                else:
                    kept = carried
                if not kept:
                    chol = step.factor(f.derivative(y))
                delta = step.solve_factored(chol, -r)
            else:
                delta = step.solve(f.derivative(y), -r)
            alpha = 1.0
            while True:
                y_try = y + alpha * delta
                r_try = residual(y_try)
                rn_try = norm(r_try)
                if np.isfinite(rn_try) and (rn_try < rn or rn_try <= tolerance):
                    break
                if kept:
                    kept = False
                    chol = step.factor(f.derivative(y))
                    delta = step.solve_factored(chol, -r)
                    continue
                stalled = alpha == 1.0 and rn <= np.finfo(float).eps * norm(
                    abs(step.base) @ abs(y) + ml * abs(f.value(y))
                    + step.mass @ abs(out[i - 1]) / dt + abs(forcing[i]))
                if stalled:
                    break
                alpha *= damping
                damped += 1
                assert alpha >= 1e-10, "damping stalled above the rounding floor"
            if stalled:
                break
            carried = carry is not None and alpha == 1.0 and rn_try / rn <= carry
            rn_old = rn
            y, r, rn = y_try, r_try, rn_try
        assert rn <= tolerance or stalled
        out[i] = y
    return out, damped


def reference_adjoint(spec, stepper, base_state, residual, rate, masked):
    """Backward march from i = N to 0 with the sources
    e^{-rate t_i} [mask] M ([mask] residual_i) built one row at a time."""
    step = ReferenceStep(stepper)
    mask = spec.observation_mask if masked else None
    t = spec.grid.times
    sources = np.empty_like(residual)
    for i, r in enumerate(residual):
        src = step.mass_matvec(r) if mask is None else mask * step.mass_matvec(mask * r)
        sources[i] = np.exp(-rate * t[i]) * src
    coeffs = spec.nonlinearity.derivative(base_state.values)
    dt = spec.grid.step
    out = np.zeros(sources.shape)
    z = np.zeros(out.shape[1])
    for i in range(spec.grid.n_steps, -1, -1):
        z = step.solve(coeffs[i], step.mass_matvec(z) / dt + sources[i])
        out[i] = z
    return out


def reference_growth(spec, stepper, u_star, radius, samples, seed=0, carry=None):
    """The sampled quadratic-growth probe as a per-sample loop: draw,
    project, solve with ``reference_forward`` and take the margin, one
    candidate at a time, each candidate with the ratio ``carry`` and u*
    without.  Returns (kappa, margins, distances)."""
    from horizonopt.admissible import project_values
    from horizonopt.objective import cost_from_state
    from horizonopt.spaces import Trajectory, weighted_l2_norm

    def cost(control, carry=None):
        values, _ = reference_forward(spec, stepper, control, spec.newton.tolerance,
                                      spec.newton.max_iterations, carry=carry)
        return cost_from_state(spec, control, Trajectory(spec.grid, values, "state")).total

    weights = spec.operators.control_weights
    rate_c = spec.discounts.control_rate
    rng = np.random.default_rng(seed)
    j_star = cost(u_star)
    margins, distances = [], []
    for _ in range(samples):
        delta = rng.standard_normal(u_star.values.shape)
        delta[0] = 0.0
        nrm = weighted_l2_norm(Trajectory(spec.grid, delta, "control"), rate_c, weights)
        if nrm == 0.0:
            continue
        scale = radius * rng.uniform(0.2, 1.0) / nrm
        cand = project_values(spec.admissible, u_star.values + scale * delta, weights)
        dist = weighted_l2_norm(Trajectory(spec.grid, cand - u_star.values, "control"),
                                rate_c, weights)
        if dist <= 1e-14:
            continue
        margins.append(2.0 * (cost(Trajectory(spec.grid, cand, "control"), carry) - j_star)
                       / dist**2)
        distances.append(dist)
    return min(margins), margins, distances


# ---------------------------------------------------------------------------
# reference optimality diagnostics, one time step at a time


def reference_projection_formulas(spec, u, adjoint):
    """(t_i, case, residual) of the pointwise first-order relations at every
    step i >= 1, as ``check_projection_formulas`` records them."""
    ops = spec.operators
    nu = spec.control_weight
    rate_c = spec.discounts.control_rate
    t = spec.grid.times
    w = ops.control_weights
    phi = adjoint.values[:, ops.control_index]
    adm = spec.admissible
    out = []
    for i in range(1, spec.grid.n_steps + 1):
        ui = u.values[i]
        if adm.kind == "box":
            target = np.clip(-np.exp(rate_c * t[i]) / nu * phi[i], adm.lower, adm.upper)
            res = float(np.max(np.abs(ui - target))) if target.size else 0.0
            out.append((float(t[i]), "box", res))
            continue
        unorm = np.sqrt(float(np.dot(ui * w, ui)))
        density = phi[i] + nu * np.exp(-rate_c * t[i]) * ui
        if unorm < adm.radius - adm.active_tol:
            res, case = np.sqrt(float(np.dot(density * w, density))), "interior"
        else:
            pnorm = np.sqrt(float(np.dot(phi[i] * w, phi[i])))
            if pnorm <= 1e-300:
                res = np.sqrt(float(np.dot(density * w, density)))
                case = "active-degenerate"
            else:
                gap = ui + adm.radius * phi[i] / pnorm
                res, case = np.sqrt(float(np.dot(gap * w, gap))), "active"
        out.append((float(t[i]), case, float(res)))
    return out


def reference_ball_directions(spec, u, multiplier, count, seed):
    """The ball directions of ``sample_critical_directions`` as value arrays:
    each seeded draw has its radial component removed at strictly active
    steps (activity 2), and at degenerate active steps (activity 1) where it
    points outward, and is kept if it passes the cone's conditions."""
    rng = np.random.default_rng(seed)
    w = spec.operators.control_weights
    n = spec.grid.n_steps
    out = []
    for _ in range(count):
        v = rng.standard_normal((n + 1, spec.control_count))
        v[0] = 0.0
        for i in range(1, n + 1):
            code = multiplier.activity[i]
            if code == 0:
                continue
            uu = float(np.dot(u.values[i] * w, u.values[i]))
            if uu <= 1e-300:
                continue
            uv = float(np.dot(u.values[i] * w, v[i]))
            if code == 2 or uv > 0.0:
                v[i] -= (uv / uu) * u.values[i]
        if reference_ball_cone_member(u, v, multiplier, w):
            out.append(v)
    return out


def reference_ball_cone_member(u, v, multiplier, w):
    """Whether direction values v are nonzero, orthogonal to u at strictly
    active steps and nowhere outward at degenerate active ones, to 1e-12
    relative."""
    if not np.any(v):
        return False
    for i in np.flatnonzero(multiplier.activity > 0):
        uv = float(np.dot(u.values[i] * w, v[i]))
        scale = np.sqrt(float(np.dot(u.values[i] * w, u.values[i]))
                        * float(np.dot(v[i] * w, v[i]))) + 1e-300
        if multiplier.activity[i] == 2:
            if abs(uv) > 1e-12 * scale:
                return False
        elif uv > 1e-12 * scale:
            return False
    return True


# ---------------------------------------------------------------------------
# discrete a-priori estimates, both sides of each

# relative slack of both estimates, covering the time-discretization error of
# the exponential weights
ESTIMATE_SLACK = 0.05


def energy_estimate(spec, control, state, rate):
    """(lhs, rhs) of the discrete forward stability estimate for ``control``
    and its state ``state``: lhs combines the discounted sup norm of the
    state and its weighted space-time energy norm; rhs is built from the
    initial state and the weighted L2 norm of g + u on the control
    subdomain."""
    from horizonopt.spaces import (_discounted_sum, quad_energies, weighted_l2_norm,
                                   weighted_sup_norm)
    ms = spec.nonlinearity.min_slope
    assert rate > spec.nonlinearity.rate_floor
    ops = spec.operators
    ell = spec.operator.ellipticity_bound(spec.mesh)
    coef = min(0.5 * rate + ms, 2.0 * ell)
    assert coef > 0
    sup_part = weighted_sup_norm(state, rate, ops.mass)
    energy_part = weighted_l2_norm(state, rate, ops.h1)
    lhs = sup_part + np.sqrt(coef) * energy_part
    y0 = spec.initial_values
    init = float(np.sqrt(max(quad_energies(y0[None, :], ops.mass)[0], 0.0)))
    g = spec.source_samples
    u = control.values
    e_g = quad_energies(g, ops.mass)
    cross = spec.control_pairings(g[:, ops.control_index], u)
    e_u = spec.control_pairings(u, u)
    energy = np.maximum(e_g + 2.0 * cross + e_u, 0.0)
    hnorm = float(np.sqrt(_discounted_sum(spec.grid, rate, energy[1:])))
    rhs = 2.0 * init + 2.0 * np.sqrt(2.0) / np.sqrt(rate + 2.0 * ms) * hnorm
    return float(lhs), float(rhs)


def linearized_estimate(spec, state, rhs_field, rate):
    """(lhs, rhs) of the discrete linearized stability estimate: the
    combined norm of the linearized response around ``state`` to the
    full-domain source M ``rhs_field``, and 2/min(1, rate/2, ellipticity)
    times the weighted source norm."""
    from horizonopt.solvers import _march_trajectories
    from horizonopt.spaces import Trajectory, weighted_l2_norm, weighted_sup_norm
    assert rate > spec.nonlinearity.rate_floor
    ops = spec.operators
    rhs_traj = Trajectory(spec.grid, rhs_field, "generic")
    z = _march_trajectories(spec, state, (ops.mass @ rhs_traj.values.T).T,
                            range(1, spec.grid.n_steps + 1), "generic")
    lhs = weighted_sup_norm(z, rate, ops.mass) + weighted_l2_norm(z, rate, ops.h1)
    ell = spec.operator.ellipticity_bound(spec.mesh)
    stability = 2.0 / min(1.0, 0.5 * rate, ell)
    rhs = stability * weighted_l2_norm(rhs_traj, rate, ops.mass)
    return float(lhs), float(rhs)
