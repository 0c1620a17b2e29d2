"""Problem data model: elliptic operator, nonlinearity, discount rates,
operator assembly, the step operator through which every march factors and
solves, and validation of the standing structural assumptions.

The spatial discretization is continuous piecewise-linear finite elements
with natural (no-flux) boundary conditions.  The reaction term and the
nonlinear term use lumped-mass (nodal) quadrature; the control forcing and
the control inner product use the lumped mass restricted to the control
subdomain, so that nodal projections are exact metric projections and the
adjoint-based gradient is an exact transpose.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sps
from scipy.sparse._sparsetools import csr_matvec, csr_matvecs

from .admissible import AdmissibleSet, project_values
from .mesh import MeshError, SpatialMesh
from .spaces import TimeGrid, Trajectory, _discounted_sum, _pairings


class AssumptionError(ValueError):
    """Raised when assembled data violates a structural assumption."""


class SolverError(RuntimeError):
    """Newton or linear-step failure; carries the step index and residual history."""

    def __init__(self, message, step=None, history=None):
        super().__init__(message)
        self.step = step
        self.history = list(history) if history is not None else []


# ---------------------------------------------------------------------------
# data types


@dataclass(frozen=True, eq=False)
class EllipticForm:
    """Scalar diffusion per element, nonnegative reaction per node.

    The ellipticity constant is the smallest element diffusion, which
    assembly and validation require to be positive.
    """

    diffusion: np.ndarray | float = 1.0
    reaction: np.ndarray | float = 0.0

    def diffusion_values(self, mesh: SpatialMesh) -> np.ndarray:
        a = np.broadcast_to(np.asarray(self.diffusion, dtype=float), (mesh.n_elements,))
        return np.array(a, dtype=float)

    def reaction_values(self, mesh: SpatialMesh) -> np.ndarray:
        r = np.broadcast_to(np.asarray(self.reaction, dtype=float), (mesh.n_nodes,))
        return np.array(r, dtype=float)

    def ellipticity_bound(self, mesh: SpatialMesh) -> float:
        return float(self.diffusion_values(mesh).min())


@dataclass(frozen=True)
class Nonlinearity:
    """Scalar C^2 reaction nonlinearity applied nodally.

    ``min_slope`` <= 0 bounds the first derivative from below, and the first
    two derivatives satisfy the growth bound
    |f^(j)(s)| <= bound_scale * (|s|^growth_exponent + 1) * (bound_feedback*|f(s)| + 1).
    """

    name: str
    value: callable
    derivative: callable
    second_derivative: callable
    min_slope: float = 0.0
    growth_exponent: float = 0.0
    bound_scale: float = 1.0
    bound_feedback: float = 0.0

    @property
    def rate_floor(self) -> float:
        """-2*min_slope, the floor of the auxiliary rate and, times
        growth_exponent + 3, of the state discount; as 0.0 - 2*min_slope it
        is +0.0, printed 0, when min_slope is 0."""
        return 0.0 - 2.0 * self.min_slope


def builtin_nonlinearities() -> dict:
    """Catalog of ready-made nonlinearities keyed by name; each acts on a
    float array or a float."""
    return {
        "zero": Nonlinearity(
            "zero", np.zeros_like, np.zeros_like, np.zeros_like,
            min_slope=0.0, growth_exponent=0.0, bound_scale=1.0, bound_feedback=0.0,
        ),
        "cubic": Nonlinearity(
            "cubic",
            lambda s: s ** 3,
            lambda s: 3.0 * s ** 2,
            lambda s: 6.0 * s,
            min_slope=0.0, growth_exponent=2.0, bound_scale=3.0, bound_feedback=0.0,
        ),
        "cubic_minus_linear": Nonlinearity(
            "cubic_minus_linear",
            lambda s: s ** 3 - s,
            lambda s: 3.0 * s ** 2 - 1.0,
            lambda s: 6.0 * s,
            min_slope=-1.0, growth_exponent=2.0, bound_scale=3.0, bound_feedback=0.0,
        ),
        "exponential": Nonlinearity(
            "exponential", np.expm1, np.exp, np.exp,
            min_slope=0.0, growth_exponent=0.0, bound_scale=1.0, bound_feedback=1.0,
        ),
    }


def linear_nonlinearity(coefficient: float) -> Nonlinearity:
    """f(s) = c*s with c >= 0 (monotone, zero at the origin)."""
    if coefficient < 0:
        raise ValueError("linear coefficient must be nonnegative")
    c = float(coefficient)
    return Nonlinearity(
        f"linear({c:g})",
        lambda s: c * s,
        lambda s: np.full_like(s, c),
        np.zeros_like,
        min_slope=0.0, growth_exponent=0.0, bound_scale=max(1.0, c), bound_feedback=0.0,
    )


def default_aux_rate(state_rate: float, growth_exponent: float, min_slope: float) -> float:
    """Midpoint of the admissible open interval for the auxiliary rate."""
    lo = -2.0 * min_slope
    hi = state_rate / (growth_exponent + 3.0)
    return 0.5 * (lo + hi)


def default_integrability_exponent(dimension: int) -> float:
    if dimension == 1:
        return 2.0
    return min(6.0, 4.0 / (4.0 - dimension) + 1.0)


@dataclass(frozen=True)
class Discounts:
    """Exponential discount rates and analysis exponents.

    state_rate and control_rate are the discount rates of the tracking and
    control cost terms; aux_rate is the auxiliary weight rate used in the
    intermediate estimates; integrability_exponent parametrizes the
    time-integrability of the data.  ``enforce_second_order`` additionally
    requires the margin needed by the sufficient second-order theory.
    """

    state_rate: float
    control_rate: float
    aux_rate: float
    integrability_exponent: float = 2.0
    enforce_second_order: bool = False


@dataclass(frozen=True)
class NewtonConfig:
    """Newton controls for the implicit step equations; a step that does not
    reduce the residual is halved until it does."""

    tolerance: float = 1e-12
    max_iterations: int = 30

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(eq=False)
class ProblemSpec:
    """Complete description of one discounted tracking problem.

    ``source``/``target`` may be given as (n_steps+1, n_nodes) arrays or as
    closed-form field descriptors with a ``sample(mesh, times)`` method;
    ``initial_state`` as an (n_nodes,) array or a descriptor sampled at t=0.
    ``newton`` governs every forward solve of the problem, so that all the
    solves behind one cost, gradient or optimum use the same settings.
    """

    mesh: SpatialMesh
    operator: EllipticForm
    nonlinearity: Nonlinearity
    discounts: Discounts
    grid: TimeGrid
    initial_state: object
    source: object
    target: object
    control_weight: float
    admissible: AdmissibleSet
    newton: NewtonConfig = field(default_factory=NewtonConfig)
    # built on first use; ``with_horizon`` hands them on, ``replace`` does not
    _operators: Operators | None = field(default=None, init=False, repr=False)
    _step_operator: _StepSolver | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if not np.isfinite(self.control_weight) or self.control_weight <= 0:
            raise ValueError("control_weight must be positive and finite")

    # -- assembled operators ------------------------------------------------

    @property
    def operators(self) -> "Operators":
        if self._operators is None:
            self._operators = assemble_operators(self.mesh, self.operator)
        return self._operators

    @property
    def step_operator(self) -> "_StepSolver":
        """M/dt + K, through which every march factors and solves."""
        if self._step_operator is None:
            ops = self.operators
            self._step_operator = _StepSolver(ops.mass * (1.0 / self.grid.step) + ops.stiffness,
                                              ops.mass, ops.lumped_mass)
        return self._step_operator

    @property
    def observation_mask(self) -> np.ndarray | None:
        return self.mesh.observation_mask

    # -- sampled data -------------------------------------------------------

    def _sample_field(self, obj, label: str, times: np.ndarray) -> np.ndarray:
        shape = (len(times), self.mesh.n_nodes)
        if hasattr(obj, "sample"):
            vals = obj.sample(self.mesh, times)
        else:
            vals = np.asarray(obj, dtype=float)
            if vals.ndim == 0:
                vals = np.full(shape, float(vals))
            elif vals.ndim == 1:
                vals = np.broadcast_to(vals, shape).copy()
        if vals.shape != shape:
            raise ValueError(f"{label} samples have shape {vals.shape}, expected {shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"{label} contains non-finite values")
        return vals

    @cached_property
    def source_samples(self) -> np.ndarray:
        return self._sample_field(self.source, "source", self.grid.times)

    @cached_property
    def target_samples(self) -> np.ndarray:
        return self._sample_field(self.target, "target", self.grid.times)

    @cached_property
    def initial_values(self) -> np.ndarray:
        return self._sample_field(self.initial_state, "initial state", np.array([0.0]))[0]

    # -- helpers ------------------------------------------------------------

    @property
    def control_count(self) -> int:
        return int(self.mesh.control_mask.sum())

    def project(self, values: np.ndarray) -> np.ndarray:
        """Per-time-step projection of control values onto the admissible set."""
        return project_values(self.admissible, values, self.operators.control_weights)

    def control_pairings(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per-step pairings <a_i, b_i> of control values in L2(omega), with
        the lumped control weights."""
        return _pairings(a, b, self.operators.control_weights)

    def control_norm(self, values: np.ndarray) -> float:
        """Norm of control values on the grid in the control-discounted
        L2(omega) metric.  The weights are positive, so no pairing of values
        with themselves is negative, and this is bitwise ``weighted_l2_norm``."""
        return float(np.sqrt(self.control_inner(values, values)))

    def control_inner(self, a: np.ndarray, b: np.ndarray) -> float:
        """Inner product of control values on the grid in the metric of
        ``control_norm``, bitwise ``weighted_inner``."""
        return _discounted_sum(self.grid, self.discounts.control_rate,
                               self.control_pairings(a[1:], b[1:]))

    def zero_control(self) -> Trajectory:
        return Trajectory(self.grid, np.zeros((self.grid.n_steps + 1, self.control_count)),
                          "control")

    def with_horizon(self, horizon: float) -> "ProblemSpec":
        """Same problem truncated/extended to a different final time, with
        the same operators and step operator."""
        spec = replace(self, grid=TimeGrid(horizon, self.grid.step))
        spec._operators, spec._step_operator = self.operators, self.step_operator
        return spec


# ---------------------------------------------------------------------------
# assembly


@dataclass(eq=False)
class Operators:
    """Assembled spatial operators shared by all solves on one mesh."""

    mass: sps.csr_matrix
    stiffness: sps.csr_matrix
    lumped_mass: np.ndarray
    control_index: np.ndarray
    control_weights: np.ndarray

    @property
    def h1(self) -> sps.csr_matrix:
        return (self.mass + self.stiffness).tocsr()

    @property
    def n_nodes(self) -> int:
        return self.mass.shape[0]

    def scatter_control(self, values: np.ndarray) -> np.ndarray:
        """Weighted control functional on all nodes: rows of M_control * u."""
        out = np.zeros(values.shape[:-1] + (self.n_nodes,))
        out[..., self.control_index] = values * self.control_weights
        return out


def _element_matrices_1d(mesh, a, vols):
    ka = a / vols
    k_local = np.array([[1.0, -1.0], [-1.0, 1.0]])
    m_local = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    k_data = ka[:, None, None] * k_local
    m_data = vols[:, None, None] * m_local
    return k_data, m_data


def _element_matrices_2d(mesh, a, vols):
    p0 = mesh.coords[mesh.elements[:, 0]]
    p3 = mesh.coords[mesh.elements[:, 3]]
    hx = p3[:, 0] - p0[:, 0]
    hy = p3[:, 1] - p0[:, 1]
    kx = np.array([[1.0, -1.0], [-1.0, 1.0]])
    m1 = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    eye_half = np.eye(2) / 2.0
    # lumped cross-direction mass gives the classical 5-point stencil
    k_data = (a * hy / hx)[:, None, None] * np.kron(eye_half, kx)[None] \
        + (a * hx / hy)[:, None, None] * np.kron(kx, eye_half)[None]
    m_data = (hx * hy)[:, None, None] * np.kron(m1, m1)[None]
    return k_data, m_data


def _accumulate(n, elements, data):
    nodes_per_el = elements.shape[1]
    rows = np.repeat(elements, nodes_per_el, axis=1).ravel()
    cols = np.tile(elements, (1, nodes_per_el)).ravel()
    mat = sps.coo_matrix((data.reshape(-1), (rows, cols)), shape=(n, n))
    return mat.tocsr()


def band_storage(mat):
    """Half-bandwidth k of a symmetric sparse matrix, read from its sparsity
    pattern, and its upper triangle in the symmetric band storage of LAPACK
    ``pbtrf`` with uplo = 'U': entry (i, j), i <= j, sits at ab[k + i - j, j],
    so the last row, k, is the diagonal.  A Cholesky factorization reads
    only this triangle, so a matrix that is not exactly symmetric raises
    ValueError."""
    if (mat != mat.T).nnz:
        raise ValueError("band storage needs an exactly symmetric matrix")
    coo = sps.triu(mat).tocoo()
    coo.sum_duplicates()
    k = int((coo.col - coo.row).max())
    ab = np.zeros((k + 1, mat.shape[0]), order="F")
    ab[k + coo.row - coo.col, coo.col] = coo.data
    return k, ab


def _tridiagonals(ab):
    """(lower, diagonal, upper) of a k = 1 symmetric band storage."""
    off = ab[0, 1:].copy()
    return off, ab[1].copy(), off


# bound once, like the ufuncs of the products: on the few dozen entries of a
# 1D step, looking them up is a sizeable share of each call
_sum = np.add.reduce


def _tri_product(bands, y, out):
    """A function of no arguments that writes T y into ``out`` and returns
    it, for the symmetric tridiagonal T with the (lower, diagonal, upper)
    ``bands`` along the last axis, through views of y and out made once."""
    lo, di, up = bands
    y_next, y_prev, out_up, out_lo = y[..., 1:], y[..., :-1], out[..., :-1], out[..., 1:]
    term, multiply, add = np.empty(y_next.shape), np.multiply, np.add

    def product():
        multiply(di, y, out)
        add(out_up, multiply(up, y_next, term), out_up)
        add(out_lo, multiply(lo, y_prev, term), out_lo)
        return out
    return product


def _sparse_product(matrix, y, out):
    """Like ``_tri_product``, for a CSR matrix, through the kernel that
    scipy's sparse matrix product calls on a zeroed result, and so with its
    bits: ``csr_matvec`` for (N,) rows, and for (B, N) rows ``csr_matvecs``,
    which reads and writes them as the columns of (N, B) arrays made once
    here."""
    n, csr = matrix.shape[0], (matrix.indptr, matrix.indices, matrix.data)
    if y.ndim == 1:
        def product():
            out.fill(0.0)
            csr_matvec(n, n, *csr, y, out)
            return out
        return product
    count, columns, result = len(y), np.empty(y.shape[::-1]), np.empty(out.shape[::-1])

    def product():
        columns[...] = y.T
        result.fill(0.0)
        csr_matvecs(n, n, count, *csr, columns, result)
        out[...] = result.T
        return out
    return product


class _StepSolver:
    """Factorizations and solves of the step matrix M/dt + K + M_L diag(shift).

    A problem builds one, ``ProblemSpec.step_operator``, on first use, and
    every march of the problem factors and solves through it.  M/dt + K is
    converted into the upper symmetric band storage of ``band_storage``;
    its half-bandwidth k is 1 on an interval and nx + 2 on an nx x ny
    rectangle with the mesh's x-fastest node numbering.  ``factor`` takes a
    diagonal, such as ``shifted(shift)``, and ``solve`` takes only what
    ``factor`` returned: in 2D the upper band Cholesky factor U of
    ``pbtrf``, S = U^T U, which ``solve`` applies with ``pbtrs``; in 1D the
    diagonal itself, since ``gtsv`` factors as it solves, overwriting it.
    The upper form is LAPACK's faster one to solve with and its slower one
    to factor, and a run solves several times for each factorization.

    The kernels act on arrays their caller owns, with the nodes on the last
    axis, so that a (B, N) array is B systems whose rows the (N,)
    coefficients broadcast over: ``solve`` overwrites its right-hand side,
    and ``base_product`` and ``mass_product`` bind the products with
    M/dt + K and M to an input and an output array, from the bands in 1D
    and by scipy's CSR kernels in 2D.  No kernel writes into the operator's
    own arrays.
    """

    __slots__ = ("lumped", "base", "mass", "k", "ab", "diagonal", "bands", "mass_bands",
                 "_gtsv", "_pbtrf", "_pbtrs")

    def __init__(self, base, mass, lumped):
        self.k, self.ab = band_storage(base)
        self.base, self.mass, self.lumped, self.diagonal = base, mass, lumped, self.ab[-1].copy()
        if self.k == 1:
            self.bands = _tridiagonals(self.ab)
            self.mass_bands = _tridiagonals(band_storage(self.mass)[1])
            self._gtsv = sla.get_lapack_funcs(("gtsv",), (self.ab,))[0]
        else:
            self._pbtrf, self._pbtrs = sla.get_lapack_funcs(("pbtrf", "pbtrs"), (self.ab,))

    def base_product(self, y: np.ndarray, out: np.ndarray):
        """A function of no arguments that writes (M/dt + K) y into ``out``."""
        if self.k == 1:
            return _tri_product(self.bands, y, out)
        return _sparse_product(self.base, y, out)

    def mass_product(self, y: np.ndarray, out: np.ndarray):
        """A function of no arguments that writes M y into ``out``."""
        if self.k == 1:
            return _tri_product(self.mass_bands, y, out)
        return _sparse_product(self.mass, y, out)

    def mass_matvec(self, y: np.ndarray) -> np.ndarray:
        """M y into a new array."""
        return self.mass_product(y, np.empty_like(y))()

    def shifted(self, shift: np.ndarray) -> np.ndarray:
        """Diagonal of M/dt + K + M_L diag(shift), for any leading shape."""
        return self.diagonal + self.lumped * shift

    def norms(self, r: np.ndarray, work: np.ndarray) -> list:
        """Lumped-mass-weighted dual norm of each row of r, comparable to an
        L2 function norm; ``work`` is scratch of r's shape."""
        np.multiply(r, r, out=work)
        work /= self.lumped
        if r.ndim == 1:
            return [math.sqrt(_sum(work))]
        return list(map(math.sqrt, _sum(work, 1).tolist()))

    def factor(self, d: np.ndarray):
        """The factorization of the step matrix with diagonal d: in 2D its
        upper band Cholesky factor, in 1D d itself."""
        if self.k == 1:
            return d
        ab = self.ab.copy(order="F")
        ab[-1] = d
        c, info = self._pbtrf(ab, lower=0, overwrite_ab=True)
        if info != 0:
            raise SolverError(f"step matrix not positive definite (pbtrf info {info})")
        return c

    def solve(self, c, rhs: np.ndarray) -> np.ndarray:
        """Solve in place with the factorization ``c`` of ``factor``: a
        C-contiguous ``rhs`` becomes the solution, and in 1D c is overwritten.
        In 1D a (B, N) c joins B systems into one of B * N unknowns with zero
        couplings, which never make ``gtsv`` swap rows between them."""
        # LAPACK solves for the columns of rhs.T, one per right-hand side;
        # the positional flags copy the bands and overwrite c and rhs
        if self.k == 1:
            (lo, _, up), b = self.bands, rhs.T
            if c.ndim > 1:
                lo = up = np.tile(np.append(lo, 0.0), len(c))[:-1]
                c, b = c.reshape(-1), rhs.reshape(-1)
            info = self._gtsv(lo, c, up, b, 0, 1, 0, 1)[4]
            if info != 0:
                raise SolverError(f"singular step matrix (gtsv info {info})")
            return rhs
        # pbtrs reports only illegal arguments, which these calls cannot pass
        rhs[...] = self._pbtrs(c, rhs.T, lower=0, overwrite_b=1)[0].T
        return rhs


def assemble_operators(mesh: SpatialMesh, form: EllipticForm) -> Operators:
    """Assemble stiffness, consistent and lumped mass, and control weights.

    The stiffness matrix carries natural boundary conditions (constants lie
    in its kernel when the reaction vanishes) and includes the reaction term
    through nodal quadrature.  Control weights are the lumped mass over the
    elements of the control subdomain, restricted to its nodes.
    """
    vols = mesh.element_volumes()
    if vols.min() <= 0:
        raise MeshError("non-positive element volume")
    a = form.diffusion_values(mesh)
    if a.min() <= 0:
        raise AssumptionError("ellipticity bound must be positive")
    if mesh.dimension == 2 and np.ptp(a) > 1e-12 * max(1.0, abs(a[0])):
        raise AssumptionError("2D assembly supports a spatially constant diffusion coefficient")

    if mesh.dimension == 1:
        k_data, m_data = _element_matrices_1d(mesh, a, vols)
    else:
        k_data, m_data = _element_matrices_2d(mesh, a, vols)

    n = mesh.n_nodes
    stiffness = _accumulate(n, mesh.elements, k_data)
    mass = _accumulate(n, mesh.elements, m_data)
    lumped = np.asarray(mass.sum(axis=1)).ravel()

    reaction = form.reaction_values(mesh)
    if reaction.any():
        stiffness = (stiffness + sps.diags(lumped * reaction)).tocsr()

    cmask = mesh.control_elements()
    share = vols / mesh.elements.shape[1]
    cw_full = np.zeros(n)
    np.add.at(cw_full, mesh.elements[cmask].ravel(),
              np.repeat(share[cmask], mesh.elements.shape[1]))
    control_index = mesh.control_index
    control_weights = cw_full[control_index]

    stiffness.sum_duplicates()
    mass.sum_duplicates()
    return Operators(mass, stiffness, lumped, control_index, control_weights)


# ---------------------------------------------------------------------------
# assumption validation


@dataclass
class CheckItem:
    key: str
    requirement: str
    passed: bool
    detail: str

    def __str__(self):
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} {self.key}: {self.requirement} [{self.detail}]"


@dataclass
class ValidationReport:
    items: list
    sample_range: tuple
    sample_count: int

    @property
    def passed(self) -> bool:
        return all(it.passed for it in self.items)

    def failures(self) -> list:
        return [it for it in self.items if not it.passed]

    def to_dict(self):
        return {**asdict(self), "passed": self.passed}


# Rounding lets the Cholesky factorization of an exactly singular step matrix
# succeed with tiny pivots, so a smallest squared pivot below this fraction of
# the largest diagonal entry also counts as singular.
STEP_PIVOT_FLOOR = 1e-10


def _discrete_step_item(spec: ProblemSpec) -> CheckItem:
    """Every implicit step equation has a unique solution when the step map
    y -> (M/dt + K) y + M_L f(y) is strongly monotone, that is when
    M/dt + K + min_slope*M_L is positive definite: one band Cholesky."""
    key = "discrete_step_monotone"
    requirement = "M/dt + K + min_slope*M_L positive definite"
    try:
        step = spec.step_operator
    except AssumptionError as exc:
        return CheckItem(key, requirement, False, f"assembly failed: {exc}")
    ab = step.ab.copy()
    ab[-1] = step.shifted(spec.nonlinearity.min_slope)
    try:
        factor = sla.cholesky_banded(ab, lower=False, check_finite=False)
    except np.linalg.LinAlgError as exc:
        return CheckItem(key, requirement, False, str(exc))
    ratio = float((factor[-1] ** 2).min() / ab[-1].max())
    return CheckItem(key, requirement, ratio >= STEP_PIVOT_FLOOR,
                     f"smallest squared pivot / largest diagonal = {ratio:.3g}, "
                     f"required >= {STEP_PIVOT_FLOOR:g}")


SAMPLE_RANGE = (-50.0, 50.0)
SAMPLE_COUNT = 10000


def validate_assumptions(spec: ProblemSpec) -> ValidationReport:
    """Check every standing inequality on the problem data.

    Derivative bounds are stated for all real arguments, which is not
    numerically verifiable; they are sampled at ``SAMPLE_COUNT`` evenly
    spaced points of ``SAMPLE_RANGE``, which the report records.  Failures
    are reported, never raised.
    """
    f = spec.nonlinearity
    d = spec.discounts
    items = []
    s = np.linspace(SAMPLE_RANGE[0], SAMPLE_RANGE[1], SAMPLE_COUNT)

    v0 = float(np.asarray(f.value(np.array([0.0])))[0])
    items.append(CheckItem(
        "nonlinearity_zero_at_origin", "f(0) = 0", abs(v0) <= 1e-12, f"f(0) = {v0:.3e}"))

    fp = np.asarray(f.derivative(s), dtype=float)
    slope_min = float(fp.min())
    tol = 1e-9 * max(1.0, abs(f.min_slope))
    items.append(CheckItem(
        "nonlinearity_slope_bound", "f'(s) >= min_slope for all s",
        slope_min >= f.min_slope - tol,
        f"min sampled f' = {slope_min:.6g}, declared min_slope = {f.min_slope:.6g}"))

    fv = np.abs(np.asarray(f.value(s), dtype=float))
    envelope = f.bound_scale * (np.abs(s) ** f.growth_exponent + 1.0) \
        * (f.bound_feedback * fv + 1.0)
    ok_growth = True
    worst = 0.0
    for j, deriv in enumerate((f.derivative, f.second_derivative), start=1):
        g = np.abs(np.asarray(deriv(s), dtype=float))
        ratio = np.max(g / np.maximum(envelope, 1e-300))
        worst = max(worst, float(ratio))
        ok_growth = ok_growth and ratio <= 1.0 + 1e-9
    items.append(CheckItem(
        "nonlinearity_growth_bound",
        "|f^(j)(s)| <= bound_scale*(|s|^q + 1)*(bound_feedback*|f(s)| + 1), j = 1, 2",
        ok_growth, f"worst sampled ratio = {worst:.6g}"))

    reaction = spec.operator.reaction_values(spec.mesh)
    items.append(CheckItem(
        "reaction_nonnegative", "reaction coefficient >= 0 everywhere",
        bool(np.all(reaction >= 0)), f"min reaction = {reaction.min():.6g}"))

    bound = spec.operator.ellipticity_bound(spec.mesh)
    items.append(CheckItem(
        "diffusion_ellipticity", "diffusion >= ellipticity bound > 0 on every element",
        bound > 0, f"min diffusion = {bound:.6g}, ellipticity bound = {bound:.6g}"))

    q = f.growth_exponent
    lhs = (q + 3.0) * f.rate_floor
    items.append(CheckItem(
        "state_discount_lower_bound",
        "state_discount > -2*(q + 3)*min_slope",
        d.state_rate > lhs,
        f"state_discount = {d.state_rate:.6g}, required > {lhs:.6g}"))

    lo, hi = f.rate_floor, d.state_rate / (q + 3.0)
    items.append(CheckItem(
        "aux_rate_window",
        "-2*min_slope < aux_rate < state_discount/(q + 3) (strict)",
        lo < d.aux_rate < hi,
        f"aux_rate = {d.aux_rate:.6g}, window = ({lo:.6g}, {hi:.6g})"))

    items.append(CheckItem(
        "control_discount_positive", "control_discount > 0",
        d.control_rate > 0, f"control_discount = {d.control_rate:.6g}"))

    p = d.integrability_exponent
    n = spec.mesh.dimension
    if n == 1:
        ok_p = 2.0 <= p <= 6.0
        req = "2 <= p <= 6 for dimension 1"
    else:
        ok_p = (4.0 / (4.0 - n)) < p <= 6.0
        req = f"4/(4 - n) < p <= 6 for dimension {n}"
    items.append(CheckItem(
        "integrability_exponent_range", req, ok_p, f"p = {p:.6g}"))

    if d.enforce_second_order:
        margin = d.state_rate + f.min_slope * (q + 2.0)
        items.append(CheckItem(
            "second_order_margin",
            "control_discount < state_discount + min_slope*(q + 2)",
            d.control_rate < margin,
            f"control_discount = {d.control_rate:.6g}, required < {margin:.6g}"))

    items.append(CheckItem(
        "control_weight_positive", "control_weight > 0",
        spec.control_weight > 0, f"control_weight = {spec.control_weight:.6g}"))

    items.append(_discrete_step_item(spec))
    return ValidationReport(items, SAMPLE_RANGE, SAMPLE_COUNT)
