"""Problem data model: elliptic operator, nonlinearity, discount rates,
operator assembly, and validation of the standing structural assumptions.

The spatial discretization is continuous piecewise-linear finite elements
with natural (no-flux) boundary conditions.  The reaction term and the
nonlinear term use lumped-mass (nodal) quadrature; the control forcing and
the control inner product use the lumped mass restricted to the control
subdomain, so that nodal projections are exact metric projections and the
adjoint-based gradient is an exact transpose.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sps

from .admissible import AdmissibleSet
from .mesh import MeshError, SpatialMesh
from .spaces import TimeGrid, Trajectory


class AssumptionError(ValueError):
    """Raised when assembled data violates a structural assumption."""


# ---------------------------------------------------------------------------
# data types


@dataclass(frozen=True)
class EllipticForm:
    """Scalar diffusion per element, nonnegative reaction per node.

    ``ellipticity`` is a declared lower bound for the diffusion coefficient,
    checked against the element values during assembly and validation.
    """

    diffusion: np.ndarray | float = 1.0
    reaction: np.ndarray | float = 0.0
    ellipticity: float | None = None

    def diffusion_values(self, mesh: SpatialMesh) -> np.ndarray:
        a = np.broadcast_to(np.asarray(self.diffusion, dtype=float), (mesh.n_elements,))
        return np.array(a, dtype=float)

    def reaction_values(self, mesh: SpatialMesh) -> np.ndarray:
        r = np.broadcast_to(np.asarray(self.reaction, dtype=float), (mesh.n_nodes,))
        return np.array(r, dtype=float)

    def ellipticity_bound(self, mesh: SpatialMesh) -> float:
        if self.ellipticity is not None:
            return float(self.ellipticity)
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


def builtin_nonlinearities() -> dict:
    """Catalog of ready-made nonlinearities keyed by name."""
    return {
        "zero": Nonlinearity(
            "zero",
            lambda s: np.zeros_like(np.asarray(s, dtype=float)),
            lambda s: np.zeros_like(np.asarray(s, dtype=float)),
            lambda s: np.zeros_like(np.asarray(s, dtype=float)),
            min_slope=0.0, growth_exponent=0.0, bound_scale=1.0, bound_feedback=0.0,
        ),
        "cubic": Nonlinearity(
            "cubic",
            lambda s: np.asarray(s, dtype=float) ** 3,
            lambda s: 3.0 * np.asarray(s, dtype=float) ** 2,
            lambda s: 6.0 * np.asarray(s, dtype=float),
            min_slope=0.0, growth_exponent=2.0, bound_scale=3.0, bound_feedback=0.0,
        ),
        "cubic_minus_linear": Nonlinearity(
            "cubic_minus_linear",
            lambda s: np.asarray(s, dtype=float) ** 3 - np.asarray(s, dtype=float),
            lambda s: 3.0 * np.asarray(s, dtype=float) ** 2 - 1.0,
            lambda s: 6.0 * np.asarray(s, dtype=float),
            min_slope=-1.0, growth_exponent=2.0, bound_scale=3.0, bound_feedback=0.0,
        ),
        "exponential": Nonlinearity(
            "exponential",
            lambda s: np.expm1(np.asarray(s, dtype=float)),
            lambda s: np.exp(np.asarray(s, dtype=float)),
            lambda s: np.exp(np.asarray(s, dtype=float)),
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
        lambda s: c * np.asarray(s, dtype=float),
        lambda s: np.full_like(np.asarray(s, dtype=float), c),
        lambda s: np.zeros_like(np.asarray(s, dtype=float)),
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
    growth_exponent: float = 0.0
    integrability_exponent: float = 2.0
    enforce_second_order: bool = False


@dataclass
class ProblemSpec:
    """Complete description of one discounted tracking problem.

    ``source``/``target`` may be given as (n_steps+1, n_nodes) arrays or as
    closed-form field descriptors with a ``sample(mesh, times)`` method;
    ``initial_state`` as an (n_nodes,) array or a descriptor sampled at t=0.
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
    track_on_observation: bool = True

    def __post_init__(self):
        if not np.isfinite(self.control_weight) or self.control_weight <= 0:
            raise ValueError("control_weight must be positive")

    # -- assembled operators ------------------------------------------------

    @cached_property
    def operators(self) -> "Operators":
        return assemble_operators(self.mesh, self.operator)

    @property
    def observation_mask(self) -> np.ndarray | None:
        if self.track_on_observation and self.mesh.observation_mask is not None:
            return self.mesh.observation_mask
        return None

    # -- sampled data -------------------------------------------------------

    def _sample_field(self, obj, label: str) -> np.ndarray:
        n = self.grid.n_steps + 1
        if hasattr(obj, "sample"):
            vals = obj.sample(self.mesh, self.grid.times)
        else:
            vals = np.asarray(obj, dtype=float)
            if vals.ndim == 0:
                vals = np.full((n, self.mesh.n_nodes), float(vals))
            elif vals.ndim == 1:
                vals = np.broadcast_to(vals, (n, self.mesh.n_nodes)).copy()
        if vals.shape != (n, self.mesh.n_nodes):
            raise ValueError(f"{label} samples have shape {vals.shape}, "
                             f"expected {(n, self.mesh.n_nodes)}")
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"{label} contains non-finite values")
        return vals

    @cached_property
    def source_samples(self) -> np.ndarray:
        return self._sample_field(self.source, "source")

    @cached_property
    def target_samples(self) -> np.ndarray:
        return self._sample_field(self.target, "target")

    @cached_property
    def initial_values(self) -> np.ndarray:
        obj = self.initial_state
        if hasattr(obj, "sample"):
            vals = obj.sample(self.mesh, np.array([0.0]))[0]
        else:
            vals = np.asarray(obj, dtype=float)
            if vals.ndim == 0:
                vals = np.full(self.mesh.n_nodes, float(vals))
        if vals.shape != (self.mesh.n_nodes,):
            raise ValueError("initial state has the wrong shape")
        if not np.all(np.isfinite(vals)):
            raise ValueError("initial state must be bounded (finite nodal values)")
        return vals

    # -- helpers ------------------------------------------------------------

    @property
    def control_count(self) -> int:
        return int(self.mesh.control_mask.sum())

    def zero_control(self) -> Trajectory:
        return Trajectory(self.grid, np.zeros((self.grid.n_steps + 1, self.control_count)),
                          "control")

    def with_horizon(self, horizon: float) -> "ProblemSpec":
        """Same problem truncated/extended to a different final time."""
        new = replace(self, grid=TimeGrid(horizon, self.grid.step))
        new.__dict__["operators"] = self.operators  # mesh unchanged
        return new


# ---------------------------------------------------------------------------
# assembly


@dataclass
class Operators:
    """Assembled spatial operators shared by all solves on one mesh."""

    mass: sps.csr_matrix
    stiffness: sps.csr_matrix
    lumped_mass: np.ndarray
    control_index: np.ndarray
    control_weights: np.ndarray
    # step solvers keyed by time step, built on first use by the solvers
    step_solvers: dict = field(default_factory=dict, repr=False, compare=False)

    @cached_property
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
    bound = form.ellipticity_bound(mesh)
    if bound <= 0:
        raise AssumptionError("ellipticity bound must be positive")
    if np.any(a < bound - 1e-12 * max(1.0, bound)):
        raise AssumptionError("sampled diffusion coefficient falls below the ellipticity bound")
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
    mandatory: bool = True

    def to_dict(self):
        return {"key": self.key, "requirement": self.requirement,
                "passed": self.passed, "detail": self.detail, "mandatory": self.mandatory}


@dataclass
class ValidationReport:
    items: list
    sample_range: tuple
    sample_count: int

    @property
    def passed(self) -> bool:
        return all(it.passed for it in self.items if it.mandatory)

    def failures(self) -> list:
        return [it for it in self.items if it.mandatory and not it.passed]

    def to_dict(self):
        return {
            "passed": self.passed,
            "sample_range": list(self.sample_range),
            "sample_count": self.sample_count,
            "items": [it.to_dict() for it in self.items],
        }


def validate_assumptions(spec: ProblemSpec, sample_range=(-50.0, 50.0),
                         sample_count: int = 10000) -> ValidationReport:
    """Check every standing inequality on the problem data.

    Derivative bounds are sampled on a documented grid (they are stated for
    all real arguments, which is not numerically verifiable); the report
    records the grid.  Failures are reported, never raised.
    """
    f = spec.nonlinearity
    d = spec.discounts
    items = []
    s = np.linspace(sample_range[0], sample_range[1], sample_count)

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

    avals = spec.operator.diffusion_values(spec.mesh)
    bound = spec.operator.ellipticity_bound(spec.mesh)
    items.append(CheckItem(
        "diffusion_ellipticity", "diffusion >= ellipticity bound > 0 on every element",
        bound > 0 and bool(np.all(avals >= bound - 1e-12 * max(1.0, bound))),
        f"min diffusion = {avals.min():.6g}, ellipticity bound = {bound:.6g}"))

    q = f.growth_exponent
    lhs = -2.0 * (q + 3.0) * f.min_slope
    items.append(CheckItem(
        "state_discount_lower_bound",
        "state_discount > -2*(q + 3)*min_slope",
        d.state_rate > lhs,
        f"state_discount = {d.state_rate:.6g}, required > {lhs:.6g}"))

    lo, hi = -2.0 * f.min_slope, d.state_rate / (q + 3.0)
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

    return ValidationReport(items, sample_range, sample_count)
