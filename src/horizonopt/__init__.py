"""Discounted long-horizon optimal control of semilinear parabolic
equations, approximated by a family of finite-horizon problems."""

from .admissible import (AdmissibleSet, check_projection_formulas,
                         stationarity_residual)
from .config import (ConfigError, build_horizon_config, build_optimizer_config,
                     build_problem, load_config)
from .descriptors import Field, SpaceProfile, TimeProfile, tail_norm, zero_field
from .horizon import (HorizonStudyConfig, HorizonStudyReport,
                      check_state_error_bounds, run_horizon_study)
from .mesh import SpatialMesh, interval_mesh, rectangle_mesh
from .objective import (CostBreakdown, Multiplier, SecondOrderModel, cost,
                        cost_from_state, gradient, gradient_with_state,
                        multiplier_and_cone, sample_critical_directions)
from .optimizer import (GrowthReport, OptimizerConfig, SolveReport, optimize,
                        verify_growth)
from .problem import (Discounts, EllipticForm, NewtonConfig, Nonlinearity,
                      ProblemSpec, ValidationReport, assemble_operators,
                      builtin_nonlinearities, linear_nonlinearity,
                      validate_assumptions)
from .solvers import (EstimateReport, SolverError,
                      check_energy_estimate, check_linearized_estimate,
                      solve_adjoint, solve_forward, solve_linearized,
                      solve_second_order)
from .spaces import (TimeGrid, Trajectory, weighted_l2_norm, weighted_lp_norm,
                     weighted_sup_norm)

__version__ = "0.1.0"
