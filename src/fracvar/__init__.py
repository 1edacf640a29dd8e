"""fracvar: variational solver for a quasilinear nonlocal boundary value problem.

The library discretizes the Riesz fractional gradient, divergence, and
Laplacian on uniform cell-centered grids with the exterior-zero condition,
evaluates the associated quasilinear energy functional, and computes
nonnegative critical points by cone-constrained minimization and a
numerical mountain-pass method.
"""

from .coeffs import (CoefficientModel, HypothesisReport, ReactionModel,
                     check_hypotheses, make_coefficient, make_reaction)
from .energy import (EnergyModel, EnergyOverflowError, PointState,
                     convexity_gap, hs_norm, monotonicity_pairing,
                     path_energies, weighted_form)
from .experiments import (ConvergenceReport, IdentityReport, LinearRun,
                          PreparedProblem, RegimeConfig, RegimeReport,
                          SublinearRun, appendix_convergence, find_nu_threshold,
                          prepare, run_linear_regime, run_sublinear_regime,
                          verify_identities)
from .fracops import (NonlocalOperator, apply_divergence, apply_gradient,
                      apply_laplacian, assemble_gradient, assemble_laplacian,
                      composition_matrix, composition_residual,
                      normalizing_constants)
from .grid import (DomainSpec, Field, Grid, VectorField, build_grid,
                   field_from_function, l2_inner)
from .solvers import (RaySearchResult, SolveReport, SolverOptions, kkt_residual,
                      minimize_cone, mountain_pass, project_cone, ray_search)
from .spectral import EigenPair, first_eigenpair, rayleigh_quotient

__version__ = "0.1.0"
