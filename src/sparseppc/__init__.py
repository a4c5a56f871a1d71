"""Sparse packetized predictive control over erasure channels.

The package covers the full loop: horizon-stacked prediction matrices, the
Riccati recursion for terminal weights, sparse packet solvers (an exact
explicit law with a homotopy fallback for the l1-regularized packet and
greedy l0 matching pursuit) next to quadratic baselines, the two stability design rules that certify them,
and a dropout-channel simulator with a buffered actuator.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, DegeneracyError, DesignError,
                     ParameterError, ProtocolError, SimulationRunError,
                     SolverError, SparsePpcError)
from .plant import (HorizonMatrices, PlantModel, build_horizon_matrices,
                    check_reachability, controllability_matrix, propagate,
                    require_spd, spd_sqrt)
from .riccati import DareSolution, fixed_point_residual, solve_dare
from .solvers import (LassoLaw, LinearLaw, OmpLaw, Packet, PacketLaw,
                      count_nonzero, fista_l1l2, least_squares_packet,
                      omp_l0, ridge_packet)
from .design import (ContractionAuditL0, ContractionAuditL1L2, L0Design,
                     L1L2Design, ResidualAudit, SandwichAudit,
                     audit_contraction_l0, audit_contraction_l1l2,
                     audit_residual_l0, audit_value_sandwich, compute_wstar,
                     design_l0, design_l1l2, omega_contains)
from .netsim import (DropoutTrace, MonteCarloResult, SimTrace,
                     gen_bounded_uniform_trace, monte_carlo, run_closed_loop,
                     run_conditions)

__all__ = [
    "__version__",
    # errors
    "SparsePpcError", "ParameterError", "DegeneracyError", "SolverError",
    "DesignError", "ProtocolError", "ConfigError", "SimulationRunError",
    # plant
    "PlantModel", "HorizonMatrices", "build_horizon_matrices", "propagate",
    "check_reachability", "controllability_matrix", "require_spd", "spd_sqrt",
    # riccati
    "DareSolution", "solve_dare", "fixed_point_residual",
    # solvers
    "Packet", "count_nonzero", "PacketLaw", "LinearLaw",
    "OmpLaw", "LassoLaw", "least_squares_packet", "ridge_packet",
    "fista_l1l2", "omp_l0",
    # design
    "L1L2Design", "L0Design", "design_l1l2", "design_l0", "compute_wstar",
    "omega_contains", "audit_value_sandwich",
    "audit_contraction_l1l2", "audit_contraction_l0", "audit_residual_l0",
    "SandwichAudit", "ContractionAuditL1L2", "ContractionAuditL0",
    "ResidualAudit",
    # netsim
    "DropoutTrace", "SimTrace", "MonteCarloResult",
    "gen_bounded_uniform_trace", "run_closed_loop", "run_conditions",
    "monte_carlo",
]
