"""Numerical laboratory for degenerate Fokker-Planck / mean-field particle dynamics."""

from .coefficients import (
    DriftSpec,
    NonlinearitySpec,
    capital_G,
    check_hypotheses,
    entropy_Psi,
    lambda_zero,
    sigma_squared,
)
from .closed_form import (
    BarenblattParams,
    barenblatt_eval,
    barenblatt_mass,
    barenblatt_moment2,
    make_barenblatt,
    regularity_threshold,
    time_integrability_exponent,
)
from .fpe_solver import (
    GridField,
    SolverConfig,
    SolverError,
    Trajectory,
    entropy_audit,
    resolvent_solve,
    semigroup_distance,
    step_chain,
)

__all__ = [
    "DriftSpec",
    "NonlinearitySpec",
    "capital_G",
    "check_hypotheses",
    "entropy_Psi",
    "lambda_zero",
    "sigma_squared",
    "BarenblattParams",
    "barenblatt_eval",
    "barenblatt_mass",
    "barenblatt_moment2",
    "make_barenblatt",
    "regularity_threshold",
    "time_integrability_exponent",
    "GridField",
    "SolverConfig",
    "SolverError",
    "Trajectory",
    "entropy_audit",
    "resolvent_solve",
    "semigroup_distance",
    "step_chain",
]

__version__ = "0.1.0"
