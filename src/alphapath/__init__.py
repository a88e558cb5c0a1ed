"""Alpha-path families and inverse uncertainty distributions for
higher-order uncertain differential equations.

For a problem x^(n) = f(t, x, ..., x^(n-1)) + g(...) * dC/dt driven by a
Lipschitz uncertain process, each alpha in (0, 1) induces an ordinary ODE
whose solution (the alpha-path) bounds the driven trajectories: the family
of alpha-paths tabulates the solution's inverse uncertainty distribution.
This package solves those families, verifies the hypotheses that make the
construction valid (positive diffusion, monotone drift/diffusion in the
position), and tests the bounding property constructively against sampled
surrogate drivers.
"""

from .core import (
    AlphaGridSpec,
    UdeSpec,
    alpha_grid,
    phi_inv,
    validate_spec,
)
from .solver import (
    AlphaFan,
    IntegralResidual,
    integral_residual,
    solve_fan,
)
from .analysis import (
    ConditionHCheck,
    DistributionPoint,
    DistributionTable,
    HypothesisReport,
    MonotoneCheck,
    RegularityCheck,
    check_condition_h,
    check_hypotheses,
    check_monotone,
    check_regularity,
    distribution_at,
    expected_value,
    inverse_distribution,
)
from .oracle import (
    DominanceReport,
    dominance_check,
    dominance_checks,
)
from .errors import (
    AlignmentError,
    AlphaPathError,
    BlowUpError,
    ConfigError,
    DomainError,
    FanSolveError,
    HypothesisError,
    LexError,
    MonotonicityError,
    NonFiniteError,
    ParseError,
    UnknownFunctionError,
    UnknownVariableError,
)

__all__ = [
    "AlignmentError",
    "AlphaFan",
    "AlphaGridSpec",
    "AlphaPathError",
    "BlowUpError",
    "ConditionHCheck",
    "ConfigError",
    "DomainError",
    "FanSolveError",
    "HypothesisError",
    "LexError",
    "MonotonicityError",
    "NonFiniteError",
    "ParseError",
    "UnknownFunctionError",
    "UnknownVariableError",
    "DistributionPoint",
    "DistributionTable",
    "DominanceReport",
    "HypothesisReport",
    "IntegralResidual",
    "MonotoneCheck",
    "RegularityCheck",
    "UdeSpec",
    "alpha_grid",
    "check_condition_h",
    "check_hypotheses",
    "check_monotone",
    "check_regularity",
    "distribution_at",
    "dominance_check",
    "dominance_checks",
    "expected_value",
    "integral_residual",
    "inverse_distribution",
    "phi_inv",
    "solve_fan",
    "validate_spec",
]

__version__ = "0.1.0"
