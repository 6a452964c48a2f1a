"""Eigenvalue-sum Hessian operators.

Symmetric-function calculus on spectra and symmetric matrices, the m-fold
eigenvalue-sum lift of a Hessian with its cone admissibility predicates, the
inequality check suites with explicit constants, boundary-collar barrier
machinery, and a continuation Newton solver for the associated Neumann
problem.
"""

from .errors import (
    AdmissibilityError,
    CollarError,
    ConfigError,
    ContinuationError,
    NonconvergenceError,
    SamplerStarvationError,
    SumhessError,
)
from .lift import ConeSpec, subset_table

__all__ = [
    "ConeSpec",
    "subset_table",
    "SumhessError",
    "ConfigError",
    "CollarError",
    "AdmissibilityError",
    "NonconvergenceError",
    "ContinuationError",
    "SamplerStarvationError",
]

__version__ = "0.1.0"
