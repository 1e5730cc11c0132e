"""Diffusive conditioned trajectories of Markovian open quantum systems.

The package simulates every diffusive way of conditioning a
finite-dimensional Lindblad master equation on continuous measurement
records.  A single complex symmetric matrix ``u`` with spectral norm at
most 1 labels the correlations of the record noise; fixing it selects
standard schemes (single- and two-phase quadrature detection,
uncorrelated records) as special cases, and state-derived choices give
conditioned dynamics independent of how the Lindblad operators are
written.  Deterministic master-equation integration and ensemble
statistics are included for validating that trajectory averages
reproduce the unconditioned state.
"""

from .fluorescence import AtomParams, bloch, build_atom, plus_x_state, z_drift_residual
from .operators import (
    LindbladModel,
    liouvillian_apply,
    projector,
    rotate_lindblads,
    shift_lindblads,
    transition_rate,
)
from .oracle import (
    DegenerateSteadyStateError,
    EnsembleSummary,
    ensemble_summary,
    integrate_master,
    steady_state,
)
from .trajectory import EnsembleRun, NormCollapseError, run_ensemble
from .unravelings import (
    CovarianceError,
    FixedU,
    Heterodyne,
    Homodyne,
    InvariantStateDep,
    InvariantTrace,
    UMatrixError,
    UnravelingSpec,
    homodyne_u,
    is_valid_u,
    real_embedding,
    sample_increments,
    spec_from_dict,
    spectral_norm,
    validate_u,
)

__version__ = "0.1.0"

# What the README documents or a demo imports, and the errors a caller
# catches; every other name is imported from its own module.
__all__ = [
    "AtomParams",
    "CovarianceError",
    "DegenerateSteadyStateError",
    "EnsembleRun",
    "EnsembleSummary",
    "FixedU",
    "Heterodyne",
    "Homodyne",
    "InvariantStateDep",
    "InvariantTrace",
    "LindbladModel",
    "NormCollapseError",
    "UMatrixError",
    "UnravelingSpec",
    "bloch",
    "build_atom",
    "ensemble_summary",
    "homodyne_u",
    "integrate_master",
    "is_valid_u",
    "liouvillian_apply",
    "plus_x_state",
    "projector",
    "real_embedding",
    "rotate_lindblads",
    "run_ensemble",
    "sample_increments",
    "shift_lindblads",
    "spec_from_dict",
    "spectral_norm",
    "steady_state",
    "transition_rate",
    "validate_u",
    "z_drift_residual",
]
