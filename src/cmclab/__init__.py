"""Numerical laboratory for CMC foliations near infinity.

Builds the constant-mean-curvature foliation of asymptotically
Schwarzschildean Riemannian 3-manifolds, computes coordinate CMC and ADM
centers of mass and quasi-local linear momenta, and verifies the evolution
law dz/dt = P/m together with the CMC = ADM center equivalence on analytic
metric families.
"""

import os as _os

# honor the thread-count variable before numpy chooses its pools; only
# effective when this package is imported before numpy (the CLI path)
_threads = _os.environ.get("CMCLAB_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"

# what cli, acceptance and config import from their sibling modules;
# exception types are imported from cmclab.errors
from .sphere import build_grid
from .models import (
    InitialDataModel,
    MetricModel,
    euclidean,
    interpolated,
    perturbed_schwarzschild,
    schwarzschild,
    synthetic_data,
    time_symmetric_data,
    translated,
)
from .surfaces import SurfaceEmbedding, compute_geometry, low_eigenpairs
from .cmc import (
    SolverConfig,
    solve_cmc,
    solve_foliation,
    solve_radial_lapse,
    target_mean_curvature,
)
from .physics import (
    adm_center_integral,
    artificial_flow_integrate,
    cmc_adm_center_report,
    evolution_residual,
    quasi_local_momentum,
)
from .fits import fit_decay_exponent, richardson_extrapolate
from .config import ExperimentConfig, config_from_dict, parse_config
from .acceptance import run_acceptance

__all__ = [
    "__version__",
    # sphere calculus
    "build_grid",
    # metric models
    "InitialDataModel",
    "MetricModel",
    "euclidean",
    "interpolated",
    "perturbed_schwarzschild",
    "schwarzschild",
    "synthetic_data",
    "time_symmetric_data",
    "translated",
    # surface geometry
    "SurfaceEmbedding",
    "compute_geometry",
    "low_eigenpairs",
    # CMC solver
    "SolverConfig",
    "solve_cmc",
    "solve_foliation",
    "solve_radial_lapse",
    "target_mean_curvature",
    # physics
    "adm_center_integral",
    "artificial_flow_integrate",
    "cmc_adm_center_report",
    "evolution_residual",
    "quasi_local_momentum",
    # fits, config, acceptance
    "fit_decay_exponent",
    "richardson_extrapolate",
    "ExperimentConfig",
    "config_from_dict",
    "parse_config",
    "run_acceptance",
]
