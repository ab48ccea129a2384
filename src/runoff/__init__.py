"""Run-off triangle reserving with a conditional predictive bootstrap.

The package fits development patterns (chain ladder, Bornhuetter-
Ferguson, Cape Cod), estimates the concentration of a Dirichlet
allocation model from triangle proportions, and simulates predictive
reserve distributions that condition on the observed diagonal instead
of resampling it. An overdispersed-Poisson residual bootstrap and a
synthetic-triangle laboratory round out the comparison tooling.
"""

from __future__ import annotations

from .concentration import (
    ConcentrationError,
    estimate_c,
    estimate_c_batch,
    sigma_c_squared,
)
from .distributions import RngStream
from .odp import OdpError, odp_bootstrap, odp_fit
from .patterns import (
    DevelopmentPattern,
    PatternError,
    bf_ultimates,
    cape_cod_ultimates,
    chain_ladder_pattern,
    cl_ultimates,
    link_ratios,
)
from .predictive import (
    PredictiveError,
    ReserveDistribution,
    bf_bootstrap,
    ibnp_exact_moments,
    multinomial_bootstrap,
    negbin_ibnr,
)
from .simlab import (
    SimConfig,
    SimulationError,
    compare_odp,
    generate_triangle,
    nonstationarity_sweep,
    run_coverage_study,
    sensitivity_grid,
    tweedie_sweep,
    verify_conservatism,
    verify_sigma_c,
)
from .triangle import (
    Triangle,
    TriangleError,
    bundled_triangle,
    latest_diagonal,
    load_exposures,
    load_triangle,
)

__version__ = "0.1.0"

__all__ = [
    "ConcentrationError",
    "DevelopmentPattern",
    "OdpError",
    "PatternError",
    "PredictiveError",
    "ReserveDistribution",
    "RngStream",
    "SimConfig",
    "SimulationError",
    "Triangle",
    "TriangleError",
    "bf_bootstrap",
    "bf_ultimates",
    "bundled_triangle",
    "cape_cod_ultimates",
    "chain_ladder_pattern",
    "cl_ultimates",
    "compare_odp",
    "estimate_c",
    "estimate_c_batch",
    "generate_triangle",
    "ibnp_exact_moments",
    "latest_diagonal",
    "link_ratios",
    "load_exposures",
    "load_triangle",
    "multinomial_bootstrap",
    "negbin_ibnr",
    "nonstationarity_sweep",
    "odp_bootstrap",
    "odp_fit",
    "run_coverage_study",
    "sensitivity_grid",
    "sigma_c_squared",
    "tweedie_sweep",
    "verify_conservatism",
    "verify_sigma_c",
]
