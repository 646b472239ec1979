"""Differential entropy of sums of two independent exponential variables.

Closed forms for the two-phase hypoexponential entropy and its derived
quantities (additive exponential noise mutual information, gate-conditioned
dwell-time entropy, Erlang-2 limit), together with independent quadrature
and Monte-Carlo oracles and a CLI that reproduces the figure data sets.

No module imports numpy at module level: each function that builds arrays
imports it, so importing the package does not load numpy, and neither do the
CLI's closed-form point commands. Quadrature, Monte Carlo, figures and verify do.
"""

from .dist import (
    RatePair,
    hypoexp_cdf,
    hypoexp_pdf,
)
from .entropy import (
    cond_entropy_light,
    erlang2_entropy,
    exp_entropy,
    hypoexp_entropy,
    mean_constrained_rates,
    mutual_info_aen,
)
from .oracle import (
    ConvergenceError,
    EstimateWithError,
    entropy_monte_carlo,
    entropy_quadrature,
    gr_log_integral,
    normalization_quadrature,
)
from .specfun import EULER_GAMMA, digamma, digamma_minus_log

__version__ = "0.1.0"

__all__ = [
    "EULER_GAMMA",
    "ConvergenceError",
    "EstimateWithError",
    "RatePair",
    "cond_entropy_light",
    "digamma",
    "digamma_minus_log",
    "entropy_monte_carlo",
    "entropy_quadrature",
    "erlang2_entropy",
    "exp_entropy",
    "gr_log_integral",
    "hypoexp_cdf",
    "hypoexp_entropy",
    "hypoexp_pdf",
    "mean_constrained_rates",
    "mutual_info_aen",
    "normalization_quadrature",
    "__version__",
]
