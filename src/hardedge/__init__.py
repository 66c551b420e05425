"""Simulation and verification lab for hard-edge scaled radial statistics of
the constrained Mittag-Leffler ensemble: exact sampling of the radial point
configuration, radius-dependent linear statistics and first-hitting times,
closed-form evaluation of the limiting Gaussian laws, and Monte Carlo
campaigns confirming the central limit behavior at desk scale."""

from .ensemble import EnsembleParams, cdf_u, exp_rate, sample_batch, theta, tv_upper_bound
from .limit_law import LimitLaw, omega1, omega2
from .process import (
    TestFunction,
    mean_exact,
    phi_exp_decay,
    phi_from_table,
    phi_one,
    phi_rational,
    statistic_paths,
)
from .special_functions import log_reg_lower_gamma
from .verify import (
    ExperimentConfig,
    ExperimentReport,
    PhiSpec,
    run_campaign,
)

__version__ = "0.1.0"
