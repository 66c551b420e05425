"""Simulation and verification lab for hard-edge scaled radial statistics of
the constrained Mittag-Leffler ensemble: exact sampling of the radial point
configuration, radius-dependent linear statistics and first-hitting times,
closed-form evaluation of the limiting Gaussian laws, and Monte Carlo
campaigns confirming the central limit behavior at desk scale."""

from .ensemble import (
    EnsembleParams,
    RadialConfiguration,
    cdf_u,
    density_u,
    exp_rate,
    sample_batch,
    sample_configuration,
    theta,
    tv_upper_bound,
    weight_w,
)
from .limit_law import LimitLaw, omega1, omega2
from .process import (
    StepProcess,
    TestFunction,
    build_statistic,
    mean_exact,
    phi_exp_decay,
    phi_from_table,
    phi_one,
    phi_rational,
)
from .special_functions import log_reg_lower_gamma
from .verify import (
    ExperimentConfig,
    ExperimentReport,
    PhiSpec,
    run_campaign,
    run_centering_rate,
    run_clt,
    run_escape,
    run_hitting,
    run_moments,
    run_tv_decay,
)

__version__ = "0.1.0"
