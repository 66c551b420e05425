import math

import numpy as np
import pytest
from scipy.special import gammaln

from hardedge.ensemble import EnsembleParams
from hardedge.special_functions import log_reg_lower_gamma


def _density_u(params: EnsembleParams, j, x):
    """Density of U_j at x >= 0, assembled in log space:

        f_j(x) = c^s beta / (Gamma(s) P(s, c)) exp(-beta s x - c e^{-beta x}),

    with s = (j + alpha)/b; a float for scalar j and x."""
    s = (np.asarray(j, dtype=float) + params.alpha) / params.b
    x = np.asarray(x, dtype=float)
    log_f = (s * math.log(params.c) - gammaln(s) - log_reg_lower_gamma(s, params.c)
             + math.log(params.beta) - params.beta * s * x - params.c * np.exp(-params.beta * x))
    out = np.exp(log_f)
    return float(out) if out.ndim == 0 else out


@pytest.fixture
def density_u():
    """The exact density of U_j, the oracle of ``cdf_u`` and ``mean_exact``."""
    return _density_u
