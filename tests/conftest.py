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


def _left_tail_scalar(s: float, x: float):
    """The left-tail series T_0 = 1, T_k = T_{k-1} x/(s+k) in scalar double
    arithmetic, each operation rounded as the batch rounds it: the terms it
    adds before T_k and k T_k both fall to 1e-18 of their sums, then
    sum T_k and sum k T_k."""
    t, total, moment, k = 1.0, 1.0, 0.0, 0
    while t > 1e-18 * total or k * t > 1e-18 * moment:
        k += 1
        t = t * x / (s + k)
        total = total + t
        moment = moment + k * t
    return k, total, moment


@pytest.fixture
def left_tail_scalar():
    """One-entry reference of ``special_functions._left_tail_series``, the
    oracle of its batch bits, of its term cap and of ``tv_upper_bound``."""
    return _left_tail_scalar
