import math

import numpy as np
import pytest
from scipy.special import gammainc, gammaln

from hardedge import special_functions as sf
from hardedge.special_functions import log_reg_lower_gamma

# P(1/2, 1/2) = erf(sqrt(1/2)), frozen from mpmath.erf at 50 digits.
P_HALF_HALF = 0.6826894921370858971704651
# ln P(1600, 400), frozen from mpmath.gammainc at 50 digits.
LOG_P_1600_400 = -1022.391443144451895886746


def p_via_log(a, x):
    """P(a, x) through the log-space function under test."""
    return np.exp(log_reg_lower_gamma(a, x))


class TestRegLowerGamma:
    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0])
    def test_unit_shape_closed_form(self, x):
        assert p_via_log(1.0, x) == pytest.approx(-math.expm1(-x), abs=1e-12)

    def test_zero_argument(self):
        assert log_reg_lower_gamma(3.7, 0.0) == -math.inf

    def test_erf_identity(self):
        assert p_via_log(0.5, 0.5) == pytest.approx(P_HALF_HALF, abs=1e-12)

    def test_infinite_argument(self):
        assert log_reg_lower_gamma(2.0, math.inf) == 0.0

    @pytest.mark.parametrize("a", [0.5, 3.0, 40.0, 2000.0])
    def test_strictly_increasing(self, a):
        # strict below saturation (deep tail included), non-decreasing everywhere
        x = np.linspace(0.01, 4 * a, 300)
        lp = log_reg_lower_gamma(np.full_like(x, a), x)
        assert np.all(np.diff(lp) >= 0)
        core = lp < math.log1p(-1e-12)
        assert np.all(np.diff(lp[core]) > 0)

    @pytest.mark.parametrize("a", [0.5, 2.0, 10.0, 100.0])
    def test_recurrence(self, a):
        # P(a+1, x) = P(a, x) - x^a e^{-x} / Gamma(a+1)
        for x in (0.3, 1.0, a, 2 * a + 1):
            lhs = p_via_log(a + 1.0, x)
            rhs = p_via_log(a, x) - math.exp(a * math.log(x) - x - gammaln(a + 1.0))
            assert lhs == pytest.approx(rhs, abs=1e-11)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_reg_lower_gamma(-1.0, 1.0)
        with pytest.raises(ValueError):
            log_reg_lower_gamma(1.0, -0.5)
        with pytest.raises(ValueError):
            log_reg_lower_gamma(math.inf, 1.0)


class TestLogSpace:
    def test_agrees_with_linear_in_overlap(self):
        for a in (0.5, 7.0, 250.0):
            for x in (a / 4, a / 2, a, 3 * a):
                p = gammainc(a, x)
                assert log_reg_lower_gamma(a, x) == pytest.approx(math.log(p), rel=1e-12, abs=0.0)

    def test_deep_tail_against_extended_precision(self):
        assert log_reg_lower_gamma(1600.0, 400.0) == pytest.approx(LOG_P_1600_400, rel=1e-13, abs=0.0)

    def test_zero_maps_to_minus_inf(self):
        assert log_reg_lower_gamma(3.0, 0.0) == -math.inf

    def test_monotone_in_x_deep_tail(self):
        a = 5000.0
        x = np.linspace(100.0, 1500.0, 50)
        lp = log_reg_lower_gamma(np.full_like(x, a), x)
        assert np.all(np.diff(lp) > 0)

    def test_batch_invariance(self):
        # deep-tail values must not depend on what else shares the vectorized call
        a = np.array([1600.0, 3.0, 700.0, 5000.0])
        x = np.array([400.0, 0.5, 100.0, 1e-3])
        batch = log_reg_lower_gamma(a, x)
        singles = np.array([log_reg_lower_gamma(float(ai), float(xi)) for ai, xi in zip(a, x)])
        assert np.array_equal(batch, singles)

    def test_series_cap_raises(self, monkeypatch):
        monkeypatch.setattr(sf, "_MAX_SERIES_TERMS", 1)
        with pytest.raises(ArithmeticError):
            log_reg_lower_gamma(1600.0, 400.0)
