import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc, gammaincinv, gammaln

from hardedge import ensemble as ens
from hardedge import special_functions as sf
from hardedge.ensemble import EnsembleParams
from hardedge.special_functions import inv_log_reg_lower_gamma, log_reg_lower_gamma

# P(1/2, 1/2) = erf(sqrt(1/2)), frozen from mpmath.erf at 50 digits.
P_HALF_HALF = 0.6826894921370858971704651
# ln P(1600, 400), frozen from mpmath.gammainc at 50 digits.
LOG_P_1600_400 = -1022.391443144451895886746


def p_via_log(a, x):
    """P(a, x) through the log-space function under test."""
    return np.exp(log_reg_lower_gamma(a, x))


def p_inv_via_log(a, p):
    """P^-1(a, p) through the log-space inverse under test."""
    return inv_log_reg_lower_gamma(a, np.log(p))


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


class TestInverse:
    @pytest.mark.parametrize("p", [0.25, 0.9])
    def test_exponential_quantile(self, p):
        assert p_inv_via_log(1.0, p) == pytest.approx(-math.log1p(-p), rel=1e-12, abs=0.0)

    def test_endpoints(self):
        assert inv_log_reg_lower_gamma(5.0, -math.inf) == 0.0
        assert inv_log_reg_lower_gamma(5.0, 0.0) == math.inf

    @pytest.mark.parametrize("a", [0.5, 3.0, 40.0])
    def test_round_trip_grid(self, a):
        for p in np.arange(0.01, 1.0, 0.01):
            x = p_inv_via_log(a, float(p))
            assert abs(gammainc(a, x) - p) <= 1e-10

    def test_forward_contract(self):
        # |P(a, P^-1(a, p)) - p| <= 1e-12 on a representative grid
        for a in (0.7, 5.0, 123.0):
            for p in (1e-8, 0.01, 0.5, 0.99, 1 - 1e-8):
                x = p_inv_via_log(a, p)
                assert abs(gammainc(a, x) - p) <= 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            inv_log_reg_lower_gamma(1.0, 0.1)
        with pytest.raises(ValueError):
            inv_log_reg_lower_gamma(1.0, math.nan)
        with pytest.raises(ValueError):
            inv_log_reg_lower_gamma(0.0, -0.5)
        with pytest.raises(ValueError):
            inv_log_reg_lower_gamma(math.inf, -1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.floats(min_value=0.05, max_value=2000.0),
        p=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    )
    def test_round_trip_property(self, a, p):
        x = p_inv_via_log(a, p)
        assert abs(gammainc(a, x) - p) <= 1e-10


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

    @pytest.mark.parametrize(
        "a,q",
        [(5.0, -5.0), (80.0, -50.0), (500.0, -300.0), (1600.0, -1017.0), (4000.0, -2500.0)],
    )
    def test_inverse_round_trip(self, a, q):
        x = inv_log_reg_lower_gamma(a, q)
        assert log_reg_lower_gamma(a, x) == pytest.approx(q, rel=1e-12, abs=0.0)

    def test_inverse_matches_linear_branch(self):
        for a in (2.0, 90.0):
            for p in (1e-20, 1e-3, 0.6):
                assert inv_log_reg_lower_gamma(a, math.log(p)) == pytest.approx(
                    gammaincinv(a, p), rel=1e-10
                )

    def test_batch_invariance(self):
        # quantiles must not depend on what else shares the vectorized call
        a = np.array([1600.0, 3.0, 700.0])
        q = np.array([-900.0, -0.5, -400.0])
        batch = inv_log_reg_lower_gamma(a, q)
        singles = np.array([inv_log_reg_lower_gamma(float(ai), float(qi)) for ai, qi in zip(a, q)])
        assert np.array_equal(batch, singles)

    def test_series_cap_raises(self, monkeypatch):
        monkeypatch.setattr(sf, "_MAX_SERIES_TERMS", 1)
        with pytest.raises(ArithmeticError):
            log_reg_lower_gamma(1600.0, 400.0)


@pytest.fixture(scope="module")
def deep_row(uniform_stream):
    """Deep-branch inputs (a, ln P target) of one n = 1e5 row of uniforms."""
    params = EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=100_000)
    shapes = params.shapes()
    uni = np.clip(uniform_stream(42, 0, params.n), ens._U_LO, ens._U_HI)
    target = np.log(uni) + log_reg_lower_gamma(shapes, params.c)
    deep = target <= math.log(sf._LINEAR_FLOOR)
    return shapes[deep], target[deep]


class TestDeepInverse:
    def test_converges_within_four_sweeps(self, deep_row, monkeypatch):
        # a start that drops e^{-x}, stopped by a step test, stalls and
        # bisects on this row: 56 sweeps
        a, q = deep_row
        monkeypatch.setattr(sf, "_MAX_NEWTON_ITER", 4)
        x = inv_log_reg_lower_gamma(a, q)
        assert np.all(np.abs(log_reg_lower_gamma(a, x) - q) <= 1e-12 * np.abs(q))

    def test_chunk_split_is_bit_identical(self, deep_row, monkeypatch):
        a, q = deep_row[0][::50], deep_row[1][::50]
        whole = inv_log_reg_lower_gamma(a, q)
        monkeypatch.setattr(sf, "_DEEP_CHUNK", 7)
        assert np.array_equal(inv_log_reg_lower_gamma(a, q), whole)
        singles = [inv_log_reg_lower_gamma(float(ai), float(qi)) for ai, qi in zip(a[::10], q[::10])]
        assert np.array_equal(singles, whole[::10])

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(sf, "_MAX_NEWTON_ITER", 1)
        with pytest.raises(ArithmeticError):
            inv_log_reg_lower_gamma(1600.0, -1017.0)

    def test_root_near_smallest_normal(self):
        # x = e^-705 is a normal double below the old fixed bracket end t = -700
        x = math.exp(-705.0)
        assert inv_log_reg_lower_gamma(3.0, log_reg_lower_gamma(3.0, x)) == pytest.approx(
            x, rel=1e-12, abs=0.0)

    def test_root_below_smallest_normal_raises(self):
        # the root is near e^-2000, which underflows
        with pytest.raises(ArithmeticError):
            inv_log_reg_lower_gamma(0.5, -1000.0)
