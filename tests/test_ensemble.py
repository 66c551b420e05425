import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hardedge import ensemble as ens
from hardedge.ensemble import EnsembleParams, RadialConfiguration
from hardedge.limit_law import omega1

CANON = EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=100)

# theta for alpha=-0.5, b=2, rho=0.6, n=50, j=1; frozen exact fraction
# (1 - 0.5) / (2 * 50 * 0.6^4) = 25/648, evaluated with mpmath at 50 digits.
THETA_EDGE = 0.03858024691358024691358025


class TestParams:
    def test_derived_constants(self):
        assert CANON.kappa == pytest.approx(0.75)
        assert CANON.c == pytest.approx(25.0)
        assert 0.0 < CANON.kappa < 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=-1.0, b=1.0, rho=0.5, n=10),
            dict(alpha=0.0, b=0.0, rho=0.5, n=10),
            dict(alpha=0.0, b=-2.0, rho=0.5, n=10),
            dict(alpha=0.0, b=1.0, rho=0.0, n=10),
            dict(alpha=0.0, b=1.0, rho=1.0, n=10),   # == b^(-1/(2b))
            dict(alpha=0.0, b=1.0, rho=1.7, n=10),
            dict(alpha=0.0, b=1.0, rho=0.5, n=0),
        ],
    )
    def test_invalid_parameters_raise(self, kwargs):
        with pytest.raises(ValueError):
            EnsembleParams(**kwargs)

    def test_wall_message_is_actionable(self):
        with pytest.raises(ValueError, match="hard wall must lie inside the droplet"):
            EnsembleParams(alpha=0.0, b=1.0, rho=1.2, n=10)


class TestTheta:
    def test_direct_arithmetic(self):
        assert ens.theta(CANON, 25) == pytest.approx(1.0)
        assert ens.theta(CANON, 100) == pytest.approx(4.0)

    def test_edge_parameters(self):
        p = EnsembleParams(alpha=-0.5, b=2.0, rho=0.6, n=50)
        assert ens.theta(p, 1) == pytest.approx(THETA_EDGE, rel=1e-14)

    @pytest.mark.parametrize("j", [0, 101, -3])
    def test_index_out_of_range(self, j):
        with pytest.raises(IndexError):
            ens.theta(CANON, j)


class TestSampling:
    def test_uniform_near_one_gives_small_u(self):
        u_hi = ens.sample_radius_u(CANON, 40, 1.0 - 1e-12)
        u_mid = ens.sample_radius_u(CANON, 40, 0.5)
        assert 0.0 <= u_hi < 1e-6
        assert u_hi < u_mid  # U strictly decreasing in the uniform

    def test_radius_recovery_in_unit_interval(self):
        for j in (1, 25, 60, 100):
            for uni in (0.01, 0.37, 0.93):
                u = ens.sample_radius_u(CANON, j, uni)
                r = math.exp(-CANON.b * u / (CANON.n * CANON.kappa))
                assert 0.0 < r <= 1.0

    def test_invalid_uniform(self):
        with pytest.raises(ValueError):
            ens.sample_radius_u(CANON, 10, 0.0)
        with pytest.raises(ValueError):
            ens.sample_radius_u(CANON, 10, 1.0)

    def test_determinism_and_sensitivity(self):
        c1 = ens.sample_configuration(CANON, 123)
        c2 = ens.sample_configuration(CANON, 123)
        c3 = ens.sample_configuration(CANON, 124)
        assert np.array_equal(c1.u, c2.u)
        assert np.any(c1.u != c3.u)

    def test_batch_matches_single_configurations(self):
        batch = ens.sample_batch(CANON, 9, range(4))
        for i in range(4):
            single = ens.sample_configuration(CANON, 9, stream=i)
            assert np.array_equal(batch[i], single.u)

    def test_empirical_law_ks(self):
        # 2e4 draws for one particle against the exact CDF; the acceptance
        # suite runs the full 1e5-draw version for three particles.
        j, ndraw = 60, 20000
        rng = np.random.Generator(np.random.Philox(key=np.array([7, 0], dtype=np.uint64)))
        uni = rng.random(ndraw)
        shapes = np.full(ndraw, (j + CANON.alpha) / CANON.b)
        from hardedge.special_functions import log_reg_lower_gamma
        draws = ens._u_from_uniform(
            CANON, shapes, log_reg_lower_gamma(shapes, CANON.c), uni
        )
        draws.sort()
        cdf = ens.cdf_u(CANON, j, draws)
        grid = np.arange(1, ndraw + 1) / ndraw
        ks = np.max(np.maximum(np.abs(cdf - grid), np.abs(cdf - (grid - 1.0 / ndraw))))
        assert ks < 1.63 / math.sqrt(ndraw)

    def test_low_coordinate_fraction_concentrates(self):
        # the fraction of coordinates below 50 matches its exact finite-n
        # mean at Monte Carlo resolution, and that mean approaches
        # kappa * F(50) as n grows
        limit = 0.75 * quad(omega1, 0, 50.0, epsabs=1e-12, limit=200)[0]
        gaps = []
        for n in (200, 2000):
            p = EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=n)
            exact = float(np.mean(ens.cdf_u(p, np.arange(1, n + 1), 50.0)))
            gaps.append(abs(exact - limit))
            if n == 200:
                batch = ens.sample_batch(p, 11, range(200))
                per_rep = np.mean(batch <= 50.0, axis=1)
                se = float(np.std(per_rep, ddof=1)) / math.sqrt(len(per_rep))
                assert abs(float(per_rep.mean()) - exact) < 5 * se
        assert gaps[1] < gaps[0]
        assert gaps[1] < 0.02


class TestExactLaws:
    def test_cdf_endpoints(self):
        assert ens.cdf_u(CANON, 30, 0.0) == 0.0
        assert ens.cdf_u(CANON, 30, math.inf) == 1.0

    def test_cdf_matches_density_quadrature(self):
        for j in (20, 50, 90):
            for t in (0.5, 2.0, 10.0):
                num = quad(lambda x: ens.density_u(CANON, j, x), 0.0, t,
                           epsabs=1e-12, limit=200)[0]
                assert ens.cdf_u(CANON, j, t) == pytest.approx(num, abs=1e-8)

    def test_cdf_depends_only_on_theta_c_beta(self):
        # (b=1, rho=0.5, n=100, j=40) and (b=2, rho=8^-0.25, n=200, j=80)
        # share (theta, c, beta, shape), hence the same law
        p1, j1 = CANON, 40
        p2, j2 = EnsembleParams(alpha=0.0, b=2.0, rho=8.0 ** -0.25, n=200), 80
        assert p2.c == pytest.approx(p1.c, rel=1e-12)
        assert p2.beta == pytest.approx(p1.beta, rel=1e-12)
        assert ens.theta(p2, j2) == pytest.approx(ens.theta(p1, j1), rel=1e-12)
        for t in (0.1, 1.0, 3.0, 8.0):
            assert ens.cdf_u(p2, j2, t) == pytest.approx(ens.cdf_u(p1, j1, t), abs=1e-12)

    def test_density_normalizes(self):
        p = EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=50)
        total = quad(lambda x: ens.density_u(p, 40, x), 0.0, np.inf,
                     epsabs=1e-10, limit=300)[0]
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_density_vanishes_in_far_tail(self):
        x_far = 1e3 * CANON.n * CANON.kappa / CANON.b
        assert ens.density_u(CANON, 60, x_far) < 1e-300

    def test_cdf_finite_difference_matches_density(self):
        eps = 1e-5
        for x in (0.5, 2.0, 10.0):
            fd = (ens.cdf_u(CANON, 70, x + eps) - ens.cdf_u(CANON, 70, x - eps)) / (2 * eps)
            assert fd == pytest.approx(ens.density_u(CANON, 70, x), abs=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(
        j=st.integers(min_value=1, max_value=100),
        t1=st.floats(min_value=0.0, max_value=60.0),
        t2=st.floats(min_value=0.0, max_value=60.0),
    )
    def test_cdf_monotone_property(self, j, t1, t2):
        lo, hi = sorted((t1, t2))
        c_lo, c_hi = ens.cdf_u(CANON, j, lo), ens.cdf_u(CANON, j, hi)
        assert 0.0 <= c_lo <= c_hi <= 1.0


class TestExponentialApproximation:
    def test_rate_direct_arithmetic(self):
        # theta = 2 at j = 50: rate = (0.25/0.75)*(2-1) = 1/3
        assert ens.exp_rate(CANON, 50) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_rate_one_at_algebraic_threshold(self):
        # theta = 1 + kappa/(b rho^2b) = 4 at j = 100 gives rate exactly 1
        assert ens.exp_rate(CANON, 100) == pytest.approx(1.0, rel=1e-12)

    def test_rate_requires_theta_above_one(self):
        with pytest.raises(ValueError):
            ens.exp_rate(CANON, 25)  # theta == 1
        with pytest.raises(ValueError):
            ens.exp_rate(CANON, 10)

    def test_weight_at_zero_and_range(self):
        assert ens.weight_w(CANON, 0.0) == 1.0
        x = np.logspace(-3, 3, 40)
        w = ens.weight_w(CANON, x)
        assert np.all((w > 0.0) & (w <= 1.0))
        assert np.all(np.diff(w) <= 0.0)

    def test_weight_tends_to_one_with_n(self):
        vals = [
            ens.weight_w(EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=n), 5.0)
            for n in (100, 1000, 10000)
        ]
        assert vals[0] < vals[1] < vals[2] < 1.0
        assert vals[2] > 1.0 - 1e-3

    def test_tv_bound_nonnegative_and_dominates_exact(self):
        bound = ens.tv_upper_bound(CANON, 80)
        exact = ens.exact_tv_exponential(CANON, 80)
        assert bound >= 0.0
        assert exact <= bound

    def test_tv_bound_decreases_at_fixed_theta(self):
        # theta = 2 sits at j = n/2 for these parameters
        vals = []
        for n in (100, 1000, 10000):
            p = EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=n)
            vals.append(ens.tv_upper_bound(p, n // 2))
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 0.05

    def test_tv_bound_requires_theta_above_one(self):
        with pytest.raises(ValueError):
            ens.tv_upper_bound(CANON, 20)
        with pytest.raises(ValueError):
            ens.tv_upper_bound(CANON, np.array([20, 80]))
        with pytest.raises(IndexError):
            ens.tv_upper_bound(CANON, 101)


def tv_bound_mpmath(params: EnsembleParams, j: int) -> float:
    """1 - (s-c) e^c c^{-s} gamma(s, c) at 40 digits, from the double s and c."""
    with mpmath.workdps(40):
        s = mpmath.mpf((j + params.alpha) / params.b)
        c = mpmath.mpf(params.c)
        return float(1 - (s - c) * mpmath.exp(c) * c ** (-s) * mpmath.gammainc(s, 0, c))


class TestTvSeries:
    @pytest.mark.parametrize("n", [100, 1000, 10_000, 100_000])
    def test_against_mpmath_on_the_ladder(self, n):
        # the particles criterion 7 scans (theta > 1.1): first, argmax, middle, last
        p = EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=n)
        js = np.flatnonzero(ens.theta(p, np.arange(1, n + 1)) > 1.1) + 1
        bounds = ens.tv_upper_bound(p, js)
        for k in (0, int(np.argmax(bounds)), len(js) // 2, len(js) - 1):
            expected = tv_bound_mpmath(p, int(js[k]))
            assert bounds[k] == pytest.approx(expected, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize(
        "params, j",
        [
            (EnsembleParams(alpha=25e-9, b=1.0, rho=0.5, n=100), 25),     # theta = 1 + 1e-9
            (EnsembleParams(alpha=1e-5, b=1.0, rho=0.5, n=100_000), 25_000),
            (EnsembleParams(alpha=0.0, b=1.0, rho=0.05, n=100), 100),     # theta = 400
            (EnsembleParams(alpha=-0.5, b=2.0, rho=0.6, n=50), 50),
        ],
    )
    def test_against_mpmath_at_extreme_theta(self, params, j):
        assert ens.tv_upper_bound(params, j) == pytest.approx(
            tv_bound_mpmath(params, j), rel=1e-14, abs=0.0
        )

    def test_vector_call_equals_scalar_calls(self):
        p = EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=10_000)
        js = np.arange(2600, 10_001, 37)
        bounds = ens.tv_upper_bound(p, js)
        assert isinstance(ens.tv_upper_bound(p, 2600), float)
        assert np.array_equal(bounds, [ens.tv_upper_bound(p, int(j)) for j in js])

    @pytest.mark.parametrize("j", [26, 40, 80, 100])
    def test_against_weight_quadrature(self, j):
        # the defining integral int (1 - w) rate e^{-rate x} dx
        rate = ens.exp_rate(CANON, j)
        beta, c = CANON.beta, CANON.c
        val, _ = quad(
            lambda x: -math.expm1(-c * (math.expm1(-beta * x) + beta * x))
            * rate * math.exp(-rate * x),
            0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=400,
        )
        assert ens.tv_upper_bound(CANON, j) == pytest.approx(val, rel=1e-12, abs=0.0)

    def test_term_cap_raises(self, monkeypatch):
        monkeypatch.setattr(ens, "_TV_MAX_TERMS", 1)
        with pytest.raises(ArithmeticError):
            ens.tv_upper_bound(CANON, 80)


class TestSerialization:
    def test_csv_round_trip(self):
        cfg = ens.sample_configuration(CANON, 5)
        back = RadialConfiguration.from_csv(cfg.to_csv())
        assert back.params == cfg.params
        assert back.seed == cfg.seed
        assert np.array_equal(back.u, cfg.u)

    def test_json_round_trip(self):
        cfg = ens.sample_configuration(CANON, 5, stream=3)
        back = RadialConfiguration.from_json(cfg.to_json())
        assert back.params == cfg.params
        assert back.stream == 3
        assert np.array_equal(back.u, cfg.u)
