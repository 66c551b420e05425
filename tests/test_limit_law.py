import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import roots_legendre

from hardedge import limit_law as ll
from hardedge import process as proc
from hardedge.ensemble import EnsembleParams
from hardedge.limit_law import LimitLaw, omega1, omega2, sample_gaussian_path
from hardedge.process import TestFunction as PhiFunction

CANON = EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=100)

# Frozen with mpmath at 50 digits from the closed forms (e^x-1-x)e^{-x}/x^2
# and 2(e^x-1-x-x^2/2)e^{-x}/x^3, spanning the Taylor radius 1e-5 and
# 0.0645, where a cancelling closed form used to take over.
OMEGA_REF = {
    9.99e-6: (0.4999966700124749792669, 0.3333308358433133156391),
    1.001e-5: (0.4999966633458583123997, 0.333330830843353315472),
    0.001: (0.4996667916333402765875, 0.333083433305561506895),
    0.04: (0.4868645509899138645131, 0.3234915706876129896723),
    0.05: (0.4836417097001161816014, 0.3210798979903670822261),
    0.0644710210732387: (0.4790204098878058244979, 0.3176238872693404404316),
    0.5: (0.3608160417241994583772, 0.2302028474715309863012),
    4.0: (0.05677636284727056865821, 0.02380927170145173925568),
    40.0: (0.0006249999999999998911359, 0.00003124999999999988834794),
    700.0: (0.000002040816326530612244898, 5.830903790087463556851e-9),
    1e6: (1.0e-12, 2.0e-18),
}


def gauss_legendre_integral(f, a, b, order=200):
    nodes, weights = roots_legendre(order)
    x = 0.5 * (b - a) * (nodes + 1.0) + a
    return 0.5 * (b - a) * float(np.sum(weights * f(x)))


class TestOmegas:
    def test_values_at_zero(self):
        assert omega1(0.0) == pytest.approx(0.5, rel=1e-12, abs=0.0)
        assert omega2(0.0) == pytest.approx(1.0 / 3.0, rel=1e-12, abs=0.0)

    def test_against_extended_precision(self):
        for x, (w1, w2) in OMEGA_REF.items():
            assert omega1(x) == pytest.approx(w1, rel=2e-14, abs=0.0)
            assert omega2(x) == pytest.approx(w2, rel=2e-14, abs=0.0)

    def test_omega1_is_probability_density(self):
        total = quad(omega1, 0.0, np.inf, epsabs=1e-12, epsrel=1e-12, limit=300)[0]
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_mixture_identities(self):
        for x in (0.5, 1.0, 4.0):
            q1 = quad(lambda s: s * math.exp(-s * x), 0.0, 1.0, epsabs=1e-14)[0]
            q2 = quad(lambda s: s * s * math.exp(-s * x), 0.0, 1.0, epsabs=1e-14)[0]
            assert omega1(x) == pytest.approx(q1, abs=1e-10)
            assert omega2(x) == pytest.approx(q2, abs=1e-10)

    def test_second_below_first(self):
        x = np.linspace(1e-3, 20.0, 200)
        assert np.all(omega2(x) < omega1(x))

    def test_domain(self):
        with pytest.raises(ValueError):
            omega1(-0.1)


class TestMoments:
    def test_counting_mass(self):
        law = LimitLaw(CANON, proc.phi_one())
        assert law.m1(math.inf) == pytest.approx(CANON.kappa, abs=1e-10)
        assert law.mass_limit == pytest.approx(CANON.kappa, abs=1e-10)

    def test_zero_time(self):
        law = LimitLaw(CANON, proc.phi_one())
        assert law.m_k(1, 0.0) == 0.0
        assert law.m_k(2, 0.0) == 0.0

    def test_dual_quadrature_exp_decay(self):
        law = LimitLaw(CANON, proc.phi_exp_decay(1.0))
        # independent oracle: high-order fixed Gauss-Legendre on [0, T] plus
        # an analytically bounded tail (integrand <= e^{-x} omega1max there)
        T = 60.0
        ref = CANON.kappa * gauss_legendre_integral(
            lambda x: np.exp(-x) * omega1(x), 0.0, T, order=400
        )
        assert law.m1(math.inf) == pytest.approx(ref, abs=1e-9)

    def test_constant_scaling(self):
        two = PhiFunction(fn=lambda x: 2.0 * np.ones_like(x), bound=2.0, positive=True,
                           derivative_bound=0.0, name="two")
        law = LimitLaw(CANON, two)
        assert law.m1(math.inf) == pytest.approx(2.0 * CANON.kappa, abs=1e-9)

    def test_rational_dual_quadrature(self):
        # independent oracle via the swapped integration order:
        # int phi omega1 = int_0^1 s * Laplace(phi)(s) ds
        law = LimitLaw(CANON, proc.phi_rational())

        def inner(s):
            return quad(lambda x: math.exp(-s * x) / (1.0 + x), 0.0, np.inf,
                        epsabs=1e-13, limit=300)[0]

        ref = CANON.kappa * quad(lambda s: s * inner(s), 0.0, 1.0, epsabs=1e-11)[0]
        assert law.m1(math.inf) == pytest.approx(ref, abs=1e-9)

    def test_invalid_k(self):
        law = LimitLaw(CANON, proc.phi_one())
        with pytest.raises(ValueError):
            law.m_k(3, 1.0)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_unconverged_quadrature_raises(self, monkeypatch):
        # QUADPACK stops at one subinterval with its estimate above tolerance
        monkeypatch.setitem(ll._QUAD_OPTS, "limit", 1)
        law = LimitLaw(CANON, proc.phi_rational())
        with pytest.raises(ArithmeticError):
            law.m1(math.inf)


class TestM12:
    def test_degenerate_edges(self):
        law = LimitLaw(CANON, proc.phi_one())
        assert law.m12(0.0, 5.0) == 0.0
        assert law.m12(5.0, 0.0) == 0.0

    def test_exact_symmetry(self):
        law = LimitLaw(CANON, proc.phi_exp_decay(0.7))
        assert law.m12(1.3, 2.9) == law.m12(2.9, 1.3)

    def test_counting_reduction_oracle(self):
        # for phi = 1, m12(t, t) = kappa * int_0^1 (1 - e^{-st})^2 ds
        law = LimitLaw(CANON, proc.phi_one())
        t = 1.0
        ref = CANON.kappa * quad(lambda s: (-math.expm1(-s * t)) ** 2, 0.0, 1.0,
                                 epsabs=1e-13)[0]
        assert law.m12(t, t) == pytest.approx(ref, abs=1e-9)


class TestCovariance:
    def test_vanishes_at_origin(self):
        law = LimitLaw(CANON, proc.phi_one())
        assert law.cov_statistic(0.0, 3.0) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_nonnegative(self):
        law = LimitLaw(CANON, proc.phi_exp_decay(1.0))
        for t in (0.25, 1.0, 4.0, 16.0):
            assert law.cov_statistic(t, t) >= -1e-12

    def test_gram_psd_and_cauchy_schwarz(self):
        law = LimitLaw(CANON, proc.phi_one())
        grid = np.array([0.5, 1.0, 2.0, 4.0])
        gram = law.gram_statistic(grid)
        assert np.min(np.linalg.eigvalsh(gram)) >= -1e-10
        for i in range(4):
            for j in range(4):
                assert gram[i, j] <= math.sqrt(gram[i, i] * gram[j, j]) + 1e-9


class TestTau:
    def test_zero_level(self):
        law = LimitLaw(CANON, proc.phi_one())
        assert law.tau(0.0) == 0.0

    def test_round_trip(self):
        law = LimitLaw(CANON, proc.phi_one())
        for h in np.linspace(0.05, 0.95, 10) * law.mass_limit:
            assert law.m1(law.tau(float(h))) == pytest.approx(float(h), abs=1e-10)

    def test_level_at_or_above_mass_limit(self):
        law = LimitLaw(CANON, proc.phi_one())
        with pytest.raises(ValueError):
            law.tau(law.mass_limit)
        with pytest.raises(ValueError):
            law.tau(law.mass_limit + 0.1)

    def test_tau_prime_closed_form_at_zero(self):
        law = LimitLaw(CANON, proc.phi_one())
        # tau'(0) = 1/(kappa * omega1(0)) = 2/kappa
        assert law.tau_prime(0.0) == pytest.approx(2.0 / CANON.kappa, rel=1e-10, abs=0.0)

    def test_tau_prime_matches_finite_differences(self):
        law = LimitLaw(CANON, proc.phi_exp_decay(0.5))
        L = law.mass_limit
        eps = 1e-6
        for h in (0.2 * L, 0.5 * L, 0.8 * L):
            fd = (law.tau(h + eps) - law.tau(h - eps)) / (2 * eps)
            assert law.tau_prime(h) == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_tau_prime_positive(self):
        law = LimitLaw(CANON, proc.phi_one())
        for h in (0.1, 0.3, 0.6):
            assert law.tau_prime(h * law.mass_limit) > 0.0

    def test_requires_positive_phi(self):
        signed = PhiFunction(fn=lambda x: np.cos(x), bound=1.0, positive=False)
        law = LimitLaw(CANON, signed)
        with pytest.raises(ValueError):
            law.tau(0.1)

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(ll, "_TAU_MAX_ITER", 1)
        law = LimitLaw(CANON, proc.phi_one())
        with pytest.raises(ArithmeticError):
            law.tau(0.3)


class TestHittingCovariance:
    def test_vanishes_at_zero_level(self):
        law = LimitLaw(CANON, proc.phi_one())
        assert law.cov_hitting(0.0, 0.3) == pytest.approx(0.0, abs=1e-10)

    def test_symmetry_and_psd(self):
        law = LimitLaw(CANON, proc.phi_one())
        levels = CANON.kappa * np.array([0.1, 0.3, 0.5])
        gram = law.gram_hitting(levels)
        assert np.allclose(gram, gram.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(gram)) >= -1e-10


class TestGaussianSampling:
    def test_fixed_seed_reproducibility(self):
        law = LimitLaw(CANON, proc.phi_one())
        grid = [0.5, 1.0, 2.0]
        gram = law.gram_statistic(grid)
        g1 = sample_gaussian_path(gram, grid, seed=7)
        g2 = sample_gaussian_path(gram, grid, seed=7)
        assert np.array_equal(g1.values, g2.values)
        assert np.any(sample_gaussian_path(gram, grid, seed=8).values != g1.values)

    def test_single_point_grid_is_scalar_normal(self):
        law = LimitLaw(CANON, proc.phi_one())
        var = law.cov_statistic(1.0, 1.0)
        gram = law.gram_statistic([1.0])
        draws = np.array([
            sample_gaussian_path(gram, [1.0], seed=3, stream=i).values[0]
            for i in range(4000)
        ])
        assert np.var(draws, ddof=1) == pytest.approx(var, rel=0.15)

    def test_draw_is_cholesky_times_normals(self):
        # the path equals chol(Gram) @ z for the keyed Philox stream; the
        # covariance itself is then verified vectorized below
        law = LimitLaw(CANON, proc.phi_one())
        grid = np.array([0.5, 1.0, 2.0])
        gram = law.gram_statistic(grid)
        chol = np.linalg.cholesky(gram)
        key = np.array([np.uint64(11), np.uint64(4)], dtype=np.uint64)
        z = np.random.Generator(np.random.Philox(key=key)).standard_normal(3)
        got = sample_gaussian_path(gram, grid, seed=11, stream=4)
        assert np.array_equal(got.values, chol @ z)

    def test_empirical_covariance_monte_carlo(self):
        law = LimitLaw(CANON, proc.phi_one())
        grid = np.array([0.5, 1.0, 2.0])
        gram = law.gram_statistic(grid)
        chol = np.linalg.cholesky(gram)
        draws = 100000
        key = np.array([np.uint64(5), np.uint64(0)], dtype=np.uint64)
        z = np.random.Generator(np.random.Philox(key=key)).standard_normal((draws, 3))
        sample = z @ chol.T
        emp = np.cov(sample.T, ddof=1)
        scale = 5.0 * math.sqrt(2.0 / draws)
        for i in range(3):
            for j in range(3):
                entry_scale = math.sqrt(gram[i, i] * gram[j, j])
                assert abs(emp[i, j] - gram[i, j]) <= scale * entry_scale

    def test_jitter_handles_degenerate_grid(self):
        # duplicate-free but perfectly correlated points -> singular Gram
        got = sample_gaussian_path(np.ones((2, 2)), [0.5, 1.0], seed=0)
        assert np.all(np.isfinite(got.values))

    def test_grid_validation(self):
        law = LimitLaw(CANON, proc.phi_one())
        with pytest.raises(ValueError):
            sample_gaussian_path(law.gram_statistic([]), [], seed=0)
        with pytest.raises(ValueError):
            sample_gaussian_path(law.gram_statistic([2.0, 1.0]), [2.0, 1.0], seed=0)

    def test_sample_serialization(self):
        import json as _json
        law = LimitLaw(CANON, proc.phi_one())
        got = sample_gaussian_path(law.gram_statistic([0.5, 1.0]), [0.5, 1.0], seed=2)
        lines = got.to_csv().strip().splitlines()
        assert lines[0] == "t,value"
        assert float(lines[1].split(",")[0]) == 0.5
        payload = _json.loads(got.to_json())
        assert payload["grid"] == [0.5, 1.0]
        assert payload["values"] == [float(v) for v in got.values]


LIMIT_TABLE = EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=500)


def _rational_laplace(k, t, s):
    """s-Laplace transforms of phi^k = (1+x)^-k over [0, t] (mpmath): E1
    differences for k = 1, then integration by parts for k = 2."""
    phi1 = mp.exp(s) * (mp.e1(s) - (0 if t == mp.inf else mp.e1(s * (1 + t))))
    if k == 1:
        return phi1
    return 1 - (0 if t == mp.inf else mp.exp(-s * t) / (1 + t)) - s * phi1


class TestRateMixture:
    """The Gram matrix as a mixture over exponential rates s of Exp(s)
    covariances, checked against closed forms and an mpmath oracle."""

    def test_rational_against_mpmath(self):
        # m2(t) = kappa int_0^1 s Phi_2(t, s) ds and
        # m12(t1, t2) = kappa int_0^1 s^2 Phi_1(t1, s) Phi_1(t2, s) ds
        law = LimitLaw(LIMIT_TABLE, proc.phi_rational())
        grid = np.logspace(-1.0, 1.5, 6)
        with mp.workdps(20):
            kappa = mp.mpf(LIMIT_TABLE.kappa)
            pts = [mp.mpf(float(t)) for t in grid] + [mp.inf]
            m2 = [kappa * mp.quad(lambda s: s * _rational_laplace(2, t, s), [0, 1])
                  for t in pts]
            m12 = [[kappa * mp.quad(lambda s: s * s * _rational_laplace(1, a, s)
                                    * _rational_laplace(1, b, s), [0, 1])
                    for b in pts] for a in pts]
            ref_m12 = np.array(m12, dtype=float)
            ref_gram = np.array([[m2[min(i, j)] - m12[i][j] for j in range(6)]
                                 for i in range(6)], dtype=float)
        gram = law.gram_statistic(grid)
        assert gram == pytest.approx(ref_gram, rel=1e-12, abs=0.0)
        ext = np.append(grid, np.inf)
        got = np.array([[law.m12(a, b) for b in ext] for a in ext])
        assert got == pytest.approx(ref_m12, rel=1e-12, abs=0.0)

    def test_counting_closed_form(self):
        # phi = 1: cov(t1, t2) = kappa [g(t1 v t2) - g(t1 + t2)], g(t) = (1 - e^-t)/t
        law = LimitLaw(LIMIT_TABLE, proc.phi_one())
        t = np.logspace(-2.0, 4.0, 12)

        def g(x):
            return -np.expm1(-x) / x

        ref = LIMIT_TABLE.kappa * (g(np.maximum.outer(t, t)) - g(np.add.outer(t, t)))
        gram = law.gram_statistic(t)
        assert np.max(np.abs(gram - ref)) <= 1e-14 * np.max(np.diag(ref))

    @pytest.mark.parametrize("phi", [
        proc.phi_one(), proc.phi_rational(), proc.phi_exp_decay(0.5),
        proc.phi_from_table([0.0, 1.0, 3.0, 10.0], [1.0, 0.4, 2.0, 0.7]),
    ], ids=["one", "rational", "exp_decay", "table"])
    def test_large_grid_psd_and_symmetric(self, phi):
        law = LimitLaw(LIMIT_TABLE, phi)
        gram = law.gram_statistic(np.logspace(-2.0, 4.0, 64))
        assert np.array_equal(gram, gram.T)
        assert np.min(np.linalg.eigvalsh(gram)) >= -1e-14 * np.max(np.diag(gram))

    def test_unsorted_points_match_sorted(self):
        law = LimitLaw(LIMIT_TABLE, proc.phi_rational())
        grid = np.array([0.5, 1.0, 2.0, 4.0])
        perm = np.array([2, 0, 3, 1])
        gram = law.gram_statistic(grid)
        assert law.gram_statistic(grid[perm]) == pytest.approx(
            gram[np.ix_(perm, perm)], rel=1e-14, abs=0.0)
        assert law.cov_statistic(4.0, 0.5) == law.cov_statistic(0.5, 4.0)

    def test_table_error_check_raises(self, monkeypatch):
        # below quad_vec's own rounding estimate the tolerance is out of reach
        monkeypatch.setattr(ll, "_TABLE_EPSABS", 1e-20)
        law = LimitLaw(CANON, proc.phi_rational())
        with pytest.raises(ArithmeticError):
            law.gram_statistic([0.5, 2.0])
