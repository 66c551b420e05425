import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import roots_legendre

from hardedge import limit_law as ll
from hardedge import process as proc
from hardedge.ensemble import EnsembleParams
from hardedge.limit_law import LimitLaw, omega1, omega2
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
        assert np.array_equal(law.moments([0.0]), [[0.0], [0.0]])

    def test_long_finite_gap(self):
        # one rule on [1, 1e6] saw none of the mass near 1 and missed 0.047 of m1
        law = LimitLaw(EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=500), proc.phi_exp_decay(1.0))
        assert law.moments([1.0, 1e6])[0, 1] == pytest.approx(law.m1(math.inf), abs=1e-10)

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

    def test_invalid_points(self):
        law = LimitLaw(CANON, proc.phi_one())
        for points in ([-0.1], [np.nan], [[1.0]]):
            with pytest.raises(ValueError):
                law.moments(points)

    @pytest.mark.parametrize("call, shape", [
        (lambda law: law.moments([]), (2, 0)),
        (lambda law: law.m1(np.array([])), (0,)),
        (lambda law: law.gram_statistic([]), (0, 0)),
        (lambda law: law.hitting([]).gram, (0, 0)),
    ], ids=["moments", "m1", "gram_statistic", "hitting"])
    def test_empty_batch(self, call, shape):
        assert call(LimitLaw(CANON, proc.phi_one())).shape == shape

    def test_unconverged_quadrature_raises(self, monkeypatch):
        # QUADPACK stops at one subinterval with its estimate above tolerance
        monkeypatch.setitem(ll._QUAD_OPTS, "limit", 1)
        law = LimitLaw(CANON, proc.phi_rational())
        with pytest.raises(ArithmeticError):
            law.m1(math.inf)

    @pytest.mark.parametrize("points", [[0.5, 2.0], [1e-3, 30.0, 2e4], [1.0, math.inf]])
    def test_mass_check_catches_a_perturbed_omega1(self, monkeypatch, points):
        # the pass integrates omega1 beside phi omega1 and phi^2 omega1 and
        # checks it against 1 + expm1(-t)/t at the largest point (1 at inf)
        law = LimitLaw(CANON, proc.phi_rational())
        law.moments(points)
        inner = LimitLaw._moment_integrand

        def perturbed(self, x):
            out = inner(self, x)
            out[:, 2] *= 1.0 + 1e-9
            return out

        monkeypatch.setattr(LimitLaw, "_moment_integrand", perturbed)
        with pytest.raises(ArithmeticError, match="omega1 integrates to"):
            law.moments(points)


def _m12(law, t1, t2):
    """m12(t1, t2) = m2(t1 ^ t2) - cov(t1, t2), the cov read off the Gram
    matrix over (t1, t2) in that order."""
    return law.moments([min(t1, t2)])[1, 0] - law.gram_statistic([t1, t2])[0, 1]


class TestM12:
    def test_degenerate_edges(self):
        law = LimitLaw(CANON, proc.phi_one())
        assert _m12(law, 0.0, 5.0) == 0.0
        assert _m12(law, 5.0, 0.0) == 0.0

    def test_exact_symmetry(self):
        law = LimitLaw(CANON, proc.phi_exp_decay(0.7))
        assert _m12(law, 1.3, 2.9) == _m12(law, 2.9, 1.3)

    def test_counting_reduction_oracle(self):
        # for phi = 1, m12(t, t) = kappa * int_0^1 (1 - e^{-st})^2 ds
        law = LimitLaw(CANON, proc.phi_one())
        t = 1.0
        ref = CANON.kappa * quad(lambda s: (-math.expm1(-s * t)) ** 2, 0.0, 1.0,
                                 epsabs=1e-13)[0]
        assert _m12(law, t, t) == pytest.approx(ref, abs=1e-9)


class TestCovariance:
    def test_vanishes_at_origin(self):
        law = LimitLaw(CANON, proc.phi_one())
        assert law.gram_statistic([0.0, 3.0])[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_nonnegative(self):
        law = LimitLaw(CANON, proc.phi_exp_decay(1.0))
        assert np.all(np.diag(law.gram_statistic([0.25, 1.0, 4.0, 16.0])) >= -1e-12)

    def test_long_finite_gap(self):
        # the rate table on (1, 1e12] was off by 0.15 from t = +inf
        law = LimitLaw(EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=500), proc.phi_one())
        assert law.gram_statistic([1.0, 1e12]) == pytest.approx(
            law.gram_statistic([1.0, math.inf]), rel=0.0, abs=1e-12)

    def test_gram_psd_and_cauchy_schwarz(self):
        law = LimitLaw(CANON, proc.phi_one())
        grid = np.array([0.5, 1.0, 2.0, 4.0])
        gram = law.gram_statistic(grid)
        assert np.min(np.linalg.eigvalsh(gram)) >= -1e-10
        for i in range(4):
            for j in range(4):
                assert gram[i, j] <= math.sqrt(gram[i, i] * gram[j, j]) + 1e-9


def _counting_mean_mp(t, kappa):
    """phi = 1: m1(t) = m2(t) = kappa (1 - (1 - e^{-t})/t), in mpmath (the
    float form loses digits below t ~ 1e-4)."""
    return kappa if t == mp.inf else kappa * (1 - (1 - mp.exp(-t)) / t)


class TestCountingOracle:
    """phi = 1 against its closed form at 30 digits."""

    def test_moments_on_unsorted_grid_with_repeats_and_inf(self):
        law = LimitLaw(CANON, proc.phi_one())
        grid = np.array([3.0, 1e-6, 0.5, np.inf, 1e-3, 3.0, 40.0, 0.5, 1e4, 0.0])
        with mp.workdps(30):
            kappa = mp.mpf(CANON.kappa)
            ref = np.array([float(_counting_mean_mp(mp.mpf(float(t)), kappa)) if t > 0 else 0.0
                            for t in grid])
        m1, m2 = law.moments(grid)
        assert np.array_equal(m1, law.m1(grid))
        assert m1 == pytest.approx(ref, rel=1e-12, abs=0.0)
        assert m2 == pytest.approx(ref, rel=1e-12, abs=0.0)
        assert m1[1] == law.m1(1e-6)
        assert m1[0] == m1[5] and m2[2] == m2[7]

    def test_tau_against_findroot(self):
        law = LimitLaw(CANON, proc.phi_one())
        levels = law.mass_limit * np.array([1e-6, 0.01, 0.2, 0.5, 0.9, 0.99])
        tau = law.tau(levels)
        with mp.workdps(30):
            kappa = mp.mpf(CANON.kappa)
            ref = [float(mp.findroot(lambda t: _counting_mean_mp(t, kappa) - mp.mpf(float(h)),
                                     mp.mpf(float(t0))))
                   for h, t0 in zip(levels, tau)]
        assert tau == pytest.approx(ref, rel=1e-12, abs=0.0)
        assert np.array_equal(tau, [law.tau(h) for h in levels])


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
        assert law.hitting([0.0]).tau_prime[0] == pytest.approx(2.0 / CANON.kappa,
                                                               rel=1e-10, abs=0.0)

    def test_tau_prime_matches_finite_differences(self):
        law = LimitLaw(CANON, proc.phi_exp_decay(0.5))
        L = law.mass_limit
        eps = 1e-6
        levels = (0.2 * L, 0.5 * L, 0.8 * L)
        for h, tau_prime in zip(levels, law.hitting(levels).tau_prime):
            fd = (law.tau(h + eps) - law.tau(h - eps)) / (2 * eps)
            assert tau_prime == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_tau_prime_positive(self):
        law = LimitLaw(CANON, proc.phi_one())
        assert np.all(law.hitting(law.mass_limit * np.array([0.1, 0.3, 0.6])).tau_prime > 0.0)

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
        assert law.hitting([0.0, 0.3]).gram[0, 1] == pytest.approx(0.0, abs=1e-10)

    def test_symmetry_and_psd(self):
        law = LimitLaw(CANON, proc.phi_one())
        levels = CANON.kappa * np.array([0.1, 0.3, 0.5])
        gram = law.hitting(levels).gram
        assert np.allclose(gram, gram.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(gram)) >= -1e-10

    def test_hitting_solves_each_level_once(self, monkeypatch):
        # one vector tau solve and one rate table for all levels and times;
        # every entry matches its own 2-point Gram matrix
        law = LimitLaw(CANON, proc.phi_rational())
        levels = law.mass_limit * np.array([0.1, 0.4, 0.8])
        times = [0.5, 3.0]
        solves, tables = [], []
        tau, rate_table = LimitLaw.tau, LimitLaw._rate_table
        monkeypatch.setattr(LimitLaw, "tau", lambda self, h: solves.append(h) or tau(self, h))
        monkeypatch.setattr(LimitLaw, "_rate_table",
                            lambda self, p: tables.append(p) or rate_table(self, p))
        hit = law.hitting(levels, times)
        assert len(solves) == 1 and np.array_equal(solves[0], levels)
        assert len(tables) == 1
        monkeypatch.undo()
        assert np.array_equal(hit.tau, [law.tau(h) for h in levels])
        assert np.array_equal(hit.tau_prime, 1.0 / (law.kappa * law.phi(hit.tau) * omega1(hit.tau)))
        d = hit.tau_prime
        cross = [[-law.gram_statistic([t, th])[0, 1] * dk for th, dk in zip(hit.tau, d)]
                 for t in times]
        gram = [[da * db * law.gram_statistic([ta, tb])[0, 1] for tb, db in zip(hit.tau, d)]
                for ta, da in zip(hit.tau, d)]
        assert hit.cross == pytest.approx(np.array(cross), rel=0.0, abs=1e-13)
        assert hit.gram == pytest.approx(np.array(gram), rel=0.0, abs=1e-13)
        joint = np.block([[law.gram_statistic(times), hit.cross], [hit.cross.T, hit.gram]])
        assert np.min(np.linalg.eigvalsh(joint)) >= -1e-12 * np.max(np.diag(joint))
        assert law.hitting(levels).cross.shape == (0, len(levels))


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
        # cov(t1, t2) = m2(t1 ^ t2) - m12(t1, t2), with
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
            ref_gram = np.array([[m2[min(i, j)] - m12[i][j] for j in range(7)]
                                 for i in range(7)], dtype=float)
        gram = law.gram_statistic(np.append(grid, np.inf))
        assert gram == pytest.approx(ref_gram, rel=1e-12, abs=0.0)

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
        assert law.gram_statistic([4.0, 0.5])[0, 1] == law.gram_statistic([0.5, 4.0])[0, 1]

    def test_table_error_check_raises(self, monkeypatch):
        # below the integrator's own rounding estimate the tolerance is out of reach
        monkeypatch.setattr(ll, "_TABLE_EPSABS", 1e-20)
        law = LimitLaw(CANON, proc.phi_rational())
        with pytest.raises(ArithmeticError):
            law.gram_statistic([0.5, 2.0])
