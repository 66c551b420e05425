import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc, gammaincinv, gammaln

from hardedge import ensemble as ens
from hardedge import process as proc
from hardedge.ensemble import EnsembleParams
from hardedge.process import mean_exact, statistic_paths
from hardedge.process import TestFunction as PhiFunction
from hardedge.special_functions import log_reg_lower_gamma

CANON = EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=100)


def brute_value(u, weights, t):
    return float(np.sum(weights[np.asarray(u) <= t]))


def brute_hitting(locations, cumulative, h):
    for loc, c in zip(locations, cumulative):
        if c > h:
            return loc
    return math.inf


def mean_exact_counting(params: EnsembleParams, t) -> float:
    """(1/n) sum_j Prob[U_j <= t]: independent closed-ish form for phi = 1."""
    j = np.arange(1, params.n + 1)
    return float(np.mean(ens.cdf_u(params, j, float(t))))


def tail_cutoff_oracle(params: EnsembleParams, eps: float) -> float:
    """The 1 - eps quantile of U_1, inverting P(s_1, y) = eps P(s_1, c) in linear space."""
    s1 = (1.0 + params.alpha) / params.b
    y = gammaincinv(s1, eps * gammainc(s1, params.c))
    return (math.log(params.c) - math.log(y)) / params.beta


def exp_decay_mean_oracle(params: EnsembleParams, lam: float, t: float) -> float:
    """E S(t) for phi = exp_decay(lam) with no quadrature.  X = c e^{-beta U}
    is Gamma(s_j) truncated at c, so with q = lam/beta, E e^{-lam U_j} 1[U_j
    <= t] = c^-q Gamma(s_j + q)/Gamma(s_j) [P(s_j + q, c) - P(s_j + q, c
    e^{-beta t})]/P(s_j, c), in log space (linear P underflows at high j)."""
    s, c = params.shapes(), params.c
    q = lam / params.beta
    log_p = log_reg_lower_gamma(s + q, c)
    log_p_t = log_reg_lower_gamma(s + q, c * math.exp(-params.beta * t))
    log_terms = (gammaln(s + q) - gammaln(s) - q * math.log(c) + log_p
                 + np.log1p(-np.exp(log_p_t - log_p)) - log_reg_lower_gamma(s, c))
    return float(np.mean(np.exp(log_terms)))


# t = inf sets: n = 50, alpha -> -1 (s_1 = 0.001), and the sets the sampler tests spread over
MEAN_AT_INF_SETS = [
    EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=50),
    EnsembleParams(alpha=-0.999, b=1.0, rho=0.5, n=3),
    EnsembleParams(alpha=-0.9, b=0.5, rho=0.9, n=1000),
    EnsembleParams(alpha=3.0, b=3.0, rho=0.8, n=500),
    EnsembleParams(alpha=-0.5, b=2.0, rho=0.6, n=50),
    EnsembleParams(alpha=1.0, b=1.0, rho=0.1, n=10_000),
    EnsembleParams(alpha=0.5, b=0.5, rho=0.3, n=2000),
]


def staircase(locations, increments):
    """One configuration at ``locations`` (reversed, so the sort matters) and
    a positive phi that gives the particle at locations[k] the weight
    increments[k], as (u, phi, w) with w the weights phi(u)/n in location
    order."""
    locations = np.asarray(locations, dtype=float)
    scaled = len(locations) * np.asarray(increments, dtype=float)
    phi = PhiFunction(fn=lambda x: scaled[np.searchsorted(locations, x)],
                      bound=float(scaled.max()), positive=True, name="staircase")
    return locations[None, ::-1].copy(), phi, phi(locations) / len(locations)


class TestTestFunctions:
    def test_builtins(self):
        one = proc.phi_one()
        assert one.positive and one.bound == 1.0 and one.derivative_bound == 0.0
        assert np.all(one(np.array([0.0, 3.0])) == 1.0)
        exp_d = proc.phi_exp_decay(0.5)
        assert exp_d(np.array([2.0]))[0] == pytest.approx(math.exp(-1.0))
        rat = proc.phi_rational()
        assert rat(np.array([1.0]))[0] == pytest.approx(0.5)

    def test_table_phi(self):
        tab = proc.phi_from_table([0.0, 1.0, 2.0], [1.0, 3.0, 2.0])
        assert tab(np.array([0.5]))[0] == pytest.approx(2.0)
        assert tab(np.array([10.0]))[0] == pytest.approx(2.0)  # constant past the knots
        assert tab.bound == 3.0
        assert tab.derivative_bound == 2.0

    def test_table_validation(self):
        with pytest.raises(ValueError):
            proc.phi_from_table([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            proc.phi_from_table([0.0, 1.0], [1.0, -1.0])  # not positive


class TestBuildStatistic:
    def test_counting_normalization(self):
        u = ens.sample_batch(CANON, 3, [0])
        S, S_inf, _ = statistic_paths(u, proc.phi_one(), [math.inf])
        assert S[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert S_inf[0] == pytest.approx(1.0, abs=1e-12)

    def test_tiny_example_with_ties(self):
        # u = {1, 2, 2}, phi(x) = x: S(1.5) = 1/3, S(2) = (1+2+2)/3 = 5/3; the
        # tie is one jump, so a level between its two partial sums hits at 2
        phi = PhiFunction(fn=lambda x: x, bound=10.0, positive=True, name="identity")
        S, S_inf, Q = statistic_paths(np.array([[2.0, 1.0, 2.0]]), phi, [1.5, 2.0],
                                      levels=[0.5, 1.0, 1.2])
        assert S[0] == pytest.approx([1.0 / 3.0, 5.0 / 3.0])
        assert S_inf[0] == pytest.approx(5.0 / 3.0)
        assert np.array_equal(Q[0], [2.0, 2.0, 2.0])

    def test_matches_brute_force_summation(self):
        rng = np.random.default_rng(1)
        u = rng.uniform(0, 10, size=(3, 37))
        phi = proc.phi_exp_decay(0.3)
        grid = np.sort(rng.uniform(-1, 12, size=25))
        S = statistic_paths(u, phi, grid)[0]
        for row, path in zip(u, S):
            w = phi(row) / 37
            for t, value in zip(grid, path):
                assert value == pytest.approx(brute_value(row, w, t), abs=1e-14)

    def test_jump_bound(self):
        u = ens.sample_batch(CANON, 4, [0])
        phi = proc.phi_exp_decay(1.0)
        # the grid holds every particle, so each step of S is one jump
        S = statistic_paths(u, phi, np.sort(u[0]))[0][0]
        assert np.max(np.abs(np.diff(S, prepend=0.0))) <= phi.bound / CANON.n + 1e-15


class TestValueSemantics:
    def test_before_first_jump(self):
        S = statistic_paths(np.array([[2.0, 1.0]]), proc.phi_one(), [0.0, 0.999])[0]
        assert np.array_equal(S[0], [0.0, 0.0])

    def test_right_continuity_at_jump(self):
        S = statistic_paths(np.array([[2.0, 1.0]]), proc.phi_one(), [1.0, 2.0])[0]
        assert np.array_equal(S[0], [0.5, 1.0])

    def test_repeated_grid_points(self):
        S = statistic_paths(np.array([[2.0, 1.0]]), proc.phi_one(), [1.0, 1.0, 2.0, 2.0])[0]
        assert np.array_equal(S[0], [0.5, 0.5, 1.0, 1.0])


class TestStatisticPathsInput:
    @pytest.mark.parametrize("grid", [[2.0, 1.0], [1.0, math.nan], [math.nan]])
    def test_bad_grid_raises(self, grid):
        with pytest.raises(ValueError, match="grid"):
            statistic_paths(np.array([[1.0, 2.0]]), proc.phi_one(), grid)

    @pytest.mark.parametrize("level", [math.nan, -0.1])
    def test_bad_level_raises(self, level):
        with pytest.raises(ValueError, match="levels"):
            statistic_paths(np.array([[1.0, 2.0]]), proc.phi_one(), [1.0], levels=[0.2, level])

    @pytest.mark.parametrize("bad", [math.nan, -1e-300])
    def test_bad_coordinate_raises(self, bad):
        with pytest.raises(ValueError, match="coordinates"):
            statistic_paths(np.array([[1.0, 2.0], [0.5, bad]]), proc.phi_one(), [1.0])

    def test_needs_two_axes(self):
        with pytest.raises(ValueError, match="shape"):
            statistic_paths(np.array([1.0, 2.0]), proc.phi_one(), [1.0])

    def test_rows_sorted_in_place_only_with_levels(self):
        u = ens.sample_batch(CANON, 5, range(3))
        before = u.copy()
        statistic_paths(u, proc.phi_one(), [1.0, 2.0])
        assert np.array_equal(u, before)
        statistic_paths(u, proc.phi_one(), [1.0, 2.0], levels=[0.3])
        assert np.array_equal(u, np.sort(before, axis=1))


class TestHittingTime:
    def test_single_jump(self):
        u, phi, _ = staircase([3.0], [0.25])
        Q = statistic_paths(u, phi, [], levels=[0.1, 0.25, 0.3])[2][0]
        # strict inequality at the boundary: S never exceeds its total mass
        assert np.array_equal(Q, [3.0, math.inf, math.inf])

    def test_level_zero(self):
        Q = statistic_paths(np.array([[1.5, 0.7]]), proc.phi_one(), [], levels=[0.0])[2]
        assert Q[0, 0] == 0.7

    def test_requires_monotone(self):
        phi = PhiFunction(fn=lambda x: -x, bound=10.0, positive=False, name="negative")
        with pytest.raises(ValueError, match="positive phi"):
            statistic_paths(np.array([[1.0]]), phi, [], levels=[0.1])

    @settings(max_examples=80, deadline=None)
    @given(
        locs=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1,
                      max_size=30, unique=True),
        incs=st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=30, max_size=30),
        h=st.floats(min_value=0.0, max_value=12.0),
    )
    def test_matches_linear_scan(self, locs, incs, h):
        locs = np.sort(np.asarray(locs))
        u, phi, w = staircase(locs, incs[: len(locs)])
        Q = statistic_paths(u, phi, [], levels=[h])[2]
        assert Q[0, 0] == brute_hitting(locs, np.cumsum(w), h)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        h=st.floats(min_value=0.0, max_value=0.95),
    )
    def test_galois_property(self, seed, h):
        # for finite Q(h): S(Q(h)) > h and S(s) <= h strictly before Q(h)
        rng = np.random.default_rng(seed)
        m = rng.integers(1, 20)
        locs = np.unique(rng.uniform(0, 10, size=m))
        u, phi, _ = staircase(locs, rng.uniform(0.01, 0.2, size=len(locs)))
        q = statistic_paths(u, phi, [], levels=[h])[2][0, 0]
        if math.isfinite(q):
            S = statistic_paths(u, phi, [q - 1e-9, q])[0][0]
            assert S[1] > h
            if q - 1e-9 >= 0:
                assert S[0] <= h

    def test_hitting_map_right_continuous_nondecreasing(self):
        u, phi, _ = staircase([1.0, 2.0, 5.0], [0.3, 0.3, 0.4])
        hs = np.linspace(0, 1.2, 200)
        qs = statistic_paths(u, phi, [], levels=hs)[2][0]
        assert np.all(np.diff(qs[np.isfinite(qs)]) >= 0)
        # right continuity: Q(h) == lim Q(h + eps)
        for h in (0.1, 0.3, 0.6):
            q = statistic_paths(u, phi, [], levels=[h, h + 1e-12])[2][0]
            assert q[0] == q[1]


class TestMeanExact:
    def test_zero_time(self):
        assert mean_exact(CANON, proc.phi_one(), 0.0) == 0.0

    def test_total_probability(self):
        # at alpha = -0.999 the 1 - 1e-14 quantile of U_1 has y = c e^{-beta T}
        # near e^-32000, far below the smallest double
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in MEAN_AT_INF_SETS:
                assert mean_exact(p, proc.phi_one(), math.inf) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("params", [
        EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=500),
        EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=100_000),
        EnsembleParams(alpha=-0.9, b=0.5, rho=0.5, n=200),
        EnsembleParams(alpha=1.0, b=3.0, rho=0.6, n=300),
    ], ids=lambda p: f"a{p.alpha:g}-b{p.b:g}-n{p.n}")
    def test_tail_cutoff_matches_quantile(self, params):
        # at eps = 1e-14 the bound P(s, y) <= y^s / Gamma(s + 1) is tight to
        # O(y), far below double precision
        assert proc._tail_cutoff(params, 1e-14) == pytest.approx(
            tail_cutoff_oracle(params, 1e-14), rel=1e-15, abs=0.0)

    def test_tail_cutoff_near_alpha_minus_one(self):
        # U_1 has shape s_1 = 0.001: the quantile is 72 532.85, where y underflows
        params = EnsembleParams(alpha=-0.999, b=1.0, rho=0.5, n=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert proc._tail_cutoff(params, 1e-14) == pytest.approx(72532.85, abs=0.01)

    @pytest.mark.parametrize("n", [500, 5000])
    @pytest.mark.parametrize("t", [2.0, 1e4, math.inf])
    def test_exp_decay_against_closed_form(self, n, t):
        # at t = inf one rule on [0, T] (T = 13 899 at n = 500) put every node
        # where the integrand underflows, and 9.1e-15 was accepted for 0.2330
        p = EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=n)
        assert mean_exact(p, proc.phi_exp_decay(1.0), t) == pytest.approx(
            exp_decay_mean_oracle(p, 1.0, t), rel=1e-11, abs=0.0)

    def test_grid_matches_points(self):
        p = EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=300)
        grid = np.array([math.inf, 2.0, 0.0, 0.5, 2.0])
        got = mean_exact(p, proc.phi_rational(), grid)
        assert got.shape == grid.shape
        assert got[2] == 0.0 and got[1] == got[4]
        for g, t in zip(got, grid):
            assert g == pytest.approx(mean_exact(p, proc.phi_rational(), t), rel=1e-12, abs=0.0)
        assert mean_exact(p, proc.phi_one(), np.array([])).shape == (0,)
        for bad in (-1.0, math.nan, [[1.0]]):
            with pytest.raises(ValueError):
                mean_exact(p, proc.phi_one(), bad)

    def test_counting_cross_check(self):
        # two independent computation paths: per-particle quadrature vs CDF sum
        p = EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=50)
        for t in (0.5, 2.0, 9.0):
            assert mean_exact(p, proc.phi_one(), t) == pytest.approx(
                mean_exact_counting(p, t), abs=1e-9
            )

    def test_interleaved_blocks_match_one_block(self, monkeypatch):
        p = EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=500)
        for t in (2.0, math.inf):
            whole = mean_exact(p, proc.phi_rational(), t)
            with monkeypatch.context() as m:
                m.setattr(proc, "_MEAN_BLOCK", 64)  # 8 blocks, the last one short
                assert mean_exact(p, proc.phi_rational(), t) == pytest.approx(
                    whole, rel=1e-13, abs=0.0)
        with monkeypatch.context() as m:
            m.setattr(proc, "_MEAN_BLOCK", 64)
            assert mean_exact(p, proc.phi_one(), 2.0) == pytest.approx(
                mean_exact_counting(p, 2.0), abs=1e-9)

    @pytest.mark.parametrize("lo, hi", [(1500.0, 1600.0), (8000.0, 9000.0), (2e4, 3e4)])
    def test_skipped_particles_underflow(self, lo, hi, density_u):
        # particles left unevaluated are exactly those whose density underflows
        # to 0 at every node; the others match density_u (u_scale = 1500 here)
        p = EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=2000)
        phi = proc.phi_rational()
        x = np.linspace(lo, hi, 42)
        got = proc._weighted_densities(p, phi, p.shapes())(x)
        j = np.arange(1, p.n + 1)
        ref = phi(x)[:, None] * density_u(p, j[None, :], x[:, None])
        assert np.array_equal(got == 0.0, ref == 0.0)
        assert 0 < np.count_nonzero(got.any(axis=0)) < p.n
        assert got == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_unconverged_quadrature_raises(self, monkeypatch):
        # one Gauss-Kronrod rule on [0, 3.9], never subdivided (the gap is too
        # short for a knot): its error estimate is above the tolerance
        monkeypatch.setitem(proc._MEAN_QUAD, "limit", 1)
        p = EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=50)
        with pytest.raises(ArithmeticError, match="quadrature error estimate"):
            mean_exact(p, proc.phi_rational(), 3.9)

    def test_against_monte_carlo(self):
        p = EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=50)
        t, reps = 2.0, 10000
        batch = ens.sample_batch(p, 2024, range(reps))
        s_vals = np.mean(batch <= t, axis=1)
        se = float(np.std(s_vals, ddof=1)) / math.sqrt(reps)
        assert abs(float(np.mean(s_vals)) - mean_exact(p, proc.phi_one(), t)) < 4 * se

    def test_general_phi_at_infinity(self):
        p = EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=30)
        phi = proc.phi_exp_decay(1.0)
        reps = 4000
        batch = ens.sample_batch(p, 77, range(reps))
        s_vals = np.mean(np.exp(-batch), axis=1)
        se = float(np.std(s_vals, ddof=1)) / math.sqrt(reps)
        assert abs(float(np.mean(s_vals)) - mean_exact(p, phi, math.inf)) < 5 * se
