import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardedge import ensemble as ens
from hardedge import process as proc
from hardedge.ensemble import EnsembleParams, RadialConfiguration
from hardedge.process import StepProcess, build_statistic, mean_exact
from hardedge.process import TestFunction as PhiFunction

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


def make_config(u, params=None):
    u = np.asarray(u, dtype=float)
    params = params or EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=len(u))
    return RadialConfiguration(u=u, params=params, seed=0)


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
        cfg = ens.sample_configuration(CANON, 3)
        sp = build_statistic(cfg, proc.phi_one())
        assert sp.value(math.inf) == pytest.approx(1.0, abs=1e-12)

    def test_tiny_example_with_ties(self):
        # u = {1, 2, 2}, phi(x) = x: S(1.5) = 1/3, S(2) = (1+2+2)/3 = 5/3
        cfg = make_config([1.0, 2.0, 2.0])
        phi = PhiFunction(fn=lambda x: x, bound=10.0, positive=False, name="identity")
        sp = build_statistic(cfg, phi)
        assert sp.value(1.5) == pytest.approx(1.0 / 3.0)
        assert sp.value(2.0) == pytest.approx(5.0 / 3.0)
        assert len(sp.locations) == 2  # the tie is merged

    def test_matches_brute_force_summation(self):
        rng = np.random.default_rng(1)
        u = rng.uniform(0, 10, size=37)
        cfg = make_config(u, EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=37))
        phi = proc.phi_exp_decay(0.3)
        sp = build_statistic(cfg, phi)
        w = phi(u) / 37
        for t in rng.uniform(-1, 12, size=25):
            assert sp.value(float(t)) == pytest.approx(brute_value(u, w, t), abs=1e-14)

    def test_jump_bound(self):
        cfg = ens.sample_configuration(CANON, 4)
        phi = proc.phi_exp_decay(1.0)
        sp = build_statistic(cfg, phi)
        assert np.max(np.abs(sp.increments)) <= phi.bound / CANON.n + 1e-15


class TestValueSemantics:
    def test_before_first_jump(self):
        sp = StepProcess(locations=np.array([1.0, 2.0]), increments=np.array([0.5, 0.5]),
                         nondecreasing=True)
        assert sp.value(0.0) == 0.0
        assert sp.value(0.999) == 0.0

    def test_right_continuity_at_jump(self):
        sp = StepProcess(locations=np.array([1.0, 2.0]), increments=np.array([0.5, 0.5]),
                         nondecreasing=True)
        assert sp.value(1.0) == 0.5
        assert sp.value(2.0) == 1.0


class TestHittingTime:
    def test_single_jump(self):
        sp = StepProcess(locations=np.array([3.0]), increments=np.array([0.25]),
                         nondecreasing=True)
        assert sp.hitting_time(0.1) == 3.0
        assert sp.hitting_time(0.25) == math.inf  # strict inequality at the boundary
        assert sp.hitting_time(0.3) == math.inf

    def test_level_zero(self):
        sp = StepProcess(locations=np.array([0.7, 1.5]), increments=np.array([0.2, 0.2]),
                         nondecreasing=True)
        assert sp.hitting_time(0.0) == 0.7

    def test_requires_monotone(self):
        sp = StepProcess(locations=np.array([1.0]), increments=np.array([-0.5]),
                         nondecreasing=False)
        with pytest.raises(ValueError):
            sp.hitting_time(0.1)

    @settings(max_examples=80, deadline=None)
    @given(
        locs=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1,
                      max_size=30, unique=True),
        incs=st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=30, max_size=30),
        h=st.floats(min_value=0.0, max_value=12.0),
    )
    def test_matches_linear_scan(self, locs, incs, h):
        locs = np.sort(np.asarray(locs))
        incs = np.asarray(incs[: len(locs)])
        sp = StepProcess(locations=locs, increments=incs, nondecreasing=True)
        assert sp.hitting_time(h) == brute_hitting(locs, np.cumsum(incs), h)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        h=st.floats(min_value=0.0, max_value=0.95),
    )
    def test_galois_property(self, seed, h):
        # for finite Q(h): S(Q(h)) > h and S(s) <= h strictly before Q(h)
        rng = np.random.default_rng(seed)
        m = rng.integers(1, 20)
        locs = np.sort(rng.uniform(0, 10, size=m))
        locs = np.unique(locs)
        incs = rng.uniform(0.01, 0.2, size=len(locs))
        sp = StepProcess(locations=locs, increments=incs, nondecreasing=True)
        q = sp.hitting_time(h)
        if math.isfinite(q):
            assert sp.value(q) > h
            before = q - 1e-9
            if before >= 0:
                assert sp.value(before) <= h

    def test_hitting_map_right_continuous_nondecreasing(self):
        sp = StepProcess(locations=np.array([1.0, 2.0, 5.0]),
                         increments=np.array([0.3, 0.3, 0.4]), nondecreasing=True)
        hs = np.linspace(0, 1.2, 200)
        qs = sp.hitting_time(hs)
        assert np.all(np.diff(qs[np.isfinite(qs)]) >= 0)
        # right continuity: Q(h) == lim Q(h + eps)
        for h in (0.1, 0.3, 0.6):
            assert sp.hitting_time(h) == sp.hitting_time(h + 1e-12)


class TestMeanExact:
    def test_zero_time(self):
        assert mean_exact(CANON, proc.phi_one(), 0.0) == 0.0

    def test_total_probability(self):
        p = EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=50)
        assert mean_exact(p, proc.phi_one(), math.inf) == pytest.approx(1.0, abs=1e-8)

    def test_counting_cross_check(self):
        # two independent computation paths: per-particle quadrature vs CDF sum
        p = EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=50)
        for t in (0.5, 2.0, 9.0):
            assert mean_exact(p, proc.phi_one(), t) == pytest.approx(
                mean_exact_counting(p, t), abs=1e-9
            )

    def test_unconverged_quadrature_raises(self, monkeypatch):
        # one Gauss-Kronrod rule over the whole truncated half-line, never
        # subdivided: its error estimate is far above the tolerance
        monkeypatch.setitem(proc._MEAN_QUAD, "limit", 1)
        p = EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=50)
        with pytest.raises(ArithmeticError):
            mean_exact(p, proc.phi_one(), math.inf)

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


class TestExport:
    def test_csv_pairs(self):
        sp = StepProcess(locations=np.array([1.0, 2.5]), increments=np.array([0.5, 0.25]),
                         nondecreasing=True)
        lines = sp.to_csv().strip().splitlines()
        assert lines[0] == "location,value"
        assert lines[1] == "1.0,0.5"
        assert lines[2] == "2.5,0.75"
