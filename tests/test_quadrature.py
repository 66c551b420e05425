import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

import hardedge
from hardedge.quadrature import cumulative, integrate

OPTS = dict(epsabs=1e-13, epsrel=1e-12, limit=200)


class Counted:
    """An integrand that records the node arrays it is called with."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = []

    def __call__(self, x):
        self.calls.append(np.array(x))
        return self.fn(x)


def _vector(x):
    # shape (nodes, 2, 2): smooth, peaked, oscillating and kinked components
    return np.stack((np.stack((np.exp(-x), 1.0 / (1.0 + 100.0 * (x - 0.3) ** 2)), axis=1),
                     np.stack((np.sin(5.0 * x) ** 2, np.abs(x - 0.7) ** 1.5), axis=1)), axis=1)


def _component(i, k):
    return lambda x: float(_vector(np.array([x]))[0, i, k])


class TestIntegrate:
    def test_vector_components_match_quad(self):
        val = integrate(_vector, 0.0, 2.0, "vector", **OPTS)
        assert val.shape == (2, 2)
        for i in range(2):
            for k in range(2):
                ref = quad(_component(i, k), 0.0, 2.0, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
                assert val[i, k] == pytest.approx(ref, rel=1e-11, abs=1e-13)

    def test_scalar_integrand_on_half_line(self):
        val = integrate(lambda x: 1.0 / (1.0 + x * x), 0.0, math.inf, "arctan", **OPTS)
        assert np.ndim(val) == 0
        assert float(val) == pytest.approx(math.pi / 2.0, rel=1e-12)

    def test_vector_on_half_line_from_nonzero_origin(self):
        def f(x):
            return np.stack((np.exp(-x), x * np.exp(-0.5 * x), 1.0 / (1.0 + x) ** 2), axis=1)

        val = integrate(f, 1.5, math.inf, "tails", **OPTS)
        for k in range(3):
            ref = quad(lambda x: float(f(np.array([x]))[0, k]), 1.5, math.inf,
                       epsabs=1e-14, epsrel=1e-13)[0]
            assert val[k] == pytest.approx(ref, rel=1e-11)
        assert val[0] == pytest.approx(math.exp(-1.5), rel=1e-12)

    def test_empty_interval_is_zero_with_the_integrand_shape(self):
        f = Counted(lambda x: np.ones((len(x), 3)) * x[:, None])
        val = integrate(f, 2.0, 2.0, "empty", epsabs=0.0, epsrel=0.0, limit=1)
        assert val.shape == (3,)
        assert np.array_equal(val, np.zeros(3))

    def test_nodes_of_a_rule_in_one_call(self):
        f = Counted(lambda x: 1.0 / (1.0 + 100.0 * (x - 0.3) ** 2))
        integrate(f, 0.0, 1.0, "peak", **OPTS)
        assert len(f.calls) > 2  # it subdivided
        assert f.calls[0].shape == (21,)
        # every later call evaluates both halves of one bisection
        assert all(x.shape == (42,) for x in f.calls[1:])
        assert all(((x > 0.0) & (x < 1.0)).all() for x in f.calls)

    def test_limit_raises_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match="sqrt"):
                integrate(np.sqrt, 0.0, 1.0, "sqrt", epsabs=1e-14, epsrel=0.0, limit=1)
            # the same integrand converges when it may subdivide
            assert integrate(np.sqrt, 0.0, 1.0, "sqrt", epsabs=1e-12, epsrel=0.0,
                             limit=300) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_tolerance_below_rounding_raises_at_once(self):
        # 50 eps int |f| bounds the estimate from below, so no subdivision helps
        f = Counted(np.exp)
        with pytest.raises(ArithmeticError):
            integrate(f, 0.0, 1.0, "rounding", epsabs=1e-20, epsrel=0.0, limit=10_000)
        assert len(f.calls) == 1

    def test_max_norm_tolerance(self):
        # the small component alone would not need a split; the max norm is
        # taken over components, so the relative tolerance follows the large one
        def f(x):
            return np.stack((1e6 * np.exp(-x), 1e-9 * np.cos(40.0 * x)), axis=1)

        val = integrate(f, 0.0, 1.0, "scaled", epsabs=0.0, epsrel=1e-12, limit=200)
        assert val[0] == pytest.approx(1e6 * -math.expm1(-1.0), rel=1e-12)
        assert abs(val[1] - 1e-9 * math.sin(40.0) / 40.0) <= 1e-12 * 1e6

    def test_non_finite_integrand_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError):
                integrate(lambda x: np.where(x > 0.5, np.inf, 1.0), 0.0, 1.0, "inf", **OPTS)


class TestBatch:
    """Arrays of bounds: every interval on its own heap, one integrand call
    per round."""

    A = np.array([0.0, 0.0, 1.5, 0.2, 2.0, 0.3])
    B = np.array([1.0, math.inf, math.inf, 7.0, 2.0, 0.31])
    # relative only, so a tolerance shared across members would show
    REL = dict(epsabs=0.0, epsrel=1e-12, limit=200)

    @staticmethod
    def _decaying(x):
        return np.stack((np.exp(-x), 1.0 / (1.0 + 100.0 * (x - 0.3) ** 2),
                         np.abs(x - 0.7) ** 1.5 * np.exp(-x)), axis=1)

    def test_members_bit_equal_to_single_runs(self):
        val = integrate(self._decaying, self.A, self.B, "batch", **self.REL)
        assert val.shape == (6, 3)
        for i, (a, b) in enumerate(zip(self.A, self.B)):
            assert np.array_equal(val[i], integrate(self._decaying, a, b, "alone", **self.REL))
        assert val[1, 0] == pytest.approx(1.0, rel=1e-12)  # a +inf member beside finite ones
        assert val[2, 0] == pytest.approx(math.exp(-1.5), rel=1e-12)
        assert np.array_equal(val[4], np.zeros(3))

    def test_tolerance_follows_each_members_own_scale(self):
        # the same peak, e^-30 times smaller on [10, 11]: a tolerance relative
        # to the batch's largest value would stop that member after one rule
        def f(x):
            k = np.floor(x)
            return np.exp(-3.0 * k) / (1.0 + 100.0 * (x - k - 0.3) ** 2)

        val = integrate(f, [0.0, 10.0], [1.0, 11.0], "scales", **self.REL)
        assert val[1] == integrate(f, 10.0, 11.0, "alone", **self.REL)
        assert val[1] == pytest.approx(math.exp(-30.0) * val[0], rel=1e-12)

    def test_bounds_broadcast(self):
        val = integrate(np.exp, np.array([[0.0], [1.0]]), np.array([1.0, 2.0, 3.0]), "grid",
                        **self.REL)
        assert val.shape == (2, 3)
        ref = np.exp(np.array([1.0, 2.0, 3.0])) - np.exp(np.array([[0.0], [1.0]]))
        assert val == pytest.approx(ref, rel=1e-13)

    def test_one_integrand_call_per_round(self):
        alone = []
        for a, b in zip(self.A, self.B):
            f = Counted(self._decaying)
            integrate(f, a, b, "alone", **self.REL)
            alone.append([len(x) // 42 for x in f.calls[1:]])  # bisections per round
        # each member's subinterval limit is its own: the one that needs the
        # most sets it, though the members together hold far more
        f = Counted(self._decaying)
        integrate(f, self.A, self.B, "batch", epsabs=0.0, epsrel=1e-12,
                  limit=1 + max(len(r) for r in alone))
        assert len(f.calls) == 1 + max(len(r) for r in alone)
        assert len(f.calls[0]) == 21 * len(self.A)
        # round r bisects one subinterval of every member still above tolerance
        for r, x in enumerate(f.calls[1:]):
            assert len(x) == 42 * sum(len(s) > r for s in alone)

    def test_member_missing_its_tolerance_raises_naming_it(self):
        # sqrt's endpoint singularity needs many bisections on [0, 1]; the
        # smooth [1, 2] converges at once
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match=r"sqrt on \[0\.0, 1\.0\]"):
                integrate(np.sqrt, [1.0, 0.0], [2.0, 1.0], "sqrt", epsabs=1e-13, epsrel=0.0,
                          limit=3)
            assert integrate(np.sqrt, [1.0], [2.0], "sqrt", epsabs=1e-13, epsrel=0.0,
                             limit=3) == pytest.approx([(2.0 ** 1.5 - 1.0) / 1.5], rel=1e-14)


class TestCumulative:
    """int_0^t at many t from one batched pass over the gaps."""

    def test_narrow_integrand_on_a_long_gap(self):
        # one rule on [0, 13 899] has its lowest node at 30, where this peak
        # has underflowed: without the knots it reads as about 0
        def peak(x):
            return np.exp(-((x - 10.0) ** 2))

        t = np.array([13899.0, 5.0, math.inf, 0.0, 5.0])
        half = 0.5 * math.sqrt(math.pi)
        ref = [half * (math.erf(v - 10.0) + math.erf(10.0)) for v in (13899.0, 5.0)]
        assert cumulative(peak, t, "peak", **OPTS) == pytest.approx(
            [ref[0], ref[1], ref[0], 0.0, ref[1]], rel=1e-12, abs=1e-13)

    @pytest.mark.parametrize("points, gaps", [
        ([0.1, 0.3, 1.0, 3.0, 10.0], 5),  # a logspace grid: within a factor 4
        ([4.0], 1),
        ([4.5], 4),                        # (0, 4.5] takes the knots 1, 2, 4
        ([2.0, math.inf], 2),
        ([1.0, 1e6], 21),                  # (1, 1e6] takes the knots 2, ..., 2^19
    ])
    def test_knots_split_only_wide_gaps(self, points, gaps):
        f = Counted(lambda x: np.exp(-x))
        cumulative(f, points, "exp", **OPTS)
        assert len(f.calls[0]) == 21 * gaps

    def test_invalid_points(self):
        for points in ([-0.1], [math.nan], [[1.0]]):
            with pytest.raises(ValueError):
                cumulative(np.exp, points, "exp", **OPTS)


def test_import_leaves_out_scipy_integrate_and_optimize():
    src = os.path.dirname(os.path.dirname(hardedge.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, hardedge; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
