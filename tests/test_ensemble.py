import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammainc, gammaln

from hardedge import ensemble as ens
from hardedge.ensemble import EnsembleParams
from hardedge.limit_law import omega1
from hardedge.special_functions import log_reg_lower_gamma
from hardedge.verify import ExperimentConfig

CANON = EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=100)

# theta for alpha=-0.5, b=2, rho=0.6, n=50, j=1; frozen exact fraction
# (1 - 0.5) / (2 * 50 * 0.6^4) = 25/648, evaluated with mpmath at 50 digits.
THETA_EDGE = 0.03858024691358024691358025

LARGE = EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=100_000)

# alpha from -0.9 to 3, b from 0.5 to 3, rho from 0.1 to 0.9, n from 50 to 1e5
SPREAD = [
    LARGE,
    EnsembleParams(alpha=-0.9, b=0.5, rho=0.9, n=1000),
    EnsembleParams(alpha=3.0, b=3.0, rho=0.8, n=500),
    EnsembleParams(alpha=-0.5, b=2.0, rho=0.6, n=50),
    EnsembleParams(alpha=1.0, b=1.0, rho=0.1, n=10_000),
    EnsembleParams(alpha=0.5, b=0.5, rho=0.3, n=2000),
]


def _ks_of_draws(params: EnsembleParams, j: int, draws: np.ndarray) -> float:
    draws = np.sort(draws)
    cdf = ens.cdf_u(params, j, draws)
    grid = np.arange(1, draws.size + 1) / draws.size
    return float(np.max(np.maximum(np.abs(cdf - grid), np.abs(cdf - (grid - 1.0 / draws.size)))))


def _particle_draws(params: EnsembleParams, j: int, seed: int, count: int) -> np.ndarray:
    """``count`` draws of U_j through the sampler: one stream, j in every column."""
    return ens._sample(params, np.full(count, j), seed, [j])[0][0]


def acceptance_rates(params: EnsembleParams, js):
    """ln P(s_j, c) and ln Z_j (-inf for s_j <= c), the acceptance rates of the
    gamma and exponential proposals, each from its own column."""
    shapes = (np.asarray(js, dtype=float) + params.alpha) / params.b
    log_p_c = log_reg_lower_gamma(shapes, params.c)
    c = params.c
    above = shapes > c
    log_z = np.full(shapes.shape, -np.inf)
    sa = shapes[above]
    log_z[above] = np.log(sa - c) + c - sa * math.log(c) + gammaln(sa) + log_p_c[above]
    return log_p_c, log_z


def classes_elementwise(params: EnsembleParams, js):
    """Oracle of ``ens._exp_edge``: every column takes the proposal that keeps more."""
    log_p_c, log_z = acceptance_rates(params, js)
    exp = log_z >= log_p_c
    return np.flatnonzero(exp), np.flatnonzero(~exp)


def _params_id(p: EnsembleParams) -> str:
    return f"a{p.alpha:g}-b{p.b:g}-rho{p.rho:.4g}-n{p.n}"


def _classes(params: EnsembleParams):
    """Column indices of the exponential and gamma classes of all n particles."""
    edge = ens._exp_edge(params)
    return np.arange(edge - 1, params.n), np.arange(edge - 1)


# Parameter edges for the class edges: alpha -> -1, n = 1 and 2, rho at
# 0.999 of the droplet edge b^(-1/(2b)), b = 3.
CLASS_EDGE_SETS = [
    CANON,
    *SPREAD,
    EnsembleParams(alpha=-0.999, b=1.0, rho=0.5, n=3),
    EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=1),
    EnsembleParams(alpha=0.5, b=2.0, rho=0.5, n=2),
    EnsembleParams(alpha=0.0, b=1.0, rho=0.999, n=400),
    EnsembleParams(alpha=0.5, b=2.0, rho=0.999 * 2.0 ** -0.25, n=1000),
    EnsembleParams(alpha=1.0, b=3.0, rho=0.6, n=300),
]

# alpha x b x rho sweep at n = 1600, rho at 0.1, 0.5 and 0.99 of the droplet edge
CLASS_SWEEP = [EnsembleParams(alpha, b, f * b ** (-1.0 / (2.0 * b)), 1600)
               for alpha in (-0.9, 0.0, 0.5) for b in (0.5, 1.0, 2.0) for f in (0.1, 0.5, 0.99)]


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

    @pytest.mark.parametrize("call", [
        lambda: EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=True),
        lambda: ens.sample_batch(CANON, True, [0]),
        lambda: ens.sample_batch(CANON, 1, [False]),
        lambda: ExperimentConfig(kind="tv_decay", params=CANON, seed=True),
    ], ids=["n", "seed", "stream", "config_seed"])
    def test_bool_is_not_an_integer(self, call):
        # True and False are ints to Python, but not a particle count, seed or stream
        with pytest.raises(ValueError):
            call()

    def test_wall_message_is_actionable(self):
        with pytest.raises(ValueError, match="hard wall must lie inside the droplet"):
            EnsembleParams(alpha=0.0, b=1.0, rho=1.2, n=10)


class TestTheta:
    def test_direct_arithmetic(self):
        assert ens.theta(CANON, 25) == pytest.approx(1.0)
        assert ens.theta(CANON, 100) == pytest.approx(4.0)

    def test_edge_parameters(self):
        p = EnsembleParams(alpha=-0.5, b=2.0, rho=0.6, n=50)
        assert ens.theta(p, 1) == pytest.approx(THETA_EDGE, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("j", [0, 101, -3])
    def test_index_out_of_range(self, j):
        with pytest.raises(IndexError):
            ens.theta(CANON, j)

    @pytest.mark.parametrize("name, args", [
        ("theta", ()), ("cdf_u", (2.0,)), ("exp_rate", ()), ("tv_upper_bound", ()),
    ])
    def test_empty_list_is_an_empty_index(self, name, args):
        # np.asarray([]) is float64; an empty list still names no particle
        out = getattr(ens, name)(CANON, [], *args)
        assert isinstance(out, np.ndarray) and out.shape == (0,) and out.dtype == float
        with pytest.raises(IndexError, match="must be an integer"):
            getattr(ens, name)(CANON, [1.0], *args)


class TestSampling:
    def test_radius_recovery_in_unit_interval(self):
        # both classes and both sides of the edge at j = 26 | 27
        u = ens.sample_batch(CANON, 8, range(50))[:, [0, 24, 25, 26, 27, 59, 99]]
        r = np.exp(-CANON.b * u / (CANON.n * CANON.kappa))
        assert np.all((r > 0.0) & (r <= 1.0))

    def test_determinism_and_sensitivity(self):
        u1 = ens.sample_batch(CANON, 123, [0])[0]
        u2 = ens.sample_batch(CANON, 123, [0])[0]
        u3 = ens.sample_batch(CANON, 124, [0])[0]
        assert np.array_equal(u1, u2)
        assert np.any(u1 != u3)

    def test_batch_matches_single_configurations(self):
        batch = ens.sample_batch(CANON, 9, range(4))
        for i in range(4):
            assert np.array_equal(batch[i], ens.sample_batch(CANON, 9, [i])[0])

    @pytest.mark.parametrize("seed, stream", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64),
                                              (1.7, 0), (0, 0.9), (np.float64(1.0), 0),
                                              ("1", 0), (None, 0)])
    def test_invalid_seed_or_stream_raises(self, seed, stream):
        # a float that int() would truncate is refused, not taken as its floor
        with pytest.raises(ValueError):
            ens.sample_batch(CANON, seed, [stream])

    def test_numpy_integer_seed_and_stream(self):
        top = 2**64 - 1
        want = ens.sample_batch(CANON, top, [3, top])
        streams = np.array([3, top], dtype=np.uint64)
        assert np.array_equal(ens.sample_batch(CANON, np.uint64(top), streams), want)
        assert np.array_equal(ens.sample_batch(CANON, np.int64(5), [np.int32(3)]),
                              ens.sample_batch(CANON, 5, [3]))

    def test_empirical_law_ks(self):
        # 2e4 draws for one particle against the exact CDF; the acceptance
        # suite runs the full 1e5-draw version for three particles.
        j, ndraw = 60, 20000
        assert _ks_of_draws(CANON, j, _particle_draws(CANON, j, 7, ndraw)) < 1.63 / math.sqrt(ndraw)

    @pytest.mark.parametrize("j", [40_000, 90_000])
    def test_empirical_law_ks_deep_tail(self, j):
        # both particles have P(s_j, c) < 1e-280, so cdf_u works in log space
        ndraw = 100_000
        draws = _particle_draws(LARGE, j, 42, ndraw)
        assert _ks_of_draws(LARGE, j, draws) < 1.63 / math.sqrt(ndraw)

    def test_round_trip_at_large_n(self):
        # probability integral transform: cdf_u(U_j) of the n = 1e5 independent
        # particles of one sampled row are n draws of U(0, 1); for the three
        # quarters with P(s_j, c) < 1/2 cdf_u works in log space
        u = ens.sample_batch(LARGE, 42, [0])[0]
        pit = np.sort(ens.cdf_u(LARGE, np.arange(1, LARGE.n + 1), u))
        grid = np.arange(1, LARGE.n + 1) / LARGE.n
        ks = np.max(np.maximum(np.abs(pit - grid), np.abs(pit - (grid - 1.0 / LARGE.n))))
        assert ks < 1.63 / math.sqrt(LARGE.n)

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


class TestRejectionSampler:
    def test_classes_at_canon(self):
        # c = 25: gamma class up to j = 26 (P(s, c) = 0.45 against Z = 0.22),
        # exponential class from j = 27 on (Z = 0.388 against P(s, c) = 0.371)
        exp, gam = _classes(CANON)
        assert np.array_equal(gam + 1, np.arange(1, 27))
        assert np.array_equal(exp + 1, np.arange(27, 101))

    @pytest.mark.parametrize("params, j", [(CANON, 28), (CANON, 100), (CANON, 25), (CANON, 26),
                                           (SPREAD[1], 1)],
                             ids=["28", "100", "25", "26", "shape-0.2"])
    def test_particle_law_ks(self, params, j):
        # exponential class near its edge (j = 28, TV bound 0.49) and at
        # theta = 4; gamma class at theta = 1 (j = 25, P(s, c) = 0.53) and at
        # its edge (j = 26, P(s, c) = 0.45); gamma class at s = 0.2, drawn as
        # a Gamma(1.2) proposal times V^(1/0.2)
        ndraw = 100_000
        draws = _particle_draws(params, j, 7, ndraw)
        assert _ks_of_draws(params, j, draws) < 1.63 / math.sqrt(ndraw)

    def test_exponential_rejections_match_tv_bound(self):
        # each first-round exponential proposal is rejected with probability
        # 1 - Z_j, which the TV series gives independently
        rows = 2000
        exp, _ = _classes(CANON)
        tv = ens.tv_upper_bound(CANON, exp + 1)
        _, (rejected, _, _) = ens._sample(CANON, np.arange(1, CANON.n + 1), 3, range(rows))
        z = (rejected - rows * tv.sum()) / math.sqrt(rows * np.sum(tv * (1.0 - tv)))
        assert abs(z) < 4.0

    def test_gamma_rejections_match_truncation_mass(self):
        # a proposal that passes the Marsaglia-Tsang test is an exact
        # Gamma(s) draw, so it lies beyond c with probability 1 - P(s, c)
        rows = 2000
        _, gam = _classes(CANON)
        q = -np.expm1(log_reg_lower_gamma(CANON.shapes()[gam], CANON.c))
        _, (_, rejected, tried) = ens._sample(CANON, np.arange(1, CANON.n + 1), 3, range(rows))
        assert np.all(tried > 0.9 * rows)
        z = (rejected - np.sum(tried * q)) / math.sqrt(np.sum(tried * q * (1.0 - q)))
        assert abs(z) < 4.0

    @pytest.mark.parametrize("params", [CANON, SPREAD[2]])
    def test_rows_independent_of_block_split(self, params):
        streams = [5, 0, 17, 3, 9, 11, 2]
        whole = ens.sample_batch(params, 21, streams)
        for split in ([3, 4], [1, 1, 5], [6, 1]):
            parts = np.split(np.arange(len(streams)), np.cumsum(split)[:-1])
            pieces = [ens.sample_batch(params, 21, [streams[i] for i in part]) for part in parts]
            assert np.array_equal(np.concatenate(pieces), whole)
        for i, s in enumerate(streams):
            assert np.array_equal(ens.sample_batch(params, 21, [s])[0], whole[i])

    @staticmethod
    def _record_draws(monkeypatch):
        """(entropy, draw offset, uniforms) of every generator call the sampler makes."""
        calls = []
        inner = ens._uniforms

        def recording(entropy, offset, out):
            calls.append((entropy, offset, out.size))
            inner(entropy, offset, out)

        monkeypatch.setattr(ens, "_uniforms", recording)
        return calls

    @staticmethod
    def _refills(calls):
        """(stream, refill) of the refill draws among ``calls``: refill k of
        stream r is seeded by SeedSequence(seed, spawn_key=(r, k)), from draw 0."""
        out = []
        for entropy, offset, _ in calls:
            if isinstance(entropy, np.random.SeedSequence):
                assert offset == 0
                out.append(entropy.spawn_key)
        return out

    @staticmethod
    def _first_draws(calls):
        """(seed, draw offset, uniforms) of the first-round draws among ``calls``."""
        return [c for c in calls if not isinstance(c[0], np.random.SeedSequence)]

    @pytest.mark.parametrize("reservoir", [0.0, 1.0])
    def test_refilled_rows_independent_of_block_split(self, monkeypatch, reservoir):
        # a reservoir of 0 or ceil(sqrt(c) + 8) slots makes rows refill from
        # their own spawned streams; rows stay what they are alone, in any order
        monkeypatch.setattr(ens, "_RESERVOIR", reservoir)
        calls = self._record_draws(monkeypatch)
        streams = list(range(24))
        whole = ens.sample_batch(CANON, 21, streams)
        assert self._refills(calls)
        perm = np.random.default_rng(2).permutation(len(streams))
        assert np.array_equal(ens.sample_batch(CANON, 21, [streams[i] for i in perm]), whole[perm])
        for split in ([5, 19], [1, 11, 12], [23, 1]):
            parts = np.split(np.arange(len(streams)), np.cumsum(split)[:-1])
            pieces = [ens.sample_batch(CANON, 21, [streams[i] for i in part]) for part in parts]
            assert np.array_equal(np.concatenate(pieces), whole)
        for s in (0, 7, 23):
            assert np.array_equal(ens.sample_batch(CANON, 21, [s])[0], whole[s])

    def test_refilled_particle_law_ks(self, monkeypatch):
        # j = 28 (TV bound 0.49, exponential class) with a one-slot-per-
        # sqrt(c) reservoir: about half the 1e5 columns go to refills
        monkeypatch.setattr(ens, "_RESERVOIR", 1.0)
        calls = self._record_draws(monkeypatch)
        proposals = []
        for name in ("_exp_proposal", "_gamma_proposal"):
            def counting(*args, _inner=getattr(ens, name)):
                proposals.append(1)
                return _inner(*args)

            monkeypatch.setattr(ens, name, counting)
        ndraw = 100_000
        draws = _particle_draws(CANON, 28, 7, ndraw)
        # the first round calls both proposals; each retry round, one: with
        # 2, 4, 8 and 16 candidates for about 49 000, 12 000, 700 and 2 entries
        rounds = len(proposals) - 2
        assert rounds >= 4
        # every call after the first draw is a refill of stream 28, numbered
        # 1, 2, ..., in every retry round, bar the last when leftovers suffice
        assert self._refills(calls) == [(28, k) for k in range(1, len(calls))]
        assert rounds - 1 <= len(calls) - 1 <= rounds
        assert _ks_of_draws(CANON, 28, draws) < 1.63 / math.sqrt(ndraw)

    def test_marsaglia_tsang_law_ks_at_large_shape(self):
        # the last gamma-class particle at c = 2500: shape about c, nearly
        # two thirds of its proposals truncated
        params = EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=10_000)
        j = int(_classes(params)[1][-1]) + 1
        assert 1.0 / 3.0 <= math.exp(log_reg_lower_gamma(j + params.alpha, params.c)) < 0.4
        ndraw = 100_000
        draws = _particle_draws(params, j, 11, ndraw)
        assert _ks_of_draws(params, j, draws) < 1.63 / math.sqrt(ndraw)

    @pytest.mark.parametrize("reservoir", [ens._RESERVOIR, 0.0])
    def test_one_draw_call_per_run_and_refill(self, monkeypatch, reservoir):
        # the first draws of a run of consecutive streams are one generator
        # call, from draw run[0] B of the seed's stream, and every retry round runs over the block, so generator calls
        # are runs plus refills (none at the default reservoir) however many
        # rounds run
        monkeypatch.setattr(ens, "_RESERVOIR", reservoir)
        calls = self._record_draws(monkeypatch)
        rounds = []
        inner = ens._gamma_proposal

        def counting(*args):
            rounds.append(1)
            return inner(*args)

        monkeypatch.setattr(ens, "_gamma_proposal", counting)
        runs = [range(40), range(50, 74), range(45, 46)]
        ens.sample_batch(CANON, 3, [s for run in runs for s in run])
        assert len(rounds) - 1 >= 3
        first = self._first_draws(calls)
        row = first[-1][2]
        assert first == [(3, run[0] * row, len(run) * row) for run in runs]
        refills = {}
        for s, refill in self._refills(calls):
            refills.setdefault(s, []).append(refill)
        for seen in refills.values():
            assert seen == list(range(1, len(seen) + 1))
        assert len(calls) == len(runs) + sum(len(seen) for seen in refills.values())
        if reservoir:
            assert len(calls) == len(runs)

    def test_first_draws_carry_across_counter_words(self, monkeypatch):
        # row r reads draws [r B, (r + 1) B) of the seed's stream; for the
        # last streams below 2^64 that offset needs more than one 64-bit word
        calls = self._record_draws(monkeypatch)
        streams = range(2**64 - 3, 2**64)
        batch = ens.sample_batch(CANON, 6, streams)
        (seed, offset, size), = self._first_draws(calls)
        assert seed == 6 and offset == streams[0] * (size // 3) > 2**64
        for i, stream in enumerate(streams):
            assert np.array_equal(ens.sample_batch(CANON, 6, [stream])[0], batch[i])

    def test_two_candidate_rounds(self, monkeypatch):
        # two or more candidates per entry and round at least halve the retry
        # rounds: sample_batch(CANON, 3, range(64)) needed 9 with one candidate
        monkeypatch.setattr(ens, "_MAX_ROUNDS", 5)
        ens.sample_batch(CANON, 3, range(64))

    def test_doubling_candidates(self, monkeypatch):
        # retry round i gives every rejected entry min(2^i, _MAX_CANDIDATES)
        # candidates: j = 27, the exponential class edge, rejects 61% of them
        seen = []
        inner = ens._exp_proposal

        def recording(params, rate, prop, *rest):
            seen.append(prop.shape[0])
            inner(params, rate, prop, *rest)

        monkeypatch.setattr(ens, "_exp_proposal", recording)
        for cap in (ens._MAX_CANDIDATES, 4):
            monkeypatch.setattr(ens, "_MAX_CANDIDATES", cap)
            seen.clear()
            draws = _particle_draws(CANON, 27, 3, 20_000)
            candidates = seen[1:]
            assert seen[0] == 1 and len(candidates) >= 4
            assert candidates == [min(2**i, cap) for i in range(1, len(candidates) + 1)]
            assert _ks_of_draws(CANON, 27, draws) < 1.63 / math.sqrt(len(draws))

    def test_workspace_reuse_is_bit_identical(self):
        # a workspace full of NaN, then reused for a smaller last block, where
        # its scratch holds the first block's values, and for a larger n,
        # where it grows: every result equals that of a call with no
        # workspace.  j = 1 (a = 2/3) repeated 300 times: about 80 of its
        # proposals per block have t <= 0, hence no ln t
        ws = ens._Workspace()
        js = np.concatenate([np.full(300, 1), np.arange(2, CANON.n + 1)])
        ens._sample(CANON, js, 5, range(40), ws)
        ws.floats.fill(np.nan)
        ws.flags.fill(True)
        sizes = []
        for p, cols, streams in ((CANON, js, range(40)), (CANON, js, range(40, 79)),
                                 (SPREAD[2], np.arange(1, SPREAD[2].n + 1), range(40))):
            got_u, got_counts = ens._sample(p, cols, 5, streams, ws)
            want_u, want_counts = ens._sample(p, cols, 5, streams)
            assert np.array_equal(got_u, want_u)
            assert got_counts[:2] == want_counts[:2]
            assert np.array_equal(got_counts[2], want_counts[2])
            sizes.append(len(ws.floats))
        assert sizes[0] == sizes[1] < sizes[2]

    def test_gamma_proposal_ignores_stale_scratch(self):
        # t = 1 + normal/sqrt(9a) <= 0 has no ln t: the proposal is rejected,
        # with U = inf, whatever the scratch held before
        shapes = np.array([1.0, 0.5])
        for stale in (0.0, 5.0, np.nan):
            z = np.array([[1e-12, 0.5]])    # normal -7.03: t = -1.87 in column 0
            tmp = np.full((2, 1, 2), stale)
            mt, ok = np.ones((2, 1, 2), dtype=bool)
            ens._gamma_proposal(CANON, shapes, z, np.full((1, 2), 0.5), np.full((1, 1), 0.5),
                                tmp, mt, ok)
            assert not mt[0, 0] and not ok[0, 0] and z[0, 0] == np.inf
            assert np.isfinite(z[0, 1])

    def test_batch_owns_its_rows(self, monkeypatch):
        # a view would pin the sampler's whole workspace
        spaces = []

        class Recording(ens._Workspace):
            def __init__(self):
                super().__init__()
                spaces.append(self)

        monkeypatch.setattr(ens, "_Workspace", Recording)
        u = ens.sample_batch(CANON, 2, range(3))
        one = ens.sample_batch(CANON, 2, [1])[0]
        assert u.flags.c_contiguous and u.flags.owndata and len(spaces) == 2
        assert not any(np.shares_memory(x, w.floats) for x in (u, one) for w in spaces)

    def test_round_cap_raises(self, monkeypatch):
        monkeypatch.setattr(ens, "_MAX_ROUNDS", 0)
        with pytest.raises(ArithmeticError):
            ens.sample_batch(CANON, 1, range(4))

    @pytest.mark.parametrize("js", [
        np.r_[1:21, 36, 22:36, 21, 37:101],    # j = 21 and 36 swapped
        np.arange(100, 0, -1),
        np.arange(0, 100),
        np.arange(2, 102),
        np.arange(1, 101, dtype=float),
        np.arange(1, 101).reshape(10, 10),
    ], ids=["swapped", "reversed", "zero", "above_n", "float", "2d"])
    def test_columns_must_be_nondecreasing_indices(self, monkeypatch, js):
        # the gamma class is taken as a prefix of the columns: out of order,
        # its columns got the wrong proposal and came back negative, or the
        # call raised ArithmeticError after a divide-by-zero warning
        def no_draws(*args):
            raise AssertionError("drew uniforms for invalid columns")

        monkeypatch.setattr(ens, "_uniforms", no_draws)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="nondecreasing"):
                ens._sample(CANON, js, 1, range(64))

    @pytest.mark.parametrize("params", CLASS_EDGE_SETS + CLASS_SWEEP, ids=_params_id)
    def test_class_edges_match_elementwise(self, params):
        want = classes_elementwise(params, np.arange(1, params.n + 1))
        for got, w in zip(_classes(params), want):
            assert np.array_equal(got, w)

    @pytest.mark.parametrize("params", [LARGE, SPREAD[1], SPREAD[2], *CLASS_EDGE_SETS[-3:-1]],
                             ids=_params_id)
    def test_class_edge_against_mpmath(self, params):
        # Z - P(s, c) at 40 digits is negative just below the edge and not
        # below it at the edge; at the droplet edge (the last two sets)
        # theta_n is near 1 and the edge is n + 1, no exponential class.
        # |ln(Z/P)| there is at least 1e-3 (0.0016 at n = 1e5), the closed
        # form's error below 1e-10
        edge = ens._exp_edge(params)
        with mpmath.workdps(40):
            c = mpmath.mpf(params.c)
            for j in (edge - 1, edge):
                s = (mpmath.mpf(j) + params.alpha) / params.b
                assert s > c
                p = mpmath.gammainc(s, 0, c, regularized=True)
                z = (s - c) * mpmath.exp(c) * c**-s * mpmath.gamma(s) * p
                if j <= params.n:
                    assert (z >= p) == (j == edge)
                log_ratio = mpmath.log(z / p)
                assert abs(log_ratio) >= 1e-3
                assert abs(ens._log_z_over_p(params, float(s)) - float(log_ratio)) < 1e-10

    @pytest.mark.parametrize("params", CLASS_EDGE_SETS, ids=_params_id)
    def test_every_class_keeps_a_third_of_its_proposals(self, params):
        # the floor behind _MAX_ROUNDS: each particle's class keeps more than
        # 1/3 of its proposals (the minimum tends to about 0.355 as c grows)
        log_p_c, log_z = acceptance_rates(params, np.arange(1, params.n + 1))
        assert np.min(np.maximum(log_p_c, log_z)) >= math.log(1.0 / 3.0)

    def test_sampler_evaluates_no_incomplete_gamma(self, monkeypatch):
        # the class edge is a closed form in s: P(s, c) cancels from Z >= P
        def forbidden(*args):
            raise AssertionError("the sampler evaluated an incomplete gamma function")

        for name in ("log_reg_lower_gamma", "gammainc", "gammaincc"):
            monkeypatch.setattr(ens, name, forbidden)
        u = ens.sample_batch(LARGE, 5, range(2))
        assert u.shape == (2, LARGE.n)

    def test_alpha_near_minus_one_finite(self):
        # s_1 = 0.001: X = Y V^(1/s) underflows to 0 in linear space for
        # about two in five rows, so the gamma proposal is drawn in log space
        params = EnsembleParams(alpha=-0.999, b=1.0, rho=0.5, n=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = ens.sample_batch(params, 1, range(200))
        assert np.all(np.isfinite(u)) and np.all(u >= 0.0)


class TestExactLaws:
    def test_cdf_endpoints(self):
        assert ens.cdf_u(CANON, 30, 0.0) == 0.0
        assert ens.cdf_u(CANON, 30, math.inf) == 1.0

    def test_cdf_matches_density_quadrature(self, density_u):
        for j in (20, 50, 90):
            for t in (0.5, 2.0, 10.0):
                num = quad(lambda x: density_u(CANON, j, x), 0.0, t,
                           epsabs=1e-12, limit=200)[0]
                assert ens.cdf_u(CANON, j, t) == pytest.approx(num, abs=1e-8)

    def test_cdf_depends_only_on_theta_c_beta(self):
        # (b=1, rho=0.5, n=100, j=40) and (b=2, rho=8^-0.25, n=200, j=80)
        # share (theta, c, beta, shape), hence the same law
        p1, j1 = CANON, 40
        p2, j2 = EnsembleParams(alpha=0.0, b=2.0, rho=8.0 ** -0.25, n=200), 80
        assert p2.c == pytest.approx(p1.c, rel=1e-12, abs=0.0)
        assert p2.beta == pytest.approx(p1.beta, rel=1e-12, abs=0.0)
        assert ens.theta(p2, j2) == pytest.approx(ens.theta(p1, j1), rel=1e-12, abs=0.0)
        for t in (0.1, 1.0, 3.0, 8.0):
            assert ens.cdf_u(p2, j2, t) == pytest.approx(ens.cdf_u(p1, j1, t), abs=1e-12)

    def test_density_normalizes(self, density_u):
        p = EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=50)
        total = quad(lambda x: density_u(p, 40, x), 0.0, np.inf,
                     epsabs=1e-10, limit=300)[0]
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_density_vanishes_in_far_tail(self, density_u):
        x_far = 1e3 * CANON.n * CANON.kappa / CANON.b
        assert density_u(CANON, 60, x_far) < 1e-300

    def test_cdf_finite_difference_matches_density(self, density_u):
        eps = 1e-5
        for x in (0.5, 2.0, 10.0):
            fd = (ens.cdf_u(CANON, 70, x + eps) - ens.cdf_u(CANON, 70, x - eps)) / (2 * eps)
            assert fd == pytest.approx(density_u(CANON, 70, x), abs=1e-6)

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


    @pytest.mark.parametrize("alpha", [-0.9, 0.0, 0.5])
    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
    def test_cdf_nondecreasing_in_j_near_one(self, alpha, b):
        # the escape columns at T = 1e3 (theta < 0.95): the complement
        # difference (Q(s, x_T) - Q(s, c))/P(s, c) lost the last bit near 1
        # and dipped by an ulp 59 times over these 18 columns
        for n in (500, 1600):
            p = EnsembleParams(alpha, b, 0.5, n)
            js = np.flatnonzero(ens.theta(p, np.arange(1, n + 1)) < 0.95) + 1
            cdf = ens.cdf_u(p, js, 1e3)
            assert np.all(np.diff(cdf) >= 0.0)
            if (alpha, b, n) == (0.0, 1.0, 500):
                assert cdf[-1] == 1.0

    @pytest.mark.parametrize("params", [
        EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=500),
        EnsembleParams(alpha=-0.9, b=0.5, rho=0.5, n=1600),
        EnsembleParams(alpha=0.5, b=2.0, rho=0.5, n=500),
    ], ids=lambda p: f"a{p.alpha:g}-b{p.b:g}-n{p.n}")
    def test_bulk_cdf_against_mpmath(self, params):
        # particles with P(s, c) > 1/2 on both sides of cdf = 1/2: the
        # complement difference below, the log form above.  Measured error at
        # most 2.0e-15, at j = 401 of n = 1600 where P(s, c) is near 1/2
        s = params.shapes()
        bulk = np.flatnonzero(gammainc(s, params.c) > 0.5) + 1
        js = bulk[np.linspace(0, len(bulk) - 1, 5).astype(int)]
        ts = np.geomspace(1e-2, 1e4, 16)
        got = ens.cdf_u(params, js[:, None], ts[None, :])
        want = np.array([[cdf_mpmath(params, int(j), float(t)) for t in ts] for j in js])
        assert np.count_nonzero(got < 0.5) > 10 and np.count_nonzero(got > 0.5) > 10
        assert np.max(np.abs(got - want)) <= 16 * np.finfo(float).eps

    @pytest.mark.parametrize("t", [1e4, 5e4])
    def test_cdf_where_the_horizon_underflows(self, t):
        # s_1 = 0.001: c e^{-beta t} underflows beyond t = 1680, yet U_1 is
        # above t = 1e4 with probability 0.0117 (cdf_u read 1.0)
        p = EnsembleParams(alpha=-0.999, b=1.0, rho=0.5, n=3)
        assert ens.cdf_u(p, 1, t) == pytest.approx(cdf_mpmath(p, 1, t), rel=1e-13, abs=0.0)


def first_reaching_exact(params: EnsembleParams, T: float) -> int:
    """The first j with cdf_u(j, T) >= 2^-53 (n if none), by bisection on j:
    cdf_u rises with j."""
    lo, hi = 0, params.n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if ens.cdf_u(params, mid, T) < 2.0**-53 else (lo, mid)
    return hi


class TestWindowCut:
    """``_first_reaching``: the particles a campaign with window [0, T] need not
    sample, each reaching T with probability below 2^-53."""

    @pytest.mark.parametrize("alpha", [-0.9, 0.0, 0.5])
    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("edge", [False, True], ids=["rho0.5", "rho0.99max"])
    def test_conservative_and_tight(self, alpha, b, edge):
        # over the 12 (n, T) pairs the cut drops 99.7% of the particles an
        # exact cut would, and stays within 1.61 b sqrt(x_T) indices of it
        rho = 0.99 * b ** (-1.0 / (2.0 * b)) if edge else 0.5
        for n in (100, 1600, 100_000):
            p = EnsembleParams(alpha, b, rho, n)
            for T in (0.01, 2.0, 10.0, 1e3):
                j0, exact = ens._first_reaching(p, T), first_reaching_exact(p, T)
                x_t = p.c * math.exp(-p.beta * T)
                assert 1 <= j0 <= exact
                if j0 > 1:
                    assert ens.cdf_u(p, j0 - 1, T) < 2.0**-53
                assert exact - j0 <= 2.0 * b * math.sqrt(x_t) + 1.0
                if x_t <= (1.0 + alpha) / b:
                    assert j0 == 1

    @pytest.mark.parametrize("n, T, cut, exact", [
        (100_000, 10.0, 23_642, 23_746), (500, 2.0, 42, 47), (1600, 10.0, 238, 246)])
    def test_campaign_windows(self, n, T, cut, exact):
        p = EnsembleParams(0.0, 1.0, 0.5, n)
        assert (ens._first_reaching(p, T), first_reaching_exact(p, T)) == (cut, exact)

    def test_against_mpmath_at_large_n(self):
        # the last particle cut at the escape benchmark's window, at 40 digits
        j0 = ens._first_reaching(LARGE, 10.0)
        assert j0 == 23_642
        assert cdf_mpmath(LARGE, j0 - 1, 10.0) < 2.0**-53

    @pytest.mark.parametrize("params", SPREAD, ids=_params_id)
    def test_trivial_windows(self, params):
        # T = +inf reaches every particle; so does a window whose x_T is at
        # most s_1, and one with c <= 54 ln 2 (n = 100, rho = 0.5: c = 25)
        assert ens._first_reaching(params, math.inf) == 1
        s1 = (1.0 + params.alpha) / params.b
        T = math.log(params.c / s1) / params.beta if params.c > s1 else 0.0
        assert ens._first_reaching(params, T) == 1
        assert ens._first_reaching(CANON, 0.0) == 1

    @pytest.mark.parametrize("params, T, rows", [
        (EnsembleParams(0.0, 1.0, 0.5, 1600), 10.0, 256), (LARGE, 10.0, 2)],
        ids=["n1600", "n1e5"])
    def test_sampled_rows_never_reach_the_window_below_the_cut(self, params, T, rows):
        # the Monte Carlo side of the escape check that the cut replaces
        j0 = ens._first_reaching(params, T)
        assert j0 > 200
        u = ens.sample_batch(params, 5, range(rows))
        assert np.all(u[:, :j0 - 1] > T)
        assert np.any(u[:, j0 - 1:] <= T)


class TestExponentialApproximation:
    def test_rate_direct_arithmetic(self):
        # theta = 2 at j = 50: rate = (0.25/0.75)*(2-1) = 1/3
        assert ens.exp_rate(CANON, 50) == pytest.approx(1.0 / 3.0, rel=1e-12, abs=0.0)

    def test_rate_one_at_algebraic_threshold(self):
        # theta = 1 + kappa/(b rho^2b) = 4 at j = 100 gives rate exactly 1
        assert ens.exp_rate(CANON, 100) == pytest.approx(1.0, rel=1e-12, abs=0.0)

    def test_rate_requires_theta_above_one(self):
        with pytest.raises(ValueError):
            ens.exp_rate(CANON, 25)  # theta == 1
        with pytest.raises(ValueError):
            ens.exp_rate(CANON, 10)

    def test_tv_bound_nonnegative_and_dominates_exact(self):
        bound = ens.tv_upper_bound(CANON, 80)
        exact = ens.exact_tv_exponential(CANON, 80)
        assert bound >= 0.0
        assert exact <= bound

    def test_exact_tv_matches_density_quadrature(self, density_u):
        # the same integral with f_U taken from density_u at every node
        for p, j in ((CANON, 80), (EnsembleParams(alpha=-0.5, b=2.0, rho=0.6, n=2000), 1500)):
            rate = ens.exp_rate(p, j)
            ref = 0.5 * quad(lambda x: abs(density_u(p, j, x) - rate * math.exp(-rate * x)),
                             0.0, np.inf, epsabs=1e-11, epsrel=1e-9, limit=300)[0]
            assert ens.exact_tv_exponential(p, j) == pytest.approx(ref, rel=1e-8, abs=0.0)

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


def cdf_mpmath(params: EnsembleParams, j: int, t: float) -> float:
    """Prob[U_j <= t] = P(s, c e^{-beta t} .. c)/P(s, c) at 40 digits."""
    with mpmath.workdps(40):
        s = mpmath.mpf(j + params.alpha) / params.b
        c = mpmath.mpf(params.c)
        x_t = c * mpmath.exp(-mpmath.mpf(params.beta) * t)
        return float(mpmath.gammainc(s, x_t, c) / mpmath.gammainc(s, 0, c))


def tv_bound_mpmath(params: EnsembleParams, j: int) -> float:
    """1 - (s-c) e^c c^{-s} gamma(s, c) at 40 digits, from the double s and c."""
    with mpmath.workdps(40):
        s = mpmath.mpf((j + params.alpha) / params.b)
        c = mpmath.mpf(params.c)
        return float(1 - (s - c) * mpmath.exp(c) * c ** (-s) * mpmath.gammainc(s, 0, c))


def tv_series_scalar(params: EnsembleParams, j: int):
    """The TV series of particle j in scalar double arithmetic: the terms it
    adds before one falls to 1e-17 of its running total, and the bound."""
    s, c = (j + params.alpha) / params.b, params.c
    t, term, k = 1.0, 1.0 / (s + 1.0), 0
    total = term
    while term > 1e-17 * total:
        k += 1
        t = t * c / (s + k)
        term = (k + 1) * t / (s + k + 1)
        total = total + term
    return k, c / s * total


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

    def test_shuffled_batch_with_repeats_equals_scalar_calls(self):
        # each entry stops at its own term count, so neither the order nor
        # the company of an entry changes its bits
        p = EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=100_000)
        js = np.flatnonzero(ens.theta(p, np.arange(1, p.n + 1)) > 1.1) + 1
        ladder = ens.tv_upper_bound(p, js)
        rng = np.random.default_rng(11)
        pick = rng.integers(0, len(js), size=(200, 300))
        pick[0, :2] = 0, len(js) - 1                # the slowest and fastest entries
        bounds = ens.tv_upper_bound(p, js[pick])
        assert bounds.shape == pick.shape
        assert np.array_equal(bounds, ladder[pick])
        for r, c in [(0, 0), (0, 1), *zip(rng.integers(0, 200, 40), rng.integers(0, 300, 40))]:
            assert bounds[r, c] == ens.tv_upper_bound(p, int(js[pick[r, c]]))

    @pytest.mark.parametrize("params", [CANON, *SPREAD], ids=_params_id)
    def test_equals_the_scalar_recurrence_bit_for_bit(self, params):
        # the batch rounds every operation as the one-entry recurrence does
        th = ens.theta(params, np.arange(1, params.n + 1))
        js = np.flatnonzero(th > 1.0)[::-1][::max(1, params.n // 200)] + 1
        want = [tv_series_scalar(params, int(j))[1] for j in js]
        assert np.array_equal(ens.tv_upper_bound(params, js), want)

    def test_empty_batch(self):
        for js in (np.array([], dtype=int), np.empty((0, 3), dtype=int)):
            bounds = ens.tv_upper_bound(CANON, js)
            assert isinstance(bounds, np.ndarray) and bounds.shape == js.shape

    def test_term_cap_binds_only_the_entries_that_reach_it(self, monkeypatch):
        # j = 26 (theta = 1.04) needs the most terms at n = 100, j = 100 the fewest
        slow, fast = tv_series_scalar(CANON, 26)[0], tv_series_scalar(CANON, 100)[0]
        assert fast < slow
        cap = (fast + slow) // 2
        quick = [j for j in range(26, 101) if tv_series_scalar(CANON, j)[0] <= cap]
        want = ens.tv_upper_bound(CANON, np.array(quick))
        monkeypatch.setattr(ens, "_TV_MAX_TERMS", cap)
        with pytest.raises(ArithmeticError):
            ens.tv_upper_bound(CANON, np.arange(26, 101))
        assert np.array_equal(ens.tv_upper_bound(CANON, np.array(quick)), want)
        # the cap is exact: K terms pass, K - 1 do not
        monkeypatch.setattr(ens, "_TV_MAX_TERMS", slow)
        ens.tv_upper_bound(CANON, np.arange(26, 101))
        monkeypatch.setattr(ens, "_TV_MAX_TERMS", slow - 1)
        with pytest.raises(ArithmeticError):
            ens.tv_upper_bound(CANON, np.arange(26, 101))
