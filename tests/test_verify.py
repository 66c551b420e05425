import json
import math
from dataclasses import replace

import numpy as np
import pytest

from hardedge import ensemble as ens
from hardedge import process as proc
from hardedge import quadrature
from hardedge import verify
from hardedge.ensemble import EnsembleParams
from hardedge.verify import (
    ExperimentConfig,
    PhiSpec,
    _isserlis,
    _simulate_statistic,
    run_campaign,
    run_centering_rate,
    run_clt,
    run_escape,
    run_hitting,
    run_moments,
    run_tv_decay,
)

SMALL = EnsembleParams(alpha=0.0, b=1.0, rho=0.5, n=20)


def finite_z_rows(report):
    return [r for r in report.rows if r["z"] is not None]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="nope", params=SMALL)
        with pytest.raises(ValueError):
            ExperimentConfig(kind="clt", params=SMALL, replicates=1)
        with pytest.raises(ValueError):
            ExperimentConfig(kind="clt", params=SMALL, grid=(2.0, 1.0))
        with pytest.raises(ValueError, match="cross_times"):
            ExperimentConfig(kind="hitting", params=SMALL, cross_times=(2.0, 1.0))
        with pytest.raises(ValueError):
            ExperimentConfig(kind="clt", params=SMALL, workers=0)
        with pytest.raises(ValueError):
            ExperimentConfig(kind="hitting", params=SMALL, lemma_replicates=0)

    def test_phi_spec_parse(self):
        assert PhiSpec.parse("one").kind == "one"
        assert PhiSpec.parse("rational").kind == "rational"
        spec = PhiSpec.parse("exp_decay:0.25")
        assert spec.kind == "exp_decay" and spec.param == 0.25
        with pytest.raises(ValueError):
            PhiSpec.parse("cubic")

    def test_phi_spec_table(self, tmp_path):
        path = tmp_path / "phi.csv"
        path.write_text("x,phi\n0.0,1.0\n1.0,2.0\n4.0,0.5\n")
        spec = PhiSpec.parse(f"table:{path}")
        phi = spec.build()
        assert phi.positive
        assert phi(np.array([0.5]))[0] == pytest.approx(1.5)


class TestStatisticReduction:
    @pytest.mark.parametrize("kind", ["one", "rational", "exp_decay:0.5"])
    @pytest.mark.parametrize("with_levels", [False, True])
    def test_matches_per_configuration_path(self, kind, with_levels):
        # the campaign reduction against brute-force sums over the same draws,
        # over two replicate blocks; with levels the rows are sorted before
        # weighting, so for phi != one S is summed in another order; for
        # phi = rational and exp_decay the upper levels lie above the total
        # mass, so Q = +inf is covered too
        # the second grid adds sampled U values from both blocks as grid
        # points, so u == t ties are binned as S counts them (u <= t)
        p = EnsembleParams(0.0, 1.0, 0.5, 200)
        cfg = ExperimentConfig(kind="hitting", params=p, phi=PhiSpec.parse(kind),
                               replicates=150, seed=8)
        phi = cfg.phi.build()
        grid = np.array([0.1, 0.5, 1.0, 2.0, 4.0, 30.0])
        rows = ens.sample_batch(p, cfg.seed, range(cfg.replicates))
        ties = rows[[0, 140]][:, [3, 77, 150]].ravel()
        levels = np.array([0.05, 0.2, 0.4, 0.74])
        for g in (grid, np.unique(np.concatenate((grid, ties)))):
            out = _simulate_statistic(cfg, p, phi, g,
                                      **({"levels": levels} if with_levels else {}))
            for i, u in enumerate(rows):
                w = phi(u) / p.n
                want = [np.sum(w[u <= t]) for t in g]
                assert np.max(np.abs(out[0][i] - want)) <= 1e-13
                if with_levels:
                    su = np.sort(u)
                    cum = np.cumsum(phi(su) / p.n)
                    want = [next((x for x, c in zip(su, cum) if c > h), math.inf)
                            for h in levels]
                    assert np.array_equal(out[2][i], want)

    @pytest.mark.parametrize("G", [0, 1, 2, 3, 4, 7, 8, 9, 64])
    def test_bins_match_searchsorted(self, G):
        # on the strided workspace view that the block loop bins, with u at
        # every grid point, at 0, and below and above the grid
        p = EnsembleParams(0.0, 1.0, 0.5, 300)
        u = ens._sample(p, np.arange(1, p.n + 1), 3, range(4), ens._Workspace())[0]
        assert not u.flags.c_contiguous
        grid = np.unique(u[:, :G])[:G] if G else np.empty(0)
        assert len(grid) == G
        u[0, :G] = grid
        u[1, :5] = (0.0, 0.5 * np.min(u), np.max(u) + 1.0, 1e300, np.inf)
        want = np.searchsorted(grid, u)
        got = proc._bins(grid, u)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(proc._bins(grid, np.ascontiguousarray(u)), want)


    def test_block_budget_keeps_report_bytes(self, monkeypatch):
        # one block of 128 rows and one of 23 at the default budget; a budget
        # of 600 particles gives blocks of 3 rows and a last one of 1 at
        # n = 200, and one below n gives single rows, with the same report
        # bytes for one worker or three, each reusing its own sampler workspace
        p = EnsembleParams(0.0, 1.0, 0.5, 200)
        configs = [ExperimentConfig(kind="hitting", params=p, levels=(0.075, 0.225),
                                    cross_times=(1.0,), replicates=151, seed=4,
                                    lemma_replicates=40),
                   ExperimentConfig(kind="clt", params=p, grid=(0.5, 2.0), replicates=151,
                                    seed=4)]
        want = [run_campaign(c).to_json() for c in configs]
        inner = ens._sample
        for budget, rows in ((600, 3), (199, 1)):
            seen = []

            def recording(params, js, seed, streams, workspace=None):
                seen.append(len(streams))
                return inner(params, js, seed, streams, workspace)

            monkeypatch.setattr(ens, "_sample", recording)
            monkeypatch.setattr(verify, "_BLOCK_PARTICLES", budget)
            for workers in (1, 3):
                assert [run_campaign(replace(c, workers=workers)).to_json()
                        for c in configs] == want
            assert max(seen) == rows

    def test_no_spread_gives_no_z_score(self):
        # a constant column (all replicates equal) has no skewness, kurtosis
        # or z-score; its gate fails instead of dividing by zero
        skew, exkurt = verify._skew_exkurt(np.array([[1.0, 0.0], [1.0, 2.0]]))
        assert np.isnan(skew[0]) and np.isnan(exkurt[0])
        assert (skew[1], exkurt[1]) == (0.0, -2.0)
        assert verify._z(0.3, 0.0, 0.0) is None and verify._z(math.nan, 0.0, 1.0) is None
        assert verify._z(0.5, 0.25, 0.5) == 0.5
        gate = verify._z_assertion("gate", [("a", 0.1), ("b", None)], 5.0)
        assert not gate["passed"] and "at b" in gate["detail"]
        assert verify._row("skewness", estimate=math.nan)["estimate"] is None
        # no particle reaches T = 1e-6: S(T) = 0 in every replicate
        report = run_escape(ExperimentConfig(kind="escape", params=EnsembleParams(0.0, 1.0, 0.5, 10),
                                             horizon=1e-6, replicates=2, seed=0))
        gate = {a["name"]: a for a in report.assertions}["statistic_concentrates_on_limit_mean"]
        assert not gate["passed"] and "no spread" in gate["detail"]


class TestCltCampaign:
    def test_smoke_report_well_formed(self):
        cfg = ExperimentConfig(kind="clt", params=EnsembleParams(0.0, 1.0, 0.5, 10),
                               grid=(0.5, 1.0), replicates=2, seed=1)
        report = run_clt(cfg)
        assert report.campaign == "clt"
        assert all(np.isfinite(r["z"]) for r in finite_z_rows(report))
        assert report.to_json().startswith("{")
        parsed = json.loads(report.to_json())
        assert parsed["schema_version"] == 1

    def test_moderate_run_passes(self):
        cfg = ExperimentConfig(kind="clt", params=EnsembleParams(0.0, 1.0, 0.5, 100),
                               grid=(0.5, 1.0, 2.0), replicates=800, seed=3)
        report = run_clt(cfg)
        assert report.passed, report.failures()

    def test_exact_centering_is_one_pass_per_block(self, monkeypatch):
        # a count-based guard, not a timing: E S on the whole grid comes from
        # one cumulative pass per interleaved block of particles, not one
        # quadrature per grid point
        passes = []
        integrate = quadrature.integrate

        def counted(f, a, b, what, **opts):
            passes.append(what)
            return integrate(f, a, b, what, **opts)

        monkeypatch.setattr(quadrature, "integrate", counted)
        monkeypatch.setattr(proc, "_MEAN_BLOCK", 64)  # 4 blocks at n = 200
        cfg = ExperimentConfig(kind="clt", params=EnsembleParams(0.0, 1.0, 0.5, 200),
                               grid=(0.5, 1.0, 2.0, 4.0), replicates=20, seed=1)
        run_clt(cfg)
        assert passes.count("mean_exact") == 4

    def test_empirical_centering_flag(self):
        cfg = ExperimentConfig(kind="clt", params=SMALL, grid=(1.0,), replicates=50,
                               seed=2, center_empirical=True)
        report = run_clt(cfg)
        mean_rows = [r for r in report.rows if r["record"] == "mean"]
        assert mean_rows[0]["estimate"] == pytest.approx(0.0, abs=1e-15)

    def test_worker_count_does_not_change_bytes(self):
        base = dict(kind="clt", params=EnsembleParams(0.0, 1.0, 0.5, 30),
                    grid=(0.5, 2.0), replicates=300, seed=11)
        r1 = run_clt(ExperimentConfig(**base, workers=1))
        r3 = run_clt(ExperimentConfig(**base, workers=3))
        # worker count is part of the resolved config, so compare rows/assertions
        assert r1.rows == r3.rows
        assert r1.assertions == r3.assertions
        assert r1.to_csv() == r3.to_csv()

    def test_wall_time_not_in_canonical_bytes(self):
        cfg = ExperimentConfig(kind="clt", params=SMALL, grid=(1.0,), replicates=4, seed=0)
        report = run_clt(cfg)
        assert report.wall_time_s is not None
        assert "wall_time" not in report.to_json()


class TestEscapeCampaign:
    def test_ladder_and_mass(self):
        cfg = ExperimentConfig(kind="escape", params=EnsembleParams(0.0, 1.0, 0.5, 100),
                               n_ladder=(50, 100, 200), delta=0.2, horizon=10.0,
                               replicates=200, seed=5, escape_threshold=1.0)
        report = run_escape(cfg)
        exact = [r for r in report.rows if r["record"] == "escape_exact_max_cdf"]
        vals = [r["estimate"] for r in exact]
        assert vals == sorted(vals, reverse=True)
        names = {a["name"] for a in report.assertions}
        assert "escape_exact_strictly_decreasing" in names
        assert "total_mass_is_one" in names
        assert report.passed, report.failures()


    @pytest.mark.parametrize("alpha,b,rho,n,delta,T", [
        (0.0, 1.0, 0.5, 100_000, 0.2, 10.0),
        (-0.9, 0.5, 0.5, 2000, 0.2, 10.0),
        (0.5, 2.0, 0.5, 3000, 0.2, 5.0),
        (0.0, 0.5, 0.7, 500, 0.1, 2.0),
        (-0.9, 2.0, 0.6, 10_000, 0.3, 20.0),
        (0.5, 1.0, 0.5, 1600, 0.05, 30.0),
    ])
    def test_max_cdf_is_last_escaping_index(self, alpha, b, rho, n, delta, T):
        # cdf_u(j, T) is nondecreasing in j (U_j decreases in likelihood
        # ratio), so the campaign reads its maximum over theta < 1 - delta at
        # the last such index; below saturation (cdf within an ulp of 1),
        # rounding only dents it among subnormals
        p = EnsembleParams(alpha, b, rho, n)
        js = np.flatnonzero(ens.theta(p, np.arange(1, n + 1)) < 1.0 - delta) + 1
        cdf = ens.cdf_u(p, js, T)
        assert np.max(cdf) == cdf[-1] > 0.0
        dips = np.flatnonzero(np.diff(cdf) < 0.0)
        assert np.all(cdf[dips] < np.finfo(float).tiny)
        report = run_escape(ExperimentConfig(kind="escape", params=p, delta=delta, horizon=T,
                                             replicates=2, seed=0))
        row = [r for r in report.rows if r["record"] == "escape_exact_max_cdf"]
        assert [r["estimate"] for r in row] == [float(np.max(cdf))]


class TestTvCampaign:
    def test_single_n_smoke(self):
        cfg = ExperimentConfig(kind="tv_decay", params=EnsembleParams(0.0, 1.0, 0.5, 100),
                               delta=0.1, seed=0, tv_threshold=1.0)
        report = run_tv_decay(cfg)
        assert report.passed, report.failures()
        row = [r for r in report.rows if r["record"] == "tv_exact_at_argmax"][0]
        assert row["estimate"] <= row["target"] + 1e-12

    def test_ladder_decreases(self):
        cfg = ExperimentConfig(kind="tv_decay", params=EnsembleParams(0.0, 1.0, 0.5, 100),
                               n_ladder=(100, 400, 1600), delta=0.2, seed=0,
                               tv_threshold=0.2)
        report = run_tv_decay(cfg)
        assert report.passed, report.failures()


class TestCenteringCampaign:
    def test_small_ladder(self):
        cfg = ExperimentConfig(
            kind="centering_rate", params=EnsembleParams(0.0, 1.0, 0.3, 50),
            grid=(0.25, 0.5, 1.0, 2.0), n_ladder=(25, 50, 100), seed=0,
            slope_max=-0.5,
        )
        report = run_centering_rate(cfg)
        errs = [r["estimate"] for r in report.rows if r["record"] == "centering_sup_error"]
        assert all(e > 0 for e in errs)
        assert errs == sorted(errs, reverse=True)
        assert report.passed, report.failures()

    def test_requires_derivative_bound(self):
        cfg = ExperimentConfig(kind="centering_rate", params=SMALL, grid=(1.0,),
                               n_ladder=(10, 20), phi=PhiSpec(kind="one"))
        # builtin family always carries a derivative bound; strip it via table-free custom
        report = run_centering_rate(cfg)  # phi_one has derivative_bound=0, fine
        assert report.campaign == "centering_rate"


class TestHittingCampaign:
    def test_smoke(self):
        p = EnsembleParams(0.0, 1.0, 0.5, 60)
        cfg = ExperimentConfig(kind="hitting", params=p, levels=(0.075, 0.225),
                               cross_times=(1.0,), replicates=300, seed=9)
        report = run_hitting(cfg)
        assert report.passed, report.failures()
        recs = {r["record"] for r in report.rows}
        assert {"hitting_covariance", "cross_covariance", "infinite_hit_frequency"} <= recs

    def test_levels_above_mass_limit_rejected(self):
        cfg = ExperimentConfig(kind="hitting", params=SMALL, levels=(0.8,),
                               replicates=10, seed=0)
        with pytest.raises(ValueError):
            run_hitting(cfg)

    @pytest.mark.parametrize("levels", [(0.0, 0.1), (-0.1, 0.1)])
    def test_levels_at_or_below_zero_rejected(self, levels):
        # at h = 0 the limit variance is 0 while Q, the smallest particle,
        # varies, so the gate's z was sqrt(M / 2) whatever the sampler did
        cfg = ExperimentConfig(kind="hitting", params=SMALL, levels=levels,
                               replicates=10, seed=0)
        with pytest.raises(ValueError, match="strictly between 0"):
            run_hitting(cfg)

    def test_lemma_ladder_rows(self):
        # short horizon makes the divergence at the top level visible in the
        # Monte Carlo fractions already at small n
        p = EnsembleParams(0.0, 1.0, 0.5, 50)
        cfg = ExperimentConfig(kind="hitting", params=p, levels=(0.075,),
                               replicates=50, seed=1, n_ladder=(50, 200),
                               lemma_replicates=400, lemma_levels_horizon=8.0)
        report = run_hitting(cfg)
        fracs = [r["estimate"] for r in report.rows
                 if r["record"] == "hit_limit_mass_by_horizon"]
        exact = [r["estimate"] for r in report.rows
                 if r["record"] == "hit_limit_mass_by_horizon_exact"]
        assert len(fracs) == 2 and len(exact) == 2
        assert exact[0] > exact[1]
        assert fracs[0] > fracs[1]
        # MC fraction agrees with the exact crossing probability
        for m, e in zip(fracs, exact):
            assert abs(m - e) <= 5.0 * math.sqrt(0.25 / 400)


class TestMomentsCampaign:
    def test_isserlis_recursion(self):
        cov = np.array([[2.0]])
        assert _isserlis(cov, [0, 0]) == pytest.approx(2.0)
        assert _isserlis(cov, [0, 0, 0]) == 0.0
        assert _isserlis(cov, [0, 0, 0, 0]) == pytest.approx(3 * 4.0)  # 3 sigma^4
        cov2 = np.array([[1.0, 0.5], [0.5, 2.0]])
        # E[x^2 y^2] = v_x v_y + 2 c^2
        assert _isserlis(cov2, [0, 0, 1, 1]) == pytest.approx(1 * 2 + 2 * 0.25)

    def test_moment_campaign_smoke(self):
        cfg = ExperimentConfig(kind="moments", params=EnsembleParams(0.0, 1.0, 0.5, 80),
                               grid=(1.0, 2.0), replicates=600, seed=21)
        report = run_moments(cfg)
        assert report.passed, report.failures()
        odd = [r for r in report.rows if r["arg1"] in (1.0, 3.0)]
        assert all(r["target"] == 0.0 for r in odd)

    def test_bad_multi_index(self):
        cfg = ExperimentConfig(kind="moments", params=SMALL, grid=(1.0,),
                               replicates=4, seed=0, moment_orders=((1, 2),))
        with pytest.raises(ValueError):
            run_moments(cfg)


class TestDispatch:
    def test_run_campaign_routes_by_kind(self):
        cfg = ExperimentConfig(kind="clt", params=SMALL, grid=(1.0,), replicates=4, seed=0)
        assert run_campaign(cfg).campaign == "clt"

    def test_exactness_cross_check(self):
        # (1/n) sum_j cdf_u == mean_exact for phi = 1: two independent paths
        from hardedge import ensemble as ens
        from hardedge import process as proc
        p = EnsembleParams(0.0, 1.0, 0.5, 50)
        for t in (0.5, 2.0):
            a = float(np.mean(ens.cdf_u(p, np.arange(1, 51), t)))
            b = proc.mean_exact(p, proc.phi_one(), t)
            assert abs(a - b) <= 1e-9
