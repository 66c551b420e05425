import json
import math
from dataclasses import fields, replace

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


# The knobs each campaign reads besides params, seed and workers, and a
# non-default value of every knob.
READS = {
    "clt": {"phi", "grid", "replicates", "z_max", "center_empirical"},
    "escape": {"phi", "n_ladder", "delta", "horizon", "escape_threshold", "replicates", "z_max"},
    "tv_decay": {"n_ladder", "delta", "tv_threshold"},
    "centering_rate": {"phi", "grid", "n_ladder", "slope_max"},
    "hitting": {"phi", "levels", "cross_times", "replicates", "z_max", "n_ladder",
                "lemma_levels_horizon", "lemma_replicates"},
    "moments": {"phi", "grid", "moment_orders", "replicates", "z_max"},
}
NON_DEFAULT = {
    "phi": PhiSpec(kind="rational"), "grid": (1.0,), "levels": (0.1,), "replicates": 10,
    "z_max": 4.0, "delta": 0.2, "horizon": 5.0, "n_ladder": (10, 20), "tv_threshold": 0.1,
    "escape_threshold": 0.01, "slope_max": -0.5, "cross_times": (1.0,),
    "lemma_levels_horizon": 8.0, "lemma_replicates": 10, "moment_orders": ((2,),),
    "center_empirical": True,
}
UNREAD = [(kind, name) for kind, reads in READS.items() for name in NON_DEFAULT
          if name not in reads]


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
        # checked at construction, not only by campaigns that sample
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig(kind="tv_decay", params=SMALL, seed=-1)
        # a threshold that no z meets (NaN, negative) or that every z meets
        # (inf) decides the verdict alone; z_max = 0 is a valid forced failure
        for z_max in (math.nan, -1.0, math.inf):
            with pytest.raises(ValueError, match="z_max must be finite and >= 0"):
                ExperimentConfig(kind="clt", params=SMALL, z_max=z_max)
        ExperimentConfig(kind="clt", params=SMALL, z_max=0.0)
        for kind, name in (("tv_decay", "tv_threshold"), ("escape", "escape_threshold"),
                           ("centering_rate", "slope_max")):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    ExperimentConfig(kind=kind, params=SMALL, **{name: value})

    def test_registry_declares_the_knobs_each_campaign_reads(self):
        assert {kind: set(verify._RUNNERS[kind].reads) for kind in verify.CAMPAIGN_KINDS} == READS
        knobs = {f.name for f in fields(ExperimentConfig)} - {"kind", "params", "seed", "workers"}
        assert set(NON_DEFAULT) == knobs
        assert len(UNREAD) == 6 * 16 - 32 == 64

    @pytest.mark.parametrize("kind, name", UNREAD)
    def test_unread_knob_rejected(self, kind, name):
        with pytest.raises(ValueError, match=f"the {kind} campaign does not read {name};"):
            ExperimentConfig(kind=kind, params=SMALL, **{name: NON_DEFAULT[name]})

    @pytest.mark.parametrize("kind", list(READS))
    def test_report_records_kind_params_seed_and_read_knobs(self, kind):
        cfg = ExperimentConfig(kind=kind, params=SMALL, seed=3, workers=2,
                               **{name: NON_DEFAULT[name] for name in READS[kind]})
        record = cfg.to_dict()
        assert set(record) == {"kind", "params", "seed"} | READS[kind]
        assert (record["kind"], record["params"], record["seed"]) == (kind, SMALL.to_dict(), 3)
        # a knob the kind does not read is accepted at its default, in any container
        ExperimentConfig(kind=kind, params=SMALL, z_max=5.0, grid=[], n_ladder=np.array([], int))

    @pytest.mark.parametrize("knobs", [
        dict(lemma_replicates=10), dict(lemma_levels_horizon=8.0),
        dict(lemma_replicates=10, lemma_levels_horizon=8.0, n_ladder=()),
    ])
    def test_lemma_knobs_need_an_n_ladder(self, knobs):
        # at n = 60 this config ran, recorded both knobs and had no lemma rows
        base = dict(kind="hitting", params=EnsembleParams(0.0, 1.0, 0.5, 60),
                    levels=(0.075,), replicates=50)
        with pytest.raises(ValueError, match="reads lemma_.* only with an n_ladder"):
            ExperimentConfig(**base, **knobs)
        # at their defaults, or along a ladder, they are accepted
        ExperimentConfig(**base, lemma_replicates=1000, lemma_levels_horizon=50)
        ExperimentConfig(**base, **{**knobs, "n_ladder": (100, 400)})

    def test_default_replicates(self):
        assert ExperimentConfig(kind="clt", params=SMALL).replicates == 100

    @pytest.mark.parametrize("kind, knobs", [
        ("clt", dict(grid=(1.0,), replicates=4)),
        ("escape", dict(n_ladder=(50, 100), delta=0.2, replicates=4, escape_threshold=1.0)),
        ("tv_decay", dict(params=EnsembleParams(0.0, 1.0, 0.5, 100), tv_threshold=1.0)),
        ("centering_rate", dict(grid=(1.0,), n_ladder=(10, 20))),
        ("hitting", dict(params=EnsembleParams(0.0, 1.0, 0.5, 50), levels=(0.075,),
                         cross_times=(1.0,), replicates=10, n_ladder=(50, 100),
                         lemma_replicates=10)),
        ("moments", dict(grid=(1.0,), replicates=4)),
    ])
    def test_campaign_reads_exactly_its_declared_knobs(self, kind, knobs):
        # every branch that reads a knob is taken: the escape and hitting
        # ladders, the Monte Carlo of the sampling kinds
        class Recording:
            def __init__(self, config):
                self.config, self.seen = config, set()

            def __getattr__(self, name):
                self.seen.add(name)
                return getattr(self.config, name)

        cfg = Recording(ExperimentConfig(**{"kind": kind, "params": SMALL, **knobs}))
        verify._RUNNERS[kind].__wrapped__(cfg, verify._Verdicts())
        assert cfg.seen - {"kind", "params", "seed", "workers"} == READS[kind]

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

    def test_cut_matches_per_configuration_path(self):
        # clt at n = 500 reads U on [0, 2] only: particles 1..41 are left out,
        # and the sums over the sampled columns still weigh each by phi/n
        p = EnsembleParams(0.0, 1.0, 0.5, 500)
        cfg = ExperimentConfig(kind="clt", params=p, grid=(0.5, 1.0, 2.0), replicates=150,
                               seed=8)
        phi = cfg.phi.build()
        grid = np.array(cfg.grid)
        j0 = ens._first_reaching(p, 2.0)
        assert j0 == 42
        S, S_inf, Q = _simulate_statistic(cfg, p, phi, grid)
        assert S_inf is None and Q.shape == (150, 0)
        rows = ens._sample(p, np.arange(j0, p.n + 1), cfg.seed, range(cfg.replicates))[0]
        for i, u in enumerate(rows):
            want = [np.sum(phi(u[u <= t]) / p.n) for t in grid]
            assert np.max(np.abs(S[i] - want)) <= 1e-13

    @pytest.mark.parametrize("phi, cut", [("one", True), ("rational", False)])
    def test_total_mass_with_the_cut(self, phi, cut):
        # phi = 1 is certified constant, so S(+inf) adds phi/n per particle
        # left out; any other phi samples them all, since S(+inf) reads them
        p = EnsembleParams(0.0, 1.0, 0.5, 1600)
        cfg = ExperimentConfig(kind="escape", params=p, phi=PhiSpec(kind=phi), replicates=20,
                               seed=3)
        calls = []
        inner = ens._sample

        def recording(params, js, seed, streams, workspace=None):
            calls.append(js[0])
            return inner(params, js, seed, streams, workspace)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ens, "_sample", recording)
            S, S_inf, _ = _simulate_statistic(cfg, p, cfg.phi.build(), np.array([10.0]),
                                              total=True)
        assert set(calls) == {238 if cut else 1}
        if cut:
            assert np.max(np.abs(S_inf - 1.0)) <= 1e-12
        else:
            u = ens.sample_batch(p, cfg.seed, range(cfg.replicates))
            assert np.max(np.abs(S_inf - np.sum(cfg.phi.build()(u) / p.n, axis=1))) <= 1e-13

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
                                    cross_times=(1.0,), replicates=151, seed=4),
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

    def test_block_budget_keeps_cut_escape_bytes(self, monkeypatch):
        # escape with phi = 1 samples the 1363 particles from j0 = 238 on;
        # blocks are sized by those, and the bytes hold for any worker count
        # or budget: 128-row blocks by default, 3-row ones at 4089 particles
        # and single rows below 1363
        p = EnsembleParams(0.0, 1.0, 0.5, 1600)
        cfg = ExperimentConfig(kind="escape", params=p, delta=0.2, replicates=300, seed=6)
        want = run_campaign(cfg).to_json()
        assert json.loads(want)["passed"]
        inner = ens._sample
        for budget, rows in ((2**20, 128), (4089, 3), (1362, 1)):
            seen = []

            def recording(params, js, seed, streams, workspace=None):
                seen.append((js[0], len(js), len(streams)))
                return inner(params, js, seed, streams, workspace)

            monkeypatch.setattr(ens, "_sample", recording)
            monkeypatch.setattr(verify, "_BLOCK_PARTICLES", budget)
            for workers in (1, 4):
                assert run_campaign(replace(cfg, workers=workers)).to_json() == want
            assert {(j, m) for j, m, _ in seen} == {(238, 1363)}
            assert max(r for _, _, r in seen) == rows

    @pytest.mark.parametrize("workers, replicates, threads", [
        (1, 300, None), (3, 100, None), (3, 300, 3), (2, 900, 2), (3, 200, 2)])
    def test_no_more_threads_than_blocks(self, monkeypatch, workers, replicates, threads):
        # 128 replicates per block at n = 20; one block runs serially
        pools = []

        class Recording(verify.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(verify, "ThreadPoolExecutor", Recording)
        starts = verify._run_blocks(replicates, SMALL.n, workers, lambda i0, i1: (i0, i1))
        assert starts == [(i0, min(i0 + 128, replicates)) for i0 in range(0, replicates, 128)]
        assert pools == ([] if threads is None else [threads])

    def test_no_spread_gives_no_z_score(self):
        # a constant column (all replicates equal) has no skewness, kurtosis
        # or z-score; its gate fails instead of dividing by zero
        skew, exkurt = verify._skew_exkurt(np.array([[1.0, 0.0], [1.0, 2.0]]))
        assert np.isnan(skew[0]) and np.isnan(exkurt[0])
        assert (skew[1], exkurt[1]) == (0.0, -2.0)
        out = verify._Verdicts()
        out.gate("gate", "a", "mean", estimate=0.55, target=0.5, se=0.5)
        out.gate("gate", "b", "mean", estimate=0.3, target=0.0, se=0.0)
        out.gate("gate", "c", "skewness", estimate=math.nan, target=0.0, se=1.0)
        out.judge("gate", 5.0)
        assert [r["z"] for r in out.rows] == [pytest.approx(0.1), None, None]
        assert out.rows[2]["estimate"] is None
        assert out.assertions == [{"name": "gate", "passed": False,
                                   "detail": "no z-score at b: the sample has no spread"}]
        # no particle reaches T = 1e-6: S(T) = 0 in every replicate
        report = run_escape(ExperimentConfig(kind="escape", params=EnsembleParams(0.0, 1.0, 0.5, 10),
                                             horizon=1e-6, replicates=2, seed=0))
        gate = {a["name"]: a for a in report.assertions}["statistic_concentrates_on_limit_mean"]
        assert not gate["passed"] and "no spread" in gate["detail"]

    @pytest.mark.parametrize("kind, knobs", [
        ("clt", dict(grid=(0.5, 1.0, math.inf))),
        ("moments", dict(grid=(0.5, math.inf),
                         phi=PhiSpec(kind="table", table_x=(0.0, 1.0), table_y=(2.0, 2.0)))),
        ("hitting", dict(levels=(0.05, 0.1), cross_times=(1.0, math.inf))),
        ("escape", dict(horizon=math.inf)),
    ])
    def test_constant_phi_at_infinity_raises(self, monkeypatch, kind, knobs):
        # S(+inf) = phi(0) in every replicate and its limit variance is 0: at
        # n = 60 and M = 300 the clt case failed with max |z| = 6.6e14 at
        # covariance(inf, inf), the z-score of rounding noise
        def no_sampling(*args):
            raise AssertionError("sampled before rejecting the configuration")

        monkeypatch.setattr(ens, "_sample", no_sampling)
        cfg = ExperimentConfig(kind=kind, params=EnsembleParams(0.0, 1.0, 0.5, 60),
                               replicates=300, seed=3, **knobs)
        with pytest.raises(ValueError, match=r"is constant, so S\(\+inf\) does not fluctuate"):
            run_campaign(cfg)


class TestCltCampaign:
    def test_smoke_report_well_formed(self):
        cfg = ExperimentConfig(kind="clt", params=EnsembleParams(0.0, 1.0, 0.5, 10),
                               grid=(0.5, 1.0), replicates=2, seed=1)
        report = run_clt(cfg)
        assert report.campaign == "clt"
        assert all(np.isfinite(r["z"]) for r in finite_z_rows(report))
        assert report.to_json().startswith("{")
        parsed = json.loads(report.to_json())
        assert parsed["schema_version"] == 2

    def test_moderate_run_passes(self):
        cfg = ExperimentConfig(kind="clt", params=EnsembleParams(0.0, 1.0, 0.5, 100),
                               grid=(0.5, 1.0, 2.0), replicates=800, seed=3)
        report = run_clt(cfg)
        assert report.passed, report.failures()

    def test_exact_centering_is_one_pass(self, monkeypatch):
        # a count-based guard, not a timing: E S on the whole grid comes from
        # one cumulative pass over the mean density, not one quadrature per
        # grid point or per block of particles
        passes = []
        integrate = quadrature.integrate

        def counted(f, a, b, what, **opts):
            passes.append(what)
            return integrate(f, a, b, what, **opts)

        monkeypatch.setattr(quadrature, "integrate", counted)
        cfg = ExperimentConfig(kind="clt", params=EnsembleParams(0.0, 1.0, 0.5, 200),
                               grid=(0.5, 1.0, 2.0, 4.0), replicates=20, seed=1)
        run_clt(cfg)
        assert passes.count("mean_exact") == 1

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
        # the report leaves the worker count out, so its bytes are the same
        assert r1.rows == r3.rows
        assert r1.assertions == r3.assertions
        assert r1.to_csv() == r3.to_csv()
        assert r1.to_json() == r3.to_json()

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

    def test_rung_without_escaping_particles_raises(self):
        # n = 3: c = 0.75 and theta_1 = 4/3, so no particle has theta < 0.9
        cfg = ExperimentConfig(kind="escape", params=EnsembleParams(0.0, 1.0, 0.5, 100),
                               n_ladder=(3, 100), delta=0.1, replicates=2, seed=0)
        with pytest.raises(ValueError, match="theta < 1-delta at n=3"):
            run_escape(cfg)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_non_finite_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="delta must be finite"):
            ExperimentConfig(kind="escape", params=EnsembleParams(0.0, 1.0, 0.5, 100), delta=delta)


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

    def test_threshold_rule_decides_every_z_gate(self, monkeypatch):
        # one rule judges every z-score: a rule that fails them all fails
        # exactly the z-gated assertions of each kind, and no other
        configs = [
            ExperimentConfig(kind="clt", params=SMALL, grid=(0.5, 1.0), replicates=50, seed=4),
            ExperimentConfig(kind="escape", params=EnsembleParams(0.0, 1.0, 0.5, 200),
                             phi=PhiSpec(kind="exp_decay"), delta=0.2, replicates=50,
                             escape_threshold=1.0),
            ExperimentConfig(kind="tv_decay", params=EnsembleParams(0.0, 1.0, 0.5, 100),
                             tv_threshold=1.0),
            ExperimentConfig(kind="centering_rate", params=SMALL, grid=(1.0,),
                             n_ladder=(10, 20), slope_max=-0.5),
            ExperimentConfig(kind="hitting", params=EnsembleParams(0.0, 1.0, 0.5, 50),
                             levels=(0.075,), cross_times=(1.0,), replicates=50),
            ExperimentConfig(kind="moments", params=SMALL, grid=(1.0,), replicates=50),
        ]
        z_gated = {
            "clt": {"all_z_within_threshold"},
            "escape": {"statistic_concentrates_on_limit_mean", "total_mass_matches_exact_mean"},
            "tv_decay": set(),
            "centering_rate": set(),
            "hitting": {"all_z_within_threshold"},
            "moments": {"all_moment_z_within_threshold"},
        }
        assert [cfg.kind for cfg in configs] == list(verify.CAMPAIGN_KINDS)
        before = [run_campaign(cfg) for cfg in configs]
        monkeypatch.setattr(verify._Verdicts, "_within", staticmethod(lambda z, z_max: False))
        for cfg, report in zip(configs, before):
            swapped = run_campaign(cfg)
            assert report.passed and swapped.rows == report.rows
            assert {a["name"] for a in swapped.failures()} == z_gated[cfg.kind]
            assert swapped.passed == (not z_gated[cfg.kind])

    def test_exactness_cross_check(self):
        # (1/n) sum_j cdf_u == mean_exact for phi = 1: two independent paths
        from hardedge import ensemble as ens
        from hardedge import process as proc
        p = EnsembleParams(0.0, 1.0, 0.5, 50)
        for t in (0.5, 2.0):
            a = float(np.mean(ens.cdf_u(p, np.arange(1, 51), t)))
            b = proc.mean_exact(p, proc.phi_one(), t)
            assert abs(a - b) <= 1e-9
