import csv
import json
import math

import numpy as np
import pytest

import hardedge.limit_law as ll
import hardedge.quadrature as quadrature
from hardedge.cli import main, parse_grid
from hardedge.ensemble import EnsembleParams, sample_batch

REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "campaign", "config", "rows", "assertions", "passed"],
    "properties": {
        "schema_version": {"const": 3},
        "campaign": {"type": "string"},
        "config": {"type": "object"},
        "passed": {"type": "boolean"},
        "rows": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["record", "estimate"],
                "properties": {
                    "record": {"type": "string"},
                    "n": {"type": ["integer", "null"]},
                    "arg1": {"type": ["number", "null"]},
                    "arg2": {"type": ["number", "null"]},
                    "estimate": {"type": ["number", "null"]},
                    "target": {"type": ["number", "null"]},
                    "se": {"type": ["number", "null"]},
                    "z": {"type": ["number", "null"]},
                },
            },
        },
        "assertions": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "passed", "detail"],
            },
        },
    },
}


class TestGridParsing:
    def test_explicit_list(self):
        assert parse_grid("0.5,1,2,4") == (0.5, 1.0, 2.0, 4.0)

    def test_linspace(self):
        got = parse_grid("linspace:0:1:5")
        assert got == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_logspace(self):
        got = parse_grid("logspace:-1:1:3")
        assert got == pytest.approx((0.1, 1.0, 10.0))

    def test_unsorted_rejected(self):
        for text in ("2,1", "linspace:2:1:3", "logspace:3:2:2", "1,1", "0.5,2,2"):
            with pytest.raises(ValueError, match="ascending"):
                parse_grid(text)


class TestSampleCommand:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "cfg.csv"
        code = main(["sample", "--n", "50", "--seed", "7", "--out", str(out)])
        assert code == 0
        assert out.exists()
        rows = list(csv.reader(out.open()))
        assert rows[0][:4] == ["alpha", "b", "rho", "n"]
        assert len(rows) == 3 + 50

    def test_invalid_wall_exits_2(self, tmp_path, capsys):
        code = main(["sample", "--rho", "1.5", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "hard wall must lie inside the droplet" in capsys.readouterr().err

    def test_fixed_seed_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["sample", "--n", "40", "--seed", "3", "--format", "json",
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_alpha_near_minus_one_exits_0(self, tmp_path):
        out = tmp_path / "cfg.csv"
        assert main(["sample", "--n", "3", "--alpha", "-0.999", "--b", "1", "--rho", "0.5",
                     "--seed", "2", "--out", str(out)]) == 0
        assert len(list(csv.reader(out.open()))) == 3 + 3

    def test_multiple_replicates_json(self, tmp_path):
        out = tmp_path / "cfgs.json"
        assert main(["sample", "--n", "10", "--replicates", "3", "--format", "json",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["configurations"]) == 3
        params = EnsembleParams(**payload["params"])
        for i, row in enumerate(payload["configurations"]):
            assert row["stream"] == i
            expected = sample_batch(params, payload["seed"], [i])[0]
            assert np.array_equal(np.array(row["u"]), expected)

    ROUND_TRIP = ["--n", "30", "--alpha", "-0.5", "--b", "2", "--rho", "0.6", "--seed", "5"]

    @pytest.mark.parametrize("replicates", [1, 3])
    def test_csv_round_trip(self, tmp_path, replicates):
        # header fields, seed and stream, and every U bit for bit as sample_batch
        out = tmp_path / "cfg.csv"
        assert main(["sample", *self.ROUND_TRIP, "--replicates", str(replicates),
                     "--out", str(out)]) == 0
        want = sample_batch(EnsembleParams(-0.5, 2.0, 0.6, 30), 5, range(replicates))
        paths = [out] if replicates == 1 else [tmp_path / f"cfg-r{i:04d}.csv"
                                               for i in range(replicates)]
        assert sorted(tmp_path.iterdir()) == paths
        for stream, path in enumerate(paths):
            rows = list(csv.reader(path.open()))
            header = dict(zip(rows[0], rows[1]))
            assert rows[0] == ["alpha", "b", "rho", "n", "seed", "stream"]
            params = EnsembleParams(alpha=float(header["alpha"]), b=float(header["b"]),
                                    rho=float(header["rho"]), n=int(header["n"]))
            assert params == EnsembleParams(-0.5, 2.0, 0.6, 30)
            assert (int(header["seed"]), int(header["stream"])) == (5, stream)
            assert rows[2] == ["u"]
            assert np.array_equal([float(r[0]) for r in rows[3:]], want[stream])

    @pytest.mark.parametrize("replicates", [1, 3])
    def test_json_round_trip(self, tmp_path, replicates):
        out = tmp_path / "cfg.json"
        assert main(["sample", *self.ROUND_TRIP, "--replicates", str(replicates),
                     "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert EnsembleParams(**payload["params"]) == EnsembleParams(-0.5, 2.0, 0.6, 30)
        assert payload["seed"] == 5
        configs = payload.get("configurations", [payload])
        assert [c["stream"] for c in configs] == list(range(replicates))
        want = sample_batch(EnsembleParams(-0.5, 2.0, 0.6, 30), 5, range(replicates))
        assert np.array_equal([c["u"] for c in configs], want)


class TestLimitCommand:
    def test_counting_table_contains_mass_limit(self, tmp_path):
        out = tmp_path / "limit.csv"
        code = main(["limit", "--grid", "0.5,1,2", "--out", str(out)])
        assert code == 0
        rows = list(csv.reader(out.open()))
        header = rows[0]
        assert header == ["quantity", "arg1", "arg2", "value"]
        m1_inf = [r for r in rows if r[0] == "m1" and r[1] == "inf"]
        assert len(m1_inf) == 1
        assert float(m1_inf[0][3]) == pytest.approx(0.75, abs=1e-9)  # kappa

    def test_infinite_grid_point(self, tmp_path):
        # phi = 1: S(inf) = 1 is deterministic, so cov(1, inf) = 0
        out = tmp_path / "limit.csv"
        assert main(["limit", "--grid", "1,inf", "--phi", "one", "--out", str(out)]) == 0
        cov = {(r[1], r[2]): float(r[3]) for r in csv.reader(out.open()) if r[0] == "cov"}
        assert cov[("1.0", "inf")] == pytest.approx(0.0, abs=1e-12)
        assert cov[("inf", "inf")] == pytest.approx(0.0, abs=1e-12)

    def test_empty_grid_exits_2(self, tmp_path):
        code = main(["limit", "--grid", "", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("phi", ["one:7", "rational:2", "one:"])
    def test_argument_to_plain_phi_exits_2(self, tmp_path, capsys, phi):
        code = main(["limit", "--grid", "1", "--phi", phi, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "takes no argument" in capsys.readouterr().err

    def test_empty_exp_decay_rate_exits_2(self, tmp_path):
        out = tmp_path / "x.json"
        assert main(["limit", "--grid", "1", "--phi", "exp_decay:", "--out", str(out)]) == 2
        assert main(["limit", "--grid", "1", "--phi", "exp_decay", "--format", "json",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["phi"] == {"kind": "exp_decay", "param": 1.0}

    def test_missed_tolerance_exits_3(self, tmp_path, monkeypatch, capsys):
        # one subinterval cannot meet the m1 tolerance: ArithmeticError, not a
        # traceback with the exit status of a failed campaign assertion
        monkeypatch.setitem(ll._QUAD_OPTS, "limit", 1)
        out = tmp_path / "limit.csv"
        assert main(["limit", "--grid", "0.5,inf", "--phi", "rational", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "quadrature error estimate" in err
        assert not out.exists()

    def test_integrand_work_stays_batched(self, tmp_path, monkeypatch):
        # a count-based guard, not a timing: the benchmark's hardedge limit run
        # makes 16 integrand calls on 110 qk21 intervals when m1 and m2 come
        # from one pass, the rate tables batch their gaps, and each Newton
        # step of tau integrates from its level's knot for all levels at once
        # (one tau solve per level, re-integrating m1 from 0, took 104 calls)
        intervals = []  # per integrand call
        rule = quadrature._rule

        def counted(f, lo, *args):
            intervals.append(len(lo))
            return rule(f, lo, *args)

        monkeypatch.setattr(quadrature, "_rule", counted)
        out = tmp_path / "limit.json"
        assert main(["limit", "--n", "500", "--phi", "rational", "--grid", "logspace:-1:1.5:6",
                     "--levels", "0.05,0.1,0.15,0.2,0.25,0.3", "--format", "json",
                     "--out", str(out)]) == 0
        assert len(intervals) <= 16
        assert sum(intervals) <= 110

    def test_json_csv_parity(self, tmp_path):
        args = ["limit", "--grid", "0.5,2", "--levels", "0.1,0.3", "--phi", "one"]
        cout, jout = tmp_path / "t.csv", tmp_path / "t.json"
        assert main(args + ["--out", str(cout), "--format", "csv"]) == 0
        assert main(args + ["--out", str(jout), "--format", "json"]) == 0
        payload = json.loads(jout.read_text())
        jrows = {
            (r["quantity"], r["arg1"], r["arg2"]): r["value"] for r in payload["rows"]
        }
        crows = {}
        for r in list(csv.reader(cout.open()))[1:]:
            key = (r[0], float(r[1]) if r[1] else None, float(r[2]) if r[2] else None)
            crows[key] = float(r[3])
        assert set(jrows) == set(crows)
        for k in jrows:
            assert jrows[k] == pytest.approx(crows[k], rel=0, abs=0) or math.isinf(crows[k])


class TestVerifyCommand:
    def test_smoke_clt_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "verify", "--campaign", "clt", "--n", "20", "--replicates", "50",
            "--grid", "0.5,1", "--seed", "4", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True

    def test_forced_failure_exits_1(self, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "verify", "--campaign", "clt", "--n", "20", "--replicates", "50",
            "--grid", "0.5,1", "--seed", "4", "--z-max", "0", "--out", str(out),
        ])
        assert code == 1
        payload = json.loads(out.read_text())
        assert payload["passed"] is False

    def test_zero_lemma_replicates_exits_2(self, tmp_path, capsys):
        code = main([
            "verify", "--campaign", "hitting", "--n", "50", "--levels", "0.075",
            "--replicates", "20", "--n-ladder", "50,100", "--lemma-replicates", "0",
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert "lemma_replicates must be >= 1" in capsys.readouterr().err

    def test_zero_hitting_level_exits_2(self, tmp_path, capsys):
        # this command passed with max |z| = 5.000 at 50 replicates and failed
        # with 10.000 at 200: the z at h = 0 was sqrt(M / 2)
        code = main([
            "verify", "--campaign", "hitting", "--n", "100", "--levels", "0,0.1",
            "--replicates", "50", "--out", str(tmp_path / "h.json"),
        ])
        assert code == 2
        assert "strictly between 0" in capsys.readouterr().err
        # tau(0) = 0 is still a valid entry of the limit table
        assert main(["limit", "--n", "100", "--grid", "1", "--levels", "0,0.1",
                     "--out", str(tmp_path / "l.json")]) == 0

    @pytest.mark.parametrize("campaign, flag, value, message", [
        ("clt", "--z-max", "nan", "z_max must be finite and >= 0"),
        ("clt", "--z-max", "-1", "z_max must be finite and >= 0"),
        ("clt", "--z-max", "inf", "z_max must be finite and >= 0"),
        ("tv_decay", "--tv-threshold", "nan", "tv_threshold must be finite"),
        ("clt", "--grid", "0.5,1,inf", "phi = one is constant, so S(+inf) does not fluctuate"),
        ("escape", "--horizon", "inf", "horizon must be finite and > 0"),
        ("clt", "--grid", "0,1", "S(t) = 0 in every replicate for t <= 0"),
        ("centering_rate", "--n-ladder", "10", "n_ladder needs at least two rungs"),
    ], ids=["z_max-nan", "z_max-negative", "z_max-inf", "tv_threshold-nan", "phi_one-at-inf",
            "horizon-inf", "grid-at-zero", "one-rung-ladder"])
    def test_threshold_or_time_that_decides_the_verdict_exits_2(self, tmp_path, capsys,
                                                                campaign, flag, value, message):
        # each of these used to run: z_max = nan or -1 failed every z gate,
        # inf passed them all, tv_threshold = nan printed "0.2000 <= nan",
        # S(+inf) for phi = 1 failed with |z| = 6.6e14 on rounding noise,
        # horizon = inf failed the escape ladder (cdf 1 on every rung), S(0)
        # failed with no spread, and one rung fitted a slope to one point
        out = tmp_path / "x.json"
        replicates = ["--replicates", "20"] if campaign == "clt" else []
        grid = (["--grid", "1"] if campaign in ("clt", "centering_rate") and flag != "--grid"
                else [])
        code = main(["verify", "--campaign", campaign, "--n", "60", *replicates, *grid,
                     flag, value, "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_descending_n_ladder_exits_2(self, tmp_path, capsys):
        code = main([
            "verify", "--campaign", "tv_decay", "--n", "1000", "--n-ladder", "logspace:3:2:2",
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert "ascending" in capsys.readouterr().err

    @pytest.mark.parametrize("ladder, message", [
        ("100,100,1000", "ascending"),
        ("100.7", "integers"),
        ("logspace:2:3:3", "integers"),  # 316.23 was run as n = 316
    ])
    def test_bad_n_ladder_exits_2(self, tmp_path, capsys, ladder, message):
        code = main([
            "verify", "--campaign", "tv_decay", "--n", "1000", "--n-ladder", ladder,
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("campaign, delta, message", [
        ("escape", "nan", "delta must be finite"),
        ("escape", "1.5", "no particles with theta < 1-delta at n=400"),
        ("tv_decay", "nan", "delta must be finite"),
        ("tv_decay", "3", "no particles with theta > 1+delta at n=400"),
    ])
    def test_delta_leaving_no_particle_exits_2(self, tmp_path, capsys, campaign, delta, message):
        # theta_j = j / 100 at n = 400: no j has theta < -0.5 or theta > 4;
        # tv_decay reads no replicate count
        out = tmp_path / "x.json"
        replicates = ["--replicates", "4"] if campaign == "escape" else []
        code = main(["verify", "--campaign", campaign, "--n", "400", "--delta", delta,
                     *replicates, "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("campaign, flag, value, field", [
        ("tv_decay", "--replicates", "10", "replicates"),
        ("tv_decay", "--phi", "rational", "phi"),
        ("escape", "--grid", "1", "grid"),
        ("clt", "--n-ladder", "100,200", "n_ladder"),
    ])
    def test_flag_the_campaign_does_not_read_exits_2(self, tmp_path, capsys, campaign, flag,
                                                     value, field):
        out = tmp_path / "x.json"
        code = main(["verify", "--campaign", campaign, "--n", "400", flag, value,
                     "--out", str(out)])
        assert code == 2
        assert f"the {campaign} campaign does not read {field};" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, field", [
        ("--lemma-replicates", "10", "lemma_replicates"),
        ("--lemma-horizon", "8", "lemma_levels_horizon"),
    ])
    def test_lemma_knob_without_n_ladder_exits_2(self, tmp_path, capsys, flag, value, field):
        # the lemma ladder runs only along an n_ladder; without one these
        # knobs were recorded in the report and never read
        out = tmp_path / "x.json"
        code = main(["verify", "--campaign", "hitting", "--n", "60", "--levels", "0.075",
                     "--replicates", "50", flag, value, "--out", str(out)])
        assert code == 2
        assert f"reads {field} only with an n_ladder" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("campaign, extra, message", [
        ("moments", [], "argument --campaign: invalid choice: 'moments'"),
        ("clt", ["--center-empirical"], "unrecognized arguments: --center-empirical"),
    ], ids=["moments", "center-empirical"])
    def test_retired_campaign_and_switch_exit_2(self, tmp_path, capsys, campaign, extra,
                                                message):
        # clt gates the mean, covariance, skewness and kurtosis of the same X
        with pytest.raises(SystemExit) as exit_:
            main(["verify", "--campaign", campaign, "--grid", "1", *extra,
                  "--out", str(tmp_path / "x.json")])
        assert exit_.value.code == 2
        assert message in capsys.readouterr().err

    def test_bad_number_names_its_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["verify", "--campaign", "clt", "--grid", "1", "--replicates", "x",
                  "--out", str(tmp_path / "x.json")])
        assert exit_.value.code == 2
        assert "argument --replicates: invalid int value: 'x'" in capsys.readouterr().err

    def test_replicates_default_to_100(self, tmp_path):
        out = tmp_path / "x.json"
        assert main(["verify", "--campaign", "clt", "--n", "10", "--grid", "1",
                     "--out", str(out)]) == 0
        config = json.loads(out.read_text())["config"]
        assert config["replicates"] == 100 and "workers" not in config

    def test_escape_mass_target_is_the_exact_mean(self, tmp_path):
        # the exact mean at t = +inf read 9.1e-15 for 0.2330, so this gate
        # failed with z = 319 against a correct sampler
        out = tmp_path / "escape.json"
        main(["verify", "--campaign", "escape", "--phi", "exp_decay:1", "--n", "500",
              "--replicates", "200", "--delta", "0.2", "--out", str(out)])
        gates = {a["name"]: a["passed"] for a in json.loads(out.read_text())["assertions"]}
        assert gates["total_mass_matches_exact_mean"]

    @pytest.mark.parametrize("campaign", [
        "clt", "escape", "tv_decay", "centering_rate", "hitting",
    ])
    def test_report_schema_validates(self, tmp_path, campaign):
        jsonschema = pytest.importorskip("jsonschema")
        flags = {
            "clt": ["--n", "15", "--replicates", "20", "--grid", "1"],
            "escape": ["--n", "200", "--replicates", "20", "--delta", "0.2"],
            "tv_decay": ["--n", "100"],
            "centering_rate": ["--n", "20", "--grid", "1", "--n-ladder", "10,20"],
            "hitting": ["--n", "50", "--replicates", "20", "--levels", "0.075",
                        "--cross-times", "1"],
        }[campaign]
        out = tmp_path / "report.json"
        main(["verify", "--campaign", campaign, *flags, "--seed", "0", "--out", str(out)])
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, REPORT_SCHEMA)
        assert payload["campaign"] == campaign
        assert payload["passed"] == all(a["passed"] for a in payload["assertions"])

    def test_csv_report_format(self, tmp_path):
        out = tmp_path / "report.csv"
        main([
            "verify", "--campaign", "clt", "--n", "15", "--replicates", "20",
            "--grid", "1", "--seed", "0", "--format", "csv", "--out", str(out),
        ])
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["record", "n", "arg1", "arg2", "estimate", "target", "se", "z"]
        assert len(rows) > 1

    def test_rerun_byte_identical_across_threads(self, tmp_path):
        outs = []
        for threads in ("1", "4"):
            out = tmp_path / f"rep{threads}.json"
            main([
                "verify", "--campaign", "clt", "--n", "30", "--replicates", "300",
                "--grid", "0.5,2", "--seed", "12", "--threads", threads,
                "--out", str(out),
            ])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
