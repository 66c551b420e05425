import csv
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_covariance_convergence_runs(tmp_path):
    # nothing else imports the script, so a stale name in it goes unseen
    spec = importlib.util.spec_from_file_location(
        "covariance_convergence", SCRIPTS / "covariance_convergence.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path / "table" / "cov.csv"
    assert script.main(["--ladder", "20,40", "--replicates", "50", "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["n", "max_abs_z", "max_rel_var_dev"]
    assert [r[0] for r in rows[1:]] == ["20", "40"]
    assert all(float(v) >= 0.0 for r in rows[1:] for v in r[1:])
