import re
import types
from pathlib import Path

import hardedge

README = Path(__file__).resolve().parents[1] / "README.md"

# Adding or removing a public name is a decision: change this list with it.
PUBLIC_NAMES = [
    "EnsembleParams",
    "ExperimentConfig",
    "ExperimentReport",
    "LimitLaw",
    "PhiSpec",
    "TestFunction",
    "cdf_u",
    "exp_rate",
    "log_reg_lower_gamma",
    "mean_exact",
    "omega1",
    "omega2",
    "phi_exp_decay",
    "phi_from_table",
    "phi_one",
    "phi_rational",
    "run_campaign",
    "sample_batch",
    "statistic_paths",
    "theta",
    "tv_upper_bound",
]


def test_public_names():
    names = [name for name in dir(hardedge) if not name.startswith("_")
             and not isinstance(getattr(hardedge, name), types.ModuleType)]
    assert sorted(names) == PUBLIC_NAMES


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
