import re
import types
from pathlib import Path

import hardedge
from hardedge import verify
from hardedge.cli import _KNOB_FLAGS

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


def test_readme_campaign_table_matches_the_registry():
    # one row per campaign kind, listing exactly the knob flags whose field
    # the kind reads: nothing else keeps this table in step with the code
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", README.read_text(), re.M)
    assert [kind for kind, _flags in rows] == list(verify.CAMPAIGN_KINDS)
    for kind, flags in rows:
        reads = verify._CAMPAIGNS[kind].reads
        assert sorted(re.findall(r"--[\w-]+", flags)) == sorted(
            flag for flag, field, _parse in _KNOB_FLAGS if field in reads), kind
