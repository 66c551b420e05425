"""The benchmark's workloads, imported from ``perfbench/`` unchanged, still
build, run and pass their own checks against this tree, so a change to the
campaign API that would break the benchmark fails here first."""

import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("workloads")


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_runs_and_passes_its_check(workloads, tmp_path, name):
    work = workloads.build(name, 42, tmp_path)
    problems, _ = work.check(work.run())
    assert problems == []
