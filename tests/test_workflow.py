"""The CI workflow parses as YAML and keeps its time limit, its test steps
and a benchmark check of every workload; pytest makes a RuntimeWarning an
error in every test file."""

import json
import pathlib

import pytest

yaml = pytest.importorskip("yaml")

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_workflow_keeps_its_time_limit_and_steps(request):
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    job = workflow["jobs"]["tests"]
    assert job["timeout-minutes"] > 0
    runs = [step.get("run", "") for step in job["steps"]]
    tier1 = "python -m pytest -q --continue-on-collection-errors"
    assert any(run.endswith(tier1) and "-X dev" not in run for run in runs)
    assert any("python -X dev -W error::ResourceWarning" in run and "-m pytest" in run for run in runs)
    assert request.config.inipath == ROOT / "pyproject.toml"
    assert "error::RuntimeWarning" in request.config.getini("filterwarnings")
    bench = [run for run in runs if "perfbench/run.py" in run]
    assert len(bench) == 1
    for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
        for trace in (0, 1):
            assert f'"{workload["name"]} {trace}"' in bench[0]
