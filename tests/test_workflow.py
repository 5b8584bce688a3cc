"""The CI workflow parses as YAML and keeps its time limit, its test steps
(the numeric modules', the float encoder's, the toy truth's, the
evaluation statistics', the file formats', the CLI's and the tracer
targets' tests among them with RuntimeWarning as an error)
and a benchmark check of every workload."""

import json
import pathlib

import pytest

yaml = pytest.importorskip("yaml")

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_workflow_keeps_its_time_limit_and_steps():
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    job = workflow["jobs"]["tests"]
    assert job["timeout-minutes"] > 0
    runs = [step.get("run", "") for step in job["steps"]]
    tier1 = "python -m pytest -q --continue-on-collection-errors"
    assert any(run.endswith(tier1) and "-X dev" not in run for run in runs)
    assert any("python -X dev -W error::ResourceWarning" in run and "-m pytest" in run for run in runs)
    numeric = ("tests/test_postproc.py tests/test_net.py tests/test_column.py tests/test_features.py "
               "tests/test_floattext.py tests/test_augment.py tests/test_evalbench.py "
               "tests/test_io.py tests/test_cli.py tests/test_workflow.py tests/test_tracer_targets.py")
    assert any("-m pytest -W error::RuntimeWarning" in run and run.endswith(numeric) for run in runs)
    bench = [run for run in runs if "perfbench/run.py" in run]
    assert len(bench) == 1
    for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
        for trace in (0, 1):
            assert f'"{workload["name"]} {trace}"' in bench[0]
