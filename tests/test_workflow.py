"""The CI workflow parses as YAML and keeps its time limit, its test steps
(the I/O and CLI test files under `-X dev`; the row workers' tests, the
part tests of predict and both readers, and the forks right after threaded
stages run five times among them) and a
benchmark check of every workload;
pytest makes a RuntimeWarning an error in every test file."""

import json
import pathlib
import re

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
    dev = [run.split() for run in runs if "python -X dev -W error::ResourceWarning" in run and "-m pytest" in run]
    # the file readers and writers, and the commands' output-path checks, run under -X dev
    assert any({"tests/test_io.py", "tests/test_cli.py"} <= set(words) for words in dev)
    # the row workers' tests, the part tests of predict and both readers, and the forks right after
    # threaded stages, five times or more in one loop that stops at the first failure
    loops = [re.search(r"for \w+ in ([^;\n]*); do\n(.*)\bdone", run, re.S) for run in runs]
    assert any(loop and len(loop.group(1).split()) >= 5 and "tests/test_rowblocks.py" in loop.group(2)
               and "tests/test_cli.py::TestPredictInParts" in loop.group(2)
               and "tests/test_cli.py::TestForkAfterParallelForward" in loop.group(2)
               and "tests/test_io.py::TestProfilesInBlocks" in loop.group(2)
               and "tests/test_io.py::TestFluxesInBlocks" in loop.group(2)
               and "|| exit 1" in loop.group(2) for loop in loops)
    assert request.config.inipath == ROOT / "pyproject.toml"
    assert "error::RuntimeWarning" in request.config.getini("filterwarnings")
    bench = [run for run in runs if "perfbench/run.py" in run]
    assert len(bench) == 1
    for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
        for trace in (0, 1):
            assert f'"{workload["name"]} {trace}"' in bench[0]
