"""One traced unit of every workload that BENCHMARK.json lists runs clean.

Each op goes through `tosg.cli.main` under the benchmark's own tracer
(`perfbench/spans.py`) and output checks (`perfbench/workloads.py`), so a
change that breaks a benchmark op, its expected output, or an attribute the
tracer wraps fails here instead of in a benchmark run.
"""

import json
import sys
from pathlib import Path

import pytest

from tosg.cli import main

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from spans import Tracer  # noqa: E402
from workloads import check, make_plan  # noqa: E402

LISTED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", LISTED)
def test_one_traced_unit_runs_clean(name, tmp_path, capsys):
    plan = make_plan(name, 11, str(ROOT), str(tmp_path))
    tracer = Tracer()
    for op in plan["units"][0]:
        tracer.install()
        try:
            code = tracer.call("cli.main", main, op["argv"])
        finally:
            tracer.uninstall()
        assert code == 0, capsys.readouterr().err
        assert check(op) is None
