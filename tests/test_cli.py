import argparse
import copy
import functools
import json
import math
import operator
import os
import random
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import tosg.cli
from tosg.cli import _build_parser, main

DATA = Path(__file__).parent / "data"
GOLDEN_CONFIG = json.loads((DATA / "golden_protocol_config.json").read_text())
DUEL_1V1 = {"m": 1, "n": 1, "p": {"kind": "identity"}, "q": {"kind": "identity"}}
MATRIX = {"rows": 2, "cols": 2, "entries": [[3, 1], [0, 2]]}
TOSG = {
    "objective": {"kind": "quadratic", "q": [-1, -1, -1], "c": [0, 0, 0]},
    "constraints": [{"kind": "coord", "index": i} for i in range(3)],
    "targets": [1.0, 2.0, 3.0],
}


def write(tmp_path, name, payload) -> str:
    path = tmp_path / name
    if isinstance(payload, str):
        path.write_text(payload)
    else:
        path.write_text(json.dumps(payload))
    return str(path)


def big(doc: dict, key: str) -> str:
    """doc as JSON text with the top-level ``key`` set to 1e400, which parses as inf."""
    return json.dumps({**doc, key: None}).replace(f'"{key}": null', f'"{key}": 1e400')


def run(capsys, *argv):
    # pytest intercepts warnings; outside it each one prints to stderr, so add them there.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(list(argv))
    captured = capsys.readouterr()
    err = captured.err + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return code, captured.out, err


class TestSolveEvasion:
    def test_stdout_json_and_exit_zero(self, capsys):
        code, out, err = run(capsys, "solve-evasion")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(0.381966, abs=1e-6)
        assert doc["x_star"] == pytest.approx(0.381966, abs=1e-6)


class TestSolveMatrix:
    def test_exact(self, tmp_path, capsys):
        path = write(tmp_path, "game.json", {"entries": [[3.0, 1.0], [0.0, 2.0]]})
        code, out, _ = run(capsys, "solve-matrix", path)
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"value", "row_strategy", "col_strategy", "residual", "method"}
        assert doc["value"] == pytest.approx(1.5)
        assert doc["method"] == "exact"

    def test_skew_symmetric_game_shares_one_strategy(self, tmp_path, capsys):
        # Rock-paper-scissors with unequal stakes.
        game = {"entries": [[0.0, -1.0, 2.0], [1.0, 0.0, -3.0], [-2.0, 3.0, 0.0]]}
        code, out, _ = run(capsys, "solve-matrix", write(tmp_path, "game.json", game))
        assert code == 0
        doc = json.loads(out)
        assert doc["row_strategy"] == doc["col_strategy"]
        assert doc["row_strategy"]["weights"] == pytest.approx([0.5, 1 / 3, 1 / 6])
        assert abs(doc["value"]) <= 1e-9

    def test_fictitious_play(self, tmp_path, capsys):
        path = write(tmp_path, "game.json", {"entries": [[1.0, -1.0], [-1.0, 1.0]]})
        code, out, _ = run(
            capsys, "solve-matrix", path, "--method", "fictitious-play", "--iterations", "5000"
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"value", "row_strategy", "col_strategy", "residual", "method", "iterations"}
        assert doc["method"] == "fictitious_play"
        assert abs(doc["value"]) <= 0.05

    def test_missing_file_names_path(self, capsys):
        code, out, err = run(capsys, "solve-matrix", "missing.json")
        assert code == 2
        assert out == ""
        assert "missing.json" in err

    def test_output_file(self, tmp_path, capsys):
        path = write(tmp_path, "game.json", {"entries": [[1.0]]})
        out_path = tmp_path / "result.json"
        code, out, _ = run(capsys, "solve-matrix", path, "--output", str(out_path))
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["value"] == pytest.approx(1.0)

    def test_output_into_missing_directory_is_exit_two(self, tmp_path, capsys):
        path = write(tmp_path, "game.json", {"entries": [[1.0]]})
        out_path = tmp_path / "missing" / "result.json"
        code, out, err = run(capsys, "solve-matrix", path, "--output", str(out_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_entries_past_the_float64_floor_are_exit_one_with_one_line(self, tmp_path, capsys):
        # At entries of order 1e8 the rounding of sigma^T A alone is about 1e-7,
        # so no float64 solve certifies a gap of SADDLE_TOL = 1e-9.
        rng = random.Random(0)
        game = {"entries": [[rng.uniform(-1e8, 1e8) for _ in range(50)] for _ in range(40)]}
        code, out, err = run(capsys, "solve-matrix", write(tmp_path, "game.json", game))
        assert code == 1
        assert out == ""
        assert re.fullmatch(r"error: saddle gap \S+ exceeds tol 1\.000e-09\n", err)

    def test_overflowing_fictitious_play_is_exit_one_with_one_line(self, tmp_path, capsys):
        # The cumulative payoffs of the second iteration pass the float64 range.
        game = {"entries": [[1e308, -1e308], [-1e308, 1e308]]}
        path = write(tmp_path, "game.json", game)
        code, out, err = run(capsys, "solve-matrix", path, "--method", "fictitious-play", "--iterations", "1000")
        assert code == 1
        assert out == ""
        assert err == "error: fictitious play payoff sums overflow at iteration 2\n"


class TestSimulateDuel:
    def test_deterministic_across_runs(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "duel.json",
            {"m": 1, "n": 1, "p": {"kind": "identity"}, "q": {"kind": "identity"},
             "x": [0.5], "y": [0.6]},
        )
        first = run(capsys, "simulate-duel", path, "--seed", "7", "--iterations", "50000")
        second = run(capsys, "simulate-duel", path, "--seed", "7", "--iterations", "50000")
        assert first == second
        assert first[0] == 0
        doc = json.loads(first[1])
        assert doc["estimate"] == pytest.approx(0.2, abs=0.02)

    def test_seed_required(self, tmp_path, capsys):
        path = write(tmp_path, "duel.json", {"m": 1, "n": 1,
                                             "p": {"kind": "identity"},
                                             "q": {"kind": "identity"},
                                             "x": [0.5], "y": [0.6]})
        code, _, _ = run(capsys, "simulate-duel", path)
        assert code == 2

    def test_times_required(self, tmp_path, capsys):
        path = write(tmp_path, "duel.json", {"m": 1, "n": 1,
                                             "p": {"kind": "identity"},
                                             "q": {"kind": "identity"}})
        code, _, err = run(capsys, "simulate-duel", path, "--seed", "1")
        assert code == 2
        assert "x" in err

    def test_nan_table_time_rejected(self, tmp_path, capsys):
        table = {"kind": "table", "points": [[0, 0], [float("nan"), 0.5], [1, 1]]}
        path = write(tmp_path, "duel.json", {"m": 1, "n": 1, "p": table,
                                             "q": {"kind": "identity"},
                                             "x": [0.5], "y": [0.6]})
        code, out, err = run(capsys, "simulate-duel", path, "--seed", "1")
        assert code == 2
        assert out == "" and err != ""


class TestSolveDuelCommand:
    def test_json_output(self, tmp_path, capsys):
        path = write(tmp_path, "duel.json", {"m": 1, "n": 1,
                                             "p": {"kind": "identity"},
                                             "q": {"kind": "identity"}})
        code, out, _ = run(capsys, "solve-duel", path, "--grid", "41")
        assert code == 0
        doc = json.loads(out)
        # The verified gap of solve_duel stays internal: no "residual" key.
        assert set(doc) == {"value", "p1_density", "p2_density", "support_p1", "support_p2", "grid_n"}
        assert abs(doc["value"]) <= 1e-9
        assert doc["support_p1"][0] == pytest.approx(1 / 3, abs=0.05)
        # Output schema 1 keeps the key; no solver places a separate atom at 0.
        assert doc["p1_density"]["atom_at_zero"] == 0.0
        assert doc["p2_density"]["atom_at_zero"] == 0.0

    def test_csv_schema(self, tmp_path, capsys):
        path = write(tmp_path, "duel.json", {"m": 1, "n": 1,
                                             "p": {"kind": "identity"},
                                             "q": {"kind": "identity"}})
        code, out, _ = run(capsys, "solve-duel", path, "--grid", "21", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,weight,cdf"
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert len(rows) == 21
        assert rows[-1][2] == pytest.approx(1.0, abs=1e-9)

    def test_guard_exceeded_is_exit_one(self, tmp_path, capsys):
        path = write(tmp_path, "duel.json", {"m": 2, "n": 6,
                                             "p": {"kind": "identity"},
                                             "q": {"kind": "identity"}})
        # 2,000,000 points x 7 shot states exceed the 12,000,000 cap.
        code, out, err = run(capsys, "solve-duel", path, "--grid", "2000000")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "pairs" in err


class TestTreeAndTiming:
    def test_eval_tree(self, tmp_path, capsys):
        tree = {
            "kind": "min",
            "children": [
                {"kind": "max", "children": [{"kind": "leaf", "payoff": 1.0},
                                             {"kind": "leaf", "payoff": 3.0}]},
                {"kind": "chance", "probs": [0.5, 0.5],
                 "children": [{"kind": "leaf", "payoff": 4.0},
                              {"kind": "leaf", "payoff": 0.0}]},
            ],
        }
        code, out, _ = run(capsys, "eval-tree", write(tmp_path, "tree.json", tree))
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(2.0)

    def test_solve_timing_json_and_csv(self, tmp_path, capsys):
        path = write(tmp_path, "kernel.json", {"A": {"kind": "duel"}, "grid_n": 101})
        code, out, _ = run(capsys, "solve-timing", path)
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["value"]) <= 1e-9
        assert doc["support_lo"] == pytest.approx(1 / 3, abs=0.02)

        path = write(tmp_path, "kernel21.json", {"A": {"kind": "duel"}, "grid_n": 21})
        code, out, _ = run(capsys, "solve-timing", path, "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,weight,cdf"
        assert len(lines) == 22

    def test_solve_timing_801_meets_default_tol(self, tmp_path, capsys):
        path = write(tmp_path, "kernel.json", {"A": {"kind": "duel"}, "grid_n": 801})
        code, out, err = run(capsys, "solve-timing", path)
        assert code == 0, err
        assert json.loads(out)["residual_eq11"] <= 5e-10


class TestRiskAndTosg:
    def test_risk_both_sections(self, tmp_path, capsys):
        payload = {
            "economic": {"threat_rate": 2.0, "vulnerability": 0.5, "cost": 10.0},
            "mitigating": {"pa": 1.0, "pi": 0.8, "pn": 0.9, "ce": 100.0},
        }
        code, out, _ = run(capsys, "risk", write(tmp_path, "risk.json", payload))
        assert code == 0
        doc = json.loads(out)
        assert doc["economic"] == pytest.approx(10.0)
        assert doc["mitigating"] == pytest.approx(28.0)

    def test_overflowing_risk_is_exit_one_with_one_line(self, tmp_path, capsys):
        # The product overflows to inf, which JSON cannot carry.
        payload = {"economic": {"threat_rate": 1e308, "vulnerability": 0.5, "cost": 10}}
        code, out, err = run(capsys, "risk", write(tmp_path, "risk.json", payload))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_solve_tosg(self, tmp_path, capsys):
        payload = {
            "objective": {"kind": "quadratic", "q": [-1, -1, -1], "c": [0, 0, 0]},
            "constraints": [{"kind": "coord", "index": i} for i in range(3)],
            "targets": [1.0, 2.0, 3.0],
        }
        code, out, _ = run(capsys, "solve-tosg", write(tmp_path, "tosg.json", payload))
        assert code == 0
        doc = json.loads(out)
        assert doc["d_star"] == pytest.approx([1.0, 2.0, 3.0])
        assert doc["multipliers"] == pytest.approx([2.0, 4.0, 6.0])

    def test_degenerate_tosg_is_exit_one(self, tmp_path, capsys):
        payload = {
            "objective": {"kind": "affine", "c": [1, 1, 1, 1]},
            "constraints": [{"kind": "coord", "index": i} for i in range(3)],
            "targets": [1.0, 2.0, 3.0],
            "dimension": 4,
        }
        code, _, err = run(capsys, "solve-tosg", write(tmp_path, "tosg.json", payload))
        assert code == 1
        assert "singular" in err

    def test_overflowing_tosg_is_exit_one_with_one_line(self, tmp_path, capsys):
        payload = {
            **TOSG,
            "objective": {"kind": "quadratic", "q": [1e308, 1, 1], "c": [1e308, 1, 1]},
            "targets": [1e308, 1, 1],
        }
        code, out, err = run(capsys, "solve-tosg", write(tmp_path, "tosg.json", payload))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestRunProtocol:
    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "run-protocol", str(DATA / "golden_protocol_config.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc == json.loads((DATA / "golden_protocol_report.json").read_text())

    def test_csv_density(self, capsys):
        code, out, _ = run(
            capsys, "run-protocol", str(DATA / "golden_protocol_config.json"),
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,weight,cdf"
        assert len(lines) == 202

    def test_nan_score_table_time_rejected_before_stages(self, tmp_path, capsys):
        doc = json.loads((DATA / "golden_protocol_config.json").read_text())
        points = [[0.0, 0.0], [float("nan"), 0.5], [1.0, 1.0]]
        doc["score"] = {"kind": "table", "points": points}
        code, out, err = run(capsys, "run-protocol", write(tmp_path, "config.json", doc))
        assert code == 2
        assert out == "" and err != ""
        assert "stage" not in err

    def test_singular_decision_stage_is_exit_one(self, tmp_path, capsys):
        doc = {**GOLDEN_CONFIG, "constraints": [{"kind": "coord", "index": i} for i in (0, 0, 2)]}
        code, out, err = run(capsys, "run-protocol", write(tmp_path, "config.json", doc))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "stage 'decision'" in err


# The README's example documents; MATRIX above is its payoff matrix.
README_DUEL = {"m": 2, "n": 6, "p": {"kind": "identity"}, "q": {"kind": "power", "k": 2}}
README_TREE = {
    "kind": "min",
    "children": [
        {"kind": "max", "children": [{"kind": "leaf", "payoff": 1.0},
                                     {"kind": "leaf", "payoff": 3.0}]},
        {"kind": "chance", "probs": [0.5, 0.5],
         "children": [{"kind": "leaf", "payoff": 4.0}, {"kind": "leaf", "payoff": 0.0}]},
    ],
}
README_RISK = {
    "economic": {"threat_rate": 2.0, "vulnerability": 0.5, "cost": 10.0},
    "mitigating": {"pa": 1.0, "pi": 0.8, "pn": 0.9, "ce": 100.0},
}
SKEW_GAME = {"entries": [[0.0, -1.0, 2.0], [1.0, 0.0, -3.0], [-2.0, 3.0, 0.0]]}
DUEL_2V3 = {**README_DUEL, "n": 3}
AFFINE_KERNEL = {"A": {"kind": "affine", "cx": 1.0, "cy": -1.0, "cxy": 1.0, "c0": 0.0}, "grid_n": 51}

# File under data/cli holding the exact stdout -> (subcommand and flags, input document).
PINNED_OUTPUTS = {
    "solve-matrix-exact.json": (["solve-matrix"], MATRIX),
    "solve-matrix-skew.json": (["solve-matrix"], SKEW_GAME),
    "solve-matrix-fictitious-play.json": (
        ["solve-matrix", "--method", "fictitious-play", "--iterations", "5000"], SKEW_GAME
    ),
    "solve-duel-2v3.json": (["solve-duel", "--grid", "15"], DUEL_2V3),
    "solve-duel-2v3.csv": (["solve-duel", "--grid", "15", "--format", "csv"], DUEL_2V3),
    "solve-duel-1v1.json": (["solve-duel", "--grid", "41"], DUEL_1V1),
    "simulate-duel.json": (
        ["simulate-duel", "--seed", "7"], {**README_DUEL, "x": [0.4, 0.8], "y": [0.1, 0.3, 0.5, 0.6, 0.7, 0.9]}
    ),
    "eval-tree.json": (["eval-tree"], README_TREE),
    "solve-evasion.json": (["solve-evasion"], None),
    "solve-timing-duel.json": (["solve-timing"], {"A": {"kind": "duel"}, "grid_n": 101}),
    "solve-timing-affine.csv": (["solve-timing", "--format", "csv"], AFFINE_KERNEL),
    "risk.json": (["risk"], README_RISK),
    "solve-tosg.json": (["solve-tosg"], TOSG),
    "run-protocol.csv": (["run-protocol", "--format", "csv"], GOLDEN_CONFIG),
}


class TestPinnedOutputs:
    @pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
    def test_output_bytes(self, tmp_path, capsys, name):
        (command, *flags), document = PINNED_OUTPUTS[name]
        if document is not None:
            flags.insert(0, write(tmp_path, "doc.json", document))
        code, out, err = run(capsys, command, *flags)
        assert code == 0, err
        assert out.encode("utf-8") == (DATA / "cli" / name).read_bytes()


# Runs main on each command line in order, in one fresh interpreter, and
# prints, per step, its exit code and whether scipy / scipy.optimize are loaded.
STARTUP_PROBE = """
import contextlib, io, json, sys
import tosg.cli

steps = [["import tosg.cli", 0, "scipy" in sys.modules, "scipy.optimize" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = tosg.cli.main(argv)
    steps.append([argv[0], code, "scipy" in sys.modules, "scipy.optimize" in sys.modules])
print(json.dumps(steps))
"""


class TestStartup:
    def test_scipy_loads_only_with_the_first_lp(self, tmp_path):
        # Importing scipy.optimize takes several times as long as these
        # commands' work, so only an exact solve may load it.  The exact
        # solve runs last, as the control that the probe sees scipy at all.
        argvs = [["--version"]]
        for name in (
            "eval-tree.json", "risk.json", "simulate-duel.json", "solve-evasion.json",
            "solve-tosg.json", "solve-matrix-fictitious-play.json", "solve-matrix-exact.json",
        ):
            (command, *flags), document = PINNED_OUTPUTS[name]
            if document is not None:
                flags.insert(0, write(tmp_path, name, document))
            argvs.append([command, *flags])
        src = str(Path(tosg.cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        probe = subprocess.run(
            [sys.executable, "-c", STARTUP_PROBE, json.dumps(argvs)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert probe.returncode == 0, probe.stderr
        steps = json.loads(probe.stdout)
        assert [step for step, code, _, _ in steps if code != 0] == []
        *lean, exact = steps
        assert [step for step, _, scipy, _ in lean if scipy] == []
        assert exact[0] == "solve-matrix" and exact[3]


class TestCliContract:
    def test_version(self, capsys):
        code, out, err = run(capsys, "--version")
        assert code == 0
        assert "tosg" in out + err

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "conquer")
        assert code == 2

    @pytest.mark.parametrize(
        "payload",
        [
            "{",  # truncated
            "",  # empty
            "[1, 2, 3]",  # not an object
            '{"entries": "nope"}',
            '{"entries": [[NaN]]}',
            '{"rows": 1}',
            pytest.param("[" * 100_000, id="deep-nesting"),  # RecursionError in json.load
        ],
    )
    def test_malformed_matrix_inputs(self, tmp_path, capsys, payload):
        path = write(tmp_path, "bad.json", payload)
        code, out, err = run(capsys, "solve-matrix", path)
        assert code == 2
        assert err != ""

    def test_deep_trees_never_crash(self, tmp_path, capsys):
        # json.load and GameTree.from_dict both recurse per level, so near the
        # recursion limit either may give out first.
        half = sys.getrecursionlimit() // 2
        for depth in range(half - 60, half + 5):
            leaf = '{"kind": "leaf", "payoff": 1}'
            tree = '{"kind": "max", "children": [' * depth + leaf + "]}" * depth
            code, _, err = run(capsys, "eval-tree", write(tmp_path, "tree.json", tree))
            assert code in (0, 2)
            assert code == 0 or err.count("\n") == 1

    @pytest.mark.parametrize(
        "command,payload",
        [
            ("solve-duel", {"m": 0, "n": 1, "p": {"kind": "identity"}, "q": {"kind": "identity"}}),
            ("solve-duel", {"m": 1, "n": 1, "p": {"kind": "warp"}, "q": {"kind": "identity"}}),
            ("eval-tree", {"kind": "loop"}),
            ("eval-tree", {"kind": "chance", "children": [{"kind": "leaf", "payoff": 1}], "probs": [0.4]}),
            ("solve-timing", {"A": {"kind": "duel"}}),
            ("solve-timing", {"A": {"kind": "affine", "cx": 1.0}, "grid_n": 11}),
            ("risk", {"unrelated": 1}),
            ("solve-tosg", {"objective": {"kind": "quadratic", "q": [1], "c": [1]}}),
            ("run-protocol", {"risks": {}}),
            ("risk", {"mitigating": {"pi": 0.5, "pn": 0.5, "ce": 10**400}}),  # overflows float
            # 1e400 parses as inf
            pytest.param("solve-duel", big(DUEL_1V1, "m"), id="solve-duel-m-1e400"),
            pytest.param(
                "solve-timing", big({"A": {"kind": "duel"}}, "grid_n"), id="solve-timing-grid_n-1e400"
            ),
            pytest.param("solve-matrix", big(MATRIX, "rows"), id="solve-matrix-rows-1e400"),
            pytest.param("solve-tosg", big(TOSG, "dimension"), id="solve-tosg-dimension-1e400"),
            pytest.param(
                "solve-tosg",
                json.dumps(TOSG).replace('"index": 0', '"index": 1e400'),
                id="solve-tosg-index-1e400",
            ),
            pytest.param("run-protocol", big(GOLDEN_CONFIG, "grid_n"), id="run-protocol-grid_n-1e400"),
            pytest.param("run-protocol", big(GOLDEN_CONFIG, "seed"), id="run-protocol-seed-1e400"),
            # fractions, booleans and strings in integer fields
            ("solve-duel", {**DUEL_1V1, "m": 2.7}),
            ("solve-duel", {**DUEL_1V1, "m": True}),
            ("run-protocol", {**GOLDEN_CONFIG, "grid_n": 21.5}),
            ("solve-matrix", {"rows": 1.5, "entries": [[3, 1]]}),
            ("solve-matrix", {"rows": True, "entries": [[3, 1]]}),
            ("solve-matrix", {**MATRIX, "cols": "2"}),
            # containers of the wrong type
            ("eval-tree", {"kind": "max", "children": 5}),
            ("eval-tree", {"kind": "chance", "children": [{"kind": "leaf", "payoff": 1}], "probs": 5}),
        ],
    )
    def test_malformed_documents_never_crash(self, tmp_path, capsys, command, payload):
        path = write(tmp_path, "bad.json", payload)
        code, out, err = run(capsys, command, path)
        assert code == 2
        assert err != ""


# Every option of every subcommand; "input" is the positional document path.
CLI_SURFACE = {
    "solve-matrix": {"input", "--output", "--method", "--iterations"},
    "solve-duel": {"input", "--output", "--format", "--grid"},
    "simulate-duel": {"input", "--output", "--seed", "--iterations"},
    "eval-tree": {"input", "--output"},
    "solve-evasion": {"--output"},
    "solve-timing": {"input", "--output", "--format"},
    "risk": {"input", "--output"},
    "solve-tosg": {"input", "--output"},
    "run-protocol": {"input", "--output", "--format"},
}


class TestCliSurface:
    def test_options_match_the_table(self):
        (subparsers,) = (
            a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        surface = {
            name: {
                option
                for action in sub._actions
                if not isinstance(action, argparse._HelpAction)
                for option in (action.option_strings or [action.dest])
            }
            for name, sub in subparsers.choices.items()
        }
        assert surface == CLI_SURFACE

    @pytest.mark.parametrize(
        "command, document, flag",
        [
            ("solve-matrix", MATRIX, ["--tol", "1e-9"]),
            ("solve-tosg", TOSG, ["--tol", "1e-10"]),
            ("solve-timing", {"A": {"kind": "duel"}, "grid_n": 11}, ["--grid", "21"]),
        ],
    )
    def test_removed_flags_exit_two(self, tmp_path, capsys, command, document, flag):
        code, out, err = run(capsys, command, write(tmp_path, "doc.json", document), *flag)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: " + " ".join(flag) in err

    def test_readme_commands_parse(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        block = re.search(r"## Command line\n.*?```sh\n(.*?)```", readme, re.S).group(1)
        lines = [line for line in block.splitlines() if line.startswith("tosg ")]
        parser = _build_parser()
        for line in lines:
            try:
                parser.parse_args(shlex.split(line)[1:])
            except SystemExit as exc:  # --version exits 0; a parse error exits 2
                assert exc.code == 0, line
        documented = {line.split()[1] for line in lines} - {"--version"}
        assert documented == set(CLI_SURFACE)


# Small valid documents for every subcommand that reads one, with its flags.
SEED_DOCUMENTS = {
    "solve-matrix": ((), MATRIX),
    "solve-duel": (
        ("--grid", "5"),
        {
            "m": 2,
            "n": 1,
            "p": {"kind": "power", "k": 2},
            "q": {"kind": "table", "points": [[0, 0], [0.5, 0.3], [1, 1]]},
            "tie_rule": "simultaneous-independent",
        },
    ),
    "simulate-duel": (
        ("--seed", "1", "--iterations", "100"),
        {**DUEL_1V1, "m": 2, "p": {"kind": "power", "k": 2}, "x": [0.2, 0.7], "y": [0.5]},
    ),
    "eval-tree": (
        (),
        {
            "kind": "min",
            "children": [
                {"kind": "max", "children": [{"kind": "leaf", "payoff": 1.0}]},
                {"kind": "chance", "probs": [0.5, 0.5],
                 "children": [{"kind": "leaf", "payoff": 4.0}, {"kind": "leaf", "payoff": 0.0}]},
            ],
        },
    ),
    "solve-timing": (
        (),
        {"A": {"kind": "affine", "cx": 1.0, "cy": -1.0, "cxy": 1.0, "c0": 0.0}, "grid_n": 11},
    ),
    "risk": (
        (),
        {
            "economic": {"threat_rate": 2.0, "vulnerability": 0.5, "cost": 10.0},
            "mitigating": {"pa": 1.0, "pi": 0.8, "pn": 0.9, "ce": 100.0},
        },
    ),
    "solve-tosg": (
        (),
        {
            **TOSG,
            "constraints": [
                {"kind": "coord", "index": 0},
                {"kind": "coord", "index": 1},
                {"kind": "affine", "a": [0, 0, 1], "b": 0.0},
            ],
            "dimension": 3,
        },
    ),
    "run-protocol": ((), {**GOLDEN_CONFIG, "grid_n": 11}),
}
DELETE = object()
FIELD_VALUES = [None, True, 0, -1, 2.5, 10**400, math.inf, math.nan, 1e308, "x", [], {}, [1, 2]]


def field_paths(doc, prefix=()):
    """Key paths of every field at every depth of a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


class TestFuzzedDocuments:
    @pytest.mark.parametrize("command", sorted(SEED_DOCUMENTS))
    @settings(
        max_examples=1000,  # more than the one-field changes of any seed document
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_one_changed_field_ends_in_a_defined_exit(self, tmp_path, capsys, command, data):
        flags, seed_doc = SEED_DOCUMENTS[command]
        doc = copy.deepcopy(seed_doc)
        path = data.draw(st.sampled_from(list(field_paths(doc))), label="path")
        value = data.draw(st.sampled_from([DELETE, *FIELD_VALUES]), label="value")
        parent = functools.reduce(operator.getitem, path[:-1], doc)
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        code, _, err = run(capsys, command, write(tmp_path, "doc.json", doc), *flags)
        assert code in (0, 1, 2)
        if code == 0:
            assert err == ""
        else:
            assert err.startswith("error: ") and err.count("\n") == 1, err
