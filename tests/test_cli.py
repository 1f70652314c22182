import copy
import functools
import json
import math
import operator
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tosg.cli import main

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
        code, out, err = run(capsys, "solve-evasion", "--tol", "1e-9")
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
        assert doc["value"] == pytest.approx(1.5)
        assert doc["method"] == "exact"

    def test_fictitious_play(self, tmp_path, capsys):
        path = write(tmp_path, "game.json", {"entries": [[1.0, -1.0], [-1.0, 1.0]]})
        code, out, _ = run(
            capsys, "solve-matrix", path, "--method", "fictitious-play", "--iterations", "5000"
        )
        assert code == 0
        doc = json.loads(out)
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

        code, out, _ = run(capsys, "solve-timing", path, "--grid", "21", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,weight,cdf"
        assert len(lines) == 22


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


# Small valid documents for every subcommand that reads one, with its flags.
SEED_DOCUMENTS = {
    "solve-matrix": ((), {**MATRIX, "row_labels": [0.0, 1.0], "col_labels": [0.0, 1.0]}),
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
