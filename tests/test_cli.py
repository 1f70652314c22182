import json
from pathlib import Path

import pytest

from tosg.cli import main

DATA = Path(__file__).parent / "data"


def write(tmp_path, name, payload) -> str:
    path = tmp_path / name
    if isinstance(payload, str):
        path.write_text(payload)
    else:
        path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        code, _, err = run(capsys, "solve-duel", path, "--grid", "41")
        assert code == 1
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
        ],
    )
    def test_malformed_matrix_inputs(self, tmp_path, capsys, payload):
        path = write(tmp_path, "bad.json", payload)
        code, out, err = run(capsys, "solve-matrix", path)
        assert code == 2
        assert err != ""

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
        ],
    )
    def test_malformed_documents_never_crash(self, tmp_path, capsys, command, payload):
        path = write(tmp_path, "bad.json", payload)
        code, out, err = run(capsys, command, path)
        assert code == 2
        assert err != ""
