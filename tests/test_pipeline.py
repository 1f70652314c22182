import copy
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tosg.errors import InputError, SolverError, StageError
from tosg.pipeline import ProtocolConfig, imbed_objective, run_protocol
from tosg.timing import build_kernel, duel_kernel_fn, solve_timing

DATA = Path(__file__).parent / "data"
GOLDEN_CONFIG = json.loads((DATA / "golden_protocol_config.json").read_text())
GOLDEN_REPORT = json.loads((DATA / "golden_protocol_report.json").read_text())


def zero_risk_config(grid_n=201, weight=0.0) -> dict:
    doc = copy.deepcopy(GOLDEN_CONFIG)
    for key in doc["risks"]:
        doc["risks"][key]["pa"] = 0.0
    doc["lambda"] = weight
    doc["grid_n"] = grid_n
    return doc


class TestImbedObjective:
    def test_zero_weight_is_identity(self):
        kernel = build_kernel(duel_kernel_fn, 51)
        shifted = imbed_objective(kernel, kernel.grid, 0.0)
        assert np.all(shifted.matrix == kernel.matrix)

    def test_constant_score_is_identity(self):
        kernel = build_kernel(duel_kernel_fn, 51)
        shifted = imbed_objective(kernel, np.full(51, 0.7), 3.0)
        assert np.all(shifted.matrix == kernel.matrix)

    def test_skew_symmetry_preserved(self):
        kernel = build_kernel(duel_kernel_fn, 101)
        rng = np.random.default_rng(5)
        for weight in (0.1, 0.5, 2.0):
            scores = rng.random(101)
            shifted = imbed_objective(kernel, scores, weight)
            assert np.all(shifted.matrix == -shifted.matrix.T)
            solved = solve_timing(shifted)
            assert abs(solved.value) <= 1e-9

    def test_duel_kernel_linear_score_regression(self):
        # regression fixture: first solve recorded these numbers
        kernel = build_kernel(duel_kernel_fn, 201)
        shifted = imbed_objective(kernel, kernel.grid, 0.5)
        solution = solve_timing(shifted)
        assert abs(solution.value) <= 1e-9
        assert solution.residual_eq11 <= 1e-6
        assert solution.residual_eq12 <= 1e-12
        assert solution.support_lo == pytest.approx(0.43, abs=1e-12)
        assert not solution.has_zero_atom

    def test_validation(self):
        kernel = build_kernel(duel_kernel_fn, 11)
        with pytest.raises(InputError):
            imbed_objective(kernel, kernel.grid, -0.5)
        with pytest.raises(InputError):
            imbed_objective(kernel, np.full(11, np.nan), 0.5)
        with pytest.raises(InputError):
            imbed_objective(kernel, np.ones(7), 0.5)


class TestProtocolConfig:
    def test_roundtrip_and_hash_stability(self):
        config = ProtocolConfig.from_dict(GOLDEN_CONFIG)
        again = ProtocolConfig.from_dict(config.to_dict())
        assert config.sha256() == again.sha256()

    def test_affine_parts_roundtrip_and_hash(self):
        # AffineObjective.to_dict and AffineConstraint.to_dict feed the hash
        # as the golden config's quadratic and coordinate parts do.
        doc = {
            **GOLDEN_CONFIG,
            "objective": {"kind": "affine", "c": [1.0, -2.0, 0.5], "b": 0.25},
            "constraints": [
                {"kind": "coord", "index": 0},
                {"kind": "affine", "a": [0.5, 0.5, 0.0], "b": -1.0},
                {"kind": "coord", "index": 2},
            ],
        }
        config = ProtocolConfig.from_dict(doc)
        assert config.to_dict() == doc
        again = ProtocolConfig.from_dict(config.to_dict())
        assert again.sha256() == config.sha256()
        assert config.sha256() == "ec4f68b7817c3d0fafea3a677870dfcca8e6719a6875dab6489bb6ac4ef14d21"

    def test_missing_field(self):
        doc = copy.deepcopy(GOLDEN_CONFIG)
        del doc["baselines"]
        with pytest.raises(InputError):
            ProtocolConfig.from_dict(doc)

    def test_bad_lambda(self):
        doc = copy.deepcopy(GOLDEN_CONFIG)
        doc["lambda"] = -1.0
        with pytest.raises(InputError):
            ProtocolConfig.from_dict(doc)

    def test_bad_score_table(self):
        doc = copy.deepcopy(GOLDEN_CONFIG)
        doc["score"] = {"kind": "table", "points": [[0.0, 1.0], [0.5, 2.0]]}
        with pytest.raises(InputError):
            ProtocolConfig.from_dict(doc)


class TestRunProtocol:
    def test_zero_risk_zero_weight_reproduces_base_interval(self):
        config = ProtocolConfig.from_dict(zero_risk_config())
        report = run_protocol(config)
        assert report.targets == pytest.approx((1.0, 2.0, 3.0))
        base = solve_timing(build_kernel(duel_kernel_fn, 201))
        assert report.optimal_timing_interval[0] == base.support_lo
        assert report.optimal_timing_interval[1] == 1.0
        assert np.all(report.timing.strategy.weights == base.strategy.weights)

    def test_repeated_runs_byte_identical(self):
        config = ProtocolConfig.from_dict(GOLDEN_CONFIG)
        first = run_protocol(config).to_json()
        second = run_protocol(config).to_json()
        assert first == second

    def test_matches_golden_report(self):
        report = run_protocol(ProtocolConfig.from_dict(GOLDEN_CONFIG))
        assert json.loads(report.to_json()) == GOLDEN_REPORT

    def test_non_finite_report_is_refused(self):
        report = run_protocol(ProtocolConfig.from_dict({**GOLDEN_CONFIG, "grid_n": 11}))
        with pytest.raises(SolverError, match="not finite"):
            replace(report, decision_score=float("nan")).to_json()

    def test_golden_stage_values_recomputed_independently(self):
        report = run_protocol(ProtocolConfig.from_dict(GOLDEN_CONFIG))
        # risk stage by hand: pa * (1 - pi*pn) * ce
        assert report.risk_scores["pti"] == pytest.approx(1.0 * (1 - 0.72) * 100.0)
        assert report.risk_scores["tm"] == pytest.approx(0.5 * (1 - 0.25) * 7.0)
        assert report.risk_scores["gaa"] == 0.0
        # targets by hand: baseline * (1 + pa*(1 - pi*pn))
        assert report.targets == pytest.approx((1.28, 2.75, 3.0))
        # KKT by hand: d = targets, multipliers 2*d for the -|d|^2 objective
        assert report.tosg.d_star == pytest.approx([1.28, 2.75, 3.0])
        assert report.tosg.multipliers == pytest.approx((2.56, 5.5, 6.0))
        assert report.decision_score == pytest.approx(-(1.28**2 + 2.75**2 + 9.0))
        # provenance hash: recompute from the canonical config document
        import hashlib

        config = ProtocolConfig.from_dict(GOLDEN_CONFIG)
        canonical = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
        assert report.provenance["config_sha256"] == hashlib.sha256(
            canonical.encode()
        ).hexdigest()
        assert report.provenance["seed"] == 7

    def test_weight_sequence_approaches_base_support(self):
        base = solve_timing(build_kernel(duel_kernel_fn, 201)).support_lo
        edges = {}
        for weight in (0.5, 0.25, 0.125, 0.0):
            config = ProtocolConfig.from_dict(zero_risk_config(weight=weight))
            edges[weight] = run_protocol(config).optimal_timing_interval[0]
        cell = 1.0 / 200.0
        assert abs(edges[0.0] - base) <= cell + 1e-12  # the limit member lands on base
        assert abs(edges[0.125] - base) <= abs(edges[0.5] - base) + 1e-12

    def test_table_score_is_interpolated_over_the_grid(self):
        points = [[0, 0], [0.5, 1], [1, 0.2]]
        report = run_protocol(
            ProtocolConfig.from_dict({**GOLDEN_CONFIG, "score": {"kind": "table", "points": points}})
        )
        base = build_kernel(duel_kernel_fn, 201)
        scores = np.interp(base.grid, *zip(*points))
        expected = solve_timing(imbed_objective(base, scores, 0.25))
        assert np.array_equal(report.timing.strategy.weights, expected.strategy.weights)
        assert report.optimal_timing_interval == (0.325, 1.0)
        assert solve_timing(base).support_lo == 0.335

    def test_zero_baselines_give_a_constant_score(self):
        # d* = 0, so the decision value is constant along the path: every score is 0
        report = run_protocol(ProtocolConfig.from_dict({**GOLDEN_CONFIG, "baselines": [0, 0, 0]}))
        assert report.tosg.d_star == pytest.approx([0.0, 0.0, 0.0])
        base = solve_timing(build_kernel(duel_kernel_fn, 201))
        assert np.array_equal(report.timing.strategy.weights, base.strategy.weights)

    def test_stage_error_carries_partial_results(self):
        doc = copy.deepcopy(GOLDEN_CONFIG)
        doc["constraints"] = [
            {"kind": "coord", "index": 0},
            {"kind": "coord", "index": 0},
            {"kind": "coord", "index": 2},
        ]
        with pytest.raises(StageError) as err:
            run_protocol(ProtocolConfig.from_dict(doc))
        assert err.value.stage == "decision"
        assert "risk_scores" in err.value.partial
        assert "targets" in err.value.partial
        assert "timing" not in err.value.partial
