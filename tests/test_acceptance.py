"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import copy
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from conftest import random_duel_case, random_monotone_kernel
from tosg.decision import QuadraticObjective, solve_tosg
from tosg.duel import AccuracyFunction, DuelSpec, duel_payoff, simulate_duel, solve_duel
from tosg.game_tree import evader_reach_probs, solve_evasion_game
from tosg.matrix_game import MixedStrategy, PayoffMatrix, solve_exact, solve_fictitious_play
from tosg.pipeline import ProtocolConfig, run_protocol
from tosg.timing import build_kernel, classify_boundary, duel_kernel_fn, solve_timing, verify_optimality

DATA = Path(__file__).parent / "data"
IDENT = AccuracyFunction.identity()


@contextmanager
def criterion(number: int, budget_s: float, description: str):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, f"runtime {elapsed:.2f}s exceeds budget {budget_s}s"
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS  {description}  [{time.perf_counter() - start:.2f}s]")


def test_criterion_01_evasion_game_value():
    with criterion(1, 0.1, "evasion game value 0.381966"):
        solution = solve_evasion_game()
        golden = 0.3819660112501051
        assert abs(solution.x_star - golden) <= 1e-6
        assert abs(solution.value - solution.x_star) <= 1e-6
        assert abs(solution.value - 0.382) <= 5e-4


def test_criterion_02_reach_probability_identity():
    with criterion(2, 0.1, "reach probabilities sum to 1 exactly"):
        rng = np.random.default_rng(2024)
        for x in rng.uniform(0.0, 1.0, 10_000):
            probs = evader_reach_probs(float(x))
            assert sum(probs) == 1.0


def test_criterion_03_skew_symmetric_value_theorem():
    with criterion(3, 30.0, "100 random monotone kernels have value 0 (1e-9)"):
        rng = np.random.default_rng(3)
        for _ in range(100):
            kernel = random_monotone_kernel(rng, int(rng.integers(11, 102)))
            assert abs(solve_timing(kernel).value) <= 1e-9


def test_criterion_04_optimality_conditions():
    with criterion(4, 10.0, "optimality residuals: identity, optimum, pure-at-0"):
        kernel = build_kernel(duel_kernel_fn, 201)
        rng = np.random.default_rng(4)
        # the bilinear identity holds for arbitrary strategies
        for _ in range(20):
            raw = rng.random(kernel.grid_n)
            _, eq12 = verify_optimality(kernel, MixedStrategy(raw / raw.sum()))
            assert eq12 <= 1e-12
        for index in (0, kernel.grid_n // 2, kernel.grid_n - 1):
            _, eq12 = verify_optimality(kernel, MixedStrategy(np.eye(kernel.grid_n)[index]))
            assert eq12 <= 1e-12
        for _ in range(3):
            other = random_monotone_kernel(rng, 51)
            raw = rng.random(51)
            _, eq12 = verify_optimality(other, MixedStrategy(raw / raw.sum()))
            assert eq12 <= 1e-12
        # returned optimum satisfies the response condition
        solution = solve_timing(kernel)
        eq11, _ = verify_optimality(kernel, solution.strategy)
        assert eq11 <= 1e-6
        # firing immediately does not
        eq11_bad, _ = verify_optimality(kernel, MixedStrategy(np.eye(kernel.grid_n)[0]))
        assert eq11_bad > 0.1


def test_criterion_05_boundary_classification():
    with criterion(5, 5.0, "corner rules force pure optima at 1 and at 0"):
        rng = np.random.default_rng(5)
        for _ in range(5):
            kernel = random_monotone_kernel(rng, 51, boundary="pure_at_1")
            assert kernel.a_upper[-1, -1] <= 0.0
            assert classify_boundary(kernel).label == "pure_at_1"
            weights = solve_timing(kernel).strategy.weights
            assert weights[-1] >= 1.0 - 1e-6
        for _ in range(5):
            kernel = random_monotone_kernel(rng, 51, boundary="pure_at_0")
            assert kernel.a_upper[0, -1] >= 0.0
            assert classify_boundary(kernel).label == "pure_at_0"
            weights = solve_timing(kernel).strategy.weights
            assert weights[0] >= 1.0 - 1e-6


def test_criterion_06_symmetric_silent_duel():
    with criterion(6, 60.0, "one-shot silent duel: value 0, support edge vs fine grid"):
        spec = DuelSpec(1, 1, IDENT, IDENT)
        desk = solve_duel(spec, 201)
        assert abs(desk.value) <= 1e-9
        oracle = solve_duel(spec, 801)  # fine-grid oracle
        assert abs(desk.support_p1[0] - oracle.support_p1[0]) <= 0.02
        assert abs(oracle.support_p1[0] - 1.0 / 3.0) <= 0.02  # classical cross-check


def test_criterion_07_resource_monotonicity_asymmetric_arsenals():
    with criterion(7, 300.0, "2 attempts vs 6 on 21 grid completes; ammunition helps"):
        heavy = solve_duel(DuelSpec(2, 6, IDENT, IDENT), 21)
        assert -1.0 <= heavy.value <= 1.0
        lone = solve_duel(DuelSpec(1, 1, IDENT, IDENT), 21)
        double = solve_duel(DuelSpec(2, 1, IDENT, IDENT), 21)
        assert double.value >= lone.value - 1e-9


def test_criterion_08_fictitious_play_vs_exact():
    with criterion(8, 30.0, "fictitious play within 1e-2 of exact on 20 games"):
        rng = np.random.default_rng(42)
        for _ in range(20):
            shape = (int(rng.integers(2, 9)), int(rng.integers(2, 9)))
            game = PayoffMatrix(rng.uniform(-5.0, 5.0, shape))
            exact = solve_exact(game)
            played = solve_fictitious_play(game, max_iterations=10**5)
            assert abs(played.value - exact.value) <= 1e-2


def test_criterion_09_tosg_kkt():
    with criterion(9, 1.0, "KKT gradients vs finite differences; hand fixture"):
        rng = np.random.default_rng(9)
        step = 1e-6
        for _ in range(20):
            objective = QuadraticObjective(quad=rng.uniform(-5, 5, 4), lin=rng.uniform(-5, 5, 4))
            d = rng.uniform(-3.0, 3.0, 4)
            analytic = objective.gradient(d)
            numeric = np.array(
                [
                    (objective.value(d + step * e) - objective.value(d - step * e)) / (2 * step)
                    for e in np.eye(4)
                ]
            )
            assert np.all(np.abs(analytic - numeric) <= 1e-5 * np.maximum(1.0, np.abs(analytic)))
        from tosg.decision import CoordinateConstraint, TosgProblem

        fixture = TosgProblem(
            objective=QuadraticObjective(quad=[-1.0, -1.0, -1.0], lin=[0.0, 0.0, 0.0]),
            constraints=(
                CoordinateConstraint(0),
                CoordinateConstraint(1),
                CoordinateConstraint(2),
            ),
            targets=(1.0, 2.0, 3.0),
            dimension=3,
        )
        solution = solve_tosg(fixture)
        assert np.abs(solution.d_star - np.array([1.0, 2.0, 3.0])).max() <= 1e-8
        assert np.abs(np.array(solution.multipliers) - np.array([2.0, 4.0, 6.0])).max() <= 1e-8


def test_criterion_10_pipeline_determinism_and_identity():
    with criterion(10, 60.0, "zero-risk weightless pipeline = base interval; runs byte-identical"):
        doc = json.loads((DATA / "golden_protocol_config.json").read_text())
        doc = copy.deepcopy(doc)
        for key in doc["risks"]:
            doc["risks"][key]["pa"] = 0.0
        doc["lambda"] = 0.0
        config = ProtocolConfig.from_dict(doc)
        report = run_protocol(config)
        base = solve_timing(build_kernel(duel_kernel_fn, doc["grid_n"]))
        assert report.optimal_timing_interval[0] == base.support_lo
        assert report.targets == tuple(doc["baselines"])
        assert run_protocol(config).to_json() == report.to_json()


def test_criterion_11_monte_carlo_consistency():
    with criterion(11, 120.0, "simulation within 3 stderr of the sweep on 50 specs"):
        rng = np.random.default_rng(12345)
        for i in range(50):
            spec, x, y = random_duel_case(rng)
            exact = duel_payoff(spec, x, y)
            estimate, stderr = simulate_duel(spec, x, y, trials=40_000, seed=1000 + i)
            assert abs(estimate - exact) <= 3.0 * stderr + 1e-12
