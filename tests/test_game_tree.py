import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tosg.errors import InputError
from tosg.game_tree import (
    GameTree,
    evader_reach_probs,
    evaluate_tree,
    marksman_best,
    marksman_strategy,
    solve_evasion_game,
)
from tosg.matrix_game import PayoffMatrix, solve_exact

GOLDEN_X = (3.0 - math.sqrt(5.0)) / 2.0  # crossing of (1-x)^2 and x

unit = st.floats(0.0, 1.0, allow_nan=False)
payoffs = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


def example_tree(p0, p1, p2, p3, p4):
    return GameTree.min_node(
        GameTree.max_node(GameTree.leaf(p0), GameTree.leaf(p1)),
        GameTree.chance(
            [GameTree.leaf(p2), GameTree.max_node(GameTree.leaf(p3), GameTree.leaf(p4))],
            [0.5, 0.5],
        ),
    )


class TestGameTree:
    def test_single_terminal(self):
        assert evaluate_tree(GameTree.leaf(0.7)) == 0.7

    def test_max_node(self):
        assert evaluate_tree(GameTree.max_node(GameTree.leaf(0.2), GameTree.leaf(0.9))) == 0.9

    def test_min_max_chance(self):
        tree = GameTree.min_node(
            GameTree.max_node(GameTree.leaf(1.0), GameTree.leaf(3.0)),
            GameTree.chance([GameTree.leaf(4.0), GameTree.leaf(0.0)], [0.5, 0.5]),
        )
        # backward induction by hand: min(max(1,3), 0.5*4 + 0.5*0) = min(3, 2)
        assert evaluate_tree(tree) == pytest.approx(2.0)

    @settings(max_examples=100, deadline=None)
    @given(payoffs, payoffs, payoffs, payoffs, payoffs, st.floats(-50, 50, allow_nan=False))
    def test_shift_commutes(self, p0, p1, p2, p3, p4, c):
        base = evaluate_tree(example_tree(p0, p1, p2, p3, p4))
        shifted = evaluate_tree(example_tree(p0 + c, p1 + c, p2 + c, p3 + c, p4 + c))
        assert shifted == pytest.approx(base + c, abs=1e-9)

    def test_validation(self):
        with pytest.raises(InputError):
            GameTree("leaf")  # payoff missing
        with pytest.raises(InputError):
            GameTree.max_node()  # no children
        with pytest.raises(InputError):
            GameTree.chance([GameTree.leaf(1.0)], [0.5])  # probs not summing to 1
        with pytest.raises(InputError):
            GameTree.chance([GameTree.leaf(1.0), GameTree.leaf(2.0)], [1.5, -0.5])

    def test_json_roundtrip(self):
        def leaf(payoff):
            return {"kind": "leaf", "payoff": payoff}

        doc = {
            "kind": "min",
            "children": [
                {"kind": "max", "children": [leaf(1.0), leaf(2.0)]},
                {
                    "kind": "chance",
                    "children": [leaf(3.0), {"kind": "max", "children": [leaf(4.0), leaf(5.0)]}],
                    "probs": [0.5, 0.5],
                },
            ],
        }
        tree = GameTree.from_dict(doc)
        assert tree == example_tree(1.0, 2.0, 3.0, 4.0, 5.0)
        assert evaluate_tree(tree) == evaluate_tree(example_tree(1.0, 2.0, 3.0, 4.0, 5.0))

    def test_from_dict_malformed(self):
        with pytest.raises(InputError):
            GameTree.from_dict({"children": []})
        with pytest.raises(InputError):
            GameTree.from_dict({"kind": "chance", "children": [{"kind": "leaf", "payoff": 1}]})


class TestReachProbs:
    def test_endpoints(self):
        assert evader_reach_probs(0.0) == (1.0, 0.0, 0.0)
        assert evader_reach_probs(1.0) == (0.0, 1.0, 0.0)

    def test_near_crossing(self):
        p1, p2, p3 = evader_reach_probs(0.382)
        assert p1 == pytest.approx(0.381924)
        assert p2 == pytest.approx(0.382)
        assert p3 == pytest.approx(0.236076)

    @settings(max_examples=300, deadline=None)
    @given(unit)
    @example(2.0**-54)  # 1 - x rounds to 1 here, and 1 + x back to 1
    @example(math.nextafter(2.0**-54, 0.0))
    @example(math.nextafter(2.0**-54, 1.0))
    @example(5.0 * 2.0**-54)
    @example(5e-324)
    @example(0.5)
    @example(math.nextafter(0.5, 0.0))
    @example(math.nextafter(1.0, 0.0))
    def test_sums_to_one_exactly(self, x):
        p1, p2, p3 = evader_reach_probs(x)
        assert p1 + p2 <= 1.0
        assert p3 >= 0.0
        assert p1 + p2 + p3 == 1.0

    def test_never_rounds_past_one_near_the_edges(self):
        # The docstring's argument, on the doubles where rounding is tightest:
        # every k * 2**-60 below 2**-48, and walks of adjacent doubles below
        # 1 and 1/2 and up from 0.
        def walk(x, toward, steps):
            for _ in range(steps):
                yield x
                x = math.nextafter(x, toward)

        edges = [k * 2.0**-60 for k in range(4096)]
        edges += [*walk(1.0, 0.0, 2000), *walk(0.5, 0.0, 2000), *walk(0.5, 1.0, 2000), *walk(0.0, 1.0, 2000)]
        for x in edges:
            p1, p2, p3 = evader_reach_probs(x)
            assert p1 + p2 <= 1.0 and p3 >= 0.0 and p1 + p2 + p3 == 1.0, x

    def test_range_check(self):
        with pytest.raises(InputError):
            evader_reach_probs(-0.1)
        with pytest.raises(InputError):
            evader_reach_probs(1.1)


class TestMarksmanBest:
    def test_shallow_evader(self):
        assert marksman_best(0.0) == (1, 1.0)

    def test_deep_evader(self):
        position, prob = marksman_best(0.9)
        assert position == 2
        assert prob == pytest.approx(0.9)

    def test_tie_breaks_to_low_position(self):
        position, prob = marksman_best(GOLDEN_X)
        assert position == 1
        assert prob == pytest.approx(0.3819660113, abs=1e-9)


class TestSolveEvasionGame:
    def test_golden_section_value(self):
        solution = solve_evasion_game()
        assert solution.x_star == pytest.approx(GOLDEN_X, abs=1e-15)
        assert solution.value == pytest.approx(0.382, abs=5e-4)
        assert solution.marksman_position == 1
        assert sum(solution.reach_probs) == 1.0

    def test_fixed_point(self):
        solution = solve_evasion_game()
        assert abs(solution.value - solution.x_star) <= 1e-15
        assert abs(solution.value - (1.0 - solution.x_star) ** 2) <= 1e-15

    def test_optimal_on_grid_sweep(self):
        solution = solve_evasion_game()
        best = max(evader_reach_probs(solution.x_star))
        for x in np.linspace(0.0, 1.0, 11):
            assert best <= max(evader_reach_probs(float(x))) + 1e-9


def reach_payoff(weights, x: float) -> float:
    return float(np.asarray(weights) @ np.array(evader_reach_probs(x)))


class TestMarksmanStrategy:
    def test_exact_mix_and_guarantee(self):
        mix, guaranteed = marksman_strategy()
        s1 = 1.0 / math.sqrt(5.0)
        assert mix.weights == pytest.approx([s1, 1.0 - s1, 0.0], abs=1e-16)
        value = solve_evasion_game().value
        assert abs(guaranteed - value) <= math.ulp(value)

    def test_guarantee_is_worst_case_against_evader(self):
        mix, guaranteed = marksman_strategy()
        grid = np.linspace(0.0, 1.0, 2001)
        worst = min(reach_payoff(mix.weights, float(x)) for x in grid)
        assert guaranteed <= worst + 1e-12
        # The evader's best reply is x*, which the grid misses by under a cell.
        assert worst - guaranteed <= (grid[1] - grid[0]) ** 2
        assert reach_payoff(mix.weights, GOLDEN_X) == pytest.approx(guaranteed, abs=1e-15)

    def test_no_grid_lp_mix_guarantees_more(self):
        _, guaranteed = marksman_strategy()
        fine = np.linspace(0.0, 1.0, 4001)
        for grid_n in (11, 21, 41, 81):
            # The LP optimum of the game against an evader held to a grid.
            grid = np.linspace(0.0, 1.0, grid_n)
            entries = np.array([evader_reach_probs(float(x)) for x in grid]).T
            lp_mix = solve_exact(PayoffMatrix(entries)).row_strategy.weights
            assert min(reach_payoff(lp_mix, float(x)) for x in fine) <= guaranteed + 1e-12
