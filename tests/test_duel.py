import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tosg.duel
from tosg.duel import (
    AccuracyFunction,
    DuelSpec,
    TimeVector,
    _best_response,
    _hits,
    _profiles,
    _strategy_subsets,
    discretize_duel,
    duel_payoff,
    simulate_duel,
    solve_duel,
)
from tosg.errors import InputError, ResourceLimitError, SolverError
from tosg.matrix_game import PayoffMatrix, _GrowingGame, solve_exact

IDENT = AccuracyFunction.identity()
ONE_SHOT = DuelSpec(1, 1, IDENT, IDENT)
# Sure hits from t = 0.5 on: the best-response recursion must not form 0 * inf.
SURE_EARLY = AccuracyFunction.table([[0.0, 0.0], [0.5, 1.0], [1.0, 1.0]])

times = st.floats(0.0, 1.0, allow_nan=False)
accuracies = st.one_of(
    st.just(IDENT),
    st.just(SURE_EARLY),
    st.floats(0.5, 3.0).map(AccuracyFunction.power),
    st.floats(0.0, 1.0).map(lambda mid: AccuracyFunction.table([[0.0, 0.0], [0.5, mid], [1.0, 1.0]])),
)
small_duels = st.tuples(
    st.builds(DuelSpec, st.integers(1, 3), st.integers(1, 3), accuracies, accuracies),
    st.integers(2, 9),
).map(lambda case: (case[0], max(case[1], case[0].m, case[0].n)))


def refusal_peak(solver, spec: DuelSpec, grid_n: int) -> int:
    """Peak traced bytes of a call that the size guard refuses."""
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            solver(spec, grid_n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def symmetric_spec(shots: int) -> DuelSpec:
    return DuelSpec(shots, shots, IDENT, IDENT)


class TestAccuracyFunction:
    def test_identity_endpoints(self):
        assert IDENT(0.0) == 0.0 and IDENT(1.0) == 1.0

    def test_power(self):
        f = AccuracyFunction.power(2.0)
        assert f(0.5) == pytest.approx(0.25)
        assert f(0.0) == 0.0 and f(1.0) == 1.0

    def test_table_interpolates(self):
        f = AccuracyFunction.table([[0.0, 0.0], [0.5, 0.3], [1.0, 1.0]])
        assert f(0.25) == pytest.approx(0.15)
        assert f(0.75) == pytest.approx(0.65)

    def test_rejects_bad_tables(self):
        with pytest.raises(InputError):
            AccuracyFunction.table([[0.0, 0.1], [1.0, 1.0]])  # not 0 at 0
        with pytest.raises(InputError):
            AccuracyFunction.table([[0.0, 0.0], [0.5, 0.8], [1.0, 0.5]])  # decreasing
        with pytest.raises(InputError):
            AccuracyFunction.table([[0.0, 0.0], [0.5, 0.3]])  # does not reach t = 1

    def test_rejects_bad_power(self):
        with pytest.raises(InputError):
            AccuracyFunction.power(0.0)

    def test_from_dict(self):
        f = AccuracyFunction.from_dict({"kind": "power", "k": 2})
        assert f(0.5) == pytest.approx(0.25)
        with pytest.raises(InputError):
            AccuracyFunction.from_dict({"kind": "sigmoid"})

    def test_out_of_range_argument(self):
        with pytest.raises(InputError):
            IDENT(1.5)


class TestDuelSpec:
    def test_from_dict(self):
        spec = DuelSpec.from_dict(
            {"m": 2, "n": 6, "p": {"kind": "identity"}, "q": {"kind": "power", "k": 2}}
        )
        assert spec.m == 2 and spec.n == 6
        assert spec.q(0.5) == pytest.approx(0.25)

    def test_needs_positive_attempts(self):
        with pytest.raises(InputError):
            DuelSpec(0, 1, IDENT, IDENT)

    def test_time_vector_validation(self):
        with pytest.raises(InputError):
            TimeVector([0.5, 0.4])
        with pytest.raises(InputError):
            TimeVector([0.5, 1.2])


class TestDuelPayoff:
    def test_mutual_sure_hit_annihilates(self):
        assert duel_payoff(ONE_SHOT, [1.0], [1.0]) == 0.0

    def test_one_shot_each(self):
        # sweep oracle: 0.5 - 0.5 * 0.6, cross-checked by Monte Carlo below
        assert duel_payoff(ONE_SHOT, [0.5], [0.6]) == pytest.approx(0.2)
        est, se = simulate_duel(ONE_SHOT, [0.5], [0.6], trials=200_000, seed=11)
        assert abs(est - 0.2) <= 3 * se

    def test_two_shots_versus_one(self):
        spec = DuelSpec(2, 1, IDENT, IDENT)
        # sweep oracle: 0.5 - 0.5*0.6 + 0.5*0.4*0.8
        assert duel_payoff(spec, [0.5, 0.8], [0.6]) == pytest.approx(0.36)
        est, se = simulate_duel(spec, [0.5, 0.8], [0.6], trials=200_000, seed=12)
        assert abs(est - 0.36) <= 3 * se

    def test_wrong_lengths_rejected(self):
        with pytest.raises(InputError):
            duel_payoff(ONE_SHOT, [0.5, 0.6], [0.5])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(times, min_size=1, max_size=3), st.lists(times, min_size=1, max_size=3))
    def test_bounded(self, x, y):
        spec = DuelSpec(len(x), len(y), IDENT, AccuracyFunction.power(2.0))
        assert -1.0 <= duel_payoff(spec, sorted(x), sorted(y)) <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(times, min_size=1, max_size=3), st.lists(times, min_size=1, max_size=3))
    def test_player_swap_antisymmetry(self, x, y):
        # equal arsenals and accuracies: swapping players negates the payoff
        if len(x) != len(y):
            y = (y + x)[: len(x)]
        spec = symmetric_spec(len(x))
        x, y = sorted(x), sorted(y)
        assert duel_payoff(spec, x, y) == -duel_payoff(spec, y, x)


class TestSimulateDuel:
    def test_sure_mutual_hit_is_exact(self):
        est, se = simulate_duel(ONE_SHOT, [1.0], [1.0], trials=5000, seed=3)
        assert est == 0.0 and se == 0.0

    def test_deterministic_for_seed(self):
        a = simulate_duel(ONE_SHOT, [0.4], [0.7], trials=50_000, seed=42)
        b = simulate_duel(ONE_SHOT, [0.4], [0.7], trials=50_000, seed=42)
        assert a == b

    def test_seed_changes_estimate(self):
        a = simulate_duel(ONE_SHOT, [0.4], [0.7], trials=10_000, seed=1)
        b = simulate_duel(ONE_SHOT, [0.4], [0.7], trials=10_000, seed=2)
        assert a != b

    def test_matches_exact_payoff_on_random_specs(self):
        rng = np.random.default_rng(12345)
        for i in range(25):
            m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            accuracies = []
            for _ in range(2):
                u = rng.random()
                if u < 0.4:
                    accuracies.append(IDENT)
                elif u < 0.8:
                    accuracies.append(AccuracyFunction.power(float(rng.uniform(0.5, 3.0))))
                else:
                    mid = float(rng.uniform(0.2, 0.8))
                    accuracies.append(AccuracyFunction.table([[0, 0], [0.5, mid], [1, 1]]))
            spec = DuelSpec(m, n, accuracies[0], accuracies[1])
            x = np.sort(rng.uniform(0.0, 1.0, m))
            y = np.sort(rng.uniform(0.0, 1.0, n))
            exact = duel_payoff(spec, x, y)
            est, se = simulate_duel(spec, x, y, trials=40_000, seed=1000 + i)
            assert abs(est - exact) <= 3 * se + 1e-12

    def test_validation(self):
        with pytest.raises(InputError):
            simulate_duel(ONE_SHOT, [0.5], [0.5], trials=0, seed=1)
        with pytest.raises(InputError):
            simulate_duel(ONE_SHOT, [0.5], [0.5], trials=10, seed=-1)


class TestDiscretizeDuel:
    def test_three_point_grid_entrywise(self):
        game = discretize_duel(ONE_SHOT, 3)
        grid = [0.0, 0.5, 1.0]
        assert game.rows == 3 and game.cols == 3
        for i, j in itertools.product(range(3), repeat=2):
            expected = duel_payoff(ONE_SHOT, [grid[i]], [grid[j]])
            assert game.entries[i, j] == pytest.approx(expected, abs=1e-12)
        assert game.entries[1, 2] == pytest.approx(0.0)  # 0.5*1 + 0.5*(-1)

    def test_diagonal_zero_and_skew_for_symmetric_spec(self):
        game = discretize_duel(ONE_SHOT, 9)
        assert np.all(np.diagonal(game.entries) == 0.0)
        assert np.allclose(game.entries, -game.entries.T, atol=1e-15)

    def test_matches_sweep_for_multishot(self):
        spec = DuelSpec(2, 1, IDENT, AccuracyFunction.power(2.0))
        game = discretize_duel(spec, 5)
        grid = np.linspace(0.0, 1.0, 5)
        rows = list(itertools.combinations(range(5), 2))
        for r, subset in enumerate(rows):
            for c in range(5):
                expected = duel_payoff(spec, grid[list(subset)], [grid[c]])
                assert game.entries[r, c] == pytest.approx(expected, abs=1e-12)

    def test_guard(self):
        with pytest.raises(ResourceLimitError):
            discretize_duel(DuelSpec(2, 6, IDENT, IDENT), 31)
        with pytest.raises(InputError):
            discretize_duel(DuelSpec(3, 1, IDENT, IDENT), 2)


class TestBestResponse:
    @staticmethod
    def check_against_brute_force(spec, grid_n, sigma, tau):
        game = discretize_duel(spec, grid_n).entries
        _, p_hit, q_hit = _hits(spec, grid_n)
        rows = _strategy_subsets(grid_n, spec.m)
        cols = _strategy_subsets(grid_n, spec.n)
        row_alive, row_fire = _profiles(rows, p_hit, grid_n)
        col_alive, col_fire = _profiles(cols, q_hit, grid_n)

        gain, col_best = _best_response(sigma @ row_alive, sigma @ row_fire, q_hit, spec.n)
        against_sigma = sigma @ game
        assert -gain == pytest.approx(against_sigma.min(), abs=1e-12)
        assert against_sigma[[tuple(c) for c in cols].index(col_best)] == pytest.approx(-gain, abs=1e-12)

        upper, row_best = _best_response(tau @ col_alive, tau @ col_fire, p_hit, spec.m)
        against_tau = game @ tau
        assert upper == pytest.approx(against_tau.max(), abs=1e-12)
        assert against_tau[[tuple(r) for r in rows].index(row_best)] == pytest.approx(upper, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(small_duels, st.integers(0, 2**32 - 1))
    def test_matches_brute_force(self, case, seed):
        spec, grid_n = case
        rng = np.random.default_rng(seed)
        sigma = rng.dirichlet(np.full(math.comb(grid_n, spec.m), 0.3))
        tau = rng.dirichlet(np.full(math.comb(grid_n, spec.n), 0.3))
        self.check_against_brute_force(spec, grid_n, sigma, tau)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (3, 2)])
    def test_sure_hits_before_the_end(self, m, n):
        spec = DuelSpec(m, n, SURE_EARLY, SURE_EARLY)
        rows, cols = math.comb(9, m), math.comb(9, n)
        # The latest subsets fire only where hits are sure.
        for sigma, tau in [
            (np.full(rows, 1.0 / rows), np.full(cols, 1.0 / cols)),
            (np.eye(rows)[-1], np.eye(cols)[-1]),
        ]:
            self.check_against_brute_force(spec, 9, sigma, tau)


class TestSolveDuel:
    def test_symmetric_one_shot_desk_scale(self):
        solution = solve_duel(ONE_SHOT, 201)
        assert abs(solution.value) <= 1e-9
        assert solution.support_p1[0] == pytest.approx(1.0 / 3.0, abs=0.02)
        assert solution.support_p1[1] == 1.0

    def test_symmetric_densities_agree(self):
        solution = solve_duel(ONE_SHOT, 101)
        assert np.allclose(
            solution.p1_density.weights, solution.p2_density.weights, atol=1e-9
        )

    def test_density_matches_classical_shape(self):
        # The discrete optimum alternates between grid sublattices, so the
        # density is compared through a sliding two-cell window against the
        # classical 1/(4 t^3) on [1/3, 1], away from the edges.
        solution = solve_duel(ONE_SHOT, 201)
        grid = np.linspace(0.0, 1.0, 201)
        h = grid[1] - grid[0]
        w = solution.p1_density.weights
        mid = 0.5 * (grid[:-1] + grid[1:])
        window_density = (w[:-1] + w[1:]) / (2.0 * h)
        mask = (mid >= 0.4) & (mid <= 0.9)
        reference = 1.0 / (4.0 * mid[mask] ** 3)
        assert np.all(np.abs(window_density[mask] - reference) / reference <= 0.10)

    def test_more_ammunition_cannot_hurt(self):
        lone = solve_duel(ONE_SHOT, 41)
        double = solve_duel(DuelSpec(2, 1, IDENT, IDENT), 41)
        assert double.value >= lone.value - 1e-9

    def test_resource_monotonicity_small_grids(self):
        values = {
            (m, n): solve_duel(DuelSpec(m, n, IDENT, IDENT), 9).value
            for m in (1, 2)
            for n in (1, 2)
        }
        assert values[(2, 1)] >= values[(1, 1)] - 1e-9
        assert values[(2, 2)] >= values[(1, 2)] - 1e-9
        assert values[(1, 2)] <= values[(1, 1)] + 1e-9
        assert values[(2, 2)] <= values[(2, 1)] + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(small_duels)
    def test_matches_full_lp(self, case):
        spec, grid_n = case
        solution = solve_duel(spec, grid_n)
        full = solve_exact(discretize_duel(spec, grid_n))
        assert abs(solution.value - full.value) <= 1e-9
        assert solution.residual <= 1e-9

    def test_two_versus_six_matches_full_lp_value(self):
        # -0.47292884098749355 is solve_exact(discretize_duel(spec, 21)).value,
        # the 210 x 54,264 game at the pair cap.
        solution = solve_duel(DuelSpec(2, 6, IDENT, IDENT), 21)
        assert abs(solution.value - -0.47292884098749355) <= 1e-9
        assert solution.residual <= 1e-9
        assert solution.support_p1 == pytest.approx((0.2, 1.0), abs=1e-12)
        assert solution.support_p2 == pytest.approx((0.1, 1.0), abs=1e-12)

    def test_two_versus_six_past_the_pair_cap(self):
        spec = DuelSpec(2, 6, IDENT, IDENT)
        assert refusal_peak(discretize_duel, spec, 81) < 1 << 20
        solution = solve_duel(spec, 81)
        assert solution.residual <= 1e-9
        assert -1.0 <= solution.value <= 1.0

    @pytest.mark.parametrize(
        "spec,grid_n",
        [
            (DuelSpec(2, 6, IDENT, IDENT), 2_000_000),  # best-response states
            (ONE_SHOT, 10**12),  # best-response states
            (ONE_SHOT, 1_000_000),  # 10^6 x 10^6 restricted game
            (DuelSpec(1, 6, IDENT, IDENT), 1_000_000),  # one-shot profiles
        ],
    )
    def test_oversized_grid_refused_before_allocation(self, spec, grid_n):
        assert refusal_peak(solve_duel, spec, grid_n) < 1 << 20

    def test_stalled_double_oracle_raises(self, monkeypatch):
        # Best responses already in the restricted game cannot close a gap of 2.
        monkeypatch.setattr(tosg.duel, "_best_response", lambda *args: (1.0, (7, 8)))
        with pytest.raises(SolverError):
            solve_duel(DuelSpec(2, 2, IDENT, IDENT), 9)

    def test_failed_warm_solve_reloads_the_model(self, monkeypatch):
        # Fail every warm solve, the first after each growth step, so that
        # each round's restricted game is solved cold on a reloaded model.
        cold_solve = _GrowingGame._solve
        failed, reloaded = [], []

        def warm_solve_fails(model):
            # Grown since the last load: add_row and add_col append past _load's v column and sum row.
            if len(model._sigma_cols) + len(model._column_rows) > model._v_col + model._sum_row:
                failed.append(model.entries.shape)
                raise SolverError("warm solve not certified")
            solution = cold_solve(model)
            reloaded.append((model.entries, solution))
            return solution

        monkeypatch.setattr(_GrowingGame, "_solve", warm_solve_fails)
        solution = solve_duel(DuelSpec(2, 6, IDENT, IDENT), 21)
        monkeypatch.undo()
        assert failed
        assert len(reloaded) == len(failed) + 1  # the seed game's first solve is cold too
        for entries, restricted in reloaded:
            exact = solve_exact(PayoffMatrix(entries))
            assert (restricted.value, restricted.residual) == (exact.value, exact.residual)
            assert np.array_equal(restricted.row_strategy.weights, exact.row_strategy.weights)
            assert np.array_equal(restricted.col_strategy.weights, exact.col_strategy.weights)
        assert abs(solution.value - -0.47292884098749355) <= 1e-9
        assert solution.residual <= 1e-9

    def test_grid_refinement_differences_shrink(self):
        values = [solve_duel(ONE_SHOT, n).value for n in (11, 21, 41, 81)]
        gaps = [abs(a - b) for a, b in zip(values, values[1:])]
        assert gaps[1] <= gaps[0] + 1e-12
        assert gaps[2] <= gaps[1] + 1e-12
