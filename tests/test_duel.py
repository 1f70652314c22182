import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import LadderHighs, counted_loads
from tosg.duel import (
    AccuracyFunction,
    DuelSpec,
    TimeVector,
    _SIM_CHUNK,
    _FlowGraph,
    _duel_lp,
    _hits,
    _profiles,
    _strategy_subsets,
    _volleys,
    discretize_duel,
    duel_payoff,
    simulate_duel,
    solve_duel,
)
from tosg.errors import InputError, ResourceLimitError, SolverError
from tosg.matrix_game import _highs_core, _load_lp, _solve_lp, solve_exact

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


def simulate_duel_draws(spec: DuelSpec, x, y, trials: int, seed: int) -> tuple[float, float]:
    """The reference for simulate_duel: every block of every volley drawn, outcomes summed as floats."""
    x, y = TimeVector(x), TimeVector(y)
    volleys = _volleys(spec, x, y)

    total = 0.0
    total_sq = 0.0
    n_chunks = (trials + _SIM_CHUNK - 1) // _SIM_CHUNK
    for chunk in range(n_chunks):
        size = min(_SIM_CHUNK, trials - chunk * _SIM_CHUNK)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, chunk)))
        alive = np.ones(size, dtype=bool)
        outcome = np.zeros(size)
        for _, p_eff, q_eff in volleys:
            hit1 = rng.random(size) < p_eff
            hit2 = rng.random(size) < q_eff
            outcome[alive & hit1 & ~hit2] = 1.0
            outcome[alive & hit2 & ~hit1] = -1.0
            alive &= ~(hit1 | hit2)
        total += outcome.sum()
        total_sq += (outcome**2).sum()

    estimate = float(total / trials)
    if trials > 1:
        var = max(float(total_sq) - trials * estimate**2, 0.0) / (trials - 1)
        stderr = math.sqrt(var / trials)
    else:
        stderr = 0.0
    return estimate, stderr


# Times at 0 give zero-accuracy volleys, a shared time a two-sided volley, and
# t = 1 (or SURE_EARLY from 0.5 on) a sure hit that ends every trial early.
volley_times = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), times)


@st.composite
def sampled_duels(draw):
    spec = draw(st.builds(DuelSpec, st.integers(1, 3), st.integers(1, 3), accuracies, accuracies))
    x = draw(st.lists(volley_times, min_size=spec.m, max_size=spec.m))
    y = draw(st.lists(volley_times, min_size=spec.n, max_size=spec.n))
    return spec, sorted(x), sorted(y)


def best_response_reference(opp_alive: np.ndarray, opp_fire: np.ndarray, hit: np.ndarray, shots: int) -> float:
    """The reference for _FlowGraph.best_gain: its recurrence over (g, k), vectorised over shots, one grid step at a time."""
    grid_n = hit.shape[0]
    value = np.full(shots + 1, -np.inf)
    value[0] = 0.0
    for g in range(grid_n - 1, -1, -1):
        top = min(shots, grid_n - g)
        hold = value[: top + 1] - opp_fire[g]
        fire = hit[g] * opp_alive[g] - opp_fire[g] + (1.0 - hit[g]) * value[:top]
        value[0] = hold[0]
        value[1 : top + 1] = np.where(fire > hold[1:], fire, hold[1:])
    return float(value[shots])


# Tenths and signed zeros make fire and hold tie; 1.0 is a sure hit.
tie_values = st.one_of(
    st.integers(0, 10).map(lambda i: i / 10), st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0)
)


@st.composite
def best_response_cases(draw):
    grid_n = draw(st.integers(2, 40))
    shots = draw(st.integers(1, min(grid_n, 8)))
    values = st.lists(tie_values, min_size=grid_n, max_size=grid_n).map(np.array)
    sure_from = st.integers(0, grid_n - 1)
    hit = draw(
        st.one_of(
            values,
            st.just(_hits(DuelSpec(1, 1, SURE_EARLY, SURE_EARLY), grid_n)[1]),
            st.tuples(values, sure_from).map(lambda c: np.where(np.arange(grid_n) < c[1], c[0], 1.0)),
        )
    )
    profiles = st.one_of(st.just(np.zeros(grid_n)), values, values.map(lambda v: np.round(v, 1)))
    return draw(profiles), draw(profiles), hit, shots


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

    @settings(max_examples=60, deadline=None)
    @given(
        sampled_duels(),
        st.sampled_from([1, _SIM_CHUNK, _SIM_CHUNK + 1, 3 * _SIM_CHUNK + 7]),
        st.integers(0, 2**32),
    )
    @example((DuelSpec(2, 2, IDENT, AccuracyFunction.power(2.0)), [0.3, 0.7], [0.3, 0.9]), _SIM_CHUNK + 1, 5)
    @example((DuelSpec(2, 1, IDENT, SURE_EARLY), [0.0, 0.4], [0.0]), 3 * _SIM_CHUNK + 7, 6)
    @example((DuelSpec(2, 2, IDENT, IDENT), [0.2, 1.0], [0.6, 1.0]), 3 * _SIM_CHUNK + 7, 7)
    @example((ONE_SHOT, [1.0], [0.4]), 1, 8)
    @example((DuelSpec(1, 1, AccuracyFunction.power(3.0), IDENT), [0.1], [0.8]), _SIM_CHUNK, 9)  # p = 0.001
    def test_equals_drawing_every_block(self, case, trials, seed):
        spec, x, y = case
        assert simulate_duel(spec, x, y, trials=trials, seed=seed) == simulate_duel_draws(
            spec, x, y, trials, seed
        )

    def test_skipping_a_block_equals_drawing_it(self):
        # simulate_duel skips a block of draws with advance; an upgrade of
        # numpy (pyproject only asks >= 1.24) that breaks this equality would
        # otherwise shift every estimate silently.
        for skip, keep in ((1, 1), (7, 3), (_SIM_CHUNK, _SIM_CHUNK + 1)):
            drawn = np.random.default_rng(np.random.SeedSequence(entropy=(3, skip)))
            skipped = np.random.default_rng(np.random.SeedSequence(entropy=(3, skip)))
            skipped.bit_generator.advance(skip)
            assert np.array_equal(drawn.random(skip + keep)[skip:], skipped.random(keep))

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

        gain = _FlowGraph(q_hit, spec.n).best_gain(sigma @ row_alive, sigma @ row_fire)
        assert -gain == pytest.approx((sigma @ game).min(), abs=1e-12)
        upper = _FlowGraph(p_hit, spec.m).best_gain(tau @ col_alive, tau @ col_fire)
        assert upper == pytest.approx((game @ tau).max(), abs=1e-12)

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

    @settings(max_examples=300, deadline=None)
    @given(best_response_cases())
    @example((np.zeros(5), np.zeros(5), np.linspace(0.0, 1.0, 5), 5))  # shots == grid_n
    @example((np.array([0.3, 0.1]), np.array([0.1, 0.0]), np.array([0.0, 1.0]), 1))
    @example((np.array([0.5, 0.5]), np.array([0.0, -0.0]), np.array([1.0, 1.0]), 2))
    # At the source fire gives -0.0 and hold 0.0: ties hold.
    @example((np.array([-0.0, 0.2]), np.array([0.0, 0.1]), np.array([1.0, 0.5]), 1))
    # Hold gives -0.0 - 0.0 = -0.0 at the source; (0.0 - 0.0) + -0.0 would give 0.0.
    @example((np.array([0.0, -0.0, 0.0]), np.array([0.0, 0.0, 0.1]), np.array([0.0, 1.0, 0.0]), 1))
    def test_matches_the_vectorised_recurrence(self, case):
        expected = best_response_reference(*case)
        opp_alive, opp_fire, hit, shots = case
        gain = _FlowGraph(hit, shots).best_gain(opp_alive, opp_fire)
        assert gain == expected
        assert math.copysign(1.0, gain) == math.copysign(1.0, expected)

    def test_profiles_are_read_in_place(self):
        # The profiles and edges are read through memoryviews, and only W is
        # kept, one boxed float per node (32 bytes measured): no copy, no
        # per-edge object, no table of choices.
        grid_n, shots = 50_000, 6
        hit = np.linspace(0.0, 1.0, grid_n)
        alive = 1.0 - 0.5 * hit
        fire = 0.1 * alive * hit
        graph = _FlowGraph(hit, shots)
        tracemalloc.start()
        try:
            graph.best_gain(alive, fire)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 40 * (graph.nodes + 1)


@st.composite
def subset_profile_cases(draw):
    grid_n = draw(st.integers(1, 30))
    shots = draw(st.integers(1, min(grid_n, 6)))
    hit = draw(st.lists(tie_values, min_size=grid_n, max_size=grid_n).map(np.array))
    subset = st.sets(st.integers(0, grid_n - 1), min_size=shots, max_size=shots).map(lambda s: tuple(sorted(s)))
    return hit, draw(st.lists(subset, min_size=1, max_size=12))


def path_flow(graph: _FlowGraph, subset: tuple[int, ...]) -> np.ndarray:
    """The flow of a pure subset on its graph: on each edge of its path, the chance every earlier shot missed."""
    flow = np.zeros(len(graph.layer))
    node, survive = 0, 1.0
    for e in range(len(graph.layer)):
        # The path leaves its node along the edge that fires where the subset does.
        if graph.tail[e] == node and graph.fires[e] == (graph.layer[e] in subset):
            flow[e], node = survive, graph.head[e]
            survive *= graph.gain[e]
    return flow


def flow_profile(graph: _FlowGraph, flow: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (alive, fire) profile of an edge flow, the linear map _duel_lp's coefficients encode."""
    grid_n, fires = graph.hit.shape[0], graph.fires
    return np.bincount(graph.layer, flow, grid_n), graph.hit * np.bincount(graph.layer[fires], flow[fires], grid_n)


def duel_lp(spec: DuelSpec, grid_n: int):
    """Both players' graphs and solve_duel's sequence-form LP."""
    _, p_hit, q_hit = _hits(spec, grid_n)
    rows, cols = _FlowGraph(p_hit, spec.m), _FlowGraph(q_hit, spec.n)
    return rows, cols, _duel_lp(rows, cols)


def lp_flows(spec: DuelSpec, grid_n: int) -> tuple[_FlowGraph, np.ndarray, _FlowGraph, np.ndarray]:
    """Both players' graphs and the flows of solve_duel's LP: the primal for the row, the negated edge-row duals for the column."""
    rows, cols, lp = duel_lp(spec, grid_n)
    x, duals = _solve_lp((lp,), lambda *sol: sol, "sequence-form LP")
    return rows, np.maximum(x[: len(rows.layer)], 0.0), cols, np.maximum(-duals[: len(cols.layer)], 0.0)


class TestFlowGraph:
    @settings(max_examples=200, deadline=None)
    @given(subset_profile_cases())
    @example((np.array([1.0, 0.0, -0.0, 1.0]), [(0, 3), (1, 2), (0, 1), (2, 3), (0, 2)]))
    def test_pure_path_flow_gives_profiles_rows_bit_for_bit(self, case):
        hit, subsets = case
        grid_n, shots = hit.shape[0], len(subsets[0])
        graph = _FlowGraph(hit, shots)
        expected_alive, expected_fire = _profiles(np.array(subsets), hit, grid_n)
        for subset, alive_row, fire_row in zip(subsets, expected_alive, expected_fire):
            flow = path_flow(graph, subset)
            alive, fire = flow_profile(graph, flow)
            assert alive.tobytes() == alive_row.tobytes()
            assert fire.tobytes() == fire_row.tobytes()
            # The path's behavioural strategy gives the same rows.  Past a
            # sure hit the path carries no flow and fixes no choice, so the
            # marginal is the subset's only where the flow reaches every layer.
            alive, fire, marginal = graph.behaviour(flow)
            assert alive.tobytes() == alive_row.tobytes()
            assert fire.tobytes() == fire_row.tobytes()
            if np.count_nonzero(flow) == grid_n:
                assert np.array_equal(marginal, np.isin(np.arange(grid_n), subset) / shots)

    @settings(max_examples=40, deadline=None)
    @given(small_duels)
    @example((DuelSpec(2, 6, IDENT, IDENT), 21))
    @example((DuelSpec(3, 2, SURE_EARLY, AccuracyFunction.power(2.0)), 9))
    # The row flow misses conservation by 1.35e-10, within HiGHS's
    # feasibility tolerance: its profile is 1.07e-10 off the strategy's.
    @example((DuelSpec(1, 2, AccuracyFunction.table([[0, 0], [0.5, 1e-6], [1, 1]]), SURE_EARLY), 9))
    def test_behavioural_profile_equals_the_lp_flows_profile(self, case):
        # Replaying the behavioural strategy moves each layer's flow by at
        # most the conservation misses before it (gains are at most 1), so
        # the two profiles differ by at most the flow's total miss.
        spec, grid_n = case
        rows, z, cols, y = lp_flows(spec, grid_n)
        for graph, flow in ((rows, z), (cols, y)):
            alive, fire, marginal = graph.behaviour(flow)
            flow_alive, flow_fire = flow_profile(graph, flow)
            supply = np.bincount(graph.head, flow * graph.gain, graph.nodes + 1)[:-1]
            supply[0] += 1.0
            miss = np.abs(np.bincount(graph.tail, flow, graph.nodes) - supply).sum()
            assert np.abs(alive - flow_alive).max() <= miss + 1e-12
            assert np.abs(fire - flow_fire).max() <= miss + 1e-12
            assert abs(marginal.sum() - 1.0) <= 1e-12

    def test_lp_size(self):
        # 2-vs-6 at grid 21: 260 rows (a row per column edge and per row
        # node) and 208 columns (a column per row edge and per column node).
        spec = DuelSpec(2, 6, IDENT, IDENT)
        _, p_hit, q_hit = _hits(spec, 21)
        lp = _duel_lp(_FlowGraph(p_hit, 2), _FlowGraph(q_hit, 6))
        assert (len(lp.row_lower), len(lp.cost), len(lp.index)) == (260, 208, 1078)
        # solve_duel's guard counts at most 21 * (3mn + 5(m + n) + 4) = 1,680.
        assert len(lp.index) <= 21 * 80


class TestStartBasis:
    @settings(max_examples=40, deadline=None)
    @given(small_duels)
    @example((DuelSpec(2, 6, IDENT, IDENT), 21))
    def test_start_basis_reaches_the_slack_basis_optimum(self, case):
        spec, grid_n = case
        rows, cols, lp = duel_lp(spec, grid_n)
        name = "sequence-form LP"
        # One basic per row, and the start is primal feasible: HiGHS stops
        # at it with no infeasibility.
        assert lp.basic.sum() == len(lp.row_lower)
        start = _load_lp(lp, name)
        start.setOptionValue("simplex_iteration_limit", 0)
        start.run()
        assert start.getInfo().max_primal_infeasibility <= 1e-10
        x, duals = _solve_lp((lp,), lambda *sol: sol, name)
        slack, _ = _solve_lp((lp._replace(basic=None),), lambda *sol: sol, name)
        assert abs(lp.cost @ x - lp.cost @ slack) <= 1e-12
        # Every potential stays basic, so the negated edge-row duals
        # conserve the column player's flow at every node.
        y = -duals[: len(cols.layer)]
        supply = np.bincount(cols.head, y * cols.gain, cols.nodes + 1)[:-1]
        supply[0] += 1.0
        assert np.abs(np.bincount(cols.tail, y, cols.nodes) - supply).max() <= 1e-9

    def test_start_basis_saves_simplex_iterations(self):
        # The first run, unperturbed from the start basis, takes at most 0.6
        # iterations per LP row; the limit keeps a stall from running on.
        # 2-vs-6 at grid 21 takes 104 iterations from the start basis, and
        # 351 from the slack basis.  HiGHS's bound perturbation stalled the
        # two 1-vs-1 duels: 25,677 iterations at grid 351 of the power-3
        # duel, and 51,422 at grid 1,601 of the power-2 duel.
        cases = (
            (DuelSpec(2, 6, IDENT, IDENT), 21),
            (DuelSpec(1, 1, IDENT, AccuracyFunction.power(3)), 351),
            (DuelSpec(1, 1, IDENT, AccuracyFunction.power(2)), 1301),
        )
        for spec, grid_n in cases:
            _, _, lp = duel_lp(spec, grid_n)
            budget = int(0.6 * len(lp.row_lower))
            highs = _load_lp(lp, "sequence-form LP")
            assert highs.getOptionValue("primal_simplex_bound_perturbation_multiplier")[1] == 0.0
            highs.setOptionValue("simplex_iteration_limit", budget)
            highs.run()
            assert highs.getModelStatus() == _highs_core().HighsModelStatus.kOptimal, (spec, grid_n)
            assert highs.getInfo().simplex_iteration_count <= budget

    def test_cold_dual_run_certifies_what_the_start_run_leaves(self, monkeypatch):
        # The unperturbed primal run from the start basis ends at "Not Set"
        # on these grid-101 duels; the dual run from the slack basis
        # certifies them.
        cases = (
            (DuelSpec(4, 4, AccuracyFunction.power(20), SURE_EARLY), -0.9999999805153879),
            (DuelSpec(2, 5, AccuracyFunction.power(20), AccuracyFunction.power(0.05)), -0.9999999688040027),
        )
        runs = []
        counted_loads(monkeypatch, runs, LadderHighs)
        for spec, value in cases:
            runs.clear()
            solution = solve_duel(spec, 101)
            assert runs == [("off", 4), ("off", 1)]
            assert solution.value == pytest.approx(value, abs=1e-9)
            assert solution.residual <= 1e-9


class TestSolveDuel:
    def test_symmetric_one_shot_desk_scale(self):
        solution = solve_duel(ONE_SHOT, 201)
        assert solution.value == 0.0
        assert solution.support_p1[0] == pytest.approx(1.0 / 3.0, abs=0.02)
        assert solution.support_p1[1] == 1.0

    def test_symmetric_densities_agree(self):
        solution = solve_duel(ONE_SHOT, 101)
        assert np.array_equal(solution.p1_density.weights, solution.p2_density.weights)

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

    @pytest.mark.parametrize(
        "grid_n,value",
        [
            (21, -0.47292884098749505),
            (41, -0.49231379157904986),
            (81, -0.49364018033447704),
            (101, -0.4936702320190783),
        ],
    )
    def test_two_versus_six_value_bits(self, grid_n, value):
        # The value's bits pin the LP's solution and the certifying best
        # responses, which a 1e-9 value check would not show.
        solution = solve_duel(DuelSpec(2, 6, IDENT, IDENT), grid_n)
        assert solution.value == value
        assert solution.residual <= 1e-12

    def test_two_versus_six_past_the_pair_cap(self):
        spec = DuelSpec(2, 6, IDENT, IDENT)
        assert refusal_peak(discretize_duel, spec, 81) < 1 << 20
        solution = solve_duel(spec, 81)
        assert solution.residual <= 1e-9
        assert -1.0 <= solution.value <= 1.0

    @pytest.mark.parametrize(
        "spec,grid_n",
        [
            (DuelSpec(2, 6, IDENT, IDENT), 2_000_000),
            (ONE_SHOT, 10**12),
            (ONE_SHOT, 1_000_000),
            (DuelSpec(1, 6, IDENT, IDENT), 1_000_000),
        ],
    )
    def test_oversized_grid_refused_before_allocation(self, spec, grid_n):
        assert refusal_peak(solve_duel, spec, grid_n) < 1 << 20

    def test_failed_runs_climb_the_ladder_and_raise(self, monkeypatch):
        # Every run ends short of optimal: the primal run from the start
        # basis, the dual run from the slack basis, the presolved run, and
        # then SolverError.
        runs = []

        class FailingHighs(LadderHighs):
            def getModelStatus(self):
                return _highs_core().HighsModelStatus.kNotset

        counted_loads(monkeypatch, runs, FailingHighs)
        with pytest.raises(SolverError, match="sequence-form LP failed: Not Set"):
            solve_duel(DuelSpec(2, 6, IDENT, IDENT), 21)
        assert runs == [("off", 4), ("off", 1), ("on", 1)]

    def test_failed_certificate_is_solved_again_with_presolve(self, monkeypatch):
        # The start run and the cold dual run, whose strategies fall short
        # of SADDLE_TOL, move down to the presolve run, which is certified
        # afresh.  They leave a basis behind, so presolve runs only because
        # _solve_lp clears it.
        runs = []
        best_gain = _FlowGraph.best_gain

        def short_until_presolve(*args):
            return best_gain(*args) + (1.0 if len(runs) < 3 else 0.0)

        models = counted_loads(monkeypatch, runs, LadderHighs)
        monkeypatch.setattr(_FlowGraph, "best_gain", short_until_presolve)
        solution = solve_duel(DuelSpec(2, 6, IDENT, IDENT), 21)
        assert runs == [("off", 4), ("off", 1), ("on", 1)]
        assert models[0].getModelPresolveStatus() != _highs_core().HighsPresolveStatus.kNotPresolved
        assert abs(solution.value - -0.47292884098749355) <= 1e-9
        assert solution.residual <= 1e-9

    def test_grid_refinement_differences_shrink(self):
        values = [solve_duel(ONE_SHOT, n).value for n in (11, 21, 41, 81)]
        gaps = [abs(a - b) for a, b in zip(values, values[1:])]
        assert gaps[1] <= gaps[0] + 1e-12
        assert gaps[2] <= gaps[1] + 1e-12
