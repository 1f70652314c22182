import ast
import inspect
import operator
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse import csc_array

from tosg import matrix_game
from tosg.errors import InputError
from tosg.matrix_game import (
    SADDLE_TOL,
    GameSolution,
    MixedStrategy,
    PayoffMatrix,
    _GrowingGame,
    _exact_solution,
    _highs_core,
    solve_exact,
    solve_fictitious_play,
)
from tosg.timing import build_kernel, duel_kernel_fn

MATCHING_PENNIES = [[1.0, -1.0], [-1.0, 1.0]]

matrix_strategy = st.integers(1, 8).flatmap(
    lambda m: st.integers(1, 8).flatmap(
        lambda n: arrays(
            np.float64,
            (m, n),
            elements=st.floats(-10, 10, allow_nan=False, allow_infinity=False),
        )
    )
)

# Small-integer entries with a repeated column: the column strategy (the row
# LP's duals) is not unique.
degenerate_strategy = st.integers(1, 6).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda k: st.tuples(
            arrays(np.float64, (m, k), elements=st.integers(-3, 3).map(float)),
            st.lists(st.integers(0, k - 1), min_size=k + 1, max_size=2 * k + 2),
        )
    )
).map(lambda pair: pair[0][:, pair[1]])


def skew_game(size: int, exponent: float, seed: int, integral: bool) -> np.ndarray:
    """A size x size skew-symmetric game with entries of order 10**exponent."""
    rng = np.random.default_rng(seed)
    if integral:  # small integers: degenerate games with many optimal strategies
        raw = rng.integers(-3, 4, (size, size)).astype(float)
    else:
        raw = rng.uniform(-1.0, 1.0, (size, size))
    upper = np.triu(raw, k=1) * 10.0**exponent
    return upper - upper.T


skew_strategy = st.builds(
    skew_game, st.integers(2, 60), st.floats(-3.0, 3.0), st.integers(0, 2**32 - 1), st.booleans()
)


entry = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


@st.composite
def grown_games(draw):
    """A seed game and the ("row" | "col", payoffs) steps that grow it.

    A skew draw appends each new row together with its mirrored column, so
    the game is square and skew-symmetric again after every second step.
    """
    steps = draw(st.integers(1, 6))
    if draw(st.booleans()):
        size = draw(st.integers(1, 6))
        upper = np.triu(draw(arrays(np.float64, (size, size), elements=entry)), k=1)
        growth = []
        for size in range(size, size + steps):
            payoffs = draw(arrays(np.float64, size, elements=entry))
            growth += [("row", payoffs), ("col", -np.append(payoffs, 0.0))]
        return upper - upper.T, growth
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    seed = draw(arrays(np.float64, (m, n), elements=entry))
    growth = []
    for _ in range(steps):
        if draw(st.booleans()):
            growth.append(("row", draw(arrays(np.float64, n, elements=entry))))
            m += 1
        else:
            growth.append(("col", draw(arrays(np.float64, m, elements=entry))))
            n += 1
    return seed, growth


@st.composite
def layout_games(draw):
    """A game of 1 to 8 rows and columns with many 0.0 and -0.0 entries and some all-zero rows and columns."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    zero = st.sampled_from([0.0, -0.0])
    a = draw(arrays(np.float64, (m, n), elements=st.one_of(zero, entry)))
    a[draw(arrays(np.bool_, m)), :] = draw(zero)
    a[:, draw(arrays(np.bool_, n))] = draw(zero)
    return a


def grown_skew(rows) -> tuple[np.ndarray, list]:
    """A grown_games case: the 4 x 4 skew game with +1 above the diagonal,
    grown by each row and then its negated column, which ends in a 0."""
    upper = np.triu(np.ones((4, 4)), k=1)
    growth = []
    for row in rows:
        row = np.array(row, dtype=float)
        growth += [("row", row), ("col", -np.append(row, 0.0))]
    return upper - upper.T, growth


S = 2.0**-14  # an entry of the two grown_skew games in TestGrowingGame


def saddle_violation(game: PayoffMatrix, solution: GameSolution) -> float:
    """Worst violation of the saddle inequalities against pure strategies."""
    sigma = solution.row_strategy.weights
    tau = solution.col_strategy.weights
    row_side = solution.value - (sigma @ game.entries).min()
    col_side = (game.entries @ tau).max() - solution.value
    return max(row_side, col_side)


class TestPayoffMatrix:
    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(InputError):
            PayoffMatrix(np.empty((0, 2)))
        with pytest.raises(InputError):
            PayoffMatrix([[np.nan]])

    def test_json_roundtrip(self):
        game = PayoffMatrix.from_dict({"rows": 1, "cols": 2, "entries": [[1.0, -1.0]]})
        assert (game.rows, game.cols) == (1, 2)
        assert np.array_equal(game.entries, [[1.0, -1.0]])

    def test_from_dict_ignores_unknown_keys(self):
        doc = {"entries": [[1.0, -1.0]], "col_labels": [1.0, 0.0], "note": "ignored"}
        game = PayoffMatrix.from_dict(doc)
        assert (game.rows, game.cols, game.entries.tolist()) == (1, 2, [[1.0, -1.0]])

    def test_from_dict_checks_declared_shape(self):
        with pytest.raises(InputError):
            PayoffMatrix.from_dict({"rows": 3, "cols": 2, "entries": [[1.0, 2.0]]})


class TestMixedStrategy:
    def test_mass_must_be_one(self):
        with pytest.raises(InputError):
            MixedStrategy([0.5, 0.4])
        with pytest.raises(InputError):
            MixedStrategy([0.7, -0.3])


class TestSolveExact:
    def test_matching_pennies(self):
        solution = solve_exact(PayoffMatrix(MATCHING_PENNIES))
        assert solution.value == pytest.approx(0.0, abs=1e-12)
        assert solution.row_strategy.weights == pytest.approx([0.5, 0.5])
        assert solution.col_strategy.weights == pytest.approx([0.5, 0.5])
        assert solution.method == "exact"

    def test_scalar_game(self):
        solution = solve_exact(PayoffMatrix([[2.5]]))
        assert solution.value == pytest.approx(2.5)
        assert solution.row_strategy.weights == pytest.approx([1.0])

    def test_equalizing_game(self):
        # 2x2 equalization oracle: sigma makes both columns pay 1.5,
        # tau makes both rows pay 1.5.
        game = PayoffMatrix([[3.0, 1.0], [0.0, 2.0]])
        solution = solve_exact(game)
        assert solution.value == pytest.approx(1.5, abs=1e-9)
        assert solution.row_strategy.weights == pytest.approx([0.5, 0.5], abs=1e-9)
        assert solution.col_strategy.weights == pytest.approx([0.25, 0.75], abs=1e-9)
        assert saddle_violation(game, solution) <= 1e-9

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(matrix_strategy, degenerate_strategy))
    # A tiny entry beside O(1) ones: HiGHS ends the cold solve at "Not Set".
    @example(np.array([[4.0], [3.8387225e-12]]))
    @example(np.array([[1.0], [1.5e-12]]))
    @example(np.array([[1e3], [1e-10]]))
    def test_saddle_contract_random(self, entries):
        game = PayoffMatrix(entries)
        solution = solve_exact(game)
        maximin, minimax = entries.min(axis=1).max(), entries.max(axis=0).min()
        assert maximin - 1e-9 <= solution.value <= minimax + 1e-9
        assert entries.min() - 1e-9 <= solution.value <= entries.max() + 1e-9
        assert saddle_violation(game, solution) <= 1e-9
        assert solution.residual <= 1e-9

    @settings(max_examples=30, deadline=None)
    @given(matrix_strategy)
    # Off-diagonal entries of +-6e-10: HiGHS must keep entries below its default small_matrix_value.
    @example(np.array([[-6.0], [1e-10], [1e-10]]))
    def test_skew_symmetric_value_zero(self, entries):
        skew = np.triu(entries @ entries.T, k=1) if entries.shape[0] > 1 else np.zeros((1, 1))
        skew = skew - skew.T
        solution = solve_exact(PayoffMatrix(skew))
        assert abs(solution.value) <= 1e-9

    @settings(max_examples=50, deadline=None)
    @given(skew_strategy)
    def test_skew_symmetric_games_share_one_strategy(self, entries):
        solution = solve_exact(PayoffMatrix(entries))
        assert np.array_equal(solution.row_strategy.weights, solution.col_strategy.weights)
        assert solution.residual <= 1e-9
        assert abs(solution.value) <= 1e-9

    @settings(max_examples=20, deadline=None)
    @given(
        matrix_strategy,
        st.floats(0.1, 5.0, allow_nan=False),
        st.floats(-3.0, 3.0, allow_nan=False),
    )
    def test_affine_transform(self, entries, a, b):
        base = solve_exact(PayoffMatrix(entries))
        shifted = solve_exact(PayoffMatrix(a * entries + b))
        assert shifted.value == pytest.approx(a * base.value + b, abs=1e-7)
        # The base optimum stays optimal after the transform.
        transformed = PayoffMatrix(a * entries + b)
        carried = GameSolution(
            value=a * base.value + b,
            row_strategy=base.row_strategy,
            col_strategy=base.col_strategy,
            residual=base.residual,
            method="exact",
        )
        assert saddle_violation(transformed, carried) <= a * 1e-8 + 1e-8


class CountingHighs:
    """A HiGHS model that passes every call through and records the presolve option at each run."""

    def __init__(self, highs, runs: list):
        self._highs, self._runs = highs, runs

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def run(self):
        self._runs.append(self._highs.getOptionValue("presolve")[1])
        return self._highs.run()


def highs_calls(path: str) -> set[str]:
    """The names of the methods called on ``self._highs`` in a source file."""
    return {
        node.func.attr
        for node in ast.walk(ast.parse(Path(path).read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and ast.unparse(node.func.value) == "self._highs"
    }


class TestGrowingGame:
    def test_private_highs_api_is_present(self):
        # _GrowingGame drives scipy's private HiGHS binding, which may change
        # between scipy minor releases; pyproject pins the series this matches.
        # The binding is loaded on the first solve, from the extension file
        # where _highs_core expects it, so a renamed name or a moved file
        # would otherwise show only there.
        import scipy

        _core = _highs_core()
        assert _core.__name__ == "scipy.optimize._highspy._core"
        assert Path(_core.__file__).parent == Path(scipy.__path__[0], "optimize", "_highspy")

        methods = (
            "setOptionValue", "passModel", "addCol", "addRow",
            "run", "getModelStatus", "modelStatusToString", "getSolution",
        )
        for method in methods:
            assert callable(getattr(_core._Highs, method, None)), method
        names = (
            "MatrixFormat.kColwise", "ObjSense.kMinimize", "HighsStatus.kError",
            "HighsModelStatus.kOptimal", "simplex_constants.SimplexStrategy.kSimplexStrategyDual",
        )
        for name in names:
            assert operator.attrgetter(name)(_core) is not None, name
        # _load passes the arrays through passModel's array overload.
        model = _GrowingGame(np.array([[2.5]]))
        highs = model._highs
        lp = highs.getLp()
        assert (lp.num_col_, lp.num_row_) == (2, 2)
        assert list(lp.a_matrix_.value_) == [-2.5, 1.0, 1.0]
        assert highs.getOptionValue("simplex_strategy")[1] == 1  # dual simplex
        assert highs.getOptionValue("output_flag")[1] is False
        assert highs.getOptionValue("primal_feasibility_tolerance")[1] == 1e-10
        assert highs.getOptionValue("dual_feasibility_tolerance")[1] == 1e-10
        assert highs.getOptionValue("small_matrix_value")[1] == 1e-12
        # The first run after a load is cold and runs without presolve, a
        # warm one has it; a model grown before its first run still runs cold.
        runs = []
        model._highs = CountingHighs(highs, runs)
        assert _exact_solution(*model.solve()).value == pytest.approx(2.5)
        model.add_row(np.array([1.0]))
        model.solve()
        model._load(model.entries)
        model.add_col(np.array([0.0, 3.0]))
        assert _exact_solution(*model.solve()).value == pytest.approx(5.0 / 3.0)
        model.add_row(np.array([-1.0, 1.0]))
        assert _exact_solution(*model.solve()).value == pytest.approx(5.0 / 3.0)
        assert runs == ["off", "on", "off", "on"]
        # The pinned methods are exactly those _GrowingGame calls.
        assert highs_calls(inspect.getsourcefile(_GrowingGame)) == set(methods)

    def test_failed_cold_solve_is_not_repeated(self, monkeypatch):
        # The cold solve of this game ends at "Not Set" and its rerun with
        # presolve on solves it.  solve() on a fresh model, solve_exact's
        # included, runs those two solves and does not reload the model to
        # repeat the failed one first; a grown model's warm solve is one run.
        runs = []
        init = _GrowingGame.__init__

        def counted_init(model, entries):
            init(model, entries)
            model._highs = CountingHighs(model._highs, runs)

        monkeypatch.setattr(_GrowingGame, "__init__", counted_init)
        entries = np.array([[4.0], [3.8387225e-12]])
        exact = solve_exact(PayoffMatrix(entries))
        assert runs == ["off", "on"]
        runs.clear()
        model = _GrowingGame(entries)
        solution = _exact_solution(*model.solve())
        assert runs == ["off", "on"]
        assert (solution.value, solution.residual) == (exact.value, exact.residual)
        assert np.array_equal(solution.row_strategy.weights, exact.row_strategy.weights)
        assert np.array_equal(solution.col_strategy.weights, exact.col_strategy.weights)
        runs.clear()
        model.add_col(np.array([0.0, 1.0]))
        assert _exact_solution(*model.solve()).value == pytest.approx(0.8, abs=1e-9)
        assert runs == ["on"]

    def test_growth_after_the_shifted_game_stays_shifted(self):
        # The cold run and the presolve rerun of this game both end at
        # "Unknown", so the model now holds the shifted game A + 1 - min A.  Rows and columns
        # added later must be shifted alike; a solve certified on A would
        # not show an unshifted LP entry, so the LP is read back.
        entries = np.array([
            [-3.2006493338333764, 6.926400481446148, 7.299515341032809],
            [-8.136711756744308, 6.287977768093665, 7.235303245312842],
            [1.3780731049756554, 9.074626594064213, -5.177733402704117],
            [8.621922042976385e-10, -1.2305277100815805e-12, 7.350432086024817],
        ])
        model = _GrowingGame(entries)
        model.solve()
        shift = 1.0 - entries.min()
        assert model._shift == shift
        model.add_row(np.array([1.0, -2.0, 3.0]))
        model.add_col(np.array([0.5, -1.5, 2.5, 4.0, -3.0]))
        lp = model._highs.getLp()
        a = lp.a_matrix_
        lp_matrix = csc_array((a.value_, a.index_, a.start_), shape=(lp.num_row_, lp.num_col_)).toarray()
        # Game rows 0-3 are LP columns 0-3 and game row 4 is LP column 5,
        # after the v column; game columns 0-2 and 3 are LP rows 0-2 and 4.
        game_part = lp_matrix[np.ix_([0, 1, 2, 4], [0, 1, 2, 3, 5])]
        assert np.array_equal(game_part, (-model.entries - shift).T)
        solution = _exact_solution(*model.solve())
        assert abs(solution.value - solve_exact(PayoffMatrix(model.entries)).value) <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(layout_games())
    @example(np.array([[0.0]]))
    @example(np.array([[-0.0, 2.0, 0.0]]))
    @example(np.array([[0.0], [-0.0], [1.0]]))
    @example(np.array([[1.0, 0.0, -0.0], [0.0, 0.0, 0.0], [-2.0, -0.0, 3.0]]))
    @example(build_kernel(duel_kernel_fn, 201).matrix)
    def test_load_passes_the_dense_layout(self, a):
        # The reference: the row LP written out dense and made sparse by scipy.
        m, n = a.shape
        reference = csc_array(
            np.vstack([np.column_stack([-a.T, np.ones(n)]), np.concatenate([np.ones(m), [0.0]])])
        )
        # HiGHS drops entries at or below small_matrix_value as it loads
        # either layout: two of 1.4e-17 in the 201-point kernel.
        reference.data[np.abs(reference.data) <= 1e-12] = 0.0
        reference.eliminate_zeros()
        lp = _GrowingGame(a)._highs.getLp()
        assert (lp.num_col_, lp.num_row_) == (m + 1, n + 1)
        assert np.array_equal(lp.a_matrix_.start_, reference.indptr)
        assert np.array_equal(lp.a_matrix_.index_, reference.indices)
        assert np.array_equal(lp.a_matrix_.value_, reference.data)
        assert np.array_equal(lp.col_cost_, np.concatenate([np.zeros(m), [-1.0]]))
        assert np.array_equal(lp.col_lower_, np.concatenate([np.zeros(m), [-np.inf]]))
        assert np.array_equal(lp.col_upper_, np.full(m + 1, np.inf))
        assert np.array_equal(lp.row_lower_, np.concatenate([np.full(n, -np.inf), [1.0]]))
        assert np.array_equal(lp.row_upper_, np.concatenate([np.zeros(n), [1.0]]))

    @settings(max_examples=60, deadline=None)
    @given(grown_games())
    # Entries of 1e-10 beside O(1) ones.  At 8 x 8 the cold solve ends at
    # "Unknown", and so does its rerun with presolve on; the shifted game solves.
    @example(grown_skew([[4, 0, 0, 0], [1e-10] * 5, [0] + [1] * 5, [6, 0, S, 6, 6, 6, 6]]))
    # At 9 x 8 the cold solve falls short of SADDLE_TOL (5.5e-9), and at
    # 9 x 9 it ends at "Unknown".
    @example(grown_skew([[9, 0, 0, 0], [0, 2, 0, 2, 2], [1e-10] * 6, [0] + [1] * 6, [6, 0, S, 6, 6, 6, 6, 6]]))
    def test_matches_solve_exact_at_every_step(self, case):
        entries, growth = case
        model = _GrowingGame(entries)
        for step, (kind, payoffs) in enumerate([(None, None)] + growth):
            if kind == "row":
                model.add_row(payoffs)
                entries = np.vstack([entries, payoffs])
            elif kind == "col":
                model.add_col(payoffs)
                entries = np.column_stack([entries, payoffs])
            game = PayoffMatrix(entries)
            solution = _exact_solution(*model.solve())
            assert solution.residual <= SADDLE_TOL
            assert saddle_violation(game, solution) <= SADDLE_TOL
            exact = solve_exact(game)
            assert abs(solution.value - exact.value) <= 1e-9
            if step == 0:
                assert (solution.value, solution.residual) == (exact.value, exact.residual)
                assert np.array_equal(solution.row_strategy.weights, exact.row_strategy.weights)
                assert np.array_equal(solution.col_strategy.weights, exact.col_strategy.weights)


def fictitious_play_steps(game: PayoffMatrix, max_iterations: int) -> GameSolution:
    """The reference for solve_fictitious_play: one best-response step per iteration."""
    a = game.entries
    m, n = a.shape
    a_cols = np.asfortranarray(a)

    u = np.zeros(m)
    w = np.zeros(n)
    row_counts = np.zeros(m)
    col_counts = np.zeros(n)
    best_lower, best_upper = -np.inf, np.inf

    k = 0
    for k in range(1, max_iterations + 1):
        i = int(np.argmax(u))
        j = int(np.argmin(w))
        row_counts[i] += 1.0
        col_counts[j] += 1.0
        u += a_cols[:, j]
        w += a[i, :]
        best_upper = min(best_upper, u.max() / k)
        best_lower = max(best_lower, w.min() / k)
        if best_upper - best_lower <= SADDLE_TOL:
            break

    return GameSolution(
        value=0.5 * (best_lower + best_upper),
        row_strategy=MixedStrategy(row_counts / k),
        col_strategy=MixedStrategy(col_counts / k),
        residual=best_upper - best_lower,
        method="fictitious_play",
        iterations=k,
    )


def criterion_08_games() -> list[PayoffMatrix]:
    """The 20 seeded float games of acceptance criterion 08."""
    rng = np.random.default_rng(42)
    games = []
    for _ in range(20):
        shape = (int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        games.append(PayoffMatrix(rng.uniform(-5.0, 5.0, shape)))
    return games


# Entries in -3..3 make ties between best responses frequent, and every
# partial sum stays an exact integer.
small_integer_games = st.integers(1, 8).flatmap(
    lambda m: st.integers(1, 8).flatmap(
        lambda n: arrays(np.float64, (m, n), elements=st.integers(-3, 3).map(float))
    )
)


class TestFictitiousPlay:
    def test_pure_saddle_converges_fast(self):
        solution = solve_fictitious_play(PayoffMatrix([[1.0, 2.0], [0.0, 3.0]]), 1000)
        assert solution.value == pytest.approx(1.0)
        assert solution.iterations <= 5
        assert solution.method == "fictitious_play"

    def test_matching_pennies_vs_exact(self):
        game = PayoffMatrix(MATCHING_PENNIES)
        exact = solve_exact(game)
        played = solve_fictitious_play(game, 10**5)
        assert abs(played.value - exact.value) <= 1e-2

    def test_equalizing_game_vs_exact(self):
        game = PayoffMatrix([[3.0, 1.0], [0.0, 2.0]])
        exact = solve_exact(game)
        played = solve_fictitious_play(game, 10**5)
        assert abs(played.value - exact.value) <= 1e-2

    def test_nonconvergence_reports_bracket(self):
        solution = solve_fictitious_play(PayoffMatrix(MATCHING_PENNIES), 4)
        assert solution.iterations == 4
        assert solution.residual > 0.0
        assert solution.lower <= 0.0 <= solution.upper

    @settings(max_examples=15, deadline=None)
    @given(matrix_strategy)
    def test_bracket_contains_exact_value(self, entries):
        game = PayoffMatrix(entries)
        exact = solve_exact(game)
        played = solve_fictitious_play(game, 2000)
        assert played.lower - 1e-9 <= exact.value <= played.upper + 1e-9

    @settings(deadline=None)
    @given(small_integer_games, st.integers(1, 3000))
    @example(np.array([[1.0, 2.0], [0.0, 3.0]]), 1000)  # pure saddle: stops early
    @example(np.array(MATCHING_PENNIES), 3000)
    def test_equals_the_step_loop_on_integer_games(self, entries, max_iterations):
        game = PayoffMatrix(entries)
        played = solve_fictitious_play(game, max_iterations)
        stepped = fictitious_play_steps(game, max_iterations)
        assert (played.value, played.residual, played.iterations) == (
            stepped.value, stepped.residual, stepped.iterations
        )
        assert np.array_equal(played.row_strategy.weights, stepped.row_strategy.weights)
        assert np.array_equal(played.col_strategy.weights, stepped.col_strategy.weights)

    @pytest.mark.parametrize("index", range(20))
    def test_agrees_with_the_step_loop_on_float_games(self, index):
        game = criterion_08_games()[index]
        played = solve_fictitious_play(game, 10**5)
        stepped = fictitious_play_steps(game, 10**5)
        assert played.iterations == stepped.iterations
        assert abs(played.value - stepped.value) <= 1e-9
        assert abs(played.residual - stepped.residual) <= 1e-9

    def test_agrees_with_the_step_loop_past_a_short_run_estimate(self, monkeypatch):
        # Here _overtaken_at estimates one run too short, so the run length is
        # confirmed forward: the only _first call whose lower end exceeds 1.
        lows = []
        first = matrix_game._first

        def recording_first(lo, hi, holds):
            lows.append(lo)
            return first(lo, hi, holds)

        monkeypatch.setattr(matrix_game, "_first", recording_first)
        game = PayoffMatrix([[-0.29, 0.85], [-0.12, -0.88]])
        played = solve_fictitious_play(game, 417)
        stepped = fictitious_play_steps(game, 417)
        assert any(lo >= 2 for lo in lows)
        assert played.iterations == stepped.iterations
        assert abs(played.value - stepped.value) <= 1e-9
        assert abs(played.residual - stepped.residual) <= 1e-9

    def test_rejects_zero_iterations(self):
        with pytest.raises(InputError):
            solve_fictitious_play(PayoffMatrix([[1.0]]), 0)
