import ast
import inspect
import operator
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse import coo_array, csc_array

from conftest import CountingHighs, counted_loads
from tosg import duel, matrix_game, timing
from tosg.errors import InputError, SolverError
from tosg.matrix_game import (
    SADDLE_TOL,
    GameSolution,
    MixedStrategy,
    PayoffMatrix,
    _LP,
    _highs_core,
    _load_lp,
    _row_lp,
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
def layout_games(draw):
    """A game of 1 to 8 rows and columns with many 0.0 and -0.0 entries and some all-zero rows and columns."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    zero = st.sampled_from([0.0, -0.0])
    a = draw(arrays(np.float64, (m, n), elements=st.one_of(zero, entry)))
    a[draw(arrays(np.bool_, m)), :] = draw(zero)
    a[:, draw(arrays(np.bool_, n))] = draw(zero)
    return a


# Entries of about 1e-12 to 1e-9 beside O(1) ones, which can stop HiGHS's
# cold run short of the saddle contract (ROADMAP item 12).
tiny_and_unit_strategy = st.integers(1, 8).flatmap(
    lambda m: st.integers(1, 8).flatmap(
        lambda n: arrays(
            np.float64,
            (m, n),
            elements=st.one_of(
                st.floats(1e-12, 1e-9), st.floats(-1e-9, -1e-12), st.integers(-3, 3).map(float), entry
            ),
        )
    )
)


@st.composite
def matrix_entries(draw):
    """(shape, row, col, value): distinct (row, col) pairs in shuffled order, some of them 0.0 or -0.0."""
    num_row, num_col = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    cells = draw(st.lists(st.integers(0, num_row * num_col - 1), unique=True, max_size=num_row * num_col))
    value = draw(arrays(np.float64, len(cells), elements=st.one_of(st.sampled_from([0.0, -0.0]), entry)))
    row, col = np.divmod(np.array(cells, dtype=int), num_col)
    return (num_row, num_col), row, col, value


def bordered_skew(rows) -> np.ndarray:
    """The 4 x 4 skew game with +1 above the diagonal, bordered by each row
    in turn and by its negated column, which ends in a 0."""
    upper = np.triu(np.ones((4, 4)), k=1)
    game = upper - upper.T
    for row in rows:
        row = np.array(row, dtype=float)
        game = np.column_stack([np.vstack([game, row]), -np.append(row, 0.0)])
    return game


S = 2.0**-14  # an entry of the two bordered_skew games in TestSolveExact


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
    @given(st.one_of(matrix_strategy, degenerate_strategy, tiny_and_unit_strategy))
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
        assert solution.value == 0.0

    @settings(max_examples=50, deadline=None)
    @given(skew_strategy)
    # The cold run and the presolved run fall short of SADDLE_TOL (a gap of
    # 1.8e-9); the shifted game certifies it.
    @example(skew_game(56, 2.826171875, 178, False))
    # Entries of 1e-10 beside O(1) ones.  The cold run of either game ends
    # at "Unknown", and the presolved run, which presolve reduces to empty,
    # solves it.
    @example(bordered_skew([[4, 0, 0, 0], [1e-10] * 5, [0] + [1] * 5, [6, 0, S, 6, 6, 6, 6]]))
    @example(bordered_skew([[9, 0, 0, 0], [0, 2, 0, 2, 2], [1e-10] * 6, [0] + [1] * 6, [6, 0, S, 6, 6, 6, 6, 6]]))
    def test_skew_symmetric_games_share_one_strategy(self, entries):
        solution = solve_exact(PayoffMatrix(entries))
        assert np.array_equal(solution.row_strategy.weights, solution.col_strategy.weights)
        assert solution.residual <= 1e-9
        assert solution.value == 0.0

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


def highs_calls(path: str) -> set[str]:
    """The names of the methods called on ``highs`` in a source file."""
    return {
        node.func.attr
        for node in ast.walk(ast.parse(Path(path).read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and ast.unparse(node.func.value) == "highs"
    }


class TestGrowingGame:
    def test_private_highs_api_is_present(self):
        # _load_lp and _solve_lp drive scipy's private HiGHS binding, which
        # may change between scipy minor releases; pyproject pins the series
        # this matches.  The binding is loaded on the first solve, from the
        # extension file where _highs_core expects it, so a renamed name or a
        # moved file would otherwise show only there.
        import scipy

        _core = _highs_core()
        assert _core.__name__ == "scipy.optimize._highspy._core"
        assert Path(_core.__file__).parent == Path(scipy.__path__[0], "optimize", "_highspy")

        methods = (
            "setOptionValue", "passModel", "run", "getModelStatus", "modelStatusToString", "getSolution",
            "setBasis", "clearSolver",
        )
        for method in methods:
            assert callable(getattr(_core._Highs, method, None)), method
        names = (
            "MatrixFormat.kColwise", "ObjSense.kMinimize", "HighsStatus.kError",
            "HighsModelStatus.kOptimal", "simplex_constants.SimplexStrategy.kSimplexStrategyDual",
            "simplex_constants.SimplexStrategy.kSimplexStrategyPrimal", "HighsBasis",
            "HighsBasisStatus.kBasic", "HighsBasisStatus.kLower", "HighsBasisStatus.kUpper",
        )
        for name in names:
            assert operator.attrgetter(name)(_core) is not None, name
        # _load_lp passes the arrays through passModel's array overload.
        highs = _load_lp(_row_lp(np.array([[2.5]])), "row LP")
        lp = highs.getLp()
        assert (lp.num_col_, lp.num_row_) == (2, 2)
        assert list(lp.a_matrix_.value_) == [-2.5, 1.0, 1.0]
        assert highs.getOptionValue("simplex_strategy")[1] == 1  # dual simplex
        assert highs.getOptionValue("presolve")[1] == "off"
        assert highs.getOptionValue("output_flag")[1] is False
        assert highs.getOptionValue("primal_feasibility_tolerance")[1] == 1e-10
        assert highs.getOptionValue("dual_feasibility_tolerance")[1] == 1e-10
        assert highs.getOptionValue("small_matrix_value")[1] == 1e-12
        # HiGHS's default: an LP without a start basis never sets it.
        assert highs.getOptionValue("primal_simplex_bound_perturbation_multiplier")[1] == 1.0
        # The pinned methods are exactly those the driver calls, and only
        # the driver calls HiGHS.
        assert highs_calls(inspect.getsourcefile(matrix_game)) == set(methods)
        for module in (duel, timing):
            assert highs_calls(inspect.getsourcefile(module)) == set()

    def test_failed_cold_solve_is_not_repeated(self, monkeypatch):
        # The cold run of this game ends at "Not Set" and the rerun with
        # presolve on solves it; the model is loaded once, and a game that
        # solves at once runs once, cold.
        runs = []
        counted_loads(monkeypatch, runs)
        solution = solve_exact(PayoffMatrix([[4.0], [3.8387225e-12]]))
        assert runs == ["off", "on"]
        assert solution.value == pytest.approx(4.0)
        runs.clear()
        assert solve_exact(PayoffMatrix([[2.5]])).value == pytest.approx(2.5)
        assert runs == ["off"]

    def test_failed_runs_climb_the_ladder_and_raise(self, monkeypatch):
        # Every run ends short of optimal: the cold run and the presolve
        # rerun of the game, then of the shifted game, and then SolverError.
        runs = []

        class FailingHighs(CountingHighs):
            def getModelStatus(self):
                return _highs_core().HighsModelStatus.kNotset

        counted_loads(monkeypatch, runs, FailingHighs)
        with pytest.raises(SolverError, match="row LP failed: Not Set"):
            solve_exact(PayoffMatrix(MATCHING_PENNIES))
        assert runs == ["off", "on", "off", "on"]

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
        lp = _load_lp(_row_lp(a), "row LP").getLp()
        assert (lp.num_col_, lp.num_row_) == (m + 1, n + 1)
        assert np.array_equal(lp.a_matrix_.start_, reference.indptr)
        assert np.array_equal(lp.a_matrix_.index_, reference.indices)
        assert np.array_equal(lp.a_matrix_.value_, reference.data)
        assert np.array_equal(lp.col_cost_, np.concatenate([np.zeros(m), [-1.0]]))
        assert np.array_equal(lp.col_lower_, np.concatenate([np.zeros(m), [-np.inf]]))
        assert np.array_equal(lp.col_upper_, np.full(m + 1, np.inf))
        assert np.array_equal(lp.row_lower_, np.concatenate([np.full(n, -np.inf), [1.0]]))
        assert np.array_equal(lp.row_upper_, np.concatenate([np.zeros(n), [1.0]]))

    @settings(max_examples=100, deadline=None)
    @given(matrix_entries())
    def test_from_entries_packs_like_scipy(self, entries):
        # The reference: scipy's column-wise form of the same triples.
        (num_row, num_col), row, col, value = entries
        reference = coo_array((value, (row, col)), shape=(num_row, num_col)).tocsc()
        reference.eliminate_zeros()
        reference.sort_indices()
        lp = _LP.from_entries(
            np.zeros(num_col), np.zeros(num_col), np.full(num_col, np.inf), np.zeros(num_row), np.zeros(num_row),
            row, col, value,
        )
        assert lp.start.dtype == lp.index.dtype == np.int32
        assert np.array_equal(lp.start, reference.indptr)
        assert np.array_equal(lp.index, reference.indices)
        assert np.array_equal(lp.value, reference.data)
        assert lp.basic is None


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

    def test_overflowing_bracket_raises(self):
        # One iteration's payoff sums stay within float64, but the width of
        # its bracket [-1e308, 1e308] does not.
        with pytest.raises(SolverError, match="fictitious play bracket overflows float64"):
            solve_fictitious_play(PayoffMatrix([[1e308, -1e308], [-1e308, 1e308]]), 1)
