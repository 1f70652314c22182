import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import LadderHighs, counted_loads, random_monotone_kernel
from tosg import pipeline
from tosg.duel import AccuracyFunction, DuelSpec, discretize_duel
from tosg.errors import InputError, ResourceLimitError
from tosg.matrix_game import (
    MAX_CELLS,
    SADDLE_TOL,
    MixedStrategy,
    PayoffMatrix,
    _certify,
    _highs_core,
    _load_lp,
    solve_exact,
    solve_fictitious_play,
)
from tosg.timing import (
    TimingKernel,
    _factored_lp,
    affine_kernel_fn,
    build_kernel,
    classify_boundary,
    duel_kernel_fn,
    kernel_from_spec,
    solve_timing,
    spectrum,
    verify_optimality,
)

DUEL_201 = build_kernel(duel_kernel_fn, 201)
GOLDEN_CONFIG = json.loads((Path(__file__).parent / "data" / "golden_protocol_config.json").read_text())


def pure_at(index: int, size: int) -> MixedStrategy:
    return MixedStrategy(np.eye(size)[index])


def basic_interval_start(kernel) -> float:
    """Smallest grid point where A(x, x) >= 0."""
    return float(kernel.grid[np.diagonal(kernel.a_upper) >= 0.0][0])


class TestBuildKernel:
    def test_hand_evaluated_entries(self):
        kernel = build_kernel(duel_kernel_fn, 5)
        # grid {0, .25, .5, .75, 1}: A(.25, .75) = .25 - .75 + .1875
        assert kernel.matrix[1, 3] == pytest.approx(-0.3125)
        assert kernel.matrix[3, 1] == pytest.approx(0.3125)

    def test_diagonal_and_skew_exact(self):
        kernel = build_kernel(lambda x, y: x - y + 2.0, 17)
        assert np.all(np.diagonal(kernel.matrix) == 0.0)
        assert np.all(kernel.matrix + kernel.matrix.T == 0.0)

    def test_scalar_only_generator(self):
        # A is called once on grid arrays; a function that rejects them is an input error
        def gen(x, y):
            return math.exp(x) - math.exp(y)

        with pytest.raises(InputError, match="A\\(x, y\\)"):
            build_kernel(gen, 7)

    @pytest.mark.parametrize(
        "gen, full",
        [
            (lambda x, y: 0.5, lambda x, y: np.full_like(x, 0.5)),
            (lambda x, y: y, lambda x, y: y),
            (lambda x, y: x, lambda x, y: x),
            # A need only be defined on x <= y: what it gives below is dropped
            (lambda x, y: np.where(x <= y, x - y + x * y, np.nan), duel_kernel_fn),
        ],
    )
    def test_generators_are_broadcast_over_the_grid(self, gen, full):
        kernel = build_kernel(gen, 9)
        x, y = np.meshgrid(kernel.grid, kernel.grid, indexing="ij")
        strict = np.triu(full(x, y), 1)
        assert np.array_equal(kernel.matrix, strict - strict.T)

    def test_other_generator_errors_propagate_after_one_call(self):
        calls = []

        def gen(x, y):
            calls.append((x, y))
            raise MemoryError

        with pytest.raises(MemoryError):
            build_kernel(gen, 5)
        assert len(calls) == 1

    def test_broadcast_result_of_the_wrong_shape_is_refused(self):
        with pytest.raises(InputError):
            build_kernel(lambda x, y: np.zeros(4), 5)

    def test_build_peaks_at_three_grid_arrays(self):
        grid_n = 801
        tracemalloc.start()
        try:
            build_kernel(duel_kernel_fn, grid_n).matrix
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * grid_n * grid_n * 8

    def test_oversized_grid_refused_before_allocation(self):
        grid_n = math.isqrt(MAX_CELLS) + 1  # grid_n**2 cells just over the cap
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                build_kernel(duel_kernel_fn, grid_n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_rejects_nonfinite_generator(self):
        with pytest.raises(InputError):
            build_kernel(lambda x, y: np.where(y > 0.5, np.inf, 0.0), 9)
        with pytest.raises(InputError):
            build_kernel(duel_kernel_fn, 2)

    def test_matches_one_shot_duel_matrix(self):
        ident = AccuracyFunction.identity()
        duel_game = discretize_duel(DuelSpec(1, 1, ident, ident), 41)
        kernel = build_kernel(duel_kernel_fn, 41)
        assert np.allclose(duel_game.entries, kernel.matrix, atol=1e-12)

    def test_from_spec(self):
        kernel = kernel_from_spec({"A": {"kind": "duel"}, "grid_n": 11})
        assert kernel.grid_n == 11
        affine = kernel_from_spec(
            {"A": {"kind": "affine", "cx": 1.0, "cy": -1.0, "cxy": 1.0, "c0": 0.0}, "grid_n": 11}
        )
        assert np.allclose(affine.matrix, kernel.matrix)
        with pytest.raises(InputError):
            kernel_from_spec({"A": {"kind": "mystery"}, "grid_n": 11})


class TestClassifyBoundary:
    def test_pure_at_1(self):
        decision = classify_boundary(build_kernel(lambda x, y: x - y - 0.5, 21))
        assert decision.label == "pure_at_1"
        assert decision.a11 == pytest.approx(-0.5)

    def test_pure_at_0(self):
        decision = classify_boundary(build_kernel(lambda x, y: x - y + 2.0, 21))
        assert decision.label == "pure_at_0"
        assert decision.a11 == pytest.approx(2.0)
        assert decision.a01 == pytest.approx(1.0)

    def test_interior(self):
        decision = classify_boundary(DUEL_201)
        assert decision.label == "interior"
        assert decision.a11 == pytest.approx(1.0)
        assert decision.a01 == pytest.approx(-1.0)


class TestSolveTiming:
    def test_duel_kernel_desk_scale(self):
        solution = solve_timing(DUEL_201)
        assert solution.value == 0.0
        assert not solution.has_zero_atom
        assert solution.support_lo == pytest.approx(1.0 / 3.0, abs=0.02)
        assert solution.residual_eq11 <= 1e-6
        assert solution.residual_eq12 <= 1e-12

    def test_pure_at_1_kernel(self):
        kernel = build_kernel(lambda x, y: x - y - 0.5, 41)
        solution = solve_timing(kernel)
        assert solution.strategy.weights[-1] >= 1.0 - 1e-6
        assert solution.support_lo == 1.0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(11, 61))
    def test_random_kernels_have_value_zero(self, seed, grid_n):
        kernel = random_monotone_kernel(np.random.default_rng(seed), grid_n)
        solution = solve_timing(kernel)
        assert solution.value == 0.0
        assert solution.residual_eq11 <= 1e-6

    def test_duel_kernel_801_meets_default_tol(self):
        # The row LP's own strategy falls short by 3.6e-9 here; its dual does not.
        solution = solve_timing(build_kernel(duel_kernel_fn, 801))
        assert solution.residual_eq11 <= 5e-10
        assert solution.value == 0.0

    def test_support_refinement_moves_at_most_one_cell(self):
        for grid_n in (51, 101):
            coarse = solve_timing(build_kernel(duel_kernel_fn, grid_n))
            fine = solve_timing(build_kernel(duel_kernel_fn, 2 * grid_n - 1))
            cell = 1.0 / (grid_n - 1)
            assert abs(coarse.support_lo - fine.support_lo) <= cell + 1e-12


class TestVerifyOptimality:
    def test_skew_identity_for_any_strategy(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            raw = rng.random(DUEL_201.grid_n)
            strategy = MixedStrategy(raw / raw.sum())
            _, residual_eq12 = verify_optimality(DUEL_201, strategy)
            assert residual_eq12 <= 1e-12

    def test_optimum_satisfies_eq11(self):
        solution = solve_timing(DUEL_201)
        residual_eq11, _ = verify_optimality(DUEL_201, solution.strategy)
        assert residual_eq11 <= 1e-6

    def test_pure_at_zero_violates_eq11(self):
        residual_eq11, residual_eq12 = verify_optimality(
            DUEL_201, pure_at(0, DUEL_201.grid_n)
        )
        assert residual_eq11 > 0.1
        assert residual_eq12 == 0.0

    def test_dimension_mismatch(self):
        strategy = MixedStrategy(np.full(11, 1 / 11))
        # Both readers of a strategy on a kernel refuse a mismatch alike.
        for check in (lambda: verify_optimality(DUEL_201, strategy), lambda: spectrum(strategy, DUEL_201)):
            with pytest.raises(InputError, match="^strategy has 11 weights for a 201-point grid$"):
                check()


class TestSpectrum:
    def test_pure_strategy_spectrum(self):
        kernel = build_kernel(duel_kernel_fn, 11)
        points, zero_atom = spectrum(pure_at(10, 11), kernel)
        assert list(points) == [1.0]
        assert not zero_atom

    def test_zero_atom_detected(self):
        kernel = build_kernel(duel_kernel_fn, 11)
        points, zero_atom = spectrum(pure_at(0, 11), kernel)
        assert points.size == 0
        assert zero_atom

    def test_duel_optimum_support_interval(self):
        solution = solve_timing(DUEL_201)
        points, zero_atom = spectrum(solution.strategy, DUEL_201)
        assert not zero_atom
        assert points.min() >= 0.31
        assert points.max() <= 1.0 + 1e-12

    def test_exact_and_fictitious_play_agree_on_support(self):
        # Independent solvers must produce the same spectrum interval.  The
        # comparison uses the interval hull because the play frequencies of
        # fictitious play retain dust from early iterations.
        kernel = build_kernel(duel_kernel_fn, 21)
        cell = 1.0 / 20.0
        exact = solve_timing(kernel)
        game = PayoffMatrix(kernel.matrix)
        played = solve_fictitious_play(game, 300_000)
        pts_exact, atom_exact = spectrum(exact.strategy, kernel)
        held = played.row_strategy.weights > 1e-3
        pts_fp, atom_fp = kernel.grid[1:][held[1:]], bool(held[0])
        assert atom_exact == atom_fp
        assert abs(pts_exact.min() - pts_fp.min()) <= cell + 1e-12
        assert abs(pts_exact.max() - pts_fp.max()) <= cell + 1e-12


class TestBasicInterval:
    def test_duel_kernel_starts_at_zero(self):
        assert basic_interval_start(DUEL_201) == 0.0
        points, _ = spectrum(solve_timing(DUEL_201).strategy, DUEL_201)
        assert points.min() >= 0.0

    def test_shifted_kernel(self):
        kernel = build_kernel(lambda x, y: x - y - 0.5 + x * y, 101)
        b = basic_interval_start(kernel)
        # A(x, x) = x^2 - 0.5 turns nonnegative at sqrt(0.5)
        assert b == pytest.approx(np.sqrt(0.5), abs=0.01)
        points, _ = spectrum(solve_timing(kernel).strategy, kernel)
        assert points.min() >= b


def golden_kernel(monkeypatch) -> TimingKernel:
    """The imbedded kernel that run_protocol solves on the golden config."""
    kernels = []
    monkeypatch.setattr(pipeline, "solve_timing", lambda kernel: kernels.append(kernel) or solve_timing(kernel))
    pipeline.run_protocol(pipeline.ProtocolConfig.from_dict(GOLDEN_CONFIG))
    monkeypatch.undo()
    return kernels[0]


# The CLI admits any finite coefficient; these have magnitudes from 1e-3 to
# 1e3, the scales of the skew games that the dense layouts certify, or are
# exact zeros, which drop a term.
coefficient = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, m, e: sign * m * 10.0**e, st.sampled_from((-1.0, 1.0)), st.floats(1.0, 10.0), st.floats(-3.0, 2.0)),
)


@st.composite
def factored_kernels(draw) -> TimingKernel:
    """A duel or affine kernel from its CLI document, on 3 to 60 points, imbedded or not."""
    grid_n = draw(st.integers(3, 60))
    generator = draw(st.one_of(
        st.just({"kind": "duel"}),
        st.fixed_dictionaries({"kind": st.just("affine"), **dict.fromkeys(("cx", "cy", "cxy", "c0"), coefficient)}),
    ))
    kernel = kernel_from_spec({"A": generator, "grid_n": grid_n})
    if draw(st.booleans()):
        # Scores span at most 1 beside an offset, as a decision-path score does.
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        scores = draw(coefficient) + rng.random(grid_n)
        kernel = pipeline.imbed_objective(kernel, scores, abs(draw(coefficient)))
    return kernel


class TestFactoredLP:
    @settings(max_examples=60, deadline=None)
    @given(factored_kernels())
    def test_factors_agree_with_the_kernel_and_certify(self, kernel):
        a, b = kernel.factors
        upper = np.triu_indices(kernel.grid_n)
        # Within 8 ulps of the kernel's scale, its largest sum_k |a_k(x_i) b_k(x_j)|
        # on the triangle: 2 ulps at worst in 3,000 draws.
        error = np.abs(np.einsum("ki,kj->ij", a, b) - kernel.a_upper)[upper].max()
        scale = np.einsum("ki,kj->ij", np.abs(a), np.abs(b))[upper].max()
        assert error <= 8 * np.finfo(float).eps * scale
        # One basic per row, and the start is primal feasible.
        lp = _factored_lp(kernel)
        assert lp.basic.sum() == len(lp.row_lower)
        start = _load_lp(lp, "timing LP")
        start.setOptionValue("simplex_iteration_limit", 0)
        start.run()
        assert start.getInfo().max_primal_infeasibility <= 1e-10
        solution = solve_timing(kernel)
        assert solution.value == 0.0
        assert solution.residual_eq11 <= SADDLE_TOL

    def test_start_run_certifies_within_its_budget(self, monkeypatch):
        # The golden imbedded kernel has three factor vectors up to sign
        # (x, 1 and its potential), so 805 rows and 3,207 nonzeros against
        # the dense 202 x 201 layout's 40,602; the duel kernel at grid 801
        # has two, so 2,404 rows.  From the start basis they take 195 and 914
        # iterations, 0.24 and 0.38 per row; the budget of 0.48 per row is
        # 25% above the larger.
        # Each start run certifies on the dense matrix, so solve_timing
        # makes one run, the primal one from the start basis, which only the
        # factored layout has: a silent fall-back to the dense layouts fails
        # here.
        for kernel, distinct in ((golden_kernel(monkeypatch), 3), (build_kernel(duel_kernel_fn, 801), 2)):
            n = kernel.grid_n
            lp = _factored_lp(kernel)
            assert len(lp.row_lower) == n + 1 + distinct * n
            budget = int(0.48 * len(lp.row_lower))
            highs = _load_lp(lp, "timing LP")
            highs.setOptionValue("simplex_iteration_limit", budget)
            highs.run()
            assert highs.getModelStatus() == _highs_core().HighsModelStatus.kOptimal, n
            assert highs.getInfo().simplex_iteration_count <= budget
            solution = highs.getSolution()
            _certify(kernel.matrix, np.array(solution.col_value), np.array(solution.row_dual))
            runs = []
            counted_loads(monkeypatch, runs, LadderHighs)
            solve_timing(kernel)
            monkeypatch.undo()
            assert runs == [("off", 4)]

    def test_kernels_without_usable_factors_solve_the_dense_lp(self, monkeypatch):
        # A plain callable gives no factors and solve_exact's answer, bit
        # for bit.  Factors of another generator fail every run of the
        # factored layout, and the first dense layout gives the same bits.
        plain = build_kernel(lambda x, y: x - y + x * y, 41)
        assert plain.factors is None
        other = build_kernel(affine_kernel_fn(1.0, -1.0, 1.0, -0.5), 41).factors
        corrupted = TimingKernel(plain.grid, plain.a_upper, factors=other)
        expected = solve_exact(PayoffMatrix(plain.matrix)).row_strategy.weights
        # 1e15 x (1 - y) has entries up to 2.5e14, which HiGHS accepts, but
        # a factor of 1e15 x, which it refuses: only the dense layout loads.
        cancelling = build_kernel(affine_kernel_fn(1e15, 0.0, -1e15, 0.0), 41)
        for kernel, loads, weights in (
            (plain, 1, expected),
            (corrupted, 2, expected),
            (cancelling, 1, solve_exact(PayoffMatrix(cancelling.matrix)).row_strategy.weights),
        ):
            runs = []
            models = counted_loads(monkeypatch, runs)
            solution = solve_timing(kernel)
            monkeypatch.undo()
            assert len(models) == loads
            assert np.array_equal(solution.strategy.weights, weights)

    def test_factors_are_checked_and_dropped_when_not_finite(self):
        grid, a_upper = DUEL_201.grid, DUEL_201.a_upper
        assert TimingKernel(grid, a_upper).factors is None
        a, b = DUEL_201.factors
        assert TimingKernel(grid, a_upper, factors=(np.full_like(a, np.inf), b)).factors is None

        def generator(x, y):  # its factors reach the same check through build_kernel
            return x - y + x * y

        malformed = [
            (a, b[:, 1:]),
            (["a"] * 201, [1.0] * 201),  # not numeric
            ([[1.0] * 201, [1.0]], b[:2]),  # ragged
            ([[1.0] * 201], [[10**400] * 201]),  # past float64
            3,  # not a pair
            (a,),
        ]
        for factors in malformed:
            generator.factors = lambda grid: factors
            with pytest.raises(InputError, match=r"factors must be two arrays of shape \(terms, grid_n\)"):
                TimingKernel(grid, a_upper, factors=factors)
            with pytest.raises(InputError, match=r"factors must be two arrays of shape \(terms, grid_n\)"):
                build_kernel(generator, 201)

    @pytest.mark.parametrize(
        "a,b",
        [
            # One term: A(x, y) = x (1 - y).
            (lambda x: x[None], lambda x: (1.0 - x)[None]),
            # Three terms in no order the generators use: A(x, y) = 2 x y - y + 0.5 x**2.
            (lambda x: np.array([2.0 * x, -np.ones_like(x), 0.5 * x**2]), lambda x: np.array([x, x, np.ones_like(x)])),
        ],
    )
    def test_directly_built_factors_are_imbedded_and_solved_in_one_run(self, monkeypatch, a, b):
        grid = np.linspace(0.0, 1.0, 31)
        factors = a(grid), b(grid)
        kernel = TimingKernel(grid, np.triu(np.einsum("ki,kj->ij", *factors)), factors=factors)
        kernel = pipeline.imbed_objective(kernel, np.sin(5.0 * grid), 0.5)
        upper = np.triu_indices(kernel.grid_n)
        assert np.allclose(np.einsum("ki,kj->ij", *kernel.factors)[upper], kernel.a_upper[upper], rtol=0.0, atol=1e-14)
        runs = []
        counted_loads(monkeypatch, runs, LadderHighs)
        solution = solve_timing(kernel)
        monkeypatch.undo()
        assert runs == [("off", 4)]
        assert solution.residual_eq11 <= SADDLE_TOL
