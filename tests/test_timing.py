import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_monotone_kernel
from tosg.duel import AccuracyFunction, DuelSpec, discretize_duel
from tosg.errors import InputError, ResourceLimitError
from tosg.matrix_game import MAX_STRATEGY_PAIRS, MixedStrategy, PayoffMatrix, solve_fictitious_play
from tosg.timing import (
    TimingKernel,
    ValidationReport,
    build_kernel,
    classify_boundary,
    duel_kernel_fn,
    kernel_from_spec,
    solve_timing,
    spectrum,
    spectrum_in_basic_interval,
    validate_kernel,
    verify_optimality,
)

DUEL_201 = build_kernel(duel_kernel_fn, 201)


def pure_at(index: int, size: int) -> MixedStrategy:
    return MixedStrategy.pure(index, size)


def loop_report(kernel: TimingKernel) -> ValidationReport:
    """validate_kernel's result by explicit loops over the triangle's columns and rows."""
    a, n = kernel.a_upper, kernel.grid_n
    dx = np.concatenate([np.diff(a[: j + 1, j]) for j in range(1, n)])
    dy = np.concatenate([np.diff(a[i, i:]) for i in range(n - 1)])
    tri = [a[i, j] for i in range(n) for j in range(i, n)]
    step_bound = 10.0 * (max(tri) - min(tri) + 1e-12) / (n - 1)
    return ValidationReport(
        strictly_increasing_in_x=bool(np.all(dx > 1e-12)),
        strictly_decreasing_in_y=bool(np.all(dy < -1e-12)),
        nonneg_x_slope=bool(np.all(dx >= -1e-12)),
        nonpos_y_slope=bool(np.all(dy <= 1e-12)),
        continuity_proxy=bool(np.all(np.abs(np.concatenate([dx, dy])) <= step_bound)),
    )


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
        # generators that reject array arguments fall back to the loop
        def gen(x, y):
            return math.exp(x) - math.exp(y)

        kernel = build_kernel(gen, 7)
        assert kernel.matrix[0, 6] == pytest.approx(1.0 - math.e)

    def test_only_array_rejections_fall_back_to_the_loop(self):
        calls = []

        def gen(x, y):
            calls.append((x, y))
            raise MemoryError

        with pytest.raises(MemoryError):
            build_kernel(gen, 5)
        assert len(calls) == 1

    def test_oversized_grid_refused_before_allocation(self):
        grid_n = math.isqrt(MAX_STRATEGY_PAIRS) + 1  # grid_n**2 cells just over the cap
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


class TestValidateKernel:
    def test_duel_kernel_passes(self):
        report = validate_kernel(DUEL_201)
        assert report.strictly_increasing_in_x
        assert report.strictly_decreasing_in_y
        assert report.nonneg_x_slope and report.nonpos_y_slope
        assert report.continuity_proxy
        assert report.no_linear_intervals is None  # not observable on a grid

    def test_increasing_in_y_fails(self):
        report = validate_kernel(build_kernel(lambda x, y: x + y, 21))
        assert not report.strictly_decreasing_in_y
        assert not report.nonpos_y_slope
        assert report.strictly_increasing_in_x

    def test_constant_fails_strictness_passes_signs(self):
        report = validate_kernel(build_kernel(lambda x, y: 0.25 + 0.0 * x, 21))
        assert not report.strictly_increasing_in_x
        assert not report.strictly_decreasing_in_y
        assert report.nonneg_x_slope and report.nonpos_y_slope

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(3, 30),
        st.sampled_from(["monotone", "noisy", "random"]),
        st.sampled_from([np.nan, np.inf, -1e300, 0.0, "random"]),
    )
    def test_matches_loop_reference_whatever_lies_below(self, seed, grid_n, shape, below):
        rng = np.random.default_rng(seed)
        upper = random_monotone_kernel(rng, grid_n).a_upper
        if shape == "noisy":
            upper = upper + rng.normal(0.0, 1e-3, upper.shape)
        elif shape == "random":
            upper = rng.uniform(-1.0, 1.0, upper.shape)
        fill = rng.uniform(-1e3, 1e3, upper.shape) if below == "random" else below
        a_upper = np.where(np.triu(np.ones(upper.shape, dtype=bool)), upper, fill)
        kernel = TimingKernel(grid=np.linspace(0.0, 1.0, grid_n), a_upper=a_upper)
        assert validate_kernel(kernel) == loop_report(kernel)

    def test_jump_breaks_continuity_proxy(self):
        report = validate_kernel(build_kernel(lambda x, y: x - y + np.where(x > 0.5, 5.0, 0.0), 51))
        assert not report.continuity_proxy


class TestClassifyBoundary:
    def test_pure_at_1(self):
        decision = classify_boundary(build_kernel(lambda x, y: x - y - 0.5, 21))
        assert decision.label == "pure_at_1"
        assert decision.witness == pytest.approx(-0.5)

    def test_pure_at_0(self):
        decision = classify_boundary(build_kernel(lambda x, y: x - y + 2.0, 21))
        assert decision.label == "pure_at_0"
        assert decision.a11 == pytest.approx(2.0)
        assert decision.witness == pytest.approx(1.0)

    def test_interior(self):
        decision = classify_boundary(DUEL_201)
        assert decision.label == "interior"
        assert decision.a11 == pytest.approx(1.0)
        assert decision.a01 == pytest.approx(-1.0)


class TestSolveTiming:
    def test_duel_kernel_desk_scale(self):
        solution = solve_timing(DUEL_201)
        assert abs(solution.value) <= 1e-9
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
        assert abs(solution.value) <= 1e-9
        assert solution.residual_eq11 <= 1e-6

    def test_duel_kernel_801_meets_default_tol(self):
        # The row LP's own strategy falls short by 3.6e-9 here; its dual does not.
        solution = solve_timing(build_kernel(duel_kernel_fn, 801))
        assert solution.residual_eq11 <= 5e-10
        assert abs(solution.value) <= 1e-9

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
        with pytest.raises(InputError):
            verify_optimality(DUEL_201, MixedStrategy.uniform(11))


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
        played = solve_fictitious_play(game, 300_000, tol=1e-3)
        pts_exact, atom_exact = spectrum(exact.strategy, kernel, atom_tol=1e-6)
        pts_fp, atom_fp = spectrum(played.row_strategy, kernel, atom_tol=1e-3)
        assert atom_exact == atom_fp
        assert abs(pts_exact.min() - pts_fp.min()) <= cell + 1e-12
        assert abs(pts_exact.max() - pts_fp.max()) <= cell + 1e-12


class TestBasicInterval:
    def test_duel_kernel_starts_at_zero(self):
        assert DUEL_201.basic_interval_start() == 0.0
        solution = solve_timing(DUEL_201)
        assert spectrum_in_basic_interval(DUEL_201, solution.strategy) is True

    def test_shifted_kernel(self):
        kernel = build_kernel(lambda x, y: x - y - 0.5 + x * y, 101)
        b = kernel.basic_interval_start()
        # A(x, x) = x^2 - 0.5 turns nonnegative at sqrt(0.5)
        assert b == pytest.approx(np.sqrt(0.5), abs=0.01)
        solution = solve_timing(kernel)
        assert spectrum_in_basic_interval(kernel, solution.strategy) is True

    def test_undefined_when_diagonal_negative(self):
        kernel = build_kernel(lambda x, y: x - y - 5.0, 11)
        assert kernel.basic_interval_start() is None
        assert spectrum_in_basic_interval(kernel, pure_at(10, 11)) is None
