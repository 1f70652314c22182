import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tosg.decision import (
    AffineConstraint,
    AffineObjective,
    CoordinateConstraint,
    QuadraticObjective,
    TosgProblem,
    constraint_targets_from_risk,
    solve_tosg,
    tosg_value,
)
from tosg.errors import ConvergenceError, DegenerateProblemError, InputError, SolverError
from tosg.risk import MitigatingRiskParams

coeffs = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


def quadratic_fixture() -> TosgProblem:
    """Concave separable objective pinned at (1, 2, 3) by coordinates."""
    return TosgProblem(
        objective=QuadraticObjective(quad=[-1.0, -1.0, -1.0], lin=[0.0, 0.0, 0.0]),
        constraints=(CoordinateConstraint(0), CoordinateConstraint(1), CoordinateConstraint(2)),
        targets=(1.0, 2.0, 3.0),
        dimension=3,
    )


@st.composite
def quadratic_problems(draw):
    """A separable quadratic objective of dimension 3 to 8 under three coordinate or affine constraints."""
    n = draw(st.integers(3, 8))
    vector = arrays(np.float64, n, elements=coeffs)
    constraint = st.one_of(
        st.integers(0, n - 1).map(CoordinateConstraint),
        st.builds(AffineConstraint, vector, coeffs),
    )
    return TosgProblem(
        objective=QuadraticObjective(quad=draw(vector), lin=draw(vector)),
        constraints=tuple(draw(constraint) for _ in range(3)),
        targets=draw(st.tuples(coeffs, coeffs, coeffs)),
        dimension=n,
    )


def finite_difference_gradient(fn, d, step=1e-6):
    d = np.asarray(d, dtype=float)
    grad = np.zeros_like(d)
    for i in range(d.size):
        up, down = d.copy(), d.copy()
        up[i] += step
        down[i] -= step
        grad[i] = (fn(up) - fn(down)) / (2.0 * step)
    return grad


class TestTosgValue:
    def test_feasible_point_reduces_to_objective(self):
        problem = quadratic_fixture()
        d = np.array([1.0, 2.0, 3.0])
        for multipliers in ((0.0, 0.0, 0.0), (2.0, 4.0, 6.0), (-3.0, 1.0, 0.5)):
            assert tosg_value(problem, d, multipliers) == pytest.approx(-14.0)

    def test_zero_multipliers_anywhere(self):
        problem = quadratic_fixture()
        d = np.array([0.5, -1.0, 2.0])
        assert tosg_value(problem, d, (0.0, 0.0, 0.0)) == pytest.approx(
            problem.objective.value(d)
        )

    def test_hand_arithmetic(self):
        # -(1+4+9) + 2*(1-1) + 4*(2-2) + 6*(3-3) = -14
        problem = quadratic_fixture()
        assert tosg_value(problem, [1.0, 2.0, 3.0], (2.0, 4.0, 6.0)) == pytest.approx(-14.0)

    def test_penalty_terms(self):
        problem = quadratic_fixture()
        got = tosg_value(problem, [0.0, 0.0, 0.0], (1.0, 1.0, 1.0))
        assert got == pytest.approx(0.0 + 1.0 * (-1.0) + 1.0 * (-2.0) + 1.0 * (-3.0))

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            tosg_value(quadratic_fixture(), [1.0, 2.0], (0.0, 0.0, 0.0))
        with pytest.raises(InputError):
            tosg_value(quadratic_fixture(), [1.0, 2.0, 3.0], (0.0, 0.0))

    @settings(max_examples=60, deadline=None)
    @given(
        arrays(np.float64, 3, elements=coeffs),
        st.tuples(coeffs, coeffs, coeffs),
        st.floats(-1.0, 1.0, allow_nan=False),
    )
    def test_multiplier_sensitivity_is_constraint_deviation(self, d, multipliers, h):
        # the decision score is affine in each multiplier with slope
        # constraint(d) - target
        problem = quadratic_fixture()
        base = np.asarray(multipliers)
        for i, constraint in enumerate(problem.constraints):
            bumped = base.copy()
            bumped[i] += h
            delta = tosg_value(problem, d, bumped) - tosg_value(problem, d, base)
            expected = h * (constraint.value(d) - problem.targets[i])
            assert delta == pytest.approx(expected, abs=1e-9)


class TestGradients:
    @settings(max_examples=50, deadline=None)
    @given(
        arrays(np.float64, 4, elements=coeffs),
        arrays(np.float64, 4, elements=coeffs),
        arrays(np.float64, 4, elements=st.floats(-3.0, 3.0, allow_nan=False)),
    )
    def test_quadratic_gradient_matches_finite_differences(self, quad, lin, d):
        objective = QuadraticObjective(quad=quad, lin=lin)
        analytic = objective.gradient(d)
        numeric = finite_difference_gradient(objective.value, d)
        scale = max(1.0, float(np.abs(analytic).max()))
        assert np.all(np.abs(analytic - numeric) / scale <= 1e-5)

    @settings(max_examples=50, deadline=None)
    @given(
        arrays(np.float64, 4, elements=coeffs),
        coeffs,
        arrays(np.float64, 4, elements=st.floats(-3.0, 3.0, allow_nan=False)),
    )
    def test_affine_gradients_match_finite_differences(self, a, b, d):
        objective = AffineObjective(lin=a, offset=b)
        numeric = finite_difference_gradient(objective.value, d)
        assert np.all(np.abs(objective.gradient(d) - numeric) <= 1e-5 * max(1.0, np.abs(a).max()))
        constraint = AffineConstraint(a=a, b=b)
        numeric_c = finite_difference_gradient(constraint.value, d)
        assert np.all(np.abs(constraint.gradient(d) - numeric_c) <= 1e-5 * max(1.0, np.abs(a).max()))


class TestConstraintTargets:
    def test_zero_risk_keeps_baselines(self):
        silent = MitigatingRiskParams(pa=0.0, pi=0.0, pn=0.0, ce=10.0)
        targets = constraint_targets_from_risk(silent, silent, silent, (1.0, 2.0, 3.0))
        assert targets == pytest.approx((1.0, 2.0, 3.0))

    def test_full_risk_doubles_baseline_for_any_ce(self):
        for ce in (0.0, 1.0, 250.0):
            hot = MitigatingRiskParams(pa=1.0, pi=0.0, pn=0.0, ce=ce)
            targets = constraint_targets_from_risk(hot, hot, hot, (1.0, 2.0, 3.0))
            assert targets == pytest.approx((2.0, 4.0, 6.0))

    def test_mixed_fixture_recomputed_by_hand(self):
        # normalized risks: 1*(1-0.72) = 0.28, 0.5*(1-0.25) = 0.375, 0
        a = MitigatingRiskParams(pa=1.0, pi=0.8, pn=0.9, ce=100.0)
        b = MitigatingRiskParams(pa=0.5, pi=0.5, pn=0.5, ce=7.0)
        c = MitigatingRiskParams(pa=0.0, pi=0.1, pn=0.1, ce=1.0)
        targets = constraint_targets_from_risk(a, b, c, (10.0, 10.0, 10.0))
        assert targets == pytest.approx((12.8, 13.75, 10.0))

    def test_baseline_validation(self):
        silent = MitigatingRiskParams(pa=0.0, pi=0.0, pn=0.0, ce=1.0)
        with pytest.raises(InputError):
            constraint_targets_from_risk(silent, silent, silent, (1.0, 2.0))


class TestSolveTosg:
    def test_quadratic_fixture_hand_kkt(self):
        # stationarity -2 d_i + mult_i = 0 at d = targets gives mults (2, 4, 6)
        solution = solve_tosg(quadratic_fixture())
        assert solution.d_star == pytest.approx([1.0, 2.0, 3.0], abs=1e-8)
        assert solution.multipliers == pytest.approx((2.0, 4.0, 6.0), abs=1e-8)
        assert solution.stationarity_residual <= 1e-8
        assert solution.feasibility_residual <= 1e-8
        assert solution.tosg_value == pytest.approx(-14.0, abs=1e-8)

    def test_kkt_point_passes_finite_difference_check(self):
        problem = quadratic_fixture()
        solution = solve_tosg(problem)
        grad = finite_difference_gradient(problem.objective.value, solution.d_star)
        for i, mult in enumerate(solution.multipliers):
            grad += mult * finite_difference_gradient(
                problem.constraints[i].value, solution.d_star
            )
        assert np.abs(grad).max() <= 1e-5

    def test_affine_objective_multipliers(self):
        problem = TosgProblem(
            objective=AffineObjective(lin=[1.5, -2.0, 0.25]),
            constraints=(
                CoordinateConstraint(0),
                CoordinateConstraint(1),
                CoordinateConstraint(2),
            ),
            targets=(4.0, 5.0, 6.0),
            dimension=3,
        )
        solution = solve_tosg(problem)
        assert solution.d_star == pytest.approx([4.0, 5.0, 6.0])
        assert solution.multipliers == pytest.approx((-1.5, 2.0, -0.25))

    def test_converged_value_equals_objective(self):
        problem = quadratic_fixture()
        solution = solve_tosg(problem)
        assert solution.tosg_value == pytest.approx(
            problem.objective.value(solution.d_star), abs=1e-8
        )

    def test_unconstrained_direction_is_degenerate(self):
        problem = TosgProblem(
            objective=AffineObjective(lin=[1.0, 1.0, 1.0, 1.0]),
            constraints=(
                CoordinateConstraint(0),
                CoordinateConstraint(1),
                CoordinateConstraint(2),
            ),
            targets=(1.0, 1.0, 1.0),
            dimension=4,
        )
        with pytest.raises(DegenerateProblemError):
            solve_tosg(problem)

    def test_pluggable_nonlinear_objective(self):
        # anything with value/gradient/hessian plugs in; a quartic needs a
        # couple of Newton steps instead of one
        class Quartic:
            dimension = 3

            def value(self, d):
                return -float(np.sum(d**4))

            def gradient(self, d):
                return -4.0 * d**3

            def hessian(self, d):
                return np.diag(-12.0 * d**2)

        problem = TosgProblem(
            objective=Quartic(),
            constraints=(
                CoordinateConstraint(0),
                CoordinateConstraint(1),
                CoordinateConstraint(2),
            ),
            targets=(1.0, 2.0, 3.0),
            dimension=3,
        )
        solution = solve_tosg(problem)
        assert solution.d_star == pytest.approx([1.0, 2.0, 3.0], abs=1e-8)
        assert solution.multipliers == pytest.approx((4.0, 32.0, 108.0), abs=1e-7)

    def test_cycling_newton_raises_convergence_error(self):
        # The free coordinate's gradient sign(x - 1) * sqrt(|x - 1|) makes every
        # Newton step jump from 0 to 2 and back, so the step budget runs out.
        class Cusp:
            dimension = 4

            def value(self, d):
                return 2.0 / 3.0 * abs(d[3] - 1.0) ** 1.5

            def gradient(self, d):
                g = np.zeros(4)
                g[3] = np.sign(d[3] - 1.0) * np.sqrt(abs(d[3] - 1.0))
                return g

            def hessian(self, d):
                h = np.zeros((4, 4))
                h[3, 3] = 0.5 / np.sqrt(abs(d[3] - 1.0))
                return h

        problem = TosgProblem(
            objective=Cusp(),
            constraints=(
                CoordinateConstraint(0),
                CoordinateConstraint(1),
                CoordinateConstraint(2),
            ),
            targets=(1.0, 2.0, 3.0),
            dimension=4,
        )
        with pytest.raises(ConvergenceError) as err:
            solve_tosg(problem)
        assert err.value.residuals["stationarity_residual"] == pytest.approx(1.0)
        assert err.value.residuals["feasibility_residual"] <= 1e-12

    def test_minimum_along_a_free_coordinate_is_refused(self):
        # d = (1, 2, 3, 0) is stationary, but d_3 = 10 gives 86 > -14: the
        # objective is unbounded above along the free coordinate.
        problem = TosgProblem(
            objective=QuadraticObjective(quad=[-1.0, -1.0, -1.0, 1.0], lin=[0.0] * 4),
            constraints=(CoordinateConstraint(0), CoordinateConstraint(1), CoordinateConstraint(2)),
            targets=(1.0, 2.0, 3.0),
            dimension=4,
        )
        with pytest.raises(SolverError, match="not a constrained maximum"):
            solve_tosg(problem)

    @settings(max_examples=200, deadline=None)
    @given(quadratic_problems(), arrays(np.float64, 8, elements=st.floats(-1.0, 1.0)), st.floats(0.1, 10.0))
    # Three copies of one constraint, met at the origin: Newton takes no step,
    # and the Jacobian's null space has dimension 2, not n - 3 = 0.
    @example(
        TosgProblem(QuadraticObjective([1.0] * 3, [0.0] * 3), (CoordinateConstraint(0),) * 3, (0.0, 0.0, 0.0), 3),
        np.ones(8),
        1.0,
    )
    # The rank test drops the 1.8e-39 row, so Z = e_0 and Z^T H Z = -2 < 0;
    # but Newton's d* = (2.6e-18, 0, 0), held by a multiplier of 1.1e39 on
    # that row, sits where the objective still rises along -e_0.
    @example(
        TosgProblem(
            QuadraticObjective([-1.0, 0.0, 0.0], [-2.0, 0.0, 0.0]),
            (
                CoordinateConstraint(1),
                AffineConstraint([0.0, 0.0, 1.0], 0.0),
                AffineConstraint([1.78780491e-39, 0.0, 0.0], 0.0),
            ),
            (0.0, 0.0, 0.0),
            3,
        ),
        -np.ones(8),
        1.0,
    )
    # Rows 0 and 1 are 4e-8 from parallel, so J has full rank and d* = 0 is
    # the only feasible point.  Projecting through lstsq's solution of size
    # 1e7 left z moving row 2 by 6e-8, and the objective d_2 rose by 9e-8.
    @example(
        TosgProblem(
            QuadraticObjective([0.0, 0.0, 0.0], [0.0, 0.0, 1.0]),
            (
                CoordinateConstraint(0),
                AffineConstraint([-1.0, -5.96046448e-08, 0.0], 0.0),
                AffineConstraint([1.0, 0.0, 1.0], 0.0),
            ),
            (0.0, 0.0, 0.0),
            3,
        ),
        np.ones(8),
        1.0,
    )
    def test_returned_point_is_a_constrained_maximum(self, problem, direction, t):
        # Along any direction z that keeps every constraint at its target,
        # the objective at d* + t z is at most its value at d*.
        try:
            solution = solve_tosg(problem)
        except (ConvergenceError, DegenerateProblemError, SolverError):
            return
        d = solution.d_star
        jac = np.vstack([c.gradient(d) for c in problem.constraints])
        z = direction[: problem.dimension]
        # Remove z's part in J's row space through an orthonormal basis of it,
        # cut at lstsq's default rank; that stays accurate when J is
        # ill-conditioned.
        _, singular, right = np.linalg.svd(jac)
        rows = right[: np.count_nonzero(singular > singular.max() * max(jac.shape) * np.finfo(float).eps)]
        z = z - rows.T @ (rows @ z)
        before = problem.objective.value(d)
        assert problem.objective.value(d + t * z) <= before + 1e-8 * (1.0 + abs(before))

    def test_duplicate_constraints_are_degenerate(self):
        problem = TosgProblem(
            objective=QuadraticObjective(quad=[-1.0, -1.0, -1.0], lin=[0.0, 0.0, 0.0]),
            constraints=(
                CoordinateConstraint(0),
                CoordinateConstraint(0),
                CoordinateConstraint(2),
            ),
            targets=(1.0, 2.0, 3.0),
            dimension=3,
        )
        with pytest.raises(DegenerateProblemError):
            solve_tosg(problem)

    def test_problem_validation(self):
        with pytest.raises(InputError):
            TosgProblem(
                objective=AffineObjective(lin=[1.0, 1.0]),
                constraints=(CoordinateConstraint(0),) * 3,
                targets=(1.0, 2.0, 3.0),
                dimension=2,
            )
        with pytest.raises(InputError):
            TosgProblem(
                objective=quadratic_fixture().objective,
                constraints=(CoordinateConstraint(0), CoordinateConstraint(1)),
                targets=(1.0, 2.0, 3.0),
                dimension=3,
            )
        with pytest.raises(InputError):
            TosgProblem(
                objective=quadratic_fixture().objective,
                constraints=(CoordinateConstraint(0), CoordinateConstraint(1), CoordinateConstraint(5)),
                targets=(1.0, 2.0, 3.0),
                dimension=3,
            )

    def test_from_dict(self):
        problem = TosgProblem.from_dict(
            {
                "objective": {"kind": "quadratic", "q": [-1, -1, -1], "c": [0, 0, 0]},
                "constraints": [
                    {"kind": "coord", "index": 0},
                    {"kind": "coord", "index": 1},
                    {"kind": "affine", "a": [0, 0, 1], "b": 0.0},
                ],
                "targets": [1, 2, 3],
            }
        )
        solution = solve_tosg(problem)
        assert solution.d_star == pytest.approx([1.0, 2.0, 3.0])
