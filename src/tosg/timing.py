"""Symmetric games of timing with skew-symmetric kernels.

A kernel is built from its upper-triangle generator A(x, y), defined for
x <= y: the matrix realization carries A above the diagonal, zeros on it,
and -A(y, x) below, which enforces K(x, y) = -K(y, x) to the bit.  The
game value is therefore 0 and both players share one optimal strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError
from .matrix_game import (
    DUST_TOL,
    MixedStrategy,
    PayoffMatrix,
    _as_float_array,
    _as_int,
    _field,
    guard_cells,
    solve_exact,
)

_STRICT_TOL = 1e-12
_CONTINUITY_FACTOR = 10.0


@dataclass(frozen=True, eq=False)
class TimingKernel:
    """Grid discretization of a skew-symmetric timing kernel."""

    grid: np.ndarray
    a_upper: np.ndarray  # A(x_i, x_j) for i <= j, NaN below the diagonal

    def __post_init__(self):
        for name in ("grid", "a_upper"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = self.grid.shape[0]
        if self.grid.ndim != 1 or n < 3:
            raise InputError("kernel grid needs at least 3 points")
        if self.grid[0] != 0.0 or self.grid[-1] != 1.0 or np.any(np.diff(self.grid) <= 0):
            raise InputError("grid must increase strictly from 0 to 1")
        if self.a_upper.shape != (n, n):
            raise InputError("a_upper must be square over the grid")

    @cached_property
    def matrix(self) -> np.ndarray:
        """A above the diagonal, zeros on it, -A transposed below."""
        strict = np.triu(self.a_upper, k=1)
        matrix = strict - strict.T
        matrix.setflags(write=False)
        return matrix

    @property
    def grid_n(self) -> int:
        return self.grid.shape[0]

    def a_at_1_1(self) -> float:
        return float(self.a_upper[-1, -1])

    def a_at_0_1(self) -> float:
        return float(self.a_upper[0, -1])

    def basic_interval_start(self) -> float | None:
        """Smallest grid point where A(x, x) >= 0, or None if there is none."""
        diag = np.diagonal(self.a_upper)
        hits = np.nonzero(diag >= 0.0)[0]
        return float(self.grid[hits[0]]) if hits.size else None


def _evaluate_upper(a, grid: np.ndarray) -> np.ndarray:
    n = grid.shape[0]
    x, y = np.meshgrid(grid, grid, indexing="ij")
    try:
        # A need only be defined for x <= y; mask out anything it produced below.
        with np.errstate(all="ignore"):
            values = np.asarray(a(x, y), dtype=float)
        if values.shape != (n, n):
            raise ValueError
    except (TypeError, ValueError):  # a scalar-only generator, such as math.exp
        values = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                values[i, j] = a(grid[i], grid[j])
    upper = np.where(np.triu(np.ones((n, n), dtype=bool)), values, np.nan)
    if not np.all(np.isfinite(upper[np.triu_indices(n)])):
        raise InputError("A(x, y) must be finite on the closed triangle x <= y")
    return upper


def build_kernel(a, grid_n: int) -> TimingKernel:
    """Realize A(x, y) on a uniform grid; skew-symmetry holds by construction.

    The grid_n x grid_n arrays are bounded by the size cap (guard_cells),
    checked before any allocation.
    """
    if grid_n < 3:
        raise InputError("grid_n must be at least 3")
    guard_cells(grid_n * grid_n, f"a {grid_n}-point timing kernel")
    grid = np.linspace(0.0, 1.0, grid_n)
    return TimingKernel(grid=grid, a_upper=_evaluate_upper(a, grid))


def duel_kernel_fn(x, y):
    """One-shot symmetric silent duel generator: hit now vs. survive and be hit."""
    return x - y + x * y


def affine_kernel_fn(cx: float, cy: float, cxy: float, c0: float):
    def a(x, y):
        return cx * x + cy * y + cxy * x * y + c0

    return a


def kernel_fn_from_spec(doc: dict):
    kind = _field(doc, "kind", "kernel generator document")
    if kind == "duel":
        return duel_kernel_fn
    if kind == "affine":
        cx, cy, cxy, c0 = (
            float(_as_float_array(_field(doc, key, "affine kernel document"), key, 0))
            for key in ("cx", "cy", "cxy", "c0")
        )
        return affine_kernel_fn(cx, cy, cxy, c0)
    raise InputError(f"unknown kernel kind {kind!r}")


def kernel_from_spec(doc: dict) -> TimingKernel:
    """Build a kernel from `{"A": {...}, "grid_n": n}`."""
    a = kernel_fn_from_spec(_field(doc, "A", "kernel document"))
    return build_kernel(a, _as_int(_field(doc, "grid_n", "kernel document"), "grid_n"))


@dataclass(frozen=True)
class ValidationReport:
    """Advisory structure checks on the kernel generator; solving never blocks.

    The no-linear-intervals regularity condition is not observable on a
    grid and is reported as not evaluated (None).
    """

    strictly_increasing_in_x: bool
    strictly_decreasing_in_y: bool
    nonneg_x_slope: bool
    nonpos_y_slope: bool
    continuity_proxy: bool
    no_linear_intervals: None = None


def validate_kernel(kernel: TimingKernel) -> ValidationReport:
    """Check monotonicity and slope signs of A on the triangle x <= y."""
    a = np.triu(kernel.a_upper)  # whatever lies below the diagonal is never read
    n = kernel.grid_n
    # Steps between neighbours that both lie on the triangle x <= y:
    # (i, j) -> (i+1, j) needs i < j, and (i, j) -> (i, j+1) needs i <= j.
    dx = np.diff(a, axis=0)[np.triu(np.ones((n - 1, n), dtype=bool), k=1)]
    dy = np.diff(a, axis=1)[np.triu(np.ones((n, n - 1), dtype=bool))]

    steps = np.abs(np.concatenate([dx, dy]))
    tri = a[np.triu_indices(n)]
    value_range = float(tri.max() - tri.min())
    step_bound = _CONTINUITY_FACTOR * (value_range + _STRICT_TOL) / (n - 1)

    return ValidationReport(
        strictly_increasing_in_x=bool(np.all(dx > _STRICT_TOL)),
        strictly_decreasing_in_y=bool(np.all(dy < -_STRICT_TOL)),
        nonneg_x_slope=bool(np.all(dx >= -_STRICT_TOL)),
        nonpos_y_slope=bool(np.all(dy <= _STRICT_TOL)),
        continuity_proxy=bool(np.all(steps <= step_bound)),
    )


@dataclass(frozen=True)
class BoundaryClass:
    """Pure-strategy classification from the generator's corner values."""

    label: str  # "pure_at_1" | "pure_at_0" | "interior"
    a11: float
    a01: float

    @property
    def witness(self) -> float:
        return self.a11 if self.label == "pure_at_1" else self.a01


def classify_boundary(kernel: TimingKernel) -> BoundaryClass:
    """pure_at_1 if A(1,1) <= 0, else pure_at_0 if A(0,1) >= 0, else interior."""
    a11 = kernel.a_at_1_1()
    a01 = kernel.a_at_0_1()
    if a11 <= 0.0:
        label = "pure_at_1"
    elif a01 >= 0.0:
        label = "pure_at_0"
    else:
        label = "interior"
    return BoundaryClass(label=label, a11=a11, a01=a01)


@dataclass(frozen=True)
class TimingSolution:
    """Shared optimal strategy of the symmetric timing game (value 0)."""

    value: float
    strategy: MixedStrategy
    support_lo: float
    has_zero_atom: bool
    residual_eq11: float
    residual_eq12: float


def verify_optimality(kernel: TimingKernel, strategy: MixedStrategy) -> tuple[float, float]:
    """Residuals of the two optimality conditions for a candidate strategy F.

    Condition one requires the response payoff V(y) = sum_x K(x, y) F(x) to
    be nonnegative everywhere; its residual is the worst shortfall.
    Condition two requires sum_y V(y) F(y) = 0, an identity under
    skew-symmetry; its residual is the absolute deviation.
    """
    if len(strategy) != kernel.grid_n:
        raise InputError(
            f"strategy has {len(strategy)} weights for a {kernel.grid_n}-point grid"
        )
    weights = strategy.weights
    response = weights @ kernel.matrix
    residual_eq11 = max(0.0, -float(response.min()))
    residual_eq12 = abs(float(response @ weights))
    return residual_eq11, residual_eq12


def solve_timing(kernel: TimingKernel) -> TimingSolution:
    """Solve the discretized timing game; both players share the strategy."""
    solution = solve_exact(PayoffMatrix(kernel.matrix))
    strategy = solution.row_strategy
    points, has_zero_atom = spectrum(strategy, kernel)
    support_lo = float(points[0]) if points.size else 0.0  # all mass at the origin atom
    residual_eq11, residual_eq12 = verify_optimality(kernel, strategy)
    return TimingSolution(
        value=solution.value,
        strategy=strategy,
        support_lo=support_lo,
        has_zero_atom=has_zero_atom,
        residual_eq11=residual_eq11,
        residual_eq12=residual_eq12,
    )


def spectrum(
    strategy: MixedStrategy, kernel: TimingKernel, atom_tol: float = DUST_TOL
) -> tuple[np.ndarray, bool]:
    """Grid points carrying mass above atom_tol, with the zero atom split off."""
    if not atom_tol > 0:
        raise InputError("atom_tol must be positive")
    if len(strategy) != kernel.grid_n:
        raise InputError("strategy does not match the kernel grid")
    weights = strategy.weights
    has_zero_atom = bool(weights[0] > atom_tol)
    idx = np.nonzero(weights[1:] > atom_tol)[0] + 1
    return kernel.grid[idx], has_zero_atom


def spectrum_in_basic_interval(
    kernel: TimingKernel, strategy: MixedStrategy, atom_tol: float = DUST_TOL
) -> bool | None:
    """Advisory check that the spectrum lies in [b, 1], b the first point
    where A(x, x) turns nonnegative.  None when b is undefined."""
    b = kernel.basic_interval_start()
    if b is None:
        return None
    points, _ = spectrum(strategy, kernel, atom_tol)
    return bool(points.size == 0 or points.min() >= b)
