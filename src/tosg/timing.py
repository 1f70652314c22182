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
    _as_real,
    _field,
    guard_cells,
    solve_exact,
)


@dataclass(frozen=True, eq=False)
class TimingKernel:
    """Grid discretization of a skew-symmetric timing kernel."""

    grid: np.ndarray
    a_upper: np.ndarray  # A(x_i, x_j) for i <= j; entries below the diagonal: finite, not read

    def __post_init__(self):
        grid = _as_float_array(self.grid, "kernel grid", 1)
        a_upper = _as_float_array(self.a_upper, "A(x, y) on the triangle x <= y", 2)
        for name, arr in (("grid", grid), ("a_upper", a_upper)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = grid.shape[0]
        if n < 3:
            raise InputError("kernel grid needs at least 3 points")
        if grid[0] != 0.0 or grid[-1] != 1.0 or np.any(np.diff(grid) <= 0):
            raise InputError("grid must increase strictly from 0 to 1")
        if a_upper.shape != (n, n):
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


def build_kernel(a, grid_n: int) -> TimingKernel:
    """Realize A(x, y) on a uniform grid; skew-symmetry holds by construction.

    A is called once, with the grid as a column x and as a row y.  Its
    result is broadcast to grid_n x grid_n and only the triangle x <= y is
    kept, so A need only be defined there.  The arrays are bounded by the
    size cap (guard_cells), checked before any allocation.
    """
    grid_n = _as_int(grid_n, "grid_n")
    if grid_n < 3:
        raise InputError("grid_n must be at least 3")
    guard_cells(grid_n * grid_n, f"a {grid_n}-point timing kernel")
    grid = np.linspace(0.0, 1.0, grid_n)
    try:
        with np.errstate(all="ignore"):
            values = np.broadcast_to(a(grid[:, None], grid[None, :]), (grid_n, grid_n))
    except (TypeError, ValueError) as exc:  # a scalar-only generator, such as math.exp
        raise InputError(f"A(x, y) must map grid arrays to a {grid_n} x {grid_n} result: {exc}") from None
    return TimingKernel(grid=grid, a_upper=np.triu(values))


def affine_kernel_fn(cx: float, cy: float, cxy: float, c0: float):
    def a(x, y):
        return cx * x + cy * y + cxy * x * y + c0

    return a


# The one-shot symmetric silent duel's generator x - y + xy: hit now vs. survive and be hit.
duel_kernel_fn = affine_kernel_fn(1.0, -1.0, 1.0, 0.0)


def kernel_fn_from_spec(doc: dict):
    kind = _field(doc, "kind", "kernel generator document")
    if kind == "duel":
        return duel_kernel_fn
    if kind == "affine":
        what = "affine kernel document"
        cx, cy, cxy, c0 = (_as_real(_field(doc, key, what), key) for key in ("cx", "cy", "cxy", "c0"))
        return affine_kernel_fn(cx, cy, cxy, c0)
    raise InputError(f"unknown kernel kind {kind!r}")


def kernel_from_spec(doc: dict) -> TimingKernel:
    """Build a kernel from `{"A": {...}, "grid_n": n}`."""
    a = kernel_fn_from_spec(_field(doc, "A", "kernel document"))
    return build_kernel(a, _field(doc, "grid_n", "kernel document"))


@dataclass(frozen=True)
class BoundaryClass:
    """Pure-strategy classification from the generator's corner values."""

    label: str  # "pure_at_1" | "pure_at_0" | "interior"
    a11: float
    a01: float


def classify_boundary(kernel: TimingKernel) -> BoundaryClass:
    """pure_at_1 if A(1,1) <= 0, else pure_at_0 if A(0,1) >= 0, else interior."""
    a11 = float(kernel.a_upper[-1, -1])
    a01 = float(kernel.a_upper[0, -1])
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
        raise InputError(f"strategy has {len(strategy)} weights for a {kernel.grid_n}-point grid")
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


def spectrum(strategy: MixedStrategy, kernel: TimingKernel) -> tuple[np.ndarray, bool]:
    """Grid points carrying mass above DUST_TOL, with the zero atom split off."""
    if len(strategy) != kernel.grid_n:
        raise InputError(f"strategy has {len(strategy)} weights for a {kernel.grid_n}-point grid")
    weights = strategy.weights
    has_zero_atom = bool(weights[0] > DUST_TOL)
    idx = np.nonzero(weights[1:] > DUST_TOL)[0] + 1
    return kernel.grid[idx], has_zero_atom

