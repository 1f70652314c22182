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
    _as_float_array,
    _as_int,
    _as_real,
    _field,
    _LP,
    _solve_game,
    guard_cells,
)
# Called nowhere: kept only for perfbench/spans.py's WRAPS; ROADMAP item 2 removes it.
from .matrix_game import solve_exact


@dataclass(frozen=True, eq=False)
class TimingKernel:
    """Grid discretization of a skew-symmetric timing kernel.

    ``factors``, where the generator's form is known, is (a, b): two arrays
    of shape (r, grid_n) with A(x_i, x_j) = sum_k a[k, i] b[k, j] on the
    triangle, up to rounding.  solve_timing then solves _factored_lp first;
    a_upper still certifies its answer.  Factors holding a non-finite value
    are dropped, and the kernel keeps the dense LP.
    """

    grid: np.ndarray
    a_upper: np.ndarray  # A(x_i, x_j) for i <= j; entries below the diagonal: finite, not read
    factors: tuple[np.ndarray, np.ndarray] | None = None

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
        if self.factors is not None:
            try:
                factors = tuple(np.array(f, dtype=float) for f in self.factors)
            except (TypeError, ValueError, OverflowError):  # not iterable, not numeric, ragged or past float64
                factors = ()
            if len(factors) != 2 or factors[0].shape != factors[1].shape or factors[0].shape[1:] != (n,):
                raise InputError("factors must be two arrays of shape (terms, grid_n)")
            for f in factors:
                f.setflags(write=False)
            object.__setattr__(self, "factors", factors if all(np.isfinite(f).all() for f in factors) else None)

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
            factors = a.factors(grid) if hasattr(a, "factors") else None
    except (TypeError, ValueError) as exc:  # a scalar-only generator, such as math.exp
        raise InputError(f"A(x, y) must map grid arrays to a {grid_n} x {grid_n} result: {exc}") from None
    return TimingKernel(grid=grid, a_upper=np.triu(values), factors=factors)


def affine_kernel_fn(cx: float, cy: float, cxy: float, c0: float):
    """A(x, y) = cx*x + cy*y + cxy*x*y + c0, whose ``factors`` give its three
    product terms on a grid: (cx*x + c0)*1 + 1*(cy*y) + x*(cxy*y)."""

    def a(x, y):
        return cx * x + cy * y + cxy * x * y + c0

    def factors(grid):
        one = np.ones_like(grid)
        return np.array([cx * grid + c0, one, grid]), np.array([one, cy * grid, cxy * grid])

    a.factors = factors
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


# A coefficient that overflows is left non-finite, and _solve_game leaves that LP out.
@np.errstate(over="ignore", invalid="ignore")
def _factored_lp(kernel: TimingKernel) -> _LP:
    """The row LP of the kernel's game in prefix-sum form, from its factors: O(n r) nonzeros.

    With A(x, y) = sum_k a_k(x) b_k(y) on x <= y, the response to sigma at
    grid point j is

        V_j = sum_k b_k(x_j) P_{a_k}[j] - a_k(x_j) (P_{b_k}[n] - P_{b_k}[j] - b_k(x_j) sigma_j),

    where P_w[m] = sum_{i < m} w(x_i) sigma_i, for m = 1..n, is a free LP
    column per distinct vector w among the factors, tied by the rows
    P_w[m + 1] - P_w[m] - w(x_m) sigma_m = 0 (with P_w[0] = 0).  A vector
    and its negation share one P, since P_{-w} = -P_w and negation is
    exact: the duel generator's a_0 = x and b_1 = -x do, and so do
    imbed_objective's p and -p.  Terms with a zero factor are left out.
    The columns are sigma, each vector's P_w[1..n], and v; the rows are
    _row_lp's n ``<= 0`` rows v - V_j, so their duals are tau, the sum
    row, and each vector's n recurrence rows.  Exact zeros are left out.

    The start basis is the pure strategy at x = 1 with every P and v
    basic, and the slack of every ``<= 0`` row basic but the one of the
    column that does best against it.  It is primal feasible, and
    triangular, so nonsingular.
    """
    a, b = kernel.factors
    n = kernel.grid_n
    terms = [k for k in range(len(a)) if a[k].any() and b[k].any()]
    vectors = []

    def slot(w: np.ndarray) -> tuple[int, float]:
        """(s, sign) with w = sign * vectors[s], w appended if neither it nor -w is there yet."""
        for s, u in enumerate(vectors):
            for sign in (1.0, -1.0):
                if np.array_equal(u, sign * w):
                    return s, sign
        vectors.append(w)
        return len(vectors) - 1, 1.0

    a_slot, b_slot = [slot(a[k]) for k in terms], [slot(b[k]) for k in terms]
    d = len(vectors)
    prefix, total, diagonal = np.zeros((d, n)), np.zeros((d, n)), np.zeros(n)
    for k, (p, a_sign), (q, b_sign) in zip(terms, a_slot, b_slot):
        prefix[p] += a_sign * b[k]
        prefix[q] += b_sign * a[k]
        total[q] += b_sign * a[k]
        diagonal += a[k] * b[k]
    # P_w[m], for m = 1..n, is column n + w*n + m - 1, and w's recurrence at m is row n + 1 + w*n + m.
    m, j = np.arange(1, n), np.arange(n)
    p_col, rec_row = n + n * np.arange(d)[:, None], n + 1 + n * np.arange(d)[:, None]
    row, col, value = (np.concatenate([np.ravel(part) for part in parts]) for parts in zip(
        (j, j, -diagonal),  # sigma_j in its <= 0 row,
        (np.full(n, n), j, np.ones(n)),  # in the sum row,
        (rec_row + j, np.broadcast_to(j, (d, n)), -np.array(vectors)),  # and in each recurrence at j
        (np.broadcast_to(m, (d, n - 1)), p_col + m - 1, -prefix[:, 1:]),  # P_w[m] in row m,
        (np.broadcast_to(j, (d, n)), np.broadcast_to(p_col + n - 1, (d, n)), total),  # P_w[n] in every row,
        (rec_row + j, p_col + j, np.ones((d, n))),  # P_w[m] in its recurrences at m - 1
        (rec_row + m, p_col + m - 1, -np.ones((d, n - 1))),  # and at m
        (j, np.full(n, n + d * n), np.ones(n)),  # v in every <= 0 row
    ))
    num_col = num_row = n + d * n + 1
    basic = np.ones(num_col + num_row, dtype=bool)
    basic[: n - 1] = False
    basic[num_col + int(np.argmin(kernel.matrix[-1]))] = False
    basic[num_col + n :] = False
    rhs = np.append(1.0, np.zeros(d * n))  # the sum row, then the recurrences
    return _LP.from_entries(
        np.append(np.zeros(num_col - 1), -1.0), np.append(np.zeros(n), np.full(d * n + 1, -np.inf)),
        np.full(num_col, np.inf), np.append(np.full(n, -np.inf), rhs), np.append(np.zeros(n), rhs),
        row, col, value, basic,
    )


def solve_timing(kernel: TimingKernel) -> TimingSolution:
    """Solve the discretized timing game; both players share the strategy.

    _solve_game solves the kernel's dense game, first from _factored_lp
    where the kernel has factors, and _certify checks every answer on the
    dense matrix.  Cancelling coefficients can give factors that HiGHS
    refuses, or that overflow, and _solve_game then leaves that LP out.
    """
    first = [] if kernel.factors is None else [_factored_lp(kernel)]
    sigma, _, value, _ = _solve_game(kernel.matrix, first, "timing LP")
    strategy = MixedStrategy(sigma)
    points, has_zero_atom = spectrum(strategy, kernel)
    support_lo = float(points[0]) if points.size else 0.0  # all mass at the origin atom
    residual_eq11, residual_eq12 = verify_optimality(kernel, strategy)
    return TimingSolution(
        value=value,
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

