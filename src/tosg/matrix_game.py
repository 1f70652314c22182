"""Finite zero-sum two-person matrix games.

The row player maximizes, the column player minimizes.  Games are solved
either exactly (linear programming) or iteratively (fictitious play); both
solvers report a verified saddle gap computed from the returned strategies,
never from solver-internal objectives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import InputError, SolverError

MASS_TOL = 1e-12
_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


def _as_float_array(values, name: str, ndim: int) -> np.ndarray:
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{name} is not numeric: {exc}") from None
    if arr.ndim != ndim:
        raise InputError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InputError(f"{name} contains non-finite entries")
    return arr


def _as_int(value, name: str) -> int:
    """An integral JSON number: an int, or a float with an integral value."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InputError(f"{name} must be an integer")


def _field(doc, key: str, what: str, kind: type | None = None):
    """doc[key] of a JSON object; with ``kind`` (list or dict), also its type."""
    if not isinstance(doc, dict) or key not in doc:
        raise InputError(f"{what} needs a '{key}' field")
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        expected = "an array" if kind is list else "an object"
        raise InputError(f"{what} field '{key}' must be {expected}")
    return value


def _time_table(points, name: str) -> tuple[tuple[float, float], ...]:
    """(t, value) pairs of finite numbers whose times increase strictly from 0 to 1."""
    table = _as_float_array(points, name, 2)
    if table.shape[0] < 2 or table.shape[1] != 2:
        raise InputError(f"{name} needs at least two (t, value) pairs")
    ts = table[:, 0]
    if ts[0] != 0.0 or ts[-1] != 1.0 or np.any(np.diff(ts) <= 0):
        raise InputError(f"{name} times must increase strictly from 0 to 1")
    return tuple((float(t), float(v)) for t, v in table)


@dataclass(frozen=True, eq=False)
class PayoffMatrix:
    """Payoff to the row player for every pure-strategy pair.

    Labels, when present, are the real grid coordinates in [0, 1] behind the
    row/column indices (used by the duel and timing solvers).
    """

    entries: np.ndarray
    row_labels: np.ndarray | None = None
    col_labels: np.ndarray | None = None

    def __post_init__(self):
        entries = _as_float_array(self.entries, "entries", 2)
        if entries.shape[0] < 1 or entries.shape[1] < 1:
            raise InputError("payoff matrix needs at least one row and one column")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        for attr, size in (("row_labels", entries.shape[0]), ("col_labels", entries.shape[1])):
            labels = getattr(self, attr)
            if labels is None:
                continue
            labels = _as_float_array(labels, attr, 1)
            if labels.shape[0] != size:
                raise InputError(f"{attr} length {labels.shape[0]} != {size}")
            if np.any(np.diff(labels) <= 0):
                raise InputError(f"{attr} must be strictly increasing")
            labels.setflags(write=False)
            object.__setattr__(self, attr, labels)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    @classmethod
    def from_dict(cls, doc: dict) -> "PayoffMatrix":
        game = cls(
            entries=_field(doc, "entries", "payoff matrix document"),
            row_labels=doc.get("row_labels"),
            col_labels=doc.get("col_labels"),
        )
        for key in ("rows", "cols"):
            declared = doc.get(key, getattr(game, key))
            if _as_int(declared, f"declared {key}") != getattr(game, key):
                raise InputError(f"declared {key}={declared} does not match entries")
        return game

    def to_dict(self) -> dict:
        doc = {"rows": self.rows, "cols": self.cols, "entries": self.entries.tolist()}
        if self.row_labels is not None:
            doc["row_labels"] = self.row_labels.tolist()
        if self.col_labels is not None:
            doc["col_labels"] = self.col_labels.tolist()
        return doc


@dataclass(frozen=True, eq=False)
class MixedStrategy:
    """Probability weights over a pure-strategy index set."""

    weights: np.ndarray

    def __post_init__(self):
        weights = _as_float_array(self.weights, "weights", 1)
        if weights.shape[0] < 1:
            raise InputError("strategy needs at least one weight")
        if np.any(weights < -MASS_TOL):
            raise InputError("strategy weights must be nonnegative")
        weights = np.maximum(weights, 0.0)
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        mass = weights.sum()
        if abs(mass - 1.0) > MASS_TOL:
            raise InputError(f"total probability mass is {mass!r}, expected 1")

    def __len__(self) -> int:
        return self.weights.shape[0]

    @classmethod
    def pure(cls, index: int, size: int) -> "MixedStrategy":
        w = np.zeros(size)
        w[index] = 1.0
        return cls(w)

    @classmethod
    def uniform(cls, size: int) -> "MixedStrategy":
        return cls(np.full(size, 1.0 / size))

    def to_dict(self) -> dict:
        # Output schema 1 keeps the key; no solver places a separate atom at 0.
        return {"weights": self.weights.tolist(), "atom_at_zero": 0.0}


@dataclass(frozen=True)
class GameSolution:
    """Value, optimal (or empirical) strategies, and the verified saddle gap."""

    value: float
    row_strategy: MixedStrategy
    col_strategy: MixedStrategy
    residual: float
    method: str
    iterations: int | None = None

    @property
    def lower(self) -> float:
        return self.value - 0.5 * self.residual

    @property
    def upper(self) -> float:
        return self.value + 0.5 * self.residual

    def to_dict(self) -> dict:
        doc = {
            "value": self.value,
            "row_strategy": self.row_strategy.to_dict(),
            "col_strategy": self.col_strategy.to_dict(),
            "residual": self.residual,
            "method": self.method,
        }
        if self.iterations is not None:
            doc["iterations"] = self.iterations
        return doc


def _check_dims(game: PayoffMatrix, sigma: MixedStrategy, tau: MixedStrategy) -> None:
    if len(sigma) != game.rows:
        raise InputError(f"row strategy has {len(sigma)} weights for {game.rows} rows")
    if len(tau) != game.cols:
        raise InputError(f"column strategy has {len(tau)} weights for {game.cols} columns")


def expected_payoff(game: PayoffMatrix, sigma: MixedStrategy, tau: MixedStrategy) -> float:
    """Bilinear payoff sum(sigma_i * tau_j * entries[i, j])."""
    _check_dims(game, sigma, tau)
    return float(sigma.weights @ game.entries @ tau.weights)


def saddle_bounds(game: PayoffMatrix) -> tuple[float, float]:
    """Pure-strategy security levels (maximin, minimax); maximin <= minimax."""
    maximin = float(game.entries.min(axis=1).max())
    minimax = float(game.entries.max(axis=0).min())
    return maximin, minimax


def _verified_bounds(game: PayoffMatrix, sigma: np.ndarray, tau: np.ndarray) -> tuple[float, float]:
    # What the column player can hold sigma to, and the row player can get off tau.
    lower = float((sigma @ game.entries).min())
    upper = float((game.entries @ tau).max())
    return lower, upper


def _normalized(x: np.ndarray) -> np.ndarray:
    x = np.maximum(x, 0.0)
    total = x.sum()
    if total <= 0.0:
        raise SolverError("linear program returned a zero strategy vector")
    return x / total


def solve_exact(game: PayoffMatrix, tol: float = 1e-9) -> GameSolution:
    """Solve the game by linear programming.

    One HiGHS program maximizes v subject to sigma^T A >= v per column; the
    column strategy is read from the duals of those column constraints.  The
    reported value is the midpoint of the verified security levels of the two
    returned strategies and the residual is their gap, so the saddle contract

        payoff(sigma*, any pure column) >= value - residual
        payoff(any pure row, tau*) <= value + residual

    holds by construction.  A verified gap above ``tol`` raises SolverError;
    in practice the LP solver reaches machine-level gaps on the sizes
    handled here.
    """
    if not tol > 0:
        raise InputError("tol must be positive")
    a = game.entries
    m, n = a.shape

    c = np.zeros(m + 1)
    c[-1] = -1.0
    row = linprog(
        c,
        A_ub=np.column_stack([-a.T, np.ones(n)]),
        b_ub=np.zeros(n),
        A_eq=np.concatenate([np.ones(m), [0.0]])[None, :],
        b_eq=[1.0],
        bounds=[(0, None)] * m + [(None, None)],
        method="highs",
        options=_LP_OPTIONS,
    )
    if row.status != 0:
        raise SolverError(f"row LP failed: {row.message}")

    sigma = _normalized(row.x[:m])
    # HiGHS reports the duals of <= rows as nonpositive; negated they are tau*.
    tau = _normalized(-row.ineqlin.marginals)
    lower, upper = _verified_bounds(game, sigma, tau)
    gap = max(upper - lower, 0.0)
    if gap > tol:
        raise SolverError(f"saddle gap {gap:.3e} exceeds tol {tol:.3e}")
    return GameSolution(
        value=0.5 * (lower + upper),
        row_strategy=MixedStrategy(sigma),
        col_strategy=MixedStrategy(tau),
        residual=gap,
        method="exact",
    )


def solve_fictitious_play(
    game: PayoffMatrix, max_iterations: int, tol: float = 1e-6
) -> GameSolution:
    """Solve the game by iterated best responses to empirical frequencies.

    Both players best-respond against the opponent's cumulative play (ties
    broken toward the lowest index).  Each iteration yields a bracket
    [min(W)/k, max(U)/k] around the value; the running tightest bracket is
    reported, with value = midpoint and residual = bracket width.  Stops
    early once residual <= tol; exhausting the budget is not an error, the
    best bracket found is returned.
    """
    if max_iterations < 1:
        raise InputError("max_iterations must be at least 1")
    a = game.entries
    m, n = a.shape
    a_cols = np.asfortranarray(a)

    u = np.zeros(m)  # cumulative row payoffs against the column history
    w = np.zeros(n)  # cumulative row payoffs of each column against the row history
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
        if best_upper - best_lower <= tol:
            break

    return GameSolution(
        value=0.5 * (best_lower + best_upper),
        row_strategy=MixedStrategy(row_counts / k),
        col_strategy=MixedStrategy(col_counts / k),
        residual=best_upper - best_lower,
        method="fictitious_play",
        iterations=k,
    )
