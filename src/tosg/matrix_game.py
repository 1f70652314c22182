"""Finite zero-sum two-person matrix games.

The row player maximizes, the column player minimizes.  Games are solved
either exactly (linear programming) or iteratively (fictitious play); both
solvers report a verified saddle gap computed from the returned strategies,
never from solver-internal objectives.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.optimize._highspy import _core as _highs
from scipy.sparse import csc_array

from .errors import InputError, SolverError

# Probabilities (strategy weights, chance-node probs) must sum to 1 within this.
MASS_TOL = 1e-12
# Strategy weights at or below this are dust: outside a reported support.
DUST_TOL = 1e-6
# The verified saddle gap every exact solve must reach.
SADDLE_TOL = 1e-9
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


def _document(result):
    """A result as its JSON document: a dataclass becomes its fields by name.

    Arrays and tuples become lists and dicts are walked.  A dataclass field
    holding None, or marked ``metadata={"internal": True}``, is left out.
    """
    if isinstance(result, MixedStrategy):
        # Output schema 1 keeps the key; no solver places a separate atom at 0.
        return {"weights": result.weights.tolist(), "atom_at_zero": 0.0}
    if is_dataclass(result):
        values = {f.name: getattr(result, f.name) for f in fields(result) if not f.metadata.get("internal")}
        return {name: _document(value) for name, value in values.items() if value is not None}
    if isinstance(result, np.ndarray):
        return result.tolist()
    if isinstance(result, (tuple, list)):
        return [_document(item) for item in result]
    if isinstance(result, dict):
        return {key: _document(value) for key, value in result.items()}
    return result


def _json_text(result) -> str:
    """The indented, key-sorted JSON text of ``_document(result)``."""
    try:
        text = json.dumps(_document(result), indent=2, sort_keys=True, allow_nan=False)
    except ValueError:  # Infinity and NaN are not JSON
        raise SolverError("the result is not finite and cannot be written as JSON") from None
    return text + "\n"


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
    """Payoff to the row player for every pure-strategy pair."""

    entries: np.ndarray

    def __post_init__(self):
        entries = _as_float_array(self.entries, "entries", 2)
        if entries.shape[0] < 1 or entries.shape[1] < 1:
            raise InputError("payoff matrix needs at least one row and one column")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    @classmethod
    def from_dict(cls, doc: dict) -> "PayoffMatrix":
        game = cls(_field(doc, "entries", "payoff matrix document"))
        for key in ("rows", "cols"):
            declared = doc.get(key, getattr(game, key))
            if _as_int(declared, f"declared {key}") != getattr(game, key):
                raise InputError(f"declared {key}={declared} does not match entries")
        return game

    def to_dict(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, "entries": self.entries.tolist()}


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


def _normalized(x: np.ndarray) -> np.ndarray:
    x = np.maximum(x, 0.0)
    total = x.sum()
    if total <= 0.0:
        raise SolverError("linear program returned a zero strategy vector")
    return x / total


def _verified_solution(a: np.ndarray, x: np.ndarray, duals: np.ndarray) -> GameSolution:
    """The exact solution certified by the row LP's primal x and column-row duals.

    sigma is x normalized and tau the negated duals normalized.  The value
    is the midpoint of what the column player can hold sigma to and what
    the row player can get off tau, and the residual is their gap.  A
    skew-symmetric game (A = -A^T) has value 0 and one optimal strategy for
    both players, so both get whichever of sigma and tau guarantees more;
    the gap is then twice that one's shortfall.  A gap above SADDLE_TOL
    raises SolverError.
    """
    sigma = _normalized(x)
    # HiGHS reports the duals of <= rows as nonpositive; negated they are tau*.
    tau = _normalized(-duals)
    m, n = a.shape
    if m == n and np.array_equal(a, -a.T):
        if (tau @ a).min() > (sigma @ a).min():
            sigma = tau
        tau = sigma
    lower = float((sigma @ a).min())
    upper = float((a @ tau).max())
    gap = max(upper - lower, 0.0)
    if gap > SADDLE_TOL:
        raise SolverError(f"saddle gap {gap:.3e} exceeds tol {SADDLE_TOL:.3e}")
    return GameSolution(
        value=0.5 * (lower + upper),
        row_strategy=MixedStrategy(sigma),
        col_strategy=MixedStrategy(tau),
        residual=gap,
        method="exact",
    )


def solve_exact(game: PayoffMatrix) -> GameSolution:
    """Solve the game by linear programming.

    One HiGHS program maximizes v subject to sigma^T A >= v per column; the
    column strategy is read from the duals of those column constraints.  The
    reported value is the midpoint of the verified security levels of the two
    returned strategies and the residual is their gap, so the saddle contract

        payoff(sigma*, any pure column) >= value - residual
        payoff(any pure row, tau*) <= value + residual

    holds by construction; _verified_solution states the skew-symmetric rule
    and raises SolverError on a gap above SADDLE_TOL.
    """
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
    return _verified_solution(a, row.x[:m], row.ineqlin.marginals)


class _GrowingGame:
    """solve_exact's row LP held in one HiGHS model that grows with the game.

    The model has solve_exact's layout and options but one: HiGHS drops
    matrix entries at or below ``small_matrix_value``, 1e-9 by default,
    which leaves a game of such entries short of the saddle contract, so
    the model keeps every entry above 1e-12, the least HiGHS accepts.  On
    a game with no entry of magnitude in (1e-12, 1e-9] the first solve
    matches solve_exact bit for bit.  A new game row is a new LP column and
    a new game column a new ``<= 0`` LP row; HiGHS keeps its basis across
    the changes, so each later solve is a warm-started dual simplex.  Every
    solve is certified by _verified_solution against the grown matrix.
    This drives HiGHS through scipy's private ``_highspy`` binding, whose
    methods scipy may change between minor releases (pyproject pins it).
    """

    def __init__(self, entries: np.ndarray):
        self._highs = _highs._Highs()
        options = {
            "presolve": "on",
            "simplex_strategy": _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual,
            "output_flag": False,
            "log_to_console": False,
            "small_matrix_value": 1e-12,
            **_LP_OPTIONS,
        }
        for key, value in options.items():
            self._highs.setOptionValue(key, value)
        self._load(np.array(entries, dtype=float))

    def _load(self, a: np.ndarray) -> None:
        """Replace the model, basis included, by the row LP of game ``a``."""
        m, n = a.shape
        self.entries = a
        # As linprog builds it: one <= 0 row per game column, then sum(sigma) = 1.
        matrix = csc_array(
            np.vstack([np.column_stack([-a.T, np.ones(n)]), np.concatenate([np.ones(m), [0.0]])])
        )
        lp = _highs.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = m + 1
        lp.num_row_ = lp.a_matrix_.num_row_ = n + 1
        lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
        lp.a_matrix_.start_ = matrix.indptr
        lp.a_matrix_.index_ = matrix.indices
        lp.a_matrix_.value_ = matrix.data
        lp.col_cost_ = np.concatenate([np.zeros(m), [-1.0]])
        lp.col_lower_ = np.concatenate([np.zeros(m), [-np.inf]])
        lp.col_upper_ = np.full(m + 1, np.inf)
        lp.row_lower_ = np.concatenate([np.full(n, -np.inf), [1.0]])
        lp.row_upper_ = np.concatenate([np.zeros(n), [1.0]])
        if self._highs.passModel(lp) == _highs.HighsStatus.kError:
            raise SolverError("HiGHS refused the game's row LP")
        # LP column of each game row's weight, and LP row of each game column.
        self._sigma_cols = list(range(m))
        self._column_rows = list(range(n))
        self._v_col, self._sum_row = m, n

    def add_row(self, payoffs: np.ndarray) -> None:
        """Append a game row: its payoff against every current column."""
        payoffs = np.asarray(payoffs, dtype=float)
        self.entries = np.vstack([self.entries, payoffs])
        nonzero = payoffs != 0.0
        rows = np.append(np.array(self._column_rows)[nonzero], self._sum_row)
        values = np.append(-payoffs[nonzero], 1.0)
        self._sigma_cols.append(self._highs.getNumCol())
        self._add(self._highs.addCol(0.0, 0.0, np.inf, len(rows), rows.astype(np.int32), values))

    def add_col(self, payoffs: np.ndarray) -> None:
        """Append a game column: every current row's payoff against it."""
        payoffs = np.asarray(payoffs, dtype=float)
        self.entries = np.column_stack([self.entries, payoffs])
        nonzero = payoffs != 0.0
        cols = np.append(np.array(self._sigma_cols)[nonzero], self._v_col)
        values = np.append(-payoffs[nonzero], 1.0)
        self._column_rows.append(self._highs.getNumRow())
        self._add(self._highs.addRow(-np.inf, 0.0, len(cols), cols.astype(np.int32), values))

    @staticmethod
    def _add(status) -> None:
        if status == _highs.HighsStatus.kError:
            raise SolverError("HiGHS refused a new row or column of the game")

    def solve(self) -> GameSolution:
        """Re-solve from the last basis, and once from a new model if that is not certified.

        A warm-started solve can end short of SADDLE_TOL where a cold one
        of the same game does not, and a cold one depends on the order of
        the LP's columns, so the retry reloads the game in solve_exact's
        layout.  SolverError if neither solve is optimal and certified.
        """
        try:
            return self._solve()
        except SolverError:
            self._load(self.entries)
            return self._solve()

    def _solve(self) -> GameSolution:
        self._highs.run()
        status = self._highs.getModelStatus()
        if status != _highs.HighsModelStatus.kOptimal:
            raise SolverError(f"row LP failed: {self._highs.modelStatusToString(status)}")
        solution = self._highs.getSolution()
        x = np.asarray(solution.col_value)[self._sigma_cols]
        duals = np.asarray(solution.row_dual)[self._column_rows]
        return _verified_solution(self.entries, x, duals)


def solve_fictitious_play(
    game: PayoffMatrix, max_iterations: int, tol: float = SADDLE_TOL
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
