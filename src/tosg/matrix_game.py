"""Finite zero-sum two-person matrix games.

The row player maximizes, the column player minimizes.  Games are solved
either exactly (one HiGHS linear program, held in a _GrowingGame) or
iteratively (fictitious play); both solvers report a verified saddle gap
computed from the returned strategies, never from solver-internal objectives.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .errors import InputError, ResourceLimitError, SolverError

# Probabilities (strategy weights, chance-node probs) must sum to 1 within this.
MASS_TOL = 1e-12
# Strategy weights at or below this are dust: outside a reported support.
DUST_TOL = 1e-6
# The verified saddle gap every exact solve must reach.
SADDLE_TOL = 1e-9
# The most cells any one large array may hold (96 MB of float64): the full
# duel matrix of discretize_duel (a 21-point grid at 2-vs-6 attempts has
# 11,395,440 pure pairs), solve_duel's best-response tables and its
# restricted games and subset profiles, and the grid_n**2 timing kernel
# (grids up to 3,464 points).
MAX_STRATEGY_PAIRS = 12_000_000


def __getattr__(name: str):
    # Exists only for perfbench/spans.py's WRAPS, which looks up
    # matrix_game.linprog; nothing calls it.  ROADMAP item 2 deletes this
    # together with the matrix_game.lp span.
    if name == "linprog":
        from scipy.optimize import linprog

        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def guard_cells(cells: int, what: str) -> None:
    """Refuse ``what`` when its arrays need more than MAX_STRATEGY_PAIRS cells.

    Callers count the cells before allocating anything of that size.
    """
    if cells > MAX_STRATEGY_PAIRS:
        raise ResourceLimitError(
            f"{what} needs {cells} cells, over the cap of {MAX_STRATEGY_PAIRS} "
            "strategy pairs; use a smaller grid"
        )


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

    One cold solve of a fresh _GrowingGame: its HiGHS program maximizes v
    subject to sigma^T A >= v per column, and the column strategy is read
    from the duals of those column constraints.  The reported value is the
    midpoint of the verified security levels of the two returned strategies
    and the residual is their gap, so the saddle contract

        payoff(sigma*, any pure column) >= value - residual
        payoff(any pure row, tau*) <= value + residual

    holds by construction; _verified_solution states the skew-symmetric rule
    and raises SolverError on a gap above SADDLE_TOL.  The solve is not
    retried: a reload would solve the same LP again.  Being cold, it runs
    without presolve (see _GrowingGame).
    """
    return _GrowingGame(game.entries)._solve()


class _GrowingGame:
    """A game's row LP in one HiGHS model that can grow with the game.

    solve_exact is one cold solve of a fresh model.  HiGHS drops matrix
    entries at or below ``small_matrix_value``, 1e-9 by default, which
    leaves a game of such entries short of the saddle contract, so the
    model keeps every entry above 1e-12, the least HiGHS accepts.  A new
    game row is a new LP column and a new game column a new ``<= 0`` LP
    row; HiGHS keeps its basis across the changes, so each later solve is a
    warm-started dual simplex.  A cold solve, the first after a load, runs
    without presolve: on a dense game it removes nothing, and skipping it
    takes the 201-point timing LP from about 35 to 26 ms and the 801-point
    one from about 1.5 to 1.35 s (2 vCPUs), with the same iterations and
    bit-identical results.  Growing the model turns presolve back on, since
    warm solves without it were slower (5.4 vs 4.1 s for the 2-vs-6 double
    oracle at grid 161).  Every solve is certified by
    _verified_solution against the grown matrix.  This drives HiGHS through
    scipy's private ``_highspy`` binding, whose methods scipy may change
    between minor releases (pyproject pins it).  scipy is imported here, on
    the first model a process builds, and not with tosg: importing
    scipy.optimize takes about 0.45 s, several times the CLI's solves.
    """

    def __init__(self, entries: np.ndarray):
        from scipy.optimize._highspy import _core

        self._core = _core
        self._highs = _core._Highs()
        options = {
            "simplex_strategy": _core.simplex_constants.SimplexStrategy.kSimplexStrategyDual,
            "output_flag": False,
            "log_to_console": False,
            "small_matrix_value": 1e-12,
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        }
        for key, value in options.items():
            self._highs.setOptionValue(key, value)
        self._load(np.asarray(entries, dtype=float))

    def _load(self, a: np.ndarray) -> None:
        """Replace the model, basis included, by the row LP of game ``a``.

        The LP matrix is column-wise: LP column i holds game row i's payoffs
        negated in the ``<= 0`` rows and a 1 in the sum row, and the v
        column holds a 1 in every ``<= 0`` row.  Exact zeros are left out,
        as a sparse matrix built from the dense layout leaves them out.
        The next solve runs without presolve; add_row and add_col turn it
        back on.
        """
        m, n = a.shape
        self.entries = a
        body = np.column_stack([-a, np.ones(m)])
        keep = body != 0.0
        start = np.zeros(m + 2, dtype=np.int32)
        start[1:] = np.cumsum(np.append(keep.sum(axis=1), n))
        index = np.concatenate([np.nonzero(keep)[1], np.arange(n)]).astype(np.int32)
        value = np.concatenate([body[keep], np.ones(n)])
        # num_col, num_row, num_nz, format, sense, offset, costs, column and
        # row bounds, the matrix, and integrality (all continuous).
        status = self._highs.passModel(
            m + 1, n + 1, len(index), int(self._core.MatrixFormat.kColwise),
            int(self._core.ObjSense.kMinimize), 0.0,
            np.append(np.zeros(m), -1.0), np.append(np.zeros(m), -np.inf), np.full(m + 1, np.inf),
            np.append(np.full(n, -np.inf), 1.0), np.append(np.zeros(n), 1.0),
            start, index, value, np.zeros(m + 1, dtype=np.int32),
        )
        if status == self._core.HighsStatus.kError:
            raise SolverError("HiGHS refused the game's row LP")
        self._highs.setOptionValue("presolve", "off")
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

    def _add(self, status) -> None:
        if status == self._core.HighsStatus.kError:
            raise SolverError("HiGHS refused a new row or column of the game")
        self._highs.setOptionValue("presolve", "on")

    def solve(self) -> GameSolution:
        """Re-solve from the last basis, and once from a new model if that is not certified.

        A warm-started solve can end short of SADDLE_TOL where a cold one
        of the same game does not, so the retry reloads the grown game and
        solves it cold, as solve_exact does.  SolverError if neither solve
        is optimal and certified.
        """
        try:
            return self._solve()
        except SolverError:
            self._load(self.entries)
            return self._solve()

    def _solve(self) -> GameSolution:
        """One solve of the model as it stands: cold after a load, warm after growth."""
        self._highs.run()
        status = self._highs.getModelStatus()
        if status != self._core.HighsModelStatus.kOptimal:
            raise SolverError(f"row LP failed: {self._highs.modelStatusToString(status)}")
        solution = self._highs.getSolution()
        x = np.asarray(solution.col_value)[self._sigma_cols]
        duals = np.asarray(solution.row_dual)[self._column_rows]
        return _verified_solution(self.entries, x, duals)


def _overtaken_at(x: np.ndarray, slope: np.ndarray, lead: int, cap: int) -> int:
    """The first s >= 1, at most cap, at which a line x + s*slope overtakes ``lead``.

    Ties go to the lowest index, so a lower index takes over on reaching the
    leader and a higher one on passing it.  The crossing points are an
    estimate in floating point; the caller confirms them.  Halving keeps the
    differences of finite numbers finite.
    """
    gain = 0.5 * slope - 0.5 * slope[lead]
    rising = (gain > 0.0).nonzero()[0]
    if rising.size == 0:
        return cap
    cross = (0.5 * x[lead] - 0.5 * x[rising]) / gain[rising]
    first = np.where(rising < lead, np.ceil(cross), np.floor(cross) + 1.0).min()
    return int(max(1.0, min(first, cap)))


def _first(lo: int, hi: int, holds) -> int:
    """The least s in [lo, hi) where holds(s), else hi; holds(s) stays true once it is true."""
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


# Overflow surfaces as a non-finite payoff sum or bracket, which raises SolverError.
@np.errstate(over="ignore", invalid="ignore")
def solve_fictitious_play(game: PayoffMatrix, max_iterations: int) -> GameSolution:
    """Solve the game by iterated best responses to empirical frequencies.

    Both players best-respond against the opponent's cumulative play (ties
    broken toward the lowest index).  Each iteration yields a bracket
    [min(W)/k, max(U)/k] around the value; the running tightest bracket is
    reported, with value = midpoint and residual = bracket width.  Stops
    early once residual <= SADDLE_TOL; exhausting the budget is not an
    error, the best bracket found is returned.  A payoff sum or bracket
    beyond the float64 range raises SolverError.

    The loop jumps over whole runs of iterations in which the best-response
    pair (i, j) stays the same.  Within a run the cumulative payoffs move
    linearly: the run's end comes from where their lines cross, its best
    bracket lies at an end point, and an early stop inside it is found by
    bisection.  The cost therefore grows with the number of best-response
    switches, not with max_iterations.  When every partial sum is exact
    (integer payoffs whose sums stay below 2**53), the result equals that of
    stepping one iteration at a time bit for bit.
    """
    if max_iterations < 1:
        raise InputError("max_iterations must be at least 1")
    a = game.entries
    m, n = a.shape

    u = np.zeros(m)  # cumulative row payoffs against the column history
    w = np.zeros(n)  # cumulative row payoffs of each column against the row history
    row_counts = np.zeros(m)
    col_counts = np.zeros(n)
    best_lower, best_upper = -np.inf, np.inf

    k = 0
    while k < max_iterations:
        i = int(u.argmax())
        j = int(w.argmin())
        c, r = a[:, j], a[i, :]

        def ends(s: int) -> bool:
            # Step k + s ends the run: after it the pair changes or a sum overflows.
            u_s, w_s = u + s * c, w + s * r
            finite = np.isfinite(u_s).all() and np.isfinite(w_s).all()
            return not finite or u_s.argmax() != i or w_s.argmin() != j

        def bracket(s: int) -> tuple[float, float]:
            # The best bracket after the run's first s steps, s < run.  Until
            # its last step the run's leaders hold max u and min w, and
            # (u[i] + s*c[i]) / (k + s) is monotone in s from s = 0, whose
            # value the best bracket already holds: the best lies at s.
            # Likewise for w.
            return (
                min(best_upper, (u[i] + s * c[i]) / (k + s)),
                max(best_lower, (w[j] + s * r[j]) / (k + s)),
            )

        def closed(s: int) -> bool:
            upper, lower = bracket(s)
            return upper - lower <= SADDLE_TOL

        # Confirm the estimated run length on the same float expression the
        # next run starts from.  Once a run has ended it stays ended, so a
        # miss is found by bisection.
        left = max_iterations - k
        run = min(_overtaken_at(u, c, i, left), _overtaken_at(-w, -r, j, left))
        if run > 1 and ends(run - 1):
            run = _first(1, run - 1, ends)
        elif run < left and not ends(run):
            run = _first(run + 1, left, ends)

        upper, lower = bracket(run - 1) if run > 1 else (best_upper, best_lower)
        stop = run > 1 and upper - lower <= SADDLE_TOL
        if stop:
            # The running gap never grows: bisect for the first step within SADDLE_TOL.
            run = _first(1, run - 1, closed)
            upper, lower = bracket(run)
        else:
            u_end, w_end = u + run * c, w + run * r
            if not (np.isfinite(u_end).all() and np.isfinite(w_end).all()):
                raise SolverError(f"fictitious play payoff sums overflow at iteration {k + run}")
            upper = min(upper, u_end.max() / (k + run))
            lower = max(lower, w_end.min() / (k + run))
            stop = upper - lower <= SADDLE_TOL

        row_counts[i] += run
        col_counts[j] += run
        k += run
        best_upper, best_lower = upper, lower
        if stop:
            break
        u, w = u_end, w_end

    value, residual = 0.5 * (best_lower + best_upper), best_upper - best_lower
    if not (np.isfinite(value) and np.isfinite(residual)):
        raise SolverError("fictitious play bracket overflows float64")
    return GameSolution(
        value=value,
        row_strategy=MixedStrategy(row_counts / k),
        col_strategy=MixedStrategy(col_counts / k),
        residual=residual,
        method="fictitious_play",
        iterations=k,
    )
