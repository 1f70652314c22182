"""Finite zero-sum two-person matrix games.

The row player maximizes, the column player minimizes.  Games are solved
either exactly (one HiGHS linear program, solved by _solve_lp) or
iteratively (fictitious play); both solvers report a verified saddle gap
computed from the returned strategies, never from solver-internal objectives.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import itertools
import json
import os
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass, fields, is_dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError, ResourceLimitError, SolverError

# Probabilities (strategy weights, chance-node probs) must sum to 1 within this.
MASS_TOL = 1e-12
# Strategy weights at or below this are dust: outside a reported support.
DUST_TOL = 1e-6
# The verified saddle gap every exact solve must reach.
SADDLE_TOL = 1e-9
# The most cells any one large array may hold (96 MB of float64), whatever
# a cell holds: a pure-strategy pair of discretize_duel's full duel matrix
# (a 21-point grid at 2-vs-6 attempts has 11,395,440), a nonzero of
# solve_duel's sequence-form LP (which also bounds its flow graphs), or an
# entry of the grid_n**2 timing kernel (grids up to 3,464 points).
MAX_CELLS = 12_000_000


def __getattr__(name: str):
    # Exists only for perfbench/spans.py's WRAPS, which looks up
    # matrix_game.linprog; nothing calls it.  ROADMAP item 2 deletes this
    # together with the matrix_game.lp span.
    if name == "linprog":
        from scipy.optimize import linprog

        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def guard_cells(cells: int, what: str) -> None:
    """Refuse ``what`` when its arrays need more than MAX_CELLS cells.

    Callers count the cells before allocating anything of that size.
    """
    if cells > MAX_CELLS:
        raise ResourceLimitError(
            f"{what} needs {cells} cells, over the cap of {MAX_CELLS} cells; use a smaller grid"
        )


def _holds_text_or_bool(values) -> bool:
    """Whether ``values`` or an item nested in its lists is a string or boolean; an array by its dtype."""
    if isinstance(values, np.ndarray):
        return values.dtype.kind in "bOSU"
    if isinstance(values, (list, tuple)):
        return any(map(_holds_text_or_bool, values))
    return isinstance(values, (str, bool, np.bool_))


def _as_float_array(values, name: str, ndim: int) -> np.ndarray:
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{name} is not numeric: {exc}") from None
    # numpy reads the string "2" as 2.0 and True as 1.0.  Walked only once
    # numpy has taken the value, so its dimension cap bounds the recursion.
    if _holds_text_or_bool(values):
        raise InputError(f"{name} must be numeric, not a string or boolean")
    if arr.ndim != ndim:
        raise InputError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InputError(f"{name} contains non-finite entries")
    return arr


def _as_real(value, name: str, lo: float = -np.inf, hi: float = np.inf) -> float:
    """A finite real number in [lo, hi]: the one reader of every real scalar."""
    value = float(_as_float_array(value, name, 0))
    if not lo <= value <= hi:
        raise InputError(f"{name} must lie in [{lo:g}, {hi:g}]")
    return value


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


def _normalized(x: np.ndarray) -> np.ndarray:
    x = np.maximum(x, 0.0)
    total = x.sum()
    if total <= 0.0:
        raise SolverError("linear program returned a zero strategy vector")
    return x / total


def _saddle(row, col, lower: float, upper: float, symmetric: bool) -> tuple:
    """(row, col, value, residual) from the verified security levels of two strategies.

    lower is what the column player can hold ``row`` to and upper what the
    row player can get off ``col``.  value is their midpoint and residual
    their gap; a gap above SADDLE_TOL raises SolverError.  In a symmetric
    game (as A = -A^T) ``col`` played as the row guarantees -upper, so both
    players get whichever guarantees more, and the value is exactly 0.
    """
    if symmetric:
        if -upper > lower:
            row, lower = col, -upper
        col, upper = row, -lower
    residual = max(upper - lower, 0.0)
    if residual > SADDLE_TOL:
        raise SolverError(f"saddle gap {residual:.3e} exceeds tol {SADDLE_TOL:.3e}")
    return row, col, 0.5 * (lower + upper), residual


def _certify(a: np.ndarray, x: np.ndarray, duals: np.ndarray) -> tuple:
    """_saddle on game ``a`` of sigma and tau, normalized, read from a game layout's primal x and row duals.

    Every game layout puts sigma in its first m columns and its n ``<= 0``
    column rows first.
    """
    m, n = a.shape
    sigma = _normalized(x[:m])
    # HiGHS reports the duals of <= rows as nonpositive; negated they are tau*.
    tau = _normalized(-duals[:n])
    skew = m == n and np.array_equal(a, -a.T)
    return _saddle(sigma, tau, float((sigma @ a).min()), float((a @ tau).max()), skew)


def solve_exact(game: PayoffMatrix) -> GameSolution:
    """Solve the game by linear programming.

    _solve_game maximizes v subject to sigma^T A >= v per column, and reads
    the column strategy from the duals of those column constraints.
    _certify reports, through _saddle, the midpoint of the verified
    security levels of the two returned strategies as the value and their
    gap as the residual, so the saddle contract

        payoff(sigma*, any pure column) >= value - residual
        payoff(any pure row, tau*) <= value + residual

    holds by construction; a skew-symmetric game reports value exactly 0,
    and a gap above SADDLE_TOL raises SolverError.
    """
    sigma, tau, value, residual = _solve_game(game.entries, (), "row LP")
    return GameSolution(
        value=value,
        row_strategy=MixedStrategy(sigma),
        col_strategy=MixedStrategy(tau),
        residual=residual,
        method="exact",
    )


_HIGHS_CORE = "scipy.optimize._highspy._core"


@functools.cache
def _highs_core():
    """scipy's HiGHS extension module, loaded without scipy.optimize.

    ``from scipy.optimize._highspy import _core`` first runs
    scipy.optimize's ``__init__``, which imports about 320 scipy modules
    (sparse and linalg among them): about 0.45 s and 44 MB, where the model
    needs this one file.  So only the top-level scipy package is imported
    (about 12 ms; it runs scipy's distributor hook), and the extension is
    loaded from its file and cached here, not registered in sys.modules:
    registered before its parent package exists, it would leave
    ``scipy.optimize._highspy`` without a ``_core`` attribute once a caller
    imported scipy.optimize.  The extension is initialised once per
    process, so such a later import gets this very module object, in
    either import order (checked on CPython 3.11 with scipy 1.17); a
    process that imported scipy.optimize first gets that module here.  A
    missing or unloadable file raises SolverError.
    """
    core = sys.modules.get(_HIGHS_CORE)
    if core is not None:
        return core
    import scipy

    folder = os.path.join(scipy.__path__[0], "optimize", "_highspy")
    unloadable = f"cannot load HiGHS's _core extension from {folder}; tosg needs scipy 1.17.x"
    spec = importlib.machinery.PathFinder.find_spec(_HIGHS_CORE, [folder])
    if spec is None:
        raise SolverError(unloadable)
    try:
        core = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(core)
    except ImportError:
        raise SolverError(unloadable) from None
    return core


class _LP(NamedTuple):
    """Minimize cost @ x within the column and row bounds; the matrix is column-wise
    (column j holds value[start[j]:start[j + 1]] in the rows index[start[j]:start[j + 1]]).

    ``basic``, if given, marks a start basis over the columns and then the
    rows: one basic per row, nonsingular.
    """

    cost: np.ndarray
    col_lower: np.ndarray
    col_upper: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    start: np.ndarray
    index: np.ndarray
    value: np.ndarray
    basic: np.ndarray | None = None

    @classmethod
    def from_entries(cls, cost, col_lower, col_upper, row_lower, row_upper, row, col, value, basic=None) -> "_LP":
        """The LP whose matrix holds value[k] at (row[k], col[k]): entries in any order, no pair twice.

        Exact zeros are left out, and the rest ordered column-wise.
        """
        keep = value != 0.0
        row, col, value = row[keep], col[keep], value[keep]
        # No (row, column) pair repeats, so one key orders the entries column-wise.
        order = np.argsort(col * len(row_lower) + row)
        start = np.append(0, np.cumsum(np.bincount(col, minlength=len(cost)))).astype(np.int32)
        return cls(
            cost, col_lower, col_upper, row_lower, row_upper, start, row[order].astype(np.int32), value[order], basic
        )


# _load_lp's HiGHS refuses a model holding a matrix value of this magnitude
# or more: its default large_matrix_value, which _load_lp leaves as it is.
_LARGE_MATRIX_VALUE = 1e15


def _load_lp(lp: _LP, name: str):
    """A fresh HiGHS model holding ``lp``, with the options every solve uses.

    HiGHS drops matrix entries up to ``small_matrix_value``, 1e-9 by
    default, which leaves a game of such entries short of the saddle
    contract, so the model keeps every entry above 1e-12, the least HiGHS
    accepts.  An LP without a start basis is set up for the dual simplex
    from the slack basis.  One with a start basis gets it through setBasis,
    each nonbasic column and row at its lower bound where that is finite
    and at its upper bound otherwise, and is set up for the primal simplex,
    which keeps a feasible start feasible, with its bound perturbation off
    (_solve_lp says why).  The basis is passed as not alien, so setBasis
    only counts its basics and run factors it: an alien basis is factored
    twice, about 0.15 ms of the 4 ms 2-vs-6 grid-21 duel.  HiGHS is driven
    through scipy's private ``_highspy`` binding, which pyproject pins,
    loaded by _highs_core on the first model.
    """
    core = _highs_core()
    highs = core._Highs()
    strategy = core.simplex_constants.SimplexStrategy
    options = {
        "simplex_strategy": strategy.kSimplexStrategyDual if lp.basic is None else strategy.kSimplexStrategyPrimal,
        "presolve": "off",
        "output_flag": False,
        "log_to_console": False,
        "small_matrix_value": 1e-12,
        "primal_feasibility_tolerance": 1e-10,
        "dual_feasibility_tolerance": 1e-10,
    }
    for key, value in options.items():
        highs.setOptionValue(key, value)
    num_col = len(lp.cost)
    # num_col, num_row, num_nz, format, sense, offset, costs, column and
    # row bounds, the matrix, and integrality (all continuous).
    status = highs.passModel(
        num_col, len(lp.row_lower), len(lp.index), int(core.MatrixFormat.kColwise),
        int(core.ObjSense.kMinimize), 0.0, lp.cost, lp.col_lower, lp.col_upper,
        lp.row_lower, lp.row_upper, lp.start, lp.index, lp.value, np.zeros(num_col, dtype=np.int32),
    )
    if status == core.HighsStatus.kError:
        raise SolverError(f"HiGHS refused the game's {name}")
    if lp.basic is not None:
        kinds = core.HighsBasisStatus
        lower = np.isfinite(np.concatenate([lp.col_lower, lp.row_lower]))
        statuses = np.array([kinds.kUpper, kinds.kLower, kinds.kBasic])[np.where(lp.basic, 2, lower)]
        basis = core.HighsBasis()
        basis.col_status, basis.row_status = statuses[:num_col], statuses[num_col:]
        basis.alien = False
        highs.setBasis(basis)
        highs.setOptionValue("primal_simplex_bound_perturbation_multiplier", 0.0)
    return highs


def _solve_lp(layouts: Iterable[_LP], certify: Callable[[np.ndarray, np.ndarray], tuple], name: str) -> tuple:
    """``certify(x, duals)`` of the first HiGHS run that it accepts: the one driver and recovery ladder.

    x is the primal and duals the row duals, nonpositive on ``<=`` rows;
    certify ends in _saddle, whose SolverError rejects them.  A layout is
    taken only once every run of the one before has failed, and loaded by
    _load_lp, whose refusal raises at once; none is held while HiGHS runs
    (a duel LP at the cap has 12 M nonzeros).  Each layout climbs the runs
    below, and the last failure is raised:

    1. Only for an LP with a start basis: the primal simplex from that
       basis, unperturbed.  HiGHS's bound perturbation stalled it on the
       duel's start basis, as 1-vs-1 identity against power 3 took 25,677
       iterations at grid 351 and 244 without it.  From the slack basis
       an unperturbed primal can cycle, so an LP without a start basis
       never sets the option.
    2. The dual simplex from the slack basis, without presolve, which
       removes nothing from a dense game: skipping it takes the dense row
       LP of the 201-point duel kernel's game from about 35 to 26 ms and
       of the 801-point one from about 1.5 to 1.35 s (2 vCPUs), with the
       same iterations and bit-identical results; _solve_game runs that
       layout only after those it is given first, such as a kernel's
       factored one.  Entries of about 1e-12 to 1e-9 beside O(1) ones
       can end it at ``Not Set`` or ``Unknown``, or short of SADDLE_TOL.
       Some degenerate duels that run 1 leaves at ``Not Set`` certify
       here.
    3. The same with presolve.  HiGHS skips presolve on a model that holds
       a useful basis, as an earlier run leaves behind, so each later run
       starts on a cleared solver.
    """
    core = _highs_core()
    dual = core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    for lp in layouts:
        first = 1 if lp.basic is not None else 2
        highs, lp = _load_lp(lp, name), None
        for rung in range(first, 4):
            if rung > first:
                highs.clearSolver()
                if rung == 2:
                    highs.setOptionValue("simplex_strategy", dual)
                else:
                    highs.setOptionValue("presolve", "on")
            highs.run()
            status = highs.getModelStatus()
            try:
                if status != core.HighsModelStatus.kOptimal:
                    raise SolverError(f"{name} failed: {highs.modelStatusToString(status)}")
                solution = highs.getSolution()
                return certify(np.array(solution.col_value), np.array(solution.row_dual))
            except SolverError as exc:
                failure = exc
    raise failure


def _row_lp(a: np.ndarray, shifted: bool = False) -> _LP:
    """The row LP of game ``a``, or if ``shifted`` of A + 1 - min A: maximize v subject to sigma^T A >= v per column.

    LP column i holds game row i's payoffs negated in the ``<= 0`` rows and
    a 1 in the last row, the sum row; the last column, v, holds a 1 in
    every ``<= 0`` row.  Exact zeros are left out.
    """
    m, n = a.shape
    shift = 1.0 - float(a.min()) if shifted else 0.0
    body = np.column_stack([-a - shift, np.ones(m)])
    keep = body != 0.0
    start = np.append(0, np.cumsum(np.append(keep.sum(axis=1), n))).astype(np.int32)
    index = np.concatenate([np.nonzero(keep)[1], np.arange(n)]).astype(np.int32)
    value = np.concatenate([body[keep], np.ones(n)])
    return _LP(
        np.append(np.zeros(m), -1.0), np.append(np.zeros(m), -np.inf), np.full(m + 1, np.inf),
        np.append(np.full(n, -np.inf), 1.0), np.append(np.zeros(n), 1.0), start, index, value,
    )


def _solve_game(a: np.ndarray, first: Iterable[_LP], name: str) -> tuple:
    """(sigma, tau, value, residual) of game ``a``: _solve_lp on the layouts ``first``, then _row_lp's two.

    _certify checks every answer on ``a``; the shifted game A + 1 - min A
    has the same sigma, and tau still comes from the duals.  A layout in
    ``first`` holding a value that HiGHS refuses, or a NaN, is left out,
    since a refusal ends the ladder at once.
    """
    usable = [lp for lp in first if np.abs(lp.value).max() < _LARGE_MATRIX_VALUE]
    layouts = itertools.chain(usable, (_row_lp(a, shifted) for shifted in (False, True)))
    return _solve_lp(layouts, functools.partial(_certify, a), name)


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
    """The least s in [lo, hi) where holds(s), else hi; holds(s) stays true once it is true.

    Plain integer bisection, so hi may pass sys.maxsize, which a range cannot.
    """
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
    max_iterations = _as_int(max_iterations, "max_iterations")
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
