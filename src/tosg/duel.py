"""Silent duels with limited attempts and monotone accuracy functions.

Payoff law: win = +1, loss = -1, both survive = 0; shots are independent,
the first hit ends the duel, and a simultaneous mutual hit scores 0.  Shots
sharing one instant are resolved as a volley: either side's volley hits if
any of its shots does, and neither volley preempts the other.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, SolverError
from .matrix_game import (
    DUST_TOL,
    SADDLE_TOL,
    MixedStrategy,
    PayoffMatrix,
    _as_float_array,
    _as_int,
    _field,
    _GrowingGame,
    _time_table,
    guard_cells,
)
# Called nowhere: kept only for perfbench/spans.py's WRAPS; ROADMAP item 2 removes it.
from .matrix_game import solve_exact

# The one tie rule implemented; see the module docstring.
TIE_RULE = "simultaneous-independent"
_SIM_CHUNK = 1 << 14


@dataclass(frozen=True)
class AccuracyFunction:
    """Monotone hit probability on [0, 1] with value 0 at 0 and 1 at 1."""

    kind: str
    k: float | None = None
    points: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.kind == "identity":
            if self.k is not None or self.points is not None:
                raise InputError("identity accuracy takes no parameters")
        elif self.kind == "power":
            if self.k is None:
                raise InputError("power accuracy needs a finite exponent k > 0")
            exponent = float(_as_float_array(self.k, "power exponent", 0))
            if exponent <= 0:
                raise InputError("power accuracy needs a finite exponent k > 0")
            object.__setattr__(self, "k", exponent)
            if self.points is not None:
                raise InputError("power accuracy takes no table")
        elif self.kind == "table":
            pts = _time_table(self.points, "accuracy table")
            vs = [v for _, v in pts]
            if vs[0] != 0.0 or vs[-1] != 1.0:
                raise InputError("accuracy must be 0 at t = 0 and 1 at t = 1")
            if any(b < a for a, b in zip(vs, vs[1:])):
                raise InputError("accuracy values must be nondecreasing")
            if any(not 0.0 <= v <= 1.0 for v in vs):
                raise InputError("accuracy values must lie in [0, 1]")
            object.__setattr__(self, "points", pts)
        else:
            raise InputError(f"unknown accuracy kind {self.kind!r}")

    def __call__(self, t):
        try:
            t = np.asarray(t, dtype=float)
        except (TypeError, ValueError):
            raise InputError("accuracy argument must be numeric") from None
        if not np.all((t >= 0.0) & (t <= 1.0)):
            raise InputError("accuracy argument outside [0, 1]")
        if self.kind == "identity":
            out = t
        elif self.kind == "power":
            out = t**self.k
        else:
            ts = [p[0] for p in self.points]
            vs = [p[1] for p in self.points]
            out = np.interp(t, ts, vs)
        return float(out) if out.ndim == 0 else out

    @classmethod
    def identity(cls) -> "AccuracyFunction":
        return cls("identity")

    @classmethod
    def power(cls, k: float) -> "AccuracyFunction":
        return cls("power", k=k)

    @classmethod
    def table(cls, points) -> "AccuracyFunction":
        return cls("table", points=points)

    @classmethod
    def from_dict(cls, doc: dict) -> "AccuracyFunction":
        kind = _field(doc, "kind", "accuracy document")
        if kind == "identity":
            return cls.identity()
        if kind == "power":
            return cls.power(_field(doc, "k", "power accuracy document"))
        if kind == "table":
            return cls.table(_field(doc, "points", "table accuracy document"))
        raise InputError(f"unknown accuracy kind {kind!r}")


@dataclass(frozen=True)
class DuelSpec:
    """Attempt counts and accuracy functions for the two players."""

    m: int
    n: int
    p: AccuracyFunction
    q: AccuracyFunction

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise InputError("both players need at least one attempt")

    @classmethod
    def from_dict(cls, doc: dict) -> "DuelSpec":
        what = "duel document"
        m = _as_int(_field(doc, "m", what), "m")
        n = _as_int(_field(doc, "n", what), "n")
        p = AccuracyFunction.from_dict(_field(doc, "p", what))
        q = AccuracyFunction.from_dict(_field(doc, "q", what))
        tie_rule = doc.get("tie_rule", TIE_RULE)
        if tie_rule != TIE_RULE:
            raise InputError(f"unsupported tie rule {tie_rule!r}")
        return cls(m=m, n=n, p=p, q=q)


@dataclass(frozen=True, eq=False)
class TimeVector:
    """Nondecreasing firing times in [0, 1]."""

    times: np.ndarray

    def __post_init__(self):
        times = self.times
        if np.isscalar(times):  # one shot's time may be given bare
            times = [times]
        times = _as_float_array(times, "firing times", 1)
        if np.any(times < 0.0) or np.any(times > 1.0):
            raise InputError("firing times must lie in [0, 1]")
        if np.any(np.diff(times) < 0.0):
            raise InputError("firing times must be nondecreasing")
        times.setflags(write=False)
        object.__setattr__(self, "times", times)

    def __len__(self) -> int:
        return self.times.shape[0]


@dataclass(frozen=True)
class DuelSolution:
    """Value and optimal time densities of a discretized duel.

    For multi-shot players the density is the per-shot time marginal of the
    optimal mixture over sorted time subsets.  ``residual`` is the verified
    saddle gap against the full discretized game; it is marked internal, so
    the JSON document of a solution lists every field but this one.
    """

    value: float
    p1_density: MixedStrategy
    p2_density: MixedStrategy
    support_p1: tuple[float, float]
    support_p2: tuple[float, float]
    grid_n: int
    residual: float = field(metadata={"internal": True})


def _volleys(spec: DuelSpec, x: TimeVector, y: TimeVector) -> list[tuple[float, float, float]]:
    """Time-ordered (t, p_eff, q_eff) volley events; exact time ties merge."""
    events: dict[float, list[int]] = {}
    for t in x.times:
        events.setdefault(float(t), [0, 0])[0] += 1
    for t in y.times:
        events.setdefault(float(t), [0, 0])[1] += 1
    out = []
    for t in sorted(events):
        a, b = events[t]
        p_eff = 1.0 - (1.0 - spec.p(t)) ** a if a else 0.0
        q_eff = 1.0 - (1.0 - spec.q(t)) ** b if b else 0.0
        out.append((t, p_eff, q_eff))
    return out


def _coerce_times(spec: DuelSpec, x, y) -> tuple[TimeVector, TimeVector]:
    x = x if isinstance(x, TimeVector) else TimeVector(x)
    y = y if isinstance(y, TimeVector) else TimeVector(y)
    if len(x) != spec.m:
        raise InputError(f"player 1 fires {spec.m} shots, got {len(x)} times")
    if len(y) != spec.n:
        raise InputError(f"player 2 fires {spec.n} shots, got {len(y)} times")
    return x, y


def duel_payoff(spec: DuelSpec, x, y) -> float:
    """Expected gain to player 1, by an event sweep over the shot times.

    Carries the both-alive probability L through the time-ordered volleys:
    each volley adds L * (p_eff - q_eff) and rescales L by
    (1 - p_eff) * (1 - q_eff).
    """
    x, y = _coerce_times(spec, x, y)
    alive = 1.0
    payoff = 0.0
    for _, p_eff, q_eff in _volleys(spec, x, y):
        payoff += alive * (p_eff * (1.0 - q_eff) - q_eff * (1.0 - p_eff))
        alive *= (1.0 - p_eff) * (1.0 - q_eff)
    return payoff


def simulate_duel(spec: DuelSpec, x, y, trials: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of duel_payoff with its standard error.

    Trials are partitioned into fixed-size chunks, each driven by a
    generator seeded from (seed, chunk index), so the estimate is identical
    for a given seed regardless of execution order or parallelism.
    """
    if trials < 1:
        raise InputError("trials must be at least 1")
    if seed < 0:
        raise InputError("seed must be a nonnegative integer")
    x, y = _coerce_times(spec, x, y)
    volleys = _volleys(spec, x, y)

    total = 0.0
    total_sq = 0.0
    n_chunks = (trials + _SIM_CHUNK - 1) // _SIM_CHUNK
    for chunk in range(n_chunks):
        size = min(_SIM_CHUNK, trials - chunk * _SIM_CHUNK)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, chunk)))
        alive = np.ones(size, dtype=bool)
        outcome = np.zeros(size)
        for _, p_eff, q_eff in volleys:
            hit1 = rng.random(size) < p_eff
            hit2 = rng.random(size) < q_eff
            outcome[alive & hit1 & ~hit2] = 1.0
            outcome[alive & hit2 & ~hit1] = -1.0
            alive &= ~(hit1 | hit2)
        total += outcome.sum()
        total_sq += (outcome**2).sum()

    estimate = float(total / trials)
    if trials > 1:
        var = max(float(total_sq) - trials * estimate**2, 0.0) / (trials - 1)
        stderr = math.sqrt(var / trials)
    else:
        stderr = 0.0
    return estimate, stderr


def _strategy_subsets(grid_n: int, shots: int) -> np.ndarray:
    return np.array(list(itertools.combinations(range(grid_n), shots)), dtype=int)


def _check_grid(spec: DuelSpec, grid_n: int) -> None:
    if grid_n < 2:
        raise InputError("grid needs at least 2 points")
    if grid_n < max(spec.m, spec.n):
        raise InputError(f"grid of {grid_n} points cannot host {max(spec.m, spec.n)} distinct shots")


def _hits(spec: DuelSpec, grid_n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    grid = np.linspace(0.0, 1.0, grid_n)
    return grid, np.asarray(spec.p(grid), dtype=float), np.asarray(spec.q(grid), dtype=float)


def _profiles(subsets: np.ndarray, hit: np.ndarray, grid_n: int) -> tuple[np.ndarray, np.ndarray]:
    """Alive and fire profiles of sorted shot subsets on the grid.

    alive[s, g] is the probability that every shot of subset s strictly
    before grid point g has missed; fire[s, g] = alive[s, g] * hit[g] where
    s fires at g, and 0 elsewhere.
    """
    incidence = np.zeros((len(subsets), grid_n))
    incidence[np.arange(len(subsets))[:, None], subsets] = 1.0
    factors = np.where(incidence > 0.0, 1.0 - hit[None, :], 1.0)
    shifted = np.concatenate([np.ones((factors.shape[0], 1)), factors[:, :-1]], axis=1)
    alive = np.cumprod(shifted, axis=1)
    return alive, alive * (hit[None, :] * incidence)


def discretize_duel(spec: DuelSpec, grid_n: int) -> PayoffMatrix:
    """Payoff matrix over all sorted shot-time subsets of a uniform grid.

    Pure strategies are the sorted m- and n-element subsets of the grid
    (endpoints 0 and 1 included).  Entries equal duel_payoff on the
    corresponding time vectors; the computation uses the separable form

        payoff = sum_g L1[g] L2[g] (p_eff[g] - q_eff[g])

    which factors into two small matrix products over the grid axis.
    """
    _check_grid(spec, grid_n)
    guard_cells(
        math.comb(grid_n, spec.m) * math.comb(grid_n, spec.n),
        f"the full {spec.m}-vs-{spec.n} duel matrix on {grid_n} grid points",
    )
    _, p_hit, q_hit = _hits(spec, grid_n)
    row_alive, row_fire = _profiles(_strategy_subsets(grid_n, spec.m), p_hit, grid_n)
    col_alive, col_fire = _profiles(_strategy_subsets(grid_n, spec.n), q_hit, grid_n)
    return PayoffMatrix(row_fire @ col_alive.T - row_alive @ col_fire.T)


def _best_response(
    opp_alive: np.ndarray, opp_fire: np.ndarray, hit: np.ndarray, shots: int
) -> tuple[float, tuple[int, ...]]:
    """Best sorted shot subset against an opponent's mixed profile, and its gain.

    A player's gain against the opponent's expected alive profile A and fire
    profile F is sum_g alive[g] * (hit[g] * fires[g] * A[g] - F[g]), so a
    backward pass over the grid with state "shots left" finds the maximum
    over every subset:

        W(g, k) = max(W(g+1, k) - F[g],
                      hit[g] A[g] - F[g] + (1 - hit[g]) W(g+1, k-1))

    with W(G, 0) = 0 and -inf on states with more shots than grid points
    left.  The firing branch reads only feasible, finite states, so a sure
    hit (hit[g] = 1) never multiplies 0 by inf.
    """
    grid_n = hit.shape[0]
    value = np.full(shots + 1, -np.inf)
    value[0] = 0.0
    fires = np.zeros((grid_n, shots + 1), dtype=bool)
    for g in range(grid_n - 1, -1, -1):
        top = min(shots, grid_n - g)
        hold = value[: top + 1] - opp_fire[g]
        fire = hit[g] * opp_alive[g] - opp_fire[g] + (1.0 - hit[g]) * value[:top]
        fires[g, 1 : top + 1] = fire > hold[1:]
        value[0] = hold[0]
        value[1 : top + 1] = np.maximum(hold[1:], fire)
    subset, left = [], shots
    for g in range(grid_n):
        if left and fires[g, left]:
            subset.append(g)
            left -= 1
    return float(value[shots]), tuple(subset)


def _seed_subsets(grid_n: int, shots: int) -> list[tuple[int, ...]]:
    # A one-shot player's subsets are the grid points; a multi-shot player
    # starts from its latest firing times.
    if shots == 1:
        return [(g,) for g in range(grid_n)]
    return [tuple(range(grid_n - shots, grid_n))]


def _guard_restricted(rows: int, cols: int, grid_n: int) -> None:
    # The restricted game and both players' profile arrays.
    guard_cells(
        max(rows * cols, rows * grid_n, cols * grid_n),
        f"restricted game of {rows} x {cols} subsets on {grid_n} grid points",
    )


def _time_marginal(weights: np.ndarray, subsets: np.ndarray, grid_n: int, shots: int) -> np.ndarray:
    marginal = np.zeros(grid_n)
    np.add.at(marginal, subsets.ravel(), np.repeat(weights / shots, shots))
    return marginal / marginal.sum()


def _support_interval(grid: np.ndarray, weights: np.ndarray) -> tuple[float, float]:
    above = grid[weights > DUST_TOL]
    lo = float(above.min()) if above.size else 1.0
    return lo, 1.0


def solve_duel(spec: DuelSpec, grid_n: int) -> DuelSolution:
    """Solve the discretized duel by double oracle and report per-shot time densities.

    The game is the one discretize_duel builds, but the full matrix is never
    formed.  Each round solves the restricted game over the subsets found so
    far and adds each player's exact best response over all sorted subsets
    of the grid (_best_response).  Those responses bound the full game's
    value: ``lower`` is what the column player can hold the row mixture to,
    ``upper`` what the row player can get off the column mixture.  The loop
    stops once upper - lower <= SADDLE_TOL; value is their midpoint and residual
    their gap, so the saddle contract holds against the full game.

    The restricted game and both players' subset profiles persist across
    rounds: a new subset adds one profile row and one row or column of
    payoffs to a _GrowingGame, whose LP re-solves warm from its last basis;
    a warm solve it cannot certify is solved once more on a reloaded model.

    A one-shot player starts with every grid point, so a 1-vs-1 duel is one
    round on the full matrix; a multi-shot player starts from its latest
    firing times.  The size cap (guard_cells) bounds the best-response
    tables (grid_n * (shots + 1)) and every restricted game and profile,
    checked before allocation; 2-vs-6 attempts solve well past grid 21.
    """
    _check_grid(spec, grid_n)
    shots = max(spec.m, spec.n)
    guard_cells(
        grid_n * (shots + 1), f"the best-response table for {shots} shots on {grid_n} grid points"
    )
    # The seed sizes of _seed_subsets, checked before the seeds are built.
    _guard_restricted(*(grid_n if k == 1 else 1 for k in (spec.m, spec.n)), grid_n)
    grid, p_hit, q_hit = _hits(spec, grid_n)
    rows, cols = _seed_subsets(grid_n, spec.m), _seed_subsets(grid_n, spec.n)
    row_alive, row_fire = _profiles(np.array(rows), p_hit, grid_n)
    col_alive, col_fire = _profiles(np.array(cols), q_hit, grid_n)
    model = _GrowingGame(row_fire @ col_alive.T - row_alive @ col_fire.T)
    while True:
        restricted = model.solve()
        sigma = restricted.row_strategy.weights
        tau = restricted.col_strategy.weights
        col_gain, col_best = _best_response(sigma @ row_alive, sigma @ row_fire, q_hit, spec.n)
        upper, row_best = _best_response(tau @ col_alive, tau @ col_fire, p_hit, spec.m)
        lower = -col_gain
        gap = max(upper - lower, 0.0)
        if gap <= SADDLE_TOL:
            break
        new_row, new_col = row_best not in rows, col_best not in cols
        if not (new_row or new_col):
            raise SolverError(f"double oracle stalled at verified gap {gap:.3e} above {SADDLE_TOL:.3e}")
        _guard_restricted(len(rows) + new_row, len(cols) + new_col, grid_n)
        if new_row:
            rows.append(row_best)
            alive, fire = _profiles(np.array([row_best]), p_hit, grid_n)
            model.add_row(fire[0] @ col_alive.T - alive[0] @ col_fire.T)
            row_alive, row_fire = np.vstack([row_alive, alive]), np.vstack([row_fire, fire])
        if new_col:
            cols.append(col_best)
            alive, fire = _profiles(np.array([col_best]), q_hit, grid_n)
            model.add_col(row_fire @ alive[0] - row_alive @ fire[0])
            col_alive, col_fire = np.vstack([col_alive, alive]), np.vstack([col_fire, fire])

    p1 = _time_marginal(sigma, np.array(rows), grid_n, spec.m)
    p2 = _time_marginal(tau, np.array(cols), grid_n, spec.n)
    return DuelSolution(
        value=0.5 * (lower + upper),
        p1_density=MixedStrategy(p1),
        p2_density=MixedStrategy(p2),
        support_p1=_support_interval(grid, p1),
        support_p2=_support_interval(grid, p2),
        grid_n=grid_n,
        residual=gap,
    )
