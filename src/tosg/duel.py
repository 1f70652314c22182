"""Silent duels with limited attempts and monotone accuracy functions.

Payoff law: win = +1, loss = -1, both survive = 0; shots are independent,
the first hit ends the duel, and a simultaneous mutual hit scores 0.  Shots
sharing one instant are resolved as a volley: either side's volley hits if
any of its shots does, and neither volley preempts the other.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResourceLimitError
from .matrix_game import MixedStrategy, PayoffMatrix, _time_table, solve_exact

# Admits the 21-point grid with 2-vs-6 attempts (11,395,440 pure pairs).
MAX_STRATEGY_PAIRS = 12_000_000
SUPPORT_TOL = 1e-6
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
            try:
                exponent = float(self.k) if self.k is not None else None
            except (TypeError, ValueError):
                raise InputError("power exponent must be a number") from None
            if exponent is None or not math.isfinite(exponent) or exponent <= 0:
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
        if np.any(t < 0.0) or np.any(t > 1.0):
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
        if not isinstance(doc, dict) or "kind" not in doc:
            raise InputError("accuracy document needs a 'kind' field")
        kind = doc["kind"]
        if kind == "identity":
            return cls.identity()
        if kind == "power":
            if "k" not in doc:
                raise InputError("power accuracy document needs 'k'")
            return cls.power(doc["k"])
        if kind == "table":
            if "points" not in doc:
                raise InputError("table accuracy document needs 'points'")
            return cls.table(doc["points"])
        raise InputError(f"unknown accuracy kind {kind!r}")

    def to_dict(self) -> dict:
        if self.kind == "identity":
            return {"kind": "identity"}
        if self.kind == "power":
            return {"kind": "power", "k": self.k}
        return {"kind": "table", "points": [list(p) for p in self.points]}


@dataclass(frozen=True)
class DuelSpec:
    """Attempt counts and accuracy functions for the two players."""

    m: int
    n: int
    p: AccuracyFunction
    q: AccuracyFunction
    tie_rule: str = "simultaneous-independent"

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise InputError("both players need at least one attempt")
        if self.tie_rule != "simultaneous-independent":
            raise InputError(f"unsupported tie rule {self.tie_rule!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> "DuelSpec":
        try:
            m, n = int(doc["m"]), int(doc["n"])
            p = AccuracyFunction.from_dict(doc["p"])
            q = AccuracyFunction.from_dict(doc["q"])
        except (TypeError, KeyError, ValueError) as exc:
            if isinstance(exc, InputError):
                raise
            raise InputError(f"bad duel document: {exc}") from None
        return cls(m=m, n=n, p=p, q=q, tie_rule=doc.get("tie_rule", "simultaneous-independent"))

    def to_dict(self) -> dict:
        return {"m": self.m, "n": self.n, "p": self.p.to_dict(), "q": self.q.to_dict()}


@dataclass(frozen=True, eq=False)
class TimeVector:
    """Nondecreasing firing times in [0, 1]."""

    times: np.ndarray

    def __post_init__(self):
        try:
            times = np.atleast_1d(np.asarray(self.times, dtype=float))
        except (TypeError, ValueError) as exc:
            raise InputError(f"firing times are not numeric: {exc}") from None
        if times.ndim != 1:
            raise InputError("firing times must be a flat vector")
        if not np.all(np.isfinite(times)):
            raise InputError("firing times must be finite")
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
    optimal mixture over sorted time subsets.
    """

    value: float
    p1_density: MixedStrategy
    p2_density: MixedStrategy
    support_p1: tuple[float, float]
    support_p2: tuple[float, float]
    grid_n: int

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "p1_density": self.p1_density.to_dict(),
            "p2_density": self.p2_density.to_dict(),
            "support_p1": list(self.support_p1),
            "support_p2": list(self.support_p2),
            "grid_n": self.grid_n,
        }


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


def _guard_pairs(spec: DuelSpec, grid_n: int, max_pairs: int) -> None:
    if grid_n < 2:
        raise InputError("grid needs at least 2 points")
    if grid_n < max(spec.m, spec.n):
        raise InputError(f"grid of {grid_n} points cannot host {max(spec.m, spec.n)} distinct shots")
    pairs = math.comb(grid_n, spec.m) * math.comb(grid_n, spec.n)
    if pairs > max_pairs:
        raise ResourceLimitError(
            f"{pairs} pure-strategy pairs exceed the cap of {max_pairs}; "
            "use a smaller grid or Monte Carlo evaluation"
        )


def _survival_profile(incidence: np.ndarray, hit: np.ndarray) -> np.ndarray:
    # survival[s, g] = probability all of strategy s's shots strictly before
    # grid point g have missed.
    factors = np.where(incidence > 0.0, 1.0 - hit[None, :], 1.0)
    shifted = np.concatenate([np.ones((factors.shape[0], 1)), factors[:, :-1]], axis=1)
    return np.cumprod(shifted, axis=1)


def discretize_duel(
    spec: DuelSpec, grid_n: int, max_pairs: int = MAX_STRATEGY_PAIRS
) -> PayoffMatrix:
    """Payoff matrix over all sorted shot-time subsets of a uniform grid.

    Pure strategies are the sorted m- and n-element subsets of the grid
    (endpoints 0 and 1 included).  Entries equal duel_payoff on the
    corresponding time vectors; the computation uses the separable form

        payoff = sum_g L1[g] L2[g] (p_eff[g] - q_eff[g])

    which factors into two small matrix products over the grid axis.
    """
    _guard_pairs(spec, grid_n, max_pairs)
    grid = np.linspace(0.0, 1.0, grid_n)
    p_hit = np.asarray(spec.p(grid), dtype=float)
    q_hit = np.asarray(spec.q(grid), dtype=float)

    rows = _strategy_subsets(grid_n, spec.m)
    cols = _strategy_subsets(grid_n, spec.n)
    row_inc = np.zeros((len(rows), grid_n))
    row_inc[np.arange(len(rows))[:, None], rows] = 1.0
    col_inc = np.zeros((len(cols), grid_n))
    col_inc[np.arange(len(cols))[:, None], cols] = 1.0

    row_alive = _survival_profile(row_inc, p_hit)
    col_alive = _survival_profile(col_inc, q_hit)
    row_fire = row_alive * (p_hit[None, :] * row_inc)
    col_fire = col_alive * (q_hit[None, :] * col_inc)
    entries = row_fire @ col_alive.T - row_alive @ col_fire.T

    return PayoffMatrix(
        entries=entries,
        row_labels=grid if spec.m == 1 else None,
        col_labels=grid if spec.n == 1 else None,
    )


def _time_marginal(weights: np.ndarray, subsets: np.ndarray, grid_n: int, shots: int) -> np.ndarray:
    marginal = np.zeros(grid_n)
    np.add.at(marginal, subsets.ravel(), np.repeat(weights / shots, shots))
    return marginal / marginal.sum()


def _support_interval(grid: np.ndarray, weights: np.ndarray) -> tuple[float, float]:
    above = grid[weights > SUPPORT_TOL]
    lo = float(above.min()) if above.size else 1.0
    return lo, 1.0


def solve_duel(
    spec: DuelSpec,
    grid_n: int,
    max_pairs: int = MAX_STRATEGY_PAIRS,
    tol: float = 1e-9,
) -> DuelSolution:
    """Solve the discretized duel and report per-shot time densities."""
    game = discretize_duel(spec, grid_n, max_pairs)
    solution = solve_exact(game, tol=tol)
    grid = np.linspace(0.0, 1.0, grid_n)

    p1 = _time_marginal(solution.row_strategy.weights, _strategy_subsets(grid_n, spec.m), grid_n, spec.m)
    p2 = _time_marginal(solution.col_strategy.weights, _strategy_subsets(grid_n, spec.n), grid_n, spec.n)

    return DuelSolution(
        value=solution.value,
        p1_density=MixedStrategy(p1),
        p2_density=MixedStrategy(p2),
        support_p1=_support_interval(grid, p1),
        support_p2=_support_interval(grid, p2),
        grid_n=grid_n,
    )
