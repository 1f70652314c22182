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

from .errors import InputError
from .matrix_game import (
    DUST_TOL,
    MixedStrategy,
    PayoffMatrix,
    _as_float_array,
    _as_int,
    _as_real,
    _field,
    _LP,
    _saddle,
    _solve_lp,
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
    """Monotone hit probability on [0, 1] with value 0 at 0 and 1 at 1.

    Two laws: ``power``, t ** k, and ``table``, linear between (t, value)
    points; identity() is the power law at k = 1.
    """

    kind: str
    k: float | None = None
    points: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.kind == "power":
            if self.k is None:
                raise InputError("power accuracy needs a finite exponent k > 0")
            exponent = _as_real(self.k, "power exponent")
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
        if self.kind == "power":
            out = t**self.k
        else:
            ts = [p[0] for p in self.points]
            vs = [p[1] for p in self.points]
            out = np.interp(t, ts, vs)
        return float(out) if out.ndim == 0 else out

    @classmethod
    def identity(cls) -> "AccuracyFunction":
        """Karlin's P(t) = t: the power law at k = 1, as t ** 1.0 returns t unchanged."""
        return cls.power(1.0)

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
        object.__setattr__(self, "m", _as_int(self.m, "m"))
        object.__setattr__(self, "n", _as_int(self.n, "n"))
        if self.m < 1 or self.n < 1:
            raise InputError("both players need at least one attempt")

    @classmethod
    def from_dict(cls, doc: dict) -> "DuelSpec":
        what = "duel document"
        m, n = _field(doc, "m", what), _field(doc, "n", what)
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


def _live_hits(rng: np.random.Generator, alive: np.ndarray, prob: float) -> np.ndarray | None:
    """The live trials one side hits in a volley, from its block of draws.

    A side with prob == 0 reads nothing of its block, so the block is skipped
    (None); PCG64 advances over it in O(log size).
    """
    if prob == 0.0:
        rng.bit_generator.advance(alive.size)
        return None
    hits = rng.random(alive.size) < prob
    hits &= alive
    return hits


def simulate_duel(spec: DuelSpec, x, y, trials: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of duel_payoff with its standard error.

    Trials are partitioned into fixed-size chunks, each driven by a
    generator seeded from (seed, chunk index), so the estimate is identical
    for a given seed regardless of execution order or parallelism.  Within a
    chunk the stream is laid out by volley: player 1's block of one draw per
    trial, then player 2's block.  A block its side cannot use (a volley it
    does not fire, or fires with accuracy 0) is skipped rather than drawn,
    and a chunk stops once none of its trials is alive; neither changes an
    estimate, since every trial still reads the same draws.
    """
    trials, seed = _as_int(trials, "trials"), _as_int(seed, "seed")
    if trials < 1:
        raise InputError("trials must be at least 1")
    if seed < 0:
        raise InputError("seed must be a nonnegative integer")
    x, y = _coerce_times(spec, x, y)
    volleys = _volleys(spec, x, y)

    wins = losses = 0
    n_chunks = (trials + _SIM_CHUNK - 1) // _SIM_CHUNK
    for chunk in range(n_chunks):
        size = min(_SIM_CHUNK, trials - chunk * _SIM_CHUNK)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, chunk)))
        alive = np.ones(size, dtype=bool)
        for _, p_eff, q_eff in volleys:
            hit1 = _live_hits(rng, alive, p_eff)
            hit2 = _live_hits(rng, alive, q_eff)
            if hit1 is not None and hit2 is not None:
                # A simultaneous mutual hit ends the trial and scores 0.
                mutual = hit1 & hit2
                hit1 ^= mutual
                hit2 ^= mutual
                alive ^= mutual
            if hit1 is not None:
                wins += np.count_nonzero(hit1)
                alive ^= hit1
            if hit2 is not None:
                losses += np.count_nonzero(hit2)
                alive ^= hit2
            if not alive.any():
                break

    estimate = float(wins - losses) / trials
    if trials > 1:
        total_sq = wins + losses
        var = max(float(total_sq) - trials * estimate**2, 0.0) / (trials - 1)
        stderr = math.sqrt(var / trials)
    else:
        stderr = 0.0
    return estimate, stderr


def _strategy_subsets(grid_n: int, shots: int) -> np.ndarray:
    return np.array(list(itertools.combinations(range(grid_n), shots)), dtype=int)


def _check_grid(spec: DuelSpec, grid_n: int) -> int:
    """grid_n as an int, once it can host both players' shots."""
    grid_n = _as_int(grid_n, "grid_n")
    if grid_n < 2:
        raise InputError("grid needs at least 2 points")
    if grid_n < max(spec.m, spec.n):
        raise InputError(f"grid of {grid_n} points cannot host {max(spec.m, spec.n)} distinct shots")
    return grid_n


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
    grid_n = _check_grid(spec, grid_n)
    guard_cells(
        math.comb(grid_n, spec.m) * math.comb(grid_n, spec.n),
        f"the full {spec.m}-vs-{spec.n} duel matrix on {grid_n} grid points",
    )
    _, p_hit, q_hit = _hits(spec, grid_n)
    row_alive, row_fire = _profiles(_strategy_subsets(grid_n, spec.m), p_hit, grid_n)
    col_alive, col_fire = _profiles(_strategy_subsets(grid_n, spec.n), q_hit, grid_n)
    return PayoffMatrix(row_fire @ col_alive.T - row_alive @ col_fire.T)


def _support_interval(grid: np.ndarray, weights: np.ndarray) -> tuple[float, float]:
    above = grid[weights > DUST_TOL]
    lo = float(above.min()) if above.size else 1.0
    return lo, 1.0


class _FlowGraph:
    """One player's gain-flow graph on the grid, whose unit flows are its mixed strategies.

    Nodes (g, k), grid point g with k shots left that can all still be
    fired, are numbered by g, then k, from the source (0, shots) to the
    sink (grid_n, 0), node ``nodes``; so are edges, hold (gain 1, to (g+1,
    k)) before fire (gain 1 - hit[g], to (g+1, k-1)).  A subset's path
    carries the chance that every earlier shot missed, so alive[g] is the
    layer-g flow and fire[g] hit[g] times its fire-edge flow.

    Against an opponent's expected alive profile A and fire profile F, a
    path's gain is sum_g alive[g] * (hit[g] * fires[g] * A[g] - F[g]), so
    the best gain over every path is W at the source of

        W(g, k) = max(W(g+1, k) - F[g],
                      hit[g] A[g] - F[g] + (1 - hit[g]) W(g+1, k-1))

    with W = 0 at the sink, each term read only where its edge exists.
    """

    def __init__(self, hit: np.ndarray, shots: int):
        grid_n = hit.shape[0]
        g, k = np.arange(grid_n + 1)[:, None], np.arange(shots + 1)
        valid = (k >= shots - g) & (k <= grid_n - g)
        ids = np.cumsum(valid).reshape(valid.shape) - 1
        exists = np.stack([valid[:-1] & (k < grid_n - g[:-1]), valid[:-1] & (k >= 1)], axis=2)
        self.layer, left, fired = np.nonzero(exists)
        self.hit, self.shots, self.nodes, self.fires = hit, shots, int(ids[-1, 0]), fired == 1
        self.tail, self.head = ids[self.layer, left], ids[self.layer + 1, left - fired]
        self.gain = np.where(self.fires, 1.0 - hit[self.layer], 1.0)
        self.first = np.append(True, self.tail[1:] != self.tail[:-1])

    def behaviour(self, flow: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (alive, fire) profile and per-shot time marginal of a flow's behavioural strategy.

        Each edge takes its share of its node's outflow (a node without
        outflow sends all along its first edge), played forward from the
        source: a real strategy even where an LP's flow conserves only to
        tolerance.  A player in the duel has learned nothing, so the
        marginal is the fire-edge mass with every gain 1, per shot.
        """
        out = np.bincount(self.tail, flow, self.nodes)[self.tail]
        share = np.divide(flow, out, out=self.first.astype(float), where=out > 0.0)
        # A scalar pass over the edges, which run in layer order.
        grid_n = self.hit.shape[0]
        at, plan = [1.0] + [0.0] * self.nodes, [1.0] + [0.0] * self.nodes
        alive, fire, marginal = [0.0] * grid_n, [0.0] * grid_n, [0.0] * grid_n
        edges = (a.tolist() for a in (self.layer, self.tail, self.head, self.gain, self.fires, share))
        for g, i, j, gain, fires, s in zip(*edges):
            x, y = at[i] * s, plan[i] * s
            alive[g] += x
            at[j] += gain * x
            plan[j] += y
            if fires:
                fire[g] += x
                marginal[g] += y
        return np.array(alive), self.hit * np.array(fire), np.array(marginal) / self.shots

    def best_gain(self, opp_alive: np.ndarray, opp_fire: np.ndarray, picks: list | None = None) -> float:
        """The best gain of a path against the opponent's (alive, fire) profile: W at the source.

        One backward scalar pass over the edges, read through zero-copy
        memoryviews: numpy calls on a node's two edges cost more than the
        arithmetic.  A node's fire edge comes before its hold edge, so it
        sets W there, and the hold edge replaces it unless fire is strictly
        larger: ties hold.  Every head is set before an edge reads it, so a
        sure hit never multiplies 0 by inf.  The float operations and their
        order are fixed, because solve_duel's reported value is built from
        the gain.  Given ``picks``, a list over the nodes, the pass also
        records there the edge each node's best response takes.
        """
        alive, fired, hits = (
            memoryview(np.ascontiguousarray(v, dtype=float)) for v in (opp_alive, opp_fire, self.hit)
        )
        value = [-math.inf] * self.nodes + [0.0]
        edges = (reversed(memoryview(a)) for a in (self.layer, self.tail, self.head, self.fires))
        for e, g, i, j, fires in zip(reversed(range(len(self.layer))), *edges):
            if fires:
                h = hits[g]
                value[i] = (h * alive[g] - fired[g]) + (1.0 - h) * value[j]
            else:
                hold = value[j] - fired[g]
                if value[i] > hold:
                    continue
                value[i] = hold
            if picks is not None:
                picks[i] = e
        return value[0]


def _duel_lp(rows: _FlowGraph, cols: _FlowGraph) -> _LP:
    """The sequence-form LP of the duel on its players' flow graphs.

    Against the row flow z, column flow y pays sum_e c_e y_e: c_e =
    fire_r[g] on a layer-g hold edge, fire_r[g] - q[g] alive_r[g] on a fire
    edge (discretize_duel's payoff).  Dualized, the LP maximizes u(source)
    over z and potentials u (0 at the sink): a ``<= 0`` row u_i - gain_e
    u_j - c_e(z) per column edge e = i -> j, then z's conservation rows,
    with exact zeros left out.  y is the negated duals of the edge rows.

    The start basis is block-triangular, so nonsingular, and primal
    feasible.  Its z is the row player's hold-first pure strategy: each row
    node's first edge is basic, so the flow on those edges is a unit path
    flow.  Every u is basic, and so is every edge row's slack but one per
    column node: the edge the column player's best response to that path
    takes there (best_gain's picks), where u is the least over its node's
    edges.  The primal simplex never takes a free column out of the
    basis, so every u stays basic and y conserves flow by construction.
    """
    z_cols, edge_rows = len(rows.layer), len(cols.layer)
    # Each row edge meets every column edge of its layer; column edges are numbered by layer.
    per_layer = np.bincount(cols.layer, minlength=rows.hit.shape[0])
    meets = per_layer[rows.layer]
    z_of = np.repeat(np.arange(z_cols), meets)
    g = rows.layer[z_of]
    edge_of = np.arange(len(z_of)) - np.repeat(np.cumsum(meets) - meets, meets)
    edge_of += (np.cumsum(per_layer) - per_layer)[g]
    inner, inward = cols.head < cols.nodes, rows.head < rows.nodes
    row, col, value = (np.concatenate(part) for part in zip(
        (edge_of, z_of, cols.hit[g] * cols.fires[edge_of] - rows.hit[g] * rows.fires[z_of]),
        (np.arange(edge_rows), z_cols + cols.tail, np.ones(edge_rows)),
        (np.flatnonzero(inner), z_cols + cols.head[inner], -cols.gain[inner]),
        (edge_rows + rows.tail, np.arange(z_cols), np.ones(z_cols)),
        (edge_rows + rows.head[inward], np.flatnonzero(inward), -rows.gain[inward]),
    ))
    keep = value != 0.0
    row, col, value = row[keep], col[keep], value[keep]
    num_col = z_cols + cols.nodes
    # No (row, column) pair repeats, so one key orders the entries column-wise.
    order = np.argsort(col * (edge_rows + rows.nodes) + row)
    start = np.append(0, np.cumsum(np.bincount(col, minlength=num_col))).astype(np.int32)
    cost, balance = np.zeros(num_col), np.zeros(rows.nodes)
    cost[z_cols] = -1.0  # the column source's potential, maximized
    balance[0] = 1.0
    row_alive, row_fire, _ = rows.behaviour(np.zeros(z_cols))  # no flow: every node's first edge
    picks = [0] * cols.nodes
    cols.best_gain(row_alive, row_fire, picks)
    slack = np.ones(edge_rows, dtype=bool)
    slack[picks] = False
    # A unit flow is at most 1 on every edge.  The bound is implied, and
    # the primal simplex from the start basis takes as many iterations
    # without it, but the dual simplex from the slack basis takes fewer
    # with z boxed, and y stays a best response: z's best response to y
    # satisfies it anyway.
    return _LP(
        cost, np.append(np.zeros(z_cols), np.full(cols.nodes, -np.inf)),
        np.append(np.ones(z_cols), np.full(cols.nodes, np.inf)),
        np.append(np.full(edge_rows, -np.inf), balance), np.append(np.zeros(edge_rows), balance),
        start, row[order].astype(np.int32), value[order],
        np.concatenate([rows.first, np.ones(cols.nodes, dtype=bool), slack, np.zeros(rows.nodes, dtype=bool)]),
    )


def solve_duel(spec: DuelSpec, grid_n: int) -> DuelSolution:
    """Solve the discretized duel as one sequence-form LP and report per-shot time densities.

    The game is discretize_duel's, but only _duel_lp, of O(grid_n * shots)
    size, is built and solved.  Exact best responses to the behavioural
    strategies of its row and column flows, each one backward pass over the
    responder's own graph (_FlowGraph.best_gain), bound the full game's
    value: ``lower`` is what the column player can hold the row
    strategy to, ``upper`` what the row player can get off the column
    strategy.  _saddle makes their midpoint the value and their gap the
    residual, fails a gap above SADDLE_TOL, and gives both players of a
    symmetric game (equal shots and accuracies) whichever strategy
    guarantees more.  guard_cells bounds the LP's nonzeros, and so every
    array, first.
    """
    grid_n = _check_grid(spec, grid_n)
    m, n = spec.m, spec.n
    # Per layer: m or 2m + 1 row-edge entries in each column edge's row, two
    # potentials per column edge, and two conservation entries per row edge.
    nonzeros = (n + 1) * m + n * (2 * m + 1) + 2 * (2 * n + 1) + 2 * (2 * m + 1)
    guard_cells(grid_n * nonzeros, f"the {m}-vs-{n} sequence-form LP on {grid_n} grid points")
    grid, p_hit, q_hit = _hits(spec, grid_n)
    rows, cols = _FlowGraph(p_hit, m), _FlowGraph(q_hit, n)
    symmetric = m == n and np.array_equal(p_hit, q_hit)

    def certify(x: np.ndarray, duals: np.ndarray):
        row_alive, row_fire, p1 = rows.behaviour(np.maximum(x[: len(rows.layer)], 0.0))
        col_alive, col_fire, p2 = cols.behaviour(np.maximum(-duals[: len(cols.layer)], 0.0))
        return _saddle(p1, p2, -cols.best_gain(row_alive, row_fire), rows.best_gain(col_alive, col_fire), symmetric)

    # A one-item generator, not a list: _solve_lp holds no layout while HiGHS runs.
    layouts = (_duel_lp(rows, cols) for _ in range(1))
    p1, p2, value, residual = _solve_lp(layouts, certify, "sequence-form LP")
    return DuelSolution(
        value=value,
        p1_density=MixedStrategy(p1),
        p2_density=MixedStrategy(p2),
        support_p1=_support_interval(grid, p1),
        support_p2=_support_interval(grid, p2),
        grid_n=grid_n,
        residual=residual,
    )
