"""Minimax game trees and the aiming-and-evasion game.

The evasion game: the evader picks a move parameter x in [0, 1] which sends
it to one of three positions with probabilities (1-x)^2, x, and x(1-x); the
marksman then aims at a single position.  The evader minimizes the largest
reach probability, the marksman maximizes his hit chance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .matrix_game import MASS_TOL, MixedStrategy, _as_float_array, _as_real, _field

_NODE_KINDS = ("leaf", "max", "min", "chance")


@dataclass(frozen=True)
class GameTree:
    """Immutable tree node: leaf payoff, max/min choice, or chance move."""

    kind: str
    payoff: float | None = None
    children: tuple["GameTree", ...] = ()
    probs: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in _NODE_KINDS:
            raise InputError(f"unknown node kind {self.kind!r}")
        object.__setattr__(self, "children", tuple(self.children))
        if self.kind == "leaf":
            if self.payoff is None:
                raise InputError("leaf node needs a finite payoff")
            payoff = _as_real(self.payoff, "leaf payoff")
            if self.children or self.probs is not None:
                raise InputError("leaf node cannot have children")
            object.__setattr__(self, "payoff", payoff)
            return
        if self.payoff is not None:
            raise InputError(f"{self.kind} node cannot carry a payoff")
        if not self.children:
            raise InputError(f"{self.kind} node needs at least one child")
        if any(not isinstance(c, GameTree) for c in self.children):
            raise InputError("children must be GameTree nodes")
        if self.kind == "chance":
            if self.probs is None:
                raise InputError("chance node needs probabilities")
            probs = tuple(_as_float_array(self.probs, "chance probabilities", 1).tolist())
            if len(probs) != len(self.children):
                raise InputError("one probability per child required")
            if any(p < 0.0 for p in probs):
                raise InputError("chance probabilities must be nonnegative")
            if abs(sum(probs) - 1.0) > MASS_TOL:
                raise InputError("chance probabilities must sum to 1")
            object.__setattr__(self, "probs", probs)
        elif self.probs is not None:
            raise InputError(f"{self.kind} node cannot carry probabilities")

    @classmethod
    def leaf(cls, payoff: float) -> "GameTree":
        return cls("leaf", payoff=payoff)

    @classmethod
    def max_node(cls, *children: "GameTree") -> "GameTree":
        return cls("max", children=children)

    @classmethod
    def min_node(cls, *children: "GameTree") -> "GameTree":
        return cls("min", children=children)

    @classmethod
    def chance(cls, children, probs) -> "GameTree":
        return cls("chance", children=tuple(children), probs=tuple(probs))

    @classmethod
    def from_dict(cls, doc: dict) -> "GameTree":
        kind = _field(doc, "kind", "tree document")
        if kind == "leaf":
            return cls.leaf(_field(doc, "payoff", "leaf document"))
        what = f"{kind!r} node"
        children = tuple(cls.from_dict(c) for c in _field(doc, "children", what, list))
        if kind == "chance":
            return cls.chance(children, _field(doc, "probs", what, list))
        return cls(kind, children=children)


def evaluate_tree(tree: GameTree) -> float:
    """Backward-induction value: max/min over choices, expectation at chance."""
    if not isinstance(tree, GameTree):
        raise InputError("evaluate_tree expects a GameTree")
    if tree.kind == "leaf":
        return tree.payoff
    values = [evaluate_tree(c) for c in tree.children]
    if tree.kind == "max":
        return max(values)
    if tree.kind == "min":
        return min(values)
    return float(sum(p * v for p, v in zip(tree.probs, values)))


@dataclass(frozen=True)
class EvasionSolution:
    x_star: float
    value: float
    marksman_position: int
    reach_probs: tuple[float, float, float]


def evader_reach_probs(x: float) -> tuple[float, float, float]:
    """Probabilities ((1-x)^2, x, x(1-x)) of reaching the three positions.

    The third entry is the complement of the first two, so the triple sums
    to 1.0 exactly in floating point: p1 + p2 >= 3/4, so by Sterbenz's
    lemma 1 - (p1 + p2) is exact.  And p1 + p2 never rounds past 1, so p3
    is never negative.  For x >= 1/2, 1 - x is exact and p1 <= 1 - x, as
    (1-x)^2 <= 1 - x and rounding is monotone.  For x < 1/2, y = 1 - x
    rounds to 1 - x + e with |e| <= 2**-54 and y >= 1/2, so p1 <= y*y +
    2**-54 <= 1 - 3x/2 + 3e/2 + 2**-54, and p1 + x <= 1 - x/2 + 2.5 * 2**-54:
    once x >= 2**-54 that is within the 2**-53 above 1 that rounds back to
    1.  Below 2**-54, 1 - x rounds to 1, and so does 1 + x.
    """
    x = _as_real(x, "move parameter", 0.0, 1.0)
    p1 = (1.0 - x) * (1.0 - x)
    p2 = x
    p3 = 1.0 - (p1 + p2)
    return p1, p2, p3


def marksman_best(x: float) -> tuple[int, float]:
    """Position (1-based) with the largest reach probability, ties low."""
    probs = evader_reach_probs(x)
    best = max(range(3), key=lambda i: (probs[i], -i))
    return best + 1, probs[best]


def solve_evasion_game() -> EvasionSolution:
    """The evader's optimum x* = (3 - sqrt(5))/2, where (1-x)^2 = x.

    The first reach probability falls and the second rises in x, and the
    third, x(1-x), never exceeds the second, so the largest of the three is
    smallest where the first two cross: the root of x^2 - 3x + 1 in [0, 1].
    """
    x_star = (3.0 - math.sqrt(5.0)) / 2.0
    position, value = marksman_best(x_star)
    return EvasionSolution(
        x_star=x_star,
        value=value,
        marksman_position=position,
        reach_probs=evader_reach_probs(x_star),
    )


def _continuous_guarantee(sigma: np.ndarray) -> float:
    # min over x in [0,1] of s1(1-x)^2 + s2 x + s3 x(1-x): a quadratic.
    s1, s2, s3 = sigma
    a = s1 - s3
    b = -2.0 * s1 + s2 + s3
    candidates = [0.0, 1.0]
    if a > 0.0:
        vertex = -b / (2.0 * a)
        if 0.0 < vertex < 1.0:
            candidates.append(vertex)
    return float(min(a * x * x + b * x + s1 for x in candidates))


def marksman_strategy() -> tuple[MixedStrategy, float]:
    """The marksman's optimal mix (1/sqrt(5), 1 - 1/sqrt(5), 0) and its guarantee.

    Aiming at the first two positions with weights s1 and 1 - s1 pays
    s1 (1-x)^2 + (1 - s1) x against the evader; the mix is optimal when that
    quadratic is smallest at x*, i.e. 1 - s1 = 2 s1 (1 - x*), so
    s1 = 1/sqrt(5), and it then pays x* = V.  The guarantee is evaluated
    against the continuous evader in closed form.
    """
    s1 = 1.0 / math.sqrt(5.0)
    weights = np.array([s1, 1.0 - s1, 0.0])
    return MixedStrategy(weights), _continuous_guarantee(weights)
