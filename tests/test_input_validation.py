"""Type-garbage in documents must surface as InputError, never raw errors."""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tosg.decision import (
    AffineObjective,
    CoordinateConstraint,
    TosgProblem,
    constraint_from_dict,
    objective_from_dict,
    solve_tosg,
    tosg_value,
)
from tosg.duel import AccuracyFunction, DuelSpec, TimeVector, simulate_duel, solve_duel
from tosg.errors import InputError
from tosg.game_tree import GameTree, evader_reach_probs, evaluate_tree
from tosg.matrix_game import MixedStrategy, PayoffMatrix, solve_fictitious_play
from tosg.pipeline import ProtocolConfig, imbed_objective
from tosg.risk import MitigatingRiskParams
from tosg.timing import TimingKernel, build_kernel, duel_kernel_fn, kernel_from_spec

GOLDEN_CONFIG = json.loads(
    (Path(__file__).parent / "data" / "golden_protocol_config.json").read_text()
)
KERNEL = build_kernel(duel_kernel_fn, 5)
DUEL = {"m": 1, "n": 1, "p": {"kind": "identity"}, "q": {"kind": "identity"}}
TOSG = {
    "objective": {"kind": "affine", "c": [1, 1, 1]},
    "constraints": [{"kind": "coord", "index": i} for i in range(3)],
    "targets": [0.0, 0.0, 0.0],
}
IDENTITY = AccuracyFunction.identity()


def coordinate_problem(*indices) -> TosgProblem:
    return TosgProblem(AffineObjective([1.0, 1.0, 1.0]), tuple(map(CoordinateConstraint, indices)), (0.0, 0.0, 0.0), 3)


@pytest.mark.parametrize(
    "build",
    [
        lambda: PayoffMatrix([["a", "b"]]),
        lambda: MixedStrategy(["half", "half"]),
        lambda: TimeVector(["soon"]),
        lambda: AccuracyFunction.table([[0, 0], ["mid", 0.5], [1, 1]]),
        lambda: DuelSpec.from_dict({"m": "two", "n": 1, "p": {"kind": "identity"}, "q": {"kind": "identity"}}),
        lambda: GameTree.leaf("big"),
        lambda: GameTree.chance([GameTree.leaf(1.0)], ["all"]),
        lambda: kernel_from_spec({"A": {"kind": "duel"}, "grid_n": "many"}),
        lambda: kernel_from_spec({"A": {"kind": "affine", "cx": "x", "cy": 0, "cxy": 0, "c0": 0}, "grid_n": 11}),
        lambda: MitigatingRiskParams(pi="p", pn=0.5, ce=1.0),
        lambda: objective_from_dict({"kind": "quadratic", "q": ["q"], "c": [0.0]}),
        lambda: constraint_from_dict({"kind": "coord", "index": "first"}),
        lambda: objective_from_dict({"kind": "affine", "c": [1, 1, 1], "b": "x"}),
        lambda: constraint_from_dict({"kind": "affine", "a": [1, 1, 1], "b": [1, 2]}),
        lambda: TosgProblem.from_dict(
            {
                "objective": {"kind": "affine", "c": [1, 1, 1]},
                "constraints": [{"kind": "coord", "index": i} for i in range(3)],
                "targets": ["low", "mid", "high"],
            }
        ),
        lambda: ProtocolConfig.from_dict({"risks": "none"}),
        lambda: MitigatingRiskParams(pi=0.5, pn=0.5, ce=10**400),  # overflows float
        # integer fields: inf (JSON 1e400), fractions, booleans and strings
        lambda: DuelSpec.from_dict({**DUEL, "m": math.inf}),
        lambda: DuelSpec.from_dict({**DUEL, "m": 2.7}),
        lambda: DuelSpec.from_dict({**DUEL, "m": True}),
        lambda: kernel_from_spec({"A": {"kind": "duel"}, "grid_n": math.inf}),
        lambda: PayoffMatrix.from_dict({"rows": math.inf, "entries": [[3, 1]]}),
        lambda: PayoffMatrix.from_dict({"rows": 1.5, "entries": [[3, 1]]}),
        lambda: PayoffMatrix.from_dict({"rows": True, "entries": [[3, 1]]}),
        lambda: PayoffMatrix.from_dict({"cols": "2", "entries": [[3, 1]]}),
        lambda: constraint_from_dict({"kind": "coord", "index": math.inf}),
        lambda: TosgProblem.from_dict({**TOSG, "dimension": math.inf}),
        lambda: ProtocolConfig.from_dict({**GOLDEN_CONFIG, "grid_n": math.inf}),
        lambda: ProtocolConfig.from_dict({**GOLDEN_CONFIG, "seed": math.inf}),
        lambda: ProtocolConfig.from_dict({**GOLDEN_CONFIG, "grid_n": 21.5}),
        # containers of the wrong type, and the one tie rule
        lambda: GameTree.from_dict({"kind": "max", "children": 5}),
        lambda: GameTree.from_dict({"kind": "chance", "children": [{"kind": "leaf", "payoff": 1}], "probs": 5}),
        lambda: DuelSpec.from_dict({**DUEL, "tie_rule": "sequential"}),
        # an accuracy evaluated at NaN
        lambda: AccuracyFunction.identity()(float("nan")),
        # a timing kernel whose grid is not a vector, or whose arrays are not numeric
        lambda: TimingKernel(grid=0.5, a_upper=[[0.0]]),
        lambda: TimingKernel(grid=["0", "half", "1"], a_upper=np.zeros((3, 3))),
        lambda: TimingKernel(grid=np.linspace(0.0, 1.0, 3), a_upper=[["x"] * 3] * 3),
        # real-valued fields: numeric strings and booleans are not numbers
        lambda: PayoffMatrix.from_dict({"entries": [["1", "2"], ["3", "4"]]}),
        lambda: PayoffMatrix.from_dict({"entries": [[True, False], [False, True]]}),
        lambda: PayoffMatrix([[1.0, True]]),
        lambda: PayoffMatrix(np.array([[True, False]])),
        lambda: PayoffMatrix([[np.True_, 1.0]]),
        lambda: ProtocolConfig.from_dict({**GOLDEN_CONFIG, "lambda": "0.25"}),
        lambda: ProtocolConfig.from_dict({**GOLDEN_CONFIG, "lambda": True}),
        lambda: DuelSpec.from_dict({**DUEL, "p": {"kind": "power", "k": "2"}}),
        lambda: TimeVector(["0.5"]),
        lambda: MitigatingRiskParams.from_dict({"pi": True, "pn": 0.5, "ce": 1.0}),
        lambda: imbed_objective(KERNEL, KERNEL.grid, "0.25"),
        lambda: imbed_objective(KERNEL, KERNEL.grid, True),
        lambda: imbed_objective(KERNEL, KERNEL.grid, np.True_),
        # library constructors check what documents check
        lambda: CoordinateConstraint(2.5).value(np.zeros(3)),
        lambda: solve_tosg(coordinate_problem(True, 1, 2)),
        lambda: build_kernel(duel_kernel_fn, 21.5),
        lambda: DuelSpec(1.5, 1, IDENTITY, IDENTITY),
        lambda: simulate_duel(DuelSpec(1, 1, IDENTITY, IDENTITY), [0.5], [0.6], trials=1000.5, seed=1),
        lambda: simulate_duel(DuelSpec(1, 1, IDENTITY, IDENTITY), [0.5], [0.6], trials=1000, seed=1.5),
        lambda: solve_fictitious_play(PayoffMatrix([[0.0, 1.0], [1.0, 0.0]]), 10.5),
        lambda: solve_duel(DuelSpec(1, 1, IDENTITY, IDENTITY), "11"),
        lambda: evader_reach_probs("0.5"),
        lambda: evader_reach_probs(True),
        lambda: replace(ProtocolConfig.from_dict(GOLDEN_CONFIG), imbed_weight="0.25"),
        lambda: replace(ProtocolConfig.from_dict(GOLDEN_CONFIG), grid_n=21.5),
        # each constructor's own checks, built directly
        lambda: GameTree("leaf", payoff=1.0, children=(GameTree.leaf(0.0),)),
        lambda: GameTree("max", payoff=1.0, children=(GameTree.leaf(0.0),)),
        lambda: GameTree("min", children=("leaf",)),
        lambda: GameTree("chance", children=(GameTree.leaf(0.0),)),
        lambda: GameTree("max", children=(GameTree.leaf(0.0),), probs=(1.0,)),
        lambda: evaluate_tree({"kind": "leaf", "payoff": 1.0}),
        lambda: AccuracyFunction("power", k=2.0, points=((0.0, 0.0), (1.0, 1.0))),
        lambda: AccuracyFunction("cubic"),
        lambda: IDENTITY(["soon"]),
        lambda: solve_duel(DuelSpec(1, 1, IDENTITY, IDENTITY), 1),
        lambda: TimingKernel(grid=[0.0, 1.0], a_upper=np.zeros((2, 2))),
        lambda: TimingKernel(grid=[0.0, 0.7, 0.5, 1.0], a_upper=np.zeros((4, 4))),
        lambda: TimingKernel(grid=[0.0, 0.5, 1.0], a_upper=np.zeros((3, 4))),
        lambda: AccuracyFunction.table([[0.0, 0.0]]),
        lambda: MixedStrategy([]),
        lambda: replace(ProtocolConfig.from_dict(GOLDEN_CONFIG), risks={}),
        lambda: ProtocolConfig.from_dict({**GOLDEN_CONFIG, "score": {"kind": "table"}}),
    ],
)
def test_garbage_documents_raise_input_error(build):
    with pytest.raises(InputError):
        build()


def test_library_constructors_read_integral_floats_as_documents_do():
    assert CoordinateConstraint(2.0).value(np.array([0.0, 0.0, 7.0])) == 7.0
    assert solve_tosg(coordinate_problem(0.0, 1.0, 2.0)).d_star.tolist() == [0.0, 0.0, 0.0]
    assert solve_tosg(replace(coordinate_problem(0, 1, 2), dimension=3.0)).d_star.tolist() == [0.0, 0.0, 0.0]
    assert build_kernel(duel_kernel_fn, 21.0).grid_n == 21
    assert solve_duel(DuelSpec(1.0, 1.0, IDENTITY, IDENTITY), 11.0).grid_n == 11
    spec = DuelSpec(1, 1, IDENTITY, IDENTITY)
    assert simulate_duel(spec, [0.5], [0.6], 1000.0, 7.0) == simulate_duel(spec, [0.5], [0.6], 1000, 7)
    config = ProtocolConfig.from_dict(GOLDEN_CONFIG)
    integral = replace(config, imbed_weight=1, grid_n=21.0)
    assert integral.sha256() == replace(config, imbed_weight=1.0, grid_n=21).sha256()
    assert integral.sha256() == ProtocolConfig.from_dict({**GOLDEN_CONFIG, "lambda": 1, "grid_n": 21.0}).sha256()


def test_tosg_value_rejects_garbage_multipliers():
    problem = TosgProblem.from_dict(
        {
            "objective": {"kind": "affine", "c": [1.0, 1.0, 1.0]},
            "constraints": [{"kind": "coord", "index": i} for i in range(3)],
            "targets": [0.0, 0.0, 0.0],
        }
    )
    with pytest.raises(InputError):
        tosg_value(problem, [0.0, 0.0, 0.0], ("a", "b", "c"))
    with pytest.raises(InputError):
        tosg_value(problem, ["x", 0.0, 0.0], (0.0, 0.0, 0.0))
