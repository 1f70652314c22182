"""Type-garbage in documents must surface as InputError, never raw errors."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from tosg.decision import TosgProblem, constraint_from_dict, objective_from_dict, tosg_value
from tosg.duel import AccuracyFunction, DuelSpec, TimeVector
from tosg.errors import InputError
from tosg.game_tree import GameTree
from tosg.matrix_game import MixedStrategy, PayoffMatrix
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
    ],
)
def test_garbage_documents_raise_input_error(build):
    with pytest.raises(InputError):
        build()


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
