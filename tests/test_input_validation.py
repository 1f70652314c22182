"""Type-garbage in documents must surface as InputError, never raw errors."""

import pytest

from tosg.decision import TosgProblem, constraint_from_dict, objective_from_dict, tosg_value
from tosg.duel import AccuracyFunction, DuelSpec, TimeVector
from tosg.errors import InputError
from tosg.game_tree import GameTree
from tosg.matrix_game import MixedStrategy, PayoffMatrix
from tosg.pipeline import ProtocolConfig
from tosg.risk import MitigatingRiskParams
from tosg.timing import kernel_from_spec


@pytest.mark.parametrize(
    "build",
    [
        lambda: PayoffMatrix([["a", "b"]]),
        lambda: MixedStrategy(["half", "half"]),
        lambda: MixedStrategy([1.0], atom_at_zero="zero"),
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
