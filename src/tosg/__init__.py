"""Tactical game-theory toolkit.

Zero-sum matrix games, silent duels, minimax game trees, skew-symmetric
games of timing, risk scoring, and a Lagrangian decision equation, composed
into a deterministic decision pipeline.
"""

__version__ = "0.1.0"

from .decision import (
    AffineConstraint,
    AffineObjective,
    CoordinateConstraint,
    QuadraticObjective,
    TosgProblem,
    TosgSolution,
    constraint_targets_from_risk,
    solve_tosg,
    tosg_value,
)
from .duel import (
    AccuracyFunction,
    DuelSolution,
    DuelSpec,
    TimeVector,
    discretize_duel,
    duel_payoff,
    simulate_duel,
    solve_duel,
)
from .errors import (
    ConvergenceError,
    DegenerateProblemError,
    InputError,
    ResourceLimitError,
    SolverError,
    StageError,
    TosgError,
)
from .game_tree import (
    EvasionSolution,
    GameTree,
    evader_reach_probs,
    evaluate_tree,
    marksman_best,
    marksman_strategy,
    solve_evasion_game,
)
from .matrix_game import (
    GameSolution,
    MixedStrategy,
    PayoffMatrix,
    solve_exact,
    solve_fictitious_play,
)
from .pipeline import ProtocolConfig, ProtocolReport, imbed_objective, run_protocol
from .risk import EconomicRiskParams, MitigatingRiskParams, risk_economic, risk_mitigating
from .timing import (
    BoundaryClass,
    TimingKernel,
    TimingSolution,
    build_kernel,
    classify_boundary,
    kernel_from_spec,
    solve_timing,
    spectrum,
    verify_optimality,
)

__all__ = [name for name in dir() if not name.startswith("_")]
