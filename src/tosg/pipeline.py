"""End-to-end decision flow: risk scores -> constraint targets -> Lagrangian
solve -> decision score imbedded into the timing kernel -> optimal timing
interval.

The imbedding is the additive potential K'(x, y) = K(x, y) + w*(g(x) - g(y)),
the simple additive form that preserves skew-symmetry exactly; the score g
defaults to the decision value along the straight path from the solver start
to the optimum, rescaled to [0, 1].  Both constructions are documented
conventions of this toolkit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .decision import (
    TosgProblem,
    TosgSolution,
    constraint_from_dict,
    constraint_targets_from_risk,
    finite_triple,
    objective_from_dict,
    solve_tosg,
    tosg_value,
)
from .errors import InputError, StageError
from .matrix_game import _time_table
from .risk import MitigatingRiskParams, risk_mitigating
from .timing import (
    TimingKernel,
    TimingSolution,
    build_kernel,
    kernel_fn_from_spec,
    kernel_from_upper,
    solve_timing,
)

CONSTRAINT_KEYS = ("pti", "tm", "gaa")


def imbed_objective(kernel: TimingKernel, g, weight: float) -> TimingKernel:
    """Shift the kernel by the score potential weight*(g(x) - g(y)).

    ``g`` is a callable on [0, 1] or an array of scores over the kernel
    grid.  The shifted kernel is reassembled from its upper triangle, so it
    stays exactly skew-symmetric; weight 0 or a constant score leaves the
    kernel unchanged.
    """
    weight = float(weight)
    if not np.isfinite(weight) or weight < 0.0:
        raise InputError("imbedding weight must be finite and nonnegative")
    try:
        if callable(g):
            scores = np.asarray([g(t) for t in kernel.grid], dtype=float)
        else:
            scores = np.asarray(g, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"score function did not produce numbers: {exc}") from None
    if scores.shape != kernel.grid.shape:
        raise InputError("score values must match the kernel grid")
    if not np.all(np.isfinite(scores)):
        raise InputError("score function must be finite on the grid")
    delta = weight * (scores[:, None] - scores[None, :])
    return kernel_from_upper(kernel.grid, kernel.a_upper + delta)


@dataclass(frozen=True, eq=False)
class ProtocolConfig:
    """Everything one pipeline run depends on; hashable as one document."""

    risks: dict  # constraint key -> MitigatingRiskParams
    baselines: tuple[float, float, float]
    objective: object
    constraints: tuple
    dimension: int
    kernel_a: dict
    imbed_weight: float
    grid_n: int
    seed: int
    score: dict | None = None
    # (t, value) pairs of a table score, parsed once from ``score``.
    score_table: tuple | None = field(default=None, init=False)

    def __post_init__(self):
        if set(self.risks) != set(CONSTRAINT_KEYS):
            raise InputError(f"risks must have exactly the keys {CONSTRAINT_KEYS}")
        object.__setattr__(self, "baselines", finite_triple(self.baselines, "baselines"))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if not np.isfinite(self.imbed_weight) or self.imbed_weight < 0.0:
            raise InputError("imbedding weight must be finite and nonnegative")
        if self.grid_n < 3:
            raise InputError("grid_n must be at least 3")
        score = self.score or {"kind": "decision_path"}
        if not isinstance(score, dict) or score.get("kind") not in ("decision_path", "table"):
            raise InputError("score must be a decision_path or table document")
        if score["kind"] == "table":
            object.__setattr__(self, "score_table", _time_table(score.get("points"), "score table"))
        object.__setattr__(self, "score", score)
        # Kernel generator and grid validated eagerly so run_protocol fails fast.
        kernel_fn_from_spec(self.kernel_a)

    @classmethod
    def from_dict(cls, doc: dict) -> "ProtocolConfig":
        if not isinstance(doc, dict):
            raise InputError("protocol config must be a JSON object")
        try:
            risks = {
                key: MitigatingRiskParams.from_dict(doc["risks"][key])
                for key in CONSTRAINT_KEYS
            }
            baselines = tuple(doc["baselines"])
            objective = objective_from_dict(doc["objective"])
            constraints = tuple(constraint_from_dict(c) for c in doc["constraints"])
            kernel_a = doc["kernel"]
            imbed_weight = float(doc["lambda"])
            grid_n = int(doc["grid_n"])
            seed = int(doc["seed"])
        except (TypeError, KeyError, ValueError) as exc:
            if isinstance(exc, InputError):
                raise
            raise InputError(f"bad protocol config: {exc}") from None
        try:
            dimension = int(doc.get("dimension", getattr(objective, "dimension", 0)))
        except (TypeError, ValueError):
            raise InputError("dimension must be an integer") from None
        return cls(
            risks=risks,
            baselines=baselines,
            objective=objective,
            constraints=constraints,
            dimension=dimension,
            kernel_a=kernel_a,
            imbed_weight=imbed_weight,
            grid_n=grid_n,
            seed=seed,
            score=doc.get("score"),
        )

    def to_dict(self) -> dict:
        return {
            "risks": {key: self.risks[key].to_dict() for key in CONSTRAINT_KEYS},
            "baselines": list(self.baselines),
            "objective": self.objective.to_dict(),
            "constraints": [c.to_dict() for c in self.constraints],
            "dimension": self.dimension,
            "kernel": self.kernel_a,
            "lambda": self.imbed_weight,
            "grid_n": self.grid_n,
            "seed": self.seed,
            "score": self.score,
        }

    def sha256(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True, eq=False)
class ProtocolReport:
    risk_scores: dict
    targets: tuple[float, float, float]
    tosg: TosgSolution
    kernel_summary: dict
    timing: TimingSolution
    optimal_timing_interval: tuple[float, float]
    decision_score: float
    provenance: dict

    def to_dict(self) -> dict:
        return {
            "risk_scores": dict(self.risk_scores),
            "targets": list(self.targets),
            "tosg": self.tosg.to_dict(),
            "kernel_summary": dict(self.kernel_summary),
            "timing": self.timing.to_dict(),
            "optimal_timing_interval": list(self.optimal_timing_interval),
            "decision_score": self.decision_score,
            "provenance": dict(self.provenance),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _decision_path_scores(
    problem: TosgProblem, solution: TosgSolution, grid: np.ndarray
) -> np.ndarray:
    start = np.zeros(problem.dimension)
    raw = np.array(
        [
            tosg_value(problem, (1.0 - t) * start + t * solution.d_star, solution.multipliers)
            for t in grid
        ]
    )
    lo, hi = raw.min(), raw.max()
    if hi - lo <= 0.0:
        return np.zeros_like(raw)
    return (raw - lo) / (hi - lo)


def run_protocol(config: ProtocolConfig) -> ProtocolReport:
    """Execute the staged flow; deterministic for a fixed config.

    A failing stage raises StageError carrying the stage tag and every
    completed stage's partial results.
    """
    partial: dict = {}

    def stage(name, fn):
        try:
            return fn()
        except Exception as exc:
            raise StageError(name, dict(partial), exc) from exc

    def stage_risk():
        return {key: risk_mitigating(config.risks[key]) for key in CONSTRAINT_KEYS}

    risk_scores = stage("risk", stage_risk)
    partial["risk_scores"] = risk_scores

    def stage_targets():
        return constraint_targets_from_risk(
            config.risks["pti"], config.risks["tm"], config.risks["gaa"], config.baselines
        )

    targets = stage("targets", stage_targets)
    partial["targets"] = targets

    def stage_decision():
        problem = TosgProblem(
            objective=config.objective,
            constraints=config.constraints,
            targets=targets,
            dimension=config.dimension,
        )
        return problem, solve_tosg(problem)

    problem, tosg_solution = stage("decision", stage_decision)
    partial["tosg"] = tosg_solution

    def stage_kernel():
        return build_kernel(kernel_fn_from_spec(config.kernel_a), config.grid_n)

    base_kernel = stage("kernel", stage_kernel)

    def stage_score():
        if config.score_table is not None:
            ts, vs = zip(*config.score_table)
            return np.interp(base_kernel.grid, ts, vs)
        return _decision_path_scores(problem, tosg_solution, base_kernel.grid)

    scores = stage("score", stage_score)
    partial["score"] = scores

    def stage_imbed():
        return imbed_objective(base_kernel, scores, config.imbed_weight)

    imbedded = stage("imbed", stage_imbed)
    kernel_summary = {
        "kind": config.kernel_a.get("kind"),
        "grid_n": config.grid_n,
        "lambda": config.imbed_weight,
        "skew_symmetric": True,  # TimingKernel.matrix is built as U - U.T
        "max_abs_entry": float(np.abs(imbedded.matrix).max()),
    }
    partial["kernel_summary"] = kernel_summary

    timing_solution = stage("timing", lambda: solve_timing(imbedded))
    partial["timing"] = timing_solution

    return ProtocolReport(
        risk_scores=risk_scores,
        targets=targets,
        tosg=tosg_solution,
        kernel_summary=kernel_summary,
        timing=timing_solution,
        optimal_timing_interval=(timing_solution.support_lo, 1.0),
        decision_score=tosg_value(problem, tosg_solution.d_star, tosg_solution.multipliers),
        provenance={"config_sha256": config.sha256(), "seed": config.seed},
    )
