"""End-to-end decision flow: risk scores -> constraint targets -> Lagrangian
solve -> decision score imbedded into the timing kernel -> optimal timing
interval.

The imbedding is the additive potential K'(x, y) = K(x, y) + w*(g(x) - g(y)),
the simple additive form that preserves skew-symmetry exactly; the score g
defaults to the decision value along the straight path from the origin (where
solve_tosg starts) to the optimum, rescaled to [0, 1].  Both constructions are
documented conventions of this toolkit.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
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
from .errors import InputError, SolverError, StageError
from .matrix_game import _as_float_array, _as_int, _as_real, _document, _field, _json_text, _time_table
from .risk import MitigatingRiskParams, risk_mitigating
from .timing import (
    TimingKernel,
    TimingSolution,
    build_kernel,
    kernel_fn_from_spec,
    solve_timing,
)

CONSTRAINT_KEYS = ("pti", "tm", "gaa")


def imbed_objective(kernel: TimingKernel, g, weight: float) -> TimingKernel:
    """Shift the kernel by the score potential weight*(g(x) - g(y)).

    ``g`` holds the scores over the kernel grid.  The shifted kernel is
    reassembled from its upper triangle, so it stays exactly
    skew-symmetric; weight 0 or a constant score leaves the kernel
    unchanged.  A shift that overflows float64 raises SolverError.  The
    kernel's factors, if it has them, gain the potential as two terms,
    (p, 1) and (1, -p) with p = weight*g.  There g is measured from its
    least score, which leaves the potential as it is and keeps the
    factors no larger than the kernel's entries need.
    """
    weight = _as_real(weight, "imbedding weight", 0.0)
    scores = _as_float_array(g, "score values", 1)
    if scores.shape != kernel.grid.shape:
        raise InputError("score values must match the kernel grid")
    with np.errstate(over="ignore", invalid="ignore"):
        a_upper = kernel.a_upper + weight * (scores[:, None] - scores[None, :])
        potential = weight * (scores - scores.min())
    if not np.all(np.isfinite(a_upper)):
        raise SolverError("the imbedding weight * (g(x) - g(y)) overflows the kernel")
    factors = kernel.factors
    if factors is not None:
        one = np.ones_like(potential)
        factors = np.vstack([factors[0], potential, one]), np.vstack([factors[1], one, -potential])
    return TimingKernel(grid=kernel.grid, a_upper=a_upper, factors=factors)


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
        object.__setattr__(self, "dimension", _as_int(self.dimension, "dimension"))
        object.__setattr__(self, "imbed_weight", _as_real(self.imbed_weight, "lambda", 0.0))
        object.__setattr__(self, "grid_n", _as_int(self.grid_n, "grid_n"))
        object.__setattr__(self, "seed", _as_int(self.seed, "seed"))
        if self.grid_n < 3:
            raise InputError("grid_n must be at least 3")
        score = {"kind": "decision_path"} if self.score is None else self.score
        if not isinstance(score, dict) or score.get("kind") not in ("decision_path", "table"):
            raise InputError("score must be a decision_path or table document")
        if score["kind"] == "table":
            points = _field(score, "points", "table score document")
            object.__setattr__(self, "score_table", _time_table(points, "score table"))
        object.__setattr__(self, "score", score)
        # Kernel generator and grid validated eagerly so run_protocol fails fast.
        kernel_fn_from_spec(self.kernel_a)

    @classmethod
    def from_dict(cls, doc: dict) -> "ProtocolConfig":
        what = "protocol config"
        risks = _field(doc, "risks", what, dict)
        objective = objective_from_dict(_field(doc, "objective", what))
        return cls(
            risks={
                key: MitigatingRiskParams.from_dict(_field(risks, key, "risks"))
                for key in CONSTRAINT_KEYS
            },
            baselines=_field(doc, "baselines", what),
            objective=objective,
            constraints=tuple(
                constraint_from_dict(c) for c in _field(doc, "constraints", what, list)
            ),
            dimension=doc.get("dimension", objective.dimension),
            kernel_a=_field(doc, "kernel", what),
            imbed_weight=_field(doc, "lambda", what),
            grid_n=_field(doc, "grid_n", what),
            seed=_field(doc, "seed", what),
            score=doc.get("score"),
        )

    def to_dict(self) -> dict:
        return {
            "risks": {key: _document(self.risks[key]) for key in CONSTRAINT_KEYS},
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
        # Imported here, not at the top: hashlib loads OpenSSL's libcrypto
        # (about 3 MB of RSS and 3 ms), which only this hash needs.
        import hashlib

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

    def to_json(self) -> str:
        return _json_text(self)


# A value that overflows along the path leaves a non-finite score, reported once.
@np.errstate(over="ignore", invalid="ignore")
def _decision_path_scores(
    problem: TosgProblem, solution: TosgSolution, grid: np.ndarray
) -> np.ndarray:
    raw = np.array([tosg_value(problem, t * solution.d_star, solution.multipliers) for t in grid])
    lo, hi = raw.min(), raw.max()
    if hi - lo <= 0.0:
        return np.zeros_like(raw)
    scores = (raw - lo) / (hi - lo)
    if not np.all(np.isfinite(scores)):
        raise SolverError("the decision value overflows along the path t * d*")
    return scores


@contextmanager
def _stage(name: str, partial: dict):
    """Re-raise a failure inside the block as StageError(name, copy of partial)."""
    try:
        yield
    except Exception as exc:
        raise StageError(name, dict(partial), exc) from exc


def run_protocol(config: ProtocolConfig) -> ProtocolReport:
    """Execute the staged flow; deterministic for a fixed config.

    A failing stage raises StageError carrying the stage tag and every
    completed stage's partial results.
    """
    partial: dict = {}
    with _stage("risk", partial):
        partial["risk_scores"] = risk_scores = {
            key: risk_mitigating(config.risks[key]) for key in CONSTRAINT_KEYS
        }

    with _stage("targets", partial):
        partial["targets"] = targets = constraint_targets_from_risk(
            config.risks["pti"], config.risks["tm"], config.risks["gaa"], config.baselines
        )

    with _stage("decision", partial):
        problem = TosgProblem(
            objective=config.objective,
            constraints=config.constraints,
            targets=targets,
            dimension=config.dimension,
        )
        partial["tosg"] = tosg_solution = solve_tosg(problem)

    with _stage("kernel", partial):
        base_kernel = build_kernel(kernel_fn_from_spec(config.kernel_a), config.grid_n)

    with _stage("score", partial):
        if config.score_table is None:
            scores = _decision_path_scores(problem, tosg_solution, base_kernel.grid)
        else:
            scores = np.interp(base_kernel.grid, *zip(*config.score_table))
    partial["score"] = scores

    with _stage("imbed", partial):
        imbedded = imbed_objective(base_kernel, scores, config.imbed_weight)
    partial["kernel_summary"] = kernel_summary = {
        "kind": config.kernel_a.get("kind"),
        "grid_n": config.grid_n,
        "lambda": config.imbed_weight,
        "skew_symmetric": True,  # TimingKernel.matrix is built as U - U.T
        "max_abs_entry": float(np.abs(imbedded.matrix).max()),
    }

    with _stage("timing", partial):
        partial["timing"] = timing_solution = solve_timing(imbedded)

    return ProtocolReport(
        risk_scores=risk_scores,
        targets=targets,
        tosg=tosg_solution,
        kernel_summary=kernel_summary,
        timing=timing_solution,
        optimal_timing_interval=(timing_solution.support_lo, 1.0),
        decision_score=tosg_solution.tosg_value,
        provenance={"config_sha256": config.sha256(), "seed": config.seed},
    )
