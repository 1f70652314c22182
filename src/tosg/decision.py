"""Lagrangian allocation decision with three risk-derived equality targets.

The decision score of a vector d under multipliers (alpha, beta, gamma) is

    objective(d) + alpha*(c1(d) - t1) + beta*(c2(d) - t2) + gamma*(c3(d) - t3)

and the solver finds the stationary feasible point of that expression by
Newton iteration on the KKT system.  Objectives and constraints are
pluggable: anything exposing value/gradient/hessian works, with affine and
diagonal-quadratic built-ins provided.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, DegenerateProblemError, InputError, SolverError
from .matrix_game import _as_float_array, _as_int, _as_real, _field
from .risk import MitigatingRiskParams, risk_mitigating

# solve_tosg's Newton iteration: both KKT residuals within _KKT_TOL in at most _MAX_STEPS.
_KKT_TOL = 1e-10
_MAX_STEPS = 50


def finite_triple(values, name: str) -> tuple[float, float, float]:
    """Exactly three finite numbers, as a tuple of floats."""
    arr = _as_float_array(values, name, 1)
    if arr.shape != (3,):
        raise InputError(f"three finite {name} are required")
    return tuple(arr.tolist())


@dataclass(frozen=True, eq=False)
class QuadraticObjective:
    """sum_i quad_i * d_i^2 + lin_i * d_i."""

    quad: np.ndarray
    lin: np.ndarray

    def __post_init__(self):
        quad = _as_float_array(self.quad, "quadratic coefficients", 1)
        lin = _as_float_array(self.lin, "linear coefficients", 1)
        if quad.shape != lin.shape:
            raise InputError("quadratic and linear coefficients need matching shapes")
        object.__setattr__(self, "quad", quad)
        object.__setattr__(self, "lin", lin)

    @property
    def dimension(self) -> int:
        return self.quad.shape[0]

    def value(self, d: np.ndarray) -> float:
        return float(self.quad @ (d * d) + self.lin @ d)

    def gradient(self, d: np.ndarray) -> np.ndarray:
        return 2.0 * self.quad * d + self.lin

    def hessian(self, d: np.ndarray) -> np.ndarray:
        return np.diag(2.0 * self.quad)

    def to_dict(self) -> dict:
        return {"kind": "quadratic", "q": self.quad.tolist(), "c": self.lin.tolist()}


@dataclass(frozen=True, eq=False)
class AffineObjective:
    """sum_i lin_i * d_i + offset."""

    lin: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "lin", _as_float_array(self.lin, "affine coefficients", 1))
        object.__setattr__(self, "offset", _as_real(self.offset, "affine offset"))

    @property
    def dimension(self) -> int:
        return self.lin.shape[0]

    def value(self, d: np.ndarray) -> float:
        return float(self.lin @ d) + self.offset

    def gradient(self, d: np.ndarray) -> np.ndarray:
        return self.lin.copy()

    def hessian(self, d: np.ndarray) -> np.ndarray:
        return np.zeros((self.dimension, self.dimension))

    def to_dict(self) -> dict:
        return {"kind": "affine", "c": self.lin.tolist(), "b": self.offset}


@dataclass(frozen=True)
class CoordinateConstraint:
    """Picks out a single decision coordinate."""

    index: int

    def __post_init__(self):
        object.__setattr__(self, "index", _as_int(self.index, "coordinate index"))
        if self.index < 0:
            raise InputError("coordinate index must be nonnegative")

    def value(self, d: np.ndarray) -> float:
        return float(d[self.index])

    def gradient(self, d: np.ndarray) -> np.ndarray:
        g = np.zeros(d.shape[0])
        g[self.index] = 1.0
        return g

    def hessian(self, d: np.ndarray) -> np.ndarray:
        return np.zeros((d.shape[0], d.shape[0]))

    def to_dict(self) -> dict:
        return {"kind": "coord", "index": self.index}


@dataclass(frozen=True, eq=False)
class AffineConstraint:
    """a . d + b."""

    a: np.ndarray
    b: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "a", _as_float_array(self.a, "constraint coefficients", 1))
        object.__setattr__(self, "b", _as_real(self.b, "constraint offset"))

    def value(self, d: np.ndarray) -> float:
        return float(self.a @ d) + self.b

    def gradient(self, d: np.ndarray) -> np.ndarray:
        return self.a.copy()

    def hessian(self, d: np.ndarray) -> np.ndarray:
        return np.zeros((d.shape[0], d.shape[0]))

    def to_dict(self) -> dict:
        return {"kind": "affine", "a": self.a.tolist(), "b": self.b}


def objective_from_dict(doc: dict):
    kind = _field(doc, "kind", "objective document")
    if kind == "quadratic":
        what = "quadratic objective document"
        return QuadraticObjective(quad=_field(doc, "q", what), lin=_field(doc, "c", what))
    if kind == "affine":
        lin = _field(doc, "c", "affine objective document")
        return AffineObjective(lin=lin, offset=doc.get("b", 0.0))
    raise InputError(f"unknown objective kind {kind!r}")


def constraint_from_dict(doc: dict):
    kind = _field(doc, "kind", "constraint document")
    if kind == "coord":
        return CoordinateConstraint(index=_field(doc, "index", "coordinate constraint document"))
    if kind == "affine":
        a = _field(doc, "a", "affine constraint document")
        return AffineConstraint(a=a, b=doc.get("b", 0.0))
    raise InputError(f"unknown constraint kind {kind!r}")


@dataclass(frozen=True, eq=False)
class TosgProblem:
    """Objective, exactly three constraints, and their equality targets."""

    objective: object
    constraints: tuple
    targets: tuple[float, float, float]
    dimension: int

    def __post_init__(self):
        object.__setattr__(self, "dimension", _as_int(self.dimension, "dimension"))
        if self.dimension < 3:
            raise InputError("decision dimension must be at least 3")
        constraints = tuple(self.constraints)
        if len(constraints) != 3:
            raise InputError("exactly three constraints are required")
        targets = finite_triple(self.targets, "targets")
        obj_dim = getattr(self.objective, "dimension", None)
        if obj_dim is not None and obj_dim != self.dimension:
            raise InputError(f"objective dimension {obj_dim} != problem dimension {self.dimension}")
        for c in constraints:
            idx = getattr(c, "index", None)
            if idx is not None and idx >= self.dimension:
                raise InputError(f"constraint index {idx} out of range")
            a = getattr(c, "a", None)
            if a is not None and a.shape[0] != self.dimension:
                raise InputError("constraint coefficient length != problem dimension")
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "targets", targets)

    @classmethod
    def from_dict(cls, doc: dict) -> "TosgProblem":
        what = "problem document"
        objective = objective_from_dict(_field(doc, "objective", what))
        constraints = tuple(constraint_from_dict(c) for c in _field(doc, "constraints", what, list))
        targets = _field(doc, "targets", what)
        return cls(objective, constraints, targets, doc.get("dimension", objective.dimension))


@dataclass(frozen=True, eq=False)
class TosgSolution:
    d_star: np.ndarray
    multipliers: tuple[float, float, float]
    tosg_value: float
    stationarity_residual: float
    feasibility_residual: float


def tosg_value(problem: TosgProblem, d, multipliers) -> float:
    """Objective plus multiplier-weighted constraint deviations from target."""
    d = _as_float_array(d, "decision vector", 1)
    if d.shape != (problem.dimension,):
        raise InputError(f"decision vector must have shape ({problem.dimension},)")
    multipliers = finite_triple(multipliers, "multipliers")
    total = problem.objective.value(d)
    for mult, constraint, target in zip(multipliers, problem.constraints, problem.targets):
        total += mult * (constraint.value(d) - target)
    return total


def constraint_targets_from_risk(
    risk_pti: MitigatingRiskParams,
    risk_tm: MitigatingRiskParams,
    risk_gaa: MitigatingRiskParams,
    baselines: tuple[float, float, float],
) -> tuple[float, float, float]:
    """Scale each baseline by (1 + normalized risk).

    Normalized risk is the mitigating risk at unit consequence, i.e.
    pa * (1 - pi * pn) in [0, 1]; this equals risk/ce for ce > 0 and extends
    it continuously to ce = 0.  The composition is this toolkit's own
    documented convention.
    """
    baselines = finite_triple(baselines, "baselines")
    out = []
    for params, baseline in zip((risk_pti, risk_tm, risk_gaa), baselines):
        normalized = risk_mitigating(replace(params, ce=1.0))
        out.append(baseline * (1.0 + normalized))
    return tuple(out)


# Overflow in the iteration surfaces as a non-finite step or value, both reported.
@np.errstate(over="ignore", invalid="ignore")
def solve_tosg(problem: TosgProblem) -> TosgSolution:
    """Newton iteration on the KKT system of the equality-constrained problem.

    Starts from the origin with zero multipliers and returns the stationary
    feasible point and the recovered multipliers.  Raises
    DegenerateProblemError on a singular KKT matrix and ConvergenceError
    (with residuals attached) when _MAX_STEPS Newton steps do not bring
    both residuals to _KKT_TOL, and SolverError unless the point is a
    constrained maximum (Nocedal & Wright, 2nd ed., Thm. 12.6).
    """
    n = problem.dimension
    d = np.zeros(n)
    multipliers = np.zeros(3)

    def residuals(d, multipliers):
        grad_obj = np.asarray(problem.objective.gradient(d), dtype=float)
        jac = np.vstack([c.gradient(d) for c in problem.constraints])
        deviation = np.array(
            [c.value(d) - t for c, t in zip(problem.constraints, problem.targets)]
        )
        lagrangian_grad = grad_obj + jac.T @ multipliers
        return lagrangian_grad, jac, deviation

    steps = 0
    while True:
        lagrangian_grad, jac, deviation = residuals(d, multipliers)
        hess = np.asarray(problem.objective.hessian(d), dtype=float)
        for mult, constraint in zip(multipliers, problem.constraints):
            hess = hess + mult * constraint.hessian(d)
        stationarity = float(np.abs(lagrangian_grad).max())
        feasibility = float(np.abs(deviation).max())
        if stationarity <= _KKT_TOL and feasibility <= _KKT_TOL:
            break
        if steps >= _MAX_STEPS:
            raise ConvergenceError(
                f"no convergence within {_MAX_STEPS} iterations",
                stationarity_residual=stationarity,
                feasibility_residual=feasibility,
            )

        kkt = np.block([[hess, jac.T], [jac, np.zeros((3, 3))]])
        rhs = -np.concatenate([lagrangian_grad, deviation])
        try:
            step = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError as exc:
            raise DegenerateProblemError(f"singular KKT system: {exc}") from exc
        if not np.all(np.isfinite(step)):
            raise DegenerateProblemError("KKT solve produced non-finite step")
        d = d + step[:n]
        multipliers = multipliers + step[n:]
        steps += 1

    # A maximum needs the Lagrangian's Hessian H negative definite on J's
    # null space Z: the right singular vectors past J's rank (none at n = 3
    # when J has full rank, as in the golden config).  A row the rank test
    # drops can hold d* by a huge multiplier while the objective still
    # rises along it, so the objective's slope along Z must vanish too.
    _, singular, right = np.linalg.svd(jac)
    null = right[np.count_nonzero(singular > singular.max() * n * np.finfo(float).eps) :].T
    grad_obj = np.asarray(problem.objective.gradient(d), dtype=float)
    slope = float(np.abs(null.T @ grad_obj).max(initial=0.0))
    curvature = np.linalg.eigvalsh(null.T @ hess @ null).max(initial=-np.inf)
    if slope > _KKT_TOL * (1.0 + float(np.abs(grad_obj).max())) or not curvature < 0.0:
        raise SolverError(
            "the stationary point is not a constrained maximum: along Z the objective"
            f" has slope {slope:.3e} and Z^T H Z has eigenvalue {curvature:.3e}"
        )
    mults = tuple(float(m) for m in multipliers)
    value = tosg_value(problem, d, mults)
    if not np.isfinite(value):
        raise SolverError("the decision value overflows at the stationary point")
    return TosgSolution(
        d_star=d,
        multipliers=mults,
        tosg_value=value,
        stationarity_residual=stationarity,
        feasibility_residual=feasibility,
    )
