"""Risk scores used to set decision-constraint targets."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError
from .matrix_game import _as_float_array


def _check_scalar(value, name: str, upper: float = math.inf) -> float:
    """A finite number in [0, upper]; upper = 1 for probabilities."""
    value = float(_as_float_array(value, name, 0))
    if not 0.0 <= value <= upper:
        raise InputError(f"{name} must lie in [0, {upper:g}]")
    return value


@dataclass(frozen=True)
class EconomicRiskParams:
    """Threat frequency, vulnerability, and cost of impact."""

    threat_rate: float
    vulnerability: float
    cost: float

    def __post_init__(self):
        object.__setattr__(self, "threat_rate", _check_scalar(self.threat_rate, "threat_rate"))
        object.__setattr__(self, "vulnerability", _check_scalar(self.vulnerability, "vulnerability", 1.0))
        object.__setattr__(self, "cost", _check_scalar(self.cost, "cost"))

    @classmethod
    def from_dict(cls, doc: dict) -> "EconomicRiskParams":
        try:
            return cls(doc["threat_rate"], doc["vulnerability"], doc["cost"])
        except (TypeError, KeyError) as exc:
            raise InputError(f"economic risk document missing field: {exc}") from None


@dataclass(frozen=True)
class MitigatingRiskParams:
    """Attack, interruption, and neutralization probabilities with consequence.

    pa defaults to the worst case of 1.0; override it to discriminate among
    targets.
    """

    pi: float
    pn: float
    ce: float
    pa: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "pa", _check_scalar(self.pa, "pa", 1.0))
        object.__setattr__(self, "pi", _check_scalar(self.pi, "pi", 1.0))
        object.__setattr__(self, "pn", _check_scalar(self.pn, "pn", 1.0))
        object.__setattr__(self, "ce", _check_scalar(self.ce, "ce"))

    @classmethod
    def from_dict(cls, doc: dict) -> "MitigatingRiskParams":
        try:
            return cls(pi=doc["pi"], pn=doc["pn"], ce=doc["ce"], pa=doc.get("pa", 1.0))
        except (TypeError, KeyError) as exc:
            raise InputError(f"mitigating risk document missing field: {exc}") from None

    def to_dict(self) -> dict:
        return {"pa": self.pa, "pi": self.pi, "pn": self.pn, "ce": self.ce}


def risk_economic(params: EconomicRiskParams) -> float:
    """Threat rate times vulnerability times cost."""
    return params.threat_rate * params.vulnerability * params.cost


def risk_mitigating(params: MitigatingRiskParams) -> float:
    """pa * (1 - pe) * ce with system effectiveness pe = pi * pn."""
    return params.pa * (1.0 - params.pi * params.pn) * params.ce
