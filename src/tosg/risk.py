"""Risk scores used to set decision-constraint targets."""

from __future__ import annotations

from dataclasses import dataclass

from .matrix_game import _as_real, _field


@dataclass(frozen=True)
class EconomicRiskParams:
    """Threat frequency, vulnerability, and cost of impact."""

    threat_rate: float
    vulnerability: float
    cost: float

    def __post_init__(self):
        object.__setattr__(self, "threat_rate", _as_real(self.threat_rate, "threat_rate", 0.0))
        object.__setattr__(self, "vulnerability", _as_real(self.vulnerability, "vulnerability", 0.0, 1.0))
        object.__setattr__(self, "cost", _as_real(self.cost, "cost", 0.0))

    @classmethod
    def from_dict(cls, doc: dict) -> "EconomicRiskParams":
        what = "economic risk document"
        return cls(*(_field(doc, key, what) for key in ("threat_rate", "vulnerability", "cost")))


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
        object.__setattr__(self, "pa", _as_real(self.pa, "pa", 0.0, 1.0))
        object.__setattr__(self, "pi", _as_real(self.pi, "pi", 0.0, 1.0))
        object.__setattr__(self, "pn", _as_real(self.pn, "pn", 0.0, 1.0))
        object.__setattr__(self, "ce", _as_real(self.ce, "ce", 0.0))

    @classmethod
    def from_dict(cls, doc: dict) -> "MitigatingRiskParams":
        what = "mitigating risk document"
        pi, pn, ce = (_field(doc, key, what) for key in ("pi", "pn", "ce"))
        return cls(pi=pi, pn=pn, ce=ce, pa=doc.get("pa", 1.0))


def risk_economic(params: EconomicRiskParams) -> float:
    """Threat rate times vulnerability times cost."""
    return params.threat_rate * params.vulnerability * params.cost


def risk_mitigating(params: MitigatingRiskParams) -> float:
    """pa * (1 - pe) * ce with system effectiveness pe = pi * pn."""
    return params.pa * (1.0 - params.pi * params.pn) * params.ce
