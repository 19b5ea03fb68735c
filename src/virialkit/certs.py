"""Certificates and residual reports shared by the bound checks."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class BoundCertificate:
    """Outcome of a convergence-condition check.

    ``condition`` names the inequality that was tested (PU, Sb, Sab, virMb,
    Mb, mixture, rods).  ``margins`` holds the per-species slack; the
    certificate passes exactly when every margin is >= 0.  ``trunc`` records
    the truncation order when the left-hand side is a partial sum, so a pass
    is a statement about the computed orders only.
    """

    condition: str
    passed: bool
    margins: tuple
    a: tuple | None = None
    b: tuple | None = None
    trunc: int | None = None
    notes: str = ""
    extras: dict = field(default_factory=dict)

    @property
    def worst_margin(self):
        return min(self.margins) if self.margins else 0

    def to_dict(self):
        return {
            "condition": self.condition,
            "passed": self.passed,
            "margins": [float(m) for m in self.margins],
            "a": None if self.a is None else [float(v) for v in self.a],
            "b": None if self.b is None else [float(v) for v in self.b],
            "trunc": self.trunc,
            "notes": self.notes,
        }


@dataclass
class ResidualReport:
    """Maximal absolute residual of an identity check, with per-order detail."""

    name: str
    max_abs: object
    per_order: dict = field(default_factory=dict)
    exact: bool = False
    notes: str = ""

    def to_dict(self):
        return {
            "name": self.name,
            "max_abs": float(self.max_abs),
            "per_order": {str(k): float(v) for k, v in self.per_order.items()},
            "exact": self.exact,
            "notes": self.notes,
        }
