"""Certificates and residual reports shared by the bound checks.

This module holds the certificate policy: when a certificate passes and how
constant weights are searched when the caller gives none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

AB_GRID = tuple(Fraction(5 * k, 100) for k in range(1, 61))


@dataclass
class BoundCertificate:
    """Outcome of a convergence-condition check.

    ``condition`` names the inequality that was tested (PU, Sb, Sab, virMb,
    Mb, mixture, rods).  ``margins`` holds the per-species slack; the
    certificate passes exactly when every margin is >= 0 (a NaN margin
    fails).  ``trunc`` records the truncation order when the left-hand side
    is a partial sum, so a pass is a statement about the computed orders
    only.
    """

    condition: str
    margins: tuple
    a: tuple | None = None
    b: tuple | None = None
    trunc: int | None = None
    notes: str = ""
    extras: dict = field(default_factory=dict)
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = all(m >= 0 for m in self.margins)

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


def _grid_search(condition, make_ab, margins_fn, trunc=None):
    """Best certificate over the constant weights c of ``AB_GRID``: a pass
    beats a fail, then the larger worst margin, then the smaller c.

    ``make_ab(c)`` gives the weight pair (a, b) for the float constant c, and
    ``margins_fn((a, b))`` the margins at that pair.
    """

    def cert_at(c):
        ab = make_ab(float(c))
        return BoundCertificate(
            condition, margins_fn(ab), a=ab[0], b=ab[1], trunc=trunc,
            notes="constant weights chosen by grid search",
        )

    return max(map(cert_at, AB_GRID), key=lambda cert: (cert.passed, cert.worst_margin))


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
