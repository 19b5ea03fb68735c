"""Certificates and residual reports shared by the bound checks.

This module holds the certificate policy: when a certificate passes, and
the one path every weighted condition (PU, Sb, Sab, virMb, mix_ab) takes
through ``certify``.  It checks the caller's weight vectors, searches the
constant weights of ``AB_GRID`` when the caller gives none, and builds the
certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError, StructureError

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


def weight_vector(name, vec, size):
    """``vec`` as a tuple of one weight per species, else StructureError."""
    vec = tuple(vec)
    if len(vec) != size:
        raise StructureError(f"weight {name} needs {size} entries, one per species; got {len(vec)}")
    return vec


def check_weights(size, a=None, b=None, reads="ab"):
    """The caller's weights (a, b) as tuples of one non-negative entry per
    species; a condition that ``reads`` both needs both or neither, with
    a <= b entrywise.  A wrong shape raises StructureError, a wrong value
    DomainError."""
    a = None if a is None else weight_vector("a", a, size)
    b = None if b is None else weight_vector("b", b, size)
    for name, vec in (("a", a), ("b", b)):
        if vec is not None and any(v < 0 for v in vec):
            raise DomainError(f"weight {name} must be non-negative")
    if reads == "ab" and (a is None) != (b is None):
        raise StructureError("give both a and b or neither")
    if a is not None and b is not None and any(av > bv for av, bv in zip(a, b)):
        raise DomainError("combined condition needs a <= b entrywise")
    return a, b


def certify(condition, margins_for, size, a=None, b=None, reads="ab", trunc=None,
            notes="", extras=None, grid_margins=None):
    """Certificate of a weighted condition on ``size`` species, whose margins
    at a weight pair are ``margins_for(a, b)``.  ``reads`` names the weights
    the condition reads ("a", "b" or "ab"); the caller passes only those.

    Given weights pass ``check_weights`` and the certificate carries them with
    ``notes`` and ``extras``.  With none given, each constant c of ``AB_GRID``
    fills the weights read, as a float, and the best certificate wins: a pass
    beats a fail, then the larger worst margin, then the smaller c.  On the
    grid, ``grid_margins(c)`` replaces ``margins_for`` when given.
    """
    a, b = check_weights(size, a, b, reads)
    if a is not None or b is not None:
        return BoundCertificate(
            condition, margins_for(a, b), a=a, b=b, trunc=trunc, notes=notes,
            extras=extras or {},
        )

    def cert_at(c):
        c = float(c)
        a, b = ((c,) * size if w in reads else None for w in "ab")
        return BoundCertificate(
            condition, margins_for(a, b) if grid_margins is None else grid_margins(c),
            a=a, b=b, trunc=trunc, notes="constant weights chosen by grid search",
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
