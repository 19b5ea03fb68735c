"""Certificates and residual reports shared by the bound checks.

This module holds the certificate policy: when a certificate passes, and
the one path every weighted condition (PU, Sb, Sab, virMb, mix_ab) takes
through ``certify``.  It checks the caller's weight vectors, searches the
constant weights of ``AB_GRID`` when the caller gives none, and builds the
certificate.  A condition hands ``certify`` one batch callable, which
returns the margins of a list of weight rows at once: the grid search asks
for all of ``AB_GRID`` in one call and builds one certificate, the winner.
Each margin keeps every bit of the row-at-a-time search it replaced,
``oracles.certify_termwise``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import ge

from .errors import DomainError, StructureError

AB_GRID = tuple(Fraction(5 * k, 100) for k in range(1, 61))
_GRID_FLOATS = tuple(map(float, AB_GRID))


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


def certify(condition, margins, size, a=None, b=None, reads="ab", trunc=None, notes="", extras=None):
    """Certificate of a weighted condition on ``size`` species.  ``reads``
    names the weights the condition reads ("a", "b" or "ab"); the caller
    passes only those.  ``margins(rows)`` takes a list of weight rows (a, b),
    a weight the condition does not read being None, and returns one tuple
    of per-species margins per row, in order.

    Given weights pass ``check_weights`` and are a batch of one row; the
    certificate carries them with ``notes`` and ``extras``.  With none given,
    each constant c of ``AB_GRID``, as a float, fills the weights read, all
    60 rows go to one ``margins`` call, and the best row is certified: a pass
    beats a fail, then the larger worst margin, then the smaller c (the first
    maximum of ``max``, so a NaN margin decides as it would in
    ``BoundCertificate``).  Every row of the grid is constant, which a
    condition may use to sum faster, provided each margin keeps its bits.
    """
    a, b = check_weights(size, a, b, reads)
    if a is not None or b is not None:
        return BoundCertificate(
            condition, margins([(a, b)])[0], a=a, b=b, trunc=trunc, notes=notes, extras=extras or {},
        )
    fills = [(c,) * size for c in _GRID_FLOATS]
    rows = [(row if "a" in reads else None, row if "b" in reads else None) for row in fills]
    batch = margins(rows)
    # per row, the (passed, worst_margin) of its BoundCertificate
    keys = [(all(map(ge, ms, repeat(0))), min(ms) if ms else 0) for ms in batch]
    best = max(range(len(rows)), key=keys.__getitem__)
    a, b = rows[best]
    return BoundCertificate(
        condition, batch[best], a=a, b=b, trunc=trunc, notes="constant weights chosen by grid search",
    )


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
