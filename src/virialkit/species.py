"""Finite species spaces, measures on them, pair potentials, and Mayer matrices.

A species space is a finite set {0, ..., S-1} with a positive quadrature
weight per species; integrals over the underlying continuum are modelled as
weighted sums.  Pair interactions live on the space as a symmetric matrix of
energies with +inf allowed for hard cores.  The Mayer matrices

    f(x, y)    = exp(-beta * v(x, y)) - 1
    fbar(x, y) = 1 - exp(-beta * |v(x, y)|)

are the basic building blocks for every cluster coefficient downstream.
Hard-core entries keep v = +inf as a genuine float infinity so that f = -1
and fbar = 1 hold exactly, also in rational mode.
"""

from __future__ import annotations

import cmath
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement

from .errors import DomainError, StructureError

INF = math.inf


def is_inf(x):
    return isinstance(x, float) and math.isinf(x)


def _distinct(m):
    """The distinct entry objects of a matrix, in row-major order."""
    return {id(e): e for row in m for e in row}.values()


def _check_square_symmetric(m, size, what):
    """Refuse a matrix (tuple of row tuples) that is not size x size or not
    symmetric, naming the first pair of entries that differ."""
    if len(m) != size or any(len(row) != size for row in m):
        raise StructureError(f"{what} must be a {size}x{size} matrix")
    # tuple equality takes an entry as equal to itself, so a NaN, which
    # differs from itself, goes to the entrywise loop
    if m == tuple(zip(*m)) and all(e == e for e in _distinct(m)):
        return
    for i in range(size):
        for j in range(i, size):
            if m[i][j] != m[j][i]:
                raise StructureError(f"{what} must be symmetric (entries {i},{j} differ)")


@dataclass(frozen=True)
class Species:
    """One species: integer id, positive quadrature weight, optional payload.

    The payload carries geometric data when the species discretize a continuum
    (position vector, radius, orientation angle, ...); the core machinery never
    looks inside it.
    """

    id: int
    weight: object
    payload: dict | None = None


class SpeciesSpace:
    """Finite species set with quadrature weights.

    Weights may be floats or Fractions; they must be positive.  Species ids
    are consecutive 0..S-1.
    """

    def __init__(self, species):
        species = tuple(species)
        if not species:
            raise StructureError("species space must be non-empty")
        for k, sp in enumerate(species):
            if sp.id != k:
                raise StructureError("species ids must be consecutive 0..S-1")
            if not sp.weight > 0:
                raise StructureError(f"species {k} has non-positive weight {sp.weight}")
        self.species = species
        self.weights = tuple(sp.weight for sp in species)

    @classmethod
    def from_weights(cls, weights):
        return cls(Species(i, w) for i, w in enumerate(weights))

    @classmethod
    def uniform(cls, size):
        return cls.from_weights([1] * size)

    @property
    def size(self):
        return len(self.species)

    def payload(self, x):
        return self.species[x].payload

    def __len__(self):
        return len(self.species)

    def __eq__(self, other):
        return isinstance(other, SpeciesSpace) and self.weights == other.weights

    def __repr__(self):
        return f"SpeciesSpace(S={self.size})"


class MeasureVec:
    """A (possibly signed or complex) measure: one density value per species.

    The value at species x is the density relative to the quadrature weight,
    so the total mass of the measure is sum_x value[x] * weight[x].
    """

    def __init__(self, space, values):
        values = tuple(values)
        if len(values) != space.size:
            raise StructureError("measure length must match species count")
        self.space = space
        self.values = values

    @classmethod
    def constant(cls, space, value):
        return cls(space, [value] * space.size)

    def __getitem__(self, x):
        return self.values[x]

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)

    def __eq__(self, other):
        return (
            isinstance(other, MeasureVec)
            and self.space == other.space
            and self.values == other.values
        )

    def __repr__(self):
        return f"MeasureVec({self.values!r})"


class PairPotential:
    """Symmetric pair energies on a species space, with stability constants.

    v[x][y] is the interaction energy, +inf for hard cores.  b_stability[x]
    is a claimed stability constant B(x) (sum_{i<j} v(x_i, x_j) >=
    -sum_i B(x_i) for admissible configurations); it is taken on trust here
    and checked by brute force in check_stability.  b_star[x] must dominate
    max(0, -min_y v(x, y)); by default it is set to exactly that value.
    """

    def __init__(self, space, beta, v, b_stability=None, b_star=None):
        if not beta > 0:
            raise DomainError("beta must be positive")
        v = tuple(tuple(row) for row in v)
        _check_square_symmetric(v, space.size, "potential matrix")
        self.space = space
        self.beta = beta
        self.v = v
        if b_stability is None:
            b_stability = (0,) * space.size
        self.b_stability = tuple(b_stability)
        if len(self.b_stability) != space.size:
            raise StructureError("b_stability length must match species count")
        floor = [max(0, -min(row)) for row in v]
        if b_star is None:
            b_star = floor
        self.b_star = tuple(b_star)
        if len(self.b_star) != space.size:
            raise StructureError("b_star length must match species count")
        for x, (bs, fl) in enumerate(zip(self.b_star, floor)):
            if bs < fl:
                raise StructureError(
                    f"b_star[{x}] = {bs} is below the attraction floor {fl}"
                )

    @property
    def size(self):
        return self.space.size

    def is_hard_core_only(self):
        """True when every entry is 0 or +inf (Mayer matrices are then exact)."""
        return all(e == 0 or is_inf(e) for row in self.v for e in row)


class MayerMatrices:
    """The matrices f and fbar derived from a pair potential.

    ``exact`` marks whether the entries are exact (Fraction/int) or floats;
    an exact matrix holds only ints and Fractions.  f entries lie in
    [-1, inf); fbar entries lie in [0, 1].
    """

    def __init__(self, space, f, f_bar, exact):
        f = tuple(tuple(row) for row in f)
        f_bar = tuple(tuple(row) for row in f_bar)
        _check_square_symmetric(f, space.size, "f matrix")
        _check_square_symmetric(f_bar, space.size, "fbar matrix")
        # each check runs once per distinct entry object
        f_entries, f_bar_entries = _distinct(f), _distinct(f_bar)
        if exact and not all(isinstance(e, (int, Fraction)) for m in (f_entries, f_bar_entries) for e in m):
            raise StructureError("exact Mayer matrices hold only ints and Fractions")
        for e in f_entries:
            if e < -1:
                raise StructureError("f entries must be >= -1")
        for e in f_bar_entries:
            if not (0 <= e <= 1):
                raise StructureError("fbar entries must lie in [0, 1]")
        self.space = space
        self.f = f
        self.f_bar = f_bar
        self.exact = exact

    @classmethod
    def from_f(cls, space, f, exact=True):
        """Build Mayer matrices directly from an f matrix.

        fbar is reconstructed from f through the defining potential:
        fbar = -f when f <= 0 and fbar = f / (1 + f) when f > 0, which keeps
        rational entries (ints included) rational.
        """
        f_bar = [
            [
                -e if e <= 0 else (Fraction(e) if exact and isinstance(e, int) else e) / (1 + e)
                for e in row
            ]
            for row in f
        ]
        return cls(space, f, f_bar, exact)


def build_mayer(pot):
    """Mayer matrices for a pair potential: exact Fractions (-1, 0 and 1)
    when every energy is 0 or +inf (the hard-core case), floats otherwise,
    since exp(-beta*v) of any other finite energy is irrational.
    """
    exact = pot.is_hard_core_only()
    # one object per hard-core value, shared by every entry that holds it
    minus_one, zero, one = (Fraction(-1), Fraction(0), Fraction(1)) if exact else (-1.0, 0.0, 1.0)
    S = pot.size
    f = [[None] * S for _ in range(S)]
    f_bar = [[None] * S for _ in range(S)]
    # each unordered pair is derived once, from v(i, j) with i <= j, and
    # mirrored: two equal energies of different types (7/16 and 0.4375)
    # could round expm1 differently
    for i in range(S):
        for j in range(i, S):
            e = pot.v[i][j]
            if is_inf(e):
                pair = minus_one, one
            elif e == 0:
                pair = zero, zero
            else:
                pair = math.expm1(-pot.beta * e), -math.expm1(-pot.beta * abs(e))
            f[i][j], f_bar[i][j] = f[j][i], f_bar[j][i] = pair
    return MayerMatrices(pot.space, f, f_bar, exact)


@dataclass
class StabilityCertificate:
    """Outcome of the brute-force stability check."""

    passed: bool
    n_check: int
    worst_margin: object
    worst_multiset: tuple
    margins: dict = field(default_factory=dict)


def check_stability(pot, n_check=6):
    """Brute-force stability check over all multisets of size 2..n_check.

    For each multiset the margin is sum_{i<j} v + sum_i B(x_i); configurations
    containing a hard-core pair are skipped (infinite energy, trivially
    stable).  The certificate fails if any margin is negative.
    """
    if n_check < 2:
        raise DomainError("n_check must be >= 2")
    S = pot.size
    v = pot.v
    B = pot.b_stability
    worst = None
    worst_ms = ()
    margins = {}
    passed = True
    for n in range(2, n_check + 1):
        for ms in combinations_with_replacement(range(S), n):
            energy = 0
            hard = False
            for i in range(n):
                for j in range(i + 1, n):
                    e = v[ms[i]][ms[j]]
                    if is_inf(e):
                        hard = True
                        break
                    energy += e
                if hard:
                    break
            if hard:
                continue
            margin = energy + sum(B[x] for x in ms)
            margins[ms] = margin
            if worst is None or margin < worst:
                worst = margin
                worst_ms = ms
            if margin < 0:
                passed = False
    if worst is None:
        worst = 0
    return StabilityCertificate(passed, n_check, worst, worst_ms, margins)


# ---------------------------------------------------------------------------
# Parsing user input


def parse_scalar(v):
    """One number from user input.

    Strings "p/q" or "p" become exact Fractions; ints, Fractions, floats and
    complex numbers pass through unchanged.  A malformed string, a zero
    denominator, NaN, an infinity or a non-number raises DomainError.
    """
    if isinstance(v, str):
        num, _, den = v.partition("/")
        try:
            return Fraction(int(num), int(den or "1"))
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"not a finite number: {v!r}") from exc
    if isinstance(v, bool) or not isinstance(v, (int, Fraction, float, complex)):
        raise DomainError(f"not a number: {v!r}")
    if isinstance(v, (float, complex)) and not cmath.isfinite(v):
        raise DomainError(f"not a finite number: {v!r}")
    return v


def parse_measure(raw, size=None, name="measure"):
    """A list of numbers (see parse_scalar) from user input, ``size`` of them
    when given; a non-list or a list of the wrong length raises
    StructureError."""
    if not isinstance(raw, (list, tuple)) or size is not None and len(raw) != size:
        count = "" if size is None else f"{size} "
        raise StructureError(f"{name} must be a list of {count}numbers")
    return [parse_scalar(v) for v in raw]


def parse_size(v, field):
    """A size (a length, radius or period) from user input: a positive real
    number (see parse_scalar); anything else raises DomainError naming the
    field."""
    v = parse_scalar(v)
    if isinstance(v, complex) or not v > 0:
        raise DomainError(f"{field} must be positive, got {v}")
    return v


def parse_dimension(v):
    """A space dimension d from user input: a positive int, not a bool."""
    if type(v) is not int or v < 1:
        raise DomainError(f"d must be a positive integer, got {v!r}")
    return v


# ---------------------------------------------------------------------------
# Species file (JSON) loading


def _coerce_energy(e):
    """A pair energy: a finite number (see parse_scalar) or +inf, written
    as a float or as "inf", "+inf" or "Infinity"."""
    if isinstance(e, str):
        if e in ("inf", "+inf", "Infinity"):
            return INF
        raise DomainError(f"unrecognized energy entry {e!r}")
    if is_inf(e) and e > 0:
        return INF
    return parse_scalar(e)


def _dist(p, q):
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))


def _ring_dist(a, b, period):
    """The distance of a and b on a ring of circumference ``period``."""
    d = abs(a - b) % period
    return min(d, period - d)


def _segment_endpoints(center, angle, length):
    dx = 0.5 * length * math.cos(angle)
    dy = 0.5 * length * math.sin(angle)
    return (center[0] - dx, center[1] - dy), (center[0] + dx, center[1] + dy)


def _orient(p, q, r):
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _on_segment(p, q, r):
    return (
        min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
        and min(p[1], q[1]) <= r[1] <= max(p[1], q[1])
    )


def segments_intersect(a1, a2, b1, b2):
    """Whether closed segments a1-a2 and b1-b2 intersect (collinear included)."""
    d1 = _orient(b1, b2, a1)
    d2 = _orient(b1, b2, a2)
    d3 = _orient(a1, a2, b1)
    d4 = _orient(a1, a2, b2)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    if d1 == 0 and _on_segment(b1, b2, a1):
        return True
    if d2 == 0 and _on_segment(b1, b2, a2):
        return True
    if d3 == 0 and _on_segment(a1, a2, b1):
        return True
    if d4 == 0 and _on_segment(a1, a2, b2):
        return True
    return False


def _payloads(space):
    out = [space.payload(i) for i in range(space.size)]
    if not all(isinstance(p, dict) for p in out):
        raise StructureError("this potential kind needs a payload object per species")
    return out


def _positions(payloads, dim=None):
    """Payload positions as lists of ``dim`` numbers (default: the length
    of the first one)."""
    first = payloads[0]["position"]
    if dim is None:
        if not isinstance(first, list):
            raise StructureError("positions must be lists of numbers")
        dim = len(first)
    return [parse_measure(p["position"], dim, "position") for p in payloads]


def _potential_matrix_from_kind(space, kind, params):
    if not isinstance(params, dict):
        raise StructureError("potential params must be an object")
    S = space.size
    if kind == "matrix":
        rows = params["v"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise StructureError("potential matrix must be a list of lists")
        return [[_coerce_energy(e) for e in row] for row in rows]
    if kind not in ("hard_rod", "hard_sphere", "rods2d"):
        raise DomainError(f"unknown potential kind {kind!r}")
    payloads = _payloads(space)
    v = [[0.0] * S for _ in range(S)]
    if kind == "hard_rod":
        a = parse_size(params["length"], "hard_rod length")
        period = params.get("period")
        if period is not None:
            period = parse_size(period, "hard_rod period")
            if not period > a:
                raise DomainError(f"hard_rod period must exceed the length {a}, got {period}")
        xs = [parse_scalar(p["position"]) for p in payloads]
        for i in range(S):
            for j in range(S):
                d = abs(xs[i] - xs[j]) if period is None else _ring_dist(xs[i], xs[j], period)
                v[i][j] = INF if d < a else 0.0
    elif kind == "hard_sphere":
        xs = _positions(payloads)
        radii = [
            parse_size(p["radius"] if "radius" in p else params["radius"], "hard_sphere radius") for p in payloads
        ]
        for i in range(S):
            for j in range(S):
                d = _dist(xs[i], xs[j])
                v[i][j] = INF if d < radii[i] + radii[j] else 0.0
    else:
        length = parse_size(params["length"], "rods2d length")
        segs = [
            _segment_endpoints(x, parse_scalar(p["angle"]), length)
            for x, p in zip(_positions(payloads, 2), payloads)
        ]
        for i in range(S):
            for j in range(S):
                a1, a2 = segs[i]
                b1, b2 = segs[j]
                v[i][j] = INF if segments_intersect(a1, a2, b1, b2) else 0.0
    return v


def load_doc(source):
    """A JSON object from user input: a dict (returned as is), a file path,
    or JSON text.  A string that names no readable file is parsed as JSON
    text; malformed text raises ValueError (json.JSONDecodeError).  Any
    other source, or JSON that is not an object, raises StructureError.
    """
    if isinstance(source, dict):
        return source
    if isinstance(source, os.PathLike):
        source = os.fspath(source)
    if not isinstance(source, str):
        kind = type(source).__name__
        raise StructureError(f"a document must be an object, a path or JSON text, not {kind}")
    try:
        with open(source) as fh:
            text = fh.read()
    except OSError:
        text = source
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise StructureError("a document must be a JSON object")
    return doc


def load_species_json(source):
    """Load a species file: returns (SpeciesSpace, PairPotential).

    ``source`` is anything ``load_doc`` accepts.  Format:

        {"beta": 1.0,
         "species": [{"id": 0, "weight": 1.0, "payload": {...}}, ...],
         "potential": {"kind": "matrix" | "hard_rod" | "hard_sphere" | "rods2d",
                       "params": {...}}}

    The potential block may also carry "B" and "Bstar" arrays (stability
    constants per species).
    """
    doc = load_doc(source)
    try:
        beta = parse_scalar(doc["beta"])
        recs = doc["species"]
        if not isinstance(recs, list) or not all(isinstance(r, dict) for r in recs):
            raise StructureError("species must be a list of objects")
        if not all(type(r["id"]) is int for r in recs):
            raise StructureError("species ids must be integers")
        space = SpeciesSpace(
            Species(r["id"], parse_scalar(r["weight"]), r.get("payload"))
            for r in sorted(recs, key=lambda r: r["id"])
        )
        pot_doc = doc["potential"]
        if not isinstance(pot_doc, dict):
            raise StructureError("potential must be an object")
        v = _potential_matrix_from_kind(space, pot_doc["kind"], pot_doc.get("params", {}))
    except (KeyError, IndexError) as exc:
        raise StructureError(f"malformed species file: missing {exc}") from exc
    B, Bstar = (
        None if pot_doc.get(k) is None else parse_measure(pot_doc[k], space.size, k)
        for k in ("B", "Bstar")
    )
    pot = PairPotential(space, beta, v, b_stability=B, b_star=Bstar)
    return space, pot
