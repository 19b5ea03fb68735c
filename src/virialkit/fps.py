"""Truncated formal power series in a measure over a finite species space.

A series K is the collection of symmetric coefficient functions K_n(x_1..x_n)
for 0 <= n <= N; it stands for the formal sum

    K[nu] = sum_n (1/n!) * sum_{x_1..x_n} K_n(x_1..x_n) nu(x_1)...nu(x_n)

with nu a measure on the species space.  Coefficients are stored once per
canonical (sorted) multi-index; evaluation at an arbitrary tuple sorts it.
All operations below work coefficientwise on positions of the canonical
representative, which realizes the multinomial multiplicities implicitly, so
no factorials ever appear until a series is summed against a measure.

A rooted family G(q; nu), such as the tree fixed point T, is a series per
root species q, keyed per order by (q, ms); a plain series is its one-root
case, keyed by ms.  ``FormalSeries`` and ``RootedSeriesFamily`` share one
container, and ``measure_sums``/``_majorant_sums`` read the weights and the
root count from the series or family they are given.

The operations mirror the usual algebra of such series: pointwise sum,
product (subset splitting), composition with a univariate series
(set-partition sum), exp and log, and composition with a rooted family G,
where the substituted measure is G[x; nu] nu(dx):

    (K o G)_n(x_1..x_n) = sum over nonempty J subset [n] of K_(|J|)((x_j)_J)
        * sum over assignments of [n] minus J to owners j in J of
          prod_j G_(|V_j|)(x_j; (x_v)_{V_j})

``mul``, ``compose_univariate``/``exp_series`` and ``compose_measure`` also
accept a rooted family in place of the series K and then act root by root.

Each order is stored in the layout its kernel computes in, over (root,
canonical ms) in storage order.  An order of ints and Fractions is
``_Exact``: int numerators over one denominator, the lcm of the reduced
denominators, and every value a Fraction when any one is.  Any other
order is ``_Columns``: a float64 array with the mask of its int lanes
when every value is a float or an int in {-1, 0, 1}, else a dtype=object
array.  A series is immutable: every producer stores
each order once, from its values in storage order, and the kernels read
these layouts and write new ones, so nothing converts between calls.
``coeffs`` is a read-only view of the same values, one mapping per order,
for JSON, ``value``, equality and the oracles; it is built on first read,
cached, and never written back.

Every template sum runs through one kernel (``_sweep``), with two arithmetic
rules.  When every order read is exact, each coefficient is a Python-int sum
of scaled numerators over one common denominator per order, stored as it is:
exact end to end, and equal to the term-by-term rational sum.  This rule
never walks the templates.  The tails a template reads at ms depend only on
the run lengths of ms (its runs of equal species), so the templates are
grouped once per kind and sorted run pattern by what they read, with a
multinomial count per group (``_template_groups``, built from vector
partitions without enumerating a template).  ``_tails`` lists the runs of
each ms by length, so every ms reads the table of its sorted pattern as it
is, and a row holds one entry per group.  The groups scaled to an order's
common denominator are kept in a bounded cache per scale for later sweeps;
a split or partition reads the tail positions of each ms through its
groups in place.  Otherwise (floats, complex) the column rule runs each
template of ``subset_splits``, ``set_partitions`` or ``compose_templates``
once per order, gathering its operands from the stored arrays through
index arrays cached per position subset, as elementwise steps over every
(root, ms) with the zero-skips of the term-by-term walk
(``oracles.sweep_termwise``), so floats are identical to the bit and each
value keeps its type, save that an order of ints and Fractions is stored
all Fractions.

``measure_sums``, the sum of a series or family against a measure, has two
rules as well: on exact orders it adds their numerators over one
denominator per order and divides once per root, and otherwise a column
rule runs each order as elementwise steps over its nonzero coefficients,
in float64 lanes where every product is a float times a real and in the
Python values otherwise, and each root adds its terms in storage order
with one sequential ``np.add.accumulate`` (``_fold``), never a pairwise
or compensated sum, so the sums equal the term-by-term loop to the bit.
The float majorants of the certificates (``_majorant_sums``) take the
same column steps in float64; they alone leave exact mode.  ``left_sum``
is the same left fold for the built-in ``sum``, whose float bits change
from Python 3.12 on.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, combinations_with_replacement, product
from types import MappingProxyType

import numpy as np

from .errors import DomainError, StructureError, check_scale
from .species import MeasureVec, SpeciesSpace, parse_scalar

# ---------------------------------------------------------------------------
# Index templates, memoized per order and shared by every tensor operation.


@lru_cache(maxsize=None)
def subset_splits(n):
    """All (J, complement) splits of positions 0..n-1, including empty J."""
    pos = tuple(range(n))
    out = []
    for k in range(n + 1):
        for J in combinations(pos, k):
            in_j = set(J)
            rest = tuple(p for p in pos if p not in in_j)
            out.append((J, rest))
    return tuple(out)


@lru_cache(maxsize=None)
def set_partitions(n):
    """Set partitions of 0..n-1 as tuples of blocks (each block a tuple)."""
    if n == 0:
        return ((),)
    out = []

    def extend(p, partial):
        if p == n:
            out.append(tuple(tuple(b) for b in partial))
            return
        for b in partial:
            b.append(p)
            extend(p + 1, partial)
            b.pop()
        partial.append([p])
        extend(p + 1, partial)
        partial.pop()

    extend(0, [])
    return tuple(out)


@lru_cache(maxsize=None)
def compose_templates(n):
    """Templates (J, blocks) for composition with a rooted family.

    J runs over nonempty subsets of positions 0..n-1; blocks is the tuple,
    aligned with J, of the (possibly empty) position sets assigned to each
    owner in J.  Every assignment of the complement to owners appears once.
    """
    pos = tuple(range(n))
    out = []
    for k in range(1, n + 1):
        for J in combinations(pos, k):
            in_j = set(J)
            rest = tuple(p for p in pos if p not in in_j)
            for owners in product(range(k), repeat=len(rest)):
                blocks = [[] for _ in range(k)]
                for p, o in zip(rest, owners):
                    blocks[o].append(p)
                out.append((J, tuple(tuple(b) for b in blocks)))
    return tuple(out)


def canonical_indices(size, n):
    """Canonical (sorted) multi-indices of order n over ``size`` species."""
    return combinations_with_replacement(range(size), n)


def sym_factor(ms):
    """Product of multiplicity factorials of a canonical multi-index."""
    out = 1
    run = 1
    for a, b in zip(ms, ms[1:]):
        run = run + 1 if a == b else 1
        out *= run
    return out


@lru_cache(maxsize=None)
def _multinomials(size, n):
    """n!/sym(ms), an int, for each canonical multi-index ms of order n over
    ``size`` species, in storage order: a read-only tuple."""
    fact = math.factorial(n)
    return tuple(fact // sym_factor(ms) for ms in canonical_indices(size, n))


class _Coefficients:
    """Storage shared by FormalSeries and RootedSeriesFamily.

    A series is keyed by the canonical multi-index ms, a family by (root q,
    canonical tail ms), roots outermost; a plain series is the one-root
    case.  Storage is dense, over orders 0..trunc, and each order is held in
    the layout its kernel computes in (``_Exact`` or ``_Columns``), stored
    once when the series is made and never changed.  ``coeffs`` is a
    read-only view of the same values, one mapping per order with its keys
    in storage order, built on first read and cached.
    """

    __slots__ = ("space", "trunc", "_orders", "_view")
    rooted = False

    def __init__(self, space, orders):
        """The series over ``space`` with the given order layouts, one per
        order 0..trunc; the public constructors check the scale first."""
        self.space, self.trunc, self._orders, self._view = space, len(orders) - 1, orders, None

    @property
    def coeffs(self):
        """Per order, the read-only mapping from every key to its coefficient."""
        if self._view is None:
            size, rooted = self.space.size, self.rooted
            self._view = tuple(
                MappingProxyType(dict(zip(_keys(size, n, rooted), order.values())))
                for n, order in enumerate(self._orders)
            )
        return self._view

    @property
    def roots(self):
        """How many roots: the species count for a family, 1 for a series."""
        return self.space.size if self.rooted else 1

    @classmethod
    def from_orders(cls, space, trunc, orders, allow_large=False):
        """Build from ``orders``, one list or array per order 0..trunc of
        its values in storage order (``_keys``), each stored as it comes.
        ``orders`` is read after the scale check, so a lazy one computes
        nothing first."""
        _check_trunc(space, trunc, allow_large)
        roots = space.size if cls.rooted else 1
        return cls(space, [_store(vals, roots) for vals in orders])

    @classmethod
    def from_function(cls, space, trunc, fn, allow_large=False):
        """Build with fn(order, multi_index) -> value for a series, and
        fn(order, root, tail multi-index) -> value for a family."""
        rooted = cls.rooted
        orders = (
            [fn(n, *key) if rooted else fn(n, key) for key in _keys(space.size, n, rooted)] for n in range(trunc + 1)
        )
        return cls.from_orders(space, trunc, orders, allow_large)

    def _like(self, orders):
        return type(self)(self.space, orders)

    def _check_compatible(self, other):
        if self.space != other.space or self.trunc != other.trunc:
            raise StructureError("series must share space and truncation order")

    def scale(self, c):
        return self._like([order.scaled(c) for order in self._orders])

    def max_abs_diff(self, other):
        self._check_compatible(other)
        worst = 0
        for x, y in zip(self._orders, other._orders):
            worst = _max_delta(x, y, worst)[0]
        return worst

    def __eq__(self, other):
        return (
            isinstance(other, type(self))
            and self.space == other.space
            and self.trunc == other.trunc
            and all(c == d for c, d in zip(self.coeffs, other.coeffs))
        )

    def __repr__(self):
        return f"{type(self).__name__}(S={self.space.size}, N={self.trunc})"


class FormalSeries(_Coefficients):
    """Truncated series: coefficients over canonical multi-indices for
    orders 0..trunc."""

    __slots__ = ()

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, space, trunc, allow_large=False):
        return cls.from_function(space, trunc, lambda *_: 0, allow_large)

    @classmethod
    def unit(cls, space, trunc, allow_large=False):
        return cls.from_function(space, trunc, lambda n, ms: 0 if n else 1, allow_large)

    # -- access ------------------------------------------------------------

    def value(self, n, xs):
        """Coefficient at order n evaluated at an arbitrary species tuple."""
        return self.coeffs[n][tuple(sorted(xs))]

    def constant(self):
        return self._orders[0].values()[0]

    # -- algebra -----------------------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        return self._like(
            [_store([a + b for a, b in zip(x.values(), y.values())], 1) for x, y in zip(self._orders, other._orders)]
        )

    def __sub__(self, other):
        self._check_compatible(other)
        return self._like(
            [_store([a - b for a, b in zip(x.values(), y.values())], 1) for x, y in zip(self._orders, other._orders)]
        )

    def __neg__(self):
        return self.scale(-1)

    def evaluate(self, nu):
        """Numeric value sum_n (1/n!) sum_{x vec} K_n nu^n via canonical sums."""
        return measure_sums(self, nu.values if isinstance(nu, MeasureVec) else tuple(nu))

    # -- serialization -----------------------------------------------------

    def to_json_dict(self):
        orders = {}
        for n in range(self.trunc + 1):
            orders[str(n)] = [
                {"idx": list(ms), "value": _scalar_to_json(v)}
                for ms, v in sorted(self.coeffs[n].items())
            ]
        return {
            "weights": [_scalar_to_json(w) for w in self.space.weights],
            "trunc": self.trunc,
            "orders": orders,
        }

    def to_json(self):
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, doc, allow_large=False):
        """The series of a ``to_json_dict`` document.  A malformed document
        raises StructureError and a malformed number DomainError; an order
        or index the document leaves out is 0."""

        def scalar(v):
            # a complex value is written as its [re, im] pair
            if not isinstance(v, list):
                return parse_scalar(v)
            if len(v) != 2:
                raise StructureError(f"a complex value is a [re, im] pair, got {v!r}")
            return complex(*map(parse_scalar, v))

        if not isinstance(doc, dict):
            raise StructureError("a series document must be an object")
        trunc = doc.get("trunc")
        if type(trunc) is not int or trunc < 0:
            raise StructureError(f"trunc must be a non-negative integer, got {trunc!r}")
        weights, orders = doc.get("weights"), doc.get("orders")
        if not isinstance(weights, list) or not isinstance(orders, dict):
            raise StructureError("a series document needs a weights list and an orders object")
        space = SpeciesSpace.from_weights([scalar(w) for w in weights])
        _check_trunc(space, trunc, allow_large)
        values = [[0] * len(_rank(space.size, n)) for n in range(trunc + 1)]
        order_of = {str(n): n for n in range(trunc + 1)}
        for n_str, entries in orders.items():
            n = order_of.get(n_str)
            if n is None or not isinstance(entries, list):
                raise StructureError(f"orders must map 0..{trunc} to lists, got key {n_str!r}")
            seen = set()
            for e in entries:
                idx = e.get("idx") if isinstance(e, dict) and "value" in e else None
                if not (
                    isinstance(idx, list)
                    and len(idx) == n
                    and all(type(x) is int and 0 <= x < space.size for x in idx)
                    and idx == sorted(idx)
                ):
                    raise StructureError(
                        f"order {n} entries need a value and a sorted idx of {n} "
                        f"species in 0..{space.size - 1}, got {e!r}"
                    )
                ms = tuple(idx)
                if ms in seen:
                    raise StructureError(f"order {n} repeats idx {idx}")
                seen.add(ms)
                values[n][_rank(space.size, n)[ms]] = scalar(e["value"])
        return cls.from_orders(space, trunc, values, allow_large)

    @classmethod
    def from_json(cls, text, allow_large=False):
        return cls.from_json_dict(json.loads(text), allow_large=allow_large)


def _scalar_to_json(v):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, int):
        return f"{v}/1"
    return v


class RootedSeriesFamily(_Coefficients):
    """A family of series G(q; . ) indexed by a distinguished root species q.

    Keys are (q, canonical tail): only the tail is symmetrized, the root slot
    is genuinely distinguished.
    """

    __slots__ = ()
    rooted = True

    def value(self, n, q, xs):
        return self.coeffs[n][(q, tuple(sorted(xs)))]

    def root_series(self, q):
        """The plain series K with K_n = G_n(q; . ).  It is no larger than
        the family, so it needs no scale check of its own."""
        width = [len(_rank(self.space.size, n)) for n in range(self.trunc + 1)]
        orders = (order.values()[q * w:(q + 1) * w] for order, w in zip(self._orders, width))
        return FormalSeries.from_orders(self.space, self.trunc, orders, allow_large=True)


# ---------------------------------------------------------------------------
# Order layouts: each order stored as its kernel computes in it


@lru_cache(maxsize=None)
def _keys(size, n, rooted):
    """The keys of order n in storage order: the canonical multi-indices,
    or (root, ms) pairs with roots outermost."""
    keys = tuple(canonical_indices(size, n))
    return tuple((q, ms) for q in range(size) for ms in keys) if rooted else keys


@lru_cache(maxsize=None)
def _rank(size, n):
    """The position of each canonical multi-index of order n in storage order."""
    return {ms: i for i, ms in enumerate(canonical_indices(size, n))}


class _Exact:
    """An order of ints and Fractions, in the layout of the exact rules:
    the value at root q and the i-th canonical ms is ``num[q][i] / den``,
    with ``den`` the lcm of the reduced denominators of the order's values.
    An order holds one type: ``frac`` says whether every value is a
    Fraction (``den`` is 1 when none is).  Layouts are never changed in
    place."""

    __slots__ = ("num", "den", "frac")

    def __init__(self, num, den=1, frac=False):
        self.num, self.den, self.frac = num, den, frac

    @classmethod
    def reduced(cls, num, den, frac):
        """num / den over the lcm of the reduced denominators: den / gcd(den,
        every numerator), one gcd for the order."""
        if den > 1:
            g = math.gcd(den, *chain.from_iterable(num))
            if g > 1:
                num = [[v // g for v in row] for row in num]
                den //= g
        return cls(num, den, frac)

    @property
    def roots(self):
        return len(self.num)

    def values(self):
        flat, den = chain.from_iterable(self.num), self.den
        if not self.frac:
            return list(flat)
        if den == 1:  # one-argument Fractions skip the gcd
            return list(map(Fraction, flat))
        return [Fraction(v, den) for v in flat]

    def plain(self):
        return not self.frac and max(map(max, self.num)) <= 1 and min(map(min, self.num)) >= -1

    def scaled(self, c):
        """c times every value: on numerators when c is exact."""
        if type(c) not in _EXACT:
            return _store([c * v for v in self.values()], self.roots)
        num = [[v * c.numerator for v in row] for row in self.num]
        return _Exact.reduced(num, self.den * c.denominator, self.frac if type(c) is int else True)


class _Columns:
    """A float or complex order, in the layout of the column rule: ``arr``
    over (root, canonical ms), float64 with ``ints`` the mask of the lanes
    that hold ints (None when no lane does), or dtype=object with ``ints``
    None and the values themselves in the lanes.  float64 is used exactly
    when the values are ``_plain``."""

    __slots__ = ("arr", "ints")

    def __init__(self, arr, ints=None):
        self.arr, self.ints = arr, ints

    @property
    def roots(self):
        return self.arr.shape[0]

    def values(self):
        vals = self.arr.ravel().tolist()
        if self.ints is None:
            return vals
        return [int(v) if i else v for v, i in zip(vals, self.ints.ravel().tolist())]

    def plain(self):
        return self.arr.dtype != object

    def scaled(self, c):
        """c times every value: one float64 product when c keeps the lanes
        plain (an int lane times an int stays an int)."""
        if self.plain() and (type(c) is float or type(c) is int and -1 <= c <= 1):
            with np.errstate(all="ignore"):
                return _Columns(self.arr * c, self.ints if type(c) is int else None)
        return _store([c * v for v in self.values()], self.roots)


_EXACT = frozenset((int, Fraction))
_REAL = frozenset((int, Fraction, float))


def _plain(vals):
    """Whether float64 holds these values, and Python's arithmetic on them,
    exactly: floats, and ints in {-1, 0, 1}, whose products stay there and
    whose sums in a sweep stay far below 2**53."""
    types = set(map(type, vals))
    if not types <= {float, int}:
        return False
    return int not in types or all(-1 <= v <= 1 for v in vals if type(v) is int)


def _array(vals, roots, plain):
    """(values, int mask) over (root, ms): float64 with the mask of the int
    lanes (None when there is none) when ``plain``, else dtype=object."""
    if plain:
        arr = np.array(vals, dtype=float).reshape(roots, -1)
        if int not in set(map(type, vals)):
            return arr, None
        return arr, np.array([type(v) is int for v in vals]).reshape(roots, -1)
    arr = np.empty(len(vals), dtype=object)
    arr[:] = vals
    return arr.reshape(roots, -1), None


def _store(vals, roots):
    """The layout of one order from its values, roots outermost: ``_Exact``
    when every value is an int or a Fraction, holding Fractions when any
    value is one, else ``_Columns``.  A float64 array, as a float kernel
    returns it, has no int lane and is kept as it is."""
    if isinstance(vals, np.ndarray) and vals.dtype == np.float64:
        return _Columns(vals.reshape(roots, -1))
    types = set(map(type, vals))
    if types <= _EXACT:
        den = math.lcm(*(v.denominator for v in vals))
        flat = [v.numerator * (den // v.denominator) for v in vals]
        width = len(flat) // roots
        return _Exact([flat[i:i + width] for i in range(0, len(flat), width)], den, Fraction in types)
    return _Columns(*_array(vals, roots, _plain(vals)))


def _check_trunc(space, trunc, allow_large):
    """Refuse a negative truncation order and, unless ``allow_large``, a
    series above the desk-scale ceilings, before anything is computed."""
    if trunc < 0:
        raise DomainError("truncation order must be >= 0")
    check_scale(order=trunc, species=space.size, allow_large=allow_large)


def _start(roots, size, trunc, first=0):
    """Order layouts for a sweep to fill: ``first`` at order 0 of every
    root, and the int 0 above, which reads as a zero."""
    return [_store([first] * roots, roots)] + [
        _Exact([[0] * len(_rank(size, n))] * roots) for n in range(1, trunc + 1)
    ]


def _max_delta(x, y, top=0):
    """The largest |x - y| over two order layouts of the same keys, against
    a running maximum ``top``, and whether every delta is 0.  A delta
    replaces ``top`` when it is larger, or NaN, which then stays; the first
    largest one wins, with its type (a Fraction when either value is one,
    an int from two ints, else a float).  Two equal exact layouts are done
    at once; two plain orders compare their float64 arrays, and other
    orders their values one by one."""
    if type(x) is _Exact and type(y) is _Exact and x.den == y.den and x.num == y.num:
        return top, True
    if x.plain() and y.plain():
        (u, u_ints), (v, v_ints) = _arrays(x, True), _arrays(y, True)
        with np.errstate(all="ignore"):
            delta = np.abs(u - v)
        if not delta.any():
            return top, True
        if np.isnan(delta).any():
            return math.nan, False
        i = int(delta.argmax())
        if delta.flat[i] > top:
            ints = u_ints is not None and v_ints is not None and u_ints.flat[i] and v_ints.flat[i]
            top = (int if ints else float)(delta.flat[i])
        return top, False
    same = True
    for v, w in zip(x.values(), y.values()):
        delta = abs(v - w)
        same = same and delta == 0
        if delta > top or delta != delta:
            top = delta
    return top, same


# ---------------------------------------------------------------------------
# Template sums: ``_sweep`` and its exact rule


def _sweep(size, orders, kind, out, k, g=None, f=None, sub=None, init=None):
    """Set order n of ``out`` to the template sum of ``kind`` at every
    canonical ms of order n and every root q, for the given orders in turn.

    ``out``, ``k``, ``g``, ``sub`` and ``init`` are lists of order layouts
    (``_Exact`` or ``_Columns``), as a series holds them, one row per root;
    each root q reads row q of ``k`` (and of ``g`` and ``init``):

    "split"      sum over (J, rest) of ``subset_splits(n)`` of
                 k(ms_J) g(ms_rest)
    "partition"  sum over partitions P of ``set_partitions(n)`` of
                 f[|P|] prod_blocks k(ms_b), for the scalar list ``f``
    "compose"    sum over (J, blocks) of ``compose_templates(n)`` of
                 k(ms_J) prod_(j in J) sub[ms_j](ms_(V_j)); ``sub`` has
                 one row per species, the substituted family, and must
                 already hold every order below n

    When ``init`` is given the sum is ``init`` at ms minus the terms, as in
    ``log_series``, ``extract_d_from_a`` and ``dissymmetry_check``.  ``k``
    or ``sub`` may be ``out`` itself: order n is written once it is
    complete, so the sweep reads the orders it has written, and order n as
    it was before.

    Two arithmetic rules, picked from every order of every list read (and
    ``f``).  When every one is ``_Exact``, each coefficient is one
    Python-int sum of numerators over a common denominator D_n
    (``_sweep_exact``), and order n is stored as those numerators over D_n
    reduced by one gcd: equal in value to the term-by-term sum, and all
    Fractions when an order it reads holds Fractions, else all ints.  That
    rule reads the cached template groups of the run pattern of ms, one
    entry per group, and never the templates.  Otherwise (floats, complex) the column rule
    (``_sweep_columns``) runs each template once per order, as elementwise
    steps over the stored arrays of every root and ms of that order; each
    coefficient sees the operations, zero-skips and types of the
    term-by-term walk (``oracles.sweep_termwise``), so floats are
    identical to the bit.  No table is converted to a dict.
    """
    read = [o for X in (k, g, sub, init) if X is not None for o in X]
    if all(type(o) is _Exact for o in read) and all(type(v) in _EXACT for v in f or ()):
        _sweep_exact(size, orders, kind, out, k, g, f, sub, init)
    else:
        _sweep_columns(size, orders, kind, out, k, g, f, sub, init)


@lru_cache(maxsize=None)
def _count_vectors(runs):
    """The count vectors c <= runs entrywise (c_r species of run r) of a run
    pattern, named by their mixed-radix indices i(c) = sum_r c_r stride_r.
    Index order is lexicographic order, and for c <= v entrywise
    i(v - c) = i(v) - i(c).  Returns the strides and, per index: the size
    sum(c), the product of the factorials of c, the indices of every
    c' <= c in ascending order, and, for c != 0, (the index of c less one
    unit of its last nonzero run r, r), from which ``_tails`` builds the
    tails."""
    stride = [math.prod(x + 1 for x in runs[r + 1:]) for r in range(len(runs))]
    vectors = list(product(*(range(x + 1) for x in runs)))
    sizes = [sum(c) for c in vectors]
    facts = [math.prod(map(math.factorial, c)) for c in vectors]
    subs = [
        [sum(map(math.prod, zip(b, stride))) for b in product(*(range(x + 1) for x in c))]
        for c in vectors
    ]
    steps = []
    for i, c in enumerate(vectors[1:], 1):
        r = max(r for r, x in enumerate(c) if x)
        steps.append((i - stride[r], r))
    return stride, sizes, facts, subs, steps


@lru_cache(maxsize=None)
def _template_groups(kind, runs):
    """The templates of ``kind`` at order n = sum(runs), grouped by the tails
    they read at any canonical multi-index whose runs of equal species have
    the lengths ``runs``, listed in the order of ``_tails``.  The kernel
    reads sorted patterns only: ``_tails`` lists the runs of ms by length,
    so one table serves every permutation of a pattern.  A tail is named by
    the index of its count vector (``_count_vectors``).  Returns (pairs,
    groups), with ``pairs`` the distinct (owner run, block tail) factors of
    a composition, and per group

    "split"      (shape, count, J, rest)
    "partition"  (shape, count, blocks), one per multiset of block tails
    "compose"    (shape, count, J, indices of its factors in ``pairs``),
                 one per tail of J and multiset of (owner run, block tail)

    ``count`` is the number of templates in the group, a multinomial
    coefficient prod_r runs_r! over the factorials of the block counts and
    of the multiplicities of equal blocks, so no template is walked.  The
    block indices of a partition never increase, nor do those of the owners
    of one run.  ``shape`` is (the orders read of ``k``, the
    sorted orders read of the second table); a partition reads its sorted
    block sizes of ``k``.  Every template of a group has the group's shape.
    """
    stride, sizes, facts, subs, _ = _count_vectors(runs)
    top = len(sizes) - 1  # the index of runs itself
    full = facts[top]
    pairs, groups = {}, []

    def partitions(v, prev, m, den, blocks):
        # the largest block left holds a unit of the first nonzero run of v
        lead = max(x for x in stride if x <= v)
        for b in subs[v]:
            if b > prev:
                break
            if b < lead:
                continue
            k = m + 1 if b == prev else 1
            if b == v:
                blocks_b = (*blocks, b)
                shape = (tuple(sorted(sizes[x] for x in blocks_b)), ())
                groups.append((shape, full // (den * facts[b] * k), blocks_b))
            else:
                partitions(v - b, b, k, den * facts[b] * k, (*blocks, b))

    def owner_blocks(owners, J, i, rest, prev, m, den, blocks):
        # owners of one run are interchangeable: their blocks never increase
        same = i > 0 and owners[i] == owners[i - 1]
        last = i == len(owners) - 1
        for v in (rest,) if last else subs[rest]:
            if same and v > prev:
                break
            k = m + 1 if same and v == prev else 1
            if last:
                blocks_v = (*blocks, v)
                shape = ((sizes[J],), tuple(sorted(sizes[x] for x in blocks_v)))
                ids = tuple(pairs.setdefault(rv, len(pairs)) for rv in zip(owners, blocks_v))
                groups.append((shape, full // (den * facts[v] * k), J, ids))
            else:
                owner_blocks(owners, J, i + 1, rest - v, v, k, den * facts[v] * k, (*blocks, v))

    if kind == "partition":
        if top:
            partitions(top, top, 0, 1, ())
        else:
            groups.append((((), ()), 1, ()))  # the empty partition of order 0
        return (), tuple(groups)
    for J in range(top + 1):
        if kind == "split":
            shape = ((sizes[J],), (sizes[top - J],))
            groups.append((shape, full // (facts[J] * facts[top - J]), J, top - J))
        elif J:
            owners = [r for r, s in enumerate(stride) for _ in range(J // s % (runs[r] + 1))]
            owner_blocks(owners, J, 0, top - J, None, 0, 1, ())
    return tuple(pairs), tuple(groups)


def _tails(ms):
    """The run lengths of a canonical multi-index ms (its runs of equal
    species) sorted ascending, ties kept in the order of ms, the species of
    each run in that order, and the tail of ms at every count vector of the
    sorted pattern, by index (``_count_vectors``), each tail sorted."""
    runs, species = [], []
    for x in ms:
        if species and species[-1] == x:
            runs[-1] += 1
        else:
            runs.append(1)
            species.append(x)
    order = sorted(range(len(runs)), key=runs.__getitem__)
    runs, species = tuple(runs[r] for r in order), [species[r] for r in order]
    tails = [()]
    for i, r in _count_vectors(runs)[4]:
        tails.append(tuple(sorted(tails[i] + (species[r],))))
    return runs, species, tails


@lru_cache(maxsize=None)
def _tail_index(size, n):
    """Per canonical ms of order n, in order, what ``_tails`` gives: its
    sorted run lengths, the species of each run, and per count vector of
    that pattern the position of the tail of ms there among the canonical
    multi-indices of orders 0, 1, ..., n in turn, which is where
    ``_Numerators`` puts its numerator."""
    offset = [0]
    for m in range(n):
        offset.append(offset[-1] + len(_rank(size, m)))
    out = []
    for ms in canonical_indices(size, n):
        runs, species, tails = _tails(ms)
        out.append((runs, species, [offset[len(t)] + _rank(size, len(t))[t] for t in tails]))
    return tuple(out)


class _Numerators:
    """Per root, the numerators of orders 0..n of the exact layouts X in one
    list, extended in place as a sweep goes up its orders.  An order is read
    again only when X holds another layout there than the one read, as when
    a sweep reads ``out`` and has since written that order."""

    __slots__ = ("X", "read", "ends", "rows")

    def __init__(self, X):
        self.X, self.read, self.ends, self.rows = X, [], [0], [[] for _ in range(X[0].roots)]

    def upto(self, n):
        """The rows of orders 0..n as X holds them now."""
        X, read, ends = self.X, self.read, self.ends
        m = next((m for m, layout in enumerate(read[:n + 1]) if layout is not X[m]), len(read))
        if m < len(read):
            for row in self.rows:
                del row[ends[m]:]
            del read[m:], ends[m + 1:]
        for m in range(len(read), n + 1):
            for row, num in zip(self.rows, X[m].num):
                row.extend(num)
            read.append(X[m])
            ends.append(len(self.rows[0]))
        return self.rows


# The groups times c_T of the exact rule are kept across sweeps, per (kind,
# sorted run pattern, scale), in an LRU cache of this size: scaling the groups
# afresh at every sweep made the identity suite 1.19x slower
SCALED_PLANS = 256


@lru_cache(maxsize=None)
def _shapes(kind, n):
    """The distinct shapes of ``kind`` at order n, in a fixed order: the
    one-run pattern's groups hold every shape of order n, each once."""
    return tuple(shape for shape, *_ in _template_groups(kind, (n,) if n else ())[1])


@lru_cache(maxsize=SCALED_PLANS)
def _scaled_groups(kind, runs, scale):
    """``_template_groups`` of a sorted run pattern with each count
    multiplied by the c_T of its shape, ``scale`` holding one c_T per shape
    of ``_shapes`` in order.  A shape with c_T = 0 (a partition whose f is
    0) is dead, and its groups are dropped."""
    c_of = dict(zip(_shapes(kind, sum(runs)), scale))
    pairs, groups = _template_groups(kind, runs)
    scaled = ((count * c_of[shape], *reads) for shape, count, *reads in groups)
    return pairs, tuple(group for group in scaled if group[0])


def _group_rows(kind, size, n, scale):
    """Per canonical ms of order n in turn, the live scaled groups of its
    sorted run pattern, (c, j, r) for a split or (c, blocks) for a
    partition, and its tail positions (``_tail_index``), which the groups
    index.  Each pattern's groups are looked up once per sweep."""
    groups = {}
    for runs, _, tails in _tail_index(size, n):
        if runs not in groups:
            groups[runs] = _scaled_groups(kind, runs, scale)[1]
        yield groups[runs], tails


def _compose_rows(size, n, scale, G):
    """Per canonical ms of order n in turn, its row of a composition and its
    tail positions, as ``_group_rows`` gives them: the factors of ``sub``
    (numerator rows ``G``) multiplied into the scaled groups, merged by the
    tail of k, as (j, c) for the tail at ``tails[j]``."""
    for runs, species, tails in _tail_index(size, n):
        pairs, groups = _scaled_groups("compose", runs, scale)
        fv = [G[species[r]][tails[v]] for r, v in pairs]
        coef = {}
        for c, j, ids in groups:
            for x in ids:
                c *= fv[x]
                if not c:
                    break
            else:
                coef[j] = coef.get(j, 0) + c
        yield [(j, c) for j, c in coef.items() if c], tails


def _sweep_exact(size, orders, kind, out, k, g, f, sub, init):
    """The exact rule of ``_sweep``.  At order n a template T that reads the
    orders m_1.. of its tables (and f[r]) has d_T = prod den(m_i) (times the
    denominator of f[r]); with D_n the lcm of every d_T and of the
    denominator of ``init`` at n, T is scaled by c_T = D_n // d_T and the
    coefficient is total / D_n for the integer total of c_T times
    numerators.  The totals are stored as they are, over D_n divided by
    their gcd with it.

    The templates are never walked one by one.  Every template that reads
    the same tails at ms does so at every multi-index with the run lengths
    of ms, so ``_template_groups`` caches, per kind and sorted run pattern,
    one representative and a count per group, and a row adds count * c_T
    once per group; ms reads the table at its sorted pattern as ``_tails``
    lists its runs.  d_T depends only on the shape of T, so an order's
    scale is one c_T per shape (``_shapes``), and the groups times c_T
    (``_scaled_groups``) are kept per scale, bounded, for later sweeps.  A
    row indexes the tail positions of its ms (``_tail_index``), which are
    read in place; a split or partition row is the kept groups of the
    sorted pattern of ms.  The group order within a row changes no total,
    as totals are Python-int sums.  In a composition the factors of
    ``sub``, the same for every root, are multiplied into the scale at each
    sweep, and groups merge by the tail of ``k``."""
    second = g if g is not None else sub
    K_rows = _Numerators(k)
    G_rows = None if second is None else _Numerators(second)
    for n in orders:
        # (d_T, numerator of f) per shape; a dead partition reads (1, 0)
        terms, fraction = [], False
        for ko, so in _shapes(kind, n):
            if kind == "partition":
                fr = f[len(ko)]
                if fr == 0:
                    terms.append((1, 0))
                    continue
                d, fn, frac = fr.denominator, fr.numerator, type(fr) is Fraction
            else:
                d, fn = math.prod(second[m].den for m in so), 1
                frac = any(second[m].frac for m in so)
            terms.append((d * math.prod(k[m].den for m in ko), fn))
            fraction = fraction or frac or any(k[m].frac for m in ko)
        D = math.lcm(*(d for d, _ in terms))
        if init is not None:
            D = math.lcm(D, init[n].den)
            fraction = fraction or init[n].frac
            c_init = D // init[n].den
        scale = tuple(D // d * fn for d, fn in terms)
        K = K_rows.upto(n)
        G = None if G_rows is None else G_rows.upto(n)
        if kind == "compose":
            rows = _compose_rows(size, n, scale, G)
        else:
            rows = _group_rows(kind, size, n, scale)
        nums = [[] for _ in K]
        for i, (row, tails) in enumerate(rows):
            for q, kq in enumerate(K):
                total = 0
                if kind == "split":
                    gq = G[q]
                    for c, j, r in row:
                        a = kq[tails[j]]
                        if a:
                            b = gq[tails[r]]
                            if b:
                                total += c * a * b
                elif kind == "partition":
                    for c, blocks in row:
                        for b in blocks:
                            c *= kq[tails[b]]
                            if not c:
                                break
                        total += c
                else:
                    for j, c in row:
                        a = kq[tails[j]]
                        if a:
                            total += c * a
                if init is not None:
                    total = init[n].num[q][i] * c_init - total
                nums[q].append(total)
        out[n] = _Exact.reduced(nums, D, fraction)


# ---------------------------------------------------------------------------
# Column kernel: the float and complex rule of ``_sweep``


@lru_cache(maxsize=None)
def _order_codes(size, m):
    """The canonical multi-indices of order m in storage order, each read as
    the digits of a base-``size`` number, first digit highest: an ascending
    int64 array, since the storage order is lexicographic.  The largest
    code, size^m - 1, fits in int64 unless size^m > 2^63, which needs, for
    example, size >= 6,209 at m = 5, where the order's C(size+m-1, m) keys
    could never be built."""
    return _order_plan(size, m)[0] @ _radix(size, m)


def _radix(size, m):
    """The place values size^(m-1), ..., size, 1 of an m-digit code."""
    return size ** np.arange(m - 1, -1, -1, dtype=np.int64)


@lru_cache(maxsize=None)
def _order_index(size, n):
    """For every position subset J of ``subset_splits(n)``, an int array
    over the canonical multi-indices ms of order n: the rank of ms_J among
    the canonical multi-indices of order |J|.  Templates read ms only at
    such subsets, so one array per subset serves every template and kind.
    A sorted ms_J is itself canonical, so its rank is where its code falls
    among the codes of order |J|."""
    X = _order_plan(size, n)[0]
    return {
        J: np.searchsorted(_order_codes(size, len(J)), X[:, J] @ _radix(size, len(J))).astype(np.int32)
        for J, _ in subset_splits(n)
    }


def _arrays(order, plain):
    """(values, int mask) of an order over (root, ms) for the column rule:
    float64 when ``plain``, else dtype=object.  A stored float64 order is
    read as it is."""
    if type(order) is _Columns and order.plain() == plain:
        return order.arr, order.ints
    if type(order) is _Exact and plain:  # ints in {-1, 0, 1}
        arr = np.array(order.num, dtype=float)
        return arr, np.ones(arr.shape, bool)
    return _array(order.values(), order.roots, plain)


def _keep_ints(ints, other, mask):
    """The int mask of lanes combined with a value whose int mask is
    ``other``, on the ``mask`` lanes (every lane for None): a lane stays an
    int only when both are.  None stands for a mask with no int lane."""
    if ints is None:
        return None
    if other is None:
        return None if mask is None else ints & ~mask
    return ints & other if mask is None else ints & (other | ~mask)


def _every_lane(mask):
    """None (every lane) when the bool lane mask is all True, else the mask."""
    return None if mask.all() else mask


def _sweep_columns(size, orders, kind, out, k, g, f, sub, init):
    """The column rule of ``_sweep``.  At order n every order it reads is
    one array over (root, canonical ms), the stored one when its dtype is
    the one picked for n; each template gathers its operands through the
    cached position-subset index arrays of ``_order_index`` and applies its
    operations, in template order, as elementwise steps over every lane
    (root, ms) at once:

    - a lane where k(ms_J) (or, for a split, g(ms_rest)) is 0 adds nothing,
      and neither does a partition with f[#blocks] == 0;
    - a product stops multiplying on a lane once it reads 0;
    - the term is added to the lanes that take it, or subtracted from them
      when the sum starts from ``init``.

    Each lane thus sees the operations, in the order, of the term-by-term
    walk ``oracles.sweep_termwise``.  A step whose lanes are all live (every
    k(ms_J) nonzero, or every running product) runs without a lane mask,
    which does the same operations on every lane.  The operands are only
    read, so each factor of ``sub`` is gathered once per order, and a
    column again only when J moves (templates of one J are adjacent in a
    composition).  The dtype is picked per order from
    every order it reads: float64 when all are ``_plain``, with an int mask
    that gives each coefficient the type Python would (an int zero carries
    no sign: -1 * 0 added to -0.0 gives +0.0); dtype=object otherwise
    (complex values, Fractions among floats, large ints).  Order n is
    stored as the float64 array when no lane holds an int, and from its
    values otherwise."""
    accumulate = np.add if init is None else np.subtract
    roots = k[0].roots
    converted = {}  # (id, dtype) -> (order, arrays) of orders not stored so

    def arrays(order, plain):
        got = converted.get((id(order), plain))
        if got is None:
            got = converted[id(order), plain] = order, _arrays(order, plain)
        return got[1]

    with np.errstate(all="ignore"):
        for n in orders:
            index = _order_index(size, n)
            if kind == "split":
                templates = subset_splits(n)
                reads = [X[m] for X in (k, g) for m in range(n + 1)]
            elif kind == "partition":
                templates = [P for P in set_partitions(n) if f[len(P)] != 0]
                reads = [k[m] for m in {len(b) for P in templates for b in P}]
            else:
                templates = compose_templates(n)
                reads = [k[m] for m in range(1, n + 1)] + [sub[m] for m in range(n)]
            if init is not None:
                reads.append(init[n])
            scalars = [f[len(P)] for P in templates] if kind == "partition" else []
            plain = _plain(scalars) and all(order.plain() for order in reads)
            dtype = float if plain else object
            shape = roots, len(_rank(size, n))

            # operands are only read: the factors of order n are gathered
            # once each, and a column is held until another is gathered,
            # which in a composition's template order is when J moves
            held, factors = {}, {}

            def column(X, J):
                """(values, int mask, nonzero lanes) of ``X`` at ms_J; a
                partition reads no lanes, so it gets None for them."""
                key = id(X), J
                if key not in held:
                    arr, ints = arrays(X[len(J)], plain)
                    col = arr[:, index[J]]
                    held.clear()
                    lanes = None if kind == "partition" else col != 0
                    held[key] = col, None if ints is None else ints[:, index[J]], lanes
                return held[key]

            def factor(j, V):
                """(values, int mask) of sub[ms_j](ms_V), the same for every root."""
                got = factors.get((j, V))
                if got is None:
                    arr, ints = arrays(sub[len(V)], plain)
                    at = index[(j,)], index[V]
                    got = factors[j, V] = arr[at], None if ints is None else ints[at]
                return got

            if init is None:
                total = np.zeros(shape, dtype)
                total_ints = np.ones(shape, bool) if plain else None
            else:
                total, total_ints = arrays(init[n], plain)
                total = total.copy()
            for template in templates:
                # the first factor, the lanes that add a term (every lane for
                # None) and the other factors
                if kind == "partition":
                    fr = f[len(template)]
                    term = np.full(shape, fr, dtype)
                    term_ints = np.ones(shape, bool) if plain and type(fr) is int else None
                    live, operands = None, [column(k, b)[:2] for b in template]
                else:
                    J, rest = template
                    term, term_ints, live = column(k, J)
                    term = term.copy()
                    if kind == "split":
                        b, b_ints, b_live = column(g, rest)
                        live = live & b_live  # a split skips a zero g as well
                        operands = [(b, b_ints)]
                    else:
                        operands = [factor(j, V) for j, V in zip(J, rest)]
                    live = _every_lane(live)
                nonzero = live
                for i, (v, v_ints) in enumerate(operands):
                    if i:
                        nonzero = _every_lane(term != 0)
                    np.multiply(term, v, out=term, where=True if nonzero is None else nonzero)
                    term_ints = _keep_ints(term_ints, v_ints, nonzero)
                if term_ints is not None:
                    np.add(term, 0.0, out=term, where=term_ints)  # an int zero has no sign
                accumulate(total, term, out=total, where=True if live is None else live)
                total_ints = _keep_ints(total_ints, term_ints, live)
            if total_ints is None or not total_ints.any():
                out[n] = _Columns(total) if plain else _store(total.ravel().tolist(), roots)
            else:
                out[n] = _store(_Columns(total, total_ints).values(), roots)


def _check_measure(K, vals):
    if len(vals) != K.space.size:
        raise StructureError("measure length must match species count")


def measure_sums(K, vals, start=0):
    """sum_n (1/n!) sum_x K_n(x) prod_j nu(x_j) w(x_j) via canonical sums,
    for the values ``vals`` of nu and the weights w of K's space.

    A series gives one value, a rooted family one sum per root, from order
    ``start`` on.  Values of another length than the species count raise
    StructureError.  Two arithmetic rules, like ``_sweep``.  When nu and
    the weights are ints or Fractions and every order read is stored
    ``_Exact``, the sums run on its numerators (``_measure_sums_exact``); a
    root's sum is then int 0 when every coefficient it reads is 0, and
    otherwise a Fraction, equal to the term-by-term rational sum.

    Otherwise the column rule runs each order as elementwise steps over its
    live lanes (root, ms), those of nonzero coefficients, at once: the term
    K_n(x) times nu(x_j), then w(x_j), position by position, times
    1/sym(x), and each root adds its terms to its running total in storage
    order (``_fold``).  Above order 0, an order's lanes are float64 when
    nu, the weights and the running totals are real and each product is a
    float times a real, which Python computes as the float times float() of
    the real: a float64 order with no int lane, or any float64 or exact
    order against a float nu (float(v) of an exact value rounds as its
    first product with a float does).  Otherwise they hold the Python
    values, so the same steps run Python's own operations (a float times
    Fraction(1, k) is the float times 1/k).  Each sum is the term-by-term
    sum (``oracles.measure_sums_termwise``) to the bit and in type: a root
    with no nonzero coefficient keeps the int 0, or its exact order-0
    value.
    """
    _check_measure(K, vals)
    weights = K.space.weights
    orders = range(start, K.trunc + 1)
    if all(type(v) in _EXACT for v in (*vals, *weights)) and all(
        type(K._orders[n]) is _Exact for n in orders
    ):
        return _measure_sums_exact(K, vals, orders)
    floats = all(type(v) is float for v in vals)
    lanes_of = np.array(vals, dtype=object), np.array(weights, dtype=object)
    floats_of = _floats(vals), _floats(weights)
    real = floats_of[0] is not None and floats_of[1] is not None
    totals = [0] * K.roots
    with np.errstate(all="ignore"):
        for n in orders:
            X, sym, inv = _order_plan(K.space.size, n)
            order = K._orders[n]
            # every product is a float times a real: a float coefficient, or
            # any real one times a float nu (an int times a Fraction is exact)
            plain = n > 0 and real and all(type(t) in _REAL for t in totals) and (
                floats if type(order) is _Exact else order.plain() and (floats or order.ints is None)
            )
            term, live = _lanes(order, plain)
            nu, w = floats_of if plain else lanes_of
            for x in X.T:
                np.multiply(term, nu[x], out=term, where=live)
                np.multiply(term, w[x], out=term, where=live)
            if not plain:  # a float times Fraction(1, k) is the float times 1/k
                inv = np.array([Fraction(1, int(k)) for k in sym.tolist()], dtype=object)
            np.multiply(term, inv, out=term, where=live)
            _fold(totals, term, live)
    return totals if K.rooted else totals[0]


def _measure_sums_exact(K, vals, orders):
    """The exact rule of ``measure_sums``.  With u_x = nu(x) w(x) = a_x / E
    over one denominator E and K's stored numerators num_q(ms) over den(n)
    per order, order n adds num_q(ms) m(ms) over canonical ms for the
    monomial numerator m(ms) = (n!/sym(ms)) prod_j a_(x_j), built once per
    ms from its prefix and shared by every root, over D_n = n! E^n den(n).
    Each root scales its order totals to the lcm D of the D_n and divides
    once."""
    size = K.space.size
    u = [v * w for v, w in zip(vals, K.space.weights)]
    E = math.lcm(*(x.denominator for x in u))
    a = [x.numerator * (E // x.denominator) for x in u]
    layout = K._orders
    sums = [[] for _ in range(K.roots)]  # per root: (order total, D_n) of live orders
    prods = {(): 1}
    for n in range(orders.stop):
        if n:
            prods = {ms: prods[ms[:-1]] * a[ms[-1]] for ms in canonical_indices(size, n)}
        if n < orders.start:
            continue
        fact = math.factorial(n)
        Dn = fact * E**n * layout[n].den
        row = [c * p for c, p in zip(_multinomials(size, n), prods.values())]
        for kq, out in zip(layout[n].num, sums):
            total, live = 0, False
            for k, m in zip(kq, row):
                if k:
                    live = True
                    total += k * m
            if live:
                out.append((total, Dn))
    D = math.lcm(*(Dn for out in sums for _, Dn in out))
    totals = [Fraction(sum(t * (D // Dn) for t, Dn in out), D) if out else 0 for out in sums]
    return totals if K.rooted else totals[0]


def _majorant_sums(G, nu, start=0):
    """Float majorants of a rooted family G, per order n and root q:

        sums[n][q] = sum_x |G_n(q; x)| prod_j |nu(x_j)| w(x_j) / sym(x)

    over canonical tails x, added in storage order, zero coefficients
    skipped, with w the weights of G's space; orders below ``start`` stay
    0.0.  The Sb, virMb and Mb certificates all sum through here, so their
    rounding is decided here.  Like ``measure_sums``, it runs each order as
    elementwise float64 steps over its live lanes (|v| times
    u_x = |nu(x)| w(x) position by position, over sym(x)) and adds each
    root's terms from 0.0 in storage order (``_fold``), the term-by-term
    loop ``oracles.majorant_sums_termwise`` to the bit.  It refuses a
    measure of another length than the species count.
    """
    _check_measure(G, nu)
    u = np.array([float(abs(v)) * float(wx) for v, wx in zip(nu, G.space.weights)])
    sums = [[0.0] * G.roots for _ in range(G.trunc + 1)]
    with np.errstate(all="ignore"):
        for n in range(start, G.trunc + 1):
            X, sym, _ = _order_plan(G.space.size, n)
            term, live = _lanes(G._orders[n], True, absolute=True)
            for x in X.T:
                np.multiply(term, u[x], out=term, where=live)
            np.divide(term, sym, out=term, where=live)
            _fold(sums[n], term, live)
    return sums


@lru_cache(maxsize=None)
def _order_plan(size, n):
    """For the canonical multi-indices ms of order n in storage order, as
    read-only arrays: the species at each position (ms x n, intp), and per
    ms sym(ms) as a float and 1/sym(ms).  Column j of the first, the j-th
    species of every ms, is also what the float graph sums read."""
    keys = _keys(size, n, False)
    X = np.array(keys, dtype=np.intp).reshape(len(keys), n)
    run, sym = np.ones(len(keys), np.intp), np.ones(len(keys))
    for a, b in zip(X.T, X.T[1:]):
        run = np.where(a == b, run + 1, 1)
        sym *= run
    plan = X, sym, 1.0 / sym
    for a in plan:
        a.setflags(write=False)
    return plan


def _floats(xs):
    """float64 of real values (ints, Fractions, floats), as Python converts
    them to multiply a float; None when one is not real or leaves the float
    range."""
    if not all(type(x) in _REAL for x in xs):
        return None
    try:
        return np.array([float(x) for x in xs])
    except OverflowError:
        return None


def _lanes(order, plain, absolute=False):
    """(lanes, live) of an order over (root, ms) for the sums against a
    measure, with |v| in place of each value v when ``absolute``: float64
    when ``plain`` (the stored array of a float64 ``_Columns``, num / den of
    an ``_Exact`` order, which is float(v) correctly rounded, else float()
    of each value), else dtype=object lanes of the values themselves.
    ``live`` marks the nonzero values as stored, so a Fraction that rounds
    to 0.0 stays live; the sums compute on live lanes only."""
    if plain and type(order) is _Columns and order.plain():
        lanes, live = order.arr.copy(), order.arr != 0
    elif plain and type(order) is _Exact:
        num, den = list(chain.from_iterable(order.num)), order.den
        lanes, live = np.array([v / den for v in num]), np.array([v != 0 for v in num])
    else:
        vals = order.values()
        live = np.array([v != 0 for v in vals], dtype=bool)
        if absolute:
            vals = [abs(v) for v in vals]
        lanes = np.array([float(v) for v in vals]) if plain else np.array(vals, dtype=object)
    if absolute and plain:
        lanes = np.abs(lanes)
    shape = order.roots, -1
    return lanes.reshape(shape), live.reshape(shape)


def _fold(totals, terms, live):
    """Add to each running total ``totals[q]`` the ``live`` lanes of row q
    of ``terms`` left to right, as Python's += would, with one sequential
    ``np.add.accumulate`` seeded with the total; never a ``.sum()``,
    ``math.fsum`` or the built-in ``sum``, which are pairwise or
    compensated, so their bits differ.  A float64 row sets its dead lanes
    to -0.0, which adds nothing to any float (+0.0 would turn -0.0 into
    +0.0), and takes float() of its seed, as an int or a Fraction plus a
    float does.  A row with no live lane keeps its total as it is."""
    hit = live.any(axis=1).tolist()
    if terms.dtype == object:
        for q, (row, keep) in enumerate(zip(terms, live)):
            if hit[q]:
                seg = np.empty(int(keep.sum()) + 1, dtype=object)
                seg[0], seg[1:] = totals[q], row[keep]
                totals[q] = np.add.accumulate(seg)[-1]
        return
    seg = np.empty((len(totals), terms.shape[1] + 1))
    seg[:, 0] = [float(t) if h else 0.0 for t, h in zip(totals, hit)]
    np.copyto(seg[:, 1:], terms)
    np.copyto(seg[:, 1:], -0.0, where=~live)
    for q, total in enumerate(np.add.accumulate(seg, axis=1)[:, -1].tolist()):
        if hit[q]:
            totals[q] = total


def left_sum(terms, start=0):
    """start + terms[0] + terms[1] + ..., added left to right.  The built-in
    ``sum`` adds floats with compensation from Python 3.12 on, so its bits
    depend on the interpreter; this fold gives every version the bits of
    3.11's ``sum``."""
    for t in terms:
        start = start + t
    return start


# ---------------------------------------------------------------------------
# Operations


def mul(K, G):
    """Series product: (KG)_n = sum over subsets J of K on J times G on rest.

    Two rooted families multiply root by root.
    """
    if K.rooted != G.rooted or K.space != G.space or K.trunc != G.trunc:
        raise StructureError("series must share space and truncation order")
    out = _start(K.roots, K.space.size, K.trunc)
    _sweep(K.space.size, range(K.trunc + 1), "split", out, K._orders, g=G._orders)
    return K._like(out)


def compose_univariate(fcoeffs, K):
    """Compose a univariate exponential-type series F with K (K_0 must be 0).

    fcoeffs lists f_0..f_M for F(t) = sum f_m t^m / m!.  The result is
    (F o K)_n = sum over set partitions P of [n] of f_(|P|) prod_blocks K.
    Missing f_m beyond the list are treated as 0.  A rooted family K is
    composed root by root.
    """
    ks = K._orders
    if any(v != 0 for v in ks[0].values()):
        raise DomainError("composition requires a series with zero constant term")
    f = list(fcoeffs)
    f += [0] * (K.trunc + 1 - len(f))
    out = _start(K.roots, K.space.size, K.trunc, first=f[0])
    _sweep(K.space.size, range(1, K.trunc + 1), "partition", out, ks, f=f)
    return K._like(out)


def exp_series(K):
    """exp of a series with zero constant term (composition with exp)."""
    return compose_univariate([1] * (K.trunc + 1), K)


def log_series(K):
    """log of a series with constant term 1, by triangular inversion.

    Solves exp(L) = K order by order: the single-block partition isolates
    L_n, every other partition involves only lower orders.
    """
    if K.constant() != 1:
        raise DomainError("log requires a series with constant term 1")
    out = _start(1, K.space.size, K.trunc)
    # weight 0 drops the single-block partition, weight 1 keeps the others
    f = [0, 0] + [1] * (K.trunc - 1)
    _sweep(K.space.size, range(1, K.trunc + 1), "partition", out, out, f=f, init=K._orders)
    return K._like(out)


def compose_measure(K, G):
    """Compose K with the substitution nu(dx) -> G(x; nu) nu(dx).

    G is a rooted family; its order-0 slice G_0(q) is the multiplier of the
    identity substitution and may be any value.  The constant term of the
    result is K_0.  A rooted family K is composed root by root.
    """
    if K.space != G.space or K.trunc != G.trunc:
        raise StructureError("series and family must share space and truncation")
    ks = K._orders
    out = _start(K.roots, K.space.size, K.trunc)
    out[0] = ks[0]
    _sweep(K.space.size, range(1, K.trunc + 1), "compose", out, ks, sub=G._orders)
    return K._like(out)
