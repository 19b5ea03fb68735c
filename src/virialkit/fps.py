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
root species q, stored per order under keys (q, ms); a plain series is its
one-root case, keyed by ms.  ``FormalSeries`` and ``RootedSeriesFamily``
share one container (construction, ``from_function``, ``scale``,
``max_abs_diff``, equality), and ``measure_sums``/``_majorant_sums`` read the
weights and the root count from the series or family they are given.

The operations mirror the usual algebra of such series: pointwise sum,
product (subset splitting), composition with a univariate series
(set-partition sum), exp and log, and composition with a rooted family G,
where the substituted measure is G[x; nu] nu(dx):

    (K o G)_n(x_1..x_n) = sum over nonempty J subset [n] of K_(|J|)((x_j)_J)
        * sum over assignments of [n] minus J to owners j in J of
          prod_j G_(|V_j|)(x_j; (x_v)_{V_j})

``mul``, ``compose_univariate``/``exp_series`` and ``compose_measure`` also
accept a rooted family in place of the series K and then act root by root.

Every one of these sums runs through one kernel (``_sweep``), which has two
arithmetic rules.  When every value a sum reads is an int or a Fraction,
each table is put over one denominator per order, and each coefficient is a
Python-int sum of scaled numerators over one common denominator, divided
once: that one exact division per coefficient keeps exactness end to end,
and the value equals the term-by-term rational sum.  This rule never walks
the templates.  The tails a template reads at ms depend only on the run
lengths of ms (its runs of equal species), so the templates are grouped once
per kind and run pattern by what they read, with a multinomial count per
group (``_template_groups``, built from vector partitions without
enumerating a template), and a row holds one entry per group.

Otherwise (floats, complex) the column rule runs.  At each order n the
order-m slice of a table is one array over (root, canonical ms of order m);
each template of ``subset_splits``, ``set_partitions`` or
``compose_templates`` gathers its operands through index arrays cached per
position subset and applies its operations, in template order, as
elementwise steps over every (root, ms) at once, with the zero-skips of the
term-by-term walk (``oracles.sweep_termwise``).  The arrays are float64,
with a mask of the lanes that hold ints so each coefficient keeps its
type, when every value read is a float or an int in {-1, 0, 1}, and
dtype=object otherwise, so complex values and Fractions among floats get
Python's own arithmetic lane by lane.  Either way each coefficient sees the
operations of the term-by-term walk, and floats are identical to the bit.

``measure_sums``, the sum of a series or family against a measure, has two
rules as well: on exact values it adds Python ints over one denominator per
order and divides once per root, and otherwise it adds its terms one at a
time.  Only the float majorants of the certificates (``_majorant_sums``)
leave exact mode.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product

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
        out *= run if run > 1 else 1
    # the loop above multiplies run each time it grows: 2, then 2*3, ...
    return out


class _Coefficients:
    """Storage shared by FormalSeries and RootedSeriesFamily.

    ``coeffs[n]`` maps every key of order n to its coefficient, for orders
    0..trunc.  A series is keyed by the canonical multi-index ms, a family by
    (root q, canonical tail ms), roots outermost; a plain series is the
    one-root case.  Storage is dense, which keeps equality and residual
    checks trivial.  Instances are treated as immutable.
    """

    __slots__ = ("space", "trunc", "coeffs")
    rooted = False

    def __init__(self, space, trunc, coeffs=None, allow_large=False):
        if trunc < 0:
            raise DomainError("truncation order must be >= 0")
        check_scale(order=trunc, species=space.size, allow_large=allow_large)
        self.space = space
        self.trunc = trunc
        if coeffs is None:
            coeffs = [dict.fromkeys(self._keys(space.size, n), 0) for n in range(trunc + 1)]
        self.coeffs = coeffs

    @classmethod
    def _keys(cls, size, n):
        """The keys of order n in storage order."""
        if cls.rooted:
            return [(q, ms) for q in range(size) for ms in canonical_indices(size, n)]
        return canonical_indices(size, n)

    @property
    def roots(self):
        """How many roots: the species count for a family, 1 for a series."""
        return self.space.size if self.rooted else 1

    @classmethod
    def from_function(cls, space, trunc, fn, allow_large=False):
        """Build with fn(order, multi_index) -> value for a series, and
        fn(order, root, tail multi-index) -> value for a family."""
        out = cls(space, trunc, [], allow_large=allow_large)
        out.coeffs = [
            {key: fn(n, *key) if cls.rooted else fn(n, key) for key in cls._keys(space.size, n)}
            for n in range(trunc + 1)
        ]
        return out

    def _like(self, coeffs):
        out = type(self).__new__(type(self))
        out.space = self.space
        out.trunc = self.trunc
        out.coeffs = coeffs
        return out

    def _check_compatible(self, other):
        if self.space != other.space or self.trunc != other.trunc:
            raise StructureError("series must share space and truncation order")

    def scale(self, c):
        return self._like([{key: c * v for key, v in comp.items()} for comp in self.coeffs])

    def max_abs_diff(self, other):
        self._check_compatible(other)
        worst = 0
        for c, d in zip(self.coeffs, other.coeffs):
            for key, v in c.items():
                delta = abs(v - d[key])
                if delta > worst:
                    worst = delta
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
    """Truncated series: coefficient dicts over canonical multi-indices for
    orders 0..trunc."""

    __slots__ = ()

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, space, trunc, allow_large=False):
        return cls(space, trunc, allow_large=allow_large)

    @classmethod
    def unit(cls, space, trunc, allow_large=False):
        s = cls(space, trunc, allow_large=allow_large)
        s.coeffs[0][()] = 1
        return s

    # -- access ------------------------------------------------------------

    def value(self, n, xs):
        """Coefficient at order n evaluated at an arbitrary species tuple."""
        return self.coeffs[n][tuple(sorted(xs))]

    def constant(self):
        return self.coeffs[0][()]

    # -- algebra -----------------------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        return self._like(
            [
                {ms: c[ms] + d[ms] for ms in c}
                for c, d in zip(self.coeffs, other.coeffs)
            ]
        )

    def __sub__(self, other):
        self._check_compatible(other)
        return self._like(
            [
                {ms: c[ms] - d[ms] for ms in c}
                for c, d in zip(self.coeffs, other.coeffs)
            ]
        )

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        if isinstance(other, FormalSeries):
            return mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

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
        s = cls(space, trunc, allow_large=allow_large)
        order_of = {str(n): n for n in range(trunc + 1)}
        for n_str, entries in orders.items():
            n = order_of.get(n_str)
            if n is None or not isinstance(entries, list):
                raise StructureError(f"orders must map 0..{trunc} to lists, got key {n_str!r}")
            comp, seen = s.coeffs[n], set()
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
                comp[ms] = scalar(e["value"])
        return s

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

    def root_series(self, q, allow_large=False):
        """The plain series K with K_n = G_n(q; . )."""
        coeffs = [
            {ms: comp[(q, ms)] for ms in canonical_indices(self.space.size, n)}
            for n, comp in enumerate(self.coeffs)
        ]
        return FormalSeries(self.space, self.trunc, coeffs, allow_large=allow_large)


# ---------------------------------------------------------------------------
# Template sums: ``_sweep`` and its exact rule


def _tables(X):
    """Per-root coefficient tables: ``tables[q]`` maps each canonical tail,
    of any order, to its value.  A plain series is a family with one root."""
    if not X.rooted:
        table = {}
        for comp in X.coeffs:
            table.update(comp)
        return [table]
    tables = [{} for _ in range(X.space.size)]
    for comp in X.coeffs:
        for (q, ms), v in comp.items():
            tables[q][ms] = v
    return tables


def _packed(K, tables, trunc=None):
    """Per-root tables stored like K: a series, or a family for a family K."""
    trunc = K.trunc if trunc is None else trunc
    rooted = K.rooted
    coeffs = [{} for _ in range(trunc + 1)]
    for q, table in enumerate(tables):
        for ms, v in table.items():
            coeffs[len(ms)][(q, ms) if rooted else ms] = v
    return type(K)(K.space, trunc, coeffs, allow_large=True)


def _sweep(size, orders, kind, outs, k, g=None, f=None, sub=None, init=None, subtract=False):
    """Set ``outs[q][ms]`` to the template sum of ``kind`` at ms for every
    canonical ms of the given orders and every root q, in canonical order.

    ``k`` (and ``g``, ``sub``, ``init``) are per-root tables like ``outs``;
    each root q reads ``k[q]``:

    "split"      sum over (J, rest) of ``subset_splits(n)`` of
                 k(ms_J) g(ms_rest), reading ``g[q]``
    "partition"  sum over partitions P of ``set_partitions(n)`` of
                 f[|P|] prod_blocks k(ms_b), for the scalar list ``f``
    "compose"    sum over (J, blocks) of ``compose_templates(n)`` of
                 k(ms_J) prod_(j in J) sub[ms_j](ms_(V_j)); ``sub`` are the
                 per-root tables of the substituted family, and must already
                 hold every order below n

    A sum starts from ``init[q][ms]`` when ``init`` is given, and
    ``subtract`` subtracts the terms from it.  ``outs`` may also be
    read (as ``k`` or ``sub``) at orders that are complete before the sweep
    writes them, and at ms itself, which then reads what ``outs`` held
    before the sweep.

    Two arithmetic rules.  When every value the sweep reads is an int or a
    Fraction, each table is put over one denominator per order and every
    coefficient is one Python-int sum over a common denominator D_n, divided
    once (``_sweep_exact``): equal in value to the term-by-term sum, an int
    exactly when every value read is an int.  That rule reads the cached
    template groups of the run pattern of ms, one entry per group, and never
    the templates.  Otherwise (floats, complex) the column kernel
    (``_sweep_columns``) runs each template once per order, as elementwise
    steps over every root and every ms of that order; each coefficient sees
    the operations, zero-skips and types of the term-by-term walk
    (``oracles.sweep_termwise``), so floats are identical to the bit.
    """
    read = [k, g, sub, init, None if f is None else [dict(enumerate(f))]]
    if all(type(v) in _EXACT for x in read if x is not None for t in x for v in t.values()):
        _sweep_exact(size, orders, kind, outs, k, g, f, sub, init, subtract)
    else:
        _sweep_columns(size, orders, kind, outs, k, g, f, sub, init, subtract)


_EXACT = frozenset((int, Fraction))


class _Numerators:
    """Exact per-root tables over one denominator per order: the value at a
    tail of order m is ``num[q][tail] / den(m)``, with den(m) the lcm of the
    denominators of every root's order-m values.  Orders are converted on
    first use, so a table that a sweep writes may be read at orders that are
    complete by then."""

    def __init__(self, tables, size):
        self.tables = tables
        self.size = size
        self.num = [{} for _ in tables]
        self.fraction = {}  # order -> whether a Fraction is stored there
        self._den = {}

    def den(self, m):
        d = self._den.get(m)
        if d is None:
            keys = tuple(canonical_indices(self.size, m))
            vals = [t[ms] for t in self.tables for ms in keys]
            d = self._den[m] = math.lcm(*{v.denominator for v in vals})
            self.fraction[m] = any(type(v) is Fraction for v in vals)
            for t, num in zip(self.tables, self.num):
                for ms in keys:
                    v = t[ms]
                    num[ms] = v.numerator * (d // v.denominator)
        return d


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
    the lengths ``runs``.  A tail is named by the index of its count vector
    (``_count_vectors``).  Returns (pairs, groups), with ``pairs`` the
    distinct (owner run, block tail) factors of a composition, and per group

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
    """The run lengths of a canonical multi-index ms, the species of each
    run, and the tail of ms at every count vector, by index
    (``_count_vectors``)."""
    runs, species = [], []
    for x in ms:
        if species and species[-1] == x:
            runs[-1] += 1
        else:
            runs.append(1)
            species.append(x)
    runs = tuple(runs)
    tails = [()]
    for i, r in _count_vectors(runs)[4]:
        tails.append(tails[i] + (species[r],))
    return runs, species, tails


def _sweep_exact(size, orders, kind, outs, k, g, f, sub, init, subtract):
    """The exact rule of ``_sweep``.  At order n a template T that reads the
    orders m_1.. of its tables (and f[r]) has d_T = prod den(m_i) (times the
    denominator of f[r]); with D_n the lcm of every d_T and of den(n) of
    ``init``, T is scaled by c_T = D_n // d_T and the coefficient is
    Fraction(total, D_n) for the integer total of c_T times numerators.

    The templates are never walked one by one.  Every template that reads
    the same tails at ms does so at every multi-index with the run lengths
    of ms, so ``_template_groups`` caches, per kind and run pattern, one
    representative and a count per group, and a row adds count * c_T once
    per group.  In a composition the factors of ``sub``, the same for every
    root, are multiplied into the scale first, and groups merge by the tail
    of ``k``."""
    K = _Numerators(k, size)
    second = g if g is not None else sub
    G = None if second is None else _Numerators(second, size)
    I = None if init is None else _Numerators(init, size)
    for n in orders:
        # the one-run pattern has every shape of order n, each once; a
        # partition with f[#blocks] == 0 is dead
        dens, fnum = {}, {}
        fraction = False
        for shape, *_ in _template_groups(kind, (n,) if n else ())[1]:
            ko, so = shape
            if kind == "partition":
                fr = f[len(ko)]
                if fr == 0:
                    continue
                d, frac, fnum[shape] = fr.denominator, type(fr) is Fraction, fr.numerator
            else:
                d = math.prod(G.den(m) for m in so)
                frac = any(G.fraction[m] for m in so)
            dens[shape] = d * math.prod(K.den(m) for m in ko)
            fraction = fraction or frac or any(K.fraction[m] for m in ko)
        if I is not None:
            dens["init"] = I.den(n)
            fraction = fraction or I.fraction[n]
        D = math.lcm(*dens.values())
        scale = {shape: D // d * fnum.get(shape, 1) for shape, d in dens.items()}
        scaled = {}  # run pattern -> (pairs, groups with count * c_T)
        for ms in canonical_indices(size, n):
            runs, species, tails = _tails(ms)
            if runs not in scaled:
                pairs, groups = _template_groups(kind, runs)
                scaled[runs] = pairs, [
                    (count * scale[shape], *reads)
                    for shape, count, *reads in groups
                    if shape in scale
                ]
            pairs, groups = scaled[runs]
            if kind == "split":
                row = [(c, tails[j], tails[r]) for c, j, r in groups]
            elif kind == "partition":
                row = [(c, [tails[b] for b in blocks]) for c, blocks in groups]
            else:
                subn = G.num
                fv = [subn[species[r]][tails[v]] for r, v in pairs]
                coef = {}
                for c, j, ids in groups:
                    for i in ids:
                        c *= fv[i]
                        if not c:
                            break
                    else:
                        coef[j] = coef.get(j, 0) + c
                row = [(tails[j], c) for j, c in coef.items() if c]
            for q, out in enumerate(outs):
                kq = K.num[q]
                total = 0
                if kind == "split":
                    gq = G.num[q]
                    for c, kj, kr in row:
                        a = kq[kj]
                        if a:
                            b = gq[kr]
                            if b:
                                total += c * a * b
                elif kind == "partition":
                    for c, blocks in row:
                        for kb in blocks:
                            c *= kq[kb]
                            if not c:
                                break
                        total += c
                else:
                    for kj, c in row:
                        a = kq[kj]
                        if a:
                            total += c * a
                if I is not None:
                    total = I.num[q][ms] * scale["init"] + (-total if subtract else total)
                out[ms] = Fraction(total, D) if fraction else total


# ---------------------------------------------------------------------------
# Column kernel: the float and complex rule of ``_sweep``


@lru_cache(maxsize=None)
def _order_index(size, n):
    """The canonical multi-indices of order n, and for every position subset
    J of ``subset_splits(n)`` an int array over them: the rank of ms_J among
    the canonical multi-indices of order |J|.  Templates read ms only at such
    subsets, so one array per subset serves every template and kind."""
    keys = tuple(canonical_indices(size, n))
    rank = [{ms: i for i, ms in enumerate(canonical_indices(size, m))} for m in range(n + 1)]
    cols = {
        J: np.fromiter((rank[len(J)][tuple(ms[p] for p in J)] for ms in keys), np.int32, len(keys))
        for J, _ in subset_splits(n)
    }
    return keys, cols


def _plain(vals):
    """Whether float64 holds these values, and Python's arithmetic on them,
    exactly: floats, and ints in {-1, 0, 1}, whose products stay there and
    whose sums in a sweep stay far below 2**53."""
    types = set(map(type, vals))
    if not types <= {float, int}:
        return False
    return int not in types or all(-1 <= v <= 1 for v in vals if type(v) is int)


class _Slices:
    """The order slices a column sweep reads.  The order-m slice of per-root
    tables is an array over (root, canonical ms of order m): float64 with the
    mask of its int lanes (None when no lane holds an int), or dtype=object,
    whose arithmetic is Python's own, lane by lane.  The slice of a table the
    sweep writes, read at the order being written, is built again at every
    order, so later orders see what the sweep wrote."""

    def __init__(self, size, outs):
        self.size = size
        self.written = {id(t) for t in outs}
        self.cache = {}

    def _key(self, tables, m, n):
        return id(tables), m, m >= n and id(tables[0]) in self.written

    def values(self, tables, m, n):
        """The slice's values, roots outermost, and whether they are plain."""
        key = self._key(tables, m, n)
        got = self.cache.get(key)
        if got is None:
            keys = _order_index(self.size, m)[0]
            vals = []
            for t in tables:
                vals.extend(map(t.__getitem__, keys))
            got = self.cache[key] = vals, _plain(vals)
        return got

    def array(self, tables, m, n, plain):
        """(values, int mask) of the slice, float64 when ``plain``."""
        key = (*self._key(tables, m, n), plain)
        got = self.cache.get(key)
        if got is None:
            vals = self.values(tables, m, n)[0]
            shape = len(tables), -1
            ints = None
            if plain:
                arr = np.array(vals, dtype=float)
                if int in set(map(type, vals)):
                    ints = np.array([type(v) is int for v in vals]).reshape(shape)
            else:
                arr = np.empty(len(vals), dtype=object)
                arr[:] = vals
            got = self.cache[key] = arr.reshape(shape), ints
        return got


def _keep_ints(ints, other, mask):
    """The int mask of lanes combined with a value whose int mask is
    ``other``, on the ``mask`` lanes (every lane for None): a lane stays an
    int only when both are.  None stands for a mask with no int lane."""
    if ints is None:
        return None
    if other is None:
        return None if mask is None else ints & ~mask
    return ints & other if mask is None else ints & (other | ~mask)


def _sweep_columns(size, orders, kind, outs, k, g, f, sub, init, subtract):
    """The column rule of ``_sweep``.  At order n every table slice it reads
    is one array over (root, canonical ms); each template gathers its
    operands through the cached position-subset index arrays of
    ``_order_index`` and applies its operations, in template order, as
    elementwise steps over every lane (root, ms) at once:

    - a lane where k(ms_J) (or, for a split, g(ms_rest)) is 0 adds nothing,
      and neither does a partition with f[#blocks] == 0;
    - a product stops multiplying on a lane once it reads 0;
    - the term is added to, or subtracted from, the lanes that take it.

    Each lane thus sees the operations, in the order, of the term-by-term
    walk ``oracles.sweep_termwise``.  The dtype is picked per order from
    every value that order reads: float64 when all are ``_plain``, with an
    int mask that gives each coefficient the type Python would (an int zero
    carries no sign: -1 * 0 added to -0.0 gives +0.0); dtype=object
    otherwise (complex values, Fractions among floats, large ints)."""
    slices = _Slices(size, outs)
    accumulate = np.subtract if subtract else np.add
    with np.errstate(all="ignore"):
        for n in orders:
            keys, index = _order_index(size, n)
            if kind == "split":
                templates = subset_splits(n)
                reads = [(t, m) for t in (k, g) for m in range(n + 1)]
            elif kind == "partition":
                templates = [P for P in set_partitions(n) if f[len(P)] != 0]
                reads = [(k, m) for m in {len(b) for P in templates for b in P}]
            else:
                templates = compose_templates(n)
                reads = [(k, m) for m in range(1, n + 1)] + [(sub, m) for m in range(n)]
            if init is not None:
                reads.append((init, n))
            scalars = [f[len(P)] for P in templates] if kind == "partition" else []
            plain = _plain(scalars) and all(slices.values(t, m, n)[1] for t, m in reads)
            dtype = float if plain else object
            shape = len(outs), len(keys)

            def column(tables, J):
                """(values, int mask, nonzero lanes) of ``tables`` at ms_J."""
                arr, ints = slices.array(tables, len(J), n, plain)
                col = arr[:, index[J]]
                return col, None if ints is None else ints[:, index[J]], col != 0

            def factor(j, V):
                """(values, int mask) of sub[ms_j](ms_V), the same for every root."""
                arr, ints = slices.array(sub, len(V), n, plain)
                at = index[(j,)], index[V]
                return arr[at], None if ints is None else ints[at]

            if init is None:
                total = np.zeros(shape, dtype)
                total_ints = np.ones(shape, bool) if plain else None
            else:
                total, total_ints = slices.array(init, n, n, plain)
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
                    if kind == "split":
                        b, b_ints, b_live = column(g, rest)
                        live = live & b_live  # a split skips a zero g as well
                        operands = [(b, b_ints)]
                    else:
                        operands = [factor(j, V) for j, V in zip(J, rest)]
                nonzero = live
                for i, (v, v_ints) in enumerate(operands):
                    if i:
                        nonzero = term != 0
                    np.multiply(term, v, out=term, where=True if nonzero is None else nonzero)
                    term_ints = _keep_ints(term_ints, v_ints, nonzero)
                if term_ints is not None:
                    np.add(term, 0.0, out=term, where=term_ints)  # an int zero has no sign
                accumulate(total, term, out=total, where=True if live is None else live)
                total_ints = _keep_ints(total_ints, term_ints, live)
            rows = total.tolist()
            if total_ints is not None and total_ints.any():
                rows = [
                    [int(v) if i else v for v, i in zip(row, row_ints)]
                    for row, row_ints in zip(rows, total_ints.tolist())
                ]
            for out, row in zip(outs, rows):
                out.update(zip(keys, row))


def _check_measure(K, vals):
    if len(vals) != K.space.size:
        raise StructureError("measure length must match species count")


def measure_sums(K, vals, start=0):
    """sum_n (1/n!) sum_x K_n(x) prod_j nu(x_j) w(x_j) via canonical sums,
    for the values ``vals`` of nu and the weights w of K's space.

    A series gives one value, a rooted family one sum per root, from order
    ``start`` on.  Values of another length than the species count raise
    StructureError.  Two arithmetic rules, like ``_sweep``.  When nu, the
    weights and every coefficient read are ints or Fractions, the sums run
    on Python ints (``_measure_sums_exact``); a root's sum is then int 0
    when every coefficient it reads is 0, and otherwise a Fraction, equal to
    the term-by-term rational sum.  Otherwise each root adds its terms
    K_n(x) prod_j nu(x_j) w(x_j) / sym(x) in storage order, one term at a
    time.
    """
    _check_measure(K, vals)
    weights = K.space.weights
    orders = range(start, K.trunc + 1)
    if all(type(v) in _EXACT for v in (*vals, *weights)) and all(
        type(v) in _EXACT for n in orders for v in K.coeffs[n].values()
    ):
        return _measure_sums_exact(K, vals, orders)
    rooted = K.rooted
    totals = [0] * K.roots
    for n in orders:
        sym = {}
        for key, v in K.coeffs[n].items():
            if v == 0:
                continue
            q, ms = key if rooted else (0, key)
            term = v
            for x in ms:
                term = term * vals[x] * weights[x]
            k = sym.get(ms)
            if k is None:
                k = sym[ms] = sym_factor(ms)
            # a float times a Fraction is the float times float(Fraction)
            totals[q] += term * (1 / k) if type(term) is float else term * Fraction(1, k)
    return totals if rooted else totals[0]


def _measure_sums_exact(K, vals, orders):
    """The exact rule of ``measure_sums``.  With u_x = nu(x) w(x) = a_x / E
    over one denominator E and K over one denominator den(n) per order
    (``_Numerators``), order n adds num_q(ms) m(ms) over canonical ms for
    the monomial numerator m(ms) = (n!/sym(ms)) prod_j a_(x_j), built once
    per ms from its prefix and shared by every root, over D_n = n! E^n
    den(n).  Each root scales its order totals to the lcm D of the D_n and
    divides once."""
    size = K.space.size
    u = [v * w for v, w in zip(vals, K.space.weights)]
    E = math.lcm(*(x.denominator for x in u))
    a = [x.numerator * (E // x.denominator) for x in u]
    num = _Numerators(_tables(K), size)
    sums = [[] for _ in num.num]  # per root: (order total, D_n) of live orders
    prods = {(): 1}
    for n in range(orders.stop):
        if n:
            prods = {ms: prods[ms[:-1]] * a[ms[-1]] for ms in canonical_indices(size, n)}
        if n < orders.start:
            continue
        fact = math.factorial(n)
        Dn = fact * E**n * num.den(n)
        row = [(ms, fact // sym_factor(ms) * p) for ms, p in prods.items()]
        for kq, out in zip(num.num, sums):
            total, live = 0, False
            for ms, m in row:
                k = kq[ms]
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
    0.0.  The Sb, virMb, Mb and dissym_b certificates all sum through here,
    so their rounding is decided here.  Like ``measure_sums``, it refuses a
    measure of another length than the species count.
    """
    _check_measure(G, nu)
    u = [float(abs(v)) * float(wx) for v, wx in zip(nu, G.space.weights)]
    sums = [[0.0] * G.roots for _ in G.coeffs]
    for n in range(start, G.trunc + 1):
        row = sums[n]
        sym = {ms: sym_factor(ms) for ms in canonical_indices(G.space.size, n)}
        for (q, ms), v in G.coeffs[n].items():
            if v == 0:
                continue
            term = float(abs(v))
            for x in ms:
                term *= u[x]
            row[q] += term / sym[ms]
    return sums


# ---------------------------------------------------------------------------
# Operations


def mul(K, G):
    """Series product: (KG)_n = sum over subsets J of K on J times G on rest.

    Two rooted families multiply root by root.
    """
    if K.rooted != G.rooted or K.space != G.space or K.trunc != G.trunc:
        raise StructureError("series must share space and truncation order")
    ks, gs = _tables(K), _tables(G)
    outs = [{} for _ in ks]
    _sweep(K.space.size, range(K.trunc + 1), "split", outs, ks, g=gs)
    return _packed(K, outs)


def compose_univariate(fcoeffs, K):
    """Compose a univariate exponential-type series F with K (K_0 must be 0).

    fcoeffs lists f_0..f_M for F(t) = sum f_m t^m / m!.  The result is
    (F o K)_n = sum over set partitions P of [n] of f_(|P|) prod_blocks K.
    Missing f_m beyond the list are treated as 0.  A rooted family K is
    composed root by root.
    """
    ks = _tables(K)
    if any(k[()] != 0 for k in ks):
        raise DomainError("composition requires a series with zero constant term")
    f = list(fcoeffs)
    f += [0] * (K.trunc + 1 - len(f))
    outs = [{(): f[0]} for _ in ks]
    _sweep(K.space.size, range(1, K.trunc + 1), "partition", outs, ks, f=f)
    return _packed(K, outs)


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
    k = _tables(K)[0]
    out = {(): 0}
    # weight 0 drops the single-block partition, weight 1 keeps the others
    f = [0, 0] + [1] * (K.trunc - 1)
    _sweep(
        K.space.size, range(1, K.trunc + 1), "partition", [out], [out],
        f=f, init=[k], subtract=True,
    )
    return _packed(K, [out])


def compose_measure(K, G):
    """Compose K with the substitution nu(dx) -> G(x; nu) nu(dx).

    G is a rooted family; its order-0 slice G_0(q) is the multiplier of the
    identity substitution and may be any value.  The constant term of the
    result is K_0.  A rooted family K is composed root by root.
    """
    if K.space != G.space or K.trunc != G.trunc:
        raise StructureError("series and family must share space and truncation")
    ks = _tables(K)
    outs = [{(): k[()]} for k in ks]
    _sweep(K.space.size, range(1, K.trunc + 1), "compose", outs, ks, sub=_tables(G))
    return _packed(K, outs)

