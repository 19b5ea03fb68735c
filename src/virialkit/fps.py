"""Truncated formal power series in a measure over a finite species space.

A series K is the collection of symmetric coefficient functions K_n(x_1..x_n)
for 0 <= n <= N; it stands for the formal sum

    K[nu] = sum_n (1/n!) * sum_{x_1..x_n} K_n(x_1..x_n) nu(x_1)...nu(x_n)

with nu a measure on the species space.  Coefficients are stored once per
canonical (sorted) multi-index; evaluation at an arbitrary tuple sorts it.
All operations below work coefficientwise on positions of the canonical
representative, which realizes the multinomial multiplicities implicitly, so
no factorials ever appear until a series is summed against a measure.

The operations mirror the usual algebra of such series: pointwise sum,
product (subset splitting), composition with a univariate series
(set-partition sum), exp and log, and composition with a rooted family G,
where the substituted measure is G[x; nu] nu(dx):

    (K o G)_n(x_1..x_n) = sum over nonempty J subset [n] of K_(|J|)((x_j)_J)
        * sum over assignments of [n] minus J to owners j in J of
          prod_j G_(|V_j|)(x_j; (x_v)_{V_j})

``mul``, ``compose_univariate``/``exp_series`` and ``compose_measure`` also
accept a rooted family in place of the series K and then act root by root.

Every one of these sums runs through one row kernel (``_sweep``).  At each
canonical multi-index ms it builds once the keys the sum reads -- the
sub-multi-indices of ms picked out by the templates ``subset_splits``,
``set_partitions`` or ``compose_templates`` -- and evaluates that row for
every root before it moves on.  Each coefficient still sees its terms in
template order with the same multiplications and zero-skips, so results do
not depend on how many roots share a row: exact values are identical and
floats are identical to the bit.

Scalars may be Fractions (exact mode), floats, or complex; the series
algebra never divides, so exactness is preserved end to end.  Only the
float majorants of the certificates (``_majorant_sums``) leave exact mode.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product

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


class FormalSeries:
    """Truncated series: coefficient dicts for orders 0..trunc.

    Storage is dense over canonical multi-indices, which keeps equality and
    residual checks trivial.  Instances are treated as immutable.
    """

    __slots__ = ("space", "trunc", "coeffs")

    def __init__(self, space, trunc, coeffs=None, allow_large=False):
        if trunc < 0:
            raise DomainError("truncation order must be >= 0")
        check_scale(order=trunc, species=space.size, allow_large=allow_large)
        self.space = space
        self.trunc = trunc
        if coeffs is None:
            coeffs = [
                {ms: 0 for ms in canonical_indices(space.size, n)}
                for n in range(trunc + 1)
            ]
        self.coeffs = coeffs

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, space, trunc, allow_large=False):
        return cls(space, trunc, allow_large=allow_large)

    @classmethod
    def unit(cls, space, trunc, allow_large=False):
        s = cls(space, trunc, allow_large=allow_large)
        s.coeffs[0][()] = 1
        return s

    @classmethod
    def from_function(cls, space, trunc, fn, allow_large=False):
        """Build with fn(order, multi_index) -> value on canonical indices."""
        s = cls(space, trunc, allow_large=allow_large)
        for n in range(trunc + 1):
            s.coeffs[n] = {
                ms: fn(n, ms) for ms in canonical_indices(space.size, n)
            }
        return s

    # -- access ------------------------------------------------------------

    def value(self, n, xs):
        """Coefficient at order n evaluated at an arbitrary species tuple."""
        return self.coeffs[n][tuple(sorted(xs))]

    def constant(self):
        return self.coeffs[0][()]

    # -- algebra -----------------------------------------------------------

    def _like(self, coeffs):
        out = FormalSeries.__new__(FormalSeries)
        out.space = self.space
        out.trunc = self.trunc
        out.coeffs = coeffs
        return out

    def _check_compatible(self, other):
        if self.space != other.space or self.trunc != other.trunc:
            raise StructureError("series must share space and truncation order")

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

    def scale(self, c):
        return self._like([{ms: c * v for ms, v in comp.items()} for comp in self.coeffs])

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        if isinstance(other, FormalSeries):
            return mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        return (
            isinstance(other, FormalSeries)
            and self.space == other.space
            and self.trunc == other.trunc
            and all(c == d for c, d in zip(self.coeffs, other.coeffs))
        )

    def max_abs_diff(self, other):
        self._check_compatible(other)
        worst = 0
        for c, d in zip(self.coeffs, other.coeffs):
            for ms, v in c.items():
                delta = abs(v - d[ms])
                if delta > worst:
                    worst = delta
        return worst

    def evaluate(self, nu):
        """Numeric value sum_n (1/n!) sum_{x vec} K_n nu^n via canonical sums."""
        vals = nu.values if isinstance(nu, MeasureVec) else tuple(nu)
        return measure_sums(self.coeffs, vals, self.space.weights)

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
        def scalar(v):
            # a complex value is written as its [re, im] pair
            return complex(*map(parse_scalar, v)) if isinstance(v, list) else parse_scalar(v)

        space = SpeciesSpace.from_weights([scalar(w) for w in doc["weights"]])
        s = cls(space, doc["trunc"], allow_large=allow_large)
        for n_str, entries in doc["orders"].items():
            n = int(n_str)
            for e in entries:
                s.coeffs[n][tuple(e["idx"])] = scalar(e["value"])
        return s

    @classmethod
    def from_json(cls, text, allow_large=False):
        return cls.from_json_dict(json.loads(text), allow_large=allow_large)

    def __repr__(self):
        return f"FormalSeries(S={self.space.size}, N={self.trunc})"


def _scalar_to_json(v):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, int):
        return f"{v}/1"
    return v


class RootedSeriesFamily:
    """A family of series G(q; . ) indexed by a distinguished root species q.

    Coefficients are stored per order as maps (q, canonical tail) -> value;
    only the tail is symmetrized, the root slot is genuinely distinguished.
    """

    __slots__ = ("space", "trunc", "coeffs")

    def __init__(self, space, trunc, coeffs=None, allow_large=False):
        if trunc < 0:
            raise DomainError("truncation order must be >= 0")
        check_scale(order=trunc, species=space.size, allow_large=allow_large)
        self.space = space
        self.trunc = trunc
        if coeffs is None:
            coeffs = [
                {
                    (q, ms): 0
                    for q in range(space.size)
                    for ms in canonical_indices(space.size, n)
                }
                for n in range(trunc + 1)
            ]
        self.coeffs = coeffs

    @classmethod
    def from_function(cls, space, trunc, fn, allow_large=False):
        """Build with fn(order, root, tail multi-index) -> value."""
        fam = cls(space, trunc, allow_large=allow_large)
        for n in range(trunc + 1):
            fam.coeffs[n] = {
                (q, ms): fn(n, q, ms)
                for q in range(space.size)
                for ms in canonical_indices(space.size, n)
            }
        return fam

    def value(self, n, q, xs):
        return self.coeffs[n][(q, tuple(sorted(xs)))]

    def scale(self, c):
        coeffs = [{key: c * v for key, v in comp.items()} for comp in self.coeffs]
        return RootedSeriesFamily(self.space, self.trunc, coeffs, allow_large=True)

    def root_series(self, q, allow_large=False):
        """The plain series K with K_n = G_n(q; . )."""
        out = FormalSeries(self.space, self.trunc, allow_large=allow_large)
        for n in range(self.trunc + 1):
            out.coeffs[n] = {
                ms: self.coeffs[n][(q, ms)]
                for ms in canonical_indices(self.space.size, n)
            }
        return out

    def max_abs_diff(self, other):
        if self.space != other.space or self.trunc != other.trunc:
            raise StructureError("families must share space and truncation order")
        worst = 0
        for c, d in zip(self.coeffs, other.coeffs):
            for key, v in c.items():
                delta = abs(v - d[key])
                if delta > worst:
                    worst = delta
        return worst

    def __eq__(self, other):
        return (
            isinstance(other, RootedSeriesFamily)
            and self.space == other.space
            and self.trunc == other.trunc
            and all(c == d for c, d in zip(self.coeffs, other.coeffs))
        )

    def __repr__(self):
        return f"RootedSeriesFamily(S={self.space.size}, N={self.trunc})"


# ---------------------------------------------------------------------------
# Row kernel: the one loop behind every template sum


def _tables(X):
    """Per-root coefficient tables: ``tables[q]`` maps each canonical tail,
    of any order, to its value.  A plain series is a family with one root."""
    if isinstance(X, FormalSeries):
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
    rooted = isinstance(K, RootedSeriesFamily)
    coeffs = [{} for _ in range(trunc + 1)]
    for q, table in enumerate(tables):
        for ms, v in table.items():
            coeffs[len(ms)][(q, ms) if rooted else ms] = v
    cls = RootedSeriesFamily if rooted else FormalSeries
    return cls(K.space, trunc, coeffs, allow_large=True)


def _sweep(size, orders, kind, outs, evaluate, sub=None):
    """Set ``outs[q][ms] = evaluate(q, ms, row)`` for every canonical ms of
    the given orders and every root q, in canonical order.

    ``row`` lists, in template order, the keys that the template sum of
    ``kind`` reads at ms.  It is built once per ms and shared by all roots:

    "split"      (ms_J, ms_rest) per (J, rest) of ``subset_splits(n)``
    "partition"  (ms_b for each block) per partition of ``set_partitions(n)``
    "compose"    (ms_J, factors) per (J, blocks) of ``compose_templates(n)``,
                 factors holding sub[ms_j][ms_(V_j)] for each owner j in J;
                 sub are the per-root tables of the substituted family, and
                 must already hold every order below n
    """
    for n in orders:
        for ms in canonical_indices(size, n):
            # every template reads ms at sorted position subsets
            key = {J: tuple(ms[p] for p in J) for J, _ in subset_splits(n)}
            if kind == "split":
                row = [(key[J], key[rest]) for J, rest in subset_splits(n)]
            elif kind == "partition":
                row = [tuple(key[b] for b in blocks) for blocks in set_partitions(n)]
            else:
                row = [
                    (key[J], tuple(sub[ms[j]][key[V]] for j, V in zip(J, blocks)))
                    for J, blocks in compose_templates(n)
                ]
            for q, out in enumerate(outs):
                out[ms] = evaluate(q, ms, row)


def _split_sum(row, k, g):
    """sum over splits of k(ms_J) g(ms_rest), skipping zero factors."""
    total = 0
    for kj, kr in row:
        a = k[kj]
        if a == 0:
            continue
        b = g[kr]
        if b == 0:
            continue
        total += a * b
    return total


def _partition_sum(row, k, f, total=0, subtract=False):
    """total +- sum over partitions of f[#blocks] prod_blocks k(ms_b);
    a partition with f[#blocks] == 0 is skipped."""
    for blocks in row:
        term = f[len(blocks)]
        if term == 0:
            continue
        for kb in blocks:
            term = term * k[kb]
            if term == 0:
                break
        if subtract:
            total -= term
        else:
            total += term
    return total


def _compose_sum(row, k, total=0, subtract=False):
    """total +- sum over templates of k(ms_J) prod factors; zero k skipped."""
    for kj, factors in row:
        term = k[kj]
        if term == 0:
            continue
        for g in factors:
            term = term * g
            if term == 0:
                break
        if subtract:
            total -= term
        else:
            total += term
    return total


def measure_sums(coeffs, vals, weights, roots=None, start=0):
    """sum_n (1/n!) sum_x c_n(x) prod_j nu(x_j) w(x_j) via canonical sums.

    ``coeffs`` holds per-order maps in series layout (roots=None: returns
    one value) or in family layout (q, tail) -> value (returns one sum per
    root).  One pass serves every root; each root adds its terms in storage
    order, from order ``start`` on.
    """
    totals = [0] * (roots or 1)
    for n in range(start, len(coeffs)):
        inv = {}
        for key, v in coeffs[n].items():
            if v == 0:
                continue
            q, ms = key if roots else (0, key)
            term = v
            for x in ms:
                term = term * vals[x] * weights[x]
            c = inv.get(ms)
            if c is None:
                k = sym_factor(ms)
                c = inv[ms] = (Fraction(1, k), 1 / k)
            # a float times a Fraction is the float times float(Fraction)
            totals[q] += term * c[1] if type(term) is float else term * c[0]
    return totals if roots else totals[0]


def _majorant_sums(coeffs, nu, weights, roots, start=0):
    """Float majorants of a rooted family, per order n and root q:

        sums[n][q] = sum_x |c_n(q; x)| prod_j |nu(x_j)| w(x_j) / sym(x)

    over canonical tails x, added in storage order, zero coefficients
    skipped; orders below ``start`` stay 0.0.  The Sb, virMb and Mb
    certificates all sum through here, so their rounding is decided here.
    """
    u = [abs(float(v)) * float(wx) for v, wx in zip(nu, weights)]
    sums = [[0.0] * roots for _ in coeffs]
    for n in range(start, len(coeffs)):
        row = sums[n]
        for (q, ms), v in coeffs[n].items():
            if v == 0:
                continue
            term = abs(float(v))
            for x in ms:
                term *= u[x]
            row[q] += term / sym_factor(ms)
    return sums


# ---------------------------------------------------------------------------
# Operations


def mul(K, G):
    """Series product: (KG)_n = sum over subsets J of K on J times G on rest.

    Two rooted families multiply root by root.
    """
    if (
        isinstance(K, RootedSeriesFamily) != isinstance(G, RootedSeriesFamily)
        or K.space != G.space
        or K.trunc != G.trunc
    ):
        raise StructureError("series must share space and truncation order")
    ks, gs = _tables(K), _tables(G)
    outs = [{} for _ in ks]
    _sweep(
        K.space.size, range(K.trunc + 1), "split", outs,
        lambda q, ms, row: _split_sum(row, ks[q], gs[q]),
    )
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
    _sweep(
        K.space.size, range(1, K.trunc + 1), "partition", outs,
        lambda q, ms, row: _partition_sum(row, ks[q], f),
    )
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
        K.space.size, range(1, K.trunc + 1), "partition", [out],
        lambda q, ms, row: _partition_sum(row, out, f, k[ms], subtract=True),
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
    _sweep(
        K.space.size, range(1, K.trunc + 1), "compose", outs,
        lambda q, ms, row: _compose_sum(row, ks[q]), sub=_tables(G),
    )
    return _packed(K, outs)

