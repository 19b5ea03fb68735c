"""Graph classes over labeled vertices and their Mayer-weighted sums.

Graphs on n vertices are edge bitmasks over the C(n, 2) vertex pairs (i, j),
i < j, in lexicographic order.  The three classes used downstream are
connected graphs, biconnected graphs (no articulation vertex; a single edge
counts), and trees.  On top of the class tables this module provides

* ursell:    sum over connected graphs of the product of f over edges
             (the truncated weight of a configuration),
* d_coeff:   the same sum over biconnected graphs,

together with builders that assemble whole coefficient families as formal
series over a species space, among them the rooted activity coefficients

    A_n(q; x) = -(prod_j (1 + f(q, x_j)) - 1) * ursell(x).

A tuple's pair entries f(x_i, x_j) decide how its sums run.  Exact entries
(int and Fraction) are put over their common denominator L, so that every
edge weight a_p = f_p * L is a Python int; the sums then run in integer
arithmetic and are divided by a power of L once at the end.  Float entries
(or a matrix marked ``exact=False``) run the same recursion in floats.  The
float biconnected sum is a numpy gather over many tuples at once: a cached
read-only uint8 table [pairs x graphs] holds p where the graph has edge p
and C(n, 2) where it has not, so taking it from each tuple's pair values
plus a trailing 1.0 and multiplying down the pairs gives every graph's
product in pair order; each tuple's products are summed once.

The family builders stay on the integers too.  On a matrix of ints and
Fractions they call ``ursell`` and ``d_coeff`` once per distinct pattern of
pair entries (``per_pattern``), and ``build_A_family`` writes each factor
1 + f(q, x) as an int b_q(x) over one denominator L_q per root, so that a
bracket is an int over L_q^n and each coefficient is one quotient.  On any
other matrix they call per tuple and multiply the factors as they are,
except that on a float matrix ``build_D_family`` calls ``d_coeff`` once per
order, over every (root, tail) tuple of the order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from . import kernels
from .errors import CapabilityError, DomainError
from .fps import _EXACT, FormalSeries, RootedSeriesFamily, canonical_indices
from .species import MayerMatrices

MAX_CLASS_N = {"connected": 7, "biconnected": 7, "tree": 9}
URSELL_FAST_MAX = 12
D_COEFF_MAX = 7
# float elements per gathered (tuples x graphs) block of the float biconnected
# sum: bounds its temporaries at any species count
GATHER_ELEMENTS = 1 << 15


@lru_cache(maxsize=None)
def pair_order(n):
    """The fixed edge order: all (i, j) with i < j, lexicographic."""
    return tuple(combinations(range(n), 2))


def _prufer_edges(n, seq):
    """Edge list of the labeled tree with Pruefer sequence ``seq``."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        for v in range(n):
            if degree[v] == 1:
                edges.append((min(v, x), max(v, x)))
                degree[v] -= 1
                degree[x] -= 1
                break
    last = [v for v in range(n) if degree[v] == 1]
    edges.append((last[0], last[1]))
    return edges


@lru_cache(maxsize=None)
def class_masks(n, kind):
    """Sorted int64 array of edge masks of all graphs of the class."""
    if kind not in MAX_CLASS_N:
        raise DomainError(f"unknown graph class {kind!r}")
    if n < 2:
        raise DomainError("graph classes need n >= 2")
    if n > MAX_CLASS_N[kind]:
        raise CapabilityError(f"{kind} enumeration supports n <= {MAX_CLASS_N[kind]}")
    if kind == "tree":
        index = {pair: p for p, pair in enumerate(pair_order(n))}
        masks = []
        for seq in product(range(n), repeat=n - 2):
            m = 0
            for i, j in _prufer_edges(n, seq):
                m |= 1 << index[(i, j)]
            masks.append(m)
        return np.array(sorted(masks), np.int64)
    pairs = pair_order(n)
    pi = [i for i, _ in pairs]
    pj = [j for _, j in pairs]
    mode = 0 if kind == "connected" else 1
    return kernels.scan_masks(n, pi, pj, mode)


def count_class(n, kind):
    return len(class_masks(n, kind))


@lru_cache(maxsize=None)
def _biconnected_gather_index(n):
    """Read-only uint8 table [pairs x graphs] over the biconnected class:
    entry p where the graph has edge p, and P = C(n, 2) where it has not,
    so that it gathers from the pair values followed by a trailing 1.0."""
    masks = class_masks(n, "biconnected")
    P = len(pair_order(n))
    index = np.empty((P, len(masks)), np.uint8)
    for p in range(P):
        index[p] = np.where(masks >> p & 1, p, P)
    index.flags.writeable = False
    return index


def _gather_sums(pairs_of, count, index):
    """Per tuple t < count: sum over graphs g of prod over pairs p of W[index[p, g], t],
    with W[:, lo:hi] = pairs_of(lo, hi) the C-ordered ((pairs + 1) x tuples)
    float64 block of the tuples' pair values over a trailing row of 1.0.

    Each graph's product runs down the pairs in order.  The products are
    written into a C-ordered (tuples x graphs) block, whose rows are summed
    once each, pairwise, as one contiguous row is; a reduction along an
    F-ordered block adds in another order and moves the last bits.  The
    blocks hold GATHER_ELEMENTS floats: a chunk of tuples, or of one
    tuple's graphs when the class is larger.
    """
    P, G = index.shape
    rows = max(1, GATHER_ELEMENTS // G)
    width = min(G, GATHER_ELEMENTS)
    sums = np.empty(count)
    for lo in range(0, count, rows):
        W = pairs_of(lo, min(lo + rows, count))
        terms = np.empty((W.shape[1], G))
        for g in range(0, G, width):
            cols = index[:, g:g + width]
            acc = W.take(cols[0], axis=0)
            for row in cols[1:]:
                acc *= W.take(row, axis=0)
            terms[:, g:g + width] = acc.T
        sums[lo:lo + rows] = terms.sum(axis=1)
    return sums


def _f_matrix(f):
    if isinstance(f, MayerMatrices):
        return f.f, f.exact
    return f, None


def _pair_values(f, xs):
    """The entries f(x_i, x_j), i < j, in pair order, and whether they are exact.

    A matrix says so itself; a raw nested list is exact unless one of the
    tuple's pair entries is a float.
    """
    fm, exact = _f_matrix(f)
    vals = [fm[xs[i]][xs[j]] for i, j in pair_order(len(xs))]
    if exact is None:
        exact = not any(isinstance(v, float) for v in vals)
    return vals, exact


def _float_entries(f):
    """Whether every tuple's sums take the float route: a matrix marked
    ``exact=False``, or a raw matrix of floats only."""
    fm, exact = _f_matrix(f)
    if exact is None:
        return all(isinstance(v, float) for row in fm for v in row)
    return not exact


def _over_common_denominator(vals):
    """(L, a): L the lcm of the denominators, a_p = vals[p] * L as ints."""
    L = math.lcm(*(v.denominator for v in vals))
    return L, [v.numerator * (L // v.denominator) for v in vals]


def _edge_products(a, L):
    """Object array T with T[b] = prod over t of (a[t] if bit t of b is set else L)."""
    table = [1]
    for v in a:
        table = [x * L for x in table] + [x * v for x in table]
    return np.array(table, object)


def ursell(f, xs):
    """Connected-graph sum phi_n over the species tuple xs.

    Runs the subset-convolution recursion anchored at the first position:
    with w(S) = prod of (1 + f) over pairs inside S,

        phi(S) = w(S) - sum over proper T containing the anchor of
                 phi(T) w(S \\ T)

    which costs O(3^n) ring operations.  Exact entries run it on the
    integers u_p = L + a_p = L (1 + f_p), which carry L^(pairs inside S);
    each term phi(T) w(S \\ T) then lacks the |T| |S \\ T| cross pairs
    and is multiplied by L to that power.  The result is divided by
    L^C(n, 2) once, and is a Fraction exactly when a pair entry is one.
    """
    n = len(xs)
    if n == 0:
        raise DomainError("ursell needs at least one point")
    if n == 1:
        return 1
    if n > URSELL_FAST_MAX:
        raise CapabilityError(f"ursell fast path supports n <= {URSELL_FAST_MAX}")
    vals, exact = _pair_values(f, xs)
    L, a = _over_common_denominator(vals) if exact else (1, vals)
    # L ** (cross pairs between T and S \ T)
    cross = [L**k for k in range(n * n // 4 + 1)]
    one_plus = [[None] * n for _ in range(n)]
    for (i, j), v in zip(pair_order(n), a):
        one_plus[j][i] = L + v
    size = 1 << n
    w = [1] * size
    for mask in range(3, size):
        bits = mask.bit_count()
        if bits < 2:
            continue
        top = mask.bit_length() - 1
        rest = mask ^ (1 << top)
        acc = w[rest]
        j = rest
        while j:
            low = j & -j
            acc = acc * one_plus[top][low.bit_length() - 1]
            j ^= low
        w[mask] = acc
    phi = [0] * size
    for v in range(n):
        phi[1 << v] = 1
    for mask in range(3, size):
        bits = mask.bit_count()
        if bits < 2:
            continue
        anchor = mask & -mask
        total = w[mask]
        # proper submasks of mask containing the anchor bit
        rest = mask ^ anchor
        sub = (rest - 1) & rest
        while True:
            s = sub | anchor
            if s != mask:
                t = s.bit_count()
                total -= phi[s] * w[mask ^ s] * cross[t * (bits - t)]
            if sub == 0:
                break
            sub = (sub - 1) & rest
        phi[mask] = total
    if exact and any(isinstance(v, Fraction) for v in vals):
        return Fraction(phi[size - 1], L ** len(vals))
    return phi[size - 1]


def d_coeff(f, xs):
    """Biconnected-graph sum D_n over the species tuple xs (2 <= n <= 7).

    For a single pair this is just f(x1, x2).  Float inputs gather the pair
    values, followed by 1.0 for a missing edge, through the class's cached
    uint8 index table and multiply each graph's factors down the pairs in
    order; the terms are summed once (``_gather_sums``; at n = 7 a 21 MB
    index and an 8 MB term row).  An overflow or NaN is the value; the JSON
    writers refuse it.

    On a float matrix (``exact=False``, or a raw matrix of floats only)
    the n positions of xs may be int arrays of one length, one entry per
    tuple: the call then returns a float64 array of every tuple's sum, the
    same bits as one call per tuple, and ``build_D_family`` makes one such
    call per order.

    Exact inputs keep the biconnected graphs whose edges all lie in the
    support {p : a_p != 0} and sum prod_(p in g) a_p * L^(P - |g|),
    P = C(n, 2), exactly: the pairs split into a low and a high half, each
    half's products come from a table over its edge subsets, and the
    low-half terms are added within each run of graphs that share a high
    half, all in Python ints.  The sum is divided by L^P once.  The result is int 0 when no graph survives, else
    a Fraction exactly when a surviving graph has a Fraction edge.
    """
    n = len(xs)
    if not 2 <= n <= D_COEFF_MAX:
        raise DomainError(f"d_coeff needs 2 <= n <= {D_COEFF_MAX}")
    if isinstance(xs[0], np.ndarray):
        if not _float_entries(f):
            raise DomainError("d_coeff over arrays of tuples needs a float matrix")
        fm = np.asarray(_f_matrix(f)[0], float)
        cols = [np.asarray(x) for x in xs]
        if len({len(c) for c in cols}) > 1:
            raise DomainError("d_coeff over arrays of tuples needs arrays of one length")
        pairs = pair_order(n)

        def pairs_of(lo, hi):
            W = np.empty((len(pairs) + 1, hi - lo))
            for p, (i, j) in enumerate(pairs):
                W[p] = fm[cols[i][lo:hi], cols[j][lo:hi]]
            W[-1] = 1.0
            return W

        with np.errstate(all="ignore"):
            return _gather_sums(pairs_of, len(cols[0]), _biconnected_gather_index(n))
    vals, exact = _pair_values(f, xs)
    if n == 2:
        return vals[0]
    if not exact:
        W = np.array([[float(v)] for v in vals] + [[1.0]])
        with np.errstate(all="ignore"):
            return float(_gather_sums(lambda lo, hi: W, 1, _biconnected_gather_index(n))[0])
    L, a = _over_common_denominator(vals)
    support = sum(1 << p for p, v in enumerate(a) if v)
    masks = class_masks(n, "biconnected")
    live = masks[(masks & ~support) == 0]
    if not len(live):
        return 0
    k = (len(a) + 1) // 2
    high = live >> k
    heads = np.flatnonzero(np.concatenate(([True], high[1:] != high[:-1])))
    low_sums = np.add.reduceat(_edge_products(a[:k], L)[live & ((1 << k) - 1)], heads)
    total = int(np.dot(_edge_products(a[k:], L)[high[heads]], low_sums))
    fraction_pairs = sum(1 << p for p, v in enumerate(vals) if isinstance(v, Fraction))
    if fraction_pairs and (live & fraction_pairs).any():
        return Fraction(total, L ** len(a))
    return total // L ** len(a)


@lru_cache(maxsize=None)
def hard_core_d_table(m):
    """Biconnected sums for pure hard cores, tabulated by overlap mask.

    table[mask] = sum over biconnected graphs g whose edges all lie in the
    overlap mask of (-1)^(edge count of g), which is ``d_coeff`` of m points
    with f = -1 on the mask's pairs and 0 elsewhere.  Exact integers, in one
    read-only array per m.
    """
    pairs = pair_order(m)
    table = np.zeros(1 << len(pairs), np.int64)
    for mask in range(len(table)):
        f = [[0] * m for _ in range(m)]
        for p, (i, j) in enumerate(pairs):
            if mask >> p & 1:
                f[i][j] = f[j][i] = -1
        table[mask] = d_coeff(f, tuple(range(m)))
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# Family builders


def _exact_entries(fm):
    """Whether every entry of the matrix is an int or a Fraction."""
    return all(type(v) in _EXACT for row in fm for v in row)


def per_pattern(fn, mayer):
    """xs -> fn(mayer, xs) for ``ursell`` or ``d_coeff``, with one call of fn
    per distinct pattern of pair entries.

    Both sums read only the tuple's length and its pair entries f(x_i, x_j)
    in pair order, with their types.  On a matrix of ints and Fractions each
    entry gets a small int id per (type, value) class, so int -1 and
    Fraction(-1) stay apart, and the values are kept in a dict local to the
    returned function, keyed by the length and the ids of the pair entries.
    Any other matrix calls fn per tuple: equal floats need not be the same
    entry (-0.0 == 0.0).  ``build_D_family`` does not come here on a float
    matrix: it calls ``d_coeff`` once per order, over all of its tuples.
    """
    fm, _ = _f_matrix(mayer)
    if not _exact_entries(fm):
        return lambda xs: fn(mayer, xs)
    classes = {}
    ids = [[classes.setdefault((type(v), v), len(classes)) for v in row] for row in fm]
    values = {}

    def value(xs):
        key = (len(xs), *[ids[xs[i]][xs[j]] for i, j in pair_order(len(xs))])
        v = values.get(key)
        if v is None:
            v = values[key] = fn(mayer, xs)
        return v

    return value


def build_phi_series(space, mayer, N, allow_large=False):
    """Connected-sum series: order n coefficient is ursell on the tuple.

    Order 0 is 0 (no constant term in log of the partition function) and
    order 1 is identically 1.
    """
    phi = per_pattern(ursell, mayer)
    return FormalSeries.from_function(space, N, lambda n, ms: phi(ms) if n else 0, allow_large=allow_large)


def build_A_family(space, mayer, N, allow_large=False):
    """Rooted activity coefficients for 1 <= n <= N (order 0 is 0):

        A_n(q; x) = -(prod_j (1 + f(q, x_j)) - 1) * ursell(x).

    Root q writes its factors as 1 + f(q, x) = b_q(x) / L_q, and the bracket
    of ms is B = prod_j b_q(x_j) over L_q^n, carried from the bracket of its
    prefix ms[:-1].  On a matrix of ints and Fractions L_q is the lcm of the
    denominators of row q, B is an int, and the coefficient is the one
    quotient (L_q^n - B) ursell(x) / L_q^n: a Fraction exactly when an entry
    f(q, x_j) or ursell(x) is one, else an int.  Any other matrix has L_q = 1
    and b_q(x) = 1 + f(q, x), so the factors are multiplied left to right as
    they are and the coefficient is -(B - 1) ursell(x).
    """
    fm, _ = _f_matrix(mayer)
    exact = _exact_entries(fm)
    roots = []
    for row in fm:
        if exact:
            L = math.lcm(*(v.denominator for v in row))
            b = [L + v.numerator * (L // v.denominator) for v in row]
        else:
            L, b = 1, [1 + v for v in row]
        fractions = {x for x, v in enumerate(row) if type(v) is Fraction}
        roots.append((L, b, fractions))
    phi = per_pattern(ursell, mayer)

    def orders():
        # each order's values in storage order: roots outermost, then ms
        yield [0] * space.size
        brackets = [{(): 1} for _ in roots]
        for n in range(1, N + 1):
            phis = {ms: phi(ms) for ms in canonical_indices(space.size, n)}
            vals = []
            for q, (L, b, fractions) in enumerate(roots):
                prev = brackets[q]
                brackets[q] = cur = {ms: prev[ms[:-1]] * b[ms[-1]] for ms in phis}
                Ln = L**n
                for ms, B in cur.items():
                    p = phis[ms]
                    if not exact:
                        vals.append(-(B - Ln) * p)
                    elif type(p) is Fraction or not fractions.isdisjoint(ms):
                        vals.append(Fraction((Ln - B) * p.numerator, Ln * p.denominator))
                    else:
                        vals.append((Ln - B) * p // Ln)
            yield vals

    return RootedSeriesFamily.from_orders(space, N, orders(), allow_large=allow_large)


def build_D_family(space, mayer, N, allow_large=False):
    """Rooted biconnected sums: order n holds D_(n+1)(q; x_1..x_n).

    The order-0 slice is fixed to 0 so that sums over n >= 1 start at the
    pair term D_2 = f.  On a float matrix order 1 reads the entries as
    stored, and every higher order is one ``d_coeff`` call over all of its
    (root, tail) tuples in storage order; any other matrix goes through
    ``per_pattern``.
    """
    if N + 1 > D_COEFF_MAX:
        raise CapabilityError(
            f"biconnected family needs order + 1 <= {D_COEFF_MAX}"
        )
    if not _float_entries(mayer):
        d = per_pattern(d_coeff, mayer)
        return RootedSeriesFamily.from_function(
            space, N, lambda n, q, ms: d((q,) + ms) if n else 0, allow_large=allow_large
        )
    fm, _ = _f_matrix(mayer)
    S = space.size

    def orders():
        yield [0] * S
        if N:
            yield [v for row in fm for v in row]
        for n in range(2, N + 1):
            tails = np.array(list(canonical_indices(S, n)), np.intp)
            roots = np.repeat(np.arange(S), len(tails))
            yield d_coeff(mayer, [roots] + [np.tile(col, S) for col in tails.T]).tolist()

    return RootedSeriesFamily.from_orders(space, N, orders(), allow_large=allow_large)
