"""Graph classes over labeled vertices and their Mayer-weighted sums.

Graphs on n vertices are edge bitmasks over the C(n, 2) vertex pairs (i, j),
i < j, in lexicographic order.  The three classes used downstream are
connected graphs, biconnected graphs (no articulation vertex; a single edge
counts), and trees.  On top of the class tables this module provides

* ursell:    float sum over connected graphs of the product of f over edges
             (the truncated weight of a configuration),
* d_coeff:   the same sum over biconnected graphs, exact or float,

together with builders that assemble whole coefficient families as formal
series over a species space: the connected sums phi, on a matrix of ints
and Fractions log W of the all-graph weights W (the exponential formula),
and from phi the rooted activity coefficients

    A_n(q; x) = -(prod_j (1 + f(q, x_j)) - 1) * phi_n(x).

Every function here is a pure function of its arguments, and a matrix
takes one arithmetic rule for all its tuples (``_f_matrix``): a
``MayerMatrices`` by its ``exact`` flag, a raw nested list the exact rule
when its entries are all ints and Fractions and the float rule when they
are all floats; any other raw list is refused with a StructureError.  Under
the exact rule a tuple's pair entries f(x_i, x_j) are put over their common
denominator L, so that every edge weight a_p = f_p * L is a Python int; the
sums then run in integer arithmetic and are divided by a power of L once at
the end, and every sum, and every order n >= 1 of a family, is a Fraction
when an entry of the matrix is one, else an int.  Under the float rule they run in float64, and both float sums are
numpy kernels over many tuples at once; one tuple takes the same path as
one-row columns.  The biconnected sum runs a cached plan of shared edge
prefixes (``_biconnected_plan``): a graph's product runs over its edges in
pair order, and the product of its lowest k edges is computed once for
every graph that shares them, each prefix its parent (less its top edge)
times the pair value of its top edge, so that every graph's product has
the bits of its factors multiplied down the pairs, and each tuple's
products are summed once (``_gather_sums``).  The float kernel of the
connected sum runs its subset recursion (``_ursell_levels``) one subset
size at a time over every tuple of a block, each lane with its tuple's
IEEE operations.

The family builders get every graph sum of an order n >= 2 from one
generator, ``_order_sums``: on a float matrix one ``ursell`` or ``d_coeff``
call over all of the order's tuples, read from the species columns of
``fps._order_plan`` and stored as the float64 array the kernel returns,
else one ``d_coeff`` call per distinct pattern of pair entries among the
build's tuples (``per_pattern``), whose values live for that build only.
A pattern is written in the matrix's entry classes (``entry_classes``),
which also key the family memo of ``virialkit.inversion``.
``build_A_family`` writes each factor 1 + f(q, x) of an exact matrix as an
int b_q(x) over one denominator L_q per root, so that a bracket is an int
over L_q^n and each coefficient is one quotient; on a float matrix the
brackets are float64 products over the same columns, times phi's stored
float64 order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, product

import numpy as np

from . import kernels
from .errors import CapabilityError, DomainError, StructureError
from .fps import _EXACT, FormalSeries, RootedSeriesFamily, _arrays, _check_trunc, _Exact, _keys, _order_plan, log_series
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
def _biconnected_plan(n):
    """The biconnected class of n as a plan of shared prefix products for
    ``_gather_sums``: (K, steps, leaves), over the rows of one block Z whose
    first P = C(n, 2) rows are the tuples' pair values in pair order.

    A graph's product runs over its edges in pair order, left to right, so
    the product of its lowest k edges is shared by every graph with those
    edges below its next one.  Each such prefix is a node: a single edge p
    is row p, and the other nodes follow in ascending order of mask, rows
    P..K-1.  A node is its parent (its mask less its top edge) times the
    pair value of its top edge, and nodes with top edge p only read nodes
    with lower top edges.  ``steps`` holds, per top edge p that has nodes
    of two or more edges, (p, lo, hi, parents): rows lo..hi-1 are those
    nodes, and ``parents`` their parents' rows.  ``leaves`` is the row of
    each graph in class order.  The arrays are read-only, in the smallest
    unsigned dtype that holds K - 1.
    """
    masks = class_masks(n, "biconnected")
    P = len(pair_order(n))
    # every prefix: a graph's mask less its edges from p on, for each p
    node = np.zeros(1 << P, bool)
    for p in range(1, P + 1):
        node[masks & ((1 << p) - 1)] = True
    node[0] = False
    node[1 << np.arange(P)] = False  # a single edge is its pair's row
    K = P + int(np.count_nonzero(node))
    dtype = np.min_scalar_type(K - 1)
    row = np.zeros(1 << P, dtype)
    row[1 << np.arange(P)] = np.arange(P)
    row[node] = np.arange(P, K)
    steps, lo = [], P
    for p in range(1, P):
        # the nodes with top edge p are the masks 2^p + x of the parents x
        parents = row[np.flatnonzero(node[1 << p:2 << p])]
        if len(parents):
            parents.flags.writeable = False
            steps.append((p, lo, lo + len(parents), parents))
            lo += len(parents)
    leaves = row[masks]
    leaves.flags.writeable = False
    return K, tuple(steps), leaves


def _gather_sums(pairs_of, count, plan):
    """Per tuple t < count: the sum over the graphs of ``plan``
    (``_biconnected_plan``) of the product of the pair values W[p, t] over
    each graph's edges p in pair order, with W[:, lo:hi] = pairs_of(lo, hi)
    the (pairs x tuples) float64 block of the tuples' pair values.

    A block Z (nodes x tuples) takes the pair values as its first rows, and
    each step fills the rows of the nodes with one top edge: their parents'
    rows times that edge's row.  Multiplying by the 1.0 of a missing edge
    is exact, so every graph's product has the bits of its factors
    multiplied down the pairs in order.  The graphs' rows are gathered into
    a C-ordered (tuples x graphs) block, whose rows are summed once each,
    pairwise, as one contiguous row is; a reduction along an F-ordered
    block adds in another order and moves the last bits.  A block holds
    GATHER_ELEMENTS floats of Z, or one tuple when the plan is larger.
    """
    K, steps, leaves = plan
    rows = max(1, GATHER_ELEMENTS // K)
    sums = np.empty(count)
    for lo in range(0, count, rows):
        W = pairs_of(lo, min(lo + rows, count))
        Z = np.empty((K, W.shape[1]))
        Z[:len(W)] = W
        for p, a, b, parents in steps:
            np.multiply(Z.take(parents, axis=0), Z[p], out=Z[a:b])
        sums[lo:lo + rows] = np.ascontiguousarray(Z.take(leaves, axis=0).T).sum(axis=1)
    return sums


@lru_cache(maxsize=None)
def _ursell_levels(n):
    """``ursell``'s subset recursion over the n points as index arrays into
    the rows of one block Z = [phi | w | 1 + f]: 2^n rows of phi and 2^n of
    w, each over the subsets by size, then by mask, and one row per pair in
    pair order, for the float kernel ``_ursell_sums``.

    One level per subset size b = 2..n: (lo, hi, grow, pick), the b-subsets
    holding rows lo..hi-1 of phi (and of w, 2^n further on), in ascending
    order of mask.  Row k of ``grow`` is w(S less its top vertex), S the
    k-th subset, followed by the top vertex's factors 1 + f over the rest's
    vertices in ascending order.  ``pick[0, k]`` is phi(empty) followed by
    phi(T) over the proper subsets T of S that hold its lowest vertex, in
    descending order of mask, and ``pick[1, k]`` is w(S) followed by
    w(S less T).  Entry j >= 1 takes T as the lowest vertex of S and the
    other vertices picked by the bits of 2^(b-1) - 1 - j.
    """
    size = 1 << n
    by_size = np.argsort([m.bit_count() for m in range(size)], kind="stable")
    row = np.empty(size, np.intp)
    row[by_size] = np.arange(size)
    factor = np.zeros((n, n), np.intp)
    for p, (i, j) in enumerate(pair_order(n)):
        factor[i, j] = 2 * size + p
    levels = []
    lo = n + 1
    for b in range(2, n + 1):
        masks = by_size[lo:lo + math.comb(n, b)]
        verts = np.nonzero(masks[:, None] >> np.arange(n) & 1)[1].reshape(-1, b)
        top = verts[:, -1]
        grow = np.column_stack([size + row[masks ^ 1 << top], factor[verts[:, :-1], top[:, None]]])
        # row j - 1 of picks: the bits of 2^(b-1) - 1 - j, over the vertices
        # after the lowest
        picks = np.arange((1 << b - 1) - 1)[::-1, None] >> np.arange(b - 1) & 1
        T = (1 << verts[:, 1:]) @ picks.T | (1 << verts[:, :1])
        pick = np.stack([np.column_stack([np.zeros(len(masks), np.intp), row[T]]),
                         np.column_stack([size + row[masks], size + row[masks[:, None] ^ T]])])
        levels.append((lo, lo + len(masks), grow, pick))
        lo += len(masks)
    return levels


def _ursell_sums(pairs_of, count, n):
    """Per tuple t < count: the connected-graph sum of ``ursell``'s float
    recursion, with W[:, lo:hi] = pairs_of(lo, hi) the (pairs x tuples)
    float64 block of the tuples' pair values.

    The subsets are taken a size at a time (``_ursell_levels``), each size
    over every tuple of the block at once: w(S) is w(S less its top vertex)
    times the top vertex's factors in ascending order, and phi(S) is w(S)
    minus the terms phi(T) w(S \\ T), subtracted one by one in the
    recursion's order.  ``multiply`` and ``subtract`` reduce left to right
    (only ``add`` reduces pairwise), so every lane does its tuple's IEEE
    operations.  A block takes GATHER_ELEMENTS / 2^n tuples (one at least),
    so that phi and w each hold GATHER_ELEMENTS floats at most.
    """
    size = 1 << n
    rows = max(1, GATHER_ELEMENTS >> n)
    sums = np.empty(count)
    for start in range(0, count, rows):
        W = pairs_of(start, min(start + rows, count))
        Z = np.ones((2 * size + len(W), W.shape[1]))
        np.add(W, 1.0, out=Z[2 * size:])
        for lo, hi, grow, pick in _ursell_levels(n):
            np.multiply.reduce(Z.take(grow, axis=0), axis=1, out=Z[size + lo:size + hi])
            G = Z.take(pick, axis=0)
            np.subtract.reduce(G[0] * G[1], axis=1, out=Z[lo:hi])
        sums[start:start + rows] = Z[size - 1]
    return sums


def _f_matrix(f):
    """(entries, exact): the rows of f and the one arithmetic rule that all
    of its tuples take.  ``exact`` is False for the float rule, else the one
    type of every exact sum of the matrix: Fraction when an entry is a
    Fraction, else int.  A ``MayerMatrices`` names its rule by its ``exact``
    flag; a raw nested list takes the float rule when every entry is a
    float and the exact rule when every entry is an int or a Fraction, and
    any other raw list is refused."""
    if isinstance(f, MayerMatrices):
        if not f.exact:
            return f.f, False
        return f.f, Fraction if any(type(v) is Fraction for row in f.f for v in row) else int
    types = {type(v) for row in f for v in row}
    if types <= {float}:
        return f, False
    if types <= _EXACT:
        return f, Fraction if Fraction in types else int
    raise StructureError("graph sums need a matrix of floats only or of ints and Fractions only; "
                         "build a MayerMatrices with exact=False for mixed entries")


def _pair_values(f, xs):
    """The entries f(x_i, x_j), i < j, in pair order, and the matrix's rule."""
    fm, exact = _f_matrix(f)
    return [fm[xs[i]][xs[j]] for i, j in pair_order(len(xs))], exact


def _tuple_block(f, xs, name):
    """(count, pairs_of) of a float call over many tuples: xs holds n int
    arrays of one length, one entry per tuple, and pairs_of(lo, hi) is the
    C-ordered (pairs x (hi - lo)) float64 block of tuples lo..hi-1, their
    pair values in pair order."""
    fm, exact = _f_matrix(f)
    if exact:
        raise DomainError(f"{name} over arrays of tuples needs a float matrix")
    fm = np.asarray(fm, float)
    if len({len(x) for x in xs}) > 1:
        raise DomainError(f"{name} over arrays of tuples needs arrays of one length")
    cols = np.asarray(xs)  # an (n x tuples) array of ``_order_sums`` is read in place
    i, j = np.array(pair_order(len(cols))).T

    def pairs_of(lo, hi):
        return fm[cols[i, lo:hi], cols[j, lo:hi]]

    return cols.shape[1], pairs_of


def _edge_products(a, L):
    """Object array T with T[b] = prod over t of (a[t] if bit t of b is set else L)."""
    table = [1]
    for v in a:
        table = [x * L for x in table] + [x * v for x in table]
    return np.array(table, object)


def ursell(f, xs):
    """Float connected-graph sum phi_n over the species tuple xs (n <= 12).

    Runs the subset-convolution recursion anchored at the first position:
    with w(S) = prod of (1 + f) over pairs inside S,

        phi(S) = w(S) - sum over proper T containing the anchor of
                 phi(T) w(S \\ T)

    in O(3^n) float64 operations (``_ursell_sums``).  On a float matrix
    (``exact=False``, or a raw matrix of floats only) the n positions of xs
    may be int arrays of one length, one entry per tuple, as for
    ``d_coeff``: the call then returns a float64 array of every tuple's sum,
    and ``_order_sums`` makes one such call per order.  One tuple of ints
    is that call on one-row columns.  A matrix under the exact rule
    (``_f_matrix``) is refused: exact phi is ``build_phi_series``, checked
    by ``virialkit.oracles.ursell``.
    """
    n = len(xs)
    if n == 0:
        raise DomainError("ursell needs at least one point")
    if n > URSELL_FAST_MAX:
        raise CapabilityError(f"ursell fast path supports n <= {URSELL_FAST_MAX}")
    if isinstance(xs[0], np.ndarray):
        count, pairs_of = _tuple_block(f, xs, "ursell")
        with np.errstate(all="ignore"):
            return _ursell_sums(pairs_of, count, n)
    if n == 1:
        return 1
    if _f_matrix(f)[1]:
        raise DomainError("ursell sums floats; exact connected sums come from build_phi_series, "
                          "and one tuple's from virialkit.oracles.ursell")
    return float(ursell(f, np.array(xs, np.intp)[:, None])[0])


def d_coeff(f, xs):
    """Biconnected-graph sum D_n over the species tuple xs (2 <= n <= 7).

    For a single pair this is just f(x1, x2).  The matrix's rule
    (``_f_matrix``) decides the arithmetic.  The float rule multiplies each
    graph's factors down the pairs in order, each shared prefix of edges
    once, through the class's cached prefix plan, and sums the terms once
    (``_gather_sums``: 415 multiplies a tuple for the 238 graphs of n = 5,
    16,132 for the 11,368 of n = 6 and 1,257,237 for the 1,014,888 of
    n = 7, where the plan holds 9 MB of uint32 rows and a tuple a 10 MB
    block of prefix products and an 8 MB term row).  An overflow or NaN is
    the value; the JSON writers refuse it.

    On a float matrix (``exact=False``, or a raw matrix of floats only)
    the n positions of xs may be int arrays of one length, one entry per
    tuple: the call then returns a float64 array of every tuple's sum, and
    ``_order_sums`` makes one such call per order.  One tuple of ints at
    n >= 3 is that call on one-row columns.

    The exact rule keeps the biconnected graphs whose edges all lie in the
    support {p : a_p != 0} and sum prod_(p in g) a_p * L^(P - |g|),
    P = C(n, 2), exactly: the pairs split into a low and a high half, each
    half's products come from a table over its edge subsets, and the
    low-half terms are added within each run of graphs that share a high
    half, all in Python ints.  The sum is divided by L^P once.  Its type is
    the matrix's (``_f_matrix``): a Fraction when any entry of the matrix
    is one, else an int, at n = 2 too.
    """
    n = len(xs)
    if not 2 <= n <= D_COEFF_MAX:
        raise DomainError(f"d_coeff needs 2 <= n <= {D_COEFF_MAX}")
    if isinstance(xs[0], np.ndarray):
        count, pairs_of = _tuple_block(f, xs, "d_coeff")
        with np.errstate(all="ignore"):
            return _gather_sums(pairs_of, count, _biconnected_plan(n))
    vals, exact = _pair_values(f, xs)
    if n == 2:
        return exact(vals[0]) if exact else vals[0]
    if not exact:
        return float(d_coeff(f, np.array(xs, np.intp)[:, None])[0])
    L = math.lcm(*(v.denominator for v in vals))
    a = [v.numerator * (L // v.denominator) for v in vals]
    support = sum(1 << p for p, v in enumerate(a) if v)
    masks = class_masks(n, "biconnected")
    live = masks[(masks & ~support) == 0]
    if not len(live):
        return exact(0)
    k = (len(a) + 1) // 2
    high = live >> k
    heads = np.flatnonzero(np.concatenate(([True], high[1:] != high[:-1])))
    low_sums = np.add.reduceat(_edge_products(a[:k], L)[live & ((1 << k) - 1)], heads)
    total = int(np.dot(_edge_products(a[k:], L)[high[heads]], low_sums))
    return Fraction(total, L ** len(a)) if exact is Fraction else total // L ** len(a)


@lru_cache(maxsize=None)
def hard_core_d_table(m):
    """Biconnected sums for pure hard cores, tabulated by overlap mask.

    table[mask] = sum over biconnected graphs g whose edges all lie in the
    overlap mask of (-1)^(edge count of g), which is ``d_coeff`` of m points
    with f = -1 on the mask's pairs and 0 elsewhere.  It is one subset-sum
    pass over the class table: each biconnected mask starts at its sign, and
    for each pair p the masks without p are added into those with p.  Exact
    integers, in one read-only int64 array per m.
    """
    P = len(pair_order(m))
    masks = class_masks(m, "biconnected")
    table = np.zeros(1 << P, np.int64)
    table[masks] = [1 - 2 * (g.bit_count() & 1) for g in masks.tolist()]
    for p in range(P):
        halves = table.reshape(-1, 2, 1 << p)
        halves[:, 1] += halves[:, 0]
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# Family builders


def entry_classes(fm):
    """(entries, index) of a matrix of ints and Fractions: its distinct
    entries, each written (is a Fraction, numerator, denominator), in
    row-major order of first appearance, and per row the index of each
    entry among them.  Equal entries share a class, and int -1 and
    Fraction(-1) do not; the pair is a key of the matrix itself."""
    classes = {}
    index = tuple(tuple(classes.setdefault((isinstance(v, Fraction), v.numerator, v.denominator), len(classes))
                        for v in row) for row in fm)
    return tuple(classes), index


def per_pattern(fn, mayer):
    """xs -> fn(mayer, xs) for ``d_coeff``, with one call of fn per distinct
    pattern of pair entries among the tuples that this closure is given.

    The sum reads only the tuple's length, the pair entries f(x_i, x_j) in
    pair order with their types, and the matrix's arithmetic rule.  Under
    the exact rule (``_f_matrix``) the closure keeps its values in a dict of
    its own, keyed by (n, the pair entries' indices among the matrix's
    entry classes, ``entry_classes``), so that -1 and Fraction(-1) stay
    apart; the values live as long as the closure, one build.  Under the
    float rule fn runs per tuple, also on ints, since equal floats need not
    be the same entry (-0.0 == 0.0).
    """
    fm, exact = _f_matrix(mayer)
    if not exact:
        return lambda xs: fn(mayer, xs)
    ids = entry_classes(fm)[1]
    values = {}

    def value(xs):
        n = len(xs)
        key = (n, *[ids[xs[i]][xs[j]] for i, j in pair_order(n)])
        v = values.get(key)
        if v is None:
            v = values[key] = fn(mayer, xs)
        return v

    return value


def _order_sums(fn, mayer, S, N, rooted=False):
    """Per order n = 2..N, fn at every tuple of the order in storage order:
    the canonical tails, or with ``rooted`` the (root, tail) tuples, roots
    outermost.

    This is where the family builders get their graph sums: float ``ursell``
    for phi, and ``d_coeff`` for D.  Under the float rule an order is the
    float64 array of one fn call over the species columns of
    ``fps._order_plan``; under the exact rule a list, one ``per_pattern``
    closure serving every tuple of every order, over the orders' cached
    tails (``fps._keys``), so each distinct pattern of the build is summed
    once.
    """
    if not _f_matrix(mayer)[1]:
        for n in range(2, N + 1):
            cols = _order_plan(S, n)[0].T
            if rooted:
                tails = cols
                cols = np.empty((n + 1, S * tails.shape[1]), np.intp)
                cols[0] = np.repeat(np.arange(S), tails.shape[1])
                cols[1:].reshape(n, S, -1)[:] = tails[:, None]
            yield fn(mayer, cols)
        return
    value = per_pattern(fn, mayer)
    for n in range(2, N + 1):
        tails = _keys(S, n, False)
        yield [value((q, *ms)) for q in range(S) for ms in tails] if rooted else list(map(value, tails))


def _all_graph_orders(fm, exact, S, N):
    """Per order n = 0..N, the all-graph weights W_n(ms) = prod over pairs
    i < j of (1 + f(x_i, x_j)) at every canonical ms, as one ``_Exact``
    layout: ints over L^C(n, 2), L the common denominator of the matrix,
    each W_(n-1)(ms[:-1]) times the ints u = L + a of the n - 1 new pairs.
    The orders n >= 1 hold the matrix's type ``exact`` (``_f_matrix``).
    """
    L = math.lcm(*(v.denominator for row in fm for v in row))
    u = [[L + v.numerator * (L // v.denominator) for v in row] for row in fm]
    weights = {(): 1}
    yield _Exact([[1]])
    for n in range(1, N + 1):
        tails = _keys(S, n, False)
        prev, weights = weights, {}
        for ms in tails:
            head, uy = ms[:-1], u[ms[-1]]
            w = prev[head]
            for x in head:
                w *= uy[x]
            weights[ms] = w
        yield _Exact.reduced([list(weights.values())], L ** math.comb(n, 2), exact is Fraction)


def build_phi_series(space, mayer, N, allow_large=False):
    """Connected-sum series: order n coefficient is phi_n on the tuple.

    Order 0 is 0 (no constant term in log of the partition function) and
    order 1 is identically 1.  Under the exact rule (``_f_matrix``) phi is
    ``log_series`` of the all-graph weights (``_all_graph_orders``), and its
    orders n >= 1 hold Fractions when an entry of the matrix is one, else
    ints; under the float rule every higher order comes from
    ``_order_sums``.
    """
    fm, exact = _f_matrix(mayer)
    if not exact:
        orders = chain([[0], [1] * space.size][:N + 1], _order_sums(ursell, mayer, space.size, N))
        return FormalSeries.from_orders(space, N, orders, allow_large=allow_large)
    _check_trunc(space, N, allow_large)
    return log_series(FormalSeries(space, list(_all_graph_orders(fm, exact, space.size, N))))


def _float_a_order(b, cols, phi):
    """One order n >= 2 of the float activity family, roots outermost, as
    one float64 array: the bracket B = prod_j b[q, x_j] multiplied left to
    right over the tail columns, then -(B - 1.0) * phi, with phi the
    order's stored lanes (one row)."""
    with np.errstate(all="ignore"):
        B = b[:, cols[0]]
        for col in cols[1:]:
            B *= b[:, col]
        return (-(B - 1.0) * phi).ravel()


def build_A_family(space, mayer, N, phi=None, allow_large=False):
    """Rooted activity coefficients for 1 <= n <= N (order 0 is 0):

        A_n(q; x) = -(prod_j (1 + f(q, x_j)) - 1) * phi_n(x),

    phi_n(x) read from ``phi``, the series of ``build_phi_series`` (built
    first when not given).  Root q writes its factors as 1 + f(q, x) =
    b_q(x) / L_q, and the bracket of ms is B = prod_j b_q(x_j) over L_q^n,
    carried from the bracket of its prefix ms[:-1].  The matrix's rule
    (``_f_matrix``) decides the arithmetic.  Under the exact rule L_q is the
    lcm of the denominators of row q, B is an int, and the coefficient is
    the one quotient (L_q^n - B) phi_n(x) / L_q^n; order n >= 1 holds
    Fractions when the matrix or phi's order n does, else ints.  Under the
    float rule L_q = 1 and b_q(x) = 1.0 + f(q, x): order 1 is -(1 + f - 1)
    on the entries as stored, and each higher order one float64 product per
    species column of ``fps._order_plan``, with the factors multiplied left
    to right and the coefficient -(B - 1.0) phi_n(x), phi_n read as its
    stored order (``fps._arrays``) and the result stored as it is computed.
    """
    fm, exact = _f_matrix(mayer)
    S = space.size
    if phi is None:
        phi = build_phi_series(space, mayer, N, allow_large)
    elif phi.space != space or phi.trunc != N:
        raise StructureError("phi must share space and truncation order with the family")
    if not exact:
        b = 1.0 + np.asarray(fm, float)

        def float_orders():
            yield [0] * S
            if N:
                yield [-(1 + v - 1) for row in fm for v in row]
            for n in range(2, N + 1):
                order = phi._orders[n]
                yield _float_a_order(b, _order_plan(S, n)[0].T, _arrays(order, order.plain())[0])

        return RootedSeriesFamily.from_orders(space, N, float_orders(), allow_large=allow_large)
    sums = [order.values() for order in phi._orders]
    roots = []
    for row in fm:
        L = math.lcm(*(v.denominator for v in row))
        b = [L + v.numerator * (L // v.denominator) for v in row]
        roots.append((L, b))

    def orders():
        # each order's values in storage order: roots outermost, then ms
        yield [0] * S
        brackets = [{(): 1} for _ in roots]
        for n in range(1, N + 1):
            tails = _keys(S, n, False)
            frac = exact is Fraction or phi._orders[n].frac
            vals = []
            for q, (L, b) in enumerate(roots):
                prev = brackets[q]
                brackets[q] = cur = {ms: prev[ms[:-1]] * b[ms[-1]] for ms in tails}
                Ln = L**n
                for B, p in zip(cur.values(), sums[n]):
                    # over 1, as on every hard-core matrix, skip the gcd; den
                    # is 1 unless a Fraction is read
                    x, den = (Ln - B) * p.numerator, Ln * p.denominator
                    vals.append(Fraction(x, den) if den > 1 else Fraction(x) if frac else x)
            yield vals

    return RootedSeriesFamily.from_orders(space, N, orders(), allow_large=allow_large)


def build_D_family(space, mayer, N, allow_large=False):
    """Rooted biconnected sums: order n holds D_(n+1)(q; x_1..x_n).

    The order-0 slice is fixed to 0 so that sums over n >= 1 start at the
    pair term D_2 = f.  Order 1 holds the entries as stored, and every higher
    order comes from ``_order_sums`` over the (root, tail) tuples.
    """
    if N + 1 > D_COEFF_MAX:
        raise CapabilityError(
            f"biconnected family needs order + 1 <= {D_COEFF_MAX}"
        )
    fm, _ = _f_matrix(mayer)

    def orders():
        yield [0] * space.size
        if N:
            yield [v for row in fm for v in row]
        yield from _order_sums(d_coeff, mayer, space.size, N, rooted=True)

    return RootedSeriesFamily.from_orders(space, N, orders(), allow_large=allow_large)
