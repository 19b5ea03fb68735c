"""Brute-force references that exist only to check production code.

Each function here computes a quantity that a production module computes
too, by a different and much slower route (explicit enumeration, positioned
tuples, bracketing, quadrature, Monte Carlo), so a test can compare the
two.  Nothing in the library imports this module; the tests do, and the
``selftest`` command imports it when it runs, for its enriched-tree
cross-check of t_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import NamedTuple

import numpy as np

from .apps import _mixture_margins
from .certs import AB_GRID, BoundCertificate, check_weights
from .errors import CapabilityError, DomainError
from .fps import (
    FormalSeries,
    _check_measure,
    _keys,
    _majorant_sums,
    canonical_indices,
    compose_templates,
    left_sum,
    set_partitions,
    subset_splits,
    sym_factor,
)
from .graphs import D_COEFF_MAX, _f_matrix, _prufer_edges, class_masks, pair_order
from .homogeneous import vol_ball
from .kernels import mc_batches, mc_rod_mask_sum
from .species import INF

# ---------------------------------------------------------------------------
# Series algebra (fps)


def multi_product(factors):
    """Product of several series, computed by the direct assignment sum.

    Each position is assigned to one factor; the term is the product of each
    factor's coefficient on its assigned positions.  Equal to a left fold of
    ``mul`` (checked in the tests), but computed independently.
    """
    factors = list(factors)
    if not factors:
        raise DomainError("multi_product needs at least one factor")
    first = factors[0]
    for f in factors[1:]:
        first._check_compatible(f)
    r = len(factors)

    def coefficient(n, ms):
        total = 0
        for owners in product(range(r), repeat=n):
            term = 1
            for ell, fac in enumerate(factors):
                sel = tuple(ms[p] for p in range(n) if owners[p] == ell)
                term = term * fac.coeffs[len(sel)][sel]
                if term == 0:
                    break
            total += term
        return total

    return FormalSeries.from_function(first.space, first.trunc, coefficient, allow_large=True)


def sweep_termwise(size, orders, kind, outs, k, g=None, f=None, sub=None, init=None):
    """``fps._sweep`` one coefficient and one template at a time: the same
    sums, over per-root dicts from every canonical tail of any order to its
    value in place of order layouts, each coefficient adding its terms in
    the template order of ``subset_splits``, ``set_partitions`` or
    ``compose_templates``, or, when ``init`` is given, subtracting them from
    ``init[q][ms]``.  A split skips a template whose k or g factor is 0, a
    partition one whose f[#blocks] is 0, a composition one whose k factor is
    0; a product stops multiplying once it reads 0.  On float and complex
    values this is the column rule of ``_sweep`` to the bit and in type; on
    exact values it is the rational sum the exact rule must equal.
    """
    by_kind = {"split": subset_splits, "partition": set_partitions, "compose": compose_templates}
    for n in orders:
        templates = by_kind[kind](n)
        for ms in canonical_indices(size, n):
            key = {J: tuple(ms[p] for p in J) for J, _ in subset_splits(n)}
            for q, out in enumerate(outs):
                total = 0 if init is None else init[q][ms]
                for template in templates:
                    # the first factor, and the tables and keys of the
                    # others, which are read only when reached
                    if kind == "split":
                        J, rest = template
                        term, factors = k[q][key[J]], [(g[q], key[rest])]
                    elif kind == "partition":
                        term, factors = f[len(template)], [(k[q], key[b]) for b in template]
                    else:
                        J, blocks = template
                        term = k[q][key[J]]
                        factors = [(sub[ms[j]], key[V]) for j, V in zip(J, blocks)]
                    if term == 0 or kind == "split" and g[q][key[rest]] == 0:
                        continue
                    for table, x in factors:
                        term = term * table[x]
                        if term == 0:
                            break
                    if init is None:
                        total += term
                    else:
                        total -= term
                out[ms] = total


def var_derivative(K, q):
    """Variational derivative at species q: pins one slot, drops one order."""
    if K.trunc == 0:
        raise DomainError("cannot differentiate a constant series")
    return FormalSeries.from_function(
        K.space, K.trunc - 1, lambda n, ms: K.coeffs[n + 1][tuple(sorted((q,) + ms))], allow_large=True
    )


def measure_sums_termwise(K, vals, start=0):
    """``fps.measure_sums`` one term at a time: each root adds
    K_n(x) prod_j nu(x_j) w(x_j) * Fraction(1, sym(x)) over canonical x in
    storage order, from order ``start`` on, skipping zero coefficients.  A
    root with no nonzero coefficient keeps the int 0.  On float inputs this
    is the float rule of ``measure_sums`` to the bit (a float times a
    Fraction is the float times float(Fraction)); on exact inputs it is the
    rational sum the exact rule must equal, in value and type.
    """
    weights = K.space.weights
    totals = [0] * K.roots
    for n in range(start, K.trunc + 1):
        for key, v in K.coeffs[n].items():
            if v == 0:
                continue
            q, ms = key if K.rooted else (0, key)
            term = v
            for x in ms:
                term = term * vals[x] * weights[x]
            totals[q] += term * Fraction(1, sym_factor(ms))
    return totals if K.rooted else totals[0]


def majorant_sums_termwise(G, nu, start=0):
    """``fps._majorant_sums`` one term at a time, per order n and root q:
    |G_n(q; x)| prod_j |nu(x_j)| w(x_j) / sym(x) added from 0.0 over
    canonical tails x in storage order, zero coefficients skipped; orders
    below ``start`` stay 0.0.  The column rule must equal it to the bit."""
    _check_measure(G, nu)
    size = G.space.size
    u = [float(abs(v)) * float(wx) for v, wx in zip(nu, G.space.weights)]
    sums = [[0.0] * G.roots for _ in range(G.trunc + 1)]
    for n in range(start, G.trunc + 1):
        row = sums[n]
        sym = {ms: sym_factor(ms) for ms in canonical_indices(size, n)}
        for (q, ms), v in zip(_keys(size, n, True), G._orders[n].values()):
            if v == 0:
                continue
            term = float(abs(v))
            for x in ms:
                term *= u[x]
            row[q] += term / sym[ms]
    return sums


# Dense debug backend: positioned-tuple storage, for cross-checking the
# canonical representation at tiny truncation orders.

_DENSE_MAX = 3


def dense_component(K, n):
    """Order-n coefficient as a map over all positioned tuples (N <= 3)."""
    if n > _DENSE_MAX:
        raise CapabilityError("dense backend is restricted to order <= 3")
    return {
        xs: K.value(n, xs) for xs in product(range(K.space.size), repeat=n)
    }


def mul_dense(K, G):
    """Product computed on positioned tuples; returns dense per-order maps."""
    K._check_compatible(G)
    if K.trunc > _DENSE_MAX:
        raise CapabilityError("dense backend is restricted to trunc <= 3")
    dk = [dense_component(K, n) for n in range(K.trunc + 1)]
    dg = [dense_component(G, n) for n in range(G.trunc + 1)]
    out = []
    for n in range(K.trunc + 1):
        comp = {}
        for xs in product(range(K.space.size), repeat=n):
            total = 0
            for J, rest in subset_splits(n):
                total += (
                    dk[len(J)][tuple(xs[p] for p in J)]
                    * dg[len(rest)][tuple(xs[p] for p in rest)]
                )
            comp[xs] = total
        out.append(comp)
    return out


# ---------------------------------------------------------------------------
# Graph sums (graphs, kernels)

URSELL_BRUTE_MAX = 6
URSELL_MAX = 12


class EdgeMask(NamedTuple):
    """A graph on n labeled vertices as a bitmask over pair_order(n)."""

    n: int
    mask: int

    @property
    def edges(self):
        return tuple(
            pair for p, pair in enumerate(pair_order(self.n)) if (self.mask >> p) & 1
        )

    @classmethod
    def from_edges(cls, n, edges):
        index = {pair: p for p, pair in enumerate(pair_order(n))}
        mask = 0
        for i, j in edges:
            mask |= 1 << index[(min(i, j), max(i, j))]
        return cls(n, mask)


def d_coeff_enumerated(f, xs):
    """Biconnected-graph sum by a generic loop over the class table, edge by
    edge in the scalars given, with early exit on a zero factor (2 <= n <= 7)."""
    fm, _ = _f_matrix(f)
    n = len(xs)
    if not 2 <= n <= D_COEFF_MAX:
        raise DomainError(f"d_coeff needs 2 <= n <= {D_COEFF_MAX}")
    if n == 2:
        return fm[xs[0]][xs[1]]
    pairs = pair_order(n)
    total = 0
    for m in class_masks(n, "biconnected"):
        term = 1
        mm = int(m)
        alive = True
        for p, (i, j) in enumerate(pairs):
            if (mm >> p) & 1:
                term = term * fm[xs[i]][xs[j]]
                if term == 0:
                    alive = False
                    break
        if alive:
            total += term
    return total


def _two_connected(n, edges):
    """Whether the graph on n >= 3 vertices with these edges stays connected
    when any one vertex is taken out (and so is connected itself)."""
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    for cut in range(n):
        rest = set(range(n)) - {cut}
        seen, stack = set(), [min(rest)]
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(adj[v] & rest)
        if seen != rest:
            return False
    return True


def chordal_d(f, xs):
    """Biconnected-graph sum D_n over the tuple xs on a chordal hard core,
    in closed form (ROADMAP item 14), with no graph enumeration.

    Every entry of f is -1 (the species overlap, each with itself too) or 0,
    and the graph of overlaps between species is chordal.  Then D_n is
    -(n - 2)! when every pair of xs overlaps, repeats included, and 0
    otherwise; at n = 2 it is the entry f(x_1, x_2) itself.  The type is
    ``graphs.d_coeff``'s: int 0 when no biconnected graph on the n points
    lies within the overlapping pairs (the graph of overlaps is not
    2-connected), else a Fraction exactly when an overlapping pair entry is.
    """
    fm, _ = _f_matrix(f)
    n = len(xs)
    vals = [fm[xs[i]][xs[j]] for i, j in pair_order(n)]
    if any(v not in (-1, 0) for v in vals):
        raise DomainError("chordal_d needs hard-core entries -1 and 0")
    if n == 2:
        return vals[0]
    overlaps = [(pair, v) for pair, v in zip(pair_order(n), vals) if v == -1]
    if not _two_connected(n, [pair for pair, _ in overlaps]):
        return 0
    kind = Fraction if any(type(v) is Fraction for _, v in overlaps) else int
    return kind(-math.factorial(n - 2) if len(overlaps) == len(vals) else 0)


def ursell_bruteforce(f, xs):
    """Connected-graph sum by explicit enumeration (oracle path, n <= 6)."""
    fm, _ = _f_matrix(f)
    n = len(xs)
    if n == 1:
        return 1
    if n > URSELL_BRUTE_MAX:
        raise CapabilityError(f"brute-force ursell supports n <= {URSELL_BRUTE_MAX}")
    pairs = pair_order(n)
    total = 0
    for m in class_masks(n, "connected"):
        term = 1
        mm = int(m)
        for p, (i, j) in enumerate(pairs):
            if (mm >> p) & 1:
                term = term * fm[xs[i]][xs[j]]
                if term == 0:
                    break
        if term != 0:
            total += term
    return total


def ursell(f, xs):
    """Exact connected-graph sum phi_n over the species tuple xs (n <= 12),
    by the subset recursion anchored at the first position: with w(S) the
    product of (1 + f) over the pairs inside S,

        phi(S) = w(S) - sum over proper T holding the anchor of phi(T) w(S \\ T)

    in O(3^n) int operations.  The factors are ints u_p = L (1 + f_p) over
    the common denominator L of the pair entries, so w(S) carries
    L^(pairs inside S), and a term phi(T) w(S \\ T), which lacks the
    |T| |S \\ T| pairs across, is multiplied by L to that power.  The result
    is divided by L^C(n, 2) once, and is a Fraction exactly when a pair
    entry is one.  It checks ``graphs.build_phi_series`` (log W) above the
    reach of ``ursell_bruteforce``; float tuples have ``graphs.ursell``.
    """
    fm, _ = _f_matrix(f)
    n = len(xs)
    if n == 0:
        raise DomainError("ursell needs at least one point")
    if n > URSELL_MAX:
        raise CapabilityError(f"exact ursell supports n <= {URSELL_MAX}")
    if n == 1:
        return 1
    vals = [fm[xs[i]][xs[j]] for i, j in pair_order(n)]
    if not all(type(v) in (int, Fraction) for v in vals):
        raise DomainError("oracles.ursell needs int and Fraction pair entries; graphs.ursell sums floats")
    L = math.lcm(*(v.denominator for v in vals))
    u = [[0] * n for _ in range(n)]
    for (i, j), v in zip(pair_order(n), vals):
        u[i][j] = L + v.numerator * (L // v.denominator)
    size = 1 << n
    w = [1] * size
    for S in range(3, size):
        top = S.bit_length() - 1
        w[S] = w[S ^ 1 << top] * math.prod(u[i][top] for i in range(top) if S >> i & 1)
    powers = [L**c for c in range(n * n // 4 + 1)]
    phi = [0] * size
    for S in range(1, size, 2):
        total, free = w[S], S ^ 1
        sub = (free - 1) & free
        while free:
            T = sub | 1
            total -= phi[T] * w[S ^ T] * powers[T.bit_count() * (S ^ T).bit_count()]
            if not sub:
                break
            sub = (sub - 1) & free
        phi[S] = total
    if any(type(v) is Fraction for v in vals):
        return Fraction(phi[-1], L ** len(vals))
    return phi[-1]


def scan_masks_reference(n, pairs, mode):
    """Pure-Python reference scan, used to validate the scan at small n."""
    P = len(pairs)
    full = (1 << n) - 1
    out = []
    for mask in range(1 << P):
        adj = [0] * n
        for p, (i, j) in enumerate(pairs):
            if (mask >> p) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        reach = 1
        frontier = 1
        while frontier:
            nxt = 0
            v = 0
            fr = frontier
            while fr:
                if fr & 1:
                    nxt |= adj[v]
                fr >>= 1
                v += 1
            frontier = nxt & ~reach
            reach |= frontier
        if reach != full:
            continue
        if mode == 1 and n > 2:
            good = True
            for cut in range(n):
                excl = full & ~(1 << cut)
                s = 1 if cut == 0 else 0
                reach2 = 1 << s
                frontier = reach2
                while frontier:
                    nxt = 0
                    v = 0
                    fr = frontier
                    while fr:
                        if fr & 1:
                            nxt |= adj[v]
                        fr >>= 1
                        v += 1
                    frontier = (nxt & excl) & ~reach2
                    reach2 |= frontier
                if reach2 != excl:
                    good = False
                    break
            if not good:
                continue
        out.append(mask)
    return np.array(out, np.int64)


# ---------------------------------------------------------------------------
# Enriched trees (treefp)

TREE_ORACLE_MAX = 5


@dataclass(frozen=True)
class EnrichedTree:
    """Rooted labeled tree on vertices 0..n with children grouped in cliques.

    ``parent[v]`` is the parent of v (-1 for the root 0); ``cliques[v]`` is
    the set partition of v's children, each block a sorted tuple.
    """

    parent: tuple
    cliques: tuple


def _rooted_parent_array(n_vertices, edges):
    adj = [[] for _ in range(n_vertices)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    parent = [-1] * n_vertices
    stack = [0]
    seen = [False] * n_vertices
    seen[0] = True
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if not seen[u]:
                seen[u] = True
                parent[u] = v
                stack.append(u)
    return tuple(parent)


def enumerate_enriched_trees(n):
    """All enriched trees on vertices {0..n} rooted at 0 (n <= 5).

    Every labeled tree on n+1 vertices is visited via its Pruefer sequence;
    for each, the children of every vertex are partitioned in all ways.
    There is 1 enriched tree for n = 1 and 4 for n = 2.
    """
    if n < 1:
        raise DomainError("enriched trees need n >= 1")
    if n > TREE_ORACLE_MAX:
        raise CapabilityError(f"enriched-tree enumeration supports n <= {TREE_ORACLE_MAX}")
    m = n + 1
    seqs = [()] if m == 2 else product(range(m), repeat=m - 2)
    for seq in seqs:
        parent = _rooted_parent_array(m, _prufer_edges(m, seq))
        children = [[] for _ in range(m)]
        for v in range(1, m):
            children[parent[v]].append(v)
        per_vertex = []
        for v in range(m):
            kids = tuple(children[v])
            parts = [
                tuple(tuple(kids[p] for p in blk) for blk in blocks)
                for blocks in set_partitions(len(kids))
            ]
            per_vertex.append(parts)
        for choice in product(*per_vertex):
            yield EnrichedTree(parent, tuple(choice))


def tn_via_trees(A, n, q, xs):
    """t_n(q; xs) summed over enriched trees (oracle path, n <= 5)."""
    if len(xs) != n:
        raise DomainError("xs must have length n")
    labels = (q,) + tuple(xs)
    total = 0
    for tree in enumerate_enriched_trees(n):
        term = 1
        for v in range(n + 1):
            for clique in tree.cliques[v]:
                tail = tuple(labels[u] for u in clique)
                term = term * A.value(len(clique), labels[v], tail)
                if term == 0:
                    break
            if term == 0:
                break
        total += term
    return total


# ---------------------------------------------------------------------------
# Certificates (certs, inversion, apps)


def certify_termwise(condition, margins_for, size, a=None, b=None, reads="ab", trunc=None,
                     notes="", extras=None, grid_margins=None):
    """``certs.certify`` one weight row at a time: the margins at a weight
    pair are ``margins_for(a, b)``; with no weights given, one certificate
    per constant c of ``AB_GRID`` (margins ``grid_margins(c)`` when given),
    and ``max`` keeps the first best, by pass and then worst margin.  The
    batched search must build the same certificate to the bit."""
    a, b = check_weights(size, a, b, reads)
    if a is not None or b is not None:
        return BoundCertificate(
            condition, margins_for(a, b), a=a, b=b, trunc=trunc, notes=notes, extras=extras or {},
        )

    def certificate(c):
        c = float(c)
        a, b = ((c,) * size if w in reads else None for w in "ab")
        return BoundCertificate(
            condition, margins_for(a, b) if grid_margins is None else grid_margins(c),
            a=a, b=b, trunc=trunc, notes="constant weights chosen by grid search",
        )

    return max(map(certificate, AB_GRID), key=lambda cert: (cert.passed, cert.worst_margin))


def pair_margins_termwise(st, nu, *shifts):
    """The margins of a pair condition at one weight pair (a, b), a Python
    float at a time: per species x, a(x) - sum_y fbar(x, y) exp(e(y))
    |nu|(y) w(y), e(y) = a(y) (+ b(y)) + each shift at y, left to right."""
    S = st.space.size
    vals = [float(abs(v)) for v in nu]
    w = [float(v) for v in st.space.weights]
    fbar = [[float(v) for v in row] for row in st.mayer.f_bar]
    shifts = [[float(v) for v in vec] for vec in shifts]

    def margins_for(a, b):
        ex = []
        for y in range(S):
            e = float(a[y])
            if b is not None:
                e += float(b[y])
            for vec in shifts:
                e += vec[y]
            ex.append(math.exp(e))
        return tuple(
            float(a[x]) - left_sum(fbar[x][y] * ex[y] * vals[y] * w[y] for y in range(S))
            for x in range(S)
        )

    return margins_for


def check_PU_termwise(st, z, a=None):
    """``inversion.check_PU`` through ``certify_termwise``."""
    z = st.measure(z).values
    return certify_termwise("PU", pair_margins_termwise(st, z, st.beta_B), st.space.size, a=a, reads="a")


def check_Sab_termwise(st, nu, a=None, b=None):
    """``inversion.check_Sab`` through ``certify_termwise``."""
    nu = st.measure(nu).values
    margins_for = pair_margins_termwise(st, nu, st.beta_B, st.beta_Bstar)
    return certify_termwise("Sab", margins_for, st.space.size, a=a, b=b)


def check_Sb_termwise(st, nu, b=None):
    """``inversion.check_Sb`` through ``certify_termwise``: at given weights
    exp(b(x)) rides in the measure; on the grid the per-order sums are
    taken once and a constant c re-enters as exp(n c), per root and order."""
    nu = st.measure(nu).values
    S = st.space.size

    def margins_for(_, bvec):
        boosted = [float(abs(v)) * math.exp(float(bvec[x])) for x, v in enumerate(nu)]
        sums = [left_sum(col) for col in zip(*_majorant_sums(st.a_family, boosted, start=1))]
        return tuple(float(bvec[q]) - sums[q] for q in range(S))

    raw = None if b is not None else _majorant_sums(st.a_family, nu, start=1)

    def grid_margins(c):
        return tuple(
            c - left_sum(raw[n][q] * math.exp(n * c) for n in range(1, st.N + 1))
            for q in range(S)
        )

    return certify_termwise(
        "Sb", margins_for, S, b=b, reads="b", trunc=st.N,
        notes="partial sums through the truncation order only", grid_margins=grid_margins,
    )


def check_virMb_termwise(st, nu, b=None):
    """``inversion.check_virMb`` through ``certify_termwise``."""
    nu = st.measure(nu).values
    S = st.space.size
    sums = [left_sum(col) for col in zip(*_majorant_sums(st.d_family, nu, start=1))]
    return certify_termwise(
        "virMb", lambda _, bvec: tuple(float(bvec[q]) - sums[q] for q in range(S)), S, b=b,
        reads="b", trunc=st.N, notes="partial sums through the truncation order only",
        extras={"sums": tuple(sums)},
    )


def mixture_certificate_termwise(ms):
    """The activity-condition certificate of ``apps.invert_mixture`` through
    ``certify_termwise``."""
    return certify_termwise(
        "mix_ab", lambda a, b: _mixture_margins(ms, a, b), len(ms.radii), a=ms.a, b=ms.b,
    )


# ---------------------------------------------------------------------------
# Potentials, constants, excluded areas and triangle integrals (species,
# homogeneous, apps)


def recover_potential(mayer, beta):
    """Invert f -> v via v = -(1/beta) * log(1 + f); hard cores map back to +inf."""
    v = []
    for row in mayer.f:
        vrow = []
        for e in row:
            if e == -1:
                vrow.append(INF)
            else:
                vrow.append(-math.log1p(float(e)) / beta)
        v.append(vrow)
    return v


def tree_fn_T_bisect(s):
    """Oracle for homogeneous.tree_fn_T: solve T e^-T = s for T in [0, 1]
    by bracketing."""
    from scipy.optimize import brentq

    if s == 0:
        return 0.0
    return brentq(lambda t: t * math.exp(-t) - s, 0.0, 1.0, xtol=1e-14)


def k_constant_closed_form():
    """Oracle for homogeneous.k_constant: the closed form
    (1 - W(e/2))^2 / W(e/2)."""
    from scipy.special import lambertw

    W = float(lambertw(math.e / 2.0).real)
    return (1.0 - W) ** 2 / W


def rod_excluded_area_mc(L, gamma, samples=200_000, seed=0):
    """MC check of the excluded area: fraction of center displacements in
    [-L, L]^2 for which the two segments intersect, times the box area, over
    32 batches of ``kernels.mc_batches``.  Returns (estimate, stderr)."""
    angles = np.array([0.0, gamma])
    table = np.array([0, 1], dtype=np.int64)

    def batch_value(rng, per_batch):
        centers = rng.uniform(-L, L, size=(per_batch, 1, 2))
        hits = mc_rod_mask_sum(centers, angles, L, table)
        return (2.0 * L) ** 2 * hits / per_batch

    return mc_batches(batch_value, seed, samples, 32, threads=1)


def lens_volume(d, A, B, t):
    """Volume of the intersection of balls of radii A, B at center distance
    t, in d = 2 or 3."""
    if t >= A + B:
        return 0.0
    if t <= abs(A - B):
        return vol_ball(d, min(A, B))
    if d == 2:
        # rounding can push a cosine just past +-1 next to the breakpoints
        alpha = math.acos(max(-1.0, min(1.0, (t * t + A * A - B * B) / (2 * t * A))))
        beta = math.acos(max(-1.0, min(1.0, (t * t + B * B - A * A) / (2 * t * B))))
        tri = 0.5 * math.sqrt(
            max(0.0, (-t + A + B) * (t + A - B) * (t - A + B) * (t + A + B))
        )
        return A * A * alpha + B * B * beta - tri
    if d == 3:
        return (
            math.pi
            * (A + B - t) ** 2
            * (t * t + 2 * t * (A + B) - 3 * (A - B) ** 2)
            / (12 * t)
        )
    raise CapabilityError("lens volumes implemented for d in {2, 3}")


def triangle_integral_quad(d, r01, r02, r12):
    """Oracle for apps.triangle_integral in d = 2, 3: QUADPACK quadrature, to
    a relative 1e-13, of the lens volume of (r02, r12) over the sphere
    |x1| = t, t < r01.  Each piece between the lens breakpoints is its own
    quad call: one call across a breakpoint an ulp below r01 missed the
    value by a relative 3e-9."""
    from scipy.integrate import quad

    r01, r02, r12 = map(float, (r01, r02, r12))
    surf = 2 * math.pi if d == 2 else 4 * math.pi
    cuts = [0.0, *sorted({p for p in (abs(r02 - r12), r02 + r12) if 0 < p < r01}), r01]
    return sum(
        quad(
            lambda t: surf * t ** (d - 1) * lens_volume(d, r02, r12, t),
            lo,
            hi,
            epsabs=0.0,
            epsrel=1e-13,
            limit=200,
        )[0]
        for lo, hi in zip(cuts, cuts[1:])
    )
