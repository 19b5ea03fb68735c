"""Tests for graph-class enumeration and cluster coefficients.

Frozen counts are classical: connected labeled graphs 1, 4, 38, 728, 26704
and biconnected 1, 1, 10, 238, 11368 for n = 2..6, labeled trees n^(n-2).
Independent recounts below re-derive trees as connected graphs with n-1
edges and biconnected graphs by explicit articulation-vertex testing.
"""

import itertools
import math
import random
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp

from virialkit import graphs
from virialkit.errors import CapabilityError, DomainError, StructureError
from virialkit.graphs import (
    build_A_family,
    build_D_family,
    build_phi_series,
    class_masks,
    count_class,
    d_coeff,
    hard_core_d_table,
    pair_order,
    ursell,
)
from virialkit.oracles import EdgeMask, d_coeff_enumerated, ursell_bruteforce
from virialkit.oracles import ursell as ursell_exact
from virialkit import inversion as inv
from virialkit.inversion import GCState
from virialkit.species import MayerMatrices, SpeciesSpace

CONNECTED = {2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}
BICONNECTED = {2: 1, 3: 1, 4: 10, 5: 238, 6: 11368}


def rand_f(seed, S, lo=-16, hi=16):
    r = random.Random(seed)
    f = [[Fraction(0)] * S for _ in range(S)]
    for i in range(S):
        for j in range(i, S):
            f[i][j] = f[j][i] = Fraction(r.randint(lo, hi), 16)
    return f


def adjacency(n, mask):
    adj = {v: set() for v in range(n)}
    for p, (i, j) in enumerate(pair_order(n)):
        if (mask >> p) & 1:
            adj[i].add(j)
            adj[j].add(i)
    return adj


def connected_on(vertices, adj):
    vs = sorted(vertices)
    seen = {vs[0]}
    stack = [vs[0]]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u in vertices and u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(vertices)


def is_biconnected_brute(n, mask):
    adj = adjacency(n, mask)
    verts = set(range(n))
    if not connected_on(verts, adj):
        return False
    for v in range(n):
        rest = verts - {v}
        if not connected_on(rest, adj):
            return False
    return True


# ---------------------------------------------------------------------------
# graph classes


def test_pair_order():
    assert pair_order(3) == ((0, 1), (0, 2), (1, 2))
    assert len(pair_order(6)) == 15


def test_frozen_class_counts():
    for n, c in CONNECTED.items():
        assert count_class(n, "connected") == c
    for n, c in BICONNECTED.items():
        assert count_class(n, "biconnected") == c
    for n in range(2, 7):
        assert count_class(n, "tree") == n ** (n - 2)


def test_trees_are_connected_graphs_with_n_minus_1_edges():
    for n in range(2, 7):
        conn = [int(m) for m in class_masks(n, "connected")]
        recount = sorted(m for m in conn if bin(m).count("1") == n - 1)
        assert recount == sorted(int(m) for m in class_masks(n, "tree"))


def test_biconnected_recount_by_articulation():
    for n in range(2, 6):
        expected = sorted(
            m for m in range(1 << len(pair_order(n))) if is_biconnected_brute(n, m)
        )
        assert expected == sorted(int(m) for m in class_masks(n, "biconnected"))


def test_biconnected_subset_of_connected():
    for n in range(2, 6):
        conn = set(int(m) for m in class_masks(n, "connected"))
        assert set(int(m) for m in class_masks(n, "biconnected")) <= conn


def test_class_masks_errors():
    with pytest.raises(DomainError):
        class_masks(1, "connected")
    with pytest.raises(DomainError):
        class_masks(3, "wheel")
    with pytest.raises(CapabilityError):
        class_masks(9, "connected")
    with pytest.raises(CapabilityError):
        class_masks(10, "tree")


def test_graph_class_scans_stop_at_d_coeff_max():
    # no caller reads a class above D_COEFF_MAX = 7; n = 8 would scan 2^28
    # masks and keep about 2 GB of connected graphs
    for kind in ("connected", "biconnected"):
        with pytest.raises(CapabilityError):
            class_masks(8, kind)


def test_edge_mask_roundtrip():
    em = EdgeMask.from_edges(4, [(2, 0), (1, 3), (0, 1)])
    assert em.edges == ((0, 1), (0, 2), (1, 3))
    assert EdgeMask(3, 5).edges == ((0, 1), (1, 2))
    assert EdgeMask.from_edges(3, [(0, 1), (1, 2)]).mask == 5


def test_prufer_star_and_bijection():
    assert sorted(graphs._prufer_edges(4, (0, 0))) == [(0, 1), (0, 2), (0, 3)]
    built = set()
    for seq in itertools.product(range(4), repeat=2):
        built.add(EdgeMask.from_edges(4, graphs._prufer_edges(4, seq)).mask)
    assert built == set(int(m) for m in class_masks(4, "tree"))


# ---------------------------------------------------------------------------
# Ursell functions


def test_ursell_small_orders():
    f = rand_f(0, 2)
    assert ursell_exact(f, (0,)) == 1
    assert ursell_exact(f, (0, 1)) == f[0][1]
    x, y, z = 0, 1, 0
    expect = (
        f[x][y] * f[x][z]
        + f[x][y] * f[y][z]
        + f[x][z] * f[y][z]
        + f[x][y] * f[x][z] * f[y][z]
    )
    assert ursell_exact(f, (x, y, z)) == expect


def test_ursell_hard_core_pair():
    f = [[Fraction(-1)]]
    assert ursell_exact(f, (0, 0)) == -1


def test_ursell_fast_matches_bruteforce():
    for seed in range(5):
        f = rand_f(seed, 3)
        for n in range(2, 7):
            r = random.Random(100 + seed + n)
            xs = tuple(r.randrange(3) for _ in range(n))
            assert ursell_exact(f, xs) == ursell_bruteforce(f, xs)


def test_ursell_partition_identity():
    # prod over pairs of (1 + f) equals the sum over set partitions of
    # products of Ursell factors -- the defining property
    from virialkit.fps import set_partitions

    for seed in (3, 4):
        f = rand_f(seed, 2)
        for xs in [(0, 1, 0, 1), (0, 0, 1, 1), (1, 1, 1, 0)]:
            n = len(xs)
            prod = Fraction(1)
            for i in range(n):
                for j in range(i + 1, n):
                    prod *= 1 + f[xs[i]][xs[j]]
            total = Fraction(0)
            for part in set_partitions(n):
                term = Fraction(1)
                for blk in part:
                    term *= ursell_exact(f, tuple(xs[i] for i in blk))
                total += term
            assert prod == total


def test_ursell_partition_identity_above_the_brute_force_range():
    # the same identity at n = 7, where ursell_bruteforce stops, in exact
    # Fractions: every block's sum comes from the exact subset recursion
    from virialkit.fps import set_partitions
    from virialkit.oracles import URSELL_BRUTE_MAX

    f = rand_f(5, 3)
    for xs in [(0, 1, 0, 1, 2, 2, 0), (2, 2, 2, 1, 0, 1, 0)]:
        n = len(xs)
        assert n > URSELL_BRUTE_MAX
        prod = Fraction(1)
        for i, j in pair_order(n):
            prod *= 1 + f[xs[i]][xs[j]]
        total = Fraction(0)
        for part in set_partitions(n):
            term = Fraction(1)
            for blk in part:
                term *= ursell_exact(f, tuple(xs[i] for i in blk))
            total += term
        assert prod == total
        assert type(ursell_exact(f, xs)) is Fraction


def test_ursell_errors():
    f = rand_f(1, 2)
    for fn in (ursell, ursell_exact):
        with pytest.raises(DomainError):
            fn(f, ())
        with pytest.raises(CapabilityError):
            fn(f, (0,) * 13)
    with pytest.raises(CapabilityError):
        ursell_bruteforce(f, (0,) * 7)
    # the float sum refuses an exact tuple, and the exact oracle a float one
    for m in (f, MayerMatrices.from_f(SpeciesSpace.uniform(2), f, exact=True)):
        with pytest.raises(DomainError, match="build_phi_series.*oracles.ursell"):
            ursell(m, (0, 1, 1))
    with pytest.raises(DomainError):
        ursell_exact([[0.5]], (0, 0))


# ---------------------------------------------------------------------------
# rooted coefficients


def test_d_coeff_small_orders():
    f = rand_f(2, 2)
    assert d_coeff(f, (0, 1)) == f[0][1]
    # on three points only the triangle is biconnected
    assert d_coeff(f, (0, 1, 1)) == f[0][1] * f[0][1] * f[1][1]


def test_d_coeff_all_overlap_four_points():
    # 3 four-cycles - 6 one-chord graphs + K4 = -2 at f = -1
    f = [[Fraction(-1)]]
    assert d_coeff(f, (0, 0, 0, 0)) == -2


def test_d_coeff_float_path_matches_exact():
    r = random.Random(9)
    S = 2
    fq = [[Fraction(0)] * S for _ in range(S)]
    for i in range(S):
        for j in range(i, S):
            fq[i][j] = fq[j][i] = Fraction(r.randint(-16, 0), 16)
    ff = [[float(v) for v in row] for row in fq]
    for xs in [(0, 1), (0, 0, 1), (0, 1, 1, 0), (0, 0, 0, 1, 1), (0, 1, 0, 1, 0, 1)]:
        assert abs(d_coeff(ff, xs) - float(d_coeff(fq, xs))) < 1e-12


def matrix_product_d(n, vals):
    """The float biconnected sum as the (graphs x pairs) bool-matrix product
    that ``d_coeff`` computed before its gather: the bit reference."""
    masks = class_masks(n, "biconnected")
    mat = (masks[:, None] >> np.arange(len(vals))[None, :] & 1).astype(bool)
    fvec = np.array(vals)
    with np.errstate(all="ignore"):
        return float(np.where(mat, fvec[None, :], 1.0).prod(axis=1).sum())


SPECIAL_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 1e-308, -1e-308, 5e-324, -5e-324, 2.5e-310)


def float_bits(x):
    return "nan" if math.isnan(x) else struct.pack("<d", x)


FLOAT_DRAWS = {
    "random": lambda r: r.uniform(-1.0, 1.0),
    "wide": lambda r: r.choice((-1.0, 1.0)) * 10.0 ** r.uniform(-300, 300),
    "special": lambda r: r.choice(SPECIAL_FLOATS) if r.random() < 0.4 else r.uniform(-2.0, 2.0),
}


@pytest.mark.parametrize("budget", [graphs.GATHER_ELEMENTS, 4096, 64])
def test_float_d_coeff_keeps_the_matrix_product_bits(monkeypatch, budget):
    # the gather multiplies each graph's factors in pair order (a missing
    # edge contributes an exact 1.0) and sums the terms once, so every bit
    # matches the matrix product; budget 4096 splits n = 6 into several
    # gathers, and budget 64 splits n >= 5
    monkeypatch.setattr(graphs, "GATHER_ELEMENTS", budget)
    r = random.Random(23)
    for n in range(3, 7):
        index = graphs._biconnected_gather_index(n)
        assert index.dtype == np.uint8 and not index.flags.writeable
        assert index.shape == (len(pair_order(n)), count_class(n, "biconnected"))
        for kind, draw in FLOAT_DRAWS.items():
            for _ in range(12):
                vals = [draw(r) for _ in pair_order(n)]
                f = [[0.0] * n for _ in range(n)]
                for (i, j), v in zip(pair_order(n), vals):
                    f[i][j] = f[j][i] = v
                got = d_coeff(f, tuple(range(n)))
                assert float_bits(got) == float_bits(matrix_product_d(n, vals)), (n, kind, vals)


# exact entries: hard cores and small ints, sixteenths, thirds and sevenths
INT_ENTRIES = hyp.sampled_from([-1, 0, 1, 2])
FRACTION_ENTRIES = hyp.one_of(
    hyp.sampled_from([Fraction(-1), Fraction(0)]),
    hyp.integers(-16, 8).map(lambda k: Fraction(k, 16)),
    hyp.builds(Fraction, hyp.integers(-3, 6), hyp.sampled_from([3, 7])),
)
ENTRIES = {
    "int": INT_ENTRIES,
    "fraction": FRACTION_ENTRIES,
    "mixed": hyp.one_of(INT_ENTRIES, FRACTION_ENTRIES),
}


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@settings(max_examples=10, deadline=None)
@given(data=hyp.data())
def test_exact_sums_match_enumeration(n, data):
    # the integer path against the edge-by-edge enumeration: same value and
    # same type (int 0 when no graph survives, a Fraction exactly when a
    # surviving graph has a Fraction edge); ursell is a Fraction exactly
    # when one of the tuple's pair entries is
    entry = ENTRIES[data.draw(hyp.sampled_from(sorted(ENTRIES)))]
    S = data.draw(hyp.integers(1, 3))
    f = [[0] * S for _ in range(S)]
    for i in range(S):
        for j in range(i, S):
            f[i][j] = f[j][i] = data.draw(entry)
    xs = tuple(data.draw(hyp.lists(hyp.integers(0, S - 1), min_size=n, max_size=n)))
    want = d_coeff_enumerated(f, xs)
    want_phi = ursell_bruteforce(f, xs)
    pair_entries = [f[xs[i]][xs[j]] for i, j in pair_order(n)]
    phi_type = Fraction if any(isinstance(v, Fraction) for v in pair_entries) else int
    mayer = MayerMatrices.from_f(SpeciesSpace.uniform(S), f, exact=True)
    for m in (f, mayer):
        got = d_coeff(m, xs)
        assert got == want and type(got) is type(want)
        phi = ursell_exact(m, xs)
        assert phi == want_phi and type(phi) is phi_type


@settings(max_examples=60, deadline=None)
@given(data=hyp.data())
def test_exact_ursell_matches_bruteforce(data):
    # the exact subset recursion against the enumeration of connected graphs for
    # n <= 6, on ints, sixteenths, thirds and sevenths, int -1 beside
    # Fraction(-1), and species whose row is zero: the same value, and a
    # Fraction exactly when one of the tuple's pair entries is (the
    # enumeration gives int 0 when no graph survives)
    entry = ENTRIES[data.draw(hyp.sampled_from(sorted(ENTRIES)))]
    S = data.draw(hyp.integers(1, 3))
    f = [[0] * S for _ in range(S)]
    for i in range(S):
        for j in range(i, S):
            f[i][j] = f[j][i] = data.draw(entry)
    for x in data.draw(hyp.sets(hyp.integers(0, S - 1), max_size=S - 1)):
        zero = data.draw(hyp.sampled_from([0, Fraction(0)]))
        for j in range(S):
            f[x][j] = f[j][x] = zero
    n = data.draw(hyp.integers(1, 6))
    xs = tuple(data.draw(hyp.lists(hyp.integers(0, S - 1), min_size=n, max_size=n)))
    want = ursell_bruteforce(f, xs)
    pair_entries = [f[xs[i]][xs[j]] for i, j in pair_order(n)]
    phi_type = Fraction if any(isinstance(v, Fraction) for v in pair_entries) else int
    mayer = MayerMatrices.from_f(SpeciesSpace.uniform(S), f, exact=True)
    for m in (f, mayer):
        got = ursell_exact(m, xs)
        assert got == want and type(got) is phi_type


def test_log_w_phi_and_a_at_order_twelve():
    # one spot check at the oracle's ceiling, on a matrix of ints beside
    # Fractions: every tuple of order 12, and A at each root
    N, S = 12, 2
    f = [[-1, Fraction(1, 3)], [Fraction(1, 3), 2]]
    space = SpeciesSpace.uniform(S)
    phi = build_phi_series(space, f, N, allow_large=True)
    A = build_A_family(space, f, N, phi, allow_large=True)
    for ms, v in phi.coeffs[N].items():
        want = ursell_exact(f, ms)
        assert v == want and type(v) is type(want) is (Fraction if 0 in ms and 1 in ms else int)
        for q in range(S):
            a = -(math.prod(1 + f[q][x] for x in ms) - 1) * want
            assert A.value(N, q, ms) == a and type(A.value(N, q, ms)) is type(a)


def test_float_sums_golden():
    # float.hex of the float paths, recorded before the exact sums moved to
    # integer arithmetic; a changed float operation shows as a changed bit
    golden = {
        11: [
            ((0, 0, 2), "-0x1.cf4e8359a4894p-7", "0x1.6ca3941402400p-5"),
            ((2, 2, 0, 2), "0x1.1c3578dbf8f08p-5", "0x1.ecbc4ff0ff2e0p-4"),
            ((1, 1, 2, 2, 2), "0x1.d563bef6992adp-16", "-0x1.a1577a9593180p-8"),
            ((2, 0, 2, 0, 2, 0), "0x1.96af8ce8dbf19p-5", "0x1.8f73ce42b8000p-13"),
        ],
        12: [
            ((0, 1, 1), "0x1.69d1b4f8748e2p-3", "0x1.422acfeec9840p-2"),
            ((0, 1, 0, 0), "0x1.515b7740313fap-10", "-0x1.6a6775bead74ep-2"),
            ((2, 0, 0, 2, 2), "0x1.f87e5ec4450ccp-8", "0x1.54d73a2bf29e5p-3"),
            ((1, 2, 1, 0, 0, 0), "-0x1.4c41afb240019p-3", "-0x1.effc12849d551p+1"),
        ],
    }
    S = 3
    for seed, rows in golden.items():
        r = random.Random(seed)
        f = [[0.0] * S for _ in range(S)]
        for i in range(S):
            for j in range(i, S):
                hard = r.random() >= 0.8
                v = round(r.uniform(-1.0, 0.6), 6) if not hard else r.choice((0.0, -1.0))
                f[i][j] = f[j][i] = v
        mayer = MayerMatrices.from_f(SpeciesSpace.uniform(S), f, exact=False)
        for xs, d, phi in rows:
            assert tuple(r.randrange(S) for _ in xs) == xs
            for m in (f, mayer):
                assert (d_coeff(m, xs).hex(), ursell(m, xs).hex()) == (d, phi)


def test_exact_sums_make_no_fraction_products(monkeypatch):
    # exact sums multiply ints; a fall back to edge-by-edge Fraction
    # products would make tens of thousands of calls on this tuple
    calls = {"n": 0}

    def counted(name):
        real = getattr(Fraction, name)

        def op(a, b):
            calls["n"] += 1
            return real(a, b)

        return op

    r = random.Random(16)
    S = 3
    f = [[Fraction(0)] * S for _ in range(S)]
    for i in range(S):
        for j in range(i, S):
            f[i][j] = f[j][i] = Fraction(r.choice([k for k in range(-16, 9) if k]), 16)
    mayer = MayerMatrices.from_f(SpeciesSpace.uniform(S), f, exact=True)
    xs = (0, 1, 2, 0, 1, 2)
    want = d_coeff_enumerated(f, xs), ursell_bruteforce(f, xs)
    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(Fraction, name, counted(name))
    for fn, value in zip((d_coeff, ursell_exact), want):
        calls["n"] = 0
        assert fn(mayer, xs) == value
        assert calls["n"] < 100


def test_d_coeff_errors():
    f = rand_f(3, 2)
    with pytest.raises(DomainError):
        d_coeff(f, (0,))
    with pytest.raises(DomainError):
        d_coeff(f, (0,) * 8)
    with pytest.raises(DomainError):
        d_coeff(f, [np.zeros(2, np.intp)] * 3)
    with pytest.raises(DomainError):
        d_coeff([[0.5]], [np.zeros(2, np.intp), np.zeros(1, np.intp), np.zeros(2, np.intp)])
    with pytest.raises(DomainError):
        ursell(f, [np.zeros(2, np.intp)] * 3)
    with pytest.raises(DomainError):
        ursell([[0.5]], [np.zeros(2, np.intp), np.zeros(1, np.intp)])


def test_a_coeff_order_one_is_minus_f():
    f = rand_f(4, 3)
    A = build_A_family(SpeciesSpace.uniform(3), f, 1)
    for q in range(3):
        for x in range(3):
            assert A.value(1, q, (x,)) == -f[q][x]


def test_a_coeff_hard_core():
    f = [[Fraction(-1)]]
    A = build_A_family(SpeciesSpace.uniform(1), f, 2)
    assert A.value(1, 0, (0,)) == 1
    assert A.value(2, 0, (0, 0)) == -1


def test_a_coeff_vanishes_without_interaction():
    S = 2
    f = [[Fraction(0)] * S for _ in range(S)]
    f[1][1] = Fraction(-1, 2)
    A = build_A_family(SpeciesSpace.uniform(S), f, 2)
    # species 0 interacts with nothing: every coefficient rooted at 0 vanishes
    for xs in [(0,), (1,), (0, 1), (1, 1)]:
        assert A.value(len(xs), 0, xs) == 0


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_a_family_matches_literal_formula(exact):
    # A_n(q; x) = -(prod_j (1 + f(q, x_j)) - 1) ursell(x), the bracket rebuilt
    # per (q, x); the builder carries it from prefixes with the same products
    S, N = 3, 5
    r = random.Random(11)
    f = rand_f(9, S)
    if not exact:
        f = [[round(r.uniform(-1.0, 0.6), 3) for _ in range(S)] for _ in range(S)]
        f = [[f[min(i, j)][max(i, j)] for j in range(S)] for i in range(S)]
    space = SpeciesSpace.uniform(S)
    mayer = MayerMatrices.from_f(space, f, exact=exact)
    A = build_A_family(space, mayer, N)
    for n in range(1, N + 1):
        for (q, ms), v in A.coeffs[n].items():
            bracket = 1
            for x in ms:
                bracket = bracket * (1 + f[q][x])
            assert repr(v) == repr(-(bracket - 1) * (ursell_exact if exact else ursell)(mayer, ms))


@settings(max_examples=40, deadline=None)
@given(data=hyp.data())
def test_a_family_matches_literal_formula_in_fractions(data):
    # phi (log of the all-graph weights) against the exact subset recursion
    # of oracles.ursell, and the integer brackets of A against
    # -(prod_j (1 + f(q, x_j)) - 1) phi(x) in Fraction arithmetic, value and
    # type: phi is a Fraction exactly when a pair entry is one, A when an
    # entry f(q, x_j) or phi(x) is one; raw lists mixing ints and Fractions,
    # hard cores and denominators 3, 7 and 16, up to order 7
    entry = ENTRIES[data.draw(hyp.sampled_from(sorted(ENTRIES)))]
    N = data.draw(hyp.integers(1, 7))
    S = data.draw(hyp.integers(1, 3 if N < 7 else 2))
    f = [[0] * S for _ in range(S)]
    for i in range(S):
        for j in range(i, S):
            f[i][j] = f[j][i] = data.draw(entry)
    space = SpeciesSpace.uniform(S)
    for m in (f, MayerMatrices.from_f(space, f, exact=True)):
        phi, A = build_phi_series(space, m, N, allow_large=True), build_A_family(space, m, N, allow_large=True)
        for n in range(1, N + 1):
            for ms, v in phi.coeffs[n].items():
                want = ursell_exact(f, ms)
                assert v == want and type(v) is type(want)
            for (q, ms), v in A.coeffs[n].items():
                bracket = 1
                for x in ms:
                    bracket = bracket * (1 + f[q][x])
                want = -(bracket - 1) * ursell_exact(f, ms)
                assert v == want and type(v) is type(want)


def counting(monkeypatch, name):
    """Count the calls the builders make to graphs.<name>."""
    calls = []
    real = getattr(graphs, name)

    def fn(mayer, xs):
        calls.append(xs)
        return real(mayer, xs)

    monkeypatch.setattr(graphs, name, fn)
    return calls


def patterns(f, tuples):
    """Distinct patterns of pair entries, an entry told apart by type and value."""
    return {
        (len(xs), tuple((type(f[xs[i]][xs[j]]), f[xs[i]][xs[j]]) for i, j in pair_order(len(xs))))
        for xs in tuples
    }


def test_builders_call_once_per_pattern(monkeypatch):
    # hard rods on a line of sites: f = -1 between neighbours, 0 further off;
    # exact phi and A are log W and call no graph sum, and D calls d_coeff
    # once per pattern of order 2 or more (orders 0 and 1 call no sum)
    S, N = 5, 4
    f = [[Fraction(-1) if abs(i - j) <= 1 else Fraction(0) for j in range(S)] for i in range(S)]
    space = SpeciesSpace.uniform(S)
    mayer = MayerMatrices.from_f(space, f, exact=True)
    tails = [ms for n in range(2, N + 1) for ms in itertools.combinations_with_replacement(range(S), n)]
    ursell_calls, d_calls = counting(monkeypatch, "ursell"), counting(monkeypatch, "d_coeff")
    build_phi_series(space, mayer, N)
    build_A_family(space, mayer, N)
    assert ursell_calls == d_calls == []
    want_d = build_D_family(space, mayer, N)
    rooted = [(q,) + ms for q in range(S) for ms in tails]
    assert len(d_calls) == len(patterns(f, rooted)) < len(rooted)
    # the patterns live for one build: a second matrix with equal entries
    # sums each of them again, in the same order
    first = list(d_calls)
    d_calls.clear()
    again = MayerMatrices.from_f(space, f, exact=True)
    got = build_D_family(space, again, N)
    assert [list(map(typed_bits, order.values())) for order in got.coeffs] == [
        list(map(typed_bits, order.values())) for order in want_d.coeffs
    ]
    assert d_calls == first


def test_a_family_refuses_a_raw_list_of_mixed_entries():
    # a raw list of floats beside ints or Fractions takes no arithmetic rule:
    # A, phi, D and the graph sums of one tuple refuse it alike, and the same
    # entries in a matrix marked exact=False take the float rule
    space = SpeciesSpace.uniform(2)
    for f in ([[0.5, Fraction(-1, 2)], [Fraction(-1, 2), 0.25]], [[-1, 0.5], [0.5, 0]]):
        for build in (build_A_family, build_phi_series, build_D_family):
            with pytest.raises(StructureError, match="MayerMatrices"):
                build(space, f, 2)
        for sum_of in (d_coeff, ursell):
            for xs in ((0, 1), (0, 0, 1)):
                with pytest.raises(StructureError, match="MayerMatrices"):
                    sum_of(f, xs)
        marked = MayerMatrices.from_f(space, f, exact=False)
        floats = [[float(v) for v in row] for row in f]
        D = build_D_family(space, marked, 2).value(2, 0, (0, 1))
        assert float_bits(D) == float_bits(d_coeff(marked, (0, 0, 1))) == float_bits(d_coeff(floats, (0, 0, 1)))


@pytest.mark.parametrize("N", [0, 1])
@pytest.mark.parametrize("matrix", ["exact", "float", "marked", "raw"])
def test_builders_below_order_two_call_no_sum(monkeypatch, matrix, N):
    # order 0 is 0, and order 1 is 1 (phi), -f (A, as -(1 + f - 1) on the
    # float rule) and f as stored (D), each of its type, on every matrix; a
    # raw list of floats beside Fractions is refused by every builder
    space = SpeciesSpace.uniform(2)
    f, exact = {
        "exact": ([[-1, Fraction(1, 3)], [Fraction(1, 3), 0]], True),
        "float": ([[-0.25, 0.3], [0.3, 0.1]], False),
        "marked": ([[-1, 0], [0, -1]], False),
        "raw": ([[0.5, Fraction(-1, 2)], [Fraction(-1, 2), 0.25]], None),
    }[matrix]
    mayer = f if exact is None else MayerMatrices.from_f(space, f, exact=exact)
    calls = counting(monkeypatch, "ursell") + counting(monkeypatch, "d_coeff")
    entries = [f[q][x] for q in range(2) for x in range(2)]
    want = {
        build_phi_series: [[0], [1, 1]],
        build_D_family: [[0, 0], entries],
        build_A_family: [[0, 0], [-(1 + v - 1) if isinstance(v, float) else -v for v in entries]],
    }
    for build, orders in want.items():
        if exact is None:
            with pytest.raises(StructureError, match="MayerMatrices"):
                build(space, mayer, N)
            continue
        got = build(space, mayer, N)
        assert [[typed_bits(v) for v in order.values()] for order in got.coeffs] == [
            list(map(typed_bits, order)) for order in orders[:N + 1]
        ]
    assert calls == []


def test_per_pattern_tells_int_from_fraction(monkeypatch):
    # -1 and Fraction(-1) are equal but give sums of different types
    f = [[-1, Fraction(-1)], [Fraction(-1), -1]]
    calls = counting(monkeypatch, "d_coeff")
    d = graphs.per_pattern(graphs.d_coeff, f)
    values = [d(xs) for xs in [(0, 0), (0, 1), (1, 1), (1, 0)]]
    assert len(calls) == 2
    assert [type(v) for v in values] == [int, Fraction, int, Fraction]
    assert values == [-1, -1, -1, -1]


def test_shared_memo_keeps_int_and_fraction_apart_across_matrices():
    # -1 and Fraction(-1) on matrices of the same layout, in turn: no sum is
    # shared across matrices, so each closure's sums take its own matrix's type
    space = SpeciesSpace.uniform(2)
    for entry in (-1, Fraction(-1), -1, Fraction(-1)):
        mayer = MayerMatrices.from_f(space, [[entry, entry], [entry, entry]], exact=True)
        d = graphs.per_pattern(d_coeff, mayer)
        values = [d((0, 1)), d((0, 0, 1)), d((0, 0, 1, 1)), d((0, 1, 1, 1))]
        assert values == [-1, -1, -2, -2]
        assert {type(v) for v in values} == {type(entry)}


@pytest.mark.parametrize("exact_first", [True, False])
def test_shared_memo_keeps_the_arithmetic_rule(fresh_memo, exact_first):
    # the same ints on an exact and on a float-marked matrix: int sums and
    # families on the one, float64 on the other, whichever is built first;
    # the process's f-keyed family memo holds the exact matrix's D only
    space = SpeciesSpace.uniform(2)
    f = [[-1, -1], [-1, -1]]
    exact, marked = MayerMatrices.from_f(space, f, exact=True), MayerMatrices.from_f(space, f, exact=False)
    for mayer in (exact, marked) if exact_first else (marked, exact):
        kind = int if mayer.exact else float
        d = graphs.per_pattern(d_coeff, mayer)
        assert [(v, type(v)) for v in (d((0, 0, 1)), d((0, 0, 1, 1)))] == [(-1, kind), (-2, kind)]
        D = GCState(space, mayer=mayer, N=3).d_family
        assert {(v, type(v)) for v in D.coeffs[3].values()} == {(-2, kind)}
    assert [key[:2] for key in fresh_memo._entries] == [("D", 3)]


def test_shared_memo_is_bounded(monkeypatch):
    # more distinct patterns than the bound: each sum is that of a direct
    # call, and the process's f-keyed memo, which holds families only, keeps
    # no sum
    monkeypatch.setattr(inv, "MEMO_BOUND", 8)
    monkeypatch.setattr(inv, "_MEMO", inv._Memo(8))
    S = 4
    mayer = MayerMatrices.from_f(SpeciesSpace.uniform(S), rand_f(3, S), exact=True)
    d = graphs.per_pattern(d_coeff, mayer)
    tuples = list(itertools.combinations_with_replacement(range(S), 3))
    assert len(patterns(mayer.f, tuples)) > 8
    for xs in tuples + tuples:
        v, want = d(xs), d_coeff(mayer, xs)
        assert v == want and type(v) is type(want)
    assert len(inv._MEMO._entries) == inv._MEMO.size == 0
    # the memo key is the matrix's own entry classes: 20 fresh matrices of
    # distinct entries give 20 distinct keys, and the memo stays bounded
    keys = set()
    for k in range(20):
        entry = Fraction(-1, k + 2)
        st = GCState.from_f(SpeciesSpace.uniform(1), [[entry]], N=1)
        assert graphs.per_pattern(d_coeff, st.mayer)((0, 0)) == entry
        assert st.d_family.value(1, 0, (0,)) == entry
        keys.add(st._family_key)
    assert len(keys) == 20
    assert inv._MEMO.size == sum(size for _, size in inv._MEMO._entries.values()) <= 8
    # a rebuilt equal matrix (the last one's entry, Fraction(-1, 21)) has an
    # equal key, and its D is the kept family's layouts: a memo hit
    again = GCState.from_f(SpeciesSpace.uniform(1), [[Fraction(-2, 42)]], N=1)
    assert again._family_key == st._family_key
    assert again.d_family._orders[1] is st.d_family._orders[1]
    # int -1 and Fraction(-1) are different entries
    ints, fracs = ([[-1, 0], [0, c]] for c in (-1, Fraction(-1)))
    keys = [GCState.from_f(SpeciesSpace.uniform(2), f, N=1)._family_key for f in (ints, fracs)]
    assert keys[0] != keys[1]


@pytest.mark.parametrize("matrix", ["mayer", "raw"])
def test_float_phi_and_a_call_ursell_once_per_order(monkeypatch, matrix):
    # orders 0 and 1 make no call; each order n >= 2 is one call over all of
    # its tails in canonical order, for the series and the family alike
    S, N = 3, 4
    f = rand_float_f(random.Random(5), S, FLOAT_DRAWS["random"])
    space = SpeciesSpace.uniform(S)
    mayer = MayerMatrices.from_f(space, f, exact=False) if matrix == "mayer" else f
    ursell_calls = counting(monkeypatch, "ursell")
    for build in (build_phi_series, build_A_family):
        ursell_calls.clear()
        build(space, mayer, N)
        assert [len(xs) for xs in ursell_calls] == list(range(2, N + 1))
        for n, xs in enumerate(ursell_calls, 2):
            tails = list(itertools.combinations_with_replacement(range(S), n))
            assert all(isinstance(col, np.ndarray) for col in xs)
            assert [tuple(int(col[t]) for col in xs) for t in range(len(tails))] == tails


@pytest.mark.parametrize("matrix", ["mayer", "raw"])
def test_float_d_family_calls_d_coeff_once_per_order(monkeypatch, matrix):
    # order 1 is f as stored; each order n >= 2 is one call over all of its
    # (root, tail) tuples, roots outermost, tails in canonical order
    S, N = 3, 4
    f = rand_float_f(random.Random(4), S, FLOAT_DRAWS["random"])
    space = SpeciesSpace.uniform(S)
    mayer = MayerMatrices.from_f(space, f, exact=False) if matrix == "mayer" else f
    d_calls = counting(monkeypatch, "d_coeff")
    build_D_family(space, mayer, N)
    assert [len(xs) for xs in d_calls] == list(range(3, N + 2))
    for n, xs in enumerate(d_calls, 2):
        tails = list(itertools.combinations_with_replacement(range(S), n))
        rooted = [(q,) + ms for q in range(S) for ms in tails]
        assert all(isinstance(col, np.ndarray) for col in xs)
        assert [tuple(int(col[t]) for col in xs) for t in range(len(rooted))] == rooted


def rand_float_f(r, S, draw):
    f = [[0.0] * S for _ in range(S)]
    for i in range(S):
        for j in range(i, S):
            f[i][j] = f[j][i] = draw(r)
    return f


def typed_bits(x):
    return type(x), float_bits(x) if isinstance(x, float) else x


@pytest.mark.parametrize("budget", [graphs.GATHER_ELEMENTS, 16])
@pytest.mark.parametrize("kind", sorted(FLOAT_DRAWS))
def test_float_d_family_keeps_the_per_tuple_bits(monkeypatch, kind, budget):
    # the batched orders equal d_coeff on each (root, tail) tuple, bit for
    # bit and type for type; budget 16 splits the tuples of every order and
    # the graphs of n >= 5 across blocks
    r = random.Random(f"d_family/{kind}")
    draw = FLOAT_DRAWS[kind]
    for S, N in [(1, 5), (2, 5), (3, 4), (4, 3)]:
        space = SpeciesSpace.uniform(S)
        f = rand_float_f(r, S, draw)
        matrices = [f]
        if not any(v < -1 for row in f for v in row):
            matrices.append(MayerMatrices(space, f, [[0.0] * S] * S, exact=False))
        for mayer in matrices:
            want = [
                [typed_bits(d_coeff(mayer, (q,) + ms) if n else 0) for q, ms in keys]
                for n, keys in enumerate(key_orders(S, N))
            ]
            with monkeypatch.context() as m:
                m.setattr(graphs, "GATHER_ELEMENTS", budget)
                D = build_D_family(space, mayer, N)
            got = [[typed_bits(v) for v in order.values()] for order in D.coeffs]
            assert got == want, (S, N, kind)


def key_orders(S, N):
    """Per order 0..N, the (root, tail) keys of a family in storage order."""
    return [
        [(q, ms) for q in range(S) for ms in itertools.combinations_with_replacement(range(S), n)]
        for n in range(N + 1)
    ]


def ursell_float_recursion(f, xs):
    """The float connected sum as the per-tuple route computed it: w and phi
    over subset masks in Python floats, each w(S) grown from w(S less its
    top vertex) by the top vertex's factors in ascending order, and the
    terms phi(T) w(S \\ T) subtracted over descending submasks."""
    n = len(xs)
    if n == 1:
        return 1
    one_plus = {(j, i): 1 + f[xs[i]][xs[j]] for i, j in pair_order(n)}
    size = 1 << n
    w = [1] * size
    phi = [1] * size
    for mask in range(3, size):
        if mask.bit_count() < 2:
            continue
        top = mask.bit_length() - 1
        acc = w[mask ^ 1 << top]
        for v in range(top):
            if mask >> v & 1:
                acc = acc * one_plus[top, v]
        w[mask] = acc
        anchor = mask & -mask
        free = mask ^ anchor
        total, sub = acc, (free - 1) & free
        while True:
            s = sub | anchor
            total -= phi[s] * w[mask ^ s]
            if sub == 0:
                break
            sub = (sub - 1) & free
        phi[mask] = total
    return phi[size - 1]


@pytest.mark.parametrize("budget", [graphs.GATHER_ELEMENTS, 16])
@pytest.mark.parametrize("kind", sorted(FLOAT_DRAWS))
def test_float_phi_and_a_keep_the_per_tuple_bits(monkeypatch, kind, budget):
    # the batched orders, and ursell on one tuple, equal the per-tuple float
    # recursion and -(prod_j (1 + f(q, x_j)) - 1) * phi(x) with the factors
    # multiplied left to right, bit for bit and type for type; budget 16
    # splits the tuples of every order across blocks
    r = random.Random(f"phi_and_a/{kind}")
    draw = FLOAT_DRAWS[kind]
    for S, N in [(1, 5), (2, 5), (3, 4), (4, 3)]:
        space = SpeciesSpace.uniform(S)
        f = rand_float_f(r, S, draw)
        matrices = [f]
        if not any(v < -1 for row in f for v in row):
            matrices.append(MayerMatrices(space, f, [[0.0] * S] * S, exact=False))
        tails = [list(itertools.combinations_with_replacement(range(S), n)) for n in range(1, N + 1)]
        phis = {ms: ursell_float_recursion(f, ms) for order in tails for ms in order}
        want_phi = [[typed_bits(0)]] + [[typed_bits(phis[ms]) for ms in order] for order in tails]
        want_a = [[typed_bits(0)] * S]
        for keys in key_orders(S, N)[1:]:
            order = []
            for q, ms in keys:
                bracket = 1
                for x in ms:
                    bracket = bracket * (1 + f[q][x])
                order.append(typed_bits(-(bracket - 1) * phis[ms]))
            want_a.append(order)
        for mayer in matrices:
            with monkeypatch.context() as m:
                m.setattr(graphs, "GATHER_ELEMENTS", budget)
                phi = build_phi_series(space, mayer, N)
                A = build_A_family(space, mayer, N)
                one = {ms: typed_bits(ursell(mayer, ms)) for ms in phis}
            assert [[typed_bits(v) for v in order.values()] for order in phi.coeffs] == want_phi, (S, N, kind)
            assert [[typed_bits(v) for v in order.values()] for order in A.coeffs] == want_a, (S, N, kind)
            assert one == {ms: typed_bits(v) for ms, v in phis.items()}, (S, N, kind)


def test_float_d_family_keeps_int_entries_at_order_one():
    # a float-marked matrix of ints: order 1 is f as stored, the higher
    # orders are the float sums
    S, N = 2, 3
    f = [[-1, 0], [0, 2]]
    space = SpeciesSpace.uniform(S)
    mayer = MayerMatrices.from_f(space, f, exact=False)
    D = build_D_family(space, mayer, N)
    assert [type(v) for v in D.coeffs[1].values()] == [int] * 4
    assert list(D.coeffs[1].values()) == [-1, 0, 0, 2]
    for n in range(2, N + 1):
        for (q, ms), v in D.coeffs[n].items():
            assert type(v) is float
            assert float_bits(v) == float_bits(d_coeff(mayer, (q,) + ms))
    assert D.value(2, 1, (1, 1)) == 8.0


def test_float_marked_int_matrix_sums_are_floats():
    # a float-marked matrix of ints takes the float route: order 1 keeps the
    # stored ints, and every sum over n >= 2 points is a float64
    S, N = 2, 3
    f = [[-1, 0], [0, 2]]
    space = SpeciesSpace.uniform(S)
    mayer = MayerMatrices.from_f(space, f, exact=False)
    phi, A = build_phi_series(space, mayer, N), build_A_family(space, mayer, N)
    assert list(phi.coeffs[1].values()) == [1, 1] and type(phi.coeffs[1][(0,)]) is int
    assert list(A.coeffs[1].values()) == [1, 0, 0, -2]
    assert [type(v) for v in A.coeffs[1].values()] == [int] * 4
    for n in range(2, N + 1):
        for ms, v in phi.coeffs[n].items():
            assert type(v) is float and float_bits(v) == float_bits(ursell_float_recursion(f, ms))
        for (q, ms), v in A.coeffs[n].items():
            assert type(v) is float
            assert float_bits(v) == float_bits(-(math.prod(1.0 + f[q][x] for x in ms) - 1.0) * phi.coeffs[n][ms])
    assert ursell(mayer, (1, 1, 1)) == 20.0 and type(ursell(mayer, (1, 1, 1))) is float
    assert d_coeff(mayer, (1, 1, 1)) == 8.0
    assert A.value(3, 1, (1, 1, 1)) == -26.0 * 20.0


# ---------------------------------------------------------------------------
# hard-core tables


def test_hard_core_d_table_small():
    t2 = hard_core_d_table(2)
    assert list(t2) == [0, -1]
    t3 = hard_core_d_table(3)
    assert t3[7] == -1
    assert all(t3[m] == 0 for m in range(7))


def test_hard_core_d_table_matches_d_coeff():
    table = hard_core_d_table(4)
    for mask in range(64):
        f = [[0] * 4 for _ in range(4)]
        for p, (i, j) in enumerate(pair_order(4)):
            if (mask >> p) & 1:
                f[i][j] = f[j][i] = -1
        assert table[mask] == d_coeff_enumerated(f, (0, 1, 2, 3))
    assert hard_core_d_table(4) is table
    with pytest.raises(ValueError):
        table[0] = 1


def test_hard_core_d_table_matches_exact_d_coeff_at_five_points():
    # the subset-sum pass against the exact biconnected sum of every one of
    # the 2^10 overlap masks of five points
    table = hard_core_d_table(5)
    assert table.dtype == np.int64 and len(table) == 1 << 10
    for mask in range(len(table)):
        f = [[0] * 5 for _ in range(5)]
        for p, (i, j) in enumerate(pair_order(5)):
            if mask >> p & 1:
                f[i][j] = f[j][i] = -1
        assert table[mask] == d_coeff(f, tuple(range(5)))


# ---------------------------------------------------------------------------
# series builders


def build_state(seed, S, N):
    space = SpeciesSpace.uniform(S)
    mayer = MayerMatrices.from_f(space, rand_f(seed, S, lo=-16, hi=0), exact=True)
    return space, mayer


def test_builders_order_one_slices():
    space, mayer = build_state(5, 2, 3)
    f = mayer.f
    phi = build_phi_series(space, mayer, 3)
    assert phi.constant() == 0
    assert all(phi.coeffs[1][(x,)] == 1 for x in range(2))
    A = build_A_family(space, mayer, 3)
    D = build_D_family(space, mayer, 3)
    for q in range(2):
        for x in range(2):
            assert A.value(1, q, (x,)) == -f[q][x]
            assert D.value(1, q, (x,)) == f[q][x]
            assert A.value(0, q, ()) == 0


def test_phi_series_order_two():
    space, mayer = build_state(6, 2, 2)
    phi = build_phi_series(space, mayer, 2)
    f = mayer.f
    for ms in [(0, 0), (0, 1), (1, 1)]:
        assert phi.coeffs[2][ms] == f[ms[0]][ms[1]]


def test_build_d_family_ceiling():
    space, mayer = build_state(7, 2, 3)
    with pytest.raises(CapabilityError):
        build_D_family(space, mayer, 7, allow_large=True)

