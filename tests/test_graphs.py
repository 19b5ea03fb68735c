"""Tests for graph-class enumeration and cluster coefficients.

Frozen counts are classical: connected labeled graphs 1, 4, 38, 728, 26704
and biconnected 1, 1, 10, 238, 11368 for n = 2..6, labeled trees n^(n-2).
Independent recounts below re-derive trees as connected graphs with n-1
edges and biconnected graphs by explicit articulation-vertex testing.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp

from virialkit import graphs
from virialkit.errors import CapabilityError, DomainError
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
    assert ursell(f, (0,)) == 1
    assert ursell(f, (0, 1)) == f[0][1]
    x, y, z = 0, 1, 0
    expect = (
        f[x][y] * f[x][z]
        + f[x][y] * f[y][z]
        + f[x][z] * f[y][z]
        + f[x][y] * f[x][z] * f[y][z]
    )
    assert ursell(f, (x, y, z)) == expect


def test_ursell_hard_core_pair():
    f = [[Fraction(-1)]]
    assert ursell(f, (0, 0)) == -1


def test_ursell_fast_matches_bruteforce():
    for seed in range(5):
        f = rand_f(seed, 3)
        for n in range(2, 7):
            r = random.Random(100 + seed + n)
            xs = tuple(r.randrange(3) for _ in range(n))
            assert ursell(f, xs) == ursell_bruteforce(f, xs)


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
                    term *= ursell(f, tuple(xs[i] for i in blk))
                total += term
            assert prod == total


def test_ursell_errors():
    f = rand_f(1, 2)
    with pytest.raises(DomainError):
        ursell(f, ())
    with pytest.raises(CapabilityError):
        ursell_bruteforce(f, (0,) * 7)
    with pytest.raises(CapabilityError):
        ursell(f, (0,) * 13)


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
        phi = ursell(m, xs)
        assert phi == want_phi and type(phi) is phi_type


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
    for fn, value in zip((d_coeff, ursell), want):
        calls["n"] = 0
        assert fn(mayer, xs) == value
        assert calls["n"] < 100


def test_d_coeff_errors():
    f = rand_f(3, 2)
    with pytest.raises(DomainError):
        d_coeff(f, (0,))
    with pytest.raises(DomainError):
        d_coeff(f, (0,) * 8)


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
            assert repr(v) == repr(-(bracket - 1) * ursell(mayer, ms))


@settings(max_examples=25, deadline=None)
@given(data=hyp.data())
def test_a_family_matches_literal_formula_in_fractions(data):
    # the integer brackets against -(prod_j (1 + f(q, x_j)) - 1) ursell(x)
    # in Fraction arithmetic, value and type: a Fraction exactly when an
    # entry f(q, x_j) or ursell(x) is one; raw lists mixing ints and
    # Fractions, hard cores and denominators 3, 7 and 16
    entry = ENTRIES[data.draw(hyp.sampled_from(sorted(ENTRIES)))]
    S, N = data.draw(hyp.integers(1, 3)), data.draw(hyp.integers(1, 4))
    f = [[0] * S for _ in range(S)]
    for i in range(S):
        for j in range(i, S):
            f[i][j] = f[j][i] = data.draw(entry)
    space = SpeciesSpace.uniform(S)
    for m in (f, MayerMatrices.from_f(space, f, exact=True)):
        A = build_A_family(space, m, N)
        for n in range(1, N + 1):
            for (q, ms), v in A.coeffs[n].items():
                bracket = 1
                for x in ms:
                    bracket = bracket * (1 + f[q][x])
                want = -(bracket - 1) * ursell(f, ms)
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
    # hard rods on a line of sites: f = -1 between neighbours, 0 further off
    S, N = 5, 4
    f = [[Fraction(-1) if abs(i - j) <= 1 else Fraction(0) for j in range(S)] for i in range(S)]
    space = SpeciesSpace.uniform(S)
    mayer = MayerMatrices.from_f(space, f, exact=True)
    tails = [ms for n in range(1, N + 1) for ms in itertools.combinations_with_replacement(range(S), n)]
    want_phi, want_d = build_phi_series(space, mayer, N), build_D_family(space, mayer, N)
    want_A = build_A_family(space, mayer, N)
    ursell_calls, d_calls = counting(monkeypatch, "ursell"), counting(monkeypatch, "d_coeff")
    assert build_phi_series(space, mayer, N) == want_phi
    assert len(ursell_calls) == len(patterns(f, tails)) < len(tails)
    ursell_calls.clear()
    assert build_A_family(space, mayer, N) == want_A
    assert len(ursell_calls) == len(patterns(f, tails))
    assert build_D_family(space, mayer, N) == want_d
    rooted = [(q,) + ms for q in range(S) for ms in tails]
    assert len(d_calls) == len(patterns(f, rooted)) < len(rooted)


def test_per_pattern_tells_int_from_fraction(monkeypatch):
    # -1 and Fraction(-1) are equal but give sums of different types
    f = [[-1, Fraction(-1)], [Fraction(-1), -1]]
    calls = counting(monkeypatch, "ursell")
    phi = graphs.per_pattern(graphs.ursell, f)
    values = [phi(xs) for xs in [(0, 0), (0, 1), (1, 1), (1, 0)]]
    assert len(calls) == 2
    assert [type(v) for v in values] == [int, Fraction, int, Fraction]
    assert values == [-1, -1, -1, -1]


def test_float_builders_call_once_per_tuple(monkeypatch):
    S, N = 2, 3
    f = [[-1.0, -1.0], [-1.0, -1.0]]
    space = SpeciesSpace.uniform(S)
    mayer = MayerMatrices.from_f(space, f, exact=False)
    ursell_calls, d_calls = counting(monkeypatch, "ursell"), counting(monkeypatch, "d_coeff")
    build_phi_series(space, mayer, N)
    build_D_family(space, mayer, N)
    tails = [ms for n in range(1, N + 1) for ms in itertools.combinations_with_replacement(range(S), n)]
    assert len(ursell_calls) == len(tails)
    assert len(d_calls) == S * len(tails)


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

