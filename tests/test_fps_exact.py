"""The exact rule of the row kernel against the brute-force oracles.

When every value a template sum reads is an int or a Fraction, ``fps._sweep``
puts each table over one denominator per order and sums integer numerators.
These properties draw tables that mix ints, hard cores, k/16, thirds and
sevenths and the prime 2**61 - 1 within one table, and check the results
as literal rational equalities, and the type rule: a coefficient is an int
exactly when every value read is an int.  The template groups that the exact
rule sums are checked against the templates walked one by one.
"""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp

from virialkit.fps import (
    FormalSeries,
    RootedSeriesFamily,
    _scaled_groups,
    _shapes,
    _tails,
    _template_groups,
    compose_measure,
    compose_templates,
    exp_series,
    log_series,
    measure_sums,
    mul,
    set_partitions,
    subset_splits,
)
from virialkit.graphs import build_D_family
from virialkit.inversion import GCState, dissymmetry_check, extract_d_from_a
from virialkit.oracles import measure_sums_termwise, mul_dense, multi_product, sweep_termwise, tn_via_trees
from virialkit.species import MayerMatrices, SpeciesSpace
from virialkit.treefp import compute_tn

P61 = 2**61 - 1

# ints, hard cores, k/16, denominators 3 and 7, and the prime 2**61 - 1
exact_value = hyp.one_of(
    hyp.integers(-3, 3),
    hyp.sampled_from([-1, 0]),
    hyp.builds(Fraction, hyp.integers(-16, 16), hyp.just(16)),
    hyp.builds(Fraction, hyp.integers(-6, 6), hyp.sampled_from([3, 7])),
    hyp.sampled_from([P61, Fraction(1, P61), Fraction(-2, P61)]),
)
# Mayer entries stay >= -1 (hard core) and weights stay positive
mayer_value = hyp.one_of(
    hyp.sampled_from([-1, 0, 1]),
    hyp.builds(Fraction, hyp.integers(-16, 16), hyp.just(16)),
    hyp.builds(Fraction, hyp.integers(-3, 6), hyp.sampled_from([3, 7])),
    hyp.sampled_from([Fraction(1, P61), Fraction(-1, P61)]),
)
weight_value = hyp.sampled_from([1, 2, Fraction(1, 2), Fraction(3, 7), Fraction(P61, 2**60)])
# activities: zeros, ints, k/16, thirds and sevenths
activity_value = hyp.one_of(
    hyp.sampled_from([0, Fraction(0)]),
    hyp.integers(-2, 3),
    hyp.builds(Fraction, hyp.integers(-16, 16), hyp.just(16)),
    hyp.builds(Fraction, hyp.integers(-6, 6), hyp.sampled_from([3, 7])),
)


def draw_series(data, space, N, constant=None):
    def fn(n, ms):
        if n == 0 and constant is not None:
            return constant
        return data.draw(exact_value)

    return FormalSeries.from_function(space, N, fn, allow_large=True)


def draw_family(data, space, N):
    return RootedSeriesFamily.from_function(
        space, N, lambda n, q, ms: 0 if n == 0 else data.draw(exact_value), allow_large=True
    )


def draw_state(data, S, N):
    f = [[0] * S for _ in range(S)]
    for i in range(S):
        for j in range(i, S):
            f[i][j] = f[j][i] = data.draw(mayer_value)
    space = SpeciesSpace.from_weights([data.draw(weight_value) for _ in range(S)])
    return GCState.from_f(space, f, N=N, exact=True)


def all_int(*tables, orders):
    """Whether every value of the tables at the given orders is an int."""
    return all(type(v) is int for X in tables for n in orders for v in X.coeffs[n].values())


@settings(max_examples=30, deadline=None)
@given(hyp.integers(1, 3), hyp.integers(0, 3), hyp.data())
def test_mul_matches_oracles(S, N, data):
    space = SpeciesSpace.uniform(S)
    K, G = draw_series(data, space, N), draw_series(data, space, N)
    prod = mul(K, G)
    assert prod == multi_product([K, G])
    dense = mul_dense(K, G)
    for n in range(N + 1):
        for xs, v in dense[n].items():
            assert prod.value(n, xs) == v
        # order n reads both tables at orders 0..n
        assert all((type(v) is int) == all_int(K, G, orders=range(n + 1)) for v in prod.coeffs[n].values())


@settings(max_examples=15, deadline=None)
@given(hyp.integers(1, 2), hyp.integers(1, 5), hyp.data())
def test_compute_tn_matches_tree_sums(S, N, data):
    A = draw_family(data, SpeciesSpace.uniform(S), N)
    t = compute_tn(A)
    for n in range(1, N + 1):
        # t_n reads A at orders 1..n, through B and the lower orders of t
        reads_int = all_int(A, orders=range(1, n + 1))
        for (q, ms), v in t.coeffs[n].items():
            assert v == tn_via_trees(A, n, q, ms)
            assert (type(v) is int) == reads_int


@settings(max_examples=30, deadline=None)
@given(hyp.integers(1, 3), hyp.integers(1, 4), hyp.data())
def test_exp_log_roundtrip_and_type_rule(S, N, data):
    K = draw_series(data, SpeciesSpace.uniform(S), N, constant=0)
    E = exp_series(K)
    assert log_series(E) == K
    for n in range(1, N + 1):
        # exp reads K at orders 1..n (and the int coefficients of exp)
        assert all((type(v) is int) == all_int(K, orders=range(1, n + 1)) for v in E.coeffs[n].values())


@settings(max_examples=20, deadline=None)
@given(hyp.integers(1, 3), hyp.integers(1, 3), hyp.data())
def test_compose_measure_type_rule(S, N, data):
    space = SpeciesSpace.uniform(S)
    K = draw_series(data, space, N)
    G = RootedSeriesFamily.from_function(
        space, N, lambda n, q, ms: data.draw(exact_value), allow_large=True
    )
    out = compose_measure(K, G)
    for n in range(1, N + 1):
        # order n reads K at orders 1..n and G at orders 0..n-1
        reads_int = all_int(K, orders=range(1, n + 1)) and all_int(G, orders=range(n))
        assert all((type(v) is int) == reads_int for v in out.coeffs[n].values())


@settings(max_examples=15, deadline=None)
@given(hyp.integers(1, 3), hyp.integers(1, 4), hyp.data())
def test_extract_d_and_dissymmetry_on_mixed_states(S, N, data):
    st = draw_state(data, S, N)
    assert extract_d_from_a(st) == build_D_family(st.space, st.mayer, N)
    rep = dissymmetry_check(st, N=N)
    assert rep.exact and rep.max_abs == 0
    # the literal zero is an exact zero, never a float
    assert all(type(v) in (int, Fraction) for v in rep.per_order.values())


def test_type_rule_on_int_tables():
    # all-int reads give ints; one Fraction(1) anywhere read gives Fractions
    space = SpeciesSpace.uniform(2)
    K = FormalSeries.from_function(space, 3, lambda n, ms: n + sum(ms) - 1)
    assert all(type(v) is int for comp in mul(K, K).coeffs for v in comp.values())
    # K_1(1) = 1 as Fraction(1)
    K = FormalSeries.from_function(space, 3, lambda n, ms: (Fraction if ms == (1,) else int)(n + sum(ms) - 1))
    prod = mul(K, K)
    assert type(prod.coeffs[0][()]) is int
    assert all(type(v) is Fraction for comp in prod.coeffs[1:] for v in comp.values())


@settings(max_examples=60, deadline=None)
@given(hyp.integers(1, 3), hyp.integers(0, 4), hyp.integers(0, 2), hyp.booleans(), hyp.data())
def test_measure_sums_exact_rule_matches_termwise(S, N, start, rooted, data):
    # the integer rule against the term-by-term rational sum, in value and
    # type (int 0 for a root whose coefficients read are all 0, else a
    # Fraction); some roots and orders are all zeros, some activities 0
    space = SpeciesSpace.from_weights([data.draw(weight_value) for _ in range(S)])
    zero_roots = data.draw(hyp.sets(hyp.integers(0, S - 1)))
    zero_orders = data.draw(hyp.sets(hyp.integers(0, N)))

    def coeff(n, q=0):
        return 0 if q in zero_roots or n in zero_orders else data.draw(exact_value)

    if rooted:
        K = RootedSeriesFamily.from_function(space, N, lambda n, q, ms: coeff(n, q), allow_large=True)
    else:
        K = FormalSeries.from_function(space, N, lambda n, ms: coeff(n), allow_large=True)
    vals = tuple(data.draw(activity_value) for _ in range(S))
    got, want = measure_sums(K, vals, start), measure_sums_termwise(K, vals, start)
    if not rooted:
        got, want = [got], [want]
    assert [(v, type(v)) for v in got] == [(v, type(v)) for v in want]
    # float activities take the column rule, equal to the loop to the bit
    fvals = tuple(float(v) for v in vals)
    got, want = measure_sums(K, fvals, start), measure_sums_termwise(K, fvals, start)
    assert repr(got) == repr(want)


# ---------------------------------------------------------------------------
# Template groups: the exact rule sums one representative per group


def run_patterns(n):
    """Every run pattern of order n: the compositions of n."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for more in run_patterns(n - first):
            yield (first, *more)


def template_reads(kind, ms):
    """Per template of ``kind`` at ms, walked one by one: the tails it reads
    (for a composition, the tail of J and the sorted (owner, block tail)
    factor keys)."""
    n = len(ms)

    def tail(P):
        return tuple(ms[p] for p in P)

    if kind == "split":
        return [(tail(J), tail(rest)) for J, rest in subset_splits(n)]
    if kind == "partition":
        return [tuple(sorted(map(tail, P))) for P in set_partitions(n)]
    return [
        (tail(J), tuple(sorted((ms[j], tail(V)) for j, V in zip(J, blocks))))
        for J, blocks in compose_templates(n)
    ]


def group_reads(kind, ms):
    """Per group of ``_template_groups`` at ms: its shape, its count and the
    tails its representative reads, keyed like ``template_reads``."""
    runs, species, tails = _tails(ms)
    pairs, groups = _template_groups(kind, runs)
    out = []
    for shape, count, *reads in groups:
        if kind == "split":
            key = (tails[reads[0]], tails[reads[1]])
        elif kind == "partition":
            key = tuple(sorted(tails[b] for b in reads[0]))
        else:
            j, ids = reads
            key = (tails[j], tuple(sorted((species[pairs[i][0]], tails[pairs[i][1]]) for i in ids)))
        out.append((shape, count, key))
    return out


def shape_of(kind, key):
    """The orders a template with these reads reads of k and of the second table."""
    if kind == "split":
        return (len(key[0]),), (len(key[1]),)
    if kind == "partition":
        return tuple(sorted(map(len, key))), ()
    return (len(key[0]),), tuple(sorted(len(v) for _, v in key[1]))


def test_template_groups_partition_the_templates():
    # at a multi-index of every run pattern of orders 0..6, the groups have
    # distinct reads, and each stands for exactly ``count`` templates that
    # read what its representative reads, with the group's shape
    for kind in ("split", "partition", "compose"):
        for n in range(7):
            for runs in run_patterns(n):
                ms = tuple(x for x, length in enumerate(runs) for _ in range(length))
                want = Counter(template_reads(kind, ms))
                got = group_reads(kind, ms)
                assert Counter({key: count for _, count, key in got}) == want, (kind, runs)
                assert len(got) == len(want)
                assert all(shape == shape_of(kind, key) for shape, _, key in got)


def test_one_group_table_per_sorted_run_pattern():
    # permuted run patterns share the table of their sorted pattern: a cold
    # t at S=3, N=7 builds one per kind and partition of n = 1..7 into at
    # most three parts
    space = SpeciesSpace.uniform(3)
    f = [[Fraction(i + j - 3, 16) for j in range(3)] for i in range(3)]
    st = GCState(space, mayer=MayerMatrices.from_f(space, f, exact=True), N=7, allow_large=True)
    st.a_family
    # the plans kept across sweeps would serve the patterns without a table
    for cache in (_template_groups, _shapes, _scaled_groups):
        cache.cache_clear()
    st.t_family
    patterns = [runs for n in range(1, 8) for runs in run_patterns(n) if len(runs) <= 3]
    sorted_patterns = {tuple(sorted(runs)) for runs in patterns}
    assert (len(patterns), len(sorted_patterns)) == (63, 30)
    assert _template_groups.cache_info().currsize == 2 * 30  # compose and partition


def per_root(X):
    """Per root of a series or family, every canonical tail to its value and type."""
    tables = [{} for _ in range(X.roots)]
    for order in X.coeffs:
        for key, v in order.items():
            q, ms = key if X.rooted else (0, key)
            tables[q][ms] = (type(v), v)
    return tables


def termwise(size, orders, kind, outs, k, **tables):
    """``sweep_termwise`` on tables of ``per_root``, which it fills in kind."""
    def values(X):
        return [{ms: v for ms, (_, v) in t.items()} for t in X]

    plain = values(outs)
    sweep_termwise(size, orders, kind, plain, values(k), **{
        name: v if name == "f" else values(v) for name, v in tables.items()
    })
    return [{ms: (type(v), v) for ms, v in t.items()} for t in plain]


def test_kept_plans_serve_only_their_own_scale():
    # two states with the same run patterns and other denominators, swept
    # A, B, A: every sweep must read the plans of its own scale, kept from
    # an earlier sweep or not
    S, N = 2, 5
    r = random.Random(28)
    states = []
    for den, weights in ((16, [1, Fraction(1, 2)]), (7, [Fraction(1, 3), 2])):
        f = [[0] * S for _ in range(S)]
        for i in range(S):
            for j in range(i, S):
                f[i][j] = f[j][i] = Fraction(r.randint(-den, den // 2), den)
        space = SpeciesSpace.from_weights(weights)
        states.append(GCState(space, mayer=MayerMatrices.from_f(space, f, exact=True), N=N))
    ones = [1] * (N + 1)
    for st in (states[0], states[1], states[0]):
        A = st.a_family
        a = per_root(A)
        t = compute_tn(A)
        b, want = [{(): (int, 0)}] * S, [{(): (int, 1)}] * S
        for n in range(1, N + 1):
            b = termwise(S, (n,), "compose", b, a, sub=want)
            want = termwise(S, (n,), "partition", want, b, f=ones)
        assert per_root(t) == want
        E = exp_series(A)
        assert per_root(E) == termwise(S, range(1, N + 1), "partition", [{(): (int, 1)}] * S, a, f=ones)
        assert per_root(mul(t, A)) == termwise(S, range(N + 1), "split", [{}] * S, per_root(t), g=a)
        phi = per_root(st.phi_series)
        assert per_root(compose_measure(st.phi_series, E)) == termwise(
            S, range(1, N + 1), "compose", [{(): phi[0][()]}], phi, sub=per_root(E)
        )


def test_exact_sweeps_on_orders_with_many_reads():
    # at S = 3, N = 7 partition orders 6 and 7 and split order 7 each read
    # more than 4,096 multi-index x template entries.  Values against the
    # termwise oracle; types by the orders read, as the oracle adds to an
    # int 0 and so is no reference for them.
    S, N = 3, 7
    space = SpeciesSpace.from_weights([1, Fraction(1, 2), 2])
    f = [[Fraction(i + j - 3, 16) for j in range(S)] for i in range(S)]
    st = GCState(space, mayer=MayerMatrices.from_f(space, f, exact=True), N=N, allow_large=True)
    P = st.phi_series
    E = exp_series(P)
    L, prod = log_series(E), mul(P, E)
    p, e = ({ms: v for order in X.coeffs for ms, v in order.items()} for X in (P, E))
    want_E, want_L, want_prod = [{(): 1}], [{(): 0}], [{}]
    sweep_termwise(S, range(1, N + 1), "partition", want_E, [p], f=[1] * (N + 1))
    sweep_termwise(S, range(1, N + 1), "partition", want_L, want_L, f=[0, 0] + [1] * (N - 1), init=[e])
    sweep_termwise(S, range(N + 1), "split", want_prod, [p], g=[e])
    # exp and log read orders 1..n, the product orders 0..n
    for got, want, reads, low in ((E, want_E, [P], 1), (L, want_L, [E], 1), (prod, want_prod, [P, E], 0)):
        for n in range(low, N + 1):
            rule = int if all_int(*reads, orders=range(low, n + 1)) else Fraction
            for ms, v in got.coeffs[n].items():
                assert v == want[0][ms] and type(v) is rule, (n, ms)


@pytest.mark.parametrize("S, N", [(2, 6), (3, 5), (4, 4)])
def test_species_relabelling_permutes_the_families(S, N):
    # renaming the species permutes t, E and the extracted D with them: a
    # multi-index whose runs are not sorted by length reads its table at
    # the sorted pattern, with its runs relabelled
    entries = [-1, 0, 1, 2, Fraction(1, 3), Fraction(-7, 16), Fraction(5, 7)]
    for seed in range(2):
        r = random.Random(100 * S + seed)
        f = [[0] * S for _ in range(S)]
        for i in range(S):
            for j in range(i, S):
                f[i][j] = f[j][i] = r.choice(entries)
        weights = [r.choice([1, Fraction(1, 2), 3]) for _ in range(S)]
        perm = list(range(S))
        while perm == sorted(perm):
            r.shuffle(perm)

        def state(p):
            space = SpeciesSpace.from_weights([weights[p[i]] for i in range(S)])
            g = [[f[p[i]][p[j]] for j in range(S)] for i in range(S)]
            return GCState(space, mayer=MayerMatrices.from_f(space, g, exact=True), N=N)

        st, moved = state(range(S)), state(perm)
        for name, build in (("t", lambda x: x.t_family), ("E", lambda x: x.e_family), ("D", extract_d_from_a)):
            a, b = build(st).coeffs, build(moved).coeffs
            for n in range(N + 1):
                for (q, ms), v in b[n].items():
                    key = perm[q], tuple(sorted(perm[x] for x in ms))
                    assert repr(v) == repr(a[n][key]), (name, seed, n, q, ms)


def test_one_run_groups_count_every_template_to_order_ten():
    # one species: the groups of (n,) are found from the integer partitions
    # alone, and their counts add up to 2**n splits, Bell(n) partitions and
    # sum_k C(n, k) k**(n-k) compositions
    bell = [1]
    for n in range(10):
        bell.append(sum(math.comb(n, k) * bell[k] for k in range(n + 1)))
    for n in range(1, 11):
        count = {kind: sum(g[1] for g in _template_groups(kind, (n,))[1]) for kind in ("split", "partition", "compose")}
        assert count == {
            "split": 2**n,
            "partition": bell[n],
            "compose": sum(math.comb(n, k) * k ** (n - k) for k in range(1, n + 1)),
        }
    assert len(_template_groups("partition", (10,))[1]) == 42


def compose_walk(K, G, n, ms):
    """(K o G)_n at ms, template by template, in Fractions."""
    total = Fraction(0)
    for J, blocks in compose_templates(n):
        term = Fraction(K.value(len(J), [ms[j] for j in J]))
        for j, V in zip(J, blocks):
            term *= G.value(len(V), ms[j], [ms[v] for v in V])
        total += term
    return total


@pytest.mark.parametrize("S, N", [(1, 3), (1, 6), (2, 3), (2, 6)])
@settings(max_examples=6, deadline=None)
@given(data=hyp.data())
def test_exact_ops_to_order_six(S, N, data):
    # S = 1 has one run pattern per order; S = 2 meets every pattern of at
    # most two runs.  Values against the oracles, types by the orders read.
    space = SpeciesSpace.uniform(S)
    K, G = draw_series(data, space, N), draw_series(data, space, N)
    prod = mul(K, G)
    assert prod == multi_product([K, G])
    if N <= 3:
        dense = mul_dense(K, G)
        assert all(prod.value(n, xs) == v for n in range(N + 1) for xs, v in dense[n].items())
    for n in range(N + 1):
        assert all((type(v) is int) == all_int(K, G, orders=range(n + 1)) for v in prod.coeffs[n].values())

    K0 = draw_series(data, space, N, constant=0)
    E = exp_series(K0)
    assert log_series(E) == K0
    for n in range(1, N + 1):
        assert all((type(v) is int) == all_int(K0, orders=range(1, n + 1)) for v in E.coeffs[n].values())

    F = RootedSeriesFamily.from_function(
        space, N, lambda n, q, ms: data.draw(exact_value), allow_large=True
    )
    out = compose_measure(K, F)
    for n in range(1, N + 1):
        reads_int = all_int(K, orders=range(1, n + 1)) and all_int(F, orders=range(n))
        for ms, v in out.coeffs[n].items():
            assert v == compose_walk(K, F, n, ms)
            assert (type(v) is int) == reads_int
