"""Tests for the formal power series layer.

Single-species series coincide with exponential generating functions, so a
small independent EGF calculator (binomial convolutions and the standard
triangular recursions) serves as the oracle for products, exp, log,
composition, and differentiation.
"""

import hashlib
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp

from virialkit import errors
from virialkit.errors import CapabilityError, DomainError, StructureError
from virialkit.fps import (
    FormalSeries,
    RootedSeriesFamily,
    _majorant_sums,
    canonical_indices,
    compose_measure,
    compose_templates,
    compose_univariate,
    exp_series,
    left_sum,
    log_series,
    measure_sums,
    mul,
    _store,
    _sweep,
    set_partitions,
    subset_splits,
    sym_factor,
)
from virialkit.inversion import GCState, dissymmetry_check, extract_d_from_a
from virialkit.oracles import (
    dense_component,
    majorant_sums_termwise,
    measure_sums_termwise,
    mul_dense,
    multi_product,
    sweep_termwise,
    var_derivative,
)
from virialkit.species import MeasureVec, PairPotential, SpeciesSpace

from conftest import rational_state

BELL = [1, 1, 2, 5, 15, 52]

S1 = SpeciesSpace.uniform(1)
S2 = SpeciesSpace.uniform(2)


def rand_series(seed, space, N, unit_constant=False):
    r = random.Random(seed)

    def fn(n, ms):
        if n == 0:
            return Fraction(1) if unit_constant else Fraction(r.randint(-4, 4), 8)
        return Fraction(r.randint(-12, 12), 8)

    return FormalSeries.from_function(space, N, fn)


# ---------------------------------------------------------------------------
# independent EGF oracle (single species)


def egf_of(K):
    return [K.value(n, (0,) * n) for n in range(K.trunc + 1)]


def from_egf(a):
    return FormalSeries.from_function(S1, len(a) - 1, lambda n, ms: a[n])


def egf_mul(a, b):
    N = len(a) - 1
    return [sum(comb(n, k) * a[k] * b[n - k] for k in range(n + 1)) for n in range(N + 1)]


def egf_exp(a):
    assert a[0] == 0
    E = [Fraction(1)]
    for n in range(1, len(a)):
        E.append(sum(comb(n - 1, k) * a[k + 1] * E[n - 1 - k] for k in range(n)))
    return E


def egf_log(A):
    assert A[0] == 1
    L = [Fraction(0)] * len(A)
    for n in range(1, len(A)):
        L[n] = A[n] - sum(comb(n - 1, k) * L[k + 1] * A[n - 1 - k] for k in range(n - 1))
    return L


def egf_pow(a, m):
    out = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
    for _ in range(m):
        out = egf_mul(out, a)
    return out


def egf_compose(fc, a):
    assert a[0] == 0
    N = len(a) - 1
    out = [Fraction(0)] * (N + 1)
    for m in range(min(len(fc), N + 1)):
        pw = egf_pow(a, m)
        fac = Fraction(fc[m], math.factorial(m))
        for n in range(N + 1):
            out[n] += fac * pw[n]
    return out


# ---------------------------------------------------------------------------
# combinatorial groundwork


def test_sym_factor():
    assert sym_factor(()) == 1
    assert sym_factor((0, 1, 2)) == 1
    assert sym_factor((0, 0, 1)) == 2
    assert sym_factor((0, 0, 1, 1)) == 4
    assert sym_factor((0,) * 4) == 24


def test_set_partitions_bell_counts():
    for n in range(6):
        assert len(list(set_partitions(n))) == BELL[n]


def test_set_partitions_are_partitions():
    for part in set_partitions(4):
        flat = sorted(i for blk in part for i in blk)
        assert flat == [0, 1, 2, 3]
        assert all(len(blk) > 0 for blk in part)


def test_subset_splits_counts_and_complements():
    for n in range(5):
        splits = list(subset_splits(n))
        assert len(splits) == 2**n
        for J, rest in splits:
            assert sorted(J + rest) == list(range(n))


def brute_idempotent_count(n):
    cnt = 0
    for g in itertools.product(range(n), repeat=n):
        if all(g[g[i]] == g[i] for i in range(n)):
            cnt += 1
    return cnt


def test_compose_templates_counts():
    # templates are in bijection with idempotent maps [n] -> [n]
    for n in range(1, 6):
        assert len(compose_templates(n)) == brute_idempotent_count(n)
    assert [brute_idempotent_count(n) for n in range(1, 6)] == [1, 3, 10, 41, 196]


def test_canonical_indices():
    idx = list(canonical_indices(3, 2))
    assert len(idx) == comb(3 + 2 - 1, 2)
    assert all(tuple(sorted(ms)) == ms for ms in idx)
    assert len(set(idx)) == len(idx)
    assert list(canonical_indices(5, 0)) == [()]


# ---------------------------------------------------------------------------
# ring operations


def test_unit_is_multiplicative_identity():
    K = rand_series(7, S2, 3)
    one = FormalSeries.unit(S2, 3)
    assert mul(K, one) == K
    assert mul(one, K) == K


def test_mul_all_ones_gives_powers_of_two():
    K = FormalSeries.from_function(S1, 5, lambda n, ms: Fraction(1))
    P = mul(K, K)
    assert egf_of(P) == [2**n for n in range(6)]


def test_mul_commutative_and_associative():
    K = rand_series(1, S2, 3)
    G = rand_series(2, S2, 3)
    H = rand_series(3, S2, 3)
    assert mul(K, G) == mul(G, K)
    assert mul(mul(K, G), H) == mul(K, mul(G, H))


def test_add_sub_scale():
    K = rand_series(4, S2, 3)
    G = rand_series(5, S2, 3)
    assert (K + G) - G == K
    assert K.scale(Fraction(2)) == K + K
    assert (K + (-K)).max_abs_diff(FormalSeries.zero(S2, 3)) == 0


def test_multi_product_matches_folded_mul():
    K = rand_series(10, S2, 3)
    G = rand_series(11, S2, 3)
    H = rand_series(12, S2, 3)
    assert multi_product([K, G, H]) == mul(mul(K, G), H)
    assert multi_product([K, G]) == mul(K, G)
    assert multi_product([K]) == K
    one = FormalSeries.unit(S2, 3)
    assert multi_product([one, one, one]) == one
    with pytest.raises(DomainError):
        multi_product([])


def test_value_is_symmetric_in_positions():
    K = rand_series(13, S2, 3)
    assert K.value(2, (1, 0)) == K.value(2, (0, 1))
    assert K.value(3, (1, 0, 1)) == K.value(3, (1, 1, 0))


def test_max_abs_diff():
    K = rand_series(14, S2, 2)
    bump = FormalSeries.from_function(
        S2, 2, lambda n, ms: Fraction(1, 64) if n == 2 and ms == (0, 1) else Fraction(0)
    )
    assert K.max_abs_diff(K + bump) == Fraction(1, 64)


# ---------------------------------------------------------------------------
# composition, exp, log, differentiation


def test_compose_univariate_identity():
    K = rand_series(20, S2, 3)
    K0 = K - FormalSeries.from_function(S2, 3, lambda n, ms: K.constant() if n == 0 else 0)
    fc = [Fraction(0), Fraction(1), Fraction(0), Fraction(0)]
    assert compose_univariate(fc, K0) == K0


def test_compose_univariate_exp_route():
    K = rand_series(21, S2, 3, unit_constant=True)
    K0 = K - FormalSeries.unit(S2, 3)
    fc = [Fraction(1)] * 4
    assert compose_univariate(fc, K0) == exp_series(K0)


def test_compose_univariate_square():
    # F(t) = t^2 has EGF coefficients [0, 0, 2]
    K = rand_series(22, S2, 3, unit_constant=True)
    K0 = K - FormalSeries.unit(S2, 3)
    assert compose_univariate([Fraction(0), Fraction(0), Fraction(2)], K0) == mul(K0, K0)


def test_compose_univariate_needs_zero_constant():
    K = FormalSeries.unit(S2, 2)
    with pytest.raises(DomainError):
        compose_univariate([Fraction(0), Fraction(1)], K)


def test_exp_of_ones_gives_bell_numbers():
    K = FormalSeries.from_function(S1, 5, lambda n, ms: Fraction(0) if n == 0 else Fraction(1))
    assert egf_of(exp_series(K)) == BELL


def test_exp_of_linear_term():
    K = FormalSeries.from_function(S1, 5, lambda n, ms: Fraction(1) if n == 1 else Fraction(0))
    assert egf_of(exp_series(K)) == [1] * 6


def test_exp_is_additive():
    K = rand_series(23, S2, 3)
    G = rand_series(24, S2, 3)
    zero_const = lambda X: X - FormalSeries.from_function(
        S2, 3, lambda n, ms: X.constant() if n == 0 else 0
    )
    K0, G0 = zero_const(K), zero_const(G)
    assert exp_series(K0 + G0) == mul(exp_series(K0), exp_series(G0))


def test_log_inverts_exp():
    K = rand_series(25, S2, 3)
    K0 = K - FormalSeries.from_function(S2, 3, lambda n, ms: K.constant() if n == 0 else 0)
    assert log_series(exp_series(K0)) == K0
    a = [Fraction(0)] + [Fraction(i + 1, 3) for i in range(5)]
    assert egf_of(log_series(exp_series(from_egf(a)))) == a


def test_log_requires_unit_constant():
    K = FormalSeries.from_function(S2, 2, lambda n, ms: Fraction(2) if n == 0 else Fraction(1))
    with pytest.raises(DomainError):
        log_series(K)


def test_var_derivative_is_index_shift():
    a = [Fraction(n * n + 1, 3) for n in range(5)]
    d = var_derivative(from_egf(a), 0)
    assert egf_of(d) == a[1:]
    assert d.trunc == 3


def test_var_derivative_of_unit_is_zero():
    d = var_derivative(FormalSeries.unit(S2, 3), 0)
    assert d.max_abs_diff(FormalSeries.zero(S2, 2)) == 0


def test_var_derivative_leibniz():
    K = rand_series(26, S2, 3)
    G = rand_series(27, S2, 3)
    for q in range(2):
        lhs = var_derivative(mul(K, G), q)
        Km = FormalSeries.from_function(S2, 2, lambda n, ms: K.value(n, ms))
        Gm = FormalSeries.from_function(S2, 2, lambda n, ms: G.value(n, ms))
        rhs = mul(var_derivative(K, q), Gm) + mul(Km, var_derivative(G, q))
        assert lhs == rhs


def test_var_derivative_needs_positive_trunc():
    with pytest.raises(DomainError):
        var_derivative(FormalSeries.unit(S2, 0), 0)


def test_compose_measure_identity_and_zero():
    K = rand_series(28, S2, 3)
    ident = RootedSeriesFamily.from_function(
        S2, 3, lambda n, q, ms: Fraction(1) if n == 0 else Fraction(0)
    )
    assert compose_measure(K, ident).max_abs_diff(K) == 0
    zero_fam = RootedSeriesFamily.from_function(S2, 3, lambda n, q, ms: Fraction(0))
    collapsed = compose_measure(K, zero_fam)
    assert collapsed.constant() == K.constant()
    for n in range(1, 4):
        assert all(v == 0 for v in collapsed.coeffs[n].values())


def test_compose_measure_constant_scaling():
    # G(x; nu) = c multiplies the order-n coefficient by c^n
    K = rand_series(29, S2, 3)
    c = Fraction(3, 2)
    fam = RootedSeriesFamily.from_function(
        S2, 3, lambda n, q, ms: c if n == 0 else Fraction(0)
    )
    out = compose_measure(K, fam)
    for n in range(4):
        for ms, v in K.coeffs[n].items():
            assert out.coeffs[n][ms] == v * c**n


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_truncated_exponential():
    K = FormalSeries.from_function(S1, 4, lambda n, ms: Fraction(1))
    nu = MeasureVec.constant(S1, Fraction(1))
    assert K.evaluate(nu) == Fraction(65, 24)  # 1 + 1 + 1/2 + 1/6 + 1/24


def test_evaluate_uses_weights():
    space = SpeciesSpace.from_weights([2, 1])
    K = FormalSeries.from_function(space, 1, lambda n, ms: Fraction(1))
    nu = MeasureVec.constant(space, Fraction(1, 2))
    assert K.evaluate(nu) == 1 + Fraction(1, 2) * 2 + Fraction(1, 2) * 1


def test_evaluate_matches_dense_sum():
    K = rand_series(30, S2, 3)
    vals = (Fraction(1, 3), Fraction(-1, 5))
    nu = MeasureVec(S2, vals)
    total = Fraction(0)
    for n in range(4):
        for xs in itertools.product(range(2), repeat=n):
            prod = Fraction(1)
            for x in xs:
                prod *= vals[x]
            total += Fraction(K.value(n, xs), math.factorial(n)) * prod
    assert K.evaluate(nu) == total


# ---------------------------------------------------------------------------
# dense cross-check backend


def test_mul_dense_matches_canonical():
    K = rand_series(31, S2, 3)
    G = rand_series(32, S2, 3)
    ref = mul(K, G)
    dense = mul_dense(K, G)
    for n in range(4):
        for xs, v in dense[n].items():
            assert v == ref.value(n, xs)


def test_dense_backend_order_ceiling():
    K = rand_series(33, S2, 4)
    with pytest.raises(CapabilityError):
        mul_dense(K, K)
    with pytest.raises(CapabilityError):
        dense_component(K, 4)


# ---------------------------------------------------------------------------
# serialization and scale guards


def test_json_roundtrip_exact():
    K = rand_series(34, S2, 3)
    back = FormalSeries.from_json(K.to_json())
    assert back == K
    assert back.coeffs == K.coeffs  # Fractions, not floats
    assert back.space.weights == K.space.weights


def test_json_roundtrip_complex():
    K = FormalSeries.from_function(S2, 1, lambda n, ms: 0.5 + 0.25j if n else 1.0)
    back = FormalSeries.from_json(K.to_json())
    assert back.coeffs[1][(0,)] == 0.5 + 0.25j


def test_json_bad_scalars_are_domain_errors():
    doc = json.loads(rand_series(35, S2, 2).to_json())
    for bad in ("1/0", "x"):
        coeff = json.loads(json.dumps(doc))
        coeff["orders"]["1"][0]["value"] = bad
        with pytest.raises(DomainError):
            FormalSeries.from_json(json.dumps(coeff))
        weight = json.loads(json.dumps(doc))
        weight["weights"][1] = bad
        with pytest.raises(DomainError):
            FormalSeries.from_json(json.dumps(weight))
    pair = json.loads(json.dumps(doc))
    pair["orders"]["2"][1]["value"] = ["1/4", 0.5]
    assert FormalSeries.from_json(json.dumps(pair)).coeffs[2][(0, 1)] == 0.25 + 0.5j


def test_json_malformed_documents_are_structure_errors():
    doc = json.loads(rand_series(35, S2, 2).to_json())
    edits = [
        lambda d: d["orders"]["2"][0].update(idx=[1, 0]),  # unsorted
        lambda d: d["orders"]["1"][0].update(idx=[7]),  # no species 7
        lambda d: d["orders"]["1"][0].update(idx=[0, 1]),  # wrong length
        lambda d: d["orders"]["1"][0].update(idx=[True]),
        lambda d: d["orders"]["1"][0].pop("value"),
        lambda d: d["orders"]["1"].append(dict(d["orders"]["1"][0])),  # repeated idx
        lambda d: d["orders"].update({"3": []}),  # above trunc
        lambda d: d["orders"].update({"x": []}),
        lambda d: d.update(trunc="2"),
        lambda d: d.update(trunc=True),
        lambda d: d.update(trunc=-1),
        lambda d: d.update(weights="1/1"),
    ]
    for edit in edits:
        bad = json.loads(json.dumps(doc))
        edit(bad)
        with pytest.raises(StructureError):
            FormalSeries.from_json(json.dumps(bad))
    assert FormalSeries.from_json(json.dumps(doc)).to_json_dict() == doc


def test_desk_scale_guards():
    with pytest.raises(CapabilityError):
        FormalSeries.zero(S2, errors.DESK_MAX_ORDER + 1)
    with pytest.raises(CapabilityError):
        FormalSeries.zero(SpeciesSpace.uniform(errors.DESK_MAX_SPECIES + 1), 2)
    big = FormalSeries.zero(SpeciesSpace.uniform(13), 2, allow_large=True)
    assert big.space.size == 13


def test_from_function_checks_the_scale_first():
    calls = []

    def fn(n, *key):
        calls.append(n)
        return 0

    with pytest.raises(CapabilityError):
        FormalSeries.from_function(S2, errors.DESK_MAX_ORDER + 1, fn)
    with pytest.raises(CapabilityError):
        RootedSeriesFamily.from_function(SpeciesSpace.uniform(errors.DESK_MAX_SPECIES + 1), 2, fn)
    assert calls == []


@pytest.mark.parametrize(
    "value", [lambda n, ms: Fraction(n - sum(ms), 3), lambda n, ms: 0.5**n - sum(ms) / 3], ids=["exact", "float"]
)
def test_coeffs_is_a_read_only_view(value):
    # reading coeffs keeps the stored orders, and a kernel reads them as before
    K = FormalSeries.from_function(S2, 3, value)
    fam = RootedSeriesFamily.from_function(S2, 3, lambda n, q, ms: value(n, (q, *ms)))

    def bits(X):
        return [[_typed_bits(v) for v in comp.values()] for comp in X.coeffs]

    before = bits(mul(K, K)), bits(compose_measure(fam, fam))
    for X in (K, fam):
        orders = X._orders
        view = X.coeffs
        assert X._orders is orders and X.coeffs is view
        with pytest.raises(TypeError):
            view[1][next(iter(view[1]))] = 0
        with pytest.raises(TypeError):
            view[1] = {}
    assert (bits(mul(K, K)), bits(compose_measure(fam, fam))) == before


def test_max_order_env_override(monkeypatch):
    monkeypatch.setenv("VIRIALKIT_MAX_ORDER", "8")
    assert errors.max_order() == 8
    K = FormalSeries.zero(S1, 7)
    assert K.trunc == 7
    monkeypatch.setenv("VIRIALKIT_MAX_ORDER", "abc")
    with pytest.raises(DomainError):
        errors.max_order()
    monkeypatch.setenv("VIRIALKIT_MAX_ORDER", "0")
    with pytest.raises(DomainError):
        errors.max_order()


# ---------------------------------------------------------------------------
# rooted families


def test_rooted_family_basics():
    fam = RootedSeriesFamily.from_function(
        S2, 2, lambda n, q, ms: Fraction(q + len(ms) + sum(ms), 2)
    )
    assert fam.value(2, 0, (1, 0)) == fam.value(2, 0, (0, 1))
    root = fam.root_series(1)
    assert root.value(1, (0,)) == fam.value(1, 1, (0,))
    assert fam.max_abs_diff(fam) == 0


# ---------------------------------------------------------------------------
# randomized EGF oracle sweep


def test_egf_oracle_sweep():
    for seed in range(100):
        r = random.Random(seed)
        a = [Fraction(0)] + [Fraction(r.randint(-9, 9), 6) for _ in range(4)]
        b = [Fraction(r.randint(-9, 9), 6) for _ in range(5)]
        Ka, Kb = from_egf(a), from_egf(b)
        assert egf_of(mul(Ka, Kb)) == egf_mul(a, b)
        assert egf_of(exp_series(Ka)) == egf_exp(a)
        assert egf_of(log_series(exp_series(Ka))) == a
        assert egf_log(egf_exp(a)) == a
        fc = [Fraction(r.randint(-6, 6), 4) for _ in range(5)]
        assert egf_of(compose_univariate(fc, Ka)) == egf_compose(fc, a)
        assert egf_of(var_derivative(Kb, 0)) == b[1:]


# ---------------------------------------------------------------------------
# property-based checks

frac9 = hyp.builds(Fraction, hyp.integers(-9, 9), hyp.integers(1, 9))


@settings(max_examples=25, deadline=None)
@given(hyp.lists(frac9, min_size=4, max_size=4), hyp.lists(frac9, min_size=4, max_size=4))
def test_mul_commutes_property(xs, ys):
    K = from_egf([Fraction(1)] + xs)
    G = from_egf([Fraction(1)] + ys)
    assert mul(K, G) == mul(G, K)


@settings(max_examples=25, deadline=None)
@given(hyp.lists(frac9, min_size=4, max_size=4))
def test_exp_log_roundtrip_property(xs):
    a = [Fraction(0)] + xs
    K = from_egf(a)
    assert log_series(exp_series(K)) == K


# ---------------------------------------------------------------------------
# multiplicity factorials


def _sym_factor_slow(ms):
    out = 1
    for c in Counter(ms).values():
        out *= math.factorial(c)
    return out


def test_sym_factor_matches_multiplicity_factorials():
    for ms in [(0,), (0, 0), (0, 1), (0, 0, 0), (0, 0, 1, 1, 1), (1, 2, 2, 3, 3, 3)]:
        assert sym_factor(ms) == _sym_factor_slow(ms)
    for n in range(7):
        for ms in canonical_indices(3, n):
            assert sym_factor(ms) == _sym_factor_slow(ms)


# ---------------------------------------------------------------------------
# family operations act root by root


def float_state(seed, S, N):
    r = random.Random(seed)
    v = [[0.0] * S for _ in range(S)]
    for i in range(S):
        for j in range(i, S):
            v[i][j] = v[j][i] = round(r.uniform(-0.3, 1.5), 3)
    space = SpeciesSpace.from_weights([r.choice((0.5, 1.0, 1.5)) for _ in range(S)])
    return GCState(space, pot=PairPotential(space, 1.0, v), N=N)


@pytest.mark.parametrize("st", [rational_state(41, 3, 5), float_state(42, 6, 4)], ids=["exact", "float"])
def test_family_ops_equal_per_root_ops(st):
    A, t, E = st.a_family, st.t_family, st.e_family
    fc = [0, 1, Fraction(1, 2), -3, 2, Fraction(5, 7)] if st.exact else [0, 1, 0.5, -3.0, 2.0]
    products = mul(E, t)
    composed = compose_measure(t, E)
    exps = exp_series(A)
    composed_f = compose_univariate(fc, A)
    for q in range(st.space.size):
        E_q, t_q, A_q = (X.root_series(q) for X in (E, t, A))
        # == on floats: the family ops must reproduce every bit
        assert products.root_series(q) == mul(E_q, t_q)
        assert composed.root_series(q) == compose_measure(t_q, E)
        assert exps.root_series(q) == exp_series(A_q)
        assert composed_f.root_series(q) == compose_univariate(fc, A_q)


def test_mul_rejects_series_with_family():
    K = rand_series(50, S2, 2)
    fam = RootedSeriesFamily.from_function(S2, 2, lambda n, q, ms: Fraction(q))
    with pytest.raises(StructureError):
        mul(K, fam)
    with pytest.raises(DomainError):
        exp_series(fam)  # nonzero constant at root 1


# ---------------------------------------------------------------------------
# float and complex routes of the row kernel, pinned bit for bit


def _bits(v):
    return v.hex() if isinstance(v, float) else repr(v)


def _bits_digest(X):
    text = "\n".join(f"{key}:{_bits(v)}" for comp in X.coeffs for key, v in comp.items())
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_float_routes_golden():
    # recorded before exact sums moved to integer numerators: the float
    # route must keep every operation, and its order, of the template sums
    st = float_state(42, 6, 4)
    logs = log_series(st.e_family.root_series(2))
    composed = compose_univariate([0, 1, 0.5, -3.0, 2.0], st.a_family)
    d = extract_d_from_a(st)
    assert _bits_digest(logs) == "744c7808f31b87ca"
    assert _bits_digest(composed) == "02c1fa0dc07c66b3"
    assert _bits_digest(d) == "6b920919b895e0ff"
    assert logs.coeffs[4][(0, 2, 3, 5)].hex() == "0x1.74b9d2be8a004p-4"
    assert composed.coeffs[3][(1, (0, 4, 4))].hex() == "-0x1.3b8dc23dcb954p+0"
    assert d.coeffs[4][(5, (1, 1, 2, 3))].hex() == "0x1.a683e4daedd8cp-6"
    rep = dissymmetry_check(st)
    assert _bits(rep.max_abs) == "0x1.2000000000000p-48"
    assert {n: _bits(v) for n, v in rep.per_order.items()} == {
        2: "0x1.0000000000000p-53",
        3: "0x1.8000000000000p-51",
        4: "0x1.2000000000000p-48",
    }


def test_complex_routes_golden():
    # a spurious multiply by 1 would turn the -0 real parts below into +0
    vals = [-0.5, complex(-1.0, -0.0), 1, complex(-0.0, -1.5), complex(0.25, -0.0), complex(-0.0, 2.0)]
    K = FormalSeries.from_function(S2, 3, lambda n, ms: vals[(3 * n + sum(ms)) % 6] if n else 1)
    G = FormalSeries.from_function(S2, 3, lambda n, ms: vals[(n + 2 * sum(ms)) % 6] if n else 1)
    Gf = RootedSeriesFamily.from_function(S2, 3, lambda n, q, ms: vals[(n + q + sum(ms)) % 6])

    def reprs(X):
        return [repr(v) for comp in X.coeffs for v in comp.values()]

    assert reprs(mul(K, G)) == [
        "1", "(-1-1.5j)", "(0.25-1.5j)", "(0.5+3j)", "(-3.25+0j)",
        "(0.5-0.75j)", "(1.5-7.5j)", "(2.5+2j)", "(-1.875+5.75j)", "(-0.875-6j)",
    ]
    assert reprs(compose_measure(K, Gf)) == [
        "1", "0.75j", "(-0.25+0j)", "(-0.125+3j)", "(-0.25-1.5j)",
        "(1-0.75j)", "(-1.5-4.3125j)", "(-5.0625-0.375j)", "(0.125-2.875j)", "(0.5+10.5j)",
    ]
    assert reprs(log_series(K)) == [
        "0", "(-0-1.5j)", "(0.25-0j)", "(1.75+0j)", "(-1+0.375j)",
        "(0.9375+0j)", "(-0+3j)", "(-0.75-3j)", "(0.5+3.3125j)", "(-1.21875+0j)",
    ]


# ---------------------------------------------------------------------------
# the column kernel against the term-by-term walk, bit for bit and in type

PLAIN_VALUES = hyp.one_of(
    hyp.sampled_from([0, 0.0, -0.0, 0, 0.0, -1, 1, math.inf, -math.inf, math.nan]),
    hyp.floats(allow_nan=True, allow_infinity=True),
)
# nonzero finite floats: every lane of a template is live, save where a
# product under- or overflows
LIVE_VALUES = hyp.floats(allow_nan=False, allow_infinity=False).filter(bool)
WIDE_VALUES = hyp.one_of(
    PLAIN_VALUES,
    hyp.builds(complex, hyp.sampled_from([0.0, -0.0, 1.5, -2.0]), hyp.sampled_from([0.0, -0.0, 0.5, -1.0])),
    hyp.sampled_from([Fraction(1, 3), Fraction(-7, 2), 10**20, -(10**20) - 1, 2]),
)


def _typed_bits(v):
    """The type of a value and its bits: float.hex for floats and the parts
    of a complex, repr otherwise."""
    if type(v) is complex:
        return "complex", v.real.hex(), v.imag.hex()
    return type(v).__name__, v.hex() if type(v) is float else repr(v)


def _one_type(values):
    """The values of one order as a series stores them: all Fractions when
    they are ints and Fractions with one Fraction among them."""
    types = set(map(type, values))
    return [Fraction(v) for v in values] if Fraction in types and types <= {int, Fraction} else list(values)


def _layout_sweep(size, orders, kind, outs, k, **tables):
    """``_sweep`` on per-root tables of orders 0..max(orders), fed the way
    the series operations feed it: each table as its list of order
    layouts, and ``outs`` as the list it writes, which is ``k``'s own when
    ``k`` is ``outs``.  The orders written go back into ``outs``."""
    N = max(orders)

    def layouts(per_root):
        return [
            _store([t[ms] for t in per_root for ms in canonical_indices(size, m)], len(per_root))
            for m in range(N + 1)
        ]

    args = {name: v if name == "f" else layouts(v) for name, v in tables.items()}
    k_orders = layouts(k)
    out = k_orders if k is outs else [None] * (N + 1)
    _sweep(size, orders, kind, out, k_orders, **args)
    for n in orders:
        keys = list(canonical_indices(size, n))
        vals = out[n].values()
        for q, table in enumerate(outs):
            table.update(zip(keys, vals[q * len(keys):(q + 1) * len(keys)]))


def _swept(sweep, size, orders, kind, outs, k, **tables):
    outs = [dict(t) for t in outs]
    if k is None:
        k = outs  # the sweep reads what it writes
    if orders:
        sweep(size, orders, kind, outs, k, **tables)
    return [[(ms, _typed_bits(v)) for ms, v in out.items()] for out in outs]


@settings(max_examples=300, deadline=None)
@given(hyp.data())
def test_sweep_matches_termwise_walk(data):
    kind = data.draw(hyp.sampled_from(["split", "partition", "compose"]))
    size, N, roots = data.draw(hyp.integers(1, 3)), data.draw(hyp.integers(0, 4)), data.draw(hyp.integers(1, 3))
    # one palette per example, so the float64 dtype is reached as well as
    # the object one, and steps whose lanes are all live as well as masked
    values = data.draw(hyp.sampled_from([PLAIN_VALUES, WIDE_VALUES, LIVE_VALUES]))

    def tables(count):
        keys = [ms for m in range(N + 1) for ms in canonical_indices(size, m)]
        return [dict(zip(keys, data.draw(hyp.lists(values, min_size=len(keys), max_size=len(keys)))))
                for _ in range(count)]

    k = tables(roots)
    extra = {}
    if kind == "split":
        extra["g"] = tables(roots)
    elif kind == "partition":
        extra["f"] = data.draw(hyp.lists(values, min_size=N + 1, max_size=N + 1))
    else:
        extra["sub"] = tables(size)
    if data.draw(hyp.booleans()):
        extra["init"] = tables(roots)
    lo = data.draw(hyp.integers(0, 1))
    outs = [{} for _ in range(roots)]
    if data.draw(hyp.booleans()):
        # k is outs, as in log_series and extract_d_from_a: the sweep reads
        # the orders it has written, and at ms itself what outs held before
        outs, k = k, None
    read = [t for x in (k, extra.get("g"), extra.get("sub"), extra.get("init")) if x for t in x]
    if all(type(v) in (int, Fraction) for t in read for v in t.values()):
        (k or outs)[0][()] = 0.5  # the exact rule is tested in test_fps_exact.py
    # the walk reads every table as the sweep's layouts store it, one type
    # per order of ints and Fractions
    for per_root in (k or outs, *(v for name, v in extra.items() if name != "f")):
        for m in range(N + 1):
            keys = list(canonical_indices(size, m))
            vals = iter(_one_type([t[ms] for t in per_root for ms in keys]))
            for t in per_root:
                t.update(zip(keys, vals))
    args = size, range(lo, N + 1), kind, outs, k
    assert _swept(_layout_sweep, *args, **extra) == _swept(sweep_termwise, *args, **extra)


@pytest.mark.parametrize("kind", ["split", "partition", "compose"])
def test_sweep_matches_termwise_walk_when_a_product_underflows(kind):
    # every value is nonzero, so each template starts on all lanes; where a
    # product of 1e-200s underflows to 0 mid-template it stops multiplying,
    # and so never meets the inf of a tail of species 1 alone (0 * inf is
    # NaN)
    size, N = 2, 4
    keys = [ms for m in range(N + 1) for ms in canonical_indices(size, m)]

    def table():
        return {ms: math.inf if ms and set(ms) == {1} else 1e-200 for ms in keys}

    extra = {"split": {"g": [table(), table()]}, "partition": {"f": [1.0, -1.5, 2.0, 0.5, -3.0]},
             "compose": {"sub": [table(), table()]}}[kind]
    args = size, range(N + 1), kind, [{}, {}], [table(), table()]
    got = _swept(_layout_sweep, *args, **extra)
    assert got == _swept(sweep_termwise, *args, **extra)


def test_sweep_int_zero_has_no_sign():
    # -1 * 0 is the int 0, and -0.0 - 0 is -0.0; in plain float64 the term
    # would be -0.0 and the difference +0.0
    for sweep in (_layout_sweep, sweep_termwise):
        out = [{}]
        sweep(1, (1,), "partition", out, [{(): 0, (0,): 0}], f=[0, -1], init=[{(): 0, (0,): -0.0}])
        assert _typed_bits(out[0][(0,)]) == ("float", "-0x0.0p+0")
    # an int lane stays an int beside float lanes
    out = [{}, {}]
    _layout_sweep(2, (1,), "split", out, [{(): 1, (0,): 1, (1,): -1}, {(): 0.5, (0,): 1, (1,): 0}],
                  g=[{(): 1, (0,): 1, (1,): 1}] * 2)
    assert out == [{(0,): 2, (1,): 0}, {(0,): 1.5, (1,): 0.5}]
    assert [type(v) for o in out for v in o.values()] == [int, int, float, float]


EXACT_VALUES = hyp.one_of(
    hyp.integers(-3, 3),
    hyp.builds(Fraction, hyp.integers(-6, 6), hyp.sampled_from([1, 3, 16])),
)


@settings(max_examples=200, deadline=None)
@given(hyp.data())
def test_stored_orders_keep_values_and_types(data):
    # each order goes to its stored layout and back to the read-only view,
    # and scale acts on the stored orders, with the values and types of c * v;
    # an order of ints and Fractions holds one type, Fractions when any is one
    size, N = data.draw(hyp.integers(1, 3)), data.draw(hyp.integers(0, 3))
    values = data.draw(hyp.sampled_from([PLAIN_VALUES, WIDE_VALUES, EXACT_VALUES]))
    cls = data.draw(hyp.sampled_from([FormalSeries, RootedSeriesFamily]))
    drawn = [{} for _ in range(N + 1)]

    def draw(n, *key):
        v = drawn[n][key if cls.rooted else key[0]] = data.draw(values)
        return v

    X = cls.from_function(SpeciesSpace.uniform(size), N, draw)
    c = data.draw(hyp.one_of(values, hyp.sampled_from([2, -1, 0, Fraction(1, 2), Fraction(-3, 4), 0.5])))

    def bits(coeffs):
        return [[(key, _typed_bits(v)) for key, v in comp.items()] for comp in coeffs]

    def stored(coeffs):
        # an order of ints and Fractions holds Fractions when one value is one
        return [dict(zip(comp, _one_type(comp.values()))) for comp in coeffs]

    assert bits(X.coeffs) == bits(stored(drawn))
    assert bits(X.scale(c).coeffs) == bits(stored([{key: c * v for key, v in comp.items()} for comp in stored(drawn)]))


# ---------------------------------------------------------------------------
# sums against a measure: the column rules of ``measure_sums`` and
# ``_majorant_sums`` against their term-by-term loops, bit for bit and in
# type (repr tells an int 0 from 0.0, -0.0 from 0.0, and shows NaN)

SUM_FLOATS = hyp.one_of(
    hyp.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300, 1e-300, -1e-300, 5e-324, -2.5e-320]),
    hyp.floats(-4, 4),
)
# float measures reach the float64 lanes; ints, Fractions or a complex among
# them take the object lanes
SUM_MEASURES = {
    "float": SUM_FLOATS,
    "mixed": hyp.one_of(SUM_FLOATS, hyp.sampled_from([0, 1, -2, Fraction(1, 3), Fraction(-5, 7), 0.5 - 1j])),
}
SUM_WEIGHTS = hyp.sampled_from([1, 2, 0.5, 1.5, 1e-300, 1e300, Fraction(1, 3), Fraction(7, 2)])
# float64 columns with int lanes, object columns (complex, Fractions and
# large ints among floats) and exact orders
SUM_COEFFS = {
    "plain": hyp.one_of(SUM_FLOATS, hyp.sampled_from([0, 1, -1])),
    "wide": hyp.one_of(SUM_FLOATS, WIDE_VALUES),
    "exact": EXACT_VALUES,
}


def _draw_sum_inputs(data, rooted):
    """A series or family whose chosen roots and orders hold only the int 0,
    over drawn weights, and a measure on its species."""
    size, N = data.draw(hyp.integers(1, 4)), data.draw(hyp.integers(0, 4))
    coeffs = SUM_COEFFS[data.draw(hyp.sampled_from(sorted(SUM_COEFFS)))]
    zero_roots = data.draw(hyp.sets(hyp.integers(0, size - 1)))
    zero_orders = data.draw(hyp.sets(hyp.integers(0, N)))

    def coeff(n, q=0):
        return 0 if q in zero_roots or n in zero_orders else data.draw(coeffs)

    space = SpeciesSpace.from_weights([data.draw(SUM_WEIGHTS) for _ in range(size)])
    if rooted:
        K = RootedSeriesFamily.from_function(space, N, lambda n, q, ms: coeff(n, q), allow_large=True)
    else:
        K = FormalSeries.from_function(space, N, lambda n, ms: coeff(n), allow_large=True)
    measure = SUM_MEASURES[data.draw(hyp.sampled_from(sorted(SUM_MEASURES)))]
    return K, tuple(data.draw(measure) for _ in range(size))


@settings(max_examples=300, deadline=None)
@given(hyp.data())
def test_measure_sums_column_rule_matches_termwise(data):
    K, vals = _draw_sum_inputs(data, data.draw(hyp.booleans()))
    start = data.draw(hyp.integers(0, 2))
    assert repr(measure_sums(K, vals, start)) == repr(measure_sums_termwise(K, vals, start))


@settings(max_examples=200, deadline=None)
@given(hyp.data())
def test_majorant_sums_column_rule_matches_termwise(data):
    G, nu = _draw_sum_inputs(data, True)
    start = data.draw(hyp.integers(0, 2))
    assert repr(_majorant_sums(G, nu, start)) == repr(majorant_sums_termwise(G, nu, start))


def test_sums_against_a_measure_add_in_storage_order():
    # many random terms per root, where a pairwise or compensated sum moves
    # the last bits: the sums must add left to right as the loops do
    rng = random.Random(24)
    space = SpeciesSpace.from_weights([rng.choice((0.5, 1.0, 1.5)) for _ in range(4)])
    for exact in (False, True):

        def coeff(n, q, ms):
            if exact:
                return Fraction(rng.randint(-50, 50), rng.randint(1, 9))
            return rng.uniform(-1, 1) * 10.0 ** rng.randint(-3, 3)

        G = RootedSeriesFamily.from_function(space, 4, coeff)
        nu = tuple(rng.uniform(0.05, 0.9) for _ in range(4))
        # Fractions over float weights take the object lanes
        nu_exact = tuple(Fraction(rng.randint(1, 9), rng.randint(10, 20)) for _ in range(4))
        for start in (0, 1, 2):
            for vals in (nu, nu_exact):
                assert repr(measure_sums(G, vals, start)) == repr(measure_sums_termwise(G, vals, start))
            assert repr(_majorant_sums(G, nu, start)) == repr(majorant_sums_termwise(G, nu, start))
    # an int 0 root stays the int 0 beside float roots; an exact order 0
    # alone stays exact
    G = RootedSeriesFamily.from_function(space, 2, lambda n, q, ms: (0 if q else 0.5) if n else Fraction(q, 2))
    assert measure_sums(G, nu, 1)[1:] == [0, 0, 0] and type(measure_sums(G, nu, 1)[1]) is int
    assert measure_sums(G, nu)[1:] == [Fraction(1, 2), Fraction(1), Fraction(3, 2)]


def test_left_sum_keeps_the_sequential_bits():
    # the terms of two check_Sb margins: a compensated sum (math.fsum here,
    # the built-in sum from Python 3.12 on) moves the last bit of each
    terms = [
        ["0x1.957e92566463fp-2", "0x1.aabd240368247p-4", "0x1.05d5a7d6d8ba9p-5", "0x1.524cb25dfc5a0p-7"],
        ["0x1.12a006af9e8eep-1", "0x1.10e948554ee25p-3", "0x1.326d4ac10b1f6p-5", "0x1.699a8b9c8889ap-7"],
    ]
    want = ["0x1.1d75b840ae7fap-1", "0x1.871737277c2f8p-2"]
    compensated = ["0x1.1d75b840ae7fbp-1", "0x1.871737277c2f6p-2"]
    for hexes, w, c in zip(terms, want, compensated):
        xs = [float.fromhex(h) for h in hexes]
        assert (1.1 - left_sum(xs)).hex() == w
        assert (1.1 - math.fsum(xs)).hex() == c
    assert left_sum([]) == 0 and type(left_sum([])) is int
    assert left_sum([-0.0]).hex() == "0x0.0p+0"  # 0 + -0.0, as sum gives
    assert left_sum([Fraction(1, 3), 1], Fraction(0)) == Fraction(4, 3)
