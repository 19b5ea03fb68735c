"""Tests for density-activity inversion, exact reference sums, certificates.

The heavy identities run in exact rational mode where every residual must be
literally zero.  Numeric routes (hard rods on a ring against the closed-form
equation of state, the Legendre pairing of free energy and pressure) carry
explicit tolerances tied to the truncation order.
"""

import ast
import json
import math
import random
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp

from virialkit import graphs
from virialkit import inversion as inv
from virialkit.cli import _random_state, fixture_text
from virialkit.errors import CapabilityError, DomainError, StructureError
from virialkit.fps import _Columns, _store, canonical_indices, exp_series
from virialkit.graphs import pair_order
from virialkit.homogeneous import grid_beta, ring_mayer, tonks_oracle
from virialkit.inversion import (
    GCState,
    check_PU,
    check_Sab,
    check_Sb,
    check_virMb,
    density_exact,
    dissymmetry_check,
    extract_d_from_a,
    free_energy,
    log_xi_series,
    pressure_of_nu,
    rho_of_z,
    roundtrip_check,
    run_request,
    xi_exact,
    zeta_of_nu,
    zeta_path_agreement,
)
from virialkit.oracles import chordal_d, hard_core_series, var_derivative
from virialkit.species import (
    MayerMatrices,
    MeasureVec,
    PairPotential,
    SpeciesSpace,
    load_species_json,
)
from virialkit.treefp import eval_T_abs

from conftest import rational_state

S2 = SpeciesSpace.uniform(2)
MIX_F = [[Fraction(-1), Fraction(-1, 2)], [Fraction(-1, 2), Fraction(0)]]


def mix_state(N=4):
    return GCState.from_f(S2, MIX_F, N=N, exact=True)


def hard_state(N=5):
    space = SpeciesSpace.uniform(1)
    return GCState.from_f(space, [[Fraction(-1)]], N=N, exact=True)


def free_state(N=4):
    return GCState.from_f(S2, [[Fraction(0)] * 2] * 2, N=N, exact=True)


def log_coeffs(by_order, n_max):
    """Taylor coefficients of log(Xi) from those of Xi, by the standard
    univariate recursion n*L_n = n*A_n - sum k*L_k*A_(n-k)."""
    A = [Fraction(1)] + [Fraction(c) for c in by_order[1 : n_max + 1]]
    L = [Fraction(0)] * (n_max + 1)
    for n in range(1, n_max + 1):
        acc = n * A[n]
        for k in range(1, n):
            acc -= k * L[k] * A[n - k]
        L[n] = acc / n
    return L


def phi_order_sums(st, z, n_max):
    """Order-n cluster sums (1/n!) sum over tuples of phi_n prod z w."""
    out = [Fraction(0)] * (n_max + 1)
    w = st.space.weights
    from virialkit.fps import sym_factor

    for n in range(1, n_max + 1):
        acc = Fraction(0)
        for ms, v in st.phi_series.coeffs[n].items():
            if v == 0:
                continue
            term = v
            for x in ms:
                term = term * z[x] * w[x]
            acc += Fraction(term, sym_factor(ms))
        out[n] = acc
    return out


# ---------------------------------------------------------------------------
# state construction


def test_gcstate_validation():
    with pytest.raises(StructureError):
        GCState(S2)
    st = mix_state()
    with pytest.raises(StructureError):
        GCState(SpeciesSpace.uniform(3), mayer=st.mayer)


def test_maps_refuse_a_measure_of_the_wrong_length():
    st = mix_state(N=3)
    calls = [
        inv.rho_of_z, inv.zeta_of_nu, inv.log_xi_series, inv.pressure_of_nu,
        inv.free_energy, inv.check_PU, inv.check_Sb, inv.check_Sab, inv.check_virMb,
        lambda st, nu: inv.free_energy(st, [Fraction(1, 10)] * 2, m=nu),
    ]
    for nu in ([Fraction(1, 10)], [Fraction(1, 10)] * 3):
        for call in calls:
            with pytest.raises(StructureError, match="measure length"):
                call(st, nu)


def test_gcstate_from_potential_roundtrip():
    space, pot = load_species_json(fixture_text("hardcore_pair.json"))
    st = GCState(pot.space, pot=pot, N=3)
    assert st.exact  # hard-core energies go rational automatically
    assert st.mayer.f[0][0] == -1 and st.mayer.f[1][1] == 0
    assert st.beta_B == (0, 0)


def test_gcstate_caches_families():
    st = mix_state()
    assert st.a_family is st.a_family
    assert st.d_family is st.d_family
    assert st.phi_series is st.phi_series
    # the D tail series is built once per factor tuple: c_n D_n on each full
    # tuple, D_n read from the family at order n - 1 rooted at its first entry
    factors = tuple(range(1, st.N))
    tail = st.d_tail(factors)
    assert st.d_tail(factors) is tail and st.d_tail((1,) * (st.N - 1)) is not tail
    for n in range(2, st.N + 1):
        for ms, v in tail.coeffs[n].items():
            assert v == (n - 1) * st.d_family.value(n - 1, ms[0], ms[1:])
    assert all(v == 0 for n in (0, 1) for v in tail.coeffs[n].values())


# ---------------------------------------------------------------------------
# the families in the f-keyed memo

FAMILIES = ("a_family", "t_family", "d_family", "phi_series", "e_family")


def family_keys(memo):
    """The keys of the families the memo keeps, least recently read first."""
    return list(memo._entries)


def memo_free(st):
    """Each family of the state, built without the memo."""
    A = inv.build_A_family(st.space, st.mayer, st.N, allow_large=True)
    return {
        "a_family": A,
        "t_family": inv.compute_tn(A),
        "d_family": inv.build_D_family(st.space, st.mayer, st.N, allow_large=True),
        "phi_series": inv.build_phi_series(st.space, st.mayer, st.N, allow_large=True),
        "e_family": inv.exp_family(A),
    }


def typed(fam):
    return [{key: (v, type(v)) for key, v in order.items()} for order in fam.coeffs]


def hard_core_state(S, N, seed):
    """A seeded hard-core state of ints: f = -1 on the diagonal and on a
    random set of pairs, 0 elsewhere."""
    r = random.Random(seed)
    f = [[-1 if i == j else 0 for j in range(S)] for i in range(S)]
    for i in range(S):
        for j in range(i + 1, S):
            if r.random() < 0.5:
                f[i][j] = f[j][i] = -1
    space = SpeciesSpace.from_weights([r.randint(1, 2) for _ in range(S)])
    return GCState.from_f(space, f, N=N, exact=True)


@pytest.mark.parametrize(
    "make", [lambda: hard_core_state(4, 4, 3), lambda: rational_state(7, 3, 4), lambda: mix_state(N=5)],
    ids=["hard_core", "rational", "mix"],
)
def test_family_memo_hit_equals_a_memo_free_build(fresh_memo, make):
    first = make()
    for name in FAMILIES:
        getattr(first, name)
    assert len(family_keys(fresh_memo)) == len(FAMILIES)
    st = make()
    want = memo_free(st)
    for name in FAMILIES:
        fam = getattr(st, name)
        # a hit shares the stored layouts, never the list that holds them
        assert fam.space is st.space and fam._orders is not getattr(first, name)._orders
        assert all(x is y for x, y in zip(fam._orders, getattr(first, name)._orders))
        assert fam == want[name] and typed(fam) == typed(want[name])
    assert len(family_keys(fresh_memo)) == len(FAMILIES)


def test_family_memo_keeps_each_states_weights(fresh_memo, monkeypatch):
    # the same f under two weightings: each reads the other's families and
    # still sums them against its own weights; A keeps the phi it reads
    f = [[Fraction(-1), Fraction(-1, 2), 0], [Fraction(-1, 2), 0, Fraction(1, 4)], [0, Fraction(1, 4), -1]]
    spaces = [SpeciesSpace.from_weights(w) for w in ([1, 1, 1], [Fraction(1, 2), 2, 3])]
    z = [Fraction(1, 10), Fraction(1, 20), Fraction(1, 7)]
    hits = [rho_of_z(GCState.from_f(space, f, N=4), z) for space in spaces]
    assert [key[0] for key in family_keys(fresh_memo)] == ["phi", "A"]
    monkeypatch.setattr(inv, "_MEMO", inv._Memo(0))
    cold = [rho_of_z(GCState.from_f(space, f, N=4), z) for space in spaces]
    assert len(inv._MEMO._entries) == 0
    assert cold[0] != cold[1]
    for hit, want in zip(hits, cold):
        assert [(v, type(v)) for v in hit] == [(v, type(v)) for v in want]


def test_family_memo_skips_float_and_mixed_matrices(fresh_memo):
    f = [[-1, Fraction(-1, 2)], [Fraction(-1, 2), 0]]
    states = [
        soft_state(2024, 3, 3),
        GCState.from_f(S2, [[-1, -1], [-1, 0]], N=3, exact=False),
        GCState(S2, mayer=MayerMatrices(S2, [[-1, -0.5], f[1]], [[1, 0.5], [0.5, 0]], exact=False), N=3),
    ]
    for st in states + [GCState(st.space, mayer=st.mayer, N=3) for st in states]:
        for name in FAMILIES:
            getattr(st, name)
        for call, _ in RESULTS.values():
            call(st)
    assert len(fresh_memo._entries) == 0 and fresh_memo.size == 0


def test_family_memo_keeps_int_and_fraction_apart(fresh_memo):
    for entry in (-1, Fraction(-1), -1, Fraction(-1)):
        st = GCState.from_f(S2, [[entry, entry], [entry, entry]], N=3)
        for fam in (st.a_family, st.phi_series):
            assert {type(v) for v in fam.coeffs[2].values()} == {type(entry)}
    assert len(family_keys(fresh_memo)) == 4


def test_family_memo_is_bounded(monkeypatch):
    # A at S = 2, N = 1 holds 2 * (1 + 2) = 6 coefficients, and the phi it
    # reads, kept first, 3
    memo = inv._Memo(14)
    monkeypatch.setattr(inv, "_MEMO", memo)
    states = [GCState.from_f(S2, [[Fraction(-k, 8), 0], [0, -1]], N=1) for k in range(1, 5)]
    for st in states:
        assert st.a_family == inv.build_A_family(S2, st.mayer, 1)
        assert memo.size <= 14
    assert memo.size == 9 and [key[0] for key in memo._entries] == ["phi", "A"]
    # the least recently read family goes first: the last state's phi is read
    # again, so its A goes when two more phi series come in
    last_a = list(memo._entries)[1]
    for k in (3, 0, 1):
        GCState(S2, mayer=states[k].mayer, N=1).phi_series
    assert memo.size == 9 and len(memo._entries) == 3 and last_a not in memo._entries
    assert [key[0] for key in memo._entries] == ["phi", "phi", "phi"]
    # a family larger than the bound is not kept, nor a phi that is
    big = GCState.from_f(SpeciesSpace.uniform(4), [[Fraction(-1, 3)] * 4] * 4, N=2)
    assert big.a_family == inv.build_A_family(big.space, big.mayer, 2)
    assert memo.size == 9 and len(memo._entries) == 3


def test_request_bytes_cold_and_on_a_hit(monkeypatch):
    nu = ["1/20", "1/30"]
    reqs = [
        request("rho_of_z", N=4, z=["1/10", "1/8"]),
        request("zeta_of_nu", N=4, nu=nu, path="tree"),
        request("zeta_of_nu", N=4, nu=nu),
        request("log_xi_series", N=4, z=nu),
        request("pressure", N=4, nu=nu),
        request("free_energy", N=4, nu=nu),
        request("check_Sb", N=4, nu=nu),
        request("roundtrip", N=4),
        request("dissymmetry", N=4),
        request("zeta_paths", N=4),
    ]
    for req in reqs:
        memo = inv._Memo(inv.MEMO_BOUND)
        monkeypatch.setattr(inv, "_MEMO", memo)
        cold = json.dumps(run_request(req))
        assert family_keys(memo)
        assert json.dumps(run_request(req)) == cold


PERFBENCH_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def harness_requests():
    """The 40 requests of a ``requests_exact`` cycle at variant 0: its 35
    value slots and 5 boundary slots, from the harness's own definitions,
    compiled from its source so that nothing is written under perfbench/."""
    names = {
        "REQUEST_SLOTS", "MATRIX_PATTERN", "MEASURE_KEY", "README_DOC", "BOUNDARY_SLOTS",
        "line_doc", "matrix_doc", "activities", "request_for", "boundary_request",
    }
    nodes = [
        node for node in ast.parse(PERFBENCH_WORKLOADS.read_text()).body
        if (isinstance(node, ast.FunctionDef) and node.name in names)
        or (isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in names)
    ]
    scope = {"random": random, "json": json, "Fraction": Fraction}
    exec(compile(ast.Module(nodes, []), str(PERFBENCH_WORKLOADS), "exec"), scope)
    slots = [scope["request_for"](i, 0) for i in range(len(scope["REQUEST_SLOTS"]))]
    return slots + [scope["boundary_request"](name, 0)[0] for name in scope["BOUNDARY_SLOTS"]]


def test_harness_request_bytes_cold_and_warm(monkeypatch):
    # every request alone on an empty memo, then all of them twice on one
    # memo, the second time read from what the first kept
    def outcome(req):
        try:
            return json.dumps(run_request(req))
        except (StructureError, DomainError) as exc:
            return f"{type(exc).__name__}: {exc}"

    reqs = harness_requests()
    assert len(reqs) == 40
    cold = []
    for req in reqs:
        monkeypatch.setattr(inv, "_MEMO", inv._Memo(inv.MEMO_BOUND))
        cold.append(outcome(req))
    memo = inv._Memo(inv.MEMO_BOUND)
    monkeypatch.setattr(inv, "_MEMO", memo)
    for req in reqs:
        outcome(req)
    assert {key[0] for key in memo._entries} >= {"roundtrip", "zeta_path_agreement", "dissymmetry", "D tail"}
    assert [outcome(req) for req in reqs] == cold


def test_family_memo_under_threads(monkeypatch):
    # more threads than cores read the families of four matrices from a memo
    # that holds about one state's A (20 coefficients) and phi (10); a lost
    # update would break its size
    memo = inv._Memo(40)
    monkeypatch.setattr(inv, "_MEMO", memo)
    mayers = [MayerMatrices.from_f(S2, [[Fraction(-k, 8), 0], [0, -1]], exact=True) for k in range(1, 5)]
    want = [inv.build_A_family(S2, m, 3) for m in mayers]
    errors = []

    def reader(seed):
        r = random.Random(seed)
        try:
            for _ in range(200):
                k = r.randrange(4)
                if GCState(S2, mayer=mayers[k], N=3).a_family != want[k]:
                    errors.append(k)
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    assert memo.size == sum(size for _, size in memo._entries.values()) <= 40


# ---------------------------------------------------------------------------
# the results of f kept in the memo next to the families

# result -> (its call on a state, the state values its builder reads)
RESULTS = {
    "a_family": (lambda st: st.a_family, ("phi_series",)),
    "t_family": (lambda st: st.t_family, ("a_family",)),
    "e_family": (lambda st: st.e_family, ("a_family",)),
    "roundtrip": (roundtrip_check, ("t_family", "e_family")),
    "zeta_paths": (zeta_path_agreement, ("t_family", "d_family")),
    "dissymmetry": (dissymmetry_check, ("phi_series",)),
    "d_tail": (lambda st: st.d_tail(tuple(range(1, st.N))), ("d_family",)),
}
RESULT_STATES = {"mix": mix_state, "rational": lambda N: rational_state(7, 3, N)}


def typed_result(res):
    """A report's to_dict() with the types of max_abs and of every per-order
    value, or a series' typed coefficients."""
    if isinstance(res, inv.ResidualReport):
        return res.to_dict(), type(res.max_abs), {n: type(v) for n, v in res.per_order.items()}
    return typed(res)


@pytest.fixture
def builds(monkeypatch):
    """The builds of a kept result, one entry per call of its builder."""
    out = []
    for name in ("residual_report", "_dissymmetry", "_full_tuple_d", "build_A_family", "compute_tn", "exp_family"):
        real = getattr(inv, name)
        monkeypatch.setattr(inv, name, lambda *a, real=real, name=name, **k: out.append(name) or real(*a, **k))
    return out


@pytest.mark.parametrize("state", RESULT_STATES)
@pytest.mark.parametrize("result", RESULTS)
@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_kept_result_equals_a_fresh_build(fresh_memo, monkeypatch, builds, result, state, N):
    call, _ = RESULTS[result]
    make = RESULT_STATES[state]
    first = call(make(N))
    kept = len(fresh_memo._entries)
    del builds[:]
    hit = call(make(N))
    assert builds == [] and len(fresh_memo._entries) == kept
    monkeypatch.setattr(inv, "_MEMO", inv._Memo(inv.MEMO_BOUND))
    want = call(make(N))
    assert builds and hit is not first
    assert typed_result(hit) == typed_result(want) == typed_result(first)
    if not isinstance(hit, inv.ResidualReport):
        assert all(x is y for x, y in zip(hit._orders, first._orders)) and hit._orders is not first._orders
    else:
        assert hit.to_dict()["max_abs"] == 0 and hit.exact


def replaced(make, name):
    """A state of ``make(4)`` whose value ``name`` is replaced by twice it."""
    st = make(4)
    st.__dict__[name] = getattr(st, name).scale(2)
    return st


@pytest.mark.parametrize("state", RESULT_STATES)
@pytest.mark.parametrize("result", RESULTS)
def test_kept_result_is_not_served_to_a_replaced_family(fresh_memo, monkeypatch, builds, result, state):
    call, reads = RESULTS[result]
    make = RESULT_STATES[state]
    kept = call(make(4))
    for name in reads:
        st = replaced(make, name)
        entries, size = set(fresh_memo._entries), fresh_memo.size
        del builds[:]
        got = call(st)
        # built from the replaced value, and not kept
        assert builds and set(fresh_memo._entries) == entries and fresh_memo.size == size
        if isinstance(got, inv.ResidualReport):
            assert got.max_abs != 0 and not got.exact
        # a third, untouched state still gets the kept result
        del builds[:]
        again = call(make(4))
        assert builds == [] and typed_result(again) == typed_result(kept)
        with monkeypatch.context() as m:
            m.setattr(inv, "_MEMO", inv._Memo(0))
            want, clean = call(replaced(make, name)), call(make(4))
        assert typed_result(got) == typed_result(want) != typed_result(clean) == typed_result(again)


def test_a_replaced_family_reaches_no_clean_state(fresh_memo):
    # exp(-A) read on a state whose A was replaced is that state's own: a
    # clean state of the same f still reads the exact round trip
    f = [[-1, Fraction(-1, 3)], [Fraction(-1, 3), 0]]
    st = GCState.from_f(S2, f, N=3)
    st.__dict__["a_family"] = st.a_family.scale(2)
    st.e_family
    rep = roundtrip_check(GCState.from_f(S2, f, N=3))
    assert rep.max_abs == 0 and rep.exact


def test_a_replaced_phi_keeps_nothing_built_from_it(fresh_memo):
    # A reads phi, and t, exp(-A) and the round trip read A: none is kept
    st = mix_state(4)
    st.__dict__["phi_series"] = st.phi_series.scale(2)
    entries, size = family_keys(fresh_memo), fresh_memo.size
    assert [key[0] for key in entries] == ["phi"]
    roundtrip_check(st)
    assert family_keys(fresh_memo) == entries and fresh_memo.size == size
    assert st.a_family == inv.build_A_family(st.space, st.mayer, 4, st.phi_series, allow_large=True)


def test_a_state_holds_one_given_value_per_key(fresh_memo):
    # each hit serves a fresh report; the state keeps only the last one
    st = mix_state(4)
    roundtrip_check(st)
    held = len(st._given)
    for _ in range(3):
        roundtrip_check(st)
    assert len(st._given) == held


def test_kept_report_is_a_fresh_report_on_each_hit(fresh_memo):
    st = mix_state(4)
    rep = roundtrip_check(st)
    want = rep.to_dict()
    rep.per_order[0] = Fraction(1, 3)
    hit = roundtrip_check(mix_state(4))
    assert hit.to_dict() == want
    hit.per_order.clear()
    hit.max_abs = 1
    assert roundtrip_check(mix_state(4)).to_dict() == want


def test_kept_results_count_toward_the_bound(monkeypatch):
    # at S = 2, N = 2 a rooted family holds 2 * (1 + 2 + 3) = 12
    # coefficients and phi 6; the roundtrip report keeps 1 + 3 values, its
    # max_abs and one per order 0..2
    memo = inv._Memo(6 + 3 * 12 + 4)
    monkeypatch.setattr(inv, "_MEMO", memo)
    rep = roundtrip_check(mix_state(2))
    key = ("roundtrip", 2, mix_state(2)._family_key)
    assert [k[0] for k in memo._entries] == ["phi", "A", "t", "exp(-A)", "roundtrip"]
    assert memo._entries[key][1] == 1 + len(rep.per_order) == 4
    assert memo.size == memo.bound
    # read every family again, so that the report is the least recently read
    st = mix_state(2)
    for name in ("a_family", "phi_series", "t_family", "e_family"):
        getattr(st, name)
    assert next(iter(memo._entries)) == key
    # the order-1 D that dissymmetry reads (2 * (1 + 2) = 6) pushes out the
    # report, then phi, which A read just before itself; its own report
    # keeps 1 + 1 values
    dissymmetry_check(st, N=2)
    assert key not in memo._entries
    assert [k[0] for k in memo._entries] == ["A", "t", "exp(-A)", "D", "dissymmetry"]
    assert memo.size == sum(size for _, size in memo._entries.values()) == 3 * 12 + 6 + 2 == 44
    assert roundtrip_check(mix_state(2)).to_dict() == rep.to_dict()


# ---------------------------------------------------------------------------
# exact series identities


def test_roundtrip_exact_on_random_states():
    for seed in (0, 1):
        st = _random_state(seed)
        rep = roundtrip_check(st)
        assert rep.exact and rep.max_abs == 0


def test_roundtrip_exact_hard_core_and_free():
    assert roundtrip_check(hard_state()).max_abs == 0
    assert roundtrip_check(free_state()).max_abs == 0


def test_zeta_path_agreement_exact():
    for st in (mix_state(), hard_state(4), _random_state(2)):
        rep = zeta_path_agreement(st)
        assert rep.exact and rep.max_abs == 0


def test_extract_d_from_a_equals_direct_build():
    for st in (mix_state(), _random_state(3), rational_state(7, 3, 5)):
        assert extract_d_from_a(st) == st.d_family


def chordal_hard_core(data, S):
    """A drawn hard-core matrix on S species whose graph of overlaps is
    chordal: the species join in a drawn order, each overlapping itself, a
    drawn earlier species u and a drawn subset of u's earlier neighbours,
    which with u form a clique, so that the join order reversed eliminates
    each species with a clique of neighbours.  Each entry -1 or 0 is an int
    or a Fraction, by a drawn rule per matrix."""
    order = data.draw(hyp.permutations(range(S)))
    earlier = [[]]
    for k in range(1, S):
        u = data.draw(hyp.integers(0, k - 1))
        earlier.append([u, *(x for x in earlier[u] if data.draw(hyp.booleans()))])
    kind = data.draw(hyp.sampled_from(["int", "fraction", "mixed"]))
    f = [[0] * S for _ in range(S)]
    for i in range(S):
        for j in range(i, S):
            overlap = i == j or j in earlier[i] or i in earlier[j]
            as_fraction = kind == "fraction" or (kind == "mixed" and data.draw(hyp.booleans()))
            v = -1 if overlap else 0
            f[order[i]][order[j]] = f[order[j]][order[i]] = Fraction(v) if as_fraction else v
    return f


@settings(max_examples=60, deadline=None)
@given(data=hyp.data())
def test_d_family_matches_the_chordal_rule(data):
    # on a chordal hard core D_n is -(n - 2)! when every pair of the tuple
    # overlaps and 0 otherwise (the pair entry at n = 2): exact d_family
    # through order 5, value and type, its patterns summed once per build
    S = data.draw(hyp.integers(1, 5))
    N = data.draw(hyp.integers(1, 5))
    f = chordal_hard_core(data, S)
    D = GCState.from_f(SpeciesSpace.uniform(S), f, N=N, exact=True).d_family
    for n in range(1, N + 1):
        for (q, ms), v in D.coeffs[n].items():
            want = chordal_d(f, (q, *ms))
            assert v == want and type(v) is type(want), (f, q, ms)


@settings(max_examples=15, deadline=None)
@given(data=hyp.data())
def test_extracted_d_matches_the_chordal_rule_at_order_seven(data):
    # D from A by triangular extraction through D_8, above D_COEFF_MAX
    S = data.draw(hyp.integers(1, 3))
    f = chordal_hard_core(data, S)
    st = GCState.from_f(SpeciesSpace.uniform(S), f, N=7, exact=True, allow_large=True)
    D = extract_d_from_a(st)
    for n in range(1, 8):
        for (q, ms), v in D.coeffs[n].items():
            want = chordal_d(f, (q, *ms))
            assert v == want and type(v) is type(want), (f, q, ms)


ONE_TYPE_ENTRIES = {
    "int": hyp.integers(-1, 2),
    "fraction": hyp.one_of(hyp.integers(-6, 6).map(lambda k: Fraction(k, 6)), hyp.just(Fraction(0))),
}
ONE_TYPE_ENTRIES["mixed"] = hyp.one_of(*ONE_TYPE_ENTRIES.values())


@settings(max_examples=60, deadline=None)
@given(data=hyp.data())
def test_exact_families_take_one_type_per_matrix(data):
    # every order n >= 1 of phi, A, t, exp(-A), D and the extracted D is all
    # Fractions when the matrix holds a Fraction, else all ints; zero
    # entries of either type included, where no biconnected graph survives
    entry = ONE_TYPE_ENTRIES[data.draw(hyp.sampled_from(sorted(ONE_TYPE_ENTRIES)))]
    S, N = data.draw(hyp.integers(1, 3)), data.draw(hyp.integers(1, 4))
    f = [[0] * S for _ in range(S)]
    for i in range(S):
        for j in range(i, S):
            f[i][j] = f[j][i] = data.draw(entry)
    kind = Fraction if any(type(v) is Fraction for row in f for v in row) else int
    st = GCState.from_f(SpeciesSpace.uniform(S), f, N=N, exact=True)
    families = {"phi": st.phi_series, "A": st.a_family, "t": st.t_family, "exp(-A)": st.e_family,
                "D": st.d_family, "extracted D": extract_d_from_a(st)}
    types = {name: [{type(v) for v in order.values()} for order in X.coeffs[1:]] for name, X in families.items()}
    assert types == {name: [{kind}] * N for name in families}, f


@pytest.mark.parametrize("N", [3, 4, 5])
def test_extracted_d_equals_enumeration_in_value_and_type(N):
    # MIX_F holds a Fraction(0) entry, so some tuples keep no biconnected
    # graph: both builders give Fraction(0) there, as everywhere a Fraction
    st = mix_state(N)
    got, want = extract_d_from_a(st), st.d_family
    assert [[(v, type(v)) for v in order.values()] for order in got.coeffs] == [
        [(v, type(v)) for v in order.values()] for order in want.coeffs
    ]


def hard_core_families(adj, N, with_d=True):
    """(name, coeffs per order) of the exact state's phi, A, t, D extracted
    from A and, ``with_d``, D built from graphs, on the hard core of a graph
    given by its neighbour lists, next to ``hard_core_series``'s."""
    S = len(adj)
    f = [[-1 if i == j or j in adj[i] else 0 for j in range(S)] for i in range(S)]
    st = GCState.from_f(SpeciesSpace.uniform(S), f, N=N, exact=True, allow_large=True)
    phi, A, t, D = hard_core_series(adj, N)
    fams = [("phi", st.phi_series, phi), ("A", st.a_family, A), ("t", st.t_family, t),
            ("extracted D", extract_d_from_a(st), D)]
    return fams + [("D", st.d_family, D)] if with_d else fams


@settings(max_examples=40, deadline=None)
@given(data=hyp.data())
def test_families_match_the_independence_polynomial(data):
    # on any graph, phi = log Z_G, A_q = log Z_G - log Z_(G - N[q]), T from
    # its fixed point and D = -log T, in literal rational equality
    S = data.draw(hyp.integers(1, 4))
    N = data.draw(hyp.integers(1, 4))
    edges = data.draw(hyp.sets(hyp.sampled_from(list(pair_order(S))))) if S > 1 else set()
    adj = [{j for i, j in edges if i == x} | {i for i, j in edges if j == x} for x in range(S)]
    for name, fam, want in hard_core_families(adj, N):
        for n in range(N + 1):
            assert dict(fam.coeffs[n]) == want[n], (name, adj, n)


def test_families_match_the_independence_polynomial_on_the_five_cycle():
    # the 5-cycle is not chordal; at N = 7, t_6 and t_7 lie above
    # TREE_ORACLE_MAX and the extracted D holds D_8, past the graph sums
    adj = [{(x - 1) % 5, (x + 1) % 5} for x in range(5)]
    for name, fam, want in hard_core_families(adj, 7, with_d=False):
        for n in range(8):
            assert dict(fam.coeffs[n]) == want[n], (name, n)


def test_phi_derivative_is_exp_of_minus_A():
    # the variational derivative of the cluster series in direction q equals
    # exp(-A_q) through truncation order N-1
    for st in (mix_state(), _random_state(4)):
        N = st.N
        for q in range(st.space.size):
            d = var_derivative(st.phi_series, q)
            e = st.e_family.root_series(q)
            for n in range(N):
                assert d.coeffs[n] == e.coeffs[n]


def test_dissymmetry_exact():
    for st in (mix_state(), hard_state(4), _random_state(5)):
        rep = dissymmetry_check(st, N=min(st.N, 4))
        assert rep.exact and rep.max_abs == 0


def test_dissymmetry_bounds():
    st = mix_state()
    with pytest.raises(DomainError):
        dissymmetry_check(st, N=5)
    st6 = GCState.from_f(S2, [[-1.0, -0.5], [-0.5, 0.0]], N=6, exact=False)
    with pytest.raises(CapabilityError):
        dissymmetry_check(st6, N=6)
    # the readers of D_(N+1) past the graph-enumeration ceiling refuse it,
    # not truncate it
    deep = GCState.from_f(S2, MIX_F, N=7, exact=True, allow_large=True)
    for read in (check_virMb, zeta_of_nu):
        with pytest.raises(CapabilityError):
            read(deep, [Fraction(1, 10)] * 2)


def test_dissymmetry_reports_non_finite_residuals():
    # f = exp(700) - 1 overflows phi_3 to inf and phi_4 to NaN: those
    # residuals are not finite, and the report neither drops nor zeroes them
    st = GCState(S2, pot=PairPotential(S2, 1.0, [[-700, -700], [-700, -700]]), N=4)
    rep = dissymmetry_check(st, N=4)
    assert list(rep.per_order) == [2, 3, 4]
    assert rep.per_order[2] == 0
    assert not any(math.isfinite(rep.per_order[n]) for n in (3, 4))
    assert math.isnan(rep.max_abs) and not rep.exact
    # phi is read from its stored orders; its coeffs view is never built
    assert st.phi_series._view is None


# ---------------------------------------------------------------------------
# inversion routes


def test_rho_of_z_at_zero():
    st = mix_state()
    rho = rho_of_z(st, [Fraction(0), Fraction(0)])
    assert list(rho) == [0, 0]


def test_free_case_is_identity():
    st = free_state()
    z = [Fraction(3, 20), Fraction(1, 10)]
    rho = rho_of_z(st, z)
    assert [float(v) for v in rho] == [0.15, 0.1]
    zeta = zeta_of_nu(st, [Fraction(1, 10), Fraction(1, 5)])
    assert [float(v) for v in zeta] == [0.1, 0.2]
    assert log_xi_series(st, z) == Fraction(3, 20) + Fraction(1, 10)
    assert pressure_of_nu(st, [Fraction(1, 10), Fraction(1, 5)]) == Fraction(3, 10)


def test_rho_of_z_matches_exact_density_to_truncation():
    st = mix_state()
    err_at = {}
    for s in (1, 2):
        z = [Fraction(1, 10 * 2**s), Fraction(1, 20 * 2**s)]
        rho = rho_of_z(st, z)
        ref = density_exact(st, z, n_max=12)
        err_at[s] = max(abs(a - float(b)) for a, b in zip(rho, ref.values))
    # halving z shrinks the truncation error by about 2^(N+1)
    assert err_at[1] > 0
    assert err_at[1] / err_at[2] > 2**4


def test_zeta_of_nu_inverts_to_truncation():
    st = mix_state()
    z = [Fraction(1, 10), Fraction(1, 20)]
    rho = rho_of_z(st, z)
    back = zeta_of_nu(st, rho)
    assert max(abs(a - float(b)) for a, b in zip(back, z)) < 5e-6


def test_zeta_paths_numeric_agreement():
    st = mix_state()
    nu = [Fraction(1, 25), Fraction(1, 40)]
    zt = zeta_of_nu(st, nu, path="tree")
    zb = zeta_of_nu(st, nu, path="biconnected")
    # the routes share coefficients (zeta_path_agreement is exact) but
    # evaluate with different truncation tails, so only O(nu^(N+1)) here
    assert max(abs(a - b) for a, b in zip(zt, zb)) < 1e-6
    with pytest.raises(DomainError):
        zeta_of_nu(st, nu, path="cactus")


def test_zeta_at_zero_density():
    st = mix_state()
    assert list(zeta_of_nu(st, [Fraction(0), Fraction(0)])) == [0, 0]


# ---------------------------------------------------------------------------
# exact reference sums


def test_xi_exact_single_hard_species():
    space = SpeciesSpace.uniform(1)
    st = GCState.from_f(space, [[Fraction(-1)]], N=3, exact=True)
    z = Fraction(1, 5)
    xr = xi_exact(st, [z])
    assert xr.value == 1 + z
    assert not xr.truncated
    assert xr.by_order == [1, z]  # self-exclusion caps occupation at one


def test_xi_exact_cross_hard_pair():
    st = GCState.from_f(
        S2, [[Fraction(-1), Fraction(-1)], [Fraction(-1), Fraction(-1)]], N=3, exact=True
    )
    z = [Fraction(1, 5), Fraction(1, 4)]
    xr = xi_exact(st, z)
    assert xr.value == 1 + z[0] + z[1]
    assert not xr.truncated


def test_xi_exact_weights_enter():
    space = SpeciesSpace.from_weights([2])
    st = GCState(space, mayer=MayerMatrices.from_f(space, [[Fraction(-1)]], exact=True), N=3)
    xr = xi_exact(st, [Fraction(1, 5)])
    assert xr.value == 1 + Fraction(2, 5)


def test_xi_exact_noninteracting_orders():
    st = free_state()
    z = [Fraction(1, 10), Fraction(1, 5)]
    xr = xi_exact(st, z, n_max=4)
    assert xr.truncated
    u = z[0] + z[1]
    for n in range(5):
        assert xr.by_order[n] == Fraction(u**n, math.factorial(n))
    with pytest.raises(DomainError):
        xi_exact(st, z)  # no diagonal hard core, n_max required


def test_density_exact_consistency():
    st = mix_state()
    z = [Fraction(1, 10), Fraction(1, 20)]
    rho = density_exact(st, z, n_max=8)
    assert density_exact(st, z, n_max=8)[0] == rho.values[0]
    # density of species q equals z_q d/dz_q log Xi: finite check via ratio
    xr = xi_exact(st, z, n_max=8)
    bump = [z[0] * Fraction(1001, 1000), z[1]]
    xb = xi_exact(st, bump, n_max=8)
    approx = (xb.value - xr.value) / xr.value / Fraction(1, 1000)
    assert abs(float(approx - rho.values[0])) < 2e-4


def test_log_xi_matches_cluster_series_exactly():
    # dual route: direct partition-sum coefficients fed through the log
    # recursion must reproduce the per-order cluster sums.  Same geometry
    # as the rational_mix fixture (rods of three weighted point species;
    # only the outer pair 0-2 is compatible) but with rational weights.
    space = SpeciesSpace.from_weights([1, Fraction(1, 2), 1])
    f = [[Fraction(-1)] * 3 for _ in range(3)]
    f[0][2] = f[2][0] = Fraction(0)
    st = GCState.from_f(space, f, N=4, exact=True)
    z = [Fraction(1, 5)] * 3
    xr = xi_exact(st, z, n_max=4)
    L = log_coeffs(xr.by_order, 4)
    sums = phi_order_sums(st, z, 4)
    assert L[1] == sums[1] == Fraction(1, 2)  # z (w0 + w1 + w2) = (1/5)(5/2)
    for n in range(2, 5):
        assert L[n] == sums[n]
    assert log_xi_series(st, z) == sum(sums)


# ---------------------------------------------------------------------------
# hard rods on a ring against the closed-form equation of state


RING = ring_mayer(1, 4)
RING_STATE = GCState(RING.space, mayer=RING, N=3, allow_large=True)
RING_H = Fraction(1, 4)


def test_ring_zeta_matches_tonks():
    rho = Fraction(1, 10)
    S = RING.space.size
    zeta = zeta_of_nu(RING_STATE, [rho] * S)
    assert len(set(zeta)) == 1  # translation invariance
    z_ref = tonks_oracle(1, float(rho))["z"]
    assert abs(zeta[0] - z_ref) / z_ref < 0.05  # grid error is O(h), h = 1/4


def test_ring_pressure_identity_exact():
    # on a translation-invariant ring the pressure sum collapses to
    # rho - sum (n-1)/n * beta-hat_(n-1) * rho^n, exactly in rationals
    rho = Fraction(1, 10)
    S = RING.space.size
    V = S * RING_H
    P = pressure_of_nu(RING_STATE, [rho] * S)
    gbs = {n: grid_beta(1, 4, n) for n in (1, 2)}
    rhs = rho - sum(Fraction(n - 1, n) * gbs[n - 1] * rho**n for n in (2, 3))
    assert P / V == rhs


def test_ring_free_energy_matches_beta_sum():
    rho = Fraction(1, 10)
    S = RING.space.size
    V = S * RING_H
    F = free_energy(RING_STATE, [rho] * S)
    gbs = {n: grid_beta(1, 4, n) for n in (1, 2)}
    rhs = float(rho) * (math.log(float(rho)) - 1) - sum(
        float(gbs[n]) * float(rho) ** (n + 1) / (n + 1) for n in (1, 2)
    )
    assert abs(F / float(V) - rhs) < 1e-12


# ---------------------------------------------------------------------------
# pressure and free energy


def test_pressure_frozen_value():
    st = mix_state()
    nu = [Fraction(1, 50), Fraction(1, 40)]
    assert pressure_of_nu(st, nu) == Fraction(27273139, 600000000)


def test_pressure_and_free_energy_at_zero():
    st = mix_state()
    assert pressure_of_nu(st, [Fraction(0), Fraction(0)]) == 0
    assert free_energy(st, [Fraction(0), Fraction(0)]) == 0.0


def test_free_energy_validation():
    st = mix_state()
    with pytest.raises(DomainError):
        free_energy(st, [Fraction(-1, 10), Fraction(0)])
    with pytest.raises(DomainError):
        free_energy(st, [Fraction(1, 10), Fraction(0)], m=[0.0, 1.0])


def test_free_energy_reference_measure_shift():
    st = free_state()
    nu = [Fraction(1, 10), Fraction(1, 5)]
    base = free_energy(st, nu)
    shifted = free_energy(st, nu, m=[2.0, 2.0])
    expect = base - sum(float(v) * math.log(2.0) for v in nu)
    assert abs(shifted - expect) < 1e-14


def test_legendre_duality_small_density():
    for seed in (6, 7):
        st = _random_state(seed)
        S = st.space.size
        nu = [Fraction(1, 160 + 40 * i) for i in range(S)]
        F = free_energy(st, nu)
        zeta = zeta_of_nu(st, nu)
        lx = float(log_xi_series(st, [Fraction(z).limit_denominator(10**12) for z in zeta]))
        pairing = sum(
            float(v) * math.log(z) * w for v, z, w in zip(nu, zeta, st.space.weights)
        )
        assert abs(F + lx - pairing) < 1e-11


# ---------------------------------------------------------------------------
# convergence certificates


def test_certificates_at_zero_activity():
    st = mix_state()
    z0 = [Fraction(0), Fraction(0)]
    pu = check_PU(st, z0)
    assert pu.passed and pu.margins == pu.a
    sab = check_Sab(st, z0)
    assert sab.passed and sab.margins == sab.a


def test_certificates_use_absolute_value():
    st = mix_state()
    plus = check_Sb(st, [Fraction(1, 10), Fraction(1, 10)])
    minus = check_Sb(st, [Fraction(-1, 10), Fraction(1, 10)])
    assert plus.margins == minus.margins
    assert check_PU(st, [-0.1, 0.1]).margins == check_PU(st, [0.1, 0.1]).margins


def test_sab_sharp_threshold():
    # single hard-core species with weight 2: the combined condition with
    # a = b = 1/2 flips exactly at |nu| = 1/(4e)
    space = SpeciesSpace.from_weights([2])
    st = GCState(space, mayer=MayerMatrices.from_f(space, [[Fraction(-1)]], exact=True), N=4)
    nu_star = 1 / (4 * math.e)
    ok = check_Sab(st, [nu_star * (1 - 5e-4)], a=[0.5], b=[0.5])
    bad = check_Sab(st, [nu_star * (1 + 5e-4)], a=[0.5], b=[0.5])
    assert ok.passed and not bad.passed


def test_sab_needs_both_weights_or_neither():
    st = mix_state()
    nu = [Fraction(1, 100)] * 2
    with pytest.raises(StructureError, match="give both a and b or neither"):
        check_Sab(st, nu, a=[3, 3])
    with pytest.raises(StructureError, match="give both a and b or neither"):
        check_Sab(st, nu, b=[1, 1])
    req = {"state": MATRIX_STATE, "op": "check_Sab", "N": 2, "inputs": {"nu": ["1/100"] * 2, "a": [3, 3]}}
    with pytest.raises(StructureError):
        run_request(req)


def test_sab_requires_ordered_constants():
    st = mix_state()
    with pytest.raises(DomainError):
        check_Sab(st, [Fraction(1, 100)] * 2, a=[2.0, 2.0], b=[1.0, 1.0])


def test_sab_implies_sb_nonnegative_potential():
    # for pair potentials with v >= 0 the combined certificate at (a, b)
    # dominates the summability condition at the same b
    import random

    for seed in range(10):
        r = random.Random(seed)
        S = 3
        f = [[Fraction(0)] * S for _ in range(S)]
        for i in range(S):
            for j in range(i, S):
                f[i][j] = f[j][i] = Fraction(-r.randint(0, 16), 16)
        space = SpeciesSpace.uniform(S)
        st = GCState(space, mayer=MayerMatrices.from_f(space, f, exact=True), N=4)
        nu = [Fraction(r.randint(0, 8), 200) for _ in range(S)]
        sab = check_Sab(st, nu)
        if sab.passed:
            sb = check_Sb(st, nu, b=list(sab.b))
            assert sb.passed


def test_virmb_prefix_sums():
    st = mix_state()
    nu = [Fraction(1, 30), Fraction(1, 30)]
    cert = check_virMb(st, nu)
    assert cert.condition == "virMb"
    assert cert.passed
    assert "grid search" in cert.notes
    assert all(isinstance(v, float) for v in cert.b)
    assert all(m > 0 for m in cert.margins)


def test_certificate_grid_search_notes():
    st = mix_state()
    cert = check_Sb(st, [Fraction(1, 50), Fraction(1, 50)])
    assert "grid search" in cert.notes
    d = cert.to_dict()
    assert d["condition"] == "Sb" and d["passed"] is True


# ---------------------------------------------------------------------------
# request interface


MATRIX_STATE = {
    "beta": 1.0,
    "species": [{"id": 0, "weight": 1}, {"id": 1, "weight": 1}],
    "potential": {
        "kind": "matrix",
        "params": {"v": [["inf", "inf"], ["inf", 0.0]]},
    },
}


def request(op, N=3, **inputs):
    return {"state": MATRIX_STATE, "op": op, "N": N, "inputs": inputs}


def test_run_request_values_match_direct_calls():
    space, pot = load_species_json(MATRIX_STATE)
    st = GCState(pot.space, pot=pot, N=3)
    z = [Fraction(1, 10), Fraction(1, 8)]

    out = run_request(request("rho_of_z", z=["1/10", "1/8"]))
    assert out["values"] == [float(v) for v in rho_of_z(st, z)]

    nu = [Fraction(1, 20), Fraction(1, 30)]
    out = run_request(request("zeta_of_nu", nu=["1/20", "1/30"]))
    assert out["values"] == [float(v) for v in zeta_of_nu(st, nu)]
    assert out["path"] == "biconnected"

    out = run_request(request("log_xi_series", z=["1/10", "1/8"]))
    assert out["values"] == float(log_xi_series(st, z))

    out = run_request(request("pressure", nu=["1/20", "1/30"]))
    assert out["values"] == float(pressure_of_nu(st, nu))

    out = run_request(request("free_energy", nu=["1/20", "1/30"]))
    assert out["values"] == free_energy(st, nu)

    out = run_request(request("xi_exact", z=["1/10", "1/8"], n_max=5))
    xr = xi_exact(st, z, n_max=5)
    assert out["values"] == float(xr.value)
    assert out["truncated"] == xr.truncated and out["n_max"] == xr.n_max

    out = run_request(request("density_exact", z=["1/10", "1/8"], n_max=5))
    assert out["values"] == [float(v) for v in density_exact(st, z, n_max=5)]


def test_run_request_certificates_and_residuals():
    out = run_request(request("check_PU", z=["1/10", "1/8"]))
    assert out["certificates"][0]["condition"] == "PU"
    out = run_request(request("check_Sb", nu=["1/20", "1/30"]))
    assert out["certificates"][0]["condition"] == "Sb"
    out = run_request(request("check_Sab", nu=["1/20", "1/30"]))
    assert out["certificates"][0]["condition"] == "Sab"
    for op, name in [
        ("roundtrip", "roundtrip"),
        ("dissymmetry", "dissymmetry"),
        ("zeta_paths", "zeta_path_agreement"),
    ]:
        out = run_request(request(op))
        rep = out["residuals"][0]
        assert rep["name"] == name
        assert rep["max_abs"] == 0


def test_run_request_errors():
    with pytest.raises(StructureError):
        run_request({"op": "rho_of_z"})
    with pytest.raises(StructureError):
        run_request({"state": MATRIX_STATE})
    with pytest.raises(DomainError):
        run_request(request("transmute", z=["1/10", "1/8"]))
    with pytest.raises(StructureError):
        run_request({"state": {"beta": 1.0}, "op": "roundtrip"})


def test_run_request_boundary_inputs():
    z = ["1/10", "1/8"]
    with pytest.raises(StructureError):
        run_request(request("rho_of_z", z=z[:1]))
    with pytest.raises(StructureError):
        run_request(request("rho_of_z", z="1/10"))
    with pytest.raises(DomainError):
        run_request(request("rho_of_z", z=["1/0", "1/8"]))
    with pytest.raises(DomainError):
        run_request(request("rho_of_z", z=[float("nan"), 0.1]))
    with pytest.raises(DomainError):
        run_request(request("rho_of_z", z=[float("inf"), 0.1]))
    with pytest.raises(DomainError):
        run_request(request("check_PU", z=z, a=["x", "1/2"]))
    # string weights and weight vectors parse to the same Fractions
    doc = {**MATRIX_STATE, "species": [{"id": 0, "weight": 1}, {"id": 1, "weight": "1/2"}]}
    twin = {**MATRIX_STATE, "species": [{"id": 0, "weight": 1}, {"id": 1, "weight": Fraction(1, 2)}]}
    assert run_request({"state": doc, "op": "rho_of_z", "inputs": {"z": z}}) == run_request(
        {"state": twin, "op": "rho_of_z", "inputs": {"z": z}}
    )
    out = run_request(request("check_PU", z=z, a=["1/2", "1/3"]))
    assert out == run_request(request("check_PU", z=z, a=[Fraction(1, 2), Fraction(1, 3)]))


def test_run_request_validates_order():
    nu = ["1/20", "1/30"]
    for bad in ("3", 2.0, True, False, -1):
        with pytest.raises(DomainError):
            run_request(request("pressure", N=bad, nu=nu))
    out = run_request(request("pressure", N=0, nu=nu))
    assert out["N"] == 0 and out["values"] == float(Fraction(1, 12))


def test_run_request_validates_inputs_and_n_max():
    z = ["1/10", "1/8"]
    with pytest.raises(StructureError):
        run_request({"state": MATRIX_STATE, "op": "rho_of_z", "inputs": 5})
    for op in ("xi_exact", "density_exact"):
        for bad in (True, "2", 2.5, -1):
            with pytest.raises(DomainError):
                run_request(request(op, z=z, n_max=bad))
    assert run_request(request("xi_exact", z=z, n_max=0))["values"] == 1.0


def test_pressure_refuses_negative_density():
    with pytest.raises(DomainError, match="pressure needs a non-negative density"):
        run_request(request("pressure", nu=["-1/10", "1/30"]))
    with pytest.raises(DomainError, match="free energy needs a non-negative density"):
        run_request(request("free_energy", nu=["1/20", -0.1]))
    with pytest.raises(DomainError, match="free energy needs a non-negative reference measure"):
        run_request(request("free_energy", nu=["1/20", "1/30"], m=[-1, 1]))
    assert run_request(request("pressure", nu=[0, "1/30"]))["values"] > 0


def test_dissymmetry_builds_each_d_once(monkeypatch, fresh_memo):
    calls, builds = [], []
    real, real_build = graphs.d_coeff, inv.build_D_family

    def counting(mayer, xs):
        calls.append(xs)
        return real(mayer, xs)

    def counting_build(*args, **kwargs):
        builds.append(args[2])
        return real_build(*args, **kwargs)

    monkeypatch.setattr(graphs, "d_coeff", counting)
    monkeypatch.setattr(inv, "build_D_family", counting_build)
    st = mix_state(N=5)
    rep = dissymmetry_check(st, N=5)
    assert rep.exact and rep.max_abs == 0
    # D comes from the rooted family through order 4: one call per distinct
    # pattern of pair entries over its (root, tail) tuples of order 2 or more
    # (order 1 holds the entries as stored)
    f = st.mayer.f
    rooted = [(q,) + ms for n in range(2, 5) for q in range(2) for ms in canonical_indices(2, n)]
    patterns = {tuple((type(f[xs[i]][xs[j]]), f[xs[i]][xs[j]]) for i, j in pair_order(len(xs))) for xs in rooted}
    assert len(calls) == len(set(calls)) == len(patterns)
    assert builds == [4]
    # a second state of the same f reads that family from the memo, and so
    # does a state of order 4
    assert dissymmetry_check(mix_state(N=5), N=5).to_dict() == rep.to_dict()
    assert mix_state(N=4).d_family == real_build(S2, st.mayer, 4)
    assert builds == [4]


def test_dissymmetry_below_order_two_is_an_empty_exact_report():
    # no order n >= 2 to check, and no D family of negative order to build
    for st in (mix_state(), soft_state(2024, 4, 4)):
        for N in (0, 1):
            rep = dissymmetry_check(st, N=N)
            assert rep.exact and rep.max_abs == 0 and rep.per_order == {}


def soft_state(seed, S, N):
    r = random.Random(seed)
    v = [[0.0] * S for _ in range(S)]
    for i in range(S):
        for j in range(i, S):
            v[i][j] = v[j][i] = round(r.uniform(-0.3, 1.5), 3)
    space = SpeciesSpace.from_weights([r.choice((0.5, 1.0, 1.5)) for _ in range(S)])
    return GCState(space, pot=PairPotential(space, 1.0, v), N=N)


@pytest.mark.parametrize("source", ["float-marked", "soft"])
def test_float_graph_orders_are_stored_as_computed(source):
    # every order n >= 2 of float phi, A and D is the float64 array that its
    # kernel returned, with no int lane, and has the bits and layout that
    # storing its values gives
    if source == "soft":
        st = soft_state(7, 3, 4)
    else:
        f = [[-1, Fraction(1, 3), 0], [Fraction(1, 3), -1, Fraction(-1, 2)], [0, Fraction(-1, 2), 2]]
        st = GCState.from_f(SpeciesSpace.uniform(3), f, N=4, exact=False)
    for fam in (st.phi_series, st.a_family, st.d_family):
        for n in range(2, 5):
            order = fam._orders[n]
            assert type(order) is _Columns and order.arr.dtype == np.float64 and order.ints is None
            again = _store(order.values(), fam.roots)
            assert again.ints is None and again.arr.shape == order.arr.shape
            assert again.arr.tobytes() == order.arr.tobytes()


def test_float_golden_tree_coefficients_and_roundtrip():
    # float bits recorded before the template sums were batched over roots;
    # every multiplication and addition must happen in the same order
    st = soft_state(2024, 4, 4)
    t = st.t_family
    golden = {
        (1, 0, (2,)): "0x1.c0394edda9f10p-3",
        (2, 3, (0, 1)): "0x1.8afc66cd77df3p-3",
        (3, 1, (0, 2, 3)): "0x1.a051d5fe604e8p-5",
        (4, 2, (0, 1, 1, 3)): "-0x1.195ec00d2be26p-4",
        (4, 0, (3, 3, 3, 3)): "0x1.234ae76aa7304p+0",
    }
    for (n, q, ms), value in golden.items():
        assert t.coeffs[n][(q, ms)].hex() == value
    rep = roundtrip_check(st)
    assert rep.max_abs.hex() == "0x1.d000000000000p-48"
    per_order = {n: v.hex() if isinstance(v, float) else v for n, v in rep.per_order.items()}
    assert per_order == {
        0: 0,
        1: 0,
        2: "0x1.0000000000000p-53",
        3: "0x1.8000000000000p-51",
        4: "0x1.d000000000000p-48",
    }


def test_float_golden_dissymmetry_residuals():
    # float bits recorded when D was read per canonical tuple through
    # d_coeff; the rooted family's batched orders give each tuple its bits
    golden = {
        4: {2: "0x1.0000000000000p-54", 3: "0x1.4000000000000p-51", 4: "0x1.0000000000000p-48"},
        8: {2: "0x1.0000000000000p-53", 3: "0x1.4000000000000p-50", 4: "0x1.8000000000000p-48"},
    }
    for S, per_order in golden.items():
        rep = dissymmetry_check(soft_state(2024, S, 4))
        assert not rep.exact
        assert {n: v.hex() for n, v in rep.per_order.items()} == per_order
        assert rep.max_abs.hex() == per_order[4]


def test_float_golden_majorants_and_tail_sums():
    # float bits recorded before the majorant and D-tail sums moved into fps;
    # the Sb grid search and the signed tail sums keep every operation order
    st = soft_state(2025, 6, 4)
    nu = [0.046, 0.027, 0.082, 0.018, 0.069, 0.05]
    cert = check_Sb(st, nu)
    assert cert.passed and cert.b == (1.1,) * 6
    assert [m.hex() for m in cert.margins] == [
        "0x1.0edac51a70d34p-1",
        "0x1.3979353f00278p-1",
        "0x1.1d75b840ae7fap-1",
        "0x1.66c788b8e4712p-1",
        "0x1.70dc19380e864p-1",
        "0x1.871737277c2f8p-2",
    ]
    assert pressure_of_nu(st, nu).hex() == "0x1.534d8466ac0a6p-2"
    assert free_energy(st, nu).hex() == "-0x1.41c07de8630a4p+0"
    # these now add order by order, so only rounding may move
    b = [0.3] * 6
    moved = {
        "Sb": (check_Sb(st, nu, b=b), (0.08517620544582433, 0.11783858981574782,
               0.09771510879395665, 0.14916409235732883, 0.16817900027519359,
               0.02824281026873915)),
        "virMb": (check_virMb(st, nu, b=b), (0.1545229090921724, 0.17817303284439173,
                  0.16406236276698477, 0.19951623782346173, 0.21670692637804118,
                  0.11492580445237655)),
        "Mb": (eval_T_abs(st.t_family, nu, b), (0.1961878033372415, 0.22200937506581497,
               0.20638189259140183, 0.24508032330886875, 0.2634829520878339,
               0.15181872908212113)),
    }
    for name, (cert, parent) in moved.items():
        assert all(math.isclose(m, p, rel_tol=1e-12) for m, p in zip(cert.margins, parent)), name
    exact = _random_state(5, S=3, N=4)
    nu_exact = [Fraction(1, 10), Fraction(1, 20), Fraction(1, 30)]
    assert pressure_of_nu(exact, nu_exact) == Fraction(19652556387823, 108716359680000)
