"""Release gate: one test per advertised guarantee, each with a time budget.

`pytest -v tests/test_acceptance.py` prints one pass/fail line per
guarantee; with -s each test also prints a one-line summary of what it
measured.  Everything here goes through public entry points plus the
independent oracles (closed forms, brute-force recounts, exact partition
sums) — nothing is compared against itself.
"""

import math
import random
import time
from fractions import Fraction

from virialkit.fps import FormalSeries, RootedSeriesFamily, exp_series, sym_factor
from virialkit.graphs import build_phi_series, count_class, pair_order
from virialkit.homogeneous import (
    INV_2E,
    HomogeneousModel,
    banach_compare,
    hom_inversion_selftest,
    k_constant,
    lp_chain,
    r_star,
    tree_fn_T,
)
from virialkit.apps import GridProfile, invert_profile, profile_state
from virialkit.inversion import (
    GCState,
    check_Sab,
    density_exact,
    dissymmetry_check,
    rho_of_z,
    roundtrip_check,
    xi_exact,
    zeta_path_agreement,
)
from virialkit.oracles import tn_via_trees, ursell_bruteforce
from virialkit.species import MayerMatrices, MeasureVec, SpeciesSpace
from virialkit.treefp import (
    compute_tn,
    eval_T_abs,
    verify_FP,
    verify_FPprime,
)

from conftest import rational_state


def test_criterion_1_constants():
    t0 = time.perf_counter()
    k = k_constant()
    assert 0.14476 <= k <= 0.14478
    assert 0.1839 < INV_2E < 0.1840
    rod = HomogeneousModel.hard_rod(1.0)  # B = B* = 0
    assert r_star(rod) * rod.c_bar == INV_2E
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(
        f"criterion 1: PASS - k={k:.6f} in [0.14476, 0.14478], "
        f"1/(2e)={INV_2E:.6f}, R* cbar == 1/(2e) exactly ({elapsed:.2f}s)"
    )


def test_criterion_2_banach_ratio():
    t0 = time.perf_counter()
    worst = 0.0
    for c in (0.5, 1.0, 3.0):
        out = banach_compare(lambda r, c=c: c * r, 4.0 / c)
        worst = max(worst, abs(out["ratio"] - 8.0))
    for c in (1.0, 2.0):
        out = banach_compare(lambda r, c=c: c * r * r, 2.0 / c)
        worst = max(worst, abs(out["ratio"] - 8.0))
    assert worst < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(
        f"criterion 2: PASS - P'/P = 8 within {worst:.2e} for cr (c=0.5,1,3) "
        f"and cr^2 ({elapsed:.2f}s)"
    )


def test_criterion_3_lp_chain():
    t0 = time.perf_counter()
    worst = 0.0
    for model in (
        HomogeneousModel.hard_rod(0.5),
        HomogeneousModel.hard_rod(1.0),
        HomogeneousModel.hard_sphere(3, radius=0.5),
    ):
        out = lp_chain(model)
        worst = max(worst, abs(out["sup"] - 1 / (2 * math.e * model.c_bar)))
    assert worst < 1e-8
    t_at_edge = tree_fn_T(1 / math.e)
    assert abs(t_at_edge - 1.0) < 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(
        f"criterion 3: PASS - sup r exp(-T(cbar r)) = 1/(2e cbar) within "
        f"{worst:.2e}, T(1/e) - 1 = {t_at_edge - 1:.2e} ({elapsed:.2f}s)"
    )


def test_criterion_4_tonks_routes():
    t0 = time.perf_counter()
    out = hom_inversion_selftest()
    assert out["betas_eos"] == [Fraction(-2), Fraction(-3, 2)]
    assert out["betas_exact"] == out["betas_eos"]
    assert out["eos_matches_exact"]
    ratios = out["richardson_ratios"]
    assert ratios[1] == [2.0, 2.0]
    assert all(1.7 < r < 2.2 for r in ratios[2])
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(
        "criterion 4: PASS - beta_1 = -2, beta_2 = -3/2 exact via EOS "
        "inversion and D-integration; grid route first-order with ratios "
        f"{[round(r, 3) for r in ratios[1] + ratios[2]]} ({elapsed:.2f}s)"
    )


def test_criterion_5_formal_identity_suite():
    t0 = time.perf_counter()
    violations = 0
    for seed in range(50):
        st = rational_state(seed, 2 + seed % 3, 4)
        reports = [
            verify_FP(st.a_family, st.t_family),
            verify_FPprime(st.a_family, st.t_family),
            roundtrip_check(st),
            zeta_path_agreement(st),
            dissymmetry_check(st, N=4),
        ]
        violations += sum(1 for rep in reports if not (rep.exact and rep.max_abs == 0))
    assert violations == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        "criterion 5: PASS - FP, FP', roundtrip, zeta-path, dissymmetry "
        f"residuals all exactly 0 on 50 rational instances, S in 2..4, N=4 "
        f"({elapsed:.2f}s)"
    )


def _edges_of(n, mask):
    return [pair for p, pair in enumerate(pair_order(n)) if mask >> p & 1]


def _connected_brute(n, mask, drop=None):
    adj = {i: set() for i in range(n)}
    for i, j in _edges_of(n, mask):
        adj[i].add(j)
        adj[j].add(i)
    verts = [v for v in range(n) if v != drop]
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        for u in adj[stack.pop()]:
            if u != drop and u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(verts)


def test_criterion_6_oracle_equivalences():
    t0 = time.perf_counter()
    # fixed point vs direct enriched-tree enumeration
    s1 = SpeciesSpace.uniform(1)
    ones = RootedSeriesFamily.from_function(
        s1, 4, lambda n, q, ms: Fraction(0) if n == 0 else Fraction(1)
    )
    t_ones = compute_tn(ones)
    for n in range(1, 5):
        assert t_ones.value(n, 0, (0,) * n) == tn_via_trees(ones, n, 0, (0,) * n)
    s2 = SpeciesSpace.uniform(2)
    r = random.Random(3)
    rand_a = RootedSeriesFamily.from_function(
        s2, 4, lambda n, q, ms: Fraction(0) if n == 0 else Fraction(r.randint(-6, 6), 8)
    )
    t_rand = compute_tn(rand_a)
    for n in range(1, 5):
        for ms in {(0,) * n, (1,) * n, tuple(i % 2 for i in range(n))}:
            for q in range(2):
                assert t_rand.value(n, q, ms) == tn_via_trees(rand_a, n, q, ms)
    # connected sums (log of the all-graph weights) vs graph brute force
    f = [[Fraction(-1), Fraction(-1, 2)], [Fraction(-1, 2), Fraction(1, 4)]]
    phi = build_phi_series(s2, f, 6)
    for n in range(2, 7):
        for xs in ((0,) * n, tuple(i % 2 for i in range(n))):
            assert phi.value(n, xs) == ursell_bruteforce(f, xs)
    # graph class counts vs independent mask scans
    for n, expect in zip(range(2, 6), (1, 4, 38, 728)):
        assert count_class(n, "connected") == expect
        brute = sum(
            _connected_brute(n, m) for m in range(1 << len(pair_order(n)))
        )
        assert brute == expect
    for n, expect in zip(range(2, 5), (1, 1, 10)):
        assert count_class(n, "biconnected") == expect
        brute = sum(
            _connected_brute(n, m)
            and all(_connected_brute(n, m, drop=v) for v in range(n))
            for m in range(1 << len(pair_order(n)))
        )
        assert brute == expect
    for n in range(2, 6):
        assert count_class(n, "tree") == n ** (n - 2)
        brute = sum(
            bin(m).count("1") == n - 1 and _connected_brute(n, m)
            for m in range(1 << len(pair_order(n)))
        )
        assert brute == n ** (n - 2)
    # exponential of the all-ones series counts set partitions
    ones_series = FormalSeries.from_function(s1, 5, lambda n, ms: 0 if n == 0 else 1)
    bell = [exp_series(ones_series).coeffs[n][(0,) * n] for n in range(6)]
    assert bell == [1, 1, 2, 5, 15, 52]
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        "criterion 6: PASS - tree recursion == enumeration (n<=4), phi "
        "series == brute (n<=6), class counts == brute masks, Bell numbers "
        f"1,1,2,5,15,52 ({elapsed:.2f}s)"
    )


def test_criterion_7_certificate_soundness():
    t0 = time.perf_counter()
    checked = 0
    violations = 0
    seed = 0
    while checked < 100:
        r = random.Random(seed)
        seed += 1
        S, N = 3, 5
        f = [[0.0] * S for _ in range(S)]
        for i in range(S):
            for j in range(i, S):
                f[i][j] = f[j][i] = -r.randint(0, 16) / 16
        space = SpeciesSpace.uniform(S)
        st = GCState(space, mayer=MayerMatrices.from_f(space, f, exact=False), N=N)
        nu_val = r.uniform(0.005, 0.03)
        sab = check_Sab(st, [nu_val] * S)
        if not sab.passed:
            continue
        checked += 1
        b = list(sab.b)
        w = st.space.weights
        per_order = [[0.0] * S for _ in range(N + 1)]
        for n in range(1, N + 1):
            fact = math.factorial(n)
            for (root, ms), v in st.d_family.coeffs[n].items():
                if v == 0:
                    continue
                term = abs(float(v)) / fact
                for x in ms:
                    term *= nu_val * float(w[x])
                per_order[n][root] += term
        sums = [0.0] * S
        for n in range(1, N + 1):  # prefix sums: every truncation order
            sums = [s + p for s, p in zip(sums, per_order[n])]
            if not all(s <= bq for s, bq in zip(sums, b)):
                violations += 1
        if not eval_T_abs(st.t_family, MeasureVec.constant(space, nu_val), b).passed:
            violations += 1
    assert violations == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(
        "criterion 7: PASS - 100 passing combined-condition instances, "
        "truncated majorant sums <= b at every order <= 5 and "
        f"tree majorant <= e^b, zero violations ({elapsed:.2f}s)"
    )


def _log_coeffs(by_order, n_max):
    A = [Fraction(1)] + [Fraction(c) for c in by_order[1 : n_max + 1]]
    L = [Fraction(0)] * (n_max + 1)
    for n in range(1, n_max + 1):
        acc = n * A[n]
        for k in range(1, n):
            acc -= k * L[k] * A[n - k]
        L[n] = acc / n
    return L


def _phi_sums(st, z, n_max):
    out = [Fraction(0)] * (n_max + 1)
    w = st.space.weights
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


def test_criterion_8_grand_canonical_cross_check():
    t0 = time.perf_counter()
    worst_ratio = math.inf
    for seed in range(10):
        r = random.Random(seed)
        S = 2 + seed % 3
        f = [[Fraction(0)] * S for _ in range(S)]
        for i in range(S):
            f[i][i] = Fraction(-1)
            for j in range(i + 1, S):
                if r.random() < 0.5:
                    f[i][j] = f[j][i] = Fraction(-1)
        space = SpeciesSpace.from_weights(
            [Fraction(r.randint(1, 4), 2) for _ in range(S)]
        )
        st = GCState(space, mayer=MayerMatrices.from_f(space, f, exact=True), N=4)
        z = [Fraction(r.randint(1, 6), 40) for _ in range(S)]
        xr = xi_exact(st, z)  # finite: diagonal hard core caps occupation
        L = _log_coeffs(xr.by_order, S)
        sums = _phi_sums(st, z, S)
        assert all(L[n] == sums[n] for n in range(1, S + 1))
        errs = []
        for s in (0, 1):
            zs = [zz / 2**s for zz in z]
            rho = list(rho_of_z(st, zs))
            ref = density_exact(st, zs)
            errs.append(max(abs(a - float(b)) for a, b in zip(rho, ref.values)))
        assert errs[0] > 0
        ratio = errs[0] / errs[1] if errs[1] > 0 else math.inf
        worst_ratio = min(worst_ratio, ratio)
    assert worst_ratio >= 19  # truncation at N=4 scales like z^5 under z -> z/2
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        "criterion 8: PASS - log(Xi) Taylor coefficients == connected-sum "
        "series exactly (n <= S) on 10 hard-core instances; density error "
        f"contracts by >= {worst_ratio:.1f} under z -> z/2 ({elapsed:.2f}s)"
    )


def test_criterion_9_inhomogeneous_round_trip():
    t0 = time.perf_counter()
    kernel = {"kind": "hard_rod", "params": {"length": 1.5}}
    base = [0.04, 0.06, 0.04]
    errs = []
    for eps in (1.0, 0.5, 0.25):
        gp = GridProfile(
            points=[0.0, 1.0, 2.0],
            cell_volumes=[1.0] * 3,
            rho=[eps * r for r in base],
        )
        out = invert_profile(gp, kernel, N=3)
        st = profile_state(gp, kernel, N=3)
        z = [math.exp(-v) for v in out["beta_v"]]
        ref = density_exact(st, z)
        errs.append(
            max(abs(float(rv) - target) for rv, target in zip(ref.values, gp.rho))
        )
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(o >= 4.0 for o in orders)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        "criterion 9: PASS - recovered potential reproduces the target "
        f"profile with empirical orders {[round(o, 2) for o in orders]} "
        f"under rho -> eps rho ({elapsed:.2f}s)"
    )
