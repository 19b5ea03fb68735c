"""Tests for the enriched-tree fixed point.

With every activity coefficient set to 1 on a single species the recursion
counts enriched trees: 1, 1, 4, 29, 311, 4447 for n = 0..5.  The explicit
enumerator provides the independent recount, and random rational activity
families are checked coefficient-by-coefficient against the tree sum.
"""

import math
import random
from fractions import Fraction

import pytest

from virialkit.errors import CapabilityError, DomainError
from virialkit.fps import FormalSeries, RootedSeriesFamily, exp_series, mul
from virialkit.graphs import build_A_family
from virialkit.oracles import enumerate_enriched_trees, tn_via_trees
from virialkit.species import MayerMatrices, MeasureVec, SpeciesSpace
from virialkit.inversion import run_request
from virialkit.treefp import (
    compute_tn,
    eval_T,
    eval_T_abs,
    exp_family,
    residual_report,
    verify_FP,
    verify_FPprime,
)

S1 = SpeciesSpace.uniform(1)
S2 = SpeciesSpace.uniform(2)

TREE_COUNTS = [1, 1, 4, 29, 311, 4447]  # n = 0..5


def ones_family(space, N):
    return RootedSeriesFamily.from_function(
        space, N, lambda n, q, ms: Fraction(0) if n == 0 else Fraction(1)
    )


def rand_family(seed, space, N, den=8):
    r = random.Random(seed)
    return RootedSeriesFamily.from_function(
        space,
        N,
        lambda n, q, ms: Fraction(0) if n == 0 else Fraction(r.randint(-6, 6), den),
    )


def test_all_ones_counts():
    t = compute_tn(ones_family(S1, 5))
    assert [t.value(n, 0, (0,) * n) for n in range(6)] == TREE_COUNTS


def test_enumerator_matches_recursion():
    for n in range(1, 6):
        assert sum(1 for _ in enumerate_enriched_trees(n)) == TREE_COUNTS[n]


def test_t1_equals_A1():
    A = rand_family(0, S2, 2)
    t = compute_tn(A)
    for q in range(2):
        for x in range(2):
            assert t.value(1, q, (x,)) == A.value(1, q, (x,))


def test_t2_displayed_formula():
    A = rand_family(1, S2, 2)
    t = compute_tn(A)
    for q in range(2):
        for ms in [(0, 0), (0, 1), (1, 1)]:
            x1, x2 = ms
            expect = (
                A.value(2, q, ms)
                + A.value(1, q, (x1,)) * A.value(1, x1, (x2,))
                + A.value(1, q, (x2,)) * A.value(1, x2, (x1,))
                + A.value(1, q, (x1,)) * A.value(1, q, (x2,))
            )
            assert t.value(2, q, ms) == expect


def test_recursion_matches_tree_sum():
    A = rand_family(2, S2, 4)
    t = compute_tn(A)
    from virialkit.fps import canonical_indices

    for n in range(1, 5):
        for q in range(2):
            for ms in canonical_indices(2, n):
                assert t.value(n, q, ms) == tn_via_trees(A, n, q, ms)


def test_value_symmetric_in_tail():
    A = rand_family(3, S2, 3)
    t = compute_tn(A)
    assert t.value(3, 0, (1, 0, 1)) == t.value(3, 0, (1, 1, 0))


def test_triangular_dependence_on_A():
    base = rand_family(4, S2, 3)
    bumped = RootedSeriesFamily.from_function(
        S2,
        3,
        lambda n, q, ms: base.value(n, q, ms) + (Fraction(1, 2) if n == 3 else 0),
    )
    t0 = compute_tn(base)
    t1 = compute_tn(bumped)
    for n in range(3):
        assert t0.coeffs[n] == t1.coeffs[n]
    assert t0.coeffs[3] != t1.coeffs[3]


def test_nonzero_constant_slice_rejected():
    bad = RootedSeriesFamily.from_function(S2, 2, lambda n, q, ms: Fraction(1))
    with pytest.raises(DomainError):
        compute_tn(bad)


def test_enumerate_bounds():
    with pytest.raises(DomainError):
        list(enumerate_enriched_trees(0))
    with pytest.raises(CapabilityError):
        list(enumerate_enriched_trees(6))


# ---------------------------------------------------------------------------
# fixed-point residuals


def test_fixed_point_random_families():
    for seed in (6, 7):
        A = rand_family(seed, S2, 4)
        t = compute_tn(A)
        rep = verify_FP(A, t)
        assert rep.exact and rep.max_abs == 0
        assert rep.per_order == {n: 0 for n in range(5)}
        repp = verify_FPprime(A, t)
        assert repp.exact and repp.max_abs == 0


def test_fixed_point_zero_family():
    A = RootedSeriesFamily.from_function(S2, 3, lambda n, q, ms: Fraction(0))
    t = compute_tn(A)
    assert verify_FP(A, t).max_abs == 0
    assert all(v == 0 for n in range(1, 4) for v in t.coeffs[n].values())


def test_fixed_point_hard_core():
    space = SpeciesSpace.uniform(1)
    mayer = MayerMatrices.from_f(space, [[Fraction(-1)]], exact=True)
    A = build_A_family(space, mayer, 3)
    t = compute_tn(A)
    assert verify_FP(A, t).max_abs == 0
    assert verify_FPprime(A, t).max_abs == 0


def test_report_serialization():
    A = rand_family(8, S2, 2)
    rep = verify_FP(A, compute_tn(A))
    d = rep.to_dict()
    assert d["name"] == "fixed_point"
    assert d["exact"] is True


# ---------------------------------------------------------------------------
# evaluation and majorant certificates


def test_eval_T_at_zero_is_one():
    t = compute_tn(rand_family(9, S2, 3))
    nu = MeasureVec.constant(S2, Fraction(0))
    assert eval_T(t, nu) == [1, 1]


def test_eval_T_matches_series_route():
    t = compute_tn(ones_family(S1, 3))
    nu = MeasureVec.constant(S1, Fraction(1, 10))
    assert eval_T(t, nu) == [Fraction(6749, 6000)]
    series = t.root_series(0)
    assert series.evaluate(nu) == eval_T(t, nu)[0]


def test_eval_T_all_roots_at_once():
    t = compute_tn(rand_family(12, S2, 3))
    nu = MeasureVec(S2, (Fraction(1, 7), Fraction(-1, 9)))
    assert eval_T(t, nu) == [t.root_series(q).evaluate(nu) for q in range(2)]


def test_eval_T_abs_certificate():
    t = compute_tn(ones_family(S1, 3))
    nu = MeasureVec.constant(S1, Fraction(1, 10))
    cert = eval_T_abs(t, nu, [1.0])
    assert cert.condition == "Mb"
    assert cert.passed
    exp_sum = float(Fraction(6749, 6000))
    assert abs(cert.extras["sums"][0] - exp_sum) < 1e-12
    assert abs(cert.margins[0] - (math.e - exp_sum)) < 1e-12
    assert abs(cert.extras["implied_b"][0] - math.log(exp_sum)) < 1e-12

    tight = eval_T_abs(t, nu, [0.1])
    assert not tight.passed
    assert tight.worst_margin < 0


def test_eval_T_abs_uses_absolute_coefficients():
    t = compute_tn(rand_family(10, S1, 3))
    val = Fraction(1, 8)
    nu = MeasureVec.constant(S1, val)
    cert = eval_T_abs(t, nu, [2.0])
    expect = sum(
        Fraction(abs(t.value(n, 0, (0,) * n)) * val**n, math.factorial(n))
        for n in range(4)
    )
    assert abs(cert.extras["sums"][0] - float(expect)) < 1e-12


# ---------------------------------------------------------------------------
# exponential families


def test_exp_family_orders():
    A = ones_family(S1, 3)
    E = exp_family(A)
    assert E.value(0, 0, ()) == 1
    assert E.value(1, 0, (0,)) == -1
    assert E.value(2, 0, (0, 0)) == 0
    P = exp_series(A)
    assert P.value(1, 0, (0,)) == 1
    assert P.value(2, 0, (0, 0)) == 2


def test_exp_family_signs_multiply_to_unit():
    A = rand_family(11, S2, 3)
    plus = exp_series(A)
    minus = exp_family(A)
    one = FormalSeries.unit(S2, 3)
    for q in range(2):
        assert mul(plus.root_series(q), minus.root_series(q)) == one


def test_residual_report_types_and_nan():
    def fam(fn):
        return RootedSeriesFamily.from_function(S2, 2, fn)

    def bump(X, key, by):
        # X with one coefficient of order len(key[1]) moved by ``by``
        return fam(lambda n, q, ms: X.value(n, q, ms) + by if (q, ms) == key else X.value(n, q, ms))

    # equal exact families: the literal int 0 everywhere, and exact
    thirds = fam(lambda n, q, ms: Fraction(n + q + sum(ms), 3))
    rep = residual_report("same", (thirds, fam(lambda n, q, ms: Fraction(n + q + sum(ms), 3))))
    assert rep.exact and type(rep.max_abs) is int and rep.max_abs == 0
    assert all(type(v) is int and v == 0 for v in rep.per_order.values())
    # a Fraction delta gives a Fraction, int-only deltas an int, and the
    # first largest delta of an order keeps its type
    ints = fam(lambda n, q, ms: n - q)
    rep = residual_report(
        "typed",
        (thirds, bump(thirds, (1, (0,)), Fraction(1, 2))),
        (ints, bump(ints, (0, (1,)), 2)),
        (ints, bump(ints, (1, (0, 1)), -3)),
    )
    assert not rep.exact
    assert rep.per_order == {0: 0, 1: 2, 2: 3} and rep.max_abs == 3
    assert [type(rep.per_order[n]) for n in range(3)] == [int, int, int]
    rep = residual_report("fraction", (thirds, bump(thirds, (1, (0,)), Fraction(1, 2))))
    assert rep.per_order[1] == Fraction(1, 2) and type(rep.max_abs) is Fraction
    # float deltas give floats
    halves = fam(lambda n, q, ms: 0.5 * (n + q))
    rep = residual_report("float", (halves, bump(halves, (0, (0, 0)), 0.25)))
    assert rep.per_order[2] == 0.25 and type(rep.max_abs) is float
    # a NaN delta makes its order's maximum, and the overall one, NaN, even
    # beside a larger finite delta and in a later pair
    rep = residual_report(
        "nan",
        (halves, bump(halves, (1, (1,)), math.nan)),
        (halves, bump(halves, (1, (1,)), 100.0)),
        (halves, bump(halves, (1, (1, 1)), 7.0)),
    )
    assert math.isnan(rep.per_order[1]) and math.isnan(rep.max_abs)
    assert rep.per_order[2] == 7.0 and not rep.exact


def test_roundtrip_request_reports_nan_residuals():
    # exp(700) leaves the float range: mul(E, compose_measure(T, E)) holds
    # NaN coefficients, which the report must not read as 0
    state = {
        "beta": 1.0,
        "species": [{"id": 0, "weight": 1}, {"id": 1, "weight": 1}],
        "potential": {"kind": "matrix", "params": {"v": [[-700, 0], [0, -700]]}},
    }
    (res,) = run_request({"state": state, "op": "roundtrip", "N": 4})["residuals"]
    assert not res["exact"] and math.isnan(res["max_abs"])
    assert math.isnan(res["per_order"]["4"])
