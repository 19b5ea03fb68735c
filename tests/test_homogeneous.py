"""Tests for homogeneous-gas bounds, virial tables, and the rod self-test.

The Tonks gas supplies the exact oracle in one dimension: z(rho), beta p,
and the full virial series beta_n = -((n+1)/n) a^n are in closed form, so
both the exact 1D integrals and the ring-discretization route are checked
against it.  Monte Carlo estimates are held to three standard errors.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp

from virialkit import homogeneous as hom
from virialkit.errors import CapabilityError, DomainError
from virialkit.homogeneous import (
    HomogeneousModel,
    INV_2E,
    banach_compare,
    banach_from_samples,
    beta_n_exact_1d,
    beta_n_mc,
    bloch_radii,
    bounds_report,
    grid_beta,
    hom_inversion_selftest,
    k_constant,
    lp_chain,
    neighborhood_radii,
    r_lp,
    r_star,
    ring_mayer,
    tonks_beta_series,
    tonks_oracle,
    tree_fn_T,
    virial_table,
    vol_ball,
)
from virialkit.oracles import k_constant_closed_form, tree_fn_T_bisect

ROD = HomogeneousModel.hard_rod(1.0)
SPHERE = HomogeneousModel.hard_sphere(3, radius=0.5)
DISK = HomogeneousModel.hard_sphere(2, radius=0.5)


def test_vol_ball():
    assert vol_ball(1, 2.0) == 4.0
    assert abs(vol_ball(2, 1.0) - math.pi) < 1e-15
    assert abs(vol_ball(3, 1.0) - 4 * math.pi / 3) < 1e-15


def test_model_constructors():
    assert ROD.c_bar == 2.0 and ROD.B == 0.0 and ROD.Bstar == 0.0
    assert abs(SPHERE.c_bar - 4 * math.pi / 3) < 1e-12
    assert HomogeneousModel.hard_sphere(3, exclusion=1.0).c_bar == SPHERE.c_bar
    assert HomogeneousModel.ideal().c_bar == 0
    with pytest.raises(DomainError):
        HomogeneousModel.hard_sphere(3)
    with pytest.raises(DomainError):
        HomogeneousModel.hard_sphere(3, radius=0.5, exclusion=1.0)


# ---------------------------------------------------------------------------
# Tonks closed forms


def test_tonks_beta_series_law():
    # order 10 is above the desk ceiling: the series must not be capped
    a = Fraction(1)
    assert tonks_beta_series(a, 10) == [Fraction(-(n + 1), n) for n in range(1, 11)]
    a = Fraction(1, 2)
    assert tonks_beta_series(a, 3) == [
        Fraction(-(n + 1), n) * a**n for n in range(1, 4)
    ]


def test_tonks_oracle_values():
    out = tonks_oracle(1, 0.1)
    assert abs(out["z"] - 0.1 / 0.9 * math.exp(0.1 / 0.9)) < 1e-15
    assert abs(out["beta_p"] - 0.1 / 0.9) < 1e-15
    assert tonks_oracle(1, 0.0)["z"] == 0.0
    with pytest.raises(DomainError):
        tonks_oracle(1, 1.0)
    with pytest.raises(DomainError):
        tonks_oracle(1, -0.1)


def test_exact_1d_integrals():
    assert [beta_n_exact_1d(Fraction(1), n) for n in (1, 2, 3)] == [
        Fraction(-2),
        Fraction(-3, 2),
        Fraction(-4, 3),
    ]
    a = Fraction(1, 2)
    assert [beta_n_exact_1d(a, n) for n in (1, 2, 3)] == [
        Fraction(-1),
        Fraction(-3, 8),
        Fraction(-1, 6),
    ]
    with pytest.raises(CapabilityError):
        beta_n_exact_1d(1, 4)


def test_exact_1d_matches_tonks_series():
    for a in (Fraction(1), Fraction(3, 4)):
        series = tonks_beta_series(a, 3)
        assert [beta_n_exact_1d(a, n) for n in (1, 2, 3)] == series


def test_overlap_length_pieces():
    assert hom._overlap_length_1d(1, 1, 1) == 3
    assert hom._overlap_length_1d(1, 1, 3) == 4
    assert hom._overlap_length_1d(Fraction(1), Fraction(1), Fraction(3, 2)) == Fraction(15, 4)
    assert hom._cells_sum(1) == -2
    assert [hom._cells_sum(n) for n in (2, 3, 4)] == [-6, -48, -720]


# ---------------------------------------------------------------------------
# Monte Carlo integrals


def test_mc_first_order_matches_excluded_volume():
    for model, exact in [(DISK, -math.pi), (SPHERE, -4 * math.pi / 3)]:
        est = beta_n_mc(model, 1, samples=40000, seed=2)
        assert abs(est.value - exact) <= 3 * est.stderr
        assert est.stderr > 0


def test_mc_second_order_hard_spheres():
    # beta_2 = -5 pi^2 / 12 at unit exclusion distance
    est = beta_n_mc(SPHERE, 2, samples=200000, seed=5)
    assert abs(est.value - (-5 * math.pi**2 / 12)) <= 3 * est.stderr


def test_mc_determinism_and_threads():
    a = beta_n_mc(DISK, 2, samples=20000, seed=9)
    b = beta_n_mc(DISK, 2, samples=20000, seed=9)
    assert a.value == b.value and a.stderr == b.stderr
    c = beta_n_mc(DISK, 2, samples=20000, seed=9, threads=4)
    assert c.value == a.value  # in-order batch reduction
    d = beta_n_mc(DISK, 2, samples=20000, seed=10)
    assert d.value != a.value


def test_mc_route_bounds():
    with pytest.raises(DomainError):
        beta_n_mc(ROD, 1, samples=1000, seed=0)
    with pytest.raises(CapabilityError):
        beta_n_mc(SPHERE, 4, samples=1000, seed=0)


def test_virial_table_methods():
    rows = virial_table(ROD, 3)
    assert [r.beta_n for r in rows] == [-2.0, -1.5, -4 / 3]
    assert all(r.method == "exact_1d" and r.stderr == 0.0 for r in rows)
    ideal_rows = virial_table(HomogeneousModel.ideal(), 3)
    assert all(r.beta_n == 0 and r.method == "analytic" for r in ideal_rows)
    sph = virial_table(DISK, 2, samples=4096, seed=1)
    assert sph[0].method == "analytic"
    assert abs(sph[0].beta_n - (-math.pi)) < 1e-12
    assert sph[1].method == "mc" and sph[1].stderr > 0


# ---------------------------------------------------------------------------
# fixed-point constants and radii


def test_k_constant():
    k = k_constant()
    assert 0.14476 < k < 0.14478
    assert abs(k - k_constant_closed_form()) < 1e-12
    # k = max_w (2 e^-w - 1) w; stationarity reads 2 e^-w (1 - w) = 1
    from scipy.optimize import brentq

    w_hat = brentq(lambda t: 2 * math.exp(-t) * (1 - t) - 1, 0.2, 0.5)
    assert abs((2 * math.exp(-w_hat) - 1) * w_hat - k) < 1e-10


def test_inv_2e_and_ordering():
    assert 0.1839 < INV_2E < 0.1840
    assert abs(INV_2E - 1 / (2 * math.e)) < 1e-15
    assert INV_2E / k_constant() == pytest.approx(1.2706, abs=5e-4)


def test_r_star_exact_for_rod():
    # c_bar = 2 is a power of two, so the division is exact in floats
    assert r_star(ROD) * ROD.c_bar == INV_2E
    assert r_star(ROD) > r_lp(ROD, 0.0)


def test_tree_function():
    assert tree_fn_T(0.0) == 0.0
    assert abs(tree_fn_T(1 / math.e) - 1.0) < 1e-10
    for i in range(100):
        s = (i / 99) / math.e
        T = tree_fn_T(s)
        assert abs(T - s * math.exp(T)) < 1e-12
        assert abs(T - tree_fn_T_bisect(s)) < 1e-10
    with pytest.raises(DomainError):
        tree_fn_T(-0.01)
    with pytest.raises(DomainError):
        tree_fn_T(1 / math.e + 1e-6)


def test_lp_chain_sup_matches_closed_form():
    for model in (HomogeneousModel.hard_rod(0.5), SPHERE, ROD):
        out = lp_chain(model)
        assert abs(out["sup"] - 1 / (2 * math.e * model.c_bar)) < 1e-8
        assert abs(out["closed_form"] - 1 / (2 * math.e * model.c_bar)) < 1e-15


def test_banach_ratio_is_eight():
    for c in (0.5, 1.0, 3.0):
        out = banach_compare(lambda r, c=c: c * r, 5.0 / c)
        assert abs(out["ratio"] - 8.0) < 1e-6
        assert abs(out["P"] - 1 / (8 * c * math.e)) < 1e-9
        assert abs(out["P_prime"] - 1 / (c * math.e)) < 1e-9
    quad = banach_compare(lambda r: 2.0 * r * r, 3.0)
    assert abs(quad["ratio"] - 8.0) < 1e-6


def test_banach_compare_validation():
    with pytest.raises(DomainError):
        banach_compare(lambda r: r + 1.0, 2.0)
    with pytest.raises(DomainError):
        banach_compare(lambda r: -r, 2.0)
    with pytest.raises(DomainError):
        banach_compare(lambda r: 0.0 * r, 2.0)


def test_banach_from_samples():
    rs = [i * 0.01 for i in range(401)]
    out = banach_from_samples(rs, [1.3 * r for r in rs])
    assert out["ratio"] == 8.0
    assert abs(out["P"] - 1 / (8 * 1.3 * math.e)) < 1e-4
    with pytest.raises(DomainError):
        banach_from_samples([0.1, 0.2], [0.1, 0.2])  # does not start at zero


# ---------------------------------------------------------------------------
# the pure-Python searches against scipy, which stays installed as their oracle

# smooth functions with one sign change at the root r, rising through it
ROOT_SHAPES = {
    "cubic": lambda x, r, c: c * (x - r) + (x - r) ** 3,
    "tanh": lambda x, r, c: math.tanh(c * (x - r)),
    "exp": lambda x, r, c: math.expm1(c * (x - r) / math.sqrt(1.0 + (x - r) ** 2)),
    "atan_shift": lambda x, r, c: math.atan(x - r) * (1.0 + c * x * x),
    "kink": lambda x, r, c: (x - r) * math.exp(-c * abs(x)),
}

# unimodal in u = x/top on (0, 1], the minimum at or near m
MIN_SHAPES = {
    "parabola": lambda u, m: (u - m) ** 2 - 1.0,
    "lp_chain": lambda u, m: -u * math.exp(-u / m),
    "cosh": lambda u, m: math.cosh(3.0 * (u - m)),
    "banach": lambda u, m: -math.exp(-u) * min(u, m),
    "monotone": lambda u, m: m * u,
}


@settings(max_examples=300, deadline=None)
@given(
    shape=hyp.sampled_from(sorted(ROOT_SHAPES)),
    lo=hyp.floats(-50.0, 50.0),
    width=hyp.floats(1e-6, 100.0),
    at=hyp.floats(0.0, 1.0),
    c=hyp.floats(0.01, 20.0),
    xtol=hyp.sampled_from([2e-12, 1e-14]),
    flip=hyp.booleans(),
)
def test_brentq_port_matches_scipy(shape, lo, width, at, c, xtol, flip):
    from scipy.optimize import brentq

    hi = lo + width
    r = lo + at * (hi - lo)
    sign = -1.0 if flip else 1.0

    def f(x):
        return sign * ROOT_SHAPES[shape](x, r, c)

    try:
        want = brentq(f, lo, hi, xtol=xtol)
    except (ValueError, RuntimeError) as exc:
        with pytest.raises(type(exc)):
            hom._brentq(f, lo, hi, xtol)
        return
    got = hom._brentq(f, lo, hi, xtol)
    assert type(got) is float and got.hex() == float(want).hex()


# scipy's bounded search runs on numpy scalars, which warn where its
# interpolation steps overflow
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(
    shape=hyp.sampled_from(sorted(MIN_SHAPES)),
    top_exp=hyp.floats(-300.0, 300.0),
    m=hyp.floats(1e-3, 1.5),
)
def test_bounded_min_port_matches_scipy(shape, top_exp, m):
    from scipy.optimize import minimize_scalar

    top = 10.0**top_exp

    def fn(x):
        # scipy passes numpy scalars; the same arithmetic on Python floats
        return MIN_SHAPES[shape](float(x) / top, m)

    res = minimize_scalar(fn, bounds=(1e-12 * top, top), method="bounded", options={"xatol": 1e-12})
    x, fun = hom._bounded_min(fn, top)
    assert (x.hex(), fun.hex()) == (float(res.x).hex(), float(res.fun).hex())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_bounded_min_port_matches_scipy_on_the_bounds_table():
    from scipy.optimize import brentq, minimize_scalar

    def scipy_min(fn, top):
        res = minimize_scalar(fn, bounds=(1e-12 * top, top), method="bounded", options={"xatol": 1e-12})
        return float(res.x).hex(), float(res.fun).hex()

    for a in (1e-300, 1e-100, 0.25, 1.0, 3.0, 1e100, 1e300):
        cb = HomogeneousModel.hard_rod(a).c_bar

        def fn(r, cb=cb):
            return -float(r) * math.exp(-tree_fn_T(cb * float(r)))

        def m_minus_b(r, cb=cb):
            return cb * r - 0.5

        top = 1.0 / (math.e * cb)
        x, fun = hom._bounded_min(fn, top)
        assert (x.hex(), fun.hex()) == scipy_min(fn, top)
        root = hom._brentq(m_minus_b, 0.0, 5.0 / cb, 1e-14)
        assert root.hex() == brentq(m_minus_b, 0.0, 5.0 / cb, xtol=1e-14).hex()


def test_brentq_port_divides_as_c():
    assert hom._div(1.0, 0.0) == math.inf
    assert hom._div(-1.0, 0.0) == -math.inf
    assert hom._div(1.0, -0.0) == -math.inf
    assert math.isnan(hom._div(0.0, 0.0))
    assert math.isnan(hom._div(math.nan, 0.0))
    assert hom._div(3.0, 2.0) == 1.5
    with pytest.raises(ValueError, match="different signs"):
        hom._brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-14)
    with pytest.raises(ValueError, match="NaN"):
        hom._brentq(lambda x: math.nan if x > 0 else -1.0, -1.0, 1.0, 1e-14)


def test_bloch_radii():
    out = bloch_radii(1.0, 1.0, 1.0)
    assert out["r"] == 0.25 and out["P"] == 0.125
    # r = R^2 a / (4 M), P = a r / 2
    for R, a, M in [(2.0, 1.0, 1.0), (1.0, 2.0, 1.0), (1.0, 1.0, 2.0)]:
        got = bloch_radii(R, a, M)
        assert got["r"] == R * R * a / (4 * M)
        assert got["P"] == a * got["r"] / 2
    with pytest.raises(DomainError):
        bloch_radii(0.0, 1.0, 1.0)


def test_neighborhood_radii():
    nb = neighborhood_radii(ROD)
    cb = ROD.c_bar
    assert abs(nb.inner - math.exp(-1 - 2 / math.e) / cb) < 1e-12
    assert abs(nb.outer - 1 / (2 * math.sqrt(math.e)) / cb) < 1e-12
    assert nb.r_star == r_star(ROD)
    assert nb.ordered and nb.inner < nb.r_star < nb.outer
    half = neighborhood_radii(HomogeneousModel.hard_rod(0.5))
    assert abs(half.inner - 2 * nb.inner) < 1e-12  # scales as 1/c_bar


def test_bounds_report_rows():
    rows = bounds_report(ROD)
    names = [r[0] for r in rows]
    assert names == [
        "k",
        "one_over_2e",
        "r_star",
        "r_lp",
        "nbhd_inner",
        "nbhd_outer",
        "lp_sup",
        "lp_closed_form",
        "banach_ratio",
    ]
    vals = dict((r[0], r[1]) for r in rows)
    assert vals["k"] == k_constant()
    assert vals["one_over_2e"] == INV_2E
    assert vals["r_star"] == r_star(ROD)
    assert abs(vals["banach_ratio"] - 8.0) < 1e-6
    assert abs(vals["lp_sup"] - vals["lp_closed_form"]) < 1e-8


# ---------------------------------------------------------------------------
# ring discretization


def test_ring_mayer_structure():
    my = ring_mayer(1, 3)
    S = my.space.size
    assert S == 12  # 4 cells of 3 sites
    # overlap whenever ring distance is under one rod length
    assert my.f[0][1] == -1
    assert my.f[0][3] == 0
    assert my.f[0][S - 1] == -1  # wraparound neighbor


def test_grid_beta_frozen_values():
    assert [grid_beta(1, k, 1) for k in (3, 6, 12)] == [
        Fraction(-5, 3),
        Fraction(-11, 6),
        Fraction(-23, 12),
    ]
    assert [grid_beta(1, k, 2) for k in (3, 6, 12)] == [
        Fraction(-19, 18),
        Fraction(-91, 72),
        Fraction(-397, 288),
    ]


def test_grid_beta_first_order_convergence():
    exact = {1: Fraction(-2), 2: Fraction(-3, 2)}
    for n in (1, 2):
        errs = [abs(grid_beta(1, k, n) - exact[n]) for k in (3, 6, 12)]
        ratios = [errs[i] / errs[i + 1] for i in range(2)]
        for r in ratios:
            assert 1.8 < float(r) < 2.2
    # order n = 1 halves exactly with the mesh
    assert [abs(grid_beta(1, k, 1) + 2) for k in (3, 6, 12)] == [
        Fraction(1, 3),
        Fraction(1, 6),
        Fraction(1, 12),
    ]


def test_hom_inversion_selftest():
    out = hom_inversion_selftest()
    assert out["eos_matches_exact"]
    assert out["betas_eos"] == [Fraction(-2), Fraction(-3, 2)]
    assert out["betas_exact"] == out["betas_eos"]
    assert out["grid_errors"][1] == [Fraction(1, 3), Fraction(1, 6), Fraction(1, 12)]
    assert out["richardson_ratios"][1] == [2.0, 2.0]
    assert all(1.8 < r < 2.0 for r in out["richardson_ratios"][2])
    assert abs(out["z_series_minus_oracle"]) < 0.01
    assert all(r.method == "eos_inversion" for r in out["rows"])


def test_hom_inversion_selftest_bounds():
    with pytest.raises(DomainError):
        hom_inversion_selftest(model=SPHERE)
    with pytest.raises(CapabilityError):
        hom_inversion_selftest(N=4)
