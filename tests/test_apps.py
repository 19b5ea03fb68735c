"""Tests for the worked settings: grid inversion, hard-sphere mixtures,
rods with discrete orientations, and the unbounded-mixture demo.

Cross-checks used here: the flat (f == 0) kernel must reduce the grid
inversion to log z0 - log rho exactly; recovered potentials must reproduce
the target density through the exact finite-volume density; the mixture
triangle integral is a closed form, checked against QUADPACK quadrature of
the lens volume and doubling as a route to the second hard-sphere virial
coefficient, compared against Monte Carlo.
"""

import math
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from virialkit import apps
from virialkit.apps import (
    GridProfile,
    MixtureSpec,
    RodSystem,
    invert_mixture,
    invert_profile,
    profile_state,
    rod_excluded_area,
    rods_free_energy,
    triangle_integral,
    unbounded_mixture_demo,
)
from virialkit.errors import (
    CapabilityError,
    CertificateError,
    DomainError,
    StructureError,
)
from virialkit.homogeneous import HomogeneousModel, _overlap_length_1d, beta_n_mc, vol_ball
from virialkit.inversion import density_exact
from virialkit.oracles import lens_volume, rod_excluded_area_mc, triangle_integral_quad

FIXDIR = apps.__file__.replace("apps.py", "fixtures/")
ROD_KERNEL = {"kind": "hard_rod", "params": {"length": 1.5}}


# ---------------------------------------------------------------------------
# grid inversion


def test_grid_profile_validation():
    with pytest.raises(StructureError):
        GridProfile(points=[0.0, 1.0], cell_volumes=[1.0], rho=[0.1, 0.1])
    with pytest.raises(DomainError):
        GridProfile(points=[0.0], cell_volumes=[0.0], rho=[0.1])
    with pytest.raises(DomainError):
        GridProfile(points=[0.0], cell_volumes=[1.0], rho=[-0.1])


def test_profile_state_structure():
    gp = GridProfile.from_json(FIXDIR + "grid_profile.json")
    st = profile_state(gp, ROD_KERNEL, N=3)
    assert st.space.size == 3
    assert st.space.weights == tuple(gp.cell_volumes)
    assert st.space.payload(0)["position"] == 0.0
    big = GridProfile(
        points=[float(i) for i in range(11)],
        cell_volumes=[1.0] * 11,
        rho=[0.01] * 11,
    )
    with pytest.raises(CapabilityError):
        profile_state(big, ROD_KERNEL, N=3)
    assert profile_state(big, ROD_KERNEL, N=2).space.size == 11


def test_invert_profile_fixture_roundtrip():
    gp = GridProfile.from_json(FIXDIR + "grid_profile.json")
    out = invert_profile(gp, ROD_KERNEL, N=3)
    cert = out["certificate"]
    assert cert.condition == "Sab" and cert.passed
    bv = out["beta_v"]
    assert bv[0] == bv[2]  # mirror-symmetric profile
    assert out["v_ext"] == bv  # beta = 1
    # the recovered potential must reproduce the target density through
    # the exact finite-volume density (agreement up to the truncation tail)
    st = profile_state(gp, ROD_KERNEL, N=3)
    z = [gp.z0 * math.exp(-v) for v in bv]
    for q in range(3):
        assert abs(density_exact(st, z)[q] - gp.rho[q]) < 1e-6


def test_invert_profile_flat_kernel_is_pure_log_ratio():
    gp = GridProfile(
        points=[0.0, 1.0, 2.0],
        cell_volumes=[1.0] * 3,
        rho=[0.1, 0.2, 0.0],
        z0=2.0,
    )
    flat = {"kind": "matrix", "params": {"v": [[0.0] * 3] * 3}}
    out = invert_profile(gp, flat, N=3)
    assert out["beta_v"][0] == math.log(2.0) - math.log(0.1)
    assert out["beta_v"][1] == math.log(2.0) - math.log(0.2)
    assert out["beta_v"][2] == math.inf  # zero density needs infinite repulsion


def test_invert_profile_periodic_constant_density():
    ring = GridProfile(
        points=[0.0, 1.0, 2.0, 3.0], cell_volumes=[1.0] * 4, rho=[0.03] * 4
    )
    kern = {"kind": "hard_rod", "params": {"length": 1.5, "period": 4.0}}
    out = invert_profile(ring, kern, N=3)
    bv = out["beta_v"]
    assert max(bv) - min(bv) == 0.0  # translation invariance, exactly
    st = profile_state(ring, kern, N=3)
    z = [math.exp(-v) for v in bv]
    assert abs(density_exact(st, z)[0] - 0.03) < 1e-6


def test_invert_profile_refuses_uncertified_density():
    gp = GridProfile(points=[0.0, 1.0, 2.0], cell_volumes=[1.0] * 3, rho=[0.5] * 3)
    with pytest.raises(CertificateError) as exc:
        invert_profile(gp, ROD_KERNEL, N=3)
    cert = exc.value.certificate
    assert not cert.passed
    assert cert.worst_margin < 0
    assert "margin" in str(exc.value)


# ---------------------------------------------------------------------------
# mixtures


def test_lens_volume():
    assert abs(lens_volume(3, 1.0, 1.0, 1.0) - 5 * math.pi / 12) < 1e-15
    assert abs(lens_volume(2, 1.0, 1.0, 1.0) - (2 * math.pi / 3 - math.sqrt(3) / 2)) < 1e-12
    assert lens_volume(3, 1.0, 1.0, 2.5) == 0.0
    assert lens_volume(3, 1.0, 2.0, 0.5) == vol_ball(3, 1.0)  # containment
    with pytest.raises(CapabilityError):
        lens_volume(4, 1.0, 1.0, 1.0)


def test_triangle_integral_one_dimension_exact():
    got = triangle_integral(1, Fraction(1), Fraction(1), Fraction(3, 2))
    assert got == _overlap_length_1d(Fraction(1), Fraction(1), Fraction(3, 2))
    assert got == Fraction(15, 4)
    assert triangle_integral(1, 1, 1, 3) == 4


def test_triangle_integral_limits():
    # distant third constraint is inactive: product of ball volumes
    far = triangle_integral(3, 1.0, 1.0, 2.0)
    assert abs(far - vol_ball(3, 1.0) ** 2) < 1e-8
    # shrinking r12 kills the volume
    assert triangle_integral(3, 1.0, 1.0, 1e-3) < 1e-6
    # symmetry under swapping the two satellite constraints
    a = triangle_integral(2, 0.8, 1.3, 1.0)
    b = triangle_integral(2, 1.3, 0.8, 1.0)
    assert abs(a - b) < 1e-8
    with pytest.raises(CapabilityError):
        triangle_integral(4, 1.0, 1.0, 1.0)


def test_triangle_integral_gives_second_virial():
    # for unit exclusion distance, beta_2 = -(1/2) * triangle volume;
    # quadrature here, Monte Carlo in the homogeneous module
    tri = triangle_integral(3, 1.0, 1.0, 1.0)
    assert abs(tri - 5 * math.pi**2 / 6) < 1e-8
    est = beta_n_mc(HomogeneousModel.hard_sphere(3, radius=0.5), 2, samples=100000, seed=11)
    assert abs(-tri / 2 - est.value) <= 3 * est.stderr


@st.composite
def triangle_radii(draw):
    """(r01, r02, r12) with r01 below |r02 - r12|, inside the lens range,
    beyond r02 + r12, or within four ulps of either breakpoint."""
    b = draw(st.floats(0.05, 5.0))
    c = draw(st.floats(0.05, 5.0))
    lo, hi = abs(b - c), b + c
    regime = draw(st.sampled_from(["below", "inside", "beyond", "near_lo", "near_hi"]))
    if regime == "below":
        a = lo * draw(st.floats(0.01, 1.0))
    elif regime == "inside":
        a = lo + (hi - lo) * draw(st.floats(0.0, 1.0))
    elif regime == "beyond":
        a = hi * draw(st.floats(1.0, 2.0))
    else:
        a = lo if regime == "near_lo" else hi
        steps = draw(st.integers(-4, 4))
        for _ in range(abs(steps)):
            a = math.nextafter(a, math.copysign(math.inf, steps))
    assume(a > 1e-12)  # the quadrature's lens volume divides by 2 t r02
    return a, b, c


# quad at epsrel 1e-13 is exact on the d = 3 polynomial pieces.  In d = 2 the
# (t - t0)^(3/2) corners of the lens area cost it up to ~2e-10, and it warns
# that 1e-13 is out of reach; the tolerance below is set by that error.
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@settings(max_examples=150, deadline=None)
@given(triangle_radii())
def test_triangle_integral_matches_quadrature(radii):
    for d, rel in ((2, 1e-9), (3, 1e-13)):
        want = triangle_integral_quad(d, *radii)
        assert triangle_integral(d, *radii) == pytest.approx(want, rel=rel, abs=0)


@settings(max_examples=100, deadline=None)
@given(triangle_radii())
def test_triangle_integral_is_symmetric(radii):
    # the volume is symmetric in the three radii, and so is every float
    for d in (2, 3):
        assert len({triangle_integral(d, *p) for p in permutations(radii)}) == 1


def test_triangle_integral_implied_constraint_is_two_balls():
    for b, c in ((1.0, 1.0), (0.75, 1.25), (0.5, 3.0)):
        for a in (b + c, math.nextafter(b + c, math.inf), 2 * (b + c)):
            assert triangle_integral(2, a, b, c) == math.pi**2 * b**2 * c**2
            assert triangle_integral(3, a, b, c) == pytest.approx(
                vol_ball(3, b) * vol_ball(3, c), rel=1e-15
            )


def test_mixture_spec_validation():
    with pytest.raises(StructureError):
        MixtureSpec(radii=[0.5], d=3, rho=[0.1, 0.2])
    with pytest.raises(DomainError):
        MixtureSpec(radii=[0.0], d=3, rho=[0.1])
    with pytest.raises(DomainError):
        MixtureSpec(radii=[0.5], d=3, rho=[-0.1])
    with pytest.raises(StructureError):
        MixtureSpec(radii=[0.5], d=3, rho=[0.1], a=[0.2])
    with pytest.raises(DomainError):
        MixtureSpec(radii=[0.5], d=3, rho=[0.1], a=[0.4], b=[0.2])


def test_invert_mixture_single_species_wiring():
    ms = MixtureSpec(radii=[0.5], d=3, rho=[0.02])
    out = invert_mixture(ms, N=2)
    vol = vol_ball(3, 1.0)
    tri = triangle_integral(3, 1.0, 1.0, 1.0)
    manual = 0.02 * math.exp(vol * 0.02 + tri * 0.02**2 / 2)
    assert abs(out["z"][0] - manual) < 1e-15
    assert out["certificate"].condition == "mix_ab"
    assert "grid search" in out["certificate"].notes
    assert invert_mixture(MixtureSpec(radii=[0.5], d=3, rho=[0.0]), N=2)["z"] == [0.0]


def test_invert_mixture_1d_first_order():
    ms = MixtureSpec(radii=[0.5, 1.0], d=1, rho=[0.02, 0.01])
    out = invert_mixture(ms, N=1)
    manual = [
        ms.rho[k]
        * math.exp(sum(2 * (ms.radii[k] + ms.radii[l]) * ms.rho[l] for l in range(2)))
        for k in range(2)
    ]
    assert max(abs(a - b) for a, b in zip(out["z"], manual)) < 1e-15


def test_invert_mixture_fixture_third_order():
    ms = MixtureSpec.from_json(FIXDIR + "mixture_spheres.json")
    out = invert_mixture(ms, N=3, samples=20000, seed=1)
    # 2 roots x 4 unordered triples of species
    assert len(out["mc_integrals"]) == 8
    assert all(err >= 0 for (_, _, _, err) in out["mc_integrals"])
    again = invert_mixture(ms, N=3, samples=20000, seed=1, threads=4)
    assert again["z"] == out["z"]  # deterministic across thread counts
    pair_only = invert_mixture(ms, N=2)
    assert max(abs(a - b) for a, b in zip(out["z"], pair_only["z"])) < 1e-3
    with pytest.raises(CapabilityError):
        invert_mixture(ms, N=4)


def test_invert_mixture_refuses_dense_mixture():
    ms = MixtureSpec(radii=[0.5, 1.0], d=1, rho=[0.05, 0.02])
    with pytest.raises(CertificateError) as exc:
        invert_mixture(ms, N=1)
    assert exc.value.certificate.worst_margin < 0


# ---------------------------------------------------------------------------
# rods


def test_rod_excluded_area():
    assert rod_excluded_area(1.0, math.pi / 2) == 1.0
    assert rod_excluded_area(2.0, math.pi / 6) == pytest.approx(2.0, abs=1e-12)
    assert rod_excluded_area(1.0, 0.0) == 0.0
    est, err = rod_excluded_area_mc(1.0, 0.7, samples=60000, seed=4)
    assert abs(est - math.sin(0.7)) <= 3 * err


def test_rod_system_validation():
    with pytest.raises(StructureError):
        RodSystem(rho0=0.1, length=1.0, angles=[0.0], probs=[0.5, 0.5])
    with pytest.raises(DomainError):
        RodSystem(rho0=0.1, length=1.0, angles=[0.0, 1.0], probs=[1.5, -0.5])
    with pytest.raises(DomainError):
        RodSystem(rho0=0.1, length=1.0, angles=[0.0, 1.0], probs=[0.4, 0.4])
    with pytest.raises(DomainError):
        RodSystem(rho0=0.1, length=0.0, angles=[0.0], probs=[1.0])


def test_rods_free_energy_fixture():
    rs = RodSystem.from_json(FIXDIR + "rod_grid.json")
    out = rods_free_energy(rs, N=3, samples=20000, seed=2)
    terms = out["terms"]
    assert abs(terms["ideal"] - 0.05 * (math.log(0.05) - 1)) < 1e-15
    assert abs(terms["orientation_entropy"] - 0.05 * math.log(0.5)) < 1e-15
    assert abs(terms["order2"] - 0.000625) < 1e-15
    # with two orientations every triple repeats an angle, and parallel thin
    # rods never cross, so the third-order integrand vanishes identically
    assert terms["order3"] == 0.0
    assert terms["order3_stderr"] == 0.0
    named = sum(v for k, v in terms.items() if not k.endswith("_stderr"))
    assert out["total"] == named
    cert = out["certificate"]
    assert cert.condition == "rod_2e" and cert.passed
    assert cert.extras["sup"] == 0.5  # perpendicular partner, unit length


def test_rods_free_energy_degenerate_orientations():
    single = rods_free_energy(
        RodSystem(rho0=0.05, length=1.0, angles=[0.4], probs=[1.0]),
        N=3,
        samples=2000,
        seed=0,
    )
    assert single["total"] == single["terms"]["ideal"]
    pair = rods_free_energy(
        RodSystem(rho0=0.05, length=1.0, angles=[0.3, 0.3], probs=[0.5, 0.5]),
        N=2,
    )
    assert pair["terms"]["orientation_entropy"] == 0.05 * math.log(0.5)
    assert pair["terms"]["order2"] == 0.0


def test_rods_free_energy_refusals():
    rs = RodSystem.from_json(FIXDIR + "rod_grid.json")
    with pytest.raises(CapabilityError):
        rods_free_energy(rs, N=4)
    dense = RodSystem(rho0=1.0, length=1.0, angles=rs.angles, probs=rs.probs)
    with pytest.raises(CertificateError) as exc:
        rods_free_energy(dense, N=2)
    assert exc.value.certificate.extras["sup"] == 0.5


# ---------------------------------------------------------------------------
# unbounded mixture


def test_unbounded_mixture_demo_defaults():
    out = unbounded_mixture_demo()
    rows = out["rows"]
    assert [r["k"] for r in rows] == [1, 2, 3]
    # ratios |rho_k / z_k| = exp(k |z_1|) grow with k
    assert rows[2]["ratio"] == math.exp(0.3)
    assert rows[1]["ratio"] == math.exp(0.2)
    assert out["roundtrip_error"] < 1e-12
    cert = out["certificate"]
    assert cert.passed
    assert cert.margins == (0.9, 1.8, 2.7)  # k (c - |z1|)
    assert cert.b == (1.0, 2.0, 3.0)
    assert "unweighted" in out["narrative"]


def test_unbounded_mixture_demo_identity_and_failure():
    flat = unbounded_mixture_demo(z1=0.0)
    assert all(r["z"] == r["rho"] for r in flat["rows"])
    assert flat["roundtrip_error"] == 0.0
    weak = unbounded_mixture_demo(weight_slope=0.05)
    assert not weak["certificate"].passed
    assert all(m < 0 for m in weak["certificate"].margins)
