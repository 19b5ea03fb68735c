"""Tests for the graph-class scan and Monte Carlo kernels.

The Monte Carlo sums frozen here were produced by the numpy kernels on a
Philox stream with key [7, 0]; the test asserts they are reproduced
bit-for-bit, whatever the dtype and memory layout of the inputs.  The
Monte Carlo routes of the library are frozen the same way, as float.hex.
"""

import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

import virialkit
from virialkit import kernels
from virialkit.apps import MixtureSpec, RodSystem, invert_mixture, rods_free_energy
from virialkit.errors import DomainError
from virialkit.graphs import class_masks, hard_core_d_table, pair_order
from virialkit.homogeneous import HomogeneousModel, beta_n_mc
from virialkit.oracles import rod_excluded_area_mc, scan_masks_reference

FIXDIR = kernels.__file__.replace("kernels.py", "fixtures/")


def pair_arrays(n):
    po = pair_order(n)
    pi = np.array([p[0] for p in po], dtype=np.int64)
    pj = np.array([p[1] for p in po], dtype=np.int64)
    return po, pi, pj


def test_backend_name():
    assert kernels.backend_name() == "numpy"


def test_scan_masks_matches_reference():
    expected_counts = {(3, 0): 4, (4, 0): 38, (5, 0): 728, (3, 1): 1, (4, 1): 10, (5, 1): 238}
    for n in (3, 4, 5):
        po, pi, pj = pair_arrays(n)
        for mode in (0, 1):
            got = kernels.scan_masks(n, pi, pj, mode)
            ref = scan_masks_reference(n, po, mode)
            assert list(got) == list(ref)
            assert len(got) == expected_counts[(n, mode)]
            assert list(got) == sorted(got)


def test_scan_chunk_np_direct():
    po, pi, pj = pair_arrays(4)
    ref = list(scan_masks_reference(4, po, 0))
    lo = list(kernels._scan_chunk(4, pi, pj, 0, 32, 0))
    hi = list(kernels._scan_chunk(4, pi, pj, 32, 64, 0))
    assert lo + hi == ref


def test_scan_masks_chunk_boundaries(monkeypatch):
    po, pi, pj = pair_arrays(5)
    ref = list(kernels.scan_masks(5, pi, pj, 1))
    monkeypatch.setattr(kernels, "SCAN_CHUNK", 64)
    assert list(kernels.scan_masks(5, pi, pj, 1)) == ref


def test_scan_masks_agrees_with_class_masks():
    for n in (3, 4):
        po, pi, pj = pair_arrays(n)
        assert list(kernels.scan_masks(n, pi, pj, 0)) == [
            int(m) for m in class_masks(n, "connected")
        ]
        assert list(kernels.scan_masks(n, pi, pj, 1)) == [
            int(m) for m in class_masks(n, "biconnected")
        ]


def test_frozen_mc_sums_cross_backend():
    rng = np.random.Generator(np.random.Philox(key=[7, 0]))
    xs = rng.uniform(-2.0, 2.0, (50000, 3, 3))
    t4 = hard_core_d_table(4)
    r2 = np.ones((4, 4))
    assert kernels.mc_mask_sum(xs, r2, t4) == -2.0
    # Fortran-ordered samples and a float table give the same bits
    assert kernels.mc_mask_sum(
        np.asfortranarray(xs), r2, t4.astype(np.float64)
    ) == -2.0

    # rod draw continues the same stream
    centers = rng.uniform(-2.0, 2.0, (30000, 2, 2))
    t3 = hard_core_d_table(3)
    angles = np.array([0.0, 0.9, 2.2])
    assert kernels.mc_rod_mask_sum(centers, angles, 1.0, t3) == -41.0
    assert kernels.mc_rod_mask_sum(
        np.asfortranarray(centers), list(angles), 1, t3.astype(np.float64)
    ) == -41.0


def test_mc_mask_sum_known_configurations():
    t2 = hard_core_d_table(2)  # [0, -1]
    r2 = np.ones((2, 2))
    near = np.array([[[0.5, 0.0, 0.0]]])
    far = np.array([[[2.0, 0.0, 0.0]]])
    assert kernels.mc_mask_sum(near, r2, t2) == -1.0
    assert kernels.mc_mask_sum(far, r2, t2) == 0.0
    both = np.concatenate([near, far])
    assert kernels.mc_mask_sum(both, r2, t2) == -1.0


def sampled_r2(x):
    """Squared pair distances of one sample x (vertices 1..k; vertex 0 at
    the origin), each a plain sum over the axes in order."""
    pts = [[0.0] * len(x[0])] + [[float(c) for c in row] for row in x]
    r2 = np.zeros((len(pts), len(pts)))
    for i, p in enumerate(pts):
        for j, q in enumerate(pts):
            acc = 0.0
            for a, b in zip(p, q):
                acc += (a - b) * (a - b)
            r2[i, j] = acc
    return r2


# float.hex of summed mc_mask_sum values, recorded before the kernel formed
# only the i < j pairs
MASK_SUM_GOLDEN = {
    (1, 1): "0x1.3d1910c504a6ap+8",
    (1, 2): "-0x1.5f87253ddbee2p+10",
    (1, 3): "0x1.880f16a4b5beep+8",
    (2, 1): "0x1.6335de862e933p+9",
    (2, 2): "0x1.b7df39c400cf2p+8",
    (2, 3): "-0x1.3e87bf639a6d4p+10",
    (3, 1): "-0x1.6388cfe507974p+12",
    (3, 2): "0x1.0a5165acf7ab8p+8",
    (3, 3): "-0x1.edd0548812aeap+7",
}


def test_mc_mask_sum_golden_on_sampled_boundaries():
    # r2 sits on, and one ulp above, squared distances of samples in the
    # batch, so a squared distance rounded another way (the axis sums in
    # another order, say) flips bits of their masks; the random table
    # weighs every mask differently
    got = {}
    for d in (1, 2, 3):
        for k in (1, 2, 3):
            rng = np.random.Generator(np.random.Philox(key=[11, 10 * d + k]))
            xs = rng.uniform(-1.5, 1.5, (512, k, d))
            table = rng.standard_normal(2 ** (k * (k + 1) // 2))
            total = 0.0
            for s in range(4):
                r2 = sampled_r2(xs[s])
                total += kernels.mc_mask_sum(xs, r2, table)
                total += kernels.mc_mask_sum(xs, np.nextafter(r2, np.inf), table)
            got[d, k] = total.hex()
    assert got == MASK_SUM_GOLDEN


def test_mc_rod_mask_sum_known_configurations():
    t2 = hard_core_d_table(2)
    # vertical rod crossing the pinned horizontal rod
    crossing = np.array([[[0.3, 0.0]]])
    missing = np.array([[[0.6, 0.0]]])
    angles = np.array([0.0, np.pi / 2])
    assert kernels.mc_rod_mask_sum(crossing, angles, 1.0, t2) == -1.0
    assert kernels.mc_rod_mask_sum(missing, angles, 1.0, t2) == 0.0


def test_mc_rod_collinear_touch_not_counted():
    # collinear contact is a null set under continuous sampling and the
    # kernel deliberately uses strict crossings only
    t2 = hard_core_d_table(2)
    angles = np.array([0.0, 0.0])
    touching = np.array([[[1.0, 0.0]]])
    overlapping = np.array([[[0.5, 0.0]]])
    assert kernels.mc_rod_mask_sum(touching, angles, 1.0, t2) == 0.0
    assert kernels.mc_rod_mask_sum(overlapping, angles, 1.0, t2) == 0.0


# ---------------------------------------------------------------------------
# The batch estimator and the Monte Carlo routes built on it


def test_mc_batches_contract():
    def draw(rng, per_batch):
        return float(rng.uniform(size=per_batch).sum()) / per_batch

    one = kernels.mc_batches(draw, 5, 640, 8, threads=1, stream=2)
    assert kernels.mc_batches(draw, 5, 640, 8, threads=3, stream=2) == one
    # batch b of stream s draws from the Philox key (seed, 1000 s + b)
    vals = [
        draw(np.random.Generator(np.random.Philox(key=[5, 2000 + b])), 80)
        for b in range(8)
    ]
    assert one == (float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(8)))
    for samples in (7, 0, -5):
        with pytest.raises(DomainError, match="need at least one sample per batch"):
            kernels.mc_batches(draw, 5, samples, 8, threads=1)


def test_mc_routes_golden():
    # float.hex of every Monte Carlo route, recorded before the routes
    # shared kernels.mc_batches; any change of seeding, batching or
    # arithmetic order shows here as a changed bit
    sphere = HomogeneousModel.hard_sphere(3, radius=0.5)
    for n, value, stderr in (
        (2, "-0x1.095810624dd30p+2", "0x1.ca270c6f7446dp-5"),
        (3, "-0x1.5d867c3ece2a5p+1", "0x1.5d867c3ece2a5p+1"),
    ):
        for threads in (1, 3):
            est = beta_n_mc(sphere, n, samples=32000, seed=3, threads=threads)
            assert (est.value.hex(), est.stderr.hex()) == (value, stderr)
            assert (est.samples, est.batches) == (32000, 64)

    spheres = MixtureSpec.from_json(FIXDIR + "mixture_spheres.json")
    out = invert_mixture(spheres, N=3, samples=6400, seed=2)
    assert [v.hex() for v in out["z"]] == ["0x1.64a6ead49378dp-7", "0x1.7f51bcca88897p-8"]
    assert all(est == err == 0.0 for _, _, est, err in out["mc_integrals"])
    rods_1d = MixtureSpec(radii=[0.5, 0.75], d=1, rho=[0.01, 0.005])
    for threads in (1, 3):
        out = invert_mixture(rods_1d, N=3, samples=6400, seed=2, threads=threads)
        assert [v.hex() for v in out["z"]] == ["0x1.52a5b960a7773p-7", "0x1.553e039681a56p-8"]
        assert [(est.hex(), err.hex()) for _, _, est, err in out["mc_integrals"]] == [
            ("-0x1.f0ccccccccccep+2", "0x1.3981f41940126p-1"),
            ("-0x1.480cccccccccdp+3", "0x1.eec03093c9e03p+0"),
            ("-0x1.fe4cccccccccdp+3", "0x1.f9d364e8b4748p+0"),
            ("-0x1.fe4cccccccccdp+3", "0x1.e48e37449eb71p+0"),
            ("-0x1.322e147ae147bp+3", "0x1.67d04d62d3479p+0"),
            ("-0x1.c3fae147ae148p+3", "0x1.1f0ca53205ec3p+1"),
            ("-0x1.40c28f5c28f5cp+4", "0x1.12bee5822440fp+1"),
            ("-0x1.c055c28f5c290p+4", "0x1.0959ae39be61dp+1"),
        ]

    # two orientations: every triple holds a parallel pair, so order 3 is 0
    grid = RodSystem.from_json(FIXDIR + "rod_grid.json")
    three = RodSystem(
        rho0=0.05, length=1.0, angles=[0.0, math.pi / 3, 2 * math.pi / 3],
        probs=[0.25, 0.25, 0.5],
    )
    for rs, order3, stderr in (
        (grid, "-0x0.0p+0", "0x0.0p+0"),
        (three, "0x1.f75104d551d6cp-20", "0x1.d2d09a7d08fddp-22"),
    ):
        terms = rods_free_energy(rs, N=3, samples=6400, seed=2)["terms"]
        assert (terms["order3"].hex(), terms["order3_stderr"].hex()) == (order3, stderr)

    est, err = rod_excluded_area_mc(1.0, 0.7, samples=3200, seed=4)
    assert (est.hex(), err.hex()) == ("0x1.3e147ae147ae2p-1", "0x1.7e86f937e3b02p-6")


# float.hex recorded before mc_mask_sum formed only the i < j pairs: beta_n
# (value, stderr) for d = 2, 3 and n = 2, 3, and a d = 1 mixture, whose
# order-3 integrals are not zero
BETA_MC_GOLDEN = [
    ("-0x1.713f7ced91687p+1", "0x1.6078c60441946p-6"),
    ("-0x1.5810624dd2f1ap+1", "0x1.62fcc1e35172fp-2"),
    ("-0x1.0810624dd2f1ap+2", "0x1.db9a22b5c97fap-5"),
    ("-0x1.5d867c3ece2a5p+2", "0x1.ea5d5f0273a8cp+1"),
]
MIXTURE_Z_GOLDEN = ["0x1.515a0ab995431p-6", "0x1.57d7e9290beb3p-8"]
MIXTURE_MC_GOLDEN = [
    ("-0x1.b8a3d70a3d70bp-1", "0x1.af4c0d6afe0f3p-4"),
    ("-0x1.0e00000000000p+0", "0x1.41ab45d7f26adp-1"),
    ("-0x1.0e00000000000p+2", "0x1.83f28c3d31504p-1"),
    ("-0x1.c7a0000000000p+2", "0x1.345f416253e50p+0"),
    ("-0x1.5180000000000p+0", "0x1.19b8ac4e39a4bp-1"),
    ("-0x1.2fc0000000000p+2", "0x1.31bd4cc4bc22fp+0"),
    ("-0x1.0590000000000p+3", "0x1.64256dd74d263p+0"),
    ("-0x1.3c68000000000p+4", "0x1.0c4b22b3bcd91p+1"),
]


def test_mc_routes_golden_disks_and_rods():
    got = []
    for d in (2, 3):
        model = HomogeneousModel.hard_sphere(d, radius=0.5)
        for n in (2, 3):
            est = beta_n_mc(model, n, samples=32000, seed=9)
            got.append((est.value.hex(), est.stderr.hex()))
    assert got == BETA_MC_GOLDEN
    rods = MixtureSpec(radii=[0.25, 0.625], d=1, rho=[0.02, 0.005])
    out = invert_mixture(rods, N=3, samples=3200, seed=6)
    assert [v.hex() for v in out["z"]] == MIXTURE_Z_GOLDEN
    integrals = [(est.hex(), err.hex()) for _, _, est, err in out["mc_integrals"]]
    assert integrals == MIXTURE_MC_GOLDEN


def test_batching_lives_in_kernels():
    # seeding and thread scheduling of Monte Carlo batches is decided in
    # kernels.mc_batches alone
    names = [m.name for m in pkgutil.iter_modules(virialkit.__path__)]
    assert "kernels" in names and "apps" in names
    for name in names:
        if name == "kernels":
            continue
        source = inspect.getsource(importlib.import_module(f"virialkit.{name}"))
        assert "ThreadPoolExecutor" not in source, name
        assert "Philox" not in source, name
