"""Tests for the graph-class scan and Monte Carlo kernels.

The Monte Carlo sums frozen here were produced by the numpy kernels on a
Philox stream with key [7, 0]; the test asserts they are reproduced
bit-for-bit, whatever the dtype and memory layout of the inputs.
"""

import numpy as np

from virialkit import kernels
from virialkit.graphs import class_masks, hard_core_d_table, pair_order
from virialkit.oracles import scan_masks_reference


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
