"""Hot numeric kernels: graph-class mask scans, Monte Carlo accumulators and
the one Monte Carlo batch estimator.

Every kernel is vectorized numpy over a batch (a chunk of edge masks, or a
batch of sampled configurations).  ``mc_batches`` is the only place that
seeds, schedules and averages Monte Carlo batches.

Conventions:

* Graphs on n vertices are edge bitmasks over the C(n, 2) pairs (i, j),
  i < j, in lexicographic order.
* MC configurations pin vertex 0 at the origin (orientation 0 for rods);
  the kernels turn each sample into a pair-overlap bitmask and accumulate a
  caller-supplied table indexed by that mask.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import DomainError


def backend_name():
    """The kernel implementation, as stamped on benchmark results."""
    return "numpy"


SCAN_CHUNK = 1 << 16


# ---------------------------------------------------------------------------
# Graph-class scans.  mode 0 = connected, 1 = biconnected.


def _scan_chunk(n, pi, pj, start, stop, mode):
    """The qualifying masks in [start, stop), ascending, one vector pass."""
    P = len(pi)
    masks = np.arange(start, stop, dtype=np.int64)
    B = masks.shape[0]
    full = (1 << n) - 1
    adj = np.zeros((n, B), np.int64)
    for p in range(P):
        hit = ((masks >> p) & 1).astype(bool)
        adj[pi[p]][hit] |= 1 << pj[p]
        adj[pj[p]][hit] |= 1 << pi[p]

    def closure(start_bits, excl_bits):
        reach = start_bits.copy()
        frontier = start_bits.copy()
        while frontier.any():
            nxt = np.zeros(B, np.int64)
            for v in range(n):
                sel = ((frontier >> v) & 1).astype(bool)
                nxt[sel] |= adj[v][sel]
            frontier = nxt & excl_bits & ~reach
            reach |= frontier
        return reach

    ones = np.ones(B, np.int64)
    keep = closure(ones, np.full(B, full, np.int64)) == full
    if mode == 1 and n > 2:
        for cut in range(n):
            excl = full & ~(1 << cut)
            s = 1 if cut == 0 else 0
            reach2 = closure(ones * (1 << s), np.full(B, excl, np.int64))
            keep &= reach2 == excl
    return masks[keep]


def scan_masks(n, pi, pj, mode):
    """All qualifying edge masks for graphs on n labeled vertices, ascending."""
    P = len(pi)
    total = 1 << P
    pi = np.asarray(pi, np.int64)
    pj = np.asarray(pj, np.int64)
    pieces = [
        _scan_chunk(n, pi, pj, start, min(start + SCAN_CHUNK, total), mode)
        for start in range(0, total, SCAN_CHUNK)
    ]
    return np.concatenate(pieces) if pieces else np.empty(0, np.int64)


# ---------------------------------------------------------------------------
# Monte Carlo accumulators.  Samples arrive as arrays of free-point
# coordinates; vertex 0 is pinned at the origin.  ``table`` maps a pair
# overlap bitmask to the cluster value at that overlap pattern.


def mc_mask_sum(xs, r2, table):
    """Sum of table[overlap mask] over a batch of point configurations.

    xs has shape [B, k, d] and holds vertices 1..k.  Bit p of a sample's
    mask is set when the p-th pair (i, j), i < j, has squared distance
    below r2[i, j].  Only those C(k+1, 2) pairs are formed, one at a time:
    the difference x_i - x_j, or x_j itself against the pinned vertex 0
    (the square of 0 - x_j is that of x_j), squared and summed over the d
    axes in order by ``einsum``.
    """
    xs = np.ascontiguousarray(xs, np.float64)
    r2 = np.ascontiguousarray(r2, np.float64)
    table = np.ascontiguousarray(table, np.float64)
    B, k, _ = xs.shape
    mask = np.zeros(B, np.int64)
    p = 0
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            diff = xs[:, j - 1] if i == 0 else xs[:, i - 1] - xs[:, j - 1]
            d2 = np.einsum("bt,bt->b", diff, diff)
            mask |= (d2 < r2[i, j]).astype(np.int64) << p
            p += 1
    return float(table[mask].sum())


def mc_rod_mask_sum(centers, angles, length, table):
    """Sum of table[intersection mask] over sampled rod configurations.

    Rod 0 is pinned: center at the origin, angle angles[0].  centers has
    shape [B, m-1, 2] and angles length m.  Only strict crossings count:
    collinear touches have probability zero under continuous sampling.
    """
    centers = np.ascontiguousarray(centers, np.float64)
    angles = np.ascontiguousarray(angles, np.float64)
    table = np.ascontiguousarray(table, np.float64)
    B, k, _ = centers.shape
    m = k + 1
    half = 0.5 * float(length)
    ex = half * np.cos(angles)
    ey = half * np.sin(angles)
    pts = np.concatenate([np.zeros((B, 1, 2)), centers], axis=1)
    mask = np.zeros(B, np.int64)

    def cross(ox, oy, px, py, qx, qy):
        return (px - ox) * (qy - oy) - (py - oy) * (qx - ox)

    p = 0
    for i in range(m):
        a1x = pts[:, i, 0] - ex[i]
        a1y = pts[:, i, 1] - ey[i]
        a2x = pts[:, i, 0] + ex[i]
        a2y = pts[:, i, 1] + ey[i]
        for j in range(i + 1, m):
            b1x = pts[:, j, 0] - ex[j]
            b1y = pts[:, j, 1] - ey[j]
            b2x = pts[:, j, 0] + ex[j]
            b2y = pts[:, j, 1] + ey[j]
            d1 = cross(b1x, b1y, b2x, b2y, a1x, a1y)
            d2 = cross(b1x, b1y, b2x, b2y, a2x, a2y)
            d3 = cross(a1x, a1y, a2x, a2y, b1x, b1y)
            d4 = cross(a1x, a1y, a2x, a2y, b2x, b2y)
            hit = (((d1 > 0) & (d2 < 0)) | ((d1 < 0) & (d2 > 0))) & (
                ((d3 > 0) & (d4 < 0)) | ((d3 < 0) & (d4 > 0))
            )
            mask |= hit.astype(np.int64) << p
            p += 1
    return float(table[mask].sum())


def mc_batches(value, seed, samples, batches, threads, stream=0):
    """Monte Carlo mean and standard error over ``batches`` batches.

    Batch b calls ``value(rng, per_batch)`` once, with per_batch = samples //
    batches and rng drawing from the counter-based Philox substream keyed
    (seed, 1000 * stream + b).  The key alone fixes a batch's draws, so a
    fixed seed gives bit-identical results for any thread count; with
    threads > 1 the batches run on a thread pool.  Returns the mean of the
    batch values and their std(ddof=1) / sqrt(batches).  Fewer samples than
    batches raise DomainError.
    """
    per_batch = samples // batches
    if per_batch < 1:
        raise DomainError("need at least one sample per batch")

    def run(b):
        rng = np.random.Generator(np.random.Philox(key=[seed, 1000 * stream + b]))
        return value(rng, per_batch)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            vals = list(ex.map(run, range(batches)))
    else:
        vals = [run(b) for b in range(batches)]
    arr = np.array(vals)
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(batches))
