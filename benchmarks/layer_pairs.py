"""Alternating parent/change runs of the layer cells, as JSON lines.

    python3 benchmarks/layer_pairs.py PARENT [--rounds R] [--layer LAYER ...] [--shape S,N ...]

PARENT is any git revision; its committed files are exported with ``git
archive`` into a fresh temporary directory (``TMPDIR`` decides where).  The
change is the source of this checkout, ``src/`` as it is on disk.  A cell is
one (mode, layer, S, N) cell of the exact and float grids of
``benchmarks/layer_times.py`` (``GRIDS``): the layer on the mode's state at
one (S, N), the rational state in exact mode and the soft float state in
float mode.  By default every cell of both grids runs, exact grid first;
``--layer`` keeps the layers given, and ``--shape`` replaces each mode's
shapes with the given ones, run in each mode whose grid lists the layer.
Each cell runs R rounds (default 5).
A round times the cell once per side, each in a fresh interpreter running
``layer_times.time_cell`` (the cold time, then the median warm time over
0.2 s of calls on fresh states of the same recipe, each timed call after
emptying every memo of values of f that that side's virialkit has, so that
both sides build their graph sums), the parent
first in even rounds and the change first in odd ones, so that a drift of
the machine's speed falls on both sides.  Both sides run the timing code of
this checkout; only the imported virialkit differs.  The script prints one
line per cell:

    {"mode": ..., "layer": ..., "S": ..., "N": ..., "rounds": R,
     "parent": {"seconds": cold median, "warm": median of the rounds' warm times,
                "runs": [cold times], "warm_runs": [warm times]},
     "change": {...}, "ratio": {"seconds": change / parent, "warm": ...},
     "wins": {"seconds": rounds in which the change was faster cold,
              "warm": ... warm}}

A cell that either side refuses prints ``"refused"`` with that side's error
message in place of the times.  A shape beyond the desk ceiling needs no
setting, as the exact states are built with ``allow_large=True``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
from pathlib import Path

import bench_pairs
import layer_times

ROUNDS = 5
TIMES = ("seconds", "warm")


def shape(text):
    S, N = (int(x) for x in text.split(","))
    return S, N


def cells(layers, shapes):
    """The (mode, layer, S, N) cells to run, exact grid first: the given
    layers (all when None), each at the given shapes (the mode's own when
    None)."""
    for mode, grid in layer_times.GRIDS.items():
        for layer in grid:
            if layers is None or layer in layers:
                for S, N in shapes or layer_times.SHAPES[mode]:
                    yield mode, layer, S, N


def run_cell(mode, layer, S, N, rounds, srcs):
    """The cell's line, from ``rounds`` alternating rounds on the two sources."""
    code = f"import layer_times; layer_times.time_cell({mode!r}, {layer!r}, {S}, {N})"
    cell = {"mode": mode, "layer": layer, "S": S, "N": N, "rounds": rounds}
    runs = {side: {key: [] for key in TIMES} for side in srcs}
    for k in range(rounds):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            out = layer_times.fresh(code, srcs[side])
            if "refused" in out:
                return {**cell, "refused": f"{side}: {out['refused']}"}
            for key in TIMES:
                runs[side][key].append(out[key])
    for side, r in runs.items():
        cell[side] = {"seconds": statistics.median(r["seconds"]), "warm": statistics.median(r["warm"]),
                      "runs": r["seconds"], "warm_runs": r["warm"]}
    cell["ratio"] = {key: cell["change"][key] / cell["parent"][key] for key in TIMES}
    cell["wins"] = {key: sum(c < p for c, p in zip(runs["change"][key], runs["parent"][key])) for key in TIMES}
    return cell


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="git revision of the parent")
    p.add_argument("--rounds", type=int, default=ROUNDS)
    p.add_argument("--layer", action="append", choices=sorted(layer_times.LAYERS))
    p.add_argument("--shape", action="append", type=shape, help="S,N")
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("rounds must be at least 1")
    commit = bench_pairs.git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    with tempfile.TemporaryDirectory(prefix="layer_pairs-") as tmp:
        parent = Path(tmp) / "parent"
        bench_pairs.export(commit, parent)
        srcs = {"parent": parent / "src", "change": layer_times.SRC}
        for cell in cells(args.layer, args.shape):
            print(json.dumps(run_cell(*cell, args.rounds, srcs)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
