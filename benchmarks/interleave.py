"""Interleaved in-process A/B of one in-process benchmark workload, as one JSON line.

    python3 benchmarks/interleave.py PARENT WORKLOAD [CYCLES]

PARENT is any git revision; its committed files are exported with ``git
archive`` (``bench_pairs.export``) into a fresh temporary directory
(``TMPDIR`` decides where).  The change is the source of this checkout,
``src/`` as it is on disk.  WORKLOAD is one of the in-process workloads of
``perfbench/workloads.py`` (``identity_exact``, ``requests_exact``,
``float_wide``), and CYCLES the number of cycles per side (default 120).

Three copies of virialkit live in this one process: the parent, the change
and the change again (the twin, for an A/A ratio).  Each is imported once,
every submodule included, and its ``virialkit*`` entries of ``sys.modules``
are set aside; before each side's cycle they are swapped back in, as the
workloads import virialkit inside ``cycle()`` and inside their ops.  Each
side has its own workload of the same seed, so the sides draw the same
inputs in every cycle, and runs its ``warm_up`` once.  A side's cycle is an
untimed ``gc.collect()``, then every op timed with ``time.process_time``,
and its ``check`` run untimed.  The sides run in the order parent, change,
twin in even cycles and the other way round in odd ones, so each pair
alternates which goes first.  A failed check, on any side, ends the script
with exit status 1 and prints no line.  Each side keeps its own per-process
caches, so a cache that fills over the first cycles shows in ``first``.

The line holds per-cycle CPU-time ratios, change / parent (``ratio``) and
twin / change (``aa``), each as {"median", "q1", "q3", "blocks": medians of
consecutive blocks of 20 cycles, "first": the first cycle's ratio}, with
inclusive quartiles (``statistics.quantiles``), and ``cycle_s``, each
side's median CPU seconds per cycle.  It writes no ``BENCH_*.json`` record
and adds to ``bench_pairs.py``, which it does not replace.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import pkgutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import bench_pairs

ROOT = bench_pairs.ROOT
CYCLES = 120
BLOCK = 20
SEED = 1


def is_virialkit(name):
    return name == "virialkit" or name.startswith("virialkit.")


def load(src):
    """A fresh import of the virialkit under ``src``, every submodule
    included, as its ``sys.modules`` entries, which are then taken out of
    ``sys.modules``."""
    sys.path.insert(0, str(src))
    try:
        package = importlib.import_module("virialkit")
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"virialkit.{info.name}")
    finally:
        sys.path.remove(str(src))
    modules = {name: m for name, m in sys.modules.items() if is_virialkit(name)}
    for name in modules:
        del sys.modules[name]
    return modules


def swap_in(modules):
    for name in [name for name in sys.modules if is_virialkit(name)]:
        del sys.modules[name]
    sys.modules.update(modules)


def run_cycle(side, wl):
    """CPU seconds of one cycle of ``wl``; a failed check raises."""
    ops = wl.cycle()
    gc.collect()
    total = 0.0
    for op in ops:
        t0 = time.process_time()
        try:
            out, exc = op.call(), None
        except Exception as e:  # a raised op is checked like any other outcome
            out, exc = None, e
        total += time.process_time() - t0
        try:
            ok = op.check(out, exc)
        except Exception:
            ok = False
        if not ok:
            raise RuntimeError(f"{side}: op {op.slot} failed its check ({type(exc).__name__ if exc else 'output'})")
    return total


def cycles(srcs, workload, count, workloads, refs):
    """Per side, the CPU seconds of each of ``count`` interleaved cycles;
    None after a failed check."""
    sides = {side: (load(src), workloads[workload](SEED, refs)) for side, src in srcs.items()}
    for modules, wl in sides.values():
        swap_in(modules)
        wl.warm_up()
    times = {side: [] for side in sides}
    order = list(sides)
    for k in range(count):
        for side in order if k % 2 == 0 else order[::-1]:
            modules, wl = sides[side]
            swap_in(modules)
            try:
                times[side].append(run_cycle(side, wl))
            except RuntimeError as e:
                print(f"refused: cycle {k + 1}: {e}", file=sys.stderr)
                return None
        if (k + 1) % BLOCK == 0:
            print(f"# {k + 1}/{count} cycles", file=sys.stderr, flush=True)
    return times


def summary(ratios):
    q1, median, q3 = bench_pairs.quartiles(ratios)
    blocks = [statistics.median(ratios[k:k + BLOCK]) for k in range(0, len(ratios), BLOCK)]
    return {"median": median, "q1": q1, "q3": q3, "blocks": blocks, "first": ratios[0]}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="git revision of the parent")
    p.add_argument("workload")
    p.add_argument("cycles", type=int, nargs="?", default=CYCLES)
    args = p.parse_args(argv)
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, load_references

    if args.workload not in WORKLOADS or not WORKLOADS[args.workload].in_process:
        p.error(f"not an in-process workload: {args.workload!r}")
    if args.cycles < 1:
        p.error("cycles must be at least 1")
    commit = bench_pairs.git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    refs = load_references()
    # the parent's copy stays on disk while its modules run: they read their fixtures
    with tempfile.TemporaryDirectory(prefix="interleave-") as tmp:
        bench_pairs.export(commit, Path(tmp) / "parent")
        srcs = {"parent": Path(tmp) / "parent" / "src", "change": ROOT / "src", "twin": ROOT / "src"}
        times = cycles(srcs, args.workload, args.cycles, WORKLOADS, refs)
    if times is None:
        return 1
    line = {
        "workload": args.workload, "parent": commit, "cycles": args.cycles, "seed": SEED,
        "ratio": summary([c / p for c, p in zip(times["change"], times["parent"])]),
        "aa": summary([t / c for t, c in zip(times["twin"], times["change"])]),
        "cycle_s": {side: statistics.median(t) for side, t in times.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
