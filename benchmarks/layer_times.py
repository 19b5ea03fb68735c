"""Per-layer times of exact and float mode on fixed (S, N) grids, as JSON lines.

    python3 benchmarks/layer_times.py

These are the "Layer times (exact mode)" and "Layer times (float mode)"
tables of ROADMAP.md.  An exact cell times one layer on one dense random
rational state, the ``rational_state`` recipe of tests/conftest.py with seed
7 (f = k/16 with k in [-16, 8], weights k/2 with k in [1, 4]), built with
``allow_large=True``.  A float cell times one layer on the soft float state
of the ``float_wide`` benchmark workload (``soft_state`` of
perfbench/workloads.py, variant 0: energies in [-0.3, 1.5] at beta 1,
weights 0.5, 1 or 1.5).  A cell runs in three fresh interpreters.  Each one
builds, untimed, the layers that the timed layer reads (``phi_series`` for
``dissymmetry_check``, which runs at its default order min(N, 5)), then
times that layer once: the cold time, which includes filling the
per-process caches (template and group tables, index arrays).  It then
builds a fresh state of the same recipe and times the layer again in the
same process, over and over, until the timed calls add up to 0.2 s: the
median of these is the warm time, the steady cost.  Every timed call first
empties each memo of values of f that the imported virialkit has: it puts
a new family memo in ``inversion._MEMO``, or, in versions up to c53886a, a
new memo of graph sums and families in ``graphs._MEMO``, or, before those,
clears the family memo ``inversion._FAMILIES`` and the pattern sums
``graphs._PATTERN_SUMS``.  So the call builds its layer, graph sums
included, rather than read what the last call, on the same recipe and
seed, kept, and two versions time the same work; the exact rule's plans
stay kept.  The script prints one line per cell, in table order, exact
table first:

    {"mode": ..., "layer": ..., "S": ..., "N": ..., "seconds": cold median,
     "runs": [three cold times], "warm": warm median, "warm_runs": [three warm times]}

A layer that refuses the shape prints ``"refused"`` with the error message
in place of the times.

A last section times float ``graphs.d_coeff`` on one tuple of n distinct
species, n = 4..7, and float ``graphs.ursell`` likewise at n = 3..6, with
pair entries drawn from [-0.8, 0.4] (seed ``<layer>/<n>``).  Exact
connected sums of one tuple are no production layer (exact phi is log W),
so no exact row is timed.  Each of three fresh interpreters times one
first call, which builds the class or index tables, then calls until at
least half a second has passed, and reports the time per call, the first
call's time and the peak RSS:

    {"mode": "float", "layer": "d_coeff" or "ursell", "n": ...,
     "per_call": median, "runs": [three per-call times], "first_call": median,
     "first_runs": [...], "peak_rss_mb": median, "rss_runs": [...]}

A third section times the float sums against a measure per call, on the
same soft float states at N = 4: ``fps.measure_sums`` of the biconnected
family from order 1 ("D", the sum of ``zeta_of_nu``'s biconnected path) and
of the tree family ("t", ``eval_T``), and ``fps._majorant_sums`` of the
activity family from order 1 ("A", ``check_Sb``), at a measure of entries
in [0.01, 0.05] (seed ``measure_sums/<S>``).  Each of three fresh
interpreters builds the family and makes one call untimed, then calls until
at least half a second has passed:

    {"mode": "float", "layer": "measure_sums" or "_majorant_sums",
     "family": ..., "S": ..., "per_call": median, "runs": [three per-call times]}

A fourth section times one grid-search certificate per call (no weights
given, so every constant of ``certs.AB_GRID`` is tried): ``check_PU``,
``check_Sb`` and ``check_Sab`` on the exact state above at (3, 5) and on the
soft float states at N = 4, S = 8, 10 and 12, at a measure of entries k/100,
k in [1, 5], and in [0.01, 0.05] (seed ``certificates/<mode>/<S>``).  Each
of three fresh interpreters builds the state and its activity family, makes
one call untimed, then calls until at least half a second has passed:

    {"mode": ..., "layer": "check_PU", "check_Sb" or "check_Sab", "S": ...,
     "N": ..., "per_call": median, "runs": [three per-call times]}

A last section, ``tables``, times the index tables of the float column
rule: the first build of ``fps._order_index(S, n)`` and ``fps._order_plan(S,
n)``, one after the other, in a fresh interpreter that has imported
virialkit, at S = 8, 10 and 12 and n = 1..5.  A cold float cell above pays
for these builds inside its timed call.  A cell runs in three fresh
interpreters:

    {"mode": "float", "layer": "tables", "S": ..., "n": ...,
     "seconds": median, "runs": [three first-build times]}

``d_family`` at S=3, N=6 takes about ten seconds per run, and the whole
script takes about three and a half minutes.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SHAPES = {"exact": ((3, 4), (4, 4), (3, 5), (3, 6), (2, 7)), "float": ((8, 4), (10, 4), (12, 4))}
SEED = 7
RUNS = 3
# seconds of timed calls that the warm time of a cell takes its median over
WARM_SECONDS = 0.2

# layer -> (the GCState layers built untimed first, the timed call)
LAYERS = {
    "a_family": ((), lambda st, inv: st.a_family),
    "phi_series": ((), lambda st, inv: st.phi_series),
    "t_family": (("a_family",), lambda st, inv: st.t_family),
    "e_family": (("a_family",), lambda st, inv: st.e_family),
    "extract_d_from_a": (("a_family", "e_family"), lambda st, inv: inv.extract_d_from_a(st)),
    "d_family": ((), lambda st, inv: st.d_family),
    "roundtrip_check": (("t_family", "e_family"), lambda st, inv: inv.roundtrip_check(st)),
    "dissymmetry_check": (("phi_series",), lambda st, inv: inv.dissymmetry_check(st)),
}
FLOAT_LAYERS = (
    "a_family", "phi_series", "t_family", "e_family", "extract_d_from_a", "roundtrip_check", "d_family",
    "dissymmetry_check",
)
# mode -> the layers of its grid, in table order
GRIDS = {"exact": tuple(LAYERS), "float": FLOAT_LAYERS}
# (mode, sum) on one tuple -> its sizes n
ONE_TUPLE_SIZES = {
    ("float", "d_coeff"): (4, 5, 6, 7),
    ("float", "ursell"): (3, 4, 5, 6),
}
# family -> (the sum, the GCState family it reads, the first order summed)
SUMS = {
    "D": ("measure_sums", "d_family", 1),
    "t": ("measure_sums", "t_family", 0),
    "A": ("_majorant_sums", "a_family", 1),
}

# (mode, S, N) of the certificate cells, and the checks timed on each
CERT_SHAPES = (("exact", 3, 5), ("float", 8, 4), ("float", 10, 4), ("float", 12, 4))
CERTS = ("check_PU", "check_Sb", "check_Sab")

# (S, n) of the index-table cells
TABLE_SHAPES = tuple((S, n) for S, _ in SHAPES["float"] for n in range(1, 6))


def rational_state(seed, S, N):
    """tests/conftest.py's ``rational_state``, built with allow_large=True."""
    from virialkit.inversion import GCState
    from virialkit.species import MayerMatrices, SpeciesSpace

    r = random.Random(seed)
    f = [[Fraction(0)] * S for _ in range(S)]
    for i in range(S):
        for j in range(i, S):
            f[i][j] = f[j][i] = Fraction(r.randint(-16, 8), 16)
    space = SpeciesSpace.from_weights([Fraction(r.randint(1, 4), 2) for _ in range(S)])
    return GCState(space, mayer=MayerMatrices.from_f(space, f, exact=True), N=N, allow_large=True)


def soft_state(S, N):
    """perfbench/workloads.py's ``soft_state`` float state, variant 0."""
    from virialkit.inversion import GCState
    from virialkit.species import PairPotential, SpeciesSpace

    r = random.Random(f"float_wide/{S}/0")
    v = [[0.0] * S for _ in range(S)]
    for i in range(S):
        for j in range(i, S):
            v[i][j] = v[j][i] = round(r.uniform(-0.3, 1.5), 3)
    space = SpeciesSpace.from_weights([r.choice((0.5, 1.0, 1.5)) for _ in range(S)])
    return GCState(space, pot=PairPotential(space, 1.0, v), N=N)


def time_cell(mode, layer, S, N):
    """Time one layer cold, then warm on fresh states, in this interpreter,
    and print the cold time and the median warm time as JSON."""
    import time

    from virialkit import graphs, inversion
    from virialkit.errors import CapabilityError

    deps, call = LAYERS[layer]

    def empty_memos():
        for module in (inversion, graphs):
            if hasattr(module, "_MEMO"):
                module._MEMO = module._Memo(module.MEMO_BOUND)
        for memo in (getattr(inversion, "_FAMILIES", None), getattr(graphs, "_PATTERN_SUMS", None)):
            if memo is not None:
                memo.clear()

    def timed():
        st = rational_state(SEED, S, N) if mode == "exact" else soft_state(S, N)
        for dep in deps:
            getattr(st, dep)
        empty_memos()
        start = time.perf_counter()
        call(st, inversion)
        return time.perf_counter() - start

    try:
        cold, warm = timed(), []
        while sum(warm) < WARM_SECONDS:
            warm.append(timed())
        out = {"seconds": cold, "warm": statistics.median(warm)}
    except CapabilityError as exc:
        out = {"refused": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(out))


def time_one_tuple(layer, n):
    """Time float graphs.<layer> per call on one n-point tuple in this
    interpreter, after one first call, and print it with the first call's
    time and the peak RSS as JSON."""
    import resource
    import time

    from virialkit import graphs

    fn = getattr(graphs, layer)
    r = random.Random(f"{layer}/{n}")
    f = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            f[i][j] = f[j][i] = r.uniform(-0.8, 0.4)
    xs = tuple(range(n))
    start = time.perf_counter()
    fn(f, xs)
    first = time.perf_counter() - start
    calls, start = 0, time.perf_counter()
    while calls < 3 or time.perf_counter() - start < 0.5:
        fn(f, xs)
        calls += 1
    per_call = (time.perf_counter() - start) / calls
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"per_call": per_call, "first_call": first, "peak_rss_mb": peak_mb}))


def time_sums(family, S):
    """Time one float sum against a measure per call in this interpreter,
    after building its family and one untimed call, and print it as JSON."""
    import time

    from virialkit import fps

    name, layer, start = SUMS[family]
    fn, G = getattr(fps, name), getattr(soft_state(S, 4), layer)
    r = random.Random(f"measure_sums/{S}")
    nu = [round(r.uniform(0.01, 0.05), 4) for _ in range(S)]
    fn(G, nu, start)
    calls, t0 = 0, time.perf_counter()
    while calls < 3 or time.perf_counter() - t0 < 0.5:
        fn(G, nu, start)
        calls += 1
    print(json.dumps({"per_call": (time.perf_counter() - t0) / calls}))


def time_certificate(check, mode, S, N):
    """Time one grid-search certificate per call in this interpreter, after
    building the state's activity family and one untimed call, and print it
    as JSON."""
    import time

    from virialkit import inversion

    fn = getattr(inversion, check)
    st = rational_state(SEED, S, N) if mode == "exact" else soft_state(S, N)
    st.a_family
    r = random.Random(f"certificates/{mode}/{S}")
    if mode == "exact":
        nu = [Fraction(r.randint(1, 5), 100) for _ in range(S)]
    else:
        nu = [round(r.uniform(0.01, 0.05), 4) for _ in range(S)]
    fn(st, nu)
    calls, t0 = 0, time.perf_counter()
    while calls < 3 or time.perf_counter() - t0 < 0.5:
        fn(st, nu)
        calls += 1
    print(json.dumps({"per_call": (time.perf_counter() - t0) / calls}))


def time_tables(S, n):
    """Time the first build of the column rule's index tables of order n
    over S species in this interpreter, and print it as JSON."""
    import time

    from virialkit import fps

    start = time.perf_counter()
    fps._order_index(S, n)
    fps._order_plan(S, n)
    print(json.dumps({"seconds": time.perf_counter() - start}))


def fresh(code, src=SRC):
    """The JSON line that ``code`` prints in a fresh interpreter that
    imports virialkit from ``src``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def run_one_tuple(mode, layer, n):
    """The one-tuple line: per-call, first-call and peak-RSS medians of RUNS
    fresh interpreters."""
    outs = [fresh(f"import layer_times; layer_times.time_one_tuple({layer!r}, {n})") for _ in range(RUNS)]
    runs = [o["per_call"] for o in outs]
    first = [o["first_call"] for o in outs]
    rss = [o["peak_rss_mb"] for o in outs]
    return {
        "mode": mode, "layer": layer, "n": n, "per_call": statistics.median(runs), "runs": runs,
        "first_call": statistics.median(first), "first_runs": first,
        "peak_rss_mb": statistics.median(rss), "rss_runs": rss,
    }


def run_cell(mode, layer, S, N):
    """The cell's line: the cold and warm medians of RUNS fresh
    interpreters, or the refusal."""
    code = f"import layer_times; layer_times.time_cell({mode!r}, {layer!r}, {S}, {N})"
    cell = {"mode": mode, "layer": layer, "S": S, "N": N}
    runs, warm = [], []
    for _ in range(RUNS):
        out = fresh(code)
        if "refused" in out:
            return {**cell, "refused": out["refused"]}
        runs.append(out["seconds"])
        warm.append(out["warm"])
    return {
        **cell, "seconds": statistics.median(runs), "runs": runs,
        "warm": statistics.median(warm), "warm_runs": warm,
    }


def run_sums(family, S):
    """The sums line: the per-call median of RUNS fresh interpreters."""
    runs = [fresh(f"import layer_times; layer_times.time_sums({family!r}, {S})")["per_call"] for _ in range(RUNS)]
    return {
        "mode": "float", "layer": SUMS[family][0], "family": family, "S": S,
        "per_call": statistics.median(runs), "runs": runs,
    }


def run_certificate(check, mode, S, N, src=SRC):
    """The certificate line: the per-call median of RUNS fresh interpreters
    that import virialkit from ``src``."""
    code = f"import layer_times; layer_times.time_certificate({check!r}, {mode!r}, {S}, {N})"
    runs = [fresh(code, src)["per_call"] for _ in range(RUNS)]
    return {"mode": mode, "layer": check, "S": S, "N": N, "per_call": statistics.median(runs), "runs": runs}


def run_tables(S, n, src=SRC):
    """The tables line: the first-build median of RUNS fresh interpreters
    that import virialkit from ``src``."""
    runs = [fresh(f"import layer_times; layer_times.time_tables({S}, {n})", src)["seconds"] for _ in range(RUNS)]
    return {"mode": "float", "layer": "tables", "S": S, "n": n, "seconds": statistics.median(runs), "runs": runs}


def main():
    for mode, layers in GRIDS.items():
        for layer in layers:
            for S, N in SHAPES[mode]:
                print(json.dumps(run_cell(mode, layer, S, N)), flush=True)
    for (mode, layer), sizes in ONE_TUPLE_SIZES.items():
        for n in sizes:
            print(json.dumps(run_one_tuple(mode, layer, n)), flush=True)
    for family in SUMS:
        for S, _ in SHAPES["float"]:
            print(json.dumps(run_sums(family, S)), flush=True)
    for mode, S, N in CERT_SHAPES:
        for check in CERTS:
            print(json.dumps(run_certificate(check, mode, S, N)), flush=True)
    for S, n in TABLE_SHAPES:
        print(json.dumps(run_tables(S, n)), flush=True)


if __name__ == "__main__":
    main()
