"""virialkit benchmark: four workloads, end-to-end metrics, per-layer spans.

One workload, untraced (end-to-end metrics) or traced (per-layer metrics):

    python3 perfbench/run.py --workload identity_exact --seed 1 --seconds 15 --trace 0

All four workloads, one table with units and sample counts:

    python3 perfbench/run.py --seed 1 --seconds 15

Every workload once through its cycle, exit 1 on any failed check:

    python3 perfbench/run.py --smoke

Rewrite the recorded reference digests (only after a deliberate change of
the program's outputs):

    python3 perfbench/run.py --record

Load: one client in a closed loop, ``--threads 1`` everywhere, no thread
pool.  The in-process workloads call virialkit from this process;
``cli_batch`` starts one ``python3 -m virialkit.cli`` process per op.  A run
is a fixed number of whole cycles (see workloads.py): as many as fill
``--seconds`` at the cycle time measured on a 2-core x86-64 VM, and at least
the workload's ``min_ops``, so that every run of a workload makes the same
number of ops.

End-to-end metrics (``--trace 0``).  Every timing is a steady time: wall
time scaled by a speed probe taken around it (see SpeedMeter), because the
machine's own speed drifts by more than the bounds; the raw wall times are
printed beside them and kept in the result file.

    setup_s      median over three fresh interpreters of the time until the
                 first op is ready: import of virialkit and virialkit.cli,
                 input generation, warm-up of the per-process caches
    ops_per_s    ops / summed op latency
    op_p50_s     median op latency
    op_tail_s    highest percentile with at least ten samples above it
                 (with 21 samples its rank is the median's)
    ok_frac      1 - failed_frac; a failure is an escaped exception, a wrong
                 exit code, or an output that fails its check.  It is
                 reported as the complement because the benchmark's metrics
                 must never be 0; failed_frac is printed beside it
    peak_rss_mb  peak RSS of this process (of the largest child for cli_batch)

``correct`` in the result line is false when an op of the regular mix fails
its check.  The boundary requests of requests_exact fail today (ROADMAP
item 5); they count in ``failed`` and ``ok_frac`` but not in ``correct``.

Per-layer metrics (``--trace 1``) are self times per op of the spans in
tracer.py, plus exact counts taken over the first cycle, the per-layer
import times (fresh interpreters), and the tracing overhead against an
untraced replay of the same ops.  Each workload names the layers its ops
reach (``layers`` in workloads.py); those are timed on the workload, and a
run fails if one of them reads 0.  Every other layer is always timed on one
fixed probe pass (a total, not per op), which the table marks ``probe``.  So
no time reads 0 and none changes its source between commits unless
workloads.py changes.  Spans are written as JSON lines under perfbench/out/.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
PROBE_REF_S = 0.0002  # SpeedMeter.probe on the 2-core x86-64 VM when nothing slows it
TICK_S = 0.02  # probe period inside an op
AROUND = 3  # probes on either side of an op that count for its speed
GUARD_SECONDS = 120  # a run must end within 180 s even if the program slows down

END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_s", "s"), ("op_tail_s", "s"),
    ("ok_frac", "frac"), ("peak_rss_mb", "MB"),
)


def require_source():
    if not (SRC / "virialkit" / "__init__.py").is_file():
        print(f"error: virialkit sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def per_layer_names():
    from tracer import COUNTS, LAYER_SPANS

    names = [(m + "_s", "s") for m in LAYER_SPANS]
    names += [(c, "count") for c in COUNTS]
    names += [("kernels.samples_per_s", "1/s"), ("cli.import_s", "s"),
              ("cli.import_scipy_s", "s"), ("trace.overhead_frac", "frac")]
    return names


# ---------------------------------------------------------------------------
# stamp


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    import hashlib

    h = hashlib.sha256()
    for path in sorted((SRC / "virialkit").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def stamp(seed):
    import numpy
    import scipy
    from virialkit import kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": kernels.backend_name(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------
# set-up


def setup(name, seed):
    """Everything before the first timed op; returns the workload and its first cycle."""
    import virialkit.cli  # noqa: F401
    from workloads import WORKLOADS, load_references

    wl = WORKLOADS[name](seed, load_references())
    first = wl.cycle()
    wl.warm_up()
    return wl, first


def time_setups(name, seed):
    """Median steady time (see SpeedMeter) from spawning a fresh interpreter
    until it has set up; also returns the raw wall times.  The child times
    itself, with the speed probes running inside its imports, from the
    moment the parent spawned it (perf_counter is one clock for both)."""
    steady, raw = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        p = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--setup-only", repr(t0)],
            stdout=subprocess.PIPE, cwd=ROOT, text=True,
        )
        line = p.stdout.readline()
        raw.append(time.perf_counter() - t0)
        p.stdout.close()
        if p.wait(timeout=120) != 0 or not line.strip():
            raise RuntimeError("set-up child failed")
        steady.append(float(line))
    return statistics.median(steady), raw


def time_imports():
    """Median import times in fresh interpreters: virialkit with its CLI, and
    the scipy submodules it imports, alone."""
    from workloads import child_env

    snippets = {
        "cli.import_s": "import virialkit, virialkit.cli",
        "cli.import_scipy_s": "import scipy.optimize, scipy.special, scipy.integrate",
    }
    out = {}
    for metric, stmt in snippets.items():
        code = f"import time; t = time.perf_counter(); {stmt}; print(time.perf_counter() - t)"
        vals = []
        for _ in range(IMPORT_SAMPLES):
            p = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               env=child_env(), cwd=ROOT, timeout=120, check=True)
            vals.append(float(p.stdout.strip()))
        out[metric] = statistics.median(vals)
    return out


# ---------------------------------------------------------------------------
# the closed loop


class SpeedMeter:
    """The machine's speed, sampled by a tiny fixed probe while ops run.

    On a shared 2-core machine the same op's wall time swings by up to 1.7x
    within seconds, with the CPU time tracking the wall time (other load on
    the machine, not waiting), and the slow spells can outlast a run.  A
    pure-Python rational loop of about 0.2 ms slows down with the op when
    it runs on the same pinned CPU.  It runs AROUND times between ops and,
    for ops in this process, on a timer signal every TICK_S inside them.
    An op's steady time is its wall time minus the probes taken inside it,
    scaled by PROBE_REF_S / (median probe time over the op and the probes
    just around it): the time the op would take at the speed where the
    probe takes PROBE_REF_S.  The raw wall times are reported beside the
    steady ones.

    A slowdown of the program itself must not be divided out.  Injected
    into each op as extra Python work (+50%), it moved the steady and the
    raw latency alike (x1.49 and x1.53 per op on identity_exact, x1.43 and
    x1.42 on requests_exact, on a 2-core x86-64 VM).  A probe taken right
    after the caches were flushed ran 8-12% slow, so each probe now refills
    them with an untimed pass first (see probe).
    """

    def __init__(self, tick=True):
        # A probe in this process while a child runs on the same CPU would
        # time the child too, so subprocess ops get the probes around them only.
        self.tick = tick and hasattr(signal, "setitimer")
        self.starts = []  # probe start times, ascending
        self.probes = []  # probe durations
        self.inside = []  # (start, end) of the probes taken by the timer
        self.busy = False

    @staticmethod
    def _work():
        acc = Fraction(0)
        for i in range(1, 100):
            acc += Fraction(i, i + 7)

    def probe(self):
        """Time one pass of the probe.  An untimed pass first refills the
        caches that the op left cold, and the collector is off throughout,
        so the op's working set and heap do not slow the probe (which would
        take that share of a slowdown out of the steady time).  Returns the
        wall interval of both passes."""
        gc_on = gc.isenabled()
        gc.disable()
        self.busy = True  # a tick that lands in a probe is skipped
        try:
            start = time.perf_counter()
            self._work()
            t0 = time.perf_counter()
            self._work()
            t1 = time.perf_counter()
        finally:
            self.busy = False
            if gc_on:
                gc.enable()
        self.starts.append(t0)
        self.probes.append(t1 - t0)
        return start, t1

    def between(self):
        for _ in range(AROUND):
            self.probe()

    def _tick(self, signum, frame):
        if not self.busy:
            self.inside.append(self.probe())

    def __enter__(self):
        if self.tick:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self.between()
        return self

    def __exit__(self, *exc):
        if self.tick:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.between()

    def steady(self, t0, t1):
        """Steady seconds of the wall interval [t0, t1], judged by the probes
        inside it and the AROUND probes on either side; call after
        __exit__.  The median drops the odd probe slowed by caches the op
        left cold."""
        lo = max(0, bisect.bisect_left(self.starts, t0) - AROUND)
        hi = bisect.bisect_right(self.starts, t1) + AROUND
        speed = PROBE_REF_S / statistics.median(self.probes[lo:hi])
        k = bisect.bisect_left(self.inside, (t0,))
        own = 0.0
        while k < len(self.inside) and self.inside[k][0] < t1:
            own += self.inside[k][1] - self.inside[k][0]
            k += 1
        return (t1 - t0 - own) * speed


def run_op(op, tracer=None, op_id=None):
    if tracer is not None:
        tracer.op = op_id
    t0 = time.perf_counter()
    try:
        out = tracer.span("op", op.call) if tracer is not None else op.call()
        exc = None
    except Exception as e:  # an escaped exception is a failed op, never the end of the run
        out, exc = None, e
    dt = time.perf_counter() - t0
    try:
        ok = bool(op.check(out, exc))
    except Exception:
        ok = False
    return {
        "slot": op.slot, "t0": t0, "latency": dt, "ok": ok, "boundary": op.boundary,
        "error": None if exc is None else type(exc).__name__,
    }


def plan_cycles(wl, seconds, ops_per_cycle, min_ops=0):
    """A fixed number of whole cycles, sized to ``seconds`` from the cycle
    time measured on a 2-core x86-64 VM, and at least ``min_ops`` ops.  A
    fixed count, not a deadline, keeps the sample count and so the rank of
    op_tail_s the same in every run."""
    cycles = max(1, round(seconds / wl.cycle_seconds))
    return max(cycles, math.ceil(min_ops / ops_per_cycle))


def loop(wl, cycles, first=None, tracer=None):
    """Run ``cycles`` whole cycles (fewer if they pass GUARD_SECONDS)."""
    records = []
    done = 0
    start = time.perf_counter()
    with SpeedMeter(tick=wl.in_process) as meter:
        while done < cycles and time.perf_counter() - start < GUARD_SECONDS:
            ops = first if (first is not None and done == 0) else wl.cycle()
            if tracer is not None:
                tracer.counting = done == 0
            for op in ops:
                records.append(run_op(op, tracer, len(records)))
                meter.between()
            done += 1
    for rec in records:
        rec["steady"] = meter.steady(rec["t0"], rec["t0"] + rec["latency"])
    return records, done


def latency_stats(lat):
    lat = sorted(lat)
    n = len(lat)
    if n > 10:
        tail, tail_pct, beyond = lat[n - 11], 100.0 * (n - 10) / n, 10
    else:
        tail, tail_pct, beyond = lat[-1], 100.0, 0
    return {"ops_per_s": n / sum(lat), "op_p50_s": statistics.median(lat), "op_tail_s": tail,
            "tail_pct": tail_pct, "tail_beyond": beyond}


def summarize(records):
    """Metrics over the run.  Timings use each op's steady latency (see
    SpeedMeter); the raw wall-clock figures are kept beside them."""
    n = len(records)
    failed = sum(1 for r in records if not r["ok"])
    out = latency_stats([r["steady"] for r in records])
    out["raw"] = latency_stats([r["latency"] for r in records])
    out.update({
        "n": n,
        "failed": failed,
        "failed_frac": failed / n,
        "ok_frac": 1 - failed / n,
        "correct": all(r["ok"] for r in records if not r["boundary"]),
    })
    return out


def failures(records):
    out = {}
    for r in records:
        if not r["ok"]:
            key = f"{r['slot']}: {r['error'] or 'wrong output'}"
            out[key] = out.get(key, 0) + 1
    return out


# ---------------------------------------------------------------------------
# probe pass for layers a workload does not reach


def probe_pass():
    """Fixed calls that reach every traced layer once; returns a digest of
    their outputs (checked against the recorded one)."""
    import contextlib
    import io

    from virialkit import apps, cli, graphs, homogeneous, inversion, species, treefp
    from workloads import FIXTURES, digest

    # The graph-class tables are cached per process and were filled during
    # warm-up; emptying the cache makes the pass scan them again, and the
    # n = 6 biconnected scan is the one benchmarks/bench_kernels.py timed.
    graphs.class_masks.cache_clear()
    outs = [len(graphs.class_masks(6, "biconnected"))]
    space, pot = species.load_species_json(str(FIXTURES / "hardcore_pair.json"))
    st = inversion.GCState(space, mayer=species.build_mayer(pot), N=3)
    A, t = st.a_family, st.t_family
    st.e_family, st.phi_series, st.d_family
    reports = [treefp.verify_FP(A, t), treefp.verify_FPprime(A, t), inversion.roundtrip_check(st),
               inversion.zeta_path_agreement(st), inversion.dissymmetry_check(st)]
    outs.append([r.to_dict() for r in reports])
    outs.append(str(inversion.extract_d_from_a(st) == st.d_family))
    z = [0.05, 0.02]
    outs.append([float(v) for v in inversion.rho_of_z(st, z)])
    outs.append([float(v) for v in inversion.zeta_of_nu(st, z, path="tree")])
    outs.append([float(v) for v in inversion.zeta_of_nu(st, z)])
    outs.append([c.to_dict() for c in (inversion.check_PU(st, z), inversion.check_Sb(st, z),
                                       inversion.check_Sab(st, z))])
    outs.append([float(inversion.xi_exact(st, z, n_max=3).value),
                 [float(v) for v in inversion.density_exact(st, z, n_max=3)]])
    outs.append(inversion.run_request({"state": str(FIXTURES / "rational_mix.json"), "op": "rho_of_z",
                                       "N": 3, "inputs": {"z": ["1/20", "1/30", "1/40"]}}))
    hs = homogeneous.HomogeneousModel.hard_sphere(d=3, radius=0.5)
    outs.append([[r.n, float(r.beta_n), r.stderr] for r in homogeneous.virial_table(hs, 3, samples=64_000, seed=1)])
    outs.append([list(map(str, row)) for row in homogeneous.bounds_report(hs)])
    mix = apps.MixtureSpec.from_json(str(FIXTURES / "mixture_spheres.json"))
    outs.append(list(map(float, apps.invert_mixture(mix, 3, samples=64_000, seed=1)["z"])))
    rods = apps.RodSystem.from_json(str(FIXTURES / "rod_grid.json"))
    outs.append(float(apps.rods_free_energy(rods, N=3, samples=64_000, seed=1)["total"]))
    grid_doc = json.loads((FIXTURES / "grid_profile.json").read_text())
    gp = apps.GridProfile.from_json(grid_doc)
    outs.append(apps.invert_profile(gp, grid_doc["kernel"], 2)["v_ext"])
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["bounds"])
    outs.append([code, buf.getvalue()])
    return digest(outs)


# ---------------------------------------------------------------------------
# per-workload runs


def untraced(name, seed, seconds):
    setup_s, setup_samples = time_setups(name, seed)
    wl, first = setup(name, seed)
    # --seconds 0 (smoke) is one cycle
    records, cycles = loop(wl, plan_cycles(wl, seconds, len(first), wl.min_ops if seconds else 0), first)
    s = summarize(records)
    who = resource.RUSAGE_CHILDREN if not wl.in_process else resource.RUSAGE_SELF
    s["setup_s"] = setup_s
    s["setup_samples"] = setup_samples
    s["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    s["cycles"] = cycles
    metrics = {m: {"value": s[m], "unit": u} for m, u in END_TO_END}
    return s, metrics, records


def traced(name, seed, seconds):
    from tracer import LAYER_SPANS, MC_SPANS, Tracer, self_times
    from workloads import WORKLOADS, load_references

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
    wl, first = setup(name, seed)
    tracer = Tracer()
    child_dir = None
    if not wl.in_process:
        child_dir = OUT / f"children-{name}-seed{seed}"
        child_dir.mkdir(exist_ok=True)
        for old in child_dir.glob("*.jsonl"):
            old.unlink()
        wl.trace_dir = child_dir
    tracer.install()
    try:
        records, cycles = loop(wl, plan_cycles(wl, seconds / 2, len(first)), first, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.finish_counts()
    s = summarize(records)
    n_first = len(first)

    times = {}
    counts = dict(tracer.counts)
    mc_samples = tracer.mc_samples
    with open(spans_path, "w") as fh:
        tracer.write_jsonl(fh)
        if child_dir is not None:
            for k, path in enumerate(sorted(child_dir.glob("child-*.jsonl"))):
                lines = path.read_text().splitlines()
                tail = json.loads(lines[-1])
                recs = [json.loads(x) for x in lines[:-1]]
                for m, v in self_times(recs).items():
                    times[m] = times.get(m, 0.0) + v
                if k < n_first:
                    for c, v in tail["counts"].items():
                        counts[c] = max(counts[c], v) if c == "fps.max_bits" else counts[c] + v
                mc_samples += tail["mc_samples"]
                for rec in recs:
                    rec["op"] = k
                    rec["process"] = path.stem
                    fh.write(json.dumps(rec) + "\n")
    for m, v in tracer.self_times().items():
        times[m] = times.get(m, 0.0) + v

    # the same ops again, untraced, for the overhead
    replay = WORKLOADS[name](seed, load_references())
    replay_records, _ = loop(replay, cycles)
    busy_traced = sum(r["steady"] for r in records)
    busy_plain = sum(r["steady"] for r in replay_records)

    # Every workload leaves some layer out, so the probe pass always runs.
    probe = Tracer()
    probe.install()
    try:
        got = probe.span("op", probe_pass)
    finally:
        probe.uninstall()
    probe_ok = got == load_references().get("probe")
    ptimes = probe.self_times()

    metrics, source = {}, {}
    for m in LAYER_SPANS:
        if m in wl.layers:
            metrics[m + "_s"], source[m + "_s"] = times.get(m, 0.0) / s["n"], "workload"
        else:
            metrics[m + "_s"], source[m + "_s"] = ptimes.get(m, 0.0), "probe"
        if metrics[m + "_s"] == 0.0:
            if m in wl.layers:
                raise RuntimeError(f"{name} no longer reaches {m}: take it out of "
                                   f"{type(wl).__name__}.layers in perfbench/workloads.py")
            raise RuntimeError(f"the probe pass no longer reaches {m}")
    on_workload = set(MC_SPANS) <= wl.layers
    mc_times, n_samples = (times, mc_samples) if on_workload else (ptimes, probe.mc_samples)
    metrics["kernels.samples_per_s"] = n_samples / sum(mc_times[m] for m in MC_SPANS)
    source["kernels.samples_per_s"] = "workload" if on_workload else "probe"
    for c in counts:
        metrics[c] = counts[c]
        source[c] = "first cycle"
    for m, v in time_imports().items():
        metrics[m] = v
        source[m] = "fresh interpreters"
    metrics["trace.overhead_frac"] = (busy_traced - busy_plain) / busy_plain
    source["trace.overhead_frac"] = f"{busy_traced:.3f} s traced vs {busy_plain:.3f} s replayed"

    s["correct"] = s["correct"] and probe_ok and summarize(replay_records)["correct"]
    s["cycles"] = cycles
    s["spans"] = str(spans_path.relative_to(ROOT))
    units = dict(per_layer_names())
    out = {m: {"value": metrics[m], "unit": units[m]} for m, _ in per_layer_names()}
    return s, out, records, source


def fmt(v):
    if isinstance(v, int):
        return str(v)
    return f"{v:.6g}"


def run_one(args):
    require_source()
    # One CPU for this process and every child it starts, so that the speed
    # probe runs where the measured work runs (see SpeedMeter).
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.setup_only is not None:
        with SpeedMeter() as meter:
            setup(args.workload, args.seed)
            ready = time.perf_counter()
        print(repr(meter.steady(args.setup_only, ready)), flush=True)
        return 0
    if args.trace:
        s, metrics, records, source = traced(args.workload, args.seed, args.seconds)
    else:
        s, metrics, records = untraced(args.workload, args.seed, args.seconds)
        source = {}
    st = stamp(args.seed)
    print(f"# stamp {json.dumps(st, sort_keys=True)}")
    print(f"# workload {args.workload}  trace {args.trace}  {s['n']} ops in {s['cycles']} cycles, "
          f"{s['failed']} failed")
    for m, mv in metrics.items():
        note = source.get(m, "")
        if m == "setup_s":
            note = f"median of {len(s['setup_samples'])} set-ups, steady; raw {fmt(statistics.median(s['setup_samples']))}"
        elif m in ("op_p50_s", "ops_per_s"):
            note = f"n={s['n']}, steady; raw {fmt(s['raw'][m])}"
        elif m == "op_tail_s":
            note = (f"p{s['tail_pct']:.1f}, {s['tail_beyond']} samples beyond, n={s['n']}, steady; "
                    f"raw {fmt(s['raw'][m])}")
        elif m == "ok_frac":
            note = f"failed_frac={s['failed_frac']:.6g} ({s['failed']} of {s['n']})"
        print(f"{m:<34}{fmt(mv['value']):>14} {mv['unit']:<6} {note}")
    for k, v in failures(records).items():
        print(f"# failed x{v}: {k}")
    OUT.mkdir(exist_ok=True)
    result = {"stamp": st, "workload": args.workload, "trace": args.trace, "summary": s,
              "metrics": metrics, "failures": failures(records), "ops": records}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True, default=str) + "\n")
    print(json.dumps({"correct": s["correct"], "attempted": s["n"], "failed": s["failed"],
                      "metrics": metrics}))
    return 0


def run_all(args, names, seconds, trace_levels):
    """Each workload in its own process (fresh set-up, own peak RSS); one table."""
    rows, ok = [], True
    for name in names:
        for trace in trace_levels:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(p.stdout + p.stderr, file=sys.stderr)
                ok = False
                continue
            res = json.loads(lines[-1])
            ok = ok and res["correct"]
            print(f"== {name} (trace {trace}): correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}")
            print("\n".join(x for x in lines[1:-1]))
            rows.append({"workload": name, "trace": trace, **res})
    OUT.mkdir(exist_ok=True)
    (OUT / f"all-seed{args.seed}.json").write_text(json.dumps(rows, indent=1) + "\n")
    return ok


def record_references():
    """Run every pool variant of every checked slot and the probe pass, and
    store the digests of their outputs."""
    require_source()
    from workloads import POOL, REFERENCES

    refs = {}
    for name, size in POOL.items():
        refs[name] = {}
        wl, _ = setup(name, 0)
        wl.record = refs[name]
        for v in range(size):
            wl.variant = lambda v=v: v
            for op in wl.cycle():
                r = run_op(op)
                if not r["ok"] and not op.boundary:
                    raise RuntimeError(f"{name} {op.slot} variant {v}: {r['error']}")
        print(f"recorded {name}: {sum(len(x) for x in wl.record.values())} digests", flush=True)
    from tracer import Tracer

    probe = Tracer()
    probe.install()
    try:
        refs["probe"] = probe_pass()
    finally:
        probe.uninstall()
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("identity_exact", "requests_exact", "float_wide", "cli_batch"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="every workload for one cycle, traced and untraced")
    p.add_argument("--record", action="store_true", help="rewrite references.json")
    # the spawning parent's perf_counter() at spawn; the child prints its set-up time
    p.add_argument("--setup-only", type=float, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.record:
        return record_references()
    if args.workload:
        return run_one(args)
    require_source()
    names = ("identity_exact", "requests_exact", "float_wide", "cli_batch")
    if args.smoke:
        return 0 if run_all(args, names, 0, (0, 1)) else 1
    return 0 if run_all(args, names, args.seconds, (args.trace,)) else 1


if __name__ == "__main__":
    sys.exit(main())
