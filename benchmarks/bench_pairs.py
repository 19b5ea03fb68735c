"""Alternating parent/change runs of one benchmark workload, kept in BENCH_<workload>.json.

    python3 benchmarks/bench_pairs.py PARENT WORKLOAD PAIRS

PARENT is any git revision, WORKLOAD one of the workloads of BENCHMARK.json
and PAIRS the number of pairs.  The change is the commit checked out
(HEAD), so commit before measuring.  Both revisions are exported with
``git archive`` into a fresh temporary directory (``TMPDIR`` decides where),
and the unchanged harness

    python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds 15 --trace 0

runs on the two copies in alternation, one seed per pair: parent first in
even pairs, change first in odd ones, so a drift of the machine's speed
falls on both sides.  The seeds are fresh: they start above every seed of
the file's earlier records.  A run whose ``summary.correct`` is false, or
whose stamped ``source_sha256`` is not the digest of its copy's ``src/``,
ends the script with exit status 1 and writes no record.

Each side then appends one record to BENCH_<workload>.json at the
repository root, a JSON list whose earlier records are kept as they are:

    {"side": "parent" or "change", "commit": ..., "source_sha256": ...,
     "workload": ..., "seconds": 15, "trace": 0, "seeds": [...],
     "date": ..., "python": ..., "numpy": ..., "nproc": ...,
     "metrics": {name: {"unit": ..., "better": ..., "median": ...,
                        "q1": ..., "q3": ..., "runs": [one value per pair]}}}

with the end-to-end metrics of BENCHMARK.json; quartiles are inclusive
(``statistics.quantiles``).  The change's record also holds ``parent`` (the
parent's commit) and ``wins``: per metric, the pairs in which the change
was strictly better.  The script prints the two records as one Markdown
table.  A float_wide run takes about 30 s with its set-up, a cli_batch
run about a minute.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 15
FIRST_SEED = 1000


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(commit, dest):
    """The committed files of ``commit`` under ``dest``."""
    dest.mkdir()
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar.stdout, check=True)


def source_digest(root):
    """``perfbench/run.py``'s digest of the sources under ``root/src``."""
    src = root / "src"
    h = hashlib.sha256()
    for path in sorted((src / "virialkit").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run(copy, workload, seed):
    """One untraced run on ``copy``; its result file, or an error message."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    p = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True, timeout=900)
    out = copy / "perfbench" / "out" / f"result-{workload}-seed{seed}-trace0.json"
    if p.returncode != 0 or not out.is_file():
        return None, f"exit {p.returncode}: {p.stderr.strip()[-500:]}"
    result = json.loads(out.read_text())
    if not result["summary"]["correct"]:
        return None, f"summary.correct is false: {result['failures']}"
    if result["stamp"]["source_sha256"] != source_digest(copy):
        return None, "source_sha256 does not match the copy"
    return result, None


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def record(side, commit, copy, workload, seeds, results, metrics):
    stamp = results[0]["stamp"]
    out = {
        "side": side, "commit": commit, "source_sha256": source_digest(copy), "workload": workload,
        "seconds": SECONDS, "trace": 0, "seeds": seeds,
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": stamp["python"], "numpy": stamp["numpy"], "nproc": stamp["nproc"], "metrics": {},
    }
    for m in metrics:
        runs = [r["metrics"][m["name"]]["value"] for r in results]
        q1, median, q3 = quartiles(runs)
        out["metrics"][m["name"]] = {"unit": m["unit"], "better": m["better"], "median": median,
                                     "q1": q1, "q3": q3, "runs": runs}
    return out


def wins(parent, change):
    """Per metric, the pairs in which the change was strictly better."""
    out = {}
    for name, c in change["metrics"].items():
        p = parent["metrics"][name]
        better = (lambda a, b: a > b) if c["better"] == "higher" else (lambda a, b: a < b)
        out[name] = sum(better(x, y) for x, y in zip(c["runs"], p["runs"]))
    return out


def table(parent, change):
    lines = [
        f"{change['workload']}: {len(change['seeds'])} pairs, seeds {change['seeds'][0]}-{change['seeds'][-1]}, "
        f"parent {parent['commit'][:7]}, change {change['commit'][:7]}",
        "",
        "| metric | parent median [q1, q3] | change median [q1, q3] | change / parent | change wins |",
        "| --- | --- | --- | --- | --- |",
    ]
    for name, c in change["metrics"].items():
        p = parent["metrics"][name]
        ratio = f"{c['median'] / p['median']:.3f}" if p["median"] else "-"
        lines.append(
            f"| `{name}` ({c['unit']}) | {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}] "
            f"| {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] | {ratio} | {change['wins'][name]} |"
        )
    return "\n".join(lines)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="git revision of the parent")
    p.add_argument("workload")
    p.add_argument("pairs", type=int)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        p.error(f"unknown workload {args.workload!r}")
    if args.pairs < 1:
        p.error("pairs must be at least 1")
    commits = {"parent": git("rev-parse", "--verify", f"{args.parent}^{{commit}}"), "change": git("rev-parse", "HEAD")}
    path = ROOT / f"BENCH_{args.workload}.json"
    records = json.loads(path.read_text()) if path.is_file() else []
    first = max((s for r in records for s in r["seeds"]), default=FIRST_SEED - 1) + 1
    seeds = list(range(first, first + args.pairs))
    results = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        copies = {side: Path(tmp) / side for side in commits}
        for side, commit in commits.items():
            export(commit, copies[side])
        for k, seed in enumerate(seeds):
            for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                result, error = run(copies[side], args.workload, seed)
                if error:
                    print(f"refused: {side} {commits[side][:7]} seed {seed}: {error}", file=sys.stderr)
                    return 1
                results[side].append(result)
                print(f"# pair {k + 1}/{args.pairs} seed {seed} {side}: ops_per_s "
                      f"{result['metrics']['ops_per_s']['value']:.4g}", file=sys.stderr, flush=True)
        new = {side: record(side, commits[side], copies[side], args.workload, seeds, results[side],
                            bench["end_to_end"]) for side in commits}
    new["change"]["parent"] = commits["parent"]
    new["change"]["wins"] = wins(new["parent"], new["change"])
    path.write_text(json.dumps(records + [new["parent"], new["change"]], indent=1) + "\n")
    print(table(new["parent"], new["change"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
