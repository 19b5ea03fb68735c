"""Cold-process times of the CLI commands of the ``cli_batch`` workload, as
JSON lines.

    python3 benchmarks/cli_times.py

This is the "CLI commands (cold process)" table of ROADMAP.md.  The
commands are the eight argv of one ``cli_batch`` cycle
(``perfbench/workloads.cli_commands``, variant 0, with ``--threads 1``), and
each runs in five fresh interpreters on ``src/``.  A child times
``import virialkit.cli`` (the import time) and then one ``cli.main(argv)``
with its output discarded (the run time); the parent times the whole
process, interpreter start-up included.  The script prints one line per
command, in cycle order:

    {"slot": ..., "import_s": median, "run_s": median, "process_s": median,
     "scipy": ..., "numpy_random": ...}

``scipy`` says whether the command loaded any scipy module, and
``numpy_random`` whether it loaded ``numpy.random`` (the Monte Carlo
commands do).  The whole script takes well under a minute.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = 5

PROBE = """
import contextlib, io, json, sys, time
t0 = time.perf_counter()
import virialkit.cli
t1 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = virialkit.cli.main(json.loads(sys.argv[1]))
t2 = time.perf_counter()
print(json.dumps({
    "code": code, "import_s": t1 - t0, "run_s": t2 - t1,
    "scipy": any(m.split(".")[0] == "scipy" for m in sys.modules),
    "numpy_random": "numpy.random" in sys.modules,
}))
"""


def commands():
    """(slot, argv) of one ``cli_batch`` cycle, variant 0."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import cli_commands

    return [(slot, argv + ["--threads", "1"]) for slot, argv in cli_commands(0)]


def run_once(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300, check=True,
    )
    process_s = time.perf_counter() - t0
    report = json.loads(proc.stdout.splitlines()[-1])
    if report["code"] != 0:
        raise SystemExit(f"{argv} exited {report['code']}: {proc.stderr.strip()}")
    report["process_s"] = process_s
    return report


def main():
    for slot, argv in commands():
        runs = [run_once(argv) for _ in range(RUNS)]
        line = {"slot": slot}
        for key in ("import_s", "run_s", "process_s"):
            line[key] = round(statistics.median(r[key] for r in runs), 4)
        for key in ("scipy", "numpy_random"):
            line[key] = any(r[key] for r in runs)
        print(json.dumps(line), flush=True)


if __name__ == "__main__":
    main()
