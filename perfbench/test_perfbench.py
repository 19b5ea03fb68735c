"""The benchmark's own test (about four minutes on two cores):

    python3 -m pytest -q perfbench

The smoke mode must pass every check, and the exact counts of a traced run
must repeat between two runs with the same seed.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
SEED = 7
WORKLOADS = ("identity_exact", "requests_exact", "float_wide", "cli_batch")
COUNTS = ("graphs.d_terms", "treefp.t_nonzero", "fps.calls", "fps.max_bits", "kernels.samples")


def bench(*args):
    p = subprocess.run([sys.executable, str(RUN), *args], capture_output=True, text=True,
                       cwd=HERE.parent, timeout=900)
    return p


def test_smoke_then_counts_repeat():
    p = bench("--smoke", "--seed", str(SEED))
    assert p.returncode == 0, p.stdout + p.stderr
    rows = json.loads((HERE / "out" / f"all-seed{SEED}.json").read_text())
    first = {r["workload"]: r["metrics"] for r in rows if r["trace"] == 1}
    assert set(first) == set(WORKLOADS)
    for name in WORKLOADS:
        p = bench("--workload", name, "--seed", str(SEED), "--seconds", "0", "--trace", "1")
        assert p.returncode == 0, p.stderr
        again = json.loads(p.stdout.strip().splitlines()[-1])["metrics"]
        for c in COUNTS:
            assert again[c]["value"] == first[name][c]["value"], (name, c)
    assert first["requests_exact"]["graphs.d_terms"]["value"] > 0
    assert first["identity_exact"]["graphs.d_terms"]["value"] == 0
    assert first["identity_exact"]["fps.max_bits"]["value"] > 0
    assert first["cli_batch"]["kernels.samples"]["value"] > 0
