"""The committed performance trajectory: BENCH_<workload>.json at the root.

``benchmarks/bench_pairs.py`` appends one record per side of a run of
alternating parent/change pairs.  These tests check the shape of every
record and that its summaries agree with its own runs.  They check no
timing: a record is kept as it was measured, whatever it says.
"""

import json
import math
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
METRICS = {m["name"]: m for m in BENCHMARK["end_to_end"]}
KEYS = {"side", "commit", "source_sha256", "workload", "seconds", "trace", "seeds", "date",
        "python", "numpy", "nproc", "metrics"}


def check_record(rec, workload, side):
    assert set(rec) == KEYS | ({"parent", "wins"} if side == "change" else set())
    assert rec["side"] == side and rec["workload"] == workload
    assert re.fullmatch(r"[0-9a-f]{40}", rec["commit"])
    assert re.fullmatch(r"[0-9a-f]{16}", rec["source_sha256"])
    assert rec["seconds"] == 15 and rec["trace"] == 0
    seeds = rec["seeds"]
    assert seeds and all(type(s) is int for s in seeds) and len(set(seeds)) == len(seeds)
    assert set(rec["metrics"]) == set(METRICS)
    for name, m in rec["metrics"].items():
        assert (m["unit"], m["better"]) == (METRICS[name]["unit"], METRICS[name]["better"])
        runs = m["runs"]
        assert len(runs) == len(seeds) and all(math.isfinite(v) for v in runs)
        assert m["median"] == statistics.median(runs)
        assert min(runs) <= m["q1"] <= m["median"] <= m["q3"] <= max(runs)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_records_have_the_pairs_schema(workload):
    records = json.loads((ROOT / f"BENCH_{workload}.json").read_text())
    assert records and len(records) % 2 == 0
    used = set()
    for parent, change in zip(records[0::2], records[1::2]):
        check_record(parent, workload, "parent")
        check_record(change, workload, "change")
        assert change["parent"] == parent["commit"]
        assert change["seeds"] == parent["seeds"]
        assert used.isdisjoint(change["seeds"])
        used.update(change["seeds"])
        for name, c in change["metrics"].items():
            p = parent["metrics"][name]["runs"]
            if c["better"] == "higher":
                wins = sum(x > y for x, y in zip(c["runs"], p))
            else:
                wins = sum(x < y for x, y in zip(c["runs"], p))
            assert change["wins"][name] == wins
