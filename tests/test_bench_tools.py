"""The measuring scripts under ``benchmarks/`` still run.

Without these tests, a script broken by a rename in virialkit would fail
only when someone measures with it.  Each check runs the
scripts in child interpreters with ``PYTHONDONTWRITEBYTECODE=1``, and the
one module imported here is loaded with bytecode writing off, so the tests
write nothing under ``benchmarks/``.  Each runs in a few seconds.
"""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
SCRIPTS = sorted(BENCHMARKS.glob("*.py"))


@pytest.fixture
def quiet(monkeypatch):
    """No bytecode written by this process or its children; fails the test
    if anything under benchmarks/ appeared anyway."""
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    before = set(BENCHMARKS.rglob("*"))
    yield
    assert set(BENCHMARKS.rglob("*")) == before


def test_every_script_parses():
    assert SCRIPTS
    for path in SCRIPTS:
        ast.parse(path.read_text(), str(path))


@pytest.mark.parametrize("script", ["bench_pairs.py", "interleave.py", "layer_pairs.py"])
def test_help_exits_zero(quiet, script):
    proc = subprocess.run(
        [sys.executable, str(BENCHMARKS / script), "--help"], capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")


def test_layer_times_times_an_exact_cell(quiet):
    spec = importlib.util.spec_from_file_location("layer_times", BENCHMARKS / "layer_times.py")
    layer_times = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layer_times)
    assert os.environ["PYTHONDONTWRITEBYTECODE"] == "1"
    out = layer_times.fresh("import layer_times; layer_times.time_cell('exact', 'roundtrip_check', 2, 3)")
    assert out["seconds"] > 0 and out["warm"] > 0
