"""Production functions that no benchmark op enters, as JSON lines.

    python3 benchmarks/traffic.py

The script runs one cycle of each benchmark workload in this process under
``sys.setprofile``: ``identity_exact``, ``requests_exact`` and
``float_wide`` from perfbench/workloads.py, warm-up included (it fills the
caches the first ops would otherwise fill), and the eight argv of one
``cli_batch`` cycle (``cli_commands(0)``, with ``--threads 1``) through
``cli.main``.  It imports virialkit only once the profile is on, so a
function that runs at import counts as entered.  It then prints one line
per function or method defined in a virialkit module other than
``oracles`` whose code no call entered:

    {"module": ..., "name": ..., "line": ...}

Nested functions are not listed.  An op whose outcome fails its check ends
the script with exit status 1, since its traffic would not be the
benchmark's.  ROADMAP.md keeps the output as the list of functions kept on
purpose, so a deletion pass can measure what the benchmark reaches instead
of guessing it.  The whole script takes a few seconds.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import pkgutil
import sys
from functools import cached_property
from pathlib import Path

sys.dont_write_bytecode = True  # write nothing under perfbench/

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

IN_PROCESS = ("identity_exact", "requests_exact", "float_wide")


def production_functions():
    """(module, qualified name, code) of every top-level function and method."""
    import virialkit

    out = []
    for info in pkgutil.iter_modules(virialkit.__path__):
        if info.name == "oracles":
            continue
        mod = importlib.import_module(f"virialkit.{info.name}")
        objs = list(vars(mod).values())
        for cls in [o for o in objs if isinstance(o, type)]:
            objs += list(vars(cls).values())
        for obj in objs:
            if isinstance(obj, (staticmethod, classmethod)):
                obj = obj.__func__
            elif isinstance(obj, property):
                obj = obj.fget
            elif isinstance(obj, cached_property):
                obj = obj.func
            obj = getattr(obj, "__wrapped__", obj)
            code = getattr(obj, "__code__", None)
            if code is not None and code.co_filename == mod.__file__:
                out.append((info.name, obj.__qualname__, code))
    return out


def run_cycle():
    """Run one cycle of every workload; True when every op passed its check."""
    from virialkit import cli
    from workloads import WORKLOADS, cli_commands, load_references

    refs = load_references()
    ok = True
    for name in IN_PROCESS:
        work = WORKLOADS[name](0, refs=refs)
        work.warm_up()
        for op in work.cycle():
            out, exc = None, None
            try:
                out = op.call()
            except Exception as e:  # a boundary op expects its refusal
                exc = e
            ok = ok and bool(op.check(out, exc))
    for _, argv in cli_commands(0):
        with contextlib.redirect_stdout(io.StringIO()):
            ok = ok and cli.main(argv + ["--threads", "1"]) == 0
    return ok


def main():
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        ok = run_cycle()
    finally:
        sys.setprofile(None)
    if not ok:
        raise SystemExit("an op failed its check, so this traffic is not the benchmark's")
    for module, name, code in sorted(production_functions(), key=lambda f: (f[0], f[2].co_firstlineno)):
        if code not in entered:
            print(json.dumps({"module": module, "name": name, "line": code.co_firstlineno}))


if __name__ == "__main__":
    main()
