"""The virialkit names the benchmark harness wraps and calls must exist.

``perfbench/tracer.py`` wraps every function named in ``LAYER_SPANS`` by
module and name, and the workloads call a few helpers directly, so a rename
would otherwise break only a traced benchmark run.  The tracer source is
parsed, not imported, so this test writes nothing under ``perfbench/``.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# helpers the workloads and the probe pass call directly: (module, dotted name)
DIRECT = [
    ("fps", "compose_templates"),
    ("fps", "set_partitions"),
    ("fps", "subset_splits"),
    ("graphs", "count_class"),
    ("graphs", "class_masks.cache_clear"),
]


def _tracer_literals():
    out = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            out[node.targets[0].id] = node.value
    return {name: ast.literal_eval(out[name]) for name in ("LAYER_SPANS", "_FAMILY_BUILDERS")}


def _resolve(modname, dotted):
    obj = importlib.import_module(f"virialkit.{modname}")
    for part in dotted.split("."):
        obj = getattr(obj, part, None)
    return obj


def test_benchmark_names_resolve():
    lit = _tracer_literals()
    module_of = {}
    for modname, names in lit["LAYER_SPANS"].values():
        for name in names:
            assert callable(_resolve(modname, name)), f"virialkit.{modname}.{name}"
            module_of[name] = modname
    for name in lit["_FAMILY_BUILDERS"]:
        assert name in module_of and callable(_resolve(module_of[name], name)), name
    for modname, dotted in DIRECT:
        assert callable(_resolve(modname, dotted)), f"virialkit.{modname}.{dotted}"
