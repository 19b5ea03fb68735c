"""The virialkit names and series surface the benchmark harness uses must exist.

``perfbench/tracer.py`` wraps every function named in ``LAYER_SPANS`` by
module and name, and the workloads call a few helpers directly, so a rename
would otherwise break only a traced benchmark run.  The workloads and the
probe pass of ``perfbench/run.py`` call virialkit with fixed arguments, which
must still bind after a parameter is removed or renamed.  The tracer and the
workloads also read series coefficients through ``coeffs``.  Their sources
are parsed, not imported, so this test writes nothing under ``perfbench/``.
"""

import ast
import importlib
import inspect
from fractions import Fraction
from pathlib import Path

from virialkit.inversion import GCState
from virialkit.species import MayerMatrices, SpeciesSpace

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS = PERFBENCH / "workloads.py"
RUN = PERFBENCH / "run.py"

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


def _imported(module, name):
    """What ``from module import name`` binds: a submodule or an attribute."""
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), name)


def _virialkit_calls(tree):
    """Every call in ``tree`` to a name imported from virialkit, or to an
    attribute path on one, as (source, callee, call node)."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "virialkit":
            for alias in node.names:
                obj = _imported(node.module, alias.name)
                assert bound.setdefault(alias.asname or alias.name, obj) is obj, alias.name
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        path, func = [], node.func
        while isinstance(func, ast.Attribute):
            path.insert(0, func.attr)
            func = func.value
        if isinstance(func, ast.Name) and func.id in bound:
            obj = bound[func.id]
            for part in path:
                obj = getattr(obj, part, None)
            yield ast.unparse(node.func), obj, node


def test_harness_calls_bind():
    run_tree = ast.parse(RUN.read_text())
    probe = next(n for n in run_tree.body if isinstance(n, ast.FunctionDef) and n.name == "probe_pass")
    seen = set()
    for tree in (probe, ast.parse(WORKLOADS.read_text())):
        for source, obj, call in _virialkit_calls(tree):
            assert callable(obj), source
            seen.add(source)
            try:
                sig = inspect.signature(obj)
            except ValueError:
                continue  # a C callable such as lru_cache's cache_clear
            assert not any(isinstance(a, ast.Starred) for a in call.args), source
            assert all(k.arg is not None for k in call.keywords), source
            try:
                sig.bind(*call.args, **{k.arg: k.value for k in call.keywords})
            except TypeError as exc:
                raise AssertionError(f"{source}: {exc}") from None
    for source in (
        "species.build_mayer", "inversion.density_exact", "inversion.roundtrip_check",
        "apps.invert_profile", "MayerMatrices.from_f", "GCState",
    ):
        assert source in seen, source


def _harness_function(path, name, **names):
    """The module-level function ``name`` of a harness file, compiled from
    its source alone, with ``names`` as its globals."""
    tree = ast.parse(path.read_text())
    node = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)
    scope = dict(names)
    exec(compile(ast.Module([node], []), str(path), "exec"), scope)
    return scope[name]


def test_series_surface_the_harness_reads():
    # tracer._max_bits iterates coeffs and each order's .values(), the
    # t_nonzero count reads coeffs[1:], and identity_suite reads a family's
    # coeffs[n].items() and a series' coeffs[n][ms]
    max_bits = _harness_function(TRACER, "_max_bits", Fraction=Fraction)
    identity_suite = _harness_function(WORKLOADS, "identity_suite")
    space = SpeciesSpace.uniform(2)
    f = [[Fraction(-1), Fraction(-1, 2)], [Fraction(-1, 2), Fraction(1, 3)]]
    st = GCState(space, mayer=MayerMatrices.from_f(space, f, exact=True), N=3)
    reports, worst = identity_suite(st)
    assert worst == 0 and all(rep.exact for rep in reports)
    for X in (st.a_family, st.t_family, st.phi_series):
        assert max_bits(X) > 0
    assert sum(1 for comp in st.t_family.coeffs[1:] for v in comp.values() if v != 0) > 0
