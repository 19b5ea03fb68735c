"""Spans and counts around calls into virialkit, recorded from outside.

Nothing under ``src/`` is changed.  ``Tracer.install`` replaces each public
function named in ``LAYER_SPANS`` with a wrapper, both as the attribute of
its own module and under every name another virialkit module imported it
as (``from .fps import mul`` binds a second reference that a module-level
patch alone would miss).  ``uninstall`` puts the originals back, so the
same process can replay its ops untraced to measure the overhead.

Each span is (id, metric, start, end, parent id, op id).  Spans stay in
memory and are written as JSON lines at the end.  A span's self time is its
duration minus the durations of its direct children; since one thread runs
everything, children never overlap, so the per-metric self times partition
the traced time.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

# metric prefix -> (module, [public functions]).  Every per-layer *_s time
# is the self time of these spans.
LAYER_SPANS = {
    "species.load": ("species", ["load_species_json", "build_mayer"]),
    "graphs.build_A_family": ("graphs", ["build_A_family"]),
    "graphs.build_phi_series": ("graphs", ["build_phi_series"]),
    "graphs.build_D_family": ("graphs", ["build_D_family"]),
    "graphs.d_coeff": ("graphs", ["d_coeff"]),
    "treefp.compute_tn": ("treefp", ["compute_tn"]),
    "treefp.exp_family": ("treefp", ["exp_family"]),
    "treefp.verify_FP": ("treefp", ["verify_FP"]),
    "treefp.verify_FPprime": ("treefp", ["verify_FPprime"]),
    "treefp.eval_T": ("treefp", ["eval_T", "eval_T_abs"]),
    "fps.mul": ("fps", ["mul"]),
    "fps.compose_measure": ("fps", ["compose_measure"]),
    "fps.exp_log": ("fps", ["exp_series", "log_series", "compose_univariate"]),
    "inversion.roundtrip_check": ("inversion", ["roundtrip_check"]),
    "inversion.zeta_path_agreement": ("inversion", ["zeta_path_agreement"]),
    "inversion.dissymmetry_check": ("inversion", ["dissymmetry_check"]),
    "inversion.extract_d_from_a": ("inversion", ["extract_d_from_a"]),
    "inversion.maps": ("inversion", ["rho_of_z", "zeta_of_nu"]),
    "inversion.certificates": ("inversion", ["check_PU", "check_Sb", "check_Sab"]),
    "inversion.exact_sums": ("inversion", ["xi_exact", "density_exact"]),
    "inversion.run_request_self": ("inversion", ["run_request"]),
    "kernels.scan_masks": ("kernels", ["scan_masks"]),
    "kernels.mc_mask_sum": ("kernels", ["mc_mask_sum"]),
    "kernels.mc_rod_mask_sum": ("kernels", ["mc_rod_mask_sum"]),
    "homogeneous.virial_table_self": ("homogeneous", ["virial_table"]),
    "homogeneous.bounds_report": ("homogeneous", ["bounds_report"]),
    "apps.invert_mixture_self": ("apps", ["invert_mixture"]),
    "apps.rods_free_energy_self": ("apps", ["rods_free_energy"]),
    "apps.invert_profile": ("apps", ["invert_profile"]),
    "cli.main_self": ("cli", ["main"]),
}

# Monte Carlo kernels, whose first argument holds one row per sample
MC_SPANS = ("kernels.mc_mask_sum", "kernels.mc_rod_mask_sum")

COUNTS = ("graphs.d_terms", "treefp.t_nonzero", "fps.calls", "fps.max_bits", "kernels.samples")

# results whose coefficients feed fps.max_bits
_FAMILY_BUILDERS = {
    "build_A_family", "build_D_family", "build_phi_series",
    "compute_tn", "exp_family", "extract_d_from_a",
}


def _max_bits(family):
    best = 0
    for comp in family.coeffs:
        for v in comp.values():
            if isinstance(v, Fraction):
                best = max(best, abs(v.numerator).bit_length(), v.denominator.bit_length())
            elif isinstance(v, int):
                best = max(best, abs(v).bit_length())
    return best


def self_times(records):
    """metric -> total self time over span records of one process."""
    records = list(records)
    child = {}
    for rec in records:
        if rec["parent"] is not None:
            child[rec["parent"]] = child.get(rec["parent"], 0.0) + rec["end"] - rec["start"]
    out = {}
    for rec in records:
        own = rec["end"] - rec["start"] - child.get(rec["id"], 0.0)
        out[rec["name"]] = out.get(rec["name"], 0.0) + own
    return out


class Tracer:
    """In-memory span recorder; counts are taken only while ``counting``."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.counting = False
        self.counts = dict.fromkeys(COUNTS, 0)
        self.mc_samples = 0
        self._families = []
        self._patched = []

    # -- recording -------------------------------------------------------

    def span(self, metric, fn, *args, **kwargs):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append(None)
        self.stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans[sid] = (sid, metric, t0, t1, parent, self.op)

    def _wrap(self, metric, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer.span(metric, fn, *args, **kwargs)
            if metric in MC_SPANS:
                tracer.mc_samples += len(args[0])
            if tracer.counting:
                tracer._count(metric, name, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _count(self, metric, name, args, result):
        from virialkit.graphs import count_class

        c = self.counts
        if metric.startswith("fps."):
            c["fps.calls"] += 1
        elif name == "d_coeff":
            n = len(args[1])
            c["graphs.d_terms"] += 1 if n == 2 else count_class(n, "biconnected")
        elif metric in MC_SPANS:
            c["kernels.samples"] += len(args[0])
        if name == "compute_tn":
            c["treefp.t_nonzero"] += sum(
                1 for comp in result.coeffs[1:] for v in comp.values() if v != 0
            )
        if name in _FAMILY_BUILDERS:
            self._families.append(result)

    def finish_counts(self):
        """Fold the families kept while counting into fps.max_bits."""
        for fam in self._families:
            self.counts["fps.max_bits"] = max(self.counts["fps.max_bits"], _max_bits(fam))
        self._families = []

    # -- patching --------------------------------------------------------

    def install(self):
        import virialkit.cli  # noqa: F401  (loads every submodule)

        modules = [m for k, m in sys.modules.items() if k == "virialkit" or k.startswith("virialkit.")]
        for metric, (modname, names) in LAYER_SPANS.items():
            mod = sys.modules[f"virialkit.{modname}"]
            for name in names:
                orig = getattr(mod, name)
                wrapped = self._wrap(metric, name, orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapped)
                            self._patched.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched = []

    # -- reduction -------------------------------------------------------

    def self_times(self):
        return self_times(self.records())

    def records(self):
        for sid, metric, t0, t1, parent, op in self.spans:
            yield {"id": sid, "name": metric, "start": t0, "end": t1, "parent": parent, "op": op}

    def write_jsonl(self, fh):
        for rec in self.records():
            fh.write(json.dumps(rec) + "\n")
