"""The four benchmark workloads: inputs, ops and output checks.

Every workload is a fixed cycle of op slots.  A slot fixes the structure of
its input (species count, truncation order, hard-core pattern, op), so the
cost of a slot does not depend on the seed; the seed picks the values.
Runs are measured over whole cycles, which keeps the op mix, and with it
ops_per_s and the percentiles, the same from run to run.

Where an output is checked against a value recorded at this commit
(``references.json``), the seed picks one of a fixed pool of variants per
slot, and each variant's inputs come from its own generator seeded by
(workload, slot, variant).  ``run.py --record`` rewrites the pool.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from tracer import LAYER_SPANS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = SRC / "virialkit" / "fixtures"
REFERENCES = HERE / "references.json"
POOL = {"requests_exact": 16, "float_wide": 8, "cli_batch": 8}


def digest(obj):
    """Bit-exact fingerprint: floats go through repr, so one ulp changes it."""
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Op:
    """One timed call into the program plus the check of its outcome.

    ``check(output, exc)`` returns True when the outcome is right; ``exc`` is
    the exception the call raised, or None.  A boundary op probes input
    handling (see BOUNDARY_SLOTS).
    """

    slot: str
    call: Callable[[], object]
    check: Callable[[object, BaseException | None], bool]
    boundary: bool = False


def load_references():
    if REFERENCES.exists():
        return json.loads(REFERENCES.read_text())
    return {}


class Workload:
    name = ""
    in_process = True
    cycle_seconds = 1.0  # one cycle's duration on a 2-core x86-64 VM, for sizing runs
    min_ops = 21  # fewest ops in an untraced run: ten samples above the median
    # The tracer spans (tracer.LAYER_SPANS) that the ops reach.  A traced run
    # reports these from the workload's own ops and fails if one reads 0;
    # every other layer is always reported from the fixed probe pass.  So
    # the source of each figure is fixed here and cannot change unnoticed.
    layers = frozenset()

    def __init__(self, seed, refs=None):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.refs = (refs or {}).get(self.name, {})
        self.record = None  # set to a dict to collect digests instead of checking

    def warm_up(self):
        """Fill the per-process caches the ops rely on (class tables, templates)."""

    def cycle(self):
        """The ops of one cycle, with fresh seeded draws."""
        raise NotImplementedError

    def variant(self):
        return self.rng.randrange(POOL[self.name])

    def matches(self, key, out):
        d = digest(out)
        if self.record is not None:
            self.record.setdefault(key[0], {})[str(key[1])] = d
            return True
        return self.refs.get(key[0], {}).get(str(key[1])) == d


# ---------------------------------------------------------------------------
# identity_exact


def _is_literal_zero(v):
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool) and v == 0


def _report_is_zero(rep):
    return (
        rep.exact
        and _is_literal_zero(rep.max_abs)
        and all(_is_literal_zero(v) for v in rep.per_order.values())
    )


def rational_instance(r, S, N):
    """Dense random rational Mayer matrix: f = k/16, k in [-16, 8]; weights k/2."""
    from virialkit.inversion import GCState
    from virialkit.species import MayerMatrices, SpeciesSpace

    f = [[Fraction(0)] * S for _ in range(S)]
    for i in range(S):
        for j in range(i, S):
            f[i][j] = f[j][i] = Fraction(r.randint(-16, 8), 16)
    space = SpeciesSpace.from_weights([Fraction(r.randint(1, 4), 2) for _ in range(S)])
    return GCState(space, mayer=MayerMatrices.from_f(space, f, exact=True), N=N)


def identity_suite(st):
    """The exact identity suite on one state; returns every residual report
    plus the phi-vs-A residual.  Cached properties are touched in dependency
    order so that each build is its own layer's work."""
    from virialkit import inversion, treefp

    A = st.a_family
    t = st.t_family
    st.e_family
    phi = st.phi_series
    reports = [
        treefp.verify_FP(A, t),
        treefp.verify_FPprime(A, t),
        inversion.roundtrip_check(st),
    ]
    # D from A by extraction, never by graph enumeration; the two zeta paths
    # must then agree exactly.
    st.__dict__["d_family"] = inversion.extract_d_from_a(st)
    reports.append(inversion.zeta_path_agreement(st))
    # A_n(q; x) = -(prod_j (1 + f(q, x_j)) - 1) phi_n(x), literally.
    f = st.mayer.f
    worst = 0
    for n in range(1, st.N + 1):
        for (q, ms), v in A.coeffs[n].items():
            bracket = 1
            for x in ms:
                bracket *= 1 + f[q][x]
            worst = max(worst, abs(v + (bracket - 1) * phi.coeffs[n][ms]))
    return reports, worst


class IdentityExact(Workload):
    name = "identity_exact"
    cycle_seconds = 2.9
    layers = frozenset({
        "graphs.build_A_family", "graphs.build_phi_series",
        "treefp.compute_tn", "treefp.exp_family", "treefp.verify_FP", "treefp.verify_FPprime",
        "fps.mul", "fps.compose_measure", "fps.exp_log",
        "inversion.roundtrip_check", "inversion.zeta_path_agreement", "inversion.extract_d_from_a",
    })
    SHAPES = ((2, 6), (3, 5), (4, 4))

    def warm_up(self):
        from virialkit import fps

        for n in range(1, 7):
            fps.compose_templates(n)
            fps.set_partitions(n)
            fps.subset_splits(n)

    def cycle(self):
        ops = []
        for S, N in self.SHAPES:
            r = random.Random(self.rng.getrandbits(64))

            def call(r=r, S=S, N=N):
                return identity_suite(rational_instance(r, S, N))

            def check(out, exc):
                if exc is not None:
                    return False
                reports, phi_residual = out
                return all(_report_is_zero(rep) for rep in reports) and _is_literal_zero(
                    phi_residual
                )

            ops.append(Op(f"S{S}/N{N}", call, check))
        return ops


# ---------------------------------------------------------------------------
# requests_exact


def line_doc(r, S):
    """Hard spheres on a line whose overlap graph is always the path 0-1-..:
    neighbours sit 0.9..1.1 apart with radius sums >= 1.12, next neighbours
    1.9..2.1 apart with radius sums <= 1.8."""
    species = [
        {
            "id": i,
            "weight": r.randint(1, 2),
            "payload": {
                "position": [round(i + r.uniform(-0.05, 0.05), 3)],
                "radius": round(r.uniform(0.56, 0.9), 2),
            },
        }
        for i in range(S)
    ]
    return {"beta": 1.0, "species": species, "potential": {"kind": "hard_sphere", "params": {}}}


# off-diagonal hard-core pairs of the matrix documents; the diagonal is always hard
MATRIX_PATTERN = {2: (), 3: ((0, 2),), 4: ((0, 1), (1, 2), (2, 3), (0, 3))}


def matrix_doc(r, S):
    v = [["inf" if i == j else 0.0 for j in range(S)] for i in range(S)]
    for i, j in MATRIX_PATTERN[S]:
        v[i][j] = v[j][i] = "inf"
    species = [{"id": i, "weight": r.randint(1, 2)} for i in range(S)]
    return {"beta": 1.0, "species": species, "potential": {"kind": "matrix", "params": {"v": v}}}


def activities(r, S):
    return [f"{r.randint(1, 3)}/{r.randint(20, 60)}" for _ in range(S)]


README_DOC = {
    "beta": 1.0,
    "species": [{"id": 0, "weight": 1}, {"id": 1, "weight": "1/2"}],
    "potential": {"kind": "matrix", "params": {"v": [["inf", 0.5], [0.5, 0.0]]}},
}

# (op, document kind, S, N, extra inputs).  The ops that need D are the
# minority by count; the cheap ops set the median.  The D ops stay at N = 4:
# one D build by graph enumeration at N = 5 takes 1.3-9 s here, and a
# single such op would be most of a cycle and most of its run-to-run noise.
# N = 6 is left out for every op: one D build there takes minutes.
REQUEST_SLOTS = [
    ("rho_of_z", "line", 2, 4, {}),
    ("rho_of_z", "line", 3, 4, {}),
    ("rho_of_z", "matrix", 3, 5, {}),
    ("rho_of_z", "matrix", 4, 5, {}),
    ("zeta_of_nu", "line", 2, 5, {"path": "tree"}),
    ("zeta_of_nu", "line", 3, 5, {"path": "tree"}),
    ("zeta_of_nu", "line", 4, 4, {"path": "tree"}),
    ("zeta_of_nu", "matrix", 4, 4, {"path": "tree"}),
    ("log_xi_series", "line", 3, 5, {}),
    ("log_xi_series", "line", 4, 4, {}),
    ("log_xi_series", "matrix", 2, 4, {}),
    ("xi_exact", "line", 2, 4, {}),
    ("xi_exact", "line", 4, 4, {}),
    ("xi_exact", "matrix", 3, 5, {}),
    ("density_exact", "line", 2, 5, {}),
    ("density_exact", "line", 3, 4, {}),
    ("density_exact", "matrix", 4, 5, {}),
    ("check_PU", "line", 2, 4, {}),
    ("check_PU", "line", 4, 4, {}),
    ("check_PU", "matrix", 3, 5, {}),
    ("check_Sb", "line", 2, 5, {}),
    ("check_Sb", "line", 4, 4, {}),
    ("check_Sb", "matrix", 3, 5, {}),
    ("check_Sab", "line", 3, 4, {}),
    ("check_Sab", "matrix", 2, 5, {}),
    ("check_Sab", "matrix", 4, 4, {}),
    ("roundtrip", "line", 3, 4, {}),
    ("roundtrip", "matrix", 2, 5, {}),
    ("dissymmetry", "line", 2, 5, {}),
    ("dissymmetry", "matrix", 3, 4, {}),
    # the ops that build D by graph enumeration
    ("zeta_of_nu", "line", 3, 4, {}),
    ("zeta_of_nu", "matrix", 4, 4, {}),
    ("pressure", "matrix", 3, 4, {}),
    ("free_energy", "line", 4, 4, {}),
    ("zeta_paths", "matrix", 3, 4, {}),
]

MEASURE_KEY = {
    "rho_of_z": "z", "log_xi_series": "z", "xi_exact": "z", "density_exact": "z",
    "check_PU": "z", "zeta_of_nu": "nu", "pressure": "nu", "free_energy": "nu",
    "check_Sb": "nu", "check_Sab": "nu",
}

# Inputs documented in the README or listed as robustness bugs.  The right
# outcome is the twin request's value (the same request with the string
# already parsed) or a documented StructureError/DomainError.
BOUNDARY_SLOTS = ["weight_string", "a_strings", "short_measure", "zero_denominator", "nan_activity"]


def request_for(slot_index, variant):
    """(request, twin request or None) for a value slot, deterministic in variant."""
    op, kind, S, N, extra = REQUEST_SLOTS[slot_index]
    r = random.Random(f"requests_exact/{slot_index}/{variant}")
    doc = line_doc(r, S) if kind == "line" else matrix_doc(r, S)
    inputs = dict(extra)
    if op in MEASURE_KEY:
        inputs[MEASURE_KEY[op]] = activities(r, S)
    return {"state": doc, "op": op, "N": N, "inputs": inputs}


def boundary_request(name, variant):
    """(request, twin) for a boundary slot; twin is None when only an error is right."""
    r = random.Random(f"requests_exact/boundary/{name}/{variant}")
    if name == "weight_string":
        req = {"state": README_DOC, "op": "rho_of_z", "N": 4, "inputs": {"z": activities(r, 2)}}
        twin = json.loads(json.dumps(req))
        twin["state"]["species"][1]["weight"] = Fraction(1, 2)
        return req, twin
    doc = line_doc(r, 3)
    z = activities(r, 3)
    if name == "a_strings":
        a = [f"1/{r.randint(2, 4)}" for _ in range(3)]
        req = {"state": doc, "op": "check_PU", "N": 4, "inputs": {"z": z, "a": a}}
        twin = {"state": doc, "op": "check_PU", "N": 4,
                "inputs": {"z": z, "a": [Fraction(s) for s in a]}}
        return req, twin
    if name == "short_measure":
        z = z[:2]
    elif name == "zero_denominator":
        z[r.randrange(3)] = "1/0"
    elif name == "nan_activity":
        z[r.randrange(3)] = float("nan")
    return {"state": doc, "op": "rho_of_z", "N": 4, "inputs": {"z": z}}, None


class RequestsExact(Workload):
    name = "requests_exact"
    cycle_seconds = 1.9
    layers = frozenset({
        "species.load",
        "graphs.build_A_family", "graphs.build_phi_series", "graphs.build_D_family", "graphs.d_coeff",
        "treefp.compute_tn", "treefp.exp_family", "treefp.eval_T",
        "fps.mul", "fps.compose_measure", "fps.exp_log",
        "inversion.roundtrip_check", "inversion.zeta_path_agreement", "inversion.dissymmetry_check",
        "inversion.maps", "inversion.certificates", "inversion.exact_sums", "inversion.run_request_self",
    })

    def warm_up(self):
        from virialkit import fps, graphs

        for n in range(1, 6):
            fps.compose_templates(n)
            fps.set_partitions(n)
            fps.subset_splits(n)
        for n in range(3, 7):
            graphs.d_coeff([[Fraction(-1)]], (0,) * n)

    def cycle(self):
        from virialkit import inversion
        from virialkit.errors import DomainError, StructureError

        ops = []
        for i, (op, kind, S, N, extra) in enumerate(REQUEST_SLOTS):
            v = self.variant()
            req = request_for(i, v)
            key = (f"{i:02d}/{op}/{kind}/S{S}/N{N}", v)

            def check(out, exc, key=key):
                return exc is None and self.matches(key, out)

            # looked up at call time, so that the spans see the call
            ops.append(Op(key[0], lambda req=req: inversion.run_request(req), check))
        for name in BOUNDARY_SLOTS:
            v = self.variant()
            req, twin = boundary_request(name, v)
            key = (f"boundary/{name}", v) if twin is not None else None
            if self.record is not None and twin is not None:
                self.matches(key, inversion.run_request(twin))

            def check(out, exc, key=key):
                if isinstance(exc, (StructureError, DomainError)):
                    return True
                return exc is None and key is not None and self.record is None and self.matches(key, out)

            ops.append(Op(f"boundary/{name}", lambda req=req: inversion.run_request(req), check,
                          boundary=True))
        return ops


# ---------------------------------------------------------------------------
# float_wide


def soft_state(S, variant):
    """A soft float state (energies in [-0.3, 1.5]) and three densities."""
    from virialkit.inversion import GCState
    from virialkit.species import PairPotential, SpeciesSpace

    r = random.Random(f"float_wide/{S}/{variant}")
    v = [[0.0] * S for _ in range(S)]
    for i in range(S):
        for j in range(i, S):
            v[i][j] = v[j][i] = round(r.uniform(-0.3, 1.5), 3)
    space = SpeciesSpace.from_weights([r.choice((0.5, 1.0, 1.5)) for _ in range(S)])
    nus = [[round(r.uniform(0.01, 0.05), 4) for _ in range(S)] for _ in range(3)]
    return (lambda: GCState(space, pot=PairPotential(space, 1.0, v), N=4)), nus


class FloatWide(Workload):
    name = "float_wide"
    cycle_seconds = 12.0
    layers = frozenset({
        "species.load",
        "graphs.build_A_family", "graphs.build_D_family", "graphs.d_coeff",
        "treefp.compute_tn", "treefp.exp_family", "treefp.eval_T",
        "fps.mul", "fps.compose_measure", "fps.exp_log",
        "inversion.roundtrip_check", "inversion.zeta_path_agreement",
        "inversion.maps", "inversion.certificates",
    })
    min_ops = 70  # two samples of every slot: one sample per slot is too noisy
    # Per instance, as a library user works: the first ops build the
    # families and run the checks, and the maps are then evaluated at two
    # more densities.  With this mix the median falls inside the cluster of
    # S = 10 map evaluations rather than on the edge between two clusters.
    # roundtrip at S = 12 alone takes about 5 s and stays out.
    BUILDS = ("zeta_tree", "zeta_biconnected", "zeta_paths", "check_Sb", "pressure", "roundtrip")
    EVALS = ("zeta_tree", "zeta_biconnected", "pressure")
    SIZES = (8, 10, 12)

    def warm_up(self):
        from virialkit import fps, graphs

        for n in range(1, 5):
            fps.compose_templates(n)
            fps.set_partitions(n)
            fps.subset_splits(n)
        for n in range(3, 6):
            graphs.d_coeff([[-0.5]], (0,) * n)

    def cycle(self):
        from virialkit import inversion

        calls = {
            "zeta_tree": lambda st, nu: [float(x) for x in inversion.zeta_of_nu(st, nu, path="tree")],
            "zeta_biconnected": lambda st, nu: [float(x) for x in inversion.zeta_of_nu(st, nu)],
            "zeta_paths": lambda st, nu: inversion.zeta_path_agreement(st).to_dict(),
            "check_Sb": lambda st, nu: inversion.check_Sb(st, nu).to_dict(),
            "pressure": lambda st, nu: float(inversion.pressure_of_nu(st, nu)),
            "roundtrip": lambda st, nu: inversion.roundtrip_check(st).to_dict(),
        }
        ops = []
        for S in self.SIZES:
            v = self.variant()
            make, nus = soft_state(S, v)
            holder = {}

            def state(make=make, holder=holder):
                # the first op on an instance builds it
                if "st" not in holder:
                    holder["st"] = make()
                return holder["st"]

            plan = [(name, 0) for name in self.BUILDS if not (S == 12 and name == "roundtrip")]
            plan += [(name, k) for k in range(1, len(nus)) for name in self.EVALS]
            for name, k in plan:
                key = (f"S{S}/{name}/{k}", v)

                def check(out, exc, key=key):
                    return exc is None and self.matches(key, out)

                ops.append(Op(key[0], lambda fn=calls[name], state=state, nu=nus[k]: fn(state(), nu),
                              check))
        return ops


# ---------------------------------------------------------------------------
# cli_batch


def cli_commands(variant):
    """(slot, argv) of one cycle, every command at --threads 1."""
    r = random.Random(f"cli_batch/{variant}")
    fx = FIXTURES
    doc = line_doc(r, 3)
    request = {"state": doc, "op": "zeta_of_nu", "N": 4, "inputs": {"nu": activities(r, 3)}}
    seed = str(variant)
    return [
        ("virial_1d", ["virial", "--model", json.dumps({"kind": "hard_rod", "a": f"{variant + 1}/4"}), "--order", "3"]),
        ("virial_mc", ["virial", "--model", json.dumps({"kind": "hard_sphere", "d": 3, "radius": 0.5}),
                       "--order", "3", "--seed", seed]),
        ("bounds", ["bounds", "--b-bar", str(variant / 10)]),
        ("mixture", ["mixture", "--model", str(fx / "mixture_spheres.json"), "--order", "3", "--seed", seed]),
        ("rods", ["rods", "--model", str(fx / "rod_grid.json"), "--order", "3", "--seed", seed]),
        ("invert", ["invert", "--model", str(fx / "grid_profile.json"), "--order", "3"]),
        ("request", ["request", "--model", json.dumps(request)]),
        ("selftest", ["selftest", "--seed", seed]),
    ]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliBatch(Workload):
    name = "cli_batch"
    in_process = False
    cycle_seconds = 9.6
    # every layer but these three; each command is a fresh process, so the
    # graph-class scan (kernels.scan_masks) runs inside the ops
    layers = frozenset(LAYER_SPANS) - {
        "treefp.eval_T", "inversion.extract_d_from_a", "inversion.exact_sums",
    }

    def __init__(self, seed, refs=None):
        super().__init__(seed, refs)
        self.trace_dir = None  # when set, commands run under perfbench/trace_child.py
        self._n = 0

    def cycle(self):
        ops = []
        for idx in range(len(cli_commands(0))):
            v = self.variant()
            slot, argv = cli_commands(v)[idx]
            key = (slot, v)

            def call(argv=argv):
                self._n += 1
                if self.trace_dir is None:
                    cmd = [sys.executable, "-m", "virialkit.cli", *argv, "--threads", "1"]
                else:
                    out = self.trace_dir / f"child-{self._n:05d}.jsonl"
                    cmd = [sys.executable, str(HERE / "trace_child.py"), str(out), *argv, "--threads", "1"]
                p = subprocess.run(cmd, capture_output=True, env=child_env(), cwd=ROOT, timeout=120)
                return p.returncode, hashlib.sha256(p.stdout).hexdigest()

            def check(out, exc, key=key):
                return exc is None and out[0] == 0 and self.matches(key, out[1])

            ops.append(Op(slot, call, check))
        return ops


WORKLOADS = {w.name: w for w in (IdentityExact, RequestsExact, FloatWide, CliBatch)}
