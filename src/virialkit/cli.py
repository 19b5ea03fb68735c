"""Batch command-line front end.

Subcommands:

    virial    irreducible-integral table for a homogeneous model
    bounds    constants and radius bounds table
    invert    external potential from a target density profile
    mixture   activities of a hard-sphere mixture from densities
    rods      truncated free energy of rods with discrete orientations
    selftest  exact-identity suite on shipped fixtures and seeded instances
    request   serve a single JSON operation request

Exit codes: 0 success, 1 certificate refusal (margins printed), 2 input
error, 3 capability limit (also a float overflow), 4 internal error (one
line on stderr naming the exception and the line that raised it, no
traceback).  Output is CSV (default) or JSON; with a fixed configuration
and seed the bytes are identical for any --threads value.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from fractions import Fraction
from importlib import resources

from . import apps, homogeneous, inversion, treefp
from .errors import (
    CapabilityError,
    CertificateError,
    DomainError,
    StructureError,
    required_fields,
)
from .fps import FormalSeries, exp_series
from .species import (
    MayerMatrices,
    SpeciesSpace,
    load_doc,
    load_species_json,
    parse_dimension,
    parse_scalar,
)


def fixture_text(name):
    return resources.files("virialkit").joinpath("fixtures", name).read_text()


def _fmt(v, mode):
    if isinstance(v, Fraction):
        if mode == "float":
            v = float(v)
        elif v.denominator == 1:
            return str(v.numerator)
        else:
            return f"{v.numerator}/{v.denominator}"
    return str(v)


def _json_scalar(v, mode):
    if isinstance(v, Fraction):
        if mode == "float" or v.denominator != 1:
            return _fmt(v, mode) if mode != "float" else float(v)
        return v.numerator
    return v


def _json_text(payload):
    """The JSON text of a payload.  JSON has no NaN or infinity, so a
    non-finite float is refused as a float range overflow (exit 3)."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, default=str, allow_nan=False) + "\n"
    except ValueError as exc:
        raise OverflowError("a value is not finite and has no JSON form") from exc


def _emit(args, header, rows, extra=None):
    if args.format == "json":
        payload = {
            "header": list(header),
            "rows": [[_json_scalar(v, args.mode) for v in row] for row in rows],
        }
        if extra:
            payload.update(extra)
        text = _json_text(payload)
    else:
        lines = [",".join(header)]
        lines += [",".join(_fmt(v, args.mode) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    _write(args, text)


def _write(args, text):
    """Write ``text`` to the ``--out`` file, else to stdout."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _hom_model(args):
    if not args.model:
        return homogeneous.HomogeneousModel.hard_rod(1)
    doc = load_doc(args.model)
    kind = doc.get("kind", "hard_rod")
    beta = parse_scalar(doc.get("beta", 1.0))
    B = parse_scalar(doc.get("B", 0.0))
    Bstar = parse_scalar(doc.get("Bstar", 0.0))
    if not beta > 0:
        raise DomainError("beta must be positive")
    if B < 0 or Bstar < 0:
        raise DomainError("B and Bstar must be non-negative")
    if kind == "hard_rod":
        return homogeneous.HomogeneousModel.hard_rod(
            parse_scalar(doc.get("a", 1)), beta=beta, B=B, Bstar=Bstar
        )
    if kind == "hard_sphere":
        return homogeneous.HomogeneousModel.hard_sphere(
            d=parse_dimension(doc.get("d", 3)),
            radius=parse_scalar(doc["radius"]) if "radius" in doc else None,
            exclusion=parse_scalar(doc["exclusion"]) if "exclusion" in doc else None,
            beta=beta,
            B=B,
            Bstar=Bstar,
        )
    if kind == "ideal":
        return homogeneous.HomogeneousModel.ideal(parse_dimension(doc.get("d", 1)))
    raise DomainError(f"unknown homogeneous model kind {kind!r}")


def cmd_virial(args):
    model = _hom_model(args)
    rows = homogeneous.virial_table(
        model, args.order, samples=args.samples, seed=args.seed, threads=args.threads
    )
    _emit(
        args,
        ("n", "beta_n", "method", "stderr"),
        [(r.n, r.beta_n, r.method, r.stderr) for r in rows],
    )
    return 0


def cmd_bounds(args):
    model = _hom_model(args)
    b_bar = parse_scalar(args.b_bar)
    if b_bar < 0:
        raise DomainError("--b-bar must be non-negative")
    rows = homogeneous.bounds_report(model, B_bar=b_bar)
    _emit(args, ("name", "value", "formula"), rows)
    return 0


def cmd_invert(args):
    doc = load_doc(args.model)
    gp = apps.GridProfile.from_json(doc)
    with required_fields("model"):
        kernel = doc["kernel"]
    result = apps.invert_profile(gp, kernel, args.order, beta=parse_scalar(doc.get("beta", 1.0)))
    rows = [
        (i, gp.points[i], result["v_ext"][i]) for i in range(len(gp.points))
    ]
    _emit(
        args,
        ("point", "position", "v_ext"),
        rows,
        extra={"certificate": result["certificate"].to_dict()},
    )
    return 0


def cmd_mixture(args):
    ms = apps.MixtureSpec.from_json(args.model)
    result = apps.invert_mixture(
        ms, args.order, samples=args.samples, seed=args.seed, threads=args.threads
    )
    rows = [(k, zk) for k, zk in enumerate(result["z"])]
    _emit(
        args,
        ("k", "z_k"),
        rows,
        extra={"certificate": result["certificate"].to_dict()},
    )
    return 0


def cmd_rods(args):
    rs = apps.RodSystem.from_json(args.model)
    result = apps.rods_free_energy(
        rs, N=args.order, samples=args.samples, seed=args.seed, threads=args.threads
    )
    rows = list(result["terms"].items()) + [("total", result["total"])]
    _emit(args, ("term", "value"), rows)
    return 0


def _selftest_state(source, N=4):
    space, pot = load_species_json(source)
    return inversion.GCState(space, pot=pot, N=N)


def _random_state(seed, S=3, N=4):
    import random

    r = random.Random(seed)
    f = [[Fraction(0)] * S for _ in range(S)]
    for i in range(S):
        for j in range(i, S):
            f[i][j] = f[j][i] = Fraction(r.randint(-8, 8), 16)
    space = SpeciesSpace.from_weights([Fraction(1)] * S)
    return inversion.GCState(
        space, mayer=MayerMatrices.from_f(space, f, exact=True), N=N
    )


def _bell_numbers_check():
    space = SpeciesSpace.uniform(1)
    ones = FormalSeries.from_function(space, 5, lambda n, ms: 0 if n == 0 else 1)
    got = [exp_series(ones).coeffs[n][(0,) * n] for n in range(6)]
    return got == [1, 1, 2, 5, 15, 52]


def cmd_selftest(args):
    from .oracles import tn_via_trees

    checks = []

    def record(name, ok, detail=""):
        checks.append((name, "PASS" if ok else "FAIL", detail))

    states = [
        ("fixture:hardcore_pair", _selftest_state(fixture_text("hardcore_pair.json"))),
        ("fixture:rational_mix", _selftest_state(fixture_text("rational_mix.json"))),
    ]
    for i in range(3):
        states.append((f"random:{i}", _random_state(args.seed + i)))
    for label, st in states:
        fp = treefp.verify_FP(st.a_family, st.t_family)
        record(f"{label}:fixed_point", fp.exact and fp.max_abs == 0, str(fp.max_abs))
        fpp = treefp.verify_FPprime(st.a_family, st.t_family)
        record(
            f"{label}:fixed_point_activity",
            fpp.exact and fpp.max_abs == 0,
            str(fpp.max_abs),
        )
        rt = inversion.roundtrip_check(st)
        record(f"{label}:roundtrip", rt.exact and rt.max_abs == 0, str(rt.max_abs))
        paths = inversion.zeta_path_agreement(st)
        record(
            f"{label}:zeta_paths", paths.exact and paths.max_abs == 0, str(paths.max_abs)
        )
        dis = inversion.dissymmetry_check(st, N=4)
        record(
            f"{label}:dissymmetry", dis.exact and dis.max_abs == 0, str(dis.max_abs)
        )
    st0 = states[0][1]
    tree_ok = all(
        st0.t_family.coeffs[n][(0, ms)]
        == tn_via_trees(st0.a_family, n, 0, ms)
        for n in range(1, 5)
        for ms in [(0,) * n, (1,) * n]
    )
    record("tree_oracle", tree_ok)
    record("bell_numbers", _bell_numbers_check())
    hom = homogeneous.hom_inversion_selftest(N=2, grid_ks=(3, 6))
    record("tonks_routes", hom["eos_matches_exact"])
    demo = apps.unbounded_mixture_demo()
    record("unbounded_roundtrip", demo["roundtrip_error"] < 1e-12)
    failures = sum(1 for _, status, _ in checks if status == "FAIL")
    _emit(args, ("check", "status", "residual"), checks, extra={"failures": failures})
    return 1 if failures else 0


def cmd_request(args):
    _write(args, _json_text(inversion.run_request(load_doc(args.model))))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="virialkit",
        description="density-activity inversion toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "virial": cmd_virial,
        "bounds": cmd_bounds,
        "invert": cmd_invert,
        "mixture": cmd_mixture,
        "rods": cmd_rods,
        "selftest": cmd_selftest,
        "request": cmd_request,
    }
    needs_model = {"invert", "mixture", "rods", "request"}
    for name, fn in handlers.items():
        p = sub.add_parser(name)
        p.add_argument("--model", required=name in needs_model, default=None)
        p.add_argument("--order", type=int, default=2)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--samples", type=int, default=100_000)
        p.add_argument("--b-bar", type=float, default=0.0)
        p.add_argument("--mode", choices=("rational", "float"), default="rational")
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.set_defaults(func=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.order < 1:
        print("input error: --order must be >= 1", file=sys.stderr)
        return 2
    if args.threads < 1:
        print("input error: --threads must be >= 1", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("input error: --seed must fit in 64 bits", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except CertificateError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        if exc.certificate is not None:
            for i, m in enumerate(exc.certificate.margins):
                print(f"margin[{i}] = {m:.6g}", file=sys.stderr)
        return 1
    except CapabilityError as exc:
        print(f"capability limit: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:
        # inputs so large that a float route leaves the double range
        print(f"capability limit: float range exceeded ({exc})", file=sys.stderr)
        return 3
    except (
        DomainError,
        StructureError,
        OSError,
        KeyError,
        ValueError,
        json.JSONDecodeError,
    ) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # one line instead of a traceback, but it names the raising frame
        where = traceback.extract_tb(exc.__traceback__)[-1]
        print(
            f"internal error: {type(exc).__name__}: {exc} "
            f"(at {os.path.basename(where.filename)}:{where.lineno})",
            file=sys.stderr,
        )
        return 4


if __name__ == "__main__":
    sys.exit(main())
