"""Command-line front end, exercised in process through cli.main(argv).

Exit codes under test: 0 success, 1 certificate refusal with margins on
stderr, 2 input error, 3 capability limit, 4 internal error.  CSV output
for a fixed seed must be byte-identical across --threads values.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp

from virialkit import cli, inversion
from virialkit.species import load_species_json

FIX = cli.__file__.replace("cli.py", "fixtures/")

SPHERE_DOC = '{"kind": "hard_sphere", "d": 3, "radius": 0.5}'


def run(capsys, argv):
    code = cli.main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_virial_default_rod_exact_csv(capsys):
    code, out, err = run(capsys, ["virial"])
    assert code == 0 and err == ""
    assert out == "n,beta_n,method,stderr\n1,-2,exact_1d,0.0\n2,-3/2,exact_1d,0.0\n"


def test_virial_float_mode(capsys):
    code, out, _ = run(capsys, ["virial", "--mode", "float"])
    assert code == 0
    assert out == "n,beta_n,method,stderr\n1,-2.0,exact_1d,0.0\n2,-1.5,exact_1d,0.0\n"


def test_virial_ideal_and_sphere(capsys):
    code, out, _ = run(capsys, ["virial", "--model", '{"kind": "ideal"}', "--order", "3"])
    assert code == 0
    assert out.count(",0,analytic,") == 3
    code, out, _ = run(
        capsys,
        ["virial", "--model", '{"kind": "hard_sphere", "d": 2, "radius": 0.5}', "--order", "1"],
    )
    assert code == 0
    assert out.splitlines()[1] == "1,-3.141592653589793,analytic,0.0"


def test_virial_json_format(capsys):
    code, out, _ = run(capsys, ["virial", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["header"] == ["n", "beta_n", "method", "stderr"]
    assert payload["rows"] == [[1, -2, "exact_1d", 0.0], [2, "-3/2", "exact_1d", 0.0]]


def test_virial_threads_do_not_change_bytes(tmp_path, capsys):
    # MC integrals that are not zero at these sample counts
    mixture = tmp_path / "mixture.json"
    mixture.write_text(json.dumps({"radii": [0.5, 0.75], "d": 1, "rho": [0.01, 0.005]}))
    rods = tmp_path / "rods.json"
    rods.write_text(
        json.dumps(
            {"rho0": 0.05, "length": 1.0, "angles": [0.0, 1.0, 2.0], "probs": [0.25, 0.25, 0.5]}
        )
    )
    for command, model, order in (
        ("virial", SPHERE_DOC, "2"),
        ("mixture", str(mixture), "3"),
        ("rods", str(rods), "3"),
    ):
        outs = []
        for threads in ("1", "4"):
            path = tmp_path / f"{command}{threads}.csv"
            code, _, _ = run(
                capsys,
                [
                    command,
                    "--model",
                    model,
                    "--order",
                    order,
                    "--samples",
                    "8192",
                    "--threads",
                    threads,
                    "--out",
                    str(path),
                ],
            )
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1], command
    lines = (tmp_path / "virial1.csv").read_text().splitlines()
    assert lines[1].endswith(",analytic,0.0")
    assert ",mc," in lines[2]
    terms = dict(line.split(",") for line in (tmp_path / "rods1.csv").read_text().splitlines())
    assert float(terms["order3"]) != 0.0


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_mc_commands_need_a_sample_per_batch(capsys, samples):
    for command, model in (
        ("virial", SPHERE_DOC),
        ("mixture", FIX + "mixture_spheres.json"),
        ("rods", FIX + "rod_grid.json"),
    ):
        argv = [command, "--model", model, "--order", "3", f"--samples={samples}"]
        assert run(capsys, argv) == (
            2, "", "input error: need at least one sample per batch\n"
        ), command


def test_bounds_table(capsys):
    code, out, _ = run(capsys, ["bounds"])
    assert code == 0
    rows = dict(
         (line.split(",")[0], float(line.split(",")[1]))
         for line in out.splitlines()[1:]
    )
    assert 0.14476 < rows["k"] < 0.14478
    assert 0.1839 < rows["one_over_2e"] < 0.1840
    assert abs(rows["banach_ratio"] - 8.0) < 1e-6
    assert rows["r_star"] / rows["r_lp"] == pytest.approx(1.2706, abs=5e-4)
    assert abs(rows["lp_sup"] - rows["lp_closed_form"]) < 1e-8


@pytest.mark.parametrize(
    "b_bar, message",
    [
        ("nan", "not a finite number: nan"),
        ("inf", "not a finite number: inf"),
        ("-1", "--b-bar must be non-negative"),
    ],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_bounds_b_bar_must_be_finite_and_non_negative(capsys, b_bar, message, fmt):
    code, out, err = run(capsys, ["bounds", f"--b-bar={b_bar}", "--format", fmt])
    assert (code, out, err) == (2, "", f"input error: {message}\n")


def test_invert_fixture(capsys):
    code, out, err = run(capsys, ["invert", "--model", FIX + "grid_profile.json", "--order", "3"])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "point,position,v_ext"
    vals = [float(line.split(",")[2]) for line in lines[1:]]
    assert vals[0] == vals[2]  # symmetric target profile
    assert vals[1] < vals[0]  # higher target density needs a weaker wall


def test_json_tables_carry_their_extras(capsys):
    # invert and mixture add their certificate to the JSON table, selftest
    # its failure count
    argvs = [
        ["invert", "--model", FIX + "grid_profile.json", "--order", "3"],
        ["mixture", "--model", FIX + "mixture_spheres.json", "--samples", "640"],
    ]
    for argv in argvs:
        code, out, err = run(capsys, argv + ["--format", "json"])
        assert (code, err) == (0, "")
        cert = json.loads(out)["certificate"]
        assert cert["passed"] is True and min(cert["margins"]) >= 0
    code, out, err = run(capsys, ["selftest", "--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["failures"] == 0


def test_invert_refusal_prints_margins(capsys):
    doc = {
        "points": [0.0, 1.0, 2.0],
        "cell_volumes": [1.0] * 3,
        "rho": [0.5] * 3,
        "kernel": {"kind": "hard_rod", "params": {"length": 1.5}},
    }
    code, out, err = run(capsys, ["invert", "--model", json.dumps(doc), "--order", "3"])
    assert code == 1 and out == ""
    assert err.startswith("refused:")
    assert "margin[0]" in err and "margin[2]" in err


def test_mixture_fixture(capsys):
    code, out, _ = run(capsys, ["mixture", "--model", FIX + "mixture_spheres.json", "--order", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,z_k"
    zs = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(zs) == 2 and all(z > 0 for z in zs)
    assert zs[0] > 0.01 and zs[1] > 0.005  # crowding raises both activities


@pytest.mark.parametrize("d", [2, 3])
def test_mixture_rational_radii_match_float_radii(capsys, d):
    # "p/q" radii are exact numbers (species.parse_scalar); these equal the floats
    outs = []
    for radii in (["1/2", "3/4"], [0.5, 0.75]):
        model = json.dumps({"radii": radii, "d": d, "rho": ["1/100", "1/200"]})
        code, out, err = run(capsys, ["mixture", "--model", model, "--order", "2"])
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1]


def test_rods_fixture_total_is_sum_of_terms(capsys):
    code, out, _ = run(
        capsys,
        ["rods", "--model", FIX + "rod_grid.json", "--order", "3", "--samples", "20000"],
    )
    assert code == 0
    rows = dict(line.split(",") for line in out.splitlines()[1:])
    total = float(rows.pop("total"))
    rows.pop("order3_stderr")
    assert total == pytest.approx(sum(float(v) for v in rows.values()), abs=1e-15)
    assert float(rows["order2"]) == pytest.approx(0.000625, abs=1e-15)


def test_selftest_all_pass(capsys):
    code, out, _ = run(capsys, ["selftest"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "check,status,residual"
    assert len(lines) == 30
    assert all(line.split(",")[1] == "PASS" for line in lines[1:])
    names = [line.split(",")[0] for line in lines[1:]]
    for expected in ("tree_oracle", "bell_numbers", "tonks_routes", "unbounded_roundtrip"):
        assert expected in names
    assert sum(1 for n in names if n.endswith(":roundtrip")) == 5


def test_request_roundtrip(tmp_path, capsys):
    doc = {
        "state": {
            "beta": 1.0,
            "species": [{"id": 0, "weight": 1}, {"id": 1, "weight": 1}],
            "potential": {"kind": "matrix", "params": {"v": [["inf", "inf"], ["inf", 0.0]]}},
        },
        "op": "pressure",
        "N": 3,
        "inputs": {"nu": ["1/20", "1/30"]},
    }
    code, out, _ = run(capsys, ["request", "--model", json.dumps(doc)])
    assert code == 0
    resp = json.loads(out)
    assert resp["op"] == "pressure" and resp["N"] == 3
    space, pot = load_species_json(doc["state"])
    st = inversion.GCState(space, pot=pot, N=3)
    from fractions import Fraction

    direct = inversion.pressure_of_nu(st, [Fraction(1, 20), Fraction(1, 30)])
    assert math.isclose(float(resp["values"]), float(direct), rel_tol=1e-12)
    # --out writes the same payload to a file
    path = tmp_path / "resp.json"
    code, out, _ = run(capsys, ["request", "--model", json.dumps(doc), "--out", str(path)])
    assert code == 0 and out == ""
    assert json.loads(path.read_text()) == resp


def test_input_error_exits(capsys):
    assert run(capsys, ["invert", "--model", "no_such_file.json"])[0] == 2
    assert run(capsys, ["invert", "--model", '{"points": [0,'])[0] == 2
    assert run(capsys, ["virial", "--order", "0"])[0] == 2
    assert run(capsys, ["virial", "--seed", "-1"])[0] == 2
    for threads in ("0", "-2"):
        assert run(capsys, ["bounds", "--threads", threads]) == (
            2, "", "input error: --threads must be >= 1\n"
        )
    assert run(capsys, ["virial", "--model", '{"kind": "squishy"}'])[0] == 2
    _, _, err = run(capsys, ["virial", "--model", '{"kind": "squishy"}'])
    assert err.startswith("input error:")


def run_child(script):
    """Run a Python script in a fresh interpreter that imports this virialkit."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_request_state_must_be_document():
    # the state 0 must not be opened as file descriptor 0 (stdin); the child
    # runs with stdin closed so that such a read fails instead of blocking
    proc = run_child(
        "import json, os\n"
        "os.close(0)\n"
        "from virialkit.cli import main\n"
        "for state in (0, 1, [1], 2.5, '[1]'):\n"
        "    req = {'state': state, 'op': 'roundtrip', 'N': 2}\n"
        "    print(main(['request', '--model', json.dumps(req)]))\n"
    )
    assert proc.stdout.split() == ["2"] * 5
    errs = proc.stderr.splitlines()
    assert len(errs) == 5 and all(e.startswith("input error: ") for e in errs)


def test_capability_exits(capsys):
    code, _, err = run(capsys, ["virial", "--order", "4"])
    assert code == 3 and err.startswith("capability limit:")
    assert run(capsys, ["virial", "--model", SPHERE_DOC, "--order", "4"])[0] == 3


README_STATE = {
    "beta": 1.0,
    "species": [{"id": 0, "weight": 1}, {"id": 1, "weight": "1/2"}],
    "potential": {"kind": "matrix", "params": {"v": [["inf", 0.5], [0.5, 0.0]]}},
}


def test_every_command_runs_without_scipy():
    # scipy is a test dependency only.  One child refuses every scipy import
    # and records each attempt, so even a caught ImportError shows; every
    # command must exit 0 without one.  The brute-force references load only
    # with selftest, which needs one.
    request = {"state": README_STATE, "op": "zeta_of_nu", "N": 3, "inputs": {"nu": ["1/20", "1/30"]}}
    mixture = {"radii": [0.5, 0.75], "rho": [0.01, 0.005]}
    argvs = [
        ["virial", "--model", '{"kind":"hard_rod","a":"1/4"}', "--order", "3"],
        ["virial", "--model", SPHERE_DOC, "--order", "3", "--samples", "6400"],
        ["bounds", "--b-bar", "0"],
        *(
            ["mixture", "--model", json.dumps({**mixture, "d": d}), "--order", "3", "--samples", "6400"]
            for d in (1, 2, 3)
        ),
        ["rods", "--model", FIX + "rod_grid.json", "--order", "3", "--samples", "6400"],
        ["invert", "--model", FIX + "grid_profile.json", "--order", "3"],
        ["request", "--model", json.dumps(request)],
    ]
    proc = run_child(
        "import json, sys\n"
        "class RefuseScipy:\n"
        "    attempts = []\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            self.attempts.append(name)\n"
        "            raise ImportError('scipy is refused: ' + name)\n"
        "sys.meta_path.insert(0, RefuseScipy())\n"
        "import virialkit, virialkit.cli\n"
        "report = {'preloaded': [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'codes': []}\n"
        f"for argv in json.loads({json.dumps(argvs)!r}):\n"
        "    report['codes'].append(virialkit.cli.main(argv))\n"
        "report['oracles'] = 'virialkit.oracles' in sys.modules\n"
        "report['codes'].append(virialkit.cli.main(['selftest', '--seed', '0']))\n"
        "report['attempts'] = list(RefuseScipy.attempts)\n"
        "try:\n"
        "    import scipy.integrate\n"
        "    report['control'] = 'imported'\n"
        "except ImportError as exc:\n"
        "    report['control'] = str(exc)\n"
        "print(json.dumps(report))\n"
    )
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["preloaded"] == [] and report["attempts"] == []
    assert report["oracles"] is False
    assert report["codes"] == [0] * (len(argvs) + 1)
    # the hook does refuse scipy in this child
    assert report["control"] == "scipy is refused: scipy"


def test_unexpected_exception_exits_4(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_virial", boom)
    code, out, err = run(capsys, ["virial"])
    assert (code, out) == (4, "")
    assert err.startswith("internal error: RuntimeError: boom (at test_cli.py:")
    assert err.count("\n") == 1


def test_request_field_errors_exit_2(capsys):
    def req(state=README_STATE, op="rho_of_z", inputs=None):
        inputs = {"z": ["1/10", "1/8"]} if inputs is None else inputs
        return ["request", "--model", json.dumps({"state": state, "op": op, "N": 2, "inputs": inputs})]

    assert run(capsys, req())[0] == 0
    bad = [
        req(inputs=5),
        req(op="xi_exact", inputs={"z": ["1/10", "1/8"], "n_max": "2"}),
        req(op="density_exact", inputs={"z": ["1/10", "1/8"], "n_max": -1}),
        req(state={**README_STATE, "species": 3}),
        req(state={**README_STATE, "species": [3]}),
        req(state={**README_STATE, "beta": "x"}),
        req(op="pressure", inputs={"nu": ["-1/10", "1/30"]}),
        req(op="free_energy", inputs={"nu": ["1/10", "1/8"], "m": [-1, 1]}),
    ]
    for argv in bad:
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("input error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "op, key",
    [("rho_of_z", "z"), ("zeta_of_nu", "nu"), ("log_xi_series", "z"), ("pressure", "nu"),
     ("free_energy", "nu"), ("xi_exact", "z"), ("density_exact", "z"), ("check_PU", "z"),
     ("check_Sb", "nu"), ("check_Sab", "nu")],
)
def test_request_names_its_missing_measure(capsys, op, key):
    # every op that reads a measure names the one it lacks, on one line
    req = {"state": README_STATE, "op": op, "N": 2, "inputs": {}}
    code, out, err = run(capsys, ["request", "--model", json.dumps(req)])
    assert (code, out, err) == (2, "", f"input error: malformed request: missing '{key}'\n")


@pytest.mark.parametrize(
    "model",
    [
        {"kind": "hard_rod", "beta": "x"},
        {"kind": "hard_rod", "B": "y"},
        {"kind": "hard_rod", "Bstar": [1]},
        {"kind": "hard_rod", "B": -1},
        {"kind": "hard_rod", "beta": 0},
        {"kind": "hard_rod", "beta": "-1/2"},
        {"kind": "hard_sphere", "d": "3", "radius": 0.5},
        {"kind": "hard_sphere", "d": 0, "radius": 0.5},
        {"kind": "hard_sphere", "d": 2.5, "radius": 0.5},
        {"kind": "hard_sphere", "d": True, "radius": 0.5},
        {"kind": "ideal", "d": 0},
        {"kind": "ideal", "d": "1"},
    ],
    ids=repr,
)
@pytest.mark.parametrize("command", ["bounds", "virial"])
def test_homogeneous_model_fields_exit_2(capsys, command, model):
    code, out, err = run(capsys, [command, "--model", json.dumps(model)])
    assert (code, out) == (2, "")
    assert err.startswith("input error: ") and err.count("\n") == 1
    if model.get("beta") in (0, "-1/2"):
        assert err == "input error: beta must be positive\n"


def test_homogeneous_model_parses_scalars(capsys):
    # exact strings are accepted wherever a number is
    doc = {"kind": "hard_rod", "a": "1/4", "beta": "1/2", "B": "1/10", "Bstar": 0}
    assert run(capsys, ["bounds", "--model", json.dumps(doc)])[0] == 0
    code, out, _ = run(capsys, ["virial", "--model", '{"kind": "ideal", "d": 2}'])
    assert code == 0 and out.count(",0,analytic,") == 2


def _fixture_doc(name, **fields):
    with open(FIX + name) as fh:
        return {**json.load(fh), **fields}


@pytest.mark.parametrize(
    "command, doc",
    [
        ("mixture", _fixture_doc("mixture_spheres.json", radii="x")),
        ("mixture", _fixture_doc("mixture_spheres.json", d="3")),
        ("mixture", _fixture_doc("mixture_spheres.json", a=[0.1, 0.1], b=[0.2])),
        ("rods", _fixture_doc("rod_grid.json", rho0="x")),
        ("rods", _fixture_doc("rod_grid.json", angles=3)),
        ("invert", _fixture_doc("grid_profile.json", beta="x")),
        ("invert", _fixture_doc("grid_profile.json", kernel=5)),
        ("invert", _fixture_doc("grid_profile.json", points="ab")),
        ("invert", _fixture_doc("grid_profile.json", z0=0)),
        ("invert", _fixture_doc("grid_profile.json", kernel={"kind": "hard_rod", "params": {"length": "a"}})),
        ("invert", _fixture_doc("grid_profile.json", kernel={"kind": "hard_rod", "params": 3})),
    ],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_app_document_field_types_exit_2(capsys, command, doc):
    code, out, err = run(capsys, [command, "--model", json.dumps(doc)])
    assert (code, out) == (2, ""), doc
    assert err.startswith("input error: ") and err.count("\n") == 1


def _drop(doc, path):
    """doc without the field at ``path``, a tuple of keys into nested objects."""
    doc = json.loads(json.dumps(doc))
    inner = doc
    for key in path[:-1]:
        inner = inner[key]
    del inner[path[-1]]
    return doc


@pytest.mark.parametrize(
    "command, doc, path",
    [
        *(("mixture", "mixture_spheres.json", (k,)) for k in ("radii", "d", "rho")),
        *(("rods", "rod_grid.json", (k,)) for k in ("rho0", "length", "angles", "probs")),
        *(("invert", "grid_profile.json", (k,)) for k in ("points", "cell_volumes", "rho", "kernel")),
        ("invert", "grid_profile.json", ("kernel", "kind")),
        ("invert", "grid_profile.json", ("kernel", "params", "length")),
    ],
    ids=lambda v: v if isinstance(v, str) else ".".join(v),
)
def test_app_document_names_a_missing_field(capsys, command, doc, path):
    # a required field dropped is an input error that names it, on one line
    code, out, err = run(capsys, [command, "--model", json.dumps(_drop(_fixture_doc(doc), path))])
    assert (code, out) == (2, "")
    assert err == f"input error: malformed model: missing '{path[-1]}'\n"


def test_matrix_kernel_names_its_missing_rows(capsys):
    doc = _fixture_doc("grid_profile.json", kernel={"kind": "matrix", "params": {}})
    assert run(capsys, ["invert", "--model", json.dumps(doc)]) == (2, "", "input error: malformed model: missing 'v'\n")


def test_invert_potential_past_the_double_range_is_a_capability_limit(capsys):
    # at beta = 1e-320 every beta V is finite but V = beta V / beta is not
    doc = _fixture_doc("grid_profile.json", beta=1e-320)
    code, out, err = run(capsys, ["invert", "--model", json.dumps(doc), "--order", "3"])
    assert (code, out) == (3, "")
    assert err.startswith("capability limit: float range exceeded (") and err.count("\n") == 1
    # a zero density is V = +inf, which CSV prints
    doc = _fixture_doc("grid_profile.json", rho=[0.02, 0.0, 0.02])
    code, out, err = run(capsys, ["invert", "--model", json.dumps(doc), "--order", "3"])
    assert (code, err) == (0, "")
    assert out.splitlines()[2].endswith(",inf")


def test_app_documents_accept_exact_strings(capsys):
    # a numeric string is a number: the rods fixture with length "1" prints
    # the same bytes as with length 1.0
    base = run(capsys, ["rods", "--model", FIX + "rod_grid.json"])
    assert base[0] == 0
    doc = _fixture_doc("rod_grid.json", length="1")
    assert run(capsys, ["rods", "--model", json.dumps(doc)]) == base
    doc = _fixture_doc("grid_profile.json", cell_volumes=["1", "1", "1"], beta="1")
    assert run(capsys, ["invert", "--model", json.dumps(doc)])[0] == 0


def test_species_document_field_types_exit_2(capsys):
    def req(**potential):
        state = {**README_STATE, "potential": {**README_STATE["potential"], **potential}}
        return ["request", "--model", json.dumps({"state": state, "op": "rho_of_z", "N": 2, "inputs": {"z": ["1/10", "1/8"]}})]

    mix = _fixture_doc("rational_mix.json")
    mix["species"][1]["payload"] = {"position": ["x"]}
    bad = [
        req(params=3),
        req(params={"v": 5}),
        req(params={"v": [["inf", None], [None, 0.0]]}),
        req(B="1"),
        ["request", "--model", json.dumps({"state": mix, "op": "rho_of_z", "N": 2, "inputs": {"z": [0.1] * 3}})],
        ["request", "--model", json.dumps({"state": README_STATE, "op": "xi_exact", "N": 2,
                                           "inputs": {"z": [0.1, 0.1], "n_max": 10**9}})],
    ]
    codes = []
    for argv in bad:
        code, out, err = run(capsys, argv)
        codes.append(code)
        assert out == "" and err.count("\n") == 1
    # an unbounded configuration sum is a capability limit, not a hang
    assert codes == [2, 2, 2, 2, 2, 3]


def test_float_overflow_is_a_capability_limit(capsys):
    code, out, err = run(capsys, ["bounds", "--model", '{"kind": "hard_sphere", "radius": 1e300}'])
    assert (code, out) == (3, "")
    assert err.startswith("capability limit: float range exceeded")


def test_rod_length_overflow_is_a_capability_limit(capsys):
    # the excluded area L^2 |sin| leaves the float range, and inf * sin(0)
    # must not turn into a refusal with a NaN margin
    doc = _fixture_doc("rod_grid.json", length=1e300)
    code, out, err = run(capsys, ["rods", "--model", json.dumps(doc)])
    assert (code, out) == (3, "")
    assert err.startswith("capability limit: float range exceeded") and err.count("\n") == 1


NONFINITE_STATE = {
    "beta": 1.0,
    "species": [{"id": 0, "weight": 1}],
    "potential": {"kind": "matrix", "params": {"v": [["inf"]]}},
}


@pytest.mark.parametrize(
    "op, inputs",
    [
        ("rho_of_z", {"z": [1e300]}),
        ("log_xi_series", {"z": [1e300]}),
        ("zeta_of_nu", {"nu": [1e300]}),
        ("pressure", {"nu": [1e300]}),
        ("free_energy", {"nu": [1e300]}),
        ("check_Sb", {"nu": [1e300]}),
    ],
)
def test_nonfinite_request_value_is_a_capability_limit(capsys, op, inputs):
    # JSON has no NaN or Infinity token: a value that left the float range
    # is refused, never printed
    req = {"state": NONFINITE_STATE, "op": op, "N": 4, "inputs": inputs}
    code, out, err = run(capsys, ["request", "--model", json.dumps(req)])
    assert (code, out) == (3, "")
    assert err.startswith("capability limit: float range exceeded") and err.count("\n") == 1


def test_nan_residual_request_prints_one_line():
    # exp(700) overflows; the D sums and the residuals turn NaN, and stderr
    # holds the one refusal line and no numpy warning
    state = {
        "beta": 1.0,
        "species": [{"id": 0, "weight": 1}, {"id": 1, "weight": 1}],
        "potential": {"kind": "matrix", "params": {"v": [[-700, 0], [0, -700]]}},
    }
    script = "from virialkit.cli import main\nprint('exit', main(['request', '--model', %r]))\n"
    for op, inputs in (("roundtrip", {}), ("pressure", {"nu": [1, 1]})):
        req = json.dumps({"state": state, "op": op, "N": 4, "inputs": inputs})
        proc = run_child(script % req)
        assert proc.stdout == "exit 3\n"
        assert proc.stderr.startswith("capability limit: float range exceeded")
        assert proc.stderr.count("\n") == 1


def test_bounds_near_float_range_prints_no_warnings():
    # r_max = 5/c_bar is about 2.5e300 here; the bounded searches must not
    # print numpy warnings on a successful run
    proc = run_child(
        "from virialkit.cli import main\n"
        "code = main(['bounds', '--model', '{\"kind\": \"hard_rod\", \"a\": 1e-300}'])\n"
        "print('exit', code)\n"
    )
    assert proc.stdout.splitlines()[-1] == "exit 0"
    assert proc.stderr == ""


def test_bounds_overflowing_c_bar_prints_one_line():
    # c_bar = 2a leaves the float range from a of about 9e307: one line on
    # stderr and no numpy warning.  Just below, the search radius
    # 1/(2e c_bar) is subnormal, which is one line too; the table prints
    # from a = 4e306 down, where that radius is a normal float
    script = "from virialkit.cli import main\nprint('exit', main(['bounds', '--model', %r, '--format', %r]))\n"
    refusals = {
        "1e308": "the exclusion volume c_bar is not finite",
        "9e307": "the exclusion volume c_bar is not finite",
        "8.9e307": "the search radius 1/(2e c_bar) is subnormal",
        "4.2e306": "the search radius 1/(2e c_bar) is subnormal",
    }
    for a, why in refusals.items():
        for fmt in ("csv", "json"):
            proc = run_child(script % ('{"kind": "hard_rod", "a": %s}' % a, fmt))
            assert proc.stdout == "exit 3\n"
            assert proc.stderr == f"capability limit: float range exceeded ({why})\n"
    proc = run_child(script % ('{"kind": "hard_rod", "a": 4e306}', "csv"))
    assert proc.stdout.splitlines()[-1] == "exit 0"
    assert proc.stderr == ""


def test_float_range_edges_print_one_line_each():
    # a tiny rod puts the Banach search radius 5/c_bar past the float range;
    # a huge sphere overflows r ** d inside the ball volume; a huge rod or a
    # 20-ball of volume 2.26e307 makes the search radius 1/(2e c_bar)
    # subnormal.  Each case is one
    # line naming the overflow, with no numpy warning; a = 1.4e-308 still runs
    radius = "capability limit: float range exceeded (the Banach search radius 5/c_bar is not finite)\n"
    volume = "capability limit: float range exceeded (the exclusion volume c_bar is not finite)\n"
    subnormal = "capability limit: float range exceeded (the search radius 1/(2e c_bar) is subnormal)\n"
    cases = [(["bounds", "--model", '{"kind": "hard_rod", "a": %s}' % a], radius)
             for a in ("1.3e-308", "1e-310", "5e-324")]
    for model in ('{"kind": "hard_sphere", "d": 3, "radius": 1e200}',
                  '{"kind": "hard_sphere", "d": 2, "exclusion": 1e160}'):
        cases += [(["bounds", "--model", model], volume), (["virial", "--order", "1", "--model", model], volume)]
    for model in ('{"kind": "hard_rod", "a": 1.1e307}', '{"kind": "hard_sphere", "d": 20, "exclusion": 2.8e15}'):
        cases.append((["bounds", "--model", model], subnormal))
    cases.append((["bounds", "--model", '{"kind": "hard_rod", "a": 1.4e-308}'], ""))
    script = (
        "import contextlib, io, sys\nfrom virialkit.cli import main\n"
        "for argv in %r:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    print(code)\n"
        "    print('--', file=sys.stderr)\n"
    )
    for fmt in ("csv", "json"):
        argvs = [argv + ["--format", fmt] for argv, _ in cases]
        proc = run_child(script % argvs)
        assert proc.stdout.split() == ["3"] * (len(cases) - 1) + ["0"]
        assert proc.stderr == "".join(err + "--\n" for _, err in cases)


def test_bounds_with_a_subnormal_r_star_still_prints(capsys):
    # exp(beta (B + B*)) = exp(708) makes r_star subnormal, but the searches
    # run on radii of order 1/c_bar = 0.5, so the table prints as before
    code, out, err = run(capsys, ["bounds", "--model", '{"kind": "hard_rod", "a": 1, "B": 708}'])
    assert (code, err) == (0, "")
    rows = {line.split(",")[0]: float(line.split(",")[1]) for line in out.splitlines()[1:]}
    assert 0 < rows["r_star"] < sys.float_info.min
    assert rows["lp_closed_form"] == 1 / (4 * math.e) and rows["banach_ratio"] == 8.0


def test_underflowing_sphere_volume_is_a_capability_limit(capsys):
    # a positive radius whose ball volume rounds to 0.0 is a valid model that
    # left the float range, not the ideal gas
    model = '{"kind": "hard_sphere", "d": 3, "radius": 1e-120}'
    for argv in (["bounds", "--model", model], ["virial", "--order", "2", "--model", model]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert err == "capability limit: float range exceeded (the exclusion volume c_bar underflows to 0)\n"
    code, out, err = run(capsys, ["virial", "--order", "2", "--model", '{"kind": "ideal", "d": 3}'])
    assert (code, err) == (0, "") and out.splitlines()[1:] == ["1,0,analytic,0.0", "2,0,analytic,0.0"]


def test_high_dimensional_ball_volume_past_r_to_the_d(capsys):
    # r ** 20 overflows, the 20-ball's volume does not; Gamma(201) overflows,
    # the 400-ball's volume pi^200 2^400 / 200! (log space) does not
    for d, exclusion, volume, rel_tol in ((20, 2.8e15, 2.2641037337451863e307, 1e-15),
                                          (400, 2, 8.812196329878764e-156, 1e-12)):
        model = '{"kind": "hard_sphere", "d": %d, "exclusion": %r}' % (d, exclusion)
        code, out, err = run(capsys, ["virial", "--order", "1", "--model", model])
        assert (code, err) == (0, "")
        n, beta, method, _ = out.splitlines()[1].split(",")
        assert (n, method) == ("1", "analytic") and math.isclose(float(beta), -volume, rel_tol=rel_tol)


def test_mc_virial_beyond_three_dimensions_is_a_capability_limit():
    proc = run_child(
        "from virialkit.cli import main\n"
        "print('exit', main(['virial', '--order', '2', '--model', "
        "'{\"kind\": \"hard_sphere\", \"d\": 4, \"radius\": 0.5}']))\n"
    )
    assert proc.stdout == "exit 3\n"
    assert proc.stderr == "capability limit: MC route covers d in {2, 3}\n"


def test_request_sab_needs_both_weights(capsys):
    def req(**weights):
        inputs = {"nu": ["1/50", "1/50"], **weights}
        return ["request", "--model", json.dumps({"state": README_STATE, "op": "check_Sab", "N": 2, "inputs": inputs})]

    assert run(capsys, req(a=[0.3, 0.3], b=[0.3, 0.3]))[0] == 0
    for weights in ({"a": [3, 3]}, {"b": ["1/2", "1/2"]}):
        code, out, err = run(capsys, req(**weights))
        assert (code, out) == (2, "")
        assert err == "input error: give both a and b or neither\n"


# One field of a shipped document replaced by a value of any JSON type must
# give an exit code from the documented set, never 4 ("internal error").
FUZZ_DOCS = [
    ("bounds", {"kind": "hard_rod", "a": "1/4", "beta": 1.0, "B": 0.0, "Bstar": 0.0}),
    ("bounds", {"kind": "hard_sphere", "d": 3, "radius": 0.5, "beta": 1.0, "B": 0.0, "Bstar": 0.0}),
    ("virial", json.loads(SPHERE_DOC)),
    ("virial", {"kind": "ideal", "d": 1}),
    ("mixture", _fixture_doc("mixture_spheres.json", a=[0.1, 0.1], b=[0.2, 0.2])),
    ("rods", _fixture_doc("rod_grid.json")),
    ("invert", _fixture_doc("grid_profile.json")),
    ("request", {"state": README_STATE, "op": "rho_of_z", "N": 2, "inputs": {"z": ["1/10", "1/8"]}}),
    ("request", {"state": _fixture_doc("rational_mix.json"), "op": "rho_of_z", "N": 2,
                 "inputs": {"z": ["1/20", "1/30", "1/40"]}}),
]


def _field_paths(doc, prefix=()):
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _field_paths(value, prefix + (key,))


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


JSON_VALUES = hyp.one_of(
    hyp.integers(-(10**9), 10**9),
    hyp.floats(),
    hyp.from_regex(r"-?[0-9]{1,3}(/[0-9]{1,3})?", fullmatch=True),
    hyp.text(max_size=4),
    hyp.booleans(),
    hyp.none(),
    hyp.lists(hyp.integers(-3, 3) | hyp.text(max_size=2), max_size=3),
    hyp.dictionaries(hyp.text(max_size=3), hyp.integers(-3, 3), max_size=2),
)


@settings(max_examples=400, deadline=None)
@given(data=hyp.data())
def test_fuzz_one_field_never_internal_error(data):
    command, doc = data.draw(hyp.sampled_from(FUZZ_DOCS))
    path = data.draw(hyp.sampled_from(list(_field_paths(doc))))
    doc = _replaced(doc, path, data.draw(JSON_VALUES))
    argv = [command, "--model", json.dumps(doc), "--order", "2", "--samples", "640"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2, 3), (argv, lines)
    if code == 1:
        assert lines[0].startswith("refused: ")
        assert all(line.startswith("margin[") for line in lines[1:])
    elif code > 1:
        assert len(lines) == 1, lines
