"""Certificates: the pinned outputs of every weighted check and the weight checks.

The golden below holds, per certificate, a digest of ``repr`` and
``to_dict()`` (margins, weights, truncation, notes, extras) and the
``float.hex`` of each margin.  It was recorded before the caller's-weights
and constant-weight paths of PU, Sb, Sab, virMb and mix_ab moved into
``certs.certify``, and before the grid search ran all constants in one
batch; every certificate must keep every bit.  The property tests compare
each certificate with the one-row-at-a-time search of
``oracles.certify_termwise`` on drawn states, measures and weights.
"""

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp

from virialkit.apps import MixtureSpec, invert_mixture
from virialkit.certs import AB_GRID, certify
from virialkit.errors import CertificateError, StructureError, VirialKitError
from virialkit.inversion import GCState, check_PU, check_Sab, check_Sb, check_virMb
from virialkit.oracles import (
    certify_termwise,
    check_PU_termwise,
    check_Sab_termwise,
    check_Sb_termwise,
    check_virMb_termwise,
    mixture_certificate_termwise,
)
from virialkit.species import MayerMatrices, PairPotential, SpeciesSpace
from virialkit.treefp import eval_T, eval_T_abs


def exact_state(N=4):
    r = random.Random(12)
    f = [[Fraction(0)] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            f[i][j] = f[j][i] = Fraction(r.randint(-16, 8), 16)
    space = SpeciesSpace.from_weights([Fraction(r.randint(1, 4), 2) for _ in range(3)])
    return GCState(space, mayer=MayerMatrices.from_f(space, f, exact=True), N=N)


def float_state():
    r = random.Random(2026)
    v = [[0.0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            v[i][j] = v[j][i] = round(r.uniform(-0.3, 1.5), 3)
    space = SpeciesSpace.from_weights([r.choice((0.5, 1.0, 1.5)) for _ in range(3)])
    return GCState(space, pot=PairPotential(space, 1.0, v), N=4)


def mixture_cert(ms):
    try:
        return invert_mixture(ms, N=1)["certificate"]
    except CertificateError as exc:
        return exc.certificate


def certificates():
    """Every weighted certificate on both paths: a passing, a tight and a
    failing density on an exact and a float state, and two mixtures."""
    a, b = [Fraction(1, 5), 0.25, Fraction(3, 10)], [0.3, Fraction(2, 5), 0.35]
    out = {}
    for kind, st in (("exact", exact_state()), ("float", float_state())):
        for scale in (1, 8, 40):
            nu = [Fraction(scale, 60), Fraction(scale, 90), Fraction(scale, 45)]
            if kind == "float":
                nu = [float(v) for v in nu]
            key = f"{kind}/{scale}"
            out[key + "/PU/grid"] = check_PU(st, nu)
            out[key + "/PU/given"] = check_PU(st, nu, a=a)
            out[key + "/Sb/grid"] = check_Sb(st, nu)
            out[key + "/Sb/given"] = check_Sb(st, nu, b=b)
            out[key + "/Sab/grid"] = check_Sab(st, nu)
            out[key + "/Sab/given"] = check_Sab(st, nu, a=a, b=b)
            out[key + "/virMb/grid"] = check_virMb(st, nu)
            out[key + "/virMb/given"] = check_virMb(st, nu, b=b)
    for scale in (1, 8):
        rho = [0.01 * scale, 0.005 * scale]
        out[f"mix/{scale}/grid"] = mixture_cert(MixtureSpec(radii=[0.5, 0.75], d=3, rho=rho))
        out[f"mix/{scale}/given"] = mixture_cert(
            MixtureSpec(radii=[0.5, 0.75], d=3, rho=rho, a=[0.2, Fraction(1, 4)], b=[0.3, 0.5])
        )
    return out


GOLDEN = {
    "exact/1/PU/grid": ("4b3f33f1985b48c1", "0x1.59f4523bfd076p+1 0x1.63c623443f02ep+1 0x1.5f449c8f240efp+1"),
    "exact/1/PU/given": ("00025a37a30847d9", "0x1.72764cbb7d2cbp-3 0x1.e3d7593ecd43dp-3 0x1.227b0268488c7p-2"),
    "exact/1/Sb/grid": ("dc23ffb61b8f2a6c", "0x1.4d318dfa52d3ep+1 0x1.5700c03024edcp+1 0x1.4b452a163febep+1"),
    "exact/1/Sb/given": ("9c9cf7b38049f1b2", "0x1.1b6ad8877cc1ap-2 0x1.88b4ebe89c068p-2 0x1.4f33ae6e686fbp-2"),
    "exact/1/Sab/grid": ("0fbe831ffe0ce3c8", "0x1.428bf808550fdp+0 0x1.62ed226b7004ep+0 0x1.541172b5a6248p+0"),
    "exact/1/Sab/given": ("c040b125bbf05563", "0x1.601d7a9e5adcep-3 0x1.d97bc2f7781fap-3 0x1.1b4fad955f452p-2"),
    "exact/1/virMb/grid": ("cd4e04945beae9b6", "0x1.7dff4be942b41p+1 0x1.7e7cb6416776dp+1 0x1.7dfeddf4c7650p+1"),
    "exact/1/virMb/given": ("332e0c4ba2d0243c", "0x1.232d927d48d3ap-2 0x1.8d7f4ba4d5500p-2 0x1.565d560ca18e9p-2"),
    "exact/8/PU/grid": ("f52a7662c50701b1", "0x1.223840f6d57acp+0 0x1.655f565a90c3ep+0 0x1.468ec9c4a0c80p+0"),
    "exact/8/PU/given": ("b2dc7e3eca413ce0", "0x1.81fccaa2d8c84p-5 0x1.1ebac9f66a1e9p-3 0x1.5ae359b7bbfaap-3"),
    "exact/8/Sb/grid": ("bbe70291fc37eb76", "0x1.43e1064bfcd9bp-1 0x1.7b16a7e00428ep-1 0x1.2e648604cfdaap-1"),
    "exact/8/Sb/given": ("5f7b612245a83871", "0x1.7e592b47dac20p-4 0x1.fa23fed3221fcp-3 0x1.2999b624440c8p-3"),
    "exact/8/Sab/grid": ("0663bdda3d4a76fb", "0x1.c2657978b5532p-3 0x1.6014b570cba4bp-2 0x1.25db8fc8a987fp-2"),
    "exact/8/Sab/given": ("d1291dcef6f754ff", "-0x1.923af202e2640p-6 0x1.97bc2f7781fa6p-4 0x1.d05c19124f0a4p-4"),
    "exact/8/virMb/grid": ("bfcdec01405e6a09", "0x1.6fc9cda1c2e38p+1 0x1.73c5d397f341bp+1 0x1.6fae100a63901p+1"),
    "exact/8/virMb/given": ("ae633e3a1b42099d", "0x1.63034082949e0p-3 0x1.37c8365933a6fp-2 0x1.c7adcd7305cdap-3"),
    "exact/40/PU/grid": ("c5c3ae0596bcd19f", "-0x1.e75a160124478p-2 -0x1.cad654b552b88p-3 -0x1.5bc711804465ap-2"),
    "exact/40/PU/given": ("f5c7a65976af3e9f", "-0x1.20fa9a46b5db0p-1 -0x1.332d0717f6b3ap-2 -0x1.69946c8176da1p-2"),
    "exact/40/Sb/grid": ("ffb53042eb98b5e5", "-0x1.1dca66cb45eaep+0 -0x1.e4caa4584c5e9p-1 -0x1.478e530a1f205p+0"),
    "exact/40/Sb/given": ("10b0270dc38b3494", "-0x1.c738d2fd70a81p+0 -0x1.5dd00531eeb1ap+0 -0x1.1490d580c134dp+1"),
    "exact/40/Sab/grid": ("1c1647635e133e20", "-0x1.3557c2154ad22p-1 -0x1.bdc9aaa6420e1p-2 -0x1.06902642f1b63p-1"),
    "exact/40/Sab/given": ("b40ec32c886623d5", "-0x1.d872cf6a0cf96p-1 -0x1.012a62554ec38p-1 -0x1.442cd6baf4ffep-1"),
    "exact/40/virMb/grid": ("fb389328b3e1b787", "0x1.25137cc776275p+1 0x1.3bca70b82803ap+1 0x1.219774d1132c4p+1"),
    "exact/40/virMb/given": ("e7aba9f2acde7221", "-0x1.a430e6911b925p-2 -0x1.1025c14a4c928p-3 -0x1.8cddf3110037ep-2"),
    "float/1/PU/grid": ("e01506fd2da504ed", "0x1.3f9c156f56630p+1 0x1.3af7797f48f4bp+1 0x1.554d665a1af59p+1"),
    "float/1/PU/given": ("c851e7c6b056ea0c", "0x1.55ec82eef3d04p-3 0x1.ba5b54fb92d11p-3 0x1.1de31b8bd7528p-2"),
    "float/1/Sb/grid": ("010466e2a6384af4", "0x1.1e73a53ed4d7cp+1 0x1.16597a889704ep+1 0x1.3553da5d93c91p+1"),
    "float/1/Sb/given": ("deda8e5d0f9c97cd", "0x1.0d493e928cd3bp-2 0x1.70d6ee1e607d8p-2 0x1.4def416230610p-2"),
    "float/1/Sab/grid": ("bace23e00fcecf59", "0x1.e0c879c89459ap-1 0x1.d23b708b5b840p-1 0x1.19864a7002906p+0"),
    "float/1/Sab/given": ("826620599a63b3af", "0x1.2cdba22c901f6p-3 0x1.920263730a05cp-3 0x1.12d3108ec9368p-2"),
    "float/1/virMb/grid": ("5e2acb678eaf28b5", "0x1.7cc2e6a7f3a1ep+1 0x1.7c7cdf1e86356p+1 0x1.7dd7551af4eeap+1"),
    "float/1/virMb/given": ("1a376d8fd2006d4c", "0x1.194a6872d0426p-2 0x1.7d80928dcb44dp-2 0x1.55210f3e0ddb5p-2"),
    "float/8/PU/grid": ("5263c455dad6e639", "0x1.364537643b44ap-1 0x1.136b38525ff94p-1 0x1.d919ca7705000p-1"),
    "float/8/PU/given": ("fe70d1195257928c", "-0x1.079e377729630p-4 -0x1.692ac11b4bbc0p-6 0x1.1164ebf0a85aep-3"),
    "float/8/Sb/grid": ("5b1f787923c2d828", "0x1.4b82c19b3dc00p-3 0x1.8806d6de87810p-4 0x1.63d2fe9eb9cfbp-2"),
    "float/8/Sb/given": ("0669259bf0489b85", "-0x1.c8ae87ba0f098p-5 0x1.7f4e0c0edf600p-7 0x1.ca4ba3e1de878p-4"),
    "float/8/Sab/grid": ("2c784ae93aaada48", "-0x1.a01d4137da3f4p-4 -0x1.091393368d376p-3 0x1.c93e7e6753828p-5"),
    "float/8/Sab/given": ("a15be23070f1ab95", "-0x1.cc5621ceb2386p-3 -0x1.6fece467afd1cp-3 0x1.8190f07f1a6c8p-5"),
    "float/8/virMb/grid": ("75affea7b3401e6d", "0x1.6579f61dca304p+1 0x1.62c5875b296dep+1 0x1.6e66fbce3256ep+1"),
    "float/8/virMb/given": ("dd6719214fb944c3", "0x1.7c0b908612d52p-4 0x1.5f8ba8e5ca10ep-3 0x1.b33c89aff23abp-3"),
    "float/40/PU/grid": ("93a1f8edbc8a7151", "-0x1.00d044351e13ap+0 -0x1.14412ec0e11a7p+0 -0x1.4bf71a9c2b06ep-1"),
    "float/40/PU/given": ("94e53d5445608934", "-0x1.1f2e3e2209bbbp+0 -0x1.1c37571621eabp+0 -0x1.10a83f7993f4cp-1"),
    "float/40/Sb/grid": ("7cb78bd995c608e9", "-0x1.6e9a0cab44d34p+1 -0x1.93b7da147a8a6p+1 -0x1.1126c266259c1p+1"),
    "float/40/Sb/given": ("c6c83bda63b4b3bf", "-0x1.7096208b959a4p+2 -0x1.8dffd7cecf216p+2 -0x1.07b9f5478f7d5p+2"),
    "float/40/Sab/grid": ("7739c04daa783beb", "-0x1.306ec7081423dp+0 -0x1.43fda2fd2cbf4p+0 -0x1.83b758b55bcbap-1"),
    "float/40/Sab/given": ("dbff5bea051f0444", "-0x1.ec82a1edfc301p+0 -0x1.e5f40ec0cde32p+0 -0x1.ede91b3eae24ap-1"),
    "float/40/virMb/grid": ("657d0bf2881127ba", "0x1.bd604ce71ee8ap+0 0x1.8f673a2633c42p+0 0x1.18605feb89164p+1"),
    "float/40/virMb/given": ("5e80bdbca739f877", "-0x1.eba5cc9828952p-1 -0x1.0a325f7365d58p+0 -0x1.d6969a3d50e7ap-2"),
    "mix/1/grid": ("0b445483dc2ddc29", "0x1.4ceab2b7ec914p-2 0x1.7fbf5681eb778p-4"),
    "mix/1/given": ("4fdc9a194bf2f46e", "0x1.6b3c213005880p-5 -0x1.1ad9a3be4d840p-5"),
    "mix/8/grid": ("1f16920b70b8d34b", "-0x1.5d30c3a436030p-1 -0x1.4c5cdf1417d6ap+0"),
    "mix/8/given": ("f8891f5b2d7e74d8", "-0x1.0b975e1a65047p+0 -0x1.035b3477c9b08p+1"),
}


def test_certificates_golden():
    got = {}
    for key, cert in certificates().items():
        text = repr(cert) + json.dumps(cert.to_dict())
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        got[key] = (digest, " ".join(m.hex() for m in cert.margins))
    assert got == GOLDEN


NU = [Fraction(1, 60)] * 3
WRONG_LENGTH = {
    "check_PU a": lambda st, v: check_PU(st, NU, a=v),
    "check_Sb b": lambda st, v: check_Sb(st, NU, b=v),
    "check_Sab a b": lambda st, v: check_Sab(st, NU, a=v, b=v),
    "check_Sab a": lambda st, v: check_Sab(st, NU, a=v, b=[0.3] * 3),
    "check_virMb b": lambda st, v: check_virMb(st, NU, b=v),
    "eval_T nu": lambda st, v: eval_T(st.t_family, v),
    "eval_T_abs nu": lambda st, v: eval_T_abs(st.t_family, v, [0.3] * 3),
    "eval_T_abs b": lambda st, v: eval_T_abs(st.t_family, NU, v),
    "FormalSeries.evaluate": lambda st, v: st.phi_series.evaluate(v),
    "MixtureSpec a b": lambda st, v: MixtureSpec(radii=[0.5] * 3, d=3, rho=[0.01] * 3, a=v, b=v),
}


@pytest.mark.parametrize("length", [2, 4])
@pytest.mark.parametrize("call", WRONG_LENGTH)
def test_wrong_length_vectors_are_refused(call, length):
    # the state has three species
    with pytest.raises(StructureError):
        WRONG_LENGTH[call](exact_state(N=3), [Fraction(1, 10)] * length)


def test_eval_T_abs_takes_a_negative_weight():
    st = exact_state(N=3)
    cert = eval_T_abs(st.t_family, NU, [-1.0] * 3)
    assert not cert.passed and cert.b == (-1.0,) * 3


def test_certificates_take_a_complex_measure():
    # every certificate reads a density through its modulus |v|
    space = SpeciesSpace.from_weights([1.0, 0.5])
    st = GCState(space, pot=PairPotential(space, 1.0, [[0.4, -0.2], [-0.2, 1.1]]), N=3)
    nu = [0.01 + 0.01j, 0.02]
    calls = {
        "PU": lambda m: check_PU(st, m),
        "Sb/grid": lambda m: check_Sb(st, m),
        "Sb/given": lambda m: check_Sb(st, m, b=[0.3, 0.2]),
        "Sab": lambda m: check_Sab(st, m),
        "virMb": lambda m: check_virMb(st, m),
        "Mb": lambda m: eval_T_abs(st.t_family, m, [0.3, 0.2]),
    }
    for name, call in calls.items():
        cert = call(nu)
        assert cert.passed, name
        assert cert.to_dict() == call([abs(v) for v in nu]).to_dict(), name


def outcome(call):
    """The certificate of ``call()`` to the bit (repr, to_dict and the hex
    of each margin), or the type and message of what it raised."""
    try:
        cert = call()
    except (ArithmeticError, VirialKitError) as exc:
        if isinstance(exc, CertificateError):
            cert = exc.certificate
        else:
            return type(exc).__name__, str(exc)
    return repr(cert), json.dumps(cert.to_dict()), [m.hex() for m in cert.margins], cert.passed, cert.notes


# entries that stress the float path: signed zeros, the smallest subnormal, a
# value whose powers and exponentials overflow, and infinity
SPECIAL = (0.0, -0.0, 5e-324, 1e300, math.inf)
entry = hyp.one_of(
    hyp.sampled_from(SPECIAL),
    hyp.floats(0, 0.3),
    hyp.fractions(0, Fraction(3, 10), max_denominator=64),
)
measure_entry = hyp.one_of(
    entry, hyp.builds(complex, hyp.floats(-0.05, 0.05), hyp.floats(-0.05, 0.05))
)
weight_entry = hyp.one_of(
    hyp.sampled_from(SPECIAL + (math.nan, 2.5, 800.0)),
    hyp.floats(0, 3),
    hyp.fractions(0, 3, max_denominator=20),
)


def drawn_state(data):
    """An exact, float or hard-core state (v = inf entries, with 0 or with
    finite energies) on 1 to 3 species, N 1 to 3, with drawn stability
    constants, some large enough to overflow exp on every weight."""
    kind = data.draw(hyp.sampled_from(["exact", "float", "hard", "hard/soft"]), label="kind")
    S, N = data.draw(hyp.integers(1, 3), label="S"), data.draw(hyp.integers(1, 3), label="N")
    r = random.Random(data.draw(hyp.integers(0, 2**16), label="seed"))
    space = SpeciesSpace.from_weights([r.choice((Fraction(1, 2), 1, Fraction(3, 2))) for _ in range(S)])
    if kind == "exact":
        f = [[Fraction(0)] * S for _ in range(S)]
        for i in range(S):
            for j in range(i, S):
                f[i][j] = f[j][i] = Fraction(r.randint(-16, 8), 16)
        return GCState(space, mayer=MayerMatrices.from_f(space, f, exact=True), N=N)
    choices = {"float": None, "hard": (0, math.inf), "hard/soft": (math.inf, 0.7, -0.2)}[kind]
    v = [[0.0] * S for _ in range(S)]
    for i in range(S):
        for j in range(i, S):
            v[i][j] = v[j][i] = round(r.uniform(-0.3, 1.5), 3) if choices is None else r.choice(choices)
    B = data.draw(hyp.sampled_from([None, (Fraction(1, 3),) * S, (800.0,) * S]), label="B")
    return GCState(space, pot=PairPotential(space, 1.0, v, b_stability=B), N=N)


@settings(max_examples=150, deadline=None)
@given(hyp.data())
def test_certificates_match_the_termwise_search(data):
    st = drawn_state(data)
    S = st.space.size
    nu = data.draw(hyp.lists(measure_entry, min_size=S, max_size=S), label="nu")
    weights = hyp.none() | hyp.lists(weight_entry, min_size=S, max_size=S)
    a, b = data.draw(weights, label="a"), data.draw(weights, label="b")
    if a is not None and b is not None:  # Sab wants a <= b; NaN stays in a
        b = [max(x, y) if x == x else y for x, y in zip(a, b)]
    pairs = {
        "PU": (lambda: check_PU(st, nu, a=a), lambda: check_PU_termwise(st, nu, a=a)),
        "Sb": (lambda: check_Sb(st, nu, b=b), lambda: check_Sb_termwise(st, nu, b=b)),
        "Sab": (lambda: check_Sab(st, nu, a=a, b=b), lambda: check_Sab_termwise(st, nu, a=a, b=b)),
        "Sab/grid": (lambda: check_Sab(st, nu), lambda: check_Sab_termwise(st, nu)),
        "virMb": (lambda: check_virMb(st, nu, b=b), lambda: check_virMb_termwise(st, nu, b=b)),
    }
    for name, (batched, termwise) in pairs.items():
        assert outcome(batched) == outcome(termwise), name


@settings(max_examples=60, deadline=None)
@given(hyp.data())
def test_mixture_certificate_matches_the_termwise_search(data):
    K = data.draw(hyp.integers(1, 3), label="K")
    radii = data.draw(hyp.lists(hyp.sampled_from((0.5, 0.75, 1.0)), min_size=K, max_size=K), label="radii")
    rho = data.draw(hyp.lists(entry, min_size=K, max_size=K), label="rho")
    ab = data.draw(hyp.none() | hyp.lists(hyp.tuples(weight_entry, weight_entry), min_size=K, max_size=K))
    a, b = (None, None) if ab is None else zip(*[sorted(p) if p[0] == p[0] else p for p in ab])
    ms = MixtureSpec(radii=radii, d=data.draw(hyp.integers(1, 3), label="d"), rho=rho, a=a, b=b)
    assert outcome(lambda: invert_mixture(ms, N=1)["certificate"]) == outcome(lambda: mixture_certificate_termwise(ms))


@settings(max_examples=200, deadline=None)
@given(hyp.data())
def test_grid_selection_matches_the_termwise_search(data):
    # margin tables full of ties, NaNs, infinities and signed zeros, each
    # NaN its own object, as a computed margin is
    size = data.draw(hyp.integers(0, 3), label="size")
    value = hyp.sampled_from((math.nan, -math.inf, -1.0, -0.0, 0.0, 5e-324, 0.5, math.inf)).map(lambda v: v * 1.0)
    table = data.draw(hyp.lists(hyp.tuples(*[value] * size), min_size=len(AB_GRID), max_size=len(AB_GRID)))
    reads = data.draw(hyp.sampled_from(("a", "b", "ab")), label="reads")
    row = {float(c): i for i, c in enumerate(AB_GRID)}

    def margins_for(a, b):
        return table[row[(a or b)[0]]] if size else table[0]

    got = certify("X", lambda rows: [margins_for(a, b) for a, b in rows], size, reads=reads, trunc=2)
    want = certify_termwise("X", margins_for, size, reads=reads, trunc=2)
    assert outcome(lambda: got) == outcome(lambda: want)
