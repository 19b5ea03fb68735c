"""Tests for species spaces, pair potentials, and Mayer matrices."""

import json
import math
from fractions import Fraction

import pytest

from virialkit.errors import DomainError, StructureError
from virialkit.inversion import GCState
from virialkit.oracles import recover_potential
from virialkit.species import (
    MayerMatrices,
    MeasureVec,
    PairPotential,
    Species,
    SpeciesSpace,
    build_mayer,
    check_stability,
    load_species_json,
    parse_measure,
    parse_scalar,
    segments_intersect,
)

INF = float("inf")


def test_species_space_basic():
    space = SpeciesSpace.from_weights([2.0, 1.5])
    assert space.size == 2
    assert [s.id for s in space.species] == [0, 1]
    assert space.weights == (2.0, 1.5)

    u = SpeciesSpace.uniform(3)
    assert u.weights == (1, 1, 1)


def test_species_space_validation():
    with pytest.raises(StructureError):
        SpeciesSpace.from_weights([1.0, 0.0])
    with pytest.raises(StructureError):
        SpeciesSpace.from_weights([1.0, -2.0])
    with pytest.raises(StructureError):
        SpeciesSpace([Species(0, 1.0), Species(2, 1.0)])  # gap in ids


def test_measure_vec():
    space = SpeciesSpace.from_weights([2.0, 1.5])
    mv = MeasureVec.constant(space, Fraction(1, 2))
    assert mv.values == (Fraction(1, 2), Fraction(1, 2))


def test_hard_core_mayer_is_exact():
    space = SpeciesSpace.uniform(2)
    pot = PairPotential(space, 1.0, [[INF, 0.0], [0.0, INF]])
    my = build_mayer(pot)
    # energies in {0, inf} trigger the exact rational route automatically
    assert my.f[0][0] == Fraction(-1) and isinstance(my.f[0][0], Fraction)
    assert my.f[0][1] == 0
    assert my.f_bar[0][0] == 1 and my.f_bar[0][1] == 0


def test_finite_energy_mayer_values():
    space = SpeciesSpace.uniform(2)
    pot = PairPotential(space, 1.0, [[0.0, math.log(2)], [math.log(2), 0.0]])
    my = build_mayer(pot)
    assert my.f[0][0] == 0.0
    assert abs(my.f[0][1] - (-0.5)) < 1e-15
    assert abs(my.f_bar[0][1] - 0.5) < 1e-15


def test_recover_potential_roundtrip():
    space = SpeciesSpace.uniform(2)
    v = [[0.4, 1.3], [1.3, INF]]
    pot = PairPotential(space, 1.0, v)
    back = recover_potential(build_mayer(pot), 1.0)
    assert back[1][1] == INF
    assert abs(back[0][0] - 0.4) < 1e-12
    assert abs(back[0][1] - 1.3) < 1e-12


def test_mayer_from_f_validation():
    space = SpeciesSpace.uniform(1)
    my = MayerMatrices.from_f(space, [[Fraction(1, 2)]], exact=True)
    # positive f maps to f/(1+f)
    assert my.f_bar[0][0] == Fraction(1, 3)
    my2 = MayerMatrices.from_f(space, [[Fraction(-1, 2)]], exact=True)
    assert my2.f_bar[0][0] == Fraction(1, 2)
    with pytest.raises(StructureError):
        MayerMatrices.from_f(space, [[Fraction(-3, 2)]], exact=True)  # below -1
    two = SpeciesSpace.uniform(2)
    with pytest.raises(StructureError):
        MayerMatrices.from_f(two, [[0, Fraction(1, 2)], [Fraction(1, 3), 0]], exact=True)


def test_exact_mayer_matrices_hold_only_rationals():
    # a float entry in a matrix marked exact used to pass, and every exact
    # sum then ran in floats; an int entry gave a float fbar
    two = SpeciesSpace.uniform(2)
    f = [[-0.3, 0.1], [0.1, -0.7]]
    with pytest.raises(StructureError):
        MayerMatrices.from_f(two, f, exact=True)
    with pytest.raises(StructureError):
        GCState.from_f(two, f, N=4, exact=True)
    with pytest.raises(StructureError):
        MayerMatrices(SpeciesSpace.uniform(1), [[Fraction(-1)]], [[1.0]], exact=True)
    assert MayerMatrices.from_f(two, f, exact=False).f_bar[0][1] == 0.1 / 1.1
    one = MayerMatrices.from_f(SpeciesSpace.uniform(1), [[1]], exact=True)
    assert one.f_bar[0][0] == Fraction(1, 2) and type(one.f_bar[0][0]) is Fraction
    float_one = MayerMatrices.from_f(two, [[1, 0.5], [0.5, 0]], exact=False)
    assert float_one.f_bar[0][0] == 0.5 and type(float_one.f_bar[0][0]) is float


def test_symmetry_check_names_the_first_pair_that_differs():
    # a NaN differs from itself, so it fails the check at its own pair, one
    # object in both places included
    three = SpeciesSpace.uniform(3)
    nan = float("nan")
    cases = [
        ([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.5, 3.0, 0.0]], "entries 0,2 differ"),
        ([[0.0, nan, 0.0], [nan, 0.0, 0.0], [0.0, 0.0, 0.0]], "entries 0,1 differ"),
        ([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, nan]], "entries 2,2 differ"),
    ]
    for v, where in cases:
        with pytest.raises(StructureError, match=f"potential matrix must be symmetric \\({where}\\)"):
            PairPotential(three, 1.0, v)
        with pytest.raises(StructureError, match=f"f matrix must be symmetric \\({where}\\)"):
            MayerMatrices(three, v, [[0.0] * 3] * 3, exact=False)
    # equal values of two types are symmetric, as before
    assert MayerMatrices.from_f(SpeciesSpace.uniform(2), [[0, 1], [1.0, 0]], exact=False).f[0][1] == 1


def test_hard_core_mayer_shares_one_object_per_value():
    space = SpeciesSpace.uniform(3)
    pot = PairPotential(space, 1.0, [[INF, 0.0, INF], [0.0, INF, 0.0], [INF, 0.0, 0.0]])
    my = build_mayer(pot)
    assert len({id(e) for row in my.f for e in row}) == 2
    assert len({id(e) for m in (my.f, my.f_bar) for row in m for e in row}) == 3
    assert my.f == ((-1, 0, -1), (0, -1, 0), (-1, 0, 0))
    assert all(type(e) is Fraction for m in (my.f, my.f_bar) for row in m for e in row)


def test_pair_potential_validation():
    space = SpeciesSpace.uniform(1)
    with pytest.raises(DomainError):
        PairPotential(space, 0.0, [[0.0]])
    with pytest.raises(DomainError):
        PairPotential(space, -1.0, [[0.0]])
    two = SpeciesSpace.uniform(2)
    with pytest.raises(StructureError):
        PairPotential(two, 1.0, [[0.0, 1.0], [2.0, 0.0]])  # asymmetric
    # b_star entries may not sit below the attraction floor
    with pytest.raises(StructureError):
        PairPotential(space, 1.0, [[-2.0]], b_star=[0.5])
    ok = PairPotential(space, 1.0, [[-2.0]], b_star=[2.0])
    assert ok.b_star == (2.0,)


def test_stability_nonnegative_potential_passes():
    space = SpeciesSpace.uniform(2)
    pot = PairPotential(space, 1.0, [[0.0, 0.5], [0.5, 1.0]])
    cert = check_stability(pot, n_check=3)
    assert cert.passed
    assert cert.worst_margin == 0.0
    assert cert.worst_multiset == (0, 0)
    # multisets of sizes 2 and 3 over two species: 3 + 4
    assert len(cert.margins) == 7


def test_stability_attractive_potential_fails():
    space = SpeciesSpace.uniform(1)
    pot = PairPotential(space, 1.0, [[-1.0]])
    cert = check_stability(pot, n_check=3)
    assert not cert.passed
    # H(x,x) = -1 and H(x,x,x) = -3 with claimed B = 0
    assert cert.margins[(0, 0)] == -1.0
    assert cert.margins[(0, 0, 0)] == -3.0
    assert cert.worst_margin == -3.0
    assert cert.worst_multiset == (0, 0, 0)


def test_stability_with_declared_constant():
    space = SpeciesSpace.uniform(2)
    pot = PairPotential(space, 1.0, [[1.0, -0.5], [-0.5, 2.0]], b_stability=[1.0, 1.0])
    cert = check_stability(pot, n_check=3)
    assert cert.passed
    with pytest.raises(DomainError):
        check_stability(pot, n_check=1)


def test_stability_skips_hard_pairs():
    space = SpeciesSpace.uniform(1)
    pot = PairPotential(space, 1.0, [[INF]])
    cert = check_stability(pot, n_check=4)
    assert cert.passed and cert.worst_margin == 0.0


def test_segments_intersect_cases():
    assert segments_intersect((0, 0), (1, 1), (0, 1), (1, 0))
    assert not segments_intersect((0, 0), (1, 0), (0, 1), (1, 1))
    # shared endpoint and collinear overlap both count
    assert segments_intersect((0, 0), (1, 0), (1, 0), (2, 1))
    assert segments_intersect((0, 0), (2, 0), (1, 0), (3, 0))
    assert not segments_intersect((0, 0), (1, 0), (2, 0), (3, 0))


def test_load_species_json_from_dict_and_string(tmp_path):
    doc = {
        "beta": 1.0,
        "species": [{"id": 0, "weight": 1}, {"id": 1, "weight": 2}],
        "potential": {"kind": "matrix", "params": {"v": [["inf", 0.0], [0.0, "inf"]]}},
    }
    space, pot = load_species_json(doc)
    assert space.size == 2 and space.weights[1] == 2
    assert pot.v[0][0] == INF and pot.v[0][1] == 0.0

    space2, pot2 = load_species_json(json.dumps(doc))
    assert pot2.v[1][1] == INF

    p = tmp_path / "species.json"
    p.write_text(json.dumps(doc))
    space3, pot3 = load_species_json(str(p))
    assert space3.size == 2


def test_load_species_json_kinds():
    rod = {
        "beta": 1.0,
        "species": [
            {"id": 0, "weight": 1, "payload": {"position": 0.0}},
            {"id": 1, "weight": 1, "payload": {"position": 0.6}},
            {"id": 2, "weight": 1, "payload": {"position": 2.0}},
        ],
        "potential": {"kind": "hard_rod", "params": {"length": 1.0}},
    }
    _, pot = load_species_json(rod)
    assert pot.v[0][1] == INF and pot.v[0][2] == 0.0

    sphere = {
        "beta": 1.0,
        "species": [
            {"id": 0, "weight": 1, "payload": {"position": [0.0, 0.0]}},
            {"id": 1, "weight": 1, "payload": {"position": [0.9, 0.0], "radius": 0.25}},
        ],
        "potential": {"kind": "hard_sphere", "params": {"radius": 0.5}},
    }
    _, spot = load_species_json(sphere)
    # 0.9 > 0.5 + 0.25 so no overlap, but each sphere overlaps itself
    assert spot.v[0][1] == 0.0 and spot.v[0][0] == INF

    rods = {
        "beta": 1.0,
        "species": [
            {"id": 0, "weight": 1, "payload": {"position": [0.0, 0.0], "angle": 0.0}},
            {"id": 1, "weight": 1, "payload": {"position": [0.0, 0.1], "angle": 1.5707963267948966}},
            {"id": 2, "weight": 1, "payload": {"position": [3.0, 0.0], "angle": 0.0}},
        ],
        "potential": {"kind": "rods2d", "params": {"length": 1.0}},
    }
    _, rpot = load_species_json(rods)
    assert rpot.v[0][1] == INF  # crossing rods
    assert rpot.v[0][2] == 0.0  # far apart


def test_load_species_json_hard_rod_ring():
    doc = {
        "beta": 1.0,
        "species": [
            {"id": 0, "weight": 1, "payload": {"position": 0.0}},
            {"id": 1, "weight": 1, "payload": {"position": 3.5}},
        ],
        "potential": {"kind": "hard_rod", "params": {"length": 1.0, "period": 4.0}},
    }
    _, pot = load_species_json(doc)
    # ring distance is min(3.5, 0.5) = 0.5 < 1
    assert pot.v[0][1] == INF


def test_load_species_json_errors():
    with pytest.raises(StructureError):
        load_species_json({"species": [{"id": 0, "weight": 1}]})  # no beta/potential
    with pytest.raises(StructureError):
        load_species_json('{"beta": 1.0}')
    with pytest.raises(DomainError):
        load_species_json(
            {
                "beta": 1.0,
                "species": [{"id": 0, "weight": 1}],
                "potential": {"kind": "nope", "params": {}},
            }
        )


def test_load_species_json_field_types():
    good = {
        "beta": 1.0,
        "species": [{"id": 0, "weight": 1}],
        "potential": {"kind": "matrix", "params": {"v": [["inf"]]}},
    }
    load_species_json(good)
    for species in (3, "x", {"id": 0, "weight": 1}, [3], [[0, 1]], [{"id": "0", "weight": 1}],
                    [{"id": True, "weight": 1}]):
        with pytest.raises(StructureError):
            load_species_json({**good, "species": species})
    with pytest.raises(StructureError):
        load_species_json({**good, "potential": 3})
    for beta in ("x", "1/0", float("nan"), float("inf"), None, True, [1]):
        with pytest.raises(DomainError):
            load_species_json({**good, "beta": beta})
    _, pot = load_species_json({**good, "beta": "1/2"})
    assert pot.beta == Fraction(1, 2)


def test_parse_scalar():
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert isinstance(parse_scalar("3"), Fraction) and parse_scalar("3") == 3
    assert parse_scalar("-1/8") == Fraction(-1, 8)
    for v in (2, Fraction(1, 3), 0.25, 0.5 + 1j):
        assert parse_scalar(v) is v
    for bad in ("1/0", "x", "1/2/3", "", float("nan"), float("inf"), complex("nan"), None, True, [1]):
        with pytest.raises(DomainError):
            parse_scalar(bad)


def test_parse_measure():
    assert parse_measure(["1/2", 3], 2) == [Fraction(1, 2), 3]
    for bad in (["1/2"], ["1/2", 1, 1], "1/2", None):
        with pytest.raises(StructureError):
            parse_measure(bad, 2)
    with pytest.raises(DomainError):
        parse_measure(["1/2", float("nan")], 2)


def test_load_species_json_string_weight():
    doc = {
        "beta": 1.0,
        "species": [{"id": 0, "weight": "1/2"}],
        "potential": {"kind": "matrix", "params": {"v": [["inf"]]}},
    }
    space, _ = load_species_json(doc)
    assert space.weights == (Fraction(1, 2),)
    doc["species"][0]["weight"] = "1/0"
    with pytest.raises(DomainError):
        load_species_json(doc)
