import dataclasses

import numpy as np
import pytest

from mesonbell.constants import (
    BMESON,
    BRANCHING,
    KAON,
    BranchingRecord,
    OscillationParams,
    branching_records,
    semileptonic_total,
    species_params,
)
from mesonbell.quantum import qm_like_joint


def test_kaon_registry_values():
    k = species_params("kaon")
    assert k.gamma_s == 1.1192e10
    assert k.gamma_l == 1.934e7
    assert k.delta_m == 0.5300e10
    assert k.gamma_s / k.gamma_l == pytest.approx(578.7, rel=1e-3)
    assert not k.equal_widths


def test_bmeson_registry_values():
    b = species_params("bmeson")
    assert b.gamma_s == 0.646e12
    assert b.gamma_l == 0.646e12
    assert b.delta_m == 0.472e12
    assert b.equal_widths
    assert [f.name for f in dataclasses.fields(b)] == ["species", "gamma_s", "gamma_l", "delta_m"]


def test_repeated_queries_identical():
    assert species_params("kaon") is KAON
    assert species_params("bmeson") is BMESON


def test_unknown_species_rejected():
    with pytest.raises(ValueError, match="unknown species"):
        species_params("dmeson")


def test_registry_is_immutable():
    with pytest.raises(dataclasses.FrozenInstanceError):
        KAON.gamma_s = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        BRANCHING[0].ratio = 0.5


def test_params_validation():
    with pytest.raises(ValueError):
        OscillationParams("x", gamma_s=-1.0, gamma_l=1.0, delta_m=1.0)
    with pytest.raises(ValueError):
        OscillationParams("x", gamma_s=1.0, gamma_l=2.0, delta_m=1.0)
    with pytest.raises(ValueError):
        OscillationParams("x", gamma_s=1.0, gamma_l=1.0, delta_m=-1.0)
    # delta_m = 0 is a legitimate no-oscillation limit
    OscillationParams("x", gamma_s=1.0, gamma_l=1.0, delta_m=0.0)
    # other values than the registry's: a checked copy, the registry untouched
    assert dataclasses.replace(KAON, gamma_l=2.0e7).gamma_l == 2.0e7
    with pytest.raises(ValueError, match="gamma_s must be >= gamma_l"):
        dataclasses.replace(KAON, gamma_l=2.0e10)
    assert KAON.gamma_l == 1.934e7


@pytest.mark.parametrize("rates", [(1e10, 1e9, 1e9), (1.1192e10, 1.934e7, 0.53e10), (30.0, 1.0, 10.0)])
def test_params_from_numpy_floats_equal_the_python_float_species(rates):
    # numpy scalars are stored as Python floats: under -W error their products
    # in _max_time raised RuntimeWarning (overflow) from the constructor
    from_numpy = OscillationParams("p", *map(np.float64, rates))
    plain = OscillationParams("p", *rates)
    for name in ("gamma_s", "gamma_l", "delta_m", "_max_time"):
        value = getattr(from_numpy, name)
        assert type(value) is float and value.hex() == getattr(plain, name).hex()
    t_a, t_b = 0.3 / rates[0], 0.7 / rates[0]
    assert float(qm_like_joint(from_numpy, t_a, t_b)).hex() == float(qm_like_joint(plain, t_a, t_b)).hex()
    with pytest.raises(TypeError):
        OscillationParams("p", "1.0", 1.0, 1.0)


def test_semileptonic_totals():
    assert semileptonic_total("K_L") == pytest.approx(0.1939 + 0.1359, abs=1e-15)
    assert semileptonic_total("K_L") == pytest.approx(0.3298, abs=1e-12)
    assert semileptonic_total("K_S") == pytest.approx(3.6e-4, abs=1e-15)
    # exclusive l nu rho / l nu pi channels sit inside the inclusive entry
    assert semileptonic_total("B0") == pytest.approx(0.105, abs=1e-15)


def test_semileptonic_unknown_parent():
    # None is no parent: it does not sum the tagging channels of every parent
    for parent in ("D0", None):
        with pytest.raises(ValueError, match="no tagging channels"):
            semileptonic_total(parent)


def test_branching_ratio_bounds():
    for rec in BRANCHING:
        assert 0.0 <= rec.ratio <= 1.0
    for ratio in (float("nan"), float("inf"), -float("inf"), -0.1, 1.1):
        with pytest.raises(ValueError, match=r"^X ch: ratio .* is not in \[0, 1\]$"):
            BranchingRecord("X", "ch", ratio)
    # the bounds themselves are ratios
    assert BranchingRecord("X", "ch", 0.0).ratio == 0.0
    assert BranchingRecord("X", "ch", 1.0, tagging=False).ratio == 1.0
    # tagging is keyword-only, so a fourth positional value cannot set it
    with pytest.raises(TypeError):
        BranchingRecord("X", "ch", 0.5, 0.0)


def test_branching_records_filter():
    parents = {r.parent for r in BRANCHING}
    assert parents == {"K_S", "K_L", "B0"}
    assert all(r.parent == "B0" for r in branching_records("B0"))
    assert len(branching_records("B0")) == 3

