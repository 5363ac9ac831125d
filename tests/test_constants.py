import dataclasses

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
    assert b.mixing_x == pytest.approx(0.472 / 0.646)


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


def test_semileptonic_totals():
    assert semileptonic_total("K_L") == pytest.approx(0.1939 + 0.1359, abs=1e-15)
    assert semileptonic_total("K_L") == pytest.approx(0.3298, abs=1e-12)
    assert semileptonic_total("K_S") == pytest.approx(3.6e-4, abs=1e-15)
    # exclusive l nu rho / l nu pi channels sit inside the inclusive entry
    assert semileptonic_total("B0") == pytest.approx(0.105, abs=1e-15)


def test_semileptonic_unknown_parent():
    with pytest.raises(ValueError, match="no tagging channels"):
        semileptonic_total("D0")


def test_branching_ratio_bounds():
    for rec in BRANCHING:
        assert rec.ratio - rec.uncertainty >= 0.0
        assert rec.ratio + rec.uncertainty <= 1.0
    with pytest.raises(ValueError):
        BranchingRecord("X", "ch", ratio=0.99, uncertainty=0.02)
    with pytest.raises(ValueError):
        BranchingRecord("X", "ch", ratio=1e-5, uncertainty=2e-5)


def test_branching_records_filter():
    parents = {r.parent for r in branching_records()}
    assert parents == {"K_S", "K_L", "B0"}
    assert all(r.parent == "B0" for r in branching_records("B0"))
    assert len(branching_records("B0")) == 3

