import dataclasses
import json

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


def test_json_override(tmp_path):
    path = tmp_path / "constants.json"
    path.write_text(json.dumps({"kaon": {"gamma_s": 1.2e10, "delta_m_err": 0.0}}))
    k = species_params("kaon", config=path)
    assert k.gamma_s == 1.2e10
    assert k.delta_m_err == 0.0
    # absent keys fall back to the registry
    assert k.gamma_l == KAON.gamma_l
    assert k.delta_m == KAON.delta_m
    # the registry itself is untouched
    assert KAON.gamma_s == 1.1192e10


def test_mapping_override_and_unknown_key():
    k = species_params("kaon", config={"kaon": {"gamma_l": 2.0e7}})
    assert k.gamma_l == 2.0e7
    with pytest.raises(ValueError, match="unknown override"):
        species_params("kaon", config={"kaon": {"mass": 1.0}})


MALFORMED_OVERRIDES = [
    ('[1, 2]', "must be an object keyed by species"),
    ('5', "must be an object keyed by species"),
    ('"5e9"', "must be an object keyed by species"),
    ('{"kaon": 5}', "overrides for kaon must be an object"),
    ('{"kaon": [1.0]}', "overrides for kaon must be an object"),
    ('{"kaon": {"gamma_s": null}}', "kaon.gamma_s must be a number"),
    ('{"kaon": {"gamma_s": true}}', "kaon.gamma_s must be a number"),
    ('{"kaon": {"delta_m": "5e9"}}', "kaon.delta_m must be a number"),
    ('{"kaon": {"gamma_l_err": [1]}}', "kaon.gamma_l_err must be a number"),
    ('{"kaon": {"gamma_s": 1' + "0" * 400 + '}}', "kaon.gamma_s is too large"),
]


@pytest.mark.parametrize("text, message", MALFORMED_OVERRIDES, ids=[text[:32] for text, _ in MALFORMED_OVERRIDES])
def test_malformed_overrides_are_value_errors(tmp_path, text, message):
    path = tmp_path / "constants.json"
    path.write_text(text)
    config = json.loads(text)
    # a JSON file, and the same value passed as a mapping where it is one
    for source in [path] + ([config] if isinstance(config, dict) else []):
        with pytest.raises(ValueError, match=message):
            species_params("kaon", config=source)
