import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mesonbell.bell import (
    EFFICIENCY_THRESHOLD_MAXIMAL,
    EFFICIENCY_THRESHOLD_NONMAXIMAL,
    CorrelationSet,
    LocalStrategy,
    all_deterministic_strategies,
    chs_sum,
    lhv_bound_brute_force,
    singlet_photon_correlations,
    threshold_check,
)


def test_chs_zero_cases():
    assert chs_sum(CorrelationSet(0, 0, 0, 0, 0, 0)) == 0.0
    assert chs_sum(CorrelationSet(0.5, 0.5, 0.5, 0.5, 0.5, 0.5)) == 0.0


def test_chs_sign_structure():
    c = CorrelationSet(p11=0.4, p12=0.1, p21=0.3, p22=0.2, s1=0.35, s2=0.3)
    assert chs_sum(c) == pytest.approx(0.4 - 0.1 + 0.3 + 0.2 - 0.35 - 0.3, abs=1e-15)


def test_correlation_set_validation():
    with pytest.raises(ValueError):
        CorrelationSet(1.2, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        CorrelationSet(0, 0, 0, -0.1, 0, 0)
    with pytest.raises(ValueError):
        CorrelationSet(0, 0, 0, float("nan"), 0, 0)


def test_singlet_photon_violation():
    c = singlet_photon_correlations(0.0, math.pi / 4, math.pi / 8, 3 * math.pi / 8)
    expected = (math.sqrt(2.0) - 1.0) / 2.0
    assert abs(chs_sum(c) - expected) < 1e-12
    assert chs_sum(c) > 0.0


def test_chs_linearity_under_mixing():
    rng = np.random.default_rng(17)
    for _ in range(100):
        a = CorrelationSet(*rng.uniform(0.0, 1.0, 6))
        b = CorrelationSet(*rng.uniform(0.0, 1.0, 6))
        lam = float(rng.uniform())
        mixed = a.mix(b, lam)
        assert chs_sum(mixed) == pytest.approx(
            lam * chs_sum(a) + (1.0 - lam) * chs_sum(b), abs=1e-12)


def test_deterministic_strategy_enumeration():
    strategies = all_deterministic_strategies()
    assert len(strategies) == 16
    assert len(set(strategies)) == 16
    values = [chs_sum(s.correlation_set()) for s in strategies]
    assert all(v <= 0.0 for v in values)
    assert max(values) == 0.0


def test_fire_always_and_never_give_zero():
    always = LocalStrategy(True, True, True, True)
    never = LocalStrategy(False, False, False, False)
    assert chs_sum(always.correlation_set()) == 0.0
    assert chs_sum(never.correlation_set()) == 0.0


def test_brute_force_report():
    report = lhv_bound_brute_force(n_mixtures=10_000)
    assert report.max_deterministic == 0.0
    assert report.n_mixtures == 10_000
    assert report.max_mixture == report.overall_max == 0.0
    assert chs_sum(report.best_strategy.correlation_set()) == report.max_deterministic
    # oracle: sampled mixtures of random vertex pairs never beat the exact bound;
    # the slack covers the rounding of one mix and the six-term sum
    rng = np.random.default_rng(20_240_811)
    vertices = [s.correlation_set() for s in all_deterministic_strategies()]
    for _ in range(10_000):
        i, j = rng.integers(len(vertices), size=2)
        mixed = vertices[i].mix(vertices[j], float(rng.uniform()))
        assert chs_sum(mixed) <= report.max_mixture + 1e-15


def test_threshold_constants():
    assert EFFICIENCY_THRESHOLD_MAXIMAL == 0.81
    assert EFFICIENCY_THRESHOLD_NONMAXIMAL == 0.67


@pytest.mark.parametrize("eff,state,expected", [
    (0.3298, "maximal", "detection_loophole"),
    (0.3298, "nonmaximal", "detection_loophole"),
    (0.45, "maximal", "detection_loophole"),
    (0.45, "nonmaximal", "detection_loophole"),
    (0.82, "maximal", "loophole_free_possible"),
    (0.70, "nonmaximal", "loophole_free_possible"),
    (0.70, "maximal", "detection_loophole"),
    (0.81, "maximal", "detection_loophole"),          # threshold itself is not enough
])
def test_threshold_verdicts(eff, state, expected):
    verdict = threshold_check(eff, state)
    assert verdict.verdict == expected
    assert verdict.efficiency == eff


def test_threshold_monotone_in_efficiency():
    effs = np.linspace(0.0, 1.0, 201)
    for state in ("maximal", "nonmaximal"):
        flags = [threshold_check(float(e), state).loophole_free_possible for e in effs]
        # once possible, stays possible
        assert flags == sorted(flags)


def test_threshold_validation():
    with pytest.raises(ValueError):
        threshold_check(1.2)
    with pytest.raises(ValueError):
        threshold_check(-0.1)
    with pytest.raises(ValueError):
        threshold_check(0.5, state="sort_of")
