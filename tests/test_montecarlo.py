import numpy as np
import pytest
from numpy.testing import assert_allclose

from mesonbell.constants import BMESON, KAON
from mesonbell.fitting import default_grid
from mesonbell.lrm import EfficiencyWeights, RhoProfile, joint_probabilities, lrm_like_joint
from mesonbell.montecarlo import (
    BLOCK_SIZE,
    SimConfig,
    _bias_report,
    acceptance_bias_report,
    first_events,
    simulate,
)
from mesonbell.quantum import TimePair

G = KAON.gamma_s
ZERO = RhoProfile.zero()


def make_config(weights=(1.0, 1.0, 1.0, 1.0), n_events=100_000, seed=42,
                params=KAON, t=None, rho=ZERO):
    t = t if t is not None else TimePair(1 / G, 2 / G)
    return SimConfig(params=params, rho=rho, weights=EfficiencyWeights.constant(*weights),
                     t=t, n_events=n_events, seed=seed)


def test_zero_weights_give_exactly_zero():
    result = simulate(make_config(weights=(0.0, 0.0, 0.0, 0.0)))
    assert result.estimate == 0.0
    assert result.stderr == 0.0
    assert result.accepted_like_counts.sum() == 0


def test_seeded_runs_are_bit_reproducible():
    a = simulate(make_config(seed=7))
    b = simulate(make_config(seed=7))
    assert a.estimate == b.estimate
    assert np.array_equal(a.pair_counts, b.pair_counts)
    assert np.array_equal(a.like_counts, b.like_counts)
    assert np.array_equal(a.accepted_counts, b.accepted_counts)
    c = simulate(make_config(seed=8))
    assert not np.array_equal(a.like_counts, c.like_counts)


def test_estimate_agrees_with_analytic_value():
    config = make_config(weights=(1.0, 0.13, 0.03, 0.04), n_events=400_000)
    result = simulate(config)
    analytic = lrm_like_joint(KAON, ZERO, config.weights, config.t.t_a, config.t.t_b)
    assert abs(result.estimate - analytic) < 4.0 * result.stderr
    assert result.stderr == pytest.approx(
        np.sqrt(result.estimate * (1 - result.estimate) / result.n_events), rel=1e-12)


def test_estimator_is_unbiased_over_many_seeds():
    weights = EfficiencyWeights.constant(1.0, 0.13, 0.03, 0.04)
    analytic = lrm_like_joint(KAON, ZERO, weights, 1 / G, 2 / G)
    estimates = []
    for seed in range(100):
        config = make_config(weights=(1.0, 0.13, 0.03, 0.04), n_events=100_000, seed=seed)
        estimates.append(simulate(config).estimate)
    estimates = np.asarray(estimates)
    sem = estimates.std(ddof=1) / np.sqrt(len(estimates))
    assert abs(estimates.mean() - analytic) < 5.0 * sem


def test_bias_report_of_one_result_equals_the_public_report():
    for config in (make_config(weights=(1.0, 0.13, 0.03, 0.04), n_events=50_000),
                   make_config(n_events=1)):
        helper = _bias_report(simulate(config))
        public = acceptance_bias_report(config)
        assert np.array_equal(helper.rates, public.rates, equal_nan=True)
        assert np.array_equal(helper.pair_counts, public.pair_counts)
        assert np.array_equal(helper.accepted_counts, public.accepted_counts)


def test_acceptance_rates_track_the_weights():
    config = make_config(weights=(1.0, 0.13, 0.03, 0.04), n_events=400_000)
    report = acceptance_bias_report(config)
    assert_allclose(report.rates, [1.0, 0.13, 0.03, 0.04], atol=0.01)
    # ordering 1 > 2 > 4 > 3 survives the statistics
    r = report.rates
    assert r[0] > r[1] > r[3] > r[2]
    assert report.pair_counts.sum() == config.n_events


def test_equal_weights_give_equal_rates():
    report = acceptance_bias_report(make_config(weights=(0.5, 0.5, 0.5, 0.5), n_events=200_000))
    assert np.all(np.abs(report.rates - 0.5) < 0.01)


def test_single_event_is_degenerate_but_fine():
    result = simulate(make_config(n_events=1))
    assert result.n_events == 1
    assert result.pair_counts.sum() == 1
    assert result.estimate in (0.0, 1.0)
    report = acceptance_bias_report(make_config(n_events=1))
    assert np.isnan(report.rates).sum() == 3


def test_n_events_validation():
    with pytest.raises(ValueError):
        make_config(n_events=0)


def test_first_events_match_the_stream_counts():
    config = make_config(n_events=64, seed=3)
    records = first_events(config, limit=64)
    assert len(records) == 64
    assert all(r.initial_pair in (1, 2, 3, 4) for r in records)
    result = simulate(config)
    for i in range(4):
        members = [r for r in records if r.initial_pair == i + 1]
        assert len(members) == result.pair_counts[i]
        assert sum(r.accepted for r in members) == result.accepted_counts[i]
        assert sum(r.like_flavor_outcome for r in members) == result.like_counts[i]
    assert first_events(config, limit=5) == records[:5]
    assert first_events(config, limit=0) == ()


def test_tiny_negative_joints_are_outside_the_validity_domain():
    # B on 0.2:20:200, row 114 (gamma_s t_a = 11.54): every P_i lies in
    # (-1e-16, 0), returned as computed rather than rounded to 0
    t_a, t_b = default_grid(BMESON, n=200, hi=20.0)
    t = TimePair(float(t_a[114]), float(t_b[114]))
    p = joint_probabilities(BMESON, ZERO, t.t_a, t.t_b)
    assert np.all((p < 0.0) & (p > -1e-16))
    with pytest.raises(ValueError, match="validity domain"):
        simulate(make_config(params=BMESON, t=t, n_events=10))


def test_time_dependent_weights_are_evaluated_at_the_config_times():
    weights = EfficiencyWeights(lambda ta, tb: np.exp(-G * ta), 1.0, 1.0, 1.0)
    config = SimConfig(KAON, ZERO, weights, TimePair(1 / G, 2 / G), 200_000, 5)
    report = acceptance_bias_report(config)
    assert abs(report.rates[0] - np.exp(-1.0)) < 0.01


def test_invalid_probability_regime_raises():
    # beyond the oscillation turnover some P_i go negative; the event draw
    # must refuse rather than sample nonsense
    config = make_config(t=TimePair(5 / G, 10 / G))
    with pytest.raises(ValueError, match="validity"):
        simulate(config)


def test_bmeson_configuration():
    g = BMESON.gamma_s
    config = SimConfig(BMESON, ZERO, EfficiencyWeights.constant(0.52, 0.08, 0.52, 0.08),
                       TimePair(1 / g, 2 / g), 200_000, 11)
    result = simulate(config)
    analytic = lrm_like_joint(BMESON, ZERO, config.weights, 1 / g, 2 / g)
    assert abs(result.estimate - analytic) < 4.0 * result.stderr


def test_block_streams_are_the_spawned_children():
    # block b draws from the b-th child of SeedSequence(seed).spawn
    config = make_config(weights=(1.0, 0.13, 0.03, 0.04), n_events=3 * BLOCK_SIZE + 1234, seed=9)
    p = joint_probabilities(KAON, ZERO, config.t.t_a, config.t.t_b)
    a = np.array(config.weights.as_tuple())
    counts = np.zeros((4, 4), dtype=np.int64)
    for b, child in enumerate(np.random.SeedSequence(9).spawn(4)):
        m = min(BLOCK_SIZE, config.n_events - b * BLOCK_SIZE)
        gen = np.random.Generator(np.random.Philox(child))
        pairs = gen.integers(0, 4, size=m)
        like = gen.random(m) < p[pairs]
        acc = gen.random(m) < a[pairs]
        for row, keep in enumerate((np.ones(m, dtype=bool), like, acc, like & acc)):
            counts[row] += np.bincount(pairs[keep], minlength=4)
    result = simulate(config)
    assert np.array_equal(counts, np.array([result.pair_counts, result.like_counts,
                                            result.accepted_counts, result.accepted_like_counts]))
