import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats

from mesonbell.constants import BMESON, KAON
from mesonbell.fitting import default_grid
from mesonbell.lrm import EfficiencyWeights, RhoProfile, WeightRangeError, joint_probabilities, lrm_like_joint
from mesonbell.montecarlo import SimConfig, first_events, simulate
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


def test_acceptance_rates_track_the_weights():
    config = make_config(weights=(1.0, 0.13, 0.03, 0.04), n_events=400_000)
    result = simulate(config)
    r = result.acceptance_rates
    assert_allclose(r, [1.0, 0.13, 0.03, 0.04], atol=0.01)
    # ordering 1 > 2 > 4 > 3 survives the statistics
    assert r[0] > r[1] > r[3] > r[2]
    assert result.pair_counts.sum() == config.n_events


def test_equal_weights_give_equal_rates():
    result = simulate(make_config(weights=(0.5, 0.5, 0.5, 0.5), n_events=200_000))
    assert np.all(np.abs(result.acceptance_rates - 0.5) < 0.01)


def test_single_event_is_degenerate_but_fine():
    result = simulate(make_config(n_events=1))
    assert result.n_events == 1
    assert result.pair_counts.sum() == 1
    assert result.estimate in (0.0, 1.0)
    rates = result.acceptance_rates
    assert np.isnan(rates).sum() == 3
    assert rates[result.pair_counts > 0] == result.accepted_counts.sum()


def test_n_events_validation():
    # 2.7 used to simulate 2 events, True 1 event
    for n_events in (0, -5, 2.7, 1e6, True, "100", None, np.float64(3.0)):
        with pytest.raises(ValueError, match="n_events must be an integer >= 1"):
            make_config(n_events=n_events)
    # numpy's samplers take 64-bit counts; 2**63 used to reach them and overflow
    for n_events in (2**63, 10**20):
        with pytest.raises(ValueError, match="n_events must be at most 2\\*\\*63 - 1"):
            make_config(n_events=n_events)


def test_the_largest_event_count_is_drawn_at_once():
    start = time.perf_counter()
    result = simulate(make_config(n_events=2**63 - 1))
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5
    assert result.n_events == 2**63 - 1
    assert int(result.pair_counts.sum()) == 2**63 - 1


def test_short_runs_stay_on_the_calling_thread(monkeypatch):
    # and so do long ones: the counts are drawn, not generated event by event
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
    for n_events in (1, 1 << 22, 10_000_000, 2**63 - 1):
        assert int(simulate(make_config(n_events=n_events)).pair_counts.sum()) == n_events
        assert len(first_events(make_config(n_events=n_events), limit=3)) == min(3, n_events)
    assert started == []


def test_seed_validation():
    # negative seeds used to fail only inside simulate, and True was seed 1
    for seed in (-3, -1, True, False, 1.0, "7", [1, 2]):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            make_config(seed=seed)


def test_numpy_integers_and_no_seed_are_accepted():
    numpy_typed = simulate(make_config(n_events=np.int64(70_000), seed=np.uint32(5)))
    plain = simulate(make_config(n_events=70_000, seed=5))
    assert np.array_equal(result_counts(numpy_typed), result_counts(plain))
    assert simulate(make_config(n_events=70_000, seed=None)).pair_counts.sum() == 70_000


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
    assert first_events(config, limit=1000) == records


def test_first_events_limit_validation():
    # True used to give one record, the others islice's message
    config = make_config(n_events=64, seed=3)
    for limit in (True, 2.5, -1, "3", None, np.float64(3.0)):
        with pytest.raises(ValueError, match="limit must be a non-negative integer"):
            first_events(config, limit)
    assert first_events(config, np.int64(5)) == first_events(config, 5)


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
    weights = EfficiencyWeights(lambda ta, tb: np.array([np.exp(-G * ta), 1.0, 1.0, 1.0]))
    config = SimConfig(KAON, ZERO, weights, TimePair(1 / G, 2 / G), 200_000, 5)
    assert abs(simulate(config).acceptance_rates[0] - np.exp(-1.0)) < 0.01


def test_time_dependent_weights_are_checked_at_the_config_times():
    # in range at t = 0, out of it at the config times (1/G, 2/G)
    weights = EfficiencyWeights(lambda ta, tb: np.array([1.0 + G * ta, 1.0, 1.0, 1.0]))
    weights.values(0.0, 0.0)
    with pytest.raises(WeightRangeError, match=r"; got 2\.0$"):
        simulate(SimConfig(KAON, ZERO, weights, TimePair(1 / G, 2 / G), 1000, 5))


def test_a_weight_that_does_not_fit_the_time_pair_is_named():
    weights = EfficiencyWeights(lambda ta, tb: np.full((2, 4), 0.5))
    with pytest.raises(ValueError, match=r"^weight rows have shape \(2, 4\), which does not broadcast "
                                         r"to \(4,\), the time grid's shape plus a last axis of a1\.\.a4$"):
        simulate(SimConfig(KAON, ZERO, weights, TimePair(1 / G, 2 / G), 1000, 5))


# Pair, like, accepted and accepted-like counts per configuration, as SimResult
# reports them, for three seeded runs at (t_a, t_b) = (1, 2)/gamma_s.  The
# draws of a seed must not change: `mc` prints them.
PINNED_COUNTS = [
    (KAON, (1.0, 0.13, 0.03, 0.04), 42, 10**6,
     [[249194, 250018, 250056, 250732], [1978, 16933, 768, 6181],
      [249194, 32082, 7602, 10102], [1978, 2142, 18, 286]]),
    (KAON, (1.0, 0.13, 0.03, 0.04), 42, 10**7,
     [[2497445, 2500057, 2500180, 2502318], [19787, 168661, 7419, 61946],
      [2497445, 324029, 74727, 100349], [19787, 22098, 226, 2446]]),
    (BMESON, (0.52, 0.08, 0.52, 0.08), 7, 10**6,
     [[249934, 249597, 249604, 250865], [496, 3460, 499, 3476],
      [130052, 20177, 129948, 20184], [254, 262, 250, 273]]),
]


@pytest.mark.parametrize("params, weights, seed, n_events, counts", PINNED_COUNTS,
                         ids=["kaon-fig3-1e6", "kaon-fig3-1e7", "bmeson-fig4-1e6"])
def test_seeded_counts_are_pinned(params, weights, seed, n_events, counts):
    g = params.gamma_s
    result = simulate(make_config(weights=weights, n_events=n_events, seed=seed, params=params,
                                  t=TimePair(1 / g, 2 / g)))
    assert result_counts(result).tolist() == counts
    assert result.estimate == sum(counts[3]) / n_events


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


def result_counts(result):
    return np.array([result.pair_counts, result.like_counts,
                     result.accepted_counts, result.accepted_like_counts])


def cells(result):
    """The 16 event counts [configuration, like-flavor, accepted] of a result."""
    pairs, like, accepted, accepted_like = result_counts(result)
    return np.stack([np.stack([pairs - like - accepted + accepted_like, accepted - accepted_like], axis=1),
                     np.stack([like - accepted_like, accepted_like], axis=1)], axis=1)


@pytest.mark.parametrize("params, weights, seed", [(KAON, (1.0, 0.13, 0.03, 0.04), 3),
                                                   (BMESON, (0.52, 0.08, 0.52, 0.08), 4)])
def test_counts_follow_the_event_law(params, weights, seed):
    # Pearson chi-square of the 16 cells against n (1/4) P^l (1-P)^(1-l) a^s (1-a)^(1-s)
    config = make_config(weights=weights, n_events=10_000_000, seed=seed, params=params,
                         t=TimePair(1 / params.gamma_s, 2 / params.gamma_s))
    p = joint_probabilities(params, ZERO, config.t.t_a, config.t.t_b)
    a = np.asarray(weights)
    like = np.stack([1.0 - p, p], axis=1)[:, :, None]
    accepted = np.stack([1.0 - a, a], axis=1)[:, None, :]
    expected = config.n_events * 0.25 * like * accepted
    observed = cells(simulate(config))
    assert observed.sum() == config.n_events
    assert np.all(observed[expected == 0.0] == 0)
    nonzero = expected > 0.0
    chi2 = float((((observed - expected) ** 2)[nonzero] / expected[nonzero]).sum())
    assert stats.chi2.sf(chi2, nonzero.sum() - 1) > 1e-6


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**63),
       n_events=st.one_of(st.integers(1, 10**6), st.integers(1, 2**63 - 1)),
       weights=st.lists(st.sampled_from([0.0, 1.0, 0.37]), min_size=4, max_size=4))
def test_counts_respect_the_exact_zeros_and_ones(seed, n_events, weights):
    # the saturated profile makes P1 = P3 = P4 = 0 exactly
    rho = RhoProfile.saturate_upper_short()
    config = make_config(weights=weights, n_events=n_events, seed=seed, rho=rho,
                         t=TimePair(0.8 / G, 1.6 / G))
    p = joint_probabilities(KAON, rho, config.t.t_a, config.t.t_b)
    a = np.asarray(weights)
    result = simulate(config)
    pairs, like, accepted, accepted_like = result_counts(result)
    assert int(pairs.sum()) == n_events
    assert np.all((like <= pairs) & (accepted <= pairs))
    assert np.all((accepted_like <= like) & (accepted_like <= accepted))
    assert np.all(cells(result) >= 0)
    assert np.all(like[p == 0.0] == 0)
    assert np.all(accepted[a == 0.0] == 0)
    assert np.array_equal(accepted[a == 1.0], pairs[a == 1.0])


def test_unseeded_runs_draw_entropy_once_per_call():
    config = make_config(n_events=1_000_000, seed=None)
    assert not np.array_equal(result_counts(simulate(config)), result_counts(simulate(config)))
