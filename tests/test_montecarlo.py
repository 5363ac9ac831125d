import signal
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mesonbell import montecarlo
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
    # 2.7 used to simulate 2 events, True 1 event
    for n_events in (0, -5, 2.7, 1e6, True, "100", None, np.float64(3.0)):
        with pytest.raises(ValueError, match="n_events must be an integer >= 1"):
            make_config(n_events=n_events)


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


def reference_blocks(config, entropy):
    """(pairs, like, accepted) per block; block b draws from the b-th child of
    SeedSequence(entropy).spawn, in block order."""
    p = joint_probabilities(config.params, config.rho, config.t.t_a, config.t.t_b)
    a = np.array(config.weights.as_tuple())
    n_blocks = -(-config.n_events // BLOCK_SIZE)
    for b, child in enumerate(np.random.SeedSequence(entropy).spawn(n_blocks)):
        m = min(BLOCK_SIZE, config.n_events - b * BLOCK_SIZE)
        gen = np.random.Generator(np.random.Philox(child))
        pairs = gen.integers(0, 4, size=m)
        like = gen.random(m) < p[pairs]
        acc = gen.random(m) < a[pairs]
        yield pairs, like, acc


def reference_counts(config, entropy):
    """Counts rows (pairs, like, accepted, accepted-like) x configuration."""
    counts = np.zeros((4, 4), dtype=np.int64)
    for pairs, like, acc in reference_blocks(config, entropy):
        for row, keep in enumerate((np.ones(len(pairs), dtype=bool), like, acc, like & acc)):
            counts[row] += np.bincount(pairs[keep], minlength=4)
    return counts


def result_counts(result):
    return np.array([result.pair_counts, result.like_counts,
                     result.accepted_counts, result.accepted_like_counts])


def use_threads(mp, workers):
    """Make simulate run on `workers` threads whatever its block count."""
    mp.setattr(montecarlo, "_WORKERS", workers)
    mp.setattr(montecarlo, "_BLOCKS_PER_WORKER", 1)


_SPECIES = {"kaon": (KAON, (1.0, 0.13, 0.03, 0.04)), "bmeson": (BMESON, (0.52, 0.08, 0.52, 0.08))}


@settings(max_examples=40, deadline=None)
@given(species=st.sampled_from(sorted(_SPECIES)), seed=st.integers(0, 2**63),
       n_events=st.sampled_from([1, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1,
                                 3 * BLOCK_SIZE + 1234]),
       workers=st.sampled_from([1, 2, 3, 8]))
def test_block_streams_are_the_spawned_children(species, seed, n_events, workers):
    # whatever the thread count, the counts are those of the serial block stream
    params, weights = _SPECIES[species]
    config = make_config(weights=weights, n_events=n_events, seed=seed, params=params,
                         t=TimePair(1 / params.gamma_s, 2 / params.gamma_s))
    with pytest.MonkeyPatch.context() as mp:
        use_threads(mp, workers)
        result = simulate(config)
    assert np.array_equal(result_counts(result), reference_counts(config, seed))


def test_counts_survive_forced_thread_switching(monkeypatch):
    # more threads than cores, switching as often as the interpreter allows
    use_threads(monkeypatch, 8)
    config = make_config(n_events=20 * BLOCK_SIZE + 7, seed=11)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = simulate(config)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(result_counts(result), reference_counts(config, 11))


def test_short_runs_stay_on_the_calling_thread(monkeypatch):
    # one more thread per _BLOCKS_PER_WORKER blocks, up to _WORKERS
    monkeypatch.setattr(montecarlo, "_WORKERS", 8)
    monkeypatch.setattr(montecarlo, "_BLOCKS_PER_WORKER", 4)
    started = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    for n_blocks, helpers in [(1, 0), (7, 0), (8, 1), (11, 1), (12, 2), (40, 7)]:
        started.clear()
        config = make_config(n_events=n_blocks * BLOCK_SIZE, seed=n_blocks)
        result = simulate(config)
        assert len(started) == helpers, n_blocks
        assert np.array_equal(result_counts(result), reference_counts(config, n_blocks))


def test_first_events_cross_the_block_boundary_in_stream_order():
    config = make_config(weights=(1.0, 0.13, 0.03, 0.04), n_events=2 * BLOCK_SIZE, seed=9)
    stream = [np.concatenate(column)[:BLOCK_SIZE + 10]
              for column in zip(*reference_blocks(config, 9))]
    expected = [(int(i) + 1, bool(like), bool(acc)) for i, like, acc in zip(*stream)]
    records = first_events(config, limit=BLOCK_SIZE + 10)
    assert [(r.initial_pair, r.like_flavor_outcome, r.accepted) for r in records] == expected


def test_unseeded_runs_draw_entropy_once_per_call(monkeypatch):
    roots = []
    block = montecarlo._block

    def recording_block(config, p, a, root, b):
        roots.append(root)
        return block(config, p, a, root, b)

    monkeypatch.setattr(montecarlo, "_block", recording_block)
    use_threads(monkeypatch, 3)
    config = make_config(n_events=3 * BLOCK_SIZE + 1234, seed=None)
    result = simulate(config)
    assert len(roots) == 4 and all(root is roots[0] for root in roots)
    assert np.array_equal(result_counts(result), reference_counts(config, roots[0].entropy))
    first = roots[0]
    roots.clear()
    simulate(config)
    assert len(roots) == 4 and all(root is roots[0] for root in roots)
    assert roots[0].entropy != first.entropy


def patch_failing_block(monkeypatch, workers, first, fails, exc):
    """Make a block b >= first for which fails(b) holds raise exc; returns the blocks started.

    Every other block from `first` on waits until the failure, then 20 ms more,
    so a share that runs ahead cannot run up the count before the failure.
    """
    block = montecarlo._block
    failed = threading.Event()
    calls = []

    def failing_block(config, p, a, root, b):
        calls.append(b)
        if b >= first:
            if fails(b):
                failed.set()
                raise exc
            failed.wait(timeout=10)
            time.sleep(0.02)
        return block(config, p, a, root, b)

    monkeypatch.setattr(montecarlo, "_block", failing_block)
    use_threads(monkeypatch, workers)
    return calls


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_a_failing_block_stops_every_share_and_is_raised(monkeypatch, workers):
    calls = patch_failing_block(monkeypatch, workers, 5, lambda b: b == 5,
                                RuntimeError("block 5 failed"))
    baseline = threading.active_count()
    with pytest.raises(RuntimeError, match="block 5 failed"):
        simulate(make_config(n_events=200 * BLOCK_SIZE))
    assert 5 in calls and len(calls) <= 5 + 2 * workers
    assert threading.active_count() == baseline


def test_an_interrupt_in_the_caller_stops_the_helpers(monkeypatch):
    def in_caller(b):
        return threading.current_thread() is threading.main_thread()

    # the caller's first block from 4 on raises
    calls = patch_failing_block(monkeypatch, 2, 4, in_caller, KeyboardInterrupt())
    baseline = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        simulate(make_config(n_events=200 * BLOCK_SIZE))
    assert len(calls) <= 4 + 2 * 2
    assert threading.active_count() == baseline


def test_a_helper_that_cannot_start_stops_the_others(monkeypatch):
    block = montecarlo._block
    calls, started = [], []
    start = threading.Thread.start

    def second_start_fails(thread):
        if started:
            raise RuntimeError("can't start new thread")
        started.append(thread)
        start(thread)

    def slow_block(config, p, a, root, b):
        calls.append(b)
        time.sleep(0.005)
        return block(config, p, a, root, b)

    monkeypatch.setattr(montecarlo, "_block", slow_block)
    use_threads(monkeypatch, 3)
    baseline = threading.active_count()
    monkeypatch.setattr(threading.Thread, "start", second_start_fails)
    with pytest.raises(RuntimeError, match="can't start new thread"):
        simulate(make_config(n_events=200 * BLOCK_SIZE))
    monkeypatch.undo()
    assert len(started) == 1 and not started[0].is_alive()
    assert len(calls) < 200
    assert threading.active_count() == baseline


def test_an_interrupt_while_waiting_is_raised_once_the_helpers_end(monkeypatch):
    # the caller has run every other block and waits for the helper's when
    # SIGINT arrives; simulate raises only after the helper has finished
    block = montecarlo._block
    calls, finished = [], []

    def helper_interrupts_block(config, p, a, root, b):
        calls.append(b)
        if threading.current_thread() is not threading.main_thread():
            deadline = time.monotonic() + 10
            while len(calls) < 40 and time.monotonic() < deadline:
                time.sleep(0.005)
            time.sleep(0.1)
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            time.sleep(0.3)
            finished.append(b)
        return block(config, p, a, root, b)

    monkeypatch.setattr(montecarlo, "_block", helper_interrupts_block)
    use_threads(monkeypatch, 2)
    baseline = threading.active_count()
    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(KeyboardInterrupt):
            simulate(make_config(n_events=40 * BLOCK_SIZE))
    finally:
        signal.signal(signal.SIGINT, handler)
    assert len(finished) == 1
    assert threading.active_count() == baseline
