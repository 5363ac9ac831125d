"""Chunked evaluation of the array entry points: same bits, same errors, same threads rule.

The thread scheduler's failure handling is driven directly through ``_run_shares``.
"""

import math
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mesonbell import _chunks, fitting, lrm
from mesonbell.constants import BMESON, KAON
from mesonbell.fitting import evaluate_gap
from mesonbell.lrm import (
    EfficiencyWeights,
    InadmissibleRhoError,
    RhoProfile,
    TimeOrderingError,
    joint_probabilities,
    lrm_like_joint,
    p21_conditional,
    p43_conditional,
    rho_bounds,
)
from mesonbell.quantum import qm_like_joint, qm_unlike_joint

G = KAON.gamma_s
SERIAL = 1 << 40    # a chunk size no test grid reaches: one chunk on the calling thread


def use_chunks(mp, chunk, workers):
    """Evaluate in chunks of `chunk` points on `workers` threads whatever the chunk count."""
    mp.setattr(_chunks, "_CHUNK", chunk)
    mp.setattr(_chunks, "_WORKERS", workers)
    mp.setattr(_chunks, "_CHUNKS_PER_WORKER", 1)


def count_thread_starts(mp):
    started = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread)
        start(thread)

    mp.setattr(threading.Thread, "start", counting_start)
    return started


def tabulated(params):
    # admissible between its knots for the kaon from 0.5/gamma_s on
    knot_t = np.linspace(0.0, 5.0, 9) / params.gamma_s
    return RhoProfile.tabulated(list(zip(knot_t, 0.5 * np.asarray(rho_bounds(params, knot_t)[1]))))


def callable_weight(phase):
    return lambda t_a, t_b: 0.5 + 0.4 * np.sin(G * np.asarray(t_a) + phase) * np.cos(G * np.asarray(t_b))


def stacked_weights(*columns):
    """Constant weights from four numbers, else one row function that stacks the
    columns, each a number or a function of (t_a, t_b), on a last axis of four."""
    if not any(callable(column) for column in columns):
        return EfficiencyWeights(*columns)

    def rows(t_a, t_b):
        grid = np.broadcast_shapes(np.shape(t_a), np.shape(t_b))
        return np.stack([np.broadcast_to(column(t_a, t_b) if callable(column) else column, grid)
                         for column in columns], axis=-1)
    return EfficiencyWeights(rows)


def outcomes(params, rho, weights, t_a, t_b):
    """Every output of the array entry points, or the errors they raise."""
    out = [qm_like_joint(params, t_a, t_b), qm_unlike_joint(params, t_a, t_b)]
    try:
        table = evaluate_gap(params, rho, weights, t_a, t_b)
        out += [joint_probabilities(params, rho, t_a, t_b), lrm_like_joint(params, rho, weights, t_a, t_b),
                *fitting._tables(params, rho, t_a, t_b),
                table.t_a, table.t_b, table.qm, table.lrm, table.p, table.gap]
    except InadmissibleRhoError as exc:
        out.append(("inadmissible", exc.t))
    # the conditional flips on the same grid, each pair put in time order
    ordered_t_b = np.maximum(t_a, t_b)
    try:
        out += [p21_conditional(params, rho, t_a, ordered_t_b), p43_conditional(params, rho, t_a, ordered_t_b)]
    except InadmissibleRhoError as exc:
        out.append(("inadmissible", exc.t))
    return out


def same(x, y):
    """Equal shapes and equal bits (signed zeros included), or equal errors."""
    if isinstance(x, tuple) or isinstance(y, tuple):
        return x == y
    return np.shape(x) == np.shape(y) and np.asarray(x).tobytes() == np.asarray(y).tobytes()


@settings(max_examples=40, deadline=None)
@given(chunk=st.sampled_from([7, _chunks._CHUNK]),
       size=st.sampled_from(["0", "1", "C-1", "C", "C+1", "3C+17"]),
       layout=st.sampled_from(["flat", "2-D", "scalar t_a", "outer"]),
       species=st.sampled_from(["kaon", "bmeson"]),
       rho_kind=st.sampled_from(["zero", "saturate_upper_short", "tabulated"]),
       callables=st.lists(st.booleans(), min_size=4, max_size=4),
       workers=st.sampled_from([1, 2, 3, 8]),
       seed=st.integers(0, 2**32 - 1))
def test_outputs_do_not_depend_on_chunking_or_threads(chunk, size, layout, species, rho_kind,
                                                      callables, workers, seed):
    n = {"0": 0, "1": 1, "C-1": chunk - 1, "C": chunk, "C+1": chunk + 1, "3C+17": 3 * chunk + 17}[size]
    params = {"kaon": KAON, "bmeson": BMESON}[species]
    rho = tabulated(params) if rho_kind == "tabulated" else RhoProfile(rho_kind)
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 1.0, 4)
    weights = stacked_weights(*(callable_weight(i) if c else float(a[i]) for i, c in enumerate(callables)))
    # mixed time order, with some equal pairs
    t_a = rng.uniform(0.5, 5.0, 2 * n) / params.gamma_s
    t_b = np.where(rng.random(2 * n) < 0.1, t_a, rng.uniform(0.5, 5.0, 2 * n) / params.gamma_s)
    t_a, t_b = {"flat": (t_a[:n], t_b[:n]),
                "2-D": (t_a.reshape(2, n), t_b.reshape(2, n)),
                "scalar t_a": (float(t_a[0]) if n else 1.0 / params.gamma_s, t_b[:n]),
                "outer": (t_a[:n, None], t_b[:3][None, :] if n else t_b[:0])}[layout]
    with pytest.MonkeyPatch.context() as mp:
        use_chunks(mp, SERIAL, 1)
        expected = outcomes(params, rho, weights, t_a, t_b)
        use_chunks(mp, chunk, workers)
        got = outcomes(params, rho, weights, t_a, t_b)
    assert len(got) == len(expected)
    assert all(same(x, y) for x, y in zip(got, expected))


# Every array entry point as (params, rho, weights, t_a, t_b) -> its outputs, each
# with the width of its last axis; evaluate_gap gives its table columns.
ENTRY_POINTS = {
    "qm_like_joint": lambda params, rho, weights, t_a, t_b: [(qm_like_joint(params, t_a, t_b), ())],
    "qm_unlike_joint": lambda params, rho, weights, t_a, t_b: [(qm_unlike_joint(params, t_a, t_b), ())],
    "joint_probabilities": lambda params, rho, weights, t_a, t_b: [
        (joint_probabilities(params, rho, t_a, t_b), (4,))],
    "lrm_like_joint": lambda params, rho, weights, t_a, t_b: [
        (lrm_like_joint(params, rho, weights, t_a, t_b), ())],
    "evaluate_gap": lambda params, rho, weights, t_a, t_b: [
        (column, (4,) if name == "p" else ())
        for name, column in vars(evaluate_gap(params, rho, weights, t_a, t_b)).items()],
    "p21_conditional": lambda params, rho, weights, t_a, t_b: [(p21_conditional(params, rho, t_a, t_b), ())],
    "p43_conditional": lambda params, rho, weights, t_a, t_b: [(p43_conditional(params, rho, t_a, t_b), ())],
}
ORDERED = ("p21_conditional", "p43_conditional")    # these need t_a <= t_b
SPECIES = {"kaon": KAON, "bmeson": BMESON}
RHO_KINDS = {kind: RhoProfile(kind) for kind in ("zero", "saturate_upper_short", "saturate_lower_short")}


def at_one_pair(entry, params, rho, weights, t_a, t_b, n, k):
    """The entry point's outputs at one pair, placed at index k of its n-point grid.

    Each output is checked to have the grid's shape (evaluate_gap's at least
    1-D) and its values at the pair are returned as bytes; an error comes back
    as its type and text.
    """
    try:
        outputs = ENTRY_POINTS[entry](SPECIES[params], RHO_KINDS[rho], weights, t_a, t_b)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    values = []
    for out, width in outputs:
        grid = np.shape(t_a) or ((1,) if entry == "evaluate_gap" else ())
        assert np.shape(out) == grid + width
        assert isinstance(out, float) == (grid + width == ())
        values.append(np.asarray(out).reshape((n,) + width)[k].tobytes())
    return values


# -0.0 and 0.0 each come up often; times in units of 1/gamma_s
unit_times = st.one_of(st.sampled_from([-0.0, 0.0]), st.floats(0.0, 6.0))


@settings(max_examples=300, deadline=None)
@given(entry=st.sampled_from(sorted(ENTRY_POINTS)), params=st.sampled_from(sorted(SPECIES)),
       rho=st.sampled_from(sorted(RHO_KINDS)), callables=st.lists(st.booleans(), min_size=4, max_size=4),
       u_a=unit_times, u_b=unit_times,
       bad=st.sampled_from([None, None, np.nan, np.inf, -np.inf, -1e-9, -5e-324]), bad_in_t_b=st.booleans(),
       n=st.integers(2, 40), k=st.integers(0, 39), stride=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@example(entry="lrm_like_joint", params="kaon", rho="zero", callables=[True, False, False, False],
         u_a=-0.0, u_b=-0.0, bad=None, bad_in_t_b=False, n=5, k=2, stride=2, seed=0)
@example(entry="p21_conditional", params="bmeson", rho="zero", callables=[False] * 4,
         u_a=-0.0, u_b=1.0, bad=-5e-324, bad_in_t_b=True, n=5, k=4, stride=3, seed=0)
def test_one_pair_gives_the_same_bits_and_errors_in_every_form(entry, params, rho, callables, u_a, u_b,
                                                               bad, bad_in_t_b, n, k, stride, seed):
    g = SPECIES[params].gamma_s
    t_a, t_b = u_a / g, u_b / g
    if bad is not None:
        t_a, t_b = (t_a, bad) if bad_in_t_b else (bad, t_b)
    weights = stacked_weights(*(callable_weight(i) if c else 0.25 * (i + 1) for i, c in enumerate(callables)))
    # the other grid points are ordered pairs where the profile is admissible
    k = k % n
    rng = np.random.default_rng(seed)
    lo, hi = (0.5, 2.0) if (params, rho) == ("bmeson", "saturate_upper_short") else (3.0, 4.0)
    grid = np.sort(rng.uniform(lo, hi, (n * stride, 2)) / g, axis=1)
    grid[k * stride] = t_a, t_b
    forms = [(t_a, t_b, 1, 0), (np.array(t_a), np.array(t_b), 1, 0),
             (np.array([t_a]), np.array([t_b]), 1, 0), (grid[::stride, 0], grid[::stride, 1], n, k)]
    got = [at_one_pair(entry, params, rho, weights, *form) for form in forms]
    assert got[1:] == got[:1] * 3
    if bad is not None:
        assert got[0] == ("ValueError", "proper times must be finite and non-negative")
    elif rho == "zero" and not (entry in ORDERED and t_b < t_a):
        # -0.0 is a time like 0.0; rho = zero is admissible everywhere
        assert isinstance(got[0], list)


def test_inadmissible_rho_raises_at_the_first_offending_pair(monkeypatch):
    # saturate_lower_short is inadmissible for the kaon below ~1.5/gamma_s and
    # admissible at 3-4/gamma_s; chunks of 7 put bad pairs in chunks 3 and 7
    rho = RhoProfile.saturate_lower_short()
    t_a, t_b = np.full(70, 3.0 / G), np.full(70, 4.0 / G)
    t_b[23] = 0.5 / G           # a swapped pair: its earlier time is t_b
    t_a[25] = 0.4 / G
    t_a[50] = 0.3 / G
    increments = lrm._increments
    late_failed = threading.Event()
    raised = []

    def increments_chunk_3_last(params, rho, t_lo, t_hi):
        # chunk 3 waits until chunk 7 has failed, so its error arrives last
        if np.any(t_lo == 0.5 / G):
            late_failed.wait(timeout=10)
        try:
            return increments(params, rho, t_lo, t_hi)
        except InadmissibleRhoError as exc:
            raised.append(exc.t)
            late_failed.set()
            raise

    for call in (lambda: joint_probabilities(KAON, rho, t_a, t_b),
                 lambda: lrm_like_joint(KAON, rho, EfficiencyWeights.uniform(0.5), t_a, t_b),
                 lambda: evaluate_gap(KAON, rho, EfficiencyWeights.uniform(0.5), t_a, t_b)):
        with pytest.MonkeyPatch.context() as mp:
            use_chunks(mp, SERIAL, 1)
            with pytest.raises(InadmissibleRhoError) as serial:
                call()
            assert serial.value.t == 0.5 / G
            use_chunks(mp, 7, 3)
            mp.setattr(lrm, "_increments", increments_chunk_3_last)
            late_failed.clear()
            raised.clear()
            baseline = threading.active_count()
            with pytest.raises(InadmissibleRhoError) as chunked:
                call()
            assert raised == [0.3 / G, 0.5 / G]
            assert chunked.value.t == serial.value.t
            assert str(chunked.value) == str(serial.value)
            assert threading.active_count() == baseline


def test_flip_fractions_run_once_per_chunk(monkeypatch):
    # both times of a chunk go through RhoProfile._fractions in one pass
    use_chunks(monkeypatch, 7, 1)
    fractions, shapes = RhoProfile._fractions, []

    def recording(rho, params, t):
        shapes.append(t.shape)
        return fractions(rho, params, t)

    monkeypatch.setattr(RhoProfile, "_fractions", recording)
    t_a = np.linspace(0.5, 2.5, 30) / G
    weights = EfficiencyWeights.uniform(0.5)
    for rho in (RhoProfile.zero(), RhoProfile.saturate_upper_short(), tabulated(KAON)):
        for call in (lambda: joint_probabilities(KAON, rho, t_a, 2 * t_a),
                     lambda: lrm_like_joint(KAON, rho, weights, t_a, 2 * t_a),
                     lambda: evaluate_gap(KAON, rho, weights, t_a, 2 * t_a)):
            shapes.clear()
            call()
            assert shapes == [(2, 7)] * 4 + [(2, 2)]


def test_the_later_time_of_an_earlier_pair_is_raised_first(monkeypatch):
    # saturate_upper_short is inadmissible for the B meson where Q- > Q+,
    # i.e. delta_m t in (pi/2, 3 pi/2); pair 5 is bad only at its later time
    rho, period = RhoProfile.saturate_upper_short(), np.pi / BMESON.delta_m
    t_a, t_b = np.full(70, 0.2 * period), np.full(70, 0.3 * period)
    t_b[5] = period
    t_a[40], t_b[40] = 0.9 * period, 0.95 * period
    for chunk, workers in [(SERIAL, 1), (7, 3), (64, 2)]:
        use_chunks(monkeypatch, chunk, workers)
        with pytest.raises(InadmissibleRhoError) as err:
            joint_probabilities(BMESON, rho, t_a, t_b)
        assert err.value.t == period


@pytest.mark.parametrize("conditional", [p21_conditional, p43_conditional])
def test_a_conditional_raises_the_first_bad_pair_whether_disordered_or_inadmissible(monkeypatch, conditional):
    # saturate_lower_short is inadmissible for the kaon at 0.3/gamma_s and
    # admissible at 3-4/gamma_s; a disordered pair and an inadmissible pair
    # share one chunk (SERIAL), sit in chunks 3 and 7 (7) or in chunk 0 (64)
    rho = RhoProfile.saturate_lower_short()
    for inadmissible, disordered in [(23, 50), (50, 23), (23, 24), (24, 23)]:
        t_a, t_b = np.full(70, 3.0 / G), np.full(70, 4.0 / G)
        t_a[inadmissible], t_b[inadmissible] = 0.3 / G, 0.5 / G
        t_a[disordered], t_b[disordered] = 4.0 / G, 3.0 / G
        for chunk, workers in [(SERIAL, 1), (7, 3), (64, 2)]:
            use_chunks(monkeypatch, chunk, workers)
            if inadmissible < disordered:
                with pytest.raises(InadmissibleRhoError) as err:
                    conditional(KAON, rho, t_a, t_b)
                assert err.value.t == 0.3 / G
            else:
                with pytest.raises(TimeOrderingError, match="^conditional flips require t_a <= t_b$"):
                    conditional(KAON, rho, t_a, t_b)
    # at one pair both wrong, the order error is raised
    with pytest.raises(TimeOrderingError):
        conditional(KAON, rho, 0.5 / G, 0.3 / G)


def test_each_public_call_checks_its_times_once(monkeypatch):
    check, calls = _chunks._check_times, []

    def counting(*args, **kwargs):
        calls.append(args)
        check(*args, **kwargs)

    monkeypatch.setattr(_chunks, "_check_times", counting)
    monkeypatch.setattr(lrm, "_check_times", counting)
    t = np.linspace(0.5, 5.0, 30) / G
    for call in [lambda: rho_bounds(KAON, t), lambda: rho_bounds(BMESON, 1e-12),
                 lambda: p21_conditional(KAON, RhoProfile.zero(), t, 2 * t),
                 lambda: p43_conditional(KAON, RhoProfile.saturate_upper_short(), t, 2 * t)]:
        calls.clear()
        call()
        assert len(calls) == 1
    for rho in (RhoProfile.zero(), RhoProfile.saturate_upper_short(), RhoProfile.saturate_lower_short(),
                tabulated(KAON)):
        calls.clear()
        rho.value(KAON, t[10:])
        assert len(calls) == 1


@pytest.mark.parametrize("bad", [np.nan, -1e-12, np.inf])
def test_bad_times_raise_before_any_thread_starts(monkeypatch, bad):
    use_chunks(monkeypatch, 7, 8)
    started = count_thread_starts(monkeypatch)
    t_a = np.linspace(0.5, 5.0, 100) / G
    t_b = 2 * t_a
    t_b[90] = bad
    weights = EfficiencyWeights.uniform(0.5)
    for call in (lambda: qm_like_joint(KAON, t_a, t_b), lambda: qm_unlike_joint(KAON, t_a, t_b),
                 lambda: joint_probabilities(KAON, RhoProfile.zero(), t_a, t_b),
                 lambda: lrm_like_joint(KAON, RhoProfile.zero(), weights, t_a, t_b),
                 lambda: evaluate_gap(KAON, RhoProfile.zero(), weights, t_a, t_b)):
        with pytest.raises(ValueError, match="finite and non-negative"):
            call()
    assert started == []


def test_helper_threads_see_the_callers_errstate(monkeypatch):
    # late kaon times (gamma_s t ~ 800) underflow e^{-gamma_s t}; under
    # errstate(under="raise") every share must raise, helpers included
    monkeypatch.setattr(_chunks, "_WORKERS", 2)
    joints = lrm._joint_columns
    first_chunk_done = threading.Event()
    raised_in = []

    def recording(params, rho, t_a, t_b):
        if threading.current_thread() is threading.main_thread():
            # the caller waits until a helper has run a chunk
            first_chunk_done.wait(timeout=10)
        try:
            return joints(params, rho, t_a, t_b)
        except FloatingPointError:
            raised_in.append(threading.current_thread())
            raise
        finally:
            first_chunk_done.set()

    monkeypatch.setattr(lrm, "_joint_columns", recording)
    t_a = np.linspace(800.0, 801.0, 1_000_000) / G
    with np.errstate(under="ignore"):
        lrm_like_joint(KAON, RhoProfile.zero(), EfficiencyWeights.uniform(1.0), t_a, t_a)
    raised_in.clear()
    first_chunk_done.clear()
    with np.errstate(under="raise"), pytest.raises(FloatingPointError):
        lrm_like_joint(KAON, RhoProfile.zero(), EfficiencyWeights.uniform(1.0), t_a, t_a)
    assert raised_in and raised_in[0] is not threading.main_thread()


def test_small_grids_stay_on_the_calling_thread(monkeypatch):
    # one more thread per _CHUNKS_PER_WORKER chunks, up to _WORKERS
    monkeypatch.setattr(_chunks, "_WORKERS", 8)
    started = count_thread_starts(monkeypatch)
    weights = EfficiencyWeights.constant(1.0, 0.13, 0.03, 0.04)
    # the fit grids, the scan probes and the dense CLI curve at the real chunk size
    for n in (200, 50_000, 100_000):
        t_a = np.linspace(0.2, 5.0, n) / G
        evaluate_gap(KAON, RhoProfile.zero(), weights, t_a, 2 * t_a)
        lrm_like_joint(KAON, RhoProfile.zero(), weights, t_a, 2 * t_a)
        fitting._tables(KAON, RhoProfile.zero(), t_a, 2 * t_a)
    assert started == []
    monkeypatch.setattr(_chunks, "_CHUNK", 7)
    for n_chunks, helpers in [(1, 0), (31, 0), (32, 1), (47, 1), (48, 2), (200, 7)]:
        started.clear()
        t_a = np.linspace(0.2, 5.0, 7 * n_chunks) / G
        joint_probabilities(KAON, RhoProfile.zero(), t_a, 2 * t_a)
        assert len(started) == helpers, n_chunks


def test_the_lowest_failing_item_is_raised_after_every_share_ends():
    # items 2 and 5 fail; 5 fails first, yet 2 was claimed first and is raised
    two_started, five_failed = threading.Event(), threading.Event()
    ran = []

    def work(item):
        ran.append(item)
        if item == 2:
            two_started.set()
            five_failed.wait(timeout=10)
            raise RuntimeError("item 2")
        if item == 5:
            two_started.wait(timeout=10)
            five_failed.set()
            raise RuntimeError("item 5")

    baseline = threading.active_count()
    with pytest.raises(RuntimeError, match="item 2"):
        _chunks._run_shares(100, 3, work)
    assert 2 in ran and 5 in ran and len(ran) < 100
    assert threading.active_count() == baseline


def failing_work(first, fails, exc):
    """A work(item) that raises exc at an item >= first for which fails(item) holds; and its log.

    Every other item from `first` on waits until the failure, then 20 ms more,
    so a share that runs ahead cannot run up the count before the failure.
    """
    failed = threading.Event()
    calls = []

    def work(item):
        calls.append(item)
        if item >= first:
            if fails(item):
                failed.set()
                raise exc
            failed.wait(timeout=10)
            time.sleep(0.02)

    return work, calls


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_a_failing_item_stops_every_share_and_is_raised(workers):
    work, calls = failing_work(5, lambda item: item == 5, RuntimeError("item 5 failed"))
    baseline = threading.active_count()
    with pytest.raises(RuntimeError, match="item 5 failed"):
        _chunks._run_shares(200, workers, work)
    assert 5 in calls and len(calls) <= 5 + 2 * workers
    assert threading.active_count() == baseline


def test_an_interrupt_in_the_caller_stops_the_helpers():
    def in_caller(item):
        return threading.current_thread() is threading.main_thread()

    # the caller's first item from 4 on raises
    work, calls = failing_work(4, in_caller, KeyboardInterrupt())
    baseline = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        _chunks._run_shares(200, 2, work)
    assert len(calls) <= 4 + 2 * 2
    assert threading.active_count() == baseline


def test_a_helper_that_cannot_start_stops_the_others(monkeypatch):
    calls, started = [], []
    start = threading.Thread.start

    def second_start_fails(thread):
        if started:
            raise RuntimeError("can't start new thread")
        started.append(thread)
        start(thread)

    def slow_work(item):
        calls.append(item)
        time.sleep(0.005)

    baseline = threading.active_count()
    monkeypatch.setattr(threading.Thread, "start", second_start_fails)
    with pytest.raises(RuntimeError, match="can't start new thread"):
        _chunks._run_shares(200, 3, slow_work)
    monkeypatch.undo()
    assert len(started) == 1 and not started[0].is_alive()
    assert len(calls) < 200
    assert threading.active_count() == baseline


def test_an_interrupt_while_waiting_is_raised_once_the_helpers_end():
    # the caller has run every other item and waits for the helper's when
    # SIGINT arrives; _run_shares raises only after the helper has finished
    calls, finished = [], []

    def helper_interrupts(item):
        calls.append(item)
        if threading.current_thread() is not threading.main_thread():
            deadline = time.monotonic() + 10
            while len(calls) < 40 and time.monotonic() < deadline:
                time.sleep(0.005)
            time.sleep(0.1)
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            time.sleep(0.3)
            finished.append(item)

    baseline = threading.active_count()
    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(KeyboardInterrupt):
            _chunks._run_shares(40, 2, helper_interrupts)
    finally:
        signal.signal(signal.SIGINT, handler)
    assert len(finished) == 1
    assert threading.active_count() == baseline


def test_outputs_survive_forced_thread_switching(monkeypatch):
    # more threads than cores, switching as often as the interpreter allows
    weights = stacked_weights(callable_weight(0.3), 0.13, 0.03, callable_weight(1.1))
    t_a = np.linspace(0.5, 5.0, 20 * 64 + 7) / G
    t_b = t_a[::-1].copy()
    use_chunks(monkeypatch, SERIAL, 1)
    expected = outcomes(KAON, RhoProfile.zero(), weights, t_a, t_b)
    use_chunks(monkeypatch, 64, 8)
    started = count_thread_starts(monkeypatch)
    baseline = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = outcomes(KAON, RhoProfile.zero(), weights, t_a, t_b)
    finally:
        sys.setswitchinterval(interval)
    assert started and threading.active_count() == baseline
    assert len(got) == len(expected)
    assert all(same(x, y) for x, y in zip(got, expected))


# 0.0 and log-uniform times up to 1.7e308 s, past every species' _max_time
late_times = st.one_of(st.just(0.0), st.floats(-30.0, math.log10(1.7e308)).map(lambda e: 10.0 ** e))


@settings(max_examples=300, deadline=None)
@given(entry=st.sampled_from(sorted(ENTRY_POINTS)), params=st.sampled_from(sorted(SPECIES)),
       t_a=late_times, t_b=late_times)
@example(entry="qm_like_joint", params="kaon", t_a=0.0, t_b=1e299)
@example(entry="joint_probabilities", params="bmeson", t_a=0.0, t_b=1e299)
@example(entry="joint_probabilities", params="kaon", t_a=1e-7, t_b=2e-7)     # gamma_s t > 709
@example(entry="evaluate_gap", params="kaon", t_a=0.0, t_b=KAON._max_time)
@example(entry="lrm_like_joint", params="bmeson", t_a=BMESON._max_time, t_b=BMESON._max_time)
def test_late_times_give_finite_values_or_name_the_time_domain(entry, params, t_a, t_b):
    # delta_m t overflowed to inf there, and cos(inf) is nan; a tabulated
    # rho of 0 times an overflowed e^{gamma t} was nan too
    params = SPECIES[params]
    if entry in ORDERED:
        t_a, t_b = min(t_a, t_b), max(t_a, t_b)
    weights = EfficiencyWeights.uniform(0.5)
    got = []
    for rho in (RhoProfile.zero(), RhoProfile.tabulated([(0.0, 0.0), (1.0, 0.0)])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got.append([np.asarray(out) for out, _ in ENTRY_POINTS[entry](params, rho, weights, t_a, t_b)])
            except ValueError as exc:
                # never InadmissibleRhoError: a rho of 0 is admissible everywhere
                assert type(exc) is ValueError
                assert str(exc).startswith(f"proper times must lie in [0, {params._max_time:.6g}] s")
                got.append(None)
    assert (got[0] is None) == (got[1] is None) == (max(t_a, t_b) > params._max_time)
    if got[0] is not None:
        assert all(np.all(np.isfinite(out)) and same(out, other) for out, other in zip(*got))
