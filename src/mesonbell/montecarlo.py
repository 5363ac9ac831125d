"""Event-level realization of the biased-post-selection mechanism.

Each event draws one of the four initial hidden configurations with
probability 1/4, realizes the like-flavor outcome at the configured time
pair with probability P_i, and passes the detector with probability a_i.
The accepted-like-flavor fraction therefore estimates the weighted model
prediction (1/4) sum_i a_i P_i, while the per-configuration acceptance
rates expose the sampling bias directly: with unequal weights the detected
subsample no longer represents the produced ensemble.

Randomness comes from the counter-based Philox generator, split into
fixed-size blocks with independently seeded streams, so results are
bit-reproducible for a given seed regardless of how blocks are scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import OscillationParams
from .lrm import EfficiencyWeights, RhoProfile, joint_probabilities
from .quantum import TimePair

__all__ = [
    "SimConfig",
    "EventRecord",
    "SimResult",
    "AcceptanceBiasReport",
    "simulate",
    "acceptance_bias_report",
    "first_events",
]

BLOCK_SIZE = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    params: OscillationParams
    rho: RhoProfile
    weights: EfficiencyWeights
    t: TimePair
    n_events: int
    seed: int

    def __post_init__(self) -> None:
        if int(self.n_events) < 1:
            raise ValueError("n_events must be >= 1")


@dataclass(frozen=True)
class EventRecord:
    initial_pair: int           # 1..4
    like_flavor_outcome: bool
    accepted: bool


@dataclass(frozen=True)
class SimResult:
    estimate: float
    stderr: float
    n_events: int
    pair_counts: np.ndarray             # (4,) events per initial configuration
    like_counts: np.ndarray             # (4,) like-flavor outcomes per configuration
    accepted_counts: np.ndarray         # (4,) accepted events per configuration
    accepted_like_counts: np.ndarray    # (4,) accepted like-flavor events


@dataclass(frozen=True)
class AcceptanceBiasReport:
    """Empirical acceptance rate per initial configuration.

    Rates converge to the configured weights; unequal rates are the
    detection loophole in event form.
    """

    rates: np.ndarray                   # (4,), nan where a configuration never occurred
    pair_counts: np.ndarray
    accepted_counts: np.ndarray


def _event_probabilities(config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    t_a, t_b = config.t.t_a, config.t.t_b
    p = np.asarray(joint_probabilities(config.params, config.rho, t_a, t_b), dtype=float)
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError(
            f"joint probabilities outside [0, 1] at (t_a={t_a!r}, t_b={t_b!r}): {p}; "
            "the configured time pair lies outside the model's validity domain"
        )
    a = np.asarray(config.weights.values(t_a, t_b), dtype=float)
    return p, a


def _blocks(config: SimConfig):
    """Yield (pairs, u_like, u_accept) arrays per fixed-size block."""
    n = int(config.n_events)
    n_blocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    root = np.random.SeedSequence(config.seed)
    for b in range(n_blocks):
        m = min(BLOCK_SIZE, n - b * BLOCK_SIZE)
        # the b-th child that root.spawn would hand out, derived when the block starts
        child = np.random.SeedSequence(root.entropy, spawn_key=root.spawn_key + (b,),
                                       pool_size=root.pool_size)
        gen = np.random.Generator(np.random.Philox(child))
        pairs = gen.integers(0, 4, size=m)
        u_like = gen.random(m)
        u_accept = gen.random(m)
        yield pairs, u_like, u_accept


def simulate(config: SimConfig) -> SimResult:
    """Monte-Carlo estimate of the accepted like-flavor rate.

    The estimator (accepted and like) / n_events is unbiased for the
    weighted model prediction; the standard error is binomial.
    """
    p, a = _event_probabilities(config)
    counts = np.zeros(16, dtype=np.int64)
    for pairs, u_like, u_accept in _blocks(config):
        counts += np.bincount(pairs * 4 + (u_like < p[pairs]) * 2 + (u_accept < a[pairs]), minlength=16)
    counts = counts.reshape(4, 2, 2)    # [configuration, like-flavor, accepted]
    pair_counts = counts.sum(axis=(1, 2))
    like_counts = counts[:, 1].sum(axis=1)
    accepted_counts = counts[:, :, 1].sum(axis=1)
    accepted_like = counts[:, 1, 1]
    n = int(config.n_events)
    estimate = float(accepted_like.sum()) / n
    stderr = float(np.sqrt(estimate * (1.0 - estimate) / n))
    return SimResult(
        estimate=estimate,
        stderr=stderr,
        n_events=n,
        pair_counts=pair_counts,
        like_counts=like_counts,
        accepted_counts=accepted_counts,
        accepted_like_counts=accepted_like,
    )


def acceptance_bias_report(config: SimConfig) -> AcceptanceBiasReport:
    """Per-configuration acceptance rates from the same event stream as simulate."""
    return _bias_report(simulate(config))


def _bias_report(result: SimResult) -> AcceptanceBiasReport:
    """Per-configuration acceptance rates of an already simulated stream."""
    with np.errstate(invalid="ignore"):
        rates = np.where(result.pair_counts > 0,
                         result.accepted_counts / np.maximum(result.pair_counts, 1),
                         np.nan)
    return AcceptanceBiasReport(
        rates=rates,
        pair_counts=result.pair_counts,
        accepted_counts=result.accepted_counts,
    )


def first_events(config: SimConfig, limit: int = 16) -> tuple[EventRecord, ...]:
    """The first events of the stream as records, for inspection and tests."""
    p, a = _event_probabilities(config)
    records: list[EventRecord] = []
    for pairs, u_like, u_accept in _blocks(config):
        for k in range(len(pairs)):
            i = int(pairs[k])
            records.append(EventRecord(
                initial_pair=i + 1,
                like_flavor_outcome=bool(u_like[k] < p[i]),
                accepted=bool(u_accept[k] < a[i]),
            ))
            if len(records) >= limit:
                return tuple(records)
    return tuple(records)
