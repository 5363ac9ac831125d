"""Event-level realization of the biased-post-selection mechanism.

Each event draws one of the four initial hidden configurations with
probability 1/4, realizes the like-flavor outcome at the configured time
pair with probability P_i, and passes the detector with probability a_i.
The accepted-like-flavor fraction therefore estimates the weighted model
prediction (1/4) sum_i a_i P_i, while the per-configuration acceptance
rates (``SimResult.acceptance_rates``) expose the sampling bias directly:
with unequal weights the detected subsample no longer represents the
produced ensemble.

A run is summarized by its 16 counts [configuration, like-flavor, accepted],
and their joint law is exact and hierarchical, so they are drawn directly
rather than event by event: the pairs per configuration are
Multinomial(n, 1/4 each), the like-flavor outcomes Binomial(pairs_i, P_i),
and the accepted like and unlike events Binomial(like_i, a_i) and
Binomial(pairs_i - like_i, a_i).  That is a fixed handful of draws from one
generator seeded by ``SeedSequence(seed)``, whatever the event count, so the
counts are bit-reproducible for a given seed.  ``first_events`` draws the same
counts from the same generator, then deals its records one at a time from
that urn, without replacement; the records are a uniformly shuffled stream
of those events, and a shorter listing is a prefix of a longer one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .constants import OscillationParams
from .lrm import EfficiencyWeights, RhoProfile, joint_probabilities
from .quantum import TimePair

__all__ = [
    "SimConfig",
    "EventRecord",
    "SimResult",
    "simulate",
    "first_events",
]


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class SimConfig:
    params: OscillationParams
    rho: RhoProfile
    weights: EfficiencyWeights
    t: TimePair
    n_events: int
    seed: int | None            # None draws fresh entropy once per call

    def __post_init__(self) -> None:
        if not _is_integer(self.n_events) or self.n_events < 1:
            raise ValueError("n_events must be an integer >= 1")
        if self.n_events > 2**63 - 1:      # numpy's samplers take 64-bit counts
            raise ValueError("n_events must be at most 2**63 - 1")
        if self.seed is not None and (not _is_integer(self.seed) or self.seed < 0):
            raise ValueError("seed must be a non-negative integer")


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

    @property
    def acceptance_rates(self) -> np.ndarray:
        """Empirical acceptance rate per initial configuration, (4,), nan where a
        configuration never occurred.

        Rates converge to the configured weights; unequal rates are the
        detection loophole in event form.
        """
        return np.where(self.pair_counts > 0,
                        self.accepted_counts / np.maximum(self.pair_counts, 1),
                        np.nan)


def _event_probabilities(config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """P1..P4 and a1..a4 at the configured time pair, each of shape (4,)."""
    t_a, t_b = config.t.t_a, config.t.t_b
    p = joint_probabilities(config.params, config.rho, t_a, t_b)
    # four Python floats compare faster than two array reductions, to the same decision
    if any(x < 0.0 or x > 1.0 for x in p.tolist()):
        raise ValueError(
            f"joint probabilities outside [0, 1] at (t_a={t_a!r}, t_b={t_b!r}): {p}; "
            "the configured time pair lies outside the model's validity domain"
        )
    return p, config.weights._rows(t_a, t_b)


def _draws(config: SimConfig, gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs (4,) per configuration, and the events (4, 2) and the accepted
    events (4, 2) per [configuration, like-flavor], of one run."""
    p, a = _event_probabilities(config)
    pairs = gen.multinomial(int(config.n_events), [0.25] * 4)
    like = gen.binomial(pairs, p)
    outcome = np.array([pairs - like, like]).T
    return pairs, outcome, gen.binomial(outcome, a[:, None])


def simulate(config: SimConfig) -> SimResult:
    """Monte-Carlo estimate of the accepted like-flavor rate.

    The estimator (accepted and like) / n_events is unbiased for the
    weighted model prediction; the standard error is binomial.
    """
    # PCG64 seeded by SeedSequence(config.seed); None draws fresh entropy
    pairs, outcome, accepted = _draws(config, np.random.default_rng(config.seed))
    accepted_like = accepted[:, 1]
    n = int(config.n_events)
    estimate = float(sum(accepted_like.tolist())) / n
    return SimResult(
        estimate=estimate,
        stderr=math.sqrt(estimate * (1.0 - estimate) / n),
        n_events=n,
        pair_counts=pairs,
        like_counts=outcome[:, 1],
        accepted_counts=accepted[:, 0] + accepted_like,
        accepted_like_counts=accepted_like,
    )


def first_events(config: SimConfig, limit: int = 16) -> tuple[EventRecord, ...]:
    """The first events of the stream as records, for inspection and tests.

    The records are dealt from the counts ``simulate`` draws for the same seed.
    """
    if not _is_integer(limit) or limit < 0:
        raise ValueError("limit must be a non-negative integer")
    gen = np.random.default_rng(config.seed)
    _, outcome, accepted = _draws(config, gen)
    urn = np.stack([outcome - accepted, accepted], axis=2).ravel()     # cell 4 i + 2 like + accepted
    records = []
    for _ in range(min(limit, config.n_events)):
        # the event drawn is the one at a uniform position among those left
        cell = int(np.searchsorted(np.cumsum(urn), gen.integers(urn.sum()), side="right"))
        urn[cell] -= 1
        records.append(EventRecord(cell // 4 + 1, bool(cell & 2), bool(cell & 1)))
    return tuple(records)
