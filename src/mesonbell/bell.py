"""Clauser-Horne sum, the local bound, and detection-efficiency thresholds.

For two measurement settings per side the Clauser-Horne combination of joint
and single detection probabilities

    CHS = p(1,2) - p(1,2') + p(1',2) + p(1',2') - p(1') - p(2)

is bounded above by zero for every local realistic model, while quantum
mechanics can push it positive for suitable settings.  The local bound is
found by brute force over the deterministic strategies (each side fires or
not per setting, 16 in total).  Their convex mixtures make up the local
polytope, and CHS is linear, so no mixture exceeds the vertex maximum.

A loophole-free violation needs a minimum total detection efficiency:
0.81 for maximally entangled pairs, 0.67 for non-maximally entangled ones.
Both limits assume background-free detection.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import astuple, dataclass

__all__ = [
    "CorrelationSet",
    "LocalStrategy",
    "BruteForceReport",
    "ThresholdVerdict",
    "EFFICIENCY_THRESHOLD_MAXIMAL",
    "EFFICIENCY_THRESHOLD_NONMAXIMAL",
    "NO_BACKGROUND_CAVEAT",
    "EXPECTED_B_TAGGING_EFFICIENCY",
    "chs_sum",
    "all_deterministic_strategies",
    "lhv_bound_brute_force",
    "singlet_photon_correlations",
    "threshold_check",
]

EFFICIENCY_THRESHOLD_MAXIMAL = 0.81
EFFICIENCY_THRESHOLD_NONMAXIMAL = 0.67
NO_BACKGROUND_CAVEAT = "thresholds assume background-free detection"

# Typical semileptonic-tag efficiency quoted for B factories.
EXPECTED_B_TAGGING_EFFICIENCY = 0.45


@dataclass(frozen=True)
class CorrelationSet:
    """Joint and single detection probabilities for two settings per side.

    p11..p22 are the joints at (1,2), (1,2'), (1',2), (1',2'); s1 is the
    single probability at setting 1', s2 the single probability at setting 2.
    """

    p11: float
    p12: float
    p21: float
    p22: float
    s1: float
    s2: float

    def __post_init__(self) -> None:
        for name in ("p11", "p12", "p21", "p22", "s1", "s2"):
            v = getattr(self, name)
            if not (math.isfinite(v) and 0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be a probability in [0, 1], got {v!r}")

    def mix(self, other: "CorrelationSet", lam: float) -> "CorrelationSet":
        """Convex combination lam * self + (1 - lam) * other."""
        if not 0.0 <= lam <= 1.0:
            raise ValueError("mixing parameter must lie in [0, 1]")
        return CorrelationSet(*(lam * a + (1.0 - lam) * b
                                for a, b in zip(astuple(self), astuple(other))))


def chs_sum(c: CorrelationSet) -> float:
    """p11 - p12 + p21 + p22 - s1 - s2."""
    return c.p11 - c.p12 + c.p21 + c.p22 - c.s1 - c.s2


@dataclass(frozen=True)
class LocalStrategy:
    """Deterministic local plan: fire or not, per setting, per side."""

    fire_1: bool
    fire_1p: bool
    fire_2: bool
    fire_2p: bool

    def correlation_set(self) -> CorrelationSet:
        f1, f1p = float(self.fire_1), float(self.fire_1p)
        g2, g2p = float(self.fire_2), float(self.fire_2p)
        return CorrelationSet(
            p11=f1 * g2, p12=f1 * g2p, p21=f1p * g2, p22=f1p * g2p,
            s1=f1p, s2=g2,
        )


def all_deterministic_strategies() -> tuple[LocalStrategy, ...]:
    return tuple(LocalStrategy(*bits) for bits in itertools.product((False, True), repeat=4))


@dataclass(frozen=True)
class BruteForceReport:
    max_deterministic: float
    best_strategy: LocalStrategy
    n_mixtures: int
    max_mixture: float

    @property
    def overall_max(self) -> float:
        return max(self.max_deterministic, self.max_mixture)


def lhv_bound_brute_force(n_mixtures: int = 10_000, seed: int = 20_240_811) -> BruteForceReport:
    """Maximum CHS over the 16 deterministic local strategies and over their mixtures.

    The deterministic maximum is exactly 0.  CHS is linear, so no convex
    mixture of the strategies exceeds it: ``max_mixture``, the supremum over
    all mixtures, is that same maximum, found without sampling.
    ``n_mixtures`` is carried into the report as passed; ``seed`` is ignored.
    """
    best = max(all_deterministic_strategies(), key=lambda s: chs_sum(s.correlation_set()))
    bound = chs_sum(best.correlation_set())
    return BruteForceReport(max_deterministic=bound, best_strategy=best,
                            n_mixtures=int(n_mixtures), max_mixture=bound)


def singlet_photon_correlations(theta_1: float, theta_1p: float,
                                theta_2: float, theta_2p: float) -> CorrelationSet:
    """Ideal polarization-singlet probabilities, p(i,j) = cos^2(ti - tj) / 2.

    Angles in radians; singles are 1/2.  At (0, pi/4; pi/8, 3 pi/8) the CHS
    sum reaches (sqrt(2) - 1) / 2 > 0.
    """
    def joint(ti, tj):
        return 0.5 * math.cos(ti - tj) ** 2

    return CorrelationSet(
        p11=joint(theta_1, theta_2),
        p12=joint(theta_1, theta_2p),
        p21=joint(theta_1p, theta_2),
        p22=joint(theta_1p, theta_2p),
        s1=0.5,
        s2=0.5,
    )


@dataclass(frozen=True)
class ThresholdVerdict:
    verdict: str                # "loophole_free_possible" | "detection_loophole"
    efficiency: float
    threshold: float
    state: str                  # "maximal" | "nonmaximal"
    caveat: str = NO_BACKGROUND_CAVEAT

    @property
    def loophole_free_possible(self) -> bool:
        return self.verdict == "loophole_free_possible"


def threshold_check(total_efficiency: float, state: str = "maximal") -> ThresholdVerdict:
    """Compare a total detection efficiency against the loophole-free minimum.

    ``state`` selects the entanglement class: "maximal" (threshold 0.81) or
    "nonmaximal" (threshold 0.67, at the price of a smaller QM-LRM gap).
    Efficiencies at or below the threshold leave the detection loophole open.
    """
    if not (math.isfinite(total_efficiency) and 0.0 <= total_efficiency <= 1.0):
        raise ValueError(f"efficiency must lie in [0, 1], got {total_efficiency!r}")
    thresholds = {
        "maximal": EFFICIENCY_THRESHOLD_MAXIMAL,
        "nonmaximal": EFFICIENCY_THRESHOLD_NONMAXIMAL,
    }
    try:
        threshold = thresholds[state]
    except KeyError:
        raise ValueError(f"state must be 'maximal' or 'nonmaximal', got {state!r}") from None
    verdict = "loophole_free_possible" if total_efficiency > threshold else "detection_loophole"
    return ThresholdVerdict(verdict=verdict, efficiency=float(total_efficiency),
                            threshold=threshold, state=state)
