"""Oscillation parameters and tagging branching ratios for K0 and B0 pairs.

Natural units (hbar = c = 1): proper times in seconds, decay rates and mass
splittings in 1/s, probabilities dimensionless.  The registry holds
central values only; every result is computed from them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Mapping

__all__ = [
    "OscillationParams",
    "BranchingRecord",
    "KAON",
    "BMESON",
    "SPECIES",
    "BRANCHING",
    "species_params",
    "branching_records",
    "semileptonic_total",
]


def _max_time(rate: float) -> float:
    """The largest time t with rate * (t + t) finite.

    Every product of a time with gamma_s, gamma_l or delta_m, or of a sum of
    two times with their mean, lies below rate * (t + t) for rate the
    largest of the three, so up to this t no rate product overflows, and
    the phases delta_m t keep a value.
    """
    half = 0.5 * sys.float_info.max
    t = min(half / rate, half)      # rounded: step to the last t that passes
    while not math.isfinite(rate * (t + t)):
        t = math.nextafter(t, 0.0)
    while (up := math.nextafter(t, math.inf)) <= half and math.isfinite(rate * (up + up)):
        t = up
    return t


@dataclass(frozen=True)
class OscillationParams:
    """Decay rates and mass splitting of one neutral-meson species."""

    species: str        # "kaon" or "bmeson"
    gamma_s: float      # decay rate of the short-lived CP eigenstate, 1/s
    gamma_l: float      # decay rate of the long-lived CP eigenstate, 1/s
    delta_m: float      # mass splitting m_L - m_S, 1/s

    def __post_init__(self) -> None:
        for name in ("gamma_s", "gamma_l", "delta_m"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, float(value))    # a numpy scalar warns in _max_time
        if self.gamma_s <= 0.0 or self.gamma_l <= 0.0:
            raise ValueError("decay rates must be strictly positive")
        if self.gamma_s < self.gamma_l:
            raise ValueError("gamma_s must be >= gamma_l")
        if self.delta_m < 0.0:
            raise ValueError("delta_m must be non-negative")
        object.__setattr__(self, "_max_time", _max_time(max(self.gamma_s, self.delta_m)))

    @property
    def equal_widths(self) -> bool:
        return self.gamma_s == self.gamma_l


@dataclass(frozen=True)
class BranchingRecord:
    """One decay channel of a tagged parent meson.

    ``tagging`` marks channels that count toward the flavor-tagging total.
    Exclusive channels already contained in an inclusive entry are kept for
    reference but excluded from the sum.
    """

    parent: str
    channel: str
    ratio: float
    tagging: bool = field(default=True, kw_only=True)

    def __post_init__(self) -> None:
        if not 0.0 <= self.ratio <= 1.0:
            raise ValueError(f"{self.parent} {self.channel}: ratio {self.ratio!r} is not in [0, 1]")


KAON = OscillationParams(
    species="kaon",
    gamma_s=1.1192e10,
    gamma_l=1.934e7,
    delta_m=0.5300e10,
)

BMESON = OscillationParams(
    species="bmeson",
    gamma_s=0.646e12,
    gamma_l=0.646e12,
    delta_m=0.472e12,
)

SPECIES: Mapping[str, OscillationParams] = {"kaon": KAON, "bmeson": BMESON}

# Delta-S = Delta-Q semileptonic tagging channels.  The exclusive B0 entries
# are subsets of the inclusive l nu X one, hence tagging=False.
BRANCHING: tuple[BranchingRecord, ...] = (
    BranchingRecord("K_S", "pi+ e- nu_e", 3.6e-4),
    BranchingRecord("K_L", "pi+ e- nu_e", 0.1939),
    BranchingRecord("K_L", "pi+ mu- nu_mu", 0.1359),
    BranchingRecord("B0", "l+ nu_l X", 0.105),
    BranchingRecord("B0", "l+ nu_l rho-", 2.6e-4, tagging=False),
    BranchingRecord("B0", "l+ nu_l pi-", 1.8e-4, tagging=False),
)

def species_params(species: str) -> OscillationParams:
    """Registry oscillation parameters for ``species`` ("kaon" or "bmeson").

    For other values, ``dataclasses.replace(species_params("kaon"), gamma_l=2.0e7)``
    gives a copy that ``OscillationParams`` checks like any other.
    """
    try:
        return SPECIES[species]
    except KeyError:
        known = ", ".join(sorted(SPECIES))
        raise ValueError(f"unknown species {species!r}; expected one of: {known}") from None


def branching_records(parent: str) -> tuple[BranchingRecord, ...]:
    """The registered branching records of ``parent``; ``BRANCHING`` holds them all."""
    return tuple(r for r in BRANCHING if r.parent == parent)


def semileptonic_total(parent: str) -> float:
    """Total branching ratio of the flavor-tagging channels of ``parent``.

    Raises ValueError if no tagging channel is registered for the parent.
    """
    ratios = [r.ratio for r in branching_records(parent) if r.tagging]
    if not ratios:
        known = ", ".join(sorted({r.parent for r in BRANCHING}))
        raise ValueError(f"no tagging channels registered for {parent!r}; known parents: {known}")
    return sum(ratios)
