"""Oscillation parameters and tagging branching ratios for K0 and B0 pairs.

Natural units (hbar = c = 1): proper times in seconds, decay rates and mass
splittings in 1/s, probabilities dimensionless.  Central values carry their
one-sigma uncertainties for reporting; all downstream computation uses the
central values only.

The registry can be overridden from a JSON file whose keys mirror the field
names, e.g.::

    {"kaon": {"gamma_s": 1.12e10}, "bmeson": {"delta_m": 0.47e12}}

Keys that are absent fall back to the registry defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
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


@dataclass(frozen=True)
class OscillationParams:
    """Decay rates and mass splitting of one neutral-meson species."""

    species: str        # "kaon" or "bmeson"
    gamma_s: float      # decay rate of the short-lived CP eigenstate, 1/s
    gamma_l: float      # decay rate of the long-lived CP eigenstate, 1/s
    delta_m: float      # mass splitting m_L - m_S, 1/s
    gamma_s_err: float = 0.0
    gamma_l_err: float = 0.0
    delta_m_err: float = 0.0

    def __post_init__(self) -> None:
        for name in ("gamma_s", "gamma_l", "delta_m"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.gamma_s <= 0.0 or self.gamma_l <= 0.0:
            raise ValueError("decay rates must be strictly positive")
        if self.gamma_s < self.gamma_l:
            raise ValueError("gamma_s must be >= gamma_l")
        if self.delta_m < 0.0:
            raise ValueError("delta_m must be non-negative")

    @property
    def equal_widths(self) -> bool:
        return self.gamma_s == self.gamma_l

    @property
    def mixing_x(self) -> float:
        """delta_m over the mean width, the usual mixing parameter."""
        return 2.0 * self.delta_m / (self.gamma_s + self.gamma_l)


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
    uncertainty: float
    tagging: bool = True

    def __post_init__(self) -> None:
        if self.ratio - self.uncertainty < 0.0:
            raise ValueError(f"{self.parent} {self.channel}: ratio - uncertainty < 0")
        if self.ratio + self.uncertainty > 1.0:
            raise ValueError(f"{self.parent} {self.channel}: ratio + uncertainty > 1")


KAON = OscillationParams(
    species="kaon",
    gamma_s=1.1192e10, gamma_s_err=0.0010e10,
    gamma_l=1.934e7, gamma_l_err=0.015e7,
    delta_m=0.5300e10, delta_m_err=0.0012e10,
)

BMESON = OscillationParams(
    species="bmeson",
    gamma_s=0.646e12, gamma_s_err=0.013e12,
    gamma_l=0.646e12, gamma_l_err=0.013e12,
    delta_m=0.472e12, delta_m_err=0.017e12,
)

SPECIES: Mapping[str, OscillationParams] = {"kaon": KAON, "bmeson": BMESON}

# Delta-S = Delta-Q semileptonic tagging channels.  The exclusive B0 entries
# are subsets of the inclusive l nu X one, hence tagging=False.
BRANCHING: tuple[BranchingRecord, ...] = (
    BranchingRecord("K_S", "pi+ e- nu_e", 3.6e-4, 0.7e-4),
    BranchingRecord("K_L", "pi+ e- nu_e", 0.1939, 0.0014),
    BranchingRecord("K_L", "pi+ mu- nu_mu", 0.1359, 0.0013),
    BranchingRecord("B0", "l+ nu_l X", 0.105, 0.008),
    BranchingRecord("B0", "l+ nu_l rho-", 2.6e-4, 0.7e-4, tagging=False),
    BranchingRecord("B0", "l+ nu_l pi-", 1.8e-4, 0.6e-4, tagging=False),
)

_OVERRIDABLE = ("gamma_s", "gamma_l", "delta_m", "gamma_s_err", "gamma_l_err", "delta_m_err")


def _load_overrides(config: str | Path | Mapping) -> Mapping:
    if isinstance(config, Mapping):
        return config
    return json.loads(Path(config).read_text(encoding="utf-8"))


def species_params(species: str, config: str | Path | Mapping | None = None) -> OscillationParams:
    """Registry oscillation parameters for ``species`` ("kaon" or "bmeson").

    ``config`` may be a mapping or a path to a JSON file keyed by species tag;
    only the keys present override the defaults.  Malformed overrides (not an
    object, an unknown key, a value that is not an int or float) raise ValueError.
    """
    try:
        params = SPECIES[species]
    except KeyError:
        known = ", ".join(sorted(SPECIES))
        raise ValueError(f"unknown species {species!r}; expected one of: {known}") from None
    if config is None:
        return params
    overrides = _load_overrides(config)
    if not isinstance(overrides, Mapping):
        raise ValueError(f"constant overrides must be an object keyed by species, got {overrides!r}")
    overrides = overrides.get(species, {})
    if not isinstance(overrides, Mapping):
        raise ValueError(f"overrides for {species} must be an object, got {overrides!r}")
    unknown = set(overrides) - set(_OVERRIDABLE)
    if unknown:
        raise ValueError(f"unknown override keys for {species}: {sorted(unknown)}")
    values = {}
    for key, value in overrides.items():
        # bool is an int subclass, but true is not a rate
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"override {species}.{key} must be a number, got {value!r}")
        try:
            values[key] = float(value)
        except OverflowError:
            raise ValueError(f"override {species}.{key} is too large for a float") from None
    return replace(params, **values)


def branching_records(parent: str | None = None) -> tuple[BranchingRecord, ...]:
    """All registered branching records, optionally filtered by parent tag."""
    if parent is None:
        return BRANCHING
    return tuple(r for r in BRANCHING if r.parent == parent)


def semileptonic_total(parent: str) -> float:
    """Total branching ratio of the flavor-tagging channels of ``parent``.

    Raises ValueError if no tagging channel is registered for the parent.
    """
    ratios = [r.ratio for r in BRANCHING if r.parent == parent and r.tagging]
    if not ratios:
        known = ", ".join(sorted({r.parent for r in BRANCHING}))
        raise ValueError(f"no tagging channels registered for {parent!r}; known parents: {known}")
    return sum(ratios)
