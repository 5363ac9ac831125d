"""Quantum-mechanical joint flavor-tag probabilities for entangled meson pairs.

The pair is produced in the antisymmetric state

    |psi> = (|P0>|P0bar> - |P0bar>|P0>) / sqrt(2)
          = (|P_L>|P_S> - |P_S>|P_L>) / sqrt(2)

and each side is flavor-tagged at its own proper time.  With survival factors
E_S(t) = exp(-gamma_s t), E_L(t) = exp(-gamma_l t) the like-flavor joint
probability (both tagged antiparticle, equal to both tagged particle by CP
symmetry of the state) is

    P_like(ta, tb) = (1/8) [ E_S(ta) E_L(tb) + E_L(ta) E_S(tb)
                             - 2 sqrt(E_S E_L)(ta) sqrt(E_S E_L)(tb)
                               cos(delta_m (ta - tb)) ]

and the unlike-flavor joint is the same expression with the interference term
flipped in sign; that sign is the only choice for which the four outcomes of
an undecayed pair sum to one, and it also follows from the amplitude-level
calculation.

Written this way each joint is a difference of nearly equal terms close to
the diagonal ta = tb.  Completing the square turns it into a sum of two
non-negative terms, which is how both joints are evaluated: with
t_lo, t_hi = min, max(ta, tb), dt = t_hi - t_lo and G = (gamma_s + gamma_l)/2,

    P_like   = (1/8) e^{-(gamma_s t_lo + gamma_l t_hi)} expm1(-(gamma_s - gamma_l) dt/2)^2
               + (1/2) e^{-G (ta + tb)} sin^2(delta_m dt / 2)
    P_unlike = the same with cos^2 in place of sin^2.

There is no cancellation, so both joints are >= 0 to full relative
precision, the like joint is exactly 0 at ta = tb, and both are symmetric
bit for bit under ta <-> tb.  No factor grows with time, so late times
underflow to 0 instead of overflowing.  Equal widths need no separate form:
the first term vanishes and P_like = (1/2) e^{-gamma (ta + tb)} sin^2(...).

The flavor asymmetry (P_like - P_unlike) / (P_like + P_unlike) depends on dt
alone, A = -c(dt) = Q-(dt) - Q+(dt) with c(t) = sech((gamma_s - gamma_l) t/2)
cos(delta_m t), and ``mesonbell.lrm``'s oscillation weights Q+- = (1 +- c)/2
read the same c (``_oscillation``); no ratio of underflowing joints is formed.

All functions are pure and accept scalars or numpy arrays for the times.
``qm_like_joint``, ``qm_unlike_joint`` and ``asymmetry`` give an array of the
times' broadcast shape, or a float at two scalar times; each is one call of
the grid driver of ``mesonbell._chunks``, so the values are the same bits
whatever the chunking or thread count.
CP violation in the weak interactions is neglected throughout.

The time-integrated like/unlike ratio of these joints has a closed form;
adaptive cubature (scipy, imported on first use) runs only when a pair of
joint providers is passed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from ._chunks import _on_chunks
from .constants import OscillationParams

__all__ = [
    "TimePair",
    "Flavor",
    "FlavorOutcome",
    "QuadratureError",
    "qm_like_joint",
    "qm_unlike_joint",
    "qm_flavor_table",
    "asymmetry",
    "integrated_ratio",
]

# (params, t_a, t_b) -> joint probability; t_a and t_b may be equal-shape
# arrays, and the result is an array of that shape or a scalar.
JointProvider = Callable[[OscillationParams, np.ndarray, np.ndarray], "np.ndarray | float"]


class QuadratureError(RuntimeError):
    """Adaptive cubature did not converge to the requested relative tolerance."""


class Flavor(enum.Enum):
    PARTICLE = "particle"
    ANTIPARTICLE = "antiparticle"


@dataclass(frozen=True)
class FlavorOutcome:
    """Flavor tags observed on the left and right side of one pair."""

    left: Flavor
    right: Flavor

    @property
    def like(self) -> bool:
        return self.left is self.right


@dataclass(frozen=True)
class TimePair:
    """Proper times (seconds) at which the two mesons are flavor-tagged."""

    t_a: float
    t_b: float

    def __post_init__(self) -> None:
        for name in ("t_a", "t_b"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


def _joint(params: OscillationParams, trig, t_a, t_b, out=None):
    """The like (trig = np.sin) or unlike (np.cos) joint width + mixing trig(phase)^2, into out.

    The sum-of-squares form of the module docstring; the caller has checked the times.
    """
    gs, gl = params.gamma_s, params.gamma_l
    t_lo, t_hi = np.minimum(t_a, t_b), np.maximum(t_a, t_b)
    dt = t_hi - t_lo
    width = 0.125 * np.exp(-(gs * t_lo + gl * t_hi)) * np.expm1(-0.5 * (gs - gl) * dt) ** 2
    mixing = 0.5 * np.exp(-0.5 * (gs + gl) * (t_lo + t_hi))
    phase = 0.5 * params.delta_m * dt
    return np.add(width, mixing * trig(phase) ** 2, out=out)


def qm_like_joint(params: OscillationParams, t_a, t_b):
    """Probability of tagging the same flavor on both sides at (t_a, t_b).

    Exactly 0.0 at t_a = t_b: the antisymmetric state is perfectly
    anti-correlated at equal proper times.
    """
    return _on_chunks(partial(_joint, params, np.sin), params, t_a, t_b, ())[2]


def qm_unlike_joint(params: OscillationParams, t_a, t_b):
    """Probability of tagging opposite flavors at (t_a, t_b)."""
    return _on_chunks(partial(_joint, params, np.cos), params, t_a, t_b, ())[2]


def qm_flavor_table(params: OscillationParams, t_a: float, t_b: float) -> dict[FlavorOutcome, float]:
    """All four joint tag probabilities at one time pair.

    The entries sum to (1/2)[E_S(ta) E_L(tb) + E_L(ta) E_S(tb)], the
    probability that both mesons are still undecayed enough to be tagged.
    """
    like, unlike = float(qm_like_joint(params, t_a, t_b)), float(qm_unlike_joint(params, t_a, t_b))
    p, a = Flavor.PARTICLE, Flavor.ANTIPARTICLE
    return {
        FlavorOutcome(a, a): like,
        FlavorOutcome(p, p): like,
        FlavorOutcome(a, p): unlike,
        FlavorOutcome(p, a): unlike,
    }


def _oscillation(params: OscillationParams, t):
    """c(t) = sech((gamma_s - gamma_l) t / 2) cos(delta_m t), elementwise, so (2, m) rows work.

    The sech is 2 e^{-x} / (1 + e^{-2x}): finite where both survival factors
    underflow, at most 1 in floating point, and exactly 1 at equal widths."""
    decay = np.exp(-0.5 * (params.gamma_s - params.gamma_l) * t)
    c = 2.0 * decay
    c /= 1.0 + decay * decay
    c *= np.cos(params.delta_m * t)
    return c


def asymmetry(params: OscillationParams, t_a, t_b):
    """Flavor asymmetry (P_like - P_unlike) / (P_like + P_unlike) in [-1, 1].

    The closed form -c(|t_b - t_a|) of the module docstring: exactly -1.0 at
    t_a = t_b, never -0.0, the same bits under t_a <-> t_b, and a value
    wherever both joints underflow."""
    def kernel(t_a, t_b, out):
        # 0 - c, not -c: a c of +0.0 gives +0.0, never -0.0
        np.subtract(0.0, _oscillation(params, np.abs(t_b - t_a)), out=out)

    return _on_chunks(kernel, params, t_a, t_b, ())[2]


# Subdivisions the cubature of user-supplied providers may make before it gives up.
_MAX_SUBDIVISIONS = 200


def integrated_ratio(
    params: OscillationParams,
    like_joint: JointProvider | None = None,
    unlike_joint: JointProvider | None = None,
    rel_tol: float = 1e-8,
) -> float:
    """Ratio of time-integrated like- to unlike-flavor joint probabilities.

    R = (int P[like] dta dtb) / (int P[unlike] dta dtb) over [0, inf)^2.

    For the quantum joints the termwise Laplace integrals
    int int E_S(ta) E_L(tb) = 1/(gamma_s gamma_l) and
    int int e^{-G(ta+tb)} cos(delta_m (ta-tb)) = 1/(G^2 + delta_m^2),
    G = (gamma_s + gamma_l)/2, give the closed form

        R = (d^2 + delta_m^2) / (d^2 + delta_m^2 + 2 gamma_s gamma_l),
        d = (gamma_s - gamma_l)/2,

    free of the cancellation in (1/(gamma_s gamma_l) - 1/(G^2 + delta_m^2));
    for equal widths it is x^2 / (2 + x^2) with x = delta_m / gamma.

    It is returned when no provider is passed; one provider alone raises
    TypeError.  A pair of providers, the quantum joints included, is
    integrated by adaptive cubature over the box [0, 40/gamma_l]^2, which
    drops a tail of relative weight e^{-40}.  For unequal widths the box is
    split at 30/gamma_s on both axes so the short-lived corner gets its own
    regions; at equal widths there is one scale and no split.  Each provider
    is called with the cubature's nodes as two C-contiguous 1-D float arrays
    of one shape, and the cubature makes at most 200 subdivisions.

    ``rel_tol`` is the cubature's tolerance, which the closed form does not
    read.  The cubature raises ValueError unless it is finite and positive,
    and QuadratureError when the box area overflows a float, when it does
    not converge or when its error estimate for the ratio exceeds ``rel_tol``.
    That estimate can understate the true error: at equal widths 1e12 s^-1 and
    x = 21.6, rel_tol = 1e-8 gives a ratio 5.19e-8 off the closed form, unraised.
    """
    if like_joint is None and unlike_joint is None:
        # everything in units of gamma_s, so no square over- or underflows
        width_ratio = params.gamma_l / params.gamma_s
        x = params.delta_m / params.gamma_s
        # gamma_s - gamma_l is exact (Sterbenz) where 1 - width_ratio cancels
        half_split = 0.5 * ((params.gamma_s - params.gamma_l) / params.gamma_s)
        numerator = half_split * half_split + x * x
        return numerator / (numerator + 2.0 * width_ratio)

    if like_joint is None or unlike_joint is None:
        raise TypeError("integrated_ratio takes both joint providers or neither")
    if not 0.0 < rel_tol < math.inf:
        raise ValueError(f"rel_tol must be finite and positive, got {rel_tol!r}")
    t_max = 40.0 / params.gamma_l
    if math.isinf(t_max * t_max):
        raise QuadratureError(f"cubature box [0, {t_max:.6g}] s per axis has an area "
                              "beyond the largest float")

    from scipy import integrate

    def joints(t):
        # the cubature's (n, 2) nodes as two contiguous rows, so the providers
        # and their reductions read unit-stride arrays
        t_a, t_b = np.ascontiguousarray(t.T)
        out = np.empty((len(t), 2))
        out[:, 0] = like_joint(params, t_a, t_b)
        out[:, 1] = unlike_joint(params, t_a, t_b)
        return out

    # at equal widths there is no short-lived corner, and a split at 30/gamma_s
    # would put three of the four first regions into the e^{-30} tail
    t_short = 30.0 / params.gamma_s
    points = None if params.equal_widths else [(t_short, t_short)]
    # half of rel_tol per integral bounds the ratio's relative error by rel_tol
    res = integrate.cubature(joints, [0.0, 0.0], [t_max, t_max], rtol=0.5 * rel_tol, atol=0.0,
                             max_subdivisions=_MAX_SUBDIVISIONS, points=points)
    if res.status != "converged":
        raise QuadratureError(
            f"cubature did not converge within {_MAX_SUBDIVISIONS} subdivisions (rel_tol={rel_tol:g})"
        )
    (num, den), (num_err, den_err) = res.estimate, res.error
    if den <= 0.0:
        raise QuadratureError("unlike-flavor integral is not positive")
    ratio = float(num / den)
    ratio_err = (num_err + abs(ratio) * den_err) / den
    if ratio_err > rel_tol * max(abs(ratio), 1e-12):
        raise QuadratureError(
            f"quadrature error estimate {ratio_err:.3e} exceeds rel_tol={rel_tol:g} (ratio={ratio:.6g})"
        )
    return ratio
