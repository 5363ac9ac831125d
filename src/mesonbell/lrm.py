"""Local-realistic model of an entangled neutral-meson pair.

Each meson carries definite CP and flavor at every instant.  Four hidden
states cover the combinations:

    K1: CP=+1, S=+1      K2: CP=+1, S=-1
    K3: CP=-1, S=+1      K4: CP=-1, S=-1

CP is fixed at production and sets the decay rate (gamma_s for CP=+1,
gamma_l for CP=-1); flavor is allowed to jump at a hidden, pre-assigned
time, anti-correlated between the two sides.  The pair starts with equal
probability 1/4 in (K1,K4), (K2,K3), (K3,K2) or (K4,K1).

Writing E_S(t) = exp(-gamma_s t), E_L(t) = exp(-gamma_l t) and the
oscillation weights

    Q+-(t) = (1/2) [1 +- (2 sqrt(E_L E_S) / (E_L + E_S)) cos(delta_m t)]

(the prefactor reduces to 1 for equal widths), the per-branch flip
probabilities at time t given a fresh state at time 0 are

    p21(t|0) = E_S(t) Q-(t) - rho(t)        (short-lived branch)
    p43(t|0) = E_L(t) Q-(t) + rho(t)        (long-lived branch)

where rho(t) is a model freedom constrained at every t by

    -E_S Q+ <= rho <= E_S Q-    and    -E_L Q- <= rho <= E_L Q+ .

These four bounds are exactly the statement that the survival-stripped flip
fractions

    w2(t) = p21(t|0) / E_S(t) = Q-(t) - rho(t) e^{+gamma_s t}
    w4(t) = p43(t|0) / E_L(t) = Q-(t) + rho(t) e^{+gamma_l t}

are probabilities (lie in [0, 1]); this module computes in terms of w2/w4,
which removes the e^{+gamma t} overflow of the naive conditional formulas
and makes saturated profiles cancel exactly.  The later-time flips conditional
on the first measurement are increments of the flip fractions,

    p21(tb|ta) = E_S(tb - ta) [w2(tb) - w2(ta)]
    p43(tb|ta) = E_L(tb - ta) [w4(tb) - w4(ta)]

and the four like-flavor (antiparticle,antiparticle) joint probabilities for
ta <= tb are

    P1 = E_S(ta) w2(ta)       * E_L(ta) p43(tb|ta)
    P2 = E_S(ta) [1 - w2(ta)] * E_L(ta) p43(tb|ta)
    P3 = E_L(ta) w4(ta)       * E_S(ta) p21(tb|ta)
    P4 = E_L(ta) [1 - w4(ta)] * E_S(ta) p21(tb|ta)

For ta > tb the sides are relabelled (configurations 1<->4, 2<->3): P1..P4 at
(ta, tb) are P4..P1 above at (tb, ta); only p21/p43(tb|ta) need ta <= tb.

Validity note: the increment form only represents probabilities where the
flip fractions are non-decreasing.  Once the cos(delta_m t) oscillation
outruns the decay envelope (near delta_m t ~ pi with kaon parameters, i.e.
gamma_s t beyond ~5) the fractions turn over and the conditionals of this
simplified model go negative.  No clamping and no absolute floor is
applied: exact zeros (equal times, saturated profiles) come from the
flip-fraction form itself, and tiny or negative values are returned as
computed, so callers probing the turnover region or late times see them.

Detector acceptance enters through four weights a1..a4 in [0, 1], one per
initial hidden configuration.  The observed like-flavor rate is then

    P = (1/4) [a1 P1 + a2 P2 + a3 P3 + a4 P4],

which is where hidden-variable-correlated detection (the detection loophole)
enters: unequal weights bias the post-selected sample.  ``EfficiencyWeights``
holds four constants or one function of (t_a, t_b) whose last axis is a1..a4.

``joint_probabilities`` (the times' broadcast shape plus a last axis of 4),
``lrm_like_joint``, ``p21_conditional`` and ``p43_conditional`` (that shape,
or a float at two scalar times) are each one call of the grid driver of
``mesonbell._chunks``, which checks their times (the conditionals' kernel
also checks t_a <= t_b).  Every value depends only on its own time pair, so
the output is the same bits whatever the chunking, and an inadmissible rho
or a disordered pair raises at the first offending time pair in array order.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._chunks import _check_times, _in_range, _on_chunks
from .constants import OscillationParams

__all__ = [
    "HiddenState",
    "K1",
    "K2",
    "K3",
    "K4",
    "HIDDEN_STATES",
    "INITIAL_PAIRS",
    "InadmissibleRhoError",
    "TimeOrderingError",
    "WeightRangeError",
    "RhoProfile",
    "EfficiencyWeights",
    "survival",
    "q_plus",
    "q_minus",
    "rho_bounds",
    "p21_conditional",
    "p43_conditional",
    "joint_probabilities",
    "lrm_like_joint",
]

# Slack for the admissibility comparison, in flip-fraction units.
_ADMISSIBLE_TOL = 1e-12


class InadmissibleRhoError(ValueError):
    """rho(t) violates its admissibility bounds at some evaluated time."""

    def __init__(self, t: float, detail: str):
        self.t = float(t)
        super().__init__(f"rho profile inadmissible at t={t!r} s: {detail}")


class TimeOrderingError(ValueError):
    """An operation requiring t_a <= t_b was called with t_b < t_a."""


class WeightRangeError(ValueError):
    """An acceptance weight fell outside [0, 1]."""


@dataclass(frozen=True)
class HiddenState:
    label: str
    cp: int
    strangeness: int


K1 = HiddenState("K1", +1, +1)
K2 = HiddenState("K2", +1, -1)
K3 = HiddenState("K3", -1, +1)
K4 = HiddenState("K4", -1, -1)
HIDDEN_STATES = (K1, K2, K3, K4)

# (left, right) hidden states of the four equiprobable initial configurations.
INITIAL_PAIRS = ((K1, K4), (K2, K3), (K3, K2), (K4, K1))


def survival(params: OscillationParams, which: str, t):
    """Survival probability e^{-gamma t} of the short- or long-lived branch."""
    _check_times(params, t)
    if which == "short":
        return np.exp(-params.gamma_s * np.asarray(t, dtype=float))
    if which == "long":
        return np.exp(-params.gamma_l * np.asarray(t, dtype=float))
    raise ValueError(f"which must be 'short' or 'long', got {which!r}")


def _q(params: OscillationParams, t, sign: float):
    # 2 sqrt(E_L E_S) / (E_L + E_S) = sech((gamma_s - gamma_l) t / 2), written
    # with e^{-x} only so it stays finite where E_L and E_S both underflow; at
    # equal widths it is exactly 2 / (1 + 1) = 1; in place for (2, m) rows (sign = +-1 is exact)
    t = np.asarray(t, dtype=float)
    decay = np.exp(-0.5 * abs(params.gamma_s - params.gamma_l) * t)
    q = 2.0 * decay
    q /= 1.0 + decay * decay
    q *= sign * np.cos(params.delta_m * t)
    q += 1.0
    q *= 0.5
    return q


def q_plus(params: OscillationParams, t):
    """Oscillation weight Q+(t) in [0, 1]; Q+(0) = 1."""
    _check_times(params, t)
    return _q(params, t, +1.0)


def q_minus(params: OscillationParams, t):
    """Oscillation weight Q-(t) = 1 - Q+(t); Q-(0) = 0."""
    _check_times(params, t)
    return _q(params, t, -1.0)


def rho_bounds(params: OscillationParams, t):
    """Admissible range (lower, upper) of rho at time t.

    lower = max(-E_S Q+, -E_L Q-), upper = min(E_S Q-, E_L Q+); the range
    always contains 0 and degenerates to (0, 0) at t = 0.
    """
    _check_times(params, t)
    t = np.asarray(t, dtype=float)
    e_s = np.exp(-params.gamma_s * t)
    e_l = np.exp(-params.gamma_l * t)
    qp = _q(params, t, +1.0)
    qm = _q(params, t, -1.0)
    lower = np.maximum(-e_s * qp, -e_l * qm)
    upper = np.minimum(e_s * qm, e_l * qp)
    return lower, upper


def _interp_knots(knots: tuple[tuple[float, float], ...], t):
    ts, vs = np.array(knots).T
    return np.interp(np.asarray(t, dtype=float), ts, vs)


@dataclass(frozen=True)
class RhoProfile:
    """A member of the rho(t) model family.

    Kinds:
      * ``zero``                  rho = 0 (always admissible)
      * ``saturate_upper_short``  rho = E_S Q-  (upper bound of the first pair)
      * ``saturate_lower_short``  rho = -E_S Q+ (lower bound of the first pair)
      * ``tabulated``             linear interpolation between (t, rho) knots

    Admissibility is enforced at evaluation time, not only at knots; an
    inadmissible evaluation raises InadmissibleRhoError carrying the
    offending time.  The saturated kinds are not admissible everywhere:
    they obey the first bound pair by construction but can violate the
    second one (e.g. rho = -E_S Q+ near t = 0, or rho = E_S Q- for equal
    widths wherever Q- > Q+).
    """

    kind: str
    knots: tuple[tuple[float, float], ...] | None = None

    _KINDS = ("zero", "saturate_upper_short", "saturate_lower_short", "tabulated")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown rho profile kind {self.kind!r}; expected one of {self._KINDS}")
        if self.kind != "tabulated":
            if self.knots is not None:
                raise ValueError(f"knots are only meaningful for 'tabulated', not {self.kind!r}")
            return
        try:
            knots = tuple((float(t), float(v)) for t, v in (() if self.knots is None else self.knots))
        except (TypeError, ValueError):
            raise ValueError("tabulated profile knots must be (t, rho) pairs of numbers") from None
        if len(knots) < 2:
            raise ValueError("tabulated profile needs at least two (t, rho) knots")
        ts = [k[0] for k in knots]
        if any(not math.isfinite(t) or t < 0.0 for t in ts):
            raise ValueError("knot times must be finite and non-negative")
        if not all(math.isfinite(v) for _, v in knots):
            raise ValueError("knot values must be finite")
        if sorted(ts) != ts or len(set(ts)) != len(ts):
            raise ValueError("knot times must be strictly increasing")
        object.__setattr__(self, "knots", knots)

    @classmethod
    def zero(cls) -> "RhoProfile":
        return cls("zero")

    @classmethod
    def saturate_upper_short(cls) -> "RhoProfile":
        return cls("saturate_upper_short")

    @classmethod
    def saturate_lower_short(cls) -> "RhoProfile":
        return cls("saturate_lower_short")

    @classmethod
    def tabulated(cls, knots) -> "RhoProfile":
        return cls("tabulated", knots)

    def value(self, params: OscillationParams, t):
        """rho(t), checked against both bound pairs at every evaluated time."""
        _check_times(params, t)
        t = np.asarray(t, dtype=float)
        if self.kind == "zero":
            rho = np.zeros_like(t)
        elif self.kind == "saturate_upper_short":
            rho = np.exp(-params.gamma_s * t) * _q(params, t, -1.0)
        elif self.kind == "saturate_lower_short":
            rho = -np.exp(-params.gamma_s * t) * _q(params, t, +1.0)
        else:
            rho = _interp_knots(self.knots, t)
        self._check_fractions(params, t[np.newaxis])
        return rho if rho.ndim else float(rho)

    # -- flip fractions ----------------------------------------------------
    #
    # w2 = Q- - rho e^{+gamma_s t}, w4 = Q- + rho e^{+gamma_l t}.  For the
    # closed-form kinds the exponential factors cancel analytically, which
    # both avoids overflow and makes the saturation identities exact.

    def _fractions(self, params: OscillationParams, t):
        t = np.asarray(t, dtype=float)
        qm = _q(params, t, -1.0)
        if self.kind == "zero":
            return qm, qm
        if self.kind == "saturate_upper_short":
            w2 = np.zeros_like(qm)
            w4 = qm * (1.0 + np.exp(-(params.gamma_s - params.gamma_l) * t))
            return w2, w4
        if self.kind == "saturate_lower_short":
            qp = _q(params, t, +1.0)
            w2 = np.ones_like(qm)
            w4 = qm - qp * np.exp(-(params.gamma_s - params.gamma_l) * t)
            return w2, w4
        rho = _interp_knots(self.knots, t)
        # rho = 0 scales to 0 also where e^{gamma t} overflows (0 * inf is nan)
        nonzero = rho != 0.0
        with np.errstate(over="ignore"):
            scaled_s = np.multiply(rho, np.exp(params.gamma_s * t), out=np.zeros_like(rho), where=nonzero)
            scaled_l = np.multiply(rho, np.exp(params.gamma_l * t), out=np.zeros_like(rho), where=nonzero)
        return qm - scaled_s, qm + scaled_l

    def _check_fractions(self, params: OscillationParams, t: np.ndarray):
        """Flip fractions (w2, w4) at the times t of shape (k, ...), in one pass.

        An inadmissible value raises at the first offending index of t[0] in
        array order, and at that index at the first offending of the k times.
        """
        w2, w4 = self._fractions(params, t)
        lo, hi = -_ADMISSIBLE_TOL, 1.0 + _ADMISSIBLE_TOL
        if not (_in_range(w2, lo, hi) and (w4 is w2 or _in_range(w4, lo, hi))):    # rho = zero: w2 is w4
            bad = ~((w2 >= lo) & (w2 <= hi) & (w4 >= lo) & (w4 <= hi))
            t_bad = float(np.moveaxis(t, 0, -1)[np.moveaxis(bad, 0, -1)][0])
            lo, up = rho_bounds(params, t_bad)
            raise InadmissibleRhoError(
                t_bad, f"value outside [{float(lo):.6e}, {float(up):.6e}]"
            )
        return w2, w4


def _increments(params: OscillationParams, rho: RhoProfile, t_a, t_b, branches=(0, 1)):
    """Flip fractions (w2, w4) at t_a, then the flips within (t_a, t_b] of the branches asked for.

    Branch 0 is p21 and branch 1 is p43.  The callers have already checked
    the times.  One pass over their (2, m) rows gives the fractions at both;
    an inadmissible rho raises at the first offending pair, t_a before t_b.
    """
    at_a, at_b = zip(*rho._check_fractions(params, np.stack((t_a, t_b))))
    dt = t_b - t_a
    gammas = (params.gamma_s, params.gamma_l)
    return (*at_a, *(np.exp(-gammas[k] * dt) * (at_b[k] - at_a[k]) for k in branches))


def _conditional(params: OscillationParams, rho: RhoProfile, branch: int, t_a, t_b):
    """p21 (branch 0) or p43 (branch 1) within (t_a, t_b], one call of the grid driver."""
    def kernel(t_a, t_b, out):
        disordered = t_b < t_a
        if disordered.any():
            first = disordered.argmax()     # the pairs before it raise first
            _increments(params, rho, t_a[:first], t_b[:first])
            raise TimeOrderingError("conditional flips require t_a <= t_b")
        out[:] = _increments(params, rho, t_a, t_b, (branch,))[2]

    return _on_chunks(kernel, params, t_a, t_b, ())[2]


def p21_conditional(params: OscillationParams, rho: RhoProfile, t_a, t_b):
    """Short-branch flip probability within (t_a, t_b], survival included.

    Exactly zero at t_b = t_a.  Negative values flag the turnover region of
    the simplified model (see module docstring); they are not clamped.
    """
    return _conditional(params, rho, 0, t_a, t_b)


def p43_conditional(params: OscillationParams, rho: RhoProfile, t_a, t_b):
    """Long-branch flip probability within (t_a, t_b], survival included."""
    return _conditional(params, rho, 1, t_a, t_b)


def _joint_columns(params: OscillationParams, rho: RhoProfile, t_a, t_b):
    """P1..P4 of a chunk, relabelled where t_a > t_b (module docstring).

    The chunk kernel behind every P_i observable; the caller has checked the times.
    """
    swapped = t_a > t_b
    relabel = np.count_nonzero(swapped)
    if relabel:
        t_a, t_b = np.minimum(t_a, t_b), np.maximum(t_a, t_b)
    w2, w4, c21, c43 = _increments(params, rho, t_a, t_b)
    first = np.exp(-params.gamma_s * t_a) * np.exp(-params.gamma_l * t_a)
    columns = (first * w2 * c43, first * (1.0 - w2) * c43,
               first * w4 * c21, first * (1.0 - w4) * c21)
    if not relabel:
        return columns
    return [np.where(swapped, mirror, column) for column, mirror in zip(columns, columns[::-1])]


def _store_joints(columns, out) -> None:
    """Write P1..P4 into the (m, 4) out."""
    for j, column in enumerate(columns):
        # + 0.0 turns the -0.0 of first * 0.0 * (negative flip) into 0.0
        np.add(column, 0.0, out=out[:, j])


def _weighted_rate(columns, a, out) -> None:
    """(1/4) ((a1 P1 + a4 P4) + (a2 P2 + a3 P3)) + 0.0 into out, for a (4,) row or (m, 4) rows a.

    The relabelling in ``_joint_columns`` swaps the two terms inside each
    parenthesis, and IEEE addition of two terms is commutative, so the rate
    at (t_a, t_b) with a1..a4 has the bits of the rate at (t_b, t_a) with
    a4..a1.  The final + 0.0 turns a -0.0 into 0.0.
    """
    np.multiply(columns[0], a[..., 0], out=out)
    out += columns[3] * a[..., 3]
    out += columns[1] * a[..., 1] + columns[2] * a[..., 2]
    out *= 0.25
    out += 0.0


def joint_probabilities(params: OscillationParams, rho: RhoProfile, t_a, t_b):
    """The four like-flavor joint probabilities P1..P4, stacked on a new last axis.

    Either time order: for t_a > t_b the sides are relabelled (module docstring).
    """
    def kernel(t_a, t_b, out):
        _store_joints(_joint_columns(params, rho, t_a, t_b), out)

    _, _, p = _on_chunks(kernel, params, t_a, t_b, (4,))
    return p


@dataclass(frozen=True, init=False)
class EfficiencyWeights:
    """Acceptance weights a1..a4 in [0, 1]: four numbers, or one function of (t_a, t_b).

    ``EfficiencyWeights(a1, a2, a3, a4)`` holds four constants.
    ``EfficiencyWeights(rows)`` holds a function ``rows(t_a, t_b)`` that
    returns a1..a4 on a last axis of four, in any shape that broadcasts to
    the grid of (t_a, t_b) plus that axis; it is called once per evaluation.
    Weight a_i multiplies the joint probability of the i-th initial hidden
    configuration; the total efficiency is the mean of the four.
    """

    a: tuple[float, float, float, float] | Callable

    def __init__(self, *a) -> None:
        row = None
        if len(a) == 4 and all(isinstance(w, numbers.Real) for w in a):
            a = tuple(float(w) for w in a)
            row = np.array(a)       # the one row for every grid
            row.flags.writeable = False
            if not all(0.0 <= w <= 1.0 for w in a):     # four floats compare faster than a row's reductions
                _validate_weight_values(row)
        elif len(a) == 1 and callable(a[0]):
            a = a[0]
        else:
            raise TypeError("EfficiencyWeights takes four numbers a1..a4 or one function "
                            "rows(t_a, t_b) returning a1..a4 on a last axis of four")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "_row", row)

    @classmethod
    def constant(cls, a1: float, a2: float, a3: float, a4: float) -> "EfficiencyWeights":
        return cls(float(a1), float(a2), float(a3), float(a4))

    @classmethod
    def uniform(cls, value: float) -> "EfficiencyWeights":
        return cls.constant(value, value, value, value)

    def as_tuple(self) -> tuple[float, float, float, float]:
        """The four numbers of constant weights."""
        if self._row is None:
            raise TypeError("time-dependent weights have no single tuple; use values(t_a, t_b)")
        return self.a

    @property
    def is_constant(self) -> bool:
        return self._row is not None

    def values(self, t_a, t_b) -> np.ndarray:
        """a1..a4 at (t_a, t_b): a read-only array of the times' broadcast shape plus a last axis of four.

        Rows that do not broadcast to that shape raise a ValueError naming both shapes.
        """
        shape = np.broadcast_shapes(np.shape(t_a), np.shape(t_b)) + (4,)
        rows = self._row if self._row is not None else np.asarray(
            self.a(np.asarray(t_a, dtype=float), np.asarray(t_b, dtype=float)), dtype=float)
        try:
            out = np.broadcast_to(rows, shape)
        except ValueError:
            raise ValueError(f"weight rows have shape {rows.shape}, which does not broadcast "
                             f"to {shape}, the time grid's shape plus a last axis of a1..a4") from None
        _validate_weight_values(out)
        return out

    def _rows(self, t_a, t_b) -> np.ndarray:
        """a1..a4 at (t_a, t_b), to be broadcast over their grid: the one (4,) row
        of constant weights, else ``values`` once."""
        return self.values(t_a, t_b) if self._row is None else self._row

    def total_efficiency(self, t_a=0.0, t_b=0.0):
        """Mean of the four weights, evaluated at (t_a, t_b) if time-dependent:
        an array of the times' broadcast shape, or a float at two scalar times."""
        mean = np.mean(self.values(t_a, t_b), axis=-1)
        return mean if mean.ndim else float(mean)


def _validate_weight_values(values: np.ndarray) -> None:
    if not _in_range(values, 0.0, 1.0):
        bad = values[~(np.isfinite(values) & (values >= 0.0) & (values <= 1.0))]
        raise WeightRangeError(f"acceptance weights must lie in [0, 1]; got {float(bad.flat[0])!r}")


def lrm_like_joint(params: OscillationParams, rho: RhoProfile, weights: EfficiencyWeights, t_a, t_b):
    """Efficiency-weighted like-flavor prediction (1/4) sum_i a_i P_i, either time order.

    Time-dependent weights are evaluated at the caller's (t_a, t_b).
    """
    def kernel(t_a, t_b, a, out):
        _weighted_rate(_joint_columns(params, rho, t_a, t_b), a, out)

    _, _, rate = _on_chunks(kernel, params, t_a, t_b, (), rows_at=weights._rows)
    return rate
