"""Reference computations the benchmark checks mesonbell's outputs against.

Everything here is written from the formulas in the package docstrings (or
from a general-purpose solver) and never calls mesonbell, so a wrong result
in the program cannot hide in the check.  Times are in seconds, rates in 1/s.
"""

from __future__ import annotations

import math
import re

import numpy as np

# Cancellation residue the program snaps to zero (lrm.ZERO_SNAP) and the
# absolute floor every probability comparison allows for it.
ZERO_FLOOR = 1e-15

# A fit passes when its objective is within this share of the LP optimum,
# plus ZERO_FLOOR so zero-objective fits do not fail on roundoff.  Fits that
# reach the optimum do so to ~3e-12 relative; the descent's misses are >1e-3.
FIT_RTOL = 1e-6

# CSV values carry 12 significant digits: a half unit in the last place is
# 5e-12 relative, so two rounded values agree to about 1e-11.
CSV_RTOL = 1e-11

# Standard deviations allowed between a Monte-Carlo count and its expectation.
MC_SIGMAS = 5.0

THRESHOLDS = {"maximal": 0.81, "nonmaximal": 0.67}


def qm_joint(gamma_s, gamma_l, delta_m, t_a, t_b, sign):
    """(1/8)[E_S(ta)E_L(tb) + E_L(ta)E_S(tb) + sign 2 sqrt(E_S E_L)(ta) sqrt(E_S E_L)(tb) cos(dm(ta-tb))].

    sign = -1 is the like-flavor joint, +1 the unlike one.  Written with
    explicit survival factors, so it also covers equal widths.
    """
    t_a = np.asarray(t_a, dtype=float)
    t_b = np.asarray(t_b, dtype=float)
    es_a, el_a = np.exp(-gamma_s * t_a), np.exp(-gamma_l * t_a)
    es_b, el_b = np.exp(-gamma_s * t_b), np.exp(-gamma_l * t_b)
    interference = 2.0 * np.sqrt(es_a * el_a * es_b * el_b) * np.cos(delta_m * (t_a - t_b))
    return (es_a * el_b + el_a * es_b + sign * interference) / 8.0


def qm_like(params, t_a, t_b):
    return qm_joint(params.gamma_s, params.gamma_l, params.delta_m, t_a, t_b, -1.0)


def qm_unlike(params, t_a, t_b):
    return qm_joint(params.gamma_s, params.gamma_l, params.delta_m, t_a, t_b, +1.0)


def qm_scale(params, t_a, t_b):
    """(1/8)[E_S(ta)E_L(tb) + E_L(ta)E_S(tb)], the size of the terms that cancel in the QM joints.

    Roundoff in either joint is a few ulp of this, not of the joint itself,
    so comparisons allow 1e-12 of it as absolute slack.
    """
    t_a = np.asarray(t_a, dtype=float)
    t_b = np.asarray(t_b, dtype=float)
    gs, gl = params.gamma_s, params.gamma_l
    return (np.exp(-gs * t_a - gl * t_b) + np.exp(-gl * t_a - gs * t_b)) / 8.0


def flip_fractions(params, rho_kind, t):
    """(w2, w4) = (Q- - rho e^{+gamma_s t}, Q- + rho e^{+gamma_l t}) for rho 'zero' or 'saturate_upper_short'."""
    t = np.asarray(t, dtype=float)
    es, el = np.exp(-params.gamma_s * t), np.exp(-params.gamma_l * t)
    q_minus = 0.5 * (1.0 - 2.0 * np.sqrt(es * el) / (es + el) * np.cos(params.delta_m * t))
    if rho_kind == "zero":
        rho = np.zeros_like(t)
    elif rho_kind == "saturate_upper_short":
        rho = es * q_minus
    else:
        raise ValueError(f"no reference for rho kind {rho_kind!r}")
    return q_minus - rho / es, q_minus + rho / el


def lrm_p(params, rho_kind, t_a, t_b):
    """P1..P4 on a new last axis, from the lrm module docstring; needs t_a <= t_b."""
    t_a = np.asarray(t_a, dtype=float)
    t_b = np.asarray(t_b, dtype=float)
    w2_a, w4_a = flip_fractions(params, rho_kind, t_a)
    w2_b, w4_b = flip_fractions(params, rho_kind, t_b)
    p21 = np.exp(-params.gamma_s * (t_b - t_a)) * (w2_b - w2_a)
    p43 = np.exp(-params.gamma_l * (t_b - t_a)) * (w4_b - w4_a)
    first = np.exp(-(params.gamma_s + params.gamma_l) * t_a)
    return np.stack([first * w2_a * p43, first * (1.0 - w2_a) * p43,
                     first * w4_a * p21, first * (1.0 - w4_a) * p21], axis=-1)


def lrm_like(params, rho_kind, weights, t_a, t_b):
    """(1/4) sum a_i P_i with the sides relabelled (weights reversed) where t_a > t_b."""
    t_a = np.asarray(t_a, dtype=float)
    t_b = np.asarray(t_b, dtype=float)
    p = lrm_p(params, rho_kind, np.minimum(t_a, t_b), np.maximum(t_a, t_b))
    w = np.asarray(weights, dtype=float)
    w_eff = np.where((t_a > t_b)[..., None], w[::-1], w)
    return 0.25 * np.sum(w_eff * p, axis=-1)


def close(actual, expected, rtol, atol=0.0) -> bool:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        return False
    return bool(np.all(np.abs(actual - expected) <= rtol * np.abs(expected) + atol))


def laplace_ratio(params) -> float:
    """Time-integrated like/unlike ratio from the termwise Laplace transforms.

    int int E_S(ta)E_L(tb) = 1/(gamma_s gamma_l) and
    int int e^{-G(ta+tb)} cos(dm(ta-tb)) = 1/(G^2 + dm^2), G = (gamma_s + gamma_l)/2.
    """
    direct = 1.0 / (params.gamma_s * params.gamma_l)
    g = 0.5 * (params.gamma_s + params.gamma_l)
    interference = 1.0 / (g * g + params.delta_m ** 2)
    return (direct - interference) / (direct + interference)


def fit_objective(p, qm, a, objective) -> float:
    gaps = p @ np.asarray(a, dtype=float) / 4.0 - qm
    if objective == "match_qm":
        return float(np.max(np.abs(gaps)))
    return float(max(0.0, np.max(gaps)))


def lp_optimum(p, qm, eta, objective) -> float:
    """Optimal fit objective from HiGHS, re-evaluated on (p, qm).

    Variables (a1..a4, t); minimise t subject to mean(a) = eta, a in [0, 1]
    and P a / 4 - QM <= t (plus QM - P a / 4 <= t for match_qm).  The rows
    are scaled by max QM so HiGHS sees O(1) coefficients; its reported
    optimum is not used because it is inexact on the degenerate B problems
    (P1 = P3, P2 = P4), only its weights.
    """
    from scipy.optimize import linprog

    scale = float(np.max(np.abs(qm))) or 1.0
    rows = np.hstack([p / (4.0 * scale), -np.ones((len(qm), 1))])
    rhs = qm / scale
    if objective == "match_qm":
        rows = np.vstack([rows, np.hstack([-p / (4.0 * scale), -np.ones((len(qm), 1))])])
        rhs = np.concatenate([rhs, -qm / scale])
    res = linprog(np.array([0.0, 0.0, 0.0, 0.0, 1.0]), A_ub=rows, b_ub=rhs,
                  A_eq=np.array([[1.0, 1.0, 1.0, 1.0, 0.0]]), b_eq=[4.0 * eta],
                  bounds=[(0.0, 1.0)] * 4 + [(0.0, None)], method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return fit_objective(p, qm, res.x[:4], objective)


def fit_is_optimal(value, optimum) -> bool:
    return value <= optimum * (1.0 + FIT_RTOL) + ZERO_FLOOR


def binomial_ok(successes, trials, prob) -> bool:
    """successes out of trials within MC_SIGMAS binomial standard deviations of prob."""
    sigma = math.sqrt(trials * prob * (1.0 - prob))
    return abs(successes - trials * prob) <= MC_SIGMAS * sigma + 1e-9


# -- CLI text ---------------------------------------------------------------

CSV_HEADER = "t_a,qm,lrm,p1,p2,p3,p4,gap"

_THRESHOLD_ROW = re.compile(r"^(.{25}) +(\d+\.\d{4})  (\S+) +(\S+)$")


def parse_csv(text):
    """(header, rows as an (n, 8) array) of a curve CSV."""
    lines = text.splitlines()
    if not lines:
        return "", np.zeros((0, 8))
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]]).reshape(-1, 8)
    return lines[0], rows


def parse_report(text) -> dict[str, str]:
    """'key = value' lines of the fit and mc reports."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = value.strip()
    return out


def parse_thresholds(text):
    """[(label, value, maximal verdict, nonmaximal verdict)] and whether the caveat note is printed."""
    rows = []
    for line in text.splitlines()[1:]:
        m = _THRESHOLD_ROW.match(line)
        if m:
            rows.append((m.group(1).strip(), float(m.group(2)), m.group(3), m.group(4)))
    return rows, any(line.startswith("note: ") for line in text.splitlines())


def verdict(value, state) -> str:
    return "loophole_free_possible" if value > THRESHOLDS[state] else "detection_loophole"
