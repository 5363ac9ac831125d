"""Fitting acceptance weights so the biased local-realistic rate tracks QM.

The observed like-flavor rate of the hidden-state model is linear in the
acceptance weights, LRM(a) = (1/4) sum_i a_i P_i(t_a, t_b).  Two fitting
problems are posed over a time grid:

  * ``match_qm``      minimize  max_k | LRM_k(a) - QM_k |
  * ``underbound_qm`` minimize  max_k max(0, LRM_k(a) - QM_k)

subject to a fixed total efficiency mean(a) = eta and box bounds
a_i in [0, 1].  With one extra variable t bounding the gaps, both are
linear programs in (a1..a4, t), each one HiGHS solve through scipy's
bundled binding (``scipy.optimize`` is imported only there) with the options
of ``linprog``, the tests' oracle: presolve off and a 1e-10 primal
feasibility tolerance.  On these 5-column LPs presolve costs about as much
as the simplex solve at 200 points and far more on dense grids (~2.5 s of
a 2.7 s fit at 20,000 points), and at the default 1e-7 tolerance the solve
can stop ~1e-7 relative above the optimum there.  The tests certify fits
against a weak-duality lower bound built from the LP's row multipliers, to
1e-9 relative plus 1e-15.

There is also the pointwise "trivial" assignment a_i = QM / P_i that
reproduces QM identically wherever it is feasible, i.e. wherever the
required ratios stay inside [0, 1].

The (P, QM) tables and ``evaluate_gap`` are each one call of the grid
driver of ``mesonbell._chunks``, with the columns of ``evaluate_gap`` at
least 1-D; a grid of at most 2^14 points, the 200-point fit grids
included, is one chunk and stays on the calling thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .constants import OscillationParams
from ._chunks import _on_chunks
from .lrm import EfficiencyWeights, RhoProfile, _joint_columns, _store_joints, _weighted_rate
from .quantum import _joint

__all__ = [
    "FitProblem",
    "FitResult",
    "TrivialWeightsResult",
    "CurveTable",
    "default_grid",
    "trivial_weights",
    "fit_constant_weights",
    "evaluate_gap",
]

OBJECTIVES = ("match_qm", "underbound_qm")

# P_i at or below this is treated as unsupported when forming QM / P_i.
SUPPORT_FLOOR = 1e-300

# A fitted weight this close to 0 or 1 is returned on that bound.
BOUND_SNAP = 1e-12


def default_grid(params: OscillationParams, n: int = 200,
                 lo: float = 0.2, hi: float = 5.0, tb_factor: float = 2.0):
    """Grid t_a in [lo, hi]/gamma_s (n points) with t_b = tb_factor * t_a."""
    t_a = np.linspace(lo, hi, n) / params.gamma_s
    return t_a, tb_factor * t_a


@dataclass(frozen=True, eq=False)
class FitProblem:
    """One weight-fitting task over a fixed 1-D grid of time pairs; a scalar pair is one point.

    A 1-D float grid is kept as the caller's own array, not copied."""

    params: OscillationParams
    rho: RhoProfile
    eta: float
    grid_t_a: np.ndarray
    grid_t_b: np.ndarray
    objective: str = "match_qm"

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        if not (0.0 < self.eta <= 1.0):
            raise ValueError(f"target efficiency must lie in (0, 1], got {self.eta!r}")
        t_a = np.atleast_1d(np.asarray(self.grid_t_a, dtype=float))
        t_b = np.atleast_1d(np.asarray(self.grid_t_b, dtype=float))
        if t_a.size == 0 or t_a.shape != t_b.shape:
            raise ValueError("grid must be non-empty with matching t_a / t_b shapes")
        if t_a.ndim > 1:
            raise ValueError(f"grid must be 1-D, got t_a / t_b of shape {t_a.shape}")
        object.__setattr__(self, "grid_t_a", t_a)
        object.__setattr__(self, "grid_t_b", t_b)

    @classmethod
    def on_default_grid(cls, params, rho, eta, objective="match_qm", n=200) -> "FitProblem":
        t_a, t_b = default_grid(params, n=n)
        return cls(params, rho, eta, t_a, t_b, objective)

    def tables(self):
        """(P, qm) with P of shape (n, 4) and qm of shape (n,)."""
        return _tables(self.params, self.rho, self.grid_t_a, self.grid_t_b)


def _table_chunk(params, rho, t_a, t_b, p, qm):
    """Fill one chunk of the (P, qm) tables; returns its P1..P4."""
    columns = _joint_columns(params, rho, t_a, t_b)
    _store_joints(columns, p)
    _joint(params, np.sin, t_a, t_b, qm)
    return columns


def _tables(params, rho, t_a, t_b):
    """(P, qm) on the grid (t_a, t_b), in its broadcast shape."""
    _, _, p, qm = _on_chunks(partial(_table_chunk, params, rho), params, t_a, t_b, (4,), ())
    return p, qm


@dataclass(frozen=True)
class FitResult:
    """Fitted constant weights, their total efficiency, objective and curve on the grid, and the LP effort.

    ``max_abs_gap`` holds the objective's value on the grid: max |LRM - QM|
    for ``match_qm``, and the largest positive excess max(0, LRM - QM) for
    ``underbound_qm``.  ``table``, the fitted curve on the LP's own (P, QM),
    has the bits of ``evaluate_gap``; equality and hashing leave it out.
    Its ``t_a`` and ``t_b`` are the problem's grid arrays, not copies.

    ``iterations`` counts HiGHS simplex iterations from the slack basis
    (presolve is off), so it is 0 only where that basis is already optimal.
    """

    weights: EfficiencyWeights
    achieved_eta: float             # weights.total_efficiency()
    max_abs_gap: float
    iterations: int
    table: CurveTable = field(compare=False, repr=False)


@dataclass(frozen=True)
class TrivialWeightsResult:
    """Pointwise a_i = QM / P_i weights plus the feasibility diagnostics.

    Rows follow the grid of the ``problem`` passed, which gives their times.
    ``raw_ratios`` holds the unclipped ratios (0 where P_i has no support);
    the returned weight rows clip them into [0, 1].
    Points where any ratio had to be clipped are flagged in ``capped`` and
    the exact-reproduction guarantee is lost there, which is why they are
    excluded from ``feasible``.  A fixed total efficiency is not imposed;
    ``weights.total_efficiency(t_a, t_b)`` gives it per point.
    """

    weights: EfficiencyWeights
    raw_ratios: np.ndarray          # (n, 4)
    supported: np.ndarray           # (n, 4) bool, P_i > SUPPORT_FLOOR
    capped: np.ndarray              # (n,) bool, some ratio fell outside [0, 1]
    feasible: np.ndarray            # (n,) bool, exact reproduction holds


def _trivial_ratio_table(params, rho, t_a, t_b):
    p, qm = _tables(params, rho, t_a, t_b)
    supported = p > SUPPORT_FLOOR
    n_support = supported.sum(axis=-1, keepdims=True)
    # spread the reproduction load evenly over the supported configurations
    scale = np.where(n_support > 0, 4.0 / np.maximum(n_support, 1), 0.0)
    ratios = np.where(supported, scale * np.expand_dims(qm, -1) / np.where(supported, p, 1.0), 0.0)
    return ratios, supported


def trivial_weights(problem: FitProblem) -> TrivialWeightsResult:
    """The pointwise trivial solution a_i(t_a, t_b) = QM / P_i with diagnostics.

    At grid points where some P_i has no support, that weight is set to 0 and
    the remaining ones are rescaled by 4/k to keep the identity
    (1/4) sum a_i P_i = QM.  The returned weights are one row function that
    builds the ratio table once per evaluation, at the times asked for.
    Ratios outside [0, 1] are clipped in the weight rows, never silently:
    such points are reported as capped and not counted feasible.
    """
    params, rho = problem.params, problem.rho
    ratios, supported = _trivial_ratio_table(params, rho, problem.grid_t_a, problem.grid_t_b)
    capped = np.any((ratios < 0.0) | (ratios > 1.0), axis=1)
    feasible = ~capped & np.any(supported, axis=1)
    weights = EfficiencyWeights(
        lambda t_a, t_b: np.clip(_trivial_ratio_table(params, rho, t_a, t_b)[0], 0.0, 1.0))
    return TrivialWeightsResult(
        weights=weights,
        raw_ratios=ratios,
        supported=supported,
        capped=capped,
        feasible=feasible,
    )


def _objective_value(gaps: np.ndarray, objective: str) -> float:
    if objective == "match_qm":
        return float(np.max(np.abs(gaps)))
    return float(max(0.0, np.max(gaps)))


def _on_bounds(a: np.ndarray) -> np.ndarray:
    """a clipped to [0, 1], with every entry within BOUND_SNAP of 0 or 1 put on it (-0.0 too)."""
    a = np.clip(a, 0.0, 1.0)
    a[a <= BOUND_SNAP] = 0.0
    a[a >= 1.0 - BOUND_SNAP] = 1.0
    return a


def fit_constant_weights(problem: FitProblem) -> FitResult:
    """Best constant weights for the problem objective at the target efficiency.

    Solves the linear program in (a1..a4, t): minimize t subject to
    mean(a) = eta, a_i in [0, 1], t >= 0 and P a / 4 - QM <= t at every grid
    point (plus QM - P a / 4 <= t for ``match_qm``), by one HiGHS solve
    through scipy's bundled binding with ``linprog``'s options (``linprog`` is
    the tests' oracle).  The rows are scaled by max |QM| so HiGHS sees O(1)
    coefficients.  HiGHS leaves rounding residue on the box bounds
    (0.9999999999999998 for a forced unit weight, 1e-15 where 0 is meant),
    so a weight within ``BOUND_SNAP`` of 0 or 1 is put on that bound, and
    the residual of sum(a) = 4 eta goes onto the interior weight
    (0 < a_i < 1) with the most room for it, onto a weight at a bound only
    when none is interior, and that weight is put back on a bound within
    ``BOUND_SNAP`` of it.  So every weight is 0, 1 or more than
    ``BOUND_SNAP`` from both, and mean(a) is eta to within ``BOUND_SNAP`` / 4
    and rounding.  The reported objective is re-evaluated on the returned
    weights, and ``iterations`` is the HiGHS simplex iteration count.
    """
    p, qm = problem.tables()
    total = 4.0 * problem.eta
    scale = float(np.max(np.abs(qm))) or 1.0
    rows = np.hstack([p / (4.0 * scale), -np.ones((len(qm), 1))])
    rhs = qm / scale
    if problem.objective == "match_qm":
        rows = np.vstack([rows, np.hstack([-rows[:, :4], rows[:, 4:]])])
        rhs = np.concatenate([rhs, -rhs])
    x, nit = _solve_lp(rows, rhs, total)
    a = _on_bounds(x[:4])
    # interior weights first; a weight at a bound takes the residual only when
    # none is interior, as when HiGHS returns a = 0 for eta = 1e-10
    residual = total - a.sum()
    room = (1.0 - a if residual > 0.0 else a) + ((a > 0.0) & (a < 1.0))
    a[int(np.argmax(room))] += residual
    weights = EfficiencyWeights.constant(*_on_bounds(a))
    table = _curve(problem.grid_t_a, problem.grid_t_b, p, qm, weights)
    return FitResult(
        weights=weights,
        achieved_eta=weights.total_efficiency(),
        max_abs_gap=_objective_value(table.gap, problem.objective),
        iterations=nit,
        table=table,
    )


def _solve_lp(rows, rhs, total):
    """(x, simplex iterations) of min x[4] s.t. rows @ x <= rhs, sum(x[:4]) = total, x in [0, 1]^4 x [0, inf).

    linprog's model (zeros dropped, column-wise) and options through scipy's HiGHS binding, with its bits;
    one HiGHS object per call, as fits run on the caller's threads.  A NaN, which HiGHS takes, raises ValueError.
    """
    from scipy.optimize._highspy import _core
    if np.isnan(rows).any() or np.isnan(rhs).any():
        raise ValueError("weight-fit linear program must not contain nan")
    col, row = np.nonzero(columns := np.vstack([rows, [1.0, 1.0, 1.0, 1.0, 0.0]]).T)
    lp, inf = _core.HighsLp(), _core.kHighsInf
    lp.num_col_, lp.num_row_ = 5, len(rhs) + 1
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = [0.0] * 4 + [1.0], [0.0] * 5, [1.0] * 4 + [inf]
    lp.row_lower_, lp.row_upper_ = np.append(np.full(len(rhs), -inf), total), np.append(rhs, total)
    sparse = lp.a_matrix_  # column-wise by default
    sparse.start_, sparse.index_, sparse.value_ = np.searchsorted(col, np.arange(6)), row, columns[col, row]
    highs, error = _core._Highs(), _core.HighsStatus.kError
    options = {"output_flag": False, "presolve": "off", "primal_feasibility_tolerance": 1e-10,
               "simplex_strategy": _core.simplex_constants.SimplexStrategy.kSimplexStrategyDual}
    status = _core.HighsModelStatus.kModelError  # of a model refused on entry, as linprog names it
    if all(highs.setOptionValue(*option) != error for option in options.items()) and highs.passModel(lp) != error:
        status = highs.getModelStatus() if highs.run() != error else _core.HighsModelStatus.kSolveError
    if status != _core.HighsModelStatus.kOptimal:
        raise RuntimeError(f"weight-fit linear program failed: HiGHS model status {highs.modelStatusToString(status)}")
    return np.array(highs.getSolution().col_value), highs.getInfo().simplex_iteration_count


@dataclass(frozen=True)
class CurveTable:
    """Sampled per-grid-point comparison of the QM and weighted-LRM curves.

    Every column has the broadcast shape of the grid (t_a, t_b), at least 1-D;
    ``p`` adds a last axis of four.
    """

    t_a: np.ndarray
    t_b: np.ndarray
    qm: np.ndarray
    lrm: np.ndarray
    p: np.ndarray           # (n, 4) joint probabilities P1..P4
    gap: np.ndarray         # signed lrm - qm
    columns = ("t_a", "qm", "lrm", "p1", "p2", "p3", "p4", "gap")

    def max_abs_gap(self) -> float:
        return _objective_value(self.gap, "match_qm")

    def max_excess(self) -> float:
        """Largest positive overshoot of the LRM above the QM curve."""
        return _objective_value(self.gap, "underbound_qm")


def evaluate_gap(params: OscillationParams, rho: RhoProfile, weights: EfficiencyWeights,
                 grid_t_a, grid_t_b) -> CurveTable:
    """Tabulate QM, weighted LRM, the four P_i and the signed gap on a grid.

    Time-dependent weights are evaluated once, at the caller's whole grid.
    A 1-D float grid is kept in the table as the caller's own array, not copied.
    """
    def kernel(t_a, t_b, a, p, qm, lrm, gap):
        _weighted_rate(_table_chunk(params, rho, t_a, t_b, p, qm), a, lrm)
        np.subtract(lrm, qm, out=gap)

    # a 1-D t_a keeps the table at least 1-D
    t_a, t_b, p, qm, lrm, gap = _on_chunks(kernel, params, np.atleast_1d(grid_t_a), grid_t_b,
                                           (4,), (), (), (), rows_at=weights._rows)
    return CurveTable(t_a=t_a, t_b=t_b, qm=qm, lrm=lrm, p=p, gap=gap)


def _curve(t_a, t_b, p, qm, weights: EfficiencyWeights) -> CurveTable:
    """The curve of any EfficiencyWeights on a 1-D grid's (P, qm), summed as evaluate_gap sums it."""
    lrm = np.empty_like(qm)
    _weighted_rate(p.T, weights._rows(t_a, t_b), lrm)
    return CurveTable(t_a=t_a, t_b=t_b, qm=qm, lrm=lrm, p=p, gap=lrm - qm)
