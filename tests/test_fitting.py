import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import linprog

from mesonbell import fitting
from mesonbell.constants import BMESON, KAON, species_params
from mesonbell.fitting import (
    OBJECTIVES,
    CurveTable,
    FitProblem,
    default_grid,
    evaluate_gap,
    fit_constant_weights,
    trivial_weights,
)
from mesonbell.lrm import EfficiencyWeights, RhoProfile
from mesonbell.quantum import qm_like_joint

ZERO = RhoProfile.zero()
SAT_UP = RhoProfile.saturate_upper_short()
FIG3_WEIGHTS = (1.0, 0.13, 0.03, 0.04)

# t_a ranges (units of 1/gamma_s, t_b = 2 t_a) on which each profile is admissible
ADMISSIBLE_T_A = {
    ("kaon", "zero"): (0.2, 5.0),
    ("kaon", "saturate_upper_short"): (0.2, 5.0),
    ("kaon", "saturate_lower_short"): (1.5, 5.0),
    ("bmeson", "zero"): (0.2, 5.0),
    ("bmeson", "saturate_upper_short"): (0.05, 1.0),
    ("bmeson", "saturate_lower_short"): (2.2, 3.2),
}


def lp_solution(problem):
    """The fit as a linear program in (a1..a4, t), solved by HiGHS.

    Row k reads s_k (P_k a / 4 - QM_k) <= t with s_k = +1, plus the rows
    with s_k = -1 for match_qm, divided by max |QM| (t in those units).
    Unscaled, or at HiGHS's default 1e-7 feasibility tolerances, its primal
    and dual solutions are off by up to ~4e-6 relative on the degenerate B
    problems (P1 = P3, P2 = P4) and ~4e-8 on saturated ones, which would
    loosen the dual bound below.  Returns (res, scale, s, P rows, QM rows).
    """
    p, qm = problem.tables()
    n = len(qm)
    scale = float(np.max(np.abs(qm)))
    signs = np.repeat([1.0, -1.0], n) if problem.objective == "match_qm" else np.ones(n)
    p_rows, qm_rows = np.tile(p, (len(signs) // n, 1)), np.tile(qm, len(signs) // n)
    a_ub = np.hstack([signs[:, None] * p_rows / (4.0 * scale), -np.ones((len(signs), 1))])
    res = linprog(c=[0, 0, 0, 0, 1], A_ub=a_ub, b_ub=signs * qm_rows / scale,
                  A_eq=[[1, 1, 1, 1, 0]], b_eq=[4.0 * problem.eta],
                  bounds=[(0, 1)] * 4 + [(0, None)], method="highs",
                  options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10})
    assert res.success
    return res, scale, signs, p_rows, qm_rows


def lp_optimum(problem):
    """Independent oracle: the max-norm fit is a linear program."""
    res, scale, *_ = lp_solution(problem)
    return res.fun * scale


def dual_bound(problem):
    """Weak-duality lower bound on the fit objective from the LP's row multipliers.

    For any y >= 0 with sum y = 1 and any feasible a,
    max_k s_k g_k(a) >= sum_k y_k s_k g_k(a) >= L(y), the minimum of that
    linear function over {a in [0, 1]^4, sum a = 4 eta}.  The minimum is a
    fractional knapsack (fill the smallest coefficients first), computed
    exactly here, so the bound holds whatever solver supplied y.
    """
    res, _, signs, p_rows, qm_rows = lp_solution(problem)
    y = np.maximum(-res.ineqlin.marginals, 0.0)
    if y.sum() == 0.0:
        return 0.0  # every objective is >= 0
    ys = signs * y / y.sum()
    coef, offset = ys @ p_rows / 4.0, ys @ qm_rows
    a, budget = np.zeros(4), 4.0 * problem.eta
    for i in np.argsort(coef):
        a[i] = min(1.0, budget)
        budget -= a[i]
    bound = float(coef @ a - offset)
    return max(0.0, bound) if problem.objective == "underbound_qm" else bound


def assert_certified(problem, result):
    bound = dual_bound(problem)
    assert result.max_abs_gap <= bound * (1.0 + 1e-9) + 1e-15


def test_default_grid():
    t_a, t_b = default_grid(KAON)
    assert len(t_a) == 200
    assert_allclose(t_a[0], 0.2 / KAON.gamma_s, rtol=1e-15)
    assert_allclose(t_a[-1], 5.0 / KAON.gamma_s, rtol=1e-15)
    assert_allclose(t_b, 2 * t_a, rtol=1e-15)


def test_problem_validation():
    t_a, t_b = default_grid(KAON)
    with pytest.raises(ValueError, match="efficiency"):
        FitProblem(KAON, ZERO, 0.0, t_a, t_b)
    with pytest.raises(ValueError, match="efficiency"):
        FitProblem(KAON, ZERO, 1.5, t_a, t_b)
    with pytest.raises(ValueError, match="objective"):
        FitProblem(KAON, ZERO, 0.3, t_a, t_b, "least_squares")
    with pytest.raises(ValueError, match="grid"):
        FitProblem(KAON, ZERO, 0.3, np.array([]), np.array([]))


def test_trivial_weights_bmeson_has_feasible_window():
    problem = FitProblem.on_default_grid(BMESON, ZERO, 0.3)
    result = trivial_weights(problem)
    assert result.feasible.sum() > 0
    # exact reproduction wherever feasible
    table = evaluate_gap(BMESON, ZERO, result.weights,
                         problem.grid_t_a[result.feasible],
                         problem.grid_t_b[result.feasible])
    assert np.max(np.abs(table.gap)) < 1e-12


def test_trivial_weights_raw_ratio_identity():
    # wherever all four joints have support, (1/4) sum r_i P_i == QM even if
    # some ratio exceeds the box (those points are flagged, not hidden)
    for params in (KAON, BMESON):
        problem = FitProblem.on_default_grid(params, ZERO, 0.3)
        result = trivial_weights(problem)
        p, qm = problem.tables()
        full = result.supported.all(axis=1)
        assert full.sum() > 0
        recon = 0.25 * np.sum(result.raw_ratios[full] * p[full], axis=1)
        assert_allclose(recon, qm[full], rtol=1e-12)


def test_trivial_weights_kaon_is_capped_everywhere():
    # with unequal widths the doubly-short-suppressed P3 stays below QM on
    # the whole standard grid, so the kaon trivial assignment never fits the
    # box; the diagnostics must say so rather than silently clipping
    problem = FitProblem.on_default_grid(KAON, ZERO, 0.3)
    result = trivial_weights(problem)
    assert result.feasible.sum() == 0
    assert result.capped.sum() > 0
    capped = list(result.capped_points())
    assert len(capped) == int(result.capped.sum())
    t_a, t_b, ratios = capped[0]
    assert t_b == pytest.approx(2 * t_a)
    assert np.max(ratios) > 1.0


def test_trivial_weights_zero_support_rescaling():
    # saturated rho kills P1, P3, P4; the whole load lands on a2 = 4 QM / P2
    problem = FitProblem.on_default_grid(KAON, SAT_UP, 0.3)
    result = trivial_weights(problem)
    p, qm = problem.tables()
    assert np.array_equal(result.supported[:, [0, 2, 3]],
                          np.zeros((len(qm), 3), dtype=bool))
    feasible = result.feasible
    assert feasible.sum() > 0
    k = int(np.flatnonzero(feasible)[0])
    assert_allclose(result.raw_ratios[k, 1], 4.0 * qm[k] / p[k, 1], rtol=1e-13)
    table = evaluate_gap(KAON, SAT_UP, result.weights,
                         problem.grid_t_a[feasible], problem.grid_t_b[feasible])
    assert np.max(np.abs(table.gap)) < 1e-12


def test_trivial_ratios_are_non_negative_near_the_diagonal():
    # t_b = t_a (1 + delta), delta log-uniform in [1e-12, 1e-1], where the
    # like-flavor QM joint is tiny but every P_i is still a probability
    rng = np.random.default_rng(2)
    t_a = rng.uniform(0.0, 3.0, 2000) / KAON.gamma_s
    t_b = t_a * (1.0 + 10.0 ** rng.uniform(-12.0, -1.0, 2000))
    problem = FitProblem(KAON, ZERO, 0.5, t_a, t_b)
    p, _ = problem.tables()
    assert np.all(p >= 0.0)
    assert np.all(trivial_weights(problem).raw_ratios >= 0.0)


def test_trivial_weights_pointwise_eta_reported():
    problem = FitProblem.on_default_grid(BMESON, ZERO, 0.3)
    result = trivial_weights(problem)
    clipped = np.clip(result.raw_ratios, 0.0, 1.0)
    assert_allclose(result.pointwise_eta, clipped.mean(axis=1), rtol=1e-15)


def test_fit_full_efficiency_forces_unit_weights():
    problem = FitProblem.on_default_grid(KAON, ZERO, 1.0, n=50)
    result = fit_constant_weights(problem)
    assert result.weights.as_tuple() == (1.0, 1.0, 1.0, 1.0)
    p, qm = problem.tables()
    assert_allclose(result.max_abs_gap, np.max(np.abs(p.sum(axis=1) / 4 - qm)), rtol=1e-15)


def test_fit_constraint_satisfaction_and_budget():
    problem = FitProblem.on_default_grid(KAON, ZERO, 0.3)
    result = fit_constant_weights(problem)
    weights = np.array(result.weights.as_tuple())
    assert abs(weights.mean() - 0.3) < 1e-9
    assert np.all((weights >= 0.0) & (weights <= 1.0))
    assert abs(result.achieved_eta - 0.3) < 1e-9
    assert result.iterations <= 100_000


def test_fit_is_deterministic():
    problem = FitProblem.on_default_grid(KAON, ZERO, 0.3)
    r1 = fit_constant_weights(problem)
    r2 = fit_constant_weights(FitProblem.on_default_grid(KAON, ZERO, 0.3))
    assert r1.weights.as_tuple() == r2.weights.as_tuple()
    assert r1.max_abs_gap == r2.max_abs_gap
    assert r1.iterations == r2.iterations


def test_fit_beats_fig3_preset_and_reaches_lp_optimum():
    problem = FitProblem.on_default_grid(KAON, ZERO, 0.3)
    preset_gap = evaluate_gap(KAON, ZERO, EfficiencyWeights.constant(*FIG3_WEIGHTS),
                              problem.grid_t_a, problem.grid_t_b).max_abs_gap()
    result = fit_constant_weights(problem)
    assert result.max_abs_gap <= preset_gap
    lp = lp_optimum(problem)
    assert result.max_abs_gap >= lp - 1e-12
    assert result.max_abs_gap <= lp + 1e-8


def test_fit_bmeson_matches_lp():
    problem = FitProblem.on_default_grid(BMESON, ZERO, 0.3)
    result = fit_constant_weights(problem)
    lp = lp_optimum(problem)
    assert result.max_abs_gap <= lp + 1e-8


def test_fit_underbound_objective():
    problem = FitProblem.on_default_grid(KAON, SAT_UP, 0.3, objective="underbound_qm")
    preset = EfficiencyWeights.constant(0.5, 0.13, 0.5, 0.07)
    preset_excess = evaluate_gap(KAON, SAT_UP, preset,
                                 problem.grid_t_a, problem.grid_t_b).max_excess()
    result = fit_constant_weights(problem)
    assert 0.0 <= result.max_abs_gap <= preset_excess
    weights = np.array(result.weights.as_tuple())
    assert abs(weights.mean() - 0.3) < 1e-9


@settings(max_examples=60, deadline=None)
@given(species=st.sampled_from(["kaon", "bmeson"]),
       rho=st.sampled_from(["zero", "saturate_upper_short", "saturate_lower_short"]),
       eta=st.floats(0.0, 1.0, exclude_min=True),
       objective=st.sampled_from(OBJECTIVES))
def test_fit_is_lp_optimal_by_the_dual_certificate(species, rho, eta, objective):
    params = species_params(species)
    lo, hi = ADMISSIBLE_T_A[(species, rho)]
    t_a = np.linspace(lo, hi, 120) / params.gamma_s
    problem = FitProblem(params, RhoProfile(rho), eta, t_a, 2.0 * t_a, objective)
    result = fit_constant_weights(problem)
    a = np.array(result.weights.as_tuple())
    assert abs(a.mean() - eta) <= 1e-12 and abs(result.achieved_eta - eta) <= 1e-12
    assert np.all((a >= 0.0) & (a <= 1.0))
    p, qm = problem.tables()
    gaps = p @ a / 4.0 - qm
    value = np.max(np.abs(gaps)) if objective == "match_qm" else max(0.0, np.max(gaps))
    assert result.max_abs_gap == pytest.approx(value, rel=1e-12, abs=1e-300)
    assert_certified(problem, result)


@pytest.mark.parametrize("eta", [0.5, 0.6, 0.7])
def test_fit_reaches_the_optimum_where_descent_stopped_short(eta):
    # multi-start coordinate descent stopped 0.18-0.47 % above the optimum
    # here (5.673e-3 against 5.661e-3 at eta = 0.5)
    problem = FitProblem.on_default_grid(KAON, ZERO, eta)
    result = fit_constant_weights(problem)
    assert_certified(problem, result)
    if eta == 0.5:
        assert result.max_abs_gap < 5.665e-3


def test_trivial_weights_build_one_table_per_evaluation(monkeypatch):
    problem = FitProblem.on_default_grid(BMESON, ZERO, 0.3)
    result = trivial_weights(problem)

    def alone(i):  # each weight building its own table
        return lambda t_a, t_b: np.clip(
            fitting._trivial_ratio_table(BMESON, ZERO, t_a, t_b)[0][..., i], 0.0, 1.0)

    reference = EfficiencyWeights(*(alone(i) for i in range(4)))
    tables = fitting._tables
    builds = []

    def check(t_a, t_b):
        monkeypatch.setattr(fitting, "_tables", lambda *args: builds.append(args) or tables(*args))
        builds.clear()
        table = evaluate_gap(BMESON, ZERO, result.weights, t_a, t_b)
        assert len(builds) == 2
        monkeypatch.setattr(fitting, "_tables", tables)
        expected = evaluate_gap(BMESON, ZERO, reference, t_a, t_b)
        assert np.array_equal(table.gap, expected.gap)
        assert np.array_equal(table.lrm, expected.lrm)

    t_a, t_b = problem.grid_t_a.copy(), problem.grid_t_b.copy()
    check(t_a, t_b)
    check(t_a[50:90], t_b[50:90])
    check(t_a, t_b)
    t_a *= 1.1  # same array objects, new times
    check(t_a, t_b)
    # scalar times give a float
    assert result.weights.a3(t_a[60], t_b[60]) == reference.a3(t_a[60], t_b[60])[0]


def test_evaluate_gap_table():
    t_a, t_b = default_grid(KAON, n=10)
    table = evaluate_gap(KAON, ZERO, EfficiencyWeights.uniform(0.0), t_a, t_b)
    assert isinstance(table, CurveTable)
    assert np.all(table.lrm == 0.0)
    assert_allclose(table.gap, -table.qm, rtol=1e-15)
    assert table.p.shape == (10, 4)
    assert table.t_a[0] * KAON.gamma_s == pytest.approx(0.2, rel=1e-12)
    assert table.t_a.shape == table.qm.shape == table.lrm.shape == table.gap.shape == (10,)
    assert len(CurveTable.columns) == 8


def test_evaluate_gap_matches_direct_weighted_sum():
    t_a, t_b = default_grid(KAON, n=25)
    w = EfficiencyWeights.constant(*FIG3_WEIGHTS)
    table = evaluate_gap(KAON, ZERO, w, t_a, t_b)
    assert_allclose(table.lrm, 0.25 * table.p @ np.array(FIG3_WEIGHTS), rtol=1e-14)
    assert_allclose(table.qm, qm_like_joint(KAON, t_a, t_b), rtol=1e-15)
