import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
from mesonbell.lrm import EfficiencyWeights, InadmissibleRhoError, RhoProfile, joint_probabilities, lrm_like_joint
from mesonbell.quantum import qm_like_joint, qm_unlike_joint

ZERO = RhoProfile.zero()
SAT_UP = RhoProfile.saturate_upper_short()
FIG3_WEIGHTS = (1.0, 0.13, 0.03, 0.04)

# t_a ranges (units of 1/gamma_s) on which each profile is admissible at t_b = 2 t_a;
# at other t_b = K t_a some of them are not, and those draws are assumed away
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


def test_problem_grid_is_one_axis_of_points():
    t_a, t_b = default_grid(KAON)
    # a 2-D grid is refused by name, before either solver sees it
    with pytest.raises(ValueError, match=r"grid must be 1-D, got t_a / t_b of shape \(2, 100\)"):
        FitProblem(KAON, ZERO, 0.3, t_a.reshape(2, 100), t_b.reshape(2, 100))
    # a scalar pair is one point, and both solvers treat it as the 1-point grid
    k = 50
    scalar = FitProblem(KAON, ZERO, 0.3, float(t_a[k]), float(t_b[k]))
    one_point = FitProblem(KAON, ZERO, 0.3, t_a[k:k + 1], t_b[k:k + 1])
    assert scalar.grid_t_a.shape == scalar.grid_t_b.shape == (1,)
    assert fit_constant_weights(scalar) == fit_constant_weights(one_point)
    trivial, expected = trivial_weights(scalar), trivial_weights(one_point)
    for name in ("raw_ratios", "supported", "capped", "feasible", "pointwise_eta"):
        assert np.array_equal(getattr(trivial, name), getattr(expected, name))
    assert np.array_equal(trivial.weights.values(t_a, t_b), expected.weights.values(t_a, t_b))


def test_trivial_weights_bmeson_has_feasible_window():
    problem = FitProblem.on_default_grid(BMESON, ZERO, 0.3)
    result = trivial_weights(problem)
    assert result.feasible.sum() > 0
    # exact reproduction wherever feasible
    table = evaluate_gap(BMESON, ZERO, result.weights,
                         problem.grid_t_a[result.feasible],
                         problem.grid_t_b[result.feasible])
    assert np.max(np.abs(table.gap)) < 1e-12


def test_trivial_weights_take_the_grid_shape_of_the_times():
    # inside the feasible window: a 2-D grid, and a (2, 1) x (3,) grid
    result = trivial_weights(FitProblem.on_default_grid(BMESON, ZERO, 0.3))
    g = BMESON.gamma_s
    square = np.linspace(1.0, 2.5, 16).reshape(4, 4) / g
    for t_a, t_b in [(square, 1.3 * square), (np.array([[1.0], [1.2]]) / g, np.array([1.3, 1.4, 1.5]) / g)]:
        grid = np.broadcast_shapes(t_a.shape, t_b.shape)
        values = result.weights.values(t_a, t_b)
        flat = result.weights.values(*(x.ravel() for x in np.broadcast_arrays(t_a, t_b)))
        assert values.shape == grid + (4,)
        assert values.reshape(-1, 4).tobytes() == flat.tobytes()
        assert np.max(np.abs(evaluate_gap(BMESON, ZERO, result.weights, t_a, t_b).gap)) <= 1e-12


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


def admissible_problem(species, rho, eta, objective, n, tb_factor):
    """The fit on n points of the profile's t_a range with t_b = tb_factor t_a, or no draw."""
    params = species_params(species)
    lo, hi = ADMISSIBLE_T_A[(species, rho)]
    t_a = np.linspace(lo, hi, n) / params.gamma_s
    problem = FitProblem(params, RhoProfile(rho), eta, t_a, tb_factor * t_a, objective)
    try:
        problem.tables()
    except InadmissibleRhoError:
        assume(False)
    return problem


fit_draws = given(species=st.sampled_from(["kaon", "bmeson"]),
                  rho=st.sampled_from(["zero", "saturate_upper_short", "saturate_lower_short"]),
                  eta=st.floats(0.0, 1.0, exclude_min=True),
                  objective=st.sampled_from(OBJECTIVES),
                  n=st.integers(2, 2000),
                  tb_factor=st.sampled_from([0.5, 2.0, 3.0]))


@settings(max_examples=60, deadline=None)
@fit_draws
# the presolved HiGHS solve stopped 4.3e-9 and 1.5e-9 relative above the bound here
@example(species="bmeson", rho="zero", eta=0.5240841533325432, objective="match_qm", n=1328, tb_factor=0.5)
@example(species="kaon", rho="saturate_upper_short", eta=0.33444069265835596, objective="match_qm",
         n=1947, tb_factor=0.5)
# the fit reports a gap of 2.168e-19 here, which p @ a / 4 - qm sums to 0.0
@example(species="bmeson", rho="zero", eta=0.4375, objective="underbound_qm", n=4, tb_factor=2.0)
def test_fit_is_lp_optimal_by_the_dual_certificate(species, rho, eta, objective, n, tb_factor):
    problem = admissible_problem(species, rho, eta, objective, n, tb_factor)
    result = fit_constant_weights(problem)
    a = np.array(result.weights.as_tuple())
    assert abs(a.mean() - eta) <= 1e-12 and abs(result.achieved_eta - eta) <= 1e-12
    assert np.all((a >= 0.0) & (a <= 1.0))
    p, qm = problem.tables()
    # summed in the order FitResult.max_abs_gap documents, that of evaluate_gap
    gaps = 0.25 * ((p[:, 0] * a[0] + p[:, 3] * a[3]) + (p[:, 1] * a[1] + p[:, 2] * a[2])) + 0.0 - qm
    value = np.max(np.abs(gaps)) if objective == "match_qm" else max(0.0, np.max(gaps))
    assert result.max_abs_gap == pytest.approx(value, rel=1e-12, abs=1e-300)
    assert_certified(problem, result)


def test_fit_is_certified_on_a_dense_kaon_grid():
    # the presolved HiGHS solve stopped 1.3e-7 relative above the bound here
    problem = FitProblem.on_default_grid(KAON, ZERO, 0.7, n=5000)
    assert_certified(problem, fit_constant_weights(problem))


@settings(max_examples=100, deadline=None)
@fit_draws
# the presolved HiGHS solve returned a4 = 1 - 4.4e-16 and a1 = 4.4e-16 here
@example(species="bmeson", rho="zero", eta=0.4304962777294131, objective="match_qm", n=280, tb_factor=3.0)
@example(species="bmeson", rho="zero", eta=0.37390388077430303, objective="match_qm", n=248, tb_factor=3.0)
# HiGHS returns a = 0 for a sum of 4e-10, so that residual must land on a weight at a bound
@example(species="bmeson", rho="zero", eta=1e-10, objective="match_qm", n=23, tb_factor=3.0)
def test_fitted_weights_lie_on_a_bound_or_clear_of_it(species, rho, eta, objective, n, tb_factor):
    a = np.array(fit_constant_weights(admissible_problem(species, rho, eta, objective, n, tb_factor))
                 .weights.as_tuple())
    assert not np.any((a > 0.0) & (a < fitting.BOUND_SNAP))
    assert not np.any((a > 1.0 - fitting.BOUND_SNAP) & (a < 1.0))
    assert abs(a.mean() - eta) <= 1e-12


@pytest.mark.parametrize("eta", [0.5, 0.6, 0.7])
def test_fit_reaches_the_optimum_where_descent_stopped_short(eta):
    # multi-start coordinate descent stopped 0.18-0.47 % above the optimum
    # here (5.673e-3 against 5.661e-3 at eta = 0.5)
    problem = FitProblem.on_default_grid(KAON, ZERO, eta)
    result = fit_constant_weights(problem)
    assert_certified(problem, result)
    if eta == 0.5:
        assert result.max_abs_gap < 5.665e-3


@pytest.mark.parametrize("params, rho", [(KAON, ZERO), (BMESON, ZERO), (KAON, SAT_UP)],
                         ids=["kaon-zero", "bmeson-zero", "kaon-saturate_upper_short"])
@pytest.mark.parametrize("tb_factor", [2.0, 0.5])
@pytest.mark.parametrize("objective", OBJECTIVES)
def test_reported_objective_has_the_bits_of_the_evaluated_gap(params, rho, tb_factor, objective):
    # the fit's max_gap and the gap column of its curve come from one sum;
    # p @ a / 4 - qm differed in the last bit for 6 of these 108 fits
    t_a, t_b = default_grid(params, tb_factor=tb_factor)
    for eta in np.arange(1, 10) / 10:
        result = fit_constant_weights(FitProblem(params, rho, float(eta), t_a, t_b, objective))
        gap = evaluate_gap(params, rho, result.weights, t_a, t_b).gap
        assert result.max_abs_gap == fitting._objective_value(gap, objective), eta


def test_trivial_weights_build_one_table_per_evaluation(monkeypatch):
    problem = FitProblem.on_default_grid(BMESON, ZERO, 0.3)
    result = trivial_weights(problem)

    # the ratios of a fit problem posed at the evaluated times
    reference = EfficiencyWeights(lambda t_a, t_b: np.clip(
        trivial_weights(FitProblem(BMESON, ZERO, 0.3, t_a, t_b)).raw_ratios, 0.0, 1.0))
    tables = fitting._tables
    builds = []

    def check(t_a, t_b):
        monkeypatch.setattr(fitting, "_tables", lambda *args: builds.append(args) or tables(*args))
        builds.clear()
        table = evaluate_gap(BMESON, ZERO, result.weights, t_a, t_b)
        # the row function builds one table; evaluate_gap builds its own columns in chunks
        assert len(builds) == 1
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
    # scalar times give one row of four
    k = 60
    assert np.array_equal(result.weights.values(t_a[k], t_b[k]), reference.values(t_a[k:k + 1], t_b[k:k + 1])[0])


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


@pytest.mark.parametrize("t_a, t_b, shape", [
    (1e-10, 2e-10, (1,)),
    (1e-10, np.linspace(1e-10, 5e-10, 7), (7,)),
    (np.linspace(1e-10, 5e-10, 7), 3e-10, (7,)),
    (np.linspace(1e-10, 5e-10, 6).reshape(2, 3), np.linspace(2e-10, 9e-10, 6).reshape(2, 3), (2, 3)),
    (np.linspace(1e-10, 3e-10, 3)[:, None], np.linspace(2e-10, 9e-10, 4), (3, 4)),
])
def test_curve_table_columns_take_the_broadcast_grid_shape(t_a, t_b, shape):
    table = evaluate_gap(KAON, ZERO, EfficiencyWeights.constant(*FIG3_WEIGHTS), t_a, t_b)
    for column in (table.t_a, table.t_b, table.qm, table.lrm, table.gap):
        assert column.shape == shape
    assert table.p.shape == shape + (4,)
    assert np.array_equal(table.t_a, np.broadcast_to(t_a, shape))
    assert np.array_equal(table.t_b, np.broadcast_to(t_b, shape))
    assert np.array_equal(table.qm, np.broadcast_to(qm_like_joint(KAON, t_a, t_b), shape))
    assert np.array_equal(table.gap, table.lrm - table.qm)
    # every other entry point returns the broadcast grid shape, and a float at two scalar times
    grid = np.broadcast_shapes(np.shape(t_a), np.shape(t_b))
    for joint in (qm_like_joint(KAON, t_a, t_b), qm_unlike_joint(KAON, t_a, t_b),
                  lrm_like_joint(KAON, ZERO, EfficiencyWeights.constant(*FIG3_WEIGHTS), t_a, t_b)):
        if grid:
            assert joint.shape == grid
        else:
            assert type(joint) is float
    assert joint_probabilities(KAON, ZERO, t_a, t_b).shape == grid + (4,)
    p, qm = fitting._tables(KAON, ZERO, t_a, t_b)
    assert p.shape == grid + (4,) and np.shape(qm) == grid and isinstance(qm, float) == (grid == ())


def test_evaluate_gap_matches_direct_weighted_sum():
    t_a, t_b = default_grid(KAON, n=25)
    w = EfficiencyWeights.constant(*FIG3_WEIGHTS)
    table = evaluate_gap(KAON, ZERO, w, t_a, t_b)
    assert_allclose(table.lrm, 0.25 * table.p @ np.array(FIG3_WEIGHTS), rtol=1e-14)
    assert_allclose(table.qm, qm_like_joint(KAON, t_a, t_b), rtol=1e-15)
