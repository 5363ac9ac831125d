import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mesonbell.constants import BMESON, KAON, OscillationParams
from mesonbell.fitting import FitProblem, default_grid, evaluate_gap, trivial_weights
from mesonbell.lrm import (
    HIDDEN_STATES,
    INITIAL_PAIRS,
    EfficiencyWeights,
    InadmissibleRhoError,
    RhoProfile,
    TimeOrderingError,
    WeightRangeError,
    _q,
    joint_probabilities,
    lrm_like_joint,
    p21_conditional,
    p43_conditional,
    q_minus,
    q_plus,
    rho_bounds,
    survival,
)
from mesonbell.quantum import qm_like_joint

G = KAON.gamma_s
ZERO = RhoProfile.zero()
SAT_UP = RhoProfile.saturate_upper_short()
SAT_LO = RhoProfile.saturate_lower_short()


def initial_flips(params, rho, t):
    """p21(t|0) = E_S Q- - rho and p43(t|0) = E_L Q- + rho, the published form."""
    qm, r = q_minus(params, t), rho.value(params, t)
    return survival(params, "short", t) * qm - r, survival(params, "long", t) * qm + r


def test_hidden_state_table():
    assert [(s.cp, s.strangeness) for s in HIDDEN_STATES] == [
        (+1, +1), (+1, -1), (-1, +1), (-1, -1)]
    # initial configurations pair opposite CP and opposite strangeness
    for left, right in INITIAL_PAIRS:
        assert left.cp == -right.cp
        assert left.strangeness == -right.strangeness


def test_survival_values():
    assert survival(KAON, "short", 0.0) == 1.0
    assert_allclose(survival(KAON, "short", 1 / G), np.exp(-1.0), rtol=1e-15)
    assert_allclose(survival(KAON, "long", 1 / G), np.exp(-KAON.gamma_l / G), rtol=1e-15)
    assert_allclose(survival(KAON, "long", 1 / G), 0.99827, atol=5e-6)
    with pytest.raises(ValueError):
        survival(KAON, "medium", 0.0)
    with pytest.raises(ValueError):
        survival(KAON, "short", -1.0)


@pytest.mark.parametrize("params", (KAON, BMESON), ids=lambda p: p.species)
def test_q_functions(params):
    assert q_plus(params, 0.0) == 1.0
    assert q_minus(params, 0.0) == 0.0
    t_quarter = 0.5 * np.pi / params.delta_m
    assert_allclose(q_plus(params, t_quarter), 0.5, atol=1e-12)
    assert_allclose(q_minus(params, t_quarter), 0.5, atol=1e-12)
    t = np.linspace(0.0, 12.0, 400) / params.gamma_s
    qp, qm = q_plus(params, t), q_minus(params, t)
    assert np.all((qp >= 0.0) & (qp <= 1.0) & (qm >= 0.0) & (qm <= 1.0))
    assert_allclose(qp + qm, 1.0, atol=1e-14)


def test_q_bmeson_half_period():
    t = np.pi / BMESON.delta_m
    assert q_plus(BMESON, t) == 0.0
    assert q_minus(BMESON, t) == 1.0


def test_q_general_path_matches_equal_width_path():
    g, dm = 0.646e12, 0.472e12
    t = np.linspace(0.01, 8.0, 100) / g
    equal = OscillationParams("bmeson", gamma_s=g, gamma_l=g, delta_m=dm)
    for sign in (-1.0, +1.0):
        # equal widths: the prefactor is identically one
        q_equal = 0.5 * (1.0 + sign * np.cos(dm * t))
        assert_allclose(_q(equal, t, sign), q_equal, rtol=1e-12)


def test_q_stays_finite_at_late_times():
    # E_L and E_S both underflow past gamma_l t ~ 745
    t = np.logspace(-3.0, 4.0, 400) / KAON.gamma_l
    qp, qm = q_plus(KAON, t), q_minus(KAON, t)
    assert np.all(np.isfinite(qp)) and np.all(np.isfinite(qm))
    assert np.all((qp >= 0.0) & (qp <= 1.0) & (qm >= 0.0) & (qm <= 1.0))


def test_zero_rho_admissible_at_late_times():
    # value() raises InadmissibleRhoError unless both flip fractions are in [0, 1]
    assert RhoProfile.zero().value(KAON, 1e-4) == 0.0
    assert np.isfinite(p21_conditional(KAON, ZERO, 0.0, 1e-4))
    assert np.isfinite(p43_conditional(KAON, ZERO, 0.0, 1e-4))


def test_q_general_matches_the_survival_ratio_form():
    # the original prefactor 2 sqrt(E_L E_S) / (E_L + E_S), where it is defined
    gs, gl, dm = KAON.gamma_s, KAON.gamma_l, KAON.delta_m
    t = np.linspace(0.0, 700.0, 20001) / gl
    e_s, e_l = np.exp(-gs * t), np.exp(-gl * t)
    prefactor = 2.0 * np.sqrt(e_l * e_s) / (e_l + e_s)
    for sign in (-1.0, +1.0):
        old = 0.5 * (1.0 + sign * prefactor * np.cos(dm * t))
        assert_allclose(_q(KAON, t, sign), old, rtol=0.0, atol=1e-15)


def test_rho_bounds_at_production():
    lo, up = rho_bounds(KAON, 0.0)
    assert lo == 0.0 and up == 0.0


def test_rho_bounds_lower_zero_has_no_sign_bit():
    # Q- = 0 at t = 0 and, for the B meson, at delta_m t = 2 pi, where -E_L Q- is -0.0;
    # for the B meson Q+ = 0 at delta_m t = pi, where -E_S Q+ is -0.0
    period = 2 * np.pi / BMESON.delta_m
    for params, t in ((KAON, 0.0), (BMESON, period)):
        lo, up = rho_bounds(params, t)
        assert (lo, up) == (0.0, 0.0) and not np.signbit(lo)
    t = np.array([0.0, 1 / G, period, 0.5 * period])
    for params, zeros in ((KAON, [True, False, False, False]), (BMESON, [True, False, True, True])):
        lo, _ = rho_bounds(params, t)
        assert np.array_equal(lo == 0.0, zeros) and not np.signbit(lo[lo == 0.0]).any()


def test_rho_bounds_contain_zero_and_match_direct_expressions():
    t = np.linspace(0.0, 10.0, 500) / G
    lo, up = rho_bounds(KAON, t)
    assert np.all(lo <= 0.0) and np.all(up >= 0.0)
    e_s, e_l = np.exp(-KAON.gamma_s * t), np.exp(-KAON.gamma_l * t)
    qp, qm = q_plus(KAON, t), q_minus(KAON, t)
    assert_allclose(lo, np.maximum(-e_s * qp, -e_l * qm), rtol=1e-15)
    assert_allclose(up, np.minimum(e_s * qm, e_l * qp), rtol=1e-15)


def test_rho_bounds_quarter_period_structure():
    t = 0.5 * np.pi / KAON.delta_m
    lo, up = rho_bounds(KAON, t)
    e_min = min(np.exp(-KAON.gamma_s * t), np.exp(-KAON.gamma_l * t))
    assert_allclose(lo, -e_min / 2, rtol=1e-12)
    assert_allclose(up, e_min / 2, rtol=1e-12)


def two_call_q(params, t, sign):
    """Q+ or Q- as one evaluation per sign: (1 + sech * (sign cos)) / 2."""
    decay = np.exp(-0.5 * abs(params.gamma_s - params.gamma_l) * t)
    q = 2.0 * decay
    q /= 1.0 + decay * decay
    q *= sign * np.cos(params.delta_m * t)
    q += 1.0
    q *= 0.5
    return q


@pytest.mark.parametrize("params", (KAON, BMESON), ids=lambda p: p.species)
def test_q_plus_and_minus_have_the_bits_of_one_evaluation_per_sign(params):
    rng = np.random.default_rng(11)
    t = np.concatenate([[0.0], rng.uniform(0.0, 40.0, 4000), rng.uniform(0.0, 2.0, 4000)]) / params.gamma_s
    qp, qm = two_call_q(params, t, +1.0), two_call_q(params, t, -1.0)
    assert q_plus(params, t).tobytes() == qp.tobytes()
    assert q_minus(params, t).tobytes() == qm.tobytes()
    e_s, e_l = np.exp(-params.gamma_s * t), np.exp(-params.gamma_l * t)
    lo, up = rho_bounds(params, t)
    assert lo.tobytes() == (np.maximum(-e_s * qp, -e_l * qm) + 0.0).tobytes()
    assert up.tobytes() == np.minimum(e_s * qm, e_l * qp).tobytes()
    w2, w4 = SAT_LO._fractions(params, t)
    assert w2.tobytes() == np.ones_like(t).tobytes()
    assert w4.tobytes() == (qm - qp * np.exp(-(params.gamma_s - params.gamma_l) * t)).tobytes()


def test_zero_profile_always_admissible():
    t = np.linspace(0.0, 50.0, 200) / G
    assert np.all(np.asarray(ZERO.value(KAON, t)) == 0.0)
    assert ZERO.value(KAON, 500.0 / G) == 0.0


def test_saturating_profile_values():
    t = 1.3 / G
    assert_allclose(SAT_UP.value(KAON, t),
                    survival(KAON, "short", t) * q_minus(KAON, t), rtol=1e-15)
    # no overflow far into the tail: the scaled fractions are analytic
    assert p21_conditional(KAON, SAT_UP, 0.0, 500.0 / G) == 0.0


def test_saturate_lower_inadmissible_at_small_times():
    with pytest.raises(InadmissibleRhoError) as err:
        SAT_LO.value(KAON, 1 / G)
    assert err.value.t == 1 / G
    # the message names the rejected value beside the bounds: rho(0) = -1 against [0, 0]
    with pytest.raises(InadmissibleRhoError) as err:
        SAT_LO.value(KAON, 0.0)
    assert str(err.value) == ("rho profile inadmissible at t=0.0 s: "
                              "value -1.000000e+00 outside [0.000000e+00, 0.000000e+00]")
    # beyond the crossing the same profile becomes admissible
    assert SAT_LO.value(KAON, 3 / G) == pytest.approx(
        -float(survival(KAON, "short", 3 / G) * q_plus(KAON, 3 / G)))


def test_saturate_upper_inadmissible_for_equal_widths_where_qminus_dominates():
    t = np.pi / BMESON.delta_m       # Q- = 1 > Q+ = 0
    with pytest.raises(InadmissibleRhoError):
        SAT_UP.value(BMESON, t)
    # fine while Q- <= Q+
    SAT_UP.value(BMESON, 0.2 * np.pi / BMESON.delta_m)


def test_tabulated_profile_interpolation_and_admissibility():
    knot_t = np.linspace(0.0, 5.0, 9) / G
    lo, up = rho_bounds(KAON, knot_t)
    vals = 0.5 * np.asarray(up)
    profile = RhoProfile.tabulated(list(zip(knot_t, vals)))
    t = 2.3 / G
    assert_allclose(profile.value(KAON, t), np.interp(t, knot_t, vals), rtol=1e-15)
    # a knot outside the bounds is rejected with the offending time
    bad = RhoProfile.tabulated([(0.0, 0.0), (1 / G, float(2 * up[1]) + 1e-3)])
    with pytest.raises(InadmissibleRhoError):
        bad.value(KAON, 1 / G)


def test_tabulated_profile_must_start_at_zero():
    profile = RhoProfile.tabulated([(0.0, 0.05), (1 / G, 0.0)])
    with pytest.raises(InadmissibleRhoError) as err:
        profile.value(KAON, 0.0)
    assert err.value.t == 0.0


def test_tabulated_overflow_guard_rejects_instead_of_overflowing():
    # a tail knot value far above the collapsed envelope implies a flip
    # fraction of e^{+gamma_s t} scale; it must reject, not overflow
    profile = RhoProfile.tabulated([(0.0, 0.0), (900 / G, 1e-3)])
    with pytest.raises(InadmissibleRhoError):
        p21_conditional(KAON, profile, 0.0, 450.0 / G)


def test_profile_construction_validation():
    with pytest.raises(ValueError, match=re.escape(str(RhoProfile._KINDS))):
        RhoProfile("squiggly")
    with pytest.raises(ValueError):
        RhoProfile.tabulated([(0.0, 0.0)])
    for knots in (None, 5, [[1], [2]], [[None, 0], [1, 0]], [["t", 0], [1, 0]]):
        with pytest.raises(ValueError):
            RhoProfile("tabulated", knots)
    # a non-finite knot value is named as such, not as an inadmissible rho at evaluation
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^knot values must be finite$"):
            RhoProfile.tabulated([(0.0, 0.0), (1e-10, value)])
    with pytest.raises(ValueError):
        RhoProfile.tabulated([(1.0, 0.0), (0.5, 0.0)])
    with pytest.raises(ValueError):
        RhoProfile("zero", knots=((0.0, 0.0), (1.0, 0.0)))
    # knots from any sequence of pairs are stored as float pairs, whichever constructor is used
    assert RhoProfile("tabulated", [[0, 0], [1e-9, 1]]) == RhoProfile.tabulated(((0.0, 0.0), (1e-9, 1.0)))
    assert RhoProfile("tabulated", np.array([[0, 0], [1e-9, 1]])).knots == ((0.0, 0.0), (1e-9, 1.0))


def test_initial_flip_probabilities():
    t = 1 / G
    e_s = survival(KAON, "short", t)
    e_l = survival(KAON, "long", t)
    qm = q_minus(KAON, t)
    # every admissible rho has w2(0) = w4(0) = 0, so the flips from
    # production are the conditionals from t_a = 0
    assert_allclose(p21_conditional(KAON, ZERO, 0.0, t), e_s * qm, rtol=1e-14)
    assert_allclose(p43_conditional(KAON, ZERO, 0.0, t), e_l * qm, rtol=1e-14)
    rho = SAT_UP.value(KAON, t)
    assert p21_conditional(KAON, SAT_UP, 0.0, t) == 0.0
    assert_allclose(p43_conditional(KAON, SAT_UP, 0.0, t), e_l * qm + rho, rtol=1e-12)
    assert p21_conditional(KAON, ZERO, 0.0, 0.0) == 0.0
    assert p43_conditional(KAON, ZERO, 0.0, 0.0) == 0.0


def test_conditionals_vanish_at_equal_times():
    for t in (0.0, 0.7 / G, 3.1 / G):
        assert p21_conditional(KAON, ZERO, t, t) == 0.0
        assert p43_conditional(KAON, SAT_UP, t, t) == 0.0


def test_conditional_from_production_equals_initial():
    t = 1.7 / G
    p21, p43 = initial_flips(KAON, ZERO, t)
    assert_allclose(p21_conditional(KAON, ZERO, 0.0, t), p21, rtol=1e-12)
    assert_allclose(p43_conditional(KAON, ZERO, 0.0, t), p43, rtol=1e-12)


def test_conditional_requires_time_order():
    with pytest.raises(TimeOrderingError):
        p21_conditional(KAON, ZERO, 2 / G, 1 / G)
    with pytest.raises(TimeOrderingError):
        p43_conditional(KAON, ZERO, 2 / G, 1 / G)
    # the joints relabel the sides instead: configurations 1<->4, 2<->3
    assert np.array_equal(joint_probabilities(KAON, ZERO, 2 / G, 1 / G),
                          joint_probabilities(KAON, ZERO, 1 / G, 2 / G)[::-1])


def test_conditional_flips_run_in_chunks():
    # one warm call on 1e6 pairs holds its 8 MB output plus a few chunks'
    # temporaries, not whole-grid temporaries
    t_a = np.linspace(0.2, 5.0, 1_000_000) / G
    t_b = 2.0 * t_a
    expected = p21_conditional(KAON, ZERO, t_a, t_b)
    tracemalloc.start()
    try:
        got = p21_conditional(KAON, ZERO, t_a, t_b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, expected)
    assert peak < 12 * 2**20


def test_conditional_matches_published_form():
    # cross-check the factored evaluation against the literal
    # E_S^{-1}(ta) [p21(tb|0) - p21(ta|0) E_S(tb-ta)] expression
    t_a, t_b = 0.8 / G, 2.1 / G
    for rho, branch, p_cond, gamma in (
        (ZERO, 0, p21_conditional, KAON.gamma_s),
        (ZERO, 1, p43_conditional, KAON.gamma_l),
        (SAT_UP, 1, p43_conditional, KAON.gamma_l),
    ):
        p_init = [initial_flips(KAON, rho, t)[branch] for t in (t_a, t_b)]
        literal = (p_init[1] - p_init[0] * np.exp(-gamma * (t_b - t_a))) / np.exp(-gamma * t_a)
        assert_allclose(p_cond(KAON, rho, t_a, t_b), literal, rtol=1e-10)


def test_conditionals_turn_negative_past_the_oscillation_turnover():
    # the simplified model loses positivity once cos(dm t) outruns the decay
    # envelope; these pins document the validity boundary
    assert p21_conditional(KAON, ZERO, 4 / G, 8 / G) < 0.0
    assert p43_conditional(KAON, SAT_UP, 5 / G, 10 / G) < 0.0
    b_turn = 2.0 * np.pi / BMESON.delta_m
    assert p21_conditional(BMESON, RhoProfile.zero(), 0.45 * b_turn, 0.9 * b_turn) < 0.0


def test_saturation_collapses_three_joints_exactly():
    u = np.linspace(0.2, 5.0, 50)
    p = joint_probabilities(KAON, SAT_UP, u / G, 2 * u / G)
    assert np.all(p[:, 0] == 0.0)
    assert np.all(p[:, 2] == 0.0)
    assert np.all(p[:, 3] == 0.0)
    # P2 collapses to E_S E_L p43(tb|ta)
    t_a = 1 / G
    expected = (survival(KAON, "short", t_a) * survival(KAON, "long", t_a)
                * p43_conditional(KAON, SAT_UP, t_a, 2 * t_a))
    assert_allclose(joint_probabilities(KAON, SAT_UP, t_a, 2 * t_a)[1], expected, rtol=1e-14)


def mp_joints_rho_zero(params, t_a, t_b):
    """P1..P4 for rho = 0 (w2 = w4 = Q-) from the module-docstring formulas at 50 digits."""
    import mpmath as mp
    with mp.workdps(50):
        gs, gl, dm = (mp.mpf(v) for v in (params.gamma_s, params.gamma_l, params.delta_m))
        t_a, t_b = mp.mpf(t_a), mp.mpf(t_b)

        def q_minus(t):
            e_s, e_l = mp.exp(-gs * t), mp.exp(-gl * t)
            return (1 - 2 * mp.sqrt(e_l * e_s) / (e_l + e_s) * mp.cos(dm * t)) / 2

        w, step = q_minus(t_a), q_minus(t_b) - q_minus(t_a)
        p21, p43 = mp.exp(-gs * (t_b - t_a)) * step, mp.exp(-gl * (t_b - t_a)) * step
        first = mp.exp(-(gs + gl) * t_a)
        return [float(first * w * p43), float(first * (1 - w) * p43),
                float(first * w * p21), float(first * (1 - w) * p21)]


@pytest.mark.parametrize("params", (KAON, BMESON), ids=lambda p: p.species)
@pytest.mark.parametrize("u", (15.0, 18.0, 20.0, 30.0))
def test_late_time_joints_are_returned_as_computed(params, u):
    # every P_i here lies far below 1e-15, some are negative; none may read 0
    t_a = u / params.gamma_s
    p = joint_probabilities(params, ZERO, t_a, 2 * t_a)
    assert np.all(p != 0.0)
    # the kaon increment Q-(t_b) - Q-(t_a) is ~3e-7 of Q- at u = 30, so double
    # precision carries ~1e-9 relative error into every P_i there
    rtol = 1e-8 if (params is KAON and u == 30.0) else 1e-10
    assert_allclose(p, mp_joints_rho_zero(params, t_a, 2 * t_a), rtol=rtol, atol=0.0)


def test_dense_bmeson_rows_near_a_sign_change_match_mpmath():
    # rows 85409..85411 of the fig4 curve on 0.2:5:100000, where P2 and P4
    # pass through zero between -8.1e-16 and -4.4e-19
    t_a, t_b = default_grid(BMESON, n=100000, hi=5.0)
    t_a, t_b = t_a[85409:85412], t_b[85409:85412]
    p = joint_probabilities(BMESON, ZERO, t_a, t_b)
    exact = [mp_joints_rho_zero(BMESON, a, b) for a, b in zip(t_a, t_b)]
    assert np.all(p[:, [1, 3]] < 0.0)
    assert_allclose(p, exact, rtol=1e-4, atol=0.0)


def test_trivial_weights_support_follows_the_exact_sign():
    t_a, t_b = default_grid(BMESON, n=200, hi=20.0)
    result = trivial_weights(FitProblem(BMESON, ZERO, 0.5, t_a, t_b))
    exact = np.array([mp_joints_rho_zero(BMESON, a, b) for a, b in zip(t_a, t_b)])
    assert np.array_equal(result.supported, exact > 0.0)


def test_joints_vanish_at_equal_times():
    for t in (0.0, 1 / G, 2.6 / G):
        assert np.all(joint_probabilities(KAON, ZERO, t, t) == 0.0)


@pytest.mark.parametrize("params,window", ((KAON, 3.0), (BMESON, 2.0)), ids=lambda x: str(x))
def test_positivity_within_validity_window(params, window):
    # flip fractions grow monotonically this early, so all P_i >= 0 for the
    # closed-form profiles
    rng = np.random.default_rng(5)
    t = np.sort(rng.uniform(0.0, window, size=(300, 2)) / params.gamma_s, axis=1)
    p = joint_probabilities(params, RhoProfile.zero(), t[:, 0], t[:, 1])
    assert np.all(p >= 0.0)
    if params is KAON:
        p = joint_probabilities(params, SAT_UP, t[:, 0], t[:, 1])
        assert np.all(p >= 0.0)


def test_kaon_machinery_at_equal_widths_reproduces_bmeson():
    fake = OscillationParams("kaon", gamma_s=BMESON.gamma_s, gamma_l=BMESON.gamma_l,
                             delta_m=BMESON.delta_m)
    u = np.linspace(0.1, 3.0, 60)
    t_a, t_b = u / fake.gamma_s, 2 * u / fake.gamma_s
    assert_allclose(joint_probabilities(fake, ZERO, t_a, t_b),
                    joint_probabilities(BMESON, ZERO, t_a, t_b), rtol=1e-12)


def test_weight_validation():
    # the message shows the offending value as a plain float, not a numpy repr
    with pytest.raises(WeightRangeError, match=r"; got 1\.2$"):
        EfficiencyWeights.constant(1.2, 0.0, 0.0, 0.0)
    with pytest.raises(WeightRangeError, match=r"; got -0\.1$"):
        EfficiencyWeights.constant(-0.1, 0.5, 0.5, 0.5)
    with pytest.raises(WeightRangeError, match=r"; got nan$"):
        EfficiencyWeights.constant(0.5, float("nan"), 0.5, 0.5)
    w = EfficiencyWeights(lambda ta, tb: np.array([1.5, 0.0, 0.0, 0.0]))
    with pytest.raises(WeightRangeError, match=r"; got 1\.5$"):
        w.values(1 / G, 2 / G)

    def nan_a2(ta, tb):
        rows = np.full(np.shape(ta) + (4,), 0.5)
        rows[..., 1] = np.nan
        return rows

    with pytest.raises(WeightRangeError, match=r"; got nan$"):
        EfficiencyWeights(nan_a2).values(np.array([1 / G, 2 / G]), 2 / G)


def test_weights_are_four_numbers_or_one_row_function():
    def a1(ta, tb):
        return np.exp(-G * np.asarray(ta))

    message = r"^EfficiencyWeights takes four numbers a1\.\.a4 or one function rows\(t_a, t_b\)"
    for weights in [(a1, a1, a1, a1), (a1, 1.0, 1.0, 1.0), (0.5, 0.5, a1, 0.5),
                    (np.array([0.5, 0.5]), 0.5, 0.5, 0.5), (np.float64(0.5), 0.5, 0.5), ()]:
        with pytest.raises(TypeError, match=message):
            EfficiencyWeights(*weights)
    # constant() takes what the constructor takes: a string is no number
    with pytest.raises(TypeError, match=message):
        EfficiencyWeights.constant("0.5", 1, 1, 1)
    # numpy and integer numbers are numbers, kept as four floats
    w = EfficiencyWeights(np.float32(0.5), 1, np.float64(0.25), 0)
    assert w.as_tuple() == (0.5, 1.0, 0.25, 0.0) and all(type(x) is float for x in w.as_tuple())
    calls = []

    def rows(ta, tb):
        calls.append((ta, tb))
        return np.stack(np.broadcast_arrays(a1(ta, tb), 1.0, 1.0, 1.0), axis=-1)

    td = EfficiencyWeights(rows)
    t_a = np.linspace(1.0, 2.0, 5) / G
    for call in (lambda: td.values(t_a, 2 * t_a), lambda: lrm_like_joint(KAON, ZERO, td, t_a, 2 * t_a)):
        calls.clear()
        call()
        assert len(calls) == 1
    with pytest.raises(TypeError, match="time-dependent weights"):
        td.as_tuple()


@pytest.mark.parametrize("t_a, t_b, grid", [(1 / G, 2 / G, ()), (np.array([1 / G, 2 / G, 3 / G]), 4 / G, (3,))])
def test_a_weight_that_does_not_fit_the_grid_is_named(t_a, t_b, grid):
    # a row function returning two rows at any times
    weights = EfficiencyWeights(lambda ta, tb: np.full((2, 4), 0.5))
    message = (rf"^weight rows have shape \(2, 4\), which does not broadcast to {re.escape(str(grid + (4,)))}, "
               r"the time grid's shape plus a last axis of a1\.\.a4$")
    with pytest.raises(ValueError, match=message):
        lrm_like_joint(KAON, ZERO, weights, t_a, t_b)
    with pytest.raises(ValueError, match=message):
        weights.values(t_a, t_b)
    # rows that do fit the grid, one value for a whole axis included, are broadcast over it
    uniform = lrm_like_joint(KAON, ZERO, EfficiencyWeights.uniform(0.5), t_a, t_b)
    for shape in {grid + (4,), grid[:-1] + (1,)[:len(grid)] + (4,), grid + (1,), (4,)}:
        fits = EfficiencyWeights(lambda ta, tb: np.full(shape, 0.5))
        assert np.array_equal(lrm_like_joint(KAON, ZERO, fits, t_a, t_b), uniform)


def test_weight_values_and_total_efficiency():
    w = EfficiencyWeights.constant(1.0, 0.13, 0.03, 0.04)
    assert_allclose(w.values(0.0, 0.0), [1.0, 0.13, 0.03, 0.04], rtol=0)
    assert_allclose(w.total_efficiency(), 0.3, rtol=1e-15)
    td = EfficiencyWeights(lambda ta, tb: np.stack(np.broadcast_arrays(np.exp(-G * ta), 0.5, 0.5, 0.5), axis=-1))
    vals = td.values(1 / G, 2 / G)
    assert vals.shape == (4,)
    assert_allclose(vals, [np.exp(-1.0), 0.5, 0.5, 0.5], rtol=1e-15)
    assert w.as_tuple() == (1.0, 0.13, 0.03, 0.04)
    # at array times, the per-point mean in the grid's shape; a float at two scalar times
    t_a = np.array([[1.0], [2.0]]) / G
    t_b = np.array([2.0, 3.0, 4.0]) / G
    assert type(w.total_efficiency()) is float and type(td.total_efficiency(1 / G, 2 / G)) is float
    assert np.array_equal(w.total_efficiency(t_a, t_b), np.full((2, 3), w.total_efficiency()))
    assert_allclose(td.total_efficiency(t_a, t_b),
                    np.broadcast_to((np.exp(-G * t_a) + 1.5) / 4, (2, 3)), rtol=1e-15)


def test_lrm_like_joint_weighted_sum():
    t_a, t_b = 1 / G, 2 / G
    p = joint_probabilities(KAON, ZERO, t_a, t_b)
    w = EfficiencyWeights.constant(1.0, 0.13, 0.03, 0.04)
    assert_allclose(lrm_like_joint(KAON, ZERO, w, t_a, t_b),
                    0.25 * float(p @ np.array([1.0, 0.13, 0.03, 0.04])), rtol=1e-14)
    assert lrm_like_joint(KAON, ZERO, EfficiencyWeights.uniform(0.0), t_a, t_b) == 0.0


def test_lrm_unit_weights_saturated_equals_p2_quarter():
    t_a = 0.9 / G
    p2 = joint_probabilities(KAON, SAT_UP, t_a, 2 * t_a)[1]
    assert lrm_like_joint(KAON, SAT_UP, EfficiencyWeights.uniform(1.0), t_a, 2 * t_a) == p2 / 4.0


def test_lrm_symmetrization_swaps_configurations():
    w = EfficiencyWeights.constant(1.0, 0.13, 0.03, 0.04)
    w_rev = EfficiencyWeights.constant(0.04, 0.03, 0.13, 1.0)
    t_a, t_b = 2 / G, 1 / G
    assert lrm_like_joint(KAON, ZERO, w, t_a, t_b) == lrm_like_joint(KAON, ZERO, w_rev, t_b, t_a)
    # array input with mixed ordering
    ta = np.array([1.0, 2.0]) / G
    tb = np.array([2.0, 1.0]) / G
    out = lrm_like_joint(KAON, ZERO, w, ta, tb)
    assert_allclose(out[0], lrm_like_joint(KAON, ZERO, w, 1 / G, 2 / G), rtol=1e-15)
    assert_allclose(out[1], lrm_like_joint(KAON, ZERO, w_rev, 1 / G, 2 / G), rtol=1e-15)


# time pairs in units of 1/gamma_s, equal times included; one pair is passed
# as scalars, several as arrays that mix both time orders
_TIME_PAIRS = st.lists(st.tuples(st.floats(0.0, 6.0), st.floats(0.0, 6.0)), min_size=1, max_size=12)
_SPECIES = st.sampled_from([KAON, BMESON])
_PROFILES = st.sampled_from([ZERO, SAT_UP, SAT_LO])


def _times(params, pairs):
    t_a, t_b = (np.array(column) / params.gamma_s for column in zip(*pairs))
    return (float(t_a[0]), float(t_b[0])) if len(pairs) == 1 else (t_a, t_b)


@settings(max_examples=100, deadline=None)
@given(params=_SPECIES, rho=_PROFILES, pairs=_TIME_PAIRS)
def test_joint_probabilities_relabel_under_time_swap(params, rho, pairs):
    t_a, t_b = _times(params, pairs)
    try:
        forward = joint_probabilities(params, rho, t_a, t_b)
    except InadmissibleRhoError:
        # both orders evaluate rho at the same times
        with pytest.raises(InadmissibleRhoError):
            joint_probabilities(params, rho, t_b, t_a)
        return
    assert np.array_equal(forward, joint_probabilities(params, rho, t_b, t_a)[..., ::-1])


def _per_point(scale, i):
    # a weight in [0, 1] that is not symmetric in its two times
    return lambda t_a, t_b: scale * (0.5 + 0.5 * np.sin(G * np.asarray(t_a) - 3.0 * G * np.asarray(t_b) + i))


@settings(max_examples=100, deadline=None)
@given(params=_SPECIES, rho=_PROFILES, pairs=_TIME_PAIRS,
       a=st.tuples(*[st.floats(0.0, 1.0)] * 4), per_point=st.booleans())
def test_lrm_like_joint_swap_symmetry_with_reversed_weights(params, rho, pairs, a, per_point):
    # P_i at (t_a, t_b) is P_{5-i} at (t_b, t_a), so the rate with a1..a4 at (t_a, t_b) has the
    # bits of the rate with w_rev_i(x, y) = a_{5-i}(y, x) at (t_b, t_a): the pairs of terms
    # (a1 P1, a4 P4) and (a2 P2, a3 P3) swap within themselves, and adding two floats commutes
    t_a, t_b = _times(params, pairs)
    if per_point:
        funcs = [_per_point(scale, i) for i, scale in enumerate(a)]

        def f(x, y):
            return np.stack(np.broadcast_arrays(*(column(x, y) for column in funcs)), axis=-1)

        w, w_rev = EfficiencyWeights(f), EfficiencyWeights(lambda x, y: f(y, x)[..., ::-1])
    else:
        w, w_rev = EfficiencyWeights.constant(*a), EfficiencyWeights.constant(*a[::-1])
    try:
        forward = lrm_like_joint(params, rho, w, t_a, t_b)
        table = evaluate_gap(params, rho, w, t_a, t_b)
    except InadmissibleRhoError:
        with pytest.raises(InadmissibleRhoError):
            lrm_like_joint(params, rho, w_rev, t_b, t_a)
        with pytest.raises(InadmissibleRhoError):
            evaluate_gap(params, rho, w_rev, t_b, t_a)
        return
    assert np.array_equal(forward, lrm_like_joint(params, rho, w_rev, t_b, t_a))
    backward = evaluate_gap(params, rho, w_rev, t_b, t_a)
    assert backward.lrm.tobytes() == table.lrm.tobytes()
    assert backward.gap.tobytes() == table.gap.tobytes()


@settings(max_examples=200, deadline=None)
@given(params=_SPECIES, rho=_PROFILES, u_a=st.floats(0.0, 8.0), du=st.floats(0.0, 8.0))
def test_pair_sums_factor_into_the_conditional_flips(params, rho, u_a, du):
    # P1 + P2 = E_S E_L(t_a) p43(t_b|t_a) and P3 + P4 = E_S E_L(t_a) p21(t_b|t_a)
    t_a, t_b = u_a / params.gamma_s, (u_a + du) / params.gamma_s
    try:
        p = joint_probabilities(params, rho, t_a, t_b)
    except InadmissibleRhoError:
        return
    decay = survival(params, "short", t_a) * survival(params, "long", t_a)
    for pair, p_cond in ((p[:2], p43_conditional), (p[2:], p21_conditional)):
        floor = 1e-15 * float(np.abs(pair).sum())
        assert_allclose(pair.sum(), decay * p_cond(params, rho, t_a, t_b), rtol=1e-12, atol=floor)


@settings(max_examples=100, deadline=None)
@given(params=_SPECIES,
       u=st.lists(st.integers(1, 1000), min_size=1, max_size=8, unique=True).map(sorted),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=9, max_size=9))
def test_tabulated_profiles_sampled_inside_the_bounds_are_admissible(params, u, fractions):
    # knots at gamma_s t in (0, 10], each rho between its two bounds (ends included)
    knot_t = np.concatenate([[0.0], 0.01 * np.asarray(u) / params.gamma_s])
    lo, up = rho_bounds(params, knot_t)
    values = lo + np.asarray(fractions[:len(knot_t)]) * (up - lo)
    profile = RhoProfile.tabulated(list(zip(knot_t, values)))
    assert_allclose(profile.value(params, knot_t), values, rtol=1e-15, atol=0.0)


def test_trivial_pointwise_weights_reproduce_qm_at_a_feasible_point():
    # B mesons at u = 2 admit ratios QM/P_i <= 1 for all four configurations
    g = BMESON.gamma_s
    t_a, t_b = 2 / g, 4 / g
    p = joint_probabilities(BMESON, ZERO, t_a, t_b)
    qm = qm_like_joint(BMESON, t_a, t_b)
    ratios = qm / p
    assert np.all((ratios > 0.0) & (ratios <= 1.0))
    w = EfficiencyWeights.constant(*ratios)
    assert_allclose(lrm_like_joint(BMESON, ZERO, w, t_a, t_b), qm, rtol=1e-13)
