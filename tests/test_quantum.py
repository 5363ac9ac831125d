import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mesonbell import quantum
from mesonbell.constants import BMESON, KAON, OscillationParams
from mesonbell.quantum import (
    Flavor,
    FlavorOutcome,
    QuadratureError,
    TimePair,
    asymmetry,
    integrated_ratio,
    qm_flavor_table,
    qm_like_joint,
    qm_unlike_joint,
)

SPECIES = (KAON, BMESON)

# Passed as providers, the quantum joints take integrated_ratio's cubature
# path; the closed form is for no provider passed.
QM_JOINTS = (qm_like_joint, qm_unlike_joint)


def amplitude_joint(params, t_a, t_b, same_flavor):
    """Independent oracle: evolve the antisymmetric state at amplitude level.

    Only the mass difference matters, so m_S = 0 and m_L = delta_m.  The
    flavor projections are <P0|P_S> = <P0bar|P_S> = <P0|P_L> = 1/sqrt(2),
    <P0bar|P_L> = -1/sqrt(2).
    """
    e_s = lambda t: np.exp(-(0.5 * params.gamma_s) * t)
    e_l = lambda t: np.exp(-(1j * params.delta_m + 0.5 * params.gamma_l) * t)
    if same_flavor:
        # <P0bar P0bar| (|L S> - |S L>)/sqrt(2), projections (-1/2) each term
        amp = (-0.5) * (e_l(t_a) * e_s(t_b) - e_s(t_a) * e_l(t_b)) / np.sqrt(2)
    else:
        # <P0bar P0|: the left projection flips the relative sign
        amp = (-0.5) * (e_l(t_a) * e_s(t_b) + e_s(t_a) * e_l(t_b)) / np.sqrt(2)
    return np.abs(amp) ** 2


@pytest.mark.parametrize("params", SPECIES, ids=lambda p: p.species)
def test_joints_match_amplitude_oracle(params):
    rng = np.random.default_rng(7)
    t = rng.uniform(0.0, 6.0, size=(50, 2)) / params.gamma_s
    for t_a, t_b in t:
        assert_allclose(qm_like_joint(params, t_a, t_b),
                        amplitude_joint(params, t_a, t_b, True), rtol=1e-12, atol=1e-18)
        assert_allclose(qm_unlike_joint(params, t_a, t_b),
                        amplitude_joint(params, t_a, t_b, False), rtol=1e-12, atol=1e-18)


def test_frozen_reference_values():
    # values computed once from the amplitude oracle at (1, 2)/gamma_s
    g = KAON.gamma_s
    assert_allclose(qm_like_joint(KAON, 1 / g, 2 / g), 0.013198611584442552, rtol=1e-12)
    assert_allclose(qm_unlike_joint(KAON, 1 / g, 2 / g), 0.11222935158675074, rtol=1e-12)


@pytest.mark.parametrize("params", SPECIES + (OscillationParams("synthetic", 1e10, 1e4, 3e9),),
                         ids=lambda p: p.species)
def test_equal_times_anticorrelation(params):
    rng = np.random.default_rng(3)
    t = np.concatenate([[0.0], rng.uniform(0.0, 10.0, 1000), [1e3]]) / params.gamma_s
    assert np.all(qm_like_joint(params, t, t) == 0.0)
    assert qm_like_joint(params, t[7], t[7]) == 0.0


def test_bmeson_closed_forms():
    g, dm = BMESON.gamma_s, BMESON.delta_m
    t_a = 0.7 / g
    t_b = t_a + np.pi / dm      # dm * (t_b - t_a) = pi saturates the bracket
    assert_allclose(qm_like_joint(BMESON, t_a, t_b),
                    0.5 * np.exp(-g * (t_a + t_b)), rtol=1e-12)
    t = 1.3 / g
    assert_allclose(qm_unlike_joint(BMESON, t, t), 0.5 * np.exp(-2 * g * t), rtol=1e-12)


@pytest.mark.parametrize("params", SPECIES, ids=lambda p: p.species)
def test_like_plus_unlike_is_cosine_free(params):
    g = params.gamma_s
    t_a = np.linspace(0.0, 4.0, 40) / g
    t_b = np.linspace(0.0, 7.0, 40) / g
    total = qm_like_joint(params, t_a, t_b) + qm_unlike_joint(params, t_a, t_b)
    expected = 0.25 * (np.exp(-(params.gamma_s * t_a + params.gamma_l * t_b))
                       + np.exp(-(params.gamma_l * t_a + params.gamma_s * t_b)))
    assert_allclose(total, expected, rtol=1e-12)


@pytest.mark.parametrize("params", SPECIES, ids=lambda p: p.species)
def test_symmetry_under_time_exchange(params):
    rng = np.random.default_rng(11)
    t = rng.uniform(0.0, 5.0, size=(200, 2)) / params.gamma_s
    a = qm_like_joint(params, t[:, 0], t[:, 1])
    b = qm_like_joint(params, t[:, 1], t[:, 0])
    assert np.array_equal(a, b)


def test_flavor_table_entries_and_normalization():
    g = KAON.gamma_s
    table = qm_flavor_table(KAON, 1 / g, 2 / g)
    assert len(table) == 4
    p, a = Flavor.PARTICLE, Flavor.ANTIPARTICLE
    like = qm_like_joint(KAON, 1 / g, 2 / g)
    unlike = qm_unlike_joint(KAON, 1 / g, 2 / g)
    assert table[FlavorOutcome(a, a)] == like
    assert table[FlavorOutcome(p, p)] == like
    assert table[FlavorOutcome(a, p)] == unlike
    assert table[FlavorOutcome(p, a)] == unlike
    assert all(0.0 <= v <= 1.0 for v in table.values())
    expected = 0.5 * (np.exp(-(KAON.gamma_s / g + 2 * KAON.gamma_l / g))
                      + np.exp(-(KAON.gamma_l / g + 2 * KAON.gamma_s / g)))
    assert_allclose(sum(table.values()), expected, rtol=1e-12)
    assert_allclose(sum(table.values()), 0.25085592634238657, rtol=1e-12)


@settings(max_examples=100, deadline=None)
@given(params=st.sampled_from(SPECIES), u_a=st.floats(0.0, 8.0), u_b=st.floats(0.0, 8.0))
def test_flavor_table_sums_to_the_joint_survival(params, u_a, u_b):
    t_a, t_b = u_a / params.gamma_s, u_b / params.gamma_s
    gs, gl = params.gamma_s, params.gamma_l
    # (1/2)[E_S(t_a) E_L(t_b) + E_L(t_a) E_S(t_b)]
    expected = 0.5 * (np.exp(-gs * t_a) * np.exp(-gl * t_b) + np.exp(-gl * t_a) * np.exp(-gs * t_b))
    assert_allclose(sum(qm_flavor_table(params, t_a, t_b).values()), expected, rtol=1e-12)


@settings(max_examples=100, deadline=None)
@given(params=st.sampled_from(SPECIES), u_a=st.floats(0.0, 8.0), u_b=st.floats(0.0, 8.0))
# numpy's scalar arithmetic differs from its array loops in the last bit here
@example(params=KAON, u_a=2.04, u_b=0.351)
@example(params=BMESON, u_a=2.5, u_b=6.594)
def test_flavor_table_entries_are_the_joints(params, u_a, u_b):
    t_a, t_b = u_a / params.gamma_s, u_b / params.gamma_s
    table = qm_flavor_table(params, t_a, t_b)
    p, a = Flavor.PARTICLE, Flavor.ANTIPARTICLE
    for outcomes, joint in ([(a, a), (p, p)], qm_like_joint), ([(a, p), (p, a)], qm_unlike_joint):
        for left, right in outcomes:
            value = table[FlavorOutcome(left, right)]
            assert type(value) is float and value.hex() == joint(params, t_a, t_b).hex()


def test_flavor_table_at_production():
    table = qm_flavor_table(BMESON, 0.0, 0.0)
    for outcome, value in table.items():
        assert value == (0.0 if outcome.like else 0.5)


def test_equal_widths_match_the_cosine_form():
    # grid stays clear of the interference zeros, where any relative
    # comparison only measures cancellation noise in the oracle
    g, dm = BMESON.gamma_s, BMESON.delta_m
    u = np.linspace(0.1, 4.0, 100)
    t_a, t_b = u / g, 2 * u / g
    for joint, sign in ((qm_like_joint, -1.0), (qm_unlike_joint, +1.0)):
        assert_allclose(joint(BMESON, t_a, t_b),
                        0.25 * np.exp(-g * (t_a + t_b)) * (1.0 + sign * np.cos(dm * (t_a - t_b))),
                        rtol=1e-12)


# kaon, B and random widths: gamma_l / gamma_s log-uniform down to 1e-6, with
# equal widths and delta_m = 0 included
random_params = st.builds(
    lambda gs, ratio, x: OscillationParams("synthetic", gamma_s=gs, gamma_l=gs * ratio, delta_m=gs * x),
    st.floats(1e6, 1e14),
    st.one_of(st.just(1.0), st.floats(-6.0, 0.0).map(lambda e: 10.0 ** e)),
    st.one_of(st.just(0.0), st.floats(-3.0, 2.0).map(lambda e: 10.0 ** e)),
)
any_params = st.one_of(st.sampled_from(SPECIES), random_params)


@settings(max_examples=200, deadline=None)
@given(params=any_params,
       u=st.lists(st.tuples(st.floats(0.0, 50.0), st.floats(0.0, 50.0)), min_size=1, max_size=20))
def test_joints_are_finite_non_negative_and_swap_symmetric(params, u):
    t = np.array(u) / params.gamma_s
    for joint in (qm_like_joint, qm_unlike_joint):
        value = joint(params, t[:, 0], t[:, 1])
        assert np.all(np.isfinite(value)) and np.all(value >= 0.0)
        assert np.array_equal(value, joint(params, t[:, 1], t[:, 0]))


def mp_joint(params, t_a, t_b, sign):
    """The joint from the (1/8)[direct + sign * interference] form at 50 digits."""
    import mpmath as mp
    with mp.workdps(50):
        t_a, t_b = mp.mpf(t_a), mp.mpf(t_b)
        gs, gl, dm = mp.mpf(params.gamma_s), mp.mpf(params.gamma_l), mp.mpf(params.delta_m)
        direct = mp.exp(-(gs * t_a + gl * t_b)) + mp.exp(-(gl * t_a + gs * t_b))
        interference = 2 * mp.exp(-(gs + gl) * (t_a + t_b) / 2) * mp.cos(dm * (t_a - t_b))
        return (direct + sign * interference) / 8


@pytest.mark.parametrize("params", SPECIES, ids=lambda p: p.species)
def test_near_diagonal_joints_match_mpmath(params):
    # t_b = t_a (1 + delta), delta log-uniform in [1e-12, 1e-1]: the direct
    # and interference terms agree to up to 12 digits here
    rng = np.random.default_rng(5)
    t_a = rng.uniform(0.0, 10.0, 200) / params.gamma_s
    t_b = t_a * (1.0 + 10.0 ** rng.uniform(-12.0, -1.0, 200))
    for joint, sign in ((qm_like_joint, -1), (qm_unlike_joint, +1)):
        values = joint(params, t_a, t_b)
        for value, a, b in zip(values, t_a, t_b):
            exact = mp_joint(params, a, b, sign)
            assert abs(value - exact) <= 1e-13 * abs(exact)


@pytest.mark.parametrize("params", SPECIES, ids=lambda p: p.species)
def test_joints_stay_finite_at_late_times(params):
    t_b = np.geomspace(1e-3, 1e4, 300) / params.gamma_l
    for t_a in (np.zeros_like(t_b), 0.5 * t_b):
        for joint in (qm_like_joint, qm_unlike_joint):
            value = joint(params, t_a, t_b)
            assert np.all(np.isfinite(value)) and np.all(value >= 0.0)


def test_asymmetry_limits():
    g, dm = BMESON.gamma_s, BMESON.delta_m
    t = 0.9 / g
    assert asymmetry(BMESON, t, t) == -1.0
    assert_allclose(asymmetry(BMESON, t, t + np.pi / dm), 1.0, atol=1e-12)
    assert_allclose(asymmetry(BMESON, t, t + 0.5 * np.pi / dm), 0.0, atol=1e-12)


def test_asymmetry_accepts_providers():
    # constant providers: like twice the unlike rate gives 1/3
    value = asymmetry(BMESON, 1e-12, 2e-12,
                      like_joint=lambda p, ta, tb: 0.2,
                      unlike_joint=lambda p, ta, tb: 0.1)
    assert_allclose(value, 1.0 / 3.0, rtol=1e-14)


def test_asymmetry_degenerate_denominator():
    t = 800.0 / BMESON.gamma_s  # both joints underflow to ~e^-1600
    with pytest.raises(ZeroDivisionError, match="degenerate"):
        asymmetry(BMESON, t, t + 1e-15)


def laplace_ratio(params):
    """Closed form from termwise Laplace integrals of the joint probabilities."""
    gs, gl, dm = params.gamma_s, params.gamma_l, params.delta_m
    gbar = 0.5 * (gs + gl)
    direct = 1.0 / (gs * gl)
    cross = 1.0 / (gbar * gbar + dm * dm)
    return (direct - cross) / (direct + cross)


def test_integrated_ratio_bmeson_registry():
    x = BMESON.delta_m / BMESON.gamma_s
    expected = x * x / (2.0 + x * x)
    ratio = integrated_ratio(BMESON, *QM_JOINTS)
    assert_allclose(ratio, expected, rtol=1e-6)
    assert_allclose(ratio, 0.2107, rtol=5e-4)


def test_integrated_ratio_kaon_vs_closed_form():
    assert_allclose(integrated_ratio(KAON, *QM_JOINTS), laplace_ratio(KAON), rtol=1e-6)


def test_integrated_ratio_no_oscillation():
    params = OscillationParams("bmeson", gamma_s=1e12, gamma_l=1e12, delta_m=0.0)
    assert integrated_ratio(params, *QM_JOINTS) == pytest.approx(0.0, abs=1e-10)


def test_integrated_ratio_strong_mixing():
    params = OscillationParams("bmeson", gamma_s=1e12, gamma_l=1e12, delta_m=1e13)
    x = 10.0
    assert_allclose(integrated_ratio(params, *QM_JOINTS), x * x / (2 + x * x), rtol=1e-6)


def test_integrated_ratio_nonconvergence_raises(monkeypatch):
    # any provider passed, the quantum joints included, goes to the cubature;
    # a provider left out is the module's joint
    monkeypatch.setattr(quantum, "_MAX_SUBDIVISIONS", 1)
    for providers in ({"like_joint": qm_like_joint, "unlike_joint": qm_unlike_joint},
                      {"like_joint": qm_like_joint}, {"unlike_joint": qm_unlike_joint}):
        with pytest.raises(QuadratureError, match="within 1 subdivisions"):
            integrated_ratio(KAON, **providers)
    # a box edge 40/gamma_l = 4e291 s whose square overflows is named before
    # any cubature (which returned nan with warnings); the closed form gives 1.0
    params = OscillationParams("x", gamma_s=1e10, gamma_l=1e-290, delta_m=1e10)
    assert integrated_ratio(params) == 1.0
    with pytest.raises(QuadratureError, match=r"^cubature box \[0, 4e\+291\] s per axis has an area beyond"):
        integrated_ratio(params, qm_like_joint, qm_unlike_joint, rel_tol=1e-3)


@pytest.mark.parametrize("rel_tol", [float("nan"), float("inf"), 0.0, -1e-8])
def test_integrated_ratio_rejects_a_rel_tol_that_is_not_finite_and_positive(monkeypatch, rel_tol):
    # raised before any cubature: one subdivision would fail with QuadratureError
    monkeypatch.setattr(quantum, "_MAX_SUBDIVISIONS", 1)
    for providers in (QM_JOINTS, (qm_like_joint,), (None, qm_unlike_joint)):
        with pytest.raises(ValueError, match=r"^rel_tol must be finite and positive, got "):
            integrated_ratio(BMESON, *providers, rel_tol=rel_tol)
    # the closed form does not read it
    assert integrated_ratio(BMESON, rel_tol=rel_tol) == integrated_ratio(BMESON)


def test_integrated_ratio_accepts_scalar_providers():
    # constant providers: the ratio of the integrals is the ratio of the constants
    value = integrated_ratio(BMESON, lambda p, ta, tb: 0.2, lambda p, ta, tb: 0.1)
    assert_allclose(value, 2.0, rtol=1e-14)


@pytest.mark.parametrize("params", SPECIES + (OscillationParams("probe", 30.0, 1.0, 10.0),),
                         ids=lambda p: p.species)
def test_integrated_ratio_generic_path_matches_closed_form(params):
    rel_tol = 1e-8
    closed = integrated_ratio(params)
    assert_allclose(integrated_ratio(params, *QM_JOINTS, rel_tol=rel_tol), closed, rtol=rel_tol)


def test_integrated_ratio_closed_form_special_cases(monkeypatch):
    assert integrated_ratio(OscillationParams("bmeson", 1e12, 1e12, 0.0)) == 0.0
    x = BMESON.delta_m / BMESON.gamma_s
    assert integrated_ratio(BMESON) == x * x / (2.0 + x * x)
    # rebinding the module names (say, to time them) keeps the closed form
    monkeypatch.setattr(quantum, "qm_like_joint", lambda p, a, b: qm_like_joint(p, a, b))
    monkeypatch.setattr(quantum, "qm_unlike_joint", lambda p, a, b: qm_unlike_joint(p, a, b))
    assert integrated_ratio(BMESON) == x * x / (2.0 + x * x)


@pytest.mark.parametrize("split", (1e-10, 1e-7))
def test_integrated_ratio_nearly_equal_widths_match_mpmath(split):
    # gamma_s - gamma_l is exact here, while 1 - gamma_l / gamma_s would cancel
    import mpmath as mp
    params = OscillationParams("probe", gamma_s=1e10, gamma_l=1e10 * (1.0 - split), delta_m=0.0)
    with mp.workdps(50):
        half = (mp.mpf(params.gamma_s) - mp.mpf(params.gamma_l)) / 2
        exact = half * half / (half * half + 2 * mp.mpf(params.gamma_s) * mp.mpf(params.gamma_l))
    assert abs(integrated_ratio(params) - exact) <= 1e-14 * exact


@settings(max_examples=300, deadline=None)
@given(gamma_s=st.floats(6.0, 14.0).map(lambda e: 10.0 ** e),
       width_ratio=st.one_of(st.just(1.0), st.floats(-6.0, 0.0).map(lambda e: 10.0 ** e)),
       mixing=st.one_of(st.just(0.0), st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)))
def test_integrated_ratio_closed_form_matches_laplace_oracle(gamma_s, width_ratio, mixing):
    params = OscillationParams("probe", gamma_s=gamma_s, gamma_l=gamma_s * width_ratio,
                               delta_m=gamma_s * mixing)
    ratio = integrated_ratio(params)
    assert 0.0 <= ratio <= 1.0
    # the oracle subtracts two nearly equal terms near R = 0, so its error
    # is a few ulp absolute, not relative
    assert_allclose(ratio, laplace_ratio(params), rtol=1e-12, atol=1e-14)


def test_import_loads_no_scipy():
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, mesonbell; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out.strip() == "[]"


def test_time_pair_validation():
    TimePair(0.0, 1e-10)
    with pytest.raises(ValueError):
        TimePair(-1e-12, 0.0)
    with pytest.raises(ValueError):
        TimePair(0.0, float("nan"))


def test_negative_times_rejected():
    with pytest.raises(ValueError):
        qm_like_joint(KAON, -1e-12, 1e-12)
    with pytest.raises(ValueError):
        qm_unlike_joint(KAON, 1e-12, float("inf"))
    for bad in (np.array([1e-12, np.nan]), np.array([-np.inf, 1e-12])):
        with pytest.raises(ValueError):
            qm_like_joint(KAON, bad, np.full(2, 1e-12))
