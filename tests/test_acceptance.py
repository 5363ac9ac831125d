"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

Criteria 3 and 4 encode idealized positivity/ordering expectations over the
full standard grid.  The model's simplified conditional flip probabilities
genuinely violate them once the strangeness oscillation outruns the decay
envelope (first crossing near gamma_s * t_a ~ 1.45 on the doubling ray,
conditional sign flips beyond gamma_s * t ~ 5), so those two tests FAIL by
construction, with the diagnostics printed.  They are kept failing on
purpose: the assertions state the intended property faithfully, and hiding
the violation would misrepresent the model.  Details in each test and in
the repository notes.
"""

import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

import mesonbell as mb
from mesonbell.lrm import _q

KAON = mb.KAON
BMESON = mb.BMESON
G = KAON.gamma_s
ZERO = mb.RhoProfile.zero()
SAT_UP = mb.RhoProfile.saturate_upper_short()
FIG3 = (1.0, 0.13, 0.03, 0.04)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:02d}] {name}: {status}" + (f" ({detail})" if detail else ""))


def test_criterion_01_epr_anticorrelation():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for params in (KAON, BMESON):
        t = rng.uniform(0.0, 10.0, 1000) / params.gamma_s
        worst = max(worst, float(np.max(np.abs(mb.qm_like_joint(params, t, t)))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 1.0
    report(1, "equal-time anti-correlation", ok,
           f"max |P_like(t,t)| = {worst:.2e}, {elapsed:.3f} s")
    assert worst < 1e-12
    assert elapsed < 1.0


def test_criterion_02_flavor_table_normalization():
    worst = 0.0
    for params in (KAON, BMESON):
        g = params.gamma_s
        axis = np.linspace(0.0, 5.0, 100) / g
        for t_a in axis:
            e_sa = np.exp(-params.gamma_s * t_a)
            e_la = np.exp(-params.gamma_l * t_a)
            e_sb = np.exp(-params.gamma_s * axis)
            e_lb = np.exp(-params.gamma_l * axis)
            expected = 0.5 * (e_sa * e_lb + e_la * e_sb)
            like = np.asarray(mb.qm_like_joint(params, t_a, axis))
            unlike = np.asarray(mb.qm_unlike_joint(params, t_a, axis))
            total = 2.0 * (like + unlike)
            worst = max(worst, float(np.max(np.abs(total / expected - 1.0))))
    # the table op itself aggregates exactly these joints; spot-check it
    table = mb.qm_flavor_table(KAON, 1 / G, 2 / G)
    assert len(table) == 4
    assert sum(table.values()) == pytest.approx(
        2.0 * (mb.qm_like_joint(KAON, 1 / G, 2 / G) + mb.qm_unlike_joint(KAON, 1 / G, 2 / G)),
        rel=1e-15)
    ok = worst < 1e-12
    report(2, "four-outcome normalization on 100x100 grid", ok, f"worst rel dev = {worst:.2e}")
    assert ok


def test_criterion_03_lrm_positivity_random_admissible_rho():
    """Intended property: P_i >= 0 for every admissible rho and t_a <= t_b.

    The pointwise admissibility bounds only constrain the flip fractions
    w2, w4 to [0, 1] at each time separately; the conditionals are
    *increments* of those fractions, so any random profile that dips between
    the two sampled times makes them negative.  Positivity for all
    pointwise-admissible profiles is therefore not a theorem of the model,
    and this test fails for a substantial fraction of draws.  It is kept
    as stated rather than weakened.
    """
    rng = np.random.default_rng(2024)
    knot_t = np.linspace(0.0, 5.0, 9) / G
    lo, up = mb.rho_bounds(KAON, knot_t)
    lo, up = np.asarray(lo), np.asarray(up)

    n_draws = 10_000
    violations = 0
    rejected = 0
    worst = 0.0
    example = None
    done = 0
    while done < n_draws:
        t_a, t_b = np.sort(rng.uniform(0.2 / G, 5.0 / G, 2))
        values = rng.uniform(lo, up)
        profile = mb.RhoProfile.tabulated(list(zip(knot_t, values)))
        try:
            p = mb.joint_probabilities(KAON, profile, t_a, t_b)
        except mb.InadmissibleRhoError:
            rejected += 1          # interpolation left the admissible tube
            continue
        done += 1
        low = float(np.min(p))
        if low < 0.0:
            violations += 1
            if low < worst:
                worst = low
                example = (t_a * G, t_b * G, low)
    ok = violations == 0
    detail = (f"{violations}/{n_draws} draws with some P_i < 0, worst P = {worst:.3e} "
              f"at gamma_s*(t_a, t_b) = ({example[0]:.2f}, {example[1]:.2f}); "
              f"{rejected} inadmissible profiles resampled" if not ok else f"{n_draws} clean draws")
    report(3, "P_i >= 0 over random admissible tabulated rho", ok, detail)
    assert violations == 0, (
        "pointwise rho bounds do not imply conditional-flip positivity; "
        "see the test docstring and repository notes"
    )


def test_criterion_04_saturation_identity_and_fig1_ordering():
    """rho = E_S Q- kills P1, P3, P4 exactly and leaves LRM = P2 / 4.

    The exact identities hold.  The additional ordering claim
    LRM >= QM across the whole doubling-ray grid does not: the minimal
    model curve crosses below the QM curve near gamma_s t_a ~ 1.45 and
    stays below (eventually negative) for the rest of the grid.  The
    assertion is kept as stated and fails with the crossing reported.
    """
    u = np.linspace(0.2, 5.0, 200)
    t_a, t_b = u / G, 2 * u / G
    p = mb.joint_probabilities(KAON, SAT_UP, t_a, t_b)
    identity_ok = (np.all(p[:, 0] == 0.0) and np.all(p[:, 2] == 0.0)
                   and np.all(p[:, 3] == 0.0))
    lrm = mb.lrm_like_joint(KAON, SAT_UP, mb.EfficiencyWeights.uniform(1.0), t_a, t_b)
    collapse_ok = np.array_equal(lrm, p[:, 1] / 4.0)
    qm = np.asarray(mb.qm_like_joint(KAON, t_a, t_b))
    below = lrm < qm
    n_below = int(below.sum())
    ordering_ok = n_below == 0
    crossing = float(u[np.argmax(below)]) if n_below else float("nan")
    ok = identity_ok and collapse_ok and ordering_ok
    report(4, "saturated-rho identities and minimal-curve ordering", ok,
           f"P1=P3=P4=0 exactly: {identity_ok}; LRM = P2/4 exactly: {collapse_ok}; "
           f"LRM >= QM at {200 - n_below}/200 points"
           + ("" if ordering_ok else f", first crossing at gamma_s*t_a ~ {crossing:.2f}"))
    assert identity_ok and collapse_ok
    assert ordering_ok, (
        f"minimal saturated-rho curve falls below QM at {n_below}/200 grid points "
        f"(first at gamma_s*t_a ~ {crossing:.2f}); the ordering only holds for "
        "gamma_s*t_a below ~1.45 on the doubling ray"
    )


def test_criterion_05_trivial_solution_exactness():
    details = []
    worst = 0.0
    feasible_somewhere = False
    for params in (KAON, BMESON):
        problem = mb.FitProblem.on_default_grid(params, ZERO, 0.3)
        result = mb.trivial_weights(problem)
        n_feasible = int(result.feasible.sum())
        if n_feasible:
            feasible_somewhere = True
            table = mb.evaluate_gap(params, ZERO, result.weights,
                                    problem.grid_t_a[result.feasible],
                                    problem.grid_t_b[result.feasible])
            worst = max(worst, float(np.max(np.abs(table.gap))))
        # uncapped ratios reproduce QM wherever all four joints have support
        p, qm = problem.tables()
        full = result.supported.all(axis=1)
        recon = 0.25 * np.sum(result.raw_ratios[full] * p[full], axis=1)
        worst_raw = float(np.max(np.abs(recon / qm[full] - 1.0)))
        worst = max(worst, worst_raw)
        details.append(f"{params.species}: {n_feasible}/200 feasible")
    ok = worst < 1e-12 and feasible_somewhere
    report(5, "trivial weights reproduce QM where feasible", ok,
           "; ".join(details) + f"; worst |LRM - QM| (and raw-ratio rel dev) = {worst:.2e}")
    assert ok


def test_criterion_06_fig3_preset_vs_fitted_weights():
    problem = mb.FitProblem.on_default_grid(KAON, ZERO, 0.3)
    preset_gap = mb.evaluate_gap(KAON, ZERO, mb.EfficiencyWeights.constant(*FIG3),
                                 problem.grid_t_a, problem.grid_t_b).max_abs_gap()
    fit = mb.fit_constant_weights(problem)
    ok = fit.max_abs_gap <= preset_gap
    report(6, "fitted constant weights beat the quoted preset", ok,
           f"preset max-gap = {preset_gap:.6e}, fitted max-gap = {fit.max_abs_gap:.6e}, "
           f"weights = {tuple(round(w, 6) for w in fit.weights.as_tuple())}")
    assert ok
    assert abs(fit.achieved_eta - 0.3) < 1e-9


def test_criterion_07_bmeson_consistency_and_integrated_ratio():
    g, dm = BMESON.gamma_s, BMESON.delta_m
    u = np.linspace(0.1, 4.0, 100)
    t_a, t_b = u / g, 2 * u / g
    worst_path = 0.0
    for joint, sign in ((mb.qm_like_joint, -1.0), (mb.qm_unlike_joint, +1.0)):
        kernel = joint(BMESON, t_a, t_b)
        special = 0.25 * np.exp(-g * (t_a + t_b)) * (1.0 + sign * np.cos(dm * (t_a - t_b)))
        worst_path = max(worst_path, float(np.max(np.abs(kernel / special - 1.0))))
        q_g = _q(BMESON, t_a, sign)
        q_e = 0.5 * (1.0 + sign * np.cos(dm * t_a))  # equal widths: unit prefactor
        worst_path = max(worst_path, float(np.max(np.abs(q_g / q_e - 1.0))))
    paths_ok = worst_path < 1e-12

    x = dm / g
    expected = x * x / (2.0 + x * x)
    ratio = mb.integrated_ratio(BMESON)
    registry_dev = abs(ratio / expected - 1.0)
    registry_ok = registry_dev < 1e-6 and abs(ratio - 0.2107) < 2e-4

    rng = np.random.default_rng(1)
    worst_syn = 0.0
    for _ in range(10):
        gamma = 10 ** rng.uniform(8, 13)
        x_syn = 10 ** rng.uniform(-1, 1)
        params = mb.OscillationParams("bmeson", gamma_s=gamma, gamma_l=gamma,
                                      delta_m=x_syn * gamma)
        r = mb.integrated_ratio(params, rel_tol=1e-6)
        closed = x_syn * x_syn / (2.0 + x_syn * x_syn)
        worst_syn = max(worst_syn, abs(r / closed - 1.0))
    synthetic_ok = worst_syn < 1e-6

    ok = paths_ok and registry_ok and synthetic_ok
    report(7, "equal-width consistency and integrated ratio", ok,
           f"path rel dev = {worst_path:.2e}; R = {ratio:.6f} "
           f"(closed {expected:.6f}, rel dev {registry_dev:.2e}); "
           f"10 synthetic pairs worst rel dev = {worst_syn:.2e}")
    assert ok


def test_criterion_08_clauser_horne():
    brute = mb.lhv_bound_brute_force(n_mixtures=10_000)
    brute_ok = brute.max_deterministic == 0.0 and brute.max_mixture <= 0.0
    c = mb.singlet_photon_correlations(0.0, np.pi / 4, np.pi / 8, 3 * np.pi / 8)
    value = mb.chs_sum(c)
    expected = (np.sqrt(2.0) - 1.0) / 2.0
    singlet_ok = abs(value - expected) < 1e-12
    ok = brute_ok and singlet_ok
    report(8, "CH local bound and singlet violation", ok,
           f"deterministic max = {brute.max_deterministic}, mixture max = {brute.max_mixture:.3e}, "
           f"singlet CHS = {value:.12f} vs (sqrt(2)-1)/2 = {expected:.12f}")
    assert ok


def test_criterion_09_tagging_efficiencies_leave_the_loophole_open():
    kl_total = mb.semileptonic_total("K_L")
    b_tag = mb.bell.EXPECTED_B_TAGGING_EFFICIENCY
    verdicts = {
        (label, state): mb.threshold_check(eff, state).verdict
        for label, eff in (("K_L", kl_total), ("B", b_tag))
        for state in ("maximal", "nonmaximal")
    }
    ok = (abs(kl_total - 0.3298) < 1e-12 and b_tag == 0.45
          and all(v == "detection_loophole" for v in verdicts.values()))
    report(9, "tagging efficiencies vs 0.81 / 0.67 thresholds", ok,
           f"K_L total = {kl_total:.4f}, B tag = {b_tag:.2f}, all four verdicts detection_loophole")
    assert ok


def test_criterion_10_event_oracle_against_analytic_values():
    g_b = BMESON.gamma_s
    configs = [
        mb.SimConfig(KAON, ZERO, mb.EfficiencyWeights.uniform(1.0),
                     mb.TimePair(1 / G, 2 / G), 1_000_000, 42),
        mb.SimConfig(KAON, ZERO, mb.EfficiencyWeights.constant(*FIG3),
                     mb.TimePair(1 / G, 2 / G), 1_000_000, 43),
        mb.SimConfig(KAON, SAT_UP, mb.EfficiencyWeights.uniform(1.0),
                     mb.TimePair(0.8 / G, 1.6 / G), 1_000_000, 44),
        mb.SimConfig(BMESON, ZERO, mb.EfficiencyWeights.constant(0.52, 0.08, 0.52, 0.08),
                     mb.TimePair(1 / g_b, 2 / g_b), 1_000_000, 45),
        mb.SimConfig(KAON, ZERO, mb.EfficiencyWeights.uniform(0.3),
                     mb.TimePair(0.5 / G, 2.2 / G), 1_000_000, 46),
    ]
    start = time.perf_counter()
    worst_pull = 0.0
    for config in configs:
        first = mb.simulate(config)
        second = mb.simulate(config)
        assert first.estimate == second.estimate
        assert np.array_equal(first.accepted_like_counts, second.accepted_like_counts)
        analytic = mb.lrm_like_joint(config.params, config.rho, config.weights,
                                     config.t.t_a, config.t.t_b)
        pull = abs(first.estimate - analytic) / first.stderr
        worst_pull = max(worst_pull, float(pull))
    elapsed = time.perf_counter() - start
    ok = worst_pull < 4.0 and elapsed < 30.0
    report(10, "seeded event oracle vs analytic weighted model", ok,
           f"5 configs x 1e6 events, worst pull = {worst_pull:.2f} sigma, "
           f"bit-reproducible, {elapsed:.1f} s")
    assert worst_pull < 4.0
    assert elapsed < 30.0
