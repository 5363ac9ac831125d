# The detection loophole made quantitative: acceptance weights a1..a4 that
# depend on the hidden configuration bias the detected sample, and a handful
# of numbers is enough to push the model curve onto (or below) the quantum
# one at a fixed total efficiency.

import numpy as np

import mesonbell as mb

kaon = mb.KAON
zero = mb.RhoProfile.zero()

problem = mb.FitProblem.on_default_grid(kaon, zero, eta=0.3)

# the pointwise "trivial" assignment a_i = QM / P_i is exact wherever the
# required ratios fit in [0, 1]; for kaons the doubly-suppressed P3 makes
# that impossible on this grid, and the diagnostics say so
trivial = mb.trivial_weights(problem)
print(f"trivial weights, kaon: feasible at {int(trivial.feasible.sum())}/200 points, "
      f"capped at {int(trivial.capped.sum())}")
print(f"  worst required ratio max_i QM/P_i = {np.nanmax(trivial.raw_ratios):.1f}")

problem_b = mb.FitProblem.on_default_grid(mb.BMESON, zero, eta=0.3)
trivial_b = mb.trivial_weights(problem_b)
feasible = trivial_b.feasible
print(f"trivial weights, B: feasible at {int(feasible.sum())}/200 points "
      f"(gamma*t_a from {problem_b.grid_t_a[feasible][0] * mb.BMESON.gamma_s:.2f} "
      f"to {problem_b.grid_t_a[feasible][-1] * mb.BMESON.gamma_s:.2f})")
table = mb.evaluate_gap(mb.BMESON, zero, trivial_b.weights,
                        problem_b.grid_t_a[feasible], problem_b.grid_t_b[feasible])
print(f"  |LRM - QM| there: {np.max(np.abs(table.gap)):.2e}")

# constant weights: compare the quoted preset against a fitted set
preset = mb.EfficiencyWeights.constant(1.0, 0.13, 0.03, 0.04)
preset_gap = mb.evaluate_gap(kaon, zero, preset, problem.grid_t_a, problem.grid_t_b).max_abs_gap()
fit = mb.fit_constant_weights(problem)
print(f"\nconstant weights at eta = 0.3 (kaon, rho = 0, max-norm objective):")
print(f"  preset (1, 0.13, 0.03, 0.04):  max gap = {preset_gap:.6f}")
print(f"  fitted {tuple(round(w, 4) for w in fit.weights.as_tuple())}:"
      f"  max gap = {fit.max_abs_gap:.6f}  ({fit.iterations} LP iterations)")

# pushing the model *below* the quantum curve is even easier
under = mb.FitProblem.on_default_grid(kaon, mb.RhoProfile.saturate_upper_short(),
                                      eta=0.3, objective="underbound_qm")
fit_under = mb.fit_constant_weights(under)
print(f"\nunderbound objective with saturated rho: max positive excess = {fit_under.max_abs_gap:.2e}")
print("  (zero excess: the weighted curve sits at or below QM everywhere on the grid)")
