# The Clauser-Horne sum: non-positive for every local realistic model,
# positive for quantum correlations at well-chosen settings, and moot in
# practice unless the total detection efficiency clears a hard threshold.

import numpy as np

import mesonbell as mb

# brute force over the local deterministic strategies (fire / don't fire per
# setting per side); CHS is linear, so no convex mixture of them does better
report = mb.lhv_bound_brute_force(n_mixtures=10_000)
print("local strategies:")
for s in mb.bell.all_deterministic_strategies():
    value = mb.chs_sum(s.correlation_set())
    print(f"  fire(1,1',2,2') = ({int(s.fire_1)},{int(s.fire_1p)},"
          f"{int(s.fire_2)},{int(s.fire_2p)})   CHS = {value:+.2f}")
print(f"deterministic maximum: {report.max_deterministic}")
print(f"maximum over all convex mixtures: {report.max_mixture}")

# the quantum singlet beats the bound
c = mb.singlet_photon_correlations(0.0, np.pi / 4, np.pi / 8, 3 * np.pi / 8)
print(f"\nsinglet at (0, 45; 22.5, 67.5) degrees: CHS = {mb.chs_sum(c):.6f}"
      f"   [(sqrt(2)-1)/2 = {(np.sqrt(2) - 1) / 2:.6f}]")

# flavor tagging through semileptonic channels caps the efficiency far below
# what a loophole-free test needs
print("\ntagging totals vs thresholds:")
for label, eff in (("K_S", mb.semileptonic_total("K_S")),
                   ("K_L", mb.semileptonic_total("K_L")),
                   ("B0", mb.semileptonic_total("B0")),
                   ("B0 (realistic tag)", mb.bell.EXPECTED_B_TAGGING_EFFICIENCY)):
    v_max = mb.threshold_check(eff, "maximal")
    v_non = mb.threshold_check(eff, "nonmaximal")
    print(f"  {label:<18} {eff:8.4f}   vs {mb.EFFICIENCY_THRESHOLD_MAXIMAL:g}: {v_max.verdict:<24} "
          f"vs {mb.EFFICIENCY_THRESHOLD_NONMAXIMAL:g}: {v_non.verdict}")
print(f"  note: {mb.bell.NO_BACKGROUND_CAVEAT}")
