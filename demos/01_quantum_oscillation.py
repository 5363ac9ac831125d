# Joint flavor-tag probabilities of an entangled neutral-meson pair.
#
# The pair is born in the antisymmetric combination of the two CP eigenstates,
# so tagging both sides at the same proper time can never give the same
# flavor.  At unequal times the strangeness oscillation fills the like-flavor
# channel in while the decay envelope drains everything out.

import numpy as np

import mesonbell as mb

kaon = mb.KAON
bmeson = mb.BMESON

print("registry")
for p in (kaon, bmeson):
    print(f"  {p.species:<8} gamma_s = {p.gamma_s:.4e} 1/s   gamma_l = {p.gamma_l:.4e} 1/s"
          f"   delta_m = {p.delta_m:.4e} 1/s   x = {2 * p.delta_m / (p.gamma_s + p.gamma_l):.4f}")

# like/unlike joints along the doubling ray t_b = 2 t_a
print("\nkaon joints on t_b = 2 t_a (times in units of 1/gamma_s)")
print(f"  {'t_a':>5} {'like':>12} {'unlike':>12} {'sum of 4':>12}")
for u in (0.25, 0.5, 1.0, 2.0, 4.0):
    t_a = u / kaon.gamma_s
    like = mb.qm_like_joint(kaon, t_a, 2 * t_a)
    unlike = mb.qm_unlike_joint(kaon, t_a, 2 * t_a)
    print(f"  {u:5.2f} {like:12.6f} {unlike:12.6f} {2 * (like + unlike):12.6f}")

# equal times: perfect anti-correlation for both species
t = 1.3 / kaon.gamma_s
print(f"\nlike-flavor at equal times (kaon, t = 1.3/gamma_s): {mb.qm_like_joint(kaon, t, t):.2e}")

# the four-outcome table at one point
table = mb.qm_flavor_table(kaon, 1 / kaon.gamma_s, 2 / kaon.gamma_s)
print("\nfour-outcome table at (1, 2)/gamma_s:")
for outcome, value in table.items():
    print(f"  {outcome.left.value:>12} / {outcome.right.value:<12} {value:.6f}")

# the B-meson asymmetry swings through the full range as dm*(t_a - t_b) grows
print("\nB-meson asymmetry A(t_a, t_b) vs dm*(t_b - t_a):")
t_a = 0.5 / bmeson.gamma_s
for phase in (0.0, 0.5 * np.pi, np.pi):
    t_b = t_a + phase / bmeson.delta_m
    print(f"  phase {phase:5.3f}  A = {mb.asymmetry(bmeson, t_a, t_b):+.4f}")

# time-integrated like/unlike ratio; for equal widths R = x^2 / (2 + x^2).
# With no providers passed integrated_ratio returns the closed form; the
# joints passed as providers are integrated by adaptive cubature.
joints = (mb.qm_like_joint, mb.qm_unlike_joint)
print("\nintegrated like/unlike ratio:")
print(f"  {'':<8} {'closed form':>14} {'cubature':>14}")
for p in (kaon, bmeson):
    print(f"  {p.species:<8} {mb.integrated_ratio(p):14.10f} {mb.integrated_ratio(p, *joints):14.10f}")
