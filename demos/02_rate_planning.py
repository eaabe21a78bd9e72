"""Multistage rate planning against the square-root-law ceiling.

The planner picks the blocklength matched to the covertness budget delta,
splits each level's rate into message, secret surplus, and key deficit, and
reports the achieved throughput per sqrt(n * delta) channel uses next to the
covert capacity sqrt(2 / chi2(Q1||Q0)) * D(P1||P0).  Growing the PPM order
closes the gap.
"""

from covertppm import bac, bsc, msd_rate_plan, throughput_summary
from covertppm.levels import plan_to_text

bob, willie = bsc(0.05), bsc(0.1)

print("Degraded pair BSC(0.05) -> BSC(0.1), delta = 1:")
print(f"  {'m':>6} {'ell':>6} {'throughput':>11} {'capacity':>9} {'gap':>7}")
for q in range(6, 13):
    plan = msd_rate_plan(bob, willie, q, delta=1.0, epsilon=0.01, degraded=True)
    s = throughput_summary(plan, bob.stats, willie.stats)
    gap = 100 * (1 - s.covert_throughput / s.covert_capacity)
    print(f"  {plan.m:6d} {plan.ell:6d} {s.covert_throughput:11.4f} "
          f"{s.covert_capacity:9.4f} {gap:6.2f}%")

print("\nNon-degraded pair BSC(0.2) vs BAC(0.1, 0.4), q = 10, epsilon = 0.01:")
plan = msd_rate_plan(bsc(0.2), bac(0.1, 0.4), 10, delta=1.0, epsilon=0.01)
print(f"  secret surplus {plan.ell * plan.sum_rv():.1f} bits/block vs key "
      f"deficit {plan.ell * plan.sum_rk():.1f} bits/block -> chaining feasible")
print(f"  reliability cutoff u = {plan.u} (levels above it are "
      "resolvability-only)\n")

print("The plan serialises to a human-readable document:\n")
small = msd_rate_plan(bsc(0.2), bac(0.1, 0.4), 4, delta=1.0, epsilon=0.02)
print("  " + plan_to_text(small).replace("\n", "\n  "))
