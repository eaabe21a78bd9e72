"""Per-level capacities of the pulse-position decomposition.

Splitting an order-m PPM super channel into q = log2(m) binary levels gives
each level a stationary channel whose capacity has a closed form: the
difference of two exact output divergences.  This script prints the 16-level
capacity table for a BSC(0.1), shows how quickly the capacity concentrates
in the first few levels, and compares Bob/Willie mutual informations for a
non-degraded pair (the sign of the difference decides which levels yield
secrecy surplus and which need keys).
"""

from covertppm import bac, bsc, divergence_stats, level_capacity, level_mi_table
from covertppm.channels import LN2
from covertppm.levels import level_capacity_bound

ch = bsc(0.1)
caps = [level_capacity(ch, i) for i in range(1, 17)]
total = sum(caps)

print("Level capacities for BSC(0.1), bits per super-symbol use:")
for i, c in enumerate(caps, start=1):
    bar = "#" * int(60 * c / caps[0])
    print(f"  level {i:2d}: {c:8.4f}  {bar}")
print(f"  sum of 16 levels: {total:.4f} bits "
      f"(D(P1||P0) = {divergence_stats(ch.row1, ch.row0).kl / LN2:.4f})")
print(f"  first 5 levels hold {100 * sum(caps[:5]) / total:.1f}% of the total\n")

st = divergence_stats(ch.row1, ch.row0)  # nats, for the analytic bound
print("Closed-form upper bound vs exact value (nats):")
for i in (6, 9, 12, 15):
    print(f"  level {i:2d}: exact {level_capacity(ch, i) * LN2:.6f}"
          f"  bound {level_capacity_bound(st, i):.6f}")

print("\nBob = BSC(0.2) vs Willie = BAC(0.1, 0.4), 10 levels:")
print(f"  {'level':>5} {'I_Y':>8} {'I_Z':>8} {'I_Z - I_Y':>10}")
for row in level_mi_table(bsc(0.2), bac(0.1, 0.4), 10):
    tag = "secrecy surplus" if row.diff < 0 else "key deficit"
    print(f"  {row.level:5d} {row.i_y:8.4f} {row.i_z:8.4f} {row.diff:+10.4f}"
          f"  ({tag})")
