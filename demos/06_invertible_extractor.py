"""Low-randomness resolvability via an invertible field extractor.

The resolvability-only levels need their inputs to look jointly uniform to
the warden, but true per-level uniform bits would cost (q - u) * ell random
bits per block.  A single multiplication in GF(2^w) does better: with a
public nonzero seed s, inv(s, 0, r) = s * (0 || r) stretches k shared random
bits into the full w-bit level input while keeping the warden-facing
distribution provably close to uniform PPM.  The map is regular (every
output bin has exactly 2^k preimages), two-universal, and trivially
invertible, so Bob reconstructs the level bits exactly.
"""

import numpy as np

from covertppm import ExtractorConfig, ext, inv, make_field, two_universal_check
from covertppm.extractor import random_element

rng = np.random.default_rng(2)

field = make_field(16)
cfg = ExtractorConfig(field=field, k=6)
s = random_element(field, rng)
print(f"GF(2^16), modulus {field.modulus:#x}, seed s = {s:#06x}, k = 6\n")

print("Round trip: r -> x = inv(s, 0, r) -> ext(s, x) recovers the bin:")
for _ in range(4):
    r = int(rng.integers(0, 1 << cfg.k))
    x = inv(cfg, s, 0, r)
    print(f"  r = {r:2d} -> x = {x:#06x} -> b = {ext(cfg, s, x)}")

print("\nRegularity at w = 8, k = 3 (every bin exactly 2^3 preimages):")
f8 = make_field(8)
cfg8 = ExtractorConfig(field=f8, k=3)
from covertppm.extractor import gf_inv, gf_mul
bins = np.zeros(1 << cfg8.b_width, dtype=int)
s_inv = gf_inv(f8, 0x53)
for x in range(256):
    bins[gf_mul(f8, s_inv, x) & cfg8.b_mask] += 1
print(f"  bin sizes: min {bins.min()}, max {bins.max()} (target 8)")

report = two_universal_check(cfg8, 300, rng)
print(f"\nTwo-universality at w = 8, k = 3: collision rate "
      f"{report['estimate']:.5f} <= 2^-(w-k) = {report['threshold']:.5f} "
      f"-> {report['ok']}")

print("\nSeed-independence of the bin choice: codebooks for different b are")
print("translates of each other, so b = 0 loses nothing:")
b, bp, r = 5, 9, 33
shift = inv(cfg, s, b, 0) ^ inv(cfg, s, bp, 0)
print(f"  inv(s,{b},{r}) ^ inv(s,{bp},{r}) = "
      f"{inv(cfg, s, b, r) ^ inv(cfg, s, bp, r):#06x} "
      f"= s * ((b^b')||0) = {shift:#06x}")
