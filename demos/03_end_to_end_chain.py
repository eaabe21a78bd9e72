"""End-to-end chained transmission with polar level codes.

Builds a full session for a degraded pair (Monte-Carlo code construction per
level), runs chained blocks through Bob's channel, and reports per-block
decoding outcomes and the realised throughputs.  The asymptotic plan rates
are backed off for the finite blocklength; the printout shows how the block
error rate reacts to the backoff.
"""

import numpy as np

from covertppm import bsc, build_session, msd_rate_plan, run_chain

bob, willie = bsc(0.05), bsc(0.1)
plan = msd_rate_plan(bob, willie, q=4, delta=2.0, epsilon=0.05,
                     degraded=True, ell_override=1024)

for scale in (0.9, 0.7):
    rng = np.random.default_rng(7)
    session = build_session(plan, bob, willie, rng,
                            construction_trials=4000, rate_scale=scale)
    report = run_chain(session, 10, rng)
    failed = sum(b.any_error for b in report.blocks)
    print(f"rate scale {scale}: {failed}/10 blocks failed, "
          f"{report.message_bits} message bits, covert throughput "
          f"{report.covert_throughput:.3f} bits/sqrt(n delta)")

print("\nChained keyed session (noiseless Bob, near-clean warden):")
print("secret bits from each block key the next; only block 1 needs fresh keys")
rng = np.random.default_rng(11)
noiseless = bsc(0.0)
plan = msd_rate_plan(noiseless, bsc(0.01), q=4, delta=8.0, epsilon=0.08,
                     ell_override=64)
session = build_session(plan, noiseless, bsc(0.01), rng,
                        construction_trials=300)
print(f"  per-block key need {session.total_key_bits()} bits, secret "
      f"surplus {session.total_secret_bits()} bits")
for B in (1, 2, 4, 8):
    report = run_chain(session, B, rng)
    print(f"  B = {B}: fresh key bits {report.key_bits_amortized:.0f}, key "
          f"throughput {report.key_throughput:.4f} (shrinks like 1/B), "
          f"errors: {report.cumulative_error}")
