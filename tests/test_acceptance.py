"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line (pytest shows the assert on failure).  The
detection and end-to-end criteria carry wall-clock budgets which are asserted
as part of the criterion.
"""

import math
import time

import numpy as np
import pytest

from covertppm.adversary import (
    detect_linear_code,
    exact_kl_oracle,
    identity_prefix_code,
    pw_single,
    pw_uniform,
)
from covertppm.channels import bac, bsc, divergence_stats
from covertppm.cli import main as cli_main
from covertppm.codec import (
    build_session,
    decode_block,
    encode_block,
    make_level_llr_sampler,
    transmit_block,
)
from covertppm.extractor import (
    ExtractorConfig,
    ext,
    gf_inv,
    gf_mul,
    inv,
    make_field,
    random_element,
    two_universal_check,
)
from covertppm.levels import level_capacity, msd_rate_plan
from covertppm.polar import construct_code, polar_transform, sc_decode

from conftest import LN2, brute_conditional_mi, pin_rates, pyramid_level_llrs

TABLE_II = [0.7421, 0.6387, 0.4918, 0.3214, 0.1749, 0.0853, 0.0413, 0.0203,
            0.0101, 0.0050, 0.0025, 0.0013, 0.0006, 0.0003, 0.0002, 0.0001]
TABLE_I_DIFFS = [-0.0905, -0.0452, -0.0084, 0.0077, 0.0084, 0.0052, 0.0028,
                 0.0014, 0.0007, 0.0004]


def test_criterion_1_capacity_table_reproduction():
    start = time.time()
    ch = bsc(0.1)
    caps = [level_capacity(ch, i) for i in range(1, 17)]
    elapsed = time.time() - start
    for i, (got, want) in enumerate(zip(caps, TABLE_II), start=1):
        assert got == pytest.approx(want, abs=5e-5), f"level {i}"
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 PASS: 16-level capacity table reproduced to 5e-5 "
          f"({elapsed:.2f}s)")


def test_criterion_2_capacity_concentration():
    ch = bsc(0.1)
    caps = [level_capacity(ch, i) for i in range(1, 17)]
    total = sum(caps)
    ratio = sum(caps[:5]) / total
    assert 2.534 <= total <= 2.537
    assert ratio == pytest.approx(0.934, abs=1e-3)
    print(f"\nACCEPTANCE 2 PASS: sum {total:.4f} bits, first-5 share "
          f"{ratio:.4f}")


def test_criterion_3_mi_difference_table():
    bob, willie = bsc(0.2), bac(0.1, 0.4)
    diffs = [level_capacity(willie, i) - level_capacity(bob, i)
             for i in range(1, 11)]
    for i, (got, want) in enumerate(zip(diffs, TABLE_I_DIFFS), start=1):
        assert got == pytest.approx(want, abs=5e-5), f"level {i}"
    d_bob = divergence_stats(bob.row1, bob.row0).kl / LN2
    d_willie = divergence_stats(willie.row1, willie.row0).kl / LN2
    assert d_bob == pytest.approx(1.2000, abs=5e-4)
    assert d_willie == pytest.approx(1.0830, abs=5e-4)
    print("\nACCEPTANCE 3 PASS: 10-level MI differences and divergences "
          "match the reference values")


def test_criterion_4_linear_code_detection():
    # The means and Chebyshev-style bounds are checked empirically at 1e5
    # trials.  At this operating point (gamma = chi2/4, |S| >= 128) the true
    # error rates are ~1e-9 (Bernstein tails), so the empirical rates are
    # exactly zero and trivially inside their bounds; the dimension trend is
    # therefore asserted on the reported analytic false-alarm bound, which
    # scales as 1/|S| and halves when k doubles.
    start = time.time()
    willie = bsc(0.1)
    st = divergence_stats(willie.row1, willie.row0)
    trials = 100_000
    rng = np.random.default_rng(1004)
    r128 = detect_linear_code(identity_prefix_code(1024, 128), willie,
                              trials, rng)
    sigma_h0 = math.sqrt(st.chi2 / r128.s_size / trials)
    var_h1 = (st.chi2 + st.chi3 / 2 - st.chi2**2 / 4) / r128.s_size
    sigma_h1 = math.sqrt(var_h1 / trials)
    assert abs(r128.mean_t_h0) <= 3 * sigma_h0
    assert abs(r128.mean_t_h1 - st.chi2 / 2) <= 3 * sigma_h1
    slack_a = 3 * math.sqrt(r128.alpha_bound_s / trials)
    slack_b = 3 * math.sqrt(r128.beta_bound_s / trials)
    assert r128.alpha_hat <= r128.alpha_bound_s + slack_a
    assert r128.beta_hat <= r128.beta_bound_s + slack_b

    r256 = detect_linear_code(identity_prefix_code(1024, 256), willie,
                              trials, rng)
    assert r256.alpha_hat <= r256.alpha_bound_s + slack_a
    ratio = r128.alpha_bound_s / r256.alpha_bound_s
    assert 1.5 <= ratio <= 2.5
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 4 PASS: H0 mean {r128.mean_t_h0:+.5f}, H1 mean "
          f"{r128.mean_t_h1:.5f} (target {st.chi2/2:.5f}), empirical rates "
          f"({r128.alpha_hat}, {r128.beta_hat}) within bounds, alpha-bound "
          f"ratio {ratio:.2f} ({elapsed:.1f}s)")


def test_criterion_5_stationarity_oracle():
    worst = 0.0
    for ch in (bsc(0.1), bac(0.1, 0.4)):
        for i in (1, 2):
            closed = level_capacity(ch, i)
            for q in range(i, 4):
                brute = brute_conditional_mi(ch, i, q)
                worst = max(worst, abs(closed - brute))
                assert abs(closed - brute) < 1e-10, (i, q)
    print(f"\nACCEPTANCE 5 PASS: stationarity verified against the full "
          f"super channel, worst residual {worst:.2e}")


def test_criterion_6_decoder_permutation_invariance():
    rng = np.random.default_rng(1006)
    ch = bsc(0.1)
    lam = ch.row1 / ch.row0
    cdf0, cdf1 = np.cumsum(ch.row0), np.cumsum(ch.row1)
    checked = 0
    for i in (1, 2, 3):
        width = 1 << i
        half = width // 2
        for ell in (8, 64):
            k = max(1, int(0.4 * level_capacity(ch, i) * ell))
            sampler = make_level_llr_sampler(ch, i)
            code = construct_code(sampler, ell, k, 400, rng)
            for _ in range(100):
                bits = rng.integers(0, 2, size=k, dtype=np.uint8)
                u = np.zeros(ell, dtype=np.uint8)
                u[code.message] = bits
                x = polar_transform(u).astype(np.int64)
                draw = rng.random((ell, width))
                sym = np.searchsorted(cdf0, draw)
                pulse = half * x + rng.integers(0, half, size=ell)
                rows = np.arange(ell)
                sym[rows, pulse] = np.searchsorted(cdf1, draw[rows, pulse])
                plain, _ = sc_decode(pyramid_level_llrs(sym, lam), code)
                perms = np.stack([
                    np.concatenate([rng.permutation(half),
                                    half + rng.permutation(half)])
                    for _ in range(ell)
                ])
                permuted = np.take_along_axis(sym, perms, axis=1)
                twisted, _ = sc_decode(pyramid_level_llrs(permuted, lam), code)
                np.testing.assert_array_equal(plain, twisted)
                checked += 1
    print(f"\nACCEPTANCE 6 PASS: {checked} permuted decodes identical, "
          "zero tolerance")


def test_criterion_7_extractor_suite():
    rng = np.random.default_rng(1007)
    # round trips: 1e4 random triples across the three widths
    for w, k in ((8, 3), (16, 6), (24, 9)):
        field = make_field(w)
        cfg = ExtractorConfig(field=field, k=k)
        for _ in range(3334):
            s = random_element(field, rng)
            b = int(rng.integers(0, 1 << cfg.b_width))
            r = int(rng.integers(0, 1 << k))
            x = inv(cfg, s, b, r)
            assert ext(cfg, s, x) == b
            assert gf_mul(field, gf_inv(field, s), x) >> cfg.b_width == r
    # regularity, exhaustive at w = 8: every bin holds exactly 2^k points
    field8 = make_field(8)
    cfg8 = ExtractorConfig(field=field8, k=3)
    for s in range(1, 256):
        s_inv = gf_inv(field8, s)
        bins = np.zeros(1 << cfg8.b_width, dtype=np.int64)
        for x in range(256):
            bins[gf_mul(field8, s_inv, x) & cfg8.b_mask] += 1
        assert np.all(bins == 8)
    # two-universality at w = 8
    report = two_universal_check(cfg8, 200, rng)
    assert report["estimate"] <= 2.0 ** -5 + 3 * report["sigma"] + 1e-12
    print("\nACCEPTANCE 7 PASS: 10002 round trips exact, regularity "
          f"exhaustive, collision rate {report['estimate']:.5f} <= 2^-5")


def test_criterion_8_tiny_covertness_oracle():
    willie = bsc(0.1)
    st = divergence_stats(willie.row1, willie.row0)
    single = exact_kl_oracle(willie, 2, 1, pw_single([1]))
    assert single.d_pz_q0 == pytest.approx(st.kl, abs=1e-12)
    uniform = exact_kl_oracle(willie, 2, 1, pw_uniform(2, 1))
    assert uniform.d_pz_qppm == pytest.approx(0.0, abs=1e-12)
    count = 0
    for m in (2, 4):
        for ell in (1, 2, 3):
            sources = [
                pw_single([1] * ell),
                pw_single([1 + (j % m) for j in range(ell)]),
                pw_uniform(m, ell),
                {tuple([1] * ell): 0.5, tuple([m] * ell): 0.5},
            ]
            for pw in sources:
                report = exact_kl_oracle(willie, m, ell, pw)
                assert report.inequality_holds(), (m, ell)
                count += 1
    print(f"\nACCEPTANCE 8 PASS: exact divergences match and the "
          f"decomposition inequality holds on all {count} enumerated "
          "configurations")


def test_criterion_9_end_to_end_error_trend():
    start = time.time()
    bob, willie = bsc(0.05), bsc(0.1)
    caps = [level_capacity(bob, i) for i in range(1, 5)]
    rates = {i: 0.7 * caps[i - 1] for i in range(1, 5)}

    def run(ell, seed, trials):
        rng = np.random.default_rng(seed)
        plan = msd_rate_plan(bob, willie, 4, delta=1.0, epsilon=0.05,
                             degraded=True, ell_override=ell)
        sess = build_session(pin_rates(plan, rates), bob, willie, rng,
                             construction_trials=trials)
        blocks = 300
        block_errs = 0
        level_errs = {i: 0 for i in range(1, 5)}
        for _ in range(blocks):
            msgs = {i: rng.integers(0, 2, size=sess.layouts[i].n_msg,
                                    dtype=np.uint8) for i in sess.layouts}
            frame, tx = encode_block(sess, msgs, {}, rng)
            received = transmit_block(sess, frame, rng)
            result = decode_block(sess, received, keys={}, tx=tx)
            block_errs += result.any_error
            for i, bad in result.block_errors.items():
                level_errs[i] += bad
        return block_errs / blocks, {i: v / blocks for i, v in level_errs.items()}

    bler = {}
    for ell, seed, trials in ((256, 11, 4000), (1024, 12, 4000),
                              (4096, 13, 8000)):
        rate, level_rates = run(ell, seed, trials)
        bler[ell] = rate
        union = sum(level_rates.values())
        sigma = math.sqrt(max(union, 1 / 300) / 300)
        assert rate <= union + 3 * sigma, (ell, rate, union)
    assert bler[256] > bler[1024] > bler[4096]
    elapsed = time.time() - start
    assert elapsed < 600.0
    print(f"\nACCEPTANCE 9 PASS: block error rate {bler[256]:.3f} -> "
          f"{bler[1024]:.3f} -> {bler[4096]:.3f} strictly decreasing, union "
          f"bound respected ({elapsed:.0f}s)")


def test_criterion_10_cli_determinism(tmp_path):
    commands = {
        "tables": ["tables", "--bob", "bsc:0.1", "--levels", "8"],
        "plan": ["plan", "--bob", "bsc:0.05", "--willie", "bsc:0.1",
                 "--levels", "6", "--delta", "1.0", "--degraded"],
        "simulate": ["simulate", "--bob", "bsc:0.05", "--willie", "bsc:0.1",
                     "--levels", "3", "--delta", "2.0", "--blocks", "3",
                     "--degraded", "--ell", "64", "--rate-scale", "0.6",
                     "--trials", "300", "--seed", "42"],
        "detect": ["detect", "--willie", "bsc:0.1", "--generator",
                   "identity:128,32", "--trials", "3000", "--seed", "42"],
        "covertness-exact": ["covertness", "--willie", "bsc:0.1", "--exact",
                             "--order", "2", "--ell", "2", "--source",
                             "uniform", "--seed", "42"],
        "covertness": ["covertness", "--bob", "bsc:0.05", "--willie",
                       "bsc:0.1", "--levels", "2", "--delta", "2.0",
                       "--degraded", "--ell", "16", "--construction-trials",
                       "200", "--trials", "40", "--seed", "42"],
    }
    for name, args in commands.items():
        a = tmp_path / f"{name}_a.out"
        b = tmp_path / f"{name}_b.out"
        assert cli_main(args + ["--out", str(a)]) == 0, name
        assert cli_main(args + ["--out", str(b)]) == 0, name
        assert a.read_bytes() == b.read_bytes(), name
    print(f"\nACCEPTANCE 10 PASS: {len(commands)} CLI commands re-run "
          "byte-identical")
