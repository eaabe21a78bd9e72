import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest

from covertppm import codec, extractor, levels
from covertppm.channels import bac, bsc, make_dmc
from covertppm.codec import (
    Session,
    SessionError,
    build_session,
    decode_block,
    encode_block,
    run_chain,
    transmit_block,
)
from covertppm.extractor import FieldError
from covertppm.levels import (
    level_law,
    level_llrs,
    likelihood_sums,
    make_level_llr_sampler,
    msd_rate_plan,
    select_positions_batch,
)
from covertppm.polar import polar_transform
from covertppm.ppm import EnumerationBudgetError, decimal_values, frame_from_bits, transmit_super

from conftest import (
    atom_counts,
    half_histogram_pmf,
    pin_rates,
    pooled_chi2_pvalue,
    read_symbols,
    super_channel_matrix,
)

NOISELESS = make_dmc([1.0, 0.0], [0.0, 1.0])


def noiseless_session(q, ell, rng, rates=None, **kwargs):
    plan = msd_rate_plan(NOISELESS, bsc(0.1), q, delta=8.0, epsilon=0.05,
                         degraded=True, ell_override=ell)
    if rates:
        plan = pin_rates(plan, rates)
    return build_session(plan, NOISELESS, bsc(0.1), rng, construction_trials=300,
                         **kwargs)


def random_payloads(session, rng):
    msgs = {i: rng.integers(0, 2, size=session.layouts[i].n_msg
                            + session.layouts[i].n_sec, dtype=np.uint8)
            for i in session.layouts}
    keys = {i: rng.integers(0, 2, size=session.layouts[i].n_key, dtype=np.uint8)
            for i in session.layouts}
    return msgs, keys


class TestEncodeBlock:
    def test_all_zero_inputs_map_to_position_one(self, rng):
        sess = noiseless_session(2, 2, rng, rates={1: 1.0, 2: 1.0})
        msgs = {1: np.zeros(2, np.uint8), 2: np.zeros(2, np.uint8)}
        frame, _ = encode_block(sess, msgs, {}, rng)
        np.testing.assert_array_equal(frame.positions, [1, 1])

    def test_steered_level_bits_map_to_positions(self, rng):
        # level bits x1 = (1,1), x2 = (0,1) must select positions (2, 4);
        # with all positions informational the payload is the transform
        # preimage of the wanted codeword (the transform is involutive)
        sess = noiseless_session(2, 2, rng, rates={1: 1.0, 2: 1.0})
        msgs = {
            1: polar_transform(np.array([1, 1], np.uint8)),
            2: polar_transform(np.array([0, 1], np.uint8)),
        }
        frame, tx = encode_block(sess, msgs, {}, rng)
        np.testing.assert_array_equal(tx.level_bits[0], [1, 1])
        np.testing.assert_array_equal(tx.level_bits[1], [0, 1])
        np.testing.assert_array_equal(frame.positions, [2, 4])

    def test_payload_size_validated(self, rng):
        sess = noiseless_session(2, 4, rng)
        with pytest.raises(SessionError, match="payload"):
            encode_block(sess, {1: np.zeros(1, np.uint8),
                                2: np.zeros(99, np.uint8)}, {}, rng)


class TestNoiselessRoundTrip:
    def test_q4_ell64_exact(self, rng):
        sess = noiseless_session(4, 64, rng)
        msgs, keys = random_payloads(sess, rng)
        frame, tx = encode_block(sess, msgs, keys, rng)
        received = transmit_block(sess, frame, rng)
        result = decode_block(sess, received, keys=keys, tx=tx)
        assert not result.any_error
        for i in sess.layouts:
            np.testing.assert_array_equal(result.decoded_bits[i], msgs[i])

    def test_various_geometries(self, rng):
        for q, ell in ((1, 8), (2, 16), (3, 32)):
            sess = noiseless_session(q, ell, rng)
            msgs, keys = random_payloads(sess, rng)
            frame, tx = encode_block(sess, msgs, keys, rng)
            received = transmit_block(sess, frame, rng)
            result = decode_block(sess, received, keys=keys, tx=tx)
            assert not result.any_error


class TestMsdEquivalence:
    @staticmethod
    def _output_index(block, a):
        idx = 0
        for y in block:
            idx = idx * a + int(y)
        return idx

    @pytest.mark.parametrize("q,i", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
    def test_decoder_llrs_match_enumerated_channel(self, q, i, rng):
        # the per-symbol LLR the receiver computes from half-sums of
        # likelihood ratios equals log of the exact transition ratio
        # P(block | x_i = 0, highers) / P(block | x_i = 1, highers)
        # on the full super channel
        ch = bac(0.1, 0.4)
        ell = 8
        w = super_channel_matrix(ch, q)
        lam = ch.row1 / ch.row0
        bits = rng.integers(0, 2, size=(q, ell), dtype=np.uint8)
        frame = frame_from_bits(bits)
        received = transmit_super(ch, frame, rng)
        got = level_llrs(*select_positions_batch(received, decimal_values(bits[i:q]), i), lam)
        symbols = read_symbols(received)
        for j in range(ell):
            high = bits[i:q, j]
            members0, members1 = [], []
            for d in range(1 << q):
                db = [(d >> t) & 1 for t in range(q)]
                if tuple(db[i:]) != tuple(high):
                    continue
                (members1 if db[i - 1] else members0).append(d)
            yidx = self._output_index(symbols[j], ch.alphabet_size)
            p0 = w[members0, yidx].mean()
            p1 = w[members1, yidx].mean()
            assert got[j] == pytest.approx(math.log(p0 / p1), rel=1e-11)


class TestFaultInjection:
    def test_corrupt_top_level_changes_lower_selection(self, rng):
        # regression guard: wrong top-level decisions must shift the
        # position subsets fed to the lower levels (no crash, no silent
        # reuse of the correct subsets)
        ch = bsc(0.05)
        plan = msd_rate_plan(ch, bsc(0.1), 2, delta=4.0, epsilon=0.05,
                             degraded=True, ell_override=32)
        sess = build_session(plan, ch, bsc(0.1), rng, construction_trials=500)
        msgs, keys = random_payloads(sess, rng)
        frame, tx = encode_block(sess, msgs, keys, rng)
        received = transmit_block(sess, frame, rng)
        lam = ch.row1 / ch.row0
        good = select_positions_batch(received, decimal_values(tx.level_bits[1:2]), 1)
        corrupt = select_positions_batch(received, decimal_values(tx.level_bits[1:2] ^ 1), 1)
        assert not np.array_equal(good, corrupt)
        llr_good = level_llrs(*good, lam)
        llr_bad = level_llrs(*corrupt, lam)
        assert not np.array_equal(llr_good, llr_bad)


def keyed_noiseless_session(rng, ell=64):
    # noiseless Bob against a near-clean warden manufactures both secret
    # surplus (high levels) and key deficit (low levels) in one plan
    plan = msd_rate_plan(NOISELESS, bsc(0.01), 4, delta=8.0, epsilon=0.08,
                         ell_override=ell)
    sess = build_session(plan, NOISELESS, bsc(0.01), rng,
                         construction_trials=300)
    assert sess.total_key_bits() > 0
    assert sess.total_secret_bits() >= sess.total_key_bits()
    return sess


class TestChaining:
    def test_noiseless_keyed_chain_conserves_keys(self, rng):
        # zero errors across chained blocks proves the receiver's
        # decoded-secret stream reproduces the transmitter's key schedule
        # bit for bit (wrong pins would corrupt the decode)
        sess = keyed_noiseless_session(rng)
        report = run_chain(sess, 4, rng)
        assert not report.cumulative_error
        assert report.key_bits_first_block == sess.total_key_bits()
        assert report.key_bits_amortized == sess.total_key_bits()

    def test_single_block_reduces_to_key_count(self, rng):
        sess = keyed_noiseless_session(rng)
        report = run_chain(sess, 1, rng)
        assert report.key_bits_first_block == sess.total_key_bits()
        assert len(report.blocks) == 1

    def test_key_throughput_scales_inverse_blocks(self, rng):
        # keys are paid once while n and the budget of the B blocks run both
        # grow like B: the normaliser sqrt(n * delta_B) grows like B
        sess = keyed_noiseless_session(rng)
        base = run_chain(sess, 1, rng).key_throughput
        for B in (2, 4, 8):
            kt = run_chain(sess, B, rng).key_throughput
            assert kt * B == pytest.approx(base, rel=1e-12)

    def test_throughputs_normalised_by_stated_budget(self, rng):
        # a 100-symbol override rounds down to 64-symbol blocks, whose
        # budget is not the plan's delta: a chain of the plan's B blocks
        # divides by sqrt(n * delta_effective), the budget the session states
        sess = keyed_noiseless_session(rng, ell=100)
        assert sess.ell == 64
        assert sess.delta_effective != pytest.approx(sess.plan.delta)
        B = sess.plan.B
        report = run_chain(sess, B, rng)
        norm = math.sqrt(B * sess.plan.m * sess.ell * sess.delta_effective)
        assert report.key_bits_amortized > 0
        assert report.covert_throughput == report.message_bits / norm
        assert report.key_throughput == (
            report.key_bits_amortized + report.extractor_r_bits) / norm

    @pytest.mark.parametrize("B", [2, 5])
    def test_throughputs_normalised_by_budget_of_blocks_run(self, rng, B):
        # B differs from the plan's block count: the budget is that of the B
        # blocks run, B * ell * chi2 / (2m), not delta_effective
        sess = keyed_noiseless_session(rng, ell=100)
        assert sess.plan.B != B
        report = run_chain(sess, B, rng)
        chi2, m = sess.willie.stats.chi2, sess.plan.m
        norm = math.sqrt(B * m * sess.ell * B * sess.ell * chi2 / (2 * m))
        assert report.covert_throughput == pytest.approx(
            report.message_bits / norm, rel=1e-12)
        assert report.key_throughput == pytest.approx(
            (report.key_bits_amortized + report.extractor_r_bits) / norm, rel=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_z_channel_bob_chain_reports_its_block_errors(self, seed, monkeypatch):
        # row1 has no mass on symbol 0: after a wrong higher-level decision
        # the selected subblock can hold no pulse, so both half-sums are 0.
        # Those LLRs are 0, the chain completes, and each block's error flag
        # is the comparison of its decoded and sent payloads
        bob, willie = bac(0.05, 0.0), bac(0.2, 0.1)
        plan = msd_rate_plan(bob, willie, 3, 2.0, 20, 0.05, ell_override=64)
        rng = np.random.default_rng(seed)
        sess = build_session(plan, bob, willie, rng, construction_trials=100)
        both_zero, wrong = [], []

        def llrs(first, second, lam):
            both_zero.append(np.any((likelihood_sums(first, lam) == 0)
                                    & (likelihood_sums(second, lam) == 0)))
            return level_llrs(first, second, lam)

        def decode(session, received, **kwargs):
            result = decode_block(session, received, **kwargs)
            sent = kwargs["tx"].messages
            wrong.append(any(not np.array_equal(result.decoded_bits[i], sent[i])
                             for i in sent))
            return result

        monkeypatch.setattr(codec, "level_llrs", llrs)
        monkeypatch.setattr(codec, "decode_block", decode)
        report = run_chain(sess, 20, rng)
        assert any(both_zero)
        assert [b.any_error for b in report.blocks] == wrong
        assert any(wrong)

    def test_infeasible_chain_signalled(self, rng):
        # secrets scaled to zero while keys remain: B > 1 must refuse
        plan = dataclasses.replace(
            msd_rate_plan(bsc(0.2), bac(0.1, 0.4), 5, delta=2.0,
                          epsilon=0.02, ell_override=64), u=4)
        sess = build_session(plan, bsc(0.2), bac(0.1, 0.4), rng,
                             construction_trials=300, rate_scale=0.3)
        assert sess.total_secret_bits() < sess.total_key_bits()
        with pytest.raises(SessionError, match="infeasible"):
            run_chain(sess, 2, rng)
        run_chain(sess, 1, rng)  # single block is fine

    def test_table_pair_chain_feasible(self):
        plan = msd_rate_plan(bsc(0.2), bac(0.1, 0.4), 10, delta=1.0,
                             epsilon=0.005)
        assert plan.sum_rv() > plan.sum_rk()


class TestBitEntries:
    # payload and key entries other than 0 and 1 are refused where they
    # enter, before a uint8 cast can read 257 as 1

    @pytest.mark.parametrize("what", ["payload", "key"])
    def test_encode_block_refuses_them(self, rng, what):
        # a payload 3 went out as a 1 but was recorded as a 3, so the
        # receiver's correct decode was flagged as a block error
        sess = keyed_noiseless_session(rng)
        msgs, keys = random_payloads(sess, rng)
        values = msgs if what == "payload" else keys
        i = max(i for i, v in values.items() if v.size)
        values[i] = values[i].astype(np.int64)
        values[i][-1] = 3
        with pytest.raises(SessionError, match=f"level {i}: {what} bits must be 0 or 1"):
            encode_block(sess, msgs, keys, rng)

    @pytest.mark.parametrize("what", ["payload", "key"])
    @pytest.mark.parametrize("shape", ["scalar", "2-D"])
    def test_encode_block_refuses_bits_that_are_not_1d(self, rng, what, shape):
        # a scalar ended in "IndexError: tuple index out of range"
        sess = keyed_noiseless_session(rng)
        msgs, keys = random_payloads(sess, rng)
        values = msgs if what == "payload" else keys
        i = max(i for i, v in values.items() if v.size)
        values[i] = values[i][0] if shape == "scalar" else values[i][None, :]
        with pytest.raises(SessionError, match=f"level {i}: {what} bits must be a 1-D array"):
            encode_block(sess, msgs, keys, rng)

    @pytest.mark.parametrize("shape", ["scalar", "2-D"])
    def test_decode_block_refuses_keys_that_are_not_1d(self, rng, shape):
        sess = keyed_noiseless_session(rng)
        msgs, keys = random_payloads(sess, rng)
        frame, tx = encode_block(sess, msgs, keys, rng)
        received = transmit_block(sess, frame, rng)
        i = max(i for i, v in keys.items() if v.size)
        bad = {**keys, i: keys[i][0] if shape == "scalar" else keys[i][None, :]}
        with pytest.raises(SessionError, match=f"level {i}: key bits must be a 1-D array"):
            decode_block(sess, received, keys=bad, tx=tx)

    def test_decode_block_refuses_them_in_keys(self, rng):
        # a pinned 2 reached the decided codeword, by which the lower levels
        # select their subblocks
        sess = keyed_noiseless_session(rng)
        msgs, keys = random_payloads(sess, rng)
        frame, tx = encode_block(sess, msgs, keys, rng)
        received = transmit_block(sess, frame, rng)
        i = max(i for i, v in keys.items() if v.size)
        bad = {**keys, i: keys[i].astype(np.int64)}
        bad[i][0] = 2
        with pytest.raises(SessionError, match=f"level {i}: key bits must be 0 or 1"):
            decode_block(sess, received, keys=bad, tx=tx)

    def test_run_chain_refuses_them_from_the_message_source(self, rng):
        sess = keyed_noiseless_session(rng)

        def source(level, count, block):
            bits = rng.integers(0, 2, size=count)
            bits[:1] = 257
            return bits

        with pytest.raises(SessionError, match="payload bits must be 0 or 1"):
            run_chain(sess, 2, rng, message_source=source)


class TestResolvabilityLevels:
    def _tail_session(self, rng, resolvability):
        plan = dataclasses.replace(
            msd_rate_plan(bsc(0.2), bac(0.1, 0.4), 4, delta=2.0,
                          epsilon=0.02, ell_override=256), u=3)
        return build_session(plan, bsc(0.2), bac(0.1, 0.4), rng,
                             construction_trials=2000, rate_scale=0.6,
                             resolvability=resolvability)

    def test_full_uniform_needs_genie_and_flags_it(self, rng):
        sess = self._tail_session(rng, "full_uniform")
        assert sess.u < sess.q
        msgs, keys = random_payloads(sess, rng)
        frame, tx = encode_block(sess, msgs, keys, rng)
        received = transmit_block(sess, frame, rng)
        with pytest.raises(SessionError, match="genie"):
            decode_block(sess, received, keys=keys)
        result = decode_block(sess, received, keys=keys, tx=tx)
        assert result.genie_levels == tuple(range(sess.u + 1, sess.q + 1))

    def test_extractor_mode_reconstructs_without_genie(self, rng):
        sess = self._tail_session(rng, "extractor")
        msgs, keys = random_payloads(sess, rng)
        frame, tx = encode_block(sess, msgs, keys, rng)
        assert tx.extractor_r.shape == (sess.extractor_cfg.k,)
        received = transmit_block(sess, frame, rng)
        result = decode_block(sess, received, keys=keys, extractor_r=tx.extractor_r)
        assert result.genie_levels == ()
        for i in sess.layouts:
            np.testing.assert_array_equal(result.decoded_bits[i], msgs[i])

    def test_extractor_input_of_wrong_length_refused(self, rng):
        # the receiver rebuilt wrong resolvability levels from a short input
        sess = self._tail_session(rng, "extractor")
        msgs, keys = random_payloads(sess, rng)
        frame, tx = encode_block(sess, msgs, keys, rng)
        received = transmit_block(sess, frame, rng)
        for r in (tx.extractor_r[:-1], np.append(tx.extractor_r, 0)):
            with pytest.raises(SessionError, match="extractor input"):
                decode_block(sess, received, keys=keys, extractor_r=r)

    def test_extractor_input_entries_other_than_bits_refused(self, rng):
        # the extractor reads the low bit of each entry, so a 2 would
        # silently rebuild the levels of a 0
        sess = self._tail_session(rng, "extractor")
        msgs, keys = random_payloads(sess, rng)
        frame, tx = encode_block(sess, msgs, keys, rng)
        received = transmit_block(sess, frame, rng)
        r = tx.extractor_r.astype(np.int64)
        r[0] += 2
        with pytest.raises(SessionError, match="extractor input must be .* each 0 or 1"):
            decode_block(sess, received, keys=keys, extractor_r=r)

    def test_extractor_tail_bits_are_reproducible(self, rng):
        # equally seeded generators draw the same extractor input and bits
        sess = self._tail_session(rng, "extractor")
        msgs, keys = random_payloads(sess, rng)
        _, tx_a = encode_block(sess, msgs, keys, np.random.default_rng(5))
        _, tx_b = encode_block(sess, msgs, keys, np.random.default_rng(5))
        np.testing.assert_array_equal(tx_a.extractor_r, tx_b.extractor_r)
        np.testing.assert_array_equal(tx_a.level_bits, tx_b.level_bits)

    def test_keyed_level_left_out_of_keys_refused(self, rng):
        # the receiver has no default keys: a keyed level needs its own
        sess = self._tail_session(rng, "full_uniform")
        msgs, keys = random_payloads(sess, rng)
        keyed = [i for i, lay in sess.layouts.items() if lay.n_key]
        assert keyed
        frame, tx = encode_block(sess, msgs, keys, rng)
        received = transmit_block(sess, frame, rng)
        for i in keyed:
            partial = {j: v for j, v in keys.items() if j != i}
            with pytest.raises(SessionError, match=f"level {i}: expected "
                                                   f"{sess.layouts[i].n_key} key bits"):
                decode_block(sess, received, keys=partial, tx=tx)

    def test_extractor_input_comes_only_from_extractor_r(self, rng):
        # the transmitter record is the genie's, not the receiver's input
        sess = self._tail_session(rng, "extractor")
        msgs, keys = random_payloads(sess, rng)
        frame, tx = encode_block(sess, msgs, keys, rng)
        received = transmit_block(sess, frame, rng)
        with pytest.raises(SessionError, match="shared input"):
            decode_block(sess, received, keys=keys, tx=tx)
        result = decode_block(sess, received, keys=keys, extractor_r=tx.extractor_r, tx=tx)
        assert result.genie_levels == ()

    def test_run_chain_rebuilds_extractor_levels(self, rng):
        # a noiseless Bob decodes every block, so any error would come from
        # resolvability levels rebuilt from the wrong extractor input
        plan = dataclasses.replace(
            msd_rate_plan(NOISELESS, bsc(0.1), 4, delta=8.0, epsilon=0.05,
                          degraded=True, ell_override=64), u=2)
        sess = build_session(plan, NOISELESS, bsc(0.1), rng, construction_trials=300,
                             resolvability="extractor")
        assert sess.u < sess.q and sess.extractor_cfg is not None
        B = 3
        report = run_chain(sess, B, rng)
        assert not report.cumulative_error
        assert not any(block.any_error for block in report.blocks)
        assert report.genie_levels == ()
        assert report.extractor_r_bits == B * sess.extractor_cfg.k


class TestBuildSession:
    def test_blocklength_rounded_down_to_power_of_two(self, rng):
        plan = msd_rate_plan(bsc(0.05), bsc(0.1), 4, delta=1.0,
                             epsilon=0.05, degraded=True, ell_override=288)
        sess = build_session(plan, bsc(0.05), bsc(0.1), rng,
                             construction_trials=200)
        assert sess.ell == 256
        chi2 = 64.0 / 9.0
        assert sess.delta_effective == pytest.approx(256 * chi2 / 32.0)

    def test_bad_resolvability_name(self, rng):
        plan = msd_rate_plan(bsc(0.05), bsc(0.1), 2, delta=4.0,
                             epsilon=0.05, degraded=True, ell_override=16)
        with pytest.raises(SessionError):
            build_session(plan, bsc(0.05), bsc(0.1), rng,
                          resolvability="psychic")

    def test_infinite_warden_chi2_rejected(self, rng):
        # the planner rejects this warden itself, so plan for a finite one:
        # the session must not restate the covertness budget as
        # delta_effective = inf
        warden = bac(0.0, 0.3)
        plan = msd_rate_plan(bsc(0.05), bsc(0.1), 2, delta=1.0, epsilon=0.05,
                             degraded=True, ell_override=32)
        with pytest.raises(SessionError, match="infinite"):
            build_session(plan, bsc(0.05), warden, rng, construction_trials=50)

    def test_q16_ell4096_builds_and_runs_one_block(self, rng):
        # 2^28 channel uses per block, drawn along the pulse paths.  With
        # 50 construction trials and the full rates every level fails, so
        # the receiver reads every level below the first error off the
        # pulse paths: splits of the siblings, not 2^16 symbols per row
        plan = msd_rate_plan(bsc(0.05), bsc(0.1), 16, delta=1.0, degraded=True,
                             ell_override=4096)
        session = build_session(plan, bsc(0.05), bsc(0.1), rng, construction_trials=50)
        assert (session.q, session.ell) == (16, 4096)
        tracemalloc.start()
        try:
            report = run_chain(session, 1, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.blocks) == 1 and report.blocks[0].any_error
        assert peak <= 64 << 20

    def test_unsearched_field_width_refused_before_code_construction(self, rng,
                                                                     monkeypatch):
        # q - u = 3 resolvability levels of ell = 512 need GF(2^1536), which
        # has no bundled modulus: refused before any irreducibility test or
        # code construction, not after minutes of both
        calls = []
        monkeypatch.setattr(codec, "construct_code",
                            lambda *a, **k: calls.append("construct_code"))
        monkeypatch.setattr(extractor, "is_irreducible",
                            lambda f: calls.append("is_irreducible"))
        plan = msd_rate_plan(bsc(0.05), bsc(0.1), 12, delta=1.0, degraded=True,
                             ell_override=512)
        assert (plan.q - plan.u) * plan.ell == 1536
        with pytest.raises(FieldError, match="w=1536"):
            build_session(plan, bsc(0.05), bsc(0.1), rng, construction_trials=50,
                          resolvability="extractor")
        assert calls == []

    @pytest.mark.parametrize("scale", [0.0, -1.0, 1.5, math.inf, math.nan])
    def test_rate_scale_outside_unit_interval_refused(self, rng, scale):
        plan = msd_rate_plan(bsc(0.05), bsc(0.1), 2, delta=4.0,
                             epsilon=0.05, degraded=True, ell_override=16)
        with pytest.raises(SessionError, match=r"rate_scale must lie in \(0, 1\]"):
            build_session(plan, bsc(0.05), bsc(0.1), rng, construction_trials=50,
                          rate_scale=scale)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_construction_trials_below_one_refused(self, rng, monkeypatch, trials):
        def construct_code(*args, **kwargs):
            raise AssertionError("code constructed for a bad trial count")

        monkeypatch.setattr(codec, "construct_code", construct_code)
        plan = msd_rate_plan(bsc(0.05), bsc(0.1), 2, delta=4.0,
                             epsilon=0.05, degraded=True, ell_override=16)
        with pytest.raises(SessionError, match=rf"construction_trials must be >= 1, got {trials}"):
            build_session(plan, bsc(0.05), bsc(0.1), rng, construction_trials=trials)


TERNARY = make_dmc([0.7, 0.2, 0.1], [0.2, 0.3, 0.5])


class TestLevelLlrSampler:
    @pytest.mark.parametrize("ch", [bsc(0.05), TERNARY], ids=["bsc0.05", "ternary"])
    @pytest.mark.parametrize("i", range(1, 7))
    def test_half_histograms_follow_exact_atom_law(self, ch, i):
        # chi-square goodness of fit of the drawn atom index pairs, read as
        # their (first half, second half) histograms, against the exact pmf
        # of the multinomial oracle; atoms expected fewer than 5 times are
        # pooled into one cell
        atoms, pmf = half_histogram_pmf(ch, i)
        n = 40_000
        law = level_law(ch, i)
        first, second = law.draw(n, np.random.default_rng(100 + i))
        c0, c1 = law.histograms[first], law.histograms[second]
        h = 1 << (i - 1)
        assert np.all(c0.sum(axis=1) == h) and np.all(c1.sum(axis=1) == h)
        observed = atom_counts(atoms, np.stack([c0, c1], axis=1))
        assert pooled_chi2_pvalue(observed, n * pmf) > 1e-4

    def test_sampler_is_histograms_through_llrs(self):
        # bitwise the receivers' LLRs of the drawn atoms' histograms
        ch = TERNARY
        sampler = make_level_llr_sampler(ch, 3)
        got = sampler(500, np.random.default_rng(8))
        law = level_law(ch, 3)
        first, second = law.draw(500, np.random.default_rng(8))
        np.testing.assert_array_equal(
            got, level_llrs(law.histograms[first], law.histograms[second], ch.lam))

    def test_sampler_past_the_law_budget_refused_when_made(self):
        # refused before any code construction draws from it
        with pytest.raises(EnumerationBudgetError, match="level 12: "):
            make_level_llr_sampler(TERNARY, 12)

    def test_codec_builds_sessions_with_the_level_sampler(self):
        # the benchmark's tracer looks the factory up in codec
        assert codec.make_level_llr_sampler is levels.make_level_llr_sampler

    def test_high_level_draws_are_cheap(self):
        # 2^20 level-16 LLRs: drawing every output would take 2^36 uniforms
        start = time.perf_counter()
        llrs = make_level_llr_sampler(bsc(0.05), 16)(2**20, np.random.default_rng(0))
        assert time.perf_counter() - start < 20.0
        assert llrs.shape == (2**20,) and np.all(np.isfinite(llrs))
