import itertools
import math
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertppm import levels, ppm
from covertppm.adversary import covertness_estimate
from covertppm.channels import ChannelError, bac, bsc, divergence_stats, make_dmc
from covertppm.codec import build_session
from covertppm.levels import (
    DEFAULT_LLR_MAX,
    LevelRates,
    RatePlan,
    RatePlanError,
    TableSampler,
    level_capacity,
    level_capacity_bound,
    level_law,
    level_llrs,
    level_mi_table,
    msd_rate_plan,
    plan_to_text,
    planned_blocklength,
    select_positions_batch,
    throughput_summary,
)
from covertppm.ppm import (
    DEFAULT_TYPE_BUDGET,
    EnumerationBudgetError,
    decimal_values,
    frame_from_bits,
    histogram_table,
    ppm_output_divergence,
    transmit_super,
)

from conftest import (
    LN2,
    atom_counts,
    binary_input_mi,
    brute_conditional_mi,
    brute_set_mi,
    half_histogram_pmf,
    index_set,
    level_channel_rows,
    level_llrs_reference,
    level_llrs_symbols,
    ones_count_mi,
    output_from_symbols,
    plan_from_text,
    pooled_chi2_pvalue,
    pyramid_level_llrs,
    read_symbols,
    select_positions,
    select_positions_batch_symbols,
)

TABLE_BSC01 = [0.7421, 0.6387, 0.4918, 0.3214, 0.1749, 0.0853, 0.0413, 0.0203,
               0.0101, 0.0050, 0.0025, 0.0013, 0.0006, 0.0003, 0.0002, 0.0001]


class TestLevelCapacity:
    def test_identical_rows_zero(self):
        ch = make_dmc([0.6, 0.4], [0.6, 0.4])
        for i in range(1, 7):
            assert level_capacity(ch, i) == pytest.approx(0.0, abs=1e-12)

    def test_stationarity_against_full_super_channel(self):
        # the level channel does not depend on the total number of levels:
        # the closed form must match the conditional MI brute-forced on the
        # full super channel for every q >= i
        for ch in (bsc(0.1), bac(0.1, 0.4)):
            for i in (1, 2):
                closed = level_capacity(ch, i)
                for q in range(i, 4):
                    brute = brute_conditional_mi(ch, i, q)
                    assert abs(closed - brute) < 1e-10

    def test_noiseless_channel_fallback(self):
        # supports differ -> the divergence identity degenerates; every
        # output is off P0's support under input 1, so the erasure split
        # must give one full bit per level
        ch = make_dmc([1.0, 0.0], [0.0, 1.0])
        for i in (1, 2, 3, 16):
            assert level_capacity(ch, i) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("ch", [make_dmc([1.0, 0.0], [0.0, 1.0]), bac(0.0, 0.3),
                                    make_dmc([0.0, 1.0], [0.4, 0.6]),
                                    bsc(0.1), bac(0.1, 0.4), bsc(0.5)])
    def test_ones_count_mi_equals_enumeration(self, ch):
        # the (k0, k1) atom law carries the whole level channel: its mutual
        # information equals that of the enumerated 2^i-symbol outputs
        for i in range(1, 5):
            want = binary_input_mi(*level_channel_rows(ch, i))
            assert ones_count_mi(ch, i) == pytest.approx(want, abs=1e-12)

    def test_off_support_warden_reaches_high_levels(self):
        # infinite divergences at every level: the erasure split stays cheap
        # where the enumeration would need |Z|^(2^i) outputs
        ch = bac(0.0, 0.3)
        for i in range(1, 5):
            want = binary_input_mi(*level_channel_rows(ch, i))
            assert level_capacity(ch, i) == pytest.approx(want, abs=1e-12)
        caps = [level_capacity(ch, i) for i in range(1, 17)]
        assert all(0.0 < c <= 1.0 for c in caps)
        assert all(a >= b for a, b in zip(caps, caps[1:]))

    @pytest.mark.parametrize("rows", [
        ([0.9, 0.1], [0.2, 0.8]),
        ([1.0, 0.0], [1.0, 0.0]),             # shared zero: no 0 * inf
        ([1.0, 0.0], [0.3, 0.7]),             # off-support mass
        ([0.5, 0.3, 0.2], [0.2, 0.2, 0.6]),
        ([0.6, 0.4, 0.0], [0.3, 0.7, 0.0]),
        ([0.9, 0.1, 0.0], [0.1, 0.4, 0.5]),
        ([0.0, 0.0, 1.0], [0.2, 0.3, 0.5]),
        ([0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4]),
        ([0.5, 0.5, 0.0, 0.0], [0.2, 0.3, 0.1, 0.4]),
        ([0.0, 0.5, 0.5, 0.0], [0.0, 0.2, 0.8, 0.0]),
    ])
    def test_equals_enumerated_level_channel(self, rows):
        ch = make_dmc(*rows)
        for i in (1, 2, 3):
            want = binary_input_mi(*level_channel_rows(ch, i))
            assert level_capacity(ch, i) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("p", [1e-306, 1e-307, 1e-308])
    def test_row0_entry_near_the_float_floor(self, p):
        # r log r passes the largest double once r nears 1/p: the divergence
        # stays finite, D(P1 || P0) at m = 1, and the near-noiseless channel
        # carries a bit per level
        ch = bsc(p)
        assert ppm_output_divergence(ch, 1) == pytest.approx(ch.stats.kl, rel=1e-12)
        for i in (1, 2, 3, 8):
            assert level_capacity(ch, i) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("p,i", [(1e-300, 1), (1e-306, 3)])
    def test_capped_at_one_bit(self, p, i):
        # the divergence difference rounds to 1 + 5.5e-11 here; a level
        # carries one binary input, so its capacity is at most one bit
        assert level_capacity(bsc(p), i) == 1.0


class TestLevelCapacityBound:
    def test_upper_bounds_exact_value(self):
        # the expansion is proven for the high-level regime; on BSC(0.1)
        # it happens to dominate everywhere, which we record by asserting
        # i in [4, 16] and tracking violations for lower levels
        ch = bsc(0.1)
        st_ = divergence_stats(ch.row1, ch.row0)
        violations = [i for i in range(4, 17)
                      if level_capacity(ch, i) * LN2 > level_capacity_bound(st_, i)]
        assert violations == []

    def test_leading_term_dominates_asymptotically(self):
        ch = bsc(0.1)
        st_ = divergence_stats(ch.row1, ch.row0)
        ratios = [level_capacity_bound(st_, i) / (st_.chi2 / 2**i)
                  for i in (8, 12, 16)]
        assert ratios[0] > ratios[1] > ratios[2]
        assert ratios[2] == pytest.approx(1.0, abs=0.01)

    def test_zero_chi2_gives_zero(self):
        ch = make_dmc([0.5, 0.5], [0.5, 0.5])
        st_ = divergence_stats(ch.row1, ch.row0)
        assert level_capacity_bound(st_, 5) == 0.0

    @pytest.mark.parametrize("p", [1e-103, 1e-200, 1e-300])
    def test_overflowing_terms_give_the_vacuous_bound(self, p):
        # chi2 ~ 1/p: c2**3 raised OverflowError from 1e-103 down, and
        # inf - inf would be nan where theta and rho overflow
        st_ = bsc(p).stats
        assert [level_capacity_bound(st_, i) for i in (1, 2, 16)] == [math.inf] * 3


class TestLevelMiTable:
    def test_identical_channels_zero_diffs(self):
        ch = bsc(0.15)
        rows = level_mi_table(ch, ch, 5)
        assert all(r.diff == pytest.approx(0.0, abs=1e-14) for r in rows)

    def test_capacity_sum_approaches_divergence(self):
        ch = bsc(0.1)
        rows = level_mi_table(ch, ch, 16)
        total = sum(r.i_y for r in rows)
        d = divergence_stats(ch.row1, ch.row0).kl / LN2
        assert total == pytest.approx(2.5359, abs=1e-3)
        assert abs(total - d) < 1e-3


    @pytest.mark.parametrize("same", [True, False])
    def test_each_histogram_table_enumerated_once(self, monkeypatch, same):
        # one row0 at 7 orders 2^6 .. 2^0, whether Willie's channel is Bob's
        # object (as the tables command passes it) or an equal one: the
        # table, a session's plan, level laws and extractor-free tail, and
        # two covertness estimates enumerate each order's histograms once
        # and sum its divergence once, top down, so the largest order is
        # still met first
        monkeypatch.setattr(ppm, "_cache", OrderedDict())
        enumerated = []
        enumerate_table = ppm._histogram_table

        def spy(row0, h):
            enumerated.append((row0.tobytes(), h))
            return enumerate_table(row0, h)

        monkeypatch.setattr(ppm, "_histogram_table", spy)
        summed = []
        sum_divergence = ppm._divergence_sum

        def sum_spy(dmc, support, m):
            summed.append(m)
            return sum_divergence(dmc, support, m)

        monkeypatch.setattr(ppm, "_divergence_sum", sum_spy)
        bob = bsc(0.1)
        willie = bob if same else bsc(0.1)
        rows = level_mi_table(bob, willie, 6)
        plan = msd_rate_plan(bob, willie, 6, delta=1.0, degraded=True, ell_override=16)
        rng = np.random.default_rng(1)
        session = build_session(plan, bob, willie, rng, construction_trials=20)
        first = covertness_estimate(session, 2, rng, bins=4).d_qppm_q0_exact
        again = covertness_estimate(session, 3, rng, bins=4).d_qppm_q0_exact
        assert enumerated == [(bob.row0.tobytes(), 1 << j) for j in range(6, -1, -1)]
        # each order's divergence is summed once for both equal channels
        assert summed == [1 << j for j in range(6, -1, -1)]
        # the repeated estimate reports the identical float
        assert again.hex() == first.hex()
        assert first == 16 * ppm_output_divergence(bsc(0.1), 64)
        assert [r.i_y for r in rows] == [level_capacity(bob, i) for i in range(1, 7)]

    @pytest.mark.parametrize("q", [21, 2000])
    def test_refused_before_any_divergence_sum(self, monkeypatch, q):
        # top down: the level past the budget is met before any sum completes
        completed = []

        def spy(dmc, m):
            value = ppm_output_divergence(dmc, m)
            completed.append(m)
            return value

        monkeypatch.setattr(levels, "ppm_output_divergence", spy)
        with pytest.raises(EnumerationBudgetError, match=f"^level {q}: ") as caught:
            level_mi_table(bsc(0.1), bsc(0.1), q)
        assert completed == []
        assert "\n" not in str(caught.value) and len(str(caught.value)) < 80

    @pytest.mark.parametrize("p,q", [(0.0, levels.MAX_LEVELS + 1), (0.1, 30_000_000_000)])
    def test_levels_past_the_limit_refused_before_2_to_the_q(self, p, q):
        # a noiseless channel needs no sum at any level, and the top level's
        # order 2^q takes gigabytes at q = 3e10: the limit refuses both
        with pytest.raises(ValueError, match=f"q must lie in \\[1, {levels.MAX_LEVELS}\\]"):
            level_mi_table(bsc(p), bsc(p), q)

    def test_rows_ascend_with_the_same_values(self):
        # computed top down, listed bottom up, as level_capacity gives them
        bob, willie = bsc(0.2), bac(0.1, 0.4)
        rows = level_mi_table(bob, willie, 6)
        assert [r.level for r in rows] == list(range(1, 7))
        for r in rows:
            assert (r.i_y, r.i_z) == (level_capacity(bob, r.level),
                                      level_capacity(willie, r.level))

    def test_one_point_support_has_zero_divergence_at_any_order(self):
        # P1 = P0 on P0's one support point: no histogram sum is needed, and
        # every level of bac(0, 0.3) keeps the 0.7 bits of its off-support
        # outputs, at orders far past the budget
        assert ppm_output_divergence(make_dmc([1.0, 0.0], [1.0, 0.0]), 1 << 2000) == 0.0
        rows = level_mi_table(bac(0.0, 0.3), bac(0.0, 0.3), 2000)
        assert [r.i_y for r in rows] == pytest.approx([0.7] * 2000)


class TestMsdRatePlan:
    def test_degraded_has_no_secrets_or_keys(self):
        plan = msd_rate_plan(bsc(0.05), bsc(0.1), 6, delta=1.0, degraded=True)
        assert all(lr.r_v == 0.0 and lr.r_k == 0.0 for lr in plan.per_level)
        assert plan.degraded

    def test_table_pair_rate_split(self):
        # negative MI differences on the first three levels turn into secret
        # surplus; positive differences above turn into key deficit, and the
        # surplus exceeds the deficit so chaining is feasible
        plan = msd_rate_plan(bsc(0.2), bac(0.1, 0.4), 10, delta=1.0,
                             epsilon=0.005)
        rv = [lr.r_v for lr in plan.per_level]
        rk = [lr.r_k for lr in plan.per_level]
        assert all(v > 0 for v in rv[:3]) and all(v == 0 for v in rv[3:])
        assert all(k == 0 for k in rk[:3]) and all(k > 0 for k in rk[3:])
        assert plan.sum_rv() > plan.sum_rk()

    def test_rv_rk_never_both_positive(self):
        for eps in (0.005, 0.05, 0.2):
            plan = msd_rate_plan(bsc(0.2), bac(0.1, 0.4), 8, delta=1.0,
                                 epsilon=eps)
            assert all(lr.r_v * lr.r_k == 0.0 for lr in plan.per_level)

    def test_design_point_blocklength(self):
        plan = msd_rate_plan(bsc(0.05), bsc(0.1), 10, delta=1.0, B=1,
                             epsilon=0.05, degraded=True)
        assert plan.m == 1024
        assert plan.ell == 288

    def test_planned_blocklength_formula(self):
        assert planned_blocklength(1024, 1.0, 1, 64.0 / 9.0) == 288
        assert planned_blocklength(1024, 1.0, 4, 64.0 / 9.0) == 72

    def test_warden_off_support_rejected(self):
        # chi2(Q1||Q0) is infinite: no blocklength keeps the budget
        with pytest.raises(RatePlanError, match="infinite"):
            msd_rate_plan(bsc(0.05), bac(0.0, 0.3), 3, 1.0)

    @pytest.mark.parametrize("degraded", [False, True])
    def test_warden_off_support_rejected_at_any_blocklength(self, degraded):
        with pytest.raises(RatePlanError, match="infinite"):
            msd_rate_plan(bsc(0.05), bac(0.0, 0.3), 2, 1.0, degraded=degraded,
                          ell_override=32)

    def test_delta_zero_rejected(self):
        with pytest.raises(RatePlanError, match="blocklength zero"):
            msd_rate_plan(bsc(0.05), bsc(0.1), 4, delta=0.0, degraded=True)

    @pytest.mark.parametrize("ell", [None, 32], ids=["planned", "override"])
    @pytest.mark.parametrize("name, value", [
        ("delta", math.inf), ("delta", math.nan), ("delta", -1.0),
        ("epsilon", math.nan), ("epsilon", math.inf), ("epsilon", 0.0),
    ])
    def test_non_finite_or_out_of_range_budget_rejected(self, name, value, ell):
        # NaN epsilon wrote r_u = nan on every level, inf delta overflowed in
        # int() and NaN delta failed with "cannot convert float NaN to integer"
        kwargs = {"delta": 1.0, "epsilon": 0.05, name: value}
        with pytest.raises(RatePlanError, match=f"^{name} must be"):
            msd_rate_plan(bsc(0.05), bsc(0.1), 3, degraded=True, ell_override=ell,
                          **kwargs)

    @pytest.mark.parametrize("delta", [math.inf, math.nan, -1.0])
    def test_planned_blocklength_rejects_bad_delta(self, delta):
        with pytest.raises(RatePlanError, match="^delta must be"):
            planned_blocklength(1024, delta, 1, 64.0 / 9.0)

    @pytest.mark.parametrize("q", [0, -1, -2])
    def test_fewer_than_one_level_rejected(self, q):
        # q = -2 failed with "negative shift count", q = 0 with "blocklength zero"
        with pytest.raises(RatePlanError, match=f"got q = {q}$"):
            msd_rate_plan(bsc(0.05), bsc(0.1), q, 1.0, degraded=True)
        with pytest.raises(RatePlanError, match=f"got q = {q}$"):
            msd_rate_plan(bsc(0.05), bsc(0.1), q, 1.0, degraded=True,
                          ell_override=32)

    def test_planned_blocklength_rejects_an_order_too_large_for_a_float(self):
        # 2.0 * 2^2000 raised "int too large to convert to float"
        with pytest.raises(RatePlanError, match="is not finite"):
            planned_blocklength(1 << 2000, 1.0, 1, 0.5)
        with pytest.raises(RatePlanError, match="is not finite"):
            msd_rate_plan(bsc(0.05), bsc(0.1), 2000, 1.0, degraded=True)

    def test_planned_blocklength_rejects_delta_with_infinite_quotient(self):
        # a finite delta whose 2 m delta / (B chi2) overflows ended in an
        # OverflowError from int()
        with pytest.raises(RatePlanError, match="^delta = 1.7e\\+308 is too large"):
            planned_blocklength(4, 1.7e308, 1, 0.5)
        with pytest.raises(RatePlanError, match="^delta = "):
            msd_rate_plan(bsc(0.05), bsc(0.1), 2, 1.7e308, degraded=True)

    def test_feasibility_brute_forced_small_q(self):
        # for every subset S of levels: sum of message+secret rates is below
        # the conditional set MI of Bob, and message+key rates exceed the
        # unconditional set MI of Willie (both enumerated on the full super
        # channel)
        bob, willie = bsc(0.2), bac(0.1, 0.4)
        q, eps = 3, 0.01
        plan = msd_rate_plan(bob, willie, q, delta=1.0, epsilon=eps)
        rates = {lr.level: lr for lr in plan.per_level}
        for r in range(1, q + 1):
            for S in itertools.combinations(range(1, q + 1), r):
                su_v = sum(rates[i].r_u + rates[i].r_v for i in S)
                su_k = sum(rates[i].r_u + rates[i].r_k for i in S)
                i_y = brute_set_mi(bob, q, set(S), conditional=True)
                i_z = brute_set_mi(willie, q, set(S), conditional=False)
                assert su_v <= i_y - len(S) * eps / q + 1e-9
                assert su_k >= i_z - 1e-9

    def test_feasibility_chain_rule_surrogate_q6(self):
        # at q = 6 the full enumeration is out of reach; assert the per-level
        # surrogate inequalities the chain rule reduces to
        bob, willie = bsc(0.2), bac(0.1, 0.4)
        q, eps = 6, 0.01
        plan = msd_rate_plan(bob, willie, q, delta=1.0, epsilon=eps)
        mi = level_mi_table(bob, willie, q)
        for lr, row in zip(plan.per_level, mi):
            assert lr.r_u + lr.r_v <= row.i_y - eps / q + 1e-12
            assert lr.r_u + lr.r_k >= row.i_z + eps / q - 1e-12


class TestThroughputSummary:
    def test_sweep_monotone_to_capacity(self):
        bob, willie = bsc(0.05), bsc(0.1)
        prev = 0.0
        for q in range(6, 13):
            plan = msd_rate_plan(bob, willie, q, delta=1.0, epsilon=0.01,
                                 degraded=True)
            s = throughput_summary(plan, bob.stats, willie.stats)
            assert s.covert_throughput > prev
            prev = s.covert_throughput
        assert prev >= 0.95 * s.covert_capacity

    def test_identical_channels_degenerate(self):
        ch = make_dmc([0.5, 0.5], [0.5, 0.5])
        plan = RatePlan(q=2, ell=8, B=1, delta=1.0, epsilon=0.01,
                        u=1, per_level=(LevelRates(1, 0.5, 0.0, 0.0),
                                        LevelRates(2, 0.5, 0.0, 0.0)))
        s = throughput_summary(plan, ch.stats, ch.stats)
        assert s.degenerate
        assert s.covert_capacity == 0.0

    def test_huge_delta_throughput_is_finite(self):
        # sqrt(n * delta) overflowed to inf and the throughput read 0
        plan = msd_rate_plan(bsc(0.05), bsc(0.1), 2, 1e300, degraded=True)
        s = throughput_summary(plan, bsc(0.05).stats, bsc(0.1).stats)
        assert math.isinf(plan.B * plan.m * plan.ell * plan.delta)
        assert 0.0 < s.covert_throughput < math.inf
        assert s.covert_throughput == s.message_bits / (math.sqrt(s.n) * math.sqrt(1e300))

    def test_key_capacity_clamped_at_zero(self):
        # D(Q1||Q0) < D(P1||P0) for this pair: no key needed asymptotically
        bob, willie = bsc(0.2), bac(0.1, 0.4)
        plan = msd_rate_plan(bob, willie, 4, delta=1.0, epsilon=0.01)
        s = throughput_summary(plan, bob.stats, willie.stats)
        assert s.key_capacity == 0.0


def _select_one(block, high_bits) -> np.ndarray:
    """The coordinates of one super-symbol that select_positions_batch picks.

    ``block`` holds distinct symbols, so each half's histogram names the
    coordinates in it: the halves' symbols in ascending order, first half
    first (the block's symbols ascend with the coordinate).
    """
    block = np.asarray(block)
    high = np.asarray(high_bits, dtype=np.uint8).reshape(-1, 1)
    q = block.shape[0].bit_length() - 1
    i, d = q - high.shape[0], decimal_values(high)
    # the pulse under the selected subblock: its halves are on the pulse path
    out = output_from_symbols(block[None, :], d << i, int(block.max()) + 1)
    first, second = select_positions_batch(out, d, i)
    return np.concatenate([np.flatnonzero(first[0]), np.flatnonzero(second[0])])


def _histograms(symbols, size) -> np.ndarray:
    """(n, 2, size) symbol counts of the two halves of each row."""
    symbols = np.asarray(symbols)
    halves = symbols.reshape(symbols.shape[0], 2, -1)
    return (halves[..., None] == np.arange(size)).sum(axis=2)


class TestSelectPositions:
    def test_high_bit_zero_selects_first_half(self):
        block = np.arange(16)
        np.testing.assert_array_equal(_select_one(block, [0]), np.arange(8))

    def test_level_one_selection(self):
        block = np.arange(16)
        np.testing.assert_array_equal(_select_one(block, [0, 0, 0]), [0, 1])

    def test_full_identity(self):
        block = np.arange(8)
        np.testing.assert_array_equal(_select_one(block, []), block)

    def test_matches_index_set(self):
        q = 4
        block = np.arange(1, 17)
        for bits in itertools.product([0, 1], repeat=2):
            got = _select_one(block, list(bits))
            want = index_set(q, {3: bits[0], 4: bits[1]})
            np.testing.assert_array_equal(got, want)

    def test_batch_matches_scalar(self, rng):
        q, i, ell = 4, 2, 10
        symbols = rng.integers(0, 3, size=(ell, 16))
        high = rng.integers(0, 2, size=(q - i, ell), dtype=np.uint8)
        d = decimal_values(high)
        out = output_from_symbols(symbols, (d << i) + rng.integers(0, 1 << i, size=ell), 3)
        first, second = select_positions_batch(out, d, i)
        for j in range(ell):
            want = _histograms([select_positions(symbols[j], high[:, j])], 3)[0]
            np.testing.assert_array_equal(first[j], want[0])
            np.testing.assert_array_equal(second[j], want[1])

    def test_higher_bit_matrix_refused(self, rng):
        # the block indices d(higher bits) are one per row: the (q - i, ell)
        # matrix of the higher bits themselves is refused, not misread
        q, i, ell = 4, 1, 3
        out = output_from_symbols(rng.integers(0, 2, size=(ell, 16)), 0, 2)
        high = rng.integers(0, 2, size=(q - i, ell), dtype=np.uint8)
        with pytest.raises(ValueError, match=r"blocks must have shape \(3,\), got \(3, 3\)"):
            select_positions_batch(out, high, i)
        first, _ = select_positions_batch(out, decimal_values(high), i)
        assert first.shape == (ell, 2)


def _select_positions_batch_reference(symbols, high_bits, i):
    # per-element gather of each subblock's 2^i columns
    ell, m = symbols.shape
    q = m.bit_length() - 1
    weights = (1 << np.arange(i, q, dtype=np.int64))[:, None]
    offsets = (high_bits.astype(np.int64) * weights).sum(axis=0)
    cols = offsets[:, None] + np.arange(1 << i, dtype=np.int64)[None, :]
    return symbols[np.arange(ell)[:, None], cols]


@settings(max_examples=60, deadline=None)
@given(q=st.integers(1, 8), data=st.data())
def test_select_positions_batch_bitwise_equals_gather(q, data):
    # with each pulse under its selected subblock, the half histograms
    # count the symbols of the gathered subblock
    i = data.draw(st.integers(1, q))
    ell = data.draw(st.integers(1, 9))
    dtype = data.draw(st.sampled_from([np.int64, np.int32, np.uint8]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    symbols = rng.integers(0, 5, size=(ell, 1 << q)).astype(dtype)
    high = rng.integers(0, 2, size=(q - i, ell), dtype=np.uint8)
    d = decimal_values(high)
    out = output_from_symbols(symbols, (d << i) + rng.integers(0, 1 << i, size=ell), 5)
    first, second = select_positions_batch(out, d, i)
    want = _histograms(_select_positions_batch_reference(symbols, high, i), 5)
    assert first.shape == second.shape == want[:, 0].shape
    np.testing.assert_array_equal(first, want[:, 0])
    np.testing.assert_array_equal(second, want[:, 1])


def _outcome(compute):
    """The LLRs, or the message of the ValueError that refuses them."""
    try:
        return compute()
    except ValueError as e:
        return str(e)


@settings(max_examples=300, deadline=None)
@given(size=st.integers(2, 6), q=st.integers(1, 10), data=st.data())
def test_pyramid_llrs_bitwise_equal_symbol_oracles(size, q, data):
    # channels with zero-mass symbols (zero and infinite ratios), every
    # level, the true higher bits and wrong ones
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = rng.dirichlet(np.ones(size), size=2)
    for row in rows:
        row[rng.random(size) < 0.3] = 0.0
        if not row.any():
            row[rng.integers(size)] = 1.0
    ch = make_dmc(rows[0] / rows[0].sum(), rows[1] / rows[1].sum())
    ell = data.draw(st.integers(1, 12))
    bits = rng.integers(0, 2, size=(q, ell), dtype=np.uint8)
    out = transmit_super(ch, frame_from_bits(bits), rng)
    for i in range(1, q + 1):
        wrong = bits[i:] ^ rng.integers(0, 2, size=(q - i, ell), dtype=np.uint8)
        for high in (bits[i:], wrong):
            first, second = select_positions_batch(out, decimal_values(high), i)
            sub = select_positions_batch_symbols(read_symbols(out), high, i)
            want = _histograms(sub, size)
            np.testing.assert_array_equal(first, want[:, 0])
            np.testing.assert_array_equal(second, want[:, 1])
            got = _outcome(lambda: level_llrs(first, second, ch.lam))
            want = _outcome(lambda: level_llrs_symbols(sub, ch.lam))
            if isinstance(want, str):
                assert got == want
            else:
                np.testing.assert_array_equal(got, want)


def test_level_llrs_reject_histograms_over_another_alphabet():
    first, second = np.array([[1, 0, 0]]), np.array([[0, 1, 0]])
    with pytest.raises(ValueError, match=r"\(n, 2\)"):
        level_llrs(first, second, bsc(0.1).lam)


#: likelihood-ratio rows over 2-5 symbols, with zero and infinite entries
LAM_ROWS = [
    np.array([9.0, 1.0 / 9.0]),
    np.array([0.5, 3.0]),
    np.array([1.0, np.inf]),
    np.array([0.0, 2.5]),
    np.array([0.2, 1.7, 0.0]),
    np.array([np.inf, 0.3, 1.2, 0.0]),
    np.array([0.0, 0.0, np.inf, 1.0, 4.0]),
    np.array([1e-300, 1e300, 0.7]),
]


@settings(max_examples=200, deadline=None)
@given(lam_idx=st.integers(0, len(LAM_ROWS) - 1), log_width=st.integers(1, 10),
       data=st.data())
def test_level_llrs_matches_sorted_sum_reference(lam_idx, log_width, data):
    lam = LAM_ROWS[lam_idx]
    width = 1 << log_width
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = data.draw(st.integers(1, 40))
    # skewed symbol draws make all-zero and all-infinite halves common
    p = rng.dirichlet(np.full(lam.shape[0], data.draw(st.sampled_from([0.05, 0.5, 5.0]))))
    symbols = rng.choice(lam.shape[0], size=(n, width), p=p)
    if data.draw(st.booleans()):  # some rows with identical halves: exact ties
        symbols[::2, width // 2:] = symbols[::2, :width // 2]
    with np.errstate(over="ignore"):  # 1e300 / 1e-300 saturates
        want = level_llrs_reference(lam[symbols])
    got = pyramid_level_llrs(symbols, lam)
    # bitwise where both paths are exact: saturation, halves with equal
    # histograms (ties), halves both infinite and halves both zero.  A zero
    # LLR reached through unequal histograms of equal mathematical sum rounds
    # differently in the sorted per-coordinate sum and the per-symbol
    # histogram sum.
    halves = symbols.reshape(n, 2, width // 2)
    counts = (halves[..., None] == np.arange(lam.shape[0])).sum(axis=2)
    ties = np.all(counts[:, 0] == counts[:, 1], axis=1)
    both_inf = np.isinf(lam)[halves].any(axis=2).all(axis=1)
    both_zero = (lam[halves] == 0).all(axis=(1, 2))
    exact = (np.abs(want) == DEFAULT_LLR_MAX) | ties | both_inf | both_zero
    np.testing.assert_array_equal(got[exact], want[exact])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * width)


def test_level_llrs_clip_finite_llrs_at_default_llr_max():
    # symbol 1 has likelihood ratio 1e20 against symbol 0, above e^40: a half
    # holding it against one without has a finite LLR of about 45 nats,
    # which saturates at +-40; a ratio of half-sums near 2 does not
    ch = make_dmc([1.0 - 1e-20, 1e-20], [0.5, 0.5])
    assert ch.lam[1] / ch.lam[0] > math.exp(DEFAULT_LLR_MAX)
    symbols = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [1, 1, 0, 1], [0, 0, 0, 0]])
    halves = ch.lam[symbols].reshape(4, 2, 2).sum(axis=2)
    unclipped = np.log(halves[:, 0] / halves[:, 1])
    assert np.all(np.isfinite(unclipped)) and unclipped[0] > DEFAULT_LLR_MAX
    got = pyramid_level_llrs(symbols, ch.lam)
    np.testing.assert_array_equal(got[:2], [DEFAULT_LLR_MAX, -DEFAULT_LLR_MAX])
    np.testing.assert_array_equal(got[2:], unclipped[2:])
    np.testing.assert_array_equal(got, level_llrs_reference(ch.lam[symbols]))


@settings(max_examples=200, deadline=None)
@given(lam_idx=st.integers(0, len(LAM_ROWS) - 1), log_width=st.integers(1, 8),
       data=st.data())
def test_level_llrs_bitwise_equal_to_full_histogram_in_any_integer_dtype(
        lam_idx, log_width, data):
    # symbol 0's count as the half width minus the others gives the same
    # histograms, so the same LLRs bit for bit, whatever the symbol dtype
    lam = LAM_ROWS[lam_idx]
    width = 1 << log_width
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = data.draw(st.integers(0, 30))
    p = rng.dirichlet(np.full(lam.shape[0], data.draw(st.sampled_from([0.05, 0.5, 5.0]))))
    symbols = rng.choice(lam.shape[0], size=(n, width), p=p)
    halves = symbols.reshape(n, 2, width // 2)
    counts = (halves[..., None] == np.arange(lam.shape[0])).sum(axis=2)
    with np.errstate(over="ignore"):
        want = level_llrs(counts[:, 0], counts[:, 1], lam)
    for dtype in (np.uint8, np.int8, np.uint16, np.int64):
        with np.errstate(over="ignore"):
            got = pyramid_level_llrs(symbols.astype(dtype), lam)
        np.testing.assert_array_equal(got, want)


class TestLevelLlr:
    def test_symmetric_evidence_zero(self):
        assert pyramid_level_llrs([0, 0, 0, 0], np.array([2.0, 0.5]))[0] == 0.0

    def test_level_one_bsc(self):
        lam = bsc(0.1).lam
        assert pyramid_level_llrs([1, 0], lam)[0] == pytest.approx(math.log(81.0))

    def test_swap_negates(self, rng):
        lam = rng.random(3) + 0.05
        sym = rng.integers(0, 3, size=8)
        swapped = np.concatenate([sym[4:], sym[:4]])
        assert pyramid_level_llrs(swapped, lam)[0] == pytest.approx(
            -pyramid_level_llrs(sym, lam)[0])

    def test_saturation(self):
        lam = np.array([np.inf, 1.0, 0.0])
        assert pyramid_level_llrs([0, 1, 1, 1], lam)[0] == 40.0
        assert pyramid_level_llrs([2, 2, 1, 1], lam)[0] == -40.0
        assert pyramid_level_llrs([0, 1, 0, 1], lam)[0] == 0.0

    def test_both_halves_zero_give_zero(self):
        # no pulse in either half (a Z-channel pulse off the selected
        # subblock): the halves are equally likely
        assert pyramid_level_llrs([1, 1, 1, 1], np.array([2.0, 0.0]))[0] == 0.0
        np.testing.assert_array_equal(
            level_llrs_reference(np.zeros((1, 4))), [0.0])

    def test_within_half_permutation_is_bitwise_invariant(self, rng):
        lam = rng.random(4) + 0.01
        sym = rng.integers(0, 4, size=(50, 8))
        base = pyramid_level_llrs(sym, lam)
        for _ in range(20):
            perm = np.concatenate([rng.permutation(4), 4 + rng.permutation(4)])
            again = pyramid_level_llrs(sym[:, perm], lam)
            np.testing.assert_array_equal(base, again)


TERNARY = make_dmc([0.7, 0.2, 0.1], [0.2, 0.3, 0.5])
NOISELESS = make_dmc([1.0, 0.0], [0.0, 1.0])
#: channels whose level laws have a zero likelihood sum (bac: row1 puts no
#: mass on symbol 0) or an infinite one (noiseless: row1 lies off row0's
#: support), so pairs of sums give 0/0, x/0 and inf/x
LAW_CHANNELS = [bsc(0.05), TERNARY, NOISELESS, bac(0.05, 0.0)]
LAW_IDS = ["bsc0.05", "ternary", "noiseless", "bac0.05,0"]


def _uniforms_at_every_edge(sampler: TableSampler, rng) -> np.ndarray:
    """Random uniforms, every guide bucket edge, and every CDF entry, each
    with the double just below it, kept in [0, 1)."""
    buckets = sampler.guide.size
    edges = np.arange(buckets) / buckets
    points = np.concatenate([edges, sampler.cdf])
    u = np.concatenate([rng.random(100_000), points, np.nextafter(points, 0.0),
                        [np.nextafter(1.0, 0.0)]])
    return u[(u >= 0.0) & (u < 1.0)]


class TestTableSampler:
    @pytest.mark.parametrize("pmf", [
        # zero-mass atoms first, between and last
        np.array([0.0, 0.3, 0.0, 0.0, 0.2, 0.5, 0.0, 0.0]),
        # one dominant atom: the thousands of others share a few buckets
        np.concatenate([[1.0 - 1e-3], np.full(4999, 1e-3 / 4999)]),
        # a dominant atom last, behind a run of tiny ones
        np.concatenate([np.full(3000, 1e-6), [1.0 - 3e-3]]),
    ], ids=["zero-mass", "dominant-first", "dominant-last"])
    def test_bitwise_equal_to_searchsorted(self, pmf):
        sampler = TableSampler.from_pmf(pmf / pmf.sum())
        u = _uniforms_at_every_edge(sampler, np.random.default_rng(0))
        got = sampler.draw(u)
        np.testing.assert_array_equal(got, np.searchsorted(sampler.cdf, u, side="right"))
        assert np.all(pmf[got] > 0), "an atom of zero mass was drawn"
        # both paths ran: buckets that hold their atom, and split buckets
        assert (sampler.guide >= 0).any() and (sampler.guide < 0).any()

    def test_guide_is_a_power_of_two_within_bounds(self):
        for n in (1, 2, 255, 256, 257, 100_000):
            buckets = TableSampler.from_pmf(np.full(n, 1.0 / n)).guide.size
            assert buckets & (buckets - 1) == 0
            assert 1 << 10 <= buckets <= 1 << 16
            assert buckets >= min(4 * n, 1 << 16)


def _pair_llrs(ch, i):
    """The law's LLR of every atom pair, and level_llrs of the pair's two
    histograms."""
    law = level_law(ch, i)
    n = law.histograms.shape[0]
    first, second = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
    return (law.llrs(first, second),
            level_llrs(law.histograms[first], law.histograms[second], ch.lam))


class TestLevelLaw:
    @pytest.mark.parametrize("ch", LAW_CHANNELS, ids=LAW_IDS)
    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    def test_every_atom_pair_llr_is_the_receivers(self, ch, i):
        got, want = _pair_llrs(ch, i)
        np.testing.assert_array_equal(got, want)

    def test_pairs_cover_zero_and_infinite_sums(self):
        # the channels above reach every special case of the LLR
        noiseless, _ = _pair_llrs(NOISELESS, 2)
        z_channel, _ = _pair_llrs(bac(0.05, 0.0), 2)
        assert {-DEFAULT_LLR_MAX, 0.0, DEFAULT_LLR_MAX} <= set(noiseless.tolist())
        assert {0.0, DEFAULT_LLR_MAX, -DEFAULT_LLR_MAX} <= set(z_channel.tolist())

    @pytest.mark.parametrize("ch", LAW_CHANNELS, ids=LAW_IDS)
    @pytest.mark.parametrize("i", [1, 2, 3, 4, 5])
    def test_marginals_match_multinomial_oracle(self, ch, i):
        # each half's pmf against the oracle's scipy multinomial pmfs; every
        # histogram the oracle gives positive mass is in the table, once
        law = level_law(ch, i)
        atoms, pmf = half_histogram_pmf(ch, i)
        n = math.isqrt(pmf.size)
        grid = atoms[::n, 0]
        joint = pmf.reshape(n, n)
        oracle = {tuple(t): (p0, p1) for t, p0, p1 in
                  zip(grid.tolist(), joint.sum(axis=1), joint.sum(axis=0))}
        rows = [tuple(t) for t in law.histograms.tolist()]
        assert len(set(rows)) == len(rows)
        assert all(sum(t) == 1 << (i - 1) for t in rows)
        assert {t for t, (p0, p1) in oracle.items() if p0 > 0 or p1 > 0} <= set(rows)
        want = np.array([oracle[t] for t in rows])
        np.testing.assert_allclose(law.pulse_pmf, want[:, 0], rtol=1e-10, atol=1e-300)
        np.testing.assert_allclose(law.plain_pmf, want[:, 1], rtol=1e-10, atol=1e-300)

    @pytest.mark.parametrize("p", [0.05, 0.1, 0.3])
    def test_level_bit_information_is_the_level_capacity(self, p):
        # I(X_i; halves) with X_i uniform, read from the law's two pmfs: the
        # paper's stationary closed form, checked through the sufficient
        # statistic.  Each log reads P / M, M = 0.5 P0 + 0.5 P1, as
        # 2 P / (P0 + P1): halving a denormal atom could round M to 0
        ch = bsc(p)
        for i in range(1, 11):
            law = level_law(ch, i)
            p0 = np.outer(law.pulse_pmf, law.plain_pmf)
            p1 = p0.T
            both = p0 + p1
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = [np.where(pb > 0, pb * np.log2(2.0 * pb / both), 0.0)
                         for pb in (p0, p1)]
            mi = 0.5 * float(terms[0].sum() + terms[1].sum())
            assert mi == pytest.approx(level_capacity(ch, i), abs=1e-12), i

    def test_cached_per_channel_and_level_and_bounded(self, monkeypatch):
        # the one cache keeps laws and histogram tables, least recently used
        # out first, while their bytes fit the budget: large laws push each
        # other out, a small law looked up between them stays the same
        # object, equal channels share their table, and a law larger than
        # the whole budget is built for its caller and not kept
        monkeypatch.setattr(ppm, "_cache", OrderedDict())
        ch = bsc(0.1)
        small = level_law(ch, 3)
        assert level_law(ch, 3) is small and level_law(ch, 2) is not small
        large = level_law(ch, 14)
        table = histogram_table(ch, 1 << 13)
        assert large.nbytes > 1 << 20 > 32 * small.nbytes
        assert table.nbytes < large.nbytes // 4
        budget = 3 * large.nbytes
        monkeypatch.setattr(ppm, "CACHE_BYTES", budget)
        for _ in range(8):
            level_law(bsc(0.1), 14)
            assert level_law(ch, 3) is small
            assert sum(value.nbytes for value in ppm._cache.values()) <= budget
        # the small law, two large ones and the table they share
        assert len(ppm._cache) == 4
        assert histogram_table(bsc(0.1), 1 << 13) is table
        assert level_law(ch, 14) is not large  # evicted, rebuilt
        monkeypatch.setattr(ppm, "CACHE_BYTES", large.nbytes - 1)
        other = bsc(0.1)
        assert level_law(other, 14) is not level_law(other, 14)
        assert not ppm._cache

    def test_tables_read_only(self):
        law, table = level_law(TERNARY, 3), histogram_table(TERNARY, 4)
        for arr in (law.histograms, law.pulse_pmf, law.plain_pmf, law.sums,
                    law.pulse.cdf, law.pulse.guide, law.plain.cdf, law.plain.guide,
                    table.counts, table.log_weights):
            assert not arr.flags.writeable
        # with no output off row0's support, the law reads the table's counts
        assert level_law(TERNARY, 3).histograms is histogram_table(TERNARY, 4).counts

    @pytest.mark.parametrize("ch, top", [
        (bsc(0.05), 11), (bsc(0.1), 11), (TERNARY, 10), (bac(0.1, 0.4), 11),
        (bac(0.05, 0.0), 11),
    ], ids=["bsc0.05", "bsc0.1", "ternary", "bac0.1,0.4", "bac0.05,0"])
    def test_plain_half_sums_to_the_divergence(self, ch, top):
        # D(P_ppm^h || P0^h) = sum_t Mult(h, row0)(t) (r log r - r + 1),
        # r = S(t) / h: the law's plain half and likelihood sums give the
        # divergence at h = 2^(i-1).  bsc(0.45) is left out: its r lies near
        # 1, and r - 1 formed from the sums cancels to a gap of 1.1e-13; the
        # divergence forms r - 1 from the centred ratio for that reason
        for i in range(1, top + 1):
            h = 1 << (i - 1)
            law = level_law(ch, i)
            r = law.sums / h
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = np.where(r > 0, r * np.log(r), 0.0) - r + 1.0
            got = float(np.sum(law.plain_pmf * terms))
            assert got == pytest.approx(ppm_output_divergence(ch, h), rel=1e-14, abs=0), i

    @pytest.mark.parametrize("ch, i, named", [
        (TERNARY, 12, "level 12: 2100225 histograms exceed budget"),
        (bsc(0.1), 22, "level 22: 2097152 draws per half exceed budget"),
        (NOISELESS, 40, "level 40: 549755813888 draws per half exceed budget"),
    ])
    def test_budget_refused_before_any_table(self, monkeypatch, ch, i, named):
        def enumerate_histograms(*args):
            raise AssertionError("histograms enumerated past the budget")

        monkeypatch.setattr(ppm, "all_histograms", enumerate_histograms)
        assert DEFAULT_TYPE_BUDGET == 2_000_000
        with pytest.raises(EnumerationBudgetError, match=named):
            level_law(ch, i)

    def test_overflowing_likelihood_sum_refused(self):
        # bsc(1e-306)'s ratio row1/row0 is about 1e306: 2^7 times it is
        # finite, 2^8 times it is not, so from level 9 a histogram on row0's
        # support has an infinite sum, and its pulse pmf would hold inf
        ch = bsc(1e-306)
        law = level_law(ch, 8)
        for arr in (law.sums, law.pulse_pmf, law.plain_pmf):
            assert np.isfinite(arr).all()
        for i in (9, 10, 12):
            with pytest.raises(ChannelError, match=f"^level {i}: "):
                level_law(ch, i)

    def test_largest_levels_within_budget_build(self):
        assert level_law(TERNARY, 11).histograms.shape == (math.comb(1026, 2), 3)
        assert level_law(NOISELESS, 21).histograms.shape == (2, 2)

    @pytest.mark.parametrize("i", [0, -1])
    def test_level_below_one_refused(self, i):
        with pytest.raises(ValueError, match="level index"):
            level_law(bsc(0.1), i)


class TestReceiverPath:
    """The receiver's channel, transmit_super then select_positions_batch
    with the true higher bits, is the level law."""

    @pytest.mark.parametrize("ch", [bsc(0.05), TERNARY, bac(0.05, 0.0)],
                             ids=["bsc0.05", "ternary", "bac0.05,0"])
    @pytest.mark.parametrize("q", [4, 6])
    def test_halves_follow_the_level_law(self, ch, q):
        # Pearson test of each level's (pulse half, plain half) atom pairs
        # against pulse_pmf x plain_pmf; atoms expected fewer than 5 times
        # are pooled into one cell
        ell = 20_000
        rng = np.random.default_rng(60 + q)
        bits = rng.integers(0, 2, size=(q, ell), dtype=np.uint8)
        out = transmit_super(ch, frame_from_bits(bits), rng)
        for i in range(1, 5):
            law = level_law(ch, i)
            first, second = select_positions_batch(out, decimal_values(bits[i:]), i)
            one = (bits[i - 1] == 1)[:, None]
            halves = np.stack([np.where(one, second, first),
                               np.where(one, first, second)], axis=1).astype(np.int64)
            n = law.histograms.shape[0]
            pairs = np.stack([np.repeat(law.histograms, n, axis=0),
                              np.tile(law.histograms, (n, 1))], axis=1)
            observed = atom_counts(pairs, halves)
            expected = ell * np.outer(law.pulse_pmf, law.plain_pmf).ravel()
            assert pooled_chi2_pvalue(observed, expected) > 1e-4, i

    def test_q16_block_statistics_stay_small(self):
        # one q=16, ell=1024 block and all 16 level statistics on the pulse
        # path: its 2^26 symbols alone would take 64 MiB, and their float64
        # uniforms 512 MiB
        ch = bsc(0.05)
        rng = np.random.default_rng(16)
        bits = rng.integers(0, 2, size=(16, 1024), dtype=np.uint8)
        frame = frame_from_bits(bits)
        tracemalloc.start()
        try:
            out = transmit_super(ch, frame, rng)
            llrs = [level_llrs(*select_positions_batch(out, decimal_values(bits[i:]), i), ch.lam)
                    for i in range(1, 17)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert all(np.isfinite(x).all() and x.shape == (1024,) for x in llrs)


class TestLevelChannelLemmas:
    @staticmethod
    def _swap_halves_index(idx: int, width: int, a: int) -> int:
        digits = []
        v = idx
        for _ in range(width):
            digits.append(v % a)
            v //= a
        digits = digits[::-1]  # first coordinate is the slowest-varying
        swapped = digits[width // 2:] + digits[:width // 2]
        out = 0
        for d in swapped:
            out = out * a + d
        return out

    def test_symmetry_lemma(self):
        # W^i(y | 0) equals W^i with halves swapped given input 1
        for ch in (bsc(0.1), bac(0.1, 0.4)):
            for i in (1, 2, 3):
                row0, row1 = level_channel_rows(ch, i)
                width = 1 << i
                mapping = np.array([
                    self._swap_halves_index(t, width, ch.alphabet_size)
                    for t in range(row0.shape[0])
                ])
                np.testing.assert_allclose(row0, row1[mapping], rtol=1e-12)

    @staticmethod
    def _apply_perm_index(idx: int, width: int, a: int, perm) -> int:
        digits = []
        v = idx
        for _ in range(width):
            digits.append(v % a)
            v //= a
        digits = digits[::-1]
        moved = [digits[perm[t]] for t in range(width)]
        out = 0
        for d in moved:
            out = out * a + d
        return out

    def _assert_invariant(self, ch, i, perm):
        row0, row1 = level_channel_rows(ch, i)
        width = 1 << i
        mapping = np.array([
            self._apply_perm_index(t, width, ch.alphabet_size, perm)
            for t in range(row0.shape[0])
        ])
        np.testing.assert_allclose(row0, row0[mapping], rtol=1e-12)
        np.testing.assert_allclose(row1, row1[mapping], rtol=1e-12)

    def test_permutation_invariance_exhaustive_i2(self):
        ch = bsc(0.1)
        for first in itertools.permutations(range(2)):
            for second in itertools.permutations(range(2, 4)):
                self._assert_invariant(ch, 2, list(first) + list(second))

    def test_permutation_invariance_sampled_i3(self, rng):
        ch = bac(0.1, 0.4)
        for _ in range(100):
            perm = np.concatenate([rng.permutation(4), 4 + rng.permutation(4)])
            self._assert_invariant(ch, 3, perm.tolist())


class TestPlanSerialisation:
    def test_round_trip(self):
        plan = msd_rate_plan(bsc(0.2), bac(0.1, 0.4), 5, delta=2.0,
                             epsilon=0.02)
        text = plan_to_text(plan)
        assert "base = bits" in text.splitlines()
        again = plan_from_text(text)
        assert again == plan

    def test_rejects_foreign_document(self):
        with pytest.raises(ValueError):
            plan_from_text("something else\nq = 3\n")
