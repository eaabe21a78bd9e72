import itertools
import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertppm.channels import LN2, bsc, bac, divergence_stats, make_dmc
from covertppm.levels import select_positions_batch
from covertppm.ppm import (
    CHILD_SEED_WORDS,
    DEFAULT_TYPE_BUDGET,
    EnumerationBudgetError,
    PpmFrame,
    decimal_values,
    frame_from_bits,
    ppm_divergence_bound,
    ppm_output_divergence,
    transmit_super,
)

from conftest import (
    atom_counts,
    binary_divergence_reference,
    brute_ppm_divergence,
    decimal_map,
    index_set,
    multinomial_pmf,
    output_from_symbols,
    pooled_chi2_pvalue,
    read_symbols,
    type_class_divergence_reference,
)


def _bit_columns(values, q: int) -> np.ndarray:
    """(q, n) level-bit matrix of the given decimal values, LSB first."""
    values = np.asarray(values, dtype=np.int64)
    return ((values[None, :] >> np.arange(q)[:, None]) & 1).astype(np.uint8)


class TestDecimalMap:
    # reference points from the order-16 mapper layout: x_1 is the least
    # significant bit, position = decimal + 1
    def test_all_zero(self):
        assert decimal_map([0, 0, 0, 0]) == 0
        np.testing.assert_array_equal(
            frame_from_bits(np.zeros((4, 1), np.uint8)).positions, [1])

    def test_lsb_first(self):
        assert decimal_map([1, 0, 0, 0]) == 1
        np.testing.assert_array_equal(
            frame_from_bits(np.array([[1], [0], [0], [0]], np.uint8)).positions, [2])

    def test_all_one(self):
        assert decimal_map([1, 1, 1, 1]) == 15
        np.testing.assert_array_equal(
            frame_from_bits(np.ones((4, 1), np.uint8)).positions, [16])

    @given(st.integers(1, 12), st.data())
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, q, data):
        value = data.draw(st.integers(0, (1 << q) - 1))
        bits = _bit_columns([value], q)
        assert decimal_map(bits[:, 0]) == value
        assert frame_from_bits(bits).positions[0] == value + 1

    def test_round_trip_exhaustive_small(self):
        for q in range(1, 13):
            values = np.arange(1 << q) if q <= 8 else np.arange(0, 1 << q, 97)
            bits = _bit_columns(values, q)
            np.testing.assert_array_equal(frame_from_bits(bits).positions,
                                          values + 1)
            assert [decimal_map(col) for col in bits.T] == values.tolist()

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            decimal_map([0, 2])

    @given(st.integers(0, 10), st.integers(1, 20), st.data())
    @settings(max_examples=100, deadline=None)
    def test_decimal_values_match_per_column_map(self, t, n, data):
        bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=t * n,
                                           max_size=t * n)), dtype=np.uint8)
        bits = bits.reshape(t, n)
        got = decimal_values(bits)
        assert got.dtype == np.int64
        assert got.tolist() == [decimal_map(col) for col in bits.T]


class TestIndexSet:
    def test_top_bit_zero_is_first_half(self):
        np.testing.assert_array_equal(index_set(4, {4: 0}), np.arange(1, 9))

    def test_bottom_bit_alternates(self):
        np.testing.assert_array_equal(index_set(4, {1: 1}),
                                      np.arange(2, 17, 2))

    def test_empty_constraint_full_set(self):
        np.testing.assert_array_equal(index_set(3, {}), np.arange(1, 9))

    def test_partition_property(self):
        # over all assignments of x_S the sets tile [1, 2^q] in equal blocks,
        # each the positions frame_from_bits gives the matching bit vectors
        q = 5
        bits = _bit_columns(np.arange(1 << q), q)
        positions = frame_from_bits(bits).positions
        for S in ([2], [1, 4], [2, 3, 5]):
            seen = []
            for assignment in itertools.product([0, 1], repeat=len(S)):
                part = index_set(q, dict(zip(S, assignment)))
                assert part.shape[0] == (1 << q) >> len(S)
                match = np.all([bits[t - 1] == b for t, b in zip(S, assignment)],
                               axis=0)
                np.testing.assert_array_equal(part, np.sort(positions[match]))
                seen.extend(part.tolist())
            assert sorted(seen) == list(range(1, (1 << q) + 1))

    def test_level_out_of_range(self):
        with pytest.raises(ValueError):
            index_set(3, {4: 0})


class TestTransmitSuper:
    def test_noiseless_pulse(self, rng):
        ch = make_dmc([1.0, 0.0], [0.0, 1.0])
        out = transmit_super(ch, PpmFrame(q=2, positions=np.array([3])), rng)
        np.testing.assert_array_equal(read_symbols(out)[0], [0, 0, 1, 0])

    def test_identical_rows_marginals_match_innocent(self, rng):
        # with row1 == row0 the pulse coordinate is indistinguishable from
        # the rest: all empirical marginals coincide within sampling noise
        ch = make_dmc([0.7, 0.3], [0.7, 0.3])
        frame = PpmFrame(q=2, positions=np.full(20000, 2))
        out = transmit_super(ch, frame, rng)
        marg = (read_symbols(out) == 1).mean(axis=0)
        np.testing.assert_allclose(marg, 0.3, atol=0.02)

    def test_bsc_marginal_at_pulse(self, rng):
        ch = bsc(0.1)
        frame = PpmFrame(q=3, positions=np.ones(10**5, dtype=np.int64))
        out = transmit_super(ch, frame, rng)
        # the pulse and its sibling: both read on the pulse path
        got = out.block_histograms(0, np.tile([0, 1], (frame.ell, 1)))
        p1 = got[:, 0, 1].mean()
        assert p1 == pytest.approx(0.9, abs=0.01)
        off = got[:, 1, 1].mean()
        assert off == pytest.approx(0.1, abs=0.01)

    def test_symbols_equal_inverse_cdf_draws(self):
        # bitwise the documented draws: CHILD_SEED_WORDS uint64 words from
        # the caller seed a child; from it the pulse outputs z by inverse
        # CDF through row1, then one multinomial per height k = 0..q-1.  The
        # path and sibling histograms are read without a draw; a block off
        # the path is then split off its sibling S_2, heights 2 and 1 in
        # turn, one hypergeometric per symbol 1..|Z|-1 over the rows
        ch = make_dmc([0.5, 0.3, 0.2], [0.1, 0.3, 0.6])
        frame = PpmFrame(q=3, positions=np.array([1, 8, 4, 4, 2]))
        rng = np.random.default_rng(11)
        out = transmit_super(ch, frame, rng)
        ref = np.random.default_rng(11)
        child = np.random.default_rng(
            ref.integers(0, 2**64, size=CHILD_SEED_WORDS, dtype=np.uint64))
        assert rng.random() == ref.random()  # the caller gave exactly the seed
        z = np.searchsorted(ch.cdf1, child.random(5), side="right")
        siblings = [child.multinomial(1 << k, ch.row0, size=5) for k in range(3)]
        p = frame.positions - 1
        path = np.eye(3, dtype=np.int64)[z]
        for j in range(4):
            blocks = np.stack([p >> j, (p >> j) ^ 1], axis=1)[:, :1 if j == 3 else 2]
            got = out.block_histograms(j, blocks)
            np.testing.assert_array_equal(got[:, 0], path)
            if j < 3:
                np.testing.assert_array_equal(got[:, 1], siblings[j])
                path = path + siblings[j]
        node = siblings[2]
        for h, pick in ((2, p & 2), (1, p & 1)):  # the half under p ^ 4
            left, draws = np.full(5, 1 << h), np.full(5, 1 << (h - 1))
            first = np.zeros_like(node)
            for a in (1, 2):
                first[:, a] = child.hypergeometric(node[:, a], left - node[:, a], draws)
                left, draws = left - node[:, a], draws - first[:, a]
            first[:, 0] = draws
            node = np.where(pick[:, None] > 0, node - first, first)
        got = out.block_histograms(0, (p ^ 4)[:, None])[:, 0]
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, node)

    @pytest.mark.parametrize("q, ell", [(1, 1), (4, 7), (12, 300)])
    def test_caller_stream_advances_by_the_seed_words_alone(self, q, ell):
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        frame = PpmFrame(q=q, positions=np.ones(ell, dtype=np.int64))
        transmit_super(bsc(0.1), frame, rng)
        ref.integers(0, 2**64, size=CHILD_SEED_WORDS, dtype=np.uint64)
        assert rng.random() == ref.random()

    def test_positions_stay_exact_at_the_largest_plannable_order(self):
        # the histogram budget admits order 2^20 for a binary warden and
        # refuses 2^21 (the planner refuses level 21 with it), so q <= 20
        # bounds every session; there positions, pulses and every path
        # block read back exactly, and a block far off the path holds one
        # output
        q = 20
        ppm_output_divergence(bsc(0.1), 1 << q)
        with pytest.raises(EnumerationBudgetError):
            ppm_output_divergence(bsc(0.1), 1 << (q + 1))
        values = np.array([0, 1, (1 << q) - 2, (1 << q) - 1, 1 << (q - 1), 12345])
        frame = frame_from_bits(_bit_columns(values, q))
        np.testing.assert_array_equal(frame.positions, values + 1)
        out = transmit_super(bsc(0.1), frame, np.random.default_rng(0))
        np.testing.assert_array_equal(out.pulses, values)
        for j in range(q + 1):
            got = out.block_histograms(j, (values >> j)[:, None])
            np.testing.assert_array_equal(got.sum(axis=(1, 2)), 1 << j)
        far = out.block_histograms(0, (values ^ (1 << (q - 1)))[:, None])
        np.testing.assert_array_equal(far.sum(axis=(1, 2)), 1)

    def test_position_bounds_checked(self):
        with pytest.raises(ValueError):
            PpmFrame(q=2, positions=np.array([5]))


TERNARY = make_dmc([0.5, 0.3, 0.2], [0.1, 0.3, 0.6])


def _every_block_histogram(symbols: np.ndarray, size: int, j: int) -> np.ndarray:
    """(ell, 2^(q-j), size) counts of every aligned width-2^j block."""
    cut = symbols.reshape(symbols.shape[0], -1, 1 << j)
    return (cut[..., None] == np.arange(size)).sum(axis=2)


class TestPulsePath:
    @pytest.mark.parametrize("ch", [bsc(0.2), TERNARY], ids=["bsc0.2", "ternary"])
    @pytest.mark.parametrize("q", [1, 2])
    def test_materialized_symbols_follow_the_product_law(self, ch, q):
        # Pearson test of every output pattern of a super-symbol, per pulse
        # position, against row1 at the pulse and row0 elsewhere, read back
        # through every width-1 block.  At q = 2 the even rows are first
        # split down to one off-path block, then every block is read
        m, size, per_position = 1 << q, ch.alphabet_size, 12_000
        p = np.tile(np.arange(m), per_position)
        out = transmit_super(ch, PpmFrame(q=q, positions=p + 1),
                             np.random.default_rng(40 + q))
        if q == 2:
            off = np.arange(p.size) % 2 == 0
            out.block_histograms(0, np.where(off, p ^ 2, p)[:, None])
        pattern = read_symbols(out) @ size ** np.arange(m)
        observed = np.bincount(p * size**m + pattern, minlength=m * size**m)
        expected = np.empty(m * size**m)
        for pulse in range(m):
            for code, syms in enumerate(itertools.product(range(size), repeat=m)):
                # product() varies the last coordinate fastest: read it reversed
                rows = [ch.row1 if c == pulse else ch.row0 for c in range(m)]
                expected[pulse * size**m + code] = per_position * math.prod(
                    row[a] for row, a in zip(rows, syms[::-1]))
        assert pooled_chi2_pvalue(observed, expected) > 1e-4

    def test_answers_agree_on_the_path_off_it_and_in_the_symbols(self):
        # one row read on its pulse path, then off it (wrong higher bits),
        # then every width-1 block: every level's histograms agree
        q, ell, row = 5, 6, 3
        rng = np.random.default_rng(7)
        p = rng.integers(0, 1 << q, size=ell)
        out = transmit_super(TERNARY, PpmFrame(q=q, positions=p + 1), rng)

        def on_path(j):
            blocks = np.stack([p >> j, (p >> j) ^ 1], axis=1)
            return out.block_histograms(j, blocks[:, :1] if j == q else blocks)

        before = [on_path(j) for j in range(q + 1)]
        wrong = p.copy()
        wrong[row] ^= 1 << (q - 1)  # the top level bit flipped
        offs = [out.block_histograms(j, np.stack([wrong >> j], axis=1))
                for j in range(q)]
        for j in range(q + 1):
            np.testing.assert_array_equal(on_path(j), before[j])
        symbols = read_symbols(out)
        for j in range(q + 1):
            every = _every_block_histogram(symbols, 3, j)
            rows = np.arange(ell)[:, None]
            blocks = np.stack([p >> j, (p >> j) ^ 1], axis=1)[:, :1 if j == q else 2]
            np.testing.assert_array_equal(every[rows, blocks], before[j])
            if j < q:
                np.testing.assert_array_equal(every[rows, (wrong >> j)[:, None]], offs[j])
            all_blocks = np.tile(np.arange(1 << (q - j)), (ell, 1))
            np.testing.assert_array_equal(out.block_histograms(j, all_blocks), every)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_query_sequence_agrees_with_the_symbols(self, data):
        # queries at random levels and blocks, on the path, on its sibling
        # or off it, in any order: every answer is the histogram of the
        # symbols that a final read of every width-1 block gives
        q = data.draw(st.integers(1, 6))
        size = data.draw(st.integers(2, 5))
        ell = data.draw(st.integers(1, 8))
        weights = st.lists(st.integers(0, 3), min_size=size, max_size=size).filter(any)
        row0, row1 = (np.array(data.draw(weights), dtype=float) for _ in range(2))
        ch = make_dmc(row0 / row0.sum(), row1 / row1.sum())
        p = np.array(data.draw(st.lists(st.integers(0, (1 << q) - 1),
                                        min_size=ell, max_size=ell)))
        out = transmit_super(ch, PpmFrame(q=q, positions=p + 1),
                             np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
        answers = []
        for _ in range(data.draw(st.integers(1, 6))):
            j = data.draw(st.integers(0, q))
            k = data.draw(st.integers(1, 3))
            near = np.stack([p >> j, (p >> j) ^ (j < q)] * 2, axis=1)[:, :k]
            anywhere = np.array(data.draw(st.lists(
                st.integers(0, (1 << (q - j)) - 1), min_size=ell * k, max_size=ell * k)))
            pick = np.array(data.draw(st.lists(st.booleans(), min_size=ell * k,
                                               max_size=ell * k))).reshape(ell, k)
            blocks = np.where(pick, anywhere.reshape(ell, k), near)
            answers.append((j, blocks, out.block_histograms(j, blocks)))
        symbols = read_symbols(out)
        for j, blocks, got in answers:
            every = _every_block_histogram(symbols, size, j)
            np.testing.assert_array_equal(got, every[np.arange(ell)[:, None], blocks])

    def test_pulse_path_histograms_sum_up_the_siblings(self):
        # P_(j+1) = P_j + S_j, each in the smallest dtype that holds its count
        out = transmit_super(TERNARY, PpmFrame(q=9, positions=np.array([1, 512, 5])),
                             np.random.default_rng(2))
        assert len(out.path) == 10 and len(out.siblings) == 9
        np.testing.assert_array_equal(out.pulses, [0, 511, 4])
        for j, (low, high) in enumerate(zip(out.path, out.path[1:])):
            np.testing.assert_array_equal(high, low.astype(np.int64) + out.siblings[j])
            assert out.siblings[j].dtype == np.min_scalar_type(1 << j)
            assert high.dtype == np.min_scalar_type(1 << (j + 1))
            assert high.shape == (3, 2) and np.all(high.sum(axis=1) <= 1 << (j + 1))


class TestHistogramPyramid:
    @pytest.mark.parametrize("size", [2, 4])
    @pytest.mark.parametrize("q", [9, 10, 12])
    def test_root_counts_of_nonzero_rows_are_exact(self, size, q, rng):
        # 2^q counts of symbols other than 0 overflow uint8 from q = 8 on
        symbols = rng.integers(1, size, size=(3, 1 << q)).astype(np.uint8)
        out = output_from_symbols(symbols, rng.integers(0, 1 << q, size=3), size)
        root = out.block_histograms(q, np.zeros((3, 1), dtype=np.int64))[:, 0]
        assert root.dtype == np.min_scalar_type(1 << q)
        assert np.all(root[:, 0] == 0) and np.all(root.sum(axis=1) == 1 << q)
        want = np.stack([np.bincount(r, minlength=size) for r in symbols])
        np.testing.assert_array_equal(root, want)

    def test_block_histograms_count_every_block(self, rng):
        # read off symbols at random pulses: every path block and sibling
        # counts its symbols, and every height's blocks, split off the
        # siblings where they leave the path, sum to the row's counts
        q, size = 5, 3
        symbols = rng.integers(0, size, size=(4, 1 << q))
        p = rng.integers(0, 1 << q, size=4)
        out = output_from_symbols(symbols, p, size)
        rows = np.arange(4)[:, None]
        for j in range(q + 1):
            blocks = np.tile(np.arange(1 << (q - j)), (4, 1))
            got = out.block_histograms(j, blocks)
            assert got.dtype == np.min_scalar_type(1 << j)
            want = _every_block_histogram(symbols, size, j)
            near = np.stack([p >> j, (p >> j) ^ 1], axis=1)[:, :1 if j == q else 2]
            np.testing.assert_array_equal(got[rows, near], want[rows, near])
            np.testing.assert_array_equal(got.sum(axis=1), want.sum(axis=1))


class TestOffPath:
    @pytest.mark.parametrize("size", [2, 3, 5])
    def test_parents_sum_their_children_and_reads_repeat(self, size):
        # random reads at every height, in random order: afterwards every
        # block is the sum of its two halves, and each read answers again
        # as it did the first time
        q, ell = 7, 6
        rng = np.random.default_rng(size)
        row = rng.dirichlet(np.ones(size))
        ch = make_dmc(row, np.roll(row, 1))
        p = rng.integers(0, 1 << q, size=ell)
        out = transmit_super(ch, PpmFrame(q=q, positions=p + 1), rng)
        answers = []
        for _ in range(30):
            j = int(rng.integers(0, q + 1))
            blocks = rng.integers(0, 1 << (q - j), size=(ell, int(rng.integers(1, 4))))
            answers.append((j, blocks, out.block_histograms(j, blocks)))
        for j, blocks, got in answers:
            np.testing.assert_array_equal(out.block_histograms(j, blocks), got)
        every = [out.block_histograms(j, np.tile(np.arange(1 << (q - j)), (ell, 1)))
                 for j in range(q + 1)]
        for j in range(q):
            low = every[j].astype(np.int64)
            np.testing.assert_array_equal(low[:, 0::2] + low[:, 1::2], every[j + 1])
        for j, blocks, got in answers:
            np.testing.assert_array_equal(got, every[j][np.arange(ell)[:, None], blocks])

    @pytest.mark.parametrize("ch", [bsc(0.2), TERNARY], ids=["bsc0.2", "ternary"])
    def test_far_block_follows_the_row0_multinomial(self, ch):
        # a width-4 block under the top sibling of a q=8 super-symbol, split
        # off S_7 over five heights: Pearson test against Mult(4, row0)
        q, j, ell = 8, 2, 20_000
        rng = np.random.default_rng(3)
        p = rng.integers(0, 1 << q, size=ell)
        out = transmit_super(ch, PpmFrame(q=q, positions=p + 1), rng)
        far = ((p >> j) ^ (1 << (q - j - 1))) ^ rng.integers(0, 1 << (q - j - 1), size=ell)
        got = out.block_histograms(j, far[:, None])[:, 0]
        atoms, probs = multinomial_pmf(1 << j, ch.row0)
        observed = atom_counts(atoms, got.astype(np.int64))
        assert pooled_chi2_pvalue(observed, ell * probs) > 1e-4

    def test_every_row_off_its_path_at_q16_stays_small(self):
        # a block whose top decision is wrong on every row, read at every
        # lower level: the splits keep O(q |Z|) counts per row, 1.8 MiB
        # here, where laying the rows out peaked at 289 MiB
        q, ell = 16, 1024
        rng = np.random.default_rng(1)
        p = rng.integers(0, 1 << q, size=ell)
        out = transmit_super(bsc(0.1), PpmFrame(q=q, positions=p + 1), rng)
        wrong = p ^ (1 << (q - 1))
        tracemalloc.start()
        try:
            for i in range(q - 1, 0, -1):
                first, second = select_positions_batch(out, wrong >> i, i)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(first.sum(axis=1) == 1) and np.all(second.sum(axis=1) == 1)
        assert peak <= 16 << 20


class TestFrameFromBits:
    def test_mapper_columns(self):
        bits = np.array([[1, 1], [0, 1]], dtype=np.uint8)  # x1 rows, x2 rows
        frame = frame_from_bits(bits)
        np.testing.assert_array_equal(frame.positions, [2, 4])

    def test_zero_bits(self):
        frame = frame_from_bits(np.zeros((2, 3), dtype=np.uint8))
        np.testing.assert_array_equal(frame.positions, [1, 1, 1])


class TestPpmOutputDivergence:
    def test_order_one_is_plain_divergence(self):
        ch = bsc(0.1)
        st_ = divergence_stats(ch.row1, ch.row0)
        assert ppm_output_divergence(ch, 1) == pytest.approx(st_.kl, rel=1e-12)

    def test_identical_rows_zero(self):
        ch = make_dmc([0.6, 0.4], [0.6, 0.4])
        for m in (1, 2, 8, 64):
            assert ppm_output_divergence(ch, m) == pytest.approx(0.0, abs=1e-12)

    def test_table_level_one_relation(self):
        # D(P1||P0) - D(P_ppm^2 || P0^2) is the first-level capacity 0.7421
        ch = bsc(0.1)
        d1 = ppm_output_divergence(ch, 1) / LN2
        d2 = ppm_output_divergence(ch, 2) / LN2
        assert d1 - d2 == pytest.approx(0.7421, abs=5e-5)

    def test_monotone_decreasing_in_m(self):
        ch = bsc(0.1)
        values = [ppm_output_divergence(ch, 1 << t) for t in range(1, 9)]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_binary_dp_equals_brute_force(self, m):
        for ch in (bsc(0.1), bac(0.1, 0.4), bsc(0.35)):
            assert ppm_output_divergence(ch, m) == pytest.approx(
                brute_ppm_divergence(ch, m), rel=1e-11, abs=1e-13
            )

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_type_dp_equals_brute_force_ternary(self, m):
        ch = make_dmc([0.5, 0.3, 0.2], [0.2, 0.2, 0.6])
        assert ppm_output_divergence(ch, m) == pytest.approx(
            brute_ppm_divergence(ch, m), rel=1e-11, abs=1e-13
        )

    @pytest.mark.parametrize("ch", [bsc(0.1), bac(0.1, 0.4), bsc(0.35)])
    def test_binary_sum_equals_ones_count_loop(self, ch):
        for t in range(13):
            assert ppm_output_divergence(ch, 1 << t) == pytest.approx(
                binary_divergence_reference(ch, 1 << t), rel=1e-10, abs=0.0
            )

    def test_near_identical_rows_keep_their_digits(self):
        # 40-digit Decimal sum: the signed sum E[r log r] loses about 2e-10
        # of D here to cancellation; the nonnegative terms do not
        ch = make_dmc([0.55, 0.45], [0.6, 0.4])
        m = 4096
        with localcontext() as ctx:
            ctx.prec = 40
            p0 = [Decimal(float(v)) for v in ch.row0]
            lam = [Decimal(float(v)) / p for v, p in zip(ch.row1, p0)]
            want = Decimal(0)
            for k in range(m + 1):
                r = (k * lam[1] + (m - k) * lam[0]) / m
                want += math.comb(m, k) * p0[1] ** k * p0[0] ** (m - k) * r * r.ln()
        got = ppm_output_divergence(ch, m)
        assert got == pytest.approx(float(want), rel=1e-10, abs=0.0)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_sum_equals_type_class_loop(self, data):
        # rows with zeros in P0 (and then in P1), and zeros in P1 alone
        size = data.draw(st.integers(2, 5))
        w0 = data.draw(st.lists(st.integers(0, 9), min_size=size, max_size=size)
                       .filter(any))
        w1 = data.draw(st.lists(st.integers(0, 9), min_size=size, max_size=size))
        w1 = [b if a else 0 for a, b in zip(w0, w1)]
        if not any(w1):
            w1 = w0
        ch = make_dmc(np.divide(w0, sum(w0)), np.divide(w1, sum(w1)))
        # m <= 64 with at most a few thousand histograms for the Python loop
        m = 1 << data.draw(st.integers(0, {2: 6, 3: 6, 4: 5, 5: 4}[size]))
        want = type_class_divergence_reference(ch, m)
        # the loop adds signed terms of size up to ~1: 1e-14 covers its rounding
        assert ppm_output_divergence(ch, m) == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_point_mass_row0_gives_zero(self):
        # P0 = P1 = (1, 0): the only histogram has r = 1, and no 0 * inf term
        ch = make_dmc([1.0, 0.0], [1.0, 0.0])
        for m in (1, 16, 1024):
            assert ppm_output_divergence(ch, m) == 0.0

    def test_support_violation_infinite(self):
        ch = make_dmc([1.0, 0.0], [0.5, 0.5])
        assert math.isinf(ppm_output_divergence(ch, 4))

    def test_alphabet_budget_signals_monte_carlo(self):
        rows = np.full(7, 1 / 7)
        ch = make_dmc(rows, np.roll(rows, 1))
        with pytest.raises(EnumerationBudgetError, match="exact-sum limit"):
            ppm_output_divergence(ch, 4)

    def test_type_budget_signals_monte_carlo(self):
        # 2050 * 2049 / 2 = 2,100,225 histograms of 2048 draws on 3 symbols
        ch = make_dmc([0.5, 0.3, 0.2], [0.2, 0.2, 0.6])
        assert math.comb(2048 + 2, 2) > DEFAULT_TYPE_BUDGET
        with pytest.raises(EnumerationBudgetError):
            ppm_output_divergence(ch, 2048)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            ppm_output_divergence(bsc(0.1), 3)


class TestDivergenceBound:
    def test_design_point_is_one_nat(self):
        # chi2 = 64/9 for the BSC(0.1) warden; ell = 288 at m = 1024 lands
        # exactly on the delta = 1 design point
        chi2 = divergence_stats(bsc(0.1).row1, bsc(0.1).row0).chi2
        assert ppm_divergence_bound(chi2, 1024, 288) == pytest.approx(1.0, abs=1e-12)

    def test_zero_length(self):
        assert ppm_divergence_bound(5.0, 16, 0) == 0.0

    def test_leading_order_tightens_with_m(self):
        # exact value exceeds the leading-order bound by an O(1/m) factor
        # that shrinks as m grows
        ch = bsc(0.1)
        chi2 = divergence_stats(ch.row1, ch.row0).chi2
        ratios = []
        for m in (64, 128, 256):
            exact = ppm_output_divergence(ch, m)
            ratios.append(exact / ppm_divergence_bound(chi2, m, 1))
        assert ratios[0] < 1.03
        assert ratios[0] > ratios[1] > ratios[2] > 1.0

    def test_rejects_tiny_order(self):
        with pytest.raises(ValueError):
            ppm_divergence_bound(1.0, 1, 10)


class TestLikelihoodRatios:
    def test_bsc_values(self):
        np.testing.assert_allclose(bsc(0.1).lam[[1, 0]], [9.0, 1.0 / 9.0])

    def test_identical_rows_all_one(self):
        ch = make_dmc([0.25, 0.75], [0.25, 0.75])
        np.testing.assert_allclose(ch.lam[[0, 1, 1, 0]], 1.0)

    def test_bac_values(self):
        np.testing.assert_allclose(bac(0.1, 0.4).lam[[1, 0]], [6.0, 4.0 / 9.0])

    def test_infinite_marker(self):
        ch = make_dmc([1.0, 0.0], [0.5, 0.5])
        assert math.isinf(ch.lam[1])
