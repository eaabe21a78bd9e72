import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertppm.channels import (
    ChannelError,
    bac,
    bsc,
    divergence_stats,
    is_degraded,
    make_dmc,
    sample_outputs,
)
from conftest import degradation_residual_lp, verify_degradation

LN2 = math.log(2.0)


class TestMakeDmc:
    def test_bsc_rows(self):
        ch = make_dmc([0.9, 0.1], [0.1, 0.9])
        assert ch.alphabet_size == 2
        np.testing.assert_allclose(ch.row0, [0.9, 0.1])
        np.testing.assert_allclose(ch.row1, [0.1, 0.9])

    def test_bac_rows(self):
        ch = make_dmc([0.9, 0.1], [0.4, 0.6])
        np.testing.assert_allclose(ch.row0, [0.9, 0.1])
        np.testing.assert_allclose(ch.row1, [0.4, 0.6])

    def test_identical_rows_accepted(self):
        ch = make_dmc([1.0, 0.0], [1.0, 0.0])
        np.testing.assert_array_equal(ch.row0, ch.row1)

    def test_renormalises_exactly(self):
        ch = make_dmc([0.3 + 1e-10, 0.7], [0.5, 0.5])
        assert ch.row0.sum() == pytest.approx(1.0, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ChannelError):
            make_dmc([0.5, 0.5], [0.2, 0.3, 0.5])

    def test_negative_entry(self):
        with pytest.raises(ChannelError):
            make_dmc([1.1, -0.1], [0.5, 0.5])

    def test_sum_out_of_tolerance(self):
        with pytest.raises(ChannelError):
            make_dmc([0.6, 0.5], [0.5, 0.5])

    @pytest.mark.parametrize("p", [1e-320, 5e-324])
    def test_overflowing_ratio_on_support_rejected(self, p):
        # row1/row0 = 1/p overflows to inf on a symbol of row0's support,
        # which left every table column and the plan's r_u at nan
        with pytest.raises(ChannelError, match="row1/row0 overflows"):
            bsc(p)
        with pytest.raises(ChannelError, match="row1/row0 overflows"):
            make_dmc([0.5, 0.5 - p, p], [0.25, 0.25, 0.5])

    def test_tiny_entries_with_finite_ratio_accepted(self):
        ch = bsc(1e-300)
        assert np.all(np.isfinite(ch.lam)) and ch.stats.finite
        # a zero row0 entry is off the support: an infinite ratio is the
        # documented off-support state, not an overflow
        assert bsc(0.0).lam[1] == np.inf


class TestChannelTable:
    def test_cdf_last_entry_exact(self):
        ch = make_dmc([0.1] * 10, [0.7, 0.2, 0.1] + [0.0] * 7)
        # running sums end at 1 - 2^-53 and 1 + 2^-52: the cases the forced entry fixes
        assert np.cumsum(ch.row0)[-1] < 1.0 < np.cumsum(ch.row1)[-1]
        assert ch.cdf0[-1] == 1.0 and ch.cdf1[-1] == 1.0
        np.testing.assert_array_equal(ch.cdf0[:-1], np.cumsum(ch.row0)[:-1])
        np.testing.assert_array_equal(ch.cdf1[:-1], np.cumsum(ch.row1)[:-1])

    def test_ratios_infinite_off_support(self):
        ch = bac(0.0, 0.3)  # row0 = [1, 0], row1 = [0.3, 0.7]
        np.testing.assert_array_equal(ch.lam, [0.3, np.inf])
        np.testing.assert_allclose(ch.centred_ratio, [-0.7, np.inf])
        assert not ch.stats.finite and math.isinf(ch.stats.chi2)

    def test_symbol_off_both_supports(self):
        ch = make_dmc([0.5, 0.5, 0.0], [0.3, 0.7, 0.0])
        np.testing.assert_array_equal(ch.lam, [0.6, 1.4, np.inf])
        assert ch.stats.finite

    def test_stats_are_divergence_stats_in_nats(self):
        ch = bac(0.1, 0.4)
        assert ch.stats == divergence_stats(ch.row1, ch.row0)

    def test_cached_and_read_only(self):
        ch = bsc(0.1)
        for name in ("cdf0", "cdf1", "lam", "centred_ratio"):
            table = getattr(ch, name)
            assert getattr(ch, name) is table
            with pytest.raises(ValueError):
                table[0] = 0.0
        assert ch.stats is ch.stats


class TestDivergenceStats:
    def test_bsc02_kl_bits(self):
        st_ = divergence_stats([0.8, 0.2], [0.2, 0.8])
        assert st_.kl / LN2 == pytest.approx(1.2, abs=1e-12)

    def test_bac_willie_kl_bits(self):
        willie = bac(0.1, 0.4)
        st_ = divergence_stats(willie.row1, willie.row0)
        assert st_.kl / LN2 == pytest.approx(1.083, abs=5e-4)

    def test_identical_distributions(self):
        st_ = divergence_stats([0.3, 0.3, 0.4], [0.3, 0.3, 0.4])
        assert st_.kl == 0.0
        assert st_.chi2 == 0.0
        assert st_.chi3 == 0.0
        assert st_.tv == 0.0

    def test_bsc01_warden_chi2(self):
        # two-term sum over the binary alphabet: 0.64/0.9 + 0.64/0.1 = 64/9
        willie = bsc(0.1)
        st_ = divergence_stats(willie.row1, willie.row0)
        assert st_.chi2 == pytest.approx(64.0 / 9.0, rel=1e-12)

    def test_overflowing_functionals_are_inf_without_a_warning(self):
        ch = bsc(1e-200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            st_ = divergence_stats(ch.row1, ch.row0)
        assert st_.finite and math.isfinite(st_.chi2)
        assert st_.chi3 == st_.theta == st_.rho == math.inf

    def test_support_violation_is_flagged_not_raised(self):
        st_ = divergence_stats([0.5, 0.5], [1.0, 0.0])
        assert not st_.finite
        assert math.isinf(st_.kl) and math.isinf(st_.chi2)
        assert st_.tv == pytest.approx(0.5)

    def test_asymmetry_guards_argument_order(self):
        willie = bac(0.1, 0.4)
        fwd = divergence_stats(willie.row1, willie.row0).kl
        rev = divergence_stats(willie.row0, willie.row1).kl
        assert abs(fwd - rev) > 1e-3


@st.composite
def distribution_pairs(draw, size=4):
    raw_p = draw(st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size))
    raw_q = draw(st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size))
    p = np.array(raw_p) / sum(raw_p)
    q = np.array(raw_q) / sum(raw_q)
    return p, q


class TestDivergenceProperties:
    @given(distribution_pairs())
    @settings(max_examples=200, deadline=None)
    def test_pinsker(self, pq):
        p, q = pq
        st_ = divergence_stats(p, q)
        assert st_.kl >= 2.0 * st_.tv**2 - 1e-12

    @given(distribution_pairs())
    @settings(max_examples=200, deadline=None)
    def test_self_divergence_zero(self, pq):
        p, _ = pq
        assert divergence_stats(p, p).kl == pytest.approx(0.0, abs=1e-12)

    @given(distribution_pairs())
    @settings(max_examples=200, deadline=None)
    def test_chi2_is_second_moment_of_ratio(self, pq):
        # chi2 equals E_q[((p-q)/q)^2], i.e. the variance of the centred
        # ratio statistic, computed here by direct moments
        p, q = pq
        ratio = (p - q) / q
        moment = float(np.sum(q * ratio * ratio))
        st_ = divergence_stats(p, q)
        assert st_.chi2 == pytest.approx(moment, rel=1e-10)


class TestDegradation:
    def test_bsc_chain(self):
        # BSC(0.1) then BSC(1/8): flip prob 0.1*(7/8) + 0.9*(1/8) = 0.2
        bob, willie = bsc(0.1), bsc(0.2)
        t = [[7 / 8, 1 / 8], [1 / 8, 7 / 8]]
        composed = np.array([bob.row0 @ t, bob.row1 @ t])
        np.testing.assert_allclose(composed, [willie.row0, willie.row1], atol=1e-15)
        ok, residual = verify_degradation(bob, willie, t)
        assert ok and residual < 1e-12

    def test_identity_degradation(self):
        bob = bac(0.15, 0.3)
        ok, residual = verify_degradation(bob, bob, np.eye(2))
        assert ok and residual == 0.0

    def test_non_degraded_pair(self):
        bob, willie = bsc(0.2), bac(0.1, 0.4)
        composed = np.array([bob.row0 @ np.eye(2), bob.row1 @ np.eye(2)])
        oracle = float(np.abs(composed - [willie.row0, willie.row1]).max())
        ok, residual = verify_degradation(bob, willie, np.eye(2))
        assert not ok
        assert residual == pytest.approx(oracle)

    def test_dimension_mismatch(self):
        with pytest.raises(ChannelError):
            verify_degradation(bsc(0.1), bsc(0.2), np.eye(3))

    def test_bad_intermediate_rows(self):
        with pytest.raises(ChannelError):
            verify_degradation(bsc(0.1), bsc(0.2), [[0.9, 0.2], [0.1, 0.8]])


@st.composite
def channel_pairs(draw, sizes=st.integers(2, 5)):
    """Two channels of 2-5 output symbols each, with small integer weights
    (zero-mass symbols and exact ties included)."""
    def channel():
        size = draw(sizes)
        weights = st.lists(st.integers(0, 4), min_size=size, max_size=size).filter(any)
        row0, row1 = (np.array(draw(weights), dtype=float) for _ in range(2))
        return make_dmc(row0 / row0.sum(), row1 / row1.sum())
    return channel(), channel()


class TestIsDegraded:
    @pytest.mark.parametrize("bob, willie, want", [
        (bsc(0.05), bsc(0.1), True),
        (bsc(0.1), bsc(0.05), False),
        (bsc(0.1), bsc(0.1), True),
        (bac(0.15, 0.3), bac(0.15, 0.3), True),
        (bsc(0.1), bsc(0.9), True),                       # outputs relabelled
        (make_dmc([1.0, 0.0], [0.0, 1.0]), bsc(0.1), True),  # noiseless Bob
        (bsc(0.1), make_dmc([0.5, 0.5], [0.5, 0.5]), True),  # useless Willie
        (make_dmc([1.0, 0.0], [0.0, 1.0]), bac(0.0, 0.3), True),
        (bsc(0.05), bac(0.0, 0.3), False),                # Willie off Q0's support
        (bsc(0.2), bac(0.1, 0.4), False),                 # the paper's table pair
        (make_dmc([0.7, 0.2, 0.1], [0.1, 0.2, 0.7]), bsc(0.2), True),
        (make_dmc([0.7, 0.2, 0.1], [0.1, 0.2, 0.7]), bsc(0.1), False),
    ])
    def test_known_pairs(self, bob, willie, want):
        assert is_degraded(bob, willie) is want

    @given(channel_pairs(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_every_composition_is_degraded(self, pair, data):
        bob, _ = pair
        nz = data.draw(st.integers(2, 4))
        t = np.array([data.draw(st.lists(st.integers(0, 5), min_size=nz, max_size=nz)
                                .filter(any)) for _ in range(bob.alphabet_size)], float)
        t /= t.sum(axis=1, keepdims=True)
        willie = make_dmc(bob.row0 @ t, bob.row1 @ t)
        assert verify_degradation(bob, willie, t)[0]
        assert is_degraded(bob, willie)

    @given(channel_pairs())
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_linear_program(self, pair):
        bob, willie = pair
        residual = degradation_residual_lp(bob, willie)
        if residual < 1e-10:
            assert is_degraded(bob, willie)
        elif residual > 1e-7:
            assert not is_degraded(bob, willie)


class TestSampling:
    def test_deterministic_channel(self, rng):
        ch = make_dmc([1.0, 0.0], [0.0, 1.0])
        np.testing.assert_array_equal(sample_outputs(ch, 0, 20, rng), 0)

    def test_deterministic_flip(self, rng):
        ch = make_dmc([0.0, 1.0], [1.0, 0.0])
        np.testing.assert_array_equal(sample_outputs(ch, 0, 20, rng), 1)

    def test_law_of_large_numbers(self, rng):
        ch = bsc(0.1)
        draws = sample_outputs(ch, 1, 10**6, rng)
        assert draws.mean() == pytest.approx(0.9, abs=0.002)

    def test_seeded_reproducibility(self):
        ch = bsc(0.3)
        a = sample_outputs(ch, 0, 100, np.random.default_rng(3))
        b = sample_outputs(ch, 0, 100, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_bad_input_bit(self, rng):
        with pytest.raises(ChannelError):
            sample_outputs(bsc(0.1), 2, 5, rng)


@st.composite
def channels_and_shapes(draw):
    """A channel of 2-6 output symbols (some possibly of zero mass), a shape
    and a seed."""
    size = draw(st.integers(2, 6))
    weights = st.lists(st.integers(0, 4), min_size=size, max_size=size).filter(any)
    row0, row1 = (np.array(draw(weights), dtype=float) for _ in range(2))
    ch = make_dmc(row0 / row0.sum(), row1 / row1.sum())
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 9)))
    return ch, shape, draw(st.integers(0, 2**32 - 1))


class TestSamplingEveryChannel:
    @given(channels_and_shapes())
    @settings(max_examples=200, deadline=None)
    def test_bits_match_per_entry_inverse_cdf(self, case):
        # the same uniforms, the input bit's CDF at every entry
        ch, shape, seed = case
        u = np.random.default_rng(seed).random(shape)
        for bit, cdf, row in ((0, ch.cdf0, ch.row0), (1, ch.cdf1, ch.row1)):
            want = np.searchsorted(cdf, u, side="right")
            got = sample_outputs(ch, bit, shape, np.random.default_rng(seed))
            assert got.dtype == np.uint8
            np.testing.assert_array_equal(got, want)
            # a zero-mass symbol is never drawn
            assert np.all(row[got] > 0)

    @pytest.mark.parametrize("size", [2, 256, 257, 300])
    def test_every_symbol_dtype(self, size):
        # both inputs draw in the smallest dtype that holds the alphabet,
        # uint16 too
        rng = np.random.default_rng(size)
        ch = make_dmc(rng.dirichlet(np.ones(size)), rng.dirichlet(np.ones(size)))
        u = np.random.default_rng(1).random((40, 50))
        for bit, cdf in ((0, ch.cdf0), (1, ch.cdf1)):
            got = sample_outputs(ch, bit, u.shape, np.random.default_rng(1))
            assert got.dtype == np.min_scalar_type(size - 1)
            np.testing.assert_array_equal(got, np.searchsorted(cdf, u, side="right"))


class TestMaskedSampling:
    def test_mask_of_another_shape_rejected(self, rng):
        # the input is one bit for every entry: a boolean mask of any shape,
        # or the index tuple of its entries, is refused
        for mask in (np.ones(4, dtype=bool), np.ones((3, 4), dtype=bool)):
            for x in (mask, np.nonzero(mask)):
                with pytest.raises(ChannelError, match="input must be a bit"):
                    sample_outputs(bsc(0.1), x, (3, 4), rng)


class _Uniforms:
    """A generator stub whose ``random`` returns the given values in order."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, size):
        return self.values[:int(np.prod(size))].reshape(size).copy()


def boundary_uniforms(ch) -> np.ndarray:
    """Every CDF entry of the channel, its two neighbouring doubles, 0.0 and
    the largest double below 1: every uniform the generator can return at
    which a comparison could go either way."""
    edges = np.concatenate([ch.cdf0, ch.cdf1, [0.0, 1.0]])
    u = np.concatenate([edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0)])
    return np.unique(u[(u >= 0.0) & (u < 1.0)])


@st.composite
def boundary_channels(draw):
    """A channel of 2-6 output symbols, some of zero mass, with rational or
    arbitrary masses, and its boundary uniforms."""
    size = draw(st.integers(2, 6))
    mass = st.one_of(st.integers(0, 4), st.floats(1e-6, 1.0))
    weights = st.lists(mass, min_size=size, max_size=size).filter(any)
    row0, row1 = (np.array(draw(weights), dtype=float) for _ in range(2))
    ch = make_dmc(row0 / row0.sum(), row1 / row1.sum())
    return ch, boundary_uniforms(ch)


class TestSamplingAtCdfBoundaries:
    @given(boundary_channels())
    @settings(max_examples=300, deadline=None)
    def test_comparison_count_equals_searchsorted(self, case):
        ch, u = case
        for bit, cdf, row in ((0, ch.cdf0, ch.row0), (1, ch.cdf1, ch.row1)):
            got = sample_outputs(ch, bit, u.shape, _Uniforms(u))
            assert got.dtype == np.uint8
            np.testing.assert_array_equal(got, np.searchsorted(cdf, u, side="right"))
            # a zero-mass symbol is never drawn, even at the boundaries
            assert np.all(row[got] > 0)

    def test_running_sum_past_one(self):
        # row1's running sums reach 1 + 2^-52 before the forced final 1.0
        ch = make_dmc([0.1] * 10, [0.7, 0.2, 0.1] + [0.0] * 7)
        u = boundary_uniforms(ch)
        for bit, cdf in ((0, ch.cdf0), (1, ch.cdf1)):
            got = sample_outputs(ch, bit, u.shape, _Uniforms(u))
            np.testing.assert_array_equal(got, np.searchsorted(cdf, u, side="right"))
        assert sample_outputs(ch, 1, u.shape, _Uniforms(u)).max() == 2

    def test_zero_mass_symbol_after_a_sum_below_one_is_never_drawn(self):
        # ten masses of 0.1 sum to 1 - 2^-53; with that running sum in the
        # CDF the largest uniform below 1 drew the zero-mass symbol 10
        ch = make_dmc([0.1] * 10 + [0.0], [0.0] + [0.1] * 10)
        assert np.cumsum(ch.row0)[9] < 1.0
        u = np.array([np.nextafter(1.0, 0.0)])
        assert sample_outputs(ch, 0, 1, _Uniforms(u))[0] == 9

    @pytest.mark.parametrize("size, dtype", [(2, np.uint8), (256, np.uint8),
                                             (257, np.uint16)])
    def test_symbol_dtype_is_the_smallest_that_holds_the_alphabet(self, size, dtype):
        row = np.full(size, 1.0 / size)
        ch = make_dmc(row, row)
        u = boundary_uniforms(ch)
        got = sample_outputs(ch, 0, u.shape, _Uniforms(u))
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, np.searchsorted(ch.cdf0, u, side="right"))
