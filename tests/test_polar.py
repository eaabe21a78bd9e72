import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sc_decode_reference
from covertppm.channels import bsc
from covertppm.codec import make_level_llr_sampler
from covertppm.levels import DEFAULT_LLR_MAX, level_capacity, level_llrs
from covertppm.polar import (
    PolarLevelCode,
    all_frozen_code,
    code_from_text,
    code_to_text,
    construct_code,
    polar_transform,
    resolvability_encode,
    sc_decode,
)


def noiseless_llrs(codeword: np.ndarray) -> np.ndarray:
    return DEFAULT_LLR_MAX * (1.0 - 2.0 * codeword.astype(np.float64))


def kronecker_generator(ell: int) -> np.ndarray:
    """G = F^(kron n) with F = [[1, 0], [1, 1]], built explicitly."""
    g = np.ones((1, 1), dtype=np.int64)
    while g.shape[0] < ell:
        g = np.kron(np.array([[1, 0], [1, 1]], dtype=np.int64), g)
    return g


def batch_transform(u: np.ndarray) -> np.ndarray:
    x = u.copy()
    ell = x.shape[1]
    step = 1
    while step < ell:
        for s in range(0, ell, 2 * step):
            x[:, s:s + step] ^= x[:, s + step:s + 2 * step]
        step *= 2
    return x


class TestTransform:
    def test_kernel_by_hand(self):
        np.testing.assert_array_equal(polar_transform([1, 0]), [1, 0])
        np.testing.assert_array_equal(polar_transform([0, 1]), [1, 1])
        np.testing.assert_array_equal(polar_transform([1, 1]), [0, 1])

    def test_zeros_fixed_point(self):
        np.testing.assert_array_equal(polar_transform(np.zeros(16, np.uint8)),
                                      np.zeros(16, np.uint8))

    @pytest.mark.parametrize("ell", [2, 4, 8, 64, 256, 1024, 4096])
    def test_involution(self, ell, rng):
        u = rng.integers(0, 2, size=ell, dtype=np.uint8)
        np.testing.assert_array_equal(polar_transform(polar_transform(u)), u)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            polar_transform([1, 0, 1])
        with pytest.raises(ValueError):
            polar_transform([])

    def test_rejects_two_dimensional_input(self):
        with pytest.raises(ValueError):
            polar_transform(np.zeros((2, 4), dtype=np.uint8))

    def test_accepts_list_input(self):
        out = polar_transform([0, 1, 1, 1])
        assert out.dtype == np.uint8
        np.testing.assert_array_equal(out, [1, 0, 0, 1])

    @pytest.mark.parametrize("log_ell", range(11))
    def test_matches_kronecker_generator(self, log_ell, rng):
        ell = 1 << log_ell
        g = kronecker_generator(ell)
        for u in rng.integers(0, 2, size=(8, ell), dtype=np.uint8):
            np.testing.assert_array_equal(polar_transform(u),
                                          (u.astype(np.int64) @ g) % 2)


class TestScDecode:
    def test_all_frozen_returns_frozen_values(self, rng):
        values = rng.integers(0, 2, size=32, dtype=np.uint8)
        code = all_frozen_code(32, values=values)
        llrs = rng.normal(size=32)
        u_hat, info = sc_decode(llrs, code)
        np.testing.assert_array_equal(u_hat, values)
        assert info.size == 0

    @pytest.mark.parametrize("ell", [64, 512, 4096])
    def test_noiseless_round_trip(self, ell, rng):
        sampler = make_level_llr_sampler(bsc(0.1), 1)
        k = ell // 2
        code = construct_code(sampler, ell, k, 500, rng)
        bits = rng.integers(0, 2, size=k, dtype=np.uint8)
        u = np.zeros(ell, dtype=np.uint8)
        u[code.message] = bits
        x = polar_transform(u)
        _, decoded = sc_decode(noiseless_llrs(x), code)
        np.testing.assert_array_equal(decoded, bits)

    def test_noiseless_round_trip_with_pins(self, rng):
        ell, k = 128, 60
        sampler = make_level_llr_sampler(bsc(0.1), 1)
        code = construct_code(sampler, ell, k, 500, rng)
        key = rng.integers(0, 2, size=10, dtype=np.uint8)
        payload = rng.integers(0, 2, size=k - 10, dtype=np.uint8)
        u = np.zeros(ell, dtype=np.uint8)
        u[code.message[:10]] = key
        u[code.message[10:]] = payload
        x = polar_transform(u)
        _, decoded = sc_decode(noiseless_llrs(x), code,
                               pins=(code.message[:10], key))
        np.testing.assert_array_equal(decoded[:10], key)
        np.testing.assert_array_equal(decoded[10:], payload)

    def test_wrong_length_rejected(self, rng):
        code = all_frozen_code(16)
        with pytest.raises(ValueError):
            sc_decode(np.zeros(8), code)

    @pytest.mark.parametrize("llrs", [(0.0, -1.0), (1e-9, -1e-9), (-0.0, -40.0),
                                      (1e-300, -1e-300)])
    def test_rate_one_ties_follow_sc(self, llrs):
        # f(0, -1) = 0 decides bit 0 where the sign product says 1; the
        # rate-1 shortcut must not apply to such nodes
        code = _code(2, np.array([], dtype=np.int64), np.array([], dtype=np.uint8))
        got = sc_decode(np.array(llrs), code)
        want = sc_decode_reference(np.array(llrs), code)
        np.testing.assert_array_equal(got[0], want[0])


# LLR magnitudes around every decision boundary of the decoder: signed
# zeros, subnormal-scale and tiny values that tie or nearly tie in f, values
# either side of the rate-1 certification bounds, and the saturation level
LLR_POOL = np.array([0.0, 1e-300, 1e-9, 0.5, 1.0, 1.7, 2.4, 3.0, 8.0,
                     DEFAULT_LLR_MAX])
LLR_POOL = np.concatenate([LLR_POOL, -LLR_POOL])
# inputs the library never produces; SC turns them into NaN or cancels f
LLR_EXTREME = np.array([1e300, -1e300, np.inf, -np.inf, np.nan])


def _code(ell: int, frozen: np.ndarray, values: np.ndarray) -> PolarLevelCode:
    return PolarLevelCode(
        ell=ell, level=1, frozen=frozen, frozen_values=values,
        message=np.setdiff1d(np.arange(ell), frozen),
        randomized=np.array([], dtype=np.int64),
    )


def _frozen_set(kind: str, ell: int, rng: np.random.Generator) -> np.ndarray:
    idx = np.arange(ell)
    if kind == "all":
        return idx
    if kind == "none":
        return idx[:0]
    if kind == "prefix":
        return idx[:rng.integers(0, ell + 1)]
    if kind == "weight":
        # Reed-Muller rule: large all-frozen and all-free subtrees
        weight = np.array([bin(i).count("1") for i in idx])
        return idx[weight < rng.integers(0, ell.bit_length() + 1)]
    return idx[rng.random(ell) < rng.random()]


def _channel_llrs(source: str, code: PolarLevelCode, pins, rng) -> np.ndarray:
    ell = code.ell
    if source == "pool":
        return rng.choice(LLR_POOL, size=ell)
    if source == "extreme":
        return rng.choice(np.concatenate([LLR_POOL, LLR_EXTREME]), size=ell)
    # a codeword consistent with the known positions, through a level channel
    u = rng.integers(0, 2, size=ell, dtype=np.uint8)
    u[code.frozen] = code.frozen_values
    if pins is not None:
        u[pins[0]] = pins[1]
    sampler = make_level_llr_sampler(bsc(float(rng.uniform(0.01, 0.3))),
                                     int(rng.integers(1, 5)))
    llrs = sampler(ell, rng) * (1.0 - 2.0 * polar_transform(u))
    if source == "mixed":
        hit = rng.random(ell) < rng.random()
        llrs[hit] = rng.choice(LLR_POOL, size=int(hit.sum()))
    return llrs


@pytest.mark.parametrize("mask_kind", ["all", "none", "prefix", "weight", "random"])
@pytest.mark.parametrize("log_ell", range(13))
@settings(max_examples=8, deadline=None)
@given(source=st.sampled_from(["pool", "sampler", "mixed", "extreme"]),
       pin_share=st.sampled_from([0.0, 0.3, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_sc_decode_bitwise_equals_reference(log_ell, mask_kind, source,
                                            pin_share, seed):
    rng = np.random.default_rng(seed)
    ell = 1 << log_ell
    frozen = _frozen_set(mask_kind, ell, rng)
    code = _code(ell, frozen, rng.integers(0, 2, size=frozen.shape[0],
                                           dtype=np.uint8))
    pins = None
    if pin_share:
        idx = code.message[rng.random(code.message.shape[0]) < pin_share]
        pins = (idx, rng.integers(0, 2, size=idx.shape[0], dtype=np.uint8))
    llrs = _channel_llrs(source, code, pins, rng)
    with np.errstate(invalid="ignore", over="ignore"):
        u_hat, info = sc_decode(llrs, code, pins=pins)
        u_ref, info_ref = sc_decode_reference(llrs, code, pins=pins)
    assert u_hat.dtype == np.uint8 and info.dtype == np.uint8
    np.testing.assert_array_equal(u_hat, u_ref)
    np.testing.assert_array_equal(info, info_ref)


class TestConstruction:
    def test_target_zero_all_frozen(self, rng):
        sampler = make_level_llr_sampler(bsc(0.1), 1)
        code = construct_code(sampler, 64, 0, 200, rng)
        assert code.info_count == 0
        assert code.frozen.shape[0] == 64

    def test_target_full_no_frozen(self, rng):
        sampler = make_level_llr_sampler(bsc(0.1), 1)
        code = construct_code(sampler, 64, 64, 200, rng)
        assert code.frozen.shape[0] == 0
        assert code.message.shape[0] == 64

    def test_half_capacity_code_is_reliable(self, rng):
        # sanity at 50% of the level-1 capacity: block errors are rare
        ch = bsc(0.1)
        ell = 1024
        k = int(0.5 * level_capacity(ch, 1, "bits") * ell)
        sampler = make_level_llr_sampler(ch, 1)
        code = construct_code(sampler, ell, k, 4000, rng)
        lam = ch.row1 / ch.row0
        cdf0, cdf1 = np.cumsum(ch.row0), np.cumsum(ch.row1)
        errors = 0
        blocks = 300
        for _ in range(blocks):
            bits = rng.integers(0, 2, size=k, dtype=np.uint8)
            u = np.zeros(ell, dtype=np.uint8)
            u[code.message] = bits
            x = polar_transform(u)
            draw = rng.random((ell, 2))
            sym = np.searchsorted(cdf0, draw)
            rows = np.arange(ell)
            pulse = x.astype(np.int64)
            sym[rows, pulse] = np.searchsorted(cdf1, draw[rows, pulse])
            _, decoded = sc_decode(level_llrs(lam[sym]), code)
            errors += int(np.any(decoded != bits))
        assert errors / blocks < 1e-2

    def test_construction_consistency_across_seeds(self):
        # two independent constructions agree on the bulk of the frozen set
        sampler = make_level_llr_sampler(bsc(0.1), 1)
        code_a = construct_code(sampler, 1024, 512, 100_000,
                                np.random.default_rng(1))
        code_b = construct_code(sampler, 1024, 512, 100_000,
                                np.random.default_rng(2))
        overlap = len(set(code_a.frozen.tolist()) & set(code_b.frozen.tolist()))
        assert overlap / code_a.frozen.shape[0] >= 0.90

    def test_target_out_of_range(self, rng):
        sampler = make_level_llr_sampler(bsc(0.1), 1)
        with pytest.raises(ValueError):
            construct_code(sampler, 64, 65, 100, rng)


class TestResolvability:
    def test_all_randomized_output_uniform(self, rng):
        # a full-rank transform of uniform input is uniform: exhaust ell = 8
        code = PolarLevelCode(
            ell=8, level=2,
            frozen=np.array([], dtype=np.int64),
            frozen_values=np.array([], dtype=np.uint8),
            message=np.array([], dtype=np.int64),
            randomized=np.arange(8),
            mode="resolvability",
        )
        seen = set()
        for r in range(256):
            bits = np.array([(r >> t) & 1 for t in range(8)], dtype=np.uint8)
            seen.add(tuple(resolvability_encode(code, None, bits).tolist()))
        assert len(seen) == 256

    def test_zero_inputs_zero_codeword(self):
        code = all_frozen_code(16)
        out = resolvability_encode(code, None, np.array([], dtype=np.uint8))
        np.testing.assert_array_equal(out, np.zeros(16, np.uint8))

    def test_private_bit_count_checked(self, rng):
        sampler = make_level_llr_sampler(bsc(0.1), 2)
        code = construct_code(sampler, 32, 12, 300, rng, mode="resolvability")
        with pytest.raises(ValueError):
            resolvability_encode(code, None, np.zeros(5, np.uint8))

    def test_output_distribution_approaches_uniform_product(self):
        # two-sample quantile-binned statistic between coded and uniform
        # level-2 outputs shrinks as the blocklength doubles
        rng = np.random.default_rng(5)
        ch = bsc(0.1)
        iz = level_capacity(ch, 2, "bits")
        lam = np.where(ch.row0 > 0, ch.row1 / ch.row0, np.inf)
        cdf0, cdf1 = np.cumsum(ch.row0), np.cumsum(ch.row1)

        def batch_stats(xmat):
            n, ell = xmat.shape
            draw = rng.random((n, ell, 4))
            sym = np.searchsorted(cdf0, draw.reshape(-1, 4)).reshape(n, ell, 4)
            pulse = 2 * xmat + rng.integers(0, 2, size=(n, ell))
            nn, ee = np.meshgrid(np.arange(n), np.arange(ell), indexing="ij")
            sym[nn, ee, pulse] = np.searchsorted(cdf1, draw[nn, ee, pulse])
            return level_llrs(lam[sym].reshape(-1, 4)).reshape(n, ell).sum(axis=1)

        tvs = []
        for ell in (8, 16, 64):
            sampler = make_level_llr_sampler(ch, 2)
            k = int(np.ceil(ell * iz))
            code = construct_code(sampler, ell, k, 4000, rng,
                                  mode="resolvability")
            n = 30000
            u = np.zeros((n, ell), dtype=np.uint8)
            u[:, code.randomized] = rng.integers(
                0, 2, size=(n, k), dtype=np.uint8
            )
            coded = batch_stats(batch_transform(u).astype(np.int64))
            unif = batch_stats(rng.integers(0, 2, size=(n, ell)))
            pooled = np.concatenate([coded, unif])
            edges = np.quantile(pooled, np.linspace(0, 1, 9)[1:-1])
            ha = np.bincount(np.searchsorted(edges, coded), minlength=8) / n
            hr = np.bincount(np.searchsorted(edges, unif), minlength=8) / n
            tvs.append(0.5 * float(np.abs(ha - hr).sum()))
        assert tvs[0] > tvs[1] > tvs[2]


class TestSerialisation:
    def test_round_trip(self, rng):
        sampler = make_level_llr_sampler(bsc(0.1), 2)
        code = construct_code(sampler, 64, 20, 300, rng, level=2)
        again = code_from_text(code_to_text(code))
        assert again.ell == code.ell and again.level == code.level
        np.testing.assert_array_equal(again.frozen, code.frozen)
        np.testing.assert_array_equal(again.message, code.message)

    def test_rejects_foreign_document(self):
        with pytest.raises(ValueError):
            code_from_text("covertppm-rateplan v1\n")

    def test_partition_validated(self):
        with pytest.raises(ValueError):
            PolarLevelCode(
                ell=4, level=1,
                frozen=np.array([0, 1]),
                frozen_values=np.zeros(2, np.uint8),
                message=np.array([1, 2]),  # overlaps frozen
                randomized=np.array([3]),
            )
