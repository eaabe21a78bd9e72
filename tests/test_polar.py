import math
import sys
import threading
import weakref
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    genie_decision_llrs_reference,
    pyramid_level_llrs,
    scalar_logaddexp,
    sc_decode_reference,
    sc_f,
)
from covertppm import levels, parallel, polar
from covertppm.channels import bac, bsc, make_dmc
from covertppm.codec import build_session, encode_block, make_level_llr_sampler, run_chain
from covertppm.levels import DEFAULT_LLR_MAX, level_capacity, level_law, msd_rate_plan
from covertppm.polar import PolarLevelCode, construct_code, polar_transform, sc_decode

# the genie pass and the sampler run on worker threads: a warning there (an
# error state the workers did not inherit) fails the test that caused it
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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


def signed_zeros_with(n: int, spikes: dict) -> tuple:
    """n alternating +0.0 and -0.0 LLRs with ``spikes`` written over them."""
    v = [0.0, -0.0] * (n // 2)
    for i, x in spikes.items():
        v[i] = x
    return tuple(v)


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

    @pytest.mark.parametrize("k, ell", [(1, 1), (3, 2), (8, 512), (5, 64), (0, 8)])
    def test_matrix_rows_equal_one_dimensional_transforms(self, k, ell, rng):
        # C-ordered, Fortran-ordered and strided matrices, entries read mod
        # 2 as in 1-D
        u = rng.integers(0, 4, size=(k, ell))
        for mat in (u, np.asfortranarray(u), np.repeat(u, 2, axis=1)[:, ::2]):
            got = polar_transform(mat)
            assert got.shape == (k, ell) and got.dtype == np.uint8
            for row, want in zip(got, u):
                np.testing.assert_array_equal(row, polar_transform(want))

    def test_rejects_three_dimensional_input(self):
        with pytest.raises(ValueError):
            polar_transform(np.zeros((2, 2, 4), dtype=np.uint8))

    def test_accepts_list_input(self):
        out = polar_transform([0, 1, 1, 1])
        assert out.dtype == np.uint8
        np.testing.assert_array_equal(out, [1, 0, 0, 1])

    @pytest.mark.parametrize("log_ell", range(12))
    def test_int_butterfly_equals_the_transform(self, log_ell, rng):
        # the decoder's certificate transforms hard decisions packed in an int
        n = 1 << log_ell
        for u in rng.integers(0, 2, size=(8, n), dtype=np.uint8):
            assert polar._int_transform(polar._packed(u), n) \
                == polar._packed(polar_transform(u))

    @pytest.mark.parametrize("log_ell", range(11))
    def test_matches_kronecker_generator(self, log_ell, rng):
        ell = 1 << log_ell
        g = kronecker_generator(ell)
        for u in rng.integers(0, 2, size=(8, ell), dtype=np.uint8):
            np.testing.assert_array_equal(polar_transform(u),
                                          (u.astype(np.int64) @ g) % 2)


class TestScDecode:
    def test_all_frozen_returns_frozen_values(self, rng):
        # frozen positions decode to zero, and nonzero known values are pins
        code = PolarLevelCode(ell=32, message=np.array([], dtype=np.int64))
        llrs = rng.normal(size=32)
        u_hat, x_hat = sc_decode(llrs, code)
        np.testing.assert_array_equal(u_hat, np.zeros(32, np.uint8))
        np.testing.assert_array_equal(x_hat, np.zeros(32, np.uint8))
        values = rng.integers(0, 2, size=32, dtype=np.uint8)
        u_hat, x_hat = sc_decode(llrs, code, pins=(np.arange(32), values))
        np.testing.assert_array_equal(u_hat, values)
        np.testing.assert_array_equal(x_hat, polar_transform(values))

    @pytest.mark.parametrize("ell", [64, 512, 4096])
    def test_noiseless_round_trip(self, ell, rng):
        sampler = make_level_llr_sampler(bsc(0.1), 1)
        k = ell // 2
        code = construct_code(sampler, ell, k, 500, rng)
        bits = rng.integers(0, 2, size=k, dtype=np.uint8)
        u = np.zeros(ell, dtype=np.uint8)
        u[code.message] = bits
        x = polar_transform(u)
        u_hat, x_hat = sc_decode(noiseless_llrs(x), code)
        np.testing.assert_array_equal(u_hat[code.message], bits)
        np.testing.assert_array_equal(x_hat, x)

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
        u_hat, _ = sc_decode(noiseless_llrs(x), code,
                             pins=(code.message[:10], key))
        decoded = u_hat[code.message]
        np.testing.assert_array_equal(decoded[:10], key)
        np.testing.assert_array_equal(decoded[10:], payload)

    def test_wrong_length_rejected(self, rng):
        code = PolarLevelCode(ell=16, message=np.array([], dtype=np.int64))
        with pytest.raises(ValueError):
            sc_decode(np.zeros(8), code)

    @pytest.mark.parametrize("value", [2, 257, -1, 0.5])
    def test_pin_values_other_than_bits_rejected(self, value):
        # a uint8 cast would read 257 as 1, and a pinned 2 would leave a 2
        # in the codeword the multistage receiver selects subblocks by
        code = PolarLevelCode(ell=32, message=np.arange(8, 32))
        with pytest.raises(ValueError, match="pin values"):
            sc_decode(np.ones(32), code, pins=(np.array([8, 20]), np.array([1, value])))

    @pytest.mark.parametrize("positions, named", [
        ([8, -1], r"pin position -1 outside \[0, 32\)"),
        ([8, 32], r"pin position 32 outside \[0, 32\)"),
        ([20, 8, 20], "pin position 20 given twice"),
    ])
    def test_pin_positions_outside_the_block_or_repeated_rejected(self, positions, named):
        # -1 silently pinned position ell - 1 and ell ended in numpy's
        # IndexError; a repeated pin kept whichever value came last
        code = PolarLevelCode(ell=32, message=np.arange(8, 32))
        with pytest.raises(ValueError, match=named):
            sc_decode(np.ones(32), code, pins=(np.array(positions), np.ones(len(positions))))

    @pytest.mark.parametrize("positions, values, named", [
        ([3.7, 5.2], [1, 1], "pin positions must be integers, got float64"),
        ([3.0, 5.0], [1, 1], "pin positions must be integers, got float64"),
        ([True, False], [1, 1], "pin positions must be integers, got bool"),
        ([3, 5], 1, r"one value per position \(2\), got shape \(\)"),
        ([3, 5], [1], r"one value per position \(2\), got shape \(1,\)"),
        ([3, 5], [[1, 0]], r"one value per position \(2\), got shape \(1, 2\)"),
        ([[3, 5]], [[1, 0]], r"pin positions must be a 1-D array, got shape \(1, 2\)"),
        (3, 1, r"pin positions must be a 1-D array, got shape \(\)"),
    ])
    def test_malformed_pins_rejected(self, positions, values, named):
        # a cast to int64 truncated 3.7 to 3, a scalar value was broadcast
        # to every position, and 2-D arrays were read flat
        code = PolarLevelCode(ell=32, message=np.arange(8, 32))
        with pytest.raises(ValueError, match=named):
            sc_decode(np.ones(32), code, pins=(np.array(positions), np.array(values)))

    def test_pins_of_any_integer_type_and_empty_pins_accepted(self):
        code = PolarLevelCode(ell=32, message=np.arange(8, 32))
        llrs = np.linspace(-3.0, 3.0, 32)
        want = sc_decode(llrs, code, pins=(np.array([9, 20]), np.array([1, 0])))
        for idx in (np.array([9, 20], np.uint8), [9, 20], (9, 20)):
            got = sc_decode(llrs, code, pins=(idx, np.array([True, False])))
            np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(sc_decode(llrs, code, pins=([], []))[0],
                                      sc_decode(llrs, code)[0])

    @pytest.mark.parametrize("llrs", [(0.0, -1.0), (1e-9, -1e-9), (-0.0, -40.0),
                                      (1e-300, -1e-300)])
    def test_rate_one_ties_follow_sc(self, llrs):
        # f(0, -1) = 0 decides bit 0 where the sign product says 1; the
        # rate-1 shortcut must not apply to such nodes
        code = _code(2, np.array([], dtype=np.int64))
        got = sc_decode(np.array(llrs), code)
        want = sc_decode_reference(np.array(llrs), code)
        np.testing.assert_array_equal(got[0], want[0])

    @pytest.mark.parametrize("llrs", [(1.0, -1e-300, -1.0, 0.0),
                                      (1e300, -3.0, -1e300, 1.0),
                                      (1.0, 0.0, 3.0, -1e-300, -1.0, 0.0, -3.0, 0.0),
                                      signed_zeros_with(32, {0: 1e300, 1: -1e-300,
                                                             16: -1e300}),
                                      signed_zeros_with(64, {0: 1e300, 16: -1e300,
                                                             32: -1e-300})])
    def test_repetition_half_sum_follows_sc(self, llrs):
        # a repetition node's leaf LLR is SC's stage-by-stage half sum
        # v[h:] + v[:h]; other pairings of these values round to another bit.
        # Above 16 LLRs the half sum comes from the generic split
        code = _code(len(llrs), np.arange(len(llrs) - 1))
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


def _code(ell: int, frozen: np.ndarray) -> PolarLevelCode:
    return PolarLevelCode(ell=ell, message=np.setdiff1d(np.arange(ell), frozen))


def _frozen(code: PolarLevelCode) -> np.ndarray:
    """The positions outside the code's message set, ascending."""
    return np.setdiff1d(np.arange(code.ell), code.message)


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
    if kind == "repetition":
        # all but the last position of every aligned block of 2^r
        return idx[(idx + 1) % (1 << rng.integers(0, ell.bit_length())) != 0]
    return idx[rng.random(ell) < rng.random()]


def _channel_llrs(source: str, code: PolarLevelCode, pins, rng) -> np.ndarray:
    ell = code.ell
    if source == "pool":
        return rng.choice(LLR_POOL, size=ell)
    if source == "extreme":
        return rng.choice(np.concatenate([LLR_POOL, LLR_EXTREME]), size=ell)
    # a codeword consistent with the known positions, through a level channel
    u = rng.integers(0, 2, size=ell, dtype=np.uint8)
    u[pins[0]] = pins[1]
    sampler = make_level_llr_sampler(bsc(float(rng.uniform(0.01, 0.3))),
                                     int(rng.integers(1, 5)))
    llrs = sampler(ell, rng) * (1.0 - 2.0 * polar_transform(u))
    if source == "mixed":
        hit = rng.random(ell) < rng.random()
        llrs[hit] = rng.choice(LLR_POOL, size=int(hit.sum()))
    return llrs


@pytest.mark.parametrize("mask_kind", ["all", "none", "prefix", "weight",
                                       "repetition", "random"])
@pytest.mark.parametrize("log_ell", range(13))
@settings(max_examples=8, deadline=None)
@given(source=st.sampled_from(["pool", "sampler", "mixed", "extreme"]),
       pin_share=st.sampled_from([0.0, 0.3, 1.0]),
       known=st.sampled_from(["random", "zero", "none"]),
       seed=st.integers(0, 2**32 - 1))
def test_sc_decode_bitwise_equals_reference(log_ell, mask_kind, source,
                                            pin_share, known, seed):
    rng = np.random.default_rng(seed)
    ell = 1 << log_ell
    frozen = _frozen_set(mask_kind, ell, rng)
    code = _code(ell, frozen)
    # known values: every frozen position and a share of the message
    # positions, pinned to random bits ("random") or to zeros ("zero"), which
    # give repetition nodes and g after a rate-0 child their zero-known
    # forms; "none" passes no pins and leaves the frozen positions zero
    idx = np.concatenate([frozen, code.message[rng.random(code.message.shape[0])
                                               < pin_share]])
    if known == "none":
        idx = frozen
    values = rng.integers(0, 2, size=idx.shape[0], dtype=np.uint8)
    if known != "random":
        values[:] = 0
    pins = None if known == "none" else (idx, values)
    llrs = _channel_llrs(source, code, (idx, values), rng)
    with np.errstate(invalid="ignore", over="ignore"):
        u_hat, x_hat = sc_decode(llrs, code, pins=pins)
        u_ref, x_ref = sc_decode_reference(llrs, code, pins=pins)
    assert u_hat.dtype == np.uint8 and x_hat.dtype == np.uint8
    np.testing.assert_array_equal(u_hat, u_ref)
    np.testing.assert_array_equal(x_hat, x_ref)
    np.testing.assert_array_equal(x_hat, polar_transform(u_hat))


@pytest.fixture
def leaf_starts(monkeypatch):
    """The first positions of the generated leaves that decodes run, with
    the decoder plans rebuilt around recording leaves and dropped after."""
    polar._decoder_plan.cache_clear()
    starts = []
    make = polar._subtree_decoder

    def spy(pattern):
        leaf = make(pattern)

        def recorded(l, v, s):
            starts.append(s)
            return leaf(l, v, s)

        return recorded

    monkeypatch.setattr(polar, "_subtree_decoder", spy)
    yield starts
    polar._decoder_plan.cache_clear()


# the certificate's bounds for a right half of 32 LLRs
CERT_LOW = 5 * math.log(2.0) + 1.0
CERT_CAP = float(1 << 20)


def _right_half_case(magnitude: float, pinned: bool, broken: bool = False):
    """A 64-position code whose halves each freeze their positions of binary
    weight below 2, the LLRs of a codeword on its right half [32, 64) at
    ``magnitude`` and +0.0 on its left half, and its pins.

    b + 0.0 and b - 0.0 are b, so the right half's plan node gets those
    LLRs unchanged, whatever the left half decides.  ``pinned`` pins three
    right-half and one left-half message positions to 1; ``broken`` takes
    the codeword of input bits that break one known value of the right
    half: its last frozen bit set to 1, or with ``pinned`` its first pin
    cleared.
    """
    ell, h = 64, 32
    idx = np.arange(ell)
    code = _code(ell, idx[np.array([bin(i % h).count("1") for i in idx]) < 2])
    u = np.zeros(ell, dtype=np.uint8)
    u[code.message] = np.random.default_rng(4).integers(0, 2, size=code.message.shape[0])
    pins = None
    if pinned:
        idx = np.concatenate([code.message[code.message >= h][:3], code.message[:1]])
        pins = (idx, np.ones(idx.shape[0], dtype=np.uint8))
        u[idx] = 1
    if broken and pinned:
        u[pins[0][0]] = 0
    elif broken:
        u[_frozen(code)[-1]] = 1
    llrs = np.zeros(ell)
    llrs[h:] = magnitude * (1.0 - 2.0 * polar_transform(u)[h:])
    return code, pins, llrs


def _decode_as_reference(llrs, code, pins) -> None:
    u_hat, x_hat = sc_decode(llrs, code, pins=pins)
    u_ref, x_ref = sc_decode_reference(llrs, code, pins=pins)
    np.testing.assert_array_equal(u_hat, u_ref)
    np.testing.assert_array_equal(x_hat, x_ref)


@pytest.mark.parametrize("pinned", [False, True], ids=["frozen", "pinned"])
@pytest.mark.parametrize("magnitude", [CERT_LOW, CERT_CAP], ids=["low", "cap"])
def test_certified_right_half_runs_no_leaf(leaf_starts, magnitude, pinned):
    # every |L| of the half on a bound, and hard decisions whose transform
    # holds the half's known values: its SC bits are its hard decisions,
    # taken without a leaf; the left half still runs its leaves
    code, pins, llrs = _right_half_case(magnitude, pinned)
    _decode_as_reference(llrs, code, pins)
    assert leaf_starts and max(leaf_starts) < 32


@pytest.mark.parametrize("pinned", [False, True], ids=["frozen", "pinned"])
@pytest.mark.parametrize("outside", [np.nextafter(CERT_LOW, 0.0), np.nextafter(CERT_CAP, np.inf)],
                         ids=["below-low", "above-cap"])
def test_right_half_one_ulp_outside_the_bounds_splits(leaf_starts, outside, pinned):
    # one LLR one ulp outside the bounds, the rest on them: the half splits
    for at in (32, 47, 63):
        code, pins, llrs = _right_half_case(CERT_LOW if outside < CERT_CAP else CERT_CAP,
                                            pinned)
        llrs[at] = np.copysign(outside, llrs[at])
        leaf_starts.clear()
        _decode_as_reference(llrs, code, pins)
        assert max(leaf_starts) >= 32


@pytest.mark.parametrize("pinned", [False, True], ids=["frozen-bit", "pin-of-one"])
@pytest.mark.parametrize("magnitude", [CERT_LOW, 8.0, CERT_CAP])
def test_hard_decisions_breaking_a_known_value_split(leaf_starts, magnitude, pinned):
    # the hard decisions' transform sets a frozen bit of the half, or clears
    # one of its pins of value 1: SC forces the known value there, so the
    # half splits and decodes as SC
    code, pins, llrs = _right_half_case(magnitude, pinned, broken=True)
    _decode_as_reference(llrs, code, pins)
    assert max(leaf_starts) >= 32


@pytest.mark.parametrize("pinned", [False, True], ids=["frozen", "pinned"])
@pytest.mark.parametrize("tie", [0.0, -0.0, 1e-300])
def test_ties_at_nodes_with_known_positions_follow_sc(leaf_starts, tie, pinned):
    # a zero or tiny LLR in a half with frozen positions: no shortcut
    for at in (32, 40, 63):
        code, pins, llrs = _right_half_case(CERT_CAP, pinned)
        llrs[at] = tie
        leaf_starts.clear()
        _decode_as_reference(llrs, code, pins)
        assert max(leaf_starts) >= 32
    # and everywhere in a longer code, with pinned and frozen positions
    rng = np.random.default_rng(12)
    code = _code(256, _frozen_set("weight", 256, rng))
    u = np.zeros(256, dtype=np.uint8)
    u[code.message] = rng.integers(0, 2, size=code.message.shape[0])
    llrs = CERT_CAP * (1.0 - 2.0 * polar_transform(u))
    llrs[rng.random(256) < 0.05] = tie
    _decode_as_reference(llrs, code, (code.message[::7], u[code.message[::7]]))


def _generated_patterns(monkeypatch) -> list:
    """Clear the process's generated decoders, and the decoder plans that
    hold them; returns the list of patterns that are generated from then
    on."""
    polar._decoder_plan.cache_clear()
    polar._subtree_decoder.cache_clear()
    generated = []
    source = polar._subtree_source

    def spy(pattern):
        generated.append(pattern)
        return source(pattern)

    monkeypatch.setattr(polar, "_subtree_source", spy)
    return generated


def test_keyed_blocks_reuse_generated_decoders(monkeypatch):
    # a keyed level pins the same message positions in every block with
    # fresh key bits; pin values are arguments of the generated subtree
    # decoders, not part of their source, so only the first block generates
    rng = np.random.default_rng(21)
    ell, n_key = 1024, 48
    code = construct_code(make_level_llr_sampler(bsc(0.1), 2), ell, 600, 200, rng)
    generated = _generated_patterns(monkeypatch)
    frozen, idx = _frozen(code), code.message[:n_key]
    counts = []
    for _ in range(20):
        key = rng.integers(0, 2, size=n_key, dtype=np.uint8)
        known = (np.concatenate([frozen, idx]),
                 np.concatenate([np.zeros(frozen.shape[0], np.uint8), key]))
        llrs = _channel_llrs("mixed", code, known, rng)
        got = sc_decode(llrs, code, pins=(idx, key))
        want = sc_decode_reference(llrs, code, pins=(idx, key))
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        counts.append(len(generated))
    assert counts[0] > 0 and counts == counts[:1] * 20
    assert any(polar._PINNED in pattern for pattern in generated)
    assert len(set(generated)) == counts[0]


def test_chain_session_generates_each_pattern_once(monkeypatch):
    # the benchmark's chain geometry (q=4, ell=4096): its four codes meet 52
    # node patterns of at most 16 positions but only 16 distinct ones, and a
    # generated decoder depends on the pattern alone, so each is made once
    bob, willie = bsc(0.05), bsc(0.1)
    plan = msd_rate_plan(bob, willie, 4, 2.0, 2, degraded=True, ell_override=4096)
    session = build_session(plan, bob, willie, np.random.default_rng([1, 1]),
                            construction_trials=500, rate_scale=0.6)
    generated = _generated_patterns(monkeypatch)
    report = run_chain(session, 2, np.random.default_rng([1, 3, 0]))
    assert not report.cumulative_error
    assert len(generated) == len(set(generated)) == 16
    assert polar._subtree_decoder.cache_info().currsize == 16


def test_generated_decoders_stay_within_the_cache_cap(monkeypatch):
    # every pattern of 8 positions in free, frozen or pinned, one per code,
    # until more have been generated than the cache keeps; the first ones
    # are then decoded again after their decoders were dropped
    generated = _generated_patterns(monkeypatch)
    cap = polar._subtree_decoder.cache_info().maxsize
    rng = np.random.default_rng(5)
    digits = 3 ** np.arange(8)
    for number in [*range(cap + 40), *range(20)]:
        pattern = number // digits % 3
        code = PolarLevelCode(ell=8, message=np.flatnonzero(pattern != polar._FROZEN))
        idx = np.flatnonzero(pattern == polar._PINNED)
        pins = (idx, rng.integers(0, 2, size=idx.shape[0], dtype=np.uint8))
        llrs = rng.choice(LLR_POOL, size=8)
        got = sc_decode(llrs, code, pins=pins)
        want = sc_decode_reference(llrs, code, pins=pins)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
    assert polar._subtree_decoder.cache_info().currsize == cap
    assert len(generated) == cap + 60
    assert len(set(generated)) == cap + 40


def test_decoder_plans_stay_within_the_cache_cap():
    # one plan per pattern of 32 positions (a split over two generated
    # leaves), until more plans have been built than the cache keeps; the
    # first ones are then decoded again after their plans were dropped
    polar._decoder_plan.cache_clear()
    cap = polar._decoder_plan.cache_info().maxsize
    rng = np.random.default_rng(6)
    for number in [*range(cap + 40), *range(20)]:
        frozen = np.flatnonzero(number >> np.arange(8) & 1) * 4
        code = _code(32, frozen)
        pins = (frozen[::2], rng.integers(0, 2, size=frozen[::2].shape[0], dtype=np.uint8))
        llrs = rng.choice(LLR_POOL, size=32)
        got = sc_decode(llrs, code, pins=pins)
        want = sc_decode_reference(llrs, code, pins=pins)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
    info = polar._decoder_plan.cache_info()
    assert info.currsize == cap
    assert info.misses == cap + 60


def test_threads_decoding_at_once_give_the_serial_bits():
    # the decoder keeps its buffers per call and its plans read-only: codes
    # of several lengths and patterns, with pins and pool LLRs, decoded by
    # more threads than cores under fast switching, each from a cold plan
    # cache, give what one thread gives
    rng = np.random.default_rng(8)
    jobs = []
    for log_ell in (5, 7, 9, 10, 11):
        ell = 1 << log_ell
        for kind in ("weight", "random"):
            code = _code(ell, _frozen_set(kind, ell, rng))
            idx = code.message[rng.random(code.message.shape[0]) < 0.2]
            pins = (idx, rng.integers(0, 2, size=idx.shape[0], dtype=np.uint8))
            jobs.append((rng.choice(LLR_POOL, size=ell), code, pins))
    serial = [sc_decode(*job[:2], pins=job[2]) for job in jobs]
    for (llrs, code, pins), (u_hat, x_hat) in zip(jobs, serial):
        u_ref, x_ref = sc_decode_reference(llrs, code, pins=pins)
        np.testing.assert_array_equal(u_hat, u_ref)
        np.testing.assert_array_equal(x_hat, x_ref)
    polar._decoder_plan.cache_clear()
    results = [[] for _ in range(6)]

    def decode_all(out: list, order: list):
        for k in order:
            out.append((k, sc_decode(*jobs[k][:2], pins=jobs[k][2])))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=decode_all,
                                    args=(out, list(rng.permutation(len(jobs))) * 2))
                   for out in results]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    for out in results:
        assert len(out) == 2 * len(jobs)
        for k, (u_hat, x_hat) in out:
            np.testing.assert_array_equal(u_hat, serial[k][0])
            np.testing.assert_array_equal(x_hat, serial[k][1])


# inputs of the genie pass: signed zeros, tiny and huge magnitudes, and the
# non-finite values that turn f into NaN
GENIE_POOL = np.array([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, np.inf, -np.inf,
                       np.nan, 0.5, -1.7, 3.0, -8.0])


def _float_bits(x: np.ndarray) -> np.ndarray:
    # IEEE 754 leaves the sign and payload of an arithmetic NaN open, and
    # numpy's loops differ on them by memory layout (np.add of two NaNs of
    # opposite sign), so every NaN is compared as the one canonical NaN;
    # every other value, signed zeros included, compares bit for bit
    return np.where(np.isnan(x), np.nan, x).view(np.int64)


def _scalar_grid() -> tuple[np.ndarray, np.ndarray]:
    # every pair of signed zeros, subnormals, +-inf, NaN, values either side
    # of exp's underflow and overflow, and random normals
    rng = np.random.default_rng(11)
    grid = np.array([0.0, 5e-324, 2.5e-310, np.finfo(float).tiny, 1e-300,
                     1e300, np.inf, np.nan, 0.5, 1.0, 36.0, 745.0, 1e20])
    grid = np.concatenate([grid, -grid, rng.normal(0.0, 4.0, 40),
                           rng.normal(0.0, 50.0, 40)])
    return tuple(v.ravel() for v in np.meshgrid(grid, grid))


def test_scalar_logaddexp_bitwise_equals_numpy():
    # the generated subtree decoders compute logaddexp with math's exp and
    # log1p; a platform whose math and numpy libm calls differ fails here
    x, y = _scalar_grid()
    got = np.array([scalar_logaddexp(p, q) for p, q in zip(x.tolist(), y.tolist())])
    with np.errstate(invalid="ignore"):
        want = np.logaddexp(x, y)
    np.testing.assert_array_equal(_float_bits(got), _float_bits(want))


def test_check_node_bitwise_equals_numpy():
    # the generated subtree decoders' check node, one call for numpy's two
    # logaddexp calls; every NaN counts as one value
    x, y = _scalar_grid()
    got = np.array([polar._check(p, q) for p, q in zip(x.tolist(), y.tolist())])
    with np.errstate(invalid="ignore", over="ignore"):
        want = np.logaddexp(0.0, x + y) - np.logaddexp(x, y)
    np.testing.assert_array_equal(_float_bits(got), _float_bits(want))


def _genie(llrs: np.ndarray, tile: int) -> np.ndarray:
    # the library's pass on a copy of (trials, ell) LLRs, as (trials, ell),
    # in tiles of ``tile`` elements
    with patch.object(polar, "_TILE", tile):
        return polar._genie_decision_llrs(llrs.copy()).T


@pytest.mark.parametrize("log_ell", range(13))
@settings(max_examples=10, deadline=None)
@given(rows=st.integers(1, 9), extra=st.integers(0, 70),
       source=st.sampled_from(["pool", "normal", "mixed"]),
       seed=st.integers(0, 2**32 - 1))
def test_genie_pass_bitwise_equals_reference(log_ell, rows, extra, source, seed):
    # any tile size from one position row (rows + extra elements): tiles run
    # whole nodes, runs of positions, and uneven last tiles
    rng = np.random.default_rng(seed)
    ell = 1 << log_ell
    if source == "pool":
        llrs = rng.choice(GENIE_POOL, size=(rows, ell))
    else:
        llrs = rng.normal(2.0, 3.0, size=(rows, ell))
        if source == "mixed":
            hit = rng.random((rows, ell)) < 0.2
            llrs[hit] = rng.choice(GENIE_POOL, size=int(hit.sum()))
    with np.errstate(all="ignore"):
        want = genie_decision_llrs_reference(llrs.copy())
        got = _genie(llrs, rows + extra)
    np.testing.assert_array_equal(_float_bits(got), _float_bits(want))


@pytest.mark.parametrize("level", [1, 2, 3, 4])
@pytest.mark.parametrize("ell", [64, 4096])
def test_genie_pass_agrees_with_the_logaddexp_recursion(level, ell):
    # on sampled level LLRs the box-plus pass and the decoder's logaddexp
    # form give the same decision LLRs up to rounding
    rows = 8 if ell == 4096 else 64
    sampler = make_level_llr_sampler(bsc(0.05), level)
    llrs = sampler(rows * ell, np.random.default_rng(level)).reshape(rows, ell)
    got = _genie(llrs, polar._TILE)
    want = genie_decision_llrs_reference(llrs.copy(), sc_f)
    assert np.all(np.isfinite(want))
    assert np.all(np.abs(got - want) <= 1e-9 * (1.0 + np.abs(want)))


_EPS = np.finfo(np.float64).eps


def _box_plus_longdouble(a: float, b: float) -> float:
    x, y = np.longdouble(a), np.longdouble(b)
    mx, my = abs(x), abs(y)
    mag = min(mx, my) + np.log1p(np.exp(-(mx + my))) \
        - np.log1p(np.exp(-abs(mx - my)))
    return np.sign(x) * np.sign(y) * mag


_LLR = st.floats(-2e5, 2e5, allow_nan=False)


@st.composite
def _check_node_pairs(draw):
    a = draw(_LLR)
    kind = draw(st.sampled_from(["free", "mirror", "near"]))
    if kind == "free":
        return a, draw(_LLR)
    # |b| close to |a|: the two log1p terms nearly cancel
    sign = draw(st.sampled_from([-1.0, 1.0]))
    if kind == "mirror":
        return a, sign * a * (1.0 + draw(st.floats(-1e-6, 1e-6)))
    return a, sign * a + draw(st.floats(-1e-3, 1e-3))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= _EPS,
                    reason="longdouble is plain double here")
@settings(max_examples=2000, deadline=None)
@given(pair=_check_node_pairs())
def test_check_node_is_accurate_and_symmetric(pair):
    a, b = pair
    # one call evaluates f(a, b), f(b, a) and f(-a, b)
    x, y = np.array([a, b, -a]), np.array([b, a, b])
    left, right, s1, s2 = (np.empty(3) for _ in range(4))
    polar._check_node(x, y, left, right, s1, s2)
    want = _box_plus_longdouble(a, b)
    assert abs(np.longdouble(left[0]) - want) <= 2 * _EPS * max(1.0, abs(want))
    assert left[1].tobytes() == left[0].tobytes()
    assert left[2].tobytes() == (-left[0]).tobytes()


class TestConstruction:
    def test_target_zero_all_frozen(self, rng):
        sampler = make_level_llr_sampler(bsc(0.1), 1)
        code = construct_code(sampler, 64, 0, 200, rng)
        assert code.message.shape[0] == 0
        assert _frozen(code).shape[0] == 64

    def test_target_full_no_frozen(self, rng):
        sampler = make_level_llr_sampler(bsc(0.1), 1)
        code = construct_code(sampler, 64, 64, 200, rng)
        assert _frozen(code).shape[0] == 0
        assert code.message.shape[0] == 64

    def test_half_capacity_code_is_reliable(self, rng):
        # sanity at 50% of the level-1 capacity: block errors are rare
        ch = bsc(0.1)
        ell = 1024
        k = int(0.5 * level_capacity(ch, 1) * ell)
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
            u_hat, _ = sc_decode(pyramid_level_llrs(sym, lam), code)
            errors += int(np.any(u_hat[code.message] != bits))
        assert errors / blocks < 1e-2

    def test_construction_consistency_across_seeds(self):
        # two independent constructions agree on the bulk of the frozen set
        sampler = make_level_llr_sampler(bsc(0.1), 1)
        code_a = construct_code(sampler, 1024, 512, 100_000,
                                np.random.default_rng(1))
        code_b = construct_code(sampler, 1024, 512, 100_000,
                                np.random.default_rng(2))
        overlap = len(set(_frozen(code_a).tolist()) & set(_frozen(code_b).tolist()))
        assert overlap / _frozen(code_a).shape[0] >= 0.90

    @pytest.mark.parametrize("ell,trials", [(16, 70_000), (64, 9000), (1024, 700)])
    def test_code_equals_the_reference_ranking_of_its_draws(self, ell, trials):
        # several chunks and a short last one (32768 + 32768 + 4464,
        # 8192 + 808 and 512 + 188 trials): the error counts and the
        # mean-LLR tie-break, recomputed chunk by chunk from the recorded
        # draws with the node-by-node recursion, rank the channels exactly
        # as the construction does
        sampler = make_level_llr_sampler(bsc(0.1), 2)
        draws = []

        def recording(count, rng):
            llrs = sampler(count, rng)
            draws.append(llrs.copy())
            return llrs

        code = construct_code(recording, ell, ell // 2, trials,
                              np.random.default_rng(7))
        rows = polar._CHUNK // ell
        sizes = [min(rows, trials - done) * ell for done in range(0, trials, rows)]
        assert len(sizes) >= 2 and [d.size for d in draws] == sizes
        err = np.zeros(ell)
        llr_sum = np.zeros(ell)
        for llrs in draws:
            # position-major, so the sums add in the construction's order
            dec = np.ascontiguousarray(
                genie_decision_llrs_reference(llrs.reshape(-1, ell)).T)
            err += (dec < 0).sum(axis=1) + 0.5 * (dec == 0).sum(axis=1)
            llr_sum += dec.sum(axis=1)
        order = np.lexsort((np.arange(ell), -llr_sum, err))
        np.testing.assert_array_equal(code.message, np.sort(order[:ell // 2]))

    def test_each_chunk_is_freed_before_the_next_draw(self):
        # the construction holds one chunk at a time: when the sampler is
        # called again, no array it returned before is alive (the previous
        # chunk's LLRs, or the genie pass's buffers, which view them)
        sampler = make_level_llr_sampler(bsc(0.1), 2)
        returned = []

        def watched(count, rng):
            assert all(ref() is None for ref in returned)
            llrs = sampler(count, rng)
            returned.append(weakref.ref(llrs))
            return llrs

        construct_code(watched, 1024, 512, 1600, np.random.default_rng(7))
        assert len(returned) == 4

    def test_target_out_of_range(self, rng):
        sampler = make_level_llr_sampler(bsc(0.1), 1)
        with pytest.raises(ValueError):
            construct_code(sampler, 64, 65, 100, rng)


class TestResolvability:
    def test_all_randomized_output_uniform(self):
        # a full-rank transform of uniform input is uniform: exhaust ell = 8
        seen = set()
        for r in range(256):
            bits = np.array([(r >> t) & 1 for t in range(8)], dtype=np.uint8)
            seen.add(tuple(polar_transform(bits).tolist()))
        assert len(seen) == 256

    def test_zero_inputs_zero_codeword(self, rng):
        # frozen positions are zero, so an all-zero payload gives the
        # all-zero codeword on every level: the codeword the genie
        # construction assumes
        plan = msd_rate_plan(bsc(0.05), bsc(0.1), 3, 1.0, 1, ell_override=16)
        sess = build_session(plan, bsc(0.05), bsc(0.1), rng, construction_trials=50)
        msgs = {i: np.zeros(lay.n_msg + lay.n_sec, np.uint8)
                for i, lay in sess.layouts.items()}
        keys = {i: np.zeros(lay.n_key, np.uint8) for i, lay in sess.layouts.items()}
        assert any(_frozen(code).size for code in sess.codes.values())
        _, tx = encode_block(sess, msgs, keys, rng)
        np.testing.assert_array_equal(tx.level_bits[:sess.u], 0)

    def test_output_distribution_approaches_uniform_product(self):
        # two-sample quantile-binned statistic between coded and uniform
        # level-2 outputs shrinks as the blocklength doubles
        rng = np.random.default_rng(5)
        ch = bsc(0.1)
        iz = level_capacity(ch, 2)
        lam = np.where(ch.row0 > 0, ch.row1 / ch.row0, np.inf)
        cdf0, cdf1 = np.cumsum(ch.row0), np.cumsum(ch.row1)

        def batch_stats(xmat):
            n, ell = xmat.shape
            draw = rng.random((n, ell, 4))
            sym = np.searchsorted(cdf0, draw.reshape(-1, 4)).reshape(n, ell, 4)
            pulse = 2 * xmat + rng.integers(0, 2, size=(n, ell))
            nn, ee = np.meshgrid(np.arange(n), np.arange(ell), indexing="ij")
            sym[nn, ee, pulse] = np.searchsorted(cdf1, draw[nn, ee, pulse])
            llrs = pyramid_level_llrs(sym.reshape(-1, 4), lam)
            return llrs.reshape(n, ell).sum(axis=1)

        tvs = []
        for ell in (8, 16, 64):
            sampler = make_level_llr_sampler(ch, 2)
            k = int(np.ceil(ell * iz))
            code = construct_code(sampler, ell, k, 4000, rng)
            n = 30000
            u = np.zeros((n, ell), dtype=np.uint8)
            u[:, code.message] = rng.integers(
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


class TestPolarLevelCode:
    def test_message_sorted_and_frozen_is_complement(self):
        code = PolarLevelCode(ell=8, message=np.array([6, 1, 3]))
        np.testing.assert_array_equal(code.message, [1, 3, 6])
        np.testing.assert_array_equal(_frozen(code), [0, 2, 4, 5, 7])

    def test_invalid_codes_rejected(self):
        for ell, message in [(4, [1, 2, 1]),   # duplicate index
                             (4, [0, 4]),      # past the end
                             (4, [-1, 2]),     # negative
                             (6, [0, 1]),      # length not a power of two
                             (0, [])]:
            with pytest.raises(ValueError):
                PolarLevelCode(ell=ell, message=np.array(message, dtype=np.int64))


# ---------------------------------------------------------------------------
# worker threads (covertppm.parallel): any worker count gives the same bits
# ---------------------------------------------------------------------------

WORKER_COUNTS = (1, 2, 3)  # 3 splits 8 tiles, and 2^19 LLRs, unevenly


def _with_workers(monkeypatch, count: int, fn):
    """``fn()`` inside a pool of ``count`` workers."""
    monkeypatch.setattr(parallel, "worker_count", lambda: count)
    with parallel.pool():
        assert parallel.width() == count
        return fn()


def _by_worker_count(monkeypatch, fn) -> list:
    return [_with_workers(monkeypatch, count, fn) for count in WORKER_COUNTS]


@pytest.mark.parametrize("rows,ell", [(5, 2), (9, 4), (40, 64), (3, 1024), (128, 4096),
                                      ((1 << 15) + 3, 4)],
                         ids=["ell2", "ell4", "ell64", "ell1024", "ell4096", "rows-over-tile"])
@pytest.mark.parametrize("tile", [polar._TILE, 40], ids=["tile", "small-tile"])
def test_genie_pass_is_bitwise_equal_for_any_worker_count(rows, ell, tile, monkeypatch):
    # ell = 2 and 4 give fewer tiles per stage than workers; the (3 + 2^15,
    # 4) chunk has more rows than a tile, so each tile is one position row
    rng = np.random.default_rng(ell + rows)
    llrs = rng.normal(2.0, 3.0, size=(rows, ell))
    hit = rng.random((rows, ell)) < 0.3
    llrs[hit] = rng.choice(GENIE_POOL, size=int(hit.sum()))
    monkeypatch.setattr(polar, "_TILE", tile)
    with np.errstate(all="ignore"):
        got = _by_worker_count(monkeypatch, lambda: polar._genie_decision_llrs(llrs.copy()))
    for dec in got[1:]:
        np.testing.assert_array_equal(_float_bits(dec), _float_bits(got[0]))


@pytest.mark.parametrize("ch", [bsc(0.05), make_dmc([0.7, 0.2, 0.1], [0.2, 0.3, 0.5]),
                                bac(0.05, 0.0)], ids=["bsc0.05", "ternary", "z"])
@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_sampler_is_bitwise_equal_for_any_worker_count(ch, level, monkeypatch):
    # three tiles of the map and five LLRs more: each split ends mid-tile
    count = 3 * levels._LLR_TILE + 5
    sampler = make_level_llr_sampler(ch, level)
    got = _by_worker_count(monkeypatch, lambda: sampler(count, np.random.default_rng(level)))
    law = level_law(ch, level)
    want = law.llrs(*law.draw(count, np.random.default_rng(level)))
    for llrs in got:
        np.testing.assert_array_equal(llrs.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("q,ell,blocks,extra", [
    (4, 4096, 2, {"rate_scale": 0.6}),  # the chain benchmark's session
    (10, 512, 1, {"resolvability": "extractor"}),  # the covert benchmark's
], ids=["chain", "covert"])
def test_benchmark_sessions_build_equal_codes_for_any_worker_count(q, ell, blocks, extra,
                                                                   monkeypatch):
    bob, willie = bsc(0.05), bsc(0.1)
    plan = msd_rate_plan(bob, willie, q, 2.0 if q == 4 else 1.0, blocks, degraded=True,
                         ell_override=ell)

    def messages():
        session = build_session(plan, bob, willie, np.random.default_rng([1, 1]),
                                construction_trials=500, **extra)
        return {i: code.message.tolist() for i, code in session.codes.items()}

    got = _by_worker_count(monkeypatch, messages)
    assert len(got[0]) == (4 if q == 4 else 8)
    assert got[1] == got[0] and got[2] == got[0]


def _faulty_chunk() -> np.ndarray:
    # a (128, 4096) chunk whose first stage has 8 tiles of 256 positions:
    # 1e300 + 1e300 overflows in tile 4, inf + -inf is invalid in tile 7, so
    # with 2 and 3 workers a worker other than the first meets each fault
    llrs = np.random.default_rng(3).normal(2.0, 3.0, size=(128, 4096))
    llrs[5, [1030, 1030 + 2048]] = 1e300
    llrs[9, [1900, 1900 + 2048]] = np.inf, -np.inf
    return llrs


def test_threaded_pass_raises_the_serial_floating_point_error(monkeypatch):
    # the caller's error state reaches the workers, and the first fault in
    # tile order is the one raised
    chunk = _faulty_chunk()

    def construct():
        with pytest.raises(FloatingPointError) as info:
            with np.errstate(all="raise"):
                construct_code(lambda count, rng: chunk.copy().ravel(), 4096, 10, 128,
                               np.random.default_rng(0))
        return str(info.value)

    got = []
    for count in WORKER_COUNTS:
        monkeypatch.setattr(parallel, "worker_count", lambda count=count: count)
        got.append(construct())
    assert "overflow" in got[0]
    assert got == [got[0]] * len(WORKER_COUNTS)
    with np.errstate(all="ignore"):  # the caller's state, not the default's
        construct_code(lambda count, rng: chunk.copy().ravel(), 4096, 10, 128,
                       np.random.default_rng(0))


@pytest.mark.parametrize("fail", [False, True], ids=["returns", "raises"])
def test_construction_threads_end_with_the_call(fail, monkeypatch):
    # three workers: two threads, started by the first chunk and joined on
    # return or raise; a sampler's exception reaches the caller
    monkeypatch.setattr(parallel, "worker_count", lambda: 3)
    sampler = make_level_llr_sampler(bsc(0.1), 2)
    before = threading.active_count()
    during = []

    def counted(count, rng):
        during.append(threading.active_count())
        if fail and len(during) == 2:
            raise ValueError("sampler failed")
        return sampler(count, rng)

    if fail:
        with pytest.raises(ValueError, match="sampler failed"):
            construct_code(counted, 1024, 512, 1536, np.random.default_rng(0))
    else:
        construct_code(counted, 1024, 512, 1536, np.random.default_rng(0))
    assert during[0] == before and before < during[1] <= before + 2
    assert threading.active_count() == before


def test_more_workers_than_cores_under_fast_switching_give_the_serial_code(monkeypatch):
    # five workers and a thread switch every microsecond: a write lost or
    # made to another worker's slice would change the message set
    sampler = make_level_llr_sampler(bsc(0.1), 2)

    def construct():
        return construct_code(sampler, 1024, 512, 1100, np.random.default_rng(4)).message

    monkeypatch.setattr(parallel, "worker_count", lambda: 1)
    want = construct()
    monkeypatch.setattr(parallel, "worker_count", lambda: 5)
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=lambda: got.append(construct()))
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive() and len(got) == 1
    np.testing.assert_array_equal(got[0], want)
