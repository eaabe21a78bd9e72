import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertppm import extractor
from covertppm.extractor import (
    BinaryField,
    ExtractorConfig,
    FieldError,
    bits_to_int,
    clmul,
    ext,
    gf_inv,
    gf_mul,
    int_to_bits,
    inv,
    is_irreducible,
    make_field,
    poly_mod,
    random_element,
    two_universal_check,
    _bundled_moduli,
)

F8 = make_field(8, modulus=(1 << 8) | (1 << 4) | (1 << 3) | (1 << 1) | 1)
F16 = make_field(16)
F24 = make_field(24)


class TestPolynomialArithmetic:
    def test_clmul_small(self):
        # (x+1)(x^2+x) = x^3 + x over GF(2)
        assert clmul(0b11, 0b110) == 0b1010

    def test_poly_mod_matches_long_division(self, rng):
        for _ in range(200):
            a = int(rng.integers(0, 1 << 20))
            f = int(rng.integers(1 << 8, 1 << 9))
            r = a
            while r.bit_length() >= f.bit_length():
                r ^= f << (r.bit_length() - f.bit_length())
            assert poly_mod(a, f) == r

    def test_is_irreducible_degree_two(self):
        # x^2 + x + 1 is the only irreducible quadratic
        assert is_irreducible(0b111)
        assert not is_irreducible(0b101)  # (x+1)^2
        assert not is_irreducible(0b110)  # x(x+1)


class TestField:
    def test_reducible_modulus_rejected(self):
        with pytest.raises(FieldError):
            BinaryField(w=4, modulus=0b10101)  # (x^2+x+1)^2

    def test_degree_mismatch_rejected(self):
        with pytest.raises(FieldError):
            BinaryField(w=8, modulus=0b111)

    def test_multiplicative_identity(self, rng):
        for _ in range(100):
            a = int(rng.integers(0, F16.order))
            assert gf_mul(F16, a, 1) == a

    def test_known_aes_inverse_pair(self):
        # 0x53 * 0xCA = 1 in GF(2^8) with x^8+x^4+x^3+x+1
        assert gf_mul(F8, 0x53, 0xCA) == 1
        assert gf_inv(F8, 0x53) == 0xCA

    def test_inverse_round_trips(self, rng):
        for _ in range(1000):
            a = int(rng.integers(1, F16.order))
            assert gf_inv(F16, gf_inv(F16, a)) == a
            assert gf_mul(F16, a, gf_inv(F16, a)) == 1

    def test_zero_has_no_inverse(self):
        with pytest.raises(FieldError):
            gf_inv(F8, 0)

    @pytest.mark.parametrize("field", [F8, F16, make_field(32)])
    def test_field_axioms_random(self, field, rng):
        for _ in range(300):
            a = int(rng.integers(0, field.order))
            b = int(rng.integers(0, field.order))
            c = int(rng.integers(0, field.order))
            ab_c = gf_mul(field, gf_mul(field, a, b), c)
            a_bc = gf_mul(field, a, gf_mul(field, b, c))
            assert ab_c == a_bc
            left = gf_mul(field, a, b ^ c)
            right = gf_mul(field, a, b) ^ gf_mul(field, a, c)
            assert left == right

    def test_bundled_table_entries_verify(self):
        table = _bundled_moduli()
        assert set(range(1, 65)).issubset(table)
        for w in (8, 16, 24, 32, 48, 64, 128, 256):
            assert is_irreducible(table[w])
            assert table[w].bit_length() - 1 == w

    def test_search_fallback_for_missing_width(self):
        field = make_field(67)
        assert field.w == 67
        assert is_irreducible(field.modulus)

    def test_bundled_modulus_verified_once_per_process(self, monkeypatch):
        monkeypatch.setattr(extractor, "_VERIFIED_BUNDLED", set())
        tested = []

        def counting(f):
            tested.append(f)
            return is_irreducible(f)

        monkeypatch.setattr(extractor, "is_irreducible", counting)
        first, again = make_field(1024), make_field(1024)
        assert first == again
        assert tested == [_bundled_moduli()[1024]]

    def test_corrupted_bundled_modulus_rejected(self, monkeypatch):
        make_field(128)  # the genuine entry is verified and remembered
        table = dict(_bundled_moduli())
        table[128] = (1 << 128) | 1  # x^128 + 1 = (x + 1)^128
        monkeypatch.setattr(extractor, "_bundled_moduli", lambda: table)
        for _ in range(2):  # a failed check is not remembered
            with pytest.raises(FieldError):
                make_field(128)


class TestExtInv:
    def test_construction_inverts_to_zero_output(self, rng):
        cfg = ExtractorConfig(field=F16, k=6)
        for _ in range(50):
            s = random_element(F16, rng, nonzero=True)
            r = int(rng.integers(0, 1 << 6))
            x = gf_mul(F16, s, r << cfg.b_width)  # s * (0 || r)
            assert ext(cfg, s, x) == 0

    def test_full_rate_empty_output(self, rng):
        cfg = ExtractorConfig(field=F8, k=8)
        for _ in range(20):
            s = random_element(F8, rng, nonzero=True)
            assert ext(cfg, s, int(rng.integers(0, 256))) == 0
            assert cfg.b_width == 0

    @pytest.mark.parametrize("field,k", [(F8, 3), (F16, 7), (F24, 11)])
    def test_round_trip(self, field, k, rng):
        cfg = ExtractorConfig(field=field, k=k)
        for _ in range(10_000 // field.w):
            s = random_element(field, rng, nonzero=True)
            b = int(rng.integers(0, 1 << cfg.b_width))
            r = int(rng.integers(0, 1 << k))
            x = inv(cfg, s, b, r)
            assert ext(cfg, s, x) == b
            y = gf_mul(field, gf_inv(field, s), x)
            assert y >> cfg.b_width == r

    def test_identity_seed_is_concatenation(self):
        cfg = ExtractorConfig(field=F8, k=3)
        assert inv(cfg, 1, 0b10110, 0b101) == 0b10110 | (0b101 << 5)

    def test_zero_seed_rejected(self):
        cfg = ExtractorConfig(field=F8, k=3)
        with pytest.raises(FieldError):
            ext(cfg, 0, 17)
        with pytest.raises(FieldError):
            inv(cfg, 0, 0, 1)

    def test_codebook_injective_in_r(self, rng):
        cfg = ExtractorConfig(field=F8, k=4)
        s = random_element(F8, rng, nonzero=True)
        codebook = {inv(cfg, s, 0, r) for r in range(16)}
        assert len(codebook) == 16

    def test_width_checks(self):
        cfg = ExtractorConfig(field=F8, k=3)
        with pytest.raises(FieldError):
            inv(cfg, 1, 1 << 5, 0)
        with pytest.raises(FieldError):
            inv(cfg, 1, 0, 1 << 3)


class TestRegularity:
    @pytest.mark.parametrize("w,k", [(8, 3), (10, 4)])
    def test_every_bin_has_exactly_2k_preimages(self, w, k):
        field = make_field(w)
        cfg = ExtractorConfig(field=field, k=k)
        for s in range(1, field.order):
            s_inv = gf_inv(field, s)
            bins = np.zeros(1 << cfg.b_width, dtype=np.int64)
            for x in range(field.order):
                bins[gf_mul(field, s_inv, x) & cfg.b_mask] += 1
            assert np.all(bins == 1 << k)


class TestTwoUniversality:
    def test_collision_rate_within_bound(self, rng):
        cfg = ExtractorConfig(field=F8, k=3)
        report = two_universal_check(cfg, 200, rng)
        assert report["ok"]
        assert report["estimate"] <= 2.0 ** -5 + 3.0 * report["sigma"] + 1e-12

    def test_full_rate_trivial(self, rng):
        cfg = ExtractorConfig(field=F8, k=8)
        report = two_universal_check(cfg, 10, rng)
        assert report["estimate"] == 1.0 and report["ok"]

    def test_large_width_rejected(self, rng):
        cfg = ExtractorConfig(field=F24, k=4)
        with pytest.raises(FieldError):
            two_universal_check(cfg, 10, rng)


class TestSeedBInvariance:
    def test_codebooks_related_by_fixed_translation(self, rng):
        # {inv(s, b, r)}_r and {inv(s, b', r)}_r differ by the constant
        # xor-shift s * ((b ^ b') || 0), making the choice of b irrelevant
        cfg = ExtractorConfig(field=F16, k=5)
        for _ in range(100):
            s = random_element(F16, rng, nonzero=True)
            b = int(rng.integers(0, 1 << cfg.b_width))
            bp = int(rng.integers(0, 1 << cfg.b_width))
            shift = gf_mul(F16, s, b ^ bp)
            for r in (0, 1, int(rng.integers(0, 32))):
                assert inv(cfg, s, b, r) ^ inv(cfg, s, bp, r) == shift


class TestBitPacking:
    @given(st.integers(0, (1 << 24) - 1))
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, value):
        assert bits_to_int(int_to_bits(value, 24)) == value
