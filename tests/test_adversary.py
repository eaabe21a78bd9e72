import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    atom_counts,
    detect_linear_code_reference,
    detector_statistic,
    detector_statistic_law,
    distinct_columns_reference,
    exact_tv,
    gf2_product_reference,
    gf2_rank_reference,
    half_histogram_pmf,
    mixture_statistic_reference,
    multinomial_pmf,
    pooled_chi2_pvalue,
    pw_from_joint_codebook,
    pw_from_level_sources,
)
from covertppm import adversary, codec
from covertppm.adversary import (
    LinearCode,
    _innocent_roots,
    _mixture_statistic,
    _mixture_statistics,
    _reference_halves,
    _trial_statistics,
    OracleBudgetError,
    covertness_estimate,
    detect_linear_code,
    distinct_column_set,
    exact_kl_oracle,
    gf2_multiplier,
    gf2_rank,
    identity_prefix_code,
    packed_weights,
    pw_single,
    pw_uniform,
    random_linear_code,
    srl_bound,
)
from covertppm.channels import bac, bsc, divergence_stats, make_dmc, sample_outputs
from covertppm.codec import build_session
from covertppm.extractor import ExtractorConfig, int_to_bits, inv, make_field
from covertppm.levels import LevelRates, RatePlan, level_law, level_llrs, msd_rate_plan
from covertppm.ppm import SuperOutput, frame_from_bits, ppm_output_divergence, transmit_super


class TestLinearCodes:
    def test_rank_computation(self):
        assert gf2_rank([[1, 0, 1], [0, 1, 1], [1, 1, 0]]) == 2
        assert gf2_rank(np.eye(4, dtype=np.uint8)) == 4

    def test_rank_deficient_generator_rejected(self):
        with pytest.raises(ValueError):
            LinearCode(generator=[[1, 0, 1], [1, 0, 1]])

    def test_random_code_has_full_rank(self, rng):
        code = random_linear_code(40, 12, rng)
        assert gf2_rank(code.generator) == 12

    def test_identity_prefix_distinct_columns(self):
        code = identity_prefix_code(10, 4)
        np.testing.assert_array_equal(distinct_column_set(code),
                                      np.arange(4))

    def test_all_columns_distinct(self, rng):
        code = random_linear_code(24, 20, rng)
        S = distinct_column_set(code)
        cols = {tuple(code.generator[:, j]) for j in range(24)}
        nonzero = len(cols) - (1 if (0,) * 20 in cols else 0)
        assert S.shape[0] == nonzero

    def test_repeated_columns_collapse(self):
        g = np.array([[1, 1, 0, 1], [0, 0, 1, 1]], dtype=np.uint8)
        code = LinearCode(generator=g)
        S = distinct_column_set(code)
        np.testing.assert_array_equal(S, [0, 2, 3])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_distinct_columns_match_reference(self, data):
        # [I_k | extra] with zero, repeated and random extra columns, shuffled:
        # full rank by construction; k up to 20 spans several packed bytes
        k = data.draw(st.integers(1, 20))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        cols = [np.eye(k, dtype=np.uint8)[:, j] for j in range(k)]
        for kind in data.draw(st.lists(st.sampled_from("zrc"), max_size=24)):
            if kind == "z":
                cols.append(np.zeros(k, dtype=np.uint8))
            elif kind == "r":
                cols.append(rng.integers(0, 2, size=k, dtype=np.uint8))
            else:
                cols.append(cols[int(rng.integers(len(cols)))].copy())
        g = np.stack(cols, axis=1)[:, rng.permutation(len(cols))]
        S = distinct_column_set(LinearCode(generator=g))
        assert S.dtype == np.int64
        np.testing.assert_array_equal(S, distinct_columns_reference(g))

@st.composite
def gf2_matrices(draw, max_rows=70, max_cols=70):
    """A 0/1 matrix with some rows all zero, all ones or repeats of earlier
    rows, and others random (so it may be rank-deficient)."""
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
    for r in range(rows):
        kind = draw(st.sampled_from("rrzoc"))
        if kind == "z":
            m[r] = 0
        elif kind == "o":
            m[r] = 1
        elif kind == "c" and r:
            m[r] = m[int(rng.integers(r))]
    return m


def message_bytes(v: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Message bits packed as ``gf2_multiplier`` reads them, with random
    padding bits past k: they must select zero rows."""
    k = v.shape[1]
    vp = np.packbits(v.astype(np.uint8), axis=1, bitorder="little")
    if k % 8:
        vp[:, -1] |= rng.integers(0, 256, size=vp.shape[0], dtype=np.uint8) << (k % 8)
    return vp


class TestGf2Arithmetic:
    @settings(max_examples=200, deadline=None)
    @given(g=gf2_matrices(), data=st.data())
    def test_packed_product_matches_float_product(self, g, data):
        n = data.draw(st.integers(1, 40))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        v = rng.integers(0, 2, size=(n, g.shape[0]))
        v[0] = data.draw(st.sampled_from([0, 1]))  # all-zero or all-ones message
        got = gf2_multiplier(g)(message_bytes(v, rng))
        assert got.dtype == np.uint8 and got.shape == (n, -(-g.shape[1] // 8))
        np.testing.assert_array_equal(np.unpackbits(got, axis=1, count=g.shape[1]),
                                      gf2_product_reference(v, g))
        # the bits past s stay zero
        np.testing.assert_array_equal(np.unpackbits(got, axis=1)[:, g.shape[1]:], 0)

    @settings(max_examples=200, deadline=None)
    @given(g=gf2_matrices(), data=st.data())
    def test_packed_weights_match_float_product(self, g, data):
        # any message bytes, padding bits past k set or not
        n = data.draw(st.integers(1, 40))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        k = g.shape[0]
        vp = rng.integers(0, 256, size=(n, -(-k // 8)), dtype=np.uint8)
        vp[0] = data.draw(st.sampled_from([0, 255]))
        v = np.unpackbits(vp, axis=1, count=k, bitorder="little")
        got = packed_weights(gf2_multiplier(g)(vp))
        assert got.dtype == np.int64 and got.shape == (n,)
        np.testing.assert_array_equal(got, gf2_product_reference(v, g).sum(axis=1))

    @settings(max_examples=300, deadline=None)
    @given(gf2_matrices())
    def test_rank_matches_row_elimination(self, m):
        assert gf2_rank(m) == gf2_rank_reference(m)
        assert gf2_rank(m.T) == gf2_rank_reference(m)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (3, 70), (70, 3)])
    def test_rank_of_thin_matrices(self, shape):
        for m in (np.zeros(shape), np.ones(shape), np.eye(*shape)):
            assert gf2_rank(m) == gf2_rank_reference(m)

    def test_entries_read_mod_2(self):
        assert gf2_rank([[2, 1], [0, 3]]) == 1


class TestDetectorReference:
    @pytest.mark.parametrize("make_code", [
        lambda rng: identity_prefix_code(300, 40),
        lambda rng: random_linear_code(100, 21, rng),
        lambda rng: random_linear_code(130, 45, rng),
    ], ids=["identity-300-40", "random-100-21", "random-130-45"])
    @pytest.mark.parametrize("willie", [
        bsc(0.1), make_dmc([0.7, 0.2, 0.1], [0.2, 0.3, 0.5])
    ], ids=["bsc0.1", "ternary"])
    def test_report_equals_float_and_scatter_reference(self, make_code, willie):
        # 5000 trials span two chunks, the second one partial; the reference
        # weighs each codeword by a float product of the unpacked message
        code = make_code(np.random.default_rng(5))
        got = detect_linear_code(code, willie, 5000, np.random.default_rng(9))
        want = detect_linear_code_reference(code, willie, 5000,
                                            np.random.default_rng(9))
        assert got == want


class TestDetectorLaw:
    @pytest.mark.parametrize("make_code", [
        lambda: identity_prefix_code(6, 3),
        lambda: random_linear_code(8, 4, np.random.default_rng(11)),
    ], ids=["identity-6-3", "random-8-4"])
    @pytest.mark.parametrize("willie", [
        bsc(0.1),
        make_dmc([0.7, 0.2, 0.1], [0.2, 0.3, 0.5]),
        # a symbol neither row emits: its centred ratio is inf, its count 0
        make_dmc([0.6, 0.0, 0.4], [0.25, 0.0, 0.75]),
    ], ids=["bsc0.1", "ternary", "ternary-zero-mass"])
    def test_statistic_law_matches_enumeration(self, make_code, willie):
        code = make_code()
        g = code.generator[:, distinct_column_set(code)]
        atoms, p0, p1 = detector_statistic_law(g, willie)
        trials = 20_000
        t0, t1 = _trial_statistics(g, willie, trials, np.random.default_rng(17))
        for t, p in ((t0, p0), (t1, p1)):
            # every draw is an atom of positive probability
            at = np.clip(np.searchsorted(atoms, t), 1, atoms.size - 1)
            nearest = np.where(t - atoms[at - 1] < atoms[at] - t, at - 1, at)
            assert np.abs(t - atoms[nearest]).max() < 1e-9
            assert (p[nearest] > 0).all()
            # Pearson's test, atoms expected fewer than 5 times pooled
            observed = np.bincount(nearest, minlength=atoms.size)
            assert pooled_chi2_pvalue(observed, trials * p) > 1e-3


class TestStatistic:
    def test_zero_when_rows_agree_at_symbol(self):
        willie = make_dmc([0.5, 0.25, 0.25], [0.5, 0.1, 0.4])
        assert detector_statistic([0], [0], willie) == 0.0

    def test_h0_mean_and_variance(self, rng):
        willie = bsc(0.1)
        st = divergence_stats(willie.row1, willie.row0)
        code = random_linear_code(256, 64, rng)
        trials = 100_000
        report = detect_linear_code(code, willie, trials, rng)
        sigma_mean = math.sqrt(st.chi2 / report.s_size / trials)
        assert abs(report.mean_t_h0) <= 3 * sigma_mean
        var_expected = st.chi2 / report.s_size
        assert report.var_t_h0 == pytest.approx(
            var_expected, rel=6 * math.sqrt(2.0 / trials)
        )

    def test_h1_mean_is_half_chi2(self, rng):
        willie = bsc(0.1)
        st = divergence_stats(willie.row1, willie.row0)
        code = random_linear_code(256, 64, rng)
        trials = 100_000
        report = detect_linear_code(code, willie, trials, rng)
        var_h1 = (st.chi2 + st.chi3 / 2 - st.chi2**2 / 4) / report.s_size
        sigma_mean = math.sqrt(var_h1 / trials)
        assert report.mean_t_h1 == pytest.approx(st.chi2 / 2,
                                                 abs=3 * sigma_mean)

    def test_statistic_bounds_checked(self):
        with pytest.raises(ValueError):
            detector_statistic([0, 1], [5], bsc(0.1))


class TestDetect:
    def test_undetectable_channel_flagged(self, rng):
        willie = make_dmc([0.5, 0.5], [0.5, 0.5])
        code = identity_prefix_code(32, 8)
        report = detect_linear_code(code, willie, 100, rng)
        assert report.undetectable

    def test_distinct_columns_computed_once_per_code(self, rng, monkeypatch):
        calls = []

        def spy(code):
            calls.append(code)
            return distinct_column_set(code)

        monkeypatch.setattr(adversary, "distinct_column_set", spy)
        code = random_linear_code(40, 12, rng)
        reports = [detect_linear_code(code, bsc(0.1), 100, rng) for _ in range(3)]
        assert calls == [code]
        assert {r.s_size for r in reports} == {distinct_column_set(code).shape[0]}
        np.testing.assert_array_equal(code.distinct_columns, distinct_column_set(code))

    def test_generator_and_column_set_read_only(self, rng):
        # the cached column set cannot go stale through a write to either
        code = random_linear_code(40, 12, rng)
        for a in (code.generator, code.distinct_columns):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1 - a[0]

    def test_warden_off_support_rejected(self, rng):
        # Q1 puts mass on a symbol Q0 never emits: chi2 is infinite
        with pytest.raises(ValueError, match="outside the support of Q0"):
            detect_linear_code(identity_prefix_code(32, 8), bac(0.0, 0.3), 100, rng)

    @pytest.mark.parametrize("trials", [0, 1])
    def test_too_few_trials_rejected(self, rng, trials):
        # the sample variances need two trials
        with pytest.raises(ValueError, match=f"at least 2 trials, got {trials}"):
            detect_linear_code(identity_prefix_code(32, 8), bsc(0.1), trials, rng)

    def test_empirical_rates_within_bounds(self, rng):
        willie = bsc(0.1)
        code = identity_prefix_code(256, 64)
        report = detect_linear_code(code, willie, 20_000, rng)
        slack = 3 * math.sqrt(report.alpha_bound_s / report.trials)
        assert report.alpha_hat <= report.alpha_bound_s + slack
        assert report.beta_hat <= report.beta_bound_s + slack
        assert report.alpha_bound_k >= report.alpha_bound_s

    @pytest.mark.parametrize("p", [1e-100, 1e-160, 1e-200, 1e-300])
    def test_huge_finite_chi2_gives_vacuous_bounds_not_nan(self, rng, p):
        # chi2 ~ 1/p is finite but chi2^2 (or |S| chi2^2) leaves the float
        # range: the missed-detection bounds are the vacuous inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = detect_linear_code(identity_prefix_code(16, 4), bsc(p), 100, rng)
        assert math.isfinite(report.chi2)
        values = [v for v in vars(report).values() if isinstance(v, float)]
        assert not any(math.isnan(v) for v in values)
        if p < 1e-154:
            assert report.beta_bound_s == report.beta_bound_k == math.inf

    def test_bound_halves_when_dimension_doubles(self, rng):
        willie = bsc(0.1)
        r1 = detect_linear_code(identity_prefix_code(1024, 64), willie, 100, rng)
        r2 = detect_linear_code(identity_prefix_code(1024, 128), willie, 100, rng)
        assert r1.alpha_bound_s / r2.alpha_bound_s == pytest.approx(2.0)


class TestSrlBound:
    def test_plug_in_example(self):
        mu, m = srl_bound(1.0, 10_000, 0.8)
        assert mu == pytest.approx(0.0125)
        assert m == pytest.approx(250.0)

    def test_zero_delta(self):
        assert srl_bound(0.0, 100, 0.5) == (0.0, 0.0)

    def test_sqrt_scaling(self):
        _, m1 = srl_bound(1.0, 2_500, 0.8)
        _, m2 = srl_bound(1.0, 10_000, 0.8)
        assert m2 / m1 == pytest.approx(2.0)

    def test_zero_tv_rejected(self):
        with pytest.raises(ValueError):
            srl_bound(1.0, 100, 0.0)


class TestExactOracle:
    def test_single_codeword_single_use(self):
        willie = bsc(0.1)
        st = divergence_stats(willie.row1, willie.row0)
        report = exact_kl_oracle(willie, 2, 1, pw_single([1]))
        assert report.d_pz_q0 == pytest.approx(st.kl, abs=1e-12)

    def test_uniform_inputs_match_ppm_product(self):
        willie = bsc(0.1)
        report = exact_kl_oracle(willie, 4, 2, pw_uniform(4, 2))
        assert report.d_pz_qppm == pytest.approx(0.0, abs=1e-12)
        assert report.tv_pz_qppm == pytest.approx(0.0, abs=1e-12)

    def test_bound_inequality_on_enumerated_family(self, rng):
        willie = bsc(0.1)
        for m, ell in ((2, 1), (2, 2), (2, 3), (4, 1), (4, 2), (4, 3)):
            cases = [
                pw_single([1] * ell),
                pw_single([1 + (j % m) for j in range(ell)]),
                pw_uniform(m, ell),
            ]
            # a two-codeword codebook
            a = [1] * ell
            b = [m] * ell
            cases.append({tuple(a): 0.5, tuple(b): 0.5})
            for pw in cases:
                report = exact_kl_oracle(willie, m, ell, pw)
                assert report.inequality_holds(), (m, ell, pw)

    def test_budget_exceeded(self):
        with pytest.raises(OracleBudgetError):
            # 2^(4 * 6) = 2^24 binary outputs against 2^20
            exact_kl_oracle(bsc(0.1), 4, 6, pw_uniform(4, 6))

    @pytest.mark.parametrize("m, ell", [(3, 10**20), (1, 10**20), (1, 21),
                                        (3, 7), (4, 6), (21, 1)])
    def test_uniform_law_over_budget_refused_before_enumeration(self, m, ell):
        # 2^(m ell) > 2^20: the oracle refuses any such geometry, so the law
        # is refused before its m^ell tuples (ell = 10^20 ended in an
        # OverflowError from itertools.product)
        with pytest.raises(OracleBudgetError, match=f"m ell = {m * ell}:"):
            pw_uniform(m, ell)

    @pytest.mark.parametrize("m, ell", [(1, 20), (2, 10), (4, 5), (20, 1)])
    def test_uniform_law_at_the_budget_reaches_the_oracle(self, m, ell):
        assert len(pw_uniform(m, ell)) == m**ell
        report = exact_kl_oracle(bsc(0.1), m, ell, pw_single([1] * ell))
        assert report.m == m and report.ell == ell

    def test_uniform_inputs_on_an_off_support_warden_bound_is_not_nan(self):
        # P_Z equals the uniform-PPM product, so its TV is 0, while the log
        # ratio is infinite: 0 * inf wrote bound_rhs = NaN
        report = exact_kl_oracle(bsc(0.0), 3, 1, pw_uniform(3, 1))
        assert report.tv_pz_qppm == 0.0 and report.max_log_ratio == math.inf
        assert report.bound_rhs == report.d_qppm_q0 == math.inf
        assert report.inequality_holds()

    @pytest.mark.parametrize("ell", [0, -1])
    def test_no_super_symbols_rejected(self, ell):
        with pytest.raises(ValueError, match="at least one super-symbol"):
            pw_uniform(2, ell)
        with pytest.raises(ValueError, match="at least one super-symbol"):
            exact_kl_oracle(bsc(0.1), 2, ell, {(): 1.0})

    def test_uniform_law_in_lexicographic_order(self):
        pw = pw_uniform(3, 2)
        assert list(pw) == [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]
        assert set(pw.values()) == {1.0 / 9}

    def test_weights_must_normalise(self):
        with pytest.raises(ValueError):
            exact_kl_oracle(bsc(0.1), 2, 1, {(1,): 0.7})

    def test_extractor_randomness_monotonicity(self):
        # more extractor input randomness drives the induced distribution
        # closer to the uniform-PPM product: w = 6 aggregate over two
        # levels and three super-symbols, k in {2, 4, 6}
        willie = bsc(0.1)
        q, ell = 2, 3
        field = make_field(6)
        divergences = []
        for k in (2, 4, 6):
            cfg = ExtractorConfig(field=field, k=k)
            s = 0b100101 % field.order or 1
            entries = []
            for r in range(1 << k):
                x = inv(cfg, s, 0, r)
                bits = int_to_bits(x, 6).reshape(ell, q).T
                entries.append(bits)
            pw = pw_from_joint_codebook(entries)
            report = exact_kl_oracle(willie, 1 << q, ell, pw)
            divergences.append(report.d_pz_qppm)
        assert divergences[0] > divergences[1] > divergences[2]
        assert divergences[2] == pytest.approx(0.0, abs=1e-12)


class TestTelescoping:
    def test_per_level_tv_telescopes_exactly(self):
        # coding level by level: the distance to the uniform-PPM product is
        # bounded by the sum of single-level replacement distances
        willie = bsc(0.1)
        q, ell, m = 2, 2, 4
        c1 = [np.array([0, 0], np.uint8), np.array([1, 1], np.uint8)]
        c2 = [np.array([0, 1], np.uint8)]
        p0 = pw_from_level_sources(q, ell, {1: c1, 2: c2})
        p1 = pw_from_level_sources(q, ell, {1: "uniform", 2: c2})
        p2 = pw_uniform(m, ell)
        v01 = exact_tv(willie, m, ell, p0, p1)
        v12 = exact_tv(willie, m, ell, p1, p2)
        v02 = exact_tv(willie, m, ell, p0, p2)
        assert v02 <= v01 + v12 + 1e-12
        assert v01 > 0 and v12 > 0

    def test_level_sources_uniform_equals_pw_uniform(self):
        got = pw_from_level_sources(2, 2, {1: "uniform", 2: "uniform"})
        want = pw_uniform(4, 2)
        assert set(got) == set(want)
        for key in want:
            assert got[key] == pytest.approx(want[key])


def tiny_single_codeword_session(rng):
    # one level, one super-symbol, all-frozen code: the scheme always sends
    # pulse position 1, inducing Q1 x Q0 at the warden
    plan = RatePlan(q=1, ell=1, B=1, delta=1.0, epsilon=0.01,
                    u=1, per_level=(LevelRates(1, 0.0, 0.0, 0.0),),
                    degraded=True)
    return build_session(plan, bsc(0.1), bsc(0.1), rng, construction_trials=50)


def uniform_two_level_session(rng):
    # q=2, ell=4, every position informational (as in
    # test_uniform_scheme_has_vanishing_statistics)
    plan = RatePlan(q=2, ell=4, B=1, delta=4.0, epsilon=0.01,
                    u=2, per_level=(LevelRates(1, 1.0, 0.0, 0.0),
                                    LevelRates(2, 1.0, 0.0, 0.0)))
    return build_session(plan, bsc(0.1), bsc(0.1), rng, construction_trials=50)


def frame_lengths_sent(monkeypatch) -> list[int]:
    """The lengths of the frames ``codec.transmit_block`` sends from now on,
    in order."""
    lengths = []
    transmit = codec.transmit_block

    def counted(session, frame, *args, **kwargs):
        lengths.append(frame.ell)
        return transmit(session, frame, *args, **kwargs)

    monkeypatch.setattr(codec, "transmit_block", counted)
    return lengths


class TestCovertnessEstimate:
    @pytest.mark.parametrize("willie", [bsc(0.1), make_dmc([0.5, 0.3, 0.2], [0.2, 0.8, 0.0])],
                             ids=["bsc0.1", "ternary-zero-ratio"])
    def test_mixture_sign_equals_gather_oracle(self, willie, rng):
        # 2000 blocks near the decision boundary (q=6, ell=4), half sent
        # through the pulse path and half innocent: the root-histogram
        # statistic takes the sign of the gather/mean statistic every time
        q, ell = 6, 4
        signs = []
        for b in range(2000):
            if b % 2:
                bits = rng.integers(0, 2, size=(q, ell), dtype=np.uint8)
                out = transmit_super(willie, frame_from_bits(bits), rng)
            else:
                out = SuperOutput(q=q, symbols=sample_outputs(willie, 0, (ell, 1 << q), rng),
                                  alphabet_size=willie.alphabet_size)
            got = _mixture_statistic(willie, out)
            with np.errstate(divide="ignore"):
                want = mixture_statistic_reference(willie.lam, out.symbols)
            assert (got > 0.0) == (want > 0.0)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
            signs.append(want > 0.0)
        assert 0 < sum(signs) < len(signs)

    @pytest.mark.parametrize("willie", [bsc(0.1), make_dmc([0.5, 0.3, 0.2], [0.2, 0.8, 0.0])],
                             ids=["bsc0.1", "ternary-zero-ratio"])
    def test_batched_root_matches_each_blocks_own_rows(self, willie, rng):
        # 400 blocks near the decision boundary (q=6, ell=4) sent as one
        # frame: each block's statistic from the one root read equals the
        # gather/mean statistic of that block's own rows, sign included
        q, ell, blocks = 6, 4, 400
        bits = rng.integers(0, 2, size=(q, blocks * ell), dtype=np.uint8)
        out = transmit_super(willie, frame_from_bits(bits), rng)
        got = _mixture_statistics(willie, out, blocks)
        assert got.shape == (blocks,)
        with np.errstate(divide="ignore"):
            want = np.array([mixture_statistic_reference(willie.lam, rows)
                             for rows in out.symbols.reshape(blocks, ell, 1 << q)])
        np.testing.assert_array_equal(got > 0.0, want > 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        assert 0 < np.count_nonzero(want > 0.0) < blocks

    def test_tiny_instance_matches_exact_tv(self, rng):
        # exact level-statistic TV for the single-codeword instance is the
        # full TV = 0.4 (the statistic loses nothing here: the collapsed
        # output pairs carry equal mass under both laws)
        sess = tiny_single_codeword_session(rng)
        willie = sess.willie
        exact = exact_tv(willie, 2, 1, pw_single([1]), pw_uniform(2, 1))
        assert exact == pytest.approx(0.4, abs=1e-12)
        est = covertness_estimate(sess, 4000, rng, bins=8)
        sigma = math.sqrt(8 / (4 * 4000))  # quantile-bin multinomial scale
        assert est.level_tv[1] == pytest.approx(exact, abs=3 * sigma)

    def test_chunked_estimate_keeps_the_exact_tv_band(self, rng, monkeypatch):
        # 7-row chunks: the 4000 one-row blocks of
        # test_tiny_instance_matches_exact_tv go out as 572 frames, the last
        # of 3 rows; the report counts every block and stays in that test's
        # 3-sigma band, and a seeded rerun returns an equal report
        monkeypatch.setattr(adversary, "_CHUNK_ROWS", 7)
        sess = tiny_single_codeword_session(rng)
        frames = frame_lengths_sent(monkeypatch)
        est = covertness_estimate(sess, 4000, np.random.default_rng(11), bins=8)
        assert frames == [7] * 571 + [3]
        assert est.blocks == 4000
        sigma = math.sqrt(8 / (4 * 4000))
        assert est.level_tv[1] == pytest.approx(0.4, abs=3 * sigma)
        assert covertness_estimate(sess, 4000, np.random.default_rng(11), bins=8) == est

    def test_exact_divergence_is_summed_once_per_warden_and_order(self, rng, monkeypatch):
        # a repeated estimate reports the identical float without a second
        # sum; another warden object (equal rows) is summed on its own
        sums = []

        def counted(dmc, m):
            sums.append((dmc, m))
            return ppm_output_divergence(dmc, m)

        monkeypatch.setattr(adversary, "ppm_output_divergence", counted)
        sess = uniform_two_level_session(rng)
        first = covertness_estimate(sess, 2, rng, bins=4).d_qppm_q0_exact
        again = covertness_estimate(sess, 3, rng, bins=4).d_qppm_q0_exact
        assert sums == [(sess.willie, 4)]
        assert again.hex() == first.hex()
        assert first == sess.ell * ppm_output_divergence(sess.willie, 4)
        other = uniform_two_level_session(rng)
        assert covertness_estimate(other, 2, rng, bins=4).d_qppm_q0_exact == first
        assert sums == [(sess.willie, 4), (other.willie, 4)]

    @pytest.mark.parametrize("chunk, frames", [(3, [4] * 5), (8, [8, 8, 4]), (11, [8, 8, 4])])
    def test_chunks_hold_whole_blocks(self, chunk, frames, rng, monkeypatch):
        # ell=4: a chunk holds the whole blocks that fit, at least one
        monkeypatch.setattr(adversary, "_CHUNK_ROWS", chunk)
        sent = frame_lengths_sent(monkeypatch)
        est = covertness_estimate(uniform_two_level_session(rng), 5, rng, bins=4)
        assert sent == frames and est.blocks == 5

    def test_each_stage_draws_from_its_own_stream(self, rng, monkeypatch):
        # extra draws in the reference stage leave the encoded blocks, the
        # channel outputs and the innocent roots of all 19 chunks as they were
        sess = uniform_two_level_session(rng)

        def record():
            monkeypatch.setattr(adversary, "_CHUNK_ROWS", 64)
            seen = []
            encode, transmit = codec.encode_block, codec.transmit_block
            innocent = adversary._innocent_roots

            def encoded(*args):
                frame, tx = encode(*args)
                seen.append(tx.level_bits)
                return frame, tx

            def transmitted(*args, **kwargs):
                out = transmit(*args, **kwargs)
                seen.append(out.symbols)
                return out

            def roots(*args):
                seen.append(innocent(*args))
                return seen[-1]

            monkeypatch.setattr(codec, "encode_block", encoded)
            monkeypatch.setattr(codec, "transmit_block", transmitted)
            monkeypatch.setattr(adversary, "_innocent_roots", roots)
            return seen

        seen = record()
        before = covertness_estimate(sess, 300, np.random.default_rng(3))
        monkeypatch.undo()
        halves = adversary._reference_halves

        def shifted(willie, i, bits, rng):
            rng.random(5)
            return halves(willie, i, bits, rng)

        monkeypatch.setattr(adversary, "_reference_halves", shifted)
        seen_again = record()
        after = covertness_estimate(sess, 300, np.random.default_rng(3))
        assert len(seen) == len(seen_again) == 300 + 2 * 19
        for a, b in zip(seen, seen_again):
            np.testing.assert_array_equal(a, b)
        assert (after.lrt_alpha, after.lrt_beta) == (before.lrt_alpha, before.lrt_beta)
        assert after.level_tv != before.level_tv

    def test_warden_off_q1_support_warns_nothing(self):
        # Q1 has no mass on symbol 2: a row of it alone has likelihood sum 0,
        # and its block's mixture statistic -inf reads as innocent, silently
        willie = make_dmc([0.5, 0.3, 0.2], [0.2, 0.8, 0.0])
        plan = RatePlan(q=2, ell=8, B=1, delta=1.0, epsilon=0.01, u=1,
                        per_level=(LevelRates(1, 0.5, 0.0, 0.0), LevelRates(2, 0.0, 0.0, 0.0)),
                        degraded=True)
        rng = np.random.default_rng(3)
        sess = build_session(plan, bsc(0.1), willie, rng, construction_trials=50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = covertness_estimate(sess, 200, rng)
        assert est.blocks == 200 and 0.0 <= est.lrt_alpha <= 1.0

    def test_q16_estimate_over_two_chunks_stays_small(self):
        # q=16, ell=1024: 8 blocks span two chunks; the statistics read
        # pulse-path histograms, so the whole estimate, level laws included,
        # stays far below one block's 2^26 symbols
        bob, willie = bsc(0.05), bsc(0.1)
        plan = msd_rate_plan(bob, willie, 16, 1.0, 1, degraded=True, ell_override=1024)
        sess = build_session(plan, bob, willie, np.random.default_rng(1),
                             construction_trials=20)
        blocks = 8
        assert sess.ell == 1024 and blocks * sess.ell >= 2 * adversary._CHUNK_ROWS
        tracemalloc.start()
        try:
            est = covertness_estimate(sess, blocks, np.random.default_rng(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert est.blocks == blocks and sorted(est.level_tv) == list(range(1, 17))

    def test_zero_blocks_rejected(self, rng):
        sess = tiny_single_codeword_session(rng)
        with pytest.raises(ValueError, match="at least 1 block, got 0"):
            covertness_estimate(sess, 0, rng)

    @pytest.mark.parametrize("bins", [1, 0, -3])
    def test_fewer_than_two_bins_rejected(self, rng, bins):
        # 0 reported TV 0 on every level; -3 failed inside np.linspace
        sess = tiny_single_codeword_session(rng)
        with pytest.raises(ValueError, match=rf"bins >= 2, got {bins}"):
            covertness_estimate(sess, 3, rng, bins=bins)

    def test_advantage_bounded_by_exact_tv_vs_innocent(self, rng):
        sess = tiny_single_codeword_session(rng)
        willie = sess.willie
        p_z = np.kron(willie.row1, willie.row0)
        q0 = np.kron(willie.row0, willie.row0)
        tv_innocent = 0.5 * float(np.abs(p_z - q0).sum())
        assert tv_innocent == pytest.approx(0.8, abs=1e-12)
        est = covertness_estimate(sess, 3000, rng)
        assert est.lrt_advantage <= tv_innocent + est.lrt_ci3

    def test_uniform_scheme_has_vanishing_statistics(self, rng):
        # all positions informational and payloads uniform: the scheme output
        # IS the uniform-PPM product, so every per-level TV sits at the
        # estimator's noise floor and the detector has no edge
        plan = RatePlan(q=2, ell=4, B=1, delta=4.0, epsilon=0.01,
                        u=2, per_level=(LevelRates(1, 1.0, 0.0, 0.0),
                                        LevelRates(2, 1.0, 0.0, 0.0)))
        sess = build_session(plan, bsc(0.1), bsc(0.1), rng, construction_trials=50)
        est = covertness_estimate(sess, 3000, rng, bins=8)
        noise = 3 * math.sqrt(8 / (4 * 3000))
        assert est.level_tv_sum <= 2 * noise + 0.05
        # the detector edge against the innocent hypothesis persists (the
        # uniform scheme is covert only at the planned delta, not per se);
        # only the per-level distances to the uniform-PPM product vanish
        assert est.lrt_advantage > 0.5


TERNARY = make_dmc([0.7, 0.2, 0.1], [0.2, 0.3, 0.5])


class TestSufficientStatisticSides:
    """The uniform-PPM reference and the innocent side of
    ``covertness_estimate``, drawn as histograms instead of channel outputs."""

    @pytest.mark.parametrize("willie", [bsc(0.05), TERNARY], ids=["bsc0.05", "ternary"])
    @pytest.mark.parametrize("i", range(1, 5))
    def test_reference_halves_follow_mirrored_atom_law(self, willie, i):
        # rows with bit 0 follow the bit-0 pair law, rows with bit 1 the same
        # law with the halves mirrored: one Pearson test over both groups of
        # drawn atom indices, read as their histograms
        atoms, pmf = half_histogram_pmf(willie, i)
        n = 40_000
        bits = np.random.default_rng(30 + i).integers(0, 2, size=n, dtype=np.uint8)
        first, second = _reference_halves(willie, i, bits, np.random.default_rng(40 + i))
        table = level_law(willie, i).histograms
        first, second = table[first], table[second]
        h = 1 << (i - 1)
        assert np.all(first.sum(axis=1) == h) and np.all(second.sum(axis=1) == h)
        one = bits == 1
        observed = np.concatenate([
            atom_counts(atoms, np.stack([first[~one], second[~one]], axis=1)),
            atom_counts(atoms[:, ::-1], np.stack([first[one], second[one]], axis=1)),
        ])
        expected = np.concatenate([(~one).sum() * pmf, one.sum() * pmf])
        assert pooled_chi2_pvalue(observed, expected) > 1e-4

    @pytest.mark.parametrize("willie", [bsc(0.05), TERNARY], ids=["bsc0.05", "ternary"])
    @pytest.mark.parametrize("i", range(1, 5))
    def test_reference_statistic_is_the_swapped_pair_bit_for_bit(self, willie, i):
        # the same generator state draws the same bit-0 atom pairs; a bit-1
        # row holds them swapped, and its statistic is level_llrs of the
        # swapped histograms, not a negated LLR
        n = 2000
        bits = np.random.default_rng(i).integers(0, 2, size=n, dtype=np.uint8)
        first, second = _reference_halves(willie, i, bits, np.random.default_rng(9))
        law = level_law(willie, i)
        pulse, plain = law.draw(n, np.random.default_rng(9))
        one = bits == 1
        assert one.any() and (~one).any()
        np.testing.assert_array_equal(first, np.where(one, plain, pulse))
        np.testing.assert_array_equal(second, np.where(one, pulse, plain))
        got, table = law.llrs(first, second), law.histograms
        np.testing.assert_array_equal(
            got[~one], level_llrs(table[pulse], table[plain], willie.lam)[~one])
        np.testing.assert_array_equal(
            got[one], level_llrs(table[plain], table[pulse], willie.lam)[one])

    @pytest.mark.parametrize("willie", [bsc(0.05), TERNARY], ids=["bsc0.05", "ternary"])
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_innocent_roots_follow_multinomial_law(self, willie, q):
        m, n = 1 << q, 20_000
        roots = _innocent_roots(willie, m, n, np.random.default_rng(50 + q))
        assert roots.shape == (n, willie.alphabet_size)
        atoms, pmf = multinomial_pmf(m, willie.row0)
        assert pooled_chi2_pvalue(atom_counts(atoms, roots), n * pmf) > 1e-4

