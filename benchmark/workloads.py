"""The benchmark workloads.

Each workload makes its inputs from the seed, sets a session up, runs timed
rounds of one public library call, and afterwards checks what the library
returned against ``reference`` computations or required properties.

* ``chain-q4-ell4096``: ``codec.run_chain`` over chains of blocks (the
  receiver: SC decoding dominates);
* ``covert-q10-ell512-ext``: ``adversary.covertness_estimate`` on an
  extractor session (the transmitter and the warden; no decoding);
* ``detect-k128``: ``adversary.detect_linear_code`` (channel sampling and
  the detector only; no ppm, levels, polar, codec or extractor code).

Seeds: set-up draws from ``default_rng([seed, 1])`` and round r from
``default_rng([seed, 2, r])`` (chain payloads) and ``default_rng([seed, 3, r])``
(the generator handed to the library).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from covertppm import adversary, channels, codec, levels

import reference as ref
from spans import patched

BOB, WILLIE = 0.05, 0.1  # crossover probabilities of the two BSCs


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _spaced(n_items: int, count: int) -> list[int]:
    """Up to ``count`` indices spread evenly over range(n_items)."""
    return sorted({int(v) for v in np.linspace(0, n_items - 1, min(count, n_items))})


class Workload:
    """Set-up, timed rounds and checks of one workload.

    ``run_round(r)`` returns (operations, seconds spent in the library call);
    ``evaluate()`` returns (failed operations, problems found by the checks).
    """

    name = ""
    #: set-ups per untraced run; setup_s is their median
    setup_repeats = 3
    #: rounds of a traced run, fixed so that its work counts repeat exactly
    trace_rounds = 1
    #: calibration kernels whose slowness tracks this workload's (calibration.py)
    calibration = ("interpreter", "small_arrays", "bulk")

    def __init__(self, seed: int, geo):
        self.seed = seed
        self.geo = geo
        self.bob = channels.bsc(BOB)
        self.willie = channels.bsc(WILLIE)
        self.rounds: list = []

    def setup(self) -> None:
        raise NotImplementedError

    def hooks(self):
        """Capture of library outputs the checks need (none by default)."""
        return patched([])

    def run_round(self, r: int) -> tuple[int, float]:
        raise NotImplementedError

    def evaluate(self) -> tuple[int, list[str]]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# chain: transmitter, channel and multistage receiver over chained blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainGeometry:
    q: int = 4
    ell: int = 4096
    #: at 0.7 the construction's mean-LLR tie-break keeps about 8 level-4
    #: positions that fail ~5e-5 each: a block-error floor near 4.5e-4
    rate_scale: float = 0.6
    construction_trials: int = 500
    #: rounds whose first block is re-encoded and checked against u G
    reencoded_rounds: int = 3


class ChainWorkload(Workload):
    """Blocks sent and decoded through ``run_chain``; one operation = one block."""

    name = "chain-q4-ell4096"
    trace_rounds = 16
    delta = 2.0  # covertness parameter of the rate plan
    chain_blocks = 2  # blocks per run_chain call, one round
    # a block is almost all sc_decode: interpreter recursion over small arrays
    calibration = ("interpreter", "small_arrays")

    def __init__(self, seed: int, geo: ChainGeometry = ChainGeometry()):
        super().__init__(seed, geo)
        self.session = None
        self._decoded: list[dict] = []

    def setup(self):
        g = self.geo
        plan = levels.msd_rate_plan(self.bob, self.willie, g.q, self.delta, self.chain_blocks,
                                    degraded=True, ell_override=g.ell)
        session = codec.build_session(
            plan, self.bob, self.willie, _rng(self.seed, 1),
            construction_trials=g.construction_trials, rate_scale=g.rate_scale,
        )
        if session.total_key_bits():  # the codeword check places no keys
            raise RuntimeError(f"{self.name}: the degraded plan should need no keys")
        self.session = session

    def hooks(self):
        decode = codec.decode_block

        def capture(*args, **kwargs):
            result = decode(*args, **kwargs)
            self._decoded.append(result.decoded_bits)
            return result

        return patched([(codec, "decode_block", capture)])

    def run_round(self, r):
        s, B = self.session, self.chain_blocks
        rng = _rng(self.seed, 2, r)
        payloads = {(i, j): rng.integers(0, 2, size=lay.n_msg + lay.n_sec, dtype=np.uint8)
                    for j in range(1, B + 1) for i, lay in s.layouts.items()}
        self._decoded = []
        start = time.perf_counter()
        report = codec.run_chain(s, B, _rng(self.seed, 3, r),
                                 message_source=lambda i, count, j: payloads[(i, j)])
        elapsed = time.perf_counter() - start
        self.rounds.append((payloads, self._decoded, report))
        return B, elapsed

    def evaluate(self):
        s, B = self.session, self.chain_blocks
        failed, problems = 0, []
        for r, (payloads, decoded, report) in enumerate(self.rounds):
            if len(decoded) != B or len(report.blocks) != B:
                problems.append(f"round {r}: {len(decoded)} decodes and "
                                f"{len(report.blocks)} block records for {B} blocks")
                continue
            for j in range(1, B + 1):
                wrong = any(not np.array_equal(decoded[j - 1][i], payloads[(i, j)])
                            for i in s.layouts)
                failed += wrong
                if report.blocks[j - 1].any_error != wrong:
                    problems.append(
                        f"round {r} block {j}: run_chain reports any_error="
                        f"{report.blocks[j - 1].any_error}, the decoded payload "
                        f"{'differs from' if wrong else 'equals'} the one sent")
        problems += self._check_codewords()
        return failed, problems

    def _check_codewords(self) -> list[str]:
        """Re-encode sampled blocks and compare with u G_ell mod 2."""
        s = self.session
        g = ref.kron_generator(s.ell)
        problems = []
        for r in range(min(self.geo.reencoded_rounds, len(self.rounds))):
            messages = {i: self.rounds[r][0][(i, 1)] for i in s.layouts}
            _, tx = codec.encode_block(s, messages, {}, _rng(self.seed, 4, r))
            for i, lay in s.layouts.items():
                code = s.codes[i]
                if code.message.shape[0] != lay.n_payload:
                    problems.append(f"level {i}: {code.message.shape[0]} information "
                                    f"positions for {lay.n_payload} payload bits")
                    continue
                u = np.zeros(s.ell, dtype=np.uint8)  # zero on the frozen positions
                u[code.message] = messages[i]
                if not np.array_equal(tx.level_bits[i - 1], ref.encode_reference(g, u)):
                    problems.append(f"round {r} block 1 level {i}: codeword != u G mod 2")
        return problems


# ---------------------------------------------------------------------------
# covert: sampled covertness of an extractor session
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CovertGeometry:
    q: int = 10
    ell: int = 512
    construction_trials: int = 500
    #: sampled blocks whose extractor levels are checked
    checked_blocks: int = 16


class CovertWorkload(Workload):
    """Blocks sampled by ``covertness_estimate``; one operation = one block."""

    name = "covert-q10-ell512-ext"
    trace_rounds = 32
    delta = 1.0  # covertness parameter of the rate plan
    u = 8  # reliability levels the plan gives; levels u+1..q are the extractor's
    round_blocks = 4  # blocks per covertness_estimate call, one round

    def __init__(self, seed: int, geo: CovertGeometry = CovertGeometry()):
        super().__init__(seed, geo)
        self.session = None
        self._sent: list = []

    def setup(self):
        g = self.geo
        plan = levels.msd_rate_plan(self.bob, self.willie, g.q, self.delta, 1,
                                    degraded=True, ell_override=g.ell)
        session = codec.build_session(
            plan, self.bob, self.willie, _rng(self.seed, 1),
            resolvability="extractor", construction_trials=g.construction_trials,
        )
        if session.u != self.u or session.extractor_cfg is None:
            raise RuntimeError(f"{self.name}: expected u={self.u} with an extractor, "
                               f"got u={session.u}")
        self.session = session

    def hooks(self):
        encode = codec.encode_block

        def capture(*args, **kwargs):
            frame, tx = encode(*args, **kwargs)
            self._sent.append(tx)
            return frame, tx

        return patched([(codec, "encode_block", capture)])

    def run_round(self, r):
        K = self.round_blocks
        self._sent = []
        start = time.perf_counter()
        estimate = adversary.covertness_estimate(self.session, K, _rng(self.seed, 3, r))
        elapsed = time.perf_counter() - start
        self.rounds.append((estimate, self._sent))
        return K, elapsed

    def evaluate(self):
        s, K = self.session, self.round_blocks
        problems = []
        divergence = ref.ppm_divergence(s.willie.row0, s.willie.row1, s.plan.m, s.ell)
        for r, (est, sent) in enumerate(self.rounds):
            if est.blocks != K or len(sent) != K:
                problems.append(f"round {r}: {est.blocks} blocks reported, "
                                f"{len(sent)} encoded, {K} asked")
            if sorted(est.level_tv) != list(range(1, s.q + 1)):
                problems.append(f"round {r}: level TV for levels {sorted(est.level_tv)}")
            for what, v in [*((f"TV level {i}", tv) for i, tv in est.level_tv.items()),
                            ("alpha", est.lrt_alpha), ("beta", est.lrt_beta)]:
                if not 0.0 <= v <= 1.0:
                    problems.append(f"round {r}: {what} = {v} outside [0, 1]")
            if abs(est.d_qppm_q0_exact - divergence) > 1e-9 * abs(divergence):
                problems.append(f"round {r}: d_qppm_q0_exact {est.d_qppm_q0_exact!r} "
                                f"!= binomial sum {divergence!r}")
        problems += self._check_extractor_levels()
        return 0, problems

    def _check_extractor_levels(self) -> list[str]:
        """Sampled blocks: levels u+1..q equal s * (r 2^(w-k)) in GF(2^w)."""
        s = self.session
        cfg = s.extractor_cfg
        sent = [tx for _, txs in self.rounds for tx in txs]
        problems = []
        for b in _spaced(len(sent), self.geo.checked_blocks):
            tx = sent[b]
            if tx.extractor_r is None or tx.extractor_r.shape[0] != cfg.k:
                problems.append(f"block {b}: extractor input is not {cfg.k} bits")
                continue
            want = ref.extractor_levels(s.extractor_seed, cfg.field.modulus,
                                        tx.extractor_r, cfg.w, s.q - s.u)
            if not np.array_equal(tx.level_bits[s.u:], want):
                problems.append(f"block {b}: resolvability levels != s * (r 2^(w-k))")
        return problems


# ---------------------------------------------------------------------------
# detect: the warden's threshold test against a linear code
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DetectGeometry:
    n: int = 1024
    k: int = 128
    round_trials: int = 8192


class DetectWorkload(Workload):
    """H0/H1 trial pairs of ``detect_linear_code``; one operation = one pair."""

    name = "detect-k128"
    setup_repeats = 25  # a set-up takes milliseconds
    trace_rounds = 64
    sigmas = 6.0  # half-width of the accepted band around each mean, in standard errors

    def __init__(self, seed: int, geo: DetectGeometry = DetectGeometry()):
        super().__init__(seed, geo)
        self.code = None

    def setup(self):
        self.code = adversary.identity_prefix_code(self.geo.n, self.geo.k)

    def run_round(self, r):
        T = self.geo.round_trials
        start = time.perf_counter()
        report = adversary.detect_linear_code(self.code, self.willie, T, _rng(self.seed, 3, r))
        elapsed = time.perf_counter() - start
        self.rounds.append(report)
        return T, elapsed

    def evaluate(self):
        g = self.geo
        chi2, var0, var1 = ref.detector_moments(self.willie.row0, self.willie.row1)
        problems = []
        for r, rep in enumerate(self.rounds):
            if rep.s_size != g.k or rep.trials != g.round_trials:
                problems.append(f"round {r}: s_size {rep.s_size}, trials {rep.trials}")
            if abs(rep.chi2 - chi2) > 1e-12 * chi2:
                problems.append(f"round {r}: chi2 {rep.chi2!r} != {chi2!r} from the rows")
            n = g.k * g.round_trials
            for what, got, want, var in [("mean_t_h0", rep.mean_t_h0, 0.0, var0),
                                         ("mean_t_h1", rep.mean_t_h1, chi2 / 2.0, var1)]:
                if abs(got - want) > self.sigmas * (var / n) ** 0.5:
                    problems.append(f"round {r}: {what} = {got!r}, more than "
                                    f"{self.sigmas} sigma from {want!r}")
        return 0, problems


WORKLOADS = {w.name: w for w in (ChainWorkload, CovertWorkload, DetectWorkload)}
