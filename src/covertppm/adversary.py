"""Willie's side: detection of linear codes, square-root-law bounds, and
covertness measurement of the multilevel scheme.

The linear-code detector averages the centred likelihood ratio over one
representative position per distinct nonzero generator column:

    T(z) = (1/|S|) sum_{j in S} (Q1(z_j) - Q0(z_j)) / Q0(z_j),

declaring communication when T exceeds gamma = chi2(Q1||Q0)/4.  Under the
innocent distribution T has mean 0 and variance chi2/|S|; under uniformly
coded transmission it has mean chi2/2, which is what makes every linear code
detectable once its dimension grows.  T reads a trial only through its
output histogram on S, which is drawn directly: Multinomial(|S|, Q0) under H0,
Multinomial(w, Q1) + Multinomial(|S| - w, Q0) under H1 for a codeword of
weight w on S, the popcount of its packed product.

Covertness of the multilevel scheme is never measured by plug-in relative
entropy over the full output space (dimensionally hopeless).  Instead:

  * tiny instances are enumerated exactly (``exact_kl_oracle``), giving every
    term of the covertness decomposition so its inequality can be asserted;
  * at moderate scale, per-level statistics and the advantage of a
    likelihood-ratio test against the innocent hypothesis are estimated with
    confidence intervals (``covertness_estimate``).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import codec
from .channels import Dmc
from .levels import (
    LevelLaw,
    level_law,
    level_llrs,
    likelihood_sums,
    llrs_from_sums,
    select_positions_batch,
)
from .ppm import PpmFrame, SuperOutput, ppm_divergence_bound, ppm_output_divergence


class OracleBudgetError(RuntimeError):
    """The requested exact enumeration exceeds ``ORACLE_MAX_OUTPUTS``."""


# ---------------------------------------------------------------------------
# GF(2) linear codes
# ---------------------------------------------------------------------------

def gf2_rank(mat) -> int:
    """Rank over GF(2) of a 0/1 matrix (entries are read mod 2).

    Each row, packed into one integer, is reduced by its leading bit against
    a basis of rows with distinct leading bits; the rank is the basis size.
    """
    packed = np.packbits(np.asarray(mat, dtype=np.uint8) & 1, axis=1)
    basis: dict[int, int] = {}
    for row in packed:
        r = int.from_bytes(row.tobytes(), "big")
        while r:
            lead = r.bit_length()
            if lead not in basis:
                basis[lead] = r
                break
            r ^= basis[lead]
    return len(basis)


def gf2_multiplier(g: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The map v -> v g over GF(2) for a k x s 0/1 matrix ``g``, on packed bits.

    Four Russians tables: ``g``'s rows, packed 8 columns to a byte and padded
    with zero rows to a multiple of 8, give for each byte of message bits a
    256-entry table of the packed XOR of the rows that byte selects, built by
    doubling (8 vectorised XORs); they take ceil(k/8) * 256 * ceil(s/8), about
    4 k s, bytes.  The returned function maps n x ceil(k/8) message bytes (bit
    t of byte j, least significant first, is message bit 8j + t; bits past k
    select zero rows) to the n x ceil(s/8) codeword rows as ``np.packbits``
    packs them, one table row XORed per message byte.
    """
    k, s = g.shape
    rows = np.zeros((-(-k // 8) * 8, -(-s // 8)), dtype=np.uint8)
    rows[:k] = np.packbits(g, axis=1)
    rows = rows.reshape(-1, 8, rows.shape[1])
    tables = np.zeros((rows.shape[0], 256, rows.shape[2]), dtype=np.uint8)
    for t in range(8):
        h = 1 << t
        np.bitwise_xor(tables[:, :h], rows[:, t, None], out=tables[:, h:2 * h])

    def multiply(vp: np.ndarray) -> np.ndarray:
        acc = tables[0].take(vp[:, 0], axis=0)
        for j in range(1, vp.shape[1]):
            acc ^= tables[j].take(vp[:, j], axis=0)
        return acc

    return multiply


#: the number of set bits in each byte value
_BYTE_WEIGHTS = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def packed_weights(rows: np.ndarray) -> np.ndarray:
    """The Hamming weight of each row of packed bits, by a 256-entry table."""
    return _BYTE_WEIGHTS.take(rows).sum(axis=1, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class LinearCode:
    """An (n, k) binary linear code given by a full-rank, read-only generator
    matrix; compared and hashed by identity."""

    generator: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.generator)
        if g.ndim != 2 or 0 in g.shape:
            raise ValueError("generator must be a nonempty k x n matrix")
        if not ((g == 0) | (g == 1)).all():
            raise ValueError("generator entries must be 0 or 1")
        g = g.astype(np.uint8)
        if gf2_rank(g) != g.shape[0]:
            raise ValueError("generator must have full row rank over GF(2)")
        g.flags.writeable = False
        object.__setattr__(self, "generator", g)

    @property
    def k(self) -> int:
        return int(self.generator.shape[0])

    @property
    def n(self) -> int:
        return int(self.generator.shape[1])

    @cached_property
    def distinct_columns(self) -> np.ndarray:
        """:func:`distinct_column_set`, computed on first use and kept
        (read-only, like ``generator``, so it cannot go stale)."""
        s = distinct_column_set(self)
        s.flags.writeable = False
        return s


def random_linear_code(n: int, k: int, rng: np.random.Generator) -> LinearCode:
    """A uniformly drawn full-rank (n, k) generator (redrawn if rank-deficient)."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    while True:
        g = rng.integers(0, 2, size=(k, n), dtype=np.uint8)
        if gf2_rank(g) == k:
            return LinearCode(generator=g)


def identity_prefix_code(n: int, k: int) -> LinearCode:
    """The unit-weight systematic code [I_k | 0], all codewords of weight <= k."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    g = np.zeros((k, n), dtype=np.uint8)
    g[np.arange(k), np.arange(k)] = 1
    return LinearCode(generator=g)


def distinct_column_set(code: LinearCode) -> np.ndarray:
    """One representative index (0-based) per distinct nonzero generator column.

    The representatives are pairwise linearly independent over GF(2), and
    there are at least k of them because the generator has full rank.
    """
    cols = np.ascontiguousarray(np.packbits(code.generator, axis=0).T)
    keys = cols.view(np.dtype((np.void, cols.shape[1]))).ravel()
    _, first = np.unique(keys, return_index=True)
    first = first[cols[first].any(axis=1)]  # drop the all-zero column
    return np.sort(first).astype(np.int64)


@dataclass(frozen=True)
class DetectionReport:
    gamma: float
    trials: int
    s_size: int
    k: int
    alpha_hat: float
    beta_hat: float
    alpha_bound_s: float
    beta_bound_s: float
    alpha_bound_k: float
    beta_bound_k: float
    mean_t_h0: float
    mean_t_h1: float
    var_t_h0: float
    var_t_h1: float
    chi2: float
    chi3: float
    undetectable: bool = False


#: trials drawn per batch; part of the random stream
_TRIAL_CHUNK = 4096


def _trial_statistics(g: np.ndarray, willie: Dmc, trials: int,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """T of ``trials`` H0 and H1 trials on the |S| columns of ``g``.  Per chunk
    of n trials: the H0 histograms, then n packed-byte messages, whose
    codeword weights w give the H1 histograms (module docstring)."""
    k, s = g.shape
    codeword = gf2_multiplier(g)
    # Q1 has no mass off Q0's support (chi2 is finite): those counts are 0
    ratio = np.where(willie.row0 > 0, willie.centred_ratio, 0.0)
    t0, t1 = np.empty(trials), np.empty(trials)
    for done in range(0, trials, _TRIAL_CHUNK):
        n = min(_TRIAL_CHUNK, trials - done)
        t0[done:done + n] = rng.multinomial(s, willie.row0, size=n) @ ratio
        w = packed_weights(codeword(rng.integers(0, 256, (n, -(-k // 8)), np.uint8)))
        hist = rng.multinomial(w, willie.row1) + rng.multinomial(s - w, willie.row0)
        t1[done:done + n] = hist @ ratio
    return t0 / s, t1 / s


def detect_linear_code(
    code: LinearCode,
    willie: Dmc,
    trials: int,
    rng: np.random.Generator,
) -> DetectionReport:
    """Monte-Carlo run of the threshold test against Prop-style analytic bounds.

    The threshold is gamma = chi2/4.  H0 draws all-innocent observations, H1
    draws a fresh uniform message per trial through the fixed code.  The
    report carries the empirical rates and the analytic bounds both in the
    stated form (with k) and the tighter form with |S| distinct columns.  A
    channel with chi2 = 0 makes the statistic identically zero; the report is
    then flagged undetectable.  A channel whose Q1 has mass outside the
    support of Q0 is rejected with ``ValueError``: its chi2 is infinite and
    the statistic unbounded, and so is a trial count below two, whose sample
    variances are undefined.

    Trials are output histograms on S (module docstring): a chunk of n trials
    holds n x |Z| counts and n x ceil(|S|/8) codeword bytes, not n x |S|
    symbols.  S is kept per code (:attr:`LinearCode.distinct_columns`); the
    tables of :func:`gf2_multiplier`, built once per call, take about
    4 k |S| bytes (5.7 MB at k = 700, |S| = 2048).
    """
    if trials < 2:
        raise ValueError(f"detection needs at least 2 trials, got {trials}")
    if not willie.stats.finite:
        raise ValueError(
            "Willie's Q1 has mass outside the support of Q0: chi2 is infinite "
            "and the detector statistic is unbounded"
        )
    S = code.distinct_columns
    s_size = int(S.shape[0])
    chi2, chi3 = willie.stats.chi2, willie.stats.chi3
    if chi2 == 0.0:
        return DetectionReport(
            gamma=0.0, trials=trials, s_size=s_size, k=code.k,
            alpha_hat=0.0, beta_hat=1.0,
            alpha_bound_s=float("inf"), beta_bound_s=float("inf"),
            alpha_bound_k=float("inf"), beta_bound_k=float("inf"),
            mean_t_h0=0.0, mean_t_h1=0.0, var_t_h0=0.0, var_t_h1=0.0,
            chi2=chi2, chi3=chi3, undetectable=True,
        )
    gamma = chi2 / 4.0
    # a statistic or moment past the float range is inf (t >= -1; a variance
    # of infinite statistics reads nan), without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        t0, t1 = _trial_statistics(code.generator[:, S], willie, trials, rng)
        moments = [float(v) for t in (t0, t1) for v in (t.mean(), t.var(ddof=1))]
    mean0, var0, mean1, var1 = (math.inf if math.isnan(v) else v for v in moments)

    alpha_hat = float(np.mean(t0 > gamma))
    beta_hat = float(np.mean(t1 < gamma))
    a_s = 16.0 / (s_size * chi2)
    a_k = 16.0 / (code.k * chi2)
    # the missed-detection bounds divide by chi2^2 times |S| or k: where that
    # leaves the float range they are the vacuous inf, never nan
    b_s = b_k = math.inf
    if 0.0 < chi2 * chi2 * max(s_size, code.k) < math.inf:
        b_s = max(16.0 / (s_size * chi2) + 8.0 * chi3 / (s_size * chi2**2)
                  - 4.0 / s_size, 0.0)
        b_k = max((16.0 / chi2 + 8.0 * chi3 / chi2**2 - 4.0) / code.k, 0.0)
    return DetectionReport(
        gamma=gamma, trials=trials, s_size=s_size, k=code.k,
        alpha_hat=alpha_hat, beta_hat=beta_hat,
        alpha_bound_s=a_s, beta_bound_s=b_s,
        alpha_bound_k=a_k, beta_bound_k=b_k,
        mean_t_h0=mean0, mean_t_h1=mean1, var_t_h0=var0, var_t_h1=var1,
        chi2=chi2, chi3=chi3,
    )


def srl_bound(delta: float, n: int, tv_q1_q0: float) -> tuple[float, float]:
    """Square-root-law ceilings for linear codes that keep divergence <= delta.

    Returns (mu_max, m_max): the largest admissible fraction of non-innocent
    symbols and the largest number of non-zero generator columns,
    sqrt(delta/n)/V and 2 sqrt(n delta)/V respectively.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if delta == 0:
        return 0.0, 0.0
    if tv_q1_q0 <= 0:
        raise ValueError("total variation must be positive")
    root = math.sqrt(delta / n)
    return root / tv_q1_q0, 2.0 * math.sqrt(n * delta) / tv_q1_q0


# ---------------------------------------------------------------------------
# exact tiny-instance oracle
# ---------------------------------------------------------------------------

#: warden output sequences the exact oracle enumerates before it refuses
ORACLE_MAX_OUTPUTS = 1 << 20


def _check_geometry(m: int, ell: int) -> None:
    if m < 1:
        raise ValueError(f"PPM order must be >= 1, got {m}")
    if ell < 1:
        raise ValueError(f"need at least one super-symbol, got ell={ell}")


def pw_single(positions) -> dict[tuple[int, ...], float]:
    """Position distribution of a single fixed codeword."""
    return {tuple(int(p) for p in positions): 1.0}


def pw_uniform(m: int, ell: int) -> dict[tuple[int, ...], float]:
    """Uniform distribution over all position tuples (fully uniform inputs).

    The oracle enumerates |Z|^(m ell) >= 2^(m ell) >= m^ell outputs, so a
    geometry with 2^(m ell) > ``ORACLE_MAX_OUTPUTS`` raises
    :class:`OracleBudgetError` here, before any tuple is built.
    """
    _check_geometry(m, ell)
    if m * ell >= ORACLE_MAX_OUTPUTS.bit_length():
        raise OracleBudgetError(
            f"m ell = {m * ell}: at least 2^{m * ell} output sequences exceed "
            f"the oracle budget {ORACLE_MAX_OUTPUTS}")
    return dict.fromkeys(itertools.product(range(1, m + 1), repeat=ell), 1.0 / m**ell)


def _kron_all(vecs) -> np.ndarray:
    out = np.array([1.0])
    for v in vecs:
        out = np.kron(out, v)
    return out


def _kl_nats(p: np.ndarray, q: np.ndarray) -> float:
    sup = p > 0
    if np.any(q[sup] == 0):
        return float("inf")
    return float(np.sum(p[sup] * np.log(p[sup] / q[sup])))


@dataclass(frozen=True)
class OracleReport:
    """All exact covertness quantities of a tiny instance, in nats."""

    m: int
    ell: int
    d_pz_q0: float            # D(P_Z || Q0^(m ell))
    d_pz_qppm: float          # D(P_Z || (Q_ppm^m)^ell)
    tv_pz_qppm: float         # V(P_Z, (Q_ppm^m)^ell)
    d_qppm_q0: float          # D((Q_ppm^m)^ell || Q0^(m ell)) = ell * per-symbol
    max_log_ratio: float      # ell * max_z |log(Q_ppm^m(z)/Q0^m(z))|, one symbol
    bound_rhs: float          # decomposition right-hand side

    def inequality_holds(self) -> bool:
        return self.d_pz_q0 <= self.bound_rhs + 1e-9


def exact_kl_oracle(
    willie: Dmc,
    m: int,
    ell: int,
    position_weights: dict[tuple[int, ...], float],
) -> OracleReport:
    """Exact covertness decomposition by full output enumeration.

    Builds the induced distribution over all |Z|^(m ell) warden observations
    from the distribution of pulse-position tuples, then evaluates every term
    of the covertness bound exactly.  Intended for m <= 4, ell <= 3, binary
    output; anything beyond ``ORACLE_MAX_OUTPUTS`` raises
    :class:`OracleBudgetError`.
    """
    _check_geometry(m, ell)
    n_out = willie.alphabet_size ** (m * ell)
    if n_out > ORACLE_MAX_OUTPUTS:
        raise OracleBudgetError(
            f"{n_out} output sequences exceed the oracle budget {ORACLE_MAX_OUTPUTS}"
        )
    # per pulse position 1..m, the super-symbol output law
    sym_dist = [
        _kron_all([willie.row1 if c == p else willie.row0 for c in range(1, m + 1)])
        for p in range(1, m + 1)
    ]
    total = sum(position_weights.values())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"position weights sum to {total}, expected 1")

    q0_sym = _kron_all([willie.row0] * m)
    qppm_sym = np.mean(sym_dist, axis=0)

    p_z = np.zeros(n_out)
    for tup, w in position_weights.items():
        if len(tup) != ell:
            raise ValueError("position tuple length must equal ell")
        if any(not 1 <= p <= m for p in tup):
            raise ValueError(f"positions must lie in [1, {m}], got {tup}")
        p_z += w * _kron_all([sym_dist[p - 1] for p in tup])

    q0_full = _kron_all([q0_sym] * ell)
    qppm_full = _kron_all([qppm_sym] * ell)

    sup = qppm_sym > 0
    with np.errstate(divide="ignore"):
        log_ratio = np.zeros_like(qppm_sym)
        both = sup & (q0_sym > 0)
        log_ratio[both] = np.log(qppm_sym[both] / q0_sym[both])
        if np.any(sup & (q0_sym == 0)):
            max_log = float("inf")
        else:
            max_log = float(np.max(np.abs(log_ratio[both]))) if np.any(both) else 0.0

    d_pz_qppm = _kl_nats(p_z, qppm_full)
    tv = 0.5 * float(np.abs(p_z - qppm_full).sum())
    d_qppm_q0 = ell * _kl_nats(qppm_sym, q0_sym)
    # the middle term vanishes with the TV even where max_log is infinite
    rhs = d_pz_qppm + (2.0 * tv * ell * max_log if tv > 0 else 0.0) + d_qppm_q0
    return OracleReport(
        m=m, ell=ell,
        d_pz_q0=_kl_nats(p_z, q0_full),
        d_pz_qppm=d_pz_qppm,
        tv_pz_qppm=tv,
        d_qppm_q0=d_qppm_q0,
        max_log_ratio=ell * max_log,
        bound_rhs=rhs,
    )


# ---------------------------------------------------------------------------
# moderate-scale covertness estimate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CovertnessEstimate:
    blocks: int
    level_tv: dict[int, float]
    level_tv_sum: float
    lrt_alpha: float
    lrt_beta: float
    lrt_advantage: float
    lrt_ci3: float            # 3-sigma half width on the advantage
    baseline: str
    d_qppm_q0_exact: float    # nats, exact per-block divergence of uniform PPM
    d_qppm_q0_bound: float    # nats, leading-order ell*chi2/(2m)
    bins: int


def _root_mixture_statistics(willie: Dmc, roots: np.ndarray, m: int,
                             blocks: int) -> np.ndarray:
    """Per block, the sum over its super-symbols of log((1/m) sum_j lam(z_j)),
    each row's likelihood sum read from its root histogram; ``roots`` holds
    the (ell, |Z|) root histograms of ``blocks`` blocks, one after another.
    A row whose outputs Q1 never gives has likelihood sum 0, which makes its
    block's statistic -inf: that block reads as innocent."""
    with np.errstate(divide="ignore"):
        logs = np.log(likelihood_sums(roots, willie.lam) / m)
    return logs.reshape(blocks, -1).sum(axis=1)


def _mixture_statistics(willie: Dmc, output: SuperOutput, blocks: int) -> np.ndarray:
    """The mixture statistic of each of ``blocks`` blocks of equal length
    whose rows a channel output holds one after another, read from the
    rows' root histograms in one query."""
    root = output.block_histograms(output.q, np.zeros((output.ell, 1), dtype=np.int64))
    return _root_mixture_statistics(willie, root[:, 0], 1 << output.q, blocks)


def _level_statistics(willie: Dmc, output: SuperOutput, pulses: np.ndarray) -> np.ndarray:
    """The (q, rows) level statistics of a channel output whose rows hold
    their pulses at the 0-based positions ``pulses``: level i's halves are
    gathered at the block index pulses >> i (``select_positions_batch``),
    levels 1..q in turn, and one ``level_llrs`` call forms every level's
    LLRs from the stacked halves."""
    halves = [select_positions_batch(output, pulses >> i, i)
              for i in range(1, output.q + 1)]
    first, second = (np.concatenate(side) for side in zip(*halves))
    return level_llrs(first, second, willie.lam).reshape(output.q, -1)


def _reference_halves(law: LevelLaw, bits: np.ndarray, u: np.ndarray):
    """Atom indices into ``law`` of the half histograms of uniform PPM with
    level bits ``bits``: one bit-0 pair per row from the uniform pairs ``u``
    (2, rows), mapped as ``law.draw`` maps them (``LevelLaw.atoms``), its
    halves swapped where the bit is 1 (the LLR is then one of swapped sums,
    never a negation, so it lands on the same atoms as the scheme side's)."""
    pulse, plain = law.atoms(u)
    one = bits == 1
    return np.where(one, plain, pulse), np.where(one, pulse, plain)


def _reference_statistics(willie: Dmc, q: int, rows: int,
                          rng: np.random.Generator) -> np.ndarray:
    """The (q, rows) level statistics of ``rows`` super-symbols of uniform
    PPM, drawn from the level laws: the (q, rows) uniform level bits, then
    every level's uniform pairs in one (q, 2, rows) draw, the stream of q
    ``LevelLaw.draw`` calls of levels 1..q.  Each level maps its pairs to
    likelihood sums through its own law (``_reference_halves``), and one
    ``llrs_from_sums`` call forms every level's LLRs."""
    bits = rng.integers(0, 2, size=(q, rows), dtype=np.uint8)
    u = rng.random((q, 2, rows))
    sums = np.empty((2, q, rows))
    for i in range(1, q + 1):
        law = level_law(willie, i)
        for side, atoms in zip(sums, _reference_halves(law, bits[i - 1], u[i - 1])):
            law.sums.take(atoms, out=side[i - 1])
    return llrs_from_sums(*sums)


def _quantile_edges(pooled: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """``np.quantile(row, probs)`` of each sorted row of ``pooled``, read
    straight off its order statistics by numpy's default (``linear``) rule:
    the virtual index v = (n - 1) p, the order statistics a and b at its
    floor and the next index (both the last one where v >= n - 1, the floor
    then taken as -1), gamma = v - floor, and a + (b - a) gamma, or
    b - (b - a)(1 - gamma) where gamma >= 0.5.  Bitwise np.quantile's,
    except that a zero edge of a row holding both -0.0 and 0.0 may differ in
    sign: np.quantile reads the order statistics off a partition, which
    may swap tied zeros."""
    n = pooled.shape[1]
    virtual = (n - 1) * probs
    below = np.floor(virtual)
    above = below + 1
    top = virtual >= n - 1
    below[top] = above[top] = -1
    below, above = below.astype(np.intp), above.astype(np.intp)
    gamma = virtual - below
    a, b = pooled[:, below], pooled[:, above]
    diff = b - a
    edges = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=edges, where=gamma >= 0.5)
    return edges


def _level_tvs(scheme: np.ndarray, reference: np.ndarray, bins: int) -> list[float]:
    """Per level (row), the total variation between the scheme's and the
    reference's statistics on ``bins`` cells cut at the pooled statistics'
    quantiles, a cell holding the values above one edge and at most the
    next.  The (q, 2N) pool is sorted once and every level's edges read off
    it (``_quantile_edges``); each cell count comes from ``searchsorted``
    on a sorted row, the reference's as the pool's less the scheme's.
    Sorts both arrays in place."""
    q, n = scheme.shape
    pooled = np.concatenate([scheme, reference], axis=1)
    pooled.sort(axis=1)
    scheme.sort(axis=1)
    edges = _quantile_edges(pooled, np.linspace(0, 1, bins + 1)[1:-1])
    # per level, how many of the scheme's and of the reference's statistics
    # are at most each edge (the pool's less the scheme's), from 0 below the
    # first cell to n above the last
    at_most = np.zeros((2, q, bins + 1), dtype=np.intp)
    at_most[:, :, -1] = n
    for i, cuts in enumerate(edges):
        at_most[0, i, 1:-1] = np.searchsorted(scheme[i], cuts, side="right")
        at_most[1, i, 1:-1] = np.searchsorted(pooled[i], cuts, side="right")
    at_most[1, :, 1:-1] -= at_most[0, :, 1:-1]
    cells = np.diff(at_most, axis=2) / n
    return (0.5 * np.abs(cells[0] - cells[1]).sum(axis=1)).tolist()


def _innocent_roots(willie: Dmc, m: int, ell: int, rng: np.random.Generator) -> np.ndarray:
    """Root histograms of ``ell`` innocent super-symbols, Multinomial(m, Q0) each."""
    return rng.multinomial(m, willie.row0, size=ell)


#: super-symbols that ``covertness_estimate`` samples together, in whole
#: blocks (at least one per chunk); part of the random stream
_CHUNK_ROWS = 4096
#: uint64 words of the caller's generator that seed the estimate's stage streams
_STREAM_SEED_WORDS = 4


def covertness_estimate(
    session,
    blocks: int,
    rng: np.random.Generator,
    *,
    bins: int = 16,
) -> CovertnessEstimate:
    """Measure covertness of a session at moderate scale.

    Per level, estimates the total variation between the scheme and the
    uniform-PPM reference on the level LLR statistic (quantile-binned into
    ``bins`` >= 2 cells), then telescopes the per-level values.  Also runs
    the per-coordinate mixture likelihood-ratio test against the innocent
    hypothesis, reporting its advantage 1 - alpha - beta with a 3-sigma
    interval; the mixture baseline is a strong suboptimal detector, exact
    only in the enumerable regime.  ``blocks`` must be at least 1.

    Each sampled block of the scheme is encoded on its own
    (``codec.encode_block``).  Each level's statistic is iid across
    super-symbols, so the blocks differ only in their rows: the blocks of a
    chunk of at most ``_CHUNK_ROWS`` super-symbols (whole blocks, at least
    one) go through Willie's channel as one frame, along their pulse paths
    (``ppm.transmit_super``).  Every later step makes one pass over all q
    levels, not one per level.  Per chunk, each level's halves are gathered
    at the block index read from the frame's pulse positions
    (``select_positions_batch``), and one ``level_llrs`` call forms every
    level's statistics (``_level_statistics``); the mixture statistic reads
    the root histograms once, summed per block.  The two other sides are
    drawn in the statistics they are read through: the reference's level-i
    statistic from a pair of half histograms per super-symbol, atoms of the
    level's exact law (``levels.level_law``), every level's in one draw and
    one ``llrs_from_sums`` call (``_reference_statistics``); the innocent
    mixture statistic from one Multinomial(m, Q0) root histogram per
    super-symbol.  After the last chunk, one sort of the (q, 2 blocks ell)
    pool of both sides' statistics gives every level's quantile edges, read
    straight off the order statistics by ``np.quantile``'s rule, and one
    sort of the scheme's statistics gives, with the pool, every cell count
    by ``searchsorted`` (``_level_tvs``).  The chunks bound the working
    memory of the draws; the statistics kept for the TVs take 16 q bytes
    per super-symbol, and their sorted pool as much again.  Each per-level
    TV reads one level's marginal and alpha the root histograms only, so
    every reported law is that of whole channel outputs.  The exact
    divergence (``ppm.ppm_output_divergence``) is summed once per warden
    channel and order m over the histogram table the level laws share,
    and read from the one cache (``ppm.cached``) on every later call.

    Draw order: the four ``SeedSequence`` children of
    ``_STREAM_SEED_WORDS`` words drawn from ``rng`` seed one generator per
    stage, in this order.  Per chunk,

    1. encoding: per block, each level's payload then each level's keys
       (levels 1..u), then ``encode_block``'s own draws;
    2. channel: one ``transmit_block`` of the chunk's frame;
    3. reference: the (q, rows) uniform level bits, then the uniform atom
       pairs of all levels in one (q, 2, rows) draw, level 1 first, which is
       the stream of one ``LevelLaw.draw`` per level, levels 1..q;
    4. innocent: one Multinomial(m, Q0) root histogram per row.

    So a change to one stage's draws moves no other stage's fields.
    """
    if blocks < 1:
        raise ValueError(f"covertness estimate needs at least 1 block, got {blocks}")
    if bins < 2:
        raise ValueError(f"covertness estimate needs bins >= 2, got {bins}")
    q, ell, m = session.q, session.ell, session.plan.m
    willie = session.willie
    seed = np.random.SeedSequence(
        rng.integers(0, 1 << 64, size=_STREAM_SEED_WORDS, dtype=np.uint64))
    encoding, channel, reference, innocent = map(np.random.default_rng, seed.spawn(4))

    scheme_stats = np.empty((q, blocks * ell))
    ref_stats = np.empty((q, blocks * ell))
    scheme_lr = np.empty(blocks)
    innocent_lr = np.empty(blocks)

    per_chunk = max(1, _CHUNK_ROWS // ell)
    for first in range(0, blocks, per_chunk):
        n = min(per_chunk, blocks - first)
        rows = slice(first * ell, (first + n) * ell)
        positions = []
        for _ in range(n):
            messages = {
                i: encoding.integers(0, 2,
                                     size=session.layouts[i].n_msg + session.layouts[i].n_sec,
                                     dtype=np.uint8)
                for i in range(1, session.u + 1)
            }
            keys = {
                i: encoding.integers(0, 2, size=session.layouts[i].n_key, dtype=np.uint8)
                for i in range(1, session.u + 1)
            }
            # looked up per block, so a replaced codec.encode_block is the one run
            block, _ = codec.encode_block(session, messages, keys, encoding)
            positions.append(block.positions)
        frame = PpmFrame(q, np.concatenate(positions))
        willie_out = codec.transmit_block(session, frame, channel, to_willie=True)
        scheme_stats[:, rows] = _level_statistics(willie, willie_out, frame.positions - 1)
        scheme_lr[first:first + n] = _mixture_statistics(willie, willie_out, n)
        ref_stats[:, rows] = _reference_statistics(willie, q, n * ell, reference)
        innocent_lr[first:first + n] = _root_mixture_statistics(
            willie, _innocent_roots(willie, m, n * ell, innocent), m, n)

    level_tv = dict(enumerate(_level_tvs(scheme_stats, ref_stats, bins), start=1))

    alpha = float(np.mean(innocent_lr > 0.0))
    beta = float(np.mean(scheme_lr <= 0.0))
    adv = 1.0 - alpha - beta
    ci3 = 3.0 * math.sqrt(
        alpha * (1 - alpha) / blocks + beta * (1 - beta) / blocks
    )
    return CovertnessEstimate(
        blocks=blocks,
        level_tv=level_tv,
        level_tv_sum=float(sum(level_tv.values())),
        lrt_alpha=alpha,
        lrt_beta=beta,
        lrt_advantage=adv,
        lrt_ci3=ci3,
        baseline="ppm-mixture",
        d_qppm_q0_exact=ell * ppm_output_divergence(willie, m),
        d_qppm_q0_bound=ppm_divergence_bound(willie.stats.chi2, m, ell),
        bins=bins,
    )
