"""Shared brute-force oracles.

Everything here recomputes quantities from first principles (full super
channel enumeration, direct output-space sums) independently of the library's
own algorithms, so the tests compare two genuinely different computational
paths.  ``sc_decode_reference`` is the plain leaf-by-leaf successive
cancellation decoder that the library's simplified schedule must match,
``genie_decision_llrs_reference`` the node-by-node recursion that the
breadth-first genie pass of ``construct_code`` must match (with the genie's
box-plus check node ``genie_f``, or the decoder's logaddexp form ``sc_f`` as
an independent oracle), and
``distinct_columns_reference`` the column-by-column scan that the packed-key
``distinct_column_set`` must match.  ``decimal_map``, ``index_set`` and
``select_positions`` spell out the PPM position layout one symbol at a time,
for ``frame_from_bits`` and ``select_positions_batch``;
``detector_statistic`` is the warden's statistic of one observation;
``gf2_rank_reference`` (row elimination) and ``gf2_product_reference`` (a
float32 product mod 2) are the paths that ``gf2_rank`` and the packed
``gf2_multiplier`` must match, ``detect_linear_code_reference`` takes each
codeword weight from the float product into the detector's report, and
``detector_statistic_law`` enumerates the exact law of the statistic;
``plan_from_text`` parses the document ``plan_to_text`` writes, and
``pin_rates`` fixes a plan's per-level operating points for the sessions
that tests build at chosen rates.
``level_llrs_reference`` sums each half's per-coordinate likelihood ratios
in sorted order: the histogram-based ``level_llrs`` must agree with it.
``select_positions_batch_symbols`` (slicing the symbol subblock),
``level_llrs_symbols`` (counting each half's symbols) and
``mixture_statistic_reference`` (a gather and a row mean of the ratios) are
the symbol paths that the histograms of ``SuperOutput`` replaced.
``output_from_symbols`` builds a pulse-path ``SuperOutput`` whose path and
sibling histograms are read off a symbol array at chosen pulses, for the
tests that hold symbols; ``pyramid_level_llrs`` runs rows of subblock
symbols through it and the library's level LLRs, and ``read_symbols`` reads
an output's every width-1 block back as symbols.
``binary_divergence_reference`` (the ones-count loop) and
``type_class_divergence_reference`` (one histogram at a time) are the loops
that the vectorised histogram sum of ``ppm_output_divergence`` must match,
and ``level_channel_rows`` with ``binary_input_mi`` (full enumeration) and
``ones_count_mi`` (the binary (k0, k1) atom law) the mutual informations the
erasure split of ``level_capacity`` must match.
``bits_to_int_reference``/``int_to_bits_reference`` are the bit-by-bit loops
behind the packed extractor helpers, and ``search_irreducible_reference``
the modulus search without the Swan skip.  ``exact_tv`` and the ``pw_from_*``
position-law helpers enumerate tiny covertness instances.
``half_histogram_pmf`` and ``multinomial_pmf`` are the exact laws of the
drawn half-histogram pairs and root histograms, which ``atom_counts`` and
``pooled_chi2_pvalue`` test samples against.
``verify_degradation`` composes a channel with a given intermediate channel,
and ``degradation_residual_lp`` finds the best intermediate by a linear
program: the ROC test of ``is_degraded`` must agree with them.
``covertness_estimate_reference`` is the estimate's one pass per level
(each level's statistics, reference draws and quantile binning on its own,
``level_tvs_reference``): ``covertness_estimate``, which makes each of
those passes once over all levels, must return an equal report.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.special import gammaln
from scipy.stats import chisquare, multinomial

from covertppm import adversary, codec
from covertppm.adversary import CovertnessEstimate, DetectionReport
from covertppm.channels import ROW_SUM_TOL, ChannelError, Dmc
from covertppm.extractor import is_irreducible
from covertppm.levels import (
    DEFAULT_LLR_MAX,
    PLAN_HEADER,
    LevelRates,
    RatePlan,
    level_law,
    level_llrs,
    select_positions_batch,
)
from covertppm.ppm import (
    PpmFrame,
    SuperOutput,
    decimal_values,
    frame_from_bits,
    ppm_divergence_bound,
    ppm_output_divergence,
)

LN2 = math.log(2.0)


def verify_degradation(bob: Dmc, willie: Dmc, intermediate) -> tuple[bool, float]:
    """Check whether willie = bob composed with the given intermediate channel.

    ``intermediate`` is a |Y| x |Z| transition matrix (rows are probability
    vectors).  Returns ``(ok, residual)`` where ``residual`` is the max-abs
    entry difference between the composed channel and willie's rows, and
    ``ok`` is True iff residual <= 1e-9.
    """
    t = np.asarray(intermediate, dtype=np.float64)
    if t.ndim != 2 or t.shape != (bob.alphabet_size, willie.alphabet_size):
        raise ChannelError(
            f"intermediate must be {bob.alphabet_size} x {willie.alphabet_size}"
        )
    if np.any(t < 0) or np.any(np.abs(t.sum(axis=1) - 1.0) > ROW_SUM_TOL):
        raise ChannelError("intermediate rows must be probability vectors")
    composed0 = bob.row0 @ t
    composed1 = bob.row1 @ t
    residual = float(
        max(np.abs(composed0 - willie.row0).max(),
            np.abs(composed1 - willie.row1).max())
    )
    return residual <= 1e-9, residual


def degradation_residual_lp(bob: Dmc, willie: Dmc) -> float:
    """The least max-abs residual of willie against bob composed with any
    intermediate channel T (|Y| x |Z|, rows probability vectors): 0 iff
    willie is a garbling of bob.  A linear program in (T, r): minimise r
    subject to |row_x @ T - willie.row_x| <= r entrywise, for x = 0, 1.
    """
    ny, nz = bob.alphabet_size, willie.alphabet_size
    nvar = ny * nz + 1
    a_ub, b_ub = [], []
    for row, target in ((bob.row0, willie.row0), (bob.row1, willie.row1)):
        for z in range(nz):
            coef = np.zeros(nvar)
            coef[z:ny * nz:nz] = row  # T[y, z] sits at y * nz + z
            for sign in (1.0, -1.0):
                a_ub.append(np.concatenate([sign * coef[:-1], [-1.0]]))
                b_ub.append(sign * target[z])
    a_eq = np.zeros((ny, nvar))
    for y in range(ny):
        a_eq[y, y * nz:(y + 1) * nz] = 1.0
    cost = np.zeros(nvar)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=np.array(a_ub), b_ub=b_ub, A_eq=a_eq, b_eq=np.ones(ny),
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def all_outputs(alphabet: int, width: int) -> np.ndarray:
    """All output blocks of the given width, shape (alphabet^width, width)."""
    return np.array(list(itertools.product(range(alphabet), repeat=width)),
                    dtype=np.int64)


def super_channel_matrix(dmc: Dmc, q: int) -> np.ndarray:
    """W(y_block | x_bits) for the full 2^q-use super channel.

    Row index is the decimal value d(x_bits); column index enumerates output
    blocks as produced by :func:`all_outputs`.
    """
    m = 1 << q
    outs = all_outputs(dmc.alphabet_size, m)
    probs0 = dmc.row0[outs]                      # (n_out, m)
    mat = np.empty((m, outs.shape[0]))
    for d in range(m):
        cols = probs0.copy()
        cols[:, d] = dmc.row1[outs[:, d]]
        mat[d] = cols.prod(axis=1)
    return mat


def brute_conditional_mi(dmc: Dmc, i: int, q: int) -> float:
    """I(X_i ; Y_block | X_{i+1:q}) in bits for uniform level bits, by
    enumeration."""
    m = 1 << q
    w = super_channel_matrix(dmc, q)             # (m, n_out)
    px = 1.0 / m

    def bits_of(d):
        return [(d >> t) & 1 for t in range(q)]

    # group inputs by (x_{i+1:q}); within each group, split by x_i
    total = 0.0
    groups: dict[tuple, dict[int, list[int]]] = {}
    for d in range(m):
        b = bits_of(d)
        key = tuple(b[i:])                        # x_{i+1:q}
        groups.setdefault(key, {0: [], 1: []})[b[i - 1]].append(d)
    for key, split in groups.items():
        p_key = len(split[0]) + len(split[1])
        w0 = w[split[0]].mean(axis=0)
        w1 = w[split[1]].mean(axis=0)
        mix = 0.5 * (w0 + w1)

        def ent(v):
            pos = v > 0
            return -float(np.sum(v[pos] * np.log(v[pos])))

        total += (p_key * px) * (ent(mix) - 0.5 * (ent(w0) + ent(w1)))
    return total / LN2


def brute_set_mi(dmc: Dmc, q: int, S: set[int], conditional: bool) -> float:
    """I(X_S ; Y_block | X_{S^c}) (conditional=True) or I(X_S ; Y_block), in
    bits."""
    m = 1 << q
    w = super_channel_matrix(dmc, q)

    def bits_of(d):
        return tuple((d >> t) & 1 for t in range(q))

    def ent(v):
        pos = v > 0
        return -float(np.sum(v[pos] * np.log(v[pos])))

    total = 0.0
    if conditional:
        groups: dict[tuple, list[int]] = {}
        for d in range(m):
            b = bits_of(d)
            key = tuple(b[t - 1] for t in range(1, q + 1) if t not in S)
            groups.setdefault(key, []).append(d)
        for key, members in groups.items():
            p_key = len(members) / m
            rows = w[members]
            mix = rows.mean(axis=0)
            total += p_key * (ent(mix) - np.mean([ent(r) for r in rows]))
    else:
        groups = {}
        for d in range(m):
            b = bits_of(d)
            key = tuple(b[t - 1] for t in range(1, q + 1) if t in S)
            groups.setdefault(key, []).append(d)
        mix_all = w.mean(axis=0)
        avg = 0.0
        for key, members in groups.items():
            rows = w[members].mean(axis=0)
            avg += (len(members) / m) * ent(rows)
        total = ent(mix_all) - avg
    return total / LN2


def sc_f(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # the decoder's exact check-node formula, so that outputs compare bitwise
    return np.logaddexp(0.0, a + b) - np.logaddexp(a, b)


def scalar_logaddexp(x: float, y: float) -> float:
    """numpy's npy_logaddexp branch for branch, on Python's math module.

    math's exp and log1p are the libm calls behind numpy's float64
    logaddexp loop, and math.log(2.0) is its NPY_LOGE2; the decoder's
    generated subtree functions compute f with this arithmetic.
    """
    if x == y:
        return x + math.log(2.0)
    tmp = x - y
    if tmp > 0:
        return x + math.log1p(math.exp(-tmp))
    if tmp <= 0:
        return y + math.log1p(math.exp(tmp))
    return tmp


def genie_f(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The genie pass's box-plus check node, one ufunc for each of its own.

    sgn(ab) [min(|a|, |b|) + (log1p(e^-(|a|+|b|)) - log1p(e^-||a|-|b||))],
    with exp and log1p on contiguous arrays as in the library, so that
    outputs compare bitwise.
    """
    ma, mb = np.abs(a), np.abs(b)
    t1 = np.log1p(np.exp(-(ma + mb)))
    t2 = np.log1p(np.exp(-np.abs(ma - mb)))
    return np.copysign(np.minimum(ma, mb) + (t1 - t2), a * b)


def _sc_g(a: np.ndarray, b: np.ndarray, x1: np.ndarray) -> np.ndarray:
    return b + (1.0 - 2.0 * x1) * a


def _sc_recurse(llr: np.ndarray, mask: np.ndarray, vals: np.ndarray,
                start: int) -> tuple[np.ndarray, np.ndarray]:
    n = llr.shape[0]
    if n == 1:
        if mask[start]:
            u = vals[start]
        else:
            u = np.uint8(0) if llr[0] >= 0.0 else np.uint8(1)
        bit = np.array([u], dtype=np.uint8)
        return bit, bit.copy()
    half = n // 2
    a, b = llr[:half], llr[half:]
    u_left, x_left = _sc_recurse(sc_f(a, b), mask, vals, start)
    u_right, x_right = _sc_recurse(_sc_g(a, b, x_left.astype(np.float64)),
                                   mask, vals, start + half)
    return (np.concatenate([u_left, u_right]),
            np.concatenate([x_left ^ x_right, x_right]))


def genie_decision_llrs_reference(llrs: np.ndarray, f=genie_f) -> np.ndarray:
    """Genie decision LLRs by the depth-first recursion, one node at a time.

    ``llrs`` is (trials, ell); the left child gets f(a, b), the right child
    a + b, and the children's outputs are concatenated.  With ``genie_f``
    the library's breadth-first position-major pass must return the
    transpose of this array bit for bit, up to the sign of a NaN; with
    ``sc_f`` it is the recursion in the decoder's logaddexp form, which the
    pass must match to rounding.
    """
    n = llrs.shape[1]
    if n == 1:
        return llrs
    half = n // 2
    a, b = llrs[:, :half], llrs[:, half:]
    return np.concatenate([genie_decision_llrs_reference(f(a, b), f),
                           genie_decision_llrs_reference(a + b, f)], axis=1)


def sc_decode_reference(channel_llrs, code, pins=None):
    """Plain successive cancellation, one leaf at a time.

    Visits every leaf of the decoding tree, with no node specialisation; the
    library's ``sc_decode`` must return the same ``(u_hat, x_hat)`` bit for
    bit.
    """
    llr = np.asarray(channel_llrs, dtype=np.float64)
    mask = np.ones(code.ell, dtype=bool)
    mask[code.message] = False
    vals = np.zeros(code.ell, dtype=np.uint8)
    if pins is not None:
        idx, pv = pins
        mask[np.asarray(idx, dtype=np.int64)] = True
        vals[np.asarray(idx, dtype=np.int64)] = np.asarray(pv, dtype=np.uint8)
    return _sc_recurse(llr, mask, vals, 0)


def decimal_map(x_bits) -> int:
    """Decimal value of a bit vector, least significant bit first."""
    value = 0
    for t, b in enumerate(x_bits):
        if b not in (0, 1):
            raise ValueError(f"bits must be 0/1, got {b!r}")
        value |= int(b) << t
    return value


def index_set(q: int, constrained: dict[int, int]) -> np.ndarray:
    """Positions (1-based, ascending) whose level bits match the constraints.

    ``constrained`` maps level indices in [1, q] to required bit values; the
    result has exactly 2^(q - len(constrained)) entries.  An empty constraint
    returns the full set {1, ..., 2^q}.
    """
    m = 1 << q
    mask = np.ones(m, dtype=bool)
    j0 = np.arange(m)  # position - 1 = decimal value of the bits
    for level, bit in constrained.items():
        if not 1 <= level <= q:
            raise ValueError(f"level {level} outside [1, {q}]")
        if bit not in (0, 1):
            raise ValueError(f"bit for level {level} must be 0/1")
        mask &= ((j0 >> (level - 1)) & 1) == bit
    return (j0[mask] + 1).astype(np.int64)


def select_positions(block, decoded_high_bits) -> np.ndarray:
    """Subblock of one received super-symbol selected by decoded higher bits.

    ``block`` has 2^q coordinates; ``decoded_high_bits`` are (x_{i+1},...,x_q)
    and the result is the 2^i coordinates whose index set matches them, in
    ascending index order.
    """
    block = np.asarray(block)
    high = np.asarray(decoded_high_bits, dtype=np.int64)
    q = int(round(math.log2(block.shape[0])))
    if (1 << q) != block.shape[0]:
        raise ValueError("block length must be a power of two")
    i = q - high.shape[0]
    if i < 0:
        raise ValueError("more high bits than levels")
    if high.size and not np.all((high == 0) | (high == 1)):
        raise ValueError("bits must be 0/1")
    # positions of index_set(q, x_{i+1:q}) are contiguous: offset+1 .. offset+2^i
    offset = int((high << np.arange(i, q, dtype=np.int64)).sum()) if high.size else 0
    return block[offset:offset + (1 << i)]


def detector_statistic(z, S, willie: Dmc) -> float:
    """The linear-code detector statistic of one observation ``z``: the mean
    centred likelihood ratio over positions S."""
    z = np.asarray(z, dtype=np.int64)
    S = np.asarray(S, dtype=np.int64)
    if S.size and (S.min() < 0 or S.max() >= z.shape[0]):
        raise ValueError("S indexes outside the observation")
    return float(willie.centred_ratio[z[S]].mean())


def gf2_rank_reference(mat) -> int:
    """Rank over GF(2) by Gaussian elimination with XOR row operations."""
    m = (np.asarray(mat, dtype=np.uint8) & 1).copy()
    rows, cols = m.shape
    rank = 0
    for c in range(cols):
        pivot = None
        for r in range(rank, rows):
            if m[r, c]:
                pivot = r
                break
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        for r in range(rows):
            if r != rank and m[r, c]:
                m[r] ^= m[rank]
        rank += 1
        if rank == rows:
            break
    return rank


def gf2_product_reference(v, g) -> np.ndarray:
    """v g over GF(2) as a boolean array, by a float32 product reduced mod 2
    (exact while k < 2^24)."""
    prod = np.asarray(v).astype(np.float32) @ np.asarray(g).astype(np.float32)
    return np.mod(np.rint(prod), 2.0) == 1.0


def detect_linear_code_reference(code, willie: Dmc, trials: int,
                                 rng: np.random.Generator):
    """``detect_linear_code`` for a warden of finite, positive chi2, with
    each codeword weight from the unpacked message bits, a
    ``gf2_product_reference`` product and a sum: the same stream (chunks of
    4096 trial pairs; per chunk the H0 histograms, the packed message bytes,
    then the H1 histograms from row1 and row0) and the same report."""
    chi2, chi3 = willie.stats.chi2, willie.stats.chi3
    if not 0.0 < chi2 < math.inf:
        raise ValueError("the reference needs 0 < chi2 < inf")
    S = distinct_columns_reference(code.generator)
    s, k = S.shape[0], code.k
    ratio = np.where(willie.row0 > 0, willie.centred_ratio, 0.0)
    t0, t1 = [], []
    for done in range(0, trials, 4096):
        n = min(4096, trials - done)
        t0.append(rng.multinomial(s, willie.row0, size=n) @ ratio / s)
        msg = rng.integers(0, 256, size=(n, -(-k // 8)), dtype=np.uint8)
        v = np.unpackbits(msg, axis=1, count=k, bitorder="little")
        w = gf2_product_reference(v, code.generator[:, S]).sum(axis=1)
        hist = rng.multinomial(w, willie.row1) + rng.multinomial(s - w, willie.row0)
        t1.append(hist @ ratio / s)
    t0, t1 = np.concatenate(t0), np.concatenate(t1)
    gamma = chi2 / 4.0
    b_s = 16.0 / (s * chi2) + 8.0 * chi3 / (s * chi2**2) - 4.0 / s
    b_k = (16.0 / chi2 + 8.0 * chi3 / chi2**2 - 4.0) / k
    return DetectionReport(
        gamma=gamma, trials=trials, s_size=s, k=k,
        alpha_hat=float(np.mean(t0 > gamma)), beta_hat=float(np.mean(t1 < gamma)),
        alpha_bound_s=16.0 / (s * chi2), beta_bound_s=max(b_s, 0.0),
        alpha_bound_k=16.0 / (k * chi2), beta_bound_k=max(b_k, 0.0),
        mean_t_h0=float(t0.mean()), mean_t_h1=float(t1.mean()),
        var_t_h0=float(t0.var(ddof=1)), var_t_h1=float(t1.var(ddof=1)),
        chi2=chi2, chi3=chi3,
    )


def detector_statistic_law(g, willie: Dmc):
    """The exact law of the detector statistic on the columns of ``g`` (a
    k x |S| generator restricted to S), by enumerating every output sequence
    on S: T of a sequence is its mean centred ratio, under H0 its probability
    is a product of row0 entries, and under H1 the product for each of the
    2^k codewords, averaged.  Returns (atoms, p0, p1): the distinct values
    of T in increasing order, values within 1e-9 of the last kept one merged
    into it, and their probabilities under each hypothesis."""
    g = np.asarray(g, dtype=np.int64)
    k, s = g.shape
    z = all_outputs(willie.alphabet_size, s)
    ratio = np.where(willie.row0 > 0, willie.centred_ratio, 0.0)
    t = ratio[z].mean(axis=1)
    rows = np.stack([willie.row0, willie.row1])
    p0 = rows[0][z].prod(axis=1)
    p1 = np.zeros_like(p0)
    for v in all_outputs(2, k):
        c = (v @ g) % 2
        p1 += rows[c, z].prod(axis=1)
    p1 /= 2**k
    order = np.argsort(t, kind="stable")
    t, p0, p1 = t[order], p0[order], p1[order]
    start = [0]
    for j in range(1, t.shape[0]):
        if t[j] - t[start[-1]] > 1e-9:
            start.append(j)
    return t[start], np.add.reduceat(p0, start), np.add.reduceat(p1, start)


def plan_from_text(text: str) -> RatePlan:
    """Parse a rate-plan document written by ``levels.plan_to_text``."""
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.strip().startswith("#")]
    if not lines or lines[0] != PLAN_HEADER:
        raise ValueError(f"not a rate-plan document (expected {PLAN_HEADER!r})")
    kv: dict[str, str] = {}
    for ln in lines[1:]:
        key, _, val = ln.partition("=")
        kv[key.strip()] = val.strip()
    q = int(kv["q"])
    per_level = tuple(
        LevelRates(
            level=i,
            r_u=float(kv[f"level.{i}.r_u"]),
            r_v=float(kv[f"level.{i}.r_v"]),
            r_k=float(kv[f"level.{i}.r_k"]),
        )
        for i in range(1, q + 1)
    )
    return RatePlan(
        q=q,
        ell=int(kv["ell"]),
        B=int(kv["B"]),
        delta=float(kv["delta"]),
        epsilon=float(kv["epsilon"]),
        u=int(kv["u"]),
        per_level=per_level,
        degraded=kv.get("degraded", "false") == "true",
    )


def pin_rates(plan: RatePlan, rates: dict[int, float]) -> RatePlan:
    """The plan with level i's rates pinned to (r_u, r_v, r_k) = (rates[i], 0, 0).

    At ``rate_scale`` 1 a session built from it gives level i
    floor(ell * rates[i]) message bits and no key or secret bits.
    """
    return dataclasses.replace(plan, per_level=tuple(
        LevelRates(lr.level, rates[lr.level], 0.0, 0.0) if lr.level in rates else lr
        for lr in plan.per_level))


def brute_ppm_divergence(dmc: Dmc, m: int) -> float:
    """D(P_ppm^m || P0^m) in nats by direct summation over every output block."""
    outs = all_outputs(dmc.alphabet_size, m)
    p0 = dmc.row0[outs].prod(axis=1)
    pulse = np.empty((m, outs.shape[0]))
    for d in range(m):
        cols = dmc.row0[outs].copy()
        cols[:, d] = dmc.row1[outs[:, d]]
        pulse[d] = cols.prod(axis=1)
    ppm = pulse.mean(axis=0)
    sup = ppm > 0
    if np.any(p0[sup] == 0):
        return float("inf")
    return float(np.sum(ppm[sup] * np.log(ppm[sup] / p0[sup])))


def binomial_logpmf(n: int, p: float) -> np.ndarray:
    """log P(K = k) for K ~ Bin(n, p), k = 0..n, stable for large n."""
    if p in (0.0, 1.0):
        logpmf = np.full(n + 1, -np.inf)
        logpmf[int(round(p * n))] = 0.0
        return logpmf
    k = np.arange(n + 1, dtype=np.float64)
    return (
        gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
        + k * math.log(p) + (n - k) * math.log1p(-p)
    )


def _xlogx(r: np.ndarray) -> np.ndarray:
    out = np.zeros_like(r)
    pos = r > 0
    out[pos] = r[pos] * np.log(r[pos])
    return out


def binary_divergence_reference(dmc: Dmc, m: int) -> float:
    """D(P_ppm^m || P0^m) in nats for a binary alphabet, by a loop over the
    count k of '1' outputs: sum_k Bin(m, P0(1))(k) * r(k) log r(k) with
    r(k) = (k lam1 + (m - k) lam0) / m.  Returns NaN when P0 is a point mass
    (0 * inf), which the library's support-restricted sum avoids.
    """
    if not dmc.stats.finite:
        return float("inf")
    lam0, lam1 = dmc.lam
    k = np.arange(m + 1, dtype=np.float64)
    logpmf = binomial_logpmf(m, float(dmc.row0[1]))
    r = (k * lam1 + (m - k) * lam0) / m
    terms = np.where(r > 0, np.exp(logpmf) * _xlogx(r), 0.0)
    return float(terms.sum())


def _compositions(total: int, parts: int):
    """Yield all histograms (t_1..t_parts) with sum == total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def type_class_divergence_reference(dmc: Dmc, m: int) -> float:
    """D(P_ppm^m || P0^m) in nats, one output histogram at a time."""
    if not dmc.stats.finite:
        return float("inf")
    row0 = dmc.row0
    lam = np.where(row0 > 0, dmc.lam, 0.0)  # no 0 * inf for symbols off both supports
    logp0 = np.where(row0 > 0, np.log(np.where(row0 > 0, row0, 1.0)), -np.inf)
    total = 0.0
    log_mfact = gammaln(m + 1)
    for t in _compositions(m, dmc.alphabet_size):
        tv = np.array(t, dtype=np.float64)
        if np.any((tv > 0) & (row0 == 0)):
            continue  # zero probability under P0^m (and under P_ppm)
        with np.errstate(invalid="ignore"):  # 0 * -inf, masked by the where
            logw = log_mfact - gammaln(tv + 1).sum() + float(
                np.sum(np.where(tv > 0, tv * logp0, 0.0))
            )
        r = float(np.dot(tv, lam)) / m
        if r > 0:
            total += math.exp(logw) * r * math.log(r)
    return total


def level_channel_rows(dmc: Dmc, i: int):
    """Transition rows of the level-i equivalent channel by full enumeration.

    Returns (row for bit 0, row for bit 1) over all alphabet^(2^i) output
    blocks, ordered with the last coordinate fastest.  Exponential in 2^i.
    """
    width = 1 << i
    a = dmc.alphabet_size
    n_out = a ** width
    grids = np.indices((a,) * width).reshape(width, n_out).T  # (n_out, width)
    p0 = dmc.row0[grids]  # (n_out, width)
    p1 = dmc.row1[grids]
    # w_j = P1(y_j) * prod_{t != j} P0(y_t), stable as direct products
    w = np.empty_like(p0)
    for j in range(width):
        cols = [p1[:, t] if t == j else p0[:, t] for t in range(width)]
        w[:, j] = np.prod(np.stack(cols, axis=1), axis=1)
    half = width // 2
    row_bit0 = w[:, :half].sum(axis=1) / half
    row_bit1 = w[:, half:].sum(axis=1) / half
    return row_bit0, row_bit1


def binary_input_mi(row_a: np.ndarray, row_b: np.ndarray) -> float:
    """Mutual information, in bits, of a binary-input channel with uniform
    input."""
    mix = 0.5 * (row_a + row_b)

    def ent(v):
        pos = v > 0
        return -float(np.sum(v[pos] * np.log(v[pos])))

    return (ent(mix) - 0.5 * (ent(row_a) + ent(row_b))) / LN2


def ones_count_mi(dmc: Dmc, i: int) -> float:
    """Level-i mutual information, in bits, of a binary-output channel over
    (k0, k1).

    Under level bit 0 the ones counts of the two halves are independent,
    k0 ~ Bern(P1(1)) + Bin(h-1, P0(1)) and k1 ~ Bin(h, P0(1)) with
    h = 2^(i-1); bit 1 swaps the halves.  The pair is a sufficient statistic
    for the level bit, so the mutual information over its (h+1)^2 atoms
    (restricted to their support) equals that over the 2^i-symbol outputs.
    """
    h = 1 << (i - 1)
    inner = np.exp(binomial_logpmf(h - 1, float(dmc.row0[1])))
    first = np.zeros(h + 1)
    first[:h] += dmc.row1[0] * inner
    first[1:] += dmc.row1[1] * inner
    second = np.exp(binomial_logpmf(h, float(dmc.row0[1])))
    sup = (first > 0) | (second > 0)
    a, b = first[sup], second[sup]
    return binary_input_mi(np.outer(a, b).ravel(), np.outer(b, a).ravel())


def distinct_columns_reference(generator) -> np.ndarray:
    """First index (0-based) of each distinct nonzero column, ascending."""
    g = np.asarray(generator)
    seen: dict[tuple, int] = {}
    for j in range(g.shape[1]):
        col = tuple(int(v) for v in g[:, j])
        if any(col) and col not in seen:
            seen[col] = j
    return np.array(sorted(seen.values()), dtype=np.int64)


def level_llrs_reference(lams) -> np.ndarray:
    """Level LLRs from rows of per-coordinate likelihood ratios.

    Each half is summed in sorted order, which makes the sum invariant under
    within-half permutations.  Infinite ratios saturate; a row whose halves
    both sum to zero, or both to infinity, gives 0.
    """
    lams = np.atleast_2d(np.asarray(lams, dtype=np.float64))
    n, width = lams.shape
    if width < 2 or (width & (width - 1)) != 0:
        raise ValueError("row length must be a power of two >= 2")
    half = width // 2
    s0 = np.sum(np.sort(lams[:, :half], axis=-1), axis=-1)
    s1 = np.sum(np.sort(lams[:, half:], axis=-1), axis=-1)
    out = np.empty(n, dtype=np.float64)
    inf0, inf1 = np.isinf(s0), np.isinf(s1)
    even = (inf0 & inf1) | ((s0 == 0) & (s1 == 0))
    out[even] = 0.0
    pos = inf0 & ~inf1 | ((s1 == 0) & ~inf0 & (s0 > 0))
    neg = inf1 & ~inf0 | ((s0 == 0) & ~inf1 & (s1 > 0))
    out[pos] = DEFAULT_LLR_MAX
    out[neg] = -DEFAULT_LLR_MAX
    rest = ~(even | pos | neg)
    with np.errstate(divide="ignore"):
        out[rest] = np.log(s0[rest] / s1[rest])
    return np.clip(out, -DEFAULT_LLR_MAX, DEFAULT_LLR_MAX)


def select_positions_batch_symbols(symbols, high_bits, i: int) -> np.ndarray:
    """The (ell, 2^i) symbol subblocks selected by the higher bits.

    Each row of the (ell, 2^q) symbols is read as (2^(q-i), 2^i) and the
    slice at d(higher bits) taken: the symbol-slicing path that the
    histogram read of ``select_positions_batch`` replaced.
    """
    symbols = np.asarray(symbols)
    ell, m = symbols.shape
    slot = decimal_values(np.asarray(high_bits).reshape(-1, ell))
    return symbols.reshape(ell, m >> i, 1 << i)[np.arange(ell), slot]


def level_llrs_symbols(symbols, lam) -> np.ndarray:
    """Level LLRs of (n, 2^i) rows of subblock symbols, counting each half.

    Symbols 1..|Z|-1 are counted with one comparison pass each and symbol 0
    takes the rest of the half; the counts go through the library's
    ``level_llrs``.  The path that the half histograms replaced.
    """
    symbols = np.atleast_2d(np.asarray(symbols))
    n, width = symbols.shape
    halves = symbols.reshape(n, 2, width // 2)
    rest = [np.count_nonzero(halves == a, axis=2) for a in range(1, lam.shape[0])]
    counts = np.stack([width // 2 - sum(rest)] + rest, axis=2)
    return level_llrs(counts[:, 0], counts[:, 1], lam)


def mixture_statistic_reference(lam, outputs) -> float:
    """The warden's mixture statistic sum_r log((1/m) sum_j lam(z_rj)) by a
    gather of every coordinate's ratio and a row mean."""
    return float(np.sum(np.log(np.asarray(lam).take(outputs).mean(axis=1))))


def output_from_symbols(symbols, pulses, alphabet_size: int) -> SuperOutput:
    """A pulse-path ``SuperOutput`` read off (ell, 2^q) output symbols with
    each row's pulse at its 0-based position in ``pulses``: z is the symbol
    at the pulse and S_k the counts of symbols 1..|Z|-1 in the sibling block
    (p >> k) ^ 1.  A row's path blocks and their siblings then count the
    symbols; any other block is split off a sibling by a generator seeded
    0, so it holds the symbols' counts, not their arrangement."""
    sym = np.asarray(symbols)
    ell, m = sym.shape
    q = m.bit_length() - 1
    p = np.broadcast_to(np.asarray(pulses, dtype=np.int64), (ell,))
    rows = np.arange(ell)
    siblings = []
    for k in range(q):
        block = sym.reshape(ell, m >> k, 1 << k)[rows, (p >> k) ^ 1]
        counts = [np.count_nonzero(block == a, axis=1) for a in range(1, alphabet_size)]
        siblings.append(np.stack(counts, axis=1).astype(np.min_scalar_type(1 << k)))
    z = sym[rows, p].astype(np.min_scalar_type(alphabet_size - 1))
    return SuperOutput(q, alphabet_size, p, z, siblings, np.random.default_rng(0))


def read_symbols(output: SuperOutput) -> np.ndarray:
    """The (ell, 2^q) symbols of an output, one ``block_histograms`` read of
    every width-1 block: blocks off a row's pulse path are split off its
    siblings and kept, so later reads agree with these symbols."""
    every = np.tile(np.arange(1 << output.q), (output.ell, 1))
    return output.block_histograms(0, every).argmax(axis=2)


def pyramid_level_llrs(symbols, lam) -> np.ndarray:
    """The library's level LLRs of (n, 2^i) rows of subblock symbols: each
    row is a super-symbol of order 2^i (``output_from_symbols``, pulses at
    0) whose top level (no higher bits) goes through
    ``select_positions_batch`` and ``level_llrs``.  The top level's halves
    are the path block and its sibling, whatever the pulses."""
    sym = np.atleast_2d(np.asarray(symbols))
    q = sym.shape[1].bit_length() - 1
    out = output_from_symbols(sym, 0, lam.shape[0])
    return level_llrs(*select_positions_batch(out, np.zeros(out.ell, dtype=np.int64), q),
                      lam)


def multinomial_pmf(total: int, row):
    """Exact Multinomial(total, row) law: every (n_atoms, |Z|) histogram of
    ``total`` outputs and its probability."""
    atoms = np.array(list(_compositions(total, len(row))), dtype=np.int64)
    return atoms, multinomial.pmf(atoms, total, row)


def half_histogram_pmf(dmc: Dmc, i: int):
    """Exact law of a level-i subblock's two per-half histograms under bit 0.

    Returns (atoms, pmf): ``atoms`` is (n_atoms, 2, |Z|), one pair of half
    histograms per atom, and ``pmf`` their probabilities.  The first half
    holds one row1 output and 2^(i-1) - 1 row0 outputs, the second half
    2^(i-1) row0 outputs, all independent.
    """
    h = 1 << (i - 1)
    grid, second = multinomial_pmf(h, dmc.row0)
    first = np.zeros(grid.shape[0])
    for sym in range(dmc.alphabet_size):
        rest = grid.copy()
        rest[:, sym] -= 1
        ok = rest[:, sym] >= 0
        first[ok] += dmc.row1[sym] * multinomial.pmf(rest[ok], h - 1, dmc.row0)
    n = grid.shape[0]
    atoms = np.stack([np.repeat(grid, n, axis=0), np.tile(grid, (n, 1))], axis=1)
    return atoms, np.outer(first, second).ravel()


def atom_counts(atoms, drawn) -> np.ndarray:
    """How many of the ``drawn`` histograms (any trailing shape) equal each
    of ``atoms``; every drawn histogram must be one of them."""
    flat = atoms.reshape(atoms.shape[0], -1)
    drawn = drawn.reshape(drawn.shape[0], -1)
    radix = (int(max(flat.max(), drawn.max(initial=0))) + 1) ** np.arange(flat.shape[1])
    keys, got = flat @ radix, drawn @ radix
    order = np.argsort(keys)
    at = order[np.clip(np.searchsorted(keys[order], got), 0, keys.size - 1)]
    assert np.array_equal(keys[at], got), "a drawn histogram is not an atom"
    return np.bincount(at, minlength=atoms.shape[0])


def pooled_chi2_pvalue(observed, expected) -> float:
    """Pearson's goodness-of-fit p-value, with the cells expected fewer than
    5 times pooled into one and empty expected cells dropped."""
    observed, expected = np.asarray(observed), np.asarray(expected, dtype=float)
    big = expected >= 5
    observed = np.append(observed[big], observed[~big].sum())
    expected = np.append(expected[big], expected[~big].sum())
    keep = expected > 0
    return float(chisquare(observed[keep], expected[keep]).pvalue)


def search_irreducible_reference(w: int) -> int:
    """Lowest-weight irreducible of degree w >= 2 by the full sequential
    search: every trinomial, then every pentanomial, each Rabin-tested."""
    base = (1 << w) | 1
    for a in range(1, w):
        if is_irreducible(base | (1 << a)):
            return base | (1 << a)
    for a in range(3, w):
        for b in range(2, a):
            for c in range(1, b):
                f = base | (1 << a) | (1 << b) | (1 << c)
                if is_irreducible(f):
                    return f
    raise AssertionError(f"no low-weight irreducible of degree {w}")


def bits_to_int_reference(bits) -> int:
    value = 0
    for t, b in enumerate(bits):
        value |= (int(b) & 1) << t
    return value


def int_to_bits_reference(value: int, width: int) -> np.ndarray:
    return np.array([(value >> t) & 1 for t in range(width)], dtype=np.uint8)


def _kron_all(vecs) -> np.ndarray:
    out = np.array([1.0])
    for v in vecs:
        out = np.kron(out, v)
    return out


def exact_tv(willie: Dmc, m: int, ell: int, pw_a: dict, pw_b: dict) -> float:
    """Exact total variation between the warden outputs induced by two
    distributions of pulse-position tuples (1-based positions)."""
    sym_dist = [
        _kron_all([willie.row1 if c == p else willie.row0 for c in range(1, m + 1)])
        for p in range(1, m + 1)
    ]
    dist = np.zeros(willie.alphabet_size ** (m * ell))
    for tup, w in pw_a.items():
        dist += w * _kron_all([sym_dist[p - 1] for p in tup])
    for tup, w in pw_b.items():
        dist -= w * _kron_all([sym_dist[p - 1] for p in tup])
    return 0.5 * float(np.abs(dist).sum())


def pw_from_joint_codebook(entries) -> dict[tuple[int, ...], float]:
    """Position distribution of a uniformly used joint codebook.

    ``entries`` is a sequence of (q, ell) bit matrices (level rows).
    """
    out: dict[tuple[int, ...], float] = {}
    w = 1.0 / len(entries)
    for bits in entries:
        frame = frame_from_bits(np.asarray(bits, dtype=np.uint8))
        key = tuple(int(p) for p in frame.positions)
        out[key] = out.get(key, 0.0) + w
    return out


def pw_from_level_sources(q: int, ell: int, sources) -> dict[tuple[int, ...], float]:
    """Position distribution with independent per-level sources.

    ``sources[i]`` (1-based level) is either the string ``"uniform"`` or a
    list of length-ell bit vectors used uniformly.  The product over levels
    is enumerated exactly.
    """
    per_level = []
    for i in range(1, q + 1):
        src = sources[i]
        if isinstance(src, str) and src == "uniform":
            per_level.append([np.array([(v >> t) & 1 for t in range(ell)], dtype=np.uint8)
                              for v in range(1 << ell)])
        else:
            per_level.append([np.asarray(c, dtype=np.uint8) for c in src])
    w = 1.0 / math.prod(len(choices) for choices in per_level)
    out: dict[tuple[int, ...], float] = {}
    for combo in itertools.product(*per_level):
        key = tuple(int(p) for p in frame_from_bits(np.stack(combo)).positions)
        out[key] = out.get(key, 0.0) + w
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def level_tvs_reference(scheme_stats, ref_stats, bins: int) -> dict[int, float]:
    """Each level's TV between the scheme's and the reference's statistics
    (rows of the two arrays, level 1 first) on ``bins`` cells cut at the
    pool's quantiles: a sort of the level's pool, ``np.quantile`` and a
    ``digitize``/``bincount`` of each side, one level at a time."""
    level_tv: dict[int, float] = {}
    for i, (a, r) in enumerate(zip(scheme_stats, ref_stats), start=1):
        pooled = np.sort(np.concatenate([a, r]))
        edges = np.quantile(pooled, np.linspace(0, 1, bins + 1)[1:-1])
        ha = np.bincount(np.digitize(a, edges, right=True), minlength=bins)
        hr = np.bincount(np.digitize(r, edges, right=True), minlength=bins)
        level_tv[i] = 0.5 * float(
            np.abs(ha / a.shape[0] - hr / r.shape[0]).sum()
        )
    return level_tv


def covertness_estimate_reference(session, blocks: int, rng: np.random.Generator, *,
                                  bins: int = 16) -> CovertnessEstimate:
    """``covertness_estimate`` one level at a time: per chunk, each level's
    halves gathered at d(its higher level bits) and turned into LLRs on
    their own, each level's reference bit-0 atom pairs drawn by their own
    ``LevelLaw.draw`` and mapped to LLRs on their own, and then each level's
    TV binned on its own (``level_tvs_reference``).  The same streams in the
    same order, read through the module's ``_CHUNK_ROWS``."""
    q, ell, m = session.q, session.ell, session.plan.m
    willie = session.willie
    seed = np.random.SeedSequence(
        rng.integers(0, 1 << 64, size=adversary._STREAM_SEED_WORDS, dtype=np.uint64))
    encoding, channel, reference, innocent = map(np.random.default_rng, seed.spawn(4))

    scheme_stats = np.empty((q, blocks * ell))
    ref_stats = np.empty((q, blocks * ell))
    scheme_lr = np.empty(blocks)
    innocent_lr = np.empty(blocks)

    per_chunk = max(1, adversary._CHUNK_ROWS // ell)
    for first in range(0, blocks, per_chunk):
        n = min(per_chunk, blocks - first)
        rows = slice(first * ell, (first + n) * ell)
        positions, level_bits = [], []
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
            frame, tx = codec.encode_block(session, messages, keys, encoding)
            positions.append(frame.positions)
            level_bits.append(tx.level_bits)
        bits = np.concatenate(level_bits, axis=1)
        willie_out = codec.transmit_block(
            session, PpmFrame(q, np.concatenate(positions)), channel, to_willie=True)
        for i in range(1, q + 1):
            scheme_stats[i - 1, rows] = level_llrs(
                *select_positions_batch(willie_out, decimal_values(bits[i:]), i), willie.lam)
        scheme_lr[first:first + n] = adversary._mixture_statistics(willie, willie_out, n)

        ref_bits = reference.integers(0, 2, size=(q, n * ell), dtype=np.uint8)
        for i in range(1, q + 1):
            law = level_law(willie, i)
            pulse, plain = law.draw(n * ell, reference)
            one = ref_bits[i - 1] == 1
            ref_stats[i - 1, rows] = law.llrs(np.where(one, plain, pulse),
                                              np.where(one, pulse, plain))

        innocent_lr[first:first + n] = adversary._root_mixture_statistics(
            willie, adversary._innocent_roots(willie, m, n * ell, innocent), m, n)

    level_tv = level_tvs_reference(scheme_stats, ref_stats, bins)
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
