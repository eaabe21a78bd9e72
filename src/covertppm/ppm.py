"""Pulse-position modulation: symbol mapping, super-channel simulation, and
exact output-distribution divergences.

A PPM symbol of order m = 2^q is a length-m binary vector with a single one.
The q level bits (x_1, ..., x_q), least-significant bit first, select the
pulse position

    position = d(x_{1:q}) + 1,   d(x) = sum_t x_t 2^(t-1),

so positions are 1-based throughout.  The super channel is m independent uses
of the underlying DMC; its output under a uniformly random pulse position is

    P_ppm(z_1..z_m) = P0(z_1)...P0(z_m) * (1/m) sum_j lam(z_j),

with lam(z) = P1(z)/P0(z) the per-coordinate likelihood ratio.  The mean
ratio R = (1/m) sum_j lam(z_j) is a sufficient statistic for everything this
module computes: in particular

    D(P_ppm || P0^m) = E_{P0^m}[ R log R ],

which depends on the output sequence only through its symbol histogram.  The
exact divergence is therefore one vectorised sum over the histograms of m
draws on the support of P0, weighted by their multinomial probabilities, for
every alphabet size (m + 1 histograms for a binary alphabet).  It is the only
divergence computed here, always in nats: past ``MAX_ALPHABET`` output
symbols or the histogram budget it refuses rather than estimate.

The histograms of h row0 draws and their log multinomial weights are one
table, :func:`histogram_table`, built once per (row0, h) and read by the
divergence and by the level laws of :mod:`~covertppm.levels`.  The tables,
the divergence sums and the laws share one byte-bounded cache
(:func:`cached`).  The weights use log-factorials from ``math.lgamma``, so
the module needs numpy and the standard library only.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .channels import Dmc, sample_outputs

#: histograms summed before the exact divergence refuses
DEFAULT_TYPE_BUDGET = 2_000_000
#: largest output alphabet handled by the exact divergence
MAX_ALPHABET = 6
#: uint64 words each ``transmit_super`` call draws to seed its child generator
CHILD_SEED_WORDS = 4


class EnumerationBudgetError(RuntimeError):
    """Exact type-class enumeration would exceed its budget.

    Raised by :func:`ppm_output_divergence` when the output alphabet or the
    histogram count is too large for the exact sum, and by
    :func:`histogram_table` and the level laws past the histogram budget.
    """


@dataclass(frozen=True, eq=False)
class PpmFrame:
    """A block of ell PPM symbols of order 2^q, stored as 1-based pulse
    positions; compared and hashed by identity."""

    q: int
    positions: np.ndarray

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("q must be >= 1")
        pos = np.asarray(self.positions, dtype=np.int64)
        if pos.ndim != 1:
            raise ValueError("positions must be a 1-D sequence")
        if pos.size and (pos.min() < 1 or pos.max() > self.m):
            raise ValueError(f"positions must lie in [1, {self.m}]")
        object.__setattr__(self, "positions", pos)

    @property
    def m(self) -> int:
        return 1 << self.q

    @property
    def ell(self) -> int:
        return int(self.positions.shape[0])


def _one_hot(symbols: np.ndarray, size: int) -> np.ndarray:
    """Counts of symbols 1..size-1 in one-symbol blocks, on a new last axis;
    for a binary alphabet the symbol is its own count of symbol 1 (a view)."""
    if size == 2:
        return symbols[..., None]
    return (symbols[..., None] == np.arange(1, size)).view(np.uint8)


def _pyramid_levels(symbols: np.ndarray, size: int, q: int) -> list[np.ndarray]:
    """Levels 1..q of the histogram pyramid of (rows, 2^q) symbols: level j
    holds each row's counts of symbols 1..size-1 in every aligned width-2^j
    block, in the smallest unsigned dtype that holds 2^j, each level the
    pairwise sums of the one below, starting from the one-hot symbols."""
    level = _one_hot(symbols, size)
    levels = []
    for j in range(1, q + 1):
        pairs = level.reshape(symbols.shape[0], 1 << (q - j), 2, level.shape[2])
        # unsafe: level 0 keeps the symbols' integer dtype, signed or wide
        level = np.add(pairs[:, :, 0], pairs[:, :, 1],
                       dtype=np.min_scalar_type(1 << j), casting="unsafe")
        levels.append(level)
    return levels


class SuperOutput:
    """Received super-symbols, read through the output histograms of their
    aligned blocks.

    Every statistic of the receivers reads a row through
    :meth:`block_histograms`, never symbol by symbol.  A histogram of a
    width-2^j block is stored as its counts of symbols 1..|Z|-1 in the
    smallest unsigned dtype that holds 2^j; symbol 0's count is the rest of
    the block.  Compared and hashed by identity.

    ``SuperOutput(q, symbols, alphabet_size)`` holds an (ell, 2^q) array of
    output-alphabet indices in 0..alphabet_size-1, kept in the integer dtype
    it comes in, and answers from its histogram ``pyramid``, built once on
    first use.  Level j of the pyramid holds every row's histograms of its
    width-2^j blocks, an (ell, 2^(q-j), |Z|-1) array.  Level 0 is the symbol
    array itself, no copy: its one-symbol blocks read as one-hot histograms
    (a binary symbol is its own count of symbol 1), and each level j >= 1
    adds the neighbouring blocks of level j-1 in pairs.  Levels 1..q take
    about (|Z|-1) bytes per channel use, at most twice that.

    An output of :func:`transmit_super` starts with no symbols.  Per row it
    keeps the 0-based pulse position p (``pulses``), the histograms S_k of
    the sibling blocks (p >> k) ^ 1, k = 0..q-1 (``siblings``), and the
    pulse path's histograms P_j = e_z + S_0 + ... + S_(j-1) of the blocks
    p >> j, j = 0..q, z the pulse's output (``path``); and it keeps the
    generator they were drawn from.  A query of a row's path block or its
    sibling reads these.  A row queried at any other block is materialized
    first, once: z goes to the pulse, and each S_k becomes a uniformly
    random arrangement of its counts over its sibling block, one
    ``permuted`` draw per height k = 0..q-1 from the kept generator for all
    the rows materialized together, in ascending order.  From then on that
    row answers from its pyramid, so every answer agrees with one array of
    symbols.  Given the counts, each sibling block's arrangement is uniform,
    so the symbols are iid outputs: row1 at the pulse, row0 elsewhere.
    ``symbols`` and ``pyramid`` materialize every row left.
    """

    def __init__(self, q: int, symbols, alphabet_size: int):
        sym = np.asarray(symbols)
        if not np.issubdtype(sym.dtype, np.integer):
            raise ValueError(f"symbols must be integers, got dtype {sym.dtype}")
        if q < 1:
            raise ValueError("q must be >= 1")
        if sym.ndim != 2 or sym.shape[1] != (1 << q):
            raise ValueError(f"symbols must have shape (ell, {1 << q})")
        if alphabet_size < 2:
            raise ValueError("the output alphabet needs at least 2 symbols")
        if sym.size and (sym.min() < 0 or sym.max() >= alphabet_size):
            raise ValueError("output symbol outside the alphabet")
        self.q, self.alphabet_size, self.ell = q, alphabet_size, int(sym.shape[0])
        self._symbols, self._levels = sym, None
        # no pulse path: every row is materialized
        self.pulses = self.path = self.siblings = None
        self._halves = self._pair_rows = self._z = self._rng = self._done = None

    @classmethod
    def _from_pulse_path(cls, q: int, alphabet_size: int, pulses: np.ndarray,
                         z: np.ndarray, siblings: list[np.ndarray],
                         rng: np.random.Generator) -> SuperOutput:
        out = cls.__new__(cls)
        out.q, out.alphabet_size, out.ell = q, alphabet_size, int(pulses.shape[0])
        # per height k < q, the (ell, 2, |Z|-1) histograms of the path's
        # block and its sibling, so that one take answers a query of both
        halves, path = [], _one_hot(z, alphabet_size)
        for k, counts in enumerate(siblings):
            pair = np.empty((out.ell, 2, alphabet_size - 1), dtype=counts.dtype)
            pair[:, 0], pair[:, 1] = path, counts
            halves.append(pair)
            path = np.add(path, counts, dtype=np.min_scalar_type(2 << k))
        out.pulses = pulses
        out.path = tuple(pair[:, 0] for pair in halves) + (path,)
        out.siblings = tuple(pair[:, 1] for pair in halves)
        out._halves, out._pair_rows = halves, 2 * np.arange(out.ell)[:, None]
        out._z, out._symbols, out._levels = z, None, None
        out._rng, out._done = rng, np.zeros(out.ell, dtype=bool)
        return out

    @property
    def symbols(self) -> np.ndarray:
        """The (ell, 2^q) output symbols, every row materialized."""
        self._materialize_rest()
        return self._symbols

    @property
    def pyramid(self) -> tuple[np.ndarray, ...]:
        """Levels 0..q of the histogram pyramid, every row materialized."""
        self._materialize_rest()
        if self._levels is None:
            self._levels = _pyramid_levels(self._symbols, self.alphabet_size, self.q)
        return (self._symbols, *self._levels)

    def _materialize_rest(self):
        if self._done is not None:
            self._materialize(np.flatnonzero(~self._done))

    def _materialize(self, rows: np.ndarray):
        """Lay out the symbols of the given unmaterialized rows (ascending)
        from their pulse path, and fill in their pyramid rows."""
        q, size, n = self.q, self.alphabet_size, rows.shape[0]
        dtype = np.min_scalar_type(size - 1)
        if self._symbols is None:
            # zero pages: only the rows written take memory
            self._symbols = np.zeros((self.ell, 1 << q), dtype=dtype)
            self._levels = [np.zeros((self.ell, 1 << (q - j), size - 1),
                                     dtype=np.min_scalar_type(1 << j))
                            for j in range(1, q + 1)]
        sym = np.empty((n, 1 << q), dtype=dtype)
        at, pulses = np.arange(n), self.pulses[rows]
        sym[at, pulses] = self._z[rows]
        for k, counts in enumerate(self.siblings):
            counts = counts[rows].astype(np.intp)
            full = np.concatenate([(1 << k) - counts.sum(axis=1, keepdims=True), counts],
                                  axis=1)
            ordered = np.repeat(np.tile(np.arange(size, dtype=dtype), n), full.ravel())
            block = sym.reshape(n, 1 << (q - k), 1 << k)
            block[at, (pulses >> k) ^ 1] = self._rng.permuted(
                ordered.reshape(n, 1 << k), axis=1)
        self._symbols[rows] = sym
        for level, part in zip(self._levels, _pyramid_levels(sym, size, q)):
            level[rows] = part
        self._done[rows] = True

    def block_histograms(self, j: int, blocks: np.ndarray) -> np.ndarray:
        """Output histograms of chosen aligned width-2^j blocks of each row.

        ``blocks`` is an (ell, k) array whose row r holds block indices in
        0..2^(q-j)-1 of super-symbol r.  Returns the (ell, k, |Z|) counts of
        those blocks, symbol 0 first: one gather from pyramid level j, or,
        for the rows of an output of :func:`transmit_super` that are still
        on their pulse path, a choice between P_j and S_j.
        """
        blocks = np.asarray(blocks)
        if self._done is None:
            picked = self.pyramid[j][np.arange(self.ell)[:, None], blocks]
            if j == 0:
                picked = _one_hot(picked, self.alphabet_size)
        else:
            # 0 at the path's block, 1 at its sibling
            rel = blocks.astype(np.intp, copy=False) ^ (self.pulses >> j)[:, None]
            top = int(j < self.q)  # the root has no sibling
            if rel.max(initial=0) > top:
                off = np.flatnonzero((rel > top).any(axis=1) & ~self._done)
                if off.size:
                    self._materialize(off)
            if top:
                # a materialized row may read any pair here: the pyramid overwrites it below
                rel += self._pair_rows
                flat = self._halves[j].reshape(2 * self.ell, self.alphabet_size - 1)
                picked = np.take(flat, rel, axis=0, mode="clip")
            else:
                picked = np.repeat(self.path[j][:, None], blocks.shape[1], axis=1)
            if self._done.any():
                done = np.flatnonzero(self._done)
                level = self._symbols if j == 0 else self._levels[j - 1]
                got = level[done[:, None], blocks[done]]
                picked[done] = _one_hot(got, self.alphabet_size) if j == 0 else got
        rest = (1 << j) - picked.sum(axis=2, keepdims=True)
        return np.concatenate([rest, picked], axis=2)


def decimal_values(bits) -> np.ndarray:
    """The LSB-first decimal map d(x) = sum_t x_t 2^(t-1) of every column of a
    (t, n) bit matrix whose row 0 holds x_1; zero rows give zeros."""
    bits = np.asarray(bits, dtype=np.int64)
    weights = (1 << np.arange(bits.shape[0], dtype=np.int64))[:, None]
    return (bits * weights).sum(axis=0)


def frame_from_bits(level_bits) -> PpmFrame:
    """Build a frame from a (q, ell) bit matrix whose row i-1 is level i."""
    bits = np.asarray(level_bits, dtype=np.int64)
    if bits.ndim != 2:
        raise ValueError("level_bits must be a (q, ell) matrix")
    return PpmFrame(q=bits.shape[0], positions=decimal_values(bits) + 1)


def transmit_super(dmc: Dmc, frame: PpmFrame, rng: np.random.Generator) -> SuperOutput:
    """Send a frame through the super channel: the pulse coordinate of each
    super-symbol is drawn from row1, all other coordinates from row0.

    The draws are those of the pulse path (see :class:`SuperOutput`), not
    of 2^q symbols per super-symbol.  The caller's generator gives
    ``CHILD_SEED_WORDS`` uint64 words, whatever the geometry, which seed
    a child generator; from the child, in this order:

    1. each super-symbol's pulse output z: ``sample_outputs`` with input 1
       over the ell rows (one uniform each);
    2. for k = 0..q-1, the sibling histograms S_k ~ Mult(2^k, row0): one
       ``multinomial`` call of size ell per height.

    The output keeps the child, and any later materialization draws from
    it.  So the draws take O(ell q |Z|) time and memory, not O(ell 2^q).
    """
    child = np.random.default_rng(
        rng.integers(0, 1 << 64, size=CHILD_SEED_WORDS, dtype=np.uint64))
    z = sample_outputs(dmc, 1, frame.ell, child)
    siblings = [child.multinomial(1 << k, dmc.row0, size=frame.ell)[:, 1:]
                .astype(np.min_scalar_type(1 << k)) for k in range(frame.q)]
    return SuperOutput._from_pulse_path(frame.q, dmc.alphabet_size, frame.positions - 1,
                                        z, siblings, child)


def all_histograms(m: int, s: int) -> list[np.ndarray]:
    """Every histogram of m draws over s symbols, as s columns of counts."""
    cols: list[np.ndarray] = []
    left = np.array([m])
    for _ in range(s - 1):
        reps = left + 1
        first = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        cols = [np.repeat(c, reps) for c in cols] + [first]
        left = np.repeat(left, reps) - first
    return cols + [left]


#: bytes of histogram tables, divergence sums and level laws kept in
#: memory, least recently used out first; a value larger than this is built
#: for its caller and not kept.  A session reads at most one law per level
#: for each channel, 7.6 MiB for bsc(0.1) at levels 1..16; the largest
#: binary law under the type budget (bsc(0.1) at level 21) holds 57 MiB
CACHE_BYTES = 1 << 27
_cache: OrderedDict = OrderedDict()
_cache_lock = threading.Lock()


def cached(key, build):
    """The value kept under ``key``, or ``build()`` kept there, in the one
    cache of at most ``CACHE_BYTES`` bytes (each value's ``nbytes``) that
    holds the histogram tables, the divergence sums and the level laws.
    ``build`` runs outside the lock; where two threads build one key, the
    first kept wins."""
    with _cache_lock:
        value = _cache.get(key)
        if value is not None:
            _cache.move_to_end(key)
            return value
    value = build()
    with _cache_lock:
        value = _cache.setdefault(key, value)
        _cache.move_to_end(key)
        held = sum(kept.nbytes for kept in _cache.values())
        while held > CACHE_BYTES:
            held -= _cache.popitem(last=False)[1].nbytes
    return value


@dataclass(frozen=True, eq=False)
class HistogramTable:
    """Every histogram of h row0 draws on row0's support: ``counts`` holds
    one per row over the whole alphabet (int64, zero off the support), and
    ``log_weights`` its log Mult(h, row0) probability.  Read-only; compared
    and hashed by identity."""

    counts: np.ndarray
    log_weights: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.counts.nbytes + self.log_weights.nbytes


def histogram_table(dmc: Dmc, h: int) -> HistogramTable:
    """The histograms of ``h`` >= 0 draws from ``dmc.row0`` and their
    multinomial log probabilities, under which the exact divergence and the
    level laws sum.

    The weight of t is log h! + sum_a (t_a log row0[a] - log t_a!), over
    the support symbols in ascending order, from a table of log-factorials
    log k! = ``math.lgamma(k + 1)``, k = 0..h (all 0 with one support
    symbol, whose one histogram (h) has coefficient 1).  The table depends
    on row0 alone, so it is cached by (row0's bytes, h) (:func:`cached`):
    equal channels share it.  Refuses with :class:`EnumerationBudgetError`,
    before any histogram is formed, past ``DEFAULT_TYPE_BUDGET`` histograms.
    """
    return cached((dmc.row0.tobytes(), h), lambda: _histogram_table(dmc.row0, h))


def _histogram_table(row0: np.ndarray, h: int) -> HistogramTable:
    on = np.flatnonzero(row0 > 0)
    n = math.comb(h + on.size - 1, on.size - 1)
    if n > DEFAULT_TYPE_BUDGET:
        count = n if n < 1 << 64 else f"at least 2^{n.bit_length() - 1}"
        raise EnumerationBudgetError(f"{count} type classes exceed budget {DEFAULT_TYPE_BUDGET}")
    log_fact = (np.fromiter(map(math.lgamma, range(1, h + 2)), float, h + 1)
                if on.size > 1 else np.zeros(h + 1))
    counts = np.zeros((n, row0.size), dtype=np.int64)
    log_w = np.full(n, log_fact[h])
    for a, t in zip(on, all_histograms(h, on.size)):
        counts[:, a] = t
        log_w += t * math.log(row0[a]) - log_fact[t]
    counts.flags.writeable = log_w.flags.writeable = False
    return HistogramTable(counts=counts, log_weights=log_w)


def ppm_output_divergence(dmc: Dmc, m: int) -> float:
    """Exact per-super-symbol divergence D(P_ppm^m || P0^m), in nats.

    ``m`` must be a power of two (the PPM order).  One sum over the
    histograms t of m draws on the support of P0 (:func:`histogram_table`),
    for every alphabet:

        D = sum_t Mult(m, P0)(t) * (r log r - r + 1),   r(t) = (t . lam) / m,

    which equals E[r log r] because the weights and E[r] both sum to one.
    Every term is nonnegative, so the sum does not cancel; r - 1 is formed
    from the centred ratio, as sum_a t_a centred_a / m, so terms with r
    near 1 keep their digits.  A histogram with r = 0 contributes
    0 log 0 = 0.  Where r log r would pass the largest double (r near 1/P0
    for a row0 entry near the float floor), the term w (r log r - r + 1) is
    regrouped as (w r)(log r - 1) + w: every term is at most the sum, which
    is at most D(P1 || P0), so w r stays finite and no 0 * inf makes a NaN.

    The sum depends on the two rows alone, so it is kept beside its table
    in the one cache (:func:`cached`), by (row0's bytes, row1's bytes, m):
    equal channels, and the two levels that share an order, sum it once.

    Refuses with :class:`EnumerationBudgetError` when the alphabet exceeds
    ``MAX_ALPHABET`` or the histogram count exceeds ``DEFAULT_TYPE_BUDGET``.
    Returns ``inf`` when P1 has mass outside the support of P0.
    """
    if m < 1 or (m & (m - 1)) != 0:
        raise ValueError(f"m must be a power of two, got {m}")
    if dmc.alphabet_size > MAX_ALPHABET:
        raise EnumerationBudgetError(
            f"alphabet size {dmc.alphabet_size} exceeds the exact-sum "
            f"limit {MAX_ALPHABET}"
        )
    if not dmc.stats.finite:
        return float("inf")
    support = np.flatnonzero(dmc.row0 > 0)
    if support.size == 1:  # P1 = P0, both on P0's one-point support
        return 0.0
    key = (dmc.row0.tobytes(), dmc.row1.tobytes(), m)
    return float(cached(key, lambda: _divergence_sum(dmc, support, m)))


def _divergence_sum(dmc: Dmc, support: np.ndarray, m: int) -> np.float64:
    table = histogram_table(dmc, m)
    excess = np.zeros(table.log_weights.size)  # r - 1
    for a in support:
        # t/m <= 1: no overflow before the sum
        excess += table.counts[:, a] * (dmc.centred_ratio[a] / m)
    weights = np.exp(table.log_weights)
    r = 1.0 + excess
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_r = np.log1p(excess)
        terms = np.where(r > 0, r * log_r, 0.0) - excess  # 0 log 0 = 0
        products = weights * terms
    # r log r past the largest double: w (r log r - r + 1) regrouped as
    # (w r)(log r - 1) + w, whose factors stay finite
    big = np.isinf(terms)
    products[big] = weights[big] * r[big] * (log_r[big] - 1.0) + weights[big]
    return np.float64(max(float(np.sum(products)), 0.0))  # with nbytes, for the cache


def ppm_divergence_bound(chi2: float, m: int, ell: int) -> float:
    """Leading-order bound ell * chi2 / (2m), in nats, on the divergence of
    ell uses of the uniform-PPM output from the all-innocent distribution.

    Leading order only: the O(1/m) correction is not included, so the exact
    value from :func:`ppm_output_divergence` is the ground truth.
    """
    if m < 2:
        raise ValueError("m must be >= 2 for the leading-order bound")
    if ell < 0:
        raise ValueError("ell must be >= 0")
    return ell * chi2 / (2.0 * m)
