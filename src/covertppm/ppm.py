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


def _unique(keys: np.ndarray) -> np.ndarray:
    """The distinct keys, ascending, by one sort (recent numpy's
    ``np.unique`` builds a hash table first, several times slower here)."""
    keys = np.sort(keys)
    return keys[np.concatenate([[True], keys[1:] != keys[:-1]])]


class SuperOutput:
    """Received super-symbols, read through the output histograms of their
    aligned blocks (:meth:`block_histograms`), never symbol by symbol.

    A histogram of a width-2^j block is stored as its counts of symbols
    1..|Z|-1 in the smallest unsigned dtype that holds 2^j; symbol 0's count
    is the rest of the block.  Per row the output keeps the 0-based pulse
    position p (``pulses``), the histograms S_k of the sibling blocks
    (p >> k) ^ 1, k = 0..q-1 (``siblings``), and the pulse path's histograms
    P_j = e_z + S_0 + ... + S_(j-1) of the blocks p >> j, j = 0..q, z the
    pulse's output (``path``); and it keeps the generator ``rng`` that the
    siblings were drawn from.  A query of a row's path block or its sibling
    reads these.

    Every other block of a row lies in one sibling S_k, and is split off it
    one height at a time.  A width-2^h node with counts c splits into two
    halves: the first half's count of each symbol a = 1..|Z|-1 in turn is
    hypergeometric, c_a marked among the node's uses not yet assigned, as
    many drawn as the half has left, and the second half holds the rest.
    One vectorised ``hypergeometric`` call per symbol splits all the nodes
    of one height that a query needs, from the kept generator, heights
    descending.  Every split is kept (per height, sorted by the key
    row * 2^(q-h) + block, whose parent's key is the key shifted right by
    one), so every answer agrees with one arrangement of the outputs.
    Given a node's counts, a uniformly random arrangement of them splits
    this way, so the outputs are iid: row1 at the pulse, row0 elsewhere.
    A wrong decision costs O(q |Z|) per row, never the 2^q symbols.
    Compared and hashed by identity.
    """

    def __init__(self, q: int, alphabet_size: int, pulses: np.ndarray, z: np.ndarray,
                 siblings: list[np.ndarray], rng: np.random.Generator):
        self.q, self.alphabet_size, self.ell = q, alphabet_size, int(pulses.shape[0])
        # per height k < q, the (ell, 2, |Z|-1) histograms of the path's
        # block and its sibling, so that one take answers a query of both
        halves, path = [], _one_hot(z, alphabet_size)
        for k, counts in enumerate(siblings):
            pair = np.empty((self.ell, 2, alphabet_size - 1), dtype=counts.dtype)
            pair[:, 0], pair[:, 1] = path, counts
            halves.append(pair)
            path = np.add(path, counts, dtype=np.min_scalar_type(2 << k))
        self.pulses = pulses
        self.path = tuple(pair[:, 0] for pair in halves) + (path,)
        self.siblings = tuple(pair[:, 1] for pair in halves)
        self._halves, self._pair_rows = halves, 2 * np.arange(self.ell)[:, None]
        self._rng = rng
        # per height, the kept split nodes: sorted keys and their counts
        self._kept = [(np.empty(0, dtype=np.int64),
                       np.empty((0, alphabet_size - 1), dtype=pair.dtype))
                      for pair in halves]

    def block_histograms(self, j: int, blocks: np.ndarray) -> np.ndarray:
        """Output histograms of chosen aligned width-2^j blocks of each row.

        ``blocks`` is an (ell, k) array whose row r holds block indices in
        0..2^(q-j)-1 of super-symbol r.  Returns the (ell, k, |Z|) counts of
        those blocks, symbol 0 first, in the smallest unsigned dtype that
        holds 2^j: a choice between P_j and S_j, or a block split off the
        sibling that holds it.
        """
        blocks = np.asarray(blocks)
        if j == self.q:  # the root is every row's path block
            picked = np.repeat(self.path[j][:, None], blocks.shape[1], axis=1)
        else:
            # 0 at the path's block, 1 at its sibling, more off the path
            rel = blocks.astype(np.intp, copy=False) ^ (self.pulses >> j)[:, None]
            off = np.nonzero(rel > 1) if rel.max(initial=0) > 1 else None
            rel += self._pair_rows
            flat = self._halves[j].reshape(2 * self.ell, self.alphabet_size - 1)
            # an off-path entry reads any pair here: its split overwrites it below
            picked = np.take(flat, rel, axis=0, mode="clip")
            if off is not None:
                keys = (off[0] << (self.q - j)) + blocks[off]
                picked[off] = self._split_off(j, keys)
        rest = (1 << j) - picked.sum(axis=2, dtype=picked.dtype, keepdims=True)
        return np.concatenate([rest, picked], axis=2)

    def _split_off(self, j: int, keys: np.ndarray) -> np.ndarray:
        """Counts of the off-path height-j nodes ``keys``, splitting every
        node not yet kept off its nearest kept or sibling ancestor."""
        q, missing, want = self.q, [], _unique(keys)
        # upwards: the nodes not kept at each height, then their parents
        # that are not the sibling
        for h in range(j, q):
            want = np.setdiff1d(want, self._kept[h][0], assume_unique=True)
            if not want.size:
                break
            missing.append(want)
            want = _unique(want >> 1)
            want = want[self._relative(h + 1, want) > 1]
        # downwards: split each missing pair's parent, topmost first
        for h in range(j + len(missing) - 1, j - 1, -1):
            parents = _unique(missing[h - j] >> 1)
            counts = self._node_counts(h + 1, parents)
            first = self._first_halves(counts, h + 1)
            pair = np.stack([first, counts - first], axis=1).reshape(-1, self.alphabet_size - 1)
            kept_keys, kept_counts = self._kept[h]
            new = np.stack([2 * parents, 2 * parents + 1], axis=1).ravel()
            merged = np.concatenate([kept_keys, new])
            order = np.argsort(merged)
            self._kept[h] = (merged[order],
                             np.concatenate([kept_counts, pair.astype(kept_counts.dtype)])[order])
        return self._node_counts(j, keys)

    def _relative(self, h: int, keys: np.ndarray) -> np.ndarray:
        """Each height-h node's block XOR its row's path block: 0 on the
        path, 1 at the sibling, more off the path."""
        shift = self.q - h
        return (keys & ((1 << shift) - 1)) ^ (self.pulses[keys >> shift] >> h)

    def _node_counts(self, h: int, keys: np.ndarray) -> np.ndarray:
        """Counts of height-h nodes ``keys``, each a sibling or kept."""
        out = self.siblings[h][keys >> (self.q - h)]
        kept_keys, kept_counts = self._kept[h]
        at = self._relative(h, keys) > 1
        out[at] = kept_counts[np.searchsorted(kept_keys, keys[at])]
        return out

    def _first_halves(self, counts: np.ndarray, h: int) -> np.ndarray:
        """Counts of the first halves of width-2^h nodes with ``counts``:
        symbol by symbol, one ``hypergeometric`` call over all the nodes."""
        first = np.empty_like(counts)
        left = np.full(counts.shape[0], 1 << h, dtype=np.int64)  # uses unassigned
        draws = np.full(counts.shape[0], 1 << (h - 1), dtype=np.int64)  # left in the half
        for a in range(counts.shape[1]):
            marked = counts[:, a].astype(np.int64)
            first[:, a] = got = self._rng.hypergeometric(marked, left - marked, draws)
            left -= marked
            draws -= got
        return first


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

    The output keeps the child, and any later split off a sibling draws
    from it.  So the draws take O(ell q |Z|) time and memory, not
    O(ell 2^q).
    """
    child = np.random.default_rng(
        rng.integers(0, 1 << 64, size=CHILD_SEED_WORDS, dtype=np.uint64))
    z = sample_outputs(dmc, 1, frame.ell, child)
    siblings = [child.multinomial(1 << k, dmc.row0, size=frame.ell)[:, 1:]
                .astype(np.min_scalar_type(1 << k)) for k in range(frame.q)]
    return SuperOutput(frame.q, dmc.alphabet_size, frame.positions - 1, z, siblings, child)


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
