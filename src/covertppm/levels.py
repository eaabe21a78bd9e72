"""Per-level equivalent channels, capacity tables, and MSD rate planning.

Level i of the multilevel decomposition sees a stationary binary-input
channel whose output is the 2^i-coordinate subblock selected by the already
decoded higher-level bits; the pulse sits in the first half of the subblock
when the level bit is 0 and in the second half otherwise.  Its transition law
is a half-sum of per-coordinate likelihood ratios, so

  * the level log-likelihood ratio is
        log( sum of ratios over the first half / sum over the second half ),
    and each half-sum is sum_a c_a * lam_a over that half's output-symbol
    histogram c: the two per-half histograms are a sufficient statistic for
    the level bit, and the receivers compute the LLR from them directly (no
    per-coordinate ratios, no sort).  The law of that statistic under
    level bit 0 depends on i alone (the channel is stationary):
    :func:`level_law` tabulates it exactly, as the histograms of 2^(i-1)
    draws with their probabilities in the half that holds the pulse and in
    the plain half, and code construction and the warden's uniform-PPM
    reference draw atom index pairs from that table by inverse CDF, never
    2^i individual outputs;
  * the level capacity has the closed form
        C_i = D(P_ppm^(2^(i-1)) || P0^(2^(i-1))) - D(P_ppm^(2^i) || P0^(2^i)),
    independent of the total number of levels q >= i, when P1 has no mass
    outside the support of P0.  Otherwise an output off that support (mass
    pi under P1) comes only from the pulse and reveals the level bit, and
    its occurrence is independent of the bit; so C_i = pi + (1 - pi) C_i'
    bits, where C_i' is the closed form for P1 restricted to P0's support.

Both rest on one table: the histograms of h row0 draws and their
multinomial weights (:func:`~covertppm.ppm.histogram_table`), which the
divergences of the capacities sum over and the level laws reweight.  It is
enumerated once per (row0, h) and kept, with the laws, in the one
byte-bounded cache of :func:`~covertppm.ppm.cached`.

Units are fixed by the quantity: level capacities, mutual-information tables
and plan rates are bits per super-symbol use (the bits a level code carries)
and throughputs bits per sqrt(n delta); divergences, the chi2 capacity bound
and LLRs are nats.

The planner turns the per-level mutual-information tables for Bob and Willie
into per-level rate triples (message, secret surplus, key deficit) and a
super-channel blocklength matched to the covertness budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import parallel
from .channels import (LN2, ChannelError, Dmc, DivergenceStats, is_degraded, make_dmc,
                       running_cdf)
from .ppm import (
    DEFAULT_TYPE_BUDGET,
    EnumerationBudgetError,
    SuperOutput,
    cached,
    histogram_table,
    ppm_output_divergence,
)

#: most levels a table holds: it forms the top level's order 2^q first
MAX_LEVELS = 1 << 16
#: decoder LLR saturation, nats; only active off the support assumptions
DEFAULT_LLR_MAX = 40.0


class RatePlanError(ValueError):
    """Raised when no feasible rate plan exists for the requested parameters."""


def level_capacity(dmc: Dmc, i: int) -> float:
    """Exact capacity of level ``i`` in bits, valid for any total number of
    levels q >= i.

    Let pi = P1(outputs outside the support of P0).  Such an output can only
    come from the pulse, so it reveals the level bit, and whether one occurs
    does not depend on the bit; hence

        C_i = pi + (1 - pi) * C_i(P0, P1'),

    with P1' = P1 restricted to the support of P0 and renormalised, whose
    capacity is the divergence difference of the module docstring (in nats)
    divided by ln 2.  The two divergences sum over cached histogram tables
    (:func:`~covertppm.ppm.histogram_table`), which the level laws share.
    """
    if i < 1:
        raise ValueError("level index must be >= 1")
    if not dmc.stats.finite:
        on_support = np.where(dmc.row0 > 0, dmc.row1, 0.0)
        kept = float(on_support.sum())
        if kept == 0.0:
            return 1.0
        inner = make_dmc(dmc.row0, on_support / kept)
        cap = (1.0 - kept) + kept * level_capacity(inner, i)
    else:
        # the larger order first: a refused budget stops before any sum
        try:
            lo = ppm_output_divergence(dmc, 1 << i) / LN2
        except EnumerationBudgetError as e:
            raise EnumerationBudgetError(f"level {i}: {e}") from None
        cap = ppm_output_divergence(dmc, 1 << (i - 1)) / LN2 - lo
    # a level bit is binary, so its capacity lies in [0, 1] bits; the
    # divergence difference rounds past 1 on near-noiseless channels (by
    # 5.5e-11 for bsc(1e-300) at level 1)
    return min(max(cap, 0.0), 1.0)


def level_capacity_bound(stats: DivergenceStats, i: int) -> float:
    """Three-term upper bound on the level-i capacity, in nats.

    ``stats`` are the divergence statistics of the pair (P1, P0).  The bound
    is an asymptotic expansion; for small i it may fall below the exact value,
    which the tests record rather than assert away.  When P1 has mass outside
    the support of P0 (chi2 infinite), or a term overflows, it is the
    vacuous bound ``inf``.
    """
    if i < 1:
        raise ValueError("level index must be >= 1")
    if not stats.finite:
        return float("inf")
    c2, th, rh = stats.chi2, stats.theta, stats.rho
    try:
        bound = (
            c2 / (1 << i)
            - (th - c2 - 2.0 * c2**3) / (1 << (2 * i - 1))
            + (rh - 3.0 * c2) / (3.0 * (1 << (3 * (i - 1))))
        )
    except OverflowError:
        return float("inf")
    return bound if math.isfinite(bound) else float("inf")


@dataclass(frozen=True)
class LevelMiRow:
    level: int
    i_y: float
    i_z: float
    diff: float  # i_z - i_y


def level_mi_table(bob: Dmc, willie: Dmc, q: int) -> list[LevelMiRow]:
    """Per-level mutual informations for both channels and their difference,
    in bits, level 1 first.

    Computed from level q down, so that a level past the exact divergence's
    budget is refused before any sum is formed; q is bounded by
    ``MAX_LEVELS`` before the top level's order 2^q is formed.  Levels i
    and i + 1 share the order 2^i, and Bob's and Willie's channels may be
    equal: each order's histograms are enumerated once per row0, and each
    divergence summed once per channel, in the one cache of
    :func:`~covertppm.ppm.cached`."""
    if not 1 <= q <= MAX_LEVELS:
        raise ValueError(f"q must lie in [1, {MAX_LEVELS}], got {q}")
    rows = []
    for i in range(q, 0, -1):
        iy = level_capacity(bob, i)
        iz = level_capacity(willie, i)
        rows.append(LevelMiRow(level=i, i_y=iy, i_z=iz, diff=iz - iy))
    return rows[::-1]


@dataclass(frozen=True)
class LevelRates:
    level: int
    r_u: float  # message rate, bits per super-symbol use
    r_v: float  # secret surplus reusable as next-block key
    r_k: float  # key deficit


@dataclass(frozen=True)
class RatePlan:
    """Operating point of the multilevel scheme.

    Rates are in bits per super-symbol use.  ``u`` is the highest level
    coded for reliability; levels u+1..q are resolvability-only.  At most one
    of ``r_v``/``r_k`` is positive on each level.
    """

    q: int
    ell: int
    B: int
    delta: float
    epsilon: float
    u: int
    per_level: tuple[LevelRates, ...]
    degraded: bool = False

    @property
    def m(self) -> int:
        return 1 << self.q

    def __post_init__(self):
        if self.ell < 1:
            raise RatePlanError("blocklength zero")
        if len(self.per_level) != self.q:
            raise ValueError("per_level must have one entry per level")
        for lr in self.per_level:
            if min(lr.r_u, lr.r_v, lr.r_k) < 0:
                raise ValueError("rates must be nonnegative")
            if lr.r_v > 0 and lr.r_k > 0:
                raise ValueError("r_v and r_k cannot both be positive")

    def sum_ru(self) -> float:
        return sum(lr.r_u for lr in self.per_level)

    def sum_rv(self) -> float:
        return sum(lr.r_v for lr in self.per_level)

    def sum_rk(self) -> float:
        return sum(lr.r_k for lr in self.per_level)


def _check_budget(delta: float, chi2_willie: float) -> None:
    if not (math.isfinite(delta) and delta >= 0):
        raise RatePlanError(f"delta must be finite and >= 0, got {delta}")
    if math.isinf(chi2_willie):
        raise RatePlanError(
            "Willie's chi2 is infinite (Q1 has mass outside the support of Q0): "
            "no blocklength is covert"
        )


def planned_blocklength(m: int, delta: float, B: int, chi2_willie: float) -> int:
    """Super-channel blocklength floor(2 m delta / (B chi2)) for the budget.

    The floor carries a 1e-9 guard so exactly-integer operating points (the
    BSC designs hit them) do not lose a unit to floating-point fuzz.  delta
    must be finite and non-negative, and small enough that the quotient is
    finite.
    """
    _check_budget(delta, chi2_willie)
    if chi2_willie <= 0:
        raise RatePlanError("Willie's chi2 is zero: any blocklength is covert")
    try:
        ell = 2.0 * m * delta / (B * chi2_willie)
    except OverflowError:           # m too large for a float
        ell = math.inf
    if not math.isfinite(ell):
        raise RatePlanError(
            f"delta = {delta!r} is too large: the blocklength "
            f"2 m delta / (B chi2) is not finite")
    return int(math.floor(ell + 1e-9))


def msd_rate_plan(
    bob: Dmc,
    willie: Dmc,
    q: int,
    delta: float,
    B: int = 1,
    epsilon: float = 0.05,
    *,
    degraded: bool = False,
    ell_override: int | None = None,
) -> RatePlan:
    """Build the multistage-decoding operating point.

    Per level, with I_Y/I_Z the level mutual informations for Bob and Willie:

        r_u = min(I_Y - eps/q, I_Z + eps/q)
        r_v = max(0, I_Y - I_Z - 2 eps/q)
        r_k = max(0, I_Z - I_Y + 2 eps/q)

    all clamped at zero.  In the degraded case (Willie's channel a further
    degradation of Bob's) the plan simplifies to r_u = I_Y - eps/q with no
    secrets and no keys.  The claim is checked with
    :func:`~covertppm.channels.is_degraded`, and a false one raises
    ``RatePlanError``.  The blocklength is floor(2 m delta / (B chi2)) with
    chi2 of Willie's pair, unless ``ell_override`` is given.  A warden whose
    chi2 is infinite (Q1 has mass outside the support of Q0) is rejected
    whatever the blocklength, before the degradedness check, and so are a
    delta that is not finite and non-negative and an epsilon that is not
    finite and positive.

    ``u`` is the smallest cutoff for which the levels above it hold less
    than 1% of the total Bob-side capacity.
    """
    if q < 1:
        raise RatePlanError(f"need at least one level, got q = {q}")
    _check_budget(delta, willie.stats.chi2)
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise RatePlanError(f"epsilon must be finite and > 0, got {epsilon}")
    if B < 1:
        raise RatePlanError("B must be >= 1")

    if ell_override is not None:
        ell = int(ell_override)
    else:
        ell = planned_blocklength(1 << q, delta, B, willie.stats.chi2)
    if ell < 1:
        raise RatePlanError(
            "blocklength zero: delta too small for the chosen order and block count"
        )

    if degraded and not is_degraded(bob, willie):
        raise RatePlanError(
            "degraded plan asked for, but Willie's channel is not a degraded "
            "version of Bob's (Bob's ROC curve does not dominate Willie's)"
        )

    mi = level_mi_table(bob, willie, q)
    eps_q = epsilon / q
    per_level = []
    for row in mi:
        if degraded:
            r_u, r_v, r_k = max(row.i_y - eps_q, 0.0), 0.0, 0.0
        else:
            r_u = max(min(row.i_y - eps_q, row.i_z + eps_q), 0.0)
            r_v = max(row.i_y - row.i_z - 2.0 * eps_q, 0.0)
            r_k = max(row.i_z - row.i_y + 2.0 * eps_q, 0.0)
        per_level.append(LevelRates(level=row.level, r_u=r_u, r_v=r_v, r_k=r_k))

    if all(lr.r_u == 0 and lr.r_v == 0 for lr in per_level):
        raise RatePlanError("all rates are zero: epsilon too large for this pair")

    total = sum(row.i_y for row in mi)
    u = q
    for cut in range(1, q + 1):
        tail = sum(row.i_y for row in mi if row.level > cut)
        if total == 0 or tail < 0.01 * total:
            u = cut
            break

    return RatePlan(
        q=q, ell=ell, B=B, delta=delta, epsilon=epsilon, u=u,
        per_level=tuple(per_level), degraded=degraded,
    )


@dataclass(frozen=True)
class ThroughputSummary:
    covert_throughput: float
    key_throughput: float
    covert_capacity: float
    key_capacity: float
    message_bits: float
    key_bits: float
    n: int
    degenerate: bool = False


def throughput_summary(
    plan: RatePlan,
    bob_stats: DivergenceStats,
    willie_stats: DivergenceStats,
) -> ThroughputSummary:
    """Realised throughputs of a plan against the square-root-law capacities.

    Message bits are B * ell * sum(r_u + r_v); key bits amortise the chained
    first-block cost  ell*sum(r_k) + (B-1) * ell * (sum(r_k) - sum(r_v))^+ .
    Both are normalised by sqrt(n * delta) with n = B * m * ell channel uses.
    Capacities are sqrt(2/chi2) * D(P1||P0)  and  the clamped key analogue
    sqrt(2/chi2) * (D(Q1||Q0) - D(P1||P0))^+, in bits like the plan's rates.
    """
    n = plan.B * plan.m * plan.ell
    if n == 0:
        raise RatePlanError("zero blocklength")
    chi2 = willie_stats.chi2
    if chi2 == 0.0 or plan.delta == 0.0:
        return ThroughputSummary(
            covert_throughput=0.0, key_throughput=0.0,
            covert_capacity=0.0, key_capacity=0.0,
            message_bits=plan.B * plan.ell * (plan.sum_ru() + plan.sum_rv()),
            key_bits=0.0, n=n, degenerate=True,
        )
    # the product n * delta can overflow where the two roots do not
    norm = math.sqrt(n) * math.sqrt(plan.delta)
    message_bits = plan.B * plan.ell * (plan.sum_ru() + plan.sum_rv())
    key_bits = plan.ell * plan.sum_rk() \
        + (plan.B - 1) * plan.ell * max(plan.sum_rk() - plan.sum_rv(), 0.0)
    scale = math.sqrt(2.0 / chi2)
    conv = 1.0 / LN2  # the divergences are in nats
    return ThroughputSummary(
        covert_throughput=message_bits / norm,
        key_throughput=key_bits / norm,
        covert_capacity=scale * bob_stats.kl * conv,
        key_capacity=max(scale * (willie_stats.kl - bob_stats.kl) * conv, 0.0),
        message_bits=message_bits,
        key_bits=key_bits,
        n=n,
    )


# ---------------------------------------------------------------------------
# the level channel: its statistic, its LLR and its sampler
# ---------------------------------------------------------------------------

def select_positions_batch(
    output: SuperOutput, blocks: np.ndarray, i: int
) -> tuple[np.ndarray, np.ndarray]:
    """Output histograms of the two halves of each selected level-i subblock.

    ``blocks`` is the (ell,) index d of each row's subblock, the aligned
    width-2^i block of the coordinates whose level bits i+1..q are the
    row's higher bits: d = d(higher bits), which for the bits sent is
    (pulse position - 1) >> i.  Its first half belongs to level bit
    x_i = 0.  Its halves are the aligned width-2^(i-1) blocks 2d and 2d+1,
    so the returned (ell, |Z|) counts of the first and the second half are
    two views of one ``block_histograms`` read at height i-1: with the
    right higher bits, the pulse path's block and its sibling.
    """
    q, ell = output.q, output.ell
    if not 1 <= i <= q:
        raise ValueError(f"level must lie in [1, {q}], got {i}")
    if blocks.shape != (ell,):
        raise ValueError(f"blocks must have shape ({ell},), got {blocks.shape}")
    first = 2 * blocks
    halves = output.block_histograms(i - 1, np.stack([first, first + 1], axis=1))
    return halves[:, 0], halves[:, 1]


def likelihood_sums(counts: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """sum_a c_a * lam_a for each (n, |Z|) histogram row, where a 0 * inf
    term counts as 0.  Symbol by symbol in a fixed order, so equal
    histograms give equal sums."""
    total = np.zeros(counts.shape[0])
    for a, ratio in enumerate(lam):
        if np.isinf(ratio):
            total[counts[:, a] > 0] = np.inf
        else:
            total += counts[:, a] * ratio
    return total


def level_llrs(first: np.ndarray, second: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Level LLRs, natural log, from the (n, |Z|) output-symbol histograms of
    the first and the second half of each subblock, as
    :func:`select_positions_batch` returns them.

    ``lam`` holds the per-symbol likelihood ratios row1/row0.  The LLR for
    bit 0 versus 1 is log(sum of ratios over the first half / sum over the
    second half), each half-sum formed from the half's histogram
    (:func:`likelihood_sums`) and the pair turned into an LLR by
    :func:`llrs_from_sums`.  Histograms over another alphabet than
    ``lam``'s raise ``ValueError``.  The LLR depends on a row only through
    its two histograms, so it is bitwise invariant under permutations within
    each half.
    """
    shape = (first.shape[0], lam.shape[0])
    if first.shape != shape or second.shape != shape:
        raise ValueError(f"half histograms must have shape (n, {lam.shape[0]}), "
                         f"got {first.shape} and {second.shape}")
    return llrs_from_sums(likelihood_sums(first, lam), likelihood_sums(second, lam))


def llrs_from_sums(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Level LLRs log(first / second) from the two halves' likelihood sums.

    Both halves infinite, or both zero, give 0: the halves are then equally
    likely.  One half infinite, or the other half zero, gives
    +-``DEFAULT_LLR_MAX``, as does any finite LLR beyond it.  The receivers
    (:func:`level_llrs`) and the level law's draws (:meth:`LevelLaw.llrs`)
    both end here, so equal sums give bitwise equal LLRs.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.log(first / second)
    out[np.isnan(out)] = 0.0  # both halves infinite, or both zero
    return np.clip(out, -DEFAULT_LLR_MAX, DEFAULT_LLR_MAX, out=out)


#: guide-table buckets of a :class:`TableSampler`: the power of two at least
#: four per atom, within these bounds
_GUIDE_BUCKETS = (1 << 10, 1 << 16)


@dataclass(frozen=True, eq=False)
class TableSampler:
    """Exact inverse-CDF draws of atom indices from a pmf, through a guide
    table (Chen & Asau, AIIE Trans. 1974).

    ``cdf`` is the pmf's running sum, lifted to exactly 1 from its last atom
    of positive mass on (as the channel CDFs are), so an atom of zero mass is
    never drawn.  The atom of a uniform u in [0, 1) is
    ``searchsorted(cdf, u, side="right")``, bit for bit.  ``guide`` splits
    [0, 1) into K = 2^b buckets [k/K, (k + 1)/K); k = floor(u K) is exact,
    since K is a power of two.  Every u of bucket k draws an atom between
    the atoms of its two edges, so a bucket whose edges draw the same atom
    holds it in ``guide``, and the few u in the other buckets (holding -1)
    run the binary search.  Compared and hashed by identity.
    """

    cdf: np.ndarray
    guide: np.ndarray

    @classmethod
    def from_pmf(cls, pmf: np.ndarray) -> TableSampler:
        cdf = running_cdf(pmf)
        lo, hi = _GUIDE_BUCKETS
        buckets = min(max(1 << (4 * cdf.size - 1).bit_length(), lo), hi)
        edge = np.searchsorted(cdf, np.arange(buckets + 1) / buckets, side="right")
        guide = np.where(edge[1:] == edge[:-1], edge[:-1], -1)
        guide.flags.writeable = False
        return cls(cdf=cdf, guide=guide)

    def draw(self, u: np.ndarray) -> np.ndarray:
        """The atom index of each uniform in ``u`` (each in [0, 1))."""
        out = self.guide[(u * self.guide.size).astype(np.intp)]
        split = np.flatnonzero(out < 0)
        out[split] = np.searchsorted(self.cdf, u[split], side="right")
        return out


@dataclass(frozen=True, eq=False)
class LevelLaw:
    """Exact law of level i's sufficient statistic under level bit 0.

    ``histograms`` holds, one per row, every output histogram of 2^(i-1)
    draws with positive mass in either half; ``pulse_pmf`` is its law in the
    first half (one row1 output and 2^(i-1) - 1 row0 outputs) and
    ``plain_pmf`` in the second half (2^(i-1) row0 outputs), and the two
    halves are independent.  ``sums`` are the histograms' likelihood sums
    (:func:`likelihood_sums`).  Arrays are read-only; compared and hashed by
    identity.
    """

    histograms: np.ndarray
    pulse_pmf: np.ndarray
    plain_pmf: np.ndarray
    sums: np.ndarray
    pulse: TableSampler
    plain: TableSampler

    def draw(self, count: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """``count`` atom index pairs (first half, second half) under level
        bit 0, from two uniforms each: the pulse halves' first."""
        return self.atoms(rng.random((2, count)))

    def atoms(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The atom index pairs of the uniform pairs ``u`` (2, n), as
        :meth:`draw` maps them: each pair on its own."""
        return self.pulse.draw(u[0]), self.plain.draw(u[1])

    def llrs(self, first: np.ndarray, second: np.ndarray) -> np.ndarray:
        """Level LLRs of subblocks whose halves hold the atoms ``first`` and
        ``second``: bitwise the receivers' :func:`level_llrs` of the two
        histograms."""
        return llrs_from_sums(self.sums[first], self.sums[second])

    @property
    def nbytes(self) -> int:
        """Bytes held by the law's tables and its two samplers."""
        arrays = (self.histograms, self.pulse_pmf, self.plain_pmf, self.sums,
                  self.pulse.cdf, self.pulse.guide, self.plain.cdf, self.plain.guide)
        return sum(a.nbytes for a in arrays)


def level_law(dmc: Dmc, i: int) -> LevelLaw:
    """The exact law of level ``i``'s pair of half histograms under bit 0.

    With h = 2^(i-1) and Mult(h, row0) the plain half's law, the pulse
    half's law at a histogram t on row0's support is

        sum_a row1[a] Mult(h - 1, row0)(t - e_a) = Mult(h, row0)(t) S(t) / h,

    S(t) = sum_a t_a lam_a its likelihood sum; off that support the pulse
    alone puts one output a there, with mass row1[a] Mult(h - 1, row0).
    The histograms and their log Mult(h, row0) probabilities are the
    table the exact divergence sums over
    (:func:`~covertppm.ppm.histogram_table` of h draws; of h - 1 draws, with
    a count of 1 at a, for each output a off row0's support), so none
    underflows before its product.  Cached per (channel, level), by
    identity, in the byte-bounded cache the tables share
    (:func:`~covertppm.ppm.cached`, :attr:`LevelLaw.nbytes`).

    Refuses with :class:`~covertppm.ppm.EnumerationBudgetError`, before
    any table is built, when the histograms, or the draws h whose
    log-factorials it tabulates, number more than ``DEFAULT_TYPE_BUDGET``.
    A channel on row0's support has the C(h+s-1, s-1) histograms of h draws
    on its s >= 2 symbols, fewer than the planner's exact divergence at
    order 2^q >= 2h enumerates, so no warden the planner accepts reaches the
    budget.  A channel with mass off row0's support adds the pulse's
    histograms that hold one such output.  Refuses with
    :class:`~covertppm.channels.ChannelError`, naming the level, when the
    likelihood sum of a histogram on row0's support overflows to inf, as
    for a row0 entry near the float floor (``bsc(1e-306)`` from level 9).
    """
    return cached((dmc, i), lambda: _build_level_law(dmc, i))


def _build_level_law(dmc: Dmc, i: int) -> LevelLaw:
    if i < 1:
        raise ValueError("level index must be >= 1")
    h = 1 << (i - 1)
    off = np.flatnonzero((dmc.row0 == 0) & (dmc.row1 > 0))
    s = np.count_nonzero(dmc.row0 > 0)
    if h > DEFAULT_TYPE_BUDGET:  # and C(h+s-1, s-1) > h for s >= 2
        over = f"{h} draws per half"
    else:
        n = math.comb(h + s - 1, s - 1) + off.size * math.comb(h + s - 2, s - 1)
        over = f"{n} histograms" if n > DEFAULT_TYPE_BUDGET else None
    if over:
        raise EnumerationBudgetError(
            f"level {i}: {over} exceed budget {DEFAULT_TYPE_BUDGET}")

    base = histogram_table(dmc, h)
    tables, log_plains, log_pulses = [base.counts], [base.log_weights], []
    for a in off:  # the pulse's output a with h - 1 row0 outputs
        rest = histogram_table(dmc, h - 1)
        counts = rest.counts.copy()
        counts[:, a] = 1
        tables.append(counts)
        log_plains.append(np.full(counts.shape[0], -np.inf))
        log_pulses.append(rest.log_weights + math.log(dmc.row1[a]))
    table = np.concatenate(tables) if off.size else base.counts
    with np.errstate(over="ignore"):  # refused below
        sums = likelihood_sums(table, dmc.lam)
    if np.isinf(sums[:base.counts.shape[0]]).any():
        raise ChannelError(f"level {i}: a likelihood sum of {h} draws overflows "
                           f"(a row0 entry too near the float floor)")
    with np.errstate(divide="ignore"):  # a zero sum: no pulse output fits
        log_pulses.insert(0, base.log_weights + np.log(sums[:base.log_weights.size] / h))
    pulse = np.exp(np.concatenate(log_pulses))
    plain = np.exp(np.concatenate(log_plains))
    for arr in (table, pulse, plain, sums):
        arr.flags.writeable = False
    return LevelLaw(histograms=table, pulse_pmf=pulse, plain_pmf=plain, sums=sums,
                    pulse=TableSampler.from_pmf(pulse), plain=TableSampler.from_pmf(plain))


#: LLRs per tile of the sampler's map from uniforms to LLRs, whose
#: temporaries then stay in cache and are reused, not paged in afresh; one
#: core mapped 2^19 level-2 LLRs in 20.4 ms at once and 9.3-9.5 ms in tiles
#: of 2^13 to 2^16
_LLR_TILE = 1 << 15


def make_level_llr_sampler(dmc: Dmc, i: int):
    """Sampler of iid level-i LLRs under input bit 0 (lower levels uniform).

    Conditioned on the decoded higher levels, the pulse falls uniformly in
    the first half of the selected 2^i-coordinate subblock when the level bit
    is 0.  The LLR depends on the subblock only through the output-symbol
    histograms of its two halves, so the returned ``sampler(count, rng)``
    draws an atom pair from their exact law (:func:`level_law`, two uniforms
    per LLR whatever i) and turns it into the LLR the receiver computes from
    those histograms.  The law is built, or refused, here.

    The uniforms are drawn on the calling thread, as :meth:`LevelLaw.draw`
    draws them; their map to LLRs runs by ranges of the output, one per
    worker of the open pool (:mod:`~covertppm.parallel`), in tiles of
    ``_LLR_TILE``.  It is elementwise, so the LLRs are bitwise
    ``law.llrs(*law.draw(count, rng))`` however many workers there are.
    """
    law = level_law(dmc, i)

    def sampler(count: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.random((2, count))
        out = np.empty(count, dtype=np.float64)

        def fill(span: slice):
            for lo in range(span.start, span.stop, _LLR_TILE):
                tile = slice(lo, min(lo + _LLR_TILE, span.stop))
                out[tile] = law.llrs(*law.atoms(u[:, tile]))

        parallel.run(fill, parallel.split(count, parallel.width()))
        return out

    return sampler


# ---------------------------------------------------------------------------
# plan serialisation: versioned human-readable key-value document
# ---------------------------------------------------------------------------

PLAN_HEADER = "covertppm-rateplan v1"


def plan_to_text(plan: RatePlan) -> str:
    lines = [
        PLAN_HEADER,
        "base = bits",
        f"q = {plan.q}",
        f"m = {plan.m}",
        f"ell = {plan.ell}",
        f"B = {plan.B}",
        f"delta = {plan.delta!r}",
        f"epsilon = {plan.epsilon!r}",
        f"u = {plan.u}",
        f"degraded = {str(plan.degraded).lower()}",
    ]
    for lr in plan.per_level:
        lines.append(f"level.{lr.level}.r_u = {lr.r_u!r}")
        lines.append(f"level.{lr.level}.r_v = {lr.r_v!r}")
        lines.append(f"level.{lr.level}.r_k = {lr.r_k!r}")
    return "\n".join(lines) + "\n"
