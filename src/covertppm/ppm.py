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
exact divergence is therefore a sum over histogram type classes weighted by
multinomial probabilities; for a binary output alphabet this collapses to a
single O(m) loop over the count of '1' outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .channels import LN2, Dmc

#: type classes enumerated before the exact DP refuses and suggests Monte Carlo
DEFAULT_TYPE_BUDGET = 2_000_000
#: largest output alphabet handled by the exact DP
MAX_ALPHABET = 6


class EnumerationBudgetError(RuntimeError):
    """Exact type-class enumeration would exceed the configured budget.

    Raised by :func:`ppm_output_divergence`; use
    :func:`monte_carlo_divergence` instead.
    """


@dataclass(frozen=True)
class PpmFrame:
    """A block of ell PPM symbols of order 2^q, stored as 1-based pulse positions."""

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


@dataclass(frozen=True)
class SuperOutput:
    """Received super-symbols: an (ell, 2^q) array of output-alphabet indices."""

    q: int
    symbols: np.ndarray

    def __post_init__(self):
        sym = np.asarray(self.symbols, dtype=np.int64)
        if sym.ndim != 2 or sym.shape[1] != (1 << self.q):
            raise ValueError(f"symbols must have shape (ell, {1 << self.q})")
        object.__setattr__(self, "symbols", sym)

    @property
    def ell(self) -> int:
        return int(self.symbols.shape[0])


def frame_from_bits(level_bits) -> PpmFrame:
    """Build a frame from a (q, ell) bit matrix whose row i-1 is level i."""
    bits = np.asarray(level_bits, dtype=np.int64)
    if bits.ndim != 2:
        raise ValueError("level_bits must be a (q, ell) matrix")
    q = bits.shape[0]
    weights = (1 << np.arange(q, dtype=np.int64))[:, None]
    positions = (bits * weights).sum(axis=0) + 1
    return PpmFrame(q=q, positions=positions)


def transmit_super(dmc: Dmc, frame: PpmFrame, rng: np.random.Generator) -> SuperOutput:
    """Send a frame through the super channel: the pulse coordinate of each
    super-symbol is drawn from row1, all other coordinates from row0."""
    ell, m = frame.ell, frame.m
    u = rng.random((ell, m))
    symbols = np.searchsorted(dmc.cdf0, u, side="right")
    rows = np.arange(ell)
    cols = frame.positions - 1
    symbols[rows, cols] = np.searchsorted(dmc.cdf1, u[rows, cols], side="right")
    return SuperOutput(q=frame.q, symbols=symbols)


def _xlogx(r: np.ndarray) -> np.ndarray:
    out = np.zeros_like(r)
    pos = r > 0
    out[pos] = r[pos] * np.log(r[pos])
    return out


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


def _binary_divergence(dmc: Dmc, m: int) -> float:
    """Exact D(P_ppm^m || P0^m) in nats for a binary output alphabet.

    Loops over k = number of '1' outputs.  The mean likelihood ratio for a
    sequence with k ones is r(k) = (k lam1 + (m-k) lam0)/m and

        D = sum_k P0-binomial(k) * r(k) log r(k)
          = sum_k Pppm-weight(k) * log r(k),

    both forms being equal; the first is used for stability.
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


def _type_class_divergence(dmc: Dmc, m: int, type_budget: int) -> float:
    """Exact D(P_ppm^m || P0^m) in nats by enumerating output histograms."""
    a = dmc.alphabet_size
    n_types = math.comb(m + a - 1, a - 1)
    if n_types > type_budget:
        raise EnumerationBudgetError(
            f"{n_types} type classes exceed budget {type_budget}; "
            "use monte_carlo_divergence"
        )
    if not dmc.stats.finite:
        return float("inf")
    row0 = dmc.row0
    lam = np.where(row0 > 0, dmc.lam, 0.0)  # no 0 * inf for symbols off both supports
    logp0 = np.where(row0 > 0, np.log(np.where(row0 > 0, row0, 1.0)), -np.inf)
    total = 0.0
    log_mfact = gammaln(m + 1)
    for t in _compositions(m, a):
        tv = np.array(t, dtype=np.float64)
        if np.any((tv > 0) & (row0 == 0)):
            continue  # zero probability under P0^m (and under P_ppm)
        logw = log_mfact - gammaln(tv + 1).sum() + float(
            np.sum(np.where(tv > 0, tv * logp0, 0.0))
        )
        r = float(np.dot(tv, lam)) / m
        if r > 0:
            total += math.exp(logw) * r * math.log(r)
    return total


def ppm_output_divergence(
    dmc: Dmc,
    m: int,
    base: str = "nats",
    *,
    type_budget: int = DEFAULT_TYPE_BUDGET,
) -> float:
    """Exact per-super-symbol divergence D(P_ppm^m || P0^m).

    ``m`` must be a power of two (the PPM order).  Binary output alphabets
    use the O(m) ones-count loop; larger alphabets enumerate histogram type
    classes, refusing with :class:`EnumerationBudgetError` when the class
    count exceeds ``type_budget`` or the alphabet exceeds ``MAX_ALPHABET``.
    Returns ``inf`` when P1 has mass outside the support of P0.
    """
    if m < 1 or (m & (m - 1)) != 0:
        raise ValueError(f"m must be a power of two, got {m}")
    if base not in ("nats", "bits"):
        raise ValueError(f"base must be 'nats' or 'bits', got {base!r}")
    if dmc.alphabet_size == 2:
        value = _binary_divergence(dmc, m)
    elif dmc.alphabet_size > MAX_ALPHABET:
        raise EnumerationBudgetError(
            f"alphabet size {dmc.alphabet_size} exceeds the exact-DP limit "
            f"{MAX_ALPHABET}; use monte_carlo_divergence"
        )
    else:
        value = _type_class_divergence(dmc, m, type_budget)
    value = max(value, 0.0)
    return value / LN2 if base == "bits" else value


def monte_carlo_divergence(
    dmc: Dmc,
    m: int,
    trials: int,
    rng: np.random.Generator,
    base: str = "nats",
) -> tuple[float, float]:
    """Monte-Carlo estimate of D(P_ppm^m || P0^m) with its standard error.

    Samples the pulse at coordinate 1 (the statistic is symmetric in the
    pulse position) and averages log of the mean likelihood ratio under
    P_ppm.  Returns ``(estimate, stderr)`` in the requested base.
    """
    if m < 1 or (m & (m - 1)) != 0:
        raise ValueError(f"m must be a power of two, got {m}")
    lam, cdf0, cdf1 = dmc.lam, dmc.cdf0, dmc.cdf1
    batch = max(1, min(trials, (1 << 22) // max(m, 1)))
    acc = np.empty(trials, dtype=np.float64)
    done = 0
    while done < trials:
        n = min(batch, trials - done)
        pulse = np.searchsorted(cdf1, rng.random(n), side="right")
        rest = np.searchsorted(cdf0, rng.random((n, m - 1)), side="right") \
            if m > 1 else np.empty((n, 0), dtype=np.int64)
        r = (lam[pulse] + lam[rest].sum(axis=1)) / m
        acc[done:done + n] = np.log(r)
        done += n
    mean = float(acc.mean())
    stderr = float(acc.std(ddof=1) / math.sqrt(trials)) if trials > 1 else float("inf")
    if base == "bits":
        return mean / LN2, stderr / LN2
    return mean, stderr


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
