"""Binary-input discrete memoryless channels and their divergence functionals.

A channel is stored as its two conditional output distributions: the row for
input 0 (the innocent symbol) and the row for input 1.  All statistics used by
the planner, the detector bounds, and the covertness estimates are computed
from these two rows in a single pass:

    kl(p, q)    = sum_z p(z) log(p(z)/q(z))
    chi_t(p, q) = sum_z (p(z)-q(z))^t / q(z)^(t-1),  t = 2, 3
    theta(p, q) = sum_z p(z) ((p(z)-q(z))/q(z))^2
    rho(p, q)   = sum_z p(z) ((p(z)-q(z))/q(z))^3
    tv(p, q)    = (1/2) sum_z |p(z) - q(z)|

Each :class:`Dmc` caches, on first use, the one per-channel table that every
sampler, receiver, detector and planner reads: the output CDFs ``cdf0`` and
``cdf1`` (last entry exactly 1, for inverse-CDF sampling), the likelihood
ratio ``lam`` = row1/row0 and the centred ratio (row1 - row0)/row0 (both
``inf`` off the support of row0), and ``stats``, the divergence functionals of
(row1, row0) in nats.  The table arrays are read-only; only ``sample_outputs``
reads the CDFs, comparing each uniform with their interior entries.
``is_degraded`` decides exactly whether one channel is a garbling of another.
Everything here is pure and immutable; ``sample_outputs`` mutates only the
caller-supplied random generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

LN2 = math.log(2.0)

ROW_SUM_TOL = 1e-9      # tolerance on user-supplied row sums


class ChannelError(ValueError):
    """Raised for malformed channel definitions."""


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _ratio(num: np.ndarray, row0: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _read_only(np.where(row0 > 0, num / row0, np.inf))


def running_cdf(row: np.ndarray) -> np.ndarray:
    """Read-only CDF of a pmf for inverse-CDF sampling: its running sum, set
    to exactly 1 from the last entry of positive mass on."""
    cdf = np.cumsum(row)
    # from the last symbol of positive mass on the sum is 1, though rounding
    # may leave it just below: lift it, or u = 1 - 2^-53 draws a zero-mass symbol
    last = np.flatnonzero(row)[-1]
    cdf[last:] = np.maximum(cdf[last:], 1.0)
    cdf[-1] = 1.0
    return _read_only(cdf)


@dataclass(frozen=True, eq=False)
class Dmc:
    """A binary-input DMC given by its two output rows.

    ``row0`` is the output distribution for input 0, ``row1`` for input 1.
    Rows are validated and renormalised by :func:`make_dmc`; do not construct
    directly unless the rows are already exact probability vectors.
    Compared and hashed by identity, since its arrays have no truth value.
    """

    row0: np.ndarray
    row1: np.ndarray

    @property
    def alphabet_size(self) -> int:
        return int(self.row0.shape[0])

    @cached_property
    def cdf0(self) -> np.ndarray:
        return running_cdf(self.row0)

    @cached_property
    def cdf1(self) -> np.ndarray:
        return running_cdf(self.row1)

    @cached_property
    def lam(self) -> np.ndarray:
        """Likelihood ratio row1/row0 per output symbol, ``inf`` where row0 = 0."""
        return _ratio(self.row1, self.row0)

    @cached_property
    def centred_ratio(self) -> np.ndarray:
        """(row1 - row0)/row0 per output symbol, ``inf`` where row0 = 0."""
        return _ratio(self.row1 - self.row0, self.row0)

    @cached_property
    def stats(self) -> DivergenceStats:
        """Divergence functionals of (row1, row0) in nats."""
        return divergence_stats(self.row1, self.row0)

    def __repr__(self) -> str:  # compact, used in CLI headers
        r0 = ",".join(f"{v:.12g}" for v in self.row0)
        r1 = ",".join(f"{v:.12g}" for v in self.row1)
        return f"Dmc(row0=[{r0}], row1=[{r1}])"


@dataclass(frozen=True)
class DivergenceStats:
    """All divergence functionals of an ordered pair (p, q) of distributions.

    ``kl`` is in nats; chi2, chi3, theta, rho and tv are base-free.  When the
    support of p is not contained in the support of q the ratio-based
    functionals are infinite; ``finite`` is False and kl/chi2/chi3/theta/rho
    are ``inf``.
    """

    kl: float
    chi2: float
    chi3: float
    theta: float
    rho: float
    tv: float
    finite: bool = True


def _as_prob_vector(row, name: str) -> np.ndarray:
    v = np.asarray(row, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] < 2:
        raise ChannelError(f"{name} must be a 1-D probability vector of length >= 2")
    if np.any(v < 0):
        raise ChannelError(f"{name} has a negative entry")
    s = float(v.sum())
    if abs(s - 1.0) > ROW_SUM_TOL:
        raise ChannelError(f"{name} sums to {s!r}, outside tolerance {ROW_SUM_TOL}")
    return v / s


def make_dmc(row0, row1) -> Dmc:
    """Validate and build a binary-input DMC from its two output rows.

    Rows must have the same length >= 2, nonnegative entries, and sum to one
    within ``1e-9``; they are renormalised so each sums to exactly one in
    double precision.  Identical rows (a channel that reveals nothing) are
    accepted.  On the support of row0 the ratio row1/row0 must be finite: a
    row0 entry so small that it overflows has no usable likelihood ratio.
    """
    r0 = _as_prob_vector(row0, "row0")
    r1 = _as_prob_vector(row1, "row1")
    if r0.shape != r1.shape:
        raise ChannelError(
            f"row length mismatch: {r0.shape[0]} vs {r1.shape[0]}"
        )
    dmc = Dmc(row0=_read_only(r0), row1=_read_only(r1))
    if np.isinf(dmc.lam[r0 > 0]).any():
        raise ChannelError(
            "row1/row0 overflows on the support of row0: a row0 entry is "
            "too small for a finite likelihood ratio")
    return dmc


def bsc(p: float) -> Dmc:
    """Binary symmetric channel with crossover probability ``p``."""
    if not 0.0 <= p <= 1.0:
        raise ChannelError(f"crossover probability {p} outside [0, 1]")
    return make_dmc([1.0 - p, p], [p, 1.0 - p])


def bac(p01: float, p10: float) -> Dmc:
    """Binary asymmetric channel: P(1|0) = p01 and P(0|1) = p10."""
    if not (0.0 <= p01 <= 1.0 and 0.0 <= p10 <= 1.0):
        raise ChannelError("flip probabilities must lie in [0, 1]")
    return make_dmc([1.0 - p01, p01], [p10, 1.0 - p10])


def divergence_stats(p, q) -> DivergenceStats:
    """Compute kl (nats), chi2, chi3, theta, rho and tv for the pair (p, q).

    Argument order matters: this is D(p || q) and chi_t(p || q).  Terms with
    q(z) = 0 and p(z) = 0 contribute nothing; q(z) = 0 with p(z) > 0 yields
    the infinite result state (``finite=False``) rather than an exception.
    On the support a functional too large for a double is ``inf``, without a
    warning, and ``finite`` stays True.
    """
    pv = np.asarray(p, dtype=np.float64)
    qv = np.asarray(q, dtype=np.float64)
    if pv.shape != qv.shape:
        raise ChannelError("p and q must have the same length")

    tv = 0.5 * float(np.abs(pv - qv).sum())

    bad = (qv == 0) & (pv > 0)
    if np.any(bad):
        inf = float("inf")
        return DivergenceStats(
            kl=inf, chi2=inf, chi3=inf, theta=inf, rho=inf,
            tv=tv, finite=False,
        )

    sup = qv > 0
    ps, qs = pv[sup], qv[sup]
    diff = ps - qs
    ratio = diff / qs
    with np.errstate(over="ignore"):
        chi2 = float(np.sum(diff * ratio))
        chi3 = float(np.sum(diff * ratio * ratio))
        theta = float(np.sum(ps * ratio * ratio))
        rho = float(np.sum(ps * ratio * ratio * ratio))
    kl_terms = np.zeros_like(ps)
    pos = ps > 0
    kl_terms[pos] = ps[pos] * np.log(ps[pos] / qs[pos])
    kl = float(kl_terms.sum())
    kl = max(kl, 0.0)  # clip -0.0 / rounding for p == q
    return DivergenceStats(kl=kl, chi2=chi2, chi3=chi3, theta=theta, rho=rho, tv=tv)


def _roc(dmc: Dmc) -> tuple[np.ndarray, np.ndarray]:
    """Vertices (row0 mass, row1 mass) of the upper ROC curve of row1 against row0.

    The outputs enter in decreasing likelihood ratio; those off the support of
    row0 enter together as the first vertex, so the row0 masses increase
    strictly after it.
    """
    on = dmc.row0 > 0
    order = np.argsort(-dmc.lam[on], kind="stable")
    fa = np.concatenate([[0.0], np.cumsum(dmc.row0[on][order])])
    det = np.concatenate([[0.0], np.cumsum(dmc.row1[on][order])])
    return fa, det + dmc.row1[~on].sum()


def is_degraded(bob: Dmc, willie: Dmc) -> bool:
    """Whether willie = bob followed by some channel, for any output alphabets.

    For binary inputs this holds iff bob's ROC curve (the best detection
    probability at each false-alarm level) lies on or above willie's
    (Blackwell 1953).  Both curves are concave and piecewise linear, so it is
    enough to compare them at willie's vertices, up to the row-sum tolerance
    the rows are given to.
    """
    fa_b, det_b = _roc(bob)
    fa_w, det_w = _roc(willie)
    return bool(np.all(np.interp(fa_w, fa_b, det_b) >= det_w - ROW_SUM_TOL))


def _symbols(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The number of interior CDF entries at most each uniform, in the
    smallest unsigned dtype that holds |Z| - 1."""
    out = np.zeros(u.shape, dtype=np.min_scalar_type(cdf.shape[0] - 1))
    for c in cdf[:-1]:
        out += u >= c
    return out


def sample_outputs(dmc: Dmc, x, size, rng: np.random.Generator) -> np.ndarray:
    """Output symbol indices of the given shape for the channel inputs ``x``.

    ``x`` is one bit, the input of every entry.  One uniform u per entry
    drives inverse-CDF sampling: the symbol is the number of entries cdf[k],
    k < |Z| - 1, with u >= cdf[k].  The running sums do not decrease (an
    entry may round up past 1 before the last, which is exactly 1), so for
    every u in [0, 1) the comparisons hold for a prefix of k and the count is
    ``searchsorted(cdf, u, side="right")``.  A zero-mass symbol is never
    drawn: its interval [cdf[k-1], cdf[k]) is empty, or starts at 1 when it
    trails the last symbol of positive mass.  Any alphabet and either input
    draw the same stream.  Symbols come in
    ``np.min_scalar_type(|Z| - 1)``: uint8, one byte each, for up to 256
    symbols.  This is the package's only sampler of output symbols;
    ``transmit_super`` draws its pulse outputs here and every other output
    as histograms, the detector draws output histograms, and the level
    sampler atoms of the level law's table of them.
    """
    if np.ndim(x) == 0 and x in (0, 1):
        return _symbols(dmc.cdf1 if x else dmc.cdf0, rng.random(size))
    raise ChannelError(f"input must be a bit, got {x!r}")
