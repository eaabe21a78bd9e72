"""Reference computations for the benchmark's output checks.

Each function computes its quantity its own way, from the definitions, and
calls no covertppm code for that quantity:

* ``kron_generator``: the explicit polar generator G_ell = F^(kron n);
* ``gf2w_mul``: schoolbook GF(2^w) product on bit arrays, reduced by long
  division by the modulus;
* ``ppm_divergence``: ell * sum_k Binom(m, p0)(k) r(k) log r(k) with
  ``scipy.stats.binom``;
* ``chi2`` / ``detector_moments``: Willie's chi2 and the detector statistic's
  moments, from the two channel rows.
"""

from __future__ import annotations

import math

import numpy as np


def kron_generator(ell: int) -> np.ndarray:
    """(ell, ell) uint8 matrix F^(kron n) with F = [[1, 0], [1, 1]]."""
    kernel = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    g = np.ones((1, 1), dtype=np.uint8)
    while g.shape[0] < ell:
        g = np.kron(kernel, g)
    if g.shape[0] != ell:
        raise ValueError(f"ell must be a power of two, got {ell}")
    return g


def encode_reference(g: np.ndarray, u: np.ndarray) -> np.ndarray:
    """u G mod 2: XOR of the generator rows selected by the ones of u."""
    rows = g[np.asarray(u, dtype=bool)]
    if rows.shape[0] == 0:
        return np.zeros(g.shape[1], dtype=np.uint8)
    return np.bitwise_xor.reduce(rows, axis=0)


def int_bits(value: int, width: int) -> np.ndarray:
    """LSB-first bits of a non-negative integer, through its byte string."""
    raw = value.to_bytes((width + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[:width]


def gf2w_mul(a: np.ndarray, b: np.ndarray, modulus: np.ndarray) -> np.ndarray:
    """a * b in GF(2^w) on LSB-first bit arrays; ``modulus`` has w + 1 bits."""
    w = modulus.shape[0] - 1
    prod = np.zeros(2 * w - 1, dtype=np.uint8)
    for t in np.flatnonzero(a):
        prod[t:t + w] ^= b
    for d in range(2 * w - 2, w - 1, -1):
        if prod[d]:
            prod[d - w:d + 1] ^= modulus
    return prod[:w]


def extractor_levels(seed: int, modulus: int, r_bits: np.ndarray, w: int,
                     span: int) -> np.ndarray:
    """Resolvability-level rows of s * (r 2^(w-k)), symbol-major, LSB-first.

    Returns a (span, w // span) array whose row t is level u + 1 + t.
    """
    k = r_bits.shape[0]
    shifted = np.zeros(w, dtype=np.uint8)
    shifted[w - k:] = r_bits
    x = gf2w_mul(int_bits(seed, w), shifted, int_bits(modulus, w + 1))
    return np.stack([x[t::span] for t in range(span)])


def ppm_divergence(row0, row1, m: int, ell: int) -> float:
    """ell * D(P_ppm^m || P0^m) in nats for a binary output alphabet."""
    # imported here, after the run, so scipy.stats never counts in peak_rss_mb
    from scipy.stats import binom

    p0 = float(row0[1])
    lam0 = float(row1[0]) / float(row0[0])
    lam1 = float(row1[1]) / p0
    k = np.arange(m + 1)
    r = (k * lam1 + (m - k) * lam0) / m
    pmf = binom.pmf(k, m, p0)
    pos = r > 0  # r log r -> 0 as r -> 0
    return ell * float(np.sum(pmf[pos] * r[pos] * np.log(r[pos])))


def chi2(row0, row1) -> float:
    """chi2(Q1 || Q0) = sum_y (Q1(y) - Q0(y))^2 / Q0(y) over the support of Q0."""
    return math.fsum((float(b) - float(a)) ** 2 / float(a)
                     for a, b in zip(row0, row1) if a > 0)


def detector_moments(row0, row1) -> tuple[float, float, float]:
    """(chi2, var under H0, var under H1) of one centred likelihood ratio.

    With r(y) = (Q1(y) - Q0(y)) / Q0(y): under Q0 the mean is 0 and the
    variance chi2; under the half/half mixture of Q0 and Q1 (a uniform code
    bit) the mean is chi2 / 2 and the variance chi2 + chi3 / 2 - chi2^2 / 4.
    """
    c2 = chi2(row0, row1)
    c3 = math.fsum((float(b) - float(a)) ** 3 / float(a) ** 2
                   for a, b in zip(row0, row1) if a > 0)
    return c2, c2, c2 + c3 / 2.0 - c2 * c2 / 4.0
