"""Shared brute-force oracles.

Everything here recomputes quantities from first principles (full super
channel enumeration, direct output-space sums) independently of the library's
own algorithms, so the tests compare two genuinely different computational
paths.  ``sc_decode_reference`` is the plain leaf-by-leaf successive
cancellation decoder that the library's simplified schedule must match, and
``distinct_columns_reference`` the column-by-column scan that the packed-key
``distinct_column_set`` must match.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from covertppm.channels import Dmc

LN2 = math.log(2.0)


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


def brute_conditional_mi(dmc: Dmc, i: int, q: int, base: str = "bits") -> float:
    """I(X_i ; Y_block | X_{i+1:q}) for uniform level bits, by enumeration."""
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
    return total / LN2 if base == "bits" else total


def brute_set_mi(dmc: Dmc, q: int, S: set[int], conditional: bool,
                 base: str = "bits") -> float:
    """I(X_S ; Y_block | X_{S^c}) (conditional=True) or I(X_S ; Y_block)."""
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
    return total / LN2 if base == "bits" else total


def _sc_f(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # the library's exact check-node formula, so that outputs compare bitwise
    return np.logaddexp(0.0, a + b) - np.logaddexp(a, b)


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
    u_left, x_left = _sc_recurse(_sc_f(a, b), mask, vals, start)
    u_right, x_right = _sc_recurse(_sc_g(a, b, x_left.astype(np.float64)),
                                   mask, vals, start + half)
    return (np.concatenate([u_left, u_right]),
            np.concatenate([x_left ^ x_right, x_right]))


def sc_decode_reference(channel_llrs, code, pins=None):
    """Plain successive cancellation, one leaf at a time.

    Visits every leaf of the decoding tree, with no node specialisation; the
    library's ``sc_decode`` must return the same ``(u_hat, info_bits)`` bit
    for bit.
    """
    llr = np.asarray(channel_llrs, dtype=np.float64)
    mask, vals = code.frozen_arrays()
    if pins is not None:
        idx, pv = pins
        mask[np.asarray(idx, dtype=np.int64)] = True
        vals[np.asarray(idx, dtype=np.int64)] = np.asarray(pv, dtype=np.uint8)
    u_hat, _ = _sc_recurse(llr, mask, vals, 0)
    return u_hat, u_hat[code.message]


def brute_ppm_divergence(dmc: Dmc, m: int, base: str = "nats") -> float:
    """D(P_ppm^m || P0^m) by direct summation over every output block."""
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
    val = float(np.sum(ppm[sup] * np.log(ppm[sup] / p0[sup])))
    return val / LN2 if base == "bits" else val


def distinct_columns_reference(generator) -> np.ndarray:
    """First index (0-based) of each distinct nonzero column, ascending."""
    g = np.asarray(generator)
    seen: dict[tuple, int] = {}
    for j in range(g.shape[1]):
        col = tuple(int(v) for v in g[:, j])
        if any(col) and col not in seen:
            seen[col] = j
    return np.array(sorted(seen.values()), dtype=np.int64)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
