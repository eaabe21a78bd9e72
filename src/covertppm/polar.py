"""Polar transform, successive-cancellation decoding, and Monte-Carlo code
construction for the level channels.

The transform is the n-fold Kronecker power of [[1,0],[1,1]] in natural
(non-bit-reversed) order, computed by an in-place butterfly with one numpy
operation per stage.  Over GF(2) the kernel is an involution, so encoding
applied twice is the identity.

A level code is its length and its message set.  Every other position is
frozen to zero, which the symmetric level channels allow; a bit the receiver
knows to be nonzero (a key bit) is a pin of the decoder instead.

The decoder is successive cancellation (SC) organised as simplified SC
(Alamdar-Yazdi & Kschischang, IEEE Comm. Letters 2011): a subtree whose
positions are all frozen or pinned (rate 0) emits its known values without
visiting its leaves, and a subtree with none of them (rate 1) takes hard
decisions on its LLRs followed by one transform.  The rate-1 shortcut is
taken only when it provably reproduces SC bit for bit: for a node of size
2^d every LLR must satisfy d*ln2 + 1 <= |L| <= 2^20.  The exact check-node
map keeps |f(a, b)| >= log cosh(min(|a|, |b|)) >= min(|a|, |b|) - ln2, and
inside a rate-1 node the bit-node map adds same-signed terms, so every
intermediate LLR keeps a magnitude of at least 1; the upper bound keeps the
rounding error of f far below that margin.  No zero ties or sign flips can
occur, and the SC decisions equal the hard decisions.  Otherwise the node
recurses exactly as plain SC, so the output is identical to SC for every
input, zero and non-finite LLRs included.  Repetition and single-parity-check
nodes are deliberately absent: they are maximum-likelihood, not SC, decoders.

Construction is genie-aided Monte Carlo: transmit the all-zero codeword,
compute every successive-cancellation decision LLR with all previous bits
forced correct, and rank the synthetic channels by their empirical error
rate.  This replaces density evolution; the level channels have exponential
output alphabets but cheap LLRs, which makes sampling the natural choice.
With all previous bits zero, a node's children get f(a, b) and a + b of its
two halves, so the genie pass runs breadth-first: one stage per tree level,
each a fixed sequence of numpy ufuncs writing into one of two preallocated
(trials, ell) buffers that swap roles, with no per-node calls and no
concatenation.  Every ufunc is elementwise and trials never mix, so any split
of the trials (rows) gives the same decision LLRs bit for bit, up to the sign
of a NaN (IEEE 754 leaves it open, and numpy's loops set it by memory layout;
a NaN of either sign counts as no error and ranks last).  The rows of each
chunk are therefore shared among worker threads (numpy releases the GIL
inside ufunc loops), while the LLRs are drawn and the error counts reduced on
the calling thread in a fixed order.

LLRs are natural-log throughout; decision convention is L >= 0 -> bit 0.
"""

from __future__ import annotations

import contextvars
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _check_power_of_two(n: int):
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"length must be a power of two, got {n}")


def _butterfly(x: np.ndarray) -> np.ndarray:
    # in place over a contiguous 1-D uint8 array of power-of-two length
    n = x.shape[0]
    step = 1
    while step < n:
        v = x.reshape(-1, 2, step)
        v[:, 0, :] ^= v[:, 1, :]
        step *= 2
    return x


def polar_transform(u) -> np.ndarray:
    """x = u G over GF(2) with G the polar kernel power; involutive.

    O(n log n) butterfly; returns a fresh uint8 array.
    """
    x = np.array(u, dtype=np.uint8) & 1
    if x.ndim != 1:
        raise ValueError("input must be a 1-D bit vector")
    _check_power_of_two(x.shape[0])
    return _butterfly(x)


def _f(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # exact check-node combination log((1+e^(a+b))/(e^a+e^b)), stable form
    return np.logaddexp(0.0, a + b) - np.logaddexp(a, b)


def _g(a: np.ndarray, b: np.ndarray, x1: np.ndarray) -> np.ndarray:
    return b + (1.0 - 2.0 * x1) * a


@dataclass(frozen=True)
class PolarLevelCode:
    """A polar code for one level channel: its length and message set.

    ``message`` (sorted on construction) holds the positions that carry
    payload bits; the remaining positions, ``frozen``, are always zero, which
    is valid because the level channels are symmetric.  A position the
    receiver knows to hold another value (a key bit) is passed to
    :func:`sc_decode` as a pin.
    """

    ell: int
    message: np.ndarray

    def __post_init__(self):
        _check_power_of_two(self.ell)
        ms = np.sort(np.asarray(self.message, dtype=np.int64))
        if ms.ndim != 1 or (ms.size and (ms[0] < 0 or ms[-1] >= self.ell)) \
                or np.any(ms[1:] == ms[:-1]):
            raise ValueError("message must hold distinct positions in [0, ell)")
        object.__setattr__(self, "message", ms)

    @cached_property
    def frozen(self) -> np.ndarray:
        """The positions outside the message set, ascending."""
        return np.setdiff1d(np.arange(self.ell), self.message)


# rate-1 certification (module docstring): d*ln2 + 1 <= |L| <= 2^20 for a
# node of size 2^d; the cap keeps the rounding error of f far below 1
_LN2 = math.log(2.0)
_RATE1_LLR_CAP = float(1 << 20)


def _emit_known(start: int, end: int, nonzero: list, vals: np.ndarray,
                u: np.ndarray, x: np.ndarray):
    # rate-0 node: every position frozen or pinned, whatever the LLRs say
    u[start:end] = vals[start:end]
    x[start:end] = u[start:end]
    if nonzero[end] != nonzero[start]:
        _butterfly(x[start:end])


def _ssc(llr: np.ndarray, start: int, fixed: list, nonzero: list,
         vals: np.ndarray, u: np.ndarray, x: np.ndarray):
    """Decode the node covering [start, start + len(llr)) into u and x.

    The node holds at least one free position.  ``fixed`` and ``nonzero``
    are prefix sums of the frozen-or-pinned mask and of the nonzero known
    values, so each node is classified in O(1); a rate-0 child is emitted
    without computing its LLRs.  ``x`` receives the node's partial sums
    (the transform of its slice of ``u``).
    """
    n = llr.shape[0]
    if n == 1:
        u[start] = x[start] = 0 if llr[0] >= 0.0 else 1
        return
    end = start + n
    if fixed[end] == fixed[start]:
        mag = np.abs(llr)
        if (mag.min() >= (n.bit_length() - 1) * _LN2 + 1.0
                and mag.max() <= _RATE1_LLR_CAP):
            np.less(llr, 0.0, out=x[start:end], casting="unsafe")
            u[start:end] = x[start:end]
            _butterfly(u[start:end])
            return
    half = n // 2
    mid = start + half
    a, b = llr[:half], llr[half:]
    if fixed[mid] - fixed[start] == half:
        _emit_known(start, mid, nonzero, vals, u, x)
    else:
        _ssc(_f(a, b), start, fixed, nonzero, vals, u, x)
    if fixed[end] - fixed[mid] == half:
        _emit_known(mid, end, nonzero, vals, u, x)
    else:
        _ssc(_g(a, b, x[start:mid]), mid, fixed, nonzero, vals, u, x)
    x[start:mid] ^= x[mid:end]


def sc_decode(
    channel_llrs,
    code: PolarLevelCode,
    pins: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Successive-cancellation decode (simplified-SC schedule, same output).

    ``pins`` optionally forces extra positions to known values (receiver-side
    key bits); pinned positions behave exactly like frozen ones.  Returns
    ``(u_hat, info_bits)`` where ``info_bits`` are the message positions of
    ``u_hat``.  Deterministic given its inputs; ties (LLR exactly zero)
    resolve to bit 0.
    """
    llr = np.asarray(channel_llrs, dtype=np.float64)
    if llr.shape != (code.ell,):
        raise ValueError(f"need {code.ell} channel LLRs, got {llr.shape}")
    mask = np.ones(code.ell, dtype=bool)
    mask[code.message] = False
    vals = np.zeros(code.ell, dtype=np.uint8)
    if pins is not None:
        idx, pv = pins
        mask[np.asarray(idx, dtype=np.int64)] = True
        vals[np.asarray(idx, dtype=np.int64)] = np.asarray(pv, dtype=np.uint8)
    fixed = [0, *np.cumsum(mask).tolist()]
    nonzero = [0, *np.cumsum(vals != 0).tolist()]
    u_hat = np.empty(code.ell, dtype=np.uint8)
    x_hat = np.empty(code.ell, dtype=np.uint8)
    if fixed[-1] == code.ell:
        _emit_known(0, code.ell, nonzero, vals, u_hat, x_hat)
    else:
        _ssc(llr, 0, fixed, nonzero, vals, u_hat, x_hat)
    return u_hat, u_hat[code.message]


# LLRs drawn per chunk of the construction; part of the random stream, since
# the sampler is called once per chunk
_CHUNK = 1 << 19
# threads for the genie pass; rows split bitwise-safely (module docstring)
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _genie_pass(src: np.ndarray, dst: np.ndarray) -> None:
    """Breadth-first genie pass over (rows, ell) buffers, in place.

    Stage s views ``src`` as (rows, 2^s nodes, 2, half) and writes each
    node's children into ``dst``: f(a, b) into the left half, a + b into the
    right; ``a`` is reused as scratch for logaddexp(a, b).  The two buffers
    then swap, so after log2(ell) stages the decision LLRs sit in ``src``
    when log2(ell) is even and in ``dst`` when it is odd.
    """
    rows, n = src.shape
    nodes, half = 1, n // 2
    while half:
        s = src.reshape(rows, nodes, 2, half)
        d = dst.reshape(rows, nodes, 2, half)
        a, b = s[:, :, 0], s[:, :, 1]
        left, right = d[:, :, 0], d[:, :, 1]
        # the operations of _f and of a + b, in the same order, so the values
        # equal the recursion's (module docstring)
        np.add(a, b, out=right)
        np.logaddexp(0.0, right, out=left)
        np.logaddexp(a, b, out=a)
        np.subtract(left, a, out=left)
        src, dst = dst, src
        nodes, half = 2 * nodes, half // 2


def _genie_decision_llrs(llrs: np.ndarray, spare: np.ndarray,
                         pool: ThreadPoolExecutor | None,
                         workers: int) -> np.ndarray:
    """Decision LLRs of every synthetic channel under the all-zero codeword.

    With all previous bits forced to zero the partial sums vanish, so the
    whole recursion is data-independent and vectorises across trials.
    ``llrs`` is (trials, ell) and is overwritten; ``spare`` is a buffer of
    the same shape.  Rows are independent, so with a ``pool`` each of up to
    ``workers`` threads takes one disjoint row slice, in a copy of the
    caller's context (which carries numpy's error state).  Returns whichever
    buffer holds the result.
    """
    rows, ell = llrs.shape
    workers = min(workers, rows)
    if pool is None or workers == 1:
        _genie_pass(llrs, spare)
    else:
        cuts = [rows * k // workers for k in range(workers + 1)]
        futures = [
            pool.submit(contextvars.copy_context().run, _genie_pass,
                        llrs[lo:hi], spare[lo:hi])
            for lo, hi in zip(cuts[:-1], cuts[1:])
        ]
        for fut in futures:
            fut.result()
    return spare if (ell.bit_length() - 1) % 2 else llrs


def construct_code(
    level_sampler,
    ell: int,
    target_info: int,
    trials: int,
    rng: np.random.Generator,
) -> PolarLevelCode:
    """Monte-Carlo genie-aided construction.

    ``level_sampler(count, rng)`` must return ``count`` iid channel LLRs for
    the all-zero (bit 0) input of the target level channel, as a fresh
    float64 array that the construction may overwrite.  The
    ``target_info`` most reliable synthetic channels become the message set;
    the remainder are frozen to zero.  At least 1000 trials are recommended.

    LLRs are drawn in chunks of about 2^19 on the calling thread; the genie
    pass over each chunk is split by rows across the available cores.
    """
    _check_power_of_two(ell)
    if not 0 <= target_info <= ell:
        raise ValueError(f"target_info must lie in [0, {ell}]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    err = np.zeros(ell, dtype=np.float64)
    llr_sum = np.zeros(ell, dtype=np.float64)
    rows_per_chunk = min(max(1, _CHUNK // ell), trials)
    spare = np.empty((rows_per_chunk, ell), dtype=np.float64)
    workers = min(_WORKERS, rows_per_chunk)
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        done = 0
        while done < trials:
            n = min(rows_per_chunk, trials - done)
            llrs = np.asarray(level_sampler(n * ell, rng),
                              dtype=np.float64).reshape(n, ell)
            dec = _genie_decision_llrs(llrs, spare[:n], pool, workers)
            err += (dec < 0).sum(axis=0) + 0.5 * (dec == 0).sum(axis=0)
            llr_sum += dec.sum(axis=0)
            done += n
    # error count first; ties (channels too good to fail in `trials` runs)
    # broken by the mean decision LLR, a smooth reliability proxy
    order = np.lexsort((np.arange(ell), -llr_sum, err))
    return PolarLevelCode(ell=ell, message=order[:target_info])
