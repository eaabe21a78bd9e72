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
(Alamdar-Yazdi & Kschischang, IEEE Comm. Letters 2011).  Each node returns
its partial sums x (the transform of its slice of u), and u is recovered
from the root's x with one transform, since G is an involution; the decoder
returns both, so a multistage receiver needs no re-encoding.  Every node
rule reproduces SC bit for bit, for every input, zero and non-finite LLRs
included:

- Rate 0 (all positions frozen or pinned): the node yields the transform of
  its known values without visiting its leaves.
- Rate 1 (none of them): hard decisions on its LLRs, taken only when they
  provably equal SC's: for a node of size 2^d every LLR must satisfy
  d*ln2 + 1 <= |L| <= 2^20.  The exact check-node map keeps
  |f(a, b)| >= log cosh(min(|a|, |b|)) >= min(|a|, |b|) - ln2, and inside a
  rate-1 node the bit-node map adds same-signed terms, so every
  intermediate LLR keeps a magnitude of at least 1; the upper bound keeps
  the rounding error of f far below that margin.  No zero ties or sign
  flips can occur.
- Otherwise the node splits as plain SC.

A repetition node with zero known values (all positions but the last frozen
or pinned, all to zero) needs no rule of its own: its left children are
rate 0 with zero partial sums, so each g(a, b, 0) = b + 1.0*a is b + a, and
the split computes SC's half sums v <- v[h:] + v[:h] in that pairing, as
does the generated frozen-zero fold (below).  Single-parity-check nodes are
absent too: their usual decoder is maximum likelihood, not SC.

Nodes of at most ``_FLOAT_NODE`` LLRs run a straight-line Python function
instead, in the manner of the unrolled decoders of Giard, Sarkis, Thibeault
& Gross (Fast software polar decoders, ICASSP 2014): plain SC written out
for one pattern of free, frozen and pinned positions, on local floats, with
no recursion, lists or numpy calls.  It depends on the pattern, not the
code, so it is generated the first time any code meets the pattern and kept
per process (``_subtree_decoder``); pin values are arguments, never part of
the source, so keyed blocks with fresh key bits reuse it.  The function
keeps the rules above: a known child yields the transform of its values, g
after a frozen-zero partial sum is folded to b + a (bit for bit the general
g), and a free node tests the rate-1 certificate at run time before it
splits.  Every operation there is the IEEE double operation numpy performs
(+, -, *, abs and comparisons), and f's logaddexp is ``_logaddexp``, which
mirrors numpy's npy_logaddexp branch for branch on the same libm exp and
log1p, so the two give the same LLRs (up to the sign of a NaN, which no
decision reads) and the same decisions.

Construction is genie-aided Monte Carlo: transmit the all-zero codeword,
compute every successive-cancellation decision LLR with all previous bits
forced correct, and rank the synthetic channels by their empirical error
rate.  This replaces density evolution; the level channels have exponential
output alphabets but cheap LLRs, which makes sampling the natural choice.
With all previous bits zero, a node's children get f(a, b) and a + b of its
two halves, so the genie pass runs breadth-first, one stage per tree level,
with no per-node calls and no concatenation.  It is position-major: each
chunk of (trials, ell) LLRs from the sampler is copied, transposed, into an
(ell, trials) buffer, and the sampler's own array becomes the second buffer;
stage s views a buffer as (2^s nodes, 2, half, trials) and writes the
children into the other, so every ufunc runs over contiguous runs of trials.
Each stage runs in tiles (whole nodes, or runs of positions within one
node) through two small scratch tiles, which keep the working set in cache.

The construction runs on every CPU the process may run on (at most
``parallel.MAX_WORKERS``): it opens a pool of worker threads for the call
and ends it on return or raise.  Each stage's tiles split into contiguous
runs, one per worker, each worker with its own two scratch tiles, and the
stage ends when every run has (a barrier); the transposed copy and the
per-position error counts and LLR sums split by ranges of positions, and
the level sampler's map from uniforms to LLRs by ranges of its output (its
uniforms are drawn on the calling thread, so the stream does not change).
numpy's ufuncs, ``take`` and ``searchsorted`` release the GIL, so the
workers run in parallel.  Every operation is elementwise over disjoint
slices, so any split gives the serial pass's bits (as any tiling does,
below), and the message sets do not depend on the worker count.  numpy's error state
does not reach new threads: each worker runs under its caller's
(``np.geterr()``), so an ``errstate`` around the call rules the workers'
warnings and errors, and the first error in tile order is the one raised.

The genie's check node is the box-plus form (Hagenauer, Offer & Papke, IEEE
Trans. IT 1996)

    f(a, b) = sgn(ab) [min(|a|, |b|)
                       + (log1p(e^-(|a|+|b|)) - log1p(e^-||a|-|b||))],

which needs only exact IEEE operations and numpy's vectorised exp and log1p;
numpy runs logaddexp as a scalar loop, about 25 times slower per element
than exp.  It is also the more accurate form: on 2M random pairs it stayed
within 1.1 eps max(1, |f|) of a long-double evaluation, where
logaddexp(0, a + b) - logaddexp(a, b) cancels when |a + b| is large and
reached 6.5e4 eps.  It is exactly symmetric and odd in each argument
(f(-a, b) = -f(a, b) bit for bit), so LLRs that cancel in exact arithmetic
cancel to 0, a tie that counts half an error, where the logaddexp form
leaves a residue of order eps whose sign rounding picks.  The decoder
keeps the logaddexp form: its subtree functions compute f with Python's
math module, whose exp and log1p are libm's, and numpy's SIMD exp and log1p
differ from libm in the last bit on some inputs, so only logaddexp, which
numpy evaluates with libm, keeps the two paths and leaf-by-leaf SC equal bit
for bit.  In the genie pass every operation is elementwise and exp and log1p
always run over contiguous scratch, so any tiling gives the same decision
LLRs bit for bit, up to the sign of a NaN (IEEE 754 leaves it open, and
numpy's loops set it by memory layout; a NaN of either sign counts as no
error and ranks last).

LLRs are natural-log throughout; decision convention is L >= 0 -> bit 0.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import parallel


def _check_power_of_two(n: int):
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"length must be a power of two, got {n}")


def _butterfly(x: np.ndarray) -> np.ndarray:
    # in place over the rows of a C-contiguous uint8 array whose power-of-two
    # row length is its last axis: an aligned pair of blocks never spans rows
    n = x.shape[-1]
    step = 1
    while step < n:
        v = x.reshape(-1, 2, step)
        v[:, 0, :] ^= v[:, 1, :]
        step *= 2
    return x


def polar_transform(u) -> np.ndarray:
    """x = u G over GF(2) with G the polar kernel power; involutive.

    ``u`` is one bit vector or a (k, n) matrix whose rows are transformed
    each, in one pass of an O(n log n) butterfly over all of them; returns a
    fresh uint8 array of ``u``'s shape.
    """
    x = np.array(u, dtype=np.uint8, order="C")  # rows contiguous: reshapes are views
    x &= 1
    if x.ndim not in (1, 2):
        raise ValueError("input must be a bit vector or a matrix of bit rows")
    _check_power_of_two(x.shape[-1])
    return _butterfly(x)


@dataclass(frozen=True, eq=False)
class PolarLevelCode:
    """A polar code for one level channel: its length and message set.

    ``message`` (sorted on construction) holds the positions that carry
    payload bits; the remaining (frozen) positions are always zero, which is
    valid because the level channels are symmetric.  A position the
    receiver knows to hold another value (a key bit) is passed to
    :func:`sc_decode` as a pin.  Its generated decoders are kept per pattern
    and process, not per code.  Compared and hashed by identity.
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


# rate-1 certification (module docstring): d*ln2 + 1 <= |L| <= 2^20 for a
# node of size 2^d; the cap keeps the rounding error of f far below 1
_LN2 = math.log(2.0)
_RATE1_LLR_CAP = float(1 << 20)
# nodes of at most this many LLRs run generated straight-line code on Python
# floats (module docstring).  On chain-workload decodes 16, 32 and 64 took
# 0.61, 0.58 and 0.63 of the time of list-of-floats nodes up to 16, but a
# chain session's codes met 52, 72 and 91 patterns, whose code compiled in
# 2.5, 5.9 and 13.5 ms each, and chain blocks/s measured alike at 16 and 32
_FLOAT_NODE = 16
# a position of a subtree pattern: free, frozen to zero, or pinned to a value
# the decoder reads at run time
_FREE, _FROZEN, _PINNED = 0, 1, 2


def _logaddexp(x: float, y: float) -> float:
    # numpy's npy_logaddexp branch for branch, on the libm exp and log1p
    # behind its float64 loop; math.log(2.0) is its NPY_LOGE2
    if x == y:
        return x + _LN2
    tmp = x - y
    if tmp > 0:
        return x + math.log1p(math.exp(-tmp))
    if tmp <= 0:
        return y + math.log1p(math.exp(tmp))
    return tmp


def _subtree_source(pattern: bytes) -> str:
    """Source of ``decode(l, v, s)`` for a subtree with this pattern.

    ``pattern`` holds one of ``_FREE``, ``_FROZEN`` or ``_PINNED`` per
    position.  The function takes the subtree's LLRs as a list of floats,
    the decoder's known values ``v`` and the subtree's first position ``s``
    (a pinned position i reads ``v[s + i]``), and returns the subtree's
    partial sums as a tuple of bits.  It is plain SC unrolled, with the node
    rules of ``_ssc``: a known child yields the transform of its values, a
    check node is f = logaddexp(0, a + b) - logaddexp(a, b), a bit node is
    g = b + (1 - 2 s) a, folded to b + a after a frozen-zero left partial
    sum, and a free node of two or more positions tests the rate-1
    certificate at run time before it splits.
    """
    lines = []
    names = itertools.count()

    def fresh() -> str:
        return f"t{next(names)}"

    def emit(depth: int, text: str):
        lines.append("    " * depth + text)

    def combine(xl: list, xr: list, depth: int) -> list:
        out = []
        for p, q in zip(xl, xr):
            if p == "0" or q == "0":
                out.append(q if p == "0" else p)
            else:
                out.append(fresh())
                emit(depth, f"{out[-1]} = {p} ^ {q}")
        return out + xr

    def transform(xs: list, depth: int) -> list:
        if len(xs) == 1:
            return xs
        h = len(xs) // 2
        return combine(transform(xs[:h], depth), transform(xs[h:], depth), depth)

    def node(lo: int, n: int, llrs: list, depth: int) -> list:
        # partial sums of the node [lo, lo + n); llrs are empty if it is known
        kinds = set(pattern[lo:lo + n])
        if _FREE not in kinds:
            xs = ["0"] * n
            for i in range(n):
                if pattern[lo + i] == _PINNED:
                    xs[i] = fresh()
                    emit(depth, f"{xs[i]} = v[s + {lo + i}]")
            return transform(xs, depth)
        if n == 1:
            out = fresh()
            emit(depth, f"{out} = 0 if {llrs[0]} >= 0.0 else 1")
            return [out]
        if kinds != {_FREE}:
            return split(lo, llrs, depth)
        outs = [fresh() for _ in range(n)]
        low = (n.bit_length() - 1) * _LN2 + 1.0
        emit(depth, "if " + " and ".join(
            f"{low!r} <= abs({x}) <= {_RATE1_LLR_CAP!r}" for x in llrs) + ":")
        for out, x in zip(outs, llrs):
            emit(depth + 1, f"{out} = 1 if {x} < 0.0 else 0")
        emit(depth, "else:")
        for out, x in zip(outs, split(lo, llrs, depth + 1)):
            emit(depth + 1, f"{out} = {x}")
        return outs

    def split(lo: int, llrs: list, depth: int) -> list:
        h = len(llrs) // 2
        a, b = llrs[:h], llrs[h:]
        left, right = [], []
        if _FREE in pattern[lo:lo + h]:
            for p, q in zip(a, b):
                left.append(fresh())
                emit(depth, f"{left[-1]} = _logaddexp(0.0, {p} + {q})"
                            f" - _logaddexp({p}, {q})")
        xl = node(lo, h, left, depth)
        if _FREE in pattern[lo + h:lo + 2 * h]:
            for p, q, x in zip(a, b, xl):
                right.append(fresh())
                emit(depth, f"{right[-1]} = {q} + {p}" if x == "0"
                     else f"{right[-1]} = {q} + (1.0 - 2.0 * {x}) * {p}")
        return combine(xl, node(lo + h, h, right, depth), depth)

    llrs = [f"l{i}" for i in range(len(pattern))]
    out = node(0, len(llrs), llrs, 1)
    return "\n".join(["def decode(l, v, s):", f"    {', '.join(llrs)}, = l",
                      *lines, f"    return ({', '.join(out)},)"])


# the generated decode(l, v, s) of a pattern, shared by all codes.  The cap
# bounds memory (a 16-LLR decoder of free and frozen positions takes about
# 10 kB); the chain, covert and keyed CI sessions meet 16, 17 and 4 patterns
@functools.lru_cache(maxsize=1024)
def _subtree_decoder(pattern: bytes):
    scope = {"_logaddexp": _logaddexp}
    exec(_subtree_source(pattern), scope)
    return scope["decode"]


def _known(start: int, end: int, known: list | None) -> np.ndarray:
    # partial sums of a rate-0 node: the transform of its known values
    if known is None or not any(known[start:end]):
        return np.zeros(end - start, dtype=np.uint8)
    return _butterfly(np.array(known[start:end], dtype=np.uint8))


def _ssc(llr: np.ndarray, start: int, pattern: bytes, known: list | None) -> np.ndarray:
    """Partial sums of the node covering [start, start + len(llr)).

    ``pattern`` holds every position's class (``_FREE``, ``_FROZEN`` or
    ``_PINNED``) and ``known`` every position's known value, or is ``None``
    without pins.  A node need not hold a free position: a rate-0 root
    splits into known halves, and a rate-0 child yields its known values
    without computing its LLRs.  A node of at most ``_FLOAT_NODE`` LLRs runs
    its pattern's generated decoder.
    """
    n = llr.shape[0]
    end = start + n
    if n <= _FLOAT_NODE:
        decode = _subtree_decoder(pattern[start:end])
        return np.array(decode(llr.tolist(), known, start), dtype=np.uint8)
    if pattern.count(_FREE, start, end) == n:
        mag = np.abs(llr)
        if mag.min() >= (n.bit_length() - 1) * _LN2 + 1.0 \
                and mag.max() <= _RATE1_LLR_CAP:
            return (llr < 0.0).view(np.uint8)
    half = n // 2
    mid = start + half
    a, b = llr[:half], llr[half:]
    if pattern.find(_FREE, start, mid) < 0:
        xl = _known(start, mid, known)
    else:
        # exact check-node combination log((1+e^(a+b))/(e^a+e^b)), stable form
        f = np.logaddexp(0.0, a + b) - np.logaddexp(a, b)
        xl = _ssc(f, start, pattern, known)
    if pattern.find(_FREE, mid, end) < 0:
        xr = _known(mid, end, known)
    else:
        xr = _ssc(b + (1.0 - 2.0 * xl) * a, mid, pattern, known)
    return np.concatenate((xl ^ xr, xr))


def sc_decode(
    channel_llrs,
    code: PolarLevelCode,
    pins: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Successive-cancellation decode (simplified-SC schedule, same output).

    ``pins`` optionally forces extra positions to known values (receiver-side
    key bits, each 0 or 1); pinned positions behave exactly like frozen ones.
    A pin value other than 0 or 1, and a pin position outside [0, ell) or
    given twice, raise ``ValueError``.  Returns ``(u_hat, x_hat)``: the decided input bits and their codeword
    ``x_hat = u_hat G``, which the decoder holds as the root's partial sums;
    the information bits are ``u_hat[code.message]``.  Deterministic given
    its inputs; ties (LLR exactly zero) resolve to bit 0.
    """
    llr = np.asarray(channel_llrs, dtype=np.float64)
    if llr.shape != (code.ell,):
        raise ValueError(f"need {code.ell} channel LLRs, got {llr.shape}")
    pattern = np.full(code.ell, _FROZEN, dtype=np.uint8)
    pattern[code.message] = _FREE
    known = None
    if pins is not None:
        idx, values = np.asarray(pins[0], dtype=np.int64), np.asarray(pins[1])
        if not np.all((values == 0) | (values == 1)):
            raise ValueError("pin values must be 0 or 1")
        outside = idx[(idx < 0) | (idx >= code.ell)]
        if outside.size:
            raise ValueError(f"pin position {outside[0]} outside [0, {code.ell})")
        seen, counts = np.unique(idx, return_counts=True)
        if np.any(counts > 1):
            raise ValueError(f"pin position {seen[counts > 1][0]} given twice")
        pattern[idx] = _PINNED
        vals = np.zeros(code.ell, dtype=np.uint8)
        vals[idx] = values
        known = vals.tolist()
    # the codeword x = u G; G is an involution, so u = x G
    x_hat = _ssc(llr, 0, pattern.tobytes(), known)
    return _butterfly(x_hat.copy()), x_hat


# LLRs drawn per chunk of the construction; part of the random stream, since
# the sampler is called once per chunk
_CHUNK = 1 << 19
# elements of one genie tile: the pass owns two scratch tiles of this size
# (or of one position row, if longer); of 2^13 to 2^16, 2^15 measured fastest
# on (500, 512) chunks and within 3% of the fastest on (128, 4096) chunks
_TILE = 1 << 15


def _check_node(a: np.ndarray, b: np.ndarray, left: np.ndarray,
                right: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> None:
    """Genie children of a tile of nodes: right = a + b, left = f(a, b).

    f is the check-node map in its box-plus form,

        f(a, b) = sgn(ab) [min(|a|, |b|)
                           + (log1p(e^-(|a|+|b|)) - log1p(e^-||a|-|b||))],

    which needs only vectorised ufuncs (module docstring).  ``a`` and ``b``
    are overwritten; ``s1`` and ``s2`` are contiguous scratch of their
    shape, so exp and log1p always run the same contiguous loop.
    """
    np.add(a, b, out=right)
    np.multiply(a, b, out=left)          # carries the sign of f
    np.abs(a, out=a)
    np.abs(b, out=b)
    np.add(a, b, out=s1)
    np.negative(s1, out=s1)
    np.exp(s1, out=s1)
    np.log1p(s1, out=s1)
    np.subtract(a, b, out=s2)
    np.abs(s2, out=s2)
    np.negative(s2, out=s2)
    np.exp(s2, out=s2)
    np.log1p(s2, out=s2)
    np.minimum(a, b, out=a)
    np.subtract(s1, s2, out=s1)
    np.add(a, s1, out=s1)
    np.copysign(s1, left, out=left)


def _stage_tiles(nodes: int, half: int, rows: int, tile: int) -> list:
    # (node, position) index pairs that cover one stage's (nodes, half, rows)
    # views in tiles of at most max(tile, rows) elements: runs of step whole
    # nodes while a node fits, else runs of per positions within one node
    per = max(1, tile // rows)
    step = max(1, per // half)
    return [(slice(n, n + step), slice(h, h + per))
            for n in range(0, nodes, step) for h in range(0, half, per)]


def _genie_decision_llrs(llrs: np.ndarray) -> np.ndarray:
    """Decision LLRs of every synthetic channel under the all-zero codeword.

    With all previous bits forced to zero the partial sums vanish, so the
    whole recursion is data-independent and vectorises across trials.
    ``llrs`` (trials, ell) is copied, transposed, into a new buffer and then
    serves as the second buffer, so it is overwritten.  Stage s views the
    buffers as (2^s nodes, 2, half, trials) and writes each node's children
    f(a, b) and a + b into the other buffer, tile by tile; the buffers then
    swap.  The copy runs by ranges of positions, and each stage's tiles by
    contiguous runs of tiles, one per worker of the open pool
    (:mod:`~covertppm.parallel`), each with its own two scratch tiles of
    max(``_TILE``, trials) elements; a stage ends when all its runs have.
    The copy and the scratch are made here, after the draw, so that they do
    not add to the sampler's peak memory.  Returns the (ell, trials) buffer
    that holds the result.
    """
    rows, ell = llrs.shape
    src = np.empty((ell, rows), dtype=np.float64)

    def transpose(span: slice):
        src[span] = llrs[:, span].T

    parallel.run(transpose, parallel.split(ell, parallel.width()))
    dst = llrs.reshape(ell, rows)
    # a worker that gets no tile never touches its scratch's pages
    scratch = np.empty((parallel.width(), 2, max(_TILE, rows)), dtype=np.float64)
    nodes, half = 1, ell // 2
    while half:
        s = src.reshape(nodes, 2, half, rows)
        d = dst.reshape(nodes, 2, half, rows)
        a, b, left, right = s[:, 0], s[:, 1], d[:, 0], d[:, 1]
        tiles = _stage_tiles(nodes, half, rows, _TILE)

        def children(job: tuple[int, slice]):
            worker, run = job
            for t in tiles[run]:
                at = a[t]
                s1, s2 = (x[:at.size].reshape(at.shape) for x in scratch[worker])
                _check_node(at, b[t], left[t], right[t], s1, s2)

        parallel.run(children, list(enumerate(parallel.split(len(tiles), len(scratch)))))
        src, dst = dst, src
        nodes, half = 2 * nodes, half // 2
    return src


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

    LLRs are drawn in chunks of about 2^19 and run through the genie pass
    one chunk at a time; the next chunk is drawn once the last is tallied,
    so at most one is in memory.

    The call opens a pool of ``parallel.worker_count()`` workers, the CPUs
    the process may run on up to ``parallel.MAX_WORKERS``, and its threads
    end with the call, on return or raise.  The genie pass, its transposed
    copy, the per-position tallies and the level sampler's map after its
    draw run on them in disjoint slices (module docstring); each operation
    is elementwise, so the message set is bitwise the same for any worker
    count.  The workers run under the caller's numpy error state, and an
    exception of a worker is raised here: of several, the first in the
    serial order.
    """
    _check_power_of_two(ell)
    if not 0 <= target_info <= ell:
        raise ValueError(f"target_info must lie in [0, {ell}]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    err = np.zeros(ell, dtype=np.float64)
    llr_sum = np.zeros(ell, dtype=np.float64)
    rows_per_chunk = min(max(1, _CHUNK // ell), trials)
    done = 0
    with parallel.pool():
        while done < trials:
            n = min(rows_per_chunk, trials - done)
            llrs = np.asarray(level_sampler(n * ell, rng),
                              dtype=np.float64).reshape(n, ell)
            dec = _genie_decision_llrs(llrs)

            def tally(span: slice):
                d = dec[span]
                err[span] += (d < 0).sum(axis=1) + 0.5 * (d == 0).sum(axis=1)
                llr_sum[span] += d.sum(axis=1)

            parallel.run(tally, parallel.split(ell, parallel.width()))
            done += n
    # error count first; ties (channels too good to fail in `trials` runs)
    # broken by the mean decision LLR, a smooth reliability proxy
    order = np.lexsort((np.arange(ell), -llr_sum, err))
    return PolarLevelCode(ell=ell, message=order[:target_info])
