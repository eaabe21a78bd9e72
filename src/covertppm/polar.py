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
(Alamdar-Yazdi & Kschischang, IEEE Comm. Letters 2011).  Each node computes
its partial sums x (the transform of its slice of u), and u is recovered
from the root's x with one transform, since G is an involution; the decoder
returns both, so a multistage receiver needs no re-encoding.  Every node
rule reproduces SC bit for bit, for every input, zero and non-finite LLRs
included:

- Rate 0 (all positions frozen or pinned): the node yields the transform of
  its known values without visiting its leaves.
- Certified: the node's partial sums are its hard decisions y = (L < 0),
  taken only when they provably equal SC's.  For a node of size 2^d every
  LLR must satisfy d*ln2 + 1 <= |L| <= 2^20, and the transform u = y G
  must hold the node's known values: 0 at its frozen positions and the pin
  at its pinned ones.  Follow SC along the path of y: the exact check-node
  map keeps |f(a, b)| >= log cosh(min(|a|, |b|)) >= min(|a|, |b|) - ln2
  and gives the sign of ab, which is the left child's hard decision; the
  bit-node map after that decision adds same-signed terms.  So every
  intermediate LLR keeps a magnitude of at least 1 and the sign of y's
  path, the upper bound keeps the rounding error of f far below that
  margin, and no zero tie or sign flip can occur: each free leaf decides
  its bit of y G.  A known leaf forces its known value instead, which is
  that same bit by the second condition, so the partial sums SC feeds on
  are y's throughout, and SC returns y.  With no known positions (rate 1)
  the second condition is vacuous.  The rule is tested at right children
  and rate-1 nodes only: f never grows a magnitude, so left children and
  the root, whose LLRs come from f or the channel, rarely pass, while a
  right child's LLRs are sums that the bit node grows.
- Otherwise the node splits as plain SC.

A repetition node with zero known values (all positions but the last frozen
or pinned, all to zero) needs no rule of its own: its left children are
rate 0 with zero partial sums, so each g(a, b, 0) = b + 1.0*a is b + a, and
the split computes SC's half sums v <- v[h:] + v[:h] in that pairing, as
does the generated frozen-zero fold (below).  Single-parity-check nodes are
absent too: their usual decoder is maximum likelihood, not SC.

Which rule a node takes depends on the pattern of free, frozen and pinned
positions alone, so it is worked out once per pattern, in the manner of the
unrolled decoders of Giard, Sarkis, Thibeault & Gross (Fast software polar
decoders, ICASSP 2014).  A plan (``_decoder_plan``) is a tree of node
records, each with its span, whether each child is known (rate 0) and
whether that child holds a pin, the certificate's bound and the mask of
its known positions (as an int) if it tests the certificate, and a leaf's
generated function (below).  The second condition runs on ints: y packed
into an int, the transform as log2 n shift, mask and xor stages, and one
comparison under the mask with the node's span of the partial sums,
packed, which still holds the known values when the node starts.  A plan
is built on the first decode of its pattern and kept per process in a
least-recently-used cache, shared by every code; pin values are read at
run time, so keyed blocks with fresh key bits reuse it.

A decode walks its plan over buffers of its own, so calls are re-entrant
and nothing is concatenated; in the manner of the per-stage LLR memory of
Sarkis, Giard, Vardy, Thibeault & Gross (Fast polar decoders: algorithm and
implementation, IEEE JSAC 2014), there is one child-LLR buffer per node
size, and one temporary that holds nothing across a call, so every node
shares it.  One array of partial sums holds the known values on entry, and
each node writes its span of it in place: a known child's span already
holds its values, transformed in place if it holds a pin, and a split ends
with one in-place xor of its halves.  The check node f(a, b) =
logaddexp(0, a + b) - logaddexp(a, b) runs as add, logaddexp, logaddexp and
subtract into the buffers, and the bit node g = b + (1 - 2 xl) a as b + a,
then b - a where xl is 1 (bit for bit the same: 1.0*a is a, and b + -a is
b - a), or as b + a alone after a frozen child.

Nodes of at most ``_FLOAT_NODE`` LLRs run a straight-line Python function
instead: plain SC written out for one pattern, on local floats, with no
recursion, lists or numpy calls.  It too depends on the pattern, not the
code, so it is generated the first time any code meets the pattern and kept
per process (``_subtree_decoder``); pin values are arguments, never part of
the source.  The function keeps the rules above: a known child yields the
transform of its values, g after a frozen-zero partial sum is folded to
b + a (bit for bit the general g), and a free node tests the rate-1
certificate at run time before it splits (a node with known positions
there does not test it).  Every operation there is the IEEE double
operation numpy performs (+, -, *, abs and comparisons), and f
is ``_check``, one call in which each logaddexp mirrors numpy's
npy_logaddexp branch for branch on the same libm exp and log1p, so the two
give the same LLRs (up to the sign of a NaN, which no decision reads) and
the same decisions.

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


def _packed(bits: np.ndarray) -> int:
    # a bit vector as an int whose bit i is bits[i]
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


@functools.lru_cache(maxsize=None)
def _butterfly_masks(n: int) -> tuple:
    # per stage of the butterfly on n-bit ints: its step and the mask of the
    # first block of each aligned pair, (2^step - 1) repeated every 2 step bits
    full = (1 << n) - 1
    return tuple((s, ((1 << s) - 1) * (full // ((1 << 2 * s) - 1)))
                 for s in (1 << k for k in range(n.bit_length() - 1)))


def _int_transform(t: int, n: int) -> int:
    # _butterfly on an n-bit int whose bit i is position i
    for step, mask in _butterfly_masks(n):
        t ^= (t >> step) & mask
    return t


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


# the certificate's bounds (module docstring): d*ln2 + 1 <= |L| <= 2^20 for
# a node of size 2^d; the cap keeps the rounding error of f far below 1
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


def _check(p: float, q: float) -> float:
    """The check node f(p, q) = logaddexp(0, p + q) - logaddexp(p, q).

    Each logaddexp is numpy's npy_logaddexp branch for branch, on the libm
    exp and log1p behind its float64 loop (math.log(2.0) is its
    NPY_LOGE2), so f is numpy's bit for bit up to the sign of a NaN.  In
    the first one x is 0.0: its x == y test reads s == 0, its x - y is -s,
    and its 0.0 + log1p(...) is the log1p alone, which is never -0.0.
    """
    s = p + q
    if s == 0.0:
        u = _LN2
    elif s < 0:
        u = math.log1p(math.exp(s))
    elif s > 0:
        u = s + math.log1p(math.exp(-s))
    else:
        u = s
    if p == q:
        return u - (p + _LN2)
    t = p - q
    if t > 0:
        return u - (p + math.log1p(math.exp(-t)))
    if t <= 0:
        return u - (q + math.log1p(math.exp(t)))
    return u - t


def _subtree_source(pattern: bytes) -> str:
    """Source of ``decode(l, v, s)`` for a subtree with this pattern.

    ``pattern`` holds one of ``_FREE``, ``_FROZEN`` or ``_PINNED`` per
    position.  The function takes the subtree's LLRs as a list of floats,
    the decoder's known values ``v`` and the subtree's first position ``s``
    (a pinned position i reads ``v[s + i]``), and returns the subtree's
    partial sums as a tuple of bits.  It is plain SC unrolled, with the
    decoder's node rules: a known child yields the transform of its
    values, a check node is ``_check(a, b)``, a bit node is
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
                emit(depth, f"{left[-1]} = _check({p}, {q})")
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
    scope = {"_check": _check}
    exec(_subtree_source(pattern), scope)
    return scope["decode"]


class _Node:
    """A node of a decoder plan: its span [start, end) and, fixed by its
    pattern, what a decode does there.

    ``leaf`` is the generated decoder of a node of at most ``_FLOAT_NODE``
    positions, which does all of it.  ``low`` is the certificate's lower
    bound of a node that tests it (a right child, or a node whose positions
    are all free), else ``None``; ``known`` is then the mask of its frozen
    and pinned positions, bit i for position start + i (0 at a rate-1 node).
    ``left`` and ``right`` are the children's plans, ``None`` for a known
    (rate-0) child; ``pinned_left`` and ``pinned_right`` say whether a
    known child holds a pin, so its partial sums are the transform of its
    values, not zeros.
    """

    __slots__ = ("start", "mid", "end", "leaf", "low", "known", "left", "right",
                 "pinned_left", "pinned_right")

    def __init__(self, pattern: bytes, start: int, end: int, right: bool = False):
        n = end - start
        self.start, self.mid, self.end = start, start + n // 2, end
        self.leaf = self.low = self.known = self.left = self.right = None
        self.pinned_left = self.pinned_right = False
        if n <= _FLOAT_NODE:
            self.leaf = _subtree_decoder(pattern[start:end])
            return
        if right or pattern.count(_FREE, start, end) == n:
            self.low = (n.bit_length() - 1) * _LN2 + 1.0
            self.known = _packed(np.frombuffer(pattern, np.uint8, n, start) != _FREE)
        if pattern.find(_FREE, start, self.mid) >= 0:
            self.left = _Node(pattern, start, self.mid)
        else:
            self.pinned_left = pattern.find(_PINNED, start, self.mid) >= 0
        if pattern.find(_FREE, self.mid, end) >= 0:
            self.right = _Node(pattern, self.mid, end, right=True)
        else:
            self.pinned_right = pattern.find(_PINNED, self.mid, end) >= 0


# the plan of a pattern, shared by all codes.  A plan of length ell holds at
# most ell / 8 nodes of about 100 bytes (a chain code at ell=4096: 310),
# each node that tests the certificate also an n-bit mask of its n
# positions (at most ell log2(ell) / 8 bytes in all), and keeps its leaves'
# generated decoders alive; the chain and keyed CI sessions meet 4 patterns
# each
@functools.lru_cache(maxsize=64)
def _decoder_plan(pattern: bytes) -> _Node:
    return _Node(pattern, 0, len(pattern))


def _walk(node: _Node, llr: np.ndarray, x: np.ndarray, known: list | None,
          child: np.ndarray, scratch: np.ndarray):
    """Write the partial sums of ``node`` into ``x[node.start:node.end]``.

    ``llr`` holds the node's LLRs and ``x``, a bool array, the decoder's
    known values, zeros elsewhere; ``known`` is ``x`` as a list of ints for
    the generated leaves, or ``None`` without pins.  A child of size h gets
    its LLRs in ``child[h:2h]``, which no node below it touches;
    ``scratch`` holds no value across a call, so every node shares it.  A
    known child's partial sums are its span of ``x``, transformed in place
    if it holds a pin.
    """
    start, mid, end = node.start, node.mid, node.end
    if node.leaf is not None:
        x[start:end] = node.leaf(llr.tolist(), known, start)
        return
    if node.low is not None:
        mag = np.abs(llr, out=scratch[:end - start])
        if mag.min() >= node.low and mag.max() <= _RATE1_LLR_CAP:
            if not node.known:
                np.less(llr, 0.0, out=x[start:end])
                return
            y = llr < 0.0
            # u = y G must hold the known values, which x still holds here
            want = _packed(x[start:end]) if known is not None else 0
            if (_int_transform(_packed(y), end - start) ^ want) & node.known == 0:
                x[start:end] = y
                return
    h = mid - start
    a, b, c = llr[:h], llr[h:], child[h:2 * h]
    xl, xr = x[start:mid], x[mid:end]
    if node.left is not None:
        # exact check-node combination log((1+e^(a+b))/(e^a+e^b)), stable form
        t = scratch[:h]
        np.add(a, b, out=c)
        np.logaddexp(0.0, c, out=c)
        np.logaddexp(a, b, out=t)
        np.subtract(c, t, out=c)
        _walk(node.left, c, x, known, child, scratch)
    elif node.pinned_left:
        _butterfly(xl)
    if node.right is not None:
        # g = b + (1 - 2 xl) a; 1.0 * a is a and b + -a is b - a
        np.add(b, a, out=c)
        if node.left is not None or node.pinned_left:
            np.subtract(b, a, out=c, where=xl)
        _walk(node.right, c, x, known, child, scratch)
    elif node.pinned_right:
        _butterfly(xr)
    np.bitwise_xor(xl, xr, out=xl)


def _pin_arrays(pins, ell: int) -> tuple[np.ndarray, np.ndarray]:
    # the positions and values of sc_decode's pins, checked
    idx, values = np.asarray(pins[0]), np.asarray(pins[1])
    if idx.ndim != 1:
        raise ValueError(f"pin positions must be a 1-D array, got shape {idx.shape}")
    if idx.size and idx.dtype.kind not in "iu":
        raise ValueError(f"pin positions must be integers, got {idx.dtype}")
    if values.shape != idx.shape:
        raise ValueError(f"pin values must be a 1-D array of one value per position "
                         f"({idx.size}), got shape {values.shape}")
    if not np.all((values == 0) | (values == 1)):
        raise ValueError("pin values must be 0 or 1")
    idx = idx.astype(np.int64)
    outside = idx[(idx < 0) | (idx >= ell)]
    if outside.size:
        raise ValueError(f"pin position {outside[0]} outside [0, {ell})")
    seen, counts = np.unique(idx, return_counts=True)
    if np.any(counts > 1):
        raise ValueError(f"pin position {seen[counts > 1][0]} given twice")
    return idx, values


def sc_decode(
    channel_llrs,
    code: PolarLevelCode,
    pins: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Successive-cancellation decode (simplified-SC schedule, same output).

    ``pins`` optionally forces extra positions to known values (receiver-side
    key bits, each 0 or 1); pinned positions behave exactly like frozen ones.
    The positions must be a 1-D integer array and the values a 1-D array of
    the same length; other shapes or types, a pin value other than 0 or 1,
    and a pin position outside [0, ell) or given twice raise ``ValueError``.
    Returns ``(u_hat, x_hat)``: the decided input bits and their codeword
    ``x_hat = u_hat G``, which the decoder holds as the root's partial sums;
    the information bits are ``u_hat[code.message]``.  Deterministic given
    its inputs; ties (LLR exactly zero) resolve to bit 0.  Re-entrant: each
    call works in buffers of its own, and the cached plans are read-only.
    """
    llr = np.asarray(channel_llrs, dtype=np.float64)
    if llr.shape != (code.ell,):
        raise ValueError(f"need {code.ell} channel LLRs, got {llr.shape}")
    pattern = np.full(code.ell, _FROZEN, dtype=np.uint8)
    pattern[code.message] = _FREE
    x = np.zeros(code.ell, dtype=np.bool_)
    known = None
    if pins is not None:
        idx, values = _pin_arrays(pins, code.ell)
        pattern[idx] = _PINNED
        x[idx] = values
        known = x.view(np.uint8).tolist()
    _walk(_decoder_plan(pattern.tobytes()), llr, x, known,
          np.empty(code.ell), np.empty(code.ell))
    x_hat = x.view(np.uint8)
    # the codeword x = u G; G is an involution, so u = x G
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
            # free this chunk's two buffers before the next draw, or they
            # stay alive during it
            del llrs, dec
    # error count first; ties (channels too good to fail in `trials` runs)
    # broken by the mean decision LLR, a smooth reliability proxy
    order = np.lexsort((np.arange(ell), -llr_sum, err))
    return PolarLevelCode(ell=ell, message=order[:target_info])
