"""Polar transform, successive-cancellation decoding, and Monte-Carlo code
construction for the level channels.

The transform is the n-fold Kronecker power of [[1,0],[1,1]] in natural
(non-bit-reversed) order, computed by an in-place butterfly with one numpy
operation per stage.  Over GF(2) the kernel is an involution, so encoding
applied twice is the identity.

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

LLRs are natural-log throughout; decision convention is L >= 0 -> bit 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """A polar code for one level channel.

    ``frozen`` positions carry ``frozen_values`` (all zero by default, valid
    because the level channels are symmetric).  ``message`` positions carry
    payload bits.  In resolvability mode ``randomized`` positions carry
    private uniform bits and are disjoint from the message set.  The three
    index sets partition [0, ell).
    """

    ell: int
    level: int
    frozen: np.ndarray
    frozen_values: np.ndarray
    message: np.ndarray
    randomized: np.ndarray
    mode: str = "reliability"

    def __post_init__(self):
        _check_power_of_two(self.ell)
        if self.mode not in ("reliability", "resolvability"):
            raise ValueError(f"unknown mode {self.mode!r}")
        fr = np.asarray(self.frozen, dtype=np.int64)
        ms = np.asarray(self.message, dtype=np.int64)
        rd = np.asarray(self.randomized, dtype=np.int64)
        fv = np.asarray(self.frozen_values, dtype=np.uint8)
        if fv.shape != fr.shape:
            raise ValueError("frozen_values must align with frozen")
        allidx = np.concatenate([fr, ms, rd])
        if allidx.size != self.ell or np.unique(allidx).size != self.ell \
                or (allidx.size and (allidx.min() < 0 or allidx.max() >= self.ell)):
            raise ValueError("frozen/message/randomized must partition [0, ell)")
        object.__setattr__(self, "frozen", np.sort(fr))
        object.__setattr__(self, "frozen_values", fv[np.argsort(fr)])
        object.__setattr__(self, "message", np.sort(ms))
        object.__setattr__(self, "randomized", np.sort(rd))

    @property
    def info_count(self) -> int:
        return self.ell - int(self.frozen.shape[0])

    def frozen_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(mask, values) over the full length, for the decoder."""
        mask = np.zeros(self.ell, dtype=bool)
        vals = np.zeros(self.ell, dtype=np.uint8)
        mask[self.frozen] = True
        vals[self.frozen] = self.frozen_values
        return mask, vals


def all_frozen_code(ell: int, level: int = 0, values=None) -> PolarLevelCode:
    vals = np.zeros(ell, dtype=np.uint8) if values is None \
        else np.asarray(values, dtype=np.uint8)
    return PolarLevelCode(
        ell=ell, level=level,
        frozen=np.arange(ell), frozen_values=vals,
        message=np.array([], dtype=np.int64),
        randomized=np.array([], dtype=np.int64),
    )


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
    mask, vals = code.frozen_arrays()
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


def _genie_decision_llrs(llrs: np.ndarray) -> np.ndarray:
    """Decision LLRs of every synthetic channel under the all-zero codeword.

    With all previous bits forced to zero the partial sums vanish, so the
    whole recursion is data-independent and vectorises across trials.
    ``llrs`` is (trials, ell); returns the same shape.
    """
    n = llrs.shape[1]
    if n == 1:
        return llrs
    half = n // 2
    a, b = llrs[:, :half], llrs[:, half:]
    left = _genie_decision_llrs(_f(a, b))
    right = _genie_decision_llrs(a + b)
    return np.concatenate([left, right], axis=1)


def construct_code(
    level_sampler,
    ell: int,
    target_info: int,
    trials: int,
    rng: np.random.Generator,
    *,
    level: int = 0,
    mode: str = "reliability",
    chunk: int = 1 << 19,
) -> PolarLevelCode:
    """Monte-Carlo genie-aided construction.

    ``level_sampler(count, rng)`` must return ``count`` iid channel LLRs for
    the all-zero (bit 0) input of the target level channel.  The
    ``target_info`` most reliable synthetic channels become the message set
    (or the randomized set in resolvability mode); the remainder are frozen
    to zero.  At least 1000 trials are recommended.
    """
    _check_power_of_two(ell)
    if not 0 <= target_info <= ell:
        raise ValueError(f"target_info must lie in [0, {ell}]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    err = np.zeros(ell, dtype=np.float64)
    llr_sum = np.zeros(ell, dtype=np.float64)
    done = 0
    rows_per_chunk = max(1, chunk // ell)
    while done < trials:
        n = min(rows_per_chunk, trials - done)
        llrs = level_sampler(n * ell, rng).reshape(n, ell)
        dec = _genie_decision_llrs(llrs)
        err += (dec < 0).sum(axis=0) + 0.5 * (dec == 0).sum(axis=0)
        llr_sum += dec.sum(axis=0)
        done += n
    # error count first; ties (channels too good to fail in `trials` runs)
    # broken by the mean decision LLR, a smooth reliability proxy
    order = np.lexsort((np.arange(ell), -llr_sum, err))
    chosen = np.sort(order[:target_info])
    rest = np.sort(order[target_info:])
    if mode == "reliability":
        message, randomized = chosen, np.array([], dtype=np.int64)
    elif mode == "resolvability":
        message, randomized = np.array([], dtype=np.int64), chosen
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return PolarLevelCode(
        ell=ell, level=level,
        frozen=rest, frozen_values=np.zeros(rest.shape[0], dtype=np.uint8),
        message=message, randomized=randomized, mode=mode,
    )


def resolvability_encode(
    code: PolarLevelCode,
    message,
    private_random_bits,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Codeword carrying optional message bits plus private uniform bits.

    Message bits go on the message positions, private bits on the randomized
    positions (drawn from ``rng`` when passed as None), frozen positions take
    their fixed values.  Returns the transformed codeword.
    """
    u = np.zeros(code.ell, dtype=np.uint8)
    u[code.frozen] = code.frozen_values
    msg = np.asarray([] if message is None else message, dtype=np.uint8)
    if msg.shape[0] != code.message.shape[0]:
        raise ValueError(
            f"message length {msg.shape[0]} != {code.message.shape[0]} positions"
        )
    u[code.message] = msg
    n_rand = code.randomized.shape[0]
    if private_random_bits is None:
        if rng is None and n_rand:
            raise ValueError("need private bits or an rng to draw them")
        rand = rng.integers(0, 2, size=n_rand, dtype=np.uint8) if n_rand else \
            np.array([], dtype=np.uint8)
    else:
        rand = np.asarray(private_random_bits, dtype=np.uint8)
        if rand.shape[0] != n_rand:
            raise ValueError(
                f"private bit count {rand.shape[0]} != {n_rand} randomized positions"
            )
    u[code.randomized] = rand
    return polar_transform(u)


# ---------------------------------------------------------------------------
# serialisation: same key-value document family as rate plans
# ---------------------------------------------------------------------------

CODE_HEADER = "covertppm-polarcode v1"


def _fmt_indices(a: np.ndarray) -> str:
    return ",".join(str(int(v)) for v in a)


def _parse_indices(s: str) -> np.ndarray:
    s = s.strip()
    if not s:
        return np.array([], dtype=np.int64)
    return np.array([int(v) for v in s.split(",")], dtype=np.int64)


def code_to_text(code: PolarLevelCode) -> str:
    lines = [
        CODE_HEADER,
        f"ell = {code.ell}",
        f"level = {code.level}",
        f"mode = {code.mode}",
        f"frozen = {_fmt_indices(code.frozen)}",
        f"frozen_values = {_fmt_indices(code.frozen_values)}",
        f"message = {_fmt_indices(code.message)}",
        f"randomized = {_fmt_indices(code.randomized)}",
    ]
    return "\n".join(lines) + "\n"


def code_from_text(text: str) -> PolarLevelCode:
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.strip().startswith("#")]
    if not lines or lines[0] != CODE_HEADER:
        raise ValueError(f"not a polar-code document (expected {CODE_HEADER!r})")
    kv: dict[str, str] = {}
    for ln in lines[1:]:
        key, _, val = ln.partition("=")
        kv[key.strip()] = val.strip()
    return PolarLevelCode(
        ell=int(kv["ell"]),
        level=int(kv["level"]),
        mode=kv["mode"],
        frozen=_parse_indices(kv["frozen"]),
        frozen_values=_parse_indices(kv["frozen_values"]).astype(np.uint8),
        message=_parse_indices(kv["message"]),
        randomized=_parse_indices(kv["randomized"]),
    )
