"""End-to-end multilevel transmitter and multistage receiver with chaining.

One block sends ell super-symbols of order m = 2^q.  Levels 1..u carry polar
codewords whose information positions are laid out, in ascending index order,
as [key | message | secret]: key bits are pinned at the receiver (it knows
them), message bits are the payload, and secret bits are payload that doubles
as the next block's key material.  Levels u+1..q carry no message; they are
filled either with fully uniform bits or with the invertible-extractor output
driven by a short shared random string.

The receiver decodes level q down to level 1.  It reads the received block
only through output histograms of aligned blocks
(``SuperOutput.block_histograms``).  For each reliability level it reads
the histograms of the two halves of the subblock indicated by the already
recovered higher-level bits, forms the level LLRs from them, and runs
successive cancellation with the key positions pinned.  The channel draws
each super-symbol along its pulse path (``ppm.transmit_super``), so with
the higher bits right those halves are histograms already drawn; a block
read elsewhere, after a wrong higher-level decision, is split off the
sibling histogram that holds it, consistently with every other read.
Besides the channel output it takes each keyed level's key bits and, in
extractor mode, the shared extractor input, from which it rebuilds the
resolvability levels; in the fully uniform mode the simulation reveals
those levels and flags the result, so reliability numbers are always
scoped honestly.

Chaining feeds the secret bits recovered from block j (the receiver uses its
own decisions, so one failure taints the blocks after it) in as block j+1's
keys, level-ascending on both ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channels import Dmc
from .extractor import (
    ExtractorConfig,
    bits_to_int,
    int_to_bits,
    inv,
    make_field,
    random_element,
)
from .levels import (
    RatePlan,
    level_capacity,
    level_llrs,
    make_level_llr_sampler,
    select_positions_batch,
)
from .polar import PolarLevelCode, construct_code, polar_transform, sc_decode
from .ppm import (
    PpmFrame,
    SuperOutput,
    frame_from_bits,
    ppm_divergence_bound,
    transmit_super,
)


class SessionError(ValueError):
    """Raised for inconsistent session configuration or chaining infeasibility."""


@dataclass(frozen=True)
class LevelLayout:
    """Bit accounting for one reliability level: counts and payload index split."""

    level: int
    n_key: int
    n_msg: int
    n_sec: int

    @property
    def n_payload(self) -> int:
        return self.n_key + self.n_msg + self.n_sec


#: extractor input bits beyond Willie's information about levels u+1..q,
#: per super-symbol
_EXTRACTOR_MARGIN = 0.1


def _floor_bits(ell: int, rate: float) -> int:
    return int(math.floor(ell * rate + 1e-9))


def _ceil_bits(ell: int, rate: float) -> int:
    return int(math.ceil(ell * rate - 1e-9))


@dataclass(frozen=True)
class Session:
    """Everything needed to run blocks: plan, channels, codes and layouts.

    Keys are not session state: callers pass each block's keys explicitly.
    ``extractor_cfg`` is set exactly when levels u+1..q are filled by the
    extractor; otherwise they carry fully uniform bits.
    """

    plan: RatePlan
    bob: Dmc
    willie: Dmc
    codes: dict[int, PolarLevelCode]
    layouts: dict[int, LevelLayout]
    delta_effective: float  # covertness budget, nats, of plan.B blocks of length ell
    extractor_cfg: ExtractorConfig | None = None
    extractor_seed: int | None = None

    @property
    def q(self) -> int:
        return self.plan.q

    @property
    def u(self) -> int:
        return self.plan.u

    @property
    def ell(self) -> int:
        return self.plan.ell

    def total_key_bits(self) -> int:
        return sum(lay.n_key for lay in self.layouts.values())

    def total_secret_bits(self) -> int:
        return sum(lay.n_sec for lay in self.layouts.values())

    def total_message_bits(self) -> int:
        return sum(lay.n_msg for lay in self.layouts.values())


def build_session(
    plan: RatePlan,
    bob: Dmc,
    willie: Dmc,
    rng: np.random.Generator,
    *,
    resolvability: str = "full_uniform",
    construction_trials: int = 2000,
    rate_scale: float = 1.0,
) -> Session:
    """Construct per-level polar codes and assemble a runnable session.

    A planner blocklength that is not a power of two is rounded down for the
    polar blocks and the covertness budget is restated for the rounded
    length (``delta_effective``).  A block costs O(ell q |Z|) draws and
    bytes, on its pulse paths or off them (``ppm.SuperOutput``), so the
    geometry needs no memory limit of its own: the planner's histogram
    budget bounds q.  In extractor mode a field width that ``make_field``
    refuses is refused before any code is constructed.  The plan's rates
    are asymptotic operating points; ``rate_scale`` backs the message and
    secret payloads off for finite blocks (key counts stay at their
    ceiling: they are a covertness requirement, not a reliability one); it
    must lie in (0, 1].  ``construction_trials`` (Monte-Carlo blocks per
    level code) must be at least 1.
    """
    if not 0.0 < rate_scale <= 1.0:
        raise SessionError(f"rate_scale must lie in (0, 1], got {rate_scale}")
    if construction_trials < 1:
        raise SessionError(f"construction_trials must be >= 1, got {construction_trials}")
    if resolvability not in ("full_uniform", "extractor"):
        raise SessionError(f"unknown resolvability source {resolvability!r}")

    if not willie.stats.finite:
        raise SessionError(
            "Willie's chi2 is infinite (Q1 has mass outside the support of Q0): "
            "no blocklength is covert"
        )
    ell = 1 << (plan.ell.bit_length() - 1)  # largest power of two <= plan.ell
    delta_effective = ppm_divergence_bound(willie.stats.chi2, plan.m, plan.B * ell)
    plan = replace(plan, ell=ell)
    # the field draws no randomness, so it is built before the codes: a
    # refused width costs no construction and every stream stays the same
    fld = None
    if plan.u < plan.q and resolvability == "extractor":
        fld = make_field((plan.q - plan.u) * ell)

    layouts: dict[int, LevelLayout] = {}
    codes: dict[int, PolarLevelCode] = {}
    for lr in plan.per_level:
        if lr.level > plan.u:
            continue
        lay = LevelLayout(level=lr.level, n_key=_ceil_bits(ell, lr.r_k),
                          n_msg=_floor_bits(ell, lr.r_u * rate_scale),
                          n_sec=_floor_bits(ell, lr.r_v * rate_scale))
        if lay.n_payload > ell:
            raise SessionError(f"level {lr.level} payload exceeds blocklength")
        layouts[lr.level] = lay
        codes[lr.level] = construct_code(make_level_llr_sampler(bob, lr.level), ell,
                                         lay.n_payload, construction_trials, rng)

    extractor_cfg = None
    extractor_seed = None
    if fld is not None:
        i_tail = sum(level_capacity(willie, i) for i in range(plan.u + 1, plan.q + 1))
        k = min(fld.w, _ceil_bits(ell, i_tail + _EXTRACTOR_MARGIN))
        extractor_cfg = ExtractorConfig(field=fld, k=k)
        extractor_seed = random_element(fld, rng)

    return Session(
        plan=plan, bob=bob, willie=willie, codes=codes, layouts=layouts,
        extractor_cfg=extractor_cfg, extractor_seed=extractor_seed,
        delta_effective=delta_effective,
    )


# ---------------------------------------------------------------------------
# one block
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TxRecord:
    """Transmitter-side truth for one block (payloads and codeword bits),
    compared and hashed by identity."""

    level_bits: np.ndarray              # (q, ell) codeword bit matrix
    messages: dict[int, np.ndarray]     # message+secret payload per level
    extractor_r: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class BlockResult:
    """Receiver-side outcome of one block, compared and hashed by identity."""

    decoded_bits: dict[int, np.ndarray]  # message+secret payload per level
    block_errors: dict[int, bool]
    genie_levels: tuple[int, ...]

    @property
    def any_error(self) -> bool:
        return any(self.block_errors.values())


def _extractor_levels(session: Session, r: np.ndarray) -> np.ndarray:
    """Levels u+1..q filled by the extractor's inverse of the k shared input
    bits ``r``: its w = (q-u)*ell output bits as (q-u, ell) level rows,
    symbol-major LSB-first."""
    cfg = session.extractor_cfg
    r = np.asarray(r)
    if r.shape != (cfg.k,) or not np.all((r == 0) | (r == 1)):
        raise SessionError(f"extractor input must be {cfg.k} bits, each 0 or 1")
    x = inv(cfg, session.extractor_seed, 0, bits_to_int(r))
    return int_to_bits(x, cfg.w).reshape(session.ell, session.q - session.u).T


def _level_bits(values: dict[int, np.ndarray], i: int, n: int, what: str) -> np.ndarray:
    """Level i's ``what`` bits from ``values`` as uint8; a level left out
    holds none.  Anything but a 1-D array of ``n`` entries, and any entry
    other than 0 or 1, is refused before the cast, which would read 257 as
    1."""
    bits = np.asarray(values.get(i, []))
    if bits.ndim != 1:
        raise SessionError(f"level {i}: {what} bits must be a 1-D array, "
                           f"got shape {bits.shape}")
    if bits.shape[0] != n:
        raise SessionError(f"level {i}: expected {n} {what} bits, got {bits.shape[0]}")
    if not np.all((bits == 0) | (bits == 1)):
        raise SessionError(f"level {i}: {what} bits must be 0 or 1")
    return bits.astype(np.uint8)


def encode_block(
    session: Session,
    messages: dict[int, np.ndarray],
    keys: dict[int, np.ndarray],
    rng: np.random.Generator,
) -> tuple[PpmFrame, TxRecord]:
    """Encode per-level payloads into one frame of pulse positions.

    ``messages[i]`` holds the message+secret payload (n_msg + n_sec bits) and
    ``keys[i]`` the n_key key bits for each reliability level i <= u.  Levels
    above u consume fresh uniform bits, or in extractor mode the extractor
    output of k uniform input bits drawn from ``rng``, which the record keeps
    as ``extractor_r``.
    """
    q, ell = session.q, session.ell
    bits = np.zeros((q, ell), dtype=np.uint8)
    payloads: dict[int, np.ndarray] = {}
    for i in range(1, session.u + 1):
        lay = session.layouts[i]
        code = session.codes[i]
        msg = _level_bits(messages, i, lay.n_msg + lay.n_sec, "payload")
        bits[i - 1, code.message[:lay.n_key]] = _level_bits(keys, i, lay.n_key, "key")
        bits[i - 1, code.message[lay.n_key:]] = msg
        payloads[i] = msg
    bits[:session.u] = polar_transform(bits[:session.u])

    r_used = None
    if session.extractor_cfg is not None:
        r_used = rng.integers(0, 2, size=session.extractor_cfg.k, dtype=np.uint8)
        bits[session.u:] = _extractor_levels(session, r_used)
    elif session.u < q:
        bits[session.u:] = rng.integers(0, 2, size=(q - session.u, ell), dtype=np.uint8)

    return frame_from_bits(bits), TxRecord(level_bits=bits, messages=payloads,
                                           extractor_r=r_used)


def decode_block(
    session: Session,
    received: SuperOutput,
    *,
    keys: dict[int, np.ndarray],
    extractor_r: np.ndarray | None = None,
    tx: TxRecord | None = None,
) -> BlockResult:
    """Multistage decode of one received block, level q down to level 1.

    ``keys`` are the receiver's key bits, pinned during decoding; every
    keyed level needs its own.  In extractor mode the resolvability levels
    are rebuilt from ``extractor_r``, the shared extractor input, which is
    then required; in the fully uniform mode they come from the transmitter
    record (genie, reported in ``genie_levels``).
    Errors surface as per-level payload mismatches against ``tx`` when given.
    """
    q, ell, u = session.q, session.ell, session.u
    if received.q != q or received.ell != ell:
        raise SessionError("received block does not match the session geometry")
    x_hat = np.zeros((q, ell), dtype=np.uint8)
    genie: list[int] = []
    if session.extractor_cfg is not None:
        if extractor_r is None:
            raise SessionError("extractor mode needs the shared input bits")
        x_hat[u:] = _extractor_levels(session, extractor_r)
    elif u < q:
        if tx is None:
            raise SessionError(
                "full_uniform resolvability needs the transmitter record "
                "(genie) to run the lower-level decoder"
            )
        x_hat[u:] = tx.level_bits[u:]
        genie = list(range(u + 1, q + 1))

    # the block index d(x_hat[i:q]) of level i's subblock, kept from level q down
    d = np.zeros(ell, dtype=np.int64)
    for i in range(q, u, -1):
        d = 2 * d + x_hat[i - 1]
    decoded: dict[int, np.ndarray] = {}
    errors: dict[int, bool] = {}
    for i in range(u, 0, -1):
        lay = session.layouts[i]
        code = session.codes[i]
        llrs = level_llrs(*select_positions_batch(received, d, i), session.bob.lam)
        key = _level_bits(keys, i, lay.n_key, "key")
        pins = (code.message[:lay.n_key], key) if lay.n_key else None
        u_hat, x_hat[i - 1] = sc_decode(llrs, code, pins=pins)
        d = 2 * d + x_hat[i - 1]
        decoded[i] = u_hat[code.message[lay.n_key:]]
        if tx is not None:
            errors[i] = bool(np.any(decoded[i] != tx.messages[i]))

    return BlockResult(decoded_bits=decoded, block_errors=errors,
                       genie_levels=tuple(genie))


def transmit_block(
    session: Session,
    frame: PpmFrame,
    rng: np.random.Generator,
    *,
    to_willie: bool = False,
) -> SuperOutput:
    """Send a frame through Bob's channel (Willie's with ``to_willie``)."""
    return transmit_super(session.willie if to_willie else session.bob, frame, rng)


# ---------------------------------------------------------------------------
# chaining over B blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainBlockRecord:
    block: int
    level_errors: dict[int, bool]
    any_error: bool
    tainted: bool  # an earlier block already failed


@dataclass(frozen=True)
class ChainReport:
    blocks: tuple[ChainBlockRecord, ...]
    cumulative_error: bool
    message_bits: int
    key_bits_first_block: int
    key_bits_amortized: float
    extractor_r_bits: int
    covert_throughput: float
    key_throughput: float
    genie_levels: tuple[int, ...]


def _draw_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 2, size=n, dtype=np.uint8)


def _split_keys(session: Session, flat: np.ndarray) -> dict[int, np.ndarray]:
    out: dict[int, np.ndarray] = {}
    at = 0
    for i in range(1, session.u + 1):
        n = session.layouts[i].n_key
        out[i] = flat[at:at + n]
        at += n
    return out


def _next_keys(session: Session, payloads: dict[int, np.ndarray],
               n_key: int) -> dict[int, np.ndarray]:
    # the first n_key secret bits, each level's payload past its message
    secrets = [payloads[i][session.layouts[i].n_msg:] for i in range(1, session.u + 1)]
    return _split_keys(session, np.concatenate(secrets)[:n_key])


def run_chain(
    session: Session,
    B: int,
    rng: np.random.Generator,
    *,
    message_source=None,
) -> ChainReport:
    """Run B chained blocks: block j's decoded secrets key block j+1.

    Requires total secret bits >= total key bits whenever keys are needed
    (otherwise chaining is infeasible and a :class:`SessionError` is raised).
    ``message_source(level, count, block)`` supplies payload bits; the
    default draws them uniformly from ``rng``.  Block 1's fresh keys come
    from ``rng``.  The throughputs are bits per sqrt(n * delta_B), with
    n = B * m * ell channel uses and delta_B = B * ell * chi2 / (2m) the
    budget of the B blocks run at the session's (power-of-two) blocklength,
    which is ``delta_effective`` when B equals the plan's block count; a zero
    budget gives zero.
    """
    if B < 1:
        raise SessionError("B must be >= 1")
    n_key = session.total_key_bits()
    n_sec = session.total_secret_bits()
    if B > 1 and n_key > 0 and n_sec < n_key:
        raise SessionError(
            f"chaining infeasible: {n_sec} secret bits per block cannot key "
            f"{n_key} bits"
        )

    tx_keys = _split_keys(session, _draw_bits(rng, n_key))
    rx_keys = {i: v.copy() for i, v in tx_keys.items()}

    records: list[ChainBlockRecord] = []
    genie: tuple[int, ...] = ()
    extractor_bits = 0
    failed_before = False
    for j in range(1, B + 1):
        messages = {}
        for i in range(1, session.u + 1):
            lay = session.layouts[i]
            count = lay.n_msg + lay.n_sec
            if message_source is not None:
                messages[i] = message_source(i, count, j)
            else:
                messages[i] = _draw_bits(rng, count)
        frame, tx = encode_block(session, messages, tx_keys, rng)
        if tx.extractor_r is not None:
            extractor_bits += int(tx.extractor_r.shape[0])
        received = transmit_block(session, frame, rng)
        result = decode_block(session, received, keys=rx_keys,
                              extractor_r=tx.extractor_r, tx=tx)
        genie = result.genie_levels
        any_err = result.any_error
        records.append(ChainBlockRecord(
            block=j, level_errors=dict(result.block_errors),
            any_error=any_err, tainted=failed_before,
        ))
        failed_before = failed_before or any_err
        if j < B and n_key > 0:
            tx_keys = _next_keys(session, tx.messages, n_key)
            rx_keys = _next_keys(session, result.decoded_bits, n_key)

    message_bits = B * (session.total_message_bits() + session.total_secret_bits())
    key_first = n_key
    key_amortized = key_first + (B - 1) * max(n_key - n_sec, 0)
    n = B * session.plan.m * session.ell
    delta = ppm_divergence_bound(session.willie.stats.chi2, session.plan.m, B * session.ell)
    norm = math.sqrt(n * delta) if delta > 0 else float("inf")
    return ChainReport(
        blocks=tuple(records),
        cumulative_error=failed_before,
        message_bits=message_bits,
        key_bits_first_block=key_first,
        key_bits_amortized=float(key_amortized),
        extractor_r_bits=extractor_bits,
        covert_throughput=message_bits / norm,
        key_throughput=(key_amortized + extractor_bits) / norm,
        genie_levels=genie,
    )
