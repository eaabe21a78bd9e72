"""End-to-end multilevel transmitter and multistage receiver with chaining.

One block sends ell super-symbols of order m = 2^q.  Levels 1..u carry polar
codewords whose information positions are laid out, in ascending index order,
as [key | message | secret]: key bits are pinned at the receiver (it knows
them), message bits are the payload, and secret bits are payload that doubles
as the next block's key material.  Levels u+1..q carry no message; they are
filled either with fully uniform bits or with the invertible-extractor output
driven by a short shared random string.

The receiver decodes level q down to level 1.  For each reliability level it
selects the output subblock indicated by the already recovered higher-level
bits, forms the level LLRs from per-coordinate likelihood ratios, and runs
successive cancellation with the key positions pinned.  Resolvability levels
are reconstructed from the shared extractor input when available; in the
fully uniform mode the simulation reveals them to the receiver and flags the
result, so reliability numbers are always scoped honestly.

Chaining feeds the secret bits recovered from block j (the receiver uses its
own decisions, so one failure taints the blocks after it) in as block j+1's
keys, level-ascending on both ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import Dmc
from .extractor import (
    BinaryField,
    ExtractorConfig,
    bits_to_int,
    int_to_bits,
    inv,
    make_field,
    random_element,
)
from .levels import DEFAULT_LLR_MAX, RatePlan, level_llrs, select_positions_batch
from .polar import PolarLevelCode, construct_code, polar_transform, sc_decode
from .ppm import PpmFrame, SuperOutput, frame_from_bits, transmit_super


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


def _floor_bits(ell: int, rate: float) -> int:
    return int(math.floor(ell * rate + 1e-9))


def _ceil_bits(ell: int, rate: float) -> int:
    return int(math.ceil(ell * rate - 1e-9))


def make_level_llr_sampler(dmc: Dmc, i: int, llr_max: float = DEFAULT_LLR_MAX):
    """Sampler of iid level-i LLRs under input bit 0 (lower levels uniform).

    Conditioned on the decoded higher levels, the pulse falls uniformly in
    the first half of the selected 2^i-coordinate subblock when the level bit
    is 0; the sampler draws the subblock outputs and returns their LLRs.
    """
    if i < 1:
        raise ValueError("level index must be >= 1")
    width = 1 << i
    cdf0 = np.cumsum(dmc.row0)
    cdf1 = np.cumsum(dmc.row1)
    cdf0[-1] = cdf1[-1] = 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        lam_table = np.where(dmc.row0 > 0, dmc.row1 / dmc.row0, np.inf)

    def sampler(count: int, rng: np.random.Generator) -> np.ndarray:
        out = np.empty(count, dtype=np.float64)
        done = 0
        max_rows = max(1, (1 << 22) // width)
        while done < count:
            n = min(max_rows, count - done)
            u = rng.random((n, width))
            sym = np.searchsorted(cdf0, u, side="right")
            pulse = rng.integers(0, width // 2, size=n)
            rows = np.arange(n)
            sym[rows, pulse] = np.searchsorted(cdf1, u[rows, pulse], side="right")
            out[done:done + n] = level_llrs(lam_table[sym], llr_max)
            done += n
        return out

    return sampler


@dataclass
class Session:
    """Everything needed to run blocks: plan, channels, codes, and key state."""

    plan: RatePlan
    bob: Dmc
    willie: Dmc
    codes: dict[int, PolarLevelCode]
    layouts: dict[int, LevelLayout]
    resolvability: str  # 'full_uniform' or 'extractor'
    extractor_cfg: ExtractorConfig | None = None
    extractor_seed: int | None = None
    delta_effective: float | None = None
    llr_max: float = DEFAULT_LLR_MAX
    key_store: dict[int, np.ndarray] = field(default_factory=dict)

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

    def extractor_input_bits(self) -> int:
        return self.extractor_cfg.k if self.extractor_cfg is not None else 0


def build_session(
    plan: RatePlan,
    bob: Dmc,
    willie: Dmc,
    rng: np.random.Generator,
    *,
    resolvability: str = "full_uniform",
    construction_trials: int = 2000,
    extractor_margin: float = 0.1,
    extractor_field: BinaryField | None = None,
    llr_max: float = DEFAULT_LLR_MAX,
    rate_overrides: dict[int, float] | None = None,
    rate_scale: float = 1.0,
) -> Session:
    """Construct per-level polar codes and assemble a runnable session.

    A planner blocklength that is not a power of two is rounded down for the
    polar blocks and the covertness budget is restated for the rounded
    length (``delta_effective``).  The plan's rates are asymptotic operating
    points; ``rate_scale`` backs the message and secret payloads off for
    finite blocks (key counts stay at their ceiling: they are a covertness
    requirement, not a reliability one).  ``rate_overrides`` replaces the
    payload rate of selected levels outright, which the experiment drivers
    use to pin operating points.
    """
    if resolvability not in ("full_uniform", "extractor"):
        raise SessionError(f"unknown resolvability source {resolvability!r}")
    if plan.base != "bits":
        raise SessionError("sessions need a plan in bits")

    ell = 1 << (plan.ell.bit_length() - 1)  # largest power of two <= plan.ell
    chi2_w = float(
        np.sum((willie.row1 - willie.row0) ** 2
               / np.where(willie.row0 > 0, willie.row0, 1.0))
    )
    delta_effective = plan.B * ell * chi2_w / (2.0 * plan.m)
    plan = plan.with_blocklength(ell)

    layouts: dict[int, LevelLayout] = {}
    codes: dict[int, PolarLevelCode] = {}
    for lr in plan.per_level:
        if lr.level > plan.u:
            continue
        if rate_overrides and lr.level in rate_overrides:
            n_key, n_sec = 0, 0
            n_msg = _floor_bits(ell, rate_overrides[lr.level])
        else:
            n_key = _ceil_bits(ell, lr.r_k)
            n_msg = _floor_bits(ell, lr.r_u * rate_scale)
            n_sec = _floor_bits(ell, lr.r_v * rate_scale)
        lay = LevelLayout(level=lr.level, n_key=n_key, n_msg=n_msg, n_sec=n_sec)
        if lay.n_payload > ell:
            raise SessionError(f"level {lr.level} payload exceeds blocklength")
        layouts[lr.level] = lay
        sampler = make_level_llr_sampler(bob, lr.level, llr_max)
        codes[lr.level] = construct_code(
            sampler, ell, lay.n_payload, construction_trials, rng, level=lr.level,
        )

    extractor_cfg = None
    extractor_seed = None
    if plan.u < plan.q and resolvability == "extractor":
        w = (plan.q - plan.u) * ell
        fld = extractor_field if extractor_field is not None else make_field(w)
        if fld.w != w:
            raise SessionError(f"extractor field width {fld.w} != {w}")
        from .levels import level_capacity  # local import avoids cycle at module load

        i_tail = sum(level_capacity(willie, i, "bits")
                     for i in range(plan.u + 1, plan.q + 1))
        k = min(w, _ceil_bits(ell, i_tail + extractor_margin))
        extractor_cfg = ExtractorConfig(field=fld, k=k)
        extractor_seed = random_element(fld, rng, nonzero=True)

    return Session(
        plan=plan, bob=bob, willie=willie, codes=codes, layouts=layouts,
        resolvability=resolvability, extractor_cfg=extractor_cfg,
        extractor_seed=extractor_seed, delta_effective=delta_effective,
        llr_max=llr_max,
    )


# ---------------------------------------------------------------------------
# one block
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TxRecord:
    """Transmitter-side truth for one block (payloads and codeword bits)."""

    level_bits: np.ndarray              # (q, ell) codeword bit matrix
    messages: dict[int, np.ndarray]     # message+secret payload per level
    keys: dict[int, np.ndarray]
    secrets: dict[int, np.ndarray]      # the secret suffix of each payload
    extractor_r: np.ndarray | None = None


@dataclass(frozen=True)
class BlockResult:
    sent_bits: dict[int, np.ndarray]
    decoded_bits: dict[int, np.ndarray]
    block_errors: dict[int, bool]
    decoded_secrets: dict[int, np.ndarray]
    genie_levels: tuple[int, ...]
    super_output: SuperOutput | None = None

    @property
    def any_error(self) -> bool:
        return any(self.block_errors.values())


def _spread_tail_bits(session: Session, flat: np.ndarray) -> np.ndarray:
    """(q-u)*ell flat vector -> (q-u, ell) level rows, symbol-major LSB-first."""
    span = session.q - session.u
    return flat.reshape(session.ell, span).T


def encode_block(
    session: Session,
    messages: dict[int, np.ndarray],
    keys: dict[int, np.ndarray],
    rng: np.random.Generator,
    *,
    extractor_r: np.ndarray | None = None,
) -> tuple[PpmFrame, TxRecord]:
    """Encode per-level payloads into one frame of pulse positions.

    ``messages[i]`` holds the message+secret payload (n_msg + n_sec bits) and
    ``keys[i]`` the n_key key bits for each reliability level i <= u.  Levels
    above u consume fresh uniform bits, or the extractor output of
    ``extractor_r`` (drawn from ``rng`` when absent) in extractor mode.
    """
    q, ell = session.q, session.ell
    bits = np.zeros((q, ell), dtype=np.uint8)
    secrets: dict[int, np.ndarray] = {}
    for i in range(1, session.u + 1):
        lay = session.layouts[i]
        code = session.codes[i]
        msg = np.asarray(messages.get(i, []), dtype=np.uint8)
        key = np.asarray(keys.get(i, []), dtype=np.uint8)
        if msg.shape[0] != lay.n_msg + lay.n_sec:
            raise SessionError(
                f"level {i}: expected {lay.n_msg + lay.n_sec} payload bits, "
                f"got {msg.shape[0]}"
            )
        if key.shape[0] != lay.n_key:
            raise SessionError(
                f"level {i}: expected {lay.n_key} key bits, got {key.shape[0]}"
            )
        u_vec = np.zeros(ell, dtype=np.uint8)
        u_vec[code.frozen] = code.frozen_values
        u_vec[code.message[:lay.n_key]] = key
        u_vec[code.message[lay.n_key:]] = msg
        bits[i - 1] = polar_transform(u_vec)
        secrets[i] = msg[lay.n_msg:]

    r_used = None
    if session.u < q:
        if session.resolvability == "extractor":
            cfg = session.extractor_cfg
            if extractor_r is None:
                r_used = rng.integers(0, 2, size=cfg.k, dtype=np.uint8)
            else:
                r_used = np.asarray(extractor_r, dtype=np.uint8)
                if r_used.shape[0] != cfg.k:
                    raise SessionError(f"extractor input must be {cfg.k} bits")
            x = inv(cfg, session.extractor_seed, 0, bits_to_int(r_used))
            bits[session.u:] = _spread_tail_bits(session, int_to_bits(x, cfg.w))
        else:
            bits[session.u:] = rng.integers(
                0, 2, size=(q - session.u, ell), dtype=np.uint8
            )

    record = TxRecord(
        level_bits=bits,
        messages={i: np.asarray(messages.get(i, []), dtype=np.uint8)
                  for i in range(1, session.u + 1)},
        keys={i: np.asarray(keys.get(i, []), dtype=np.uint8)
              for i in range(1, session.u + 1)},
        secrets=secrets,
        extractor_r=r_used,
    )
    return frame_from_bits(bits), record


def decode_block(
    session: Session,
    received: SuperOutput,
    *,
    keys: dict[int, np.ndarray] | None = None,
    extractor_r: np.ndarray | None = None,
    tx: TxRecord | None = None,
) -> BlockResult:
    """Multistage decode of one received block, level q down to level 1.

    ``keys`` are the receiver's key bits (pinned during decoding); they
    default to the session key store.  Resolvability levels come from the
    shared extractor input when the session runs in extractor mode, and from
    the transmitter record otherwise (genie, reported in ``genie_levels``).
    Errors surface as per-level payload mismatches against ``tx`` when given.
    """
    q, ell, u = session.q, session.ell, session.u
    if received.q != q or received.ell != ell:
        raise SessionError("received block does not match the session geometry")
    keys = keys if keys is not None else session.key_store
    with np.errstate(divide="ignore", invalid="ignore"):
        lam_table = np.where(session.bob.row0 > 0,
                             session.bob.row1 / session.bob.row0, np.inf)

    x_hat = np.zeros((q, ell), dtype=np.uint8)
    genie: list[int] = []
    if u < q:
        if session.resolvability == "extractor":
            cfg = session.extractor_cfg
            r = extractor_r
            if r is None and tx is not None:
                r = tx.extractor_r
            if r is None:
                raise SessionError("extractor mode needs the shared input bits")
            x = inv(cfg, session.extractor_seed, 0, bits_to_int(r))
            x_hat[u:] = _spread_tail_bits(session, int_to_bits(x, cfg.w))
        else:
            if tx is None:
                raise SessionError(
                    "full_uniform resolvability needs the transmitter record "
                    "(genie) to run the lower-level decoder"
                )
            x_hat[u:] = tx.level_bits[u:]
            genie = list(range(u + 1, q + 1))

    decoded: dict[int, np.ndarray] = {}
    decoded_secrets: dict[int, np.ndarray] = {}
    errors: dict[int, bool] = {}
    for i in range(u, 0, -1):
        lay = session.layouts[i]
        code = session.codes[i]
        sub = select_positions_batch(received.symbols, x_hat[i:q], i)
        llrs = level_llrs(lam_table[sub], session.llr_max)
        key = np.asarray(keys.get(i, np.zeros(lay.n_key, dtype=np.uint8)),
                         dtype=np.uint8)
        if key.shape[0] != lay.n_key:
            raise SessionError(f"level {i}: expected {lay.n_key} key bits")
        pins = (code.message[:lay.n_key], key) if lay.n_key else None
        u_hat, payload = sc_decode(llrs, code, pins=pins)
        decoded[i] = payload[lay.n_key:]
        decoded_secrets[i] = payload[lay.n_key + lay.n_msg:]
        x_hat[i - 1] = polar_transform(u_hat)
        if tx is not None:
            errors[i] = bool(np.any(decoded[i] != tx.messages[i]))

    return BlockResult(
        sent_bits={} if tx is None else dict(tx.messages),
        decoded_bits=decoded,
        block_errors=errors,
        decoded_secrets=decoded_secrets,
        genie_levels=tuple(genie),
        super_output=received,
    )


def transmit_block(
    session: Session,
    frame: PpmFrame,
    rng: np.random.Generator,
    *,
    willie_tap: bool = False,
) -> tuple[SuperOutput, SuperOutput | None]:
    """Send a frame through Bob's channel, optionally also through Willie's."""
    bob_out = transmit_super(session.bob, frame, rng)
    willie_out = transmit_super(session.willie, frame, rng) if willie_tap else None
    return bob_out, willie_out


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

    def to_dict(self) -> dict:
        return {
            "blocks": [
                {"block": b.block,
                 "level_errors": {str(k): v for k, v in b.level_errors.items()},
                 "any_error": b.any_error, "tainted": b.tainted}
                for b in self.blocks
            ],
            "cumulative_error": self.cumulative_error,
            "message_bits": self.message_bits,
            "key_bits_first_block": self.key_bits_first_block,
            "key_bits_amortized": self.key_bits_amortized,
            "extractor_r_bits": self.extractor_r_bits,
            "covert_throughput": self.covert_throughput,
            "key_throughput": self.key_throughput,
            "genie_levels": list(self.genie_levels),
        }


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


def run_chain(
    session: Session,
    B: int,
    rng: np.random.Generator,
    *,
    message_source=None,
    fresh_keys: np.ndarray | None = None,
) -> ChainReport:
    """Run B chained blocks: block j's decoded secrets key block j+1.

    Requires total secret bits >= total key bits whenever keys are needed
    (otherwise chaining is infeasible and a :class:`SessionError` is raised).
    ``message_source(level, count, block)`` supplies payload bits; the
    default draws them uniformly from ``rng``.  Fresh keys for block 1 come
    from ``fresh_keys`` or ``rng``.
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

    if fresh_keys is None:
        fresh_keys = _draw_bits(rng, n_key)
    elif len(fresh_keys) != n_key:
        raise SessionError(f"block-1 keys must be {n_key} bits")
    tx_keys = _split_keys(session, np.asarray(fresh_keys, dtype=np.uint8))
    rx_keys = {i: v.copy() for i, v in tx_keys.items()}
    session.key_store = {i: v.copy() for i, v in tx_keys.items()}

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
                messages[i] = np.asarray(message_source(i, count, j), dtype=np.uint8)
            else:
                messages[i] = _draw_bits(rng, count)
        frame, tx = encode_block(session, messages, tx_keys, rng)
        if tx.extractor_r is not None:
            extractor_bits += int(tx.extractor_r.shape[0])
        received, _ = transmit_block(session, frame, rng)
        result = decode_block(session, received, keys=rx_keys, tx=tx)
        genie = result.genie_levels
        any_err = result.any_error
        records.append(ChainBlockRecord(
            block=j, level_errors=dict(result.block_errors),
            any_error=any_err, tainted=failed_before,
        ))
        failed_before = failed_before or any_err
        if j < B and n_key > 0:
            tx_flat = np.concatenate(
                [tx.secrets[i] for i in range(1, session.u + 1)]
            ) if session.u else np.array([], dtype=np.uint8)
            rx_flat = np.concatenate(
                [result.decoded_secrets[i] for i in range(1, session.u + 1)]
            ) if session.u else np.array([], dtype=np.uint8)
            tx_keys = _split_keys(session, tx_flat[:n_key])
            rx_keys = _split_keys(session, rx_flat[:n_key])

    message_bits = B * (session.total_message_bits() + session.total_secret_bits())
    key_first = n_key
    key_amortized = key_first + (B - 1) * max(n_key - n_sec, 0)
    n = B * session.plan.m * session.ell
    norm = math.sqrt(n * session.plan.delta) if session.plan.delta > 0 else float("inf")
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
