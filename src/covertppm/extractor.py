"""Two-universal invertible extractor over GF(2^w).

The extractor is a single field multiplication: with a public nonzero seed s,

    ext(s, x)    = low (w - k) bits of s^(-1) * x
    inv(s, b, r) = s * (b || r)

where the concatenation places b in the low-order bits and r in the high-order
k bits, matching the least-significant-bit-first convention used by the PPM
decimal map.  Because multiplication by a nonzero element is a bijection, the
preimage bins {x : ext(s, x) = b} all have size exactly 2^k (regularity), the
map is explicitly invertible, and distinct inputs collide under a random seed
with probability at most 2^-(w-k) (two-universality).

Field elements are Python integers holding bit-packed GF(2) polynomials, so a
single implementation covers widths from a few bits up to the multi-thousand
bit aggregates produced by joining the resolvability-only levels.  The seed
is drawn uniformly from the nonzero elements (``random_element``).  Moduli
come from a bundled table of low-weight irreducible polynomials, each passing
a Rabin irreducibility test the first time its width is used in a process;
widths missing from the table are filled, once per width and process, by
sequential search with the same test, which skips the trinomials when 8
divides the width (Swan's theorem rules them all out).  The search is
refused above ``MAX_SEARCH_WIDTH`` bits, where it can run for minutes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources

import numpy as np

MODULI_RESOURCE = "gf2_moduli.txt"
#: widest field whose modulus is searched for when the table lacks it
MAX_SEARCH_WIDTH = 1024


class FieldError(ValueError):
    """Raised for invalid field or extractor parameters."""


# ---------------------------------------------------------------------------
# GF(2)[x] arithmetic on bit-packed integers
# ---------------------------------------------------------------------------

def clmul(a: int, b: int) -> int:
    """Carry-less product of two GF(2) polynomials."""
    result = 0
    while b:
        low = b & -b
        result ^= a << (low.bit_length() - 1)
        b ^= low
    return result


def poly_mod(a: int, f: int) -> int:
    """Remainder of a modulo f over GF(2).

    Uses chunked reduction: with f = x^w + g, the high part H of a folds in
    as H*g, repeating until the value fits below x^w.  For the low-weight
    moduli used here this costs a handful of big-integer operations.
    """
    w = f.bit_length() - 1
    if w == 0:
        return 0
    g = f ^ (1 << w)
    mask = (1 << w) - 1
    high = a >> w
    while high:
        a = (a & mask) ^ clmul(high, g)
        high = a >> w
    return a


def poly_divmod(a: int, b: int) -> tuple[int, int]:
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    q = 0
    db = b.bit_length()
    while a.bit_length() >= db:
        shift = a.bit_length() - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, poly_mod(a, b)
    return a


def _sqr_mod(a: int, f: int) -> int:
    # squaring over GF(2) spreads the bits to even positions: a 0 between
    # every two binary digits
    return poly_mod(int("0".join(format(a, "b")), 2), f)


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(f: int) -> bool:
    """Rabin irreducibility test for a GF(2) polynomial of degree >= 1."""
    w = f.bit_length() - 1
    if w < 1:
        return False
    if not (f & 1):
        return False  # divisible by x
    # x^(2^w) == x (mod f)
    t = 2  # the polynomial x
    for _ in range(w):
        t = _sqr_mod(t, f)
    if t != poly_mod(2, f):
        return False
    for p in _prime_factors(w):
        t = 2
        for _ in range(w // p):
            t = _sqr_mod(t, f)
        if poly_gcd(t ^ 2, f) != 1:
            return False
    return True


def _search_irreducible(w: int) -> int:
    """Lowest-weight, then lexicographically smallest, irreducible of degree w."""
    base = (1 << w) | 1
    if w == 1:
        return 0b11  # x + 1
    # trinomials x^w + x^a + 1; by Swan's theorem (Pacific J. Math. 1962)
    # none is irreducible when 8 divides w, so that loop would find nothing
    if w % 8:
        for a in range(1, w):
            f = base | (1 << a)
            if is_irreducible(f):
                return f
    # pentanomials x^w + x^a + x^b + x^c + 1
    for a in range(3, w):
        for b in range(2, a):
            for c in range(1, b):
                f = base | (1 << a) | (1 << b) | (1 << c)
                if is_irreducible(f):
                    return f
    raise FieldError(f"no low-weight irreducible of degree {w} found")


@functools.lru_cache(maxsize=1)
def _bundled_moduli() -> dict[int, int]:
    table: dict[int, int] = {}
    text = resources.files("covertppm.data").joinpath(MODULI_RESOURCE).read_text()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        w_str, _, hex_str = line.partition(":")
        table[int(w_str)] = int(hex_str.strip(), 16)
    return table


# ---------------------------------------------------------------------------
# field and extractor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BinaryField:
    """GF(2^w) with a bit-encoded irreducible modulus of degree w."""

    w: int
    modulus: int

    def __post_init__(self):
        if self.w < 1:
            raise FieldError("width must be >= 1")
        if self.modulus.bit_length() - 1 != self.w:
            raise FieldError(
                f"modulus degree {self.modulus.bit_length() - 1} != width {self.w}"
            )
        # exhaustive verification is cheap for small widths; larger moduli
        # come from the vetted table or the Rabin-checked search
        if self.w <= 32 and not is_irreducible(self.modulus):
            raise FieldError(f"modulus {self.modulus:#x} is reducible")

    @property
    def order(self) -> int:
        return 1 << self.w


@functools.cache
def _modulus(w: int) -> int:
    """The modulus of GF(2^w), once per width and process.

    A bundled entry is returned after one Rabin test; a width missing from
    the table is filled by the sequential low-weight search, itself verified
    with the Rabin test, up to ``MAX_SEARCH_WIDTH`` bits.  Past that width
    the search is refused before any test.  A failure raises and is not
    cached.
    """
    modulus = _bundled_moduli().get(w)
    if modulus is None:
        if w > MAX_SEARCH_WIDTH:
            raise FieldError(
                f"no bundled modulus for w={w}, and widths above "
                f"{MAX_SEARCH_WIDTH} are not searched"
            )
        return _search_irreducible(w)
    if not is_irreducible(modulus):
        raise FieldError(f"bundled modulus for w={w} failed verification")
    return modulus


def make_field(w: int) -> BinaryField:
    """GF(2^w) with the modulus from the bundled table or the search;
    an unbundled width above ``MAX_SEARCH_WIDTH`` raises ``FieldError``."""
    return BinaryField(w=w, modulus=_modulus(w))


def gf_mul(field: BinaryField, a: int, b: int) -> int:
    """Product in GF(2^w): carry-less multiply reduced by the modulus."""
    if not (0 <= a < field.order and 0 <= b < field.order):
        raise FieldError("operands outside the field")
    return poly_mod(clmul(a, b), field.modulus)


def gf_inv(field: BinaryField, a: int) -> int:
    """Multiplicative inverse via the extended Euclidean algorithm."""
    if a == 0:
        raise FieldError("zero has no inverse")
    if not 0 < a < field.order:
        raise FieldError("operand outside the field")
    # invariants: t0*a == r0, t1*a == r1 (mod modulus)
    r0, r1 = field.modulus, a
    t0, t1 = 0, 1
    while r1 != 0:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, t0 ^ poly_mod(clmul(q, t1), field.modulus)
    return t0


@dataclass(frozen=True)
class ExtractorConfig:
    """Extractor geometry: field width w and random-input width k <= w.

    The output (the b part) has width w - k; b occupies the low-order bits of
    the concatenation (b || r).
    """

    field: BinaryField
    k: int

    def __post_init__(self):
        if not 0 <= self.k <= self.field.w:
            raise FieldError(f"k must lie in [0, {self.field.w}]")

    @property
    def w(self) -> int:
        return self.field.w

    @property
    def b_width(self) -> int:
        return self.field.w - self.k

    @property
    def b_mask(self) -> int:
        return (1 << self.b_width) - 1


def ext(cfg: ExtractorConfig, s: int, x: int) -> int:
    """b = low (w - k) bits of s^(-1) * x; requires a nonzero seed."""
    if s == 0:
        raise FieldError("seed must be nonzero")
    y = gf_mul(cfg.field, gf_inv(cfg.field, s), x)
    return y & cfg.b_mask


def inv(cfg: ExtractorConfig, s: int, b: int, r: int) -> int:
    """x = s * (b || r); the unique preimage of b in the bin selected by r."""
    if s == 0:
        raise FieldError("seed must be nonzero")
    if not 0 <= b < (1 << cfg.b_width):
        raise FieldError(f"b must fit in {cfg.b_width} bits")
    if not 0 <= r < (1 << cfg.k):
        raise FieldError(f"r must fit in {cfg.k} bits")
    return gf_mul(cfg.field, s, b | (r << cfg.b_width))


def two_universal_check(
    cfg: ExtractorConfig,
    sample_pairs: int,
    rng,
) -> dict:
    """Estimate the seed-collision probability of distinct inputs.

    For each sampled pair x != x', computes Pr_S[ext(S,x) = ext(S,x')] exactly
    by enumerating all nonzero seeds (hence the w <= 16 restriction), then
    averages over pairs.  Returns the estimate, the two-universality threshold
    2^-(w-k), a 3-sigma pair-sampling slack, and the resulting verdict.
    """
    if cfg.w > 16:
        raise FieldError("exhaustive seed enumeration restricted to w <= 16")
    if sample_pairs < 1:
        raise FieldError("need at least one pair")
    threshold = 2.0 ** (-cfg.b_width)
    if cfg.k == cfg.w:
        # empty output: everything collides, and the threshold is 1
        return {"estimate": 1.0, "threshold": 1.0, "sigma": 0.0, "ok": True,
                "pairs": sample_pairs}
    order = cfg.field.order
    rates = []
    for _ in range(sample_pairs):
        x = int(rng.integers(order))
        xp = int(rng.integers(order))
        while xp == x:
            xp = int(rng.integers(order))
        d = x ^ xp
        hits = 0
        for s in range(1, order):
            y = gf_mul(cfg.field, gf_inv(cfg.field, s), d)
            if (y & cfg.b_mask) == 0:
                hits += 1
        rates.append(hits / (order - 1))
    est = float(sum(rates) / sample_pairs)
    var = float(sum((r - est) ** 2 for r in rates) / max(sample_pairs - 1, 1))
    sigma = (var / sample_pairs) ** 0.5
    return {
        "estimate": est,
        "threshold": threshold,
        "sigma": sigma,
        "ok": est <= threshold * (1.0 + 3.0 * sigma) + 3.0 * sigma,
        "pairs": sample_pairs,
    }


# ---------------------------------------------------------------------------
# bit-vector packing helpers (LSB-first, matching the decimal map)
# ---------------------------------------------------------------------------

def random_element(field: BinaryField, rng) -> int:
    """Uniform nonzero field element from a numpy generator (zero is redrawn)."""
    while True:
        value = bits_to_int(rng.integers(0, 2, size=field.w))
        if value:
            return value


def bits_to_int(bits) -> int:
    """Integer whose bit t is the low bit of ``bits[t]``."""
    packed = np.packbits(np.asarray(bits).astype(np.uint8) & 1, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def int_to_bits(value: int, width: int) -> np.ndarray:
    """Bits 0..width-1 of ``value`` (two's complement when negative), uint8."""
    low = int(value) & ((1 << width) - 1)
    packed = np.frombuffer(low.to_bytes((width + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=width, bitorder="little")
