"""Deterministic error injection and a BER/FER measurement harness.

All randomness comes from SplitMix64 (the standard 64-bit counter-based
generator: state advances by 0x9E3779B97F4A7C15 and the output is the
murmur-style finalizer of the state).  It is tiny, splittable, and
reproducible across languages; the platform RNG is deliberately not used
anywhere.  Bernoulli trials compare the top 53 bits of a draw against
floor(p * 2^53), which is integer-exact for any double p.

Per-frame sub-seeds are successive outputs of the master seed's stream
(frame i uses sub-seed indices 2i for its message and 2i+1 for its
channel noise), so frames are independent and results do not depend on
evaluation order.  The BER harness draws a frame's noise first: a clean
frame adds nothing to any counter, so it skips the message draw, the
encode and the decode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .gf64 import GfTables
from .decoder import DecodeStatus, decode
from .encoder import CODEWORD_BITS, MESSAGE_BITS, PARITY_BITS, encode_lfsr

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """SplitMix64 output finalizer (Stafford variant 13 avalanche)."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class SplitMix64:
    """The named deterministic generator behind every seeded operation."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        return mix64(self.state)

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53-bit resolution."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def next_below(self, bound: int) -> int:
        """Uniform integer in 0..bound-1, modulo bias removed by rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        threshold = (1 << 64) - ((1 << 64) % bound)
        while True:
            u = self.next_u64()
            if u < threshold:
                return u % bound

    def next_bits(self, k: int) -> int:
        """Uniform k-bit integer."""
        out = 0
        for shift in range(0, k, 64):
            out |= self.next_u64() << shift
        return out & ((1 << k) - 1)


def substream_seed(seed: int, index: int) -> int:
    """Sub-seed at position `index` of the master seed's stream.

    Equals the (index+1)-th output of SplitMix64(seed); computed directly
    so any position is reachable without iterating.
    """
    return mix64((seed + (index + 1) * _GOLDEN) & _MASK64)


def bernoulli_mask(p: float, seed: int, nbits: int) -> int:
    """Mask with each of `nbits` bits set independently with probability p.

    Bit j uses the j-th draw of SplitMix64(seed); the draw's top 53 bits
    are compared against floor(p * 2^53), which represents p exactly.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("probability must be in [0, 1]")
    # Finalizer inlined: this sits on the BER harness's per-bit hot path.
    threshold = int(p * 9007199254740992.0) << 11  # p * 2^53, exact
    state = seed & _MASK64
    mask = 0
    bit = 1
    for _ in range(nbits):
        state = (state + _GOLDEN) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        if (z ^ (z >> 31)) < threshold:
            mask |= bit
        bit <<= 1
    return mask


@dataclass(frozen=True)
class ErrorPattern:
    """A 63-bit error mask; `weight` is its population count."""

    mask: int
    weight: int = field(init=False)

    def __post_init__(self):
        if self.mask >> CODEWORD_BITS:
            raise ValueError("error mask exceeds 63 bits")
        object.__setattr__(self, "weight", self.mask.bit_count())


@dataclass(frozen=True)
class BscConfig:
    """Binary symmetric channel: crossover probability and stream seed."""

    p: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("crossover probability must be in [0, 1]")


@dataclass
class BerReport:
    """Counters from one encode -> corrupt -> decode run.

    Bit-error counts cover message bits only (51 per frame); parity bits
    are overhead, not payload.  A frame is in error when the delivered
    message differs from the transmitted one; uncorrectable frames
    deliver the received message bits unrepaired.
    """

    p: float
    seed: int
    frames: int = 0
    pre_fec_bit_errors: int = 0
    post_fec_bit_errors: int = 0
    uncorrectable_frames: int = 0
    miscorrected_frames: int = 0

    @property
    def frame_errors(self) -> int:
        return self.uncorrectable_frames + self.miscorrected_frames

    @property
    def pre_fec_ber(self) -> float:
        return self.pre_fec_bit_errors / (MESSAGE_BITS * self.frames)

    @property
    def post_fec_ber(self) -> float:
        return self.post_fec_bit_errors / (MESSAGE_BITS * self.frames)

    @property
    def fer(self) -> float:
        return self.frame_errors / self.frames

    CSV_HEADER = "p,frames,seed,pre_fec_ber,post_fec_ber,fer,uncorrectable,miscorrected"

    def csv_row(self) -> str:
        return ",".join([
            format(self.p, ".10g"),
            str(self.frames),
            str(self.seed),
            format(self.pre_fec_ber, ".10g"),
            format(self.post_fec_ber, ".10g"),
            format(self.fer, ".10g"),
            str(self.uncorrectable_frames),
            str(self.miscorrected_frames),
        ])


def inject_errors(codeword: int, pattern: ErrorPattern) -> int:
    """Received word = codeword XOR error mask."""
    return codeword ^ pattern.mask


def random_error_pattern(weight: int, n: int, seed: int) -> ErrorPattern:
    """Uniformly random pattern of `weight` distinct positions in 0..n-1.

    Partial Fisher-Yates over the position list; same seed, same pattern.
    """
    if not 0 <= weight <= n <= CODEWORD_BITS:
        raise ValueError(f"need 0 <= weight <= n <= 63, got weight={weight} n={n}")
    rng = SplitMix64(seed)
    slots = list(range(n))
    mask = 0
    for i in range(weight):
        j = i + rng.next_below(n - i)
        slots[i], slots[j] = slots[j], slots[i]
        mask |= 1 << slots[i]
    return ErrorPattern(mask)


def bsc_corrupt(codeword: int, cfg: BscConfig) -> int:
    """Flip each of the 63 bits independently with probability cfg.p."""
    return codeword ^ bernoulli_mask(cfg.p, cfg.seed, CODEWORD_BITS)


def run_ber_experiment(p: float, frames: int, seed: int, tables: GfTables) -> BerReport:
    """Measure pre/post-FEC error rates over `frames` random frames.

    Frame i: draw the BSC's flip mask from sub-seed 2i+1; unless it is
    zero, draw a 51-bit message from sub-seed 2i, encode, corrupt, decode,
    and compare message bits.
    Identical (p, frames, seed) always produce an identical report, in
    any evaluation order.
    """
    if frames < 1:
        raise ValueError("need at least one frame")
    message_mask = (1 << MESSAGE_BITS) - 1
    pre_fec = post_fec = uncorrectable = miscorrected = 0
    for i in range(frames):
        flips = bernoulli_mask(p, substream_seed(seed, 2 * i + 1), CODEWORD_BITS)
        if flips == 0:
            # A clean word always decodes NO_ERROR with the message intact,
            # so the frame contributes nothing to any counter.
            continue
        message = SplitMix64(substream_seed(seed, 2 * i)).next_bits(MESSAGE_BITS)
        received = encode_lfsr(message) ^ flips
        outcome = decode(received, tables)
        if outcome.status is DecodeStatus.UNCORRECTABLE:
            delivered = (received >> PARITY_BITS) & message_mask
        else:
            delivered = (outcome.corrected >> PARITY_BITS) & message_mask

        pre_fec += ((flips >> PARITY_BITS) & message_mask).bit_count()
        post_fec += (delivered ^ message).bit_count()
        if delivered != message:
            if outcome.status is DecodeStatus.UNCORRECTABLE:
                uncorrectable += 1
            else:
                miscorrected += 1
    return BerReport(
        p=p,
        seed=seed,
        frames=frames,
        pre_fec_bit_errors=pre_fec,
        post_fec_bit_errors=post_fec,
        uncorrectable_frames=uncorrectable,
        miscorrected_frames=miscorrected,
    )
