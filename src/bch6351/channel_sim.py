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
evaluation order.

The BER harness never draws a message.  The code is linear, so a
received word c ^ f has the syndromes of its flip mask f alone, and the
decoder names the same error positions for both; every counter is
therefore a function of f.  Sub-seed 2i stays reserved for frame i's
message, so the counters equal those of the explicit encode -> corrupt
-> decode run with messages drawn from those sub-seeds.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .gf64 import GfTables
from .decoder import DecodeStatus, decode
# encode_lfsr is not called here; bench/run.py traces it as channel_sim.encode_lfsr.
from .encoder import CODEWORD_BITS, MESSAGE_BITS, PARITY_BITS, encode_lfsr  # noqa: F401

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

    def next_below(self, bound: int) -> int:
        """Uniform integer in 0..bound-1, modulo bias removed by rejection."""
        # Above 2^64 the rejection threshold below would be 0: no draw passes.
        if not 0 < bound <= 1 << 64:
            raise ValueError("bound must be in 1..2^64")
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


@lru_cache(maxsize=8)
def _lanes(nbits: int, threshold: int) -> tuple[int, int, int, int, int]:
    """Constants that run `nbits` SplitMix64 draws side by side in one int.

    Draw j lives in lane j, bits 128j .. 128j+127 of the int: 64 value
    bits under 64 guard bits (SIMD within a register; Lamport, CACM 18(8),
    1975).  The guards keep the lanes apart: an addition carries into bit
    64, a multiply by a 64-bit constant fills all 128 bits, and a right
    shift moves the low bits of lane j+1 into the top of lane j.  Masking
    with LOW after each step drops all of that, which reduces every lane
    mod 2^64 exactly as the scalar generator does.

    Returns (ONES, LOW, HIGH, RAMP, THRESHOLDS): 1, 2^64 - 1, 2^64 and
    `threshold` in every lane, and RAMP's (j+1) * golden mod 2^64 in lane
    j, so (seed * ONES + RAMP) & LOW is SplitMix64(seed)'s j-th state.
    """
    ones = int.from_bytes((b"\x01" + bytes(15)) * nbits, "little")
    ramp = sum((((j + 1) * _GOLDEN) & _MASK64) << (128 * j) for j in range(nbits))
    return ones, _MASK64 * ones, ones << 64, ramp, threshold * ones


# Lane j's byte holding its bit 64 reads 0 where draw j fell below the
# threshold: that is a set bit of the mask, written '1' for int(·, 2).
_SET_IF_ZERO = bytes.maketrans(b"\x00\x01", b"10")


def bernoulli_mask(p: float, seed: int, nbits: int) -> int:
    """Mask with each of `nbits` bits set independently with probability p.

    Bit j uses the j-th draw of SplitMix64(seed); the draw's top 53 bits
    are compared against floor(p * 2^53), which represents p exactly.
    All `nbits` draws run at once, one per 128-bit lane (see `_lanes`).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("probability must be in [0, 1]")
    if nbits <= 0:
        return 0
    threshold = int(p * 9007199254740992.0) << 11  # p * 2^53, exact
    ones, low, high, ramp, thresholds = _lanes(nbits, threshold)
    x = ((seed & _MASK64) * ones + ramp) & low
    x = (((x ^ (x >> 30)) & low) * 0xBF58476D1CE4E5B9) & low
    x = (((x ^ (x >> 27)) & low) * 0x94D049BB133111EB) & low
    # Each lane is now 2^64 + draw - threshold, at least 0 because the
    # threshold is at most 2^64, so no borrow leaves a lane and bit 64 is
    # clear exactly where draw < threshold.  The bits x >> 31 brings in
    # from the next lane sit above bit 96 and are never read.
    x = ((x ^ (x >> 31)) | high) - thresholds
    # Big-endian, lane nbits-1 comes first and its bit 64 is in byte 7.
    return int(x.to_bytes(16 * nbits, "big")[7::16].translate(_SET_IF_ZERO), 2)


class BerReport(NamedTuple):
    """Counters from one encode -> corrupt -> decode run.

    Bit-error counts cover message bits only (51 per frame); parity bits
    are overhead, not payload.  A frame is in error when the delivered
    message differs from the transmitted one; uncorrectable frames
    deliver the received message bits unrepaired.
    """

    p: float
    seed: int
    frames: int
    pre_fec_bit_errors: int
    post_fec_bit_errors: int
    uncorrectable_frames: int
    miscorrected_frames: int

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


def random_error_pattern(weight: int, n: int, seed: int) -> int:
    """Mask of `weight` distinct positions drawn uniformly from 0..n-1.

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
    return mask


def run_ber_experiment(p: float, frames: int, seed: int, tables: GfTables) -> BerReport:
    """Measure pre/post-FEC error rates over `frames` random frames.

    Frame i sends a 51-bit message drawn from sub-seed 2i, encoded, over
    the BSC with the flip mask f drawn from sub-seed 2i+1.  Decoding is
    linear: decode(c ^ f) and decode(f) see the same syndromes and name
    the same estimated error ê, so the delivered message differs from the
    sent one by ((f ^ ê) >> 12) & mask, the message bits of
    decode(f).corrected, or by (f >> 12) & mask when the frame is
    UNCORRECTABLE.  Neither depends on the message, so it is never drawn
    or encoded, and a clean frame (f = 0) is skipped.  The counters equal
    those of the explicit encode -> corrupt -> decode run.
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
            continue
        outcome = decode(flips, tables)
        errors = (flips >> PARITY_BITS) & message_mask
        pre_fec += errors.bit_count()
        if outcome.status is DecodeStatus.UNCORRECTABLE:
            # The received message bits are delivered unrepaired.
            if errors:
                post_fec += errors.bit_count()
                uncorrectable += 1
        else:
            # outcome.corrected is f ^ ê, the error left after decoding.
            residual = (outcome.corrected >> PARITY_BITS) & message_mask
            if residual:
                post_fec += residual.bit_count()
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
