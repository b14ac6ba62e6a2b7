"""Deterministic error injection and a BER/FER measurement harness.

All randomness comes from SplitMix64 (the standard 64-bit counter-based
generator: state advances by 0x9E3779B97F4A7C15 and the output is the
murmur-style finalizer of the state).  It is tiny, splittable, and
reproducible across languages; the platform RNG is deliberately not used
anywhere.  Bernoulli trials compare the top 53 bits of a draw against
floor(p * 2^53), which is integer-exact for any double p.

Per-frame sub-seeds are successive outputs of the master seed's stream,
so frames are independent and results do not depend on evaluation
order.  There is one such stream, `substream_seeds(seed)`.  The BER
harness reads its odd positions, 2i+1 for frame i's channel noise, and
keeps position 2i for its message; the CLI's `corrupt`, which has no
message to draw, takes frame i's flip mask from position i (through
`random_error_patterns` for a fixed weight).  Both streams never end and
compute 256 positions at a time out of the caller's sight, each in its
own 128-bit lane of a Python int.  That changes no output: the one-frame
functions `substream_seed` and `random_error_pattern` define them.

The BER harness never draws a message.  The code is linear, so a
received word c ^ f has the syndromes of its flip mask f alone, and the
decoder names the same error positions for both; every counter is
therefore a function of f.  Sub-seed 2i stays reserved for frame i's
message, so the counters equal those of the explicit encode -> corrupt
-> decode run with messages drawn from those sub-seeds.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator
from functools import lru_cache
from itertools import chain, count, islice
from typing import NamedTuple

from .gf64 import GfTables
from .decoder import DecodeStatus, decode
# encode_lfsr is not called here; bench/run.py traces it as channel_sim.encode_lfsr.
from .encoder import CODEWORD_BITS, MESSAGE_BITS, PARITY_BITS, encode_lfsr  # noqa: F401

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# Frames drawn side by side, one per 128-bit lane; past about 256 a frame costs no less.
_BLOCK_FRAMES = 256


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
    with LOW after each operation drops all of that, which reduces every lane
    mod 2^64 exactly as the scalar generator does.

    Returns (ONES, LOW, HIGH, RAMP, THRESHOLDS): 1, 2^64 - 1, 2^64 and
    `threshold` in every lane, and RAMP's (j+1) * golden mod 2^64 in lane
    j, so (seed * ONES + RAMP) & LOW is SplitMix64(seed)'s j-th state.
    """
    ones = int.from_bytes((b"\x01" + bytes(15)) * nbits, "little")
    ramp = int.from_bytes(b"".join((((j + 1) * _GOLDEN) & _MASK64).to_bytes(16, "little")
                                   for j in range(nbits)), "little")
    return ones, _MASK64 * ones, ones << 64, ramp, threshold * ones


# Lane j's byte holding its bit 64 reads 0 where draw j fell below the
# threshold: that is a set bit of the mask, written '1' for int(·, 2).
_SET_IF_ZERO = bytes.maketrans(b"\x00\x01", b"10")


def _mix_lanes(x: int, low: int) -> int:
    """mix64 of every 128-bit lane of x, laid out as in `_lanes`.

    Each lane is first reduced mod 2^64.  In the result a lane's low 64
    bits are its mix64 and bits 64..96 are 0; the bits x >> 31 brings in
    from the next lane sit above bit 96.
    """
    x &= low
    x = (((x ^ (x >> 30)) & low) * 0xBF58476D1CE4E5B9) & low
    x = (((x ^ (x >> 27)) & low) * 0x94D049BB133111EB) & low
    return x ^ (x >> 31)


def _lane_values(x: int) -> tuple[int, ...]:
    """The low 64 bits of each lane of x, which has _BLOCK_FRAMES lanes."""
    return struct.unpack(f"<{2 * _BLOCK_FRAMES}Q", x.to_bytes(16 * _BLOCK_FRAMES, "little"))[::2]


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
    # Each lane of x is 2^64 + draw - threshold, at least 0 because the
    # threshold is at most 2^64, so no borrow leaves a lane and bit 64 is
    # clear exactly where draw < threshold.
    x = (_mix_lanes((seed & _MASK64) * ones + ramp, low) | high) - thresholds
    # Big-endian, lane nbits-1 comes first and its bit 64 is in byte 7.
    return int(x.to_bytes(16 * nbits, "big")[7::16].translate(_SET_IF_ZERO), 2)


def _substream_lanes(seed: int, first: int) -> int:
    """substream_seed(seed, first + j) in lane j, for j < _BLOCK_FRAMES."""
    ones, low, _, ramp, _ = _lanes(_BLOCK_FRAMES, 0)
    return _mix_lanes(((seed + first * _GOLDEN) & _MASK64) * ones + ramp, low)


def substream_seeds(seed: int) -> Iterator[int]:
    """substream_seed(seed, i) for i = 0, 1, 2, ..."""
    return chain.from_iterable(_lane_values(_substream_lanes(seed, first))
                               for first in count(0, _BLOCK_FRAMES))


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

    Partial Fisher-Yates over the positions 0..n-1; same seed, same
    pattern.  Only the slots a swap has displaced are stored: slot k holds
    displaced.get(k, k).  Step i reads slot j >= i and moves slot i's
    position there; slot i itself is never read again.
    """
    if not 0 <= weight <= n <= CODEWORD_BITS:
        raise ValueError(f"need 0 <= weight <= n <= 63, got weight={weight} n={n}")
    rng = SplitMix64(seed)
    displaced: dict[int, int] = {}
    mask = 0
    for i in range(weight):
        j = i + rng.next_below(n - i)
        mask |= 1 << displaced.get(j, j)
        displaced[j] = displaced.get(i, i)
    return mask


def random_error_patterns(weight: int, n: int, seed: int) -> Iterator[int]:
    """random_error_pattern(weight, n, substream_seed(seed, i)) for i = 0, 1, 2, ..."""
    # Checked in the call, not on the first next() as in a generator function.
    if not 0 <= weight <= n <= CODEWORD_BITS:
        raise ValueError(f"need 0 <= weight <= n <= 63, got weight={weight} n={n}")
    return chain.from_iterable(_error_pattern_block(weight, n, seed, first)
                               for first in count(0, _BLOCK_FRAMES))


def _error_pattern_block(weight: int, n: int, seed: int, first: int) -> list[int]:
    """Patterns of frames first .. first + _BLOCK_FRAMES - 1, frame first + j's in lane j.

    Draw i of every frame's Fisher-Yates runs at once.  A draw at or above
    its rejection limit (probability below 2^-58) sends the whole block
    down the scalar path, which draws that frame's next value from its own
    stream.
    """
    ones, low, _, _, _ = _lanes(_BLOCK_FRAMES, 0)
    states = _substream_lanes(seed, first) & low
    picks = []
    for i in range(weight):
        states += _GOLDEN * ones  # lane j holds frame first + j's SplitMix64 state, below 2^70
        draws = _lane_values(_mix_lanes(states, low))
        if max(draws) >= (1 << 64) - (1 << 64) % (n - i):
            return [random_error_pattern(weight, n, substream_seed(seed, first + j))
                    for j in range(_BLOCK_FRAMES)]
        picks.append([i + u % (n - i) for u in draws])
    # Swap i of a frame's shuffle exchanges slots i and j, its entry in
    # picks[i], so its slots 0..weight-1 end up holding the image of
    # positions 0..weight-1 under its swaps applied last first.  Before
    # swap i is applied, bits 0..i are still set: it moves bit i to bit j
    # unless bit j is set already.
    masks = [(1 << weight) - 1] * _BLOCK_FRAMES
    for i in reversed(range(weight)):
        masks = [m if m >> j & 1 else m ^ (1 << i | 1 << j) for m, j in zip(masks, picks[i])]
    return masks


def run_ber_experiment(p: float, frames: int, seed: int,
                       tables: GfTables | None = None) -> BerReport:
    """Measure pre/post-FEC error rates over `frames` random frames.

    Frame i sends a 51-bit message drawn from sub-seed 2i, encoded, over
    the BSC with the flip mask f drawn from sub-seed 2i+1.  Decoding is
    linear: decode(c ^ f) and decode(f) see the same syndromes and name
    the same estimated error ê, so the delivered message differs from the
    sent one by (f ^ ê) >> 12, the message bits of decode(f).corrected,
    or by f >> 12 when the frame is UNCORRECTABLE (both words are below
    2^63, so the shift leaves the 51 message bits).  Neither depends on
    the message, so it is never drawn or encoded, and a clean frame
    (f = 0) is skipped.  The counters equal those of the explicit
    encode -> corrupt -> decode run.
    Identical (p, frames, seed) always produce an identical report, in
    any evaluation order.  The optional `tables` is not read: the
    decoder works in its one fixed field.
    """
    if frames < 1:
        raise ValueError("need at least one frame")
    pre_fec = post_fec = uncorrectable = miscorrected = 0
    for noise_seed in islice(substream_seeds(seed), 1, 2 * frames, 2):
        flips = bernoulli_mask(p, noise_seed, CODEWORD_BITS)
        if flips == 0:
            continue
        outcome = decode(flips)
        errors = flips >> PARITY_BITS
        pre_fec += errors.bit_count()
        if outcome.status is DecodeStatus.UNCORRECTABLE:
            # The received message bits are delivered unrepaired.
            if errors:
                post_fec += errors.bit_count()
                uncorrectable += 1
        else:
            # outcome.corrected is f ^ ê, the error left after decoding.
            residual = outcome.corrected >> PARITY_BITS
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
