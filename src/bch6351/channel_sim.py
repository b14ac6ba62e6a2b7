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
`random_error_patterns` for a fixed weight, `bernoulli_masks` for the
BSC).  These streams compute 256 frames at a time out of the caller's
sight, frame i of a block in its own 128-bit lane of a Python int; a BSC
block draws one bit position of all 256 masks per pass.  That changes no
output: the one-frame functions `substream_seed`, `random_error_pattern`
and `bernoulli_mask` define them.  `bernoulli_mask`, one draw per bit,
also draws the short block of fewer than 256 masks that ends a `ber` run.

The BER harness never draws a message.  The code is linear, so a
received word c ^ f has the syndromes of its flip mask f alone, and the
decoder names the same error positions for both; every counter is
therefore a function of f.  Sub-seed 2i stays reserved for frame i's
message, so the counters equal those of the explicit encode -> corrupt
-> decode run with messages drawn from those sub-seeds.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Iterator
from itertools import chain, count, islice
from typing import NamedTuple

from .gf64 import GfTables
from .decoder import coset_decoder, decode
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


# The lanes of a block: frame i's 64-bit value lives in lane i, bits
# 128i .. 128i+127 of one int, under 64 guard bits (SIMD within a register;
# Lamport, CACM 18(8), 1975).  The guards keep the lanes apart: an addition
# carries into bit 64, a multiply by a 64-bit constant fills all 128 bits,
# and a right shift moves the low bits of lane i+1 into the top of lane i.
# Masking with _LOW after each operation drops all of that, which reduces
# every lane mod 2^64 exactly as the scalar generator does.  _ONES is 1 and
# _LOW 2^64 - 1 in every lane; _RAMP holds (i+1) * golden mod 2^64 in lane
# i, so (seed * _ONES + _RAMP) & _LOW is SplitMix64(seed)'s i-th state.
_ONES = int.from_bytes((b"\x01" + bytes(15)) * _BLOCK_FRAMES, "little")
_LOW = _MASK64 * _ONES
_RAMP = int.from_bytes(b"".join((((i + 1) * _GOLDEN) & _MASK64).to_bytes(16, "little")
                                for i in range(_BLOCK_FRAMES)), "little")


def _mix_lanes(x: int) -> int:
    """mix64 of every 128-bit lane of x (the lanes of _ONES).

    Each lane is first reduced mod 2^64.  In the result a lane's low 64
    bits are its mix64 and bits 64..96 are 0; the bits x >> 31 brings in
    from the next lane sit above bit 96.
    """
    x &= _LOW
    x = (((x ^ (x >> 30)) & _LOW) * 0xBF58476D1CE4E5B9) & _LOW
    x = (((x ^ (x >> 27)) & _LOW) * 0x94D049BB133111EB) & _LOW
    return x ^ (x >> 31)


def _lane_values(x: int) -> tuple[int, ...]:
    """The low 64 bits of each lane of x, which has _BLOCK_FRAMES lanes."""
    return struct.unpack(f"<{2 * _BLOCK_FRAMES}Q", x.to_bytes(16 * _BLOCK_FRAMES, "little"))[::2]


def _threshold(p: float) -> int:
    """floor(p * 2^53) << 11: a draw's top 53 bits fall below it with probability p, exactly."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("probability must be in [0, 1]")
    return int(p * 9007199254740992.0) << 11


def bernoulli_mask(p: float, seed: int, nbits: int) -> int:
    """Mask with each of `nbits` bits set independently with probability p.

    The definition of every mask stream: bit j is set when the j-th draw
    of SplitMix64(seed) falls below `_threshold(p)`, one draw per bit.
    """
    threshold = _threshold(p)
    draw = SplitMix64(seed).next_u64
    return sum(1 << j for j in range(nbits) if draw() < threshold)


def bernoulli_masks(p: float, seeds: Iterable[int], nbits: int) -> Iterator[int]:
    """bernoulli_mask(p, s, nbits) for each s of `seeds` in turn, 1 <= nbits <= 63."""
    # Checked in the call, not on the first next() as in a generator function.
    threshold = _threshold(p)
    if not 0 < nbits <= CODEWORD_BITS:
        raise ValueError(f"need 1 <= nbits <= 63, got {nbits}")
    return _bernoulli_blocks(p, threshold, iter(seeds), nbits)


def _bernoulli_blocks(p: float, threshold: int, seeds: Iterator[int], nbits: int) -> Iterator[int]:
    """The masks of `bernoulli_masks`, _BLOCK_FRAMES seeds at a time, seed i's in lane i.

    One pass draws bit j of every mask at once: lane i holds SplitMix64(s_i)'s
    state for draw j.  _mix_lanes leaves a lane's bits 64..96 at 0 and the
    threshold is at most 2^64, so the bias makes bits 0..64 of a lane
    draw + 2^64 - threshold < 2^65: no carry passes bit 64, which is set
    exactly where the draw is at or above the threshold.  The passes run
    from bit nbits - 1 down to 0 and shift the collected bits up one place
    each, so bit 64 + j of lane i ends up holding the complement of mask
    i's bit j; nbits <= 63 keeps it inside the lane.  A short final block,
    where lanes cost more than they save, takes `bernoulli_mask`.
    """
    bias = ((1 << 64) - threshold) * _ONES
    step, flag, full = _GOLDEN * _ONES, _ONES << 64, (1 << nbits) - 1
    while block := list(islice(seeds, _BLOCK_FRAMES)):
        if len(block) < _BLOCK_FRAMES:
            yield from (bernoulli_mask(p, seed, nbits) for seed in block)
            continue
        # Below 2^70 in every lane while the passes run: no borrow crosses lanes.
        states = int.from_bytes(struct.pack("<" + "Q8x" * _BLOCK_FRAMES,
                                            *[seed & _MASK64 for seed in block]),
                                "little") + nbits * step
        kept = 0
        for _ in range(nbits):
            kept = kept << 1 | (_mix_lanes(states) + bias) & flag
            states -= step
        yield from map(full.__xor__, _lane_values(kept >> 64))


def _substream_lanes(seed: int, first: int) -> int:
    """substream_seed(seed, first + j) in lane j, for j < _BLOCK_FRAMES."""
    return _mix_lanes(((seed + first * _GOLDEN) & _MASK64) * _ONES + _RAMP)


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
    states = _substream_lanes(seed, first) & _LOW
    picks = []
    for i in range(weight):
        states += _GOLDEN * _ONES  # lane j holds frame first + j's SplitMix64 state, below 2^70
        draws = _lane_values(_mix_lanes(states))
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
    the message, so it is never drawn or encoded, a clean frame (f = 0)
    is skipped, and `decode` runs once per coset of f (`coset_decoder`).
    The counters equal those of the explicit encode -> corrupt -> decode run.
    Identical (p, frames, seed) always produce an identical report, in
    any evaluation order.  The optional `tables` is not read: the
    decoder works in its one fixed field.
    """
    if frames < 1:
        raise ValueError("need at least one frame")
    pre_fec = post_fec = uncorrectable = miscorrected = 0
    decoded = coset_decoder(decode, CODEWORD_BITS)
    for flips in bernoulli_masks(p, islice(substream_seeds(seed), 1, 2 * frames, 2),
                                 CODEWORD_BITS):
        if flips == 0:
            continue
        corrected = decoded(flips)
        errors = flips >> PARITY_BITS
        pre_fec += errors.bit_count()
        # corrected is f ^ ê, the error left after decoding; an UNCORRECTABLE
        # frame (None) delivers its received message bits unrepaired.
        residual = errors if corrected is None else corrected >> PARITY_BITS
        if residual:
            post_fec += residual.bit_count()
            if corrected is None:
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
