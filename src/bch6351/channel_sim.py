"""Deterministic error injection and a BER/FER measurement harness.

All randomness comes from SplitMix64 (the standard 64-bit counter-based
generator: state advances by 0x9E3779B97F4A7C15 and the output is the
murmur-style finalizer of the state).  It is tiny, splittable, and
reproducible across languages; the platform RNG is deliberately not used
anywhere.  Bernoulli trials compare the top 53 bits of a draw against
floor(p * 2^53), which is integer-exact for any double p.

Per-frame sub-seeds are successive outputs of the master seed's stream,
so frames are independent and results do not depend on evaluation
order.  There is one such stream: `substream_seed(seed, i)` is position
i.  The CLI's `corrupt` takes frame i's flip mask from position i
(`random_error_patterns` for a fixed weight, `bernoulli_masks` for the
BSC, each given the master seed); the BER harness takes frame i's noise
from position 2i+1 and keeps 2i for its message.  Both compute 256
frames at a time out of the caller's sight, frame i of a block in its
own 128-bit lane of a Python int, and read one generator, `_draws`, for
draw 0, 1, 2, ... of every lane: a mask block sets bit j of all 256
masks from draw j.  That changes no output: the one-frame functions
`substream_seed`, `random_error_pattern` and `bernoulli_mask` define
them.  `bernoulli_mask` also draws a short final block of the harness.

The BER harness never draws a message.  The code is linear, so a
received word c ^ f has the syndromes of its flip mask f alone, and the
decoder names the same error positions for both; every counter is
therefore a function of f, and the harness counts a whole block at a
time from its masks and error patterns.  Sub-seed 2i stays reserved for
frame i's message, so the counters equal those of the explicit encode
-> corrupt -> decode run with messages drawn from those sub-seeds.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator
from itertools import chain, count
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
_ODD_RAMP = (_RAMP << 1) & _LOW  # (2i + 2) * golden mod 2^64: sub-seed 2i + 1 in lane i
# A frame's message bits in every lane, and bit 63, a coset_decoder's UNCORRECTABLE mark.
_MESSAGE_LANES = ((1 << CODEWORD_BITS) - (1 << PARITY_BITS)) * _ONES
_MARK_LANES = (1 << CODEWORD_BITS) * _ONES


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


def bernoulli_masks(p: float, seed: int, nbits: int) -> Iterator[int]:
    """bernoulli_mask(p, substream_seed(seed, i), nbits) for i = 0, 1, 2, ..., 1 <= nbits <= 63."""
    # Checked in the call, not on the first next() as in a generator function.
    _threshold(p)
    if not 0 < nbits <= CODEWORD_BITS:
        raise ValueError(f"need 1 <= nbits <= 63, got {nbits}")
    return chain.from_iterable(
        _lane_values(_mask_lanes(p, _substream_lanes(seed, first), _BLOCK_FRAMES, nbits))
        for first in count(0, _BLOCK_FRAMES))


def _draws(seeds: int) -> Iterator[int]:
    """Draw 0, 1, 2, ... of SplitMix64(s) in lane i, for s the low 64 bits of lane i of `seeds`.

    A state grows by golden a draw, inside its lane for 2^64 draws; _mix_lanes reduces it.
    """
    states, step = seeds & _LOW, _GOLDEN * _ONES
    while True:
        states += step
        yield _mix_lanes(states)


def _mask_lanes(p: float, seeds: int, count: int, nbits: int) -> int:
    """bernoulli_mask(p, s, nbits) in lane i for the seed s in lane i < count of `seeds`.

    Only a lane's low 64 bits are its seed.  A short block (count below
    _BLOCK_FRAMES), where lanes cost more than they save, takes
    `bernoulli_mask`.  A full one draws bit j of every mask in pass j.
    _mix_lanes leaves a lane's bits 64..96 at 0 and the threshold is at
    most 2^64, so the bias makes bits 0..64 of a lane draw + 2^64 -
    threshold < 2^65: no carry passes bit 64, which is set exactly where
    the draw is at or above the threshold.  Shifting that flag down by
    64 - j moves it to bit j of the same lane, so lane i collects the
    complement of mask i's bits.
    """
    if count < _BLOCK_FRAMES:
        return _lanes([bernoulli_mask(p, seed, nbits) for seed in _lane_values(seeds)[:count]])
    bias, flag = ((1 << 64) - _threshold(p)) * _ONES, _ONES << 64
    kept = 0
    for j, draw in zip(range(nbits), _draws(seeds)):
        kept |= ((draw + bias) & flag) >> (64 - j)
    return kept ^ ((1 << nbits) - 1) * _ONES


def _lanes(values: list[int]) -> int:
    """values[i], each below 2^64, in lane i."""
    return int.from_bytes(struct.pack("<" + "Q8x" * len(values), *values), "little")


def _substream_lanes(seed: int, first: int) -> int:
    """substream_seed(seed, first + j) in the low 64 bits of lane j, for j < _BLOCK_FRAMES."""
    return _mix_lanes(((seed + first * _GOLDEN) & _MASK64) * _ONES + _RAMP)


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
    picks = []
    for i, lanes in zip(range(weight), _draws(_substream_lanes(seed, first))):
        draws = _lane_values(lanes)
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
    sent one by the message bits of f ^ ê, or of f when the frame is
    UNCORRECTABLE.  Neither depends on the message, so it is never drawn
    or encoded, a clean frame (f = 0) is skipped, and `decode` runs once
    per coset of f (`coset_decoder`).
    Each block of 256 frames is counted with a few popcounts over its
    masks and patterns, one 128-bit lane a frame.  The counters equal
    those of the explicit encode -> corrupt -> decode run.  Identical
    (p, frames, seed) always produce an identical report, in any
    evaluation order.  The optional `tables` is not read: the decoder
    works in its one fixed field.
    """
    if frames < 1:
        raise ValueError("need at least one frame")
    patterns = coset_decoder(decode)
    pre_fec = post_fec = uncorrectable = frame_errors = 0
    for first in range(0, frames, _BLOCK_FRAMES):
        count = min(frames - first, _BLOCK_FRAMES)
        # substream_seed(seed, 2 * (first + i) + 1), frame first + i's noise, in lane i
        seeds = _mix_lanes(((seed + 2 * first * _GOLDEN) & _MASK64) * _ONES + _ODD_RAMP)
        flips = _mask_lanes(p, seeds, count, CODEWORD_BITS)
        masks = list(filter(None, _lane_values(flips)[:count]))  # a clean frame counts nowhere
        # f ^ ê in each lane, with bit 63 set where the frame is UNCORRECTABLE,
        # whose message bits are those of f; a residual is nonzero exactly
        # where adding _MESSAGE_LANES carries into bit 63.
        left = _lanes(masks) ^ _lanes(patterns(masks))
        residual = left & _MESSAGE_LANES
        hit = (residual + _MESSAGE_LANES) & _MARK_LANES
        pre_fec += (flips & _MESSAGE_LANES).bit_count()
        post_fec += residual.bit_count()
        uncorrectable += (hit & left).bit_count()
        frame_errors += hit.bit_count()
    return BerReport(
        p=p,
        seed=seed,
        frames=frames,
        pre_fec_bit_errors=pre_fec,
        post_fec_bit_errors=post_fec,
        uncorrectable_frames=uncorrectable,
        miscorrected_frames=frame_errors - uncorrectable,
    )
