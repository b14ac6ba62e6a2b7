"""Benchmark inputs and the expected outputs they are checked against.

The generator below is written out here rather than imported from the
codec, so inputs and expected ``ber`` rows do not depend on the channel
code under test, and a silent change to the codec's SplitMix64 stream or
sub-seed contract shows up as a failed check.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MESSAGE_BITS = 51
PARITY_BITS = 12
CODEWORD_BITS = 63
MESSAGE_MASK = (1 << MESSAGE_BITS) - 1

BER_CSV_HEADER = "p,frames,seed,pre_fec_ber,post_fec_ber,fer,uncorrectable,miscorrected"


def mix64(x: int) -> int:
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def substream_seed(seed: int, index: int) -> int:
    """Output ``index`` (0-based) of the SplitMix64 stream seeded with ``seed``."""
    return mix64((seed + (index + 1) * GOLDEN) & MASK64)


def random_messages(seed: int, count: int) -> list[int]:
    """``count`` 51-bit messages, message i from sub-seed i of ``seed``."""
    return [substream_seed(substream_seed(seed, i), 0) & MESSAGE_MASK for i in range(count)]


def bernoulli_mask(p: float, seed: int, nbits: int) -> int:
    """Bit j is set when draw j of SplitMix64(seed), top 53 bits, is below p * 2^53."""
    threshold = int(p * 2.0 ** 53)
    mask = 0
    for j in range(nbits):
        if substream_seed(seed, j) >> 11 < threshold:
            mask |= 1 << j
    return mask


def frame_text(values, width: int = 16) -> str:
    """Frame-file text: one lowercase hex frame per line."""
    return "".join(format(v, f"0{width}x") + "\n" for v in values)


def antilog_text() -> str:
    """Expected ``tables`` output: ``k`` and alpha^k in 6-bit binary, x^6 = x + 1."""
    lines, x = [], 1
    for k in range(63):
        lines.append(f"{k} {x:06b}")
        x <<= 1
        if x & 64:
            x ^= 0b1000011
    return "\n".join(lines) + "\n"


def ber_csv(p: float, frames: int, seed: int, codec) -> str:
    """Expected ``ber --csv`` file, recomputed frame by frame.

    Frame i draws its message from sub-seed 2i and its channel noise from
    sub-seed 2i+1, encodes by long division and decodes by syndrome-table
    lookup; ``codec`` supplies those two reference implementations
    (``encode_polydiv_oracle``, ``brute_force_decode``) and the tables
    they need, so the algebraic encoder and decoder under test take no part.
    """
    field = codec.build_tables()
    table = codec.build_syndrome_table(field)
    pre = post = uncorrectable = miscorrected = 0
    for i in range(frames):
        message = substream_seed(substream_seed(seed, 2 * i), 0) & MESSAGE_MASK
        codeword = codec.encode_polydiv_oracle(message)
        flips = bernoulli_mask(p, substream_seed(seed, 2 * i + 1), CODEWORD_BITS)
        received = codeword ^ flips
        outcome = codec.brute_force_decode(received, table, field)
        repaired = received if outcome.corrected is None else outcome.corrected
        delivered = (repaired >> PARITY_BITS) & MESSAGE_MASK
        pre += ((flips >> PARITY_BITS) & MESSAGE_MASK).bit_count()
        post += (delivered ^ message).bit_count()
        if delivered != message:
            if outcome.corrected is None:
                uncorrectable += 1
            else:
                miscorrected += 1
    bits = MESSAGE_BITS * frames
    row = ",".join([
        format(p, ".10g"), str(frames), str(seed),
        format(pre / bits, ".10g"), format(post / bits, ".10g"),
        format((uncorrectable + miscorrected) / frames, ".10g"),
        str(uncorrectable), str(miscorrected),
    ])
    return BER_CSV_HEADER + "\n" + row + "\n"
