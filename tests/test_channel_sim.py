"""Channel simulator: determinism, distributions, and the BER harness."""

import math
import random
from itertools import islice

import pytest

from bch6351 import channel_sim
from bch6351.channel_sim import (
    BerReport,
    SplitMix64,
    bernoulli_mask,
    bernoulli_masks,
    mix64,
    random_error_pattern,
    random_error_patterns,
    run_ber_experiment,
    substream_seed,
)
from bch6351.decoder import DecodeStatus, decode
from bch6351.encoder import MESSAGE_BITS, encode_lfsr


# --- generator ------------------------------------------------------------

def test_splitmix64_reference_vector():
    # first outputs of the published splitmix64 algorithm for seed 0
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix64_determinism():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_next_below_range_and_error():
    rng = SplitMix64(10)
    for _ in range(2000):
        assert 0 <= rng.next_below(63) < 63
    with pytest.raises(ValueError):
        rng.next_below(0)
    # above 2^64 no draw could pass the rejection test
    with pytest.raises(ValueError):
        rng.next_below(2**64 + 1)
    assert SplitMix64(12).next_below(2**64) == SplitMix64(12).next_u64()


def test_next_bits_width():
    rng = SplitMix64(11)
    for k in (1, 51, 63, 64, 100):
        for _ in range(50):
            assert SplitMix64(rng.next_u64()).next_bits(k) < (1 << k)
    # the low 64 bits come from the first draw, the next 36 from the second
    first, second = 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4
    assert SplitMix64(0).next_bits(100) == first | (second & (2**36 - 1)) << 64


def test_substream_seed_is_stream_output():
    seed = 0xFEEDFACE
    rng = SplitMix64(seed)
    for index in range(8):
        assert substream_seed(seed, index) == rng.next_u64()


def reference_mask(p, seed, nbits):
    """The definitional mask: bit j set when draw j of SplitMix64(seed),
    one draw per bit, falls below floor(p * 2^53) << 11."""
    threshold = int(p * 2.0 ** 53) << 11
    rng = SplitMix64(seed)
    mask = 0
    for j in range(nbits):
        if rng.next_u64() < threshold:
            mask |= 1 << j
    return mask


# --- error patterns -------------------------------------------------------

def test_error_pattern_weight():
    # the mask has exactly `weight` set bits, all below n, at every weight
    for n in (31, 63):
        for weight in range(n + 1):
            mask = random_error_pattern(weight, n, seed=weight)
            assert mask.bit_count() == weight
            assert mask >> n == 0
    assert random_error_pattern(63, 63, 1) == (1 << 63) - 1


def reference_error_pattern(weight, n, seed):
    """Partial Fisher-Yates over the whole position list, the definitional form."""
    rng = SplitMix64(seed)
    slots = list(range(n))
    mask = 0
    for i in range(weight):
        j = i + rng.next_below(n - i)
        slots[i], slots[j] = slots[j], slots[i]
        mask |= 1 << slots[i]
    return mask


def test_error_pattern_equals_list_fisher_yates():
    draw = random.Random(17)
    seeds = [0, 1, 2**64 - 1] + [draw.getrandbits(64) for _ in range(97)]
    for n in (31, 63):
        for weight in range(n + 1):
            for seed in seeds:
                assert random_error_pattern(weight, n, seed) == \
                    reference_error_pattern(weight, n, seed), (weight, n, seed)


def test_random_pattern_weight_zero():
    assert random_error_pattern(0, 63, 5) == 0


def test_random_pattern_determinism_and_bounds():
    first = random_error_pattern(2, 63, seed=123)
    second = random_error_pattern(2, 63, seed=123)
    assert first == second
    assert first.bit_count() == 2
    for seed in range(200):
        mask = random_error_pattern(5, 31, seed)
        assert mask.bit_count() == 5
        assert mask < (1 << 31)


def test_random_pattern_domain_errors():
    with pytest.raises(ValueError):
        random_error_pattern(4, 3, 0)
    with pytest.raises(ValueError):
        random_error_pattern(-1, 63, 0)
    with pytest.raises(ValueError):
        random_error_pattern(2, 64, 0)


def test_random_pattern_weight1_uniformity():
    # 10,000 single-bit draws: each position within 5 sigma of the
    # binomial expectation 10000/63
    draws = 10_000
    counts = [0] * 63
    for i in range(draws):
        mask = random_error_pattern(1, 63, substream_seed(0xC0FFEE, i))
        counts[mask.bit_length() - 1] += 1
    mean = draws / 63
    sigma = math.sqrt(draws * (1 / 63) * (62 / 63))
    for position, count in enumerate(counts):
        assert abs(count - mean) < 5 * sigma, f"position {position}: {count}"


# --- blocks of frames -----------------------------------------------------

BLOCK_SEEDS = [0, 1, 2**64 - 1] + [random.Random(14).getrandbits(64) for _ in range(3)]


def test_block_streams_read_substream_seed_i():
    # frame i of each block stream reads sub-seed i, output i + 1 of
    # SplitMix64(seed); 600 frames cross two block boundaries
    for seed in BLOCK_SEEDS + [-1, 2**64 + 5]:
        rng = SplitMix64(seed)
        seeds = [rng.next_u64() for _ in range(600)]
        assert seeds == [substream_seed(seed, i) for i in range(600)], seed
        assert list(islice(bernoulli_masks(0.5, seed, 63), 600)) == [
            reference_mask(0.5, s, 63) for s in seeds], seed
        assert list(islice(random_error_patterns(2, 63, seed), 600)) == [
            random_error_pattern(2, 63, s) for s in seeds], seed


def test_random_error_patterns_equal_random_error_pattern():
    # every weight over a few frames, and weights up to 5 over frames
    # that cross two block boundaries; the lanes of one block are independent
    cases = [(n, weight, 5) for n in (31, 63) for weight in range(n + 1)]
    cases += [(n, weight, 600) for n in (31, 63) for weight in (0, 1, 2, 5)]
    for seed in BLOCK_SEEDS:
        for n, weight, frames in cases:
            assert list(islice(random_error_patterns(weight, n, seed), frames)) == [
                random_error_pattern(weight, n, substream_seed(seed, i))
                for i in range(frames)], (seed, n, weight, frames)
    # checked in the call, before any pattern is taken
    for weight, n in ((4, 3), (-1, 63), (0, 64)):
        with pytest.raises(ValueError):
            random_error_patterns(weight, n, 0)


def unmix64(y):
    """The inverse of mix64: each odd multiplier is inverted mod 2^64, and
    each xorshift y = x ^ (x >> s) by iterating x <- y ^ (x >> s), which
    fixes s more top bits of x per step."""
    def unshift(y, s):
        x = y
        for _ in range(64 // s):
            x = y ^ (x >> s)
        return x

    y = unshift(y, 31)
    y = y * pow(0x94D049BB133111EB, -1, 2**64) % 2**64
    y = unshift(y, 27)
    y = y * pow(0xBF58476D1CE4E5B9, -1, 2**64) % 2**64
    return unshift(y, 30)


def test_a_rejected_draw_takes_the_scalar_path():
    golden = 0x9E3779B97F4A7C15
    for y in BLOCK_SEEDS:
        assert mix64(unmix64(y)) == y
    # Frame 300's first draw is at or above the rejection limit 2^64 - 16
    # for bound 63: 2^64 - 1, which taken mod 63 would put that frame's
    # first error at position 15, or the limit itself, at position 0.
    for draw, position, want_seed in ((2**64 - 1, 15, 13175526035472669323),
                                      (2**64 - 16, 0, 6799772398558461791)):
        frame_seed = (unmix64(draw) - golden) % 2**64
        seed = (unmix64(frame_seed) - 301 * golden) % 2**64
        assert seed == want_seed
        assert substream_seed(seed, 300) == frame_seed
        assert SplitMix64(frame_seed).next_u64() == draw
        assert random_error_pattern(1, 63, frame_seed) != 1 << position
        for weight in (1, 2, 5):
            scalar = [random_error_pattern(weight, 63, substream_seed(seed, j)) for j in range(512)]
            assert list(islice(random_error_patterns(weight, 63, seed), 512)) == scalar, draw


# --- binary symmetric channel ----------------------------------------------

def test_bsc_p0_and_p1():
    for nbits in (31, 63):
        assert bernoulli_mask(0.0, 99, nbits) == 0
        assert bernoulli_mask(1.0, 99, nbits) == (1 << nbits) - 1


def test_bsc_determinism():
    assert bernoulli_mask(0.25, 7, 63) == bernoulli_mask(0.25, 7, 63)
    assert bernoulli_mask(0.25, 7, 63) != bernoulli_mask(0.25, 8, 63)


def test_bsc_config_validation():
    for p in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError):
            bernoulli_mask(p, 0, 63)


def test_bernoulli_mask_equals_definitional_loop():
    # the one-frame mask against the test's own one-draw-per-bit loop,
    # across the threshold's extremes, widths below, at and above 63, and
    # seeds that exercise reduction mod 2^64
    rng = random.Random(20261018)
    seeds = [0, 2**64 - 1, 2**64 + 5, -1] + [rng.getrandbits(64) for _ in range(500)]
    probabilities = (0.0, 5e-324, 2.0 ** -53, 1e-3, 0.1, 0.5, 1 - 2.0 ** -53, 1.0)
    for p in probabilities:
        for nbits in (0, 1, 31, 63, 64, 130):
            for seed in seeds:
                assert bernoulli_mask(p, seed, nbits) == reference_mask(p, seed, nbits), \
                    (p, seed, nbits)


def test_a_draw_at_the_threshold_sets_no_bit():
    # p = 1/2 puts the threshold at 2^63; a first draw just below it sets
    # bit 0, one equal to it does not, in one frame and in lane 255 of a
    # full block, whose master seed puts that frame's seed at sub-seed 255
    golden = 0x9E3779B97F4A7C15
    for draw, bit in ((2**63 - 1, 1), (2**63, 0)):
        seed = (unmix64(draw) - golden) % 2**64
        assert SplitMix64(seed).next_u64() == draw
        assert bernoulli_mask(0.5, seed, 1) == reference_mask(0.5, seed, 1) == bit
        master = (unmix64(seed) - 256 * golden) % 2**64
        assert substream_seed(master, 255) == seed
        last = list(islice(bernoulli_masks(0.5, master, 63), 256))[-1]
        assert last == reference_mask(0.5, seed, 63) and last & 1 == bit


def test_bernoulli_masks_equal_bernoulli_mask():
    # frame counts on both sides of one and two 256-frame blocks, master
    # seeds that exercise reduction mod 2^64, and each block's lanes against
    # the definitional loop at the threshold's extremes: bit j is set when
    # draw j of frame i's sub-seed falls below floor(p * 2^53) << 11
    probabilities = (0.0, 5e-324, 2.0 ** -53, 1e-3, 0.1, 0.5, 1 - 2.0 ** -53, 1.0)
    for seed in (0, 2**64 - 1, 2**64 + 5, -1):
        draws = [[rng.next_u64() for _ in range(63)]
                 for rng in (SplitMix64(substream_seed(seed, i)) for i in range(513))]
        for p in probabilities:
            threshold = int(p * 2.0 ** 53) << 11
            for nbits in (1, 31, 63):
                want = [sum(1 << j for j in range(nbits) if frame[j] < threshold)
                        for frame in draws]
                # one stream read on in pieces that end on both sides of each block
                stream, taken = bernoulli_masks(p, seed, nbits), 0
                for frames in (0, 1, 255, 256, 257, 512, 513):
                    assert list(islice(stream, frames - taken)) == want[taken:frames], \
                        (seed, p, nbits, frames)
                    taken = frames
    # checked in the call, before any mask is taken
    for p, nbits in ((1.5, 63), (math.nan, 63), (0.5, 0), (0.5, 64)):
        with pytest.raises(ValueError):
            bernoulli_masks(p, 0, nbits)


def test_full_blocks_are_drawn_in_lanes(monkeypatch):
    # the block streams never call the one-frame definitions unless a draw
    # meets its rejection limit; run_ber_experiment calls bernoulli_mask for
    # the noise sub-seeds 2i + 1 of its final short block, and for no others
    calls = []
    monkeypatch.setattr(channel_sim, "bernoulli_mask",
                        lambda p, seed, nbits: calls.append(seed) or 0)
    monkeypatch.setattr(channel_sim, "random_error_pattern",
                        lambda weight, n, seed: calls.append(seed) or 0)
    assert len(list(islice(bernoulli_masks(0.1, 1, 63), 600))) == 600
    assert len(list(islice(random_error_patterns(2, 63, 1), 600))) == 600
    assert calls == []
    for frames, short in ((255, 255), (256, 0), (513, 1), (600, 88)):
        calls.clear()
        assert run_ber_experiment(0.1, frames, 3).frames == frames
        assert calls == [substream_seed(3, 2 * i + 1) for i in range(frames - short, frames)], \
            frames


def test_bsc_mean_flips_at_half():
    # p = 0.5 over 100,000 frames of the block path the commands run: mean
    # flips within 5 sigma of 31.5, and the total recorded at commit ca86d0a
    frames = 100_000
    total = sum(mask.bit_count()
                for mask in islice(bernoulli_masks(0.5, 0xB5C, 63), frames))
    mean = total / frames
    sigma_of_mean = math.sqrt(63 * 0.25) / math.sqrt(frames)
    assert abs(mean - 31.5) < 5 * sigma_of_mean, mean
    assert total == 3151565


# --- BER harness ----------------------------------------------------------

def test_ber_noiseless_channel():
    report = run_ber_experiment(0.0, 500, 1)
    assert report.frames == 500
    assert report.pre_fec_bit_errors == 0
    assert report.post_fec_bit_errors == 0
    assert report.frame_errors == 0


def test_ber_determinism():
    first = run_ber_experiment(0.01, 2000, 42)
    second = run_ber_experiment(0.01, 2000, 42)
    assert first == second
    assert first.csv_row() == second.csv_row()


def test_ber_report_invariants():
    report = run_ber_experiment(0.02, 3000, 3)
    assert report.frame_errors == report.uncorrectable_frames + report.miscorrected_frames
    assert report.frames == 3000
    assert 0 <= report.post_fec_ber <= report.pre_fec_ber <= 1


@pytest.mark.parametrize("p, frames, seed", [
    (0.03, 400, 314),
    (1e-3, 20000, 5),   # ~94% clean frames: the harness skips them
    (0.1, 3000, 6),     # many uncorrectable and miscorrected frames
    (0.5, 500, 7),
    (0.1, 1, 8),        # one frame
    (0.05, 257, 9),     # noise positions 1..513 cross two 256-position blocks
    (0.05, 255, 10),    # one short block
    (0.05, 256, 11),    # one full block
    (0.05, 513, 12),    # two full blocks and a one-frame short block
    (0.0, 257, 13),     # no noise in a full block or a short one
    (1.0, 257, 14),     # every mask the all-ones codeword
])
def test_ber_matches_per_frame_reference(p, frames, seed):
    # re-derive a run frame by frame through the public per-word ops,
    # message and noise drawn for every frame, clean or not
    pre = post = unc = mis = 0
    mask51 = (1 << MESSAGE_BITS) - 1
    for i in range(frames):
        message = SplitMix64(substream_seed(seed, 2 * i)).next_bits(MESSAGE_BITS)
        codeword = encode_lfsr(message)
        received = codeword ^ bernoulli_mask(p, substream_seed(seed, 2 * i + 1), 63)
        outcome = decode(received)
        if outcome.status is DecodeStatus.UNCORRECTABLE:
            delivered = (received >> 12) & mask51
        else:
            delivered = (outcome.corrected >> 12) & mask51
        pre += (((received ^ codeword) >> 12) & mask51).bit_count()
        post += (delivered ^ message).bit_count()
        if delivered != message:
            if outcome.status is DecodeStatus.UNCORRECTABLE:
                unc += 1
            else:
                mis += 1
    report = run_ber_experiment(p, frames, seed)
    assert (report.pre_fec_bit_errors, report.post_fec_bit_errors,
            report.uncorrectable_frames, report.miscorrected_frames) == (pre, post, unc, mis)
    if p == 1.0:
        # the all-ones word is a nonzero codeword, in coset 0, with every message bit hit
        assert (pre, post, unc, mis) == (MESSAGE_BITS * frames, MESSAGE_BITS * frames, 0, frames)
    elif p >= 0.1 and frames > 1:
        assert unc > 0 and mis > 0


def test_ber_counts_each_kind_of_frame(monkeypatch):
    # A short block of masks injected through bernoulli_mask, which draws
    # from the frames' noise sub-seeds 2i + 1: a clean frame, a nonzero
    # codeword (message bit 0, miscorrected), weights 1 and 2 (corrected),
    # and weight 3 in the message bits (uncorrectable).
    codeword, weight3 = encode_lfsr(1), 7 << 20
    assert decode(weight3).status is DecodeStatus.UNCORRECTABLE
    masks = [0, codeword, 1 << 40, 1 << 5 | 1 << 50, weight3]
    seeds = []
    monkeypatch.setattr(channel_sim, "bernoulli_mask",
                        lambda p, seed, nbits: seeds.append(seed) or masks[len(seeds) - 1])
    report = run_ber_experiment(0.5, len(masks), 21)
    assert seeds == [substream_seed(21, 2 * i + 1) for i in range(len(masks))]
    assert (report.pre_fec_bit_errors, report.post_fec_bit_errors,
            report.uncorrectable_frames, report.miscorrected_frames) == (1 + 1 + 1 + 3, 1 + 3, 1, 1)


def test_ber_weight_le2_frames_never_err():
    # frames whose channel mask has weight <= 2 must deliver the message
    p, seed = 0.02, 616
    for i in range(2000):
        flips = bernoulli_mask(p, substream_seed(seed, 2 * i + 1), 63)
        if flips.bit_count() > 2:
            continue
        message = SplitMix64(substream_seed(seed, 2 * i)).next_bits(MESSAGE_BITS)
        outcome = decode(encode_lfsr(message) ^ flips)
        assert outcome.status is not DecodeStatus.UNCORRECTABLE
        assert (outcome.corrected >> 12) == message


def test_ber_monotone_in_crossover_probability():
    high = sum(run_ber_experiment(1e-2, 2000, s).fer for s in range(10)) / 10
    low = sum(run_ber_experiment(1e-3, 2000, s).fer for s in range(10)) / 10
    assert high > low


def test_ber_requires_frames():
    with pytest.raises(ValueError):
        run_ber_experiment(0.1, 0, 1)


def test_csv_format():
    report = run_ber_experiment(0.01, 100, 8)
    assert BerReport.CSV_HEADER == \
        "p,frames,seed,pre_fec_ber,post_fec_ber,fer,uncorrectable,miscorrected"
    fields = report.csv_row().split(",")
    assert len(fields) == 8
    assert float(fields[0]) == 0.01
    assert int(fields[1]) == 100
    assert int(fields[2]) == 8
    assert int(fields[6]) == report.uncorrectable_frames
    assert int(fields[7]) == report.miscorrected_frames
    # every counter comes from run_ber_experiment; none has a default
    with pytest.raises(TypeError):
        BerReport(0.01, 8)
