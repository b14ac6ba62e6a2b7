"""Channel simulator: determinism, distributions, and the BER harness."""

import math
import random

import pytest

from bch6351.channel_sim import (
    BerReport,
    SplitMix64,
    bernoulli_mask,
    random_error_pattern,
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
    # the lane-parallel mask against one SplitMix64 draw per bit, across
    # the threshold's extremes, lane counts below, at and above 63, and
    # seeds that exercise reduction mod 2^64
    rng = random.Random(20261018)
    seeds = [0, 2**64 - 1, 2**64 + 5, -1] + [rng.getrandbits(64) for _ in range(500)]
    probabilities = (0.0, 5e-324, 2.0 ** -53, 1e-3, 0.1, 0.5, 1 - 2.0 ** -53, 1.0)
    for p in probabilities:
        for nbits in (0, 1, 31, 63, 64, 130):
            for seed in seeds:
                assert bernoulli_mask(p, seed, nbits) == reference_mask(p, seed, nbits), \
                    (p, seed, nbits)


def test_bsc_mean_flips_at_half():
    # p = 0.5 over 100,000 frames: mean flips within 5 sigma of 31.5
    frames = 100_000
    total = 0
    for i in range(frames):
        total += bernoulli_mask(0.5, substream_seed(0xB5C, i), 63).bit_count()
    mean = total / frames
    sigma_of_mean = math.sqrt(63 * 0.25) / math.sqrt(frames)
    assert abs(mean - 31.5) < 5 * sigma_of_mean, mean


# --- BER harness ----------------------------------------------------------

def test_ber_noiseless_channel(tables):
    report = run_ber_experiment(0.0, 500, 1, tables)
    assert report.frames == 500
    assert report.pre_fec_bit_errors == 0
    assert report.post_fec_bit_errors == 0
    assert report.frame_errors == 0


def test_ber_determinism(tables):
    first = run_ber_experiment(0.01, 2000, 42, tables)
    second = run_ber_experiment(0.01, 2000, 42, tables)
    assert first == second
    assert first.csv_row() == second.csv_row()


def test_ber_report_invariants(tables):
    report = run_ber_experiment(0.02, 3000, 3, tables)
    assert report.frame_errors == report.uncorrectable_frames + report.miscorrected_frames
    assert report.frames == 3000
    assert 0 <= report.post_fec_ber <= report.pre_fec_ber <= 1


@pytest.mark.parametrize("p, frames, seed", [
    (0.03, 400, 314),
    (1e-3, 20000, 5),   # ~94% clean frames: the harness skips them
    (0.1, 3000, 6),     # many uncorrectable and miscorrected frames
    (0.5, 500, 7),
])
def test_ber_matches_per_frame_reference(tables, p, frames, seed):
    # re-derive a run frame by frame through the public per-word ops,
    # message and noise drawn for every frame, clean or not
    pre = post = unc = mis = 0
    mask51 = (1 << MESSAGE_BITS) - 1
    for i in range(frames):
        message = SplitMix64(substream_seed(seed, 2 * i)).next_bits(MESSAGE_BITS)
        codeword = encode_lfsr(message)
        received = codeword ^ bernoulli_mask(p, substream_seed(seed, 2 * i + 1), 63)
        outcome = decode(received, tables)
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
    report = run_ber_experiment(p, frames, seed, tables)
    assert (report.pre_fec_bit_errors, report.post_fec_bit_errors,
            report.uncorrectable_frames, report.miscorrected_frames) == (pre, post, unc, mis)
    if p >= 0.1:
        assert unc > 0 and mis > 0


def test_ber_weight_le2_frames_never_err(tables):
    # frames whose channel mask has weight <= 2 must deliver the message
    p, seed = 0.02, 616
    for i in range(2000):
        flips = bernoulli_mask(p, substream_seed(seed, 2 * i + 1), 63)
        if flips.bit_count() > 2:
            continue
        message = SplitMix64(substream_seed(seed, 2 * i)).next_bits(MESSAGE_BITS)
        outcome = decode(encode_lfsr(message) ^ flips, tables)
        assert outcome.status is not DecodeStatus.UNCORRECTABLE
        assert (outcome.corrected >> 12) == message


def test_ber_monotone_in_crossover_probability(tables):
    high = sum(run_ber_experiment(1e-2, 2000, s, tables).fer for s in range(10)) / 10
    low = sum(run_ber_experiment(1e-3, 2000, s, tables).fer for s in range(10)) / 10
    assert high > low


def test_ber_requires_frames(tables):
    with pytest.raises(ValueError):
        run_ber_experiment(0.1, 0, 1, tables)


def test_csv_format(tables):
    report = run_ber_experiment(0.01, 100, 8, tables)
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
