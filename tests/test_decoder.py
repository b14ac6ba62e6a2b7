"""Decoder checks: syndromes, locator, Chien search, full classification."""

from itertools import combinations

import pytest

from bch6351 import decoder
from bch6351.channel_sim import SplitMix64
from bch6351.decoder import (
    DecodeStatus,
    ErrorLocator,
    apply_correction,
    chien_search,
    compute_syndromes,
    decode,
    decode_shortened,
    solve_locator,
)
from bch6351.encoder import MESSAGE_BITS, PARITY_BITS, encode_lfsr, encode_shortened
from bch6351.gf64 import gf_mul_table
from bch6351.reference_oracle import TABLE_SIZE, brute_force_decode


def weight_le2_masks(n):
    masks = [1 << i for i in range(n)]
    masks += [1 << i | 1 << j for i, j in combinations(range(n), 2)]
    return masks


# --- syndromes ------------------------------------------------------------

def definitional_syndromes(received, tables):
    """S_i = XOR of alpha^(i*j) over the set bit positions j, bit by bit."""
    antilog = tables.antilog
    s1 = s2 = s3 = 0
    for j in range(63):
        if received >> j & 1:
            s1 ^= antilog[j]
            s2 ^= antilog[2 * j % 63]
            s3 ^= antilog[3 * j % 63]
    return (s1, s2, s3)


def test_syndromes_equal_definitional_loop(tables):
    rng = SplitMix64(0x5D)
    words = [1 << j for j in range(63)] + [rng.next_bits(63) for _ in range(10_000)]
    for word in words:
        assert compute_syndromes(word, tables) == definitional_syndromes(word, tables)


def test_syndromes_zero_for_codewords(tables):
    rng = SplitMix64(21)
    for _ in range(300):
        codeword = encode_lfsr(rng.next_bits(MESSAGE_BITS))
        assert compute_syndromes(codeword, tables) == (0, 0, 0)


def test_syndromes_single_error_at_zero(tables):
    assert compute_syndromes(1, tables) == (1, 1, 1)


def test_syndromes_single_error_every_position(tables):
    for j in range(63):
        expected = (
            tables.antilog[j % 63],
            tables.antilog[2 * j % 63],
            tables.antilog[3 * j % 63],
        )
        assert compute_syndromes(1 << j, tables) == expected


def test_syndrome_linearity(tables):
    rng = SplitMix64(33)
    for _ in range(500):
        r = rng.next_bits(63)
        e = rng.next_bits(63)
        sr = compute_syndromes(r, tables)
        se = compute_syndromes(e, tables)
        combined = compute_syndromes(r ^ e, tables)
        assert combined == (sr.s1 ^ se.s1, sr.s2 ^ se.s2, sr.s3 ^ se.s3)


def test_s2_is_square_of_s1(tables):
    rng = SplitMix64(44)
    words = [rng.next_bits(63) for _ in range(1000)] + weight_le2_masks(63)
    for word in words:
        s = compute_syndromes(word, tables)
        assert s.s2 == gf_mul_table(s.s1, s.s1, tables)


def test_syndromes_reject_oversized_word(tables):
    with pytest.raises(ValueError):
        compute_syndromes(1 << 63, tables)


# --- locator --------------------------------------------------------------

def test_locator_of_zero_syndromes(tables):
    assert solve_locator(compute_syndromes(0, tables), tables) == (0, 0, 0)


def test_locator_quadratic_term_cancels_for_single_errors(tables):
    for j in range(63):
        loc = solve_locator(compute_syndromes(1 << j, tables), tables)
        assert loc.lambda2 == 0
        assert loc.lambda0 == tables.antilog[j]


def test_locator_lambda1_is_lambda0_squared(tables):
    rng = SplitMix64(55)
    for _ in range(1000):
        loc = solve_locator(compute_syndromes(rng.next_bits(63), tables), tables)
        assert loc.lambda1 == gf_mul_table(loc.lambda0, loc.lambda0, tables)


# --- Chien search ---------------------------------------------------------

def direct_chien(locator, tables):
    """Independent evaluation of the locator at every point alpha^j."""
    positions = set()
    for j in range(63):
        value = locator.lambda0
        value ^= gf_mul_table(locator.lambda1, tables.antilog[j % 63], tables)
        value ^= gf_mul_table(locator.lambda2, tables.antilog[2 * j % 63], tables)
        if value == 0:
            positions.add((63 - j) % 63)
    return positions


def test_chien_single_error_at_zero(tables):
    assert chien_search(ErrorLocator(1, 1, 0), tables) == {0}


def test_chien_every_single_error_position(tables):
    for j in range(63):
        loc = solve_locator(compute_syndromes(1 << j, tables), tables)
        assert chien_search(loc, tables) == {j}


def test_chien_double_error(tables):
    syndromes = compute_syndromes(1 << 2 | 1 << 5, tables)
    loc = solve_locator(syndromes, tables)
    assert loc.lambda2 != 0
    assert chien_search(loc, tables) == {2, 5}


def test_chien_iterative_equals_direct(tables):
    rng = SplitMix64(66)
    seen = 0
    while seen < 1000:
        loc = ErrorLocator(rng.next_below(64), rng.next_below(64), rng.next_below(64))
        if loc == (0, 0, 0):
            continue
        seen += 1
        assert chien_search(loc, tables) == direct_chien(loc, tables)


def locator_roots(tables):
    """Position mask of every nonzero locator's roots, by enumerating the roots.

    Each (u, lambda1, lambda2) with u != 0 names the one locator with
    lambda0 = lambda1*u + lambda2*u^2 that has u as a root; that root is
    position (63 - log u) mod 63.  Entry lambda0 | lambda1 << 6 |
    lambda2 << 12 collects the positions of all of a locator's roots.
    """
    product = [gf_mul_table(a, b, tables) for a in range(64) for b in range(64)]
    roots = [0] * (1 << 18)
    for j in range(63):
        u = tables.antilog[j]
        u_sq = tables.antilog[2 * j % 63]
        bit = 1 << (63 - j) % 63
        times_u = product[u::64]
        times_u_sq = product[u_sq::64]
        for lambda1 in range(64):
            linear = times_u[lambda1]
            key1 = lambda1 << 6
            for lambda2 in range(64):
                roots[(linear ^ times_u_sq[lambda2]) | key1 | lambda2 << 12] |= bit
    return roots


def test_chien_equals_root_enumeration_on_every_locator(tables):
    roots = locator_roots(tables)
    for key in range(1, 1 << 18):
        found = chien_search(ErrorLocator(key & 63, key >> 6 & 63, key >> 12), tables)
        assert sum(1 << p for p in found) == roots[key], key


def test_chien_rejects_all_zero_locator(tables):
    with pytest.raises(ValueError):
        chien_search(ErrorLocator(0, 0, 0), tables)


# --- correction -----------------------------------------------------------

def test_apply_correction_empty_and_involution():
    word = 0x123456789ABCDEF
    assert apply_correction(word, set()) == word
    assert apply_correction(apply_correction(word, {5, 17}), {5, 17}) == word


def test_apply_correction_out_of_range():
    with pytest.raises(ValueError):
        apply_correction(0, {63})
    with pytest.raises(ValueError):
        apply_correction(0, {-1})


# --- full decode ----------------------------------------------------------

def test_decode_clean(tables):
    codeword = encode_lfsr(0x123456789ABCD)
    outcome = decode(codeword, tables)
    assert outcome.status is DecodeStatus.NO_ERROR
    assert outcome.positions == frozenset()
    assert outcome.corrected == codeword


def test_decode_all_weight_le2_patterns(tables):
    rng = SplitMix64(77)
    masks = weight_le2_masks(63)
    for _ in range(3):
        message = rng.next_bits(MESSAGE_BITS)
        codeword = encode_lfsr(message)
        for mask in masks:
            outcome = decode(codeword ^ mask, tables)
            assert outcome.status is DecodeStatus.CORRECTED
            assert outcome.corrected == codeword
            assert outcome.positions == frozenset(
                i for i in range(63) if mask >> i & 1
            )


def test_decode_raises_when_recheck_fails(tables, monkeypatch):
    # an explicit check, not an assert, so it also holds under python -O
    monkeypatch.setattr(decoder, "apply_correction", lambda word, positions: word)
    with pytest.raises(RuntimeError, match="re-check"):
        decode(1 << 5, tables)


def test_decode_equals_oracle_on_every_coset(tables, syndrome_table):
    # words 0..4095 are the 4096 remainders mod g(x): one per coset
    correctable = 0
    for word in range(1 << PARITY_BITS):
        outcome = decode(word, tables)
        reference = brute_force_decode(word, syndrome_table, tables)
        assert (outcome.status, outcome.positions, outcome.corrected) == \
            (reference.status, reference.positions, reference.corrected), word
        correctable += outcome.status is not DecodeStatus.UNCORRECTABLE
    assert correctable == TABLE_SIZE == 2017
    assert (1 << PARITY_BITS) - correctable == 2079


def test_decode_weight3_bounded_distance_policy(tables, syndrome_table):
    rng = SplitMix64(88)
    saw_uncorrectable = saw_miscorrection = False
    for _ in range(2000):
        codeword = encode_lfsr(rng.next_bits(MESSAGE_BITS))
        positions = set()
        while len(positions) < 3:
            positions.add(rng.next_below(63))
        mask = 0
        for p in positions:
            mask |= 1 << p
        received = codeword ^ mask
        outcome = decode(received, tables)
        reference = brute_force_decode(received, syndrome_table, tables)
        assert outcome.status is reference.status
        if outcome.status is DecodeStatus.UNCORRECTABLE:
            saw_uncorrectable = True
        else:
            # a miscorrection lands on a different valid codeword within
            # distance 2 of the received word, never back on the original
            saw_miscorrection = True
            assert outcome.status is DecodeStatus.CORRECTED
            assert outcome.corrected != codeword
            assert compute_syndromes(outcome.corrected, tables) == (0, 0, 0)
            assert (outcome.corrected ^ received).bit_count() <= 2
            assert outcome.positions == reference.positions
    assert saw_uncorrectable and saw_miscorrection


def test_decode_degenerate_syndromes_s1_zero(tables):
    # weight-3 pattern whose positions are one conjugacy coset apart can
    # zero S1 while leaving S3 nonzero; search for one and check the policy
    rng = SplitMix64(99)
    found = False
    for _ in range(5000):
        word = rng.next_bits(63)
        s = compute_syndromes(word, tables)
        if s.s1 == 0 and s.s3 != 0:
            found = True
            outcome = decode(word, tables)
            assert outcome.status is DecodeStatus.UNCORRECTABLE
            assert outcome.corrected is None
    assert found


# --- shortened decode -----------------------------------------------------

def test_decode_shortened_clean(tables):
    payload = 0x6A5F3
    outcome = decode_shortened(encode_shortened(payload), tables)
    assert outcome.status is DecodeStatus.NO_ERROR
    assert outcome.corrected == payload


def test_decode_shortened_all_weight_le2_patterns(tables):
    rng = SplitMix64(101)
    masks = weight_le2_masks(31)
    assert len(masks) == 31 + 465
    for _ in range(2):
        payload = rng.next_bits(19)
        short = encode_shortened(payload)
        for mask in masks:
            outcome = decode_shortened(short ^ mask, tables)
            assert outcome.status is DecodeStatus.CORRECTED
            assert outcome.corrected == payload


def test_decode_shortened_root_in_padding_is_uncorrectable(tables):
    # find a weight-3 corruption of a shortened word whose full-length
    # decode lands an error position in the untransmitted region
    rng = SplitMix64(202)
    found = False
    for _ in range(20_000):
        payload = rng.next_bits(19)
        short = encode_shortened(payload)
        mask = 0
        while mask.bit_count() < 3:
            mask |= 1 << rng.next_below(31)
        received = short ^ mask
        full = decode(received, tables)
        if full.status is DecodeStatus.CORRECTED and any(p >= 31 for p in full.positions):
            found = True
            outcome = decode_shortened(received, tables)
            assert outcome.status is DecodeStatus.UNCORRECTABLE
            assert outcome.corrected is None
            break
    assert found


def test_decode_shortened_rejects_oversized(tables):
    with pytest.raises(ValueError):
        decode_shortened(1 << 31, tables)
