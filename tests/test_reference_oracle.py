"""Brute-force oracle: table construction, distinctness, lookup decoding."""

from itertools import combinations

from bch6351.channel_sim import SplitMix64
from bch6351.decoder import DecodeStatus, compute_syndromes, decode
from bch6351.encoder import MESSAGE_BITS, encode_lfsr
from bch6351.reference_oracle import (
    TABLE_SIZE,
    brute_force_decode,
    build_syndrome_table,
    syndrome_key,
    verify_syndrome_distinctness,
)


def test_table_size(syndrome_table):
    assert TABLE_SIZE == 1 + 63 + 1953
    assert len(syndrome_table) == TABLE_SIZE


def test_zero_pattern_has_zero_key(syndrome_table):
    assert syndrome_table[0] == 0


def test_single_error_keys(tables, syndrome_table):
    for j in range(63):
        key = tables.antilog[j] \
            | tables.antilog[2 * j % 63] << 6 \
            | tables.antilog[3 * j % 63] << 12
        assert syndrome_table[key] == 1 << j


def test_build_is_deterministic(tables, syndrome_table):
    assert build_syndrome_table(tables) == syndrome_table


def test_distinctness_check(syndrome_table):
    assert verify_syndrome_distinctness(syndrome_table)
    assert len(set(syndrome_table.keys())) == TABLE_SIZE
    # negative control: merging two entries under one key must be caught
    doctored = dict(syndrome_table)
    keys = iter(doctored)
    first, second = next(keys), next(keys)
    doctored[first] = doctored.pop(second)
    assert not verify_syndrome_distinctness(doctored)
    # and so must one pattern under two keys, with all 2017 keys kept
    doctored = dict(syndrome_table)
    doctored[second] = doctored[first]
    assert len(doctored) == TABLE_SIZE
    assert not verify_syndrome_distinctness(doctored)


def test_oracle_clean_codeword(tables, syndrome_table):
    codeword = encode_lfsr(0x123ABC)
    outcome = brute_force_decode(codeword, syndrome_table, tables)
    assert outcome.status is DecodeStatus.NO_ERROR
    assert outcome.corrected == codeword


def test_oracle_recovers_every_weight_le2_pattern(tables, syndrome_table):
    codeword = encode_lfsr(SplitMix64(1).next_bits(MESSAGE_BITS))
    masks = [1 << i for i in range(63)]
    masks += [1 << i | 1 << j for i, j in combinations(range(63), 2)]
    for mask in masks:
        outcome = brute_force_decode(codeword ^ mask, syndrome_table, tables)
        assert outcome.status is DecodeStatus.CORRECTED
        assert outcome.corrected == codeword
        assert outcome.positions == frozenset(i for i in range(63) if mask >> i & 1)


def test_oracle_miss_is_uncorrectable(tables, syndrome_table):
    rng = SplitMix64(2)
    found = False
    for _ in range(1000):
        word = rng.next_bits(63)
        key = syndrome_key(compute_syndromes(word, tables))
        if key not in syndrome_table:
            found = True
            outcome = brute_force_decode(word, syndrome_table, tables)
            assert outcome.status is DecodeStatus.UNCORRECTABLE
            assert outcome.corrected is None
    assert found


def test_oracle_agrees_with_decoder_on_random_words(tables, syndrome_table):
    rng = SplitMix64(3)
    for _ in range(20_000):
        word = rng.next_bits(63)
        ours = decode(word, tables)
        reference = brute_force_decode(word, syndrome_table, tables)
        assert ours.status is reference.status
        assert ours.positions == reference.positions
        assert ours.corrected == reference.corrected
