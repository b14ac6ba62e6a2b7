"""Encoder checks: generator derivation, LFSR vs long-division, shortening."""

import pytest

from bch6351 import encoder
from bch6351.channel_sim import SplitMix64
from bch6351.decoder import compute_syndromes, decode_shortened
from bch6351.encoder import (
    GENERATOR_POLY,
    MESSAGE_BITS,
    compute_generator,
    encode,
    encode_lfsr,
    encode_polydiv_oracle,
    encode_shortened,
)
from bch6351.gf64 import gf2_mod

MIN_POLY_ALPHA = 0b1000011   # 1 + x + x^6
MIN_POLY_ALPHA3 = 0b1010111  # 1 + x + x^2 + x^4 + x^6


def bit_set(p):
    return {i for i in range(p.bit_length()) if p >> i & 1}


def random_messages(count, seed):
    rng = SplitMix64(seed)
    return [rng.next_bits(MESSAGE_BITS) for _ in range(count)]


def test_generator_t1_is_minimal_polynomial_of_alpha():
    assert bit_set(compute_generator(1)) == {0, 1, 6}


def test_generator_t2_matches_constant_and_factorization():
    derived = compute_generator(2)
    # the constant must agree with the conjugacy-class derivation
    assert derived == GENERATOR_POLY
    assert bit_set(derived) == {0, 3, 4, 5, 8, 10, 12}


def test_generator_divisible_by_both_factors():
    assert gf2_mod(GENERATOR_POLY, MIN_POLY_ALPHA) == 0
    assert gf2_mod(GENERATOR_POLY, MIN_POLY_ALPHA3) == 0


def test_generator_unsupported_t():
    for t in (0, 3, -1):
        with pytest.raises(ValueError):
            compute_generator(t)


def test_encode_zero_message():
    assert encode_lfsr(0) == 0
    assert encode_polydiv_oracle(0) == 0


def test_encode_unit_message_parity():
    # one division step: x^12 mod g = the generator's low terms
    expected_parity = gf2_mod(1 << 12, GENERATOR_POLY)
    codeword = encode_lfsr(1)
    assert codeword & 0xFFF == expected_parity
    assert {i for i in range(12) if codeword >> i & 1} == {0, 3, 4, 5, 8, 10}
    assert codeword == encode_polydiv_oracle(1)


def test_encode_top_bit_message():
    # only m50 set: parity is the remainder of x^62
    codeword = encode_lfsr(1 << 50)
    assert codeword & 0xFFF == gf2_mod(1 << 62, GENERATOR_POLY)


def test_lfsr_equals_polydiv_on_edge_messages():
    for message in [0, (1 << MESSAGE_BITS) - 1] + [1 << i for i in range(MESSAGE_BITS)]:
        assert encode_lfsr(message) == encode_polydiv_oracle(message)


def test_lfsr_equals_polydiv_on_random_messages():
    for message in random_messages(10_000, seed=0xE4C0DE):
        assert encode_lfsr(message) == encode_polydiv_oracle(message)


def test_table_encoder_equals_lfsr_and_polydiv():
    units = [1 << i for i in range(MESSAGE_BITS)]
    for message in [0] + units + random_messages(10_000, seed=0x7AB1E):
        assert encode(message) == encode_lfsr(message) == encode_polydiv_oracle(message)


def test_systematic_property():
    for message in random_messages(200, seed=5):
        assert encode_lfsr(message) >> 12 == message


def test_linearity():
    rng = SplitMix64(99)
    for _ in range(500):
        m1 = rng.next_bits(MESSAGE_BITS)
        m2 = rng.next_bits(MESSAGE_BITS)
        assert encode_lfsr(m1 ^ m2) == encode_lfsr(m1) ^ encode_lfsr(m2)


def test_codewords_divisible_by_generator():
    for message in random_messages(500, seed=7):
        assert gf2_mod(encode_lfsr(message), GENERATOR_POLY) == 0


def test_codewords_have_zero_syndromes(tables):
    for message in random_messages(500, seed=11):
        assert compute_syndromes(encode_lfsr(message), tables) == (0, 0, 0)


def test_oversized_message_rejected():
    with pytest.raises(ValueError):
        encode_lfsr(1 << MESSAGE_BITS)
    with pytest.raises(ValueError):
        encode_polydiv_oracle(1 << MESSAGE_BITS)
    with pytest.raises(ValueError):
        encode(1 << MESSAGE_BITS)


def test_shortened_zero_payload():
    assert encode_shortened(0) == 0


def test_shortened_embedding_matches_full_encoder():
    # the payload sits in the low message positions, so the full codeword
    # is already confined to 31 bits and the parities coincide
    for payload in (1, 0x55555, 0x7FFFF):
        full = encode_lfsr(payload)
        short = encode_shortened(payload)
        assert short == full
        assert short >> 31 == 0
        assert short & 0xFFF == full & 0xFFF


def test_shortened_round_trip_clean(tables):
    rng = SplitMix64(13)
    for _ in range(200):
        payload = rng.next_bits(19)
        outcome = decode_shortened(encode_shortened(payload), tables)
        assert outcome.status.value == "no_error"
        assert outcome.corrected == payload


def test_shortened_oversized_payload_rejected():
    with pytest.raises(ValueError):
        encode_shortened(1 << 19)


def test_shortened_width_guard_raises(monkeypatch):
    # an explicit check, not an assert, so it also holds under python -O
    monkeypatch.setattr(encoder, "encode", lambda payload: 1 << 31)
    with pytest.raises(RuntimeError, match="31 bits"):
        encode_shortened(1)
