"""Decoder checks: syndromes, locator, Chien search, full classification."""

from functools import reduce
from itertools import combinations
from operator import xor

import pytest

from bch6351 import decoder
from bch6351.channel_sim import SplitMix64
from bch6351.decoder import (
    DecodeStatus,
    apply_correction,
    chien_search,
    compute_syndromes,
    coset_decoder,
    decode,
    decode_shortened,
    solve_locator,
)
from bch6351.encoder import (GENERATOR_POLY, MESSAGE_BITS, PARITY_BITS, encode_lfsr,
                             encode_shortened)
from bch6351.gf64 import gf_mul_table
from bch6351.reference_oracle import TABLE_SIZE, brute_force_decode, syndrome_key


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
        assert compute_syndromes(word) == definitional_syndromes(word, tables)


def test_syndromes_zero_for_codewords():
    rng = SplitMix64(21)
    for _ in range(300):
        codeword = encode_lfsr(rng.next_bits(MESSAGE_BITS))
        assert compute_syndromes(codeword) == (0, 0, 0)


def test_syndromes_single_error_at_zero():
    assert compute_syndromes(1) == (1, 1, 1)


def test_syndromes_single_error_every_position(tables):
    for j in range(63):
        expected = (
            tables.antilog[j % 63],
            tables.antilog[2 * j % 63],
            tables.antilog[3 * j % 63],
        )
        assert compute_syndromes(1 << j) == expected


def test_syndrome_linearity():
    rng = SplitMix64(33)
    for _ in range(500):
        r = rng.next_bits(63)
        e = rng.next_bits(63)
        sr = compute_syndromes(r)
        se = compute_syndromes(e)
        combined = compute_syndromes(r ^ e)
        assert combined == tuple(a ^ b for a, b in zip(sr, se))


def test_s2_is_square_of_s1(tables):
    rng = SplitMix64(44)
    words = [rng.next_bits(63) for _ in range(1000)] + weight_le2_masks(63)
    for word in words:
        s1, s2, _ = compute_syndromes(word)
        assert s2 == gf_mul_table(s1, s1, tables)


def test_syndromes_reject_oversized_word():
    with pytest.raises(ValueError):
        compute_syndromes(1 << 63)
    with pytest.raises(ValueError):
        compute_syndromes(-1)


# --- locator --------------------------------------------------------------

def test_locator_of_zero_syndromes():
    assert solve_locator(compute_syndromes(0)) == (0, 0, 0)


def test_locator_equals_product_on_every_triple(tables):
    # lambda2 = S3 + S1*S2 for every (S1, S2, S3), also those with S2 != S1^2
    for s1 in range(64):
        for s2 in range(64):
            product = gf_mul_table(s1, s2, tables)
            for s3 in range(64):
                assert solve_locator((s1, s2, s3)) == (s1, s2, s3 ^ product), (s1, s2, s3)


def test_locator_quadratic_term_cancels_for_single_errors(tables):
    for j in range(63):
        lambda0, _, lambda2 = solve_locator(compute_syndromes(1 << j))
        assert lambda2 == 0
        assert lambda0 == tables.antilog[j]


def test_locator_lambda1_is_lambda0_squared(tables):
    rng = SplitMix64(55)
    for _ in range(1000):
        lambda0, lambda1, _ = solve_locator(compute_syndromes(rng.next_bits(63)))
        assert lambda1 == gf_mul_table(lambda0, lambda0, tables)


# --- Chien search ---------------------------------------------------------

def direct_chien(locator, tables):
    """Independent evaluation of the locator at every point alpha^j."""
    lambda0, lambda1, lambda2 = locator
    positions = set()
    for j in range(63):
        value = lambda0
        value ^= gf_mul_table(lambda1, tables.antilog[j % 63], tables)
        value ^= gf_mul_table(lambda2, tables.antilog[2 * j % 63], tables)
        if value == 0:
            positions.add((63 - j) % 63)
    return positions


def test_chien_single_error_at_zero():
    assert chien_search((1, 1, 0)) == {0}


def test_chien_every_single_error_position():
    for j in range(63):
        loc = solve_locator(compute_syndromes(1 << j))
        assert chien_search(loc) == {j}


def test_chien_double_error():
    syndromes = compute_syndromes(1 << 2 | 1 << 5)
    loc = solve_locator(syndromes)
    assert loc[2] != 0
    assert chien_search(loc) == {2, 5}


def test_chien_iterative_equals_direct(tables):
    rng = SplitMix64(66)
    for _ in range(1000):
        loc = (1 + rng.next_below(63), 1 + rng.next_below(63), rng.next_below(64))
        assert chien_search(loc) == direct_chien(loc, tables)


def locator_roots(tables):
    """Position mask of every locator's roots, by enumerating the roots.

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
    # every locator chien_search accepts: lambda0 != 0 and lambda1 != 0
    roots = locator_roots(tables)
    checked = 0
    for key in range(1 << 18):
        lambda0, lambda1 = key & 63, key >> 6 & 63
        if lambda0 and lambda1:
            found = chien_search((lambda0, lambda1, key >> 12))
            assert isinstance(found, frozenset)
            assert sum(1 << p for p in found) == roots[key], key
            checked += 1
    assert checked == 63 * 63 * 64 == 254_016


def test_chien_rejects_locators_with_a_zero_low_coefficient():
    # decode forms no such locator: lambda0 = S1 != 0 and lambda1 = S1^2
    rejected = 0
    for key in range(1 << 18):
        locator = (key & 63, key >> 6 & 63, key >> 12)
        if locator[0] and locator[1]:
            continue
        with pytest.raises(ValueError):
            chien_search(locator)
        rejected += 1
    assert rejected == (1 << 18) - 254_016 == 8128


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

def test_decode_clean():
    codeword = encode_lfsr(0x123456789ABCD)
    outcome = decode(codeword)
    assert outcome.status is DecodeStatus.NO_ERROR
    assert outcome.positions == frozenset()
    assert outcome.corrected == codeword


def test_decode_all_weight_le2_patterns():
    rng = SplitMix64(77)
    masks = weight_le2_masks(63)
    for _ in range(3):
        message = rng.next_bits(MESSAGE_BITS)
        codeword = encode_lfsr(message)
        for mask in masks:
            outcome = decode(codeword ^ mask)
            assert outcome.status is DecodeStatus.CORRECTED
            assert outcome.corrected == codeword
            assert outcome.positions == frozenset(
                i for i in range(63) if mask >> i & 1
            )


def test_decode_rejects_a_word_outside_63_bits():
    # decode checks the range itself, as compute_syndromes does
    for word in (1 << 63, -1):
        with pytest.raises(ValueError, match="received word exceeds 63 bits"):
            decode(word)


def staged_decode(word):
    """decode spelled out through its public stages, as its docstring states them."""
    syndromes = compute_syndromes(word)
    if syndromes == (0, 0, 0):
        return DecodeStatus.NO_ERROR, frozenset(), word
    if syndromes[0] == 0:
        return DecodeStatus.UNCORRECTABLE, frozenset(), None
    locator = solve_locator(syndromes)
    positions = chien_search(locator)
    if len(positions) != (2 if locator[2] else 1):
        return DecodeStatus.UNCORRECTABLE, frozenset(), None
    corrected = apply_correction(word, positions)
    assert compute_syndromes(corrected) == (0, 0, 0)
    return DecodeStatus.CORRECTED, positions, corrected


def test_decode_equals_its_stages():
    # every coset, each moved by three random codewords, and random words
    rng = SplitMix64(0xDEC)
    codewords = [encode_lfsr(rng.next_bits(MESSAGE_BITS)) for _ in range(3)]
    words = [word ^ c for word in range(1 << PARITY_BITS) for c in codewords]
    words += [rng.next_bits(63) for _ in range(10_000)]
    for word in words:
        outcome = decode(word)
        assert (outcome.status, outcome.positions, outcome.corrected) == staged_decode(word), word


def test_decode_raises_when_recheck_fails(monkeypatch):
    # an explicit check, not an assert, so it also holds under python -O
    monkeypatch.setattr(decoder, "apply_correction", lambda word, positions: word)
    with pytest.raises(RuntimeError, match="re-check"):
        decode(1 << 5)


def test_decode_reads_its_syndromes_through_compute_syndromes(monkeypatch):
    # one call per decode, through the module global that a trace replaces
    calls = 0
    correct = decoder.compute_syndromes

    def counted(word):
        nonlocal calls
        calls += 1
        return correct(word)

    monkeypatch.setattr(decoder, "compute_syndromes", counted)
    for word in range(1 << PARITY_BITS):
        decode(word)
    assert calls == 1 << PARITY_BITS


def test_decode_equals_oracle_on_every_coset(syndrome_table):
    # words 0..4095 are the 4096 remainders mod g(x): one per coset
    correctable = 0
    for word in range(1 << PARITY_BITS):
        outcome = decode(word)
        reference = brute_force_decode(word, syndrome_table)
        assert (outcome.status, outcome.positions, outcome.corrected) == \
            (reference.status, reference.positions, reference.corrected), word
        correctable += outcome.status is not DecodeStatus.UNCORRECTABLE
    assert correctable == TABLE_SIZE == 2017
    assert (1 << PARITY_BITS) - correctable == 2079


def test_decode_weight3_bounded_distance_policy(syndrome_table):
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
        outcome = decode(received)
        reference = brute_force_decode(received, syndrome_table)
        assert outcome.status is reference.status
        if outcome.status is DecodeStatus.UNCORRECTABLE:
            saw_uncorrectable = True
        else:
            # a miscorrection lands on a different valid codeword within
            # distance 2 of the received word, never back on the original
            saw_miscorrection = True
            assert outcome.status is DecodeStatus.CORRECTED
            assert outcome.corrected != codeword
            assert compute_syndromes(outcome.corrected) == (0, 0, 0)
            assert (outcome.corrected ^ received).bit_count() <= 2
            assert outcome.positions == reference.positions
    assert saw_uncorrectable and saw_miscorrection


def test_decode_degenerate_syndromes_s1_zero():
    # weight-3 pattern whose positions are one conjugacy coset apart can
    # zero S1 while leaving S3 nonzero; search for one and check the policy
    rng = SplitMix64(99)
    found = False
    for _ in range(5000):
        word = rng.next_bits(63)
        s1, _, s3 = compute_syndromes(word)
        if s1 == 0 and s3 != 0:
            found = True
            outcome = decode(word)
            assert outcome.status is DecodeStatus.UNCORRECTABLE
            assert outcome.corrected is None
    assert found


# --- the paper's inversion-less Berlekamp-Massey --------------------------

def ibm_locator(syndromes, product):
    """Inversion-less Berlekamp-Massey for t = len(syndromes) / 2, S1..S2t given.

    The iBM recursion of Reed & Shih (IEE Proc. E 138(5), 1991) as stated
    by Sarwate & Shanbhag (IEEE TVLSI 9(5), 2001): each round scales the
    locator by gamma instead of dividing by the discrepancy.  Lambda and B
    hold 2t + 1 coefficients, enough for every degree the 2t rounds reach,
    so a locator of degree above t is returned whole rather than cut to t.
    `product` is the field's multiplication table.
    """
    size = len(syndromes) + 1
    locator, b = [1] + [0] * (size - 1), [1] + [0] * (size - 1)
    gamma, k = 1, 0
    for r in range(len(syndromes)):
        delta = 0
        for i in range(r + 1):
            delta ^= product[syndromes[r - i]][locator[i]]
        scaled = [product[gamma][c] for c in locator]
        shifted = [0] + b[:-1]
        new = [x ^ product[delta][y] for x, y in zip(scaled, shifted)]
        if delta and k >= 0:
            b, gamma, k = locator, delta, -k - 1
        else:
            b, k = shifted, k + 1
        locator = new
    return locator


def ibm_decode(word, tables, product):
    """(status, positions) of a 63-bit word through iBM and a 63-step Chien search."""
    s1, s2, s3 = definitional_syndromes(word, tables)
    if (s1, s2, s3) == (0, 0, 0):
        return DecodeStatus.NO_ERROR, frozenset()
    locator = ibm_locator([s1, s2, s3, product[s2][s2]], product)
    degree = max(i for i, c in enumerate(locator) if c)
    if degree > 2:
        return DecodeStatus.UNCORRECTABLE, frozenset()
    # Step j evaluates the locator at alpha^j, then multiplies term i by alpha^i.
    terms, alpha_powers, positions = list(locator), tables.antilog[:len(locator)], set()
    for j in range(63):
        if reduce(xor, terms) == 0:
            positions.add((63 - j) % 63)
        terms = [product[c][a] for c, a in zip(terms, alpha_powers)]
    if len(positions) != degree:
        return DecodeStatus.UNCORRECTABLE, frozenset()
    return DecodeStatus.CORRECTED, frozenset(positions)


@pytest.fixture(scope="module")
def product(tables):
    """product[a][b] is a*b in the field."""
    return [[gf_mul_table(a, b, tables) for b in range(64)] for a in range(64)]


def test_ibm_locator_is_a_multiple_of_solve_locator(product):
    for s1 in range(1, 64):
        s2 = product[s1][s1]
        for s3 in range(64):
            closed = solve_locator((s1, s2, s3))
            locator = ibm_locator([s1, s2, s3, product[s2][s2]], product)
            # locator = c * closed for a nonzero c: cross-multiply by closed[0] = S1 != 0
            assert locator[0] and locator[3:] == [0, 0], (s1, s3)
            assert [product[x][s1] for x in locator[:3]] == \
                [product[locator[0]][y] for y in closed], (s1, s3)


def test_ibm_classifies_every_coset_as_decode(tables, product):
    # words 0..4095 are one per coset; the 63 with S1 = 0 and S3 != 0 get a
    # degree-3 iBM locator, 21 of them with three roots, which the degree
    # check makes uncorrectable
    for word in range(1 << PARITY_BITS):
        outcome = decode(word)
        assert ibm_decode(word, tables, product) == (outcome.status, outcome.positions), word


# --- shortened decode -----------------------------------------------------

def test_decode_shortened_clean():
    payload = 0x6A5F3
    outcome = decode_shortened(encode_shortened(payload))
    assert outcome.status is DecodeStatus.NO_ERROR
    assert outcome.corrected == payload


def test_decode_shortened_all_weight_le2_patterns():
    rng = SplitMix64(101)
    masks = weight_le2_masks(31)
    assert len(masks) == 31 + 465
    for _ in range(2):
        payload = rng.next_bits(19)
        short = encode_shortened(payload)
        for mask in masks:
            outcome = decode_shortened(short ^ mask)
            assert outcome.status is DecodeStatus.CORRECTED
            assert outcome.corrected == payload


def test_decode_shortened_root_in_padding_is_uncorrectable():
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
        full = decode(received)
        if full.status is DecodeStatus.CORRECTED and any(p >= 31 for p in full.positions):
            found = True
            outcome = decode_shortened(received)
            assert outcome.status is DecodeStatus.UNCORRECTABLE
            assert outcome.corrected is None
            break
    assert found


def test_decode_shortened_equals_restricted_oracle_on_every_coset(syndrome_table):
    # The words below 2^12 are one per coset of the shortened code too.  The
    # reference corrects exactly the weight <= 2 patterns inside the 31 sent
    # bits, taken from the oracle's patterns, never from the algebraic path.
    inside = {key: mask for key, mask in syndrome_table.items() if mask >> 31 == 0}
    disagreements = correctable = 0
    for word in range(1 << PARITY_BITS):
        mask = inside.get(syndrome_key(compute_syndromes(word)))
        if mask is None:
            want = (DecodeStatus.UNCORRECTABLE, frozenset(), None)
        else:
            status = DecodeStatus.CORRECTED if mask else DecodeStatus.NO_ERROR
            positions = frozenset(i for i in range(31) if mask >> i & 1)
            want = (status, positions, (word ^ mask) >> PARITY_BITS)
        outcome = decode_shortened(word)
        disagreements += tuple(outcome) != want
        correctable += outcome.status is not DecodeStatus.UNCORRECTABLE
    assert disagreements == 0
    assert correctable == len(inside) == 1 + 31 + 465 == 497


def test_decode_shortened_rejects_oversized():
    with pytest.raises(ValueError):
        decode_shortened(1 << 31)


# --- the per-run coset memo -----------------------------------------------

@pytest.mark.parametrize("wrapped, bits", [(decode, 63), (decode_shortened, 31)])
def test_block_keys_equal_the_syndrome_word(wrapped, bits):
    # The 4096 cosets and the single-byte words below 2^bits (1912 at 63
    # bits) read every entry of the 16 translate tables, entry 0 of a table
    # through the other bytes' words.  Cut into blocks of 1, 255 and 256
    # words, the block keys are S1 | S3 << 6 of the packed syndromes, and
    # the one memo's patterns are word ^ corrected of decode's own
    # outcomes, or 1 << 63 for none.
    words = list(range(1 << PARITY_BITS))
    words += [b << k for k in range(0, bits, 8) for b in range(1, 256) if (b << k) >> bits == 0]
    assert len(words) == 4096 + (1912 if bits == 63 else 892)
    want_keys = [s & 63 | s >> 6 & 4032 for s in map(decoder._syndrome_word, words)]
    want_patterns = [1 << 63 if (corrected := decode(word).corrected) is None
                     else word ^ corrected for word in words]
    columns = decoder._key_columns()
    for size in (1, 255, 256):
        blocks = [words[i:i + size] for i in range(0, len(words), size)]
        assert [key for block in blocks for key in decoder._coset_keys(block, columns)] == \
            want_keys, size
        memo = coset_decoder(decode)
        assert [pattern for block in blocks for pattern in memo(block)] == want_patterns, size
    # Each pattern read through the wrapped decoder's width: a word below
    # 2^bits is correctable exactly when its pattern has no bit at or above
    # bits, and then its payload is (word ^ pattern) >> 12.
    for word, pattern in zip(words, want_patterns):
        corrected = None if pattern >> bits else word ^ pattern
        if wrapped is decode_shortened and corrected is not None:
            corrected >>= PARITY_BITS
        assert corrected == wrapped(word).corrected, word


def test_coset_memo_checks_the_width_on_every_call():
    # Word 1 plus a multiple of the generator, in word 1's coset and a bit
    # too wide for the decoder, and -1.
    wide = [1 ^ GENERATOR_POLY << MESSAGE_BITS, -1]
    calls = []

    def counted(word):
        calls.append(word)
        return decode(word)

    seen = coset_decoder(counted)
    assert seen([1]) == [1]
    for word in wide:
        # a fresh memo, and one that has already decoded the coset; the
        # word alone, and after a word inside the width that is not decoded
        for memo in (coset_decoder(counted), seen):
            for block in ([word], [2, word]):
                with pytest.raises(ValueError, match="received word exceeds 63 bits"):
                    memo(block)
    assert calls == [1] + [word for word in wide for _ in range(4)]
    # every word of the coset inside the width is corrected from the memo,
    # and an UNCORRECTABLE coset is decoded once and marked by bit 63
    inside = [1 ^ GENERATOR_POLY << k for k in range(MESSAGE_BITS)]
    assert seen(inside) == [1] * len(inside)
    assert seen([7, 7 ^ GENERATOR_POLY, 1]) == [1 << 63, 1 << 63, 1]
    assert calls == [1] + [word for word in wide for _ in range(4)] + [7]
