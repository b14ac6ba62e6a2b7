"""The self-test: each check compares a fast path of the codec with an
independent reference on every input that can reach it, reading both
through this module's globals.  `run()` is `selftest`; the tests call the
checks.  Nothing derived from the codec's tables outlives a run: the
oracle table is built at most once per run, the key tables per check."""

from __future__ import annotations

import functools
import time
from itertools import product

from . import decoder, reference_oracle
from .gf64 import build_tables, gf_mul_mse, gf_mul_table
from .encoder import CODEWORD_BITS, MESSAGE_BITS, PARITY_BITS, encode, encode_lfsr
from .decoder import coset_decoder, coset_table, compute_syndromes, decode

_FIELD = build_tables()
# The words below 2^12 are the 4096 remainders mod g(x), one in each
# coset of the code, and a decode depends only on the coset.
COSETS = 1 << PARITY_BITS
# The syndromes and the parity are XORs of one table entry per input
# byte.  The inputs with one nonzero byte read every entry (entry 0 of a
# table through the other bytes' inputs), but only the words with bit i
# of each byte set, cut to the width, tell the XOR from an OR or an AND.
WORDS = [b << k for k in range(0, CODEWORD_BITS, 8) for b in range(1, 256)
         if (b << k) >> CODEWORD_BITS == 0]
MESSAGES = [word for word in WORDS if word >> MESSAGE_BITS == 0]
SPREAD_WORDS = [(0x0101010101010101 << i) % (1 << CODEWORD_BITS) for i in range(8)]


def definitional_syndromes(word: int) -> tuple[int, int, int]:
    """S_i is the XOR of alpha^(i*j) over the set positions j of the word."""
    antilog, s1, s2, s3 = _FIELD.antilog, 0, 0, 0
    while word:
        j = (word & -word).bit_length() - 1
        s1, s2, s3 = s1 ^ antilog[j], s2 ^ antilog[2 * j % 63], s3 ^ antilog[3 * j % 63]
        word &= word - 1
    return s1, s2, s3


def _verdict(bad: int) -> tuple[bool, str]:
    return bad == 0, f"{bad} mismatches"


def multiplier_certificate() -> tuple[bool, str]:
    return _verdict(sum(1 for a, b in product(range(64), repeat=2)
                        if gf_mul_mse(a, b) != gf_mul_table(a, b, _FIELD)))


def syndrome_certificate(words: list[int] = WORDS) -> tuple[bool, str]:
    # the syndromes, and the memo's block keys S1 | S3 << 6 from fresh key tables
    keys = decoder._coset_keys(words, decoder._key_columns())
    return _verdict(sum(1 for word, key in zip(words, keys)
                        if compute_syndromes(word) != (s := definitional_syndromes(word))
                        or key != s[0] | s[2] << 6))


def encoder_certificate(messages: list[int] = MESSAGES) -> tuple[bool, str]:
    # a codeword equals the LFSR's and has zero syndromes
    return _verdict(sum(1 for m in messages if (c := encode(m)) != encode_lfsr(m)
                        or compute_syndromes(c) != (0, 0, 0)))


def distinctness_certificate(oracle) -> tuple[bool, str]:
    return reference_oracle.verify_syndrome_distinctness(oracle()), f"{len(oracle())} entries"


def coset_certificate(oracle) -> tuple[bool, str]:
    table = oracle()
    bad = correctable = 0
    # through the memo that decode runs, then the table that ber reads
    memo = coset_decoder(decode)(range(COSETS))
    for word, pattern, tabled in zip(range(COSETS), memo, coset_table()(range(COSETS))):
        ours = None if pattern >> CODEWORD_BITS else word ^ pattern
        bad += ours != reference_oracle.brute_force_decode(word, table).corrected or tabled != pattern
        correctable += ours is not None
    return (bad == 0 and correctable == reference_oracle.TABLE_SIZE,
            f"{bad} disagreements, {correctable} correctable")


def combining_certificate() -> tuple[bool, str]:
    words = syndrome_certificate(SPREAD_WORDS)
    messages = encoder_certificate([word % (1 << MESSAGE_BITS) for word in SPREAD_WORDS])
    return words[0] and messages[0], f"syndromes {words[1]}, encoder {messages[1]}"


def run() -> int:
    """Print a PASS/FAIL line as each check finishes, then the verdict; 0 if all passed."""
    # Both oracle checks read one table, built on first use; a build that raises fails both.
    oracle = functools.cache(reference_oracle.build_syndrome_table)
    checks = [
        ("multiplier equivalence (4096 pairs)", multiplier_certificate),
        (f"syndrome certificate ({len(WORDS)} single-byte words)", syndrome_certificate),
        (f"encoder certificate ({len(MESSAGES)} single-byte messages)", encoder_certificate),
        ("syndrome distinctness (2017 keys)", lambda: distinctness_certificate(oracle)),
        (f"decoder/oracle coset certificate ({COSETS} cosets)", lambda: coset_certificate(oracle)),
        ("byte combining certificate (8 multi-byte words)", combining_certificate),
    ]
    ok = True
    start = lap = time.perf_counter()
    for name, check in checks:
        # A check that raises has failed; the rest still run.
        try:
            passed, detail = check()
        except Exception as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        now = time.perf_counter()
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail} ({now - lap:.3f}s)", flush=True)
        ok, lap = ok and passed, now
    elapsed = time.perf_counter() - start
    print(f"{'self-test passed' if ok else 'SELF-TEST FAILED'} ({elapsed:.3f}s)")
    return 0 if ok else 1
