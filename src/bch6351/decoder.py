"""Bounded-distance decoder for the (63, 51) code and its (31, 19) shortening.

Pipeline: syndrome computation, closed-form inversion-less locator for
degree <= 2, root finding with reciprocal-root position mapping, bit-flip
correction.  All arithmetic is exact; every comparison is equality.

Every stage is a table lookup or a closed form, and the stages pass plain
ints and tuples.  The syndromes are linear in the received bits, so their
packed word is the XOR of one precomputed entry per received byte.  The
locator is (S1, S2, S3 + S1*S2), formed only when S1 != 0, so its two low
coefficients are nonzero and its roots follow from logarithms and one
64-entry table of solutions of y^2 + y = c (Berlekamp, Rumsey & Solomon,
"On the solution of algebraic equations over finite fields", Inf. &
Control 10, 1967), in place of trying all 63 field elements.  The tests
certify both against the definitional forms on every input that can
reach them.

Decoding is bounded-distance: received words within Hamming distance 2 of
a codeword are corrected to it, words outside every radius-2 ball come
back Uncorrectable, and words inside a wrong ball miscorrect (unavoidable
for any distance-2 decoder).  Corrected outputs always re-verify to zero
syndromes.

The field is fixed: every stage reads the tables built here at import.
The `tables` argument of `compute_syndromes`, `decode` and
`decode_shortened` is optional and read by no function here, so a decode
depends on the received word alone.
"""

from __future__ import annotations

import struct
from collections.abc import Callable, Sequence
from enum import Enum
from typing import NamedTuple

from .gf64 import GROUP_ORDER, GfTables, build_tables, byte_tables, gf_mul_table
from .encoder import CODEWORD_BITS, PARITY_BITS, SHORT_CODEWORD_BITS


class DecodeStatus(Enum):
    NO_ERROR = "no_error"
    CORRECTED = "corrected"
    UNCORRECTABLE = "uncorrectable"


class DecodeOutcome(NamedTuple):
    """Result of one decode.

    `positions` is nonempty only for CORRECTED.  `corrected` is the
    repaired word (or, for the shortened decoder, the 19-bit payload) and
    is None when UNCORRECTABLE.
    """

    status: DecodeStatus
    positions: frozenset[int]
    corrected: int | None


_NO_ERROR, _CORRECTED = DecodeStatus.NO_ERROR, DecodeStatus.CORRECTED
_NO_POSITIONS = frozenset()
_UNCORRECTABLE = DecodeOutcome(DecodeStatus.UNCORRECTABLE, _NO_POSITIONS, None)
_ANTILOG, _LOG = _FIELD = build_tables()

# The syndromes of the unit word x^j, packed S1 | S2 << 6 | S3 << 12, and
# the byte tables that add them up over a received word.
_B0, _B1, _B2, _B3, _B4, _B5, _B6, _B7 = byte_tables([
    _ANTILOG[j] | _ANTILOG[2 * j % 63] << 6 | _ANTILOG[3 * j % 63] << 12
    for j in range(CODEWORD_BITS)
])

# _QUADRATIC_ROOT[c] is a y with y^2 + y = c; the other solution is y + 1.
# The 32 values c of trace 1 have no solution and no entry.
_QUADRATIC_ROOT = {gf_mul_table(y, y, _FIELD) ^ y: y for y in range(64)}


def _syndrome_word(word: int) -> int:
    """The syndromes of a 63-bit word, packed S1 | S2 << 6 | S3 << 12."""
    if word >> CODEWORD_BITS:
        raise ValueError("received word exceeds 63 bits")
    b0, b1, b2, b3, b4, b5, b6, b7 = word.to_bytes(8, "little")
    return _B0[b0] ^ _B1[b1] ^ _B2[b2] ^ _B3[b3] ^ _B4[b4] ^ _B5[b5] ^ _B6[b6] ^ _B7[b7]


def compute_syndromes(received: int, tables: GfTables | None = None) -> tuple[int, int, int]:
    """Evaluate the received polynomial at alpha, alpha^2, alpha^3: (S1, S2, S3).

    S_i is the XOR of alpha^(i*j) over the set bit positions j.  The
    syndromes are linear in the received bits, so all three come from one
    lookup per byte into tables built at import for the fixed field.
    """
    packed = _syndrome_word(received)
    return packed & 63, packed >> 6 & 63, packed >> 12


def solve_locator(syndromes: tuple[int, int, int]) -> tuple[int, int, int]:
    """Closed-form locator coefficients (lambda0, lambda1, lambda2), no field inversions.

    The inversion-less Berlekamp-Massey recursion for t = 2 ends at
    (S1, S1*S1, S3 + S1*S2).  A binary word r has r(alpha^2) = r(alpha)^2,
    so S1*S1 is S2 and one multiplication remains.  For a single error
    the quadratic term cancels and the locator degree collapses to 1.
    """
    s1, s2, s3 = syndromes
    return s1, s2, s3 ^ (_ANTILOG[(_LOG[s1] + _LOG[s2]) % GROUP_ORDER] if s1 and s2 else 0)


def chien_search(locator: tuple[int, int, int]) -> frozenset[int]:
    """Error positions from the nonzero roots u of lambda0 + lambda1*u + lambda2*u^2.

    Only locators with lambda0 != 0 and lambda1 != 0 are accepted; any
    other raises ValueError.  `decode` forms a locator only when S1 != 0,
    and then lambda0 = S1 and lambda1 = S2 = S1^2 are both nonzero.
    A root u = alpha^j names position (63 - j) mod 63, the reciprocal
    exponent, that is -log u mod 63; `decode_shortened` itself rejects
    the positions >= 31.  The roots come in closed form:
      - lambda2 = 0: the single root u = lambda0 / lambda1, at position
        log lambda1 - log lambda0;
      - lambda2 != 0: u = (lambda1 / lambda2) * y turns the locator into
        y^2 + y = c with c = lambda0 * lambda2 / lambda1^2 != 0, which has
        two solutions y and y + 1, both outside {0, 1}, or none, read from
        a 64-entry table (Berlekamp, Rumsey & Solomon, Inf. & Control 10,
        1967); the positions are log lambda2 - log lambda1 - log y' for
        y' = y and y + 1.
    The two cases cover every accepted locator, and in each the roots
    named are all the roots among the 63 nonzero field elements, so the
    result is exactly the set the 63-step Chien search finds.  The tests
    compare the two on all 63 * 63 * 64 = 254 016 accepted locators.
    """
    l0, l1, l2 = locator
    if not (l0 and l1):
        raise ValueError(f"chien_search needs lambda0 != 0 and lambda1 != 0, got {locator}")
    if l2 == 0:
        return frozenset(((_LOG[l1] - _LOG[l0]) % GROUP_ORDER,))
    y = _QUADRATIC_ROOT.get(_ANTILOG[(_LOG[l0] + _LOG[l2] - 2 * _LOG[l1]) % GROUP_ORDER])
    if y is None:
        return _NO_POSITIONS
    scale = _LOG[l2] - _LOG[l1]
    return frozenset(((scale - _LOG[y]) % GROUP_ORDER, (scale - _LOG[y ^ 1]) % GROUP_ORDER))


def apply_correction(received: int, positions) -> int:
    """Flip the bits at the given positions."""
    flipped = received
    for p in positions:
        if not 0 <= p < CODEWORD_BITS:
            raise ValueError(f"error position {p} out of range")
        flipped ^= 1 << p
    return flipped


def decode(received: int, tables: GfTables | None = None) -> DecodeOutcome:
    """Full decode of a 63-bit received word.

    Classification:
      1. all syndromes zero -> NO_ERROR;
      2. S1 = 0 with (S2, S3) != (0, 0) -> UNCORRECTABLE (no weight <= 2
         pattern can produce that);
      3. otherwise solve the locator, expect degree 2 if lambda2 != 0 else
         1, and find its roots with `chien_search`: a root count equal to
         the degree is CORRECTED (flipped and re-verified to zero
         syndromes, a failed re-check raising RuntimeError), anything
         else UNCORRECTABLE.
    """
    syndromes = compute_syndromes(received)
    if syndromes == (0, 0, 0):
        return DecodeOutcome(_NO_ERROR, _NO_POSITIONS, received)
    if not syndromes[0]:
        return _UNCORRECTABLE
    locator = solve_locator(syndromes)
    positions = chien_search(locator)
    if len(positions) != (2 if locator[2] else 1):
        return _UNCORRECTABLE
    corrected = apply_correction(received, positions)
    if _syndrome_word(corrected):
        raise RuntimeError(f"corrected word {corrected:#x} failed the zero-syndrome re-check")
    return DecodeOutcome(_CORRECTED, positions, corrected)


def decode_shortened(received31: int, tables: GfTables | None = None) -> DecodeOutcome:
    """Decode a 31-bit shortened word; `corrected` is the 19-bit payload.

    The 32 untransmitted message positions (codeword bits 31..62) are
    re-inserted as zeros.  Errors cannot occur in bits that were never
    sent, so any reported position there makes the word UNCORRECTABLE.
    This defines `decode --short`, which reads the rule off `coset_decoder`.
    """
    if received31 >> SHORT_CODEWORD_BITS:
        raise ValueError("shortened word exceeds 31 bits")
    outcome = decode(received31)
    if outcome.corrected is None or any(p >= SHORT_CODEWORD_BITS for p in outcome.positions):
        return _UNCORRECTABLE
    # The corrected word is below 2^31, so the shift leaves the 19-bit payload.
    return DecodeOutcome(outcome.status, outcome.positions, outcome.corrected >> PARITY_BITS)


def _key_columns() -> list[tuple[bytes, bytes]]:
    """For byte k of a word, bytes.translate tables to the low and the high
    byte of its share of the coset key S1 | S3 << 6, derived from _Bk."""
    # From S1 | S2 << 6 | S3 << 12: the low byte S1 | (S3 & 3) << 6, the high S3 >> 2.
    # _B7 covers bits 56..62: its entries past 127 are never read.
    return [(bytes([s & 63 | s >> 6 & 192 for s in table]).ljust(256, b"\0"),
             bytes([s >> 14 for s in table]).ljust(256, b"\0"))
            for table in (_B0, _B1, _B2, _B3, _B4, _B5, _B6, _B7)]


def _coset_keys(words: Sequence[int], columns: list[tuple[bytes, bytes]]) -> tuple[int, ...]:
    """The key S1 | S3 << 6 of each word below 2^63, by 16 bytes.translate calls."""
    count = len(words)
    data = struct.pack(f"<{count}Q", *words)
    low = high = 0
    for k, (low_table, high_table) in enumerate(columns):
        low ^= int.from_bytes(data[k::8].translate(low_table), "little")
        high ^= int.from_bytes(data[k::8].translate(high_table), "little")
    pairs = bytearray(2 * count)
    pairs[::2], pairs[1::2] = low.to_bytes(count, "little"), high.to_bytes(count, "little")
    return struct.unpack(f"<{count}H", pairs)


def coset_decoder(decoder) -> Callable[[Sequence[int]], list[int]]:
    """A fresh memo of `decode` (or a stand-in) by coset, for both widths.

    `patterns(words)` returns the error pattern of each word of a block of
    up to 256: word ^ pattern is the corrected word, and an UNCORRECTABLE
    word's pattern is 1 << 63, above every word.  A (31, 19) word is
    correctable when its pattern >> 31 is zero (`decode_shortened`).  A
    decode depends only on the coset, keyed S1 | S3 << 6 as S2 = S1^2, so
    `decoder` runs on a coset's first word and its pattern corrects the
    later ones.  The keys of a block come from `_coset_keys`, whose tables
    each memo derives afresh from _B0 .. _B7, as it starts empty: a run
    sees the decoder as it is during that run.  A wider or negative word
    goes to `decoder`, which raises its own ValueError, on every call.
    """
    columns = _key_columns()
    known: list[int | None] = [None] * (1 << PARITY_BITS)

    def patterns(words: Sequence[int]) -> list[int]:
        if max(words, default=0) >> CODEWORD_BITS or min(words, default=0) < 0:
            for word in words:
                if word >> CODEWORD_BITS:
                    decoder(word)
        keys = _coset_keys(words, columns)
        found = list(map(known.__getitem__, keys))
        if None in found:
            for i, key in enumerate(keys):
                if known[key] is None:
                    corrected = decoder(words[i]).corrected
                    known[key] = 1 << CODEWORD_BITS if corrected is None else words[i] ^ corrected
                found[i] = known[key]
        return found

    return patterns
