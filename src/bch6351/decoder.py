"""Bounded-distance decoder for the (63, 51) code and its (31, 19) shortening.

Pipeline: syndrome computation, closed-form inversion-less locator for
degree <= 2, root finding with reciprocal-root position mapping, bit-flip
correction.  All arithmetic is exact; every comparison is equality.

Every stage is a table lookup or a closed form.  The syndromes are linear
in the received bits, so they are the XOR of one precomputed entry per
received byte.  The locator has degree <= 2, so its roots follow from
logarithms and one 64-entry table of solutions of y^2 + y = c (Berlekamp,
Rumsey & Solomon, "On the solution of algebraic equations over finite
fields", Inf. & Control 10, 1967), in place of trying all 63 field
elements.  The tests certify both against the definitional forms on
every input that can reach them.

Decoding is bounded-distance: received words within Hamming distance 2 of
a codeword are corrected to it, words outside every radius-2 ball come
back Uncorrectable, and words inside a wrong ball miscorrect (unavoidable
for any distance-2 decoder).  Corrected outputs always re-verify to zero
syndromes.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .gf64 import GROUP_ORDER, GfTables, build_tables, byte_tables, gf_mul_table
from .encoder import CODEWORD_BITS, PARITY_BITS, SHORT_CODEWORD_BITS, SHORT_PAYLOAD_BITS


class SyndromeSet(NamedTuple):
    s1: int
    s2: int
    s3: int


class ErrorLocator(NamedTuple):
    lambda0: int
    lambda1: int
    lambda2: int


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


_ZERO_SYNDROMES = SyndromeSet(0, 0, 0)

_FIELD = build_tables()

# The syndromes of the unit word x^j, packed S1 | S2 << 6 | S3 << 12, and
# the byte tables that add them up over a received word.
_B0, _B1, _B2, _B3, _B4, _B5, _B6, _B7 = byte_tables([
    _FIELD.antilog[j] | _FIELD.antilog[2 * j % 63] << 6 | _FIELD.antilog[3 * j % 63] << 12
    for j in range(CODEWORD_BITS)
])

# _QUADRATIC_ROOT[c] is a y with y^2 + y = c; the other solution is y + 1.
# The 32 values c of trace 1 have no solution and no entry.
_QUADRATIC_ROOT = {gf_mul_table(y, y, _FIELD) ^ y: y for y in range(64)}

# log(u) = 32 * log(u^2) mod 63: 32 is the inverse of 2 mod 63.
_INVERSE_OF_2 = 32

_new_tuple = tuple.__new__


def compute_syndromes(received: int, tables: GfTables) -> SyndromeSet:
    """Evaluate the received polynomial at alpha, alpha^2, alpha^3.

    S_i is the XOR of alpha^(i*j) over the set bit positions j.  The
    syndromes are linear in the received bits, so all three come from one
    lookup per byte into tables built at import for the fixed field;
    `tables` is accepted for the callers' signature and not read.
    """
    if received >> CODEWORD_BITS:
        raise ValueError("received word exceeds 63 bits")
    packed = (_B0[received & 0xFF] ^ _B1[received >> 8 & 0xFF]
              ^ _B2[received >> 16 & 0xFF] ^ _B3[received >> 24 & 0xFF]
              ^ _B4[received >> 32 & 0xFF] ^ _B5[received >> 40 & 0xFF]
              ^ _B6[received >> 48 & 0xFF] ^ _B7[received >> 56])
    # tuple.__new__ builds the same SyndromeSet without the Python-level
    # NamedTuple constructor, which would cost as much as the lookups.
    return _new_tuple(SyndromeSet, (packed & 63, packed >> 6 & 63, packed >> 12))


def solve_locator(syndromes: SyndromeSet, tables: GfTables) -> ErrorLocator:
    """Closed-form locator coefficients, no field inversions.

    (lambda0, lambda1, lambda2) = (S1, S1*S1, S3 + S1*S2).  For a single
    error the quadratic term cancels and the locator degree collapses to 1.
    """
    s1, s2, s3 = syndromes
    return ErrorLocator(
        s1,
        gf_mul_table(s1, s1, tables),
        s3 ^ gf_mul_table(s1, s2, tables),
    )


def chien_search(locator: ErrorLocator, n: int, tables: GfTables) -> set[int]:
    """Error positions from the nonzero roots u of lambda0 + lambda1*u + lambda2*u^2.

    A root u = alpha^j names position (63 - j) mod 63, the reciprocal
    exponent; positions >= n are dropped (shortened use passes n = 31).
    The roots come in closed form, with exponents taken mod 63:
      - lambda2 = 0: the single root u = lambda0 / lambda1, if both are
        nonzero;
      - lambda0 = 0: u = 0 is no field element, which leaves the single
        root u = lambda1 / lambda2, if lambda1 != 0;
      - lambda1 = 0: u^2 = lambda0 / lambda2, and squaring is a bijection
        of GF(64), so log u = 32 * (log lambda0 - log lambda2);
      - otherwise u = (lambda1 / lambda2) * y turns the locator into
        y^2 + y = c with c = lambda0 * lambda2 / lambda1^2 != 0, which has
        two solutions y and y + 1 or none, read from a 64-entry table
        (Berlekamp, Rumsey & Solomon, Inf. & Control 10, 1967).
    Those cases cover every nonzero locator, and in each the roots named
    are all the roots among the 63 nonzero field elements, so the result
    is exactly the set the 63-step Chien search finds.  The tests compare
    the two on all 2^18 - 1 nonzero locators.
    """
    l0, l1, l2 = locator
    if not (l0 or l1 or l2):
        raise ValueError("all-zero locator has no roots to search")
    log = tables.log
    if l2 == 0:
        if l0 == 0 or l1 == 0:
            return set()
        exponents = (log[l0] - log[l1],)
    elif l0 == 0:
        if l1 == 0:
            return set()
        exponents = (log[l1] - log[l2],)
    elif l1 == 0:
        exponents = (_INVERSE_OF_2 * (log[l0] - log[l2]),)
    else:
        y = _QUADRATIC_ROOT.get(tables.antilog[(log[l0] + log[l2] - 2 * log[l1]) % GROUP_ORDER])
        if y is None:
            return set()
        scale = log[l1] - log[l2]
        exponents = (scale + log[y], scale + log[y ^ 1])
    return {p for p in (-e % GROUP_ORDER for e in exponents) if p < n}


def apply_correction(received: int, positions) -> int:
    """Flip the bits at the given positions."""
    flipped = received
    for p in positions:
        if not 0 <= p < CODEWORD_BITS:
            raise ValueError(f"error position {p} out of range")
        flipped ^= 1 << p
    return flipped


def decode(received: int, tables: GfTables) -> DecodeOutcome:
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
    syndromes = compute_syndromes(received, tables)
    if syndromes == _ZERO_SYNDROMES:
        return DecodeOutcome(DecodeStatus.NO_ERROR, frozenset(), received)
    if syndromes.s1 == 0:
        return DecodeOutcome(DecodeStatus.UNCORRECTABLE, frozenset(), None)
    locator = solve_locator(syndromes, tables)
    degree = 2 if locator.lambda2 else 1
    positions = chien_search(locator, CODEWORD_BITS, tables)
    if len(positions) != degree:
        return DecodeOutcome(DecodeStatus.UNCORRECTABLE, frozenset(), None)
    corrected = apply_correction(received, positions)
    if compute_syndromes(corrected, tables) != _ZERO_SYNDROMES:
        raise RuntimeError(f"corrected word {corrected:#x} failed the zero-syndrome re-check")
    return DecodeOutcome(DecodeStatus.CORRECTED, frozenset(positions), corrected)


def decode_shortened(received31: int, tables: GfTables) -> DecodeOutcome:
    """Decode a 31-bit shortened word; `corrected` is the 19-bit payload.

    The 32 untransmitted message positions (codeword bits 31..62) are
    re-inserted as zeros.  Errors cannot occur in bits that were never
    sent, so any reported position there makes the word UNCORRECTABLE.
    """
    if received31 >> SHORT_CODEWORD_BITS:
        raise ValueError("shortened word exceeds 31 bits")
    outcome = decode(received31, tables)
    if outcome.status is DecodeStatus.UNCORRECTABLE:
        return outcome
    if any(p >= SHORT_CODEWORD_BITS for p in outcome.positions):
        return DecodeOutcome(DecodeStatus.UNCORRECTABLE, frozenset(), None)
    payload = (outcome.corrected >> PARITY_BITS) & ((1 << SHORT_PAYLOAD_BITS) - 1)
    return DecodeOutcome(outcome.status, outcome.positions, payload)
