"""Brute-force decoding oracle built from a complete weight <= 2 syndrome table.

The table maps the packed syndrome triple of every error pattern of
weight 0, 1, or 2 (1 + 63 + 1953 = 2017 patterns) back to the pattern.
Building it with zero key collisions is the operational proof that the
code's minimum distance is at least 5, i.e. that two-error correction is
well defined.  Lookup then implements minimum-distance decoding within
radius 2 exactly, independent of the algebraic decoder: the only shared
code is the field tables and `compute_syndromes`, which the tests check
against the definitional per-bit sum.
"""

from __future__ import annotations

from itertools import combinations

from .gf64 import GfTables
from .decoder import DecodeOutcome, DecodeStatus, SyndromeSet, compute_syndromes
from .encoder import CODEWORD_BITS

# zero pattern + 63 singles + C(63, 2) pairs
TABLE_SIZE = 1 + 63 + 1953

# Maps packed syndrome key -> error mask
SyndromeTable = dict[int, int]


def syndrome_key(syndromes: SyndromeSet) -> int:
    """Pack (S1, S2, S3) into an 18-bit key, S1 in the low 6 bits."""
    return syndromes.s1 | syndromes.s2 << 6 | syndromes.s3 << 12


def build_syndrome_table(tables: GfTables) -> SyndromeTable:
    """Tabulate syndromes of every weight <= 2 pattern.

    Raises if two patterns share a key: that would disprove two-error
    correctability, so it is a fatal inconsistency rather than a decode
    failure.
    """
    table: SyndromeTable = {}

    def insert(mask: int) -> None:
        key = syndrome_key(compute_syndromes(mask, tables))
        if key in table:
            raise ValueError(
                f"syndrome collision: patterns {table[key]:#x} and {mask:#x} "
                f"share key {key:#x}"
            )
        table[key] = mask

    insert(0)
    for i in range(CODEWORD_BITS):
        insert(1 << i)
    for i, j in combinations(range(CODEWORD_BITS), 2):
        insert(1 << i | 1 << j)
    if len(table) != TABLE_SIZE:
        raise ValueError(f"syndrome table has {len(table)} entries, expected {TABLE_SIZE}")
    return table


def brute_force_decode(received: int, table: SyndromeTable, tables: GfTables) -> DecodeOutcome:
    """Minimum-distance decode within radius 2 by table lookup."""
    key = syndrome_key(compute_syndromes(received, tables))
    mask = table.get(key)
    if mask is None:
        return DecodeOutcome(DecodeStatus.UNCORRECTABLE, frozenset(), None)
    if mask == 0:
        return DecodeOutcome(DecodeStatus.NO_ERROR, frozenset(), received)
    positions = frozenset(i for i in range(CODEWORD_BITS) if mask >> i & 1)
    return DecodeOutcome(DecodeStatus.CORRECTED, positions, received ^ mask)


def verify_syndrome_distinctness(table: SyndromeTable) -> bool:
    """Re-assert the build guarantee: 2017 distinct keys over 2017 patterns."""
    return len(table) == TABLE_SIZE and len(set(table.values())) == TABLE_SIZE
