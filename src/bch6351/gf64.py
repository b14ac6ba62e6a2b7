"""GF(2^6) arithmetic over the primitive polynomial x^6 + x + 1.

A field element is an int in 0..63 in polynomial-basis representation:
bit i of the value is the coefficient of alpha^i, where alpha is a root
of the primitive polynomial (so alpha^6 = alpha + 1).  Field addition is
XOR of the ints.  Value 0 is the additive identity, value 1 is the
multiplicative identity.

Two independent multipliers are provided: a log/antilog table multiplier
and a combinational one built from fixed partial-product expressions
(`gf_mul_mse`).  They must agree on all 4096 input pairs; the test suite
checks this exhaustively.

Binary polynomials over GF(2) (as opposed to field elements) are also
plain ints, bit i = coefficient of x^i, with no width limit.  The zero
polynomial has degree -1.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

FIELD_SIZE = 64
GROUP_ORDER = 63  # order of the multiplicative group

# x^6 + x + 1, bit i = coefficient of x^i
PRIMITIVE_POLY = 0b1000011

# log[] entry for the additive identity, which has no discrete log.
# Kept outside 0..62 so accidental use is detectable.
LOG_ZERO = -1


class GfTables(NamedTuple):
    """Log/antilog tables: antilog[k] = alpha^k, log[antilog[k]] = k."""

    antilog: tuple[int, ...]  # 63 entries, a bijection onto the nonzero elements
    log: tuple[int, ...]      # 64 entries, log[0] = LOG_ZERO


def build_tables() -> GfTables:
    """Generate the field tables by repeated multiplication by alpha.

    Each step shifts left by one and reduces with alpha^6 := alpha + 1
    whenever bit 6 appears.
    """
    antilog = []
    x = 1
    for _ in range(GROUP_ORDER):
        antilog.append(x)
        x <<= 1
        if x & FIELD_SIZE:
            x ^= PRIMITIVE_POLY
    log = [LOG_ZERO] * FIELD_SIZE
    for k, v in enumerate(antilog):
        log[v] = k
    return GfTables(tuple(antilog), tuple(log))


def gf_mul_table(a: int, b: int, tables: GfTables) -> int:
    """Field multiplication via the log/antilog tables."""
    if a == 0 or b == 0:
        return 0
    return tables.antilog[(tables.log[a] + tables.log[b]) % GROUP_ORDER]


def gf_mul_mse(a: int, b: int) -> int:
    """Field multiplication from combinational partial products, no tables.

    The expressions below come from expanding the carry-less product
    sum(a_i b_j alpha^(i+j)) and folding the overflow terms back with
    alpha^6 = alpha + 1 (so alpha^7 = alpha^2 + alpha, ..., alpha^10 =
    alpha^5 + alpha^4).  Each output bit is a fixed AND/XOR network over
    the twelve input coefficient bits.
    """
    a0, a1, a2, a3, a4, a5 = a & 1, a >> 1 & 1, a >> 2 & 1, a >> 3 & 1, a >> 4 & 1, a >> 5 & 1
    b0, b1, b2, b3, b4, b5 = b & 1, b >> 1 & 1, b >> 2 & 1, b >> 3 & 1, b >> 4 & 1, b >> 5 & 1
    y0 = (a0 & b0) ^ (a1 & b5) ^ (a2 & b4) ^ (a3 & b3) ^ (a4 & b2) ^ (a5 & b1)
    y1 = (a0 & b1) ^ (a1 & (b0 ^ b5)) ^ (a2 & (b4 ^ b5)) ^ (a3 & (b3 ^ b4)) ^ (a4 & (b2 ^ b3)) ^ (a5 & (b1 ^ b2))
    y2 = (a0 & b2) ^ (a1 & b1) ^ (a2 & (b0 ^ b5)) ^ (a3 & (b4 ^ b5)) ^ (a4 & (b3 ^ b4)) ^ (a5 & (b2 ^ b3))
    y3 = (a0 & b3) ^ (a1 & b2) ^ (a2 & b1) ^ (a3 & (b0 ^ b5)) ^ (a4 & (b4 ^ b5)) ^ (a5 & (b3 ^ b4))
    y4 = (a0 & b4) ^ (a1 & b3) ^ (a2 & b2) ^ (a3 & b1) ^ (a4 & (b0 ^ b5)) ^ (a5 & (b4 ^ b5))
    y5 = (a0 & b5) ^ (a1 & b4) ^ (a2 & b3) ^ (a3 & b2) ^ (a4 & b1) ^ (a5 & (b0 ^ b5))
    return y0 | y1 << 1 | y2 << 2 | y3 << 3 | y4 << 4 | y5 << 5


# --- binary (GF(2)) polynomial helpers -----------------------------------

def gf2_degree(p: int) -> int:
    """Degree of a binary polynomial; -1 for the zero polynomial."""
    return p.bit_length() - 1


def gf2_mul(p: int, q: int) -> int:
    """Carry-less product of two binary polynomials."""
    acc = 0
    while q:
        if q & 1:
            acc ^= p
        p <<= 1
        q >>= 1
    return acc


def gf2_mod(p: int, q: int) -> int:
    """Remainder of binary polynomial long division p mod q."""
    if q == 0:
        raise ZeroDivisionError("polynomial division by zero")
    dq = gf2_degree(q)
    while gf2_degree(p) >= dq:
        p ^= q << (gf2_degree(p) - dq)
    return p


def byte_tables(columns: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Lookup tables for a GF(2)-linear map of a word, one table per input byte.

    `columns[i]` is the image of input bit i.  Table k maps a byte value b
    to the XOR of the images of the bits of b, placed at bits 8k..8k+7, so
    the image of a word is the XOR of one entry per byte: the table-driven
    method of CRC computation (Sarwate, "Computation of cyclic redundancy
    checks via table look-up", CACM 31(8), 1988).  The last table is
    shorter when len(columns) is not a multiple of 8.
    """
    tables = []
    for k in range(0, len(columns), 8):
        table = [0]
        for column in columns[k:k + 8]:
            table += [v ^ column for v in table]
        tables.append(tuple(table))
    return tuple(tables)


def format_antilog_table(tables: GfTables) -> str:
    """Plain-text dump: one line per k, `k <space> 6-bit binary of alpha^k`."""
    return "\n".join(f"{k} {tables.antilog[k]:06b}" for k in range(GROUP_ORDER))
