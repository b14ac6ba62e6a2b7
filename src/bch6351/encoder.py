"""Systematic (63, 51) encoder and its shortened (31, 19) variant.

Bit convention, used everywhere in this package: bit i of an int is the
coefficient of x^i.  A 51-bit message m(x) occupies bits 0..50; the
codeword is c(x) = x^12 m(x) + r(x) with the parity remainder r(x) in
bits 0..11 and the message verbatim in bits 12..62.  "First transmitted"
means the highest index: the encoder shifts in m50 first and the parity
comes out r11 first.

The generator polynomial is the product of the minimal polynomials of
alpha and alpha^3 over GF(2^6):

    g(x) = (1 + x + x^6)(1 + x + x^2 + x^4 + x^6)
         = 1 + x^3 + x^4 + x^5 + x^8 + x^10 + x^12

`compute_generator` re-derives it as one product of (x + alpha^e) over
the union of the conjugacy classes of alpha and alpha^3; the tests
require the derivation, the constant and the product of the two minimal
polynomials to agree.

`encode` computes the parity from byte-indexed tables and is the one the
CLI and `encode_shortened` use.  `encode_lfsr` is the paper's bit-serial
shift register, and `encode_polydiv_oracle` textbook long division; both
stay as references that `encode` is certified against.
"""

from __future__ import annotations

from .gf64 import build_tables, byte_tables, gf2_mod, gf_mul_table, GROUP_ORDER

MESSAGE_BITS = 51
PARITY_BITS = 12
CODEWORD_BITS = 63

SHORT_PAYLOAD_BITS = 19
SHORT_CODEWORD_BITS = 31

# g(x) = x^12 + x^10 + x^8 + x^5 + x^4 + x^3 + 1
GENERATOR_POLY = 0b1010100111001

# The 12-stage register as a bit mask, and the index of its top stage,
# whose bit leaves the register on each shift.
_REGISTER_MASK = (1 << PARITY_BITS) - 1
_TOP_STAGE = PARITY_BITS - 1

# Feedback taps: the generator coefficients below x^12.  XORed into the
# register whenever the feedback bit is 1; equivalent to reducing by g.
_FEEDBACK = GENERATOR_POLY & _REGISTER_MASK

# The parity is linear in the message bits: message bit i contributes
# x^(12+i) mod g(x).  One table per message byte adds up those remainders.
_P0, _P1, _P2, _P3, _P4, _P5, _P6 = byte_tables(
    [gf2_mod(1 << (PARITY_BITS + i), GENERATOR_POLY) for i in range(MESSAGE_BITS)]
)


def compute_generator(t: int) -> int:
    """Generator polynomial for the t-error-correcting length-63 code.

    The product of (x + alpha^e) over the union of the conjugacy classes
    of 1 .. 2t, the exponent orbits under doubling mod 63 (Lin & Costello,
    Error Control Coding, 2004, ch. 6).  Intermediate coefficients live in
    GF(64); the union of closed classes makes the result collapse to GF(2).
    """
    if t not in (1, 2):
        raise ValueError(f"unsupported correction capability t={t}")
    tables = build_tables()
    # 2^6 = 1 mod 63, so the class of e is e * 2^k mod 63 for k = 0..5.
    exponents = {(e << k) % GROUP_ORDER for e in range(1, 2 * t + 1) for k in range(6)}
    coeffs = [1]
    for e in sorted(exponents):
        root = tables.antilog[e]
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] ^= c
            nxt[i] ^= gf_mul_table(c, root, tables)
        coeffs = nxt
    gen = 0
    for i, c in enumerate(coeffs):
        if c not in (0, 1):
            raise AssertionError(f"non-binary coefficient {c} in the generator polynomial")
        gen |= c << i
    return gen


def encode_lfsr(message: int) -> int:
    """Encode a 51-bit message through the 12-stage feedback shift register.

    The register starts at zero and takes one shift per message bit, m50
    first.  A zero bit shifted into a zero register leaves it at zero, so
    the shifts begin at the message's top set bit.  After the last shift
    (m0) it holds the parity bits (bit i = r_i), and the codeword is the
    message shifted up by 12 with the parity appended below.
    """
    if message >> MESSAGE_BITS:
        raise ValueError("message exceeds 51 bits")
    reg = 0
    for i in range(message.bit_length() - 1, -1, -1):
        feedback = ((reg >> _TOP_STAGE) ^ (message >> i)) & 1
        reg = (reg << 1) & _REGISTER_MASK
        if feedback:
            reg ^= _FEEDBACK
    return (message << PARITY_BITS) | reg


def encode(message: int) -> int:
    """Encode a 51-bit message; the parity comes from seven byte-table lookups.

    The remainder x^12 m(x) mod g(x) is the XOR over the message bytes of
    each byte's tabulated remainder, so the codeword equals `encode_lfsr`'s
    bit for bit.
    """
    if message >> MESSAGE_BITS:
        raise ValueError("message exceeds 51 bits")
    m0, m1, m2, m3, m4, m5, m6 = message.to_bytes(7, "little")
    return (message << PARITY_BITS
            | _P0[m0] ^ _P1[m1] ^ _P2[m2] ^ _P3[m3] ^ _P4[m4] ^ _P5[m5] ^ _P6[m6])


def encode_polydiv_oracle(message: int) -> int:
    """Encode by textbook long division: r(x) = x^12 m(x) mod g(x).

    Exists as an independent implementation for differential testing of
    the shift-register encoder; do not "optimize" it to share code.
    """
    if message >> MESSAGE_BITS:
        raise ValueError("message exceeds 51 bits")
    remainder = gf2_mod(message << PARITY_BITS, GENERATOR_POLY)
    return (message << PARITY_BITS) | remainder


def encode_shortened(payload: int) -> int:
    """Encode a 19-bit payload as a 31-bit shortened codeword.

    The payload occupies message positions m0..m18 and the zero padding
    the high positions m19..m50, so codeword bits 31..62 are zero and the
    transmitted word is exactly the low 31 bits (parity in 0..11, payload
    in 12..30).  This defines `encode --short`, which maps `encode`.
    """
    if payload >> SHORT_PAYLOAD_BITS:
        raise ValueError("payload exceeds 19 bits")
    codeword = encode(payload)
    if codeword >> SHORT_CODEWORD_BITS:
        raise RuntimeError(f"shortened codeword {codeword:#x} exceeds 31 bits")
    return codeword
