"""Field arithmetic checks; the field is small enough to test exhaustively."""

import pytest

from bch6351.gf64 import (
    GROUP_ORDER,
    LOG_ZERO,
    build_tables,
    format_antilog_table,
    gf2_degree,
    gf2_mod,
    gf2_mul,
    gf_mul_mse,
    gf_mul_table,
)

ALL = range(64)
NONZERO = range(1, 64)


def test_antilog_anchors(tables):
    assert tables.antilog[0] == 0b000001
    assert tables.antilog[1] == 0b000010
    # alpha^6 = 1 + alpha under the reduction rule
    assert tables.antilog[6] == 0b000011


def test_antilog_is_bijection_onto_nonzero(tables):
    assert len(tables.antilog) == GROUP_ORDER
    assert set(tables.antilog) == set(NONZERO)


def test_antilog_step_is_multiplication_by_alpha(tables):
    alpha = tables.antilog[1]
    for i in range(GROUP_ORDER):
        stepped = gf_mul_table(tables.antilog[i], alpha, tables)
        assert tables.antilog[(i + 1) % GROUP_ORDER] == stepped


def test_log_inverts_antilog(tables):
    for k in range(GROUP_ORDER):
        assert tables.log[tables.antilog[k]] == k


def test_log_zero_sentinel(tables):
    assert tables.log[0] == LOG_ZERO
    assert not 0 <= LOG_ZERO <= 62


def test_mul_identity_and_annihilator(tables):
    for x in ALL:
        assert gf_mul_table(1, x, tables) == x
        assert gf_mul_table(0, x, tables) == 0


def test_mul_example_alpha3_alpha4(tables):
    # alpha^7 = alpha * (alpha + 1) = alpha^2 + alpha; confirm via the table
    a3, a4 = tables.antilog[3], tables.antilog[4]
    assert tables.antilog[7] == 0b000110
    assert gf_mul_table(a3, a4, tables) == 0b000110


def test_mul_closure_and_commutativity(tables):
    for a in ALL:
        for b in ALL:
            p = gf_mul_table(a, b, tables)
            assert 0 <= p <= 63
            assert p == gf_mul_table(b, a, tables)


def test_mul_associativity_exhaustive(tables):
    for a in ALL:
        for b in ALL:
            ab = gf_mul_table(a, b, tables)
            for c in ALL:
                assert gf_mul_table(ab, c, tables) == \
                    gf_mul_table(a, gf_mul_table(b, c, tables), tables)


def test_distributivity_exhaustive(tables):
    for a in ALL:
        for b in ALL:
            for c in ALL:
                assert gf_mul_table(a, b ^ c, tables) == \
                    gf_mul_table(a, b, tables) ^ gf_mul_table(a, c, tables)


def test_mse_equals_table_multiplier_all_pairs(tables):
    for a in ALL:
        for b in ALL:
            assert gf_mul_mse(a, b) == gf_mul_table(a, b, tables)


def test_mse_identity_and_reduction_anchor():
    for b in ALL:
        assert gf_mul_mse(1, b) == b
    # alpha * alpha^5 = alpha^6 = 1 + alpha
    assert gf_mul_mse(0b000010, 0b100000) == 0b000011


def alpha_power(k, tables):
    """alpha^k by k explicit multiplications, no exponent arithmetic."""
    acc = 1
    for _ in range(k):
        acc = gf_mul_table(acc, tables.antilog[1], tables)
    return acc


def test_pow_group_order(tables):
    assert alpha_power(63, tables) == 1
    # every nonzero a satisfies a^63 = 1, by 63 explicit multiplications
    for a in NONZERO:
        acc = 1
        for _ in range(63):
            acc = gf_mul_table(acc, a, tables)
        assert acc == 1


def test_pow_basics(tables):
    assert alpha_power(0, tables) == 1
    assert alpha_power(6, tables) == 0b000011
    # exponents reduce mod 63 (syndrome terms reach alpha^186)
    for k in (62, 63, 64, 124, 126, 186):
        assert alpha_power(k, tables) == tables.antilog[k % 63], k


def test_pow_negative_exponent_is_inverse(tables):
    # alpha^(-e) is antilog[-e mod 63] for any integer e, the exponent
    # arithmetic the root finder uses for reciprocal positions
    for e in range(-200, 200):
        inverse = tables.antilog[-e % GROUP_ORDER]
        assert gf_mul_table(tables.antilog[e % GROUP_ORDER], inverse, tables) == 1, e


def test_inv_by_exhaustive_search(tables):
    # every nonzero element has exactly one inverse among all 64 elements
    inverses = {a: [b for b in ALL if gf_mul_table(a, b, tables) == 1] for a in NONZERO}
    assert all(len(inverses[a]) == 1 for a in NONZERO)
    assert inverses[tables.antilog[1]] == [tables.antilog[62]]
    assert inverses[1] == [1]


def test_inv_of_zero_raises(tables):
    # zero has no inverse: no product with it is 1
    assert all(gf_mul_table(0, b, tables) != 1 for b in ALL)


def test_inv_all_nonzero(tables):
    # the log-table inverse antilog[(63 - log a) mod 63]
    for a in NONZERO:
        inverse = tables.antilog[(GROUP_ORDER - tables.log[a]) % GROUP_ORDER]
        assert gf_mul_table(a, inverse, tables) == 1


def test_tables_rebuild_identical(tables):
    again = build_tables()
    assert again == tables
    # the session-wide fixture is shared by every test, so it must not be settable
    with pytest.raises(AttributeError):
        again.log = ()


def test_gf2_poly_helpers():
    assert gf2_degree(0) == -1
    assert gf2_degree(1) == 0
    assert gf2_degree(0b1000011) == 6
    assert gf2_mul(0b11, 0b11) == 0b101  # (x+1)^2 = x^2+1
    assert gf2_mod(0b101, 0b11) == 0
    with pytest.raises(ZeroDivisionError):
        gf2_mod(0b101, 0)


def test_format_antilog_table(tables):
    lines = format_antilog_table(tables).splitlines()
    assert len(lines) == 63
    assert lines[0] == "0 000001"
    assert lines[1] == "1 000010"
    assert lines[6] == "6 000011"
    for k, line in enumerate(lines):
        num, bits = line.split(" ")
        assert int(num) == k
        assert len(bits) == 6
        assert int(bits, 2) == tables.antilog[k]
