"""Tests for the small-field arithmetic tables."""

import pytest

from subclose.gf import FieldTable, build_field, field_from_order

ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


def test_all_supported_orders_build():
    # the constructor re-verifies every axiom exhaustively
    for q in ORDERS:
        F = field_from_order(q)
        assert F.q == q
        assert len(F.add) == q and len(F.mul) == q


def test_rejected_orders():
    for q in (0, 1, 6, 10, 12, 14, 15, 17, 32):
        with pytest.raises(ValueError):
            field_from_order(q)


def test_field_cache_returns_same_table():
    assert field_from_order(8) is field_from_order(8)


def test_prime_field_is_mod_arithmetic():
    for p in (2, 3, 5, 7, 11, 13):
        F = field_from_order(p)
        for a in range(p):
            for b in range(p):
                assert F.add[a][b] == (a + b) % p
                assert F.mul[a][b] == (a * b) % p


def test_gf4_multiplication_table():
    F = field_from_order(4)
    # elements are 0, 1, x, x+1 encoded 0..3 with x*x = x+1
    assert F.mul[2][2] == 3
    assert F.mul[2][3] == 1
    assert F.mul[3][3] == 2
    assert F.add[2][3] == 1
    assert F.inv[2] == 3 and F.inv[3] == 2


def test_gf8_generator_relation():
    F = field_from_order(8)
    # x**3 = x + 1 under the chosen modulus
    assert F.pow(2, 3) == 3
    assert F.pow(2, 7) == 1


def test_gf9_squares():
    F = field_from_order(9)
    # 3 encodes x; x**2 = 2x + 1 encodes to 7
    assert F.mul[3][3] == 7
    assert F.pow(3, 8) == 1
    assert F.pow(3, 4) == 2  # the multiplicative order-2 element


def test_sub_div_round_trip():
    for q in (4, 7, 9):
        F = field_from_order(q)
        for a in F.elements:
            for b in F.elements:
                assert F.add[F.sub(a, b)][b] == a


def test_pow_edge_cases():
    F = field_from_order(9)
    assert F.pow(0, 0) == 1
    assert F.pow(0, 5) == 0
    assert F.pow(5, -1) == F.inv[5]
    assert F.mul[F.pow(4, -2)][F.pow(4, 2)] == 1
    with pytest.raises(ZeroDivisionError):
        F.pow(0, -1)


def test_frobenius_fixes_everything():
    # a**q == a in GF(q)
    for q in (4, 8, 9, 16):
        F = field_from_order(q)
        for a in F.elements:
            assert F.pow(a, q) == a


def test_nonprime_power_of_prime_is_not_mod_arithmetic():
    F = field_from_order(4)
    assert F.add[2][2] == 0  # characteristic 2, not 4
    assert F.mul[2][2] != 0  # no zero divisors


def test_build_field_rejects_bad_shapes():
    with pytest.raises(ValueError):
        build_field(4, 1)  # not prime
    with pytest.raises(ValueError):
        build_field(2, 5)  # q = 32 out of range
