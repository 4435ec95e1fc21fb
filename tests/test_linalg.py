"""Tests for row reduction, determinants, and RREF enumeration."""

import random
from itertools import product

import pytest

from subclose.combinat import gaussian_binom
from subclose.gf import field_from_order
from subclose.linalg import (
    det,
    mat_rank,
    rref,
    rref_span_matrices,
    vec_mat,
)

F2 = field_from_order(2)
F3 = field_from_order(3)
F4 = field_from_order(4)


def random_matrix(F, rng, rows, cols):
    return tuple(
        tuple(rng.randrange(F.q) for _ in range(cols)) for _ in range(rows)
    )


def mat_mul(F, a, b):
    return tuple(vec_mat(F, row, b) for row in a)


def is_rref(F, mat, pivots):
    if list(pivots) != sorted(pivots):
        return False
    for i, p in enumerate(pivots):
        if mat[i][p] != 1:
            return False
        if any(mat[i][c] != 0 for c in range(p)):
            return False
        if any(mat[j][p] != 0 for j in range(len(mat)) if j != i):
            return False
    return True


def test_rref_golden():
    mat, pivots = rref(F2, ((1, 1, 0), (1, 0, 1)))
    assert pivots == (0, 1)
    assert mat == ((1, 0, 1), (0, 1, 1))


def test_rref_keeps_shape_basis_drops_zero_rows():
    rows = ((1, 2, 0), (2, 1, 0), (0, 0, 1))  # row 1 = 2 * row 0 over GF(3)
    mat, pivots = rref(F3, rows)
    assert pivots == (0, 2)
    assert mat == ((1, 2, 0), (0, 0, 1), (0, 0, 0))


def test_rref_idempotent_and_canonical():
    rng = random.Random(13)
    for F in (F2, F3, F4):
        for _ in range(100):
            m = random_matrix(F, rng, rng.randint(1, 4), rng.randint(1, 5))
            red, pivots = rref(F, m)
            assert is_rref(F, red, pivots)
            again, pivots2 = rref(F, red)
            assert again == red and pivots2 == pivots
            assert mat_rank(F, m) == len(pivots)


def test_rank_facts():
    ident = ((1, 0), (0, 1))
    assert mat_rank(F2, ident) == 2
    assert mat_rank(F3, ((0, 0), (0, 0))) == 0
    assert mat_rank(F3, ()) == 0


def test_row_space_invariant_under_row_operations():
    rng = random.Random(17)
    for F in (F2, F3):
        for _ in range(50):
            m = random_matrix(F, rng, 3, 4)
            # add a multiple of row 0 to row 1 and swap rows
            t = rng.randrange(F.q)
            messed = (
                m[2],
                tuple(F.add[x][F.mul[t][y]] for x, y in zip(m[1], m[0])),
                m[0],
            )
            assert rref(F, m) == rref(F, messed)


def test_vec_mat_golden():
    mat = ((1, 1, 0), (0, 1, 1))
    assert vec_mat(F2, (1, 1), mat) == (1, 0, 1)
    assert vec_mat(F3, (2, 1), ((1, 0, 0), (0, 1, 0))) == (2, 1, 0)


def test_det_goldens():
    assert det(F2, ((1, 0), (0, 1))) == 1
    assert det(F3, ((1, 2), (2, 1))) == 0  # 1 - 4 = 0 mod 3
    assert det(F3, ((0, 1), (1, 0))) == 2  # swap parity = -1
    assert det(F2, ((1,),)) == 1


def test_det_multiplicative():
    rng = random.Random(19)
    for F in (F2, F3, F4):
        for _ in range(60):
            n = rng.randint(1, 3)
            a = random_matrix(F, rng, n, n)
            b = random_matrix(F, rng, n, n)
            assert det(F, mat_mul(F, a, b)) == F.mul[det(F, a)][det(F, b)]


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det(F2, ((1, 0, 1), (0, 1, 0)))


def test_rref_span_enumeration_counts():
    for q in (2, 3):
        F = field_from_order(q)
        for n in range(5):
            for r in range(n + 1):
                mats = list(rref_span_matrices(F, r, n))
                assert len(mats) == gaussian_binom(n, r, q)
                assert len(set(mats)) == len(mats)


def test_rref_span_matrices_are_canonical_rank_r():
    for F, r, n in ((F2, 2, 4), (F3, 2, 3), (F4, 1, 3)):
        for mat in rref_span_matrices(F, r, n):
            red, pivots = rref(F, mat)
            assert red == mat
            assert len(pivots) == r


def test_rref_span_zero_dimension():
    assert list(rref_span_matrices(F2, 0, 3)) == [()]


def test_rref_span_covers_all_subspaces():
    # every 2-dimensional subspace of F_2^4, built by brute span, shows up
    vecs = list(product(range(2), repeat=4))
    spaces = set()
    for a in vecs[1:]:
        for b in vecs[1:]:
            if a == b:
                continue
            s = frozenset(
                {(0, 0, 0, 0), a, b, tuple((x + y) % 2 for x, y in zip(a, b))}
            )
            if len(s) == 4:
                spaces.add(s)
    enumerated = set()
    for mat in rref_span_matrices(F2, 2, 4):
        a, b = mat
        s = frozenset(
            {(0, 0, 0, 0), a, b, tuple((x + y) % 2 for x, y in zip(a, b))}
        )
        enumerated.add(s)
    assert enumerated == spaces
