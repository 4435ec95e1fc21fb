"""Tests for row reduction, determinants, and RREF enumeration."""

import random
from functools import reduce
from itertools import combinations, permutations, product
from operator import or_

import pytest

from subclose.combinat import colex_masks, gaussian_binom
from subclose.gf import field_from_order
from subclose.linalg import det, mat_rank, rref_span_count, rref_span_matrices

F2 = field_from_order(2)
F3 = field_from_order(3)
F4 = field_from_order(4)
F9 = field_from_order(9)
F16 = field_from_order(16)
ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


def random_matrix(F, rng, rows, cols):
    return tuple(
        tuple(rng.randrange(F.q) for _ in range(cols)) for _ in range(rows)
    )


def row_times(F, vec, rows):
    out = [0] * len(rows[0])
    for x, row in zip(vec, rows):
        for j, y in enumerate(row):
            out[j] = F.add[out[j]][F.mul[x][y]]
    return tuple(out)


def mat_mul(F, a, b):
    return tuple(row_times(F, row, b) for row in a)


def det_by_leibniz(F, rows):
    # sum over permutations p of sign(p) * prod_i rows[i][p(i)]; shares
    # nothing with det's cofactor expansions or its elimination
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        term = 1
        for i, j in enumerate(perm):
            term = F.mul[term][rows[i][j]]
        odd = sum(perm[a] > perm[b] for a, b in combinations(range(n), 2)) % 2
        total = F.add[total][F.neg[term] if odd else term]
    return total


def rref(F, rows):
    # Gauss-Jordan elimination column by column, each pivot row scaled to 1
    # and cleared above and below: the reduced form and its pivot columns,
    # the reference that mat_rank and rref_span_matrices are checked against
    mat = [list(row) for row in rows]
    pivots = []
    for col in range(len(mat[0]) if mat else 0):
        rank = len(pivots)
        i = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if i is None:
            continue
        mat[rank], mat[i] = mat[i], mat[rank]
        scale = F.mul[F.inv[mat[rank][col]]]
        top = mat[rank] = [scale[x] for x in mat[rank]]
        for j, row in enumerate(mat):
            if j != rank and row[col]:
                minus_c = F.neg[row[col]]
                mat[j] = [F.add[x][F.mul[minus_c][y]] for x, y in zip(row, top)]
        pivots.append(col)
    return tuple(map(tuple, mat)), tuple(pivots)


def rref_span_reference(F, r, n):
    # one product over all free entries in row-major order; the sequence
    # rref_span_matrices must reproduce
    if r == 0:
        yield ()
        return
    for mask in colex_masks(r, n):
        pivots = [t for t in range(n) if mask >> t & 1]
        free = [
            (i, c)
            for i in range(r)
            for c in range(pivots[i] + 1, n)
            if not mask >> c & 1
        ]
        base = [[0] * n for _ in range(r)]
        for i, c in enumerate(pivots):
            base[i][c] = 1
        for vals in product(F.elements, repeat=len(free)):
            mat = [row[:] for row in base]
            for (i, c), v in zip(free, vals):
                mat[i][c] = v
            yield tuple(tuple(row) for row in mat)


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


def test_mat_rank_matches_the_reference_pivot_count():
    rng = random.Random(13)
    for F in (F2, F3, F4):
        for _ in range(200):
            m = random_matrix(F, rng, rng.randint(1, 4), rng.randint(1, 5))
            # a repeated row keeps some matrices below full rank
            for rows in (m, m + m[-1:]):
                red, pivots = rref(F, rows)
                assert is_rref(F, red, pivots)
                assert mat_rank(F, rows) == len(pivots)


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


def test_det_goldens():
    assert det(F2, ((1, 0), (0, 1))) == 1
    assert det(F3, ((1, 2), (2, 1))) == 0  # 1 - 4 = 0 mod 3
    assert det(F3, ((0, 1), (1, 0))) == 2  # swap parity = -1
    assert det(F2, ((1,),)) == 1


def test_det_multiplicative():
    rng = random.Random(19)
    for F in (F2, F3, F4):
        for _ in range(60):
            n = rng.randint(1, 5)
            a = random_matrix(F, rng, n, n)
            b = random_matrix(F, rng, n, n)
            assert det(F, mat_mul(F, a, b)) == F.mul[det(F, a)][det(F, b)]


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det(F2, ((1, 0, 1), (0, 1, 0)))
    for n in (1, 2, 3, 4):
        square = [[1] * n for _ in range(n)]
        for bad in ([[1] * (n + 1)] + square[1:], square[:-1] + [[1] * (n - 1)]):
            with pytest.raises(ValueError, match="square"):
                det(F2, bad)
    # 2 x 2 and 3 x 3 unpack their rows rather than measure them
    for n in (2, 3):
        for width in (0, n - 1, n + 1):
            bad = [[1] * n for _ in range(n)]
            bad[n // 2] = [1] * width
            with pytest.raises(ValueError, match="square"):
                det(F2, bad)


def test_det_matches_leibniz_exhaustively():
    for F in (F2, F3):
        for n in (0, 1, 2, 3):
            for entries in product(F.elements, repeat=n * n):
                rows = [entries[i * n : (i + 1) * n] for i in range(n)]
                assert det(F, rows) == det_by_leibniz(F, rows), rows


def test_det_matches_leibniz_random_up_to_3x3():
    rng = random.Random(23)
    for q in (4, 5, 8, 9, 16):
        F = field_from_order(q)
        for _ in range(2000):
            n = rng.randint(1, 3)
            rows = random_matrix(F, rng, n, n)
            assert det(F, rows) == det_by_leibniz(F, rows), (q, rows)


def test_det_matches_leibniz_on_every_2x2():
    for q in ORDERS:
        F = field_from_order(q)
        for a, b, c, d in product(F.elements, repeat=4):
            rows = ((a, b), (c, d))
            assert det(F, rows) == det_by_leibniz(F, rows), (q, rows)


def test_det_matches_leibniz_random_3x3_and_4x4():
    rng = random.Random(29)
    for q in ORDERS:
        F = field_from_order(q)
        for n in (3, 4):
            for _ in range(100):
                rows = random_matrix(F, rng, n, n)
                assert det(F, rows) == det_by_leibniz(F, rows), (q, rows)


def test_det_of_permutation_matrices_is_their_sign():
    # every row swap the elimination makes must flip the sign once
    for q in ORDERS:
        F = field_from_order(q)
        for n in (4, 5):
            for perm in permutations(range(n)):
                rows = tuple(
                    tuple(int(j == perm[i]) for j in range(n)) for i in range(n)
                )
                odd = sum(
                    perm[a] > perm[b] for a, b in combinations(range(n), 2)
                ) % 2
                sign = F.neg[1] if odd else 1
                assert det(F, rows) == sign == det_by_leibniz(F, rows), (q, perm)


def test_det_of_rank_deficient_matrices_is_zero():
    # one row a combination of the others: the elimination runs out of
    # pivots and must not return the product of those it found
    rng = random.Random(31)
    for q in ORDERS:
        F = field_from_order(q)
        for n in (1, 4, 5):
            for _ in range(20):
                rows = list(random_matrix(F, rng, n - 1, n))
                combo = (0,) * n
                for row in rows:
                    c = rng.randrange(q)
                    combo = tuple(F.add[x][F.mul[c][y]] for x, y in zip(combo, row))
                rows.insert(rng.randrange(n), combo)
                rows = tuple(rows)
                assert det(F, rows) == 0 == det_by_leibniz(F, rows), (q, rows)


def test_rref_span_enumeration_counts():
    # without a table sigma is the identity on every field, so no
    # Grassmannian point is dropped, also over GF(p^e): 273 = [3, 1]_16
    for q, top in ((2, 4), (3, 4), (8, 3), (9, 3), (16, 3)):
        F = field_from_order(q)
        for n in range(top + 1):
            for r in range(n + 1):
                mats = list(rref_span_matrices(F, r, n))
                assert len(mats) == gaussian_binom(n, r, q), (q, r, n)
                assert len(set(mats)) == len(mats)


def test_rref_span_matrices_are_canonical_rank_r():
    for F, r, n in ((F2, 2, 4), (F3, 2, 3), (F4, 1, 3)):
        for mat in rref_span_matrices(F, r, n):
            red, pivots = rref(F, mat)
            assert red == mat
            assert len(pivots) == r


def test_rref_span_order_matches_reference():
    for F, top in ((F2, 5), (F3, 5), (F4, 4)):
        for n in range(top + 1):
            for r in range(n + 1):
                got = list(rref_span_matrices(F, r, n))
                assert got == list(rref_span_reference(F, r, n)), (F.q, r, n)
                assert all(
                    type(mat) is tuple and all(type(row) is tuple for row in mat)
                    for mat in got
                )


def test_rref_span_key_maps_each_row_in_order():
    # a keyed matrix is the tuple of its rows' keys, in the plain order
    for F, top in ((F2, 4), (F3, 4), (F4, 3)):
        for n in range(top + 1):
            for r in range(n + 1):
                plain = [
                    tuple(map(str, mat)) for mat in rref_span_matrices(F, r, n)
                ]
                keyed = list(rref_span_matrices(F, r, n, key=str))
                assert keyed == plain, (F.q, r, n)


def test_rref_span_key_runs_once_per_row_option():
    # 52 row options over the six pivot sets of (GF(3), 2, 4), where the
    # 130 matrices have 260 rows; over GF(4) with no table the identity
    # keys each of its 84 row options once too, for 357 matrices
    for F, count, options in ((F3, 130, 52), (F4, 357, 84)):
        calls = []

        def key(row):
            calls.append(row)
            return row

        mats = list(rref_span_matrices(F, 2, 4, key=key))
        assert len(mats) == count
        assert len(calls) == options


def test_rref_span_zero_dimension():
    assert list(rref_span_matrices(F2, 0, 3)) == [()]


def test_rref_span_refuses_a_bad_r_at_the_call():
    # no iteration: the refusal comes from the call itself
    with pytest.raises(ValueError, match=r"^need 0 <= r <= n, got r=4, n=3$"):
        rref_span_matrices(F2, 4, 3)
    with pytest.raises(ValueError, match=r"^need 0 <= r <= n, got r=-1, n=3$"):
        rref_span_matrices(F2, -1, 3, key=str)


def frobenius_orbits(F, r, n):
    """The orbits of the Frobenius map on the r x n echelon matrices, each
    a frozenset, built by applying it entrywise until the matrix recurs."""
    sigma = F.frobenius
    orbits = set()
    for mat in rref_span_matrices(F, r, n):
        orbit = set()
        while mat not in orbit:
            orbit.add(mat)
            mat = tuple(tuple(row.translate(sigma)) for row in map(bytes, mat))
        orbits.add(frozenset(orbit))
    return orbits


def test_rref_span_frobenius_meets_every_orbit():
    # every orbit holds a visited matrix, none twice; over GF(p^2) and
    # GF(p^3) exactly one, over GF(16) at most two, since sigma^2 fixes
    # GF(4)
    for F, top in ((F4, 4), (field_from_order(8), 3), (F9, 3), (F16, 3)):
        for n in range(top + 1):
            for r in range(n + 1):
                visited = list(rref_span_matrices(F, r, n, frobenius=F.frobenius))
                assert len(set(visited)) == len(visited)
                orbits = frobenius_orbits(F, r, n)
                hits = [len(orbit.intersection(visited)) for orbit in orbits]
                assert min(hits, default=1) >= 1 and sum(hits) == len(visited)
                assert max(hits, default=1) <= (2 if F.q == 16 else 1), (F.q, r, n)
                if F.e == 2:
                    count = gaussian_binom(n, r, F.q) + gaussian_binom(n, r, F.p)
                    assert 2 * len(visited) == count


def test_rref_span_frobenius_keys_the_same_matrices():
    for F in (F4, F9):
        for n in range(4):
            for r in range(n + 1):
                plain = rref_span_matrices(F, r, n, frobenius=F.frobenius)
                keyed = rref_span_matrices(F, r, n, key=str, frobenius=F.frobenius)
                assert list(keyed) == [tuple(map(str, mat)) for mat in plain]
    # a prime field's table fixes every entry: every matrix, in order
    assert list(rref_span_matrices(F3, 2, 4, frobenius=F3.frobenius)) == list(
        rref_span_matrices(F3, 2, 4)
    )


def test_folded_span_pairs_fold_each_matrix_in_order():
    # a folded call yields one pair per matrix, in the unfolded order,
    # and a | b is the OR of the matrix's row keys; random keys make a
    # dropped or doubled row show in the masks
    rng = random.Random(43)
    for q in (2, 3, 4, 8, 9, 16):
        F = field_from_order(q)
        tables = (None, F.frobenius) if F.e > 1 else (None,)
        for n in range(6 if q < 8 else 5 if q < 16 else 4):
            for r in range(n + 1):
                for sigma in tables:
                    masks = {}

                    def key(row):
                        return masks.setdefault(row, rng.getrandbits(48))

                    plain = rref_span_matrices(F, r, n, key=key, frobenius=sigma)
                    unions = [reduce(or_, mat, 0) for mat in plain]
                    pairs = list(
                        rref_span_matrices(F, r, n, key, sigma, fold=or_)
                    )
                    assert all(len(pair) == 2 for pair in pairs)
                    assert [a | b for a, b in pairs] == unions, (q, r, n, sigma)


def test_folded_span_of_rank_zero_is_one_empty_pair():
    assert list(rref_span_matrices(F2, 0, 3, fold=or_)) == [(0, 0)]
    assert list(rref_span_matrices(F4, 0, 0, fold=or_)) == [(0, 0)]


def test_folded_span_never_folds_a_single_row():
    # rank 1 has one row per product: one side is the row's keyed options
    # as they are and the other the identity 0, so the fold never runs
    # (0 + str would raise)
    keyed = list(rref_span_matrices(F3, 1, 4, key=str, fold=lambda a, b: a + b))
    assert keyed[0] == (0, "(1, 0, 0, 0)")
    assert [b for _, b in keyed] == [
        str(row) for (row,) in rref_span_matrices(F3, 1, 4)
    ]


def test_rref_span_count_matches_the_draws():
    # the count is the number of matrices yielded, with and without a
    # Frobenius table, on every field up to 16
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        F = field_from_order(q)
        tables = (None, F.frobenius) if F.e > 1 else (None,)
        for n in range(6):
            for r in range(n + 1):
                if gaussian_binom(n, r, q) > 2 * 10**4:
                    continue
                for sigma in tables:
                    drawn = sum(1 for _ in rref_span_matrices(F, r, n, frobenius=sigma))
                    assert rref_span_count(F, r, n, sigma) == drawn, (q, r, n, sigma)
                assert rref_span_count(F, r, n) == gaussian_binom(n, r, q)
    # a prime field's table fixes every element, and GF(8) meets each of
    # its orbits once: ([6, 2]_8 + 2 [6, 2]_2) / 3
    assert rref_span_count(F3, 3, 6, F3.frobenius) == gaussian_binom(6, 3, 3)
    F8 = field_from_order(8)
    assert rref_span_count(F8, 2, 6, F8.frobenius) == 6492981
    assert 3 * 6492981 == gaussian_binom(6, 2, 8) + 2 * gaussian_binom(6, 2, 2)
    with pytest.raises(ValueError, match=r"^need 0 <= r <= n, got r=4, n=3$"):
        rref_span_count(F2, 4, 3)


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
