"""Tests for row reduction, determinants, and RREF enumeration."""

import random
from functools import reduce
from itertools import combinations, permutations, product
from operator import or_

import pytest

from subclose.combinat import colex_masks, gaussian_binom
from subclose.gf import field_from_order
from subclose.linalg import (
    _howell,
    det,
    mat_rank,
    rref_span_count,
    rref_span_matrices,
)

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


def line_torus(n):
    """The torus of G(1, n): generator i scales coordinate i alone."""
    return tuple(tuple(int(c == i) for c in range(n)) for i in range(n))


# the torus of G(2, 4): generator i scales the Pluecker coordinates whose
# column set holds i, in colex order
G24_TORUS = tuple(
    tuple(mask >> i & 1 for mask in colex_masks(2, 4)) for i in range(4)
)


def torus_image(F, t, mat):
    """The echelon form of the subspace mat spans, its columns scaled by
    g^t[c]: row i times g^(t[c] - t[p_i]) at column c."""
    N = F.q - 1
    image = []
    for row in mat:
        p = next(c for c, x in enumerate(row) if x)
        image.append(
            tuple(F.mul[x][F.powers[(t[c] - t[p]) % N]] for c, x in enumerate(row))
        )
    return tuple(image)


def torus_orbits(F, r, n, torus):
    """The orbits of the torus on the r x n echelon matrices, each a
    frozenset, closed by applying every generator until nothing is new."""
    orbits, placed = [], set()
    for mat in rref_span_matrices(F, r, n):
        if mat in placed:
            continue
        orbit, todo = {mat}, [mat]
        while todo:
            x = todo.pop()
            for t in torus:
                y = torus_image(F, t, x)
                if y not in orbit:
                    orbit.add(y)
                    todo.append(y)
        placed |= orbit
        orbits.append(frozenset(orbit))
    return orbits


def test_rref_span_torus_meets_every_orbit():
    # brute force: every orbit of the torus of G(1, n) or G(2, 4) holds a
    # drawn matrix, every drawn matrix is an echelon matrix, none twice,
    # and the count is the number drawn
    cases = [(n, line_torus(n)) for n in range(1, 6)] + [(6, G24_TORUS)]
    checked = 0
    for q in (3, 4, 5, 7):
        F = field_from_order(q)
        for n, torus in cases:
            for r in range(n + 1):
                if gaussian_binom(n, r, q) > 2 * 10**4:
                    continue
                drawn = list(rref_span_matrices(F, r, n, torus=torus))
                assert len(set(drawn)) == len(drawn)
                orbits = torus_orbits(F, r, n, torus)
                hits = [len(orbit.intersection(drawn)) for orbit in orbits]
                assert min(hits) >= 1 and sum(hits) == len(drawn), (q, r, n)
                assert rref_span_count(F, r, n, torus) == len(drawn)
                checked += 1
    # every (n, r) but the middle ranks past 2 * 10^4 matrices: r = 3 of
    # n = 6 over GF(3), r = 2..4 of n = 6 over GF(4), 5 and 7, and r = 2, 3
    # of n = 5 over GF(5) and 7
    assert checked == 4 * (2 + 3 + 4 + 5 + 6 + 7) - 1 - 3 * 3 - 2 * 2
    # the Pluecker tori move every entry they move onto all of F^*; random
    # exponents, such as 2 and 3 mod 6 over GF(7), leave images of index
    # d > 1, whose entries take the d coset representatives
    rng = random.Random(45)
    for q in (5, 7, 9, 13):
        F = field_from_order(q)
        for n in (3, 4):
            torus = [[rng.randrange(q - 1) for _ in range(n)] for _ in range(2)]
            for r in range(n + 1):
                drawn = list(rref_span_matrices(F, r, n, torus=torus))
                orbits = torus_orbits(F, r, n, torus)
                hits = [len(orbit.intersection(drawn)) for orbit in orbits]
                assert min(hits) >= 1 and sum(hits) == len(drawn), (q, r, n, torus)
                assert rref_span_count(F, r, n, torus) == len(drawn)
    # every nonzero entry of G(1, 3)'s one line through e_1 is normalized
    # to 1: the lines of F_5^3 with first pivot 1 are the 1 + 4 + 4 + 16
    # of (1, x, y), drawn as the four of (1, 0/1, 0/1)
    F5 = field_from_order(5)
    assert list(rref_span_matrices(F5, 1, 3, torus=line_torus(3)))[:4] == [
        ((1, 0, 0),),
        ((1, 0, 1),),
        ((1, 1, 0),),
        ((1, 1, 1),),
    ]


def test_rref_span_torus_keys_the_same_matrices():
    for F in (F3, F4, F9):
        for n in range(5):
            for r in range(n + 1):
                torus = line_torus(n)
                plain = rref_span_matrices(F, r, n, torus=torus)
                keyed = rref_span_matrices(F, r, n, key=str, torus=torus)
                assert list(keyed) == [tuple(map(str, mat)) for mat in plain]
    # over GF(2) the torus is trivial: every matrix, in order
    assert list(rref_span_matrices(F2, 3, 6, torus=G24_TORUS)) == list(
        rref_span_matrices(F2, 3, 6)
    )


def test_howell_form_keys_the_subgroup():
    # two generating sets of one subgroup of (Z/N)^w give one form, and
    # the form spans that subgroup, with leading entries dividing N
    rng = random.Random(44)

    def closure(gens, N, w):
        span, todo = {(0,) * w}, [(0,) * w]
        while todo:
            x = todo.pop()
            for g in gens:
                y = tuple((a + b) % N for a, b in zip(x, g))
                if y not in span:
                    span.add(y)
                    todo.append(y)
        return span

    for _ in range(400):
        N = rng.choice((2, 3, 4, 6, 7, 8, 10, 12, 15))
        w = rng.randrange(5)
        gens = [
            tuple(rng.randrange(N) for _ in range(w)) for _ in range(rng.randrange(4))
        ]
        span = closure(gens, N, w)
        form = _howell(gens, N)
        assert closure(form, N, w) == span
        for row in form:
            assert N % next(x for x in row if x) == 0
        others, elements = [], sorted(span)
        while closure(others, N, w) != span:
            others.append(rng.choice(elements))
        assert _howell(others, N) == form, (N, gens, others)


def test_folded_span_pairs_fold_each_matrix_in_order():
    # a folded call yields one pair per matrix, in the unfolded order,
    # and a | b is the OR of the matrix's row keys; random keys make a
    # dropped or doubled row show in the masks
    rng = random.Random(43)
    for q in (2, 3, 4, 8, 9, 16):
        F = field_from_order(q)
        for n in range(6 if q < 8 else 5 if q < 16 else 4):
            for r in range(n + 1):
                for torus in (None, line_torus(n)):
                    masks = {}

                    def key(row):
                        return masks.setdefault(row, rng.getrandbits(48))

                    plain = rref_span_matrices(F, r, n, key=key, torus=torus)
                    unions = [reduce(or_, mat, 0) for mat in plain]
                    pairs = list(
                        rref_span_matrices(F, r, n, key, torus, fold=or_)
                    )
                    assert all(len(pair) == 2 for pair in pairs)
                    assert [a | b for a, b in pairs] == unions, (q, r, n, torus)


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
    # the count is the number of matrices yielded on every field up to
    # 16, with no torus, the torus of G(1, n), and that of G(2, 4)
    for q in ORDERS:
        F = field_from_order(q)
        for n in range(7):
            tori = (None, line_torus(n)) if n < 6 else (None, G24_TORUS)
            for r in range(n + 1):
                if gaussian_binom(n, r, q) > 2 * 10**4:
                    continue
                for torus in tori:
                    drawn = sum(1 for _ in rref_span_matrices(F, r, n, torus=torus))
                    assert rref_span_count(F, r, n, torus) == drawn, (q, r, n, torus)
                assert rref_span_count(F, r, n) == gaussian_binom(n, r, q)
    # GF(2) has the trivial torus; G(2, 4)'s rank-3 subcodes draw 10,389
    # of [6, 3]_3 = 33,880 bases over GF(3), 48,871 of 376,805 over GF(4)
    assert rref_span_count(F2, 3, 6, G24_TORUS) == gaussian_binom(6, 3, 2)
    assert rref_span_count(F3, 3, 6, G24_TORUS) == 10389
    assert rref_span_count(F4, 3, 6, G24_TORUS) == 48871
    assert [rref_span_count(F, 0, 6, G24_TORUS) for F in (F3, F16)] == [1, 1]
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
