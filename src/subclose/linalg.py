"""Exact linear algebra over the small finite fields.

Matrices are tuples of row tuples of field elements (ints).  One forward
Gaussian elimination, _eliminate, serves rank and every determinant past
3 x 3: the rank is its pivot count, and a determinant is its signed pivot
product.  Determinants of 2 x 2 and 3 x 3 matrices, one per point and
column set of the Grassmannian enumeration, are cofactor expansions over
the field tables, in a det frame that creates no closure cells.

The echelon representatives of the r-subspaces come from one enumerator,
rref_span_matrices: products per pivot set whose union holds at least one
matrix per orbit of a field automorphism sigma.  Its default sigma, the
identity, leaves one itertools.product per pivot set and every subspace
once; the subcode search passes the Frobenius table of GF(p^e) on codes
that the Frobenius map keeps.  row_streams splits such matrices into one
iterator per row, so a caller can fold whole rows of the enumeration
without Python per matrix.  The key maps each row option once per pivot
set, and both callers use it: the subcode search keys the rows by their
codewords' supports, and the Grassmannian enumeration runs one stream
per column set, keyed by that set's getter, so each basis comes already
cut down to the columns of one minor.
"""

from __future__ import annotations

from itertools import accumulate, chain, product, repeat, tee
from operator import itemgetter

from .combinat import colex_masks
from .gf import FieldTable

Matrix = tuple[tuple[int, ...], ...]

_NOT_SQUARE = "determinant needs a square matrix"

# the default sigma of rref_span_matrices, on fields of up to 256 elements
_IDENTITY = bytes(range(256))


def _eliminate(F: FieldTable, rows) -> tuple[list[list[int]], list[int], int]:
    """Forward elimination: the echelon rows, their pivot columns, and the
    product of the pivots negated once per row swap."""
    add, mul, neg = F.add, F.mul, F.neg
    mat = [list(row) for row in rows]
    pivots = []
    signed = 1
    for col in range(len(mat[0]) if mat else 0):
        rank = len(pivots)
        pivot_row = next(
            (i for i in range(rank, len(mat)) if mat[i][col] != 0), None
        )
        if pivot_row is None:
            continue
        if pivot_row != rank:
            mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
            signed = neg[signed]
        top = mat[rank]
        signed = mul[signed][top[col]]
        scale = F.inv[top[col]]
        for i in range(rank + 1, len(mat)):
            if mat[i][col] != 0:
                minus_c = mul[neg[mul[mat[i][col]][scale]]]
                mat[i] = [add[x][minus_c[y]] for x, y in zip(mat[i], top)]
        pivots.append(col)
    return mat, pivots, signed


def mat_rank(F: FieldTable, rows) -> int:
    return len(_eliminate(F, rows)[1])


def det(F: FieldTable, rows) -> int:
    """Determinant of a square matrix: cofactor expansion for 2 x 2 and
    3 x 3, the signed pivot product of _eliminate, or 0 below full rank,
    for every other size.

    A 2 x 2 or 3 x 3 matrix is unpacked straight into its entries, so a
    ragged row fails the unpacking rather than a separate length check;
    every other size checks its rows' lengths in a plain loop.  The
    elimination's generator and comprehensions live in _eliminate, so no
    call creates closure cells in this frame.
    """
    n = len(rows)
    add, mul, neg = F.add, F.mul, F.neg
    if n == 2:
        try:
            (a, b), (c, d) = rows
        except ValueError:
            raise ValueError(_NOT_SQUARE) from None
        return add[mul[a][d]][neg[mul[b][c]]]
    if n == 3:
        try:
            (a, b, c), (d, e, f), (g, h, i) = rows
        except ValueError:
            raise ValueError(_NOT_SQUARE) from None
        minor_a = add[mul[e][i]][neg[mul[f][h]]]
        minor_b = add[mul[d][i]][neg[mul[f][g]]]
        minor_c = add[mul[d][h]][neg[mul[e][g]]]
        return add[add[mul[a][minor_a]][neg[mul[b][minor_b]]]][mul[c][minor_c]]
    for row in rows:
        if len(row) != n:
            raise ValueError(_NOT_SQUARE)
    _, pivots, signed = _eliminate(F, rows)
    return signed if len(pivots) == n else 0


def _keyed_rows(n: int, p: int, free: list[int], picks: list, key) -> list:
    """The options of the row pivoted at column p, mapped by key: 1 at p,
    picks[t] at its free column free[t], and 0 elsewhere.  They are one
    itertools.product over the columns' choices, in lexicographic order,
    so they are built in C."""
    choices = dict(zip(free, picks))
    rows = product(*[(1,) if c == p else choices.get(c, (0,)) for c in range(n)])
    return list(map(key, rows))


def _pivot_rows(n: int, mask: int):
    """Each pivot column p of a pivot set, in order, with the free columns
    of its row: those after p that hold no pivot."""
    for p in range(n):
        if mask >> p & 1:
            yield p, [c for c in range(p + 1, n) if not mask >> c & 1]


def _pivot_products(F: FieldTable, n: int, key, mask: int, prime, least):
    """The echelon bases of one pivot column set, as the products that
    rref_span_matrices describes.  prime holds the elements sigma fixes,
    least those it moves that are the least of their orbits.  A row's
    fixed and leading options are products over its columns' choices,
    like its every option, so no row is classified one tuple at a time
    and no row tuple is held.  With least empty, as under the identity,
    the one product of the fixed options is the whole answer."""
    every, fixed, leading = [], [], []
    for i, (p, free) in enumerate(_pivot_rows(n, mask)):
        s = len(free)
        fixed.append(_keyed_rows(n, p, free, [prime] * s, key))
        if not least:
            continue
        # the products take every option of each row but the first
        if i:
            every.append(_keyed_rows(n, p, free, [F.elements] * s, key))
        # one product for each free entry t that is the first sigma moves
        firsts = (
            [prime] * t + [least] + [F.elements] * (s - t - 1) for t in range(s)
        )
        rows = (_keyed_rows(n, p, free, picks, key) for picks in firsts)
        leading.append(list(chain.from_iterable(rows)))
    if not least:
        return product(*fixed)
    products = [
        product(*fixed[:i], leading[i], *every[i:]) for i in range(len(leading))
    ]
    products.append(product(*fixed))
    return chain.from_iterable(products)


def rref_span_matrices(F: FieldTable, r: int, n: int, key=tuple, frobenius=None):
    """Iterator over the r x n RREF matrices of rank r over F, at least
    one per orbit of sigma, the automorphism of F whose table is
    frobenius.  The default sigma, the identity, has one matrix per
    orbit, so without a table each matrix comes exactly once.

    These are canonical representatives of the r-dimensional subspaces of
    F^n.  Pivot column sets run in colex order; for a fixed pivot set the
    free entries run lexicographically in row-major order, which is the
    product order over each row's own options.  The iterator chains
    itertools.product objects, so no Python runs per matrix; a bad r
    raises ValueError at the call, before any iteration.

    Each matrix comes as the tuple of its rows' keys (by default the rows
    themselves), in the same order.  The key runs once per row option per
    pivot set, not once per matrix row: on (GF(3), r=2, n=4) that is 52
    calls for the 130 matrices.

    frobenius, when given, is F.frobenius, the table of sigma: x -> x^p.
    sigma acts on a matrix entrywise, and it keeps the pivots, the unit
    pivot entries and the zeros of echelon form, so the echelon form of
    sigma(W) is sigma applied to that of W: sigma permutes the matrices.
    Each pivot set then yields the disjoint union of r + 1 products.  For
    each row i, rows before i take their fixed options (every free entry
    sigma fixes, so in GF(p)), row i its leading options (its first
    entry outside GF(p) is the least of its sigma-orbit), and the rows
    after i every option; one more product takes every row from its
    fixed options.  That covers the least matrix of every orbit, in the
    row-major order above: all its rows are fixed, or row i is the first
    that is not, and then each image sigma^j agrees with it up to that
    row's first entry x outside GF(p), whose image is sigma^j(x), so
    x <= sigma^j(x) and row i is leading.  Over GF(p^2) and GF(p^3), x
    is then the only least element of its orbit, so each orbit comes
    exactly once; over GF(16) an orbit comes twice when x lies in GF(4),
    which sigma^2 fixes.  A minimum over the matrices of a sigma-invariant
    quantity is the same over either set.  Under the identity no entry
    is leading, and the fixed product alone yields every matrix.
    """
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    if frobenius is None:
        frobenius = _IDENTITY
    # sigma^1, ..., sigma^(e-1) as tables, composed by bytes.translate
    powers = list(
        accumulate(repeat(frobenius, F.e - 2), bytes.translate, initial=frobenius)
    )
    prime = [x for x in F.elements if frobenius[x] == x]
    least = [
        x for x in F.elements if frobenius[x] != x and all(x <= t[x] for t in powers)
    ]
    return chain.from_iterable(
        _pivot_products(F, n, key, mask, prime, least) for mask in colex_masks(r, n)
    )


def row_streams(matrices, r: int) -> list:
    """Split an iterable of r-row matrices, such as rref_span_matrices
    yields, into r iterators: stream i yields row i of each matrix in turn.

    One itertools.tee splits the matrices, and map(itemgetter(i)) picks
    the rows, so advancing the streams in step runs no Python per matrix
    and buffers at most one matrix.
    """
    return [map(itemgetter(i), copy) for i, copy in enumerate(tee(matrices, r))]
