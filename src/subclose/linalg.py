"""Exact linear algebra over the small finite fields.

Matrices are tuples of row tuples of field elements (ints).  One forward
Gaussian elimination, _eliminate, serves rank and every determinant past
3 x 3: the rank is its pivot count, and a determinant is its signed pivot
product.  Determinants of 2 x 2 and 3 x 3 matrices, one per Schubert
minor, are cofactor expansions over the field tables, in a det frame that
creates no closure cells.

The echelon representatives of all r-subspaces come from
rref_span_matrices, a chain of one itertools.product per pivot set, and
row_streams splits such matrices into one iterator per row, so a caller
can fold whole rows of the enumeration without Python per matrix.  Its
key maps each row option once per pivot set, and both of its callers
use it: the subcode search keys the rows by their codewords' supports,
and the Grassmannian enumeration runs one stream per column set, keyed
by that set's getter, so each basis comes already cut down to the
columns of one minor.
"""

from __future__ import annotations

from itertools import chain, product, tee
from operator import itemgetter

from .combinat import colex_masks
from .gf import FieldTable

Matrix = tuple[tuple[int, ...], ...]

_NOT_SQUARE = "determinant needs a square matrix"


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


def _row_options(F: FieldTable, n: int, key, mask: int) -> list:
    """Each pivot row's options for one pivot column set, mapped by key:
    1 at its pivot, 0 at the other pivots and before its own, and the free
    entries after it in lexicographic order.  A row's options are one
    itertools.product over its columns' choices, so they are built in C:
    the Grassmannian enumeration asks for them once per column set."""
    elements = F.elements
    options = []
    for p in (t for t in range(n) if mask >> t & 1):
        choices = [
            (1,) if c == p else elements if c > p and not mask >> c & 1 else (0,)
            for c in range(n)
        ]
        rows = product(*choices)
        options.append(list(rows if key is None else map(key, rows)))
    return options


def rref_span_matrices(F: FieldTable, r: int, n: int, key=None):
    """Iterator over every r x n RREF matrix of rank r over F, each exactly
    once.

    These are canonical representatives of the r-dimensional subspaces of
    F^n.  Pivot column sets run in colex order; for a fixed pivot set the
    free entries run lexicographically in row-major order, which is the
    product order over each row's own options.  The iterator chains one
    itertools.product per pivot set, so no Python runs per matrix; a bad r
    raises ValueError at the call, before any iteration.

    With a key, each matrix comes as the tuple of its rows' keys, in the
    same order.  The key runs once per row option per pivot set, not once
    per matrix row: on (GF(3), r=2, n=4) that is 52 calls for the 130
    matrices.
    """
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    return chain.from_iterable(
        product(*_row_options(F, n, key, mask)) for mask in colex_masks(r, n)
    )


def row_streams(matrices, r: int) -> list:
    """Split an iterable of r-row matrices, such as rref_span_matrices
    yields, into r iterators: stream i yields row i of each matrix in turn.

    One itertools.tee splits the matrices, and map(itemgetter(i)) picks
    the rows, so advancing the streams in step runs no Python per matrix
    and buffers at most one matrix.
    """
    return [map(itemgetter(i), copy) for i, copy in enumerate(tee(matrices, r))]
