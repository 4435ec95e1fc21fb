"""Exact linear algebra over the small finite fields.

Matrices are tuples of row tuples of field elements (ints).  Row reduction
is plain Gaussian elimination.  Determinants up to 3 x 3 are cofactor
expansions over the field tables; larger ones eliminate in a function of
their own, so that the cofactor paths, which run once per Schubert minor,
carry no closure cells.
"""

from __future__ import annotations

from itertools import product

from .combinat import colex_masks
from .gf import FieldTable

Matrix = tuple[tuple[int, ...], ...]

_NOT_SQUARE = "determinant needs a square matrix"


def rref(F: FieldTable, rows) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns (0-based)."""
    mat = [list(row) for row in rows]
    if not mat:
        return (), ()
    ncols = len(mat[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = next(
            (i for i in range(rank, len(mat)) if mat[i][col] != 0), None
        )
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        scale = F.inv[mat[rank][col]]
        mat[rank] = [F.mul[x][scale] for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                c = mat[i][col]
                mat[i] = [
                    F.sub(x, F.mul[c][y]) for x, y in zip(mat[i], mat[rank])
                ]
        pivots.append(col)
        rank += 1
    return tuple(tuple(row) for row in mat), tuple(pivots)


def mat_rank(F: FieldTable, rows) -> int:
    return len(rref(F, rows)[1])


def det(F: FieldTable, rows) -> int:
    """Determinant of a square matrix: cofactor expansion up to 3 x 3,
    elimination beyond.

    A 2 x 2 or 3 x 3 matrix is unpacked straight into its entries, so a
    ragged row fails the unpacking rather than a separate length check.
    Every other size goes to _det_by_elimination, whose generator and list
    comprehension would otherwise turn this frame's locals into closure
    cells that every 2 x 2 and 3 x 3 call pays to create and read.
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
    return _det_by_elimination(F, rows, n)


def _det_by_elimination(F: FieldTable, rows, n: int) -> int:
    for row in rows:
        if len(row) != n:
            raise ValueError(_NOT_SQUARE)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    mul = F.mul
    mat = [list(row) for row in rows]
    result = 1
    swaps = 0
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if mat[i][col] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            mat[col], mat[pivot_row] = mat[pivot_row], mat[col]
            swaps += 1
        result = mul[result][mat[col][col]]
        scale = F.inv[mat[col][col]]
        for i in range(col + 1, n):
            if mat[i][col] != 0:
                c = mul[mat[i][col]][scale]
                mat[i] = [F.sub(x, mul[c][y]) for x, y in zip(mat[i], mat[col])]
    return F.neg[result] if swaps % 2 else result


def rref_span_matrices(F: FieldTable, r: int, n: int, key=None):
    """Yield every r x n RREF matrix of rank r over F, each exactly once.

    These are canonical representatives of the r-dimensional subspaces of
    F^n.  Pivot column sets run in colex order; for a fixed pivot set the
    free entries run lexicographically in row-major order, which is the
    product order over each row's own options.

    With a key, each matrix is yielded as the tuple of its rows' keys, in
    the same order.  The key runs once per row option per pivot set, not
    once per matrix row: on (GF(3), r=2, n=4) that is 52 calls for the 130
    matrices.
    """
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    for mask in colex_masks(r, n):
        options = []
        for p in (t for t in range(n) if mask >> t & 1):
            free = [c for c in range(p + 1, n) if not mask >> c & 1]
            row_options = []
            for vals in product(F.elements, repeat=len(free)):
                row = [0] * n
                row[p] = 1
                for c, v in zip(free, vals):
                    row[c] = v
                row_options.append(tuple(row))
            if key is not None:
                row_options = list(map(key, row_options))
            options.append(row_options)
        yield from product(*options)
