"""Exact linear algebra over the small finite fields.

Matrices are tuples of row tuples of field elements (ints).  Everything here
is plain Gaussian elimination; the sizes in play never warrant more.
"""

from __future__ import annotations

from itertools import product

from .combinat import SubsetIndexer
from .gf import FieldTable

Matrix = tuple[tuple[int, ...], ...]


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


def vec_mat(F: FieldTable, vec, rows) -> tuple[int, ...]:
    """Row vector times matrix."""
    ncols = len(rows[0]) if rows else 0
    out = [0] * ncols
    for x, row in zip(vec, rows):
        if x:
            for j, y in enumerate(row):
                if y:
                    out[j] = F.add[out[j]][F.mul[x][y]]
    return tuple(out)


def det(F: FieldTable, rows) -> int:
    """Determinant of a square matrix by elimination."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
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
        result = F.mul[result][mat[col][col]]
        scale = F.inv[mat[col][col]]
        for i in range(col + 1, n):
            if mat[i][col] != 0:
                c = F.mul[mat[i][col]][scale]
                mat[i] = [F.sub(x, F.mul[c][y]) for x, y in zip(mat[i], mat[col])]
    return F.neg[result] if swaps % 2 else result


def rref_span_matrices(F: FieldTable, r: int, n: int):
    """Yield every r x n RREF matrix of rank r over F, each exactly once.

    These are canonical representatives of the r-dimensional subspaces of
    F^n.  Pivot column sets run in colex order; for a fixed pivot set the
    free entries run lexicographically.
    """
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    if r == 0:
        yield ()
        return
    for mask in SubsetIndexer(r, n).masks:
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
