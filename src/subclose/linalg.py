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
that the Frobenius map keeps.  Given a fold such as or_, it folds each
product's rows ahead in two halves and yields each matrix as one pair,
so a caller folds a matrix with one C-level call; rref_span_count counts
the matrices without drawing them.  The key maps each row option once
per pivot set, and both callers use it: the subcode search keys the rows
by their codewords' supports, and the Grassmannian enumeration runs one
stream per column set, keyed by that set's getter, so each basis comes
already cut down to the columns of one minor.
"""

from __future__ import annotations

from itertools import accumulate, chain, product, repeat, starmap
import operator

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
    rref_span_matrices describes, each the list of its rows' options.
    prime holds the elements sigma fixes, least those it moves that are
    the least of their orbits.  A row's fixed and leading options are
    products over its columns' choices, like its every option, so no row
    is classified one tuple at a time and no row tuple is held.  With
    least empty, as under the identity, the one product of the fixed
    options is the whole answer."""
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
        return [fixed]
    products = [fixed[:i] + [leading[i]] + every[i:] for i in range(len(leading))]
    products.append(fixed)
    return products


def _folded(factors: list, fold) -> list:
    """fold over one option from each factor list, for every choice in
    product order: [0] for no list, and the one list itself, uncopied."""
    if not factors:
        return [0]
    acc = factors[0]
    for options in factors[1:]:
        acc = list(starmap(fold, product(acc, options)))
    return acc


def _halves(factors: list, fold):
    """The product of factors as pairs: the rows are cut where the two
    partial products are closest in size, and each side is folded ahead,
    so each pair is one choice per row, the rows before the cut folded
    in its first item and the rest in its second."""
    sizes = list(map(len, factors))
    heads = list(accumulate(sizes, operator.mul, initial=1))
    tails = list(accumulate(reversed(sizes), operator.mul, initial=1))[::-1]
    larger = list(map(max, heads, tails))
    cut = larger.index(min(larger))
    return product(_folded(factors[:cut], fold), _folded(factors[cut:], fold))


def _orbit_elements(F: FieldTable, frobenius) -> tuple[list[int], list[int]]:
    """The elements of F that sigma fixes, and those it moves that are the
    least of their orbits; sigma is the identity when frobenius is None."""
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
    return prime, least


def _check_rank(r: int, n: int) -> None:
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")


def rref_span_matrices(
    F: FieldTable, r: int, n: int, key=tuple, frobenius=None, fold=None
):
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

    fold, when given, is an associative operation on the keys with
    identity 0, such as operator.or_ on bitmasks.  Each matrix
    then comes as a pair (a, b) whose fold a op b is the fold of its
    rows' keys, in the same order as unfolded: within each product the
    rows are cut in two, where the two sides' option counts are closest,
    and each side's folds are listed ahead, so a is the fold of the rows
    before the cut (0 if none) and b of the rest.  A caller then folds
    each matrix with one call, and r = 0 yields the one pair (0, 0).

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
    _check_rank(r, n)
    prime, least = _orbit_elements(F, frobenius)
    factors = chain.from_iterable(
        _pivot_products(F, n, key, mask, prime, least) for mask in colex_masks(r, n)
    )
    if fold is None:
        return chain.from_iterable(starmap(product, factors))
    return chain.from_iterable(map(_halves, factors, repeat(fold)))


def rref_span_count(F: FieldTable, r: int, n: int, frobenius=None) -> int:
    """How many matrices rref_span_matrices(F, r, n, frobenius=frobenius)
    yields, without drawing them: [n, r]_q under the identity.

    The pivot columns are placed right to left.  A pivot with j columns
    to its right, t of them pivots, has s = j - t free columns.  Two sums
    run over the pivots placed so far, by their count t: every[t] over
    those products whose leading row is still to come, each row taking
    q^s options, and fixed[t] over those whose leading row is placed or
    that have none, each row taking p'^s, p' the count of elements sigma
    fixes.  Placing the leading row takes |least| * sum_u p'^u q^(s-u-1)
    options: its first u free entries fixed, the next one least, and the
    rest free.
    """
    _check_rank(r, n)
    prime, least = _orbit_elements(F, frobenius)
    q, fixes, leads = F.q, len(prime), len(least)
    every = [1] + [0] * r
    fixed = [1] + [0] * r
    for j in range(n):
        # t falls, so each update reads the sums from before this column
        for t in range(min(j, r - 1), -1, -1):
            s = j - t
            lead = leads * sum(fixes**u * q ** (s - u - 1) for u in range(s))
            fixed[t + 1] += fixed[t] * fixes**s + every[t] * lead
            every[t + 1] += every[t] * q**s
    return fixed[r]
