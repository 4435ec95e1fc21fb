"""Exact linear algebra over the small finite fields.

Matrices are tuples of row tuples of field elements (ints).  One forward
Gaussian elimination, _eliminate, serves rank and every determinant past
3 x 3: the rank is its pivot count, and a determinant is its signed pivot
product.  Determinants of 2 x 2 and 3 x 3 matrices, one per point and
column set of the Grassmannian enumeration, are cofactor expansions over
the field tables, in a det frame that creates no closure cells.

The echelon representatives of the r-subspaces come from one enumerator,
rref_span_matrices: one itertools.product per pivot set.  Without a
torus it holds every subspace once.  Given a torus, a group of diagonal
matrices as exponent vectors, the first row takes only the options that
the successive stabilizers of its entries normalize, so the products hold
at least one matrix per torus orbit; the stabilizers are subgroups of
(Z/(q-1))^w, stepped column by column in Howell form, the one echelon
basis that keys each subgroup.  Given a fold such as or_, it folds each
product's rows ahead in two halves and yields each matrix as one pair,
so a caller folds a matrix with one C-level call; rref_span_count counts
the matrices without drawing them, one walk over the columns per first
pivot.  The key maps each row option once per pivot set, and both
callers use it: the subcode search keys the rows by their codewords'
supports, and the Grassmannian enumeration runs one stream per column
set, keyed by that set's getter, so each basis comes already cut down to
the columns of one minor.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import accumulate, chain, product, repeat, starmap, zip_longest
import math
import operator

from .combinat import colex_masks
from .gf import FieldTable

# a row without its first entry
_tail = operator.itemgetter(slice(1, None))

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


def _pivot_rows(n: int, mask: int):
    """Each pivot column p of a pivot set, in order, with the free columns
    of its row: those after p that hold no pivot."""
    for p in range(n):
        if mask >> p & 1:
            yield p, [c for c in range(p + 1, n) if not mask >> c & 1]


def _howell(rows, N: int) -> tuple[tuple[int, ...], ...]:
    """The Howell form of the subgroup of (Z/N)^w that rows span: its one
    echelon basis whose leading entries divide N, whose entries above a
    leading entry h lie in 0..h-1, and in which the rows past any row span
    every element of the subgroup that vanishes up to that row's leading
    column (J. A. Howell, Spans in the module (Z_m)^s, 1986).  Any two
    generating sets of one subgroup give the same form, so the form keys
    the subgroup.

    Column by column, Euclid's row steps gather the gcd x of the column's
    entries into one row, a multiple of it takes the leading entry
    h = gcd(x, N), and what the column then leaves, N/h times the new row
    among it, joins the rows still to come; last, each leading entry
    reduces the entries above it."""
    mod = N.__rmod__
    pending = [list(map(mod, row)) for row in rows]
    form, leads = [], []
    for col in range(len(pending[0]) if pending else 0):
        top, rest = None, []
        for row in pending:
            if top is None and row[col]:
                top = row
                continue
            while row[col]:
                k = top[col] // row[col]
                less = map(operator.sub, top, map(k.__mul__, row))
                top, row = row, list(map(mod, less))
            rest.append(row)
        if top is None:
            continue
        # lead, u times top, has the leading entry h; top less x/h times
        # lead vanishes at col, so the two span what top spans
        h = math.gcd(top[col], N)
        lead = top
        if top[col] != h:
            u = pow(top[col] // h, -1, N // h)
            lead = list(map(mod, map(u.__mul__, top)))
            k = top[col] // h
            less = map(operator.sub, top, map(k.__mul__, lead))
            rest.append(list(map(mod, less)))
        if h > 1:
            rest.append(list(map(mod, map((N // h).__mul__, lead))))
        form.append(lead)
        leads.append(col)
        pending = rest
    for i, col in enumerate(leads):
        for j in range(i):
            k = form[j][col] // form[i][col]
            less = map(operator.sub, form[j], map(k.__mul__, form[i]))
            form[j] = list(map(mod, less))
    return tuple(map(tuple, form))


def _stabilizer(F: FieldTable, n: int, p: int, torus):
    """The torus acting on the entries past column p of a row pivoted
    there, as the Howell form of its generators' exponents at those
    columns: generator t scales the entry at column c by g^(t[c] - t[p]),
    g the primitive element of F.powers.  No torus gives the empty form,
    the group that moves nothing."""
    if torus is None:
        return ()
    columns = range(p + 1, n)
    exponents = [
        map(operator.sub, map(t.__getitem__, columns), repeat(t[p])) for t in torus
    ]
    return _howell(exponents, F.q - 1)


class _Steps(dict):
    """A stabilizer one column on, looked up by its Howell form on the
    columns from that one: (d, kept, cut).  d is the leading entry at the
    column, or 0 when no row leads there and the group does not move the
    column's entry; kept is the whole group on the columns past it, and
    cut the subgroup that fixes a nonzero entry there.  One table serves
    every row and pivot set of a call, so each form is stepped once."""

    def __init__(self, N: int):
        super().__init__()
        self.N = N

    def __missing__(self, stabilizer):
        d = stabilizer[0][0] if stabilizer else 0
        rest = tuple(map(_tail, stabilizer))
        step = (d, _howell(rest, self.N), rest[1:]) if d else (0, rest, rest)
        self[stabilizer] = step
        return step


def _row_options(F: FieldTable, n: int, key, mask: int, p: int, free, start, steps):
    """The keyed options of the row pivoted at column p, normalized by
    start, a group acting on the entries past p as _stabilizer gives it,
    so that every orbit of the group on the row's options meets them.
    mask holds the pivots, and free the row's other columns past p.

    The columns past p are walked in order, the form always that of the
    stabilizer of the entries chosen so far, on the columns from there.
    A later pivot's column holds 0.  A free column where no row of the
    form leads is one the group does not move, and takes every element.
    Where a row leads with entry d, the group's image there is the
    subgroup of index d in F^*, so the entry is either 0, which keeps the
    group, or one of the coset representatives g^0, ..., g^(d-1), which
    cut it.  Once the form is empty, every remaining column takes every
    element, so each branch is one product over the columns' choices,
    built in C; with the empty form from the start the row takes every
    option, in lexicographic order."""
    every = F.elements
    # the choices at each column: 1 at p, 0 at every other column but
    # the free ones, which each branch sets
    columns = [(0,)] * n
    columns[p] = (1,)
    options = []
    branches = [(p + 1, [], start)]
    while branches:
        c, picks, stabilizer = branches.pop()
        while stabilizer:
            d, kept, cut = steps[stabilizer]
            pivot = mask >> c & 1
            if d and not pivot:
                break
            if not pivot:
                picks.append(every)
            stabilizer = kept
            c += 1
        if not stabilizer:
            for col, pick in zip_longest(free, picks, fillvalue=every):
                columns[col] = pick
            options += map(key, product(*columns))
            continue
        branches.append((c + 1, picks + [F.powers[:d]], cut))
        branches.append((c + 1, picks + [(0,)], kept))
    return options


def _pivot_product(F: FieldTable, n: int, key, mask: int, starts, steps) -> list:
    """The echelon bases of one pivot column set as one product, the list
    of its rows' keyed options: the first row's normalized by the torus,
    whose group on the entries past each pivot p is starts[p], and every
    option of each later row."""
    factors = []
    for p, free in _pivot_rows(n, mask):
        start = () if factors else starts[p]
        factors.append(_row_options(F, n, key, mask, p, free, start, steps))
    return factors


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


def _check_rank(r: int, n: int) -> None:
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")


def rref_span_matrices(
    F: FieldTable, r: int, n: int, key=tuple, torus=None, fold=None
):
    """Iterator over the r x n RREF matrices of rank r over F, at least
    one per orbit of the torus given by torus.  Without a torus each
    matrix comes exactly once.

    These are canonical representatives of the r-dimensional subspaces of
    F^n.  Pivot column sets run in colex order; without a torus the free
    entries of a pivot set run lexicographically in row-major order, which
    is the product order over each row's own options.  The iterator chains
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

    torus, when given, is a sequence of exponent vectors t of length n:
    the group they generate scales column c of F^n by g^t[c], g the
    primitive element of F.powers, and so acts on the r-subspaces.  On
    an echelon basis that action multiplies entry (i, c) by
    g^(t[c] - t[p_i]), p_i the pivot of row i, once each row is scaled
    back to a unit pivot: it keeps the pivots and the zeros, so the
    torus permutes the echelon matrices and only rescales their entries.
    Each pivot set still yields one product.  Its first row takes the
    options that _row_options normalizes by the successive stabilizers of
    its entries, and every later row takes every option.  Any matrix is
    carried into that product by the element of the torus that
    normalizes its first row, entry by entry, each step inside the
    stabilizer of the entries before; so every orbit meets it.  A
    minimum over the matrices of a torus-invariant quantity is the same
    over either set.
    """
    _check_rank(r, n)
    steps = _Steps(F.q - 1)
    # a first pivot leaves r - 1 columns past it for the later pivots
    starts = [_stabilizer(F, n, p, torus) for p in range(min(n, n - r + 1))]
    factors = (
        _pivot_product(F, n, key, mask, starts, steps) for mask in colex_masks(r, n)
    )
    if fold is None:
        return chain.from_iterable(starmap(product, factors))
    return chain.from_iterable(map(_halves, factors, repeat(fold)))


def rref_span_count(F: FieldTable, r: int, n: int, torus=None) -> int:
    """How many matrices rref_span_matrices(F, r, n, torus=torus) yields,
    without drawing them: [n, r]_q without a torus.

    One left-to-right walk per first pivot p counts them.  A state is the
    Howell form of the first row's stabilizer on the columns still to
    come, with t, the later pivots placed so far, and it weighs the
    matrices that share it.  Each column after p either holds a later
    pivot, which raises t by 1 and leaves the stabilizer to act on the
    rest, or is free: the t later rows above it take any of q entries
    there, and the first row 0, which keeps the stabilizer, or one of d
    coset representatives, which cut it, d the index of its image at
    that column as in _row_options.  Equal forms merge, so a free column
    weighs q^t (1 + d).  Without a torus every d is q - 1.
    """
    _check_rank(r, n)
    if r == 0:
        return 1
    q = F.q
    steps = _Steps(q - 1)
    total = 0
    # a first pivot needs r - 1 columns past it for the later pivots
    for p in range(n - r + 1):
        states = {(_stabilizer(F, n, p, torus), 0): 1}
        for _ in range(p + 1, n):
            after = defaultdict(int)
            for (stabilizer, t), ways in states.items():
                d, kept, cut = steps[stabilizer]
                if t < r - 1:
                    after[kept, t + 1] += ways
                free = ways * q**t
                if d:
                    after[kept, t] += free
                    after[cut, t] += free * d
                else:
                    after[kept, t] += free * q
            states = after
        total += sum(ways for (_, t), ways in states.items() if t == r - 1)
    return total
