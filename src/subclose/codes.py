"""Codes from rational points of Grassmannians and Schubert subvarieties.

An ell-subspace of F^m is represented by its reduced row echelon basis and
mapped to its vector of ell x ell minors, indexed by the colex order on
ell-subsets of columns.  Those coordinate vectors, one per subspace, are the
columns of a generator matrix; restricting the row set to the coordinates
supported on a Schubert subvariety gives the subvariety's code.

The Grassmannian is enumerated one column set at a time: each set's minor
of every point comes from one C-level stream of echelon bases cut down to
its columns, and the minor columns are transposed into the points, so no
Python loop runs per point.

A point is the bytes of its minors, one byte per coordinate: every element
of GF(q <= 16) fits in a byte, and a bytes object costs a fraction of a
tuple of ints.  The generator rows are bytes the same way, each a strided
slice of the points joined end to end, and a Schubert point is told by the
position of its last nonzero minor alone (Gale 1968), so no step past the
minors themselves reads a point one coordinate at a time.

A Schubert code enumerates only the subspaces that can lie on its
subvariety, the points of a smaller Grassmannian that every point of the
subvariety reduces to, and lifts the kept ones back to the minors of
G(ell, m) column by column, in the same strided slices.

Higher weights d_r are the least support size over rank-r subcodes, found
by exhausting them, or, for a code whose points the diagonal torus
(F^*)^m permutes (every code built here, over every field but GF(2)), by
exhausting the subcodes whose echelon basis has a first row normalized by
the torus, at least one per torus orbit: the torus keeps support sizes, so
the minimum is the same.  The support of a subcode is the union of the
supports of any basis.  A support table maps each normalized message to
its codeword's support; the enumeration hands each basis over as its
rows' table entries, looked up once per row option, and each basis
comes folded into two halves, the unions of its first rows' supports and
of the rest, each listed once per product ahead of the search.  So
each subcode costs one OR and one bit count inside C-level iterators,
with no Python call per basis.  The table belongs to the code: it is
built once, on first use, and every rank r shares it.

The conjecture harness compares d_r against the section counts of
coordinate subspaces cut out by size-r families of column subsets, with the
families ranging over those attaining the global pairwise intersection
maximum.  The points on the section through some generator rows are those
off the union of the rows' supports, so a section is counted by ORing
generator-row masks.  Which families attain the maximum is decided in
families alone: the harness keeps the listed maximizers within the row
labels.
"""

from __future__ import annotations

import math
from functools import cached_property, partial, reduce
from itertools import combinations, compress, repeat, starmap, tee
from operator import itemgetter, or_

from .combinat import Record, colex_masks, gaussian_binom, set_of
from . import families
from .families import DEFAULT_FAMILY_BUDGET, check_budget, close_size_cap, k_lambda
from .gf import FieldTable
from .linalg import Matrix, det, mat_rank, rref_span_count, rref_span_matrices

DEFAULT_SUBSPACE_BUDGET = 10**7

# bytes.translate table sending each field element to the digit "0" or "1"
_NONZERO_DIGIT = b"0" + b"1" * 255


def _nonzero_mask(word) -> int:
    """Bitmask of the nonzero positions of a word, bit j for position j."""
    return int(bytes(reversed(word)).translate(_NONZERO_DIGIT), 2)


def _taker(mask: int):
    """Getter taking the items at a mask's set bits, in order, as a tuple."""
    positions = [t for t in range(mask.bit_length()) if mask >> t & 1]
    if len(positions) > 1:
        return itemgetter(*positions)
    # itemgetter gives a bare item for one index and needs at least one;
    # a slice keeps the result a tuple, empty for no positions
    start = positions[0] if positions else 0
    return itemgetter(slice(start, start + len(positions)))


def _times(F: FieldTable, c: int) -> bytes:
    """bytes.translate table multiplying each field element by c."""
    return bytes(F.mul[c]).ljust(256, b"\0")


def _projective_points(F: FieldTable, rows):
    """The columns of some generator rows, in order, each as the least of
    its nonzero multiples, which names the point it spans: a stream, one
    translate per column and multiple, so no point is read one coordinate
    at a time and none is held."""
    columns = tee(map(bytes, zip(*rows)), F.q - 1)
    multiples = [
        map(bytes.translate, copy, repeat(_times(F, x)))
        for x, copy in enumerate(columns, 1)
    ]
    return map(min, zip(*multiples))


def enumerate_grassmannian(
    F: FieldTable, ell: int, m: int, *, budget: int = DEFAULT_SUBSPACE_BUDGET
) -> tuple[bytes, ...]:
    """All ell-subspaces of F^m as minor-coordinate points, each the bytes
    of its minors in colex column order.

    The enumeration runs once per column set T.  rref_span_matrices keyed
    by the getter of T's columns yields every echelon basis already cut
    down to them, each row option cut once per pivot set, and one det per
    basis turns that stream into minor T of every point, in enumeration
    order.  Zipping the C(m, ell) minor columns transposes them into the
    points.  Every step runs in C-level iterators, so the only Python that
    runs per point is det, once per column set.

    Echelon representatives come out already normalized: the colex-least
    nonzero minor sits at the pivot column set, which echelon form
    guarantees, and equals 1, which is checked.  So are the count of every
    column set's minors and the distinctness of the resulting points; a
    failed check raises ArithmeticError.  The points come in the order in
    which rref_span_matrices(F, ell, m) yields their echelon bases, so
    zipping the two pairs each point with its basis.
    """
    count = gaussian_binom(m, ell, F.q)
    check_budget(count, f"subspaces for (ell={ell}, m={m}, q={F.q})", budget)
    minors = [
        bytes(map(det, repeat(F), rref_span_matrices(F, ell, m, key=_taker(mask))))
        for mask in colex_masks(ell, m)
    ]
    # zip stops at the shortest column, so a short one must raise first
    short = set(map(len, minors)) - {count}
    if short:
        raise ArithmeticError(f"{min(short)} subspaces enumerated, expected {count}")
    points = tuple(map(bytes, zip(*minors)))
    # freed before the distinctness check builds its set, the columns do
    # not add to the peak
    del minors
    # each point's first nonzero minor must be 1
    if not all(
        map(bytes.startswith, map(bytes.lstrip, points, repeat(b"\0")), repeat(b"\1"))
    ):
        raise ArithmeticError("echelon representative not normalized")
    if len(set(points)) != count:
        raise ArithmeticError("coordinate vectors collide")
    return points


def check_plucker_relations(F: FieldTable, coords: bytes, ell: int, m: int) -> bool:
    """Quadratic exchange relations on a coordinate vector: a point's bytes,
    or any sequence of field elements in colex column order.

    For every (ell-1)-subset A and (ell+1)-subset B of columns the
    alternating sum over t in B of p_{A+t} * p_{B-t} must vanish.  For
    ell = 2 this is the classical three-term relation; for ell = 1 it is
    vacuous, and for ell = 0 there is none.
    """
    if ell == 0:
        # no (ell-1)-subset A exists
        return True
    rank = {mask: i for i, mask in enumerate(colex_masks(ell, m))}

    def signed(cols: tuple[int, ...]) -> int:
        # cols are 0-based, possibly out of order; repeats kill the minor
        if len(set(cols)) != len(cols):
            return 0
        inversions = sum(
            1
            for a in range(len(cols))
            for b in range(a + 1, len(cols))
            if cols[a] > cols[b]
        )
        v = coords[rank[sum(1 << c for c in cols)]]
        return F.neg[v] if inversions % 2 else v

    for alpha in combinations(range(m), ell - 1):
        for beta in combinations(range(m), ell + 1):
            total = 0
            for j, t in enumerate(beta):
                rest = beta[:j] + beta[j + 1 :]
                term = F.mul[signed(alpha + (t,))][signed(rest)]
                if j % 2:
                    term = F.neg[term]
                total = F.add[total][term]
            if total != 0:
                return False
    return True


def validate_alpha(alpha, ell: int, m: int) -> tuple[int, ...]:
    """Strictly increasing bound tuple in {1..m}, one entry per row."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != ell:
        raise ValueError(f"alpha must have length ell={ell}, got {alpha}")
    if any(a < 1 or a > m for a in alpha):
        raise ValueError(f"alpha entries must lie in 1..{m}, got {alpha}")
    if any(a >= b for a, b in zip(alpha, alpha[1:])):
        raise ValueError(f"alpha must be strictly increasing, got {alpha}")
    return alpha


def schubert_support(alpha, ell: int, m: int) -> tuple[int, ...]:
    """Coordinate positions allowed to be nonzero on the subvariety: the
    colex indices of subsets dominated entrywise by alpha."""
    alpha = validate_alpha(alpha, ell, m)
    return tuple(
        i
        for i, mask in enumerate(colex_masks(ell, m))
        if all(b <= a for b, a in zip(set_of(mask), alpha))
    )


def schubert_membership_flag(F: FieldTable, matrix: Matrix, alpha) -> bool:
    """Membership test that never looks at minors: the subspace must meet
    the span of the first alpha_i unit vectors in dimension at least i,
    and that dimension is ell minus the rank of the columns past alpha_i."""
    ell = len(matrix)
    for i, a in enumerate(alpha, start=1):
        tail = [row[a:] for row in matrix]
        if ell - mat_rank(F, tail) < i:
            return False
    return True


class CodeSystem(Record):
    """A linear code presented by a generator matrix whose columns are the
    points of a projective system.

    The system is G(ell, m) over F, or its Schubert subvariety for alpha
    when alpha is not None.  points holds each point's minors as bytes, one
    byte per coordinate (any sequences of field elements are converted),
    and row_positions the coordinate indices, into that minor vector, that
    the generator rows read off; row_labels names the same rows by their
    column subsets (1-based).  Construction refuses a coordinate outside
    the field, a point without exactly C(m, ell) coordinates and a row
    position outside them with ValueError, and checks that the system is
    nondegenerate: at least one point, no point vanishing on every chosen
    row, and a generator of full row rank.
    """

    F: FieldTable
    ell: int
    m: int
    alpha: tuple[int, ...] | None
    points: tuple[bytes, ...]
    row_positions: tuple[int, ...]

    def __post_init__(self):
        q = self.F.q
        given = tuple(self.points)
        try:
            # bytes() passes a bytes point through without a copy
            points = tuple(map(bytes, given))
        except ValueError:  # a coordinate outside 0..255
            points = None
        # deleting the field's bytes leaves just the coordinates outside it
        if points is None or b"".join(points).translate(None, bytes(range(q))):
            j, i, x = next(
                (j, i, x)
                for j, pt in enumerate(given)
                for i, x in enumerate(pt)
                if not 0 <= x < q
            )
            raise ValueError(f"point {j} coordinate {i} is {x}, outside 0..{q - 1}")
        width = math.comb(self.m, self.ell)
        if set(map(len, points)) - {width}:
            j, pt = next((j, pt) for j, pt in enumerate(points) if len(pt) != width)
            raise ValueError(
                f"point {j} has {len(pt)} coordinates, not C({self.m}, {self.ell}) "
                f"= {width}"
            )
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "row_positions", tuple(self.row_positions))
        for pos in self.row_positions:
            if not 0 <= pos < width:
                raise ValueError(f"row position {pos} outside 0..{width - 1}")
        if not self.points:
            raise ValueError("a code needs at least one point")
        covered = reduce(or_, self.row_masks, 0)
        # the lowest clear bit of covered is the first vanishing point
        j = ((covered + 1) & ~covered).bit_length() - 1
        if j < self.n:
            raise ArithmeticError(f"point {j} vanishes on every chosen row")
        rank = mat_rank(self.F, self.generator)
        if rank != self.kdim:
            raise ArithmeticError(
                f"generator rank {rank} below row count {self.kdim}"
            )

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def kdim(self) -> int:
        return len(self.row_positions)

    @property
    def row_labels(self) -> tuple[tuple[int, ...], ...]:
        masks = colex_masks(self.ell, self.m)
        return tuple(set_of(masks[pos]) for pos in self.row_positions)

    @cached_property
    def generator(self) -> tuple[bytes, ...]:
        """One row per chosen position, one column per point, each row the
        bytes of its entries: the points joined, read with the stride of
        one point."""
        joined = b"".join(self.points)
        width = math.comb(self.m, self.ell)
        return tuple(joined[pos::width] for pos in self.row_positions)

    @cached_property
    def row_masks(self) -> tuple[int, ...]:
        """Support bitmask, bit j for point j, of each generator row: the
        points off the union of some rows' supports are the section through
        those rows."""
        return tuple(_nonzero_mask(row) for row in self.generator)

    @cached_property
    def torus(self) -> tuple[tuple[int, ...], ...] | None:
        """The diagonal torus (F^*)^m on the message coordinates, when the
        points are distinct up to scalars and it permutes them, and None
        otherwise or over GF(2), where it is trivial; higher_weight then
        searches at least one subcode basis per torus orbit, not every one.

        Generator i, g at coordinate i of F^m and 1 elsewhere, scales the
        Pluecker coordinate p_S by g exactly when i is in S.  So it is
        given by its exponent vector on the generator rows, 1 where the
        row's column set holds i and 0 elsewhere; the torus is the tuple
        of those vectors that are not constant, the group they generate
        taken mod q - 1 (a common shift of the exponents, such as a
        constant vector, scales every message alike and so moves no
        subcode, nor any point).  It must permute the points as a multiset: a
        repeated point whose image comes only once keeps the point set,
        but not the support sizes, which the orbit search relies on.  So
        the points, each named by the least of its multiples, must be
        distinct, as those of a Grassmannian are, and each generator must
        carry every one into their set, which it then permutes; a code
        with a repeated point gets None.
        """
        F = self.F
        if F.q == 2:
            return None
        points = set(_projective_points(F, self.generator))
        if len(points) < self.n:
            return None
        masks = colex_masks(self.ell, self.m)
        labels = [masks[pos] for pos in self.row_positions]
        vectors = (tuple(mask >> i & 1 for mask in labels) for i in range(self.m))
        torus = tuple(t for t in vectors if len(set(t)) > 1)
        times_g = _times(F, F.powers[1])
        for exponents in torus:
            rows = [
                row.translate(times_g) if e else row
                for row, e in zip(self.generator, exponents)
            ]
            if not all(map(points.__contains__, _projective_points(F, rows))):
                return None
        return torus

    @cached_property
    def support_table(self) -> dict[tuple[int, ...], int]:
        """Support bitmask, bit j for point j, of the codeword of every
        normalized message (first nonzero entry 1).

        The messages are walked depth first, one coordinate at a time, so
        each codeword is its parent's plus one pre-scaled generator row.  A
        codeword is packed into one int, coordinate j in byte j, with the
        element's e base-p digits in lanes of w = 8 // e bits.  A digit sum
        is at most 2p - 2 and fits its lane for every q <= 16, so one int
        add adds every digit; adding 2^(w-1) - p to each lane then sets its
        high bit exactly where the sum reaches p, and that bit, shifted
        down and times p, takes p off.  A word's support is its nonzero
        bytes.
        """
        F, k, n = self.F, self.kdim, self.n
        p, w = F.p, 8 // F.e
        lanes = range(0, F.e * w, w)
        high = 1 << w - 1
        # a one-byte value times ones repeats in every coordinate's byte
        ones = int.from_bytes(b"\1" * n, "little")
        bias = ones * sum(high - p << s for s in lanes)
        top = ones * sum(high << s for s in lanes)
        lane_byte = [
            sum(x // p**i % p << s for i, s in enumerate(lanes))
            for x in F.elements
        ]
        # per scalar c, a bytes.translate table sending x to the lane byte
        # of c * x; bytes past the field never occur in a generator row
        times_tables = [
            bytes([lane_byte[x] for x in times]).ljust(256, b"\0")
            for times in F.mul
        ]
        scaled = [
            [
                int.from_bytes(row.translate(table), "little")
                for table in times_tables
            ]
            for row in self.generator
        ]
        table = {}

        def walk(msg, word, j):
            if j == k:
                digits = word.to_bytes(n, "big").translate(_NONZERO_DIGIT)
                table[tuple(msg)] = int(digits, 2)
                return
            for c in F.elements:
                msg[j] = c
                if c:
                    s = word + scaled[j][c]
                    walk(msg, s - (((s + bias) & top) >> w - 1) * p, j + 1)
                else:
                    walk(msg, word, j + 1)

        for i in range(k):
            msg = [0] * k
            msg[i] = 1
            walk(msg, scaled[i][1], i + 1)
        return table


def grassmann_code(
    F: FieldTable, ell: int, m: int, *, budget: int = DEFAULT_SUBSPACE_BUDGET
) -> CodeSystem:
    """Code of the full subspace system: n = number of subspaces, one row
    per minor coordinate."""
    points = enumerate_grassmannian(F, ell, m, budget=budget)
    return CodeSystem(F, ell, m, None, points, tuple(range(math.comb(m, ell))))


def schubert_code(
    F: FieldTable,
    alpha,
    ell: int,
    m: int,
    *,
    budget: int = DEFAULT_SUBSPACE_BUDGET,
) -> CodeSystem:
    """Code of the subvariety's points, rows restricted to the allowed
    coordinates.  The points are exactly those of G(ell, m) whose
    coordinates vanish outside the allowed positions, the column subsets
    dominated entrywise by alpha.

    Only the subspaces that can lie on the subvariety are enumerated
    (Ghorpade and Tsfasman, Schubert varieties, linear codes and
    enumerative combinatorics, 2005).  With E_i the span of the first i
    unit vectors, every W on it meets E_top, top = alpha_ell, in dimension
    ell, so W lies in E_top; and when alpha opens with the run 1..j, W
    contains E_j.  Such a W is E_j plus a subspace W' of the coordinates
    j+1..top, and its minor at a column set T is the minor of W' at
    T >> j when T holds 1..j and lies in 1..top, and 0 otherwise.  So
    G(ell - j, top - j) is enumerated, the subspace budget counts its
    points, and the kept points are lifted back one coordinate column at
    a time, the missing columns zero; when j = 0 and top = m the lift is
    the identity.  The budget also counts the C(m, ell) coordinates, which
    the support and each lifted point run over whatever the smaller
    Grassmannian; a refusal names whichever count is past it.

    The down-set needs only one minor per point.  A point's nonzero minors
    are the bases of the matroid of its basis's columns, and by Gale's
    greedy theorem (D. Gale, Optimal assignments in an ordered set, 1968)
    one of them dominates every other entrywise.  Colex order extends the
    entrywise order, so that one is the last nonzero minor, and the point
    lies on the subvariety exactly when its position is allowed.  S -> (S
    << j) | (2^j - 1) keeps colex order, so the test runs on the points of
    the smaller Grassmannian unchanged.
    """
    alpha = validate_alpha(alpha, ell, m)
    j = next((i for i, a in enumerate(alpha) if a != i + 1), ell)
    top = alpha[-1] if alpha else 0
    # the budget refuses before any work per column subset: the subspaces
    # enumerated, and the C(m, ell) coordinates that the support, the
    # masks and each lifted point run over
    check_budget(
        math.comb(m, ell), f"minor coordinates for (ell={ell}, m={m})", budget
    )
    small = enumerate_grassmannian(F, ell - j, top - j, budget=budget)
    positions = schubert_support(alpha, ell, m)
    # the position among the small minors of each column set that holds
    # 1..j and lies in 1..top, keyed by its mask
    lead = (1 << j) - 1
    lifted = {
        s << j | lead: i for i, s in enumerate(colex_masks(ell - j, top - j))
    }
    masks = colex_masks(ell, m)
    # a point's last nonzero byte is its Gale-greatest minor, so the length
    # of the point stripped of its zero tail is that minor's position plus 1
    ends = {lifted[masks[pos]] + 1 for pos in positions}
    lengths = map(len, map(bytes.rstrip, small, repeat(b"\0")))
    kept = tuple(compress(small, map(ends.__contains__, lengths)))
    # one column per small minor, and a zero column for every other set
    width = len(lifted)
    joined = b"".join(kept)
    columns = [joined[i::width] for i in range(width)] + [bytes(len(kept))]
    picked = (columns[lifted.get(mask, width)] for mask in masks)
    points = tuple(map(bytes, zip(*picked)))
    return CodeSystem(F, ell, m, alpha, points, positions)


def _check_subcode_budget(code: CodeSystem, ranks, what: str, budget: int) -> None:
    """Refuse, past budget, the subcode bases that the searches at the
    given ranks draw, exactly as linalg.rref_span_count counts them."""
    drawn = sum(rref_span_count(code.F, r, code.kdim, code.torus) for r in ranks)
    check_budget(drawn, what, budget)


def higher_weight(
    code: CodeSystem, r: int, *, budget: int = DEFAULT_SUBSPACE_BUDGET
) -> int:
    """d_r: the smallest support size over rank-r subcodes, by exhaustion
    over echelon representatives of the message-space subspaces.

    When code.torus is not None, the search visits only the bases that
    rref_span_matrices yields for it, at least one per orbit of the
    diagonal torus T = (F^*)^m.  That is exact:
    1. T keeps Omega_alpha: a diagonal t fixes every E_i, so it keeps each
       Schubert condition dim(W cap E_alpha_i) >= i (Ghorpade and
       Tsfasman 2005), and it scales the minor p_S of W by
       chi_S(t) = prod_{i in S} t_i, so it permutes the points up to
       scalars, which code.torus checks, and needs no repeated point.
    2. T acts on messages by (t.c)_S = chi_S(t) c_S, and the codeword of
       t.c at a point P is that of c at t.P, so t.D has the support of D
       carried over by that permutation: |supp t.D| = |supp D|.
    3. On an echelon basis T only rescales the entries: entry (i, c) by
       chi_c / chi_{p_i}, p_i the row's pivot; the pivots and the zeros
       stay, so the echelon form of t.D is that of D rescaled.
    4. Successive stabilizers normalize the first row: each nonzero entry,
       in column order, is moved by the stabilizer of the entries before
       it to one of g^0, ..., g^(d-1), d the index of that stabilizer's
       image at its column, which keeps the earlier entries.  Every orbit
       holds a basis whose first row is so normalized, and the search
       visits every such basis.
    Over GF(2) T is trivial and the search visits all [k, r]_2 bases.
    The subcode budget charges exactly the bases drawn, as
    linalg.rref_span_count counts them without drawing them.

    Each basis comes from rref_span_matrices, folded by OR, as a pair: the
    union of the support masks of its first rows and that of the rest.
    map and starmap OR each pair and take its bit count, and the least
    of those is d_r: one OR per basis, every step in C-level iterators.
    """
    if not 1 <= r <= code.kdim:
        raise ValueError(f"r={r} outside 1..{code.kdim}")
    _check_subcode_budget(
        code, (r,), f"rank-{r} subcode bases of a dimension-{code.kdim} code", budget
    )
    if r < code.kdim:
        # the table holds [k, 1]_q codewords of length n: charge its
        # entries before it is built, since its masks can far outgrow
        # the subcode search itself
        words = gaussian_binom(code.kdim, 1, code.F.q)
        check_budget(
            words * code.n,
            f"support-table entries ({words} codewords of length {code.n})",
            budget,
        )
        supports = code.support_table
    else:
        # the one rank-k subcode is spanned by the unit messages, whose
        # codewords are the generator rows
        supports = {
            tuple(int(j == i) for j in range(code.kdim)): mask
            for i, mask in enumerate(code.row_masks)
        }
    # each basis comes as two unions of its rows' support masks, looked up
    # once per row option rather than once per basis row, at least one
    # for each torus orbit of subcodes when the code has a torus
    halves = rref_span_matrices(
        code.F,
        r,
        code.kdim,
        key=supports.__getitem__,
        torus=code.torus,
        fold=or_,
    )
    return min(map(int.bit_count, starmap(or_, halves)))


def weight_hierarchy(
    code: CodeSystem, *, budget: int = DEFAULT_SUBSPACE_BUDGET
) -> tuple[int, ...]:
    """(d_1, ..., d_k).  Strict growth and d_k = n hold for any code built
    here, since construction checks its nondegeneracy (no point vanishing
    on every row, full rank); both are still checked, and a failed check
    raises ArithmeticError."""
    ranks = range(1, code.kdim + 1)
    _check_subcode_budget(code, ranks, "subcode bases across all ranks", budget)
    weights = tuple(higher_weight(code, r, budget=budget) for r in ranks)
    if any(a >= b for a, b in zip(weights, weights[1:])):
        raise ArithmeticError(f"hierarchy not strictly increasing: {weights}")
    if weights[-1] != code.n:
        raise ArithmeticError(f"hierarchy must end at n={code.n}: {weights}")
    return weights


class ConjectureReport(Record):
    """One (parameters, r) comparison of d_r against the best section cut
    out by an intersection-maximal family of generator-row labels.

    verdict is "equal", "lhs_less" or "lhs_greater" comparing d_r to
    rhs_subclose, or "no_subclose" when no size-r family within the row
    labels attains the global pairwise intersection maximum.
    rhs_all_coordinate relaxes the family constraint to every size-r row
    subset; it never exceeds rhs_subclose when the latter exists.
    """

    ell: int
    m: int
    q: int
    alpha: tuple[int, ...] | None
    r: int
    n: int
    code_dimension: int
    d_r: int
    k_r_target: int
    rhs_subclose: int | None
    rhs_all_coordinate: int
    verdict: str
    witness_lambda: tuple[tuple[int, ...], ...] | None
    proven: bool


def verify_conjecture(
    code: CodeSystem,
    r: int,
    *,
    family_budget: int = DEFAULT_FAMILY_BUDGET,
    subcode_budget: int = DEFAULT_SUBSPACE_BUDGET,
) -> ConjectureReport:
    """Compare d_r with n minus the largest section over intersection-maximal
    row families; the system's parameters come from the code.

    Those families are the ones families.maximizer_families lists within
    the row labels, and the witness is the least (union size, sorted row
    indices) among them: the lex-first family of rows reaching the least
    union, whatever the order of row_positions.
    """
    ell, m, alpha = code.ell, code.m, code.alpha
    labels = code.row_labels
    n_rows = len(labels)
    if not 1 <= r <= n_rows:
        raise ValueError(f"r={r} outside 1..{n_rows}")
    # the row-family gate refuses before the subcode search, which can
    # take far longer than the refusal
    check_budget(
        math.comb(n_rows, r), f"candidate families of {r} rows", family_budget
    )
    d_r = higher_weight(code, r, budget=subcode_budget)
    # looked up on the module, so a wrapper around families.k_r sees the call
    target = families.k_r(ell, m, r, budget=family_budget).value
    rows = code.row_masks
    unions = map(partial(reduce, or_), combinations(rows, r))
    least_any = min(map(int.bit_count, unions))
    # the listing keeps its default budget: the gate above charges the row
    # families, and on a middle row k_r charged C(k, r), which bounds it
    listed = families.maximizer_families(ell, m, r)
    if k_lambda(listed[0]) != target:
        raise ArithmeticError(f"maximizer listing misses K_r = {target} at r={r}")
    masks = colex_masks(ell, m)
    row_of = {masks[pos]: i for i, pos in enumerate(code.row_positions)}
    within = (
        tuple(sorted(map(row_of.__getitem__, fam.members)))
        for fam in listed
        if all(map(row_of.__contains__, fam.members))
    )
    least_sub, witness = min(
        ((reduce(or_, map(rows.__getitem__, i)).bit_count(), i) for i in within),
        default=(None, None),
    )
    if witness is None:
        verdict = "no_subclose"
    else:
        witness = tuple(labels[i] for i in witness)
        if d_r == least_sub:
            verdict = "equal"
        elif d_r < least_sub:
            verdict = "lhs_less"
        else:
            verdict = "lhs_greater"
    proven = r <= close_size_cap(ell, m) if alpha is None else r == 1
    return ConjectureReport(
        ell,
        m,
        code.F.q,
        alpha,
        r,
        code.n,
        code.kdim,
        d_r,
        target,
        least_sub,
        least_any,
        verdict,
        witness,
        proven,
    )
