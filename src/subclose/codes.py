"""Codes from rational points of Grassmannians and Schubert subvarieties.

An ell-subspace of F^m is represented by its reduced row echelon basis and
mapped to its vector of ell x ell minors, indexed by the colex order on
ell-subsets of columns.  Those coordinate vectors, one per subspace, are the
columns of a generator matrix; restricting the row set to the coordinates
supported on a Schubert subvariety gives the subvariety's code.

Higher weights d_r are computed by exhausting rank-r subcodes.  The support
of a subcode is the union of the supports of any basis, so each subcode
costs one OR of cached support bitmasks.

The conjecture harness compares d_r against the section counts of
coordinate subspaces cut out by size-r families of column subsets, with the
families ranging over those attaining the global pairwise intersection
maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

from .combinat import SubsetIndexer, gaussian_binom, mask_of
from .families import (
    DEFAULT_FAMILY_BUDGET,
    BudgetError,
    k_r_value,
)
from .gf import FieldTable
from .linalg import Matrix, det, mat_rank, rref_span_matrices, vec_mat

DEFAULT_SUBSPACE_BUDGET = 10**6
DEFAULT_SUBCODE_BUDGET = 10**7


@dataclass(frozen=True)
class PluckerPoint:
    """A subspace as a normalized minor vector plus its echelon basis.

    Equality and hashing use the coordinates only; the matrix rides along
    as the witness basis.
    """

    coords: tuple[int, ...]
    matrix: Matrix = field(compare=False)
    support_mask: int = field(init=False, compare=False, default=0)

    def __post_init__(self):
        mask = 0
        for i, c in enumerate(self.coords):
            if c:
                mask |= 1 << i
        object.__setattr__(self, "support_mask", mask)


def enumerate_grassmannian(
    F: FieldTable, ell: int, m: int, *, budget: int = DEFAULT_SUBSPACE_BUDGET
) -> tuple[PluckerPoint, ...]:
    """All ell-subspaces of F^m as minor-coordinate points.

    Echelon representatives come out already normalized: the colex-least
    nonzero minor sits at the pivot column set and equals 1.  Both facts
    are checked, as are the count and distinctness of the resulting points;
    a failed check raises ArithmeticError.
    """
    count = gaussian_binom(m, ell, F.q)
    if count > budget:
        raise BudgetError(
            f"{count} subspaces for (ell={ell}, m={m}, q={F.q}) "
            f"exceed budget {budget}"
        )
    idx = SubsetIndexer(ell, m)
    col_sets = [
        tuple(t for t in range(m) if mask >> t & 1) for mask in idx.masks
    ]
    points = []
    for mat in rref_span_matrices(F, ell, m):
        coords = tuple(
            det(F, [tuple(row[c] for c in cols) for row in mat])
            for cols in col_sets
        )
        first = next(i for i, c in enumerate(coords) if c)
        if coords[first] != 1:
            raise ArithmeticError("echelon representative not normalized")
        points.append(PluckerPoint(coords, mat))
    if len(points) != count:
        raise ArithmeticError(f"{len(points)} subspaces enumerated, expected {count}")
    if len(set(points)) != count:
        raise ArithmeticError("coordinate vectors collide")
    return tuple(points)


def check_plucker_relations(
    F: FieldTable, point: PluckerPoint, ell: int, m: int
) -> bool:
    """Quadratic exchange relations on a coordinate vector.

    For every (ell-1)-subset A and (ell+1)-subset B of columns the
    alternating sum over t in B of p_{A+t} * p_{B-t} must vanish.  For
    ell = 2 this is the classical three-term relation; for ell = 1 it is
    vacuous.
    """
    idx = SubsetIndexer(ell, m)
    coords = point.coords

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
        v = coords[idx.index_of(tuple(sorted(c + 1 for c in cols)))]
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
    if any(a < i for i, a in enumerate(alpha, start=1)):
        raise ValueError(f"alpha={alpha} cuts out an empty variety")
    return alpha


def schubert_support(alpha, ell: int, m: int) -> tuple[int, ...]:
    """Coordinate positions allowed to be nonzero on the subvariety: the
    colex indices of subsets dominated entrywise by alpha."""
    alpha = validate_alpha(alpha, ell, m)
    idx = SubsetIndexer(ell, m)
    return tuple(
        i
        for i in range(idx.size)
        if all(b <= a for b, a in zip(idx.subset_at(i), alpha))
    )


def schubert_coordinate_count(alpha, ell: int, m: int) -> int:
    """Number of allowed coordinates; the dimension of the subvariety's
    code when nondegenerate."""
    return len(schubert_support(alpha, ell, m))


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


def enumerate_schubert(
    F: FieldTable,
    alpha,
    ell: int,
    m: int,
    *,
    budget: int = DEFAULT_SUBSPACE_BUDGET,
) -> tuple[PluckerPoint, ...]:
    """Points of the subvariety: exactly those whose coordinates vanish
    outside the allowed positions."""
    allowed = 0
    for pos in schubert_support(alpha, ell, m):
        allowed |= 1 << pos
    return tuple(
        pt
        for pt in enumerate_grassmannian(F, ell, m, budget=budget)
        if pt.support_mask & ~allowed == 0
    )


@dataclass(frozen=True)
class CodeSystem:
    """A linear code presented by a generator matrix whose columns are the
    points of a projective system.

    The system is G(ell, m) over F, or its Schubert subvariety for alpha
    when alpha is not None.  row_labels names each generator row by the
    column subset (1-based) whose minor it reads off; row_positions gives
    the same rows as coordinate indices into the full minor vector.
    """

    F: FieldTable = field(compare=False)
    ell: int
    m: int
    alpha: tuple[int, ...] | None
    generator: Matrix
    row_labels: tuple[tuple[int, ...], ...]
    row_positions: tuple[int, ...]
    points: tuple[PluckerPoint, ...] = field(compare=False)

    @property
    def n(self) -> int:
        return len(self.generator[0]) if self.generator else 0

    @property
    def kdim(self) -> int:
        return len(self.generator)


def build_code(
    F: FieldTable, ell: int, m: int, alpha, points, row_positions
) -> CodeSystem:
    """Assemble the generator matrix and insist it is full rank with no
    identically-zero position."""
    points = tuple(points)
    if not points:
        raise ValueError("a code needs at least one point")
    generator = tuple(
        tuple(pt.coords[pos] for pt in points) for pos in row_positions
    )
    for j in range(len(points)):
        if all(row[j] == 0 for row in generator):
            raise ArithmeticError(f"point {j} vanishes on every chosen row")
    rank = mat_rank(F, generator)
    if rank != len(generator):
        raise ArithmeticError(
            f"generator rank {rank} below row count {len(generator)}"
        )
    idx = SubsetIndexer(ell, m)
    labels = tuple(idx.subset_at(pos) for pos in row_positions)
    return CodeSystem(
        F, ell, m, alpha, generator, labels, tuple(row_positions), points
    )


def grassmann_code(
    F: FieldTable, ell: int, m: int, *, budget: int = DEFAULT_SUBSPACE_BUDGET
) -> CodeSystem:
    """Code of the full subspace system: n = number of subspaces, one row
    per minor coordinate."""
    points = enumerate_grassmannian(F, ell, m, budget=budget)
    return build_code(F, ell, m, None, points, tuple(range(math.comb(m, ell))))


def schubert_code(
    F: FieldTable,
    alpha,
    ell: int,
    m: int,
    *,
    budget: int = DEFAULT_SUBSPACE_BUDGET,
) -> CodeSystem:
    """Code of the subvariety's points, rows restricted to the allowed
    coordinates."""
    alpha = validate_alpha(alpha, ell, m)
    points = enumerate_schubert(F, alpha, ell, m, budget=budget)
    positions = schubert_support(alpha, ell, m)
    return build_code(F, ell, m, alpha, points, positions)


def _word_support_mask(F, message, generator, cache) -> int:
    hit = cache.get(message)
    if hit is None:
        word = vec_mat(F, message, generator)
        hit = 0
        for j, x in enumerate(word):
            if x:
                hit |= 1 << j
        cache[message] = hit
    return hit


def higher_weight(
    code: CodeSystem, r: int, *, budget: int = DEFAULT_SUBCODE_BUDGET
) -> int:
    """d_r: the smallest support size over rank-r subcodes, by exhaustion
    over echelon representatives of the message-space subspaces."""
    if not 1 <= r <= code.kdim:
        raise ValueError(f"r={r} outside 1..{code.kdim}")
    count = gaussian_binom(code.kdim, r, code.F.q)
    if count > budget:
        raise BudgetError(
            f"{count} rank-{r} subcodes of a dimension-{code.kdim} code "
            f"exceed budget {budget}"
        )
    cache: dict[tuple[int, ...], int] = {}
    best = None
    for basis in rref_span_matrices(code.F, r, code.kdim):
        mask = 0
        for row in basis:
            mask |= _word_support_mask(code.F, row, code.generator, cache)
        size = mask.bit_count()
        if best is None or size < best:
            best = size
    return best


def weight_hierarchy(
    code: CodeSystem, *, budget: int = DEFAULT_SUBCODE_BUDGET
) -> tuple[int, ...]:
    """(d_1, ..., d_k).  Strict growth and d_k = n hold for any code built
    here (no repeated zero positions), so both are checked; a failed check
    raises ArithmeticError."""
    total = sum(
        gaussian_binom(code.kdim, r, code.F.q) for r in range(1, code.kdim + 1)
    )
    if total > budget:
        raise BudgetError(
            f"{total} subcodes across all ranks exceed budget {budget}"
        )
    weights = tuple(
        higher_weight(code, r, budget=budget) for r in range(1, code.kdim + 1)
    )
    if any(a >= b for a, b in zip(weights, weights[1:])):
        raise ArithmeticError(f"hierarchy not strictly increasing: {weights}")
    if weights[-1] != code.n:
        raise ArithmeticError(f"hierarchy must end at n={code.n}: {weights}")
    return weights


def section_count(points, coordinate_positions) -> int:
    """How many points vanish on every listed coordinate position."""
    mask = 0
    for pos in coordinate_positions:
        mask |= 1 << pos
    return sum(1 for pt in points if pt.support_mask & mask == 0)


@dataclass(frozen=True)
class ConjectureReport:
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
    subcode_budget: int = DEFAULT_SUBCODE_BUDGET,
) -> ConjectureReport:
    """Compare d_r with n minus the largest section over intersection-maximal
    row families; the system's parameters come from the code."""
    ell, m, alpha = code.ell, code.m, code.alpha
    d_r = higher_weight(code, r, budget=subcode_budget)
    labels = code.row_labels
    n_rows = len(labels)
    if math.comb(n_rows, r) > family_budget:
        raise BudgetError(
            f"{math.comb(n_rows, r)} candidate families of {r} rows "
            f"exceed budget {family_budget}"
        )
    target = k_r_value(ell, m, r, budget=family_budget)
    masks = [mask_of(lab) for lab in labels]
    best_any = -1
    best_sub = -1
    witness = None
    for combo in combinations(range(n_rows), r):
        k_val = 0
        for a in range(r):
            ma = masks[combo[a]]
            for b in range(a + 1, r):
                k_val += (ma & masks[combo[b]]).bit_count()
        sec = section_count(
            code.points, tuple(code.row_positions[i] for i in combo)
        )
        if sec > best_any:
            best_any = sec
        if k_val == target and sec > best_sub:
            best_sub = sec
            witness = tuple(labels[i] for i in combo)
    rhs_all = code.n - best_any
    if witness is None:
        verdict = "no_subclose"
        rhs_sub = None
    else:
        rhs_sub = code.n - best_sub
        if d_r == rhs_sub:
            verdict = "equal"
        elif d_r < rhs_sub:
            verdict = "lhs_less"
        else:
            verdict = "lhs_greater"
    if alpha is None:
        proven = r <= max(ell, m - ell) + 1
    else:
        proven = r == 1
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
        rhs_sub,
        rhs_all,
        verdict,
        witness,
        proven,
    )
