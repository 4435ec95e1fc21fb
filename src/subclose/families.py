"""Families of fixed-size subsets and maxima of pairwise intersection sums.

A family is *close* when every two members meet in ell-1 points; exactly two
shapes realize this (a common core extended by single points, or a common
union with single points removed), and ``classify_close`` recognizes them
with explicit witnesses.  For every family size r the maximum
K_r = max(sum of |A_i cap A_j| over pairs) is produced by closed forms on
the low and high ranges of r and by exhaustive search in between; a family
attaining the maximum is called subclose.

All subsets are bitmasks on {1..m} (bit i-1 is element i).  K_r, the
number of its maximizers and their list come from the shifted families:
every maximizer is one once its points are sorted by degree (Frankl's
shifting argument, which for ell = 2 is the paper's link to threshold
graphs), so the maximizers are the relabelings of the shifted ones, and
the colex-least maximizer, k_r's witness, is the least shifted one.
k_r_oracle, a branch and bound per r over every family, is the unreduced
reference.  It is sequential, deterministic and single-threaded, and
nothing is cached.
"""

from __future__ import annotations

import enum
import math
from itertools import combinations, groupby, islice

from .combinat import Record, check_ground_set, colex_masks, mask_of, set_of


class BudgetError(RuntimeError):
    """Raised when an enumeration would exceed its candidate budget."""


def check_budget(count: int, what: str, budget: int) -> None:
    """The one budget wall: refuse count units of work above budget.

    A count too long for int-to-str conversion is named by its number of
    decimal digits instead.
    """
    if count > budget:
        try:
            shown = str(count)
        except ValueError:
            # log10(2) rounded down, so the count of digits starts low
            digits = int((count.bit_length() - 1) * 0.30102999)
            while 10**digits <= count:
                digits += 1
            shown = f"a {digits}-digit number of"
        raise BudgetError(f"{shown} {what} exceed budget {budget}")


DEFAULT_FAMILY_BUDGET = 10**8

# k_r in auto mode reports the maximizer count only on lattices of at most
# this many subfamilies; the shifted families give it on every lattice, so
# the cap fixes nothing but which K_r records carry a count
_COUNT_CAP = 1 << 22

# k_r_oracle's walk recurses once per member, and Python stops at 1000
# frames by default: a deeper walk is refused up front, leaving room for its
# callers; auto k_r refuses the same rows
_WALK_DEPTH_CAP = 900


class CloseKind(enum.Enum):
    TYPE_I = "TypeI"
    TYPE_II = "TypeII"
    BOTH = "Both"
    NOT_CLOSE = "NotClose"


class CloseFamilyWitness(Record):
    """Certificate for the close-family recognizer.

    ``core`` and ``tail`` are element tuples (1-based): a TypeI family is
    {core + {t} : t in tail}, a TypeII family is {core + tail - {t} : t in
    tail}.  Families of size <= 2 matching both shapes carry the TypeI
    witness.  NotClose carries no witness.
    """

    kind: CloseKind
    core: tuple[int, ...] | None = None
    tail: tuple[int, ...] | None = None


class SubsetFamily(Record):
    """A set of distinct ell-subsets of {1..m}, stored as sorted masks.

    Sorting masks numerically is exactly colex order on equal-size subsets,
    so ``members`` is always colex-sorted and the family representation is
    canonical.
    """

    ell: int
    m: int
    members: tuple[int, ...]

    def __post_init__(self):
        check_ground_set(self.ell, self.m)
        seen = set()
        for mask in self.members:
            if mask >> self.m:
                raise ValueError(f"mask {mask:#x} leaves the ground set [{self.m}]")
            if mask.bit_count() != self.ell:
                raise ValueError(f"member {set_of(mask)} is not an {self.ell}-subset")
            if mask in seen:
                raise ValueError(f"duplicate member {set_of(mask)}")
            seen.add(mask)
        object.__setattr__(self, "members", tuple(sorted(self.members)))

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(set_of(mask) for mask in self.members)


def k_lambda(fam: SubsetFamily) -> int:
    """Sum of |A_i cap A_j| over all unordered pairs of members.

    Counted by points: a point lying in d members is shared by C(d, 2)
    pairs, so one pass over the members' elements suffices, not one over
    the pairs.
    """
    return sum(d * (d - 1) // 2 for d in point_degrees(fam))


def point_degrees(fam: SubsetFamily) -> list[int]:
    """The number of members through each point, by one pass over the
    members' elements."""
    degrees = [0] * fam.m
    for mask in fam.members:
        while mask:
            low = mask & -mask
            degrees[low.bit_length() - 1] += 1
            mask ^= low
    return degrees


def close_size_cap(ell: int, m: int) -> int:
    """Largest size of a close family: max(ell, m-ell) + 1."""
    return max(ell, m - ell) + 1


def through_point_count(ell: int, m: int) -> int:
    """Number of ell-subsets of {1..m} containing a fixed point."""
    return math.comb(m - 1, ell - 1) if ell >= 1 else 0


def classify_close(fam: SubsetFamily) -> CloseFamilyWitness:
    """Recognize close families and certify their shape.

    Tries to build each witness from scratch and verifies it reproduces the
    family, so the certificate never relies on the structure result it
    illustrates.  A close family that fit neither shape would be a
    counterexample to that result; it raises ArithmeticError.
    """
    ell, m = fam.ell, fam.m
    if ell < 1:
        raise ValueError("classification needs ell >= 1")
    mem = fam.members
    r = len(mem)
    for i in range(r):
        for j in range(i + 1, r):
            if (mem[i] & mem[j]).bit_count() != ell - 1:
                return CloseFamilyWitness(CloseKind.NOT_CLOSE)

    type1 = _type1_witness(fam)
    type2 = _type2_witness(fam)
    if type1 and type2:
        return CloseFamilyWitness(CloseKind.BOTH, *type1)
    if type1:
        return CloseFamilyWitness(CloseKind.TYPE_I, *type1)
    if type2:
        return CloseFamilyWitness(CloseKind.TYPE_II, *type2)
    raise ArithmeticError(f"close family with no certificate: {fam.sets}")


def _type1_witness(fam):
    # common core S of size ell-1, members are S plus one tail point each
    ell, m, mem = fam.ell, fam.m, fam.members
    r = len(mem)
    if r == 0:
        return set_of((1 << (ell - 1)) - 1), ()
    if r == 1:
        a = mem[0]
        top = 1 << (a.bit_length() - 1)
        return set_of(a ^ top), set_of(top)
    core = mem[0]
    for mask in mem[1:]:
        core &= mask
    if core.bit_count() != ell - 1:
        return None
    tail = 0
    for mask in mem:
        t = mask & ~core
        if t.bit_count() != 1 or t & tail:
            return None
        tail |= t
    return set_of(core), set_of(tail)


def _type2_witness(fam):
    # common union of size ell+1, members drop one tail point each; the
    # member complements then form a TypeI family with the same tail, whose
    # core is the outside of the union
    dual = fam.ell < fam.m and _type1_witness(dual_star(fam))
    if not dual:
        return None
    outside, tail = dual
    return set_of(((1 << fam.m) - 1) & ~mask_of(outside + tail)), tail


def dual_star(fam: SubsetFamily) -> SubsetFamily:
    """Family of member complements within {1..m}; involutive."""
    full = (1 << fam.m) - 1
    return SubsetFamily(fam.m - fam.ell, fam.m, tuple(full ^ a for a in fam.members))


def complement_family(fam: SubsetFamily) -> SubsetFamily:
    """All ell-subsets of {1..m} that are not members."""
    have = set(fam.members)
    rest = tuple(a for a in colex_masks(fam.ell, fam.m) if a not in have)
    return SubsetFamily(fam.ell, fam.m, rest)


def sum_intersections_fixed(ell: int, m: int, a) -> int:
    """sum_{B != A} |A cap B| over all ell-subsets B, by direct enumeration.

    Equals ell * (through_point_count(ell, m) - 1) for every choice of A.
    """
    a_mask = mask_of(a) if not isinstance(a, int) else a
    masks = colex_masks(ell, m)
    SubsetFamily(ell, m, (a_mask,))  # refuses an a that is no ell-subset of [m]
    return sum((a_mask & b).bit_count() for b in masks) - ell


def complement_value(ell: int, m: int, r: int, value: int) -> int:
    """K of the complement, within all ell-subsets of {1..m}, of an
    r-member family whose K is value: m*C(nu,2) - r*ell*(nu-1) + value with
    nu = C(m-1, ell-1).  An involution under r <-> C(m, ell) - r."""
    nu = through_point_count(ell, m)
    return m * math.comb(nu, 2) - r * ell * (nu - 1) + value


def total_intersection_sum(ell: int, m: int) -> int:
    """sum over all ordered pairs (A, B) of |A cap B|, diagonal included.

    Equals m * through_point_count(ell, m)^2.
    """
    masks = colex_masks(ell, m)
    return sum((a & b).bit_count() for a in masks for b in masks)


def canonical_close_family(ell: int, m: int, r: int) -> SubsetFamily:
    """Deterministic close family of size r (least core, least tail)."""
    k = math.comb(m, ell)
    if not 0 <= r <= min(close_size_cap(ell, m), k):
        raise ValueError(f"no close family of size {r} for (ell={ell}, m={m})")
    if ell == 0:
        return SubsetFamily(0, m, (0,) * r)  # the empty set, when r = 1
    if r <= m - ell + 1:
        core = (1 << (ell - 1)) - 1
        members = tuple(core | (1 << t) for t in range(ell - 1, ell - 1 + r))
    else:
        # here r <= ell+1 and ell+1 <= m: drop one of the top r points of
        # the union {1..ell+1} in turn
        union = (1 << (ell + 1)) - 1
        members = tuple(union ^ (1 << t) for t in range(ell - r + 1, ell + 1))
    return SubsetFamily(ell, m, members)


def k_r_closed(ell: int, m: int, r: int) -> int | None:
    """Closed-form K_r where one applies, None in the open middle range.

    Low range r <= max(ell, m-ell)+1: (ell-1) * C(r, 2).
    High range k-r <= max(ell, m-ell)+1, k = C(m, ell): the complement
    of a low-range maximizer for k-r, complement_value(ell, m, k-r,
    (ell-1) * C(k-r, 2)).
    """
    k = math.comb(m, ell)
    if not 0 <= r <= k:
        raise ValueError(f"r={r} outside 0..{k} for (ell={ell}, m={m})")
    mu = close_size_cap(ell, m)
    if r <= mu:
        return (ell - 1) * math.comb(r, 2)
    if k - r <= mu:
        return complement_value(ell, m, k - r, (ell - 1) * math.comb(k - r, 2))
    return None


class KrRecord(Record):
    """One computed K_r value with its provenance and a witness family.

    method is one of closed_form_low, closed_form_high, brute_force.  The
    witness maximizer is the colex-least maximizer for brute-force records
    and a canonical construction for closed-form ones; it is omitted only
    when the ground family is too large to enumerate.  k_r in auto mode
    takes every brute-force value and witness from the shifted families
    (see k_r_shifted).  maximizer_count is filled only by k_r_shifted, on a
    lattice of at most _COUNT_CAP subfamilies; it is None otherwise, and
    never depends on the budget.  It is the sum of the shifted maximizers'
    orbit sizes under S_m.
    """

    ell: int
    m: int
    r: int
    value: int
    method: str
    maximizer: SubsetFamily | None
    maximizer_count: int | None = None


_MAXIMIZER_CAP = 10**6


def _closed_record(ell: int, m: int, r: int) -> KrRecord | None:
    value = k_r_closed(ell, m, r)
    if value is None:
        return None
    k = math.comb(m, ell)
    low = r <= close_size_cap(ell, m)
    maximizer = None
    if k <= _MAXIMIZER_CAP:
        close = canonical_close_family(ell, m, r if low else k - r)
        maximizer = close if low else complement_family(close)
        _check_witness(maximizer, value)
    method = "closed_form_low" if low else "closed_form_high"
    return KrRecord(ell, m, r, value, method, maximizer)


def _check_witness(fam: SubsetFamily, value: int) -> None:
    """Refuse a claimed maximizer whose K is not value, or that is not
    shifted once its points are sorted by degree, as every maximizer is
    (see _shifted_maximizers): each lower cover of a member, one element x
    moved to the point y just before it in that order when y is absent,
    must be a member.  One pass over the members' elements, O(r*ell)."""
    where = f"(ell={fam.ell}, m={fam.m}, r={fam.size})"
    degrees = point_degrees(fam)
    got = sum(d * (d - 1) // 2 for d in degrees)  # K by points, as in k_lambda
    if got != value:
        raise ArithmeticError(
            f"witness for {where} has K={got}, not the claimed maximum {value}"
        )
    order = sorted(range(fam.m), key=degrees.__getitem__, reverse=True)
    before = [0] * fam.m  # the bit of y for each point x, 0 for the first
    for y, x in zip(order, order[1:]):
        before[x] = 1 << y
    present = set(fam.members)
    for a in fam.members:
        rest = a
        while rest:
            bit = rest & -rest
            rest ^= bit
            y = before[bit.bit_length() - 1]
            if y and not a & y and a ^ bit ^ y not in present:
                raise ArithmeticError(
                    f"witness for {where} is not shifted once its points are "
                    f"sorted by degree, so it is no maximizer"
                )


def _walk(masks, ell: int, r: int):
    """Max pairwise intersection sum over r-member families, with the
    colex-least attainer.

    Branch and bound over index combinations in lexicographic order, which
    is colex order on families.  Each node carries a load vector: load[off]
    is the tie of candidate start+off to the chosen part, the sum of its
    intersections with the chosen members, all zeros at the root.  A
    child's load is the parent's load for the later candidates plus the
    new member's intersections with them, so a node costs one pass over
    the remaining candidates and the walk holds one load vector per depth,
    O(k*r) in all, with no k x k intersection table.  The loads are only a
    cheaper way to the same numbers: the bound, the order and the cuts are
    those of a walk that recounts every tie at every node, and it visits
    the same nodes.

    The bound is admissible: the top s loads count the ties to the chosen
    part exactly, and every pair of still-undecided members can meet in at
    most ell-1 points, so it never underestimates a completion; at s = 1
    it is cur + max(load), the best completion itself.  A bound equal to
    the best so far is cut and only strict improvements are kept, so the
    attainer returned is the colex-least maximizer.  Returns (value,
    attainer) with the attainer as an index tuple.
    """
    if r == 0:
        return 0, ()
    k = len(masks)
    lm1 = ell - 1
    chosen: list[int] = []
    best = -1
    found = None

    def go(start: int, cur: int, load: list[int]) -> None:
        nonlocal best, found
        s = r - len(chosen)
        ub = cur + sum(sorted(load)[-s:]) + lm1 * s * (s - 1) // 2
        if ub <= best:
            return
        if s == 1:
            best, found = ub, (*chosen, start + load.index(ub - cur))
            return
        for off in range(k - s + 1 - start):
            j = start + off
            a = masks[j]
            later = zip(islice(load, off + 1, None), islice(masks, j + 1, None))
            chosen.append(j)
            go(j + 1, cur + load[off], [c + (a & b).bit_count() for c, b in later])
            chosen.pop()

    go(0, 0, [0] * k)
    return best, found


def _shifted_maximizers(masks, m: int, r: int):
    """K_r and every shifted r-family attaining it.

    K(F) = sum over the points x of C(d_x, 2), d_x the degree of x in F.
    Shifting S_ij (i < j) replaces each member A with j in A and i not in
    A by A - j + i, unless that set is already a member; if it moves t
    members, d_i grows by t, d_j falls by t and K changes by
    t(d_i - d_j) + t^2.  Relabel the points of a maximizer so that the
    degrees do not increase: then d_i >= d_j for every i < j, and any S_ij
    that moves a member would raise K, so the maximizer is stable under
    every S_ij, that is, shifted (Frankl's shifting technique; for ell = 2
    the shifted families are the threshold graphs).  Relabeling keeps K, so
    K_r is the maximum over the shifted r-families, and every maximizer is
    a relabeling of a shifted one (see _orbit_size).

    The shifted families are the order ideals of the Gale order on the
    ell-subsets, whose lower covers of A move one element t of A to t-1
    when t-1 is not in A.  masks are the colex masks of all ell-subsets,
    and an ideal is a bitmask over their indices.  The ideals of size s+1
    are those of size s plus one member whose lower covers all lie in the
    ideal; each is built once per layer, with K raised by the new member's
    tie to the ideal, the sum of the ideal's degrees at its points.
    Returns (K_r, [(ideal, degrees), ...]), degrees the m point degrees.
    """
    index = {a: i for i, a in enumerate(masks)}
    below = [0] * len(masks)
    above = [0] * len(masks)
    for i, a in enumerate(masks):
        # the bits of the elements t >= 2 of A with t-1 not in A
        movable = a & ~(a << 1) & ~1
        while movable:
            bit = movable & -movable
            j = index[a ^ bit ^ bit >> 1]
            below[i] |= 1 << j
            above[j] |= 1 << i
            movable ^= bit
    points = [[x for x in range(a.bit_length()) if a >> x & 1] for a in masks]
    # ideal -> (K, point degrees, a superset of the members that extend it)
    layer = {0: (0, (0,) * m, 1)}
    for _ in range(r):
        grown = {}
        for ideal, (value, degrees, reach) in layer.items():
            free = reach & ~ideal
            while free:
                bit = free & -free
                free ^= bit
                j = bit.bit_length() - 1
                if below[j] & ~ideal or ideal | bit in grown:
                    continue
                raised = list(degrees)
                for x in points[j]:
                    raised[x] += 1
                tie = sum(degrees[x] for x in points[j])
                grown[ideal | bit] = (value + tie, tuple(raised), reach | above[j])
        layer = grown
    best = max(value for value, _, _ in layer.values())
    return best, [(i, d) for i, (value, d, _) in layer.items() if value == best]


def _orbit_size(degrees) -> int:
    """Number of relabelings of a shifted family with these point degrees:
    m! over the product of the factorials of its equal-degree runs.

    A shifted family's degrees do not increase.  For i < j of equal degree,
    S_ij maps the members with j and not i one-to-one into the equally
    many with i and not j, so swapping i and j fixes the family; as an
    automorphism keeps degrees, the automorphisms are the permutations
    inside the runs.  Two shifted families that relabel each other have the
    same degrees, so the relabeling stays inside the runs and they are
    equal: each maximizer relabels exactly one shifted maximizer.
    """
    size = math.factorial(len(degrees))
    for _, run in groupby(degrees):
        size //= math.factorial(len(list(run)))
    return size


def _relabelings(degrees) -> list[tuple[int, ...]]:
    """One relabeling per coset of the automorphisms in _orbit_size:
    new[x] is the new label of point x, each equal-degree run going in
    order onto one choice of labels among those the earlier runs left."""
    points = range(len(degrees))
    news = [()]
    for _, run in groupby(degrees):
        size = len(list(run))
        news = [
            new + block
            for new in news
            for block in combinations([x for x in points if x not in new], size)
        ]
    return news


def _check_range(ell: int, m: int, r: int) -> int:
    """k = C(m, ell), once the ground set and 0 <= r <= k check out."""
    check_ground_set(ell, m)
    k = math.comb(m, ell)
    if not 0 <= r <= k:
        raise ValueError(f"r={r} outside 0..{k} for (ell={ell}, m={m})")
    return k


def _checked_masks(ell: int, m: int, r: int, budget: int) -> tuple[int, ...]:
    """The colex masks of the ell-subsets, once r passes the range check,
    the walk's depth cap and the candidate budget.  The cap comes first:
    on a large lattice C(k, r) alone takes seconds once r nears 10^5."""
    k = _check_range(ell, m, r)
    what = f"for (ell={ell}, m={m}, r={r})"
    check_budget(r, f"walk levels {what}", _WALK_DEPTH_CAP)
    check_budget(math.comb(k, r), f"candidate families {what}", budget)
    return colex_masks(ell, m)


def k_r_shifted(
    ell: int, m: int, r: int, *, budget: int = DEFAULT_FAMILY_BUDGET
) -> KrRecord:
    """Brute-force record from the shifted families, for any 0 <= r <= k:
    K_r, the colex-least maximizer as witness, and the maximizer count when
    the lattice has at most _COUNT_CAP subfamilies, the sum of the shifted
    maximizers' orbit sizes.  The range check, the depth cap and the budget
    are k_r_oracle's, so both refuse the same rows.

    The colex-least maximizer is shifted.  For i < j, S_ij moves t members
    and changes K by t(t - (d_j - d_i)) >= 0 (see _shifted_maximizers):
    each member with j and not i that stays has its image, a member with i
    and not j, beside it, so d_j - d_i <= t.  It lowers every mask it
    moves, so unless it moves nothing it turns a maximizer into a colex-
    earlier one.  The witness is therefore the least shifted maximizer,
    families compared as their sorted tuples of colex member indices (the
    set bits of the ideal, ascending), the order k_r_oracle minimizes; the
    ideals as integers compare in another order.
    """
    masks = _checked_masks(ell, m, r, budget)
    value, shifted = _shifted_maximizers(masks, m, r)
    least = min(set_of(ideal) for ideal, _ in shifted)
    first = SubsetFamily(ell, m, tuple(masks[i - 1] for i in least))
    _check_witness(first, value)
    # 2^k <= _COUNT_CAP without building the k-bit integer 2^k
    counted = len(masks) < _COUNT_CAP.bit_length()
    count = sum(_orbit_size(d) for _, d in shifted) if counted else None
    return KrRecord(ell, m, r, value, "brute_force", first, count)


def k_r_oracle(
    ell: int, m: int, r: int, *, budget: int = DEFAULT_FAMILY_BUDGET
) -> KrRecord:
    """Exhaustive K_r over all C(k, r) families of r distinct ell-subsets.

    Never consults the closed forms or the shifted families and never
    counts.  Returns the colex-least maximizer (family compared as its
    sorted tuple of colex member indices).
    """
    masks = _checked_masks(ell, m, r, budget)
    value, chosen = _walk(masks, ell, r)
    first = SubsetFamily(ell, m, tuple(masks[i] for i in chosen))
    _check_witness(first, value)
    return KrRecord(ell, m, r, value, "brute_force", first)


def maximizer_families(
    ell: int, m: int, r: int, *, budget: int = DEFAULT_FAMILY_BUDGET
) -> tuple[SubsetFamily, ...]:
    """Every family attaining K_r, in colex order: the distinct
    relabelings of the shifted maximizers.

    The listing walks nothing, so its budget is charged in the families
    it lists: the sum of the shifted maximizers' orbit sizes, refused
    before any relabeling is built.  Each shifted maximizer is checked
    once (see _check_witness), since relabeling keeps K and shiftedness
    up to the order of the points; a failed check, or a listing whose
    length is not that sum, raises ArithmeticError.
    """
    _check_range(ell, m, r)
    masks = colex_masks(ell, m)
    value, shifted = _shifted_maximizers(masks, m, r)
    orbits = sum(_orbit_size(degrees) for _, degrees in shifted)
    check_budget(orbits, f"maximizer families for (ell={ell}, m={m}, r={r})", budget)
    listed = set()
    for ideal, degrees in shifted:
        chosen = [a for j, a in enumerate(masks) if ideal >> j & 1]
        _check_witness(SubsetFamily(ell, m, tuple(chosen)), value)
        members = list(map(set_of, chosen))
        for new in _relabelings(degrees):
            listed.add(tuple(sorted(sum(1 << new[x - 1] for x in a) for a in members)))
    if len(listed) != orbits:
        raise ArithmeticError(
            f"{len(listed)} relabelings of the shifted maximizers, not their "
            f"orbit sum {orbits}, at (ell={ell}, m={m}, r={r})"
        )
    return tuple(SubsetFamily(ell, m, members) for members in sorted(listed))


def k_r(
    ell: int,
    m: int,
    r: int,
    mode: str = "auto",
    *,
    budget: int = DEFAULT_FAMILY_BUDGET,
) -> KrRecord | None:
    """K_r in one of four modes.

    "closed" returns the closed-form record, or None in the open middle
    range; "auto" prefers it, then takes the value, the witness and, on a
    lattice of at most _COUNT_CAP subfamilies, the maximizer count from
    the shifted families (k_r_shifted), with the value, maximizer and
    budget of k_r_oracle.  "oracle" forces the unreduced per-r search,
    k_r_oracle; "both" runs it and raises ArithmeticError when a closed
    form disagrees with it, or in the middle range when the shifted
    families give another value or maximizer; it returns the closed-form
    record where one applies and the oracle's otherwise.
    """
    if mode not in ("auto", "closed", "oracle", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    closed = None if mode == "oracle" else _closed_record(ell, m, r)
    if mode == "closed" or (mode == "auto" and closed is not None):
        return closed
    if mode == "auto":
        return k_r_shifted(ell, m, r, budget=budget)
    direct = k_r_oracle(ell, m, r, budget=budget)
    if mode == "oracle":
        return direct
    if closed is None:
        auto = k_r_shifted(ell, m, r, budget=budget)
        if (auto.value, auto.maximizer) != (direct.value, direct.maximizer):
            raise ArithmeticError(
                f"shifted-family search {auto.value} {auto.maximizer.sets} disagrees "
                f"with exhaustive search {direct.value} {direct.maximizer.sets} "
                f"at (ell={ell}, m={m}, r={r})"
            )
        return direct
    if closed.value != direct.value:
        raise ArithmeticError(
            f"closed form {closed.value} disagrees with exhaustive search "
            f"{direct.value} at (ell={ell}, m={m}, r={r})"
        )
    return closed


def first_duality_check(
    ell: int, m: int, r: int, *, budget: int = DEFAULT_FAMILY_BUDGET
) -> bool:
    """K_r(ell, m) = C(r,2)*(2*ell - m) + K_r(m-ell, m), witnesses included.

    Also checks that complementing each member of a maximizer yields a
    maximizer on the dual side.
    """
    rec = k_r(ell, m, r, budget=budget)
    dual = k_r(m - ell, m, r, budget=budget)
    if rec.value != math.comb(r, 2) * (2 * ell - m) + dual.value:
        return False
    check_budget(
        math.comb(m, ell), f"ell-subsets for (ell={ell}, m={m})", _MAXIMIZER_CAP
    )
    return k_lambda(dual_star(rec.maximizer)) == dual.value


def second_duality_check(
    ell: int, m: int, r: int, *, budget: int = DEFAULT_FAMILY_BUDGET
) -> bool:
    """K_{k-r} = complement_value(ell, m, r, K_r), complements included.

    Also checks that the complement (within all ell-subsets) of a maximizer
    for r is a maximizer for k-r.
    """
    k = math.comb(m, ell)
    rec = k_r(ell, m, r, budget=budget)
    co = k_r(ell, m, k - r, budget=budget)
    if co.value != complement_value(ell, m, r, rec.value):
        return False
    check_budget(k, f"ell-subsets for (ell={ell}, m={m})", _MAXIMIZER_CAP)
    return k_lambda(complement_family(rec.maximizer)) == co.value
