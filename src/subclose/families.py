"""Families of fixed-size subsets and maxima of pairwise intersection sums.

A family is *close* when every two members meet in ell-1 points; exactly two
shapes realize this (a common core extended by single points, or a common
union with single points removed), and ``classify_close`` recognizes them
with explicit witnesses.  For every family size r the maximum
K_r = max(sum of |A_i cap A_j| over pairs) is produced by closed forms on
the low and high ranges of r and by exhaustive search in between; a family
attaining the maximum is called subclose.

All subsets are bitmasks on {1..m} (bit i-1 is element i).  The search is
one branch and bound per r, which gives the value, the colex-least
maximizer and, on request, every maximizer.  Since S_m permutes the
ell-subsets transitively, k_r's own search walks only the families through
colex member 0; k_r_oracle walks them all and is the unreduced reference.
Where k_r does not count maximizers it takes the value from the shifted
families instead (every maximizer is one, once its points are sorted by
degree: Frankl's shifting argument, which for ell = 2 is the paper's link
to threshold graphs), and the walk only finds the witness, stopping at
its first attainer.  It is sequential, deterministic and single-threaded,
and nothing is cached.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import islice

from .combinat import SubsetIndexer, mask_of, set_of


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

# k_r in auto mode searches the families through colex member 0 on every
# lattice, and counts maximizers only on lattices of at most this many
# subfamilies: the counting walk cannot cut a branch whose bound merely ties
# the best, so it is kept where that stays cheap, and the cap alone fixes
# which K_r records carry a count; above it the value comes from the
# shifted families and the walk stops at its first attainer
_COUNT_CAP = 1 << 22

# the walk recurses once per member, and Python stops at 1000 frames by
# default: a deeper walk is refused up front, leaving room for its callers
_WALK_DEPTH_CAP = 900


class CloseKind(enum.Enum):
    TYPE_I = "TypeI"
    TYPE_II = "TypeII"
    BOTH = "Both"
    NOT_CLOSE = "NotClose"


@dataclass(frozen=True)
class CloseFamilyWitness:
    """Certificate for the close-family recognizer.

    ``core`` and ``tail`` are element tuples (1-based): a TypeI family is
    {core + {t} : t in tail}, a TypeII family is {core + tail - {t} : t in
    tail}.  Families of size <= 2 matching both shapes carry the TypeI
    witness.  NotClose carries no witness.
    """

    kind: CloseKind
    core: tuple[int, ...] | None = None
    tail: tuple[int, ...] | None = None


@dataclass(frozen=True)
class SubsetFamily:
    """A set of distinct ell-subsets of {1..m}, stored as sorted masks.

    Sorting masks numerically is exactly colex order on equal-size subsets,
    so ``members`` is always colex-sorted and the family representation is
    canonical.
    """

    ell: int
    m: int
    members: tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.ell <= self.m:
            raise ValueError(f"need 0 <= ell <= m, got ell={self.ell}, m={self.m}")
        if self.m > 62:
            raise ValueError(f"ground set too large (m={self.m} > 62)")
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
    degrees = [0] * fam.m
    for mask in fam.members:
        while mask:
            low = mask & -mask
            degrees[low.bit_length() - 1] += 1
            mask ^= low
    return sum(d * (d - 1) // 2 for d in degrees)


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
    rest = tuple(a for a in SubsetIndexer(fam.ell, fam.m).masks if a not in have)
    return SubsetFamily(fam.ell, fam.m, rest)


def sum_intersections_fixed(ell: int, m: int, a) -> int:
    """sum_{B != A} |A cap B| over all ell-subsets B, by direct enumeration.

    Equals ell * (through_point_count(ell, m) - 1) for every choice of A.
    """
    a_mask = mask_of(a) if not isinstance(a, int) else a
    idx = SubsetIndexer(ell, m)
    idx._check_mask(a_mask)
    return sum((a_mask & b).bit_count() for b in idx.masks) - ell


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
    masks = SubsetIndexer(ell, m).masks
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


@dataclass(frozen=True)
class KrRecord:
    """One computed K_r value with its provenance and a witness family.

    method is one of closed_form_low, closed_form_high, brute_force.  The
    witness maximizer is the colex-least maximizer for brute-force records
    and a canonical construction for closed-form ones; it is omitted only
    when the ground family is too large to enumerate.  k_r in auto mode
    finds every brute-force record from the families through colex member
    0 (see _member0_record), and above _COUNT_CAP subfamilies takes the
    value from the shifted families and stops the walk at the first
    family that reaches it; the record is the same either way.
    maximizer_count is filled only in auto mode, on a lattice of at most
    _COUNT_CAP subfamilies; it is None otherwise, and never depends on the
    budget.  It is counted from the maximizers through member 0, which
    rows above k/2 read from the complements of the maximizers for k-r.
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
    mu = close_size_cap(ell, m)
    if r <= mu:
        method = "closed_form_low"
        maximizer = canonical_close_family(ell, m, r) if k <= _MAXIMIZER_CAP else None
    else:
        method = "closed_form_high"
        if k <= _MAXIMIZER_CAP:
            maximizer = complement_family(canonical_close_family(ell, m, k - r))
        else:
            maximizer = None
    if maximizer is not None:
        _check_witness(maximizer, value)
    return KrRecord(ell, m, r, value, method, maximizer)


def _check_witness(fam: SubsetFamily, value: int) -> None:
    got = k_lambda(fam)
    if got != value:
        raise ArithmeticError(
            f"witness for (ell={fam.ell}, m={fam.m}, r={fam.size}) has "
            f"K={got}, not the claimed maximum {value}"
        )


class _FirstHit(Exception):
    """Ends a walk given a target at its first attainer."""


def _walk(masks, ell: int, r: int, ties: bool, load=None, *, target=None):
    """Max pairwise intersection sum over r-member families, with attainers.

    Branch and bound over index combinations in lexicographic order, which
    is colex order on families.  Each node carries a load vector: load[off]
    is the tie of candidate start+off to the chosen part, the sum of its
    intersections with the chosen members.  The root's load comes from the
    caller, all zeros when not given; a caller that has fixed one member
    outside masks passes that member's ties, and the value then counts them
    too (the auto search of k_r fixes member 0 this way).  A child's load
    is the parent's load for the later candidates plus the new member's
    intersections with them, so a node costs one pass over the remaining
    candidates and the walk holds one load vector per depth, O(k*r) in all,
    with no k x k intersection table.  The loads are only a cheaper way to
    the same numbers: the bound, the order and the cuts are those of a walk
    that recounts every tie at every node, and it visits the same nodes.

    The bound is admissible: the top s loads count the ties to the chosen
    part exactly, and every pair of still-undecided members can meet in at
    most ell-1 points, so it never underestimates a completion; at s = 1
    it is cur + max(load), the best completion itself.  With
    ties=False a bound equal to the best so far is cut and only strict
    improvements are kept, so the one attainer returned is the colex-least
    maximizer.  With ties=True only a bound below the best is cut and every
    maximizer is returned, in colex order.  Returns (value, attainers) with
    attainers as index tuples.

    A caller that already knows the maximum passes it as target, with
    ties=False.  The walk then starts from best = target - 1 and returns
    at its first attainer, without proving that nothing beats it.  Every
    node it cuts has a bound below the target, so no family reaching the
    target lies under it, and the leaves come in colex order: the first
    leaf whose best completion reaches the target holds the colex-least
    family that does, and its least last member is the one taken.  When
    the target is the true maximum that family is the colex-least
    maximizer, and the value returned is the target; when no family
    reaches the target the walk returns target - 1 and no attainer.
    """
    if r == 0:
        return 0, [()]
    k = len(masks)
    lm1 = ell - 1
    chosen: list[int] = []
    best = -1 if target is None else target - 1
    found: list[tuple[int, ...]] = []

    def go(start: int, cur: int, load: list[int]) -> None:
        nonlocal best, found
        s = r - len(chosen)
        ub = cur + sum(sorted(load)[-s:]) + lm1 * s * (s - 1) // 2
        if ub < best or (ub == best and not ties):
            return
        if s == 1:
            if ub > best:
                best, found = ub, []
            if ties:
                found += [
                    (*chosen, start + off)
                    for off, c in enumerate(load)
                    if cur + c == best
                ]
            else:
                found.append((*chosen, start + load.index(best - cur)))
                if target is not None:
                    raise _FirstHit
            return
        for off in range(k - s + 1 - start):
            j = start + off
            a = masks[j]
            later = zip(islice(load, off + 1, None), islice(masks, j + 1, None))
            chosen.append(j)
            go(j + 1, cur + load[off], [c + (a & b).bit_count() for c, b in later])
            chosen.pop()

    try:
        go(0, 0, [0] * k if load is None else load)
    except _FirstHit:
        pass
    return best, found


def _shifted_value(masks, r: int) -> int:
    """K_r as the largest K over the shifted r-families.

    K(F) = sum over the points x of C(d_x, 2), d_x the degree of x in F.
    Shifting S_ij (i < j) replaces each member A with j in A and i not in
    A by A - j + i, unless that set is already a member; if it moves t
    members, d_i grows by t, d_j falls by t and K changes by
    t(d_i - d_j) + t^2.  Relabel the points of a maximizer so that the
    degrees do not increase: then d_i >= d_j for every i < j, and any S_ij
    that moves a member would raise K, so the maximizer is stable under
    every S_ij, that is, shifted (Frankl's shifting technique; for ell = 2
    the shifted families are the threshold graphs).  Relabeling keeps K, so
    K_r is the maximum over the shifted r-families.

    The shifted families are the order ideals of the Gale order on the
    ell-subsets, whose lower covers of A move one element t of A to t-1
    when t-1 is not in A.  masks are the colex masks of all ell-subsets,
    and an ideal is a bitmask over their indices.  The ideals of size s+1
    are those of size s plus one member whose lower covers all lie in the
    ideal; each is built once per layer, with K raised by the new member's
    tie to the ideal, the sum of the ideal's degrees at its points.
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
    layer = {0: (0, (0,) * masks[-1].bit_length(), 1)}
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
    return max(value for value, _, _ in layer.values())


def _checked_masks(ell: int, m: int, r: int, budget: int) -> tuple[int, ...]:
    """The colex masks of the ell-subsets, once r passes the range check,
    the candidate budget and the walk's depth cap."""
    idx = SubsetIndexer(ell, m)
    k = idx.size
    if not 0 <= r <= k:
        raise ValueError(f"r={r} outside 0..{k} for (ell={ell}, m={m})")
    what = f"for (ell={ell}, m={m}, r={r})"
    check_budget(math.comb(k, r), f"candidate families {what}", budget)
    check_budget(r, f"walk levels {what}", _WALK_DEPTH_CAP)
    return idx.masks


def _member0_record(ell: int, m: int, r: int, budget: int) -> KrRecord:
    """Brute-force record from the families through colex member 0 alone
    (1 <= r < k), with the maximizer count when the lattice has at most
    _COUNT_CAP subfamilies.

    S_m acts on the ell-subsets transitively and maps maximizers to
    maximizers, so some maximizer contains member 0, the set {1..ell}, and
    every family through member 0 sorts before every family without it:
    the maximum over the families through member 0 is K_r, and the
    colex-least maximizer is the least of those through member 0.  By the
    same transitivity every member lies in the same number c0 of the N
    maximizers, and counting the pairs (F, A) with A a member of a
    maximizer F both ways gives r * N = k * c0.

    The walk picks the other r-1 members from masks[1:], from a root whose
    load is each candidate's tie to member 0.  Above the cap the value is
    _shifted_value's maximum over the shifted families, and the walk, given
    it as its target, only finds the witness.  Every shifted family is an
    ideal of the Gale order, and every nonempty ideal contains member 0,
    its least element, so a shifted maximizer goes through member 0 and the
    walk reaches the target.  It stops at its first attainer, which is the
    colex-least maximizer through member 0 (see _walk) and so the
    colex-least maximizer, the one k_r_oracle returns.  A walk that ends at
    another value than the target, because no family reaches it or the
    first that does exceeds it, raises ArithmeticError.

    Below the cap the walk lists every maximizer through member 0 to count
    them, and above k/2 it lists instead the maximizers for k-r that avoid
    member 0, on masks[1:] (some maximizer for k-r < k misses a member, so
    by transitivity one avoids member 0, and the maximum there is
    K_{k-r}): a family avoids member 0 exactly when its complement within
    all ell-subsets contains it, and complementing adds complement_value's
    constant to K, so the complements are the maximizers for r through
    member 0.
    """
    masks = _checked_masks(ell, m, r, budget)
    k = len(masks)
    # 2^k <= _COUNT_CAP without building the k-bit integer 2^k
    ties = k < _COUNT_CAP.bit_length()
    if 2 * r <= k or not ties:
        root = [(masks[0] & b).bit_count() for b in islice(masks, 1, None)]
        target = None if ties else _shifted_value(masks, r)
        value, others = _walk(masks[1:], ell, r - 1, ties, root, target=target)
        if target is not None and value != target:
            # the walk starts at target - 1: no attainer leaves it there
            raise ArithmeticError(
                f"member-0 walk reached {value if others else 'no family'}, "
                f"not the shifted-family maximum {target}, at "
                f"(ell={ell}, m={m}, r={r})"
            )
        through = [(0, *(i + 1 for i in chosen)) for chosen in others]
    else:
        co_value, avoiding = _walk(masks[1:], ell, k - r, True)
        value = complement_value(ell, m, k - r, co_value)
        through = []
        for chosen in avoiding:
            out = {i + 1 for i in chosen}
            through.append(tuple(i for i in range(k) if i not in out))
    count = None
    if ties:
        count, rest = divmod(k * len(through), r)
        if rest:
            raise ArithmeticError(
                f"orbit count {k} * {len(through)} / {r} is not whole at "
                f"(ell={ell}, m={m}, r={r})"
            )
    first = SubsetFamily(ell, m, tuple(masks[i] for i in min(through)))
    _check_witness(first, value)
    return KrRecord(ell, m, r, value, "brute_force", first, count)


def k_r_oracle(
    ell: int, m: int, r: int, *, budget: int = DEFAULT_FAMILY_BUDGET
) -> KrRecord:
    """Exhaustive K_r over all C(k, r) families of r distinct ell-subsets.

    Never consults the closed forms and never counts.  Returns the
    colex-least maximizer (family compared as its sorted tuple of colex
    member indices).
    """
    masks = _checked_masks(ell, m, r, budget)
    value, attainers = _walk(masks, ell, r, False)
    first = SubsetFamily(ell, m, tuple(masks[i] for i in attainers[0]))
    _check_witness(first, value)
    return KrRecord(ell, m, r, value, "brute_force", first)


def maximizer_families(
    ell: int, m: int, r: int, *, budget: int = DEFAULT_FAMILY_BUDGET
) -> tuple[SubsetFamily, ...]:
    """Every family attaining K_r, in colex order."""
    masks = _checked_masks(ell, m, r, budget)
    value, attainers = _walk(masks, ell, r, True)
    fams = tuple(
        SubsetFamily(ell, m, tuple(masks[i] for i in chosen)) for chosen in attainers
    )
    _check_witness(fams[0], value)
    return fams


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
    range; "auto" prefers it, then searches only the families through
    colex member 0 (_member0_record), with the value, maximizer and budget
    of k_r_oracle; the lattice size decides only whether the record also
    carries the maximizer count, which takes every maximizer through
    member 0, for r > k/2 as the complements of the maximizers for k-r
    that avoid it, or, above the cap, takes the value from the shifted
    families and only the witness from the walk.  "oracle" forces the unreduced per-r search, k_r_oracle;
    "both" runs it and raises ArithmeticError when a closed form disagrees
    with it, or in the middle range when the auto search finds another
    value or maximizer; it returns the closed-form record where one
    applies and the oracle's otherwise.
    """
    if mode not in ("auto", "closed", "oracle", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    closed = None if mode == "oracle" else _closed_record(ell, m, r)
    if mode == "closed" or (mode == "auto" and closed is not None):
        return closed
    if mode == "auto":
        return _member0_record(ell, m, r, budget)
    direct = k_r_oracle(ell, m, r, budget=budget)
    if mode == "oracle":
        return direct
    if closed is None:
        auto = _member0_record(ell, m, r, budget)
        if (auto.value, auto.maximizer) != (direct.value, direct.maximizer):
            raise ArithmeticError(
                f"member-0 search {auto.value} {auto.maximizer.sets} disagrees "
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
