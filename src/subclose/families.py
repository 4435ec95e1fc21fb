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
maximizer and, on request, every maximizer.  It is sequential,
deterministic and single-threaded, and nothing is cached.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from heapq import nlargest

from .combinat import SubsetIndexer, mask_of, set_of


class BudgetError(RuntimeError):
    """Raised when an enumeration would exceed its candidate budget."""


DEFAULT_FAMILY_BUDGET = 10**8

# k_r_exhaustive counts maximizers only on lattices of at most this many
# subfamilies: the counting walk cannot cut a branch whose bound merely ties
# the best, so it is kept where that stays cheap, and the cap fixes which
# K_r records carry a count
_COUNT_CAP = 1 << 22


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

    @classmethod
    def from_sets(cls, ell: int, m: int, sets) -> "SubsetFamily":
        return cls(ell, m, tuple(mask_of(s) for s in sets))

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(set_of(mask) for mask in self.members)


def k_lambda(fam: SubsetFamily) -> int:
    """Sum of |A_i cap A_j| over all unordered pairs of members."""
    mem = fam.members
    total = 0
    for i in range(len(mem)):
        a = mem[i]
        for j in range(i + 1, len(mem)):
            total += (a & mem[j]).bit_count()
    return total


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
    # common union of size ell+1, members drop one tail point each
    ell, m, mem = fam.ell, fam.m, fam.members
    r = len(mem)
    if r > ell + 1:
        return None
    if r == 0:
        if ell + 1 > m:
            return None
        return set_of((1 << (ell + 1)) - 1), ()
    if r == 1:
        outside = ((1 << m) - 1) & ~mem[0]
        if not outside:
            return None
        t = outside & -outside
        return set_of(mem[0]), set_of(t)
    union = 0
    for mask in mem:
        union |= mask
    if union.bit_count() != ell + 1:
        return None
    tail = 0
    for mask in mem:
        t = union & ~mask
        if t.bit_count() != 1 or t & tail:
            return None
        tail |= t
    return set_of(union & ~tail), set_of(tail)


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
    High range k-r <= max(ell, m-ell)+1, k = C(m, ell):
    m*C(nu, 2) - ell*(nu-1)*(k-r) + (ell-1)*C(k-r, 2) with nu = C(m-1, ell-1).
    """
    k = math.comb(m, ell)
    if not 0 <= r <= k:
        raise ValueError(f"r={r} outside 0..{k} for (ell={ell}, m={m})")
    mu = close_size_cap(ell, m)
    if r <= mu:
        return (ell - 1) * math.comb(r, 2)
    if k - r <= mu:
        nu = through_point_count(ell, m)
        c = k - r
        return m * math.comb(nu, 2) - ell * (nu - 1) * c + (ell - 1) * math.comb(c, 2)
    return None


@dataclass(frozen=True)
class KrRecord:
    """One computed K_r value with its provenance and a witness family.

    method is one of closed_form_low, closed_form_high, brute_force.  The
    witness maximizer is the colex-least maximizer for brute-force records
    and a canonical construction for closed-form ones; it is omitted only
    when the ground family is too large to enumerate.  maximizer_count is
    filled only by k_r_exhaustive (and so by k_r in auto mode) when the
    lattice has at most min(_COUNT_CAP, budget) subfamilies; it is None
    otherwise.
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


def _member_bits(masks) -> list[tuple[int, ...]]:
    return [tuple(i for i in range(mask.bit_length()) if mask >> i & 1) for mask in masks]


def _walk(bits, k: int, m: int, ell: int, r: int, ties: bool):
    """Max pairwise intersection sum over r-member families, with attainers.

    Branch and bound over index combinations in lexicographic order, which
    is colex order on families.  The bound is admissible: a candidate's ties
    to the chosen part are counted exactly (top s of them), and every pair
    of still-undecided members can meet in at most ell-1 points, so it never
    underestimates a completion.  With ties=False a bound equal to the best
    so far is cut and only strict improvements are kept, so the one attainer
    returned is the colex-least maximizer.  With ties=True only a bound
    below the best is cut and every maximizer is returned, in colex order.
    Returns (value, attainers) with attainers as index tuples.
    """
    if r == 0:
        return 0, [()]
    lm1 = ell - 1
    elcount = [0] * m
    chosen: list[int] = []
    best = -1
    found: list[tuple[int, ...]] = []

    def go(start: int, cur: int) -> None:
        nonlocal best, found
        s = r - len(chosen)
        contribs = [sum(elcount[e] for e in bits[j]) for j in range(start, k)]
        ub = cur + sum(nlargest(s, contribs)) + lm1 * s * (s - 1) // 2
        if ub < best or (ub == best and not ties):
            return
        if s == 1:
            # here ub is the best completion, cur + max(contribs)
            if ub > best:
                best, found = ub, []
            if ties:
                found += [
                    (*chosen, start + off)
                    for off, c in enumerate(contribs)
                    if cur + c == best
                ]
            else:
                found.append((*chosen, start + contribs.index(best - cur)))
            return
        for off in range(k - s + 1 - start):
            j = start + off
            chosen.append(j)
            for e in bits[j]:
                elcount[e] += 1
            go(j + 1, cur + contribs[off])
            for e in bits[j]:
                elcount[e] -= 1
            chosen.pop()

    go(0, 0)
    return best, found


def _search(ell: int, m: int, r: int, budget: int, ties: bool):
    """Range and budget checks, then the walk.

    Returns the value, the colex-least maximizer (its witness checked) and
    every attainer the walk kept, as index tuples into the colex masks.
    """
    idx = SubsetIndexer(ell, m)
    k = idx.size
    if not 0 <= r <= k:
        raise ValueError(f"r={r} outside 0..{k} for (ell={ell}, m={m})")
    candidates = math.comb(k, r)
    if candidates > budget:
        raise BudgetError(
            f"{candidates} candidate families for (ell={ell}, m={m}, r={r}) "
            f"exceed budget {budget}"
        )
    masks = idx.masks
    value, attainers = _walk(_member_bits(masks), k, m, ell, r, ties)
    first = SubsetFamily(ell, m, tuple(masks[i] for i in attainers[0]))
    _check_witness(first, value)
    return value, first, attainers


def k_r_oracle(
    ell: int, m: int, r: int, *, budget: int = DEFAULT_FAMILY_BUDGET
) -> KrRecord:
    """Exhaustive K_r over all C(k, r) families of r distinct ell-subsets.

    Never consults the closed forms and never counts.  Returns the
    colex-least maximizer (family compared as its sorted tuple of colex
    member indices).
    """
    value, first, _ = _search(ell, m, r, budget, ties=False)
    return KrRecord(ell, m, r, value, "brute_force", first)


def maximizer_families(
    ell: int, m: int, r: int, *, budget: int = DEFAULT_FAMILY_BUDGET
) -> tuple[SubsetFamily, ...]:
    """Every family attaining K_r, in colex order."""
    _, _, attainers = _search(ell, m, r, budget, ties=True)
    masks = SubsetIndexer(ell, m).masks
    return tuple(
        SubsetFamily(ell, m, tuple(masks[i] for i in chosen)) for chosen in attainers
    )


def k_r_exhaustive(
    ell: int, m: int, r: int, *, budget: int = DEFAULT_FAMILY_BUDGET
) -> KrRecord:
    """Exhaustive K_r with the colex-least maximizer, never a closed form.

    When the lattice has at most min(_COUNT_CAP, budget) subfamilies the
    search keeps every tie and the record carries the maximizer count;
    otherwise this is k_r_oracle.  Both give the same value and maximizer.
    """
    if 1 << math.comb(m, ell) <= min(_COUNT_CAP, budget):
        value, first, attainers = _search(ell, m, r, budget, ties=True)
        return KrRecord(ell, m, r, value, "brute_force", first, len(attainers))
    return k_r_oracle(ell, m, r, budget=budget)


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
    range; "auto" prefers it, then k_r_exhaustive, which also counts
    maximizers on small lattices; "oracle" forces the per-r search; "both"
    runs the search, raises ArithmeticError when a closed form disagrees
    with it, and returns the closed-form record where one applies.
    """
    if mode not in ("auto", "closed", "oracle", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    closed = None if mode == "oracle" else _closed_record(ell, m, r)
    if mode == "closed" or (mode == "auto" and closed is not None):
        return closed
    if mode == "auto":
        return k_r_exhaustive(ell, m, r, budget=budget)
    direct = k_r_oracle(ell, m, r, budget=budget)
    if closed is None:
        return direct
    if closed.value != direct.value:
        raise ArithmeticError(
            f"closed form {closed.value} disagrees with exhaustive search "
            f"{direct.value} at (ell={ell}, m={m}, r={r})"
        )
    return closed


def k_r_value(ell: int, m: int, r: int, **kw) -> int:
    return k_r(ell, m, r, **kw).value


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
    if rec.maximizer is None or dual.maximizer is None:
        raise BudgetError("maximizer witnesses unavailable at this size")
    return k_lambda(dual_star(rec.maximizer)) == dual.value


def second_duality_check(
    ell: int, m: int, r: int, *, budget: int = DEFAULT_FAMILY_BUDGET
) -> bool:
    """K_{k-r} = m*C(nu,2) - r*ell*(nu-1) + K_r, complements included.

    Also checks that the complement (within all ell-subsets) of a maximizer
    for r is a maximizer for k-r.
    """
    k = math.comb(m, ell)
    nu = through_point_count(ell, m)
    rec = k_r(ell, m, r, budget=budget)
    co = k_r(ell, m, k - r, budget=budget)
    expected = m * math.comb(nu, 2) - r * ell * (nu - 1) + rec.value
    if co.value != expected:
        return False
    if rec.maximizer is None:
        raise BudgetError("maximizer witness unavailable at this size")
    return k_lambda(complement_family(rec.maximizer)) == co.value
