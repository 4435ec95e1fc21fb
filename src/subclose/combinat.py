"""Exact combinatorial primitives.

Binomial coefficients extended to arbitrary integer arguments, their
Gaussian (q-analog) counterparts, and a colexicographic bijection between
fixed-size subsets of {1..m} and the integers 0..C(m,ell)-1.  Everything
here is exact integer arithmetic; nothing ever goes through floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property


def binom_ext(a: int, b: int) -> int:
    """Binomial coefficient for any integers a, b.

    Defined as a*(a-1)*...*(a-b+1) / b! when b >= 0 and as 0 when b < 0.
    Negative upper arguments are fine: binom_ext(-2, 2) == 3.
    """
    if b < 0:
        return 0
    if a >= 0:
        # math.comb already returns 0 for b > a >= 0
        return math.comb(a, b)
    num = 1
    for i in range(b):
        num *= a - i
    # b consecutive integers always divide by b!, so this is exact
    return num // math.factorial(b)


@dataclass
class IdentityReport:
    """Outcome of a pointwise sweep over the four binomial identities.

    A failed identity instance lands in ``counterexamples`` as
    (identity name, argument tuple); it is data, not an exception.
    """

    checked: dict[str, int] = field(default_factory=dict)
    counterexamples: list[tuple[str, tuple[int, ...]]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def _record(self, name: str, holds: bool, args: tuple[int, ...]) -> None:
        self.checked[name] = self.checked.get(name, 0) + 1
        if not holds:
            self.counterexamples.append((name, args))


def check_binomial_identities(
    a_range: range,
    b_range: range,
    c_range: range,
    d_range: range,
    e_range: range,
) -> IdentityReport:
    """Verify four identities of the extended binomial pointwise.

    symmetry      binom(a,b) == binom(a,a-b)  iff  a >= 0 or a < b < 0
    vanishing     binom(a,b) == 0             iff  b < 0 or b > a >= 0
    cancellation  binom(a,b)*binom(b,c) == binom(a,c)*binom(a-c,b-c)
    convolution   binom(a+b,c-e) == sum_{j=e..c} binom(a+d,c-j)*binom(b-d,j-e)

    The two-sided identities are checked as biconditionals: equality must
    hold exactly when the stated side condition does.
    """
    rep = IdentityReport()
    for a in a_range:
        for b in b_range:
            eq = binom_ext(a, b) == binom_ext(a, a - b)
            cond = a >= 0 or a < b < 0
            rep._record("symmetry", eq == cond, (a, b))
            zero = binom_ext(a, b) == 0
            rep._record("vanishing", zero == (b < 0 or b > a >= 0), (a, b))
            for c in c_range:
                lhs = binom_ext(a, b) * binom_ext(b, c)
                rhs = binom_ext(a, c) * binom_ext(a - c, b - c)
                rep._record("cancellation", lhs == rhs, (a, b, c))
                for d in d_range:
                    for e in e_range:
                        lhs = binom_ext(a + b, c - e)
                        rhs = sum(
                            binom_ext(a + d, c - j) * binom_ext(b - d, j - e)
                            for j in range(e, c + 1)
                        )
                        rep._record("convolution", lhs == rhs, (a, b, c, d, e))
    return rep


def gaussian_binom(m: int, ell: int, q: int) -> int:
    """Number of ell-dimensional subspaces of a q-ary m-dimensional space.

    prod_{i=0}^{ell-1} (q^m - q^i) / (q^ell - q^i), evaluated exactly.
    """
    if q < 2:
        raise ValueError(f"need q >= 2, got q={q}")
    if not 0 <= ell <= m:
        raise ValueError(f"need 0 <= ell <= m, got ell={ell}, m={m}")
    num = den = 1
    for i in range(ell):
        num *= q**m - q**i
        den *= q**ell - q**i
    if num % den:
        raise ArithmeticError(f"{den} does not divide {num}")
    return num // den


def mask_of(items) -> int:
    """Bitmask of a collection of 1-based elements."""
    mask = 0
    for i in items:
        if i < 1:
            raise ValueError(f"elements are 1-based, got {i}")
        bit = 1 << (i - 1)
        if mask & bit:
            raise ValueError(f"duplicate element {i}")
        mask |= bit
    return mask


def set_of(mask: int) -> tuple[int, ...]:
    """Sorted tuple of 1-based elements of a bitmask."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _gosper_next(v: int) -> int:
    # next integer with the same popcount (Gosper's hack)
    c = v & -v
    r = v + c
    return (((r ^ v) >> 2) // c) | r


class SubsetIndexer:
    """Colexicographic bijection between ell-subsets of {1..m} and ranks.

    Subsets are bitmasks with bit i-1 standing for element i.  Among masks
    of equal popcount, colex order coincides with numeric order, so the
    rank of a subset is just its position in the sorted mask sequence.
    Masks stay within machine words for m <= 62.

    >>> SubsetIndexer(2, 4).subset_at(0)
    (1, 2)
    >>> SubsetIndexer(2, 4).index_of((3, 4))
    5
    """

    def __init__(self, ell: int, m: int):
        if not 0 <= ell <= m:
            raise ValueError(f"need 0 <= ell <= m, got ell={ell}, m={m}")
        if m > 62:
            raise ValueError(f"ground set too large for mask words (m={m} > 62)")
        self.ell = ell
        self.m = m
        self.size = math.comb(m, ell)

    def __len__(self) -> int:
        return self.size

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """All ell-subset masks in colex (= numeric) order."""
        if self.ell == 0:
            return (0,)
        v = (1 << self.ell) - 1
        out = [v]
        for _ in range(self.size - 1):
            v = _gosper_next(v)
            out.append(v)
        return tuple(out)

    def _check_mask(self, mask: int) -> None:
        if mask >> self.m:
            raise ValueError(f"mask {mask:#x} leaves the ground set [{self.m}]")
        if mask.bit_count() != self.ell:
            raise ValueError(
                f"mask has {mask.bit_count()} elements, expected {self.ell}"
            )

    def index_of_mask(self, mask: int) -> int:
        self._check_mask(mask)
        rank = 0
        i = 0
        pos = 0
        while mask:
            if mask & 1:
                i += 1
                rank += math.comb(pos, i)
            mask >>= 1
            pos += 1
        return rank

    def mask_at(self, index: int) -> int:
        if not 0 <= index < self.size:
            raise ValueError(f"index {index} outside 0..{self.size - 1}")
        mask = 0
        rem = index
        for i in range(self.ell, 0, -1):
            # largest position c with C(c, i) <= rem
            c = i - 1
            while math.comb(c + 1, i) <= rem:
                c += 1
            rem -= math.comb(c, i)
            mask |= 1 << c
        return mask

    def index_of(self, subset) -> int:
        return self.index_of_mask(mask_of(subset))

    def subset_at(self, index: int) -> tuple[int, ...]:
        return set_of(self.mask_at(index))
