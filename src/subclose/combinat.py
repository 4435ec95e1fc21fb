"""Exact combinatorial primitives.

Binomial coefficients extended to arbitrary integer arguments, their
Gaussian (q-analog) counterparts, and ``colex_masks``, the fixed-size
subsets of {1..m} as bitmasks in colex order, so that a subset's colex rank
is its position in that tuple.  Everything here is exact integer
arithmetic; nothing ever goes through floats.
"""

from __future__ import annotations

import math
from operator import attrgetter


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


class Record:
    """Base of the package's immutable records, used in place of frozen
    dataclasses: every CLI command is a process of its own, and importing
    ``dataclasses`` (which pulls in inspect, ast, dis and tokenize) and
    generating each record's methods at import added about 20 ms to the
    start-up of every one of them.

    A subclass's fields are its own annotations, in order, and a class
    attribute named like a field is that field's default.  Instances are
    built positionally or by keyword, run ``__post_init__`` when the class
    defines one, refuse assignment and deletion, and compare, hash and
    print by field in the dataclass format.  Fields are set through
    object.__setattr__ in field order, so instances share one key layout.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {n: cls.__dict__[n] for n in cls._fields if n in cls.__dict__}
        # an attrgetter is no descriptor: self._key is the getter itself
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        setattr_ = object.__setattr__
        for name, value in zip(names, args):
            setattr_(self, name, value)
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> tuple:
        """Every field's value, from positional and keyword arguments and
        the class defaults."""
        name, names = type(self).__name__, self._fields
        if len(args) > len(names) or not kwargs.keys() <= set(names[len(args):]):
            raise TypeError(f"{name} takes the fields {', '.join(names)}")
        values = {**self._defaults, **dict(zip(names, args)), **kwargs}
        missing = [n for n in names if n not in values]
        if missing:
            raise TypeError(f"{name} is missing {', '.join(missing)}")
        return tuple(values[n] for n in names)

    def __post_init__(self):
        """Check or normalize the fields once they are set."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({shown})"


class IdentityReport:
    """Outcome of a pointwise sweep over the four binomial identities.

    A failed identity instance lands in ``counterexamples`` as
    (identity name, argument tuple); it is data, not an exception.
    """

    def __init__(self):
        self.checked: dict[str, int] = {}
        self.counterexamples: list[tuple[str, tuple[int, ...]]] = []

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


def check_ground_set(ell: int, m: int) -> None:
    """The one rule for ell-subsets of {1..m} as masks: 0 <= ell <= m, and
    m <= 62 so that every mask fits a machine word."""
    if not 0 <= ell <= m:
        raise ValueError(f"need 0 <= ell <= m, got ell={ell}, m={m}")
    if m > 62:
        raise ValueError(f"ground set too large for mask words (m={m} > 62)")


def colex_masks(ell: int, m: int) -> tuple[int, ...]:
    """Every ell-subset of {1..m} as a bitmask, in colex order.

    Bit i-1 stands for element i.  Among masks of equal popcount colex
    order is numeric order, so a subset's colex rank is its position in
    the tuple.  Masks stay within machine words for m <= 62, but all
    C(m, ell) of them are listed, so this is meant for lattices small
    enough to list.
    """
    check_ground_set(ell, m)
    if ell == 0:
        return (0,)
    v = (1 << ell) - 1
    out = [v]
    for _ in range(math.comb(m, ell) - 1):
        # the next integer with the same popcount (Gosper's hack)
        c = v & -v
        r = v + c
        v = (((r ^ v) >> 2) // c) | r
        out.append(v)
    return tuple(out)
