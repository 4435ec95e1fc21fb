"""Small finite fields GF(p^e), q <= 16, with exhaustively verified tables.

Elements are ints 0..q-1.  For prime fields that is the residue itself; for
p^e the int packs the coefficient vector of a residue polynomial in base p,
least significant coefficient first, so e.g. in GF(4) the element 2 is x
and 3 is x+1.  Addition is coefficientwise mod p, multiplication is mod a
fixed irreducible polynomial.  Every field the module can build is small
enough to check all the axioms over all triples at construction time, and
we do exactly that rather than trust the table generator.
"""

from __future__ import annotations

from functools import cache, cached_property

from .combinat import Record

# Irreducible monic polynomials over GF(p), ascending coefficients, one per
# (p, e) we support.  x^2+x+1, x^3+x+1, x^4+x+1 over GF(2); x^2+2x+1 would
# factor over GF(3) so GF(9) uses x^2+x+2.
_IRREDUCIBLE: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (3, 2): (2, 1, 1),
}

_PRIMES = (2, 3, 5, 7, 11, 13)


class FieldTable(Record):
    """Arithmetic tables for GF(q).  Build through build_field()."""

    p: int
    e: int
    q: int
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    neg: tuple[int, ...]
    inv: tuple[int, ...]  # inv[0] unused, kept as 0
    modulus: tuple[int, ...] | None = None

    @property
    def elements(self) -> range:
        return range(self.q)

    @cached_property
    def powers(self) -> tuple[int, ...]:
        """g^0, g^1, ..., g^(q-2) for the least primitive element g, each
        power one lookup in mul.  They are checked to hold every nonzero
        element once, so g generates the multiplicative group, and g^i
        lies at index i."""
        for g in range(1, self.q):
            powers = [1]
            while len(powers) < self.q - 1:
                powers.append(self.mul[powers[-1]][g])
            if sorted(powers) == list(range(1, self.q)):
                return tuple(powers)
        raise ArithmeticError(f"GF({self.q}) has no primitive element")


def _vec(a: int, p: int, e: int) -> list[int]:
    out = []
    for _ in range(e):
        out.append(a % p)
        a //= p
    return out


def _pack(coeffs, p: int) -> int:
    out = 0
    for c in reversed(list(coeffs)):
        out = out * p + (c % p)
    return out


def _poly_mul_mod(
    a: int, b: int, p: int, e: int, modulus: tuple[int, ...] | None
) -> int:
    va, vb = _vec(a, p, e), _vec(b, p, e)
    prod = [0] * (2 * e - 1)
    for i, ca in enumerate(va):
        if ca:
            for j, cb in enumerate(vb):
                prod[i + j] = (prod[i + j] + ca * cb) % p
    # reduce by the monic modulus of degree e
    for d in range(2 * e - 2, e - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for i in range(e):
                prod[d - e + i] = (prod[d - e + i] - c * modulus[i]) % p
    return _pack(prod[:e], p)


def _verify_axioms(t: FieldTable) -> None:
    q, add, mul = t.q, t.add, t.mul
    els = range(q)
    for a in els:
        if add[0][a] != a or mul[1][a] != a or mul[0][a] != 0:
            raise ArithmeticError(f"identity axioms fail at {a} in GF({q})")
        if add[a][t.neg[a]] != 0:
            raise ArithmeticError(f"negation fails at {a} in GF({q})")
        if a and mul[a][t.inv[a]] != 1:
            raise ArithmeticError(f"inversion fails at {a} in GF({q})")
    for a in els:
        for b in els:
            if add[a][b] != add[b][a] or mul[a][b] != mul[b][a]:
                raise ArithmeticError(f"commutativity fails at ({a},{b}) in GF({q})")
            if a and b and mul[a][b] == 0:
                raise ArithmeticError(f"zero divisors at ({a},{b}) in GF({q})")
    for a in els:
        for b in els:
            for c in els:
                if add[add[a][b]][c] != add[a][add[b][c]]:
                    raise ArithmeticError(f"+ not associative in GF({q})")
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    raise ArithmeticError(f"* not associative in GF({q})")
                if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                    raise ArithmeticError(f"distributivity fails in GF({q})")


def build_field(p: int, e: int) -> FieldTable:
    """Construct GF(p^e) and verify every field axiom exhaustively."""
    if p not in _PRIMES:
        raise ValueError(f"p={p} is not a supported prime")
    if e < 1:
        raise ValueError(f"extension degree must be positive, got {e}")
    q = p**e
    if q > 16:
        raise ValueError(f"q={q} exceeds the supported maximum 16")
    # a prime field has no modulus: degree-0 polynomials never reduce
    modulus = _IRREDUCIBLE.get((p, e))
    add = tuple(
        tuple(
            _pack(((x + y) % p for x, y in zip(_vec(a, p, e), _vec(b, p, e))), p)
            for b in range(q)
        )
        for a in range(q)
    )
    mul = tuple(
        tuple(_poly_mul_mod(a, b, p, e, modulus) for b in range(q)) for a in range(q)
    )
    neg = tuple(next(b for b in range(q) if add[a][b] == 0) for a in range(q))
    inv = (0,) + tuple(
        next(b for b in range(1, q) if mul[a][b] == 1) for a in range(1, q)
    )
    table = FieldTable(p, e, q, add, mul, neg, inv, modulus)
    _verify_axioms(table)
    return table


@cache
def field_from_order(q: int) -> FieldTable:
    """GF(q) for any prime power q <= 16, built once per q."""
    if not 2 <= q <= 16:
        raise ValueError(f"q={q} outside the supported range 2..16")
    for p in _PRIMES:
        if q % p == 0:
            e = 0
            n = q
            while n % p == 0:
                n //= p
                e += 1
            if n != 1:
                raise ValueError(f"q={q} is not a prime power")
            return build_field(p, e)
    raise ValueError(f"q={q} is not a prime power")
