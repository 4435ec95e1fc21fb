"""Tests for the exact combinatorial primitives."""

import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from subclose.combinat import (
    binom_ext,
    check_binomial_identities,
    colex_masks,
    gaussian_binom,
    mask_of,
    set_of,
)


def test_binom_matches_pascal_recurrence():
    # independent oracle: build rows additively, never touching math.comb
    prev = []
    for a in range(31):
        row = [1] * (a + 1)
        for b in range(1, a):
            row[b] = prev[b - 1] + prev[b]
        for b in range(a + 1):
            assert binom_ext(a, b) == row[b]
        prev = row


def test_binom_negative_upper_by_falling_factorial():
    rng = random.Random(4)
    for _ in range(300):
        a = rng.randint(-40, -1)
        b = rng.randint(0, 12)
        val = Fraction(1)
        for i in range(b):
            val *= Fraction(a - i, i + 1)
        assert val.denominator == 1
        assert binom_ext(a, b) == val


def test_binom_spot_values():
    assert binom_ext(-1, 2) == 1
    assert binom_ext(-2, 3) == -4
    assert binom_ext(-1, 0) == 1
    assert binom_ext(0, 0) == 1
    assert binom_ext(5, -1) == 0
    assert binom_ext(-1, -3) == 0
    assert binom_ext(3, 7) == 0


def test_identity_report_clean_on_window():
    rep = check_binomial_identities(
        range(-5, 6), range(-5, 6), range(-4, 5), range(-3, 4), range(-3, 4)
    )
    assert rep.ok, rep.counterexamples[:3]
    assert not rep.counterexamples
    for name, n in rep.checked.items():
        assert n > 0, name


def test_symmetry_is_a_biconditional():
    # C(-2, 3) != C(-2, -5): condition a >= 0 really is needed
    assert binom_ext(-2, 3) == -4
    assert binom_ext(-2, -5) == 0
    rep = check_binomial_identities([-2], [3], [0], [0], [0])
    assert rep.ok


def test_gaussian_binom_q_pascal_recurrence():
    for q in (2, 3, 4):
        table = {(0, 0): 1}
        for m in range(1, 9):
            table[(m, 0)] = 1
            for ell in range(1, m + 1):
                table[(m, ell)] = (
                    table.get((m - 1, ell - 1), 0)
                    + q**ell * table.get((m - 1, ell), 0)
                )
        for m in range(9):
            for ell in range(m + 1):
                assert gaussian_binom(m, ell, q) == table[(m, ell)]


def test_gaussian_binom_counts_planes_in_f2_4():
    # brute force: spans {0, a, b, a+b} of independent pairs over GF(2)
    vecs = list(product(range(2), repeat=4))
    spans = set()
    for a in vecs[1:]:
        for b in vecs[1:]:
            if b == a:
                continue
            s = tuple(sorted({vecs[0], a, b, tuple((x + y) % 2 for x, y in zip(a, b))}))
            if len(s) == 4:
                spans.add(s)
    assert len(spans) == gaussian_binom(4, 2, 2) == 35


def test_gaussian_binom_counts_lines_in_f3_3():
    vecs = list(product(range(3), repeat=3))
    lines = set()
    for a in vecs[1:]:
        line = tuple(sorted({tuple((t * x) % 3 for x in a) for t in range(3)}))
        lines.add(line)
    assert len(lines) == gaussian_binom(3, 1, 3) == 13


def test_gaussian_binom_edges():
    assert gaussian_binom(5, 0, 2) == 1
    assert gaussian_binom(5, 5, 3) == 1
    assert gaussian_binom(2, 1, 2) == 3
    assert gaussian_binom(5, 2, 2) == 155
    with pytest.raises(ValueError):
        gaussian_binom(3, 4, 2)
    with pytest.raises(ValueError):
        gaussian_binom(3, -1, 2)
    with pytest.raises(ValueError):
        gaussian_binom(3, 1, 1)


def test_indexer_colex_goldens():
    masks = colex_masks(2, 5)
    assert len(masks) == 10
    assert set_of(masks[0]) == (1, 2)
    assert set_of(masks[1]) == (1, 3)
    assert set_of(masks[2]) == (2, 3)
    assert set_of(masks[5]) == (3, 4)
    assert set_of(masks[9]) == (4, 5)


def test_indexer_round_trip_and_order():
    for ell, m in ((1, 6), (2, 5), (3, 6), (4, 4), (0, 4)):
        masks = colex_masks(ell, m)
        assert len(masks) == math.comb(m, ell)
        assert all(mask_of(set_of(mask)) == mask for mask in masks)
        # colex order is strictly increasing as integers
        assert all(a < b for a, b in zip(masks, masks[1:]))


def test_indexer_colex_matches_sorted_reversed_tuples():
    # colex = sort by reversed tuple
    for ell, m in ((1, 6), (2, 5), (3, 6), (4, 4), (0, 4)):
        subsets = sorted(combinations(range(1, m + 1), ell), key=lambda s: s[::-1])
        assert list(colex_masks(ell, m)) == [mask_of(s) for s in subsets]


def test_indexer_empty_subsets():
    assert colex_masks(0, 4) == (0,)
    assert colex_masks(0, 0) == (0,)


def test_indexer_rejects_bad_input():
    with pytest.raises(ValueError, match=r"need 0 <= ell <= m, got ell=3, m=2"):
        colex_masks(3, 2)
    with pytest.raises(ValueError, match=r"need 0 <= ell <= m, got ell=-1, m=2"):
        colex_masks(-1, 2)
    with pytest.raises(ValueError, match=r"for mask words \(m=63 > 62\)"):
        colex_masks(1, 63)


def test_mask_set_round_trip():
    rng = random.Random(11)
    for _ in range(100):
        m = rng.randint(1, 16)
        members = tuple(sorted(rng.sample(range(1, m + 1), rng.randint(0, m))))
        assert set_of(mask_of(members)) == members
    assert mask_of((1, 3)) == 0b101
    assert set_of(0) == ()
