"""Tests for intersection sums, close families, and the K_r machinery."""

import functools
import math
import random
import sys
import tracemalloc
from itertools import combinations

import pytest

from subclose import families
from subclose.combinat import colex_masks, mask_of, set_of
from subclose.families import (
    BudgetError,
    CloseKind,
    SubsetFamily,
    canonical_close_family,
    classify_close,
    close_size_cap,
    complement_family,
    complement_value,
    dual_star,
    first_duality_check,
    k_lambda,
    k_r,
    k_r_closed,
    k_r_oracle,
    maximizer_families,
    second_duality_check,
    sum_intersections_fixed,
    through_point_count,
    total_intersection_sum,
)

# r=0 entries prepended to the published r>=1 rows
GOLDEN_2_5 = (0, 0, 1, 3, 6, 8, 12, 15, 19, 24, 30)
GOLDEN_2_6 = (0, 0, 1, 3, 6, 10, 12, 15, 19, 24, 30, 34, 39, 45, 52, 60)

# maximizer counts for r = 0..k from a walk over every subfamily, on
# lattices the reference below is too slow to reach
COUNTS_3_6 = (
    1, 20, 90, 120, 30, 540, 30, 360, 360, 120, 12,
    120, 360, 360, 30, 540, 30, 120, 90, 20, 1,
)
COUNTS_2_7 = (
    1, 21, 105, 175, 105, 42, 7, 105, 420, 875, 21,
    21, 875, 420, 105, 7, 42, 105, 175, 105, 21, 1,
)


def fam(ell, m, *sets):
    return SubsetFamily(ell, m, tuple(mask_of(s) for s in sets))


def all_families(ell, m, size):
    masks = colex_masks(ell, m)
    for chosen in combinations(masks, size):
        yield SubsetFamily(ell, m, chosen)


# ---------------------------------------------------------------- k_lambda

def test_k_lambda_goldens():
    assert k_lambda(fam(2, 5)) == 0
    assert k_lambda(fam(2, 5, (1, 2))) == 0
    assert k_lambda(fam(2, 5, (1, 2), (3, 4))) == 0
    assert k_lambda(fam(2, 4, (1, 2), (1, 3), (1, 4))) == 3
    assert k_lambda(fam(2, 4, (1, 2), (1, 3), (2, 3))) == 3
    assert k_lambda(fam(3, 5, (1, 2, 3), (1, 2, 4), (1, 2, 5))) == 6


def test_k_lambda_against_set_arithmetic():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randint(2, 9)
        ell = rng.randint(1, m)
        masks = colex_masks(ell, m)
        size = rng.randint(0, min(len(masks), 6))
        chosen = rng.sample(range(len(masks)), size)
        f = SubsetFamily(ell, m, tuple(masks[i] for i in chosen))
        expected = sum(
            len(set(a) & set(b)) for a, b in combinations(f.sets, 2)
        )
        assert k_lambda(f) == expected


def test_subset_family_validation():
    with pytest.raises(ValueError):
        fam(2, 5, (1, 2), (1, 2))
    with pytest.raises(ValueError):
        fam(2, 5, (1, 2, 3))
    with pytest.raises(ValueError):
        fam(2, 5, (5, 6))
    with pytest.raises(ValueError):
        SubsetFamily(3, 2, ())


def test_families_and_lattices_share_one_ground_set_rule():
    # a family, the colex listing and the row check refuse a bad (ell, m)
    # with the same message
    for ell, m in ((3, 2), (-1, 2), (1, 63), (2, 2000)):
        refusals = set()
        for build in (
            lambda: SubsetFamily(ell, m, ()),
            lambda: colex_masks(ell, m),
            lambda: families._checked_masks(ell, m, 1, 10),
        ):
            with pytest.raises(ValueError) as exc:
                build()
            refusals.add(str(exc.value))
        assert len(refusals) == 1, refusals


def test_family_members_are_colex_sorted():
    f = fam(2, 5, (4, 5), (1, 2), (1, 3))
    assert f.sets == ((1, 2), (1, 3), (4, 5))


# ---------------------------------------------------- close classification

def test_classify_star_is_type1():
    w = classify_close(fam(2, 5, (1, 2), (1, 3), (1, 4), (1, 5)))
    assert w.kind is CloseKind.TYPE_I
    assert w.core == (1,)
    assert set(w.tail) == {2, 3, 4, 5}


def test_classify_triangle_is_type2():
    w = classify_close(fam(2, 5, (1, 2), (1, 3), (2, 3)))
    assert w.kind is CloseKind.TYPE_II
    assert w.core == ()
    assert set(w.tail) == {1, 2, 3}


def test_classify_small_families_are_both():
    assert classify_close(fam(2, 5, (1, 2))).kind is CloseKind.BOTH
    assert classify_close(fam(2, 5, (1, 2), (1, 3))).kind is CloseKind.BOTH
    assert classify_close(fam(3, 6, (1, 2, 3), (1, 2, 4))).kind is CloseKind.BOTH


def test_classify_not_close():
    assert classify_close(fam(2, 5, (1, 2), (3, 4))).kind is CloseKind.NOT_CLOSE
    assert (
        classify_close(fam(3, 6, (1, 2, 3), (1, 4, 5))).kind is CloseKind.NOT_CLOSE
    )


def test_classify_full_ground_set():
    # ell = m leaves no room for a TypeII tail
    assert classify_close(fam(2, 2, (1, 2))).kind is CloseKind.TYPE_I


def test_classify_witness_rebuilds_family_exhaustively():
    # every family of size <= 4 on small parameters: the witness, when one
    # exists, must reproduce the family, and closeness must match the
    # direct pairwise test
    for ell, m in ((1, 4), (2, 4), (2, 5), (3, 4), (3, 5)):
        masks = colex_masks(ell, m)
        for size in range(min(len(masks), 4) + 1):
            for f in all_families(ell, m, size):
                w = classify_close(f)
                pairwise = all(
                    len(set(a) & set(b)) == ell - 1
                    for a, b in combinations(f.sets, 2)
                )
                assert (w.kind is not CloseKind.NOT_CLOSE) == pairwise
                if w.kind is CloseKind.NOT_CLOSE:
                    continue
                core, tail = set(w.core), list(w.tail)
                if w.kind in (CloseKind.TYPE_I, CloseKind.BOTH):
                    rebuilt = {
                        tuple(sorted(core | {t})) for t in tail
                    }
                else:
                    union = core | set(tail)
                    rebuilt = {
                        tuple(sorted(union - {t})) for t in tail
                    }
                assert rebuilt == set(f.sets), (f.sets, w)


def test_close_sizes_never_exceed_cap():
    for ell, m in ((2, 4), (2, 5), (3, 5)):
        cap = close_size_cap(ell, m)
        masks = colex_masks(ell, m)
        for size in range(min(len(masks), cap + 2) + 1):
            for f in all_families(ell, m, size):
                if classify_close(f).kind is not CloseKind.NOT_CLOSE:
                    assert f.size <= cap


def test_canonical_close_family():
    for ell, m in ((2, 5), (3, 5), (2, 6), (4, 6)):
        cap = close_size_cap(ell, m)
        for r in range(cap + 1):
            f = canonical_close_family(ell, m, r)
            assert f.size == r
            assert k_lambda(f) == (ell - 1) * math.comb(r, 2)
            if r >= 1:
                assert classify_close(f).kind is not CloseKind.NOT_CLOSE
        with pytest.raises(ValueError):
            canonical_close_family(ell, m, cap + 1)


def test_dual_star_swaps_types():
    star = fam(2, 5, (1, 2), (1, 3), (1, 4), (1, 5))
    d = dual_star(star)
    assert d.ell == 3 and d.m == 5
    assert classify_close(d).kind is CloseKind.TYPE_II
    assert dual_star(d) == star


# ----------------------------------------------------------- sum identities

def test_sum_identities_by_direct_summation():
    for ell in range(1, 4):
        for m in range(ell, 9):
            masks = colex_masks(ell, m)
            if len(masks) > 60:
                continue
            nu = through_point_count(ell, m)
            subsets = [set_of(masks[i]) for i in range(len(masks))]
            # ordered pairs, diagonal included
            total = sum(
                len(set(a) & set(b)) for a in subsets for b in subsets
            )
            assert total == total_intersection_sum(ell, m) == m * nu * nu
            for a in subsets[:5]:
                by_hand = sum(
                    len(set(a) & set(b)) for b in subsets if b != a
                )
                assert by_hand == sum_intersections_fixed(ell, m, a) == ell * (nu - 1)


def test_through_point_count():
    assert through_point_count(2, 5) == 4
    assert through_point_count(3, 5) == 6
    assert through_point_count(1, 5) == 1


# ------------------------------------------------------------- closed form

def test_k_r_closed_low_range():
    # (ell-1) * C(r,2) up to the close-family cap
    for ell, m in ((2, 5), (3, 5), (2, 6)):
        mu = close_size_cap(ell, m)
        for r in range(mu + 1):
            assert k_r_closed(ell, m, r) == (ell - 1) * math.comb(r, 2)


def test_k_r_closed_middle_range_is_none():
    assert k_r_closed(2, 5, 5) is None
    for r in range(6, 10):
        assert k_r_closed(2, 6, r) is None


def test_k_r_closed_high_range_matches_duality():
    for ell, m in ((2, 5), (2, 6), (3, 5)):
        k = math.comb(m, ell)
        nu = through_point_count(ell, m)
        mu = close_size_cap(ell, m)
        for c in range(mu + 1):  # c = k - r members removed
            r = k - c
            expected = (
                m * math.comb(nu, 2) - ell * (nu - 1) * c + (ell - 1) * math.comb(c, 2)
            )
            assert k_r_closed(ell, m, r) == expected


def test_k_r_closed_ranges_overlap_consistently():
    # on C(m,ell) <= 15 lattices both formulas can cover the same r
    for ell, m in ((2, 4), (3, 4), (1, 5), (4, 5)):
        k = math.comb(m, ell)
        for r in range(k + 1):
            v = k_r_closed(ell, m, r)
            assert v is not None  # no middle range this small
            assert v == k_r_oracle(ell, m, r).value


def test_golden_table_2_5():
    for r in range(11):
        assert k_r(2, 5, r).value == GOLDEN_2_5[r]
        assert k_r_oracle(2, 5, r).value == GOLDEN_2_5[r]


def test_golden_table_2_6():
    for r in range(16):
        assert k_r(2, 6, r).value == GOLDEN_2_6[r]


def test_golden_3_5_via_first_duality():
    assert k_r(3, 5, 4).value == 12
    assert k_r(3, 5, 4).value == (
        math.comb(4, 2) * (2 * 3 - 5) + k_r(2, 5, 4).value
    )


# ------------------------------------------------------------------ oracle

LATTICES = ((0, 3), (1, 4), (2, 4), (3, 4), (4, 4), (2, 5), (3, 5), (2, 6))


@functools.cache
def reference_maximizers(ell, m, r):
    # every r-family in colex order, with no bound and no shortcut
    fams = list(all_families(ell, m, r))
    value = max(k_lambda(f) for f in fams)
    return value, tuple(f for f in fams if k_lambda(f) == value)


def test_oracle_prune_audit():
    # the pruned per-r search must agree with the unpruned reference
    for ell, m in LATTICES:
        for r in range(math.comb(m, ell) + 1):
            value, attainers = reference_maximizers(ell, m, r)
            rec = k_r_oracle(ell, m, r)
            assert (rec.value, rec.maximizer) == (value, attainers[0])
            assert rec.maximizer_count is None


def test_sweep_matches_oracle_with_counts():
    # every maximizer at every r, and the value, colex-least witness and
    # maximizer count of the auto route wherever no closed form applies
    for ell, m in LATTICES:
        for r in range(math.comb(m, ell) + 1):
            value, attainers = reference_maximizers(ell, m, r)
            assert tuple(maximizer_families(ell, m, r)) == attainers
            if k_r_closed(ell, m, r) is not None:
                continue
            rec = k_r(ell, m, r, "auto")
            assert (rec.value, rec.maximizer) == (value, attainers[0])
            assert rec.maximizer_count == len(attainers)
            assert rec.method == "brute_force"


@pytest.mark.parametrize("ell, m, counts", [(3, 6, COUNTS_3_6), (2, 7, COUNTS_2_7)])
def test_maximizer_counts_pinned(ell, m, counts):
    # at every r the listing, and at every middle r the auto record, whose
    # count is the shifted maximizers' orbit sum, match counts taken by a
    # walk over every subfamily, on both sides of k/2
    k = len(counts) - 1
    sides = set()
    for r, count in enumerate(counts):
        fams = maximizer_families(ell, m, r)
        assert len(fams) == count
        if k_r_closed(ell, m, r) is None:
            rec = k_r(ell, m, r)
            assert (rec.value, rec.maximizer, rec.maximizer_count) == (
                k_lambda(fams[0]), fams[0], count
            )
            sides.add(2 * r <= k)
    assert sides == {True, False}


def test_dual_lattice_counts_match():
    # complementing every member maps the maximizers of (2, 7) one-to-one
    # onto those of (5, 7), whose middle range is the same r = 7..14
    for r in range(len(COUNTS_2_7)):
        if k_r_closed(5, 7, r) is None:
            assert k_r(5, 7, r).maximizer_count == COUNTS_2_7[r]


MIDDLE_LATTICES = ((2, 5), (3, 5), (2, 6), (4, 6), (3, 6), (2, 7), (5, 7), (1, 6))


def middle_rows(lattices):
    for ell, m in lattices:
        for r in range(math.comb(m, ell) + 1):
            if k_r_closed(ell, m, r) is None:
                yield ell, m, r


def test_shifted_search_equals_the_oracle_above_the_cap(monkeypatch):
    # with no lattice under the count cap no auto row carries a count, and
    # every one, above k/2 too, is the oracle's record
    monkeypatch.setattr(families, "_COUNT_CAP", 1)
    rows = list(middle_rows(MIDDLE_LATTICES))
    assert len(rows) == 37
    for ell, m, r in rows:
        assert k_r(ell, m, r) == k_r_oracle(ell, m, r)


def _auto_rows_without_a_walk(monkeypatch, cap):
    # every middle row of (3, 6) and (2, 7), on both sides of k/2, at the
    # given count cap, with _walk and k_r_oracle patched to fail: auto mode
    # takes value, witness and count from the shifted families
    rows = list(middle_rows(((3, 6), (2, 7))))
    oracle = [k_r_oracle(ell, m, r) for ell, m, r in rows]

    def refuse(*args, **kw):
        raise AssertionError("auto mode walked")

    monkeypatch.setattr(families, "_walk", refuse)
    monkeypatch.setattr(families, "k_r_oracle", refuse)
    monkeypatch.setattr(families, "_COUNT_CAP", cap)
    for (ell, m, r), direct in zip(rows, oracle):
        rec = k_r(ell, m, r)
        assert (rec.value, rec.maximizer) == (direct.value, direct.maximizer)
        yield rec


def test_counted_rows_walk_at_most_half(monkeypatch):
    # counted rows once walked min(r, k - r) members, then only the members
    # after colex member 0; the count is an orbit sum of the shifted
    # maximizers and the witness the colex-least of them, so they walk none
    for rec in _auto_rows_without_a_walk(monkeypatch, families._COUNT_CAP):
        assert rec.maximizer_count is not None


def test_uncounted_rows_walk_only_through_member_0(monkeypatch):
    # above the cap every row once made one walk through colex member 0;
    # the shifted families give its value and witness, so it walks none
    for rec in _auto_rows_without_a_walk(monkeypatch, 1):
        assert rec.maximizer_count is None


def test_oracle_walks_take_no_target(monkeypatch):
    # k_r_oracle proves its answer with one walk over every candidate for
    # all r members, which nothing stops early; maximizer_families lists
    # the relabelings of the shifted maximizers and walks nothing
    walks = []
    sane = families._walk

    def recording(masks, ell, r):
        walks.append((len(masks), r))
        return sane(masks, ell, r)

    monkeypatch.setattr(families, "_walk", recording)
    rows = list(middle_rows(((2, 5), (3, 5), (2, 6)))) + [(2, 8, 9)]
    for ell, m, r in rows:
        k_r_oracle(ell, m, r)
    for ell, m, r in rows[:-1]:
        maximizer_families(ell, m, r)
    assert walks == [(math.comb(m, ell), r) for ell, m, r in rows]


LATTICE_BNB_ROWS = tuple((2, 8, r) for r in range(9, 13)) + tuple(
    (3, 7, r) for r in range(6, 10)
)


def test_shifted_value_equals_the_oracle():
    # on every middle row the oracle reaches, and on the uncounted rows
    # above the count cap, whose auto records match the oracle's in full
    rows = list(middle_rows(MIDDLE_LATTICES)) + list(LATTICE_BNB_ROWS)
    for ell, m, r in rows:
        masks = colex_masks(ell, m)
        value, _ = families._shifted_maximizers(masks, m, r)
        assert value == k_r_oracle(ell, m, r).value
    for ell, m, r in LATTICE_BNB_ROWS:
        assert k_r(ell, m, r) == k_r_oracle(ell, m, r)


def shifted_off_by(monkeypatch, shift):
    sane = families._shifted_maximizers

    def doctored(masks, m, r):
        value, shifted = sane(masks, m, r)
        return value + shift, shifted

    monkeypatch.setattr(families, "_shifted_maximizers", doctored)


def test_a_shifted_value_above_the_maximum_is_refused(monkeypatch):
    # the least shifted maximizer has K = 26, not the claimed 27; an
    # ArithmeticError, which python -O keeps, names the row
    shifted_off_by(monkeypatch, 1)
    with pytest.raises(
        ArithmeticError,
        match=r"^witness for \(ell=2, m=8, r=9\) has K=26, not the claimed "
        r"maximum 27$",
    ):
        k_r(2, 8, 9)


def test_a_shifted_value_below_the_maximum_is_caught(monkeypatch):
    # the witness recount refutes a value one too low, in auto mode and in
    # "both" mode, after the oracle has run
    shifted_off_by(monkeypatch, -1)
    with pytest.raises(
        ArithmeticError,
        match=r"^witness for \(ell=2, m=8, r=9\) has K=26, not the claimed "
        r"maximum 25$",
    ):
        k_r(2, 8, 9)
    with pytest.raises(
        ArithmeticError,
        match=r"^witness for \(ell=3, m=7, r=6\) has K=27, not the claimed "
        r"maximum 26$",
    ):
        k_r(3, 7, 6, "both")


def test_the_witness_is_the_least_listed_ideal_by_member_indices(monkeypatch):
    # two Gale ideals of (3, 6, 6) with colex member indices (0,1,2,3,4,10)
    # and (0,1,2,4,5,7): the first is the lesser family, though as an
    # integer over the indices it is the greater ideal; listed as the
    # shifted maximizers of value 26, the first is the witness, and the
    # second, with K = 27, would fail the recount
    first, second = (0, 1, 2, 3, 4, 10), (0, 1, 2, 4, 5, 7)
    listed = (26, [
        (sum(1 << i for i in second), (6, 3, 3, 3, 3, 0)),
        (sum(1 << i for i in first), (5, 5, 3, 3, 1, 1)),
    ])
    monkeypatch.setattr(families, "_shifted_maximizers", lambda masks, m, r: listed)
    masks = colex_masks(3, 6)
    rec = k_r(3, 6, 6)
    assert rec.value == 26
    assert rec.maximizer == SubsetFamily(3, 6, tuple(masks[i] for i in first))


def test_a_witness_that_is_not_shifted_is_refused():
    # {1,2} and {3,4} have K = 0, the claimed value, but no relabeling
    # sorted by degree makes them a Gale ideal: K_2(2, 4) is 1
    with pytest.raises(
        ArithmeticError,
        match=r"^witness for \(ell=2, m=4, r=2\) is not shifted once its "
        r"points are sorted by degree, so it is no maximizer$",
    ):
        families._check_witness(SubsetFamily(2, 4, (0b0011, 0b1100)), 0)


def test_a_listed_family_that_is_not_an_ideal_is_refused(monkeypatch):
    # a K_4 on {1..4} and a path 5-6-7-8, nine edges with K = 14, listed as
    # the one shifted maximizer of (2, 8, 9): its K matches the listed
    # value, and only the re-check of the Gale ideal refuses it
    masks = colex_masks(2, 8)
    edges = [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4), (5, 6), (6, 7), (7, 8)]
    chosen = [mask_of(e) for e in edges]
    ideal = sum(1 << masks.index(a) for a in chosen)
    listed = (14, [(ideal, (3, 3, 3, 3, 1, 2, 2, 1))])
    assert k_lambda(SubsetFamily(2, 8, tuple(chosen))) == 14
    monkeypatch.setattr(families, "_shifted_maximizers", lambda masks, m, r: listed)
    with pytest.raises(
        ArithmeticError, match=r"^witness for \(ell=2, m=8, r=9\) is not shifted "
    ):
        k_r(2, 8, 9)


def test_the_listing_checks_each_shifted_maximizer_once(monkeypatch):
    # (3, 6) has 360 maximizers at r = 7, the relabelings of four shifted
    # maximizers; relabeling keeps what the check reads, so only the four
    # are checked
    checked = []
    sane = families._check_witness

    def counted(fam, value):
        checked.append(fam)
        sane(fam, value)

    monkeypatch.setattr(families, "_check_witness", counted)
    listed = maximizer_families(3, 6, 7)
    assert len(listed) == 360
    assert len(checked) == 4 and set(checked) <= set(listed)


@pytest.mark.parametrize("shift", [1, -1])
def test_the_listing_refuses_a_doctored_shifted_value(monkeypatch, shift):
    # the shifted maximizers of (3, 6, 7) have K = 36; one more or one
    # less fails the check of the first, before any relabeling is built
    shifted_off_by(monkeypatch, shift)
    with pytest.raises(
        ArithmeticError,
        match=rf"^witness for \(ell=3, m=6, r=7\) has K=36, not the claimed "
        rf"maximum {36 + shift}$",
    ):
        maximizer_families(3, 6, 7)


def test_the_listing_refuses_a_shifted_maximizer_that_is_not_an_ideal(
    monkeypatch,
):
    # the K_4 plus path of the test above, listed as the one shifted
    # maximizer of (2, 8, 9) with its own K = 14
    masks = colex_masks(2, 8)
    edges = [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4), (5, 6), (6, 7), (7, 8)]
    ideal = sum(1 << masks.index(mask_of(e)) for e in edges)
    listed = (14, [(ideal, (3, 3, 3, 3, 1, 2, 2, 1))])
    monkeypatch.setattr(families, "_shifted_maximizers", lambda masks, m, r: listed)
    with pytest.raises(
        ArithmeticError, match=r"^witness for \(ell=2, m=8, r=9\) is not shifted "
    ):
        maximizer_families(2, 8, 9)


def test_a_wrong_orbit_size_is_refused(monkeypatch):
    # (3, 6) has 360 maximizers at r = 7, the relabelings of four shifted
    # maximizers; orbit sizes each one too large no longer match the listing
    sane = families._orbit_size
    monkeypatch.setattr(families, "_orbit_size", lambda degrees: sane(degrees) + 1)
    with pytest.raises(
        ArithmeticError,
        match=r"^360 relabelings of the shifted maximizers, not their orbit "
        r"sum 364, at \(ell=3, m=6, r=7\)$",
    ):
        maximizer_families(3, 6, 7)


def test_oracle_record_fields():
    rec = k_r_oracle(2, 5, 4)
    assert rec.value == 6
    assert rec.method == "brute_force"
    assert k_lambda(rec.maximizer) == 6
    assert rec.maximizer_count is None
    assert len(maximizer_families(2, 5, 4)) >= 1
    # colex-least maximizer is the star at point 1... which is also the
    # canonical close family
    assert rec.maximizer == canonical_close_family(2, 5, 4)


def test_exhaustive_routes_agree(monkeypatch):
    # the 2^15 subfamilies of (2, 6) fit a count cap of 2^15 (counted) but
    # not 2^15 - 1 (uncounted); r = 6..9 is its open middle range
    for r in range(6, 10):
        value, attainers = reference_maximizers(2, 6, r)
        monkeypatch.setattr(families, "_COUNT_CAP", 1 << 15)
        counted = k_r(2, 6, r, "auto")
        monkeypatch.setattr(families, "_COUNT_CAP", (1 << 15) - 1)
        searched = k_r(2, 6, r, "auto")
        assert counted.maximizer_count == len(attainers)
        assert searched.maximizer_count is None
        for rec in (counted, searched):
            assert rec.method == "brute_force"
            assert (rec.value, rec.maximizer) == (value, attainers[0])
        assert counted.value == GOLDEN_2_6[r]


def test_witness_check_survives_optimization(monkeypatch):
    # an ArithmeticError, not an assert that python -O would strip; a
    # phantom point of degree 2 adds 1 to the witness's K, and the degree
    # sort over range(m) never reads it
    sane = families.point_degrees
    monkeypatch.setattr(families, "point_degrees", lambda fam: sane(fam) + [2])
    with pytest.raises(ArithmeticError, match="witness"):
        k_r_oracle(2, 5, 4)
    with pytest.raises(ArithmeticError):
        k_r(2, 5, 5, mode="auto")
    with pytest.raises(ArithmeticError, match="witness"):
        maximizer_families(2, 5, 5)
    with pytest.raises(ArithmeticError):
        k_r(2, 5, 2, mode="closed")


def test_maximizer_families_all_attain():
    fams = maximizer_families(2, 4, 2)
    assert len(fams) == 12  # pairs of intersecting edges on 4 points
    assert all(k_lambda(f) == 1 for f in fams)
    assert list(fams) == sorted(fams, key=lambda f: f.members)


def test_low_range_maximizers_are_close():
    # below the cap every maximizer is a close family
    for ell, m in ((2, 5), (3, 5)):
        mu = close_size_cap(ell, m)
        for r in range(2, mu + 1):
            for f in maximizer_families(ell, m, r):
                assert classify_close(f).kind is not CloseKind.NOT_CLOSE


def test_barrier_strict_above_cap():
    # at r = mu + 1 no family reaches the close-family value
    for ell, m in ((2, 5), (3, 5), (2, 6)):
        mu = close_size_cap(ell, m)
        assert k_r(ell, m, mu + 1).value < (ell - 1) * math.comb(mu + 1, 2)


def test_k_r_modes():
    assert k_r(2, 6, 7, mode="closed") is None
    assert k_r(2, 6, 7, mode="oracle").value == 15
    assert k_r(2, 6, 7).value == 15
    assert k_r(2, 5, 3, mode="closed").method == "closed_form_low"
    assert k_r(2, 5, 9, mode="closed").method == "closed_form_high"
    with pytest.raises(ValueError):
        k_r(2, 5, 3, mode="fast")
    with pytest.raises(ValueError):
        k_r(2, 5, 11)


def test_both_mode_returns_closed_record_else_oracle():
    for ell, m in ((2, 5), (3, 5)):
        for r in range(math.comb(m, ell) + 1):
            rec = k_r(ell, m, r, "both")
            closed = k_r(ell, m, r, "closed")
            if closed is not None:
                assert rec == closed
            else:
                assert rec == k_r_oracle(ell, m, r)
                assert rec.maximizer_count is None


def test_both_mode_raises_on_disagreement(monkeypatch, replace):
    sane = families._closed_record

    def doctored(ell, m, r):
        rec = sane(ell, m, r)
        if rec is not None and r == 9:
            return replace(rec, value=rec.value - 1)
        return rec

    monkeypatch.setattr(families, "_closed_record", doctored)
    assert k_r(2, 5, 8, "both").value == 19
    with pytest.raises(
        ArithmeticError,
        match=r"closed form 23 disagrees with exhaustive search 24 "
        r"at \(ell=2, m=5, r=9\)",
    ):
        k_r(2, 5, 9, "both")


def test_both_mode_checks_the_shifted_search(monkeypatch):
    # (3, 7, 6), above the count cap, has two shifted maximizers; a listing
    # that drops the colex-least leaves auto mode the other, a true
    # maximizer but not the oracle's witness, and "both" mode refuses it
    oracle = k_r_oracle(3, 7, 6)
    assert k_r(3, 7, 6, "both") == oracle
    sane = families._shifted_maximizers

    def doctored(masks, m, r):
        value, shifted = sane(masks, m, r)
        assert len(shifted) == 2
        least = min(shifted, key=lambda pair: set_of(pair[0]))
        return value, [pair for pair in shifted if pair is not least]

    monkeypatch.setattr(families, "_shifted_maximizers", doctored)
    other = k_r(3, 7, 6)
    assert other.value == oracle.value and other.maximizer != oracle.maximizer
    with pytest.raises(
        ArithmeticError,
        match=r"^shifted-family search 27 .* disagrees with exhaustive search "
        r"27 .* at \(ell=3, m=7, r=6\)$",
    ):
        k_r(3, 7, 6, "both")


def test_closed_record_carries_witness():
    rec = k_r(2, 6, 12, mode="closed")
    assert rec.value == GOLDEN_2_6[12]
    assert k_lambda(rec.maximizer) == rec.value
    assert rec.maximizer_count is None


# --------------------------------------------------------------- dualities

def test_first_duality_all_r():
    for ell, m in ((2, 5), (3, 5), (2, 4)):
        k = math.comb(m, ell)
        for r in range(k + 1):
            assert first_duality_check(ell, m, r)


def test_second_duality_all_r():
    for ell, m in ((2, 5), (3, 5)):
        k = math.comb(m, ell)
        for r in range(k + 1):
            assert second_duality_check(ell, m, r)


def test_second_duality_pointwise_any_family():
    # the identity behind the K_r-level statement holds for every family,
    # maximizer or not
    rng = random.Random(23)
    for ell, m in ((2, 5), (3, 5), (2, 6)):
        masks = colex_masks(ell, m)
        k = len(masks)
        nu = through_point_count(ell, m)
        for _ in range(300):
            size = rng.randint(0, k)
            chosen = rng.sample(range(k), size)
            f = SubsetFamily(ell, m, tuple(masks[i] for i in chosen))
            co = complement_family(f)
            assert co.size == k - size
            assert k_lambda(co) == (
                m * math.comb(nu, 2) - size * ell * (nu - 1) + k_lambda(f)
            )


def test_complement_value_is_the_family_identity():
    # every family of at most 4 members, not just maximizers
    for ell, m in ((1, 4), (2, 4), (2, 5), (3, 5)):
        k = math.comb(m, ell)
        for size in range(5):
            for f in all_families(ell, m, size):
                assert k_lambda(complement_family(f)) == complement_value(
                    ell, m, f.size, k_lambda(f)
                )
        for r in range(k + 1):
            for value in (0, 7, 100):
                back = complement_value(ell, m, r, value)
                assert complement_value(ell, m, k - r, back) == value


def test_duality_checks_refuse_without_witnesses(monkeypatch):
    # above the witness cap closed records carry no maximizer to check
    monkeypatch.setattr(families, "_MAXIMIZER_CAP", 9)
    for check in (first_duality_check, second_duality_check):
        with pytest.raises(
            BudgetError,
            match=r"^10 ell-subsets for \(ell=2, m=5\) exceed budget 9$",
        ):
            check(2, 5, 1)


def test_complement_family_edges():
    f = fam(2, 4)
    assert complement_family(f).size == 6
    full = complement_family(f)
    assert complement_family(full).size == 0


# ------------------------------------------------------------------ budget

def test_oracle_budget_error_names_count():
    with pytest.raises(BudgetError, match="6435"):
        k_r_oracle(2, 6, 7, budget=100)


def test_walk_depth_is_capped(monkeypatch):
    # the walk recurses once per member: 901 levels pass the candidate
    # budget (C(903, 2) = 407253) but not the depth cap
    with pytest.raises(
        BudgetError,
        match=r"^901 walk levels for \(ell=2, m=43, r=901\) exceed budget 900$",
    ):
        k_r_oracle(2, 43, 901)
    monkeypatch.setattr(families, "_WALK_DEPTH_CAP", 3)
    assert k_r_oracle(2, 5, 3).value == 3
    with pytest.raises(BudgetError, match=r"^4 walk levels "):
        k_r_oracle(2, 5, 4)


def test_maximizer_listing_is_charged_the_families_it_lists():
    # (3, 6) has 360 maximizers at r = 7; the listing walks nothing, so
    # neither C(20, 7) nor the depth cap refuses it
    with pytest.raises(
        BudgetError,
        match=r"^360 maximizer families for \(ell=3, m=6, r=7\) exceed budget 359$",
    ):
        maximizer_families(3, 6, 7, budget=359)
    assert len(maximizer_families(3, 6, 7, budget=360)) == 360
    # C(45, 8) = 215553195 candidates, but only 90 maximizers
    assert len(maximizer_families(2, 10, 8)) == 90


def test_budget_is_checked_on_every_call():
    k_r(2, 6, 7)
    with pytest.raises(BudgetError):
        k_r(2, 6, 7, budget=1)


def traced_peak(fn):
    """Peak bytes tracemalloc sees while fn runs, and fn's result."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_count_cap_is_decided_without_building_2_to_the_k():
    # the lattice of C(34, 10) = 131128140 ell-subsets has 2^131128140
    # subfamilies; writing that number down takes 16 MB
    def refuse():
        with pytest.raises(BudgetError, match=r"\(ell=10, m=34, r=100\)"):
            k_r(10, 34, 100)

    peak, _ = traced_peak(refuse)
    assert peak < 2**20


def test_walk_memory_is_linear_in_the_lattice():
    # 780 two-subsets of {1..40}: a table of all pairwise intersections
    # would hold 608400 entries, about 5 MB
    peak, rec = traced_peak(lambda: k_r_oracle(2, 40, 2))
    assert rec.value == 1
    assert peak < 2**20


def test_budget_names_an_unprintable_count_by_its_digits():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter prints integers of any length")
    with pytest.raises(BudgetError) as caught:
        families.check_budget(10**limit, "units", 7)
    assert str(caught.value) == f"a {limit + 1}-digit number of units exceed budget 7"
    with pytest.raises(BudgetError) as caught:
        families.check_budget(10**limit - 1, "units", 7)
    assert str(caught.value) == "9" * limit + " units exceed budget 7"


def test_out_of_range_r():
    with pytest.raises(ValueError):
        k_r_oracle(2, 5, 11)
    with pytest.raises(ValueError):
        k_r(2, 5, 11, "auto")
    with pytest.raises(ValueError):
        maximizer_families(2, 5, -1)
